//! The scenario document. A [`ScenarioSpec`] names a run and holds the
//! family spec it runs ([`Workload`]): the value that family's
//! [`Scenario`] impl takes, so every run parameter is written once.
//! Every family spec, and every part the families share, is [`SpecJson`]:
//! one JSON object naming each field (a u64 as a hex string, since a
//! JSON number is an f64), read back by requiring each field and refusing
//! any other. Each family states what makes its spec runnable in one
//! `check`, and its `testbed()` panics through that same check.

use strom_sim::{ArrivalProcess, Bandwidth, EcnConfig};
use strom_telemetry::json::{self, Value};

use crate::chaos::ChaosSpec;
use crate::cluster_chain::{Chain, ChainKind};
use crate::cluster_incast::IncastSpec;
use crate::cluster_shuffle::ShuffleSpec;
use crate::config::Platform;
use crate::event::NodeId;
use crate::fault::{LinkFaultModel, LossModel};
use crate::kv_serve::KvSpec;
use crate::scenario::{Observables, Scenario};
use crate::testbed::SwitchParams;

/// The workload of one scenario: one family's spec.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Two-host READ/WRITE soak under a seed-composed fault schedule
    /// ([`crate::chaos::chaos_model`]).
    Chaos(ChaosSpec),
    /// All-to-all shuffle over a switched cluster.
    Shuffle(ShuffleSpec),
    /// N:1 incast into one receiver through a switch port.
    Incast(IncastSpec),
    /// Open-loop KV serving tier with an exactly-once PUT audit.
    KvServe(KvSpec),
    /// A chained on-NIC kernel pipeline over a two-node testbed.
    KernelChain(Chain),
}

/// Evaluates `$body` with `$s` bound to the family spec a [`Workload`]
/// holds (a chain's [`ChainSpec`](crate::ChainSpec)).
macro_rules! each_spec {
    ($w:expr, $s:ident => $body:expr) => {
        match $w {
            Workload::Chaos($s) => $body,
            Workload::Shuffle($s) => $body,
            Workload::Incast($s) => $body,
            Workload::KvServe($s) => $body,
            Workload::KernelChain(Chain { spec: $s, .. }) => $body,
        }
    };
}

impl Workload {
    /// The platform the spec runs on.
    pub fn platform(&self) -> Platform {
        each_spec!(self, s => s.platform)
    }

    /// The spec's seed.
    pub fn seed(&self) -> u64 {
        each_spec!(self, s => s.seed)
    }

    /// The spec's seed, to derive another run from.
    pub fn seed_mut(&mut self) -> &mut u64 {
        each_spec!(self, s => &mut s.seed)
    }

    /// The family's own check of what makes its spec runnable.
    pub fn check(&self) -> Result<(), SpecError> {
        each_spec!(self, s => s.check())
    }

    /// Builds, drives and verifies the run; the fingerprint and perf list
    /// are its [`Scenario`]'s.
    pub fn observe(&self) -> Observables {
        match self {
            Workload::Chaos(s) => s.observe().1,
            Workload::Shuffle(s) => s.observe().1,
            Workload::Incast(s) => s.observe().1,
            Workload::KvServe(s) => s.observe().1,
            Workload::KernelChain(c) => c.observe().1,
        }
    }
}

/// One named scenario: everything a run observes is a deterministic
/// function of this value.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Kebab-case scenario name (`[a-z0-9-]+`), unique per workload
    /// shape within a corpus.
    pub name: String,
    /// The family spec.
    pub workload: Workload,
}

impl ScenarioSpec {
    /// Checks the name, then the family's own check.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        if let Some(c) = (self.name.chars())
            .find(|c| !c.is_ascii_lowercase() && !c.is_ascii_digit() && *c != '-')
        {
            return Err(SpecError::BadName(c));
        }
        self.workload.check()
    }

    /// Case identity within a corpus: `name@platform`.
    pub fn id(&self) -> String {
        format!("{}@{}", self.name, self.workload.platform())
    }

    /// Validates and runs the scenario.
    pub fn run(&self) -> Result<Observables, SpecError> {
        self.validate()?;
        Ok(self.workload.observe())
    }

    /// The spec as one JSON object: its name, its family's wire name
    /// and the family spec's own object.
    pub fn to_value(&self) -> Value {
        let (family, spec) = match &self.workload {
            Workload::Chaos(s) => ("chaos-soak", s.to_value()),
            Workload::Shuffle(s) => ("shuffle", s.to_value()),
            Workload::Incast(s) => ("incast", s.to_value()),
            Workload::KvServe(s) => ("kv-serve", s.to_value()),
            Workload::KernelChain(c) => ("kernel-chain", c.to_value()),
        };
        Value::obj([
            ("name", Value::str(&self.name)),
            ("family", Value::str(family)),
            ("workload", spec),
        ])
    }

    /// The spec as compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses a spec back from JSON and validates it. The inverse of
    /// [`ScenarioSpec::to_json`]: any spec that validates round-trips
    /// exactly.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let spec = Self::from_value(&json::parse(text)?)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reads [`ScenarioSpec::to_value`]'s value back, without validating
    /// it (the corpus report embeds spec objects inside case objects).
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        only(v, &["name", "family", "workload"])?;
        let w = v.field("workload")?;
        let workload = match v.field("family")?.as_str()? {
            "chaos-soak" => Workload::Chaos(ChaosSpec::from_value(w)?),
            "shuffle" => Workload::Shuffle(ShuffleSpec::from_value(w)?),
            "incast" => Workload::Incast(IncastSpec::from_value(w)?),
            "kv-serve" => Workload::KvServe(KvSpec::from_value(w)?),
            "kernel-chain" => Workload::KernelChain(Chain::from_value(w)?),
            other => return Err(SpecError::UnknownScenario(other.to_string())),
        };
        let name = v.field("name")?.as_str()?.to_string();
        Ok(ScenarioSpec { name, workload })
    }
}

/// Why a spec was refused. Typed so tooling can tell a malformed
/// document from a well-formed spec that asks for an impossible run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The scenario name is empty.
    EmptyName,
    /// The scenario name contains a character outside `[a-z0-9-]`.
    BadName(char),
    /// The document named a workload family that does not exist.
    UnknownScenario(String),
    /// The document named a platform other than `10g`/`100g`.
    UnknownPlatform(String),
    /// The document named a kernel chain that does not exist.
    UnknownChain(String),
    /// A field is outside the range the simulator can run.
    InvalidShape(String),
    /// The fields are individually valid but contradict each other
    /// (DCQCN without an ECN-marking switch to react to).
    Inconsistent(String),
    /// The document is not valid spec JSON: a parse error, or a missing,
    /// unknown or mistyped field.
    Malformed(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyName => write!(f, "scenario name is empty"),
            SpecError::BadName(c) => write!(f, "scenario name contains {c:?} (want [a-z0-9-])"),
            SpecError::UnknownScenario(s) => write!(f, "unknown workload family {s:?}"),
            SpecError::UnknownPlatform(s) => write!(f, "unknown platform {s:?} (want 10g|100g)"),
            SpecError::UnknownChain(s) => write!(f, "unknown kernel chain {s:?}"),
            SpecError::InvalidShape(why) => write!(f, "invalid shape: {why}"),
            SpecError::Inconsistent(why) => write!(f, "inconsistent spec: {why}"),
            SpecError::Malformed(why) => write!(f, "malformed spec JSON: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<json::Error> for SpecError {
    fn from(e: json::Error) -> Self {
        SpecError::Malformed(e.0)
    }
}

/// A value a scenario document holds: converted to a JSON value, read
/// back exactly.
pub trait SpecJson: Sized {
    /// The value as JSON.
    fn to_value(&self) -> Value;

    /// Reads [`SpecJson::to_value`]'s value back.
    fn from_value(v: &Value) -> Result<Self, SpecError>;
}

/// Implements [`SpecJson`] for a struct as one JSON object holding each
/// listed field under its own name, read back by requiring every field
/// and refusing any other. The struct literal names no default, so a
/// field left off the list does not compile.
macro_rules! spec_json {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::spec::SpecJson for $ty {
            fn to_value(&self) -> ::strom_telemetry::json::Value {
                let fields = [$((stringify!($field), self.$field.to_value())),*];
                ::strom_telemetry::json::Value::obj(fields)
            }

            fn from_value(
                v: &::strom_telemetry::json::Value,
            ) -> Result<Self, $crate::spec::SpecError> {
                use $crate::spec::SpecJson;
                $crate::spec::only(v, &[$(stringify!($field)),*])?;
                Ok($ty { $($field: SpecJson::from_value(v.field(stringify!($field))?)?),* })
            }
        }
    };
}
pub(crate) use spec_json;

/// Implements [`SpecJson`] for an enum as one JSON object: the variant's
/// `kind` tag beside its listed fields. Each variant's `( shape )` is
/// both the pattern that takes the value apart and the expression that
/// builds it back.
macro_rules! tagged_json {
    ($ty:ident { $($tag:literal: ($($shape:tt)+) [$($field:ident),*]),* $(,)? }) => {
        impl SpecJson for $ty {
            fn to_value(&self) -> Value {
                match *self {$(
                    $($shape)+ => Value::obj([
                        ("kind", Value::str($tag)),
                        $((stringify!($field), $field.to_value())),*
                    ]),
                )*}
            }

            fn from_value(v: &Value) -> Result<Self, SpecError> {
                match v.field("kind")?.as_str()? {
                    $($tag => {
                        only(v, &["kind", $(stringify!($field)),*])?;
                        $(let $field = SpecJson::from_value(v.field(stringify!($field))?)?;)*
                        Ok($($shape)+)
                    })*
                    other => Err(SpecError::Malformed(format!("unknown kind {other:?}"))),
                }
            }
        }
    };
}

/// Implements [`SpecJson`] for plain values: `$s` is the value to
/// convert, `$v` the JSON value to read.
macro_rules! plain_json {
    ($($ty:ty: |$s:ident| $write:expr, |$v:ident| $read:expr;)*) => {$(
        impl SpecJson for $ty {
            fn to_value(&self) -> Value {
                let $s = *self;
                $write
            }

            fn from_value($v: &Value) -> Result<Self, SpecError> {
                Ok($read)
            }
        }
    )*};
}

/// Implements [`SpecJson`] for `Option`s of these types, `None` as
/// `null`.
macro_rules! option_json {
    ($($ty:ty),*) => {$(
        impl SpecJson for Option<$ty> {
            fn to_value(&self) -> Value {
                self.as_ref().map_or(Value::Null, SpecJson::to_value)
            }

            fn from_value(v: &Value) -> Result<Self, SpecError> {
                Ok(if *v == Value::Null { None } else { Some(<$ty>::from_value(v)?) })
            }
        }
    )*};
}

// u64 values travel as `"0x…"` strings: a JSON number is an f64.
plain_json! {
    u64: |s| Value::Str(format!("{s:#x}")), |v| (v.as_str()?.strip_prefix("0x"))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| mistyped("a 0x-hex u64", v))?;
    usize: |s| Value::Num(s as f64), |v| v.as_uint(json::MAX_EXACT)? as usize;
    u32: |s| Value::Num(s.into()), |v| v.as_uint(u32::MAX.into())? as u32;
    u8: |s| Value::Num(s.into()), |v| v.as_uint(u8::MAX.into())? as u8;
    f64: |s| Value::Num(s), |v| v.as_f64()?;
    bool: |s| Value::Bool(s), |v| v.as_bool()?;
    Platform: |s| Value::str(s.name()), |v| {
        let name = v.as_str()?;
        Platform::from_name(name).ok_or_else(|| SpecError::UnknownPlatform(name.into()))?
    };
    ChainKind: |s| Value::str(s.name()), |v| {
        let name = v.as_str()?;
        ChainKind::from_name(name).ok_or_else(|| SpecError::UnknownChain(name.into()))?
    };
    // A port rate, in bit/s.
    Bandwidth: |s| Value::Num(s.bytes_per_sec() * 8.0), |v| match f64::from_value(v)? {
        bps if bps > 0.0 && bps.is_finite() => Bandwidth::bit_per_sec(bps),
        bps => return Err(SpecError::InvalidShape(format!("port_rate {bps} bit/s"))),
    };
}

option_json!(u64, usize, Bandwidth, EcnConfig, LinkFaultModel);

spec_json! { EcnConfig { min_threshold, max_threshold, max_mark_prob, seed } }
spec_json! { SwitchParams { port_rate, latency, egress_capacity, ecn } }
spec_json! { LinkFaultModel { loss, corrupt_rate, reorder_rate, reorder_jitter, duplicate_rate } }

tagged_json! {
    LossModel {
        "none": (LossModel::None) [],
        "bernoulli": (LossModel::Bernoulli(p)) [p],
        "gilbert-elliott": (
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad }
        ) [p_good_to_bad, p_bad_to_good, loss_good, loss_bad],
    }
}

// Arrival times are in picoseconds.
tagged_json! {
    ArrivalProcess {
        "poisson": (ArrivalProcess::Poisson { mean_gap }) [mean_gap],
        "mmpp": (ArrivalProcess::Mmpp { calm_gap, burst_gap, calm_dwell, burst_dwell })
            [calm_gap, burst_gap, calm_dwell, burst_dwell],
    }
}

/// Per-port fault overrides: an array of `[dst, fault]` pairs.
impl SpecJson for Vec<(NodeId, LinkFaultModel)> {
    fn to_value(&self) -> Value {
        let pair = |(dst, fault): &(NodeId, LinkFaultModel)| {
            Value::Arr(vec![dst.to_value(), fault.to_value()])
        };
        Value::Arr(self.iter().map(pair).collect())
    }

    fn from_value(v: &Value) -> Result<Self, SpecError> {
        let Value::Arr(pairs) = v else {
            return Err(mistyped("an array", v));
        };
        (pairs.iter())
            .map(|pair| match pair {
                Value::Arr(p) if p.len() == 2 => Ok((
                    usize::from_value(&p[0])?,
                    LinkFaultModel::from_value(&p[1])?,
                )),
                _ => Err(mistyped("a [dst, fault] pair", pair)),
            })
            .collect()
    }
}

/// `Malformed`: `v` is not `want`.
fn mistyped(want: &str, v: &Value) -> SpecError {
    SpecError::Malformed(format!("expected {want}, got {v:?}"))
}

/// Refuses a value that is not an object holding each of `keys` once
/// and nothing else.
pub(crate) fn only(v: &Value, keys: &[&str]) -> Result<(), SpecError> {
    let Value::Obj(fields) = v else {
        return Err(mistyped("an object", v));
    };
    if let Some((k, _)) = fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        return Err(SpecError::Malformed(format!("unknown field {k:?}")));
    }
    if fields.len() != keys.len() {
        return Err(SpecError::Malformed(format!("want each of {keys:?} once")));
    }
    Ok(())
}

/// `Err(InvalidShape(why))` unless `ok`.
pub(crate) fn shape(ok: bool, why: &str) -> Result<(), SpecError> {
    if ok {
        Ok(())
    } else {
        Err(SpecError::InvalidShape(why.to_string()))
    }
}

/// Refuses a run whose highest QPN, `qps`, does not fit the platform's
/// QP table (QPNs count from 1).
pub(crate) fn check_qp_table(platform: Platform, what: &str, qps: usize) -> Result<(), SpecError> {
    let n = platform.config().num_qps;
    let table = format!(
        "the NIC's QP table (num_qps = {n}) holds QPNs 1..={} at most",
        n - 1
    );
    shape(qps < n, &format!("{what} = {qps} QPs, but {table}"))
}

/// DCQCN only reacts to CE marks, so `cc` needs an ECN-marking switch.
pub(crate) fn check_cc(cc: bool, switch: &SwitchParams) -> Result<(), SpecError> {
    if cc && switch.ecn.is_none() {
        return Err(SpecError::Inconsistent(
            "cc needs an ECN-marking switch: DCQCN only reacts to CE marks".into(),
        ));
    }
    Ok(())
}
