//! The declarative workload corpus: every scenario family this repo has
//! accumulated — chaos soak, all-to-all shuffle (clean / storm / DCQCN),
//! N:1 incast, the open-loop KV serving tier, and the chained kernel
//! pipelines — described by a [`ScenarioSpec`] value, run at both
//! hardware platforms (§6.1: 10 G and 100 G), and held to two kinds of
//! contract:
//!
//! * a **correctness fingerprint** — an FNV-1a fold of the run's
//!   verified observables (memory images, trace streams, per-request
//!   response words, recovery counters) pinned bit-for-bit against
//!   `tests/golden/corpus.fingerprints`; drift fails the gate until the
//!   change is deliberately re-blessed with `STROM_BLESS=1`;
//! * **perf floors/ceilings** — simulated time is deterministic, so
//!   throughput floors and tail-latency ceilings hold exactly, not
//!   statistically.
//!
//! [`run_corpus`] executes the full matrix and returns a
//! [`CorpusReport`] that renders to one machine-readable JSON document
//! (schema `strom-corpus-v1`); the `figures corpus` entry point writes
//! it to `CORPUS.json` and fails loudly on any fingerprint drift, gate
//! violation, or failed cross-platform check. Specs round-trip through
//! that JSON ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`]),
//! so a failing case can be re-run from the report alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use strom_sim::time::{MICROS, NANOS};
use strom_sim::EcnConfig;
use strom_telemetry::{json, Fingerprint};

use crate::chaos::ChaosSpec;
use crate::cluster_chain::{Chain, ChainKind, ChainSpec};
use crate::cluster_incast::IncastSpec;
use crate::cluster_shuffle::ShuffleSpec;
use crate::config::Platform;
use crate::fault::LinkFaultModel;
use crate::kv_serve::KvSpec;
use crate::scenario::{Observables, Scenario};

/// The declarative workload of one scenario. Every field is a plain
/// number or flag: the runner materializes the full simulation spec
/// (switch geometry, fault models, timeouts) deterministically from
/// these plus the platform and seed, so a `Workload` value plus a seed
/// IS the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// Two-host READ/WRITE soak under a seed-composed fault schedule
    /// ([`crate::chaos::chaos_model`]); every byte verified against a
    /// pure-array reference.
    ChaosSoak {
        /// Upper bound on the op count (the seed draws `2..ops`).
        ops: u64,
    },
    /// All-to-all shuffle over a switched cluster.
    Shuffle {
        /// Cluster size (≥ 2).
        nodes: usize,
        /// 8 B values per node table.
        values_per_node: usize,
        /// Shallow fabric (32-frame egress queues) plus 2 % Bernoulli
        /// link loss — the congestion-storm geometry. `false` is the
        /// clean deep-buffered fabric (1024-frame queues, no loss).
        lossy: bool,
        /// DCQCN congestion control on every NIC.
        cc: bool,
        /// ECN step marking at the switch egress queues.
        ecn: bool,
    },
    /// N:1 incast into one receiver through a line-rate switch port.
    Incast {
        /// Concurrent senders.
        senders: usize,
        /// Outstanding messages per sender.
        window: usize,
        /// READ-heavy mode: the congested traffic is the read-response
        /// stream converging on node 0.
        reads: bool,
        /// DCQCN congestion control on every NIC.
        cc: bool,
        /// ECN step marking at the switch egress queues.
        ecn: bool,
    },
    /// Open-loop KV serving tier (Poisson arrivals, Zipf keys,
    /// 70/20/10 GET/PUT/traversal, exactly-once PUT audit).
    KvServe {
        /// Server shards.
        servers: usize,
        /// Client nodes.
        clients: usize,
        /// Mean Poisson inter-arrival gap, nanoseconds.
        mean_gap_ns: u64,
        /// Total requests offered.
        requests: usize,
    },
    /// A chained on-NIC kernel pipeline over a two-node testbed.
    KernelChain {
        /// Which pipeline.
        chain: ChainKind,
        /// 8 B tuples streamed through it.
        tuples: usize,
    },
}

impl Workload {
    /// The wire name of the workload family.
    pub fn family(&self) -> &'static str {
        match self {
            Workload::ChaosSoak { .. } => "chaos-soak",
            Workload::Shuffle { .. } => "shuffle",
            Workload::Incast { .. } => "incast",
            Workload::KvServe { .. } => "kv-serve",
            Workload::KernelChain { .. } => "kernel-chain",
        }
    }
}

/// Why a [`ScenarioSpec`] was rejected. Typed so tooling can
/// distinguish a malformed document from a structurally valid spec
/// that asks for an impossible run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The scenario name is empty.
    EmptyName,
    /// The scenario name contains a character outside `[a-z0-9-]`.
    BadName(char),
    /// The JSON named a workload family the corpus does not know.
    UnknownScenario(String),
    /// The JSON named a platform other than `10g`/`100g`.
    UnknownPlatform(String),
    /// The JSON named a kernel chain the corpus does not know.
    UnknownChain(String),
    /// A field is outside the range the simulator supports.
    InvalidShape(&'static str),
    /// The fields are individually valid but contradict each other
    /// (e.g. DCQCN without an ECN-marking switch: the NICs would stamp
    /// ECT(0) and wait forever for marks that never come).
    Inconsistent(&'static str),
    /// The document is not valid spec JSON (parse error, missing or
    /// mistyped field).
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

/// One scenario of the corpus: a name, a platform, a seed, and a
/// declarative workload. Everything a run observes is a deterministic
/// function of this value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Kebab-case scenario name (`[a-z0-9-]+`), unique per workload
    /// shape within a corpus.
    pub name: String,
    /// Hardware platform preset.
    pub platform: Platform,
    /// Base seed; corpus full runs fold extra derived seeds in.
    pub seed: u64,
    /// The declarative workload.
    pub workload: Workload,
}

impl ScenarioSpec {
    /// Checks the spec against the ranges and consistency rules the
    /// runner assumes.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        if let Some(c) = self
            .name
            .chars()
            .find(|c| !c.is_ascii_lowercase() && !c.is_ascii_digit() && *c != '-')
        {
            return Err(SpecError::BadName(c));
        }
        match self.workload {
            Workload::ChaosSoak { ops } => {
                if !(3..=10_000).contains(&ops) {
                    return Err(SpecError::InvalidShape("chaos ops must be in 3..=10000"));
                }
            }
            Workload::Shuffle {
                nodes,
                values_per_node,
                lossy: _,
                cc,
                ecn,
            } => {
                if !(2..=16).contains(&nodes) {
                    return Err(SpecError::InvalidShape("shuffle nodes must be in 2..=16"));
                }
                if !(1..=1 << 20).contains(&values_per_node) {
                    return Err(SpecError::InvalidShape(
                        "shuffle values_per_node must be in 1..=2^20",
                    ));
                }
                if cc && !ecn {
                    return Err(SpecError::Inconsistent(
                        "shuffle cc=true needs ecn=true: DCQCN only reacts to CE marks",
                    ));
                }
            }
            Workload::Incast {
                senders,
                window,
                reads: _,
                cc,
                ecn,
            } => {
                if !(1..=32).contains(&senders) {
                    return Err(SpecError::InvalidShape("incast senders must be in 1..=32"));
                }
                if !(1..=64).contains(&window) {
                    return Err(SpecError::InvalidShape("incast window must be in 1..=64"));
                }
                if cc && !ecn {
                    return Err(SpecError::Inconsistent(
                        "incast cc=true needs ecn=true: DCQCN only reacts to CE marks",
                    ));
                }
            }
            Workload::KvServe {
                servers,
                clients,
                mean_gap_ns,
                requests,
            } => {
                if !(1..=8).contains(&servers) {
                    return Err(SpecError::InvalidShape("kv servers must be in 1..=8"));
                }
                if !(1..=8).contains(&clients) {
                    return Err(SpecError::InvalidShape("kv clients must be in 1..=8"));
                }
                if mean_gap_ns == 0 {
                    return Err(SpecError::InvalidShape("kv mean_gap_ns must be nonzero"));
                }
                if !(1..=100_000).contains(&requests) {
                    return Err(SpecError::InvalidShape("kv requests must be in 1..=100000"));
                }
            }
            Workload::KernelChain { chain: _, tuples } => {
                if !(1..=1 << 22).contains(&tuples) {
                    return Err(SpecError::InvalidShape("chain tuples must be in 1..=2^22"));
                }
            }
        }
        Ok(())
    }

    /// Case identity within a corpus: `name@platform`.
    pub fn id(&self) -> String {
        format!("{}@{}", self.name, self.platform)
    }

    /// Validates and runs the scenario at its own seed.
    pub fn run(&self) -> Result<Observables, SpecError> {
        self.validate()?;
        Ok(self.run_seeded(self.seed))
    }

    /// Runs the (already validated) scenario at an explicit seed — the
    /// corpus full scale folds several derived seeds per case. The
    /// workload shape only picks the driver spec; the run, its
    /// fingerprint and its perf list are the [`Scenario`]'s.
    fn run_seeded(&self, seed: u64) -> Observables {
        match self.workload {
            Workload::ChaosSoak { ops } => {
                let spec = ChaosSpec {
                    platform: self.platform,
                    ops,
                    seed,
                };
                spec.observe().1
            }
            Workload::Shuffle {
                nodes,
                values_per_node,
                lossy,
                cc,
                ecn,
            } => {
                let mut spec = ShuffleSpec::new(nodes, values_per_node, seed);
                spec.platform = self.platform;
                spec.trace_capacity = Some(1 << 14);
                // Queueing delay on deep queues exceeds the platform
                // timeout; pin it high so queued frames are not counted
                // as spurious retransmissions.
                spec.retransmit_timeout = Some(1_000 * MICROS);
                if lossy {
                    spec.switch.egress_capacity = 32;
                    spec.fault = LinkFaultModel::bernoulli(0.02);
                } else {
                    spec.switch.egress_capacity = 1024;
                }
                if ecn {
                    let mut mark = EcnConfig::step(8);
                    mark.seed = seed ^ 0xECF;
                    spec.switch.ecn = Some(mark);
                }
                spec.cc = cc;
                spec.observe().1
            }
            Workload::Incast {
                senders,
                window,
                reads,
                cc,
                ecn,
            } => {
                let mut spec = IncastSpec::new(senders, window, seed);
                spec.platform = self.platform;
                spec.messages_per_sender = 12;
                // Line-rate egress (port_rate: None follows the
                // platform), deep enough not to tail-drop at these
                // windows, marking early enough for DCQCN to react.
                spec.switch.egress_capacity = 256;
                if ecn {
                    let mut mark = EcnConfig::step(16);
                    mark.seed = seed ^ 0xECF;
                    spec.switch.ecn = Some(mark);
                }
                spec.cc = cc;
                spec.reads = reads;
                spec.retransmit_timeout = Some(1_000 * MICROS);
                spec.observe().1
            }
            Workload::KvServe {
                servers,
                clients,
                mean_gap_ns,
                requests,
            } => {
                let mut spec = KvSpec::new(servers, clients, mean_gap_ns * NANOS, seed);
                spec.platform = self.platform;
                spec.requests = requests;
                spec.observe().1
            }
            Workload::KernelChain { chain, tuples } => {
                let mut spec = ChainSpec::new(tuples, seed);
                spec.platform = self.platform;
                Chain { kind: chain, spec }.observe().1
            }
        }
    }

    /// Serializes the spec to one JSON object (seeds as hex strings —
    /// u64 does not survive a float round-trip).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"name\":{},\"platform\":\"{}\",\"seed\":\"{:#x}\",\"workload\":{{\"family\":\"{}\"",
            json::escape(&self.name),
            self.platform,
            self.seed,
            self.workload.family()
        );
        match self.workload {
            Workload::ChaosSoak { ops } => {
                let _ = write!(s, ",\"ops\":{ops}");
            }
            Workload::Shuffle {
                nodes,
                values_per_node,
                lossy,
                cc,
                ecn,
            } => {
                let _ = write!(
                    s,
                    ",\"nodes\":{nodes},\"values_per_node\":{values_per_node},\
                     \"lossy\":{lossy},\"cc\":{cc},\"ecn\":{ecn}"
                );
            }
            Workload::Incast {
                senders,
                window,
                reads,
                cc,
                ecn,
            } => {
                let _ = write!(
                    s,
                    ",\"senders\":{senders},\"window\":{window},\"reads\":{reads},\
                     \"cc\":{cc},\"ecn\":{ecn}"
                );
            }
            Workload::KvServe {
                servers,
                clients,
                mean_gap_ns,
                requests,
            } => {
                let _ = write!(
                    s,
                    ",\"servers\":{servers},\"clients\":{clients},\
                     \"mean_gap_ns\":{mean_gap_ns},\"requests\":{requests}"
                );
            }
            Workload::KernelChain { chain, tuples } => {
                let _ = write!(s, ",\"chain\":\"{}\",\"tuples\":{tuples}", chain.name());
            }
        }
        s.push_str("}}");
        s
    }

    /// Parses a spec back from JSON and validates it. The inverse of
    /// [`ScenarioSpec::to_json`]: any spec that validates round-trips
    /// exactly.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let v = json::parse(text)?;
        let spec = Self::from_value(&v)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Builds a spec from an already-parsed JSON value (the report
    /// embeds spec objects inside case objects).
    pub fn from_value(v: &json::Value) -> Result<ScenarioSpec, SpecError> {
        let name = v.str_field("name")?.to_string();
        let platform_name = v.str_field("platform")?;
        let platform = Platform::from_name(platform_name)
            .ok_or_else(|| SpecError::UnknownPlatform(platform_name.to_string()))?;
        let seed_text = v.str_field("seed")?;
        let seed = seed_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| SpecError::Malformed(format!("seed {seed_text:?} is not 0x-hex")))?;
        let w = v.field("workload")?;
        let family = w.str_field("family")?;
        let workload = match family {
            "chaos-soak" => Workload::ChaosSoak {
                ops: w.u64_field("ops")?,
            },
            "shuffle" => Workload::Shuffle {
                nodes: w.usize_field("nodes")?,
                values_per_node: w.usize_field("values_per_node")?,
                lossy: w.bool_field("lossy")?,
                cc: w.bool_field("cc")?,
                ecn: w.bool_field("ecn")?,
            },
            "incast" => Workload::Incast {
                senders: w.usize_field("senders")?,
                window: w.usize_field("window")?,
                reads: w.bool_field("reads")?,
                cc: w.bool_field("cc")?,
                ecn: w.bool_field("ecn")?,
            },
            "kv-serve" => Workload::KvServe {
                servers: w.usize_field("servers")?,
                clients: w.usize_field("clients")?,
                mean_gap_ns: w.u64_field("mean_gap_ns")?,
                requests: w.usize_field("requests")?,
            },
            "kernel-chain" => {
                let chain_name = w.str_field("chain")?;
                Workload::KernelChain {
                    chain: ChainKind::from_name(chain_name)
                        .ok_or_else(|| SpecError::UnknownChain(chain_name.to_string()))?,
                    tuples: w.usize_field("tuples")?,
                }
            }
            other => return Err(SpecError::UnknownScenario(other.to_string())),
        };
        Ok(ScenarioSpec {
            name,
            platform,
            seed,
            workload,
        })
    }
}

/// A floor and/or ceiling on one perf observable of a case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfGate {
    /// Which [`Observables::perf`] key the gate holds.
    pub key: &'static str,
    /// Inclusive floor, if any.
    pub min: Option<f64>,
    /// Inclusive ceiling, if any.
    pub max: Option<f64>,
}

impl PerfGate {
    /// A floor-only gate.
    pub fn at_least(key: &'static str, min: f64) -> Self {
        PerfGate {
            key,
            min: Some(min),
            max: None,
        }
    }

    /// A ceiling-only gate.
    pub fn at_most(key: &'static str, max: f64) -> Self {
        PerfGate {
            key,
            min: None,
            max: Some(max),
        }
    }

    /// Does `value` satisfy the gate?
    pub fn admits(&self, value: f64) -> bool {
        self.min.is_none_or(|m| value >= m) && self.max.is_none_or(|m| value <= m)
    }
}

/// One case of the corpus: a spec plus its gates.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Perf floors/ceilings asserted on the first-seed run.
    pub gates: Vec<PerfGate>,
    /// Include this case in the 100 G-beats-10 G cross-platform check.
    /// Off for fault-injected scenarios, where elapsed time is dominated
    /// by seed-dependent retransmission timeouts rather than link rate.
    pub cross_check: bool,
}

/// How many derived seeds each case folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusScale {
    /// One seed per case (CI default).
    Quick,
    /// Three seeds per case.
    Full,
}

impl CorpusScale {
    /// The wire name (`quick`/`full`).
    pub fn name(self) -> &'static str {
        match self {
            CorpusScale::Quick => "quick",
            CorpusScale::Full => "full",
        }
    }

    /// Seeds folded per case.
    pub fn seeds_per_case(self) -> usize {
        match self {
            CorpusScale::Quick => 1,
            CorpusScale::Full => 3,
        }
    }

    /// The derived seed list for a case: the spec's own seed first, then
    /// fixed-stride derivations (Weyl increment) so full-scale
    /// fingerprints pin extra independent draws.
    pub fn seeds(self, base: u64) -> Vec<u64> {
        (0..self.seeds_per_case() as u64)
            .map(|k| base.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }
}

/// One evaluated gate in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// The gate as declared.
    pub gate: PerfGate,
    /// The observed value.
    pub value: f64,
    /// Did it hold?
    pub pass: bool,
}

/// One evaluated case in a report.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The scenario that ran.
    pub spec: ScenarioSpec,
    /// The seeds folded into the fingerprint (scale-dependent).
    pub seeds: Vec<u64>,
    /// FNV-1a fold of every per-seed run fingerprint.
    pub fingerprint: u64,
    /// The pinned golden fingerprint, if one exists for this case+scale.
    pub golden: Option<u64>,
    /// First-seed perf observables.
    pub perf: Vec<(&'static str, f64)>,
    /// Evaluated gates.
    pub gates: Vec<GateResult>,
}

impl CaseResult {
    /// `name@platform`.
    pub fn id(&self) -> String {
        self.spec.id()
    }

    /// Fingerprint matches its golden (an unpinned case fails: every
    /// corpus case must be blessed before it can gate).
    pub fn fingerprint_ok(&self) -> bool {
        self.golden == Some(self.fingerprint)
    }

    /// Fingerprint pinned and matching, every gate holding.
    pub fn pass(&self) -> bool {
        self.fingerprint_ok() && self.gates.iter().all(|g| g.pass)
    }

    /// Looks up one perf observable.
    pub fn perf(&self, key: &str) -> Option<f64> {
        self.perf.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// One cross-case consistency check in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheck {
    /// Check family (`platform-speedup` or `cc-pair`).
    pub kind: &'static str,
    /// Human-readable statement of what must hold.
    pub label: String,
    /// Left side of the comparison (must be strictly less).
    pub lhs: f64,
    /// Right side of the comparison.
    pub rhs: f64,
    /// Did `lhs < rhs` hold?
    pub pass: bool,
}

/// The result of one corpus run: every case, every cross check, and a
/// single pass/fail verdict with itemized failures.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// The scale that ran.
    pub scale: CorpusScale,
    /// Per-case results, in corpus order.
    pub cases: Vec<CaseResult>,
    /// Cross-case checks.
    pub cross_checks: Vec<CrossCheck>,
}

impl CorpusReport {
    /// Every reason this run fails the gate (empty ⇒ pass).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for case in &self.cases {
            match case.golden {
                None => out.push(format!(
                    "{} [{}]: no golden fingerprint pinned (got {:#018x}) — bless with \
                     STROM_BLESS=1 figures corpus",
                    case.id(),
                    self.scale.name(),
                    case.fingerprint
                )),
                Some(want) if want != case.fingerprint => out.push(format!(
                    "{} [{}]: fingerprint drift: got {:#018x}, golden {:#018x}",
                    case.id(),
                    self.scale.name(),
                    case.fingerprint,
                    want
                )),
                Some(_) => {}
            }
            for g in &case.gates {
                if !g.pass {
                    out.push(format!(
                        "{}: gate {} = {} violates [{}, {}]",
                        case.id(),
                        g.gate.key,
                        g.value,
                        g.gate.min.map_or("-inf".into(), |m| m.to_string()),
                        g.gate.max.map_or("+inf".into(), |m| m.to_string()),
                    ));
                }
            }
        }
        for c in &self.cross_checks {
            if !c.pass {
                out.push(format!(
                    "cross-check {} failed: {} (lhs {} !< rhs {})",
                    c.kind, c.label, c.lhs, c.rhs
                ));
            }
        }
        out
    }

    /// Overall verdict.
    pub fn pass(&self) -> bool {
        self.failures().is_empty()
    }

    /// Renders the report as one `strom-corpus-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"schema\": \"strom-corpus-v1\",\n  \"scale\": \"{}\",\n  \"cases\": [",
            self.scale.name()
        );
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {{\"spec\": {}, \"seeds\": [", case.spec.to_json());
            for (j, seed) in case.seeds.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{seed:#x}\"");
            }
            let _ = write!(s, "], \"fingerprint\": \"{:#018x}\", ", case.fingerprint);
            match case.golden {
                Some(g) => {
                    let _ = write!(s, "\"golden\": \"{g:#018x}\", ");
                }
                None => s.push_str("\"golden\": null, "),
            }
            let _ = write!(
                s,
                "\"fingerprint_ok\": {}, \"perf\": {{",
                case.fingerprint_ok()
            );
            for (j, (k, v)) in case.perf.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{k}\": {}", json::number(*v));
            }
            s.push_str("}, \"gates\": [");
            for (j, g) in case.gates.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "{{\"key\": \"{}\", \"min\": {}, \"max\": {}, \"value\": {}, \"pass\": {}}}",
                    g.gate.key,
                    g.gate.min.map_or("null".into(), json::number),
                    g.gate.max.map_or("null".into(), json::number),
                    json::number(g.value),
                    g.pass
                );
            }
            let _ = write!(s, "], \"pass\": {}}}", case.pass());
        }
        s.push_str("\n  ],\n  \"cross_checks\": [");
        for (i, c) in self.cross_checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"kind\": \"{}\", \"label\": {}, \"lhs\": {}, \"rhs\": {}, \"pass\": {}}}",
                c.kind,
                json::escape(&c.label),
                json::number(c.lhs),
                json::number(c.rhs),
                c.pass
            );
        }
        s.push_str("\n  ],\n  \"failures\": [");
        for (i, f) in self.failures().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {}", json::escape(f));
        }
        let _ = write!(s, "\n  ],\n  \"pass\": {}\n}}\n", self.pass());
        s
    }

    /// Merges this run's fingerprints into the golden file: lines for
    /// this scale's case ids are replaced, everything else is kept, the
    /// result is sorted. Returns the file path.
    pub fn bless(&self) -> std::io::Result<PathBuf> {
        let path = golden_path();
        let mut lines: BTreeMap<(String, String), u64> = match std::fs::read_to_string(&path) {
            Ok(text) => parse_golden(&text),
            Err(_) => BTreeMap::new(),
        };
        for case in &self.cases {
            lines.insert((case.id(), self.scale.name().to_string()), case.fingerprint);
        }
        let mut text = String::from(
            "# Corpus golden fingerprints: <name@platform> <scale> <fnv1a-hex>\n\
             # Re-bless after an intentional behaviour change with:\n\
             #   STROM_BLESS=1 cargo run --release -p strom-bench --bin figures -- corpus\n",
        );
        for ((id, scale), fp) in &lines {
            let _ = writeln!(text, "{id} {scale} {fp:#018x}");
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// Where the pinned corpus fingerprints live (inside the crate, so both
/// the test suite and the `figures` binary resolve the same file
/// regardless of working directory).
pub fn golden_path() -> PathBuf {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/corpus.fingerprints"
    ))
    .to_path_buf()
}

/// Parses the golden file into `(case id, scale) → fingerprint`.
fn parse_golden(text: &str) -> BTreeMap<(String, String), u64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(id), Some(scale), Some(fp)) = (parts.next(), parts.next(), parts.next()) {
            if let Some(fp) = fp
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
            {
                map.insert((id.to_string(), scale.to_string()), fp);
            }
        }
    }
    map
}

/// Loads the pinned fingerprints for `scale`, keyed by case id.
pub fn golden_fingerprints(scale: CorpusScale) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(golden_path()).unwrap_or_default();
    parse_golden(&text)
        .into_iter()
        .filter(|((_, s), _)| s == scale.name())
        .map(|((id, _), fp)| (id, fp))
        .collect()
}

/// Runs one set of cases at `scale` against the pinned goldens and
/// evaluates cross-checks over the results.
pub fn run_corpus_cases(cases: &[CorpusCase], scale: CorpusScale) -> CorpusReport {
    for case in cases {
        case.spec
            .validate()
            .unwrap_or_else(|e| panic!("corpus case {} is invalid: {e}", case.spec.id()));
    }
    let golden = golden_fingerprints(scale);
    let mut results = Vec::new();
    for case in cases {
        let seeds = scale.seeds(case.spec.seed);
        let mut fp = Fingerprint::new();
        let mut first: Option<Observables> = None;
        for &seed in &seeds {
            let out = case.spec.run_seeded(seed);
            fp.word(seed).word(out.fingerprint);
            if first.is_none() {
                first = Some(out);
            }
        }
        let first = first.expect("every scale runs at least one seed");
        let gates = case
            .gates
            .iter()
            .map(|g| {
                let value = first.perf(g.key).unwrap_or_else(|| {
                    panic!("case {}: gate key {:?} not in perf", case.spec.id(), g.key)
                });
                GateResult {
                    gate: *g,
                    value,
                    pass: g.admits(value),
                }
            })
            .collect();
        results.push(CaseResult {
            spec: case.spec.clone(),
            seeds,
            fingerprint: fp.value(),
            golden: golden.get(&case.spec.id()).copied(),
            perf: first.perf,
            gates,
        });
    }
    let cross_checks = cross_checks(cases, &results);
    CorpusReport {
        scale,
        cases: results,
        cross_checks,
    }
}

/// The cross-case checks: for every `cross_check` workload present at
/// both platforms, the 100 G run must be strictly faster end to end
/// (§7's crossover direction); and for the shuffle storm/DCQCN pair,
/// congestion control must strictly cut retransmissions at each
/// platform.
fn cross_checks(cases: &[CorpusCase], results: &[CaseResult]) -> Vec<CrossCheck> {
    let find = |name: &str, platform: Platform| {
        results
            .iter()
            .find(|r| r.spec.name == name && r.spec.platform == platform)
    };
    let mut out = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for case in cases {
        let name = case.spec.name.as_str();
        if !case.cross_check || seen.contains(&name) {
            continue;
        }
        seen.push(name);
        if let (Some(slow), Some(fast)) = (
            find(name, Platform::TenGig),
            find(name, Platform::HundredGig),
        ) {
            let (lhs, rhs) = (
                fast.perf("elapsed_us").unwrap_or(f64::INFINITY),
                slow.perf("elapsed_us").unwrap_or(0.0),
            );
            out.push(CrossCheck {
                kind: "platform-speedup",
                label: format!("{name}: 100g elapsed < 10g elapsed"),
                lhs,
                rhs,
                pass: lhs < rhs,
            });
        }
    }
    for &platform in &Platform::ALL {
        if let (Some(storm), Some(dcqcn)) = (
            find("shuffle-storm", platform),
            find("shuffle-dcqcn", platform),
        ) {
            let (lhs, rhs) = (
                dcqcn.perf("retransmissions").unwrap_or(f64::INFINITY),
                storm.perf("retransmissions").unwrap_or(0.0),
            );
            out.push(CrossCheck {
                kind: "cc-pair",
                label: format!("{platform}: DCQCN retransmissions < storm retransmissions"),
                lhs,
                rhs,
                pass: lhs < rhs,
            });
        }
    }
    out
}

/// Runs the default corpus — every scenario family at both platforms —
/// at `scale`.
pub fn run_corpus(scale: CorpusScale) -> CorpusReport {
    run_corpus_cases(&default_corpus(), scale)
}

/// The corpus: nine scenario shapes × both platforms. Perf floors and
/// ceilings are written against the deterministic simulated time of the
/// pinned seeds — tight enough to catch a regression, loose enough to
/// survive an intentional re-bless of nearby behaviour.
pub fn default_corpus() -> Vec<CorpusCase> {
    let mut cases = Vec::new();
    for &p in &Platform::ALL {
        let hundred = p == Platform::HundredGig;
        let spec = |name: &str, seed: u64, workload: Workload| ScenarioSpec {
            name: name.to_string(),
            platform: p,
            seed,
            workload,
        };

        // Two-host chaos soak: composed faults, byte-verified, bounded
        // recovery. Elapsed is timeout-dominated, so no platform race.
        cases.push(CorpusCase {
            spec: spec("chaos-soak", 0xC440_5001, Workload::ChaosSoak { ops: 8 }),
            gates: vec![
                PerfGate::at_least("retransmissions", 1.0),
                PerfGate::at_most("elapsed_us", 1_500.0),
            ],
            cross_check: false,
        });

        // Clean deep-buffered shuffle: zero loss tolerated, aggregate
        // throughput floored per platform.
        cases.push(CorpusCase {
            spec: spec(
                "shuffle",
                0x5CA1_E001,
                Workload::Shuffle {
                    nodes: 4,
                    values_per_node: 3_000,
                    lossy: false,
                    cc: false,
                    ecn: false,
                },
            ),
            gates: vec![
                PerfGate::at_most("tail_drops", 0.0),
                PerfGate::at_most("retransmissions", 0.0),
                PerfGate::at_least("aggregate_gbps", if hundred { 9.0 } else { 1.8 }),
                PerfGate::at_most("elapsed_us", if hundred { 15.0 } else { 60.0 }),
            ],
            cross_check: true,
        });

        // Shallow-fabric storm without congestion control: loss and
        // drops must actually bite (a quiet storm means the fault model
        // or queue bound silently stopped applying).
        cases.push(CorpusCase {
            spec: spec(
                "shuffle-storm",
                0x5CA1_E002,
                Workload::Shuffle {
                    nodes: 4,
                    values_per_node: 12_000,
                    lossy: true,
                    cc: false,
                    ecn: false,
                },
            ),
            gates: vec![
                PerfGate::at_least("retransmissions", 10.0),
                PerfGate::at_most("elapsed_us", 3_000.0),
            ],
            cross_check: false,
        });

        // The same storm geometry with DCQCN: the cc-pair cross-check
        // asserts it strictly cuts retransmissions.
        cases.push(CorpusCase {
            spec: spec(
                "shuffle-dcqcn",
                0x5CA1_E002,
                Workload::Shuffle {
                    nodes: 4,
                    values_per_node: 12_000,
                    lossy: true,
                    cc: true,
                    ecn: true,
                },
            ),
            gates: vec![
                PerfGate::at_most("tail_drops", 0.0),
                PerfGate::at_most("retransmissions", 80.0),
                PerfGate::at_least("aggregate_gbps", if hundred { 3.4 } else { 1.9 }),
            ],
            cross_check: false,
        });

        // WRITE incast under DCQCN at a sane window: survivable, no
        // drops, marking active.
        cases.push(CorpusCase {
            spec: spec(
                "incast",
                0x1CA5_0001,
                Workload::Incast {
                    senders: 8,
                    window: 2,
                    reads: false,
                    cc: true,
                    ecn: true,
                },
            ),
            gates: vec![
                PerfGate::at_most("qp_errors", 0.0),
                PerfGate::at_most("tail_drops", 0.0),
                PerfGate::at_least("ecn_marked", 1.0),
                PerfGate::at_least("goodput_gbps", if hundred { 70.0 } else { 4.0 }),
                PerfGate::at_most("p999_us", if hundred { 30.0 } else { 600.0 }),
                PerfGate::at_least("jain", 0.9),
            ],
            cross_check: true,
        });

        // READ-response incast: the converging traffic is the response
        // stream; still survivable.
        cases.push(CorpusCase {
            spec: spec(
                "incast-reads",
                0x1CA5_0002,
                Workload::Incast {
                    senders: 6,
                    window: 2,
                    reads: true,
                    cc: true,
                    ecn: true,
                },
            ),
            gates: vec![
                PerfGate::at_most("qp_errors", 0.0),
                PerfGate::at_most("tail_drops", 0.0),
                PerfGate::at_least("goodput_gbps", if hundred { 65.0 } else { 4.0 }),
                PerfGate::at_most("p999_us", if hundred { 25.0 } else { 400.0 }),
                PerfGate::at_least("jain", 0.9),
            ],
            cross_check: true,
        });

        // Open-loop KV serving at the tuned below-knee gap: clean audit,
        // every request completed, bounded tail.
        cases.push(CorpusCase {
            spec: spec(
                "kv-serve",
                0x4B5E_0001,
                Workload::KvServe {
                    servers: 2,
                    clients: 2,
                    mean_gap_ns: 3_000,
                    requests: 240,
                },
            ),
            gates: vec![
                PerfGate::at_most("violations", 0.0),
                PerfGate::at_least("completed", 240.0),
                PerfGate::at_least("achieved_krps", 280.0),
                PerfGate::at_most("p999_us", if hundred { 30.0 } else { 40.0 }),
            ],
            cross_check: true,
        });

        // Chained kernel pipelines: error-free, throughput floored.
        cases.push(CorpusCase {
            spec: spec(
                "chain-filter-agg-hll",
                0xC4A1_0001,
                Workload::KernelChain {
                    chain: ChainKind::FilterAggHll,
                    tuples: 24_000,
                },
            ),
            gates: vec![
                PerfGate::at_most("chain_errors", 0.0),
                PerfGate::at_most("retransmissions", 0.0),
                PerfGate::at_least("gib_per_sec", if hundred { 7.0 } else { 0.85 }),
            ],
            cross_check: true,
        });
        cases.push(CorpusCase {
            spec: spec(
                "chain-crcverify-shuffle",
                0xC4A1_0002,
                Workload::KernelChain {
                    chain: ChainKind::CrcVerifyShuffle,
                    tuples: 24_000,
                },
            ),
            gates: vec![
                PerfGate::at_most("chain_errors", 0.0),
                PerfGate::at_most("retransmissions", 0.0),
                PerfGate::at_least("gib_per_sec", if hundred { 7.0 } else { 0.85 }),
            ],
            cross_check: true,
        });
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "kv-serve".into(),
            platform: Platform::TenGig,
            seed: 0x4B5E_0001,
            workload: Workload::KvServe {
                servers: 2,
                clients: 2,
                mean_gap_ns: 3_000,
                requests: 40,
            },
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = tiny_spec();
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
    }

    #[test]
    fn inconsistent_cc_without_ecn_is_typed() {
        let mut spec = tiny_spec();
        spec.workload = Workload::Incast {
            senders: 4,
            window: 2,
            reads: false,
            cc: true,
            ecn: false,
        };
        assert!(matches!(spec.validate(), Err(SpecError::Inconsistent(_))));
    }

    #[test]
    fn default_corpus_is_valid_and_covers_both_platforms() {
        let corpus = default_corpus();
        for case in &corpus {
            case.spec.validate().expect("default corpus must validate");
        }
        for &p in &Platform::ALL {
            let families: std::collections::BTreeSet<&str> = corpus
                .iter()
                .filter(|c| c.spec.platform == p)
                .map(|c| c.spec.workload.family())
                .collect();
            assert_eq!(
                families.len(),
                5,
                "all five scenario families must run at {p}"
            );
        }
        // Case ids are unique: the golden file is keyed by them.
        let mut ids: Vec<String> = corpus.iter().map(|c| c.spec.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), corpus.len());
    }

    #[test]
    fn rerunning_a_spec_is_digest_identical() {
        let spec = tiny_spec();
        let a = spec.run().expect("valid");
        let b = spec.run().expect("valid");
        assert_eq!((a.fingerprint, &a.perf), (b.fingerprint, &b.perf));
        assert_eq!(a.metrics.snapshot(), b.metrics.snapshot());
    }
}
