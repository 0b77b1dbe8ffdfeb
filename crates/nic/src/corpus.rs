//! The declarative workload corpus: every scenario family this repo has
//! accumulated — chaos soak, all-to-all shuffle (clean / storm / DCQCN),
//! N:1 incast, the open-loop KV serving tier, and the chained kernel
//! pipelines — run at both hardware platforms (§6.1: 10 G and 100 G),
//! and held to two kinds of contract:
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
//! A case is a [`ScenarioSpec`]: a name and the family spec its
//! [`Scenario`](crate::Scenario) impl runs, every run parameter written
//! out in [`default_corpus`]. [`run_corpus`] executes the matrix and
//! returns a [`CorpusReport`] that converts to one JSON document (schema
//! `strom-corpus-v1`); `figures corpus` writes it to `CORPUS.json` and
//! fails loudly on any fingerprint drift, gate violation, or failed
//! cross-platform check. Each case's spec round-trips through that JSON
//! ([`ScenarioSpec::to_value`] / [`ScenarioSpec::from_value`]), so a
//! failing case can be re-run from the report alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use strom_sim::time::{MICROS, NANOS};
use strom_sim::EcnConfig;
use strom_telemetry::json::Value;
use strom_telemetry::Fingerprint;

use crate::chaos::ChaosSpec;
use crate::cluster_chain::{Chain, ChainKind, ChainSpec};
use crate::cluster_incast::IncastSpec;
use crate::cluster_shuffle::ShuffleSpec;
use crate::config::Platform;
use crate::fault::LinkFaultModel;
use crate::kv_serve::KvSpec;
use crate::scenario::Observables;
use crate::spec::{ScenarioSpec, Workload};

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

    /// The derived seed list for a case: the spec's own seed first, then
    /// fixed-stride derivations (Weyl increment) so full-scale
    /// fingerprints pin extra independent draws.
    pub fn seeds(self, base: u64) -> Vec<u64> {
        let n: u64 = if self == CorpusScale::Quick { 1 } else { 3 };
        (0..n)
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

    /// The report as one `strom-corpus-v1` JSON document.
    pub fn to_value(&self) -> Value {
        let hex = |v: u64| Value::Str(format!("{v:#018x}"));
        let num = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        let cases = (self.cases.iter()).map(|case| {
            let seeds = (case.seeds.iter()).map(|s| Value::Str(format!("{s:#x}")));
            let perf = (case.perf.iter()).map(|&(k, v)| (k, Value::Num(v)));
            let gates = (case.gates.iter()).map(|g| {
                Value::obj([
                    ("key", Value::str(g.gate.key)),
                    ("min", num(g.gate.min)),
                    ("max", num(g.gate.max)),
                    ("value", Value::Num(g.value)),
                    ("pass", Value::Bool(g.pass)),
                ])
            });
            Value::obj([
                ("spec", case.spec.to_value()),
                ("seeds", Value::Arr(seeds.collect())),
                ("fingerprint", hex(case.fingerprint)),
                ("golden", case.golden.map_or(Value::Null, hex)),
                ("fingerprint_ok", Value::Bool(case.fingerprint_ok())),
                ("perf", Value::obj(perf)),
                ("gates", Value::Arr(gates.collect())),
                ("pass", Value::Bool(case.pass())),
            ])
        });
        let checks = (self.cross_checks.iter()).map(|c| {
            Value::obj([
                ("kind", Value::str(c.kind)),
                ("label", Value::str(&c.label)),
                ("lhs", Value::Num(c.lhs)),
                ("rhs", Value::Num(c.rhs)),
                ("pass", Value::Bool(c.pass)),
            ])
        });
        let failures = self.failures().into_iter().map(Value::Str);
        Value::obj([
            ("schema", Value::str("strom-corpus-v1")),
            ("scale", Value::str(self.scale.name())),
            ("cases", Value::Arr(cases.collect())),
            ("cross_checks", Value::Arr(checks.collect())),
            ("failures", Value::Arr(failures.collect())),
            ("pass", Value::Bool(self.pass())),
        ])
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
    (text.lines())
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (id, scale, fp) = (parts.next()?, parts.next()?, parts.next()?);
            let fp = u64::from_str_radix(fp.strip_prefix("0x")?, 16).ok()?;
            (!id.starts_with('#')).then(|| ((id.to_string(), scale.to_string()), fp))
        })
        .collect()
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
        let seeds = scale.seeds(case.spec.workload.seed());
        let mut fp = Fingerprint::new();
        let mut first: Option<Observables> = None;
        for &seed in &seeds {
            let mut workload = case.spec.workload.clone();
            *workload.seed_mut() = seed;
            let out = workload.observe();
            fp.word(seed).word(out.fingerprint);
            first.get_or_insert(out);
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
        (results.iter()).find(|r| r.spec.name == name && r.spec.workload.platform() == platform)
    };
    let mut out = Vec::new();
    // `less` must read strictly below `more` on `key`.
    let mut pair = |kind, label, less: Option<&CaseResult>, more: Option<&CaseResult>, key| {
        if let (Some(less), Some(more)) = (less, more) {
            let lhs = less.perf(key).unwrap_or(f64::INFINITY);
            let rhs = more.perf(key).unwrap_or(0.0);
            let pass = lhs < rhs;
            out.push(CrossCheck {
                kind,
                label,
                lhs,
                rhs,
                pass,
            });
        }
    };
    let mut seen: Vec<&str> = Vec::new();
    for case in cases.iter().filter(|c| c.cross_check) {
        let name = case.spec.name.as_str();
        if !seen.contains(&name) {
            seen.push(name);
            let label = format!("{name}: 100g elapsed < 10g elapsed");
            let (fast, slow) = (
                find(name, Platform::HundredGig),
                find(name, Platform::TenGig),
            );
            pair("platform-speedup", label, fast, slow, "elapsed_us");
        }
    }
    for &platform in &Platform::ALL {
        let label = format!("{platform}: DCQCN retransmissions < storm retransmissions");
        let storm = find("shuffle-storm", platform);
        pair(
            "cc-pair",
            label,
            find("shuffle-dcqcn", platform),
            storm,
            "retransmissions",
        );
    }
    out
}

/// Runs the default corpus — every scenario family at both platforms —
/// at `scale`.
pub fn run_corpus(scale: CorpusScale) -> CorpusReport {
    run_corpus_cases(&default_corpus(), scale)
}

/// The corpus: nine scenario shapes × both platforms, every run
/// parameter a field of the case's spec. Perf floors and ceilings are
/// written against the deterministic simulated time of the pinned seeds
/// — tight enough to catch a regression, loose enough to survive an
/// intentional re-bless of nearby behaviour.
pub fn default_corpus() -> Vec<CorpusCase> {
    let mut cases = Vec::new();
    for &platform in &Platform::ALL {
        let hundred = platform == Platform::HundredGig;
        let mut case = |name: &str, workload, cross_check, gates| {
            let spec = ScenarioSpec {
                name: name.to_string(),
                workload,
            };
            cases.push(CorpusCase {
                spec,
                gates,
                cross_check,
            });
        };

        // Two-host chaos soak: composed faults, byte-verified, bounded
        // recovery. Elapsed is timeout-dominated, so no platform race.
        let chaos = ChaosSpec {
            platform,
            ops: 8,
            seed: 0xC440_5001,
        };
        let gates = vec![
            PerfGate::at_least("retransmissions", 1.0),
            PerfGate::at_most("elapsed_us", 1_500.0),
        ];
        case("chaos-soak", Workload::Chaos(chaos), false, gates);

        // Clean shuffle on a deep-buffered fabric (1 024-frame egress
        // queues, no loss): zero loss tolerated, aggregate throughput
        // floored per platform. Queueing delay on deep queues exceeds
        // the platform timeout; it is pinned high so queued frames are
        // not counted as spurious retransmissions.
        let mut shuffle = ShuffleSpec::new(4, 3_000, 0x5CA1_E001);
        shuffle.platform = platform;
        shuffle.switch.egress_capacity = 1_024;
        shuffle.trace_capacity = Some(1 << 14);
        shuffle.retransmit_timeout = Some(1_000 * MICROS);
        // The storm geometry: shallow 32-frame queues and 2 % Bernoulli
        // loss on every link.
        let mut storm = ShuffleSpec {
            values_per_node: 12_000,
            seed: 0x5CA1_E002,
            fault: LinkFaultModel::bernoulli(0.02),
            ..shuffle.clone()
        };
        storm.switch.egress_capacity = 32;
        // The same storm with DCQCN against a step marker at 8 frames.
        let mut dcqcn = storm.clone();
        dcqcn.cc = true;
        dcqcn.switch.ecn = Some(EcnConfig::step(8));
        let gates = vec![
            PerfGate::at_most("tail_drops", 0.0),
            PerfGate::at_most("retransmissions", 0.0),
            PerfGate::at_least("aggregate_gbps", if hundred { 9.0 } else { 1.8 }),
            PerfGate::at_most("elapsed_us", if hundred { 15.0 } else { 60.0 }),
        ];
        case("shuffle", Workload::Shuffle(shuffle), true, gates);
        // Without congestion control, loss and drops must actually bite
        // (a quiet storm means the fault model or queue bound silently
        // stopped applying).
        let gates = vec![
            PerfGate::at_least("retransmissions", 10.0),
            PerfGate::at_most("elapsed_us", 3_000.0),
        ];
        case("shuffle-storm", Workload::Shuffle(storm), false, gates);
        // The cc-pair cross-check asserts DCQCN strictly cuts
        // retransmissions.
        let gates = vec![
            PerfGate::at_most("tail_drops", 0.0),
            PerfGate::at_most("retransmissions", 80.0),
            PerfGate::at_least("aggregate_gbps", if hundred { 3.4 } else { 1.9 }),
        ];
        case("shuffle-dcqcn", Workload::Shuffle(dcqcn), false, gates);

        // WRITE incast under DCQCN at a sane window: survivable, no
        // drops, marking active. Line-rate egress (`port_rate: None`
        // follows the platform), 256-frame queues deep enough not to
        // tail-drop at these windows, and a step marker at 16 frames,
        // early enough for DCQCN to react.
        let mut incast = IncastSpec::new(8, 2, 0x1CA5_0001);
        incast.platform = platform;
        incast.messages_per_sender = 12;
        incast.switch.egress_capacity = 256;
        incast.switch.ecn = Some(EcnConfig::step(16));
        incast.cc = true;
        incast.retransmit_timeout = Some(1_000 * MICROS);
        // READ-response incast on the same fabric: the converging
        // traffic is the response stream; still survivable.
        let reads = IncastSpec {
            senders: 6,
            seed: 0x1CA5_0002,
            reads: true,
            ..incast.clone()
        };
        let gates = vec![
            PerfGate::at_most("qp_errors", 0.0),
            PerfGate::at_most("tail_drops", 0.0),
            PerfGate::at_least("ecn_marked", 1.0),
            PerfGate::at_least("goodput_gbps", if hundred { 70.0 } else { 4.0 }),
            PerfGate::at_most("p999_us", if hundred { 30.0 } else { 600.0 }),
            PerfGate::at_least("jain", 0.9),
        ];
        case("incast", Workload::Incast(incast), true, gates);
        let gates = vec![
            PerfGate::at_most("qp_errors", 0.0),
            PerfGate::at_most("tail_drops", 0.0),
            PerfGate::at_least("goodput_gbps", if hundred { 65.0 } else { 4.0 }),
            PerfGate::at_most("p999_us", if hundred { 25.0 } else { 400.0 }),
            PerfGate::at_least("jain", 0.9),
        ];
        case("incast-reads", Workload::Incast(reads), true, gates);

        // Open-loop KV serving at the tuned below-knee gap: clean audit,
        // every request completed, bounded tail.
        let mut kv = KvSpec::new(2, 2, 3_000 * NANOS, 0x4B5E_0001);
        kv.platform = platform;
        kv.requests = 240;
        let gates = vec![
            PerfGate::at_most("violations", 0.0),
            PerfGate::at_least("completed", 240.0),
            PerfGate::at_least("achieved_krps", 280.0),
            PerfGate::at_most("p999_us", if hundred { 30.0 } else { 40.0 }),
        ];
        case("kv-serve", Workload::KvServe(kv), true, gates);

        // Chained kernel pipelines: error-free, throughput floored.
        for (kind, seed) in [
            (ChainKind::FilterAggHll, 0xC4A1_0001),
            (ChainKind::CrcVerifyShuffle, 0xC4A1_0002),
        ] {
            let mut spec = ChainSpec::new(24_000, seed);
            spec.platform = platform;
            let gates = vec![
                PerfGate::at_most("chain_errors", 0.0),
                PerfGate::at_most("retransmissions", 0.0),
                PerfGate::at_least("gib_per_sec", if hundred { 7.0 } else { 0.85 }),
            ];
            let name = format!("chain-{}", kind.name());
            case(
                &name,
                Workload::KernelChain(Chain { kind, spec }),
                true,
                gates,
            );
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecError;

    fn tiny_spec() -> ScenarioSpec {
        let mut kv = KvSpec::new(2, 2, 3_000 * NANOS, 0x4B5E_0001);
        kv.requests = 40;
        ScenarioSpec {
            name: "kv-serve".into(),
            workload: Workload::KvServe(kv),
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
        let mut incast = IncastSpec::new(4, 2, 7);
        incast.cc = true;
        let spec = ScenarioSpec {
            name: "incast".into(),
            workload: Workload::Incast(incast),
        };
        assert!(matches!(spec.validate(), Err(SpecError::Inconsistent(_))));
    }

    #[test]
    fn default_corpus_is_valid_and_covers_both_platforms() {
        let corpus = default_corpus();
        assert_eq!(corpus.len(), 18);
        for case in &corpus {
            case.spec.validate().expect("default corpus must validate");
        }
        for &p in &Platform::ALL {
            let mut families: Vec<_> = (corpus.iter())
                .filter(|c| c.spec.workload.platform() == p)
                .map(|c| std::mem::discriminant(&c.spec.workload))
                .collect();
            families.dedup();
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

    /// Each case's document carries its whole run: it parses back to the
    /// very spec the corpus runs.
    #[test]
    fn every_default_case_parses_back_equal_from_its_own_json() {
        for case in default_corpus() {
            let json = case.spec.to_json();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {json} must parse: {e}", case.spec.id()));
            assert_eq!(back, case.spec, "{json}");
        }
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
