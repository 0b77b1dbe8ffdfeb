//! The run shape: set-up (inputs from the seed, an untimed warm-up unit,
//! its correctness check), then identical timed units at the same seed.
//!
//! Work per unit is identical and the program is deterministic, so host
//! noise is purely additive: host-clock rates come from the fastest unit,
//! with the median, quartiles and unit count printed beside it. Simulated
//! -clock metrics come from the warm-up unit and must repeat exactly in
//! every later unit (the fingerprint check).

use std::time::{Duration, Instant};

use crate::catalog::{END_TO_END, LAYERS, PER_LAYER};
use crate::json::Value;
use crate::layers::{self, drive_pair};
use crate::spans::{self_time_of, Recorder};
use crate::stats::{median, min, quartiles, spread};
use crate::workloads::{
    fnv, has_trace_knob, kv_spec, kv_unit, run_unit, UnitOutcome, Workload, KV_LADDER_REQUESTS,
};

/// Set-up repetitions per run; `setup_s` and the simulated-clock metrics
/// are medians over them.
const SETUP_REPS: usize = 5;
/// Capacity of the testbed's own trace ring in the traced run.
const TRACE_RING: usize = 1 << 14;
/// `kv_serve` latency limit on p999, and the offered rates tried.
const SLO_P999_US: f64 = 30.0;
const SLO_LADDER_KRPS: [u64; 9] = [500, 750, 1_000, 1_250, 1_500, 1_750, 2_000, 2_250, 2_500];

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Timed units a run makes at least (10; 3 under `--quick`).
    pub min_units: usize,
    /// When the process started: set-up is timed from here.
    pub started: Instant,
}

/// The result of one run: the contract's last line plus the detail the
/// result sets keep for `--compare`.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Spread (interquartile range over median) of the samples behind a
    /// metric, where one run has several.
    pub spreads: Vec<(&'static str, f64)>,
    pub fingerprint: u64,
    /// Headline latency on the simulated clock, µs (see
    /// [`UnitOutcome::sim_latency_ps`] for which percentile).
    pub sim_latency_us: f64,
    pub units: usize,
}

impl Report {
    /// The last line of standard output: exactly these keys.
    pub fn result_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|&(name, value)| {
                    let unit = crate::catalog::unit_of(name).expect("catalogued metric");
                    (
                        name,
                        Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
    }

    /// What a result set keeps beside the result line's keys.
    pub fn detail(&self) -> Value {
        Value::obj([
            (
                "sim_fingerprint",
                Value::str(format!("{:016x}", self.fingerprint)),
            ),
            ("sim_latency_us", Value::Num(self.sim_latency_us)),
            ("peak_rss_mib", Value::Num(peak_rss_mib())),
            ("units", Value::Num(self.units as f64)),
            (
                "spreads",
                Value::obj(self.spreads.iter().map(|&(n, s)| (n, Value::Num(s)))),
            ),
        ])
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// Peak resident set of this process (`VmHWM`), MiB. Printed and kept in
/// the result set; it includes what the allocator holds back from the
/// kernel, which is why `peak_live_mib` is the metric (see `alloc.rs`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Running totals and the checks every unit goes through.
struct Ledger {
    reference: UnitOutcome,
    attempted: u64,
    failed: u64,
    fingerprints_agree: bool,
}

impl Ledger {
    fn new(reference: UnitOutcome) -> Ledger {
        Ledger {
            attempted: reference.ops,
            failed: reference.failed,
            fingerprints_agree: true,
            reference,
        }
    }

    /// Adds a unit run at another seed: its ops count, its fingerprint
    /// is its own.
    fn count(&mut self, unit: &UnitOutcome) {
        self.attempted += unit.ops;
        self.failed += unit.failed;
    }

    /// Adds a unit run at the reference's seed, which must repeat it.
    fn check(&mut self, unit: &UnitOutcome) {
        self.count(unit);
        self.fingerprints_agree &= unit.fingerprint == self.reference.fingerprint;
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.fingerprints_agree
            && self.reference.sim_elapsed_ps > 0
            && self.reference.sim_latency_ps > 0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn print_unit_times(workload: Workload, ops: u64, walls: &[f64]) {
    let (q1, q3) = quartiles(walls).unwrap_or((walls[0], walls[0]));
    println!(
        "unit wall: fastest {:.4} s, median {:.4} s, quartiles {:.4}/{:.4} s over {} units of {} {}",
        min(walls),
        median(walls),
        q1,
        q3,
        walls.len(),
        ops,
        workload.op_noun(),
    );
}

/// Simulated-clock latency is printed and kept in the result set, where
/// `--compare` pins it at one seed; it is no end-to-end metric because its
/// tail differs too much from seed to seed to hold any bound (README).
fn print_latency(sim_latency_us: f64, warm: &UnitOutcome) {
    println!(
        "sim_latency_us {sim_latency_us:.3} ({})",
        warm.latency_label
    );
    if let Some(p50) = warm.sim_p50_ps {
        println!("sim_p50_us {:.3} (median op latency)", p50 as f64 / 1e6);
    }
}

fn print_metrics(title: &str, metrics: &[(&'static str, f64)]) {
    println!("-- {title} --");
    for &(name, value) in metrics {
        let unit = crate::catalog::unit_of(name).expect("catalogued metric");
        println!("{name:<40} {value:>18.6} {unit}");
    }
}

fn print_header(cfg: &Config) {
    let w = cfg.workload;
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("why: {}", w.why());
    println!("load: {}", w.loop_kind());
    println!("link rates and latencies are simulated, not measured");
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(cfg: &Config) -> Report {
    let w = cfg.workload;
    print_header(cfg);

    // Set-up, several times over: inputs from a seed (the drivers expand
    // it into tables, schedules and payloads), one untimed warm-up unit,
    // and its check. The first repetition starts at process start and
    // uses `--seed` itself; the others use sibling seeds derived from it,
    // and every simulated-clock metric is the median over the set-ups, so
    // that one unlucky loss pattern does not decide it.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut siblings: Vec<UnitOutcome> = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 {
            cfg.started
        } else {
            Instant::now()
        };
        let seed = if rep == 0 {
            cfg.seed
        } else {
            fnv(&[cfg.seed, rep as u64])
        };
        siblings.push(run_unit(w, seed, None));
        setups.push(secs(t.elapsed()));
    }
    let mut ledger = Ledger::new(siblings[0].clone());
    for unit in &siblings[1..] {
        ledger.count(unit);
    }

    let mut walls = Vec::new();
    let timed = Instant::now();
    while secs(timed.elapsed()) < cfg.seconds || walls.len() < cfg.min_units {
        let t = Instant::now();
        let unit = run_unit(w, cfg.seed, None);
        walls.push(secs(t.elapsed()));
        ledger.check(&unit);
    }

    let warm = &ledger.reference;
    let over_siblings =
        |f: fn(&UnitOutcome) -> f64| median(&siblings.iter().map(f).collect::<Vec<f64>>());
    let sim_latency_us = over_siblings(|u| u.sim_latency_ps as f64 / 1e6);
    let metrics = vec![
        ("ops_per_wall_s", warm.ops as f64 / min(&walls)),
        ("peak_live_mib", crate::alloc::read().peak_live as f64 / MIB),
        ("setup_s", median(&setups)),
        (
            "sim_elapsed_us",
            over_siblings(|u| u.sim_elapsed_ps as f64 / 1e6),
        ),
        (
            "sim_goodput_gbps",
            over_siblings(|u| u.payload_bytes as f64 * 8e3 / u.sim_elapsed_ps as f64),
        ),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));

    print_unit_times(w, warm.ops, &walls);
    println!(
        "ops_per_wall_s uses the fastest unit; by the median unit it is {:.1}",
        warm.ops as f64 / median(&walls)
    );
    println!(
        "simulated-clock metrics are medians over {SETUP_REPS} set-ups at seed {} and {} seeds \
         derived from it",
        cfg.seed,
        SETUP_REPS - 1
    );
    print_latency(sim_latency_us, warm);
    println!(
        "peak_rss_mib {:.3} (VmHWM, allocator retention included)",
        peak_rss_mib()
    );
    println!(
        "sim_fingerprint {:016x} ({} in all {} units at seed {})",
        warm.fingerprint,
        if ledger.fingerprints_agree {
            "identical"
        } else {
            "DIFFERS"
        },
        walls.len() + 1,
        cfg.seed,
    );
    println!(
        "failed_op_share {} ({} of {} {} failed a check)",
        ledger.failed as f64 / ledger.attempted as f64,
        ledger.failed,
        ledger.attempted,
        w.op_noun()
    );
    print_metrics("end-to-end metrics (tracing off)", &metrics);

    Report {
        correct: ledger.correct(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        spreads: vec![
            ("ops_per_wall_s", spread(&walls).unwrap_or(0.0)),
            ("setup_s", spread(&setups).unwrap_or(0.0)),
        ],
        metrics,
        fingerprint: ledger.reference.fingerprint,
        sim_latency_us,
        units: walls.len(),
    }
}

/// How a traced run's timed units differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Span recorder off, testbed trace ring off: the end-to-end shape.
    Untraced,
    /// The benchmark's own `unit/<i>` span around the unit.
    Spans,
    /// Spans plus the testbed's trace ring, where the driver has the knob.
    TestbedTrace,
}

/// The `kv_serve` rate ladder: p999 per offered rate, and the highest
/// rate whose p999 meets the limit while achieved ≥ 0.95 × offered.
pub struct Ladder {
    /// `(offered krps, achieved krps, p999 µs)` per rung, run once each.
    pub rungs: Vec<(u64, f64, f64)>,
}

impl Ladder {
    fn measure(seed: u64) -> Ladder {
        let rungs = SLO_LADDER_KRPS
            .iter()
            .map(|&krps| {
                let spec = kv_spec(seed, krps, KV_LADDER_REQUESTS);
                let unit = kv_unit(&spec);
                let achieved = unit.ops as f64 / (unit.sim_elapsed_ps as f64 * 1e-12) / 1e3;
                (krps, achieved, unit.sim_latency_ps as f64 / 1e6)
            })
            .collect();
        Ladder { rungs }
    }

    /// The highest offered rate that meets the limit without a growing
    /// backlog; 0 when no rung does.
    pub fn slo_krps(&self) -> u64 {
        self.rungs
            .iter()
            .filter(|&&(offered, achieved, p999)| {
                p999 <= SLO_P999_US && achieved >= 0.95 * offered as f64
            })
            .map(|r| r.0)
            .max()
            .unwrap_or(0)
    }
}

/// The traced run: every per-layer metric, and the span file.
pub fn run_traced(cfg: &Config, out_dir: &std::path::Path) -> Report {
    let w = cfg.workload;
    print_header(cfg);
    let id = Workload::ALL.iter().position(|&x| x == w).expect("listed") as u32;
    let mut rec = Recorder::new(id);
    let modes: &[Mode] = if has_trace_knob(w) {
        &[Mode::Untraced, Mode::Spans, Mode::TestbedTrace]
    } else {
        &[Mode::Untraced, Mode::Spans]
    };

    let mut ops = layers::ops();
    let mut walls: Vec<(Mode, f64)> = Vec::new();
    let mut layer_metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut pairs = None;
    let mut ladder = None;

    let ledger = rec.span(&format!("workload/{}", w.name()), |rec| {
        // The drivers expand the seed into inputs inside every unit; what
        // can be separated here is only choosing the spec.
        rec.span("generate", |_| std::hint::black_box(cfg.seed));
        let before = crate::alloc::read();
        let mut ledger = Ledger::new(rec.span("warmup", |_| run_unit(w, cfg.seed, None)));
        let after = crate::alloc::read();
        let unit_ops = ledger.reference.ops as f64;
        layer_metrics.extend([
            (
                "nic.allocs_per_op",
                (after.allocations - before.allocations) as f64 / unit_ops,
            ),
            (
                "nic.alloc_bytes_per_op",
                (after.allocated - before.allocated) as f64 / unit_ops,
            ),
        ]);

        // Timed units, cycling through the modes, for half the run's
        // seconds; the rest goes to the replay and the layer timings.
        let timed = Instant::now();
        let per_mode = cfg.min_units.div_ceil(3).max(3);
        while secs(timed.elapsed()) < cfg.seconds / 2.0 || walls.len() < per_mode * modes.len() {
            let i = walls.len();
            let mode = modes[i % modes.len()];
            rec.set_enabled(mode != Mode::Untraced);
            let ring = (mode == Mode::TestbedTrace).then_some(TRACE_RING);
            let t = Instant::now();
            let unit = rec.span(&format!("unit/{i}"), |_| run_unit(w, cfg.seed, ring));
            walls.push((mode, secs(t.elapsed())));
            rec.set_enabled(true);
            ledger.check(&unit);
        }
        rec.span("verify", |_| std::hint::black_box(ledger.correct()));

        // Each layer's functions timed alone, then the direct-drive pair:
        // the only place event counts are reachable.
        rec.span("layers", |_| {
            for op in &mut ops {
                layer_metrics.push((op.metric, op.measure()));
            }
            let budget = Duration::from_millis(400);
            pairs = Some((drive_pair(64, budget), drive_pair(64 << 10, budget)));
        });
        let (p64, p64k) = pairs.expect("just measured");
        let events_per_frame = if w == Workload::KvServe {
            p64.events_per_frame()
        } else {
            p64k.events_per_frame()
        };
        let plan = layers::replay_plan(w, &ledger.reference, events_per_frame);
        rec.span("replay", |rec| layers::replay(rec, &mut ops, &plan));

        if w == Workload::KvServe {
            ladder = Some(rec.span("slo_ladder", |_| Ladder::measure(cfg.seed)));
        }
        ledger
    });

    let fastest = |mode: Mode| {
        let of: Vec<f64> = walls
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|x| x.1)
            .collect();
        min(&of)
    };
    let unit_wall = fastest(Mode::Untraced);
    let warm = &ledger.reference;
    let (p64, p64k) = pairs.expect("measured inside the root span");

    let mut m: Vec<(&'static str, f64)> = layer_metrics;
    let mut shares_sum = 0.0;
    for layer in LAYERS.iter().filter(|&&l| l != "nic") {
        let own = self_time_of(rec.spans(), &format!("layer/{layer}.")) as f64 * 1e-9;
        let share = own / unit_wall;
        shares_sum += share;
        let name = PER_LAYER
            .iter()
            .map(|p| p.name)
            .find(|n| n.strip_suffix(".replay_share") == Some(*layer))
            .expect("every replayed layer has a share metric");
        m.push((name, share));
    }
    let data_frames = warm.payload_bytes.div_ceil(1_440).max(1);
    m.extend([
        ("proto.retransmissions", warm.counts.retransmissions as f64),
        ("proto.cnps", warm.counts.cnps as f64),
        ("proto.qp_errors", warm.counts.qp_errors as f64),
        (
            "proto.retransmit_ratio",
            warm.counts.retransmissions as f64 / data_frames as f64,
        ),
        (
            "nic.pair64_events_per_wall_s",
            p64.events as f64 / p64.wall_s,
        ),
        (
            "nic.pair64_ns_per_event",
            p64.wall_s * 1e9 / p64.events as f64,
        ),
        (
            "nic.pair64_events_per_msg",
            p64.events as f64 / p64.messages as f64,
        ),
        (
            "nic.pair64k_events_per_wall_s",
            p64k.events as f64 / p64k.wall_s,
        ),
        (
            "nic.pair64k_wire_mib_per_wall_s",
            p64k.payload_bytes as f64 / p64k.wall_s / MIB,
        ),
        ("nic.tail_drops", warm.counts.tail_drops as f64),
        ("nic.ecn_marked", warm.counts.ecn_marked as f64),
        ("nic.unattributed_share", 1.0 - shares_sum),
        (
            "telemetry.tracing_overhead_share",
            if has_trace_knob(w) {
                fastest(Mode::TestbedTrace) / unit_wall - 1.0
            } else {
                0.0
            },
        ),
        (
            "trace_overhead_share",
            fastest(Mode::Spans) / unit_wall - 1.0,
        ),
        (
            "kv.slo_krps",
            ladder.as_ref().map_or(0.0, |l| l.slo_krps() as f64),
        ),
    ]);
    // Catalogue order, and every catalogued metric present.
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|p| {
            let value = m.iter().find(|(n, _)| *n == p.name).map(|x| x.1);
            (p.name, value.expect("every per-layer metric is measured"))
        })
        .collect();

    let all: Vec<f64> = walls.iter().map(|x| x.1).collect();
    print_unit_times(w, warm.ops, &all);
    print_latency(warm.sim_latency_ps as f64 / 1e6, warm);
    println!(
        "fastest unit: untraced {:.4} s, with spans {:.4} s{}",
        unit_wall,
        fastest(Mode::Spans),
        if has_trace_knob(w) {
            format!(
                ", with the testbed trace ring {:.4} s",
                fastest(Mode::TestbedTrace)
            )
        } else {
            " (this driver exposes no trace-ring knob)".to_string()
        }
    );
    println!(
        "layer replay: each layer's public functions called as often as the outcome counted, \
         warm and in isolation, so shares are lower bounds; nic.unattributed_share is what \
         the testbed glue and cold caches leave unexplained"
    );
    if let Some(l) = &ladder {
        println!(
            "kv_serve SLO ladder ({KV_LADDER_REQUESTS} requests per rate, once each; limit p999 <= \
             {SLO_P999_US} us and achieved >= 0.95 x offered):"
        );
        for &(offered, achieved, p999) in &l.rungs {
            println!(
                "  offered {offered:>5} krps  achieved {achieved:>8.1} krps  p999 {p999:>9.3} us"
            );
        }
    }
    println!("-- per-layer metrics (name, value, unit, what it should move) --");
    for (&(name, value), p) in metrics.iter().zip(&PER_LAYER) {
        println!("{name:<40} {value:>18.6} {:<6} -> {}", p.unit, p.moves);
    }

    let path = out_dir.join(format!("trace-{}.json", w.name()));
    let file = Value::obj([
        ("workload", Value::str(w.name())),
        ("seed", Value::Num(cfg.seed as f64)),
        ("unit_wall_s", Value::Num(unit_wall)),
        ("spans", rec.to_json()),
    ]);
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, format!("{file}\n")))
    {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    Report {
        correct: ledger.correct(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        spreads: Vec::new(),
        fingerprint: ledger.reference.fingerprint,
        sim_latency_us: ledger.reference.sim_latency_ps as f64 / 1e6,
        units: walls.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_is_the_highest_rate_meeting_limit_and_throughput() {
        let ladder = Ladder {
            rungs: vec![
                (500, 499.0, 12.0),
                (1_000, 998.0, 16.0),
                (1_500, 1_490.0, 29.9),
                // Meets the latency limit but the backlog grows.
                (1_750, 1_600.0, 29.0),
                (2_000, 1_990.0, 31.0),
                (2_500, 2_100.0, 400.0),
            ],
        };
        assert_eq!(ladder.slo_krps(), 1_500);
        let none = Ladder {
            rungs: vec![(500, 499.0, 31.0)],
        };
        assert_eq!(none.slo_krps(), 0);
    }

    #[test]
    fn ledger_flags_failures_and_fingerprint_drift() {
        let unit = UnitOutcome {
            ops: 100,
            sim_elapsed_ps: 10,
            sim_latency_ps: 5,
            fingerprint: 7,
            ..UnitOutcome::default()
        };
        let mut l = Ledger::new(unit.clone());
        l.check(&unit);
        assert!(l.correct());
        assert_eq!((l.attempted, l.failed), (200, 0));
        let mut drift = Ledger::new(unit.clone());
        drift.check(&UnitOutcome {
            fingerprint: 8,
            ..unit.clone()
        });
        assert!(!drift.correct());
        // A driver panic fails every op of that unit.
        l.check(&UnitOutcome::failed_unit(100));
        assert!(!l.correct());
        assert_eq!((l.attempted, l.failed), (300, 100));
    }
}
