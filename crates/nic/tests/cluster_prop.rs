//! Seeded property tests for the N-node switched shuffle.
//!
//! Each case draws an *arbitrary* cluster — node count (N ≤ 8), table
//! sizes, radix width, switch geometry, and a composable fault mix —
//! from a fixed seed, runs the all-to-all shuffle, and checks the two
//! cluster-level contracts:
//!
//! 1. **Exactly-once delivery**: every 8 B value each node shuffles out
//!    arrives exactly once in the correct peer's correct radix
//!    partition, regardless of tail-drops, loss, corruption, reordering
//!    or duplication on the way. ([`run_shuffle`] panics on any
//!    violation: the receive regions have *exact* capacity, so a
//!    duplicated or misrouted value overflows its partition; a lost one
//!    leaves the kernel's value count short; a corrupted one fails the
//!    per-partition check — a linear walk, with the sorted-multiset
//!    comparison as its fallback.) Go-back-N must also deliver every
//!    flow in order: no partition may need the fallback.
//! 2. **Determinism**: re-running the same spec reproduces the full
//!    outcome — including the telemetry trace fingerprint — bit for
//!    bit.
//!
//! Seeds are pinned, so CI explores the same corpus every run and any
//! failure names the seed that reproduces it locally.

use strom_nic::cluster_shuffle::{expected_partitions, run_shuffle, ShuffleSpec};
use strom_nic::{chaos_model, SwitchParams};
use strom_sim::time::NANOS;
use strom_sim::{default_workers, parallel_map, Bandwidth, EcnConfig, SimRng};

/// Draws one arbitrary cluster spec from a case seed. Every dimension —
/// geometry, load, switch shape, fault mix — derives from the seed, so
/// the corpus is stable across runs and machines.
fn arbitrary_spec(case_seed: u64) -> ShuffleSpec {
    // Domain-separate the generator from the simulation RNG (which runs
    // on `case_seed` itself inside the testbed).
    let mut rng = SimRng::seed(case_seed ^ 0xA1B_17EA5);
    let nodes = rng.range(2, 9) as usize;
    let values_per_node = rng.range(48, 400) as usize;
    let mut spec = ShuffleSpec::new(nodes, values_per_node, case_seed);
    spec.local_partitions = 1 << rng.range(2, 6); // 4..=32 partitions.
                                                  // Half the corpus runs DCQCN congestion control against an
                                                  // ECN-marking switch, so the cumulative-ack watermark and the
                                                  // stale-retransmit guard are exercised *while* CNPs are reshaping
                                                  // per-QP transmit pacing mid-flight (and, under the fault mixes
                                                  // below, interleaved with reordering and duplication).
    spec.cc = rng.chance(0.5);
    spec.switch = SwitchParams {
        // Half the corpus bottlenecks the egress ports below link rate.
        port_rate: if rng.chance(0.5) {
            None
        } else {
            Some(Bandwidth::gbit_per_sec(5.0))
        },
        latency: rng.range(0, 1_000) * NANOS,
        egress_capacity: [32, 64, 256][rng.below(3) as usize],
        ecn: spec.cc.then(|| {
            let min = rng.range(4, 24);
            let max = min + rng.range(0, 32);
            EcnConfig {
                min_threshold: min as usize,
                max_threshold: max as usize,
                max_mark_prob: 0.25 + 0.75 * rng.unit(),
                seed: case_seed ^ 0xECF,
            }
        }),
    };
    if rng.chance(0.6) {
        // The chaos generator guarantees at least two active fault types.
        spec.fault = chaos_model(case_seed);
    }
    spec.trace_capacity = Some(1 << 15);
    spec
}

/// Exactly-once delivery for the whole corpus: arbitrary N, payload
/// sizes, and fault mixes. The byte-level assertions live inside
/// [`run_shuffle`]; this test additionally checks that each case moved
/// real traffic, so a degenerate generator cannot pass vacuously.
#[test]
fn arbitrary_clusters_shuffle_exactly_once() {
    let outcomes = parallel_map(
        (0..12u64).map(|i| 0x9E37_0000 + i).collect(),
        default_workers(),
        |seed| {
            let spec = arbitrary_spec(seed);
            let expected_bytes: u64 = expected_partitions(&spec)
                .values()
                .map(|v| 8 * v.len() as u64)
                .sum();
            let outcome = run_shuffle(&spec);
            assert_eq!(
                outcome.bytes_shuffled, expected_bytes,
                "case {seed:#x}: outgoing bytes disagree with the expected-partition model"
            );
            assert!(
                outcome.bytes_shuffled > 0,
                "case {seed:#x}: vacuous case, nothing crossed the switch"
            );
            assert_eq!(
                outcome.out_of_order_partitions, 0,
                "case {seed:#x}: a flow reached host memory out of order"
            );
            (spec, outcome)
        },
    );
    // The corpus must actually exercise the recovery machinery: at least
    // one faulty case has to have retransmitted or tail-dropped.
    let recovered: u64 = outcomes
        .iter()
        .map(|(_, o)| o.retransmissions + o.tail_drops)
        .sum();
    assert!(
        recovered > 0,
        "no case in the corpus stressed retransmission — generator too tame"
    );
}

/// Same-seed reruns are bit-identical: the whole outcome (throughput,
/// latency quantile, drop/retransmission counts, and the telemetry
/// trace fingerprint) reproduces exactly.
#[test]
fn same_seed_reruns_reproduce_the_telemetry_fingerprint() {
    parallel_map(
        (0..4u64).map(|i| 0xF1D0_0000 + i).collect(),
        default_workers(),
        |seed| {
            let spec = arbitrary_spec(seed);
            let a = run_shuffle(&spec);
            let b = run_shuffle(&spec);
            assert!(
                a.fingerprint.is_some(),
                "case {seed:#x}: tracing was enabled, fingerprint must exist"
            );
            assert_eq!(a, b, "case {seed:#x}: rerun diverged");
        },
    );
}
