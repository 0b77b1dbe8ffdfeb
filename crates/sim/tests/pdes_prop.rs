//! Differential property test for the conservative time-windowed PDES
//! engine: a randomized gossip model is pushed through the sequential
//! global-heap reference and the windowed engine at one worker and at
//! many workers, and every observable — the full dispatch log, the
//! fingerprints, the event count, and the final partition states — must
//! be bit-identical across all three. This is the engine-level analogue
//! of `ReferenceEventQueue`: the reference pops a single global heap in
//! canonical `(time, dst, src, seq)` order, so agreement proves the
//! windowed merge realizes exactly that serialization.

use strom_sim::pdes::{Outbox, Partition, PdesEngine};
use strom_sim::SimRng;
use strom_telemetry::Fingerprint;

/// A gossip hop: carries a value to mix into the receiver's state and a
/// remaining hop budget so every run terminates.
struct Hop {
    value: u64,
    hops: u32,
}

/// One gossip participant. All behaviour (fanout, delays, destinations)
/// derives from the partition's private RNG, so the model exercises
/// uneven load, bursts of equal-time events, and cross-partition fanout
/// without any global coordination.
struct Gossip {
    id: usize,
    n: usize,
    lookahead: u64,
    rng: SimRng,
    /// Rolling digest of everything this partition handled — the
    /// per-partition "simulation state" the test compares at the end.
    acc: Fingerprint,
    handled: u64,
}

impl Gossip {
    fn mix(&mut self, value: u64, now: u64) {
        self.acc.mix(value).mix(now);
        self.handled += 1;
    }
}

impl Partition for Gossip {
    type Event = Hop;

    fn init(&mut self, out: &mut Outbox<Self::Event>) {
        // Everyone seeds a couple of initial rumours, some of them
        // landing at identical times on purpose (same-window ties).
        for i in 0..2 {
            let dst = self.rng.below(self.n as u64) as usize;
            let delay = self.lookahead + (i as u64 % 2) * 3;
            if dst == self.id {
                out.send(
                    dst,
                    1 + delay,
                    Hop {
                        value: self.rng.next_u64(),
                        hops: 6,
                    },
                );
            } else {
                out.send(
                    dst,
                    delay,
                    Hop {
                        value: self.rng.next_u64(),
                        hops: 6,
                    },
                );
            }
        }
    }

    fn handle(&mut self, event: Self::Event, out: &mut Outbox<Self::Event>) {
        let now = out.now();
        self.mix(event.value, now);
        if event.hops == 0 {
            return;
        }
        // Fan out 0..=2 follow-ups; cross sends honour the lookahead,
        // self sends the ≥1 contract. Small delay spreads keep many
        // events inside one window so the tie-break path stays hot.
        let fanout = self.rng.below(3);
        for _ in 0..fanout {
            let dst = self.rng.below(self.n as u64) as usize;
            let value = self.rng.next_u64();
            let spread = self.rng.below(2 * self.lookahead + 4);
            if dst == self.id {
                out.send(
                    dst,
                    1 + spread,
                    Hop {
                        value,
                        hops: event.hops - 1,
                    },
                );
            } else {
                out.send(
                    dst,
                    self.lookahead + spread,
                    Hop {
                        value,
                        hops: event.hops - 1,
                    },
                );
            }
        }
    }
}

fn build(n: usize, lookahead: u64, seed: u64) -> PdesEngine<Gossip> {
    let parts = (0..n)
        .map(|id| Gossip {
            id,
            n,
            lookahead,
            rng: SimRng::seed(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            acc: Fingerprint::new(),
            handled: 0,
        })
        .collect();
    PdesEngine::new(parts, lookahead).recorded()
}

/// The full differential matrix: reference vs windowed(1) vs
/// windowed(many), across seeds, partition counts, and lookaheads.
#[test]
fn gossip_is_bit_identical_across_engines_and_worker_counts() {
    for &(n, lookahead) in &[(3usize, 7u64), (5, 1), (9, 1_000)] {
        for seed in 0..8u64 {
            let (r_ref, p_ref) = build(n, lookahead, seed).run_reference();
            let (r_one, p_one) = build(n, lookahead, seed).run(1);
            let (r_many, p_many) = build(n, lookahead, seed).run(8);

            assert!(
                r_ref.events > 0,
                "n={n} seed={seed}: model produced no events"
            );
            for (label, r, p) in [
                ("1 worker", &r_one, &p_one),
                ("8 workers", &r_many, &p_many),
            ] {
                assert_eq!(
                    r.log, r_ref.log,
                    "n={n} la={lookahead} seed={seed}: {label} dispatch log diverged"
                );
                assert_eq!(
                    r.fingerprint, r_ref.fingerprint,
                    "n={n} la={lookahead} seed={seed}: {label} fingerprint diverged"
                );
                assert_eq!(r.partition_fingerprints, r_ref.partition_fingerprints);
                assert_eq!(r.events, r_ref.events);
                for (a, b) in p.iter().zip(p_ref.iter()) {
                    assert_eq!(
                        (a.acc, a.handled),
                        (b.acc, b.handled),
                        "n={n} la={lookahead} seed={seed}: {label} partition {} state diverged",
                        a.id
                    );
                }
            }
        }
    }
}

/// The dispatch log the reference produces really is the canonical
/// serialization: sorted by `(at, dst, src, seq)` with no duplicates.
#[test]
fn reference_log_is_the_canonical_serialization() {
    let (report, _) = build(4, 11, 0xD15).run_reference();
    let log = report.log.expect("recorded engine keeps the log");
    assert!(!log.is_empty());
    let mut sorted = log.clone();
    sorted.sort(); // DispatchRecord's derived Ord *is* the canonical key.
    sorted.dedup();
    assert_eq!(
        log, sorted,
        "reference emitted events out of canonical order"
    );
}
