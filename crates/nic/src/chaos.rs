//! Seeded chaos schedules for the soak harness.
//!
//! A chaos run is parameterized by a single `u64` seed: the seed picks
//! which fault types are active (always at least two) and their rates,
//! and the same seed also drives the testbed RNG — so a failing soak run
//! is reproduced exactly by re-running its seed.
//!
//! Rates are bounded to a regime the protocol should *survive*: bursty
//! enough to exercise go-back-N, NAKs, backoff, and ICRC drops, but
//! below the point where a 7-retry budget legitimately exhausts. Retry
//! exhaustion has its own dedicated test with loss = 1.0.

use strom_proto::{CompletionStatus, WorkRequest};
use strom_sim::time::MICROS;
use strom_sim::SimRng;
use strom_telemetry::Fingerprint;

use crate::config::Platform;
use crate::controller::StatusRegisters;
use crate::fault::{LinkFaultModel, LossModel};
use crate::scenario::{us, Scenario};
use crate::spec::{shape, spec_json, SpecError};
use crate::testbed::ClusterTestbed;

/// The fault dimensions a chaos schedule composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Loss,
    Corrupt,
    Reorder,
    Duplicate,
}

/// Builds the fault model for one chaos seed: at least two fault types,
/// with rates drawn from survivable ranges. Deterministic in `seed`.
pub fn chaos_model(seed: u64) -> LinkFaultModel {
    // Domain-separate from the testbed RNG, which runs on `seed` itself.
    let mut rng = SimRng::seed(seed ^ 0xC4A0_5EED);
    let mut kinds = [
        FaultKind::Loss,
        FaultKind::Corrupt,
        FaultKind::Reorder,
        FaultKind::Duplicate,
    ];
    rng.shuffle(&mut kinds);
    let active = rng.range(2, kinds.len() as u64 + 1) as usize;

    let mut model = LinkFaultModel::none();
    for kind in &kinds[..active] {
        match kind {
            FaultKind::Loss => {
                model.loss = if rng.chance(0.5) {
                    // Bursty: mostly-clean good state, short lossy bursts.
                    LossModel::GilbertElliott {
                        p_good_to_bad: 0.005 + rng.unit() * 0.045,
                        p_bad_to_good: 0.2 + rng.unit() * 0.3,
                        loss_good: rng.unit() * 0.01,
                        loss_bad: 0.1 + rng.unit() * 0.3,
                    }
                } else {
                    LossModel::Bernoulli(0.01 + rng.unit() * 0.09)
                };
            }
            FaultKind::Corrupt => {
                model.corrupt_rate = 0.005 + rng.unit() * 0.025;
            }
            FaultKind::Reorder => {
                model.reorder_rate = 0.01 + rng.unit() * 0.09;
                model.reorder_jitter = rng.range(MICROS, 20 * MICROS);
            }
            FaultKind::Duplicate => {
                model.duplicate_rate = 0.005 + rng.unit() * 0.045;
            }
        }
    }
    model
}

/// How many fault dimensions a model has switched on.
pub fn active_fault_types(model: &LinkFaultModel) -> usize {
    usize::from(model.loss != LossModel::None)
        + usize::from(model.corrupt_rate > 0.0)
        + usize::from(model.reorder_rate > 0.0 && model.reorder_jitter > 0)
        + usize::from(model.duplicate_rate > 0.0)
}

/// Everything that determines one chaos soak run: a seeded schedule of
/// mixed READ/WRITE operations between two hosts under a composed
/// [`chaos_model`] fault schedule, on either platform. Every byte is
/// verified against a pure-array reference. The corpus runs it once per
/// case; `tests/chaos_soak.rs` sweeps it over many seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Hardware platform (10 G or 100 G datapath).
    pub platform: Platform,
    /// Upper bound on the operation count (the seed draws 2..ops).
    pub ops: u64,
    /// Seed: picks the fault schedule, the op schedule, and the testbed
    /// RNG, so a run reproduces exactly from this one value.
    pub seed: u64,
}

/// What one chaos run observed. The fault counters are summed over both
/// nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// FNV-1a fold of both verified memory images and the recovery
    /// counters — bit-identical across reruns of the same spec.
    pub fingerprint: u64,
    /// Operations driven.
    pub ops: u64,
    /// Payload bytes moved (sum of op lengths).
    pub bytes_moved: u64,
    /// First post to quiesce, picoseconds.
    pub elapsed_ps: u64,
    /// Retransmissions the faults forced.
    pub retransmissions: u64,
    /// Frames provably dropped by the ICRC after in-flight corruption.
    pub crc_dropped: u64,
    /// Frames lost by the fault model.
    pub frames_lost: u64,
    /// Frames the fault model delivered out of order.
    pub frames_reordered: u64,
    /// Frames the fault model delivered twice.
    pub frames_duplicated: u64,
    /// Retransmission timeouts that fired.
    pub timeouts: u64,
}

/// Runs the chaos soak scenario on a fresh testbed (see [`ChaosSpec`]'s
/// [`Scenario`] impl).
pub fn run_chaos(spec: &ChaosSpec) -> ChaosOutcome {
    let mut tb = spec.testbed();
    spec.drive(&mut tb)
}

impl ChaosSpec {
    /// What makes the spec runnable: the seed draws `2..ops` operations.
    pub fn check(&self) -> Result<(), SpecError> {
        shape(self.ops >= 3, "chaos ops must be ≥ 3")
    }
}

spec_json! { ChaosSpec { platform, ops, seed } }

impl Scenario for ChaosSpec {
    type Outcome = ChaosOutcome;

    fn testbed(&self) -> ClusterTestbed {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = self.platform.config();
        cfg.seed = self.seed;
        ClusterTestbed::new(cfg)
    }

    /// Verifies every byte against the reference, that every op
    /// succeeded, and that the run quiesced with no QP stuck or errored.
    fn drive(&self, tb: &mut ClusterTestbed) -> ChaosOutcome {
        const CLIENT: usize = 0;
        const SERVER: usize = 1;
        const QP: u32 = 1;
        const EVENT_BUDGET: u64 = 50_000_000;

        let seed = self.seed;
        let model = chaos_model(seed);
        tb.connect_qp(QP);
        tb.set_fault_model(model);
        let a = tb.pin(CLIENT, 4 << 20);
        let b = tb.pin(SERVER, 4 << 20);

        // Seeded init images and op schedule (domain-separated streams).
        let mut rng = SimRng::seed(seed ^ 0x1234);
        let mut client_init = vec![0u8; 2 << 20];
        rng.fill_bytes(&mut client_init);
        let mut server_init = vec![0u8; 2 << 20];
        rng.fill_bytes(&mut server_init);
        tb.mem(CLIENT).write(a, &client_init);
        tb.mem(SERVER).write(b, &server_init);

        let mut op_rng = SimRng::seed(seed ^ 0x0b5);
        let ops: Vec<(bool, u64, u32)> = (0..op_rng.range(2, self.ops))
            .map(|_| {
                let off = op_rng.below(1 << 20);
                let len = op_rng.range(1, 20_000) as u32;
                (op_rng.chance(0.5), off, len.min(((1 << 20) - 1) as u32))
            })
            .collect();

        // Reference images: the same ops applied to plain byte arrays.
        let mut want_remote = vec![0u8; 2 << 20];
        let mut want_local = vec![0u8; 2 << 20];
        for &(is_write, off, len) in &ops {
            let (off, len) = (off as usize, len as usize);
            if is_write {
                want_remote[off..off + len].copy_from_slice(&client_init[off..off + len]);
            } else {
                want_local[off..off + len].copy_from_slice(&server_init[off..off + len]);
            }
        }

        let t0 = tb.now();
        let mut bytes_moved = 0u64;
        for &(is_write, off, len) in &ops {
            let h = if is_write {
                tb.post(
                    CLIENT,
                    QP,
                    WorkRequest::Write {
                        remote_vaddr: b + (2 << 20) + off,
                        local_vaddr: a + off,
                        len,
                    },
                )
            } else {
                tb.post(
                    CLIENT,
                    QP,
                    WorkRequest::Read {
                        remote_vaddr: b + off,
                        local_vaddr: a + (2 << 20) + off,
                        len,
                    },
                )
            };
            bytes_moved += u64::from(len);
            tb.run_until_complete(CLIENT, h);
            assert_eq!(
                tb.completion_status(CLIENT, h),
                Some(CompletionStatus::Success),
                "seed {seed}: chaos op failed under {model:?}"
            );
        }
        assert!(
            tb.run_until_idle_bounded(EVENT_BUDGET),
            "seed {seed}: chaos run failed to quiesce under {model:?}"
        );
        let elapsed_ps = tb.now() - t0;
        assert!(
            !tb.qp_has_outstanding(CLIENT, QP),
            "seed {seed}: QP stuck with outstanding work after quiesce"
        );
        assert!(
            !tb.qp_errored(CLIENT, QP),
            "seed {seed}: survivable fault schedule exhausted the retry budget"
        );

        let remote_image = tb.mem(SERVER).read(b + (2 << 20), 2 << 20);
        let local_image = tb.mem(CLIENT).read(a + (2 << 20), 2 << 20);
        assert_eq!(
            remote_image, want_remote,
            "seed {seed}: remote memory diverged under {model:?}"
        );
        assert_eq!(
            local_image, want_local,
            "seed {seed}: read-back memory diverged under {model:?}"
        );

        let status = [tb.status(CLIENT), tb.status(SERVER)];
        for s in &status {
            assert_eq!(s.qps_in_error, 0, "seed {seed}");
        }
        let retransmissions = tb.retransmissions(CLIENT);
        let mut fp = Fingerprint::new();
        fp.bytes(&remote_image)
            .bytes(&local_image)
            .word(retransmissions)
            .word(elapsed_ps);
        for s in &status {
            for v in [
                s.frames_lost,
                s.frames_crc_dropped,
                s.frames_reordered,
                s.frames_duplicated,
                s.timeouts,
            ] {
                fp.word(v);
            }
        }
        let total = |counter: fn(&StatusRegisters) -> u64| status.iter().map(counter).sum();
        ChaosOutcome {
            fingerprint: fp.value(),
            ops: ops.len() as u64,
            bytes_moved,
            elapsed_ps,
            retransmissions,
            crc_dropped: total(|s| s.frames_crc_dropped),
            frames_lost: total(|s| s.frames_lost),
            frames_reordered: total(|s| s.frames_reordered),
            frames_duplicated: total(|s| s.frames_duplicated),
            timeouts: total(|s| s.timeouts),
        }
    }

    fn fingerprint(out: &ChaosOutcome) -> u64 {
        out.fingerprint
    }

    fn perf(out: &ChaosOutcome) -> Vec<(&'static str, f64)> {
        vec![
            ("elapsed_us", us(out.elapsed_ps)),
            ("bytes_moved", out.bytes_moved as f64),
            ("retransmissions", out.retransmissions as f64),
            ("frames_lost", out.frames_lost as f64),
            ("crc_dropped", out.crc_dropped as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_activates_at_least_two_fault_types() {
        for seed in 0..200u64 {
            let m = chaos_model(seed);
            assert!(
                active_fault_types(&m) >= 2,
                "seed {seed} produced {m:?} with < 2 fault types"
            );
        }
    }

    #[test]
    fn models_are_deterministic_in_the_seed() {
        for seed in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
            assert_eq!(chaos_model(seed), chaos_model(seed));
        }
    }

    #[test]
    fn seeds_produce_distinct_models() {
        let a = chaos_model(1);
        let b = chaos_model(2);
        assert_ne!(a, b, "different seeds should explore different faults");
    }

    #[test]
    fn chaos_runs_reproduce_and_differ_across_platforms() {
        let spec = ChaosSpec {
            platform: Platform::TenGig,
            ops: 6,
            seed: 11,
        };
        let a = run_chaos(&spec);
        let b = run_chaos(&spec);
        assert_eq!(a, b, "same spec must reproduce bit-identically");
        let hundred = run_chaos(&ChaosSpec {
            platform: Platform::HundredGig,
            ..spec.clone()
        });
        // Same payload schedule, different timing plane: the images fold
        // identically but elapsed time shrinks on the wider datapath.
        assert_eq!(hundred.ops, a.ops);
        assert_eq!(hundred.bytes_moved, a.bytes_moved);
        assert!(
            hundred.elapsed_ps < a.elapsed_ps,
            "100 G chaos must finish faster: {} vs {}",
            hundred.elapsed_ps,
            a.elapsed_ps
        );
    }

    #[test]
    fn rates_stay_in_the_survivable_regime() {
        for seed in 0..200u64 {
            let m = chaos_model(seed);
            match m.loss {
                LossModel::None => {}
                LossModel::Bernoulli(p) => assert!(p <= 0.10, "seed {seed}: loss {p}"),
                LossModel::GilbertElliott {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good,
                    loss_bad,
                } => {
                    assert!(p_good_to_bad <= 0.05);
                    assert!(p_bad_to_good >= 0.2, "bursts must end");
                    assert!(loss_good <= 0.01);
                    assert!(loss_bad <= 0.4);
                }
            }
            assert!(m.corrupt_rate <= 0.03, "seed {seed}");
            assert!(m.reorder_rate <= 0.10, "seed {seed}");
            assert!(m.reorder_jitter <= 20 * MICROS, "seed {seed}");
            assert!(m.duplicate_rate <= 0.05, "seed {seed}");
        }
    }
}
