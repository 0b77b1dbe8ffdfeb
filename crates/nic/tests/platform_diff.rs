//! Differential property test between the two hardware platforms
//! (§6.1/§7): the same seeded READ/WRITE mix on a clean two-node
//! cluster must produce *identical payload bytes* at 10 G and 100 G —
//! the platform changes time, never data — while every per-op latency
//! is strictly lower and the end-to-end throughput strictly higher on
//! the 100 G datapath.

use strom_nic::testbed::ClusterTestbed;
use strom_nic::{CompletionStatus, Platform, WorkRequest};
use strom_sim::SimRng;
use strom_telemetry::Fingerprint;

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

/// One platform's view of the seeded mix: per-op latencies, total
/// elapsed time, and an FNV-1a digest of both memory images.
struct MixOutcome {
    op_latency_ps: Vec<u64>,
    elapsed_ps: u64,
    bytes_moved: u64,
    digest: u64,
}

fn fnv(bytes: &[u8]) -> u64 {
    Fingerprint::new().bytes(bytes).value()
}

/// Runs `ops` seeded READ/WRITE ops (mixed sizes, 64 B .. 48 KiB) on a
/// clean two-node testbed at `platform`, one op at a time so each op's
/// completion latency is isolated from queueing behind its neighbours.
fn run_mix(platform: Platform, seed: u64, ops: usize) -> MixOutcome {
    let mut cfg = platform.config();
    cfg.seed = seed;
    let mut tb = ClusterTestbed::new(cfg);
    tb.connect_qp(QP);
    let a = tb.pin(CLIENT, 4 << 20);
    let b = tb.pin(SERVER, 4 << 20);
    let mut rng = SimRng::seed(seed ^ 0xD1FF);
    let mut image = vec![0u8; 2 << 20];
    rng.fill_bytes(&mut image);
    tb.mem(CLIENT).write(a, &image);
    rng.fill_bytes(&mut image);
    tb.mem(SERVER).write(b, &image);

    let mut sched = SimRng::seed(seed ^ 0x0D1F_F5EED);
    let t0 = tb.now();
    let mut op_latency_ps = Vec::with_capacity(ops);
    let mut bytes_moved = 0u64;
    for _ in 0..ops {
        let off = sched.below(1 << 20);
        let len = sched.range(64, 48 << 10) as u32;
        let wr = if sched.chance(0.5) {
            WorkRequest::Write {
                remote_vaddr: b + (2 << 20) + off,
                local_vaddr: a + off,
                len,
            }
        } else {
            WorkRequest::Read {
                remote_vaddr: b + off,
                local_vaddr: a + (2 << 20) + off,
                len,
            }
        };
        bytes_moved += u64::from(len);
        let posted = tb.now();
        let h = tb.post(CLIENT, QP, wr);
        let done = tb.run_until_complete(CLIENT, h);
        assert_eq!(
            tb.completion_status(CLIENT, h),
            Some(CompletionStatus::Success),
            "{platform}: op failed on a clean link"
        );
        op_latency_ps.push(done - posted);
    }
    assert!(tb.run_until_idle_bounded(50_000_000));
    let mut digest = fnv(&tb.mem(SERVER).read(b + (2 << 20), 2 << 20));
    digest ^= fnv(&tb.mem(CLIENT).read(a + (2 << 20), 2 << 20)).rotate_left(1);
    MixOutcome {
        op_latency_ps,
        elapsed_ps: tb.now() - t0,
        bytes_moved,
        digest,
    }
}

/// The headline differential: at identical seeds, 100 G dominates 10 G
/// op for op, and the payloads that land are bit-identical.
#[test]
fn hundred_gig_dominates_ten_gig_at_identical_seeds() {
    for seed in [1u64, 0xD1FF_0002, 0xD1FF_0003] {
        let ten = run_mix(Platform::TenGig, seed, 24);
        let hundred = run_mix(Platform::HundredGig, seed, 24);

        // Same schedule (the op RNG is platform-independent)...
        assert_eq!(ten.bytes_moved, hundred.bytes_moved, "seed {seed}");
        assert_eq!(
            ten.op_latency_ps.len(),
            hundred.op_latency_ps.len(),
            "seed {seed}"
        );
        // ...identical data plane: what lands in memory does not depend
        // on the platform, only on the schedule.
        assert_eq!(
            ten.digest, hundred.digest,
            "seed {seed}: payload digests diverged across platforms"
        );
        // Strict per-op dominance: every single op completes sooner on
        // the 100 G datapath (faster clock, wider beats, Gen3 x16).
        for (i, (t, h)) in ten
            .op_latency_ps
            .iter()
            .zip(&hundred.op_latency_ps)
            .enumerate()
        {
            assert!(
                h < t,
                "seed {seed} op {i}: 100g latency {h} ps !< 10g latency {t} ps"
            );
        }
        // Strictly higher throughput end to end.
        let gbps = |o: &MixOutcome| o.bytes_moved as f64 / o.elapsed_ps as f64 * 1e3;
        assert!(
            gbps(&hundred) > gbps(&ten),
            "seed {seed}: 100g throughput {:.2} !> 10g {:.2} GB/s",
            gbps(&hundred),
            gbps(&ten)
        );
    }
}

/// Reruns at the same platform+seed are bit-identical — the property
/// the corpus fingerprints lean on.
#[test]
fn mix_is_deterministic_per_platform() {
    for &p in &Platform::ALL {
        let a = run_mix(p, 7, 10);
        let b = run_mix(p, 7, 10);
        assert_eq!(a.digest, b.digest, "{p}");
        assert_eq!(a.op_latency_ps, b.op_latency_ps, "{p}");
        assert_eq!(a.elapsed_ps, b.elapsed_ps, "{p}");
    }
}
