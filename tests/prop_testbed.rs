//! Randomized tests at the full-testbed level: arbitrary operation
//! mixes, arbitrary loss rates — data integrity and determinism must
//! hold. Driven by the deterministic [`SimRng`] with fixed seeds.

use strom::nic::{LinkFaultModel, NicConfig, Testbed, WorkRequest};
use strom::sim::SimRng;

const QP: u32 = 1;

/// One randomly generated operation.
#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, len: u32 },
    Read { off: u64, len: u32 },
}

fn rand_ops(rng: &mut SimRng, max: u64) -> Vec<Op> {
    (0..rng.range(1, max))
        .map(|_| {
            let off = rng.below(1 << 20);
            let len = rng.range(1, 20_000) as u32;
            if rng.chance(0.5) {
                Op::Write { off, len }
            } else {
                Op::Read { off, len }
            }
        })
        .collect()
}

fn run_ops(ops: &[Op], loss: f64, seed: u64) -> (Vec<u8>, Vec<u8>, u64) {
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = seed;
    let mut tb = Testbed::new(cfg);
    tb.connect_qp(QP);
    tb.set_fault_model(LinkFaultModel::bernoulli(loss));
    let a = tb.pin(0, 4 << 20);
    let b = tb.pin(1, 4 << 20);
    // Node 0's first 2 MB hold its source data; node 1's first 2 MB hold
    // the remote data reads fetch.
    let mut rng = SimRng::seed(seed ^ 0x1234);
    let mut init = vec![0u8; 2 << 20];
    rng.fill_bytes(&mut init);
    tb.mem(0).write(a, &init);
    rng.fill_bytes(&mut init);
    tb.mem(1).write(b, &init);

    for op in ops {
        let h = match *op {
            Op::Write { off, len } => tb.post(
                0,
                QP,
                WorkRequest::Write {
                    remote_vaddr: b + (2 << 20) + off,
                    local_vaddr: a + off,
                    len: len.min(((1 << 20) - 1) as u32),
                },
            ),
            Op::Read { off, len } => tb.post(
                0,
                QP,
                WorkRequest::Read {
                    remote_vaddr: b + off,
                    local_vaddr: a + (2 << 20) + off,
                    len: len.min(((1 << 20) - 1) as u32),
                },
            ),
        };
        tb.run_until_complete(0, h);
    }
    tb.run_until_idle();
    let remote_image = tb.mem(1).read(b + (2 << 20), 2 << 20);
    let local_image = tb.mem(0).read(a + (2 << 20), 2 << 20);
    let retx = tb.retransmissions(0);
    (remote_image, local_image, retx)
}

/// The reference: apply the same ops against plain byte arrays.
fn run_reference(ops: &[Op], seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SimRng::seed(seed ^ 0x1234);
    let mut src = vec![0u8; 2 << 20];
    rng.fill_bytes(&mut src);
    let mut remote_src = vec![0u8; 2 << 20];
    rng.fill_bytes(&mut remote_src);
    let mut remote = vec![0u8; 2 << 20];
    let mut local = vec![0u8; 2 << 20];
    for op in ops {
        match *op {
            Op::Write { off, len } => {
                let len = len.min(((1 << 20) - 1) as u32) as usize;
                let (off, len) = (off as usize, len);
                remote[off..off + len].copy_from_slice(&src[off..off + len]);
            }
            Op::Read { off, len } => {
                let len = len.min(((1 << 20) - 1) as u32) as usize;
                let (off, len) = (off as usize, len);
                local[off..off + len].copy_from_slice(&remote_src[off..off + len]);
            }
        }
    }
    (remote, local)
}

/// Any sequence of writes and reads over a lossless wire produces
/// exactly the same memory images as the byte-array reference.
#[test]
fn op_sequences_match_reference() {
    let mut rng = SimRng::seed(0x0b5);
    for _ in 0..8 {
        let ops = rand_ops(&mut rng, 12);
        let seed = rng.next_u64();
        let (remote, local, retx) = run_ops(&ops, 0.0, seed);
        let (want_remote, want_local) = run_reference(&ops, seed);
        assert_eq!(retx, 0);
        assert_eq!(remote, want_remote);
        assert_eq!(local, want_local);
    }
}

/// The same holds under loss — the reliable transport hides it.
#[test]
fn op_sequences_survive_loss() {
    let mut rng = SimRng::seed(0x105);
    for _ in 0..6 {
        let ops = rand_ops(&mut rng, 6);
        let seed = rng.next_u64();
        let loss = 0.01 + rng.unit() * 0.14;
        let (remote, local, _) = run_ops(&ops, loss, seed);
        let (want_remote, want_local) = run_reference(&ops, seed);
        assert_eq!(remote, want_remote);
        assert_eq!(local, want_local);
    }
}

/// Determinism: identical inputs produce identical traces, including
/// the retransmission count under loss.
#[test]
fn testbed_is_deterministic() {
    let mut rng = SimRng::seed(0xde7e);
    for _ in 0..4 {
        let ops = rand_ops(&mut rng, 5);
        let seed = rng.next_u64();
        let a = run_ops(&ops, 0.05, seed);
        let b = run_ops(&ops, 0.05, seed);
        assert_eq!(a, b);
    }
}
