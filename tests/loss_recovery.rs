//! Integration tests of reliability under injected frame loss: the PSN
//! windows, NAK path, and retransmission timers of §4.1.

use strom::nic::{LinkFaultModel, NicConfig, Testbed, WorkRequest};
use strom::sim::SimRng;

const QP: u32 = 1;

fn lossy_testbed(rate: f64) -> Testbed {
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    tb.set_fault_model(LinkFaultModel::bernoulli(rate));
    tb
}

#[test]
fn single_packet_write_survives_heavy_loss() {
    let mut tb = lossy_testbed(0.3);
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    for i in 0..20u64 {
        let data = vec![i as u8 + 1; 64];
        tb.mem(0).write(src, &data);
        let h = tb.post(
            0,
            QP,
            WorkRequest::Write {
                remote_vaddr: dst + i * 64,
                local_vaddr: src,
                len: 64,
            },
        );
        tb.run_until_complete(0, h);
        tb.run_until_idle();
        assert_eq!(tb.mem(1).read(dst + i * 64, 64), data, "write {i}");
    }
    assert!(tb.retransmissions(0) > 0, "30% loss must cause retransmits");
}

#[test]
fn multi_packet_write_data_is_never_corrupted_by_loss() {
    for seed_loss in [0.01f64, 0.05, 0.15] {
        let mut tb = lossy_testbed(seed_loss);
        let src = tb.pin(0, 4 << 20);
        let dst = tb.pin(1, 4 << 20);
        let mut rng = SimRng::seed(7);
        let mut data = vec![0u8; 300_000];
        rng.fill_bytes(&mut data);
        tb.mem(0).write(src, &data);
        let h = tb.post(
            0,
            QP,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: data.len() as u32,
            },
        );
        tb.run_until_complete(0, h);
        tb.run_until_idle();
        assert_eq!(
            tb.mem(1).read(dst, data.len()),
            data,
            "loss rate {seed_loss}"
        );
    }
}

#[test]
fn reads_survive_loss() {
    let mut tb = lossy_testbed(0.05);
    let dst = tb.pin(0, 4 << 20);
    let src = tb.pin(1, 4 << 20);
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
    tb.mem(1).write(src, &data);
    let h = tb.post(
        0,
        QP,
        WorkRequest::Read {
            remote_vaddr: src,
            local_vaddr: dst,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    assert_eq!(tb.mem(0).read(dst, data.len()), data);
}

#[test]
fn lost_ack_is_recovered_by_duplicate_reack() {
    // Even when only ACKs are lost, the write completes: the timer
    // retransmits, the responder classifies the packets as duplicates and
    // re-acknowledges them (§4.1's duplicate PSN region).
    let mut tb = lossy_testbed(0.25);
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[0x42u8; 1000]);
    for i in 0..10u64 {
        let h = tb.post(
            0,
            QP,
            WorkRequest::Write {
                remote_vaddr: dst + i * 1000,
                local_vaddr: src,
                len: 1000,
            },
        );
        tb.run_until_complete(0, h);
        tb.run_until_idle();
    }
    assert_eq!(tb.mem(1).read(dst + 9000, 1000), vec![0x42u8; 1000]);
}

#[test]
fn a_read_completes_the_write_whose_ack_was_lost() {
    // The final READ response acknowledges every earlier PSN of the QP,
    // retiring a WRITE whose own ACK was lost. The WRITE completes with
    // it; nothing is left to retransmit that could complete it later.
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    tb.mem(0).write(src, &[0x42u8; 64]);
    tb.mem(1).write(dst + 4096, &[0x17u8; 64]);
    // Every frame toward node 0 is lost until the WRITE's ACK is.
    tb.set_port_fault_model(0, LinkFaultModel::bernoulli(1.0));
    let write = tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: 64,
        },
    );
    while tb.frames_lost(0) == 0 {
        assert!(!tb.run_until_idle_bounded(1), "the ACK is sent");
    }
    tb.set_port_fault_model(0, LinkFaultModel::none());
    let read = tb.post(
        0,
        QP,
        WorkRequest::Read {
            remote_vaddr: dst + 4096,
            local_vaddr: src + 4096,
            len: 64,
        },
    );
    let read_done = tb.run_until_complete(0, read);
    let write_done = tb.completed_at(0, write).expect("the WRITE completed");
    assert!(write_done <= read_done);
    assert_eq!(
        tb.retransmissions(0),
        0,
        "completed by the READ, not a timer"
    );
    tb.run_until_idle();
    assert_eq!(tb.mem(0).read(src + 4096, 64), vec![0x17u8; 64]);
    assert_eq!(tb.mem(1).read(dst, 64), vec![0x42u8; 64]);
}

#[test]
fn loss_statistics_are_accounted() {
    let mut tb = lossy_testbed(0.1);
    let src = tb.pin(0, 2 << 20);
    let dst = tb.pin(1, 2 << 20);
    tb.mem(0).write(src, &vec![1u8; 1 << 20]);
    let h = tb.post(
        0,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: 1 << 20,
        },
    );
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    let lost = tb.frames_lost(1) + tb.frames_lost(0);
    assert!(lost > 0, "10% loss on ~730 packets");
    assert!(
        tb.retransmissions(0) >= lost / 2,
        "every loss needs recovery work"
    );
}

#[test]
fn determinism_holds_under_loss() {
    let run = |seed_shift: u64| {
        let mut cfg = NicConfig::ten_gig();
        cfg.seed ^= seed_shift;
        let mut tb = Testbed::new(cfg);
        tb.connect_qp(QP);
        tb.set_fault_model(LinkFaultModel::bernoulli(0.07));
        let src = tb.pin(0, 2 << 20);
        let dst = tb.pin(1, 2 << 20);
        tb.mem(0).write(src, &vec![9u8; 500_000]);
        let h = tb.post(
            0,
            QP,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 500_000,
            },
        );
        let t = tb.run_until_complete(0, h);
        tb.run_until_idle();
        (t, tb.retransmissions(0), tb.frames_lost(1))
    };
    assert_eq!(run(0), run(0), "identical seeds, identical traces");
    assert_ne!(run(0), run(0xdead), "different seeds, different losses");
}
