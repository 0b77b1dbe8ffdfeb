//! The switched cluster datapath: bounded egress queues, per-port
//! counters, and the degenerate cases that tie the N-node geometry back
//! to the original two-host testbed.
//!
//! Two anchors keep the refactor honest:
//!
//! * [`ClusterTestbed::new`] IS the old point-to-point path — same
//!   timing, same RNG draws — and reproduces the checked-in pcap golden
//!   fixture bit-for-bit (`tests/pcap_golden.rs` at the workspace root).
//! * A degenerate switch (zero latency, zero propagation, a practically
//!   infinite egress rate, deep queues) forwards the *same frames in
//!   the same order* as point-to-point; only the egress serialization
//!   quantum (≥ 1 ps per frame, by the store-and-forward model) can
//!   shift timestamps, and the test bounds that skew.

use bytes::Bytes;

use strom_nic::{ClusterTestbed, LinkFaultModel, NicConfig, SwitchParams, Testbed, WorkRequest};
use strom_sim::time::{MICROS, NANOS};
use strom_sim::{Bandwidth, EcnConfig, SimRng};
use strom_telemetry::{DropReason, TraceEvent};
use strom_wire::{packet::Packet, pcap};

/// The canonical short exchange from the root pcap golden test, run on
/// any cluster geometry.
fn short_exchange(mut tb: ClusterTestbed) -> (Vec<u8>, Vec<u8>) {
    tb.connect_qp(1);
    tb.enable_capture();
    let local = tb.pin(0, 1 << 21);
    let remote = tb.pin(1, 1 << 21);
    let data: Vec<u8> = (0..512u32).map(|i| (i % 253) as u8).collect();
    tb.mem(0).write(local, &data[..256]);
    tb.mem(1).write(remote + 1024, &data);
    let w = tb.post(
        0,
        1,
        WorkRequest::Write {
            remote_vaddr: remote,
            local_vaddr: local,
            len: 256,
        },
    );
    tb.run_until_complete(0, w);
    let r = tb.post(
        0,
        1,
        WorkRequest::Read {
            remote_vaddr: remote + 1024,
            local_vaddr: local + 1024,
            len: 512,
        },
    );
    tb.run_until_complete(0, r);
    tb.run_until_idle();
    let pcap = tb.pcap_bytes().expect("capture enabled").to_vec();
    let memory = tb.mem(1).read(remote, 256);
    (pcap, memory)
}

/// A degenerate switch forwards the same frames, in the same order,
/// with the same bytes as point-to-point; timestamps may differ only by
/// the per-frame egress quantum.
#[test]
fn degenerate_switch_matches_point_to_point_frame_for_frame() {
    let mut cfg = NicConfig::ten_gig();
    cfg.propagation = 0; // One cable hop vs two: remove both.
    let degenerate = SwitchParams {
        port_rate: Some(Bandwidth::gbit_per_sec(1e6)),
        latency: 0,
        egress_capacity: usize::MAX,
        ecn: None,
    };
    let (flat_pcap, flat_mem) = short_exchange(ClusterTestbed::new(cfg));
    let (sw_pcap, sw_mem) = short_exchange(ClusterTestbed::switched(cfg, 2, degenerate));

    assert_eq!(flat_mem, sw_mem, "final memory must be identical");
    let flat = pcap::read_frames(&flat_pcap).expect("valid pcap");
    let sw = pcap::read_frames(&sw_pcap).expect("valid pcap");
    assert_eq!(flat.len(), sw.len(), "same number of frames on the wire");
    for (i, ((t_flat, f_flat), (t_sw, f_sw))) in flat.iter().zip(&sw).enumerate() {
        assert_eq!(f_flat, f_sw, "frame {i} bytes diverged through the switch");
        let skew = t_sw.abs_diff(*t_flat);
        // The whole exchange is a handful of protocol turnarounds; each
        // adds at most the egress quantum (~13 ps/frame at 10^6 Gbit/s),
        // so cumulative skew stays far below a nanosecond.
        assert!(skew < 1000, "frame {i} timestamp skew {skew} ps");
    }
}

/// Drives one 10G sender into a 2.5G egress port with a shallow queue:
/// the switch must tail-drop, count the drops per port, trace them, and
/// the retransmission machinery must still deliver every byte.
fn congested_write(egress_capacity: usize) -> (ClusterTestbed, u64) {
    let mut tb = ClusterTestbed::switched(
        NicConfig::ten_gig(),
        2,
        SwitchParams {
            port_rate: Some(Bandwidth::gbit_per_sec(2.5)),
            latency: 500 * NANOS,
            egress_capacity,
            ecn: None,
        },
    );
    tb.enable_tracing(1 << 14);
    tb.connect_qp(1);
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    let mut data = vec![0u8; 96 << 10];
    SimRng::seed(0xCAFE).fill_bytes(&mut data);
    tb.mem(0).write(src, &data);
    let h = tb.post(
        0,
        1,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    assert_eq!(
        tb.completion_status(0, h),
        Some(strom_nic::CompletionStatus::Success),
        "retransmission must recover tail-drops (capacity {egress_capacity})"
    );
    assert!(
        !tb.qp_errored(0, 1),
        "drops must not exhaust the retry budget"
    );
    assert_eq!(
        tb.mem(1).read(dst, data.len()),
        data,
        "every byte must arrive despite tail-drops"
    );
    let drops = tb.switch_tail_drops();
    (tb, drops)
}

#[test]
fn tail_drops_are_counted_traced_and_recovered() {
    let (tb, drops) = congested_write(8);
    assert!(
        drops > 0,
        "a shallow queue behind a 4x rate mismatch must drop"
    );

    // Per-port counters: every drop happened on node 1's egress port.
    let p1 = tb.switch_counters(1).expect("switched mode");
    assert_eq!(p1.tail_drops, drops);
    assert!(p1.frames_out > 0, "granted frames are counted too");
    assert!(p1.bytes_out > 0);
    let p0 = tb.switch_counters(0).expect("switched mode");
    assert_eq!(p0.tail_drops, 0, "no reverse-direction congestion");
    assert!(p0.frames_out > 0, "ACKs flow back through port 0");

    // The same numbers surface in the metrics registry...
    let snap = tb.metrics().snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("switch.port1.tail_drops"), drops);
    assert_eq!(counter("switch.port1.frames_out"), p1.frames_out);
    assert_eq!(counter("switch.port0.tail_drops"), 0);

    // ...and every drop was emitted as a structured trace event naming
    // the congested destination.
    let traced_drops = tb
        .trace()
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::PacketDrop {
                    node: 1,
                    reason: DropReason::TailDrop,
                }
            )
        })
        .count() as u64;
    assert_eq!(traced_drops, drops, "each tail-drop is traced exactly once");
    assert!(
        tb.retransmissions(0) > 0,
        "recovery happened via retransmission"
    );
}

/// A deep enough queue absorbs the same burst without dropping — the
/// bound, not the switch itself, is what tail-drops. (Retransmissions
/// may still fire spuriously: ~330 µs of queueing delay at 2.5 Gbit/s
/// exceeds the 100 µs retransmit timeout. They are harmless duplicates;
/// what matters is that nothing was lost.)
#[test]
fn deep_egress_queue_never_drops() {
    let (tb, drops) = congested_write(4096);
    let _ = &tb;
    assert_eq!(drops, 0, "an effectively unbounded queue must not drop");
}

/// The same congested write as [`congested_write`], but with an
/// ECN-marking switch and DCQCN enabled: marks flow, CNPs echo back,
/// the sender's pacing drains the queue, and a buffer that tail-dropped
/// without CC no longer drops at all.
#[test]
fn ecn_plus_dcqcn_replaces_tail_drops_with_marks() {
    let run = |cc: bool, ecn: Option<EcnConfig>| {
        let mut cfg = NicConfig::ten_gig();
        cfg.cc = cc;
        // Pacing stretches the transfer past the default 100 µs timeout;
        // keep retransmissions out of the picture so the comparison
        // isolates the congestion machinery.
        cfg.retransmit_timeout = 1_000 * MICROS;
        let mut tb = ClusterTestbed::switched(
            cfg,
            2,
            SwitchParams {
                port_rate: Some(Bandwidth::gbit_per_sec(2.5)),
                latency: 500 * NANOS,
                egress_capacity: 96,
                ecn,
            },
        );
        tb.connect_qp(1);
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        let mut data = vec![0u8; 256 << 10];
        SimRng::seed(0xCAFE).fill_bytes(&mut data);
        tb.mem(0).write(src, &data);
        let h = tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: data.len() as u32,
            },
        );
        tb.run_until_complete(0, h);
        tb.run_until_idle();
        assert_eq!(
            tb.completion_status(0, h),
            Some(strom_nic::CompletionStatus::Success)
        );
        assert_eq!(tb.mem(1).read(dst, data.len()), data);
        tb
    };

    // Marking early (an eighth of the buffer) buys headroom for the
    // feedback delay: a CE mark decided at enqueue still rides the
    // egress queue before the responder can echo it, so the queue keeps
    // growing at full rate for one queue-drain time after the first
    // mark. DCQCN deployments mark low for exactly this reason.
    let without = run(false, None);
    let with = run(true, Some(EcnConfig::step(8)));

    assert!(
        without.switch_tail_drops() > 0,
        "the 4x rate mismatch must overflow a 96-deep queue without CC"
    );
    let marked = with.switch_counters(1).expect("switched").ecn_marked;
    assert!(marked > 0, "the queue must cross the marking threshold");
    assert_eq!(
        with.status(1).wire.cnps_tx,
        with.status(0).wire.cnps_rx,
        "every CNP the responder sends arrives at the requester"
    );
    assert!(with.status(0).wire.cnps_rx > 0, "marks must echo as CNPs");
    assert_eq!(
        with.switch_tail_drops(),
        0,
        "DCQCN pacing must hold the queue below the 96-frame bound"
    );
    assert_eq!(with.retransmissions(0), 0, "nothing lost, nothing resent");
}

/// With CC off (the default), runs are bit-identical to the pre-CC
/// stack even though the ECN/CNP/DCQCN code is compiled in: packets go
/// out Not-ECT, a marking-enabled switch refuses to mark them, and the
/// capture matches the run with no marker configured byte for byte.
#[test]
fn cc_disabled_is_bit_identical_even_under_an_ecn_switch() {
    assert!(!NicConfig::ten_gig().cc, "CC must be opt-in");
    let params = |ecn| SwitchParams {
        port_rate: Some(Bandwidth::gbit_per_sec(2.5)),
        latency: 500 * NANOS,
        egress_capacity: 64,
        ecn,
    };
    let cfg = NicConfig::ten_gig();
    let (plain_pcap, plain_mem) = short_exchange(ClusterTestbed::switched(cfg, 2, params(None)));
    let (ecn_pcap, ecn_mem) = short_exchange(ClusterTestbed::switched(
        cfg,
        2,
        params(Some(EcnConfig::step(4))),
    ));
    assert_eq!(plain_pcap, ecn_pcap, "Not-ECT traffic must never be marked");
    assert_eq!(plain_mem, ecn_mem);
}

/// Every frame captured on a switched run still parses and re-encodes
/// to itself — the switch moves frames, it does not rewrite them.
#[test]
fn switched_capture_round_trips() {
    let mut tb = ClusterTestbed::switched(NicConfig::ten_gig(), 2, SwitchParams::default());
    tb.connect_qp(1);
    tb.enable_capture();
    let src = tb.pin(0, 1 << 20);
    let dst = tb.pin(1, 1 << 20);
    let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    tb.mem(0).write(src, &data);
    let h = tb.post(
        0,
        1,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    let frames = pcap::read_frames(tb.pcap_bytes().expect("capture on")).expect("valid pcap");
    assert!(frames.len() >= 4, "segments + ACKs expected");
    for (_, frame) in &frames {
        let pkt = Packet::parse(&Bytes::from(frame.clone())).expect("captured frame parses");
        assert_eq!(&pkt.encode(), frame);
    }
}

/// A QP nobody connected has no far end once there are more than two
/// nodes: the post is refused by name — in every build profile — rather
/// than routed to a peer guessed from the node id.
#[test]
#[should_panic(expected = "qpn 1 on node 2 was never connected")]
fn posting_on_an_unconnected_qp_of_a_three_node_cluster_panics_at_the_post() {
    let mut tb = ClusterTestbed::switched(NicConfig::ten_gig(), 3, SwitchParams::default());
    tb.connect_qp_between(0, 1, 1);
    let buf = tb.pin(2, 1 << 16);
    let wr = WorkRequest::Write {
        remote_vaddr: buf,
        local_vaddr: buf,
        len: 64,
    };
    tb.post(2, 1, wr);
}

/// Node ids ride in one byte of the IPv4 address and of every trace
/// record, so a 257th node would share both with node 0.
#[test]
#[should_panic(expected = "nodes 256 apart would alias")]
fn a_cluster_too_large_for_one_byte_node_ids_is_refused() {
    ClusterTestbed::switched(NicConfig::ten_gig(), 257, SwitchParams::default());
}

/// `set_loss_rate` replaces *every* fault model in force: a dead-port
/// override installed before it must not survive it.
#[test]
fn set_loss_rate_clears_per_port_overrides() {
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(1);
    tb.set_port_fault_model(1, LinkFaultModel::bernoulli(1.0));
    tb.set_loss_rate(0.0);
    let (src, dst) = (tb.pin(0, 1 << 16), tb.pin(1, 1 << 16));
    let wr = WorkRequest::Write {
        remote_vaddr: dst,
        local_vaddr: src,
        len: 4096,
    };
    let h = tb.post(0, 1, wr);
    tb.run_until_complete(0, h);
    tb.run_until_idle();
    assert_eq!(
        tb.completion_status(0, h),
        Some(strom_nic::CompletionStatus::Success)
    );
    assert_eq!((tb.frames_lost(1), tb.retransmissions(0)), (0, 0));
}
