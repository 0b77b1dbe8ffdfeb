//! Certifies a physical invariant of the fabric on the *real* cluster
//! testbed: a NIC and anything outside it (the switch, another NIC) are
//! joined by a cable, so every event one box schedules for another lands
//! at least one cable propagation delay in the future — and measuring
//! that is pure observation, changing nothing about the run.

use strom_nic::{ClusterTestbed, NicConfig, SwitchParams, WorkRequest};

/// A 4-node ring workload over the switch: every node writes to its
/// neighbour, node 0 also reads back — WRITEs, READs, read responses,
/// ACKs, and (with `cc`) pacer ticks and CNPs all cross the fabric.
fn ring_exchange(cc: bool, audit: bool) -> (Vec<u8>, Option<strom_nic::LookaheadReport>) {
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = 0xA0D17;
    cfg.cc = cc;
    let mut tb = ClusterTestbed::switched(cfg, 4, SwitchParams::default());
    if audit {
        tb.enable_lookahead_audit();
    }
    tb.enable_capture();
    for i in 0..4usize {
        tb.connect_qp_between(i, (i + 1) % 4, (i + 1) as u32);
    }
    let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
    let mut bufs = Vec::new();
    for i in 0..4usize {
        let local = tb.pin(i, 1 << 16);
        tb.mem(i).write(local, &data);
        bufs.push(local);
    }
    tb.bring_up();
    let mut handles = Vec::new();
    for i in 0..4usize {
        let dst = (i + 1) % 4;
        let h = tb.post(
            i,
            (i + 1) as u32,
            WorkRequest::Write {
                remote_vaddr: bufs[dst] + 4096,
                local_vaddr: bufs[i],
                len: 2048,
            },
        );
        handles.push((i, h));
    }
    for (node, h) in handles {
        tb.run_until_complete(node, h);
    }
    let r = tb.post(
        0,
        1,
        WorkRequest::Read {
            remote_vaddr: bufs[1] + 4096,
            local_vaddr: bufs[0] + 16384,
            len: 2048,
        },
    );
    tb.run_until_complete(0, r);
    tb.run_until_idle();
    let pcap = tb.pcap_bytes().expect("capture enabled").to_vec();
    (pcap, tb.lookahead_report())
}

#[test]
fn audit_is_observation_only() {
    for cc in [false, true] {
        let (plain, none) = ring_exchange(cc, false);
        let (audited, report) = ring_exchange(cc, true);
        assert!(none.is_none(), "report without enabling the audit");
        assert!(report.is_some(), "audit enabled but no report");
        assert_eq!(
            plain, audited,
            "cc={cc}: enabling the lookahead audit changed the packet stream"
        );
    }
}

#[test]
fn nothing_crosses_a_cable_in_under_one_propagation_delay() {
    for cc in [false, true] {
        let (_, report) = ring_exchange(cc, true);
        let r = report.expect("audit enabled");
        assert!(
            r.cross_events > 0,
            "cc={cc}: a switched all-pairs exchange must cross cables"
        );
        assert_eq!(
            r.violations, 0,
            "cc={cc}: {} cross events were scheduled closer than the {}ps propagation floor \
             (min observed {}ps) — something reached another box faster than the cable allows",
            r.violations, r.floor, r.min_cross_delta
        );
        assert!(
            r.min_cross_delta >= r.floor,
            "cc={cc}: min cross delta {} below floor {}",
            r.min_cross_delta,
            r.floor
        );
    }
}
