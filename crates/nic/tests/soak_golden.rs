//! Golden for the state the other goldens leave unpinned: a 4-node
//! switched cluster with two per-port fault models (the geometry of
//! `tests/chaos_soak.rs::cluster_chaos_soak_survives_per_port_faults`),
//! observed through every per-node and per-port register the testbed
//! exposes — `status(i)` field by field (including the fault counters
//! kept on the receiving side of the wire), `switch_counters(p)`, the
//! metrics snapshot, the trace fingerprint, the pcap capture and the
//! lookahead-audit report.
//!
//! Two runs: the soak's own geometry (default switch), and a shallow
//! WRED-marking switch with DCQCN on, so tail drops, CE marks, CNPs and
//! the per-QP pacer are pinned as well. Bless after an intentional
//! behaviour change with `STROM_BLESS=1 cargo test -p strom-nic --test
//! soak_golden`.

use std::fmt::Write as _;

use strom_nic::cluster_shuffle::pair_qpn;
use strom_nic::{
    active_fault_types, chaos_model, ClusterTestbed, CompletionStatus, NicConfig, SwitchParams,
    WorkRequest,
};
use strom_sim::{EcnConfig, SimRng};
use strom_telemetry::Fingerprint;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/cluster_soak.golden"
);
const N: usize = 4;

fn hash(bytes: &[u8]) -> u64 {
    Fingerprint::new().bytes(bytes).value()
}

/// One soak run, rendered as one line per node, port and report.
fn soak(label: &str, seed: u64, switch: SwitchParams, cc: bool, out: &mut String) {
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = 0xC1A0_0000 + seed;
    cfg.cc = cc;
    let mut tb = ClusterTestbed::switched(cfg, N, switch);
    tb.enable_tracing(1 << 16);
    tb.enable_capture();
    tb.enable_lookahead_audit();
    let port_a = (seed as usize) % N;
    let port_b = (port_a + 1 + (seed as usize) % 3) % N;
    for (port, model) in [
        (port_a, chaos_model(seed ^ 0x0A)),
        (port_b, chaos_model(seed ^ 0x0B)),
    ] {
        assert!(active_fault_types(&model) >= 2, "seed {seed}: {model:?}");
        tb.set_port_fault_model(port, model);
    }
    for i in 0..N {
        for j in i + 1..N {
            tb.connect_qp_between(i, j, pair_qpn(N, i, j));
        }
    }
    // Per node: [0, 256 K) source bytes, [256 K, 512 K) landing zone.
    let mut rng = SimRng::seed(seed ^ 0x50A6);
    let bases: Vec<u64> = (0..N)
        .map(|node| {
            let base = tb.pin(node, 1 << 20);
            let mut src = vec![0u8; 256 << 10];
            rng.fill_bytes(&mut src);
            tb.mem(node).write(base, &src);
            base
        })
        .collect();
    tb.bring_up();

    // Every ordered pair WRITEs; every node also READs from its successor.
    let mut handles = Vec::new();
    for src in 0..N {
        for dst in (0..N).filter(|&d| d != src) {
            let wr = WorkRequest::Write {
                remote_vaddr: bases[dst] + (256 << 10) + (src as u64) * (32 << 10),
                local_vaddr: bases[src] + (dst as u64) * (32 << 10),
                len: 15_000 + 1_300 * src as u32,
            };
            handles.push((src, tb.post(src, pair_qpn(N, src, dst), wr)));
        }
        let next = (src + 1) % N;
        let wr = WorkRequest::Read {
            remote_vaddr: bases[next] + (64 << 10),
            local_vaddr: bases[src] + (256 << 10) + (N as u64) * (32 << 10),
            len: 20_000,
        };
        handles.push((src, tb.post(src, pair_qpn(N, src, next), wr)));
    }
    for &(node, h) in &handles {
        tb.run_until_complete(node, h);
        let status = tb.completion_status(node, h);
        assert_eq!(status, Some(CompletionStatus::Success), "{label}: {h}");
    }
    assert!(tb.run_until_idle_bounded(50_000_000), "{label}: no quiesce");

    let (now, done) = (tb.now(), tb.completion_count());
    writeln!(out, "{label} now_ps={now} completions={done}").unwrap();
    for (node, &base) in bases.iter().enumerate() {
        let s = tb.status(node);
        write!(out, "{label}.node{node}").unwrap();
        for (name, v) in s.wire.entries() {
            write!(out, " {name}={v}").unwrap();
        }
        let memory = hash(&tb.mem(node).read(base, 1 << 20));
        writeln!(
            out,
            " retransmissions={} timeouts={} backoff_events={} qps_in_error={} memory={memory:016x}",
            s.retransmissions, s.timeouts, s.backoff_events, s.qps_in_error
        )
        .unwrap();
    }
    for port in 0..N {
        let c = tb.switch_counters(port).expect("switched");
        writeln!(out, "{label}.port{port} {c:?}").unwrap();
    }
    let metrics = hash(format!("{:?}", tb.metrics().snapshot()).as_bytes());
    let (emitted, trace) = (tb.trace().emitted(), tb.trace().fingerprint());
    let pcap = tb.pcap_bytes().expect("capture enabled");
    writeln!(
        out,
        "{label} tail_drops={} metrics={metrics:016x} trace_emitted={emitted} trace={trace:016x} \
         pcap_len={} pcap={:016x}",
        tb.switch_tail_drops(),
        pcap.len(),
        hash(pcap)
    )
    .unwrap();
    let audit = tb.lookahead_report().expect("audit enabled");
    writeln!(out, "{label} {audit:?}").unwrap();
}

#[test]
fn four_node_per_port_fault_soak_matches_its_golden() {
    let mut got = String::new();
    soak("soak", 3, SwitchParams::default(), false, &mut got);
    let shallow = SwitchParams {
        egress_capacity: 8,
        ecn: Some(EcnConfig {
            min_threshold: 2,
            max_threshold: 6,
            max_mark_prob: 0.5,
            seed: 0xEC,
        }),
        ..SwitchParams::default()
    };
    soak("shallow_cc", 5, shallow, true, &mut got);

    if std::env::var_os("STROM_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden present (STROM_BLESS=1 to create)");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "first diverging line");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
