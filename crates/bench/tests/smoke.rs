//! Smoke tests keeping the experiment harness honest: every registered
//! experiment must run and produce a well-formed report. The fast ones
//! run at quick scale; the simulation-heavy ones are exercised by the
//! `figures` binary and the workspace integration tests instead.

use std::process::Command;

use strom_bench::{all_experiments, run_experiment, Scale};
use strom_telemetry::json::{self, Value};
use strom_telemetry::Fingerprint;

/// The pinned FNV-1a fingerprint of the telemetry document `figures
/// --quick --json <path> fig5a incast kv-serve` writes, one hex line.
const TELEMETRY_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/figures_telemetry.fingerprint"
);

/// The pinned FNV-1a fingerprint of the text `run_experiment` renders for
/// the stream-kernel figures at quick scale, one hex line.
const KERNELS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/figures_kernels.fingerprint"
);

/// Compares `fingerprint` with the hex line pinned at `golden`, or re-pins
/// it when `STROM_BLESS` is set.
fn check_golden(golden: &str, fingerprint: u64, what: &str) {
    let fingerprint = format!("{fingerprint:#018x}");
    if std::env::var_os("STROM_BLESS").is_some() {
        std::fs::write(golden, format!("{fingerprint}\n")).expect("write golden");
    } else {
        let pinned = std::fs::read_to_string(golden).expect("golden present");
        assert_eq!(fingerprint, pinned.trim(), "{what} drifted from its golden");
    }
}

#[test]
fn registry_names_are_unique_and_nonempty() {
    let reg = all_experiments();
    assert!(
        reg.len() >= 19,
        "19 experiments registered, got {}",
        reg.len()
    );
    let mut names: Vec<&str> = reg.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), reg.len(), "duplicate experiment names");
    assert!(reg.iter().all(|(_, d)| !d.is_empty()));
}

#[test]
fn table_experiments_render() {
    for name in ["table1", "table3", "sec61"] {
        let report = run_experiment(name, Scale::Quick);
        assert!(report.starts_with("## "), "{name} must render a heading");
        assert!(report.lines().count() > 3, "{name} must have rows");
    }
}

#[test]
fn fig13a_model_matches_paper_points() {
    let report = run_experiment("fig13a", Scale::Quick);
    // The four thread counts appear with plausible values.
    assert!(report.contains("4.64"), "single-thread point:\n{report}");
    assert!(report.contains("CPU HLL"));
}

#[test]
fn fig7_reproduces_ordering() {
    let report = run_experiment("fig7", Scale::Quick);
    assert!(report.contains("RDMA READ"));
    assert!(report.contains("StRoM"));
    assert!(report.contains("TCP-based RPC"));
    // StRoM's worst point (length 32) stays below READ's.
    let strom_row: Vec<f64> = parse_row(&report, "StRoM");
    let read_row: Vec<f64> = parse_row(&report, "RDMA READ");
    assert!(strom_row.last().unwrap() < read_row.last().unwrap());
}

#[test]
fn fig9_overheads_are_ordered() {
    let report = run_experiment("fig9", Scale::Quick);
    let read: Vec<f64> = parse_row(&report, "READ");
    let sw: Vec<f64> = parse_row(&report, "READ+SW");
    let strom: Vec<f64> = parse_row(&report, "StRoM");
    // At the largest object, SW costs more than the kernel, which costs
    // more than the raw read.
    let last = read.len() - 1;
    assert!(sw[last] > strom[last]);
    assert!(strom[last] > read[last]);
    // The paper's bounds: SW ≤ +45 %, StRoM ≤ +12 %.
    assert!(sw[last] / read[last] < 1.45);
    assert!(strom[last] / read[last] < 1.12);
}

/// The telemetry export end to end: `figures --json` writes one
/// document the workspace's own parser reads back, each instrumented
/// experiment's report carries the metrics its figure is explained by,
/// and the whole document matches its pinned fingerprint byte for byte.
/// Re-pin after an intentional change with `STROM_BLESS=1`.
#[test]
fn figures_json_export_carries_every_instrumented_report() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/figures_telemetry.json");
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "--json", path, "fig5a", "incast", "kv-serve"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("figures binary runs");
    assert!(status.success(), "figures exited with {status}");
    let text = std::fs::read_to_string(path).expect("telemetry JSON written");
    check_golden(
        TELEMETRY_GOLDEN,
        Fingerprint::new().bytes(text.as_bytes()).value(),
        "the telemetry document",
    );
    let doc = json::parse(&text).expect("telemetry JSON parses");
    assert_eq!(
        doc.str_field("schema").unwrap(),
        "strom-figures-telemetry-v1"
    );
    let reports = doc.field("reports").unwrap();
    // A populated latency histogram: samples, and a tail at or above a
    // nonzero median.
    let populated = |h: &Value| {
        let (p50, p999) = (h.u64_field("p50").unwrap(), h.u64_field("p999").unwrap());
        h.u64_field("count").unwrap() > 0 && p999 >= p50 && p50 > 0
    };

    let fig5a = reports.field("fig5a").unwrap();
    assert_eq!(fig5a.str_field("schema").unwrap(), "strom-telemetry-v1");
    let hists = fig5a.field("histograms").unwrap();
    assert!(populated(hists.field("latency.write_ps").unwrap()));
    let counters = fig5a.field("counters").unwrap();
    assert!(counters.u64_field("sim.events_dispatched").unwrap() > 0);
    assert!(fig5a.field("trace").unwrap().u64_field("emitted").unwrap() > 0);

    // The incast report exports the switch's per-port telemetry: queue-
    // depth high watermarks and ECN mark counters. Port 0 is the incast
    // receiver's egress.
    let incast = reports.field("incast").unwrap();
    let gauges = incast.field("gauges").unwrap();
    let counters = incast.field("counters").unwrap();
    assert!(gauges.u64_field("switch.port0.queue_peak").unwrap() > 0);
    assert!(counters.u64_field("switch.port0.ecn_marked").unwrap() > 0);
    assert_eq!(counters.u64_field("switch.port0.tail_drops").unwrap(), 0);

    // The kv-serve report exports per-op latency histograms from the
    // tuned operating point's instrumented run.
    let kv = reports
        .field("kv-serve")
        .unwrap()
        .field("histograms")
        .unwrap();
    for op in ["get", "put", "traversal"] {
        let h = kv.field(&format!("kv_{op}_latency_ps")).unwrap();
        assert!(populated(h), "{op}");
    }
}

/// The stream-kernel figures (kernel chains, Write+HLL, shuffle vs HLL,
/// cluster shuffle) render exactly the text they are pinned to: every
/// table cell follows from what the kernels emit, and none is a wall time.
/// Re-pin after an intentional change with `STROM_BLESS=1`.
#[test]
fn kernel_figures_match_their_golden() {
    let mut fp = Fingerprint::new();
    for name in ["kernel-chain", "fig13b", "sec7", "shuffle-scale"] {
        fp.bytes(run_experiment(name, Scale::Quick).as_bytes());
    }
    check_golden(KERNELS_GOLDEN, fp.value(), "the kernel figures");
}

/// Extracts the numeric cells of the series whose label starts with
/// `prefix` (exact label match on the first whitespace-delimited tokens).
fn parse_row(report: &str, prefix: &str) -> Vec<f64> {
    for line in report.lines() {
        if line.starts_with(prefix) {
            let nums: Vec<f64> = line
                .split_whitespace()
                .filter_map(|t| t.parse::<f64>().ok())
                .collect();
            if !nums.is_empty() {
                return nums;
            }
        }
    }
    panic!("series '{prefix}' not found in:\n{report}");
}
