//! Experiment registry and shared scaffolding.

pub mod abl_slow_kernel;
pub mod ablations;
pub mod corpus;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod incast;
pub mod kernel_chain;
pub mod kv_serve;
pub mod sec7;
pub mod shuffle_scale;
pub mod tables;

use strom_nic::{NicConfig, Testbed};
use strom_telemetry::TelemetryReport;

/// Experiment scale: `quick` keeps every run under a few seconds; `full`
/// uses the paper's input sizes (Fig 11's gigabyte shuffles take a while).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced iteration counts and input sizes (default).
    Quick,
    /// The paper's parameters.
    Full,
}

impl Scale {
    /// Latency-sample count per data point.
    pub fn iterations(self) -> usize {
        match self {
            Scale::Quick => 15,
            Scale::Full => 50,
        }
    }

    /// Messages per throughput/message-rate point.
    pub fn messages(self) -> usize {
        match self {
            Scale::Quick => 200,
            Scale::Full => 1000,
        }
    }

    /// Input sizes for the Fig 11 shuffle, in MiB.
    pub fn shuffle_sizes_mb(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![16, 32, 64, 128],
            Scale::Full => vec![128, 256, 512, 1024],
        }
    }
}

/// A latency in picoseconds, if recorded, as microseconds.
pub(crate) fn us(ps: Option<u64>) -> Option<f64> {
    ps.map(strom_nic::scenario::us)
}

/// Aggregates the fault/recovery counters of every testbed an experiment
/// ran, for a figure footnote: drops by cause, retransmissions, backoff
/// events, and QPs in the terminal error state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultTotals {
    lost: u64,
    crc_dropped: u64,
    parse_dropped: u64,
    reordered: u64,
    duplicated: u64,
    retransmissions: u64,
    timeouts: u64,
    backoff_events: u64,
    qps_in_error: u64,
}

impl FaultTotals {
    /// Folds both nodes' status registers into the totals.
    pub fn absorb(&mut self, tb: &Testbed) {
        for node in 0..2 {
            let s = tb.status(node);
            self.lost += s.frames_lost;
            self.crc_dropped += s.frames_crc_dropped;
            self.parse_dropped += s.frames_parse_dropped;
            self.reordered += s.frames_reordered;
            self.duplicated += s.frames_duplicated;
            self.retransmissions += s.retransmissions;
            self.timeouts += s.timeouts;
            self.backoff_events += s.backoff_events;
            self.qps_in_error += s.qps_in_error;
        }
    }

    /// One footnote line summarizing the totals.
    pub fn note(&self) -> String {
        format!(
            "faults: lost={} crc_dropped={} parse_dropped={} reordered={} duplicated={} \
             | recovery: retransmissions={} timeouts={} backoff_events={} qps_in_error={}",
            self.lost,
            self.crc_dropped,
            self.parse_dropped,
            self.reordered,
            self.duplicated,
            self.retransmissions,
            self.timeouts,
            self.backoff_events,
            self.qps_in_error,
        )
    }
}

/// A fresh two-node 10 G testbed with one connected QP.
pub fn testbed_10g() -> Testbed {
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(1);
    tb
}

/// A fresh two-node 100 G testbed with one connected QP.
pub fn testbed_100g() -> Testbed {
    let mut tb = Testbed::new(NicConfig::hundred_gig());
    tb.connect_qp(1);
    tb
}

/// The experiment registry: `(name, description)`.
pub fn all_experiments() -> Vec<(&'static str, &'static str)> {
    vec![
        ("table1", "Table 1: the five StRoM BTH op-codes"),
        (
            "fig5a",
            "Fig 5a: 10G median latency of READ/WRITE vs payload",
        ),
        ("fig5b", "Fig 5b: 10G throughput of READ/WRITE vs payload"),
        ("fig5c", "Fig 5c: 10G message rate of READ/WRITE vs payload"),
        (
            "fig7",
            "Fig 7: remote linked-list traversal (READ vs StRoM vs TCP RPC)",
        ),
        (
            "fig8",
            "Fig 8: remote hash-table lookup latency vs value size",
        ),
        (
            "fig9",
            "Fig 9: consistency-checked read latency vs object size",
        ),
        (
            "fig10",
            "Fig 10: average latency vs consistency failure rate",
        ),
        (
            "fig11",
            "Fig 11: data shuffling execution time vs input size",
        ),
        (
            "fig12a",
            "Fig 12a: 100G median latency of READ/WRITE vs payload",
        ),
        (
            "fig12b",
            "Fig 12b: 100G throughput of READ/WRITE vs payload",
        ),
        (
            "fig12c",
            "Fig 12c: 100G message rate of READ/WRITE vs payload",
        ),
        ("fig13a", "Fig 13a: CPU HLL throughput vs thread count"),
        ("fig13b", "Fig 13b: StRoM Write+HLL vs plain Write at 100G"),
        (
            "table3",
            "Table 3: resource usage of StRoM at 10G vs 100G on VCU118",
        ),
        (
            "sec61",
            "Sec 6.1: resource percentages on the Virtex-7, QP scaling",
        ),
        (
            "sec7",
            "Sec 7: shuffle (random PCIe) vs HLL (stream) at 10G and 100G",
        ),
        (
            "shuffle-scale",
            "Cluster shuffle scaling: aggregate GB/s and p99 at N = 2/4/8",
        ),
        (
            "incast",
            "Incast N:1 under DCQCN: tail latency vs load, survival, fairness",
        ),
        (
            "kv-serve",
            "KV serving tier: open-loop latency knee, StRoM kernels vs TCP RPC",
        ),
        (
            "kernel-chain",
            "Chained kernel pipelines: filter→agg→HLL and CRC-verify→shuffle throughput",
        ),
        (
            "corpus",
            "Workload corpus: every scenario at 10G+100G vs pinned fingerprints and perf gates",
        ),
        (
            "abl-bypass",
            "Ablation: DMA Descriptor Bypass on/off at 100G",
        ),
        (
            "abl-width",
            "Ablation: datapath width vs latency and resources",
        ),
        ("abl-timeout", "Ablation: retransmission timeout under loss"),
        (
            "abl-slow-kernel",
            "Ablation: kernel initiation interval vs line rate (sec 3.4)",
        ),
    ]
}

/// Runs one experiment by name, returning its rendered report.
///
/// # Panics
///
/// Panics on an unknown experiment name (the `figures` binary validates
/// names against [`all_experiments`] first).
pub fn run_experiment(name: &str, scale: Scale) -> String {
    match name {
        "table1" => tables::table1(),
        "fig5a" => fig5::latency(testbed_10g(), scale, "Fig 5a (10G)").render(),
        "fig5b" => fig5::throughput(testbed_10g, scale, "Fig 5b (10G)", 9.4).render(),
        "fig5c" => fig5::message_rate(testbed_10g, scale, "Fig 5c (10G)").render(),
        "fig7" => fig7::run(scale).render(),
        "fig8" => fig8::run(scale).render(),
        "fig9" => fig9::run(scale).render(),
        "fig10" => fig10::run(scale).render(),
        "fig11" => fig11::run(scale).render(),
        "fig12a" => fig5::latency(testbed_100g(), scale, "Fig 12a (100G)").render(),
        "fig12b" => fig5::throughput(testbed_100g, scale, "Fig 12b (100G)", 94.0).render(),
        "fig12c" => fig5::message_rate(testbed_100g, scale, "Fig 12c (100G)").render(),
        "fig13a" => fig13::cpu_hll().render(),
        "fig13b" => fig13::strom_hll(scale).render(),
        "table3" => tables::table3(),
        "sec61" => tables::sec61(),
        "sec7" => sec7::run(scale).render(),
        "shuffle-scale" => shuffle_scale::run(scale),
        "incast" => incast::run(scale).0,
        "kv-serve" => kv_serve::run(scale).0,
        "kernel-chain" => kernel_chain::run(scale),
        "corpus" => corpus::run(scale),
        "abl-bypass" => ablations::bypass(scale).render(),
        "abl-width" => ablations::width(scale).render(),
        "abl-timeout" => ablations::timeout(scale).render(),
        "abl-slow-kernel" => abl_slow_kernel::run(scale).render(),
        other => panic!("unknown experiment '{other}'"),
    }
}

/// Trace-ring capacity for telemetry-enabled experiment runs: large
/// enough to retain the tail of a quick-scale latency sweep, bounded so
/// a full-scale run stays in a few megabytes (older events are
/// overwritten but still counted and fingerprinted).
const TELEMETRY_TRACE_CAPACITY: usize = 1 << 14;

/// Runs one experiment with tracing and metrics enabled, returning the
/// rendered report plus its machine-readable telemetry.
///
/// Only experiments that drive a single instrumented testbed end to end
/// are covered (the latency figures); multi-testbed sweeps and
/// analytical tables return `None` and the `figures` binary falls back
/// to [`run_experiment`].
pub fn run_experiment_telemetry(name: &str, scale: Scale) -> Option<(String, TelemetryReport)> {
    if name == "incast" {
        // The cluster experiment reports its tuned run's registry: the
        // switch's per-port queue-depth high watermarks and ECN mark
        // counters.
        return Some(incast::run(scale));
    }
    if name == "kv-serve" {
        // The serving tier reports its tuned operating point's registry:
        // the per-op latency histograms.
        return Some(kv_serve::run(scale));
    }
    let (mut tb, title) = match name {
        "fig5a" => (testbed_10g(), "Fig 5a (10G)"),
        "fig12a" => (testbed_100g(), "Fig 12a (100G)"),
        _ => return None,
    };
    let trace = tb.enable_tracing(TELEMETRY_TRACE_CAPACITY);
    let metrics = tb.metrics().clone();
    let rendered = fig5::latency(tb, scale, title).render();
    let report = TelemetryReport::new(name)
        .with_registry(&metrics)
        .with_trace(&trace);
    Some((rendered, report))
}
