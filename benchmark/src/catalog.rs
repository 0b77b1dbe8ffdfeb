//! The metric catalogue: every metric the benchmark prints, with its
//! unit, direction, bound, layer, and the end-to-end metric and workload
//! it should move. `BENCHMARK.json` is generated from it (`--manifest`)
//! and a test keeps the two in step.

use crate::json::Value;
use crate::workloads::Workload;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated-clock metrics are deterministic: at one seed two builds
    /// of an unchanged model must agree exactly.
    pub simulated: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_wall_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_live_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "sim_elapsed_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
    },
    EndToEnd {
        name: "sim_goodput_gbps",
        unit: "Gbit/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: true,
    },
];

/// A metric of a single layer (a crate). No bound: these explain the
/// end-to-end metrics, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workloads this should move.
    pub moves: &'static str,
}

const fn cost(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const KV: &str = "ops_per_wall_s on kv_serve";
const BULK: &str = "ops_per_wall_s on shuffle_bulk, chain_stream, incast_*";
const LOSSY: &str = "ops_per_wall_s on shuffle_storm, incast_*";
const SIM_TAIL: &str = "sim_goodput_gbps, sim_elapsed_us on shuffle_storm, incast_*";
const CHAIN: &str = "ops_per_wall_s on chain_stream";
const ALL: &str = "ops_per_wall_s on every workload";
const SHARE: &str = "ops_per_wall_s on this workload (replay self time / unit wall; lower bound)";

pub const PER_LAYER: [PerLayer; 53] = [
    cost(
        "sim.queue_ns_per_event_1e2",
        "ns",
        "ops_per_wall_s on kv_serve, incast_*",
    ),
    cost(
        "sim.queue_ns_per_event_1e4",
        "ns",
        "ops_per_wall_s on kv_serve, incast_*",
    ),
    cost("sim.switch_ns_per_frame", "ns", LOSSY),
    cost("sim.arrivals_ns_per_draw", "ns", "setup_s on kv_serve"),
    cost("sim.replay_share", "ratio", SHARE),
    cost("wire.encode_ns_per_frame_64", "ns", KV),
    cost("wire.parse_ns_per_frame_64", "ns", KV),
    cost("wire.encode_ns_per_frame_mtu", "ns", BULK),
    cost("wire.parse_ns_per_frame_mtu", "ns", BULK),
    rate("wire.icrc_gib_s", "GiB/s", BULK),
    cost("wire.segment_ns_per_msg", "ns", BULK),
    cost("wire.replay_share", "ratio", SHARE),
    cost("proto.requester_ns_per_msg", "ns", KV),
    cost("proto.responder_ns_per_pkt", "ns", KV),
    cost(
        "proto.multi_queue_ns_per_read",
        "ns",
        "ops_per_wall_s on incast_reads",
    ),
    cost("proto.retransmit_ns_per_timer", "ns", LOSSY),
    cost("proto.dcqcn_ns_per_cnp", "ns", LOSSY),
    cost("proto.retransmissions", "count", SIM_TAIL),
    cost("proto.cnps", "count", SIM_TAIL),
    cost("proto.qp_errors", "count", SIM_TAIL),
    cost("proto.retransmit_ratio", "ratio", SIM_TAIL),
    cost("proto.replay_share", "ratio", SHARE),
    cost("mem.tlb_ns_per_translate", "ns", KV),
    cost("mem.dma_ns_per_cmd", "ns", KV),
    rate(
        "mem.host_write_gib_s",
        "GiB/s",
        "ops_per_wall_s on shuffle_bulk, chain_stream",
    ),
    rate(
        "mem.host_read_gib_s",
        "GiB/s",
        "ops_per_wall_s on shuffle_bulk, chain_stream",
    ),
    cost("mem.replay_share", "ratio", SHARE),
    cost("kernels.get_ns_per_op", "ns", KV),
    cost("kernels.put_ns_per_op", "ns", KV),
    cost("kernels.traversal_ns_per_op", "ns", KV),
    rate(
        "kernels.shuffle_gib_s",
        "GiB/s",
        "ops_per_wall_s on shuffle_*",
    ),
    rate("kernels.filter_gib_s", "GiB/s", CHAIN),
    rate("kernels.aggregate_gib_s", "GiB/s", CHAIN),
    rate("kernels.hll_gib_s", "GiB/s", CHAIN),
    rate("kernels.crc64_gib_s", "GiB/s", CHAIN),
    cost("kernels.replay_share", "ratio", SHARE),
    rate("nic.pair64_events_per_wall_s", "1/s", ALL),
    cost("nic.pair64_ns_per_event", "ns", ALL),
    cost("nic.pair64_events_per_msg", "count", ALL),
    rate("nic.pair64k_events_per_wall_s", "1/s", ALL),
    rate("nic.pair64k_wire_mib_per_wall_s", "MiB/s", ALL),
    cost("nic.allocs_per_op", "count", ALL),
    cost(
        "nic.alloc_bytes_per_op",
        "B",
        "ops_per_wall_s, peak_live_mib on every workload",
    ),
    cost("nic.tail_drops", "count", SIM_TAIL),
    cost("nic.ecn_marked", "count", SIM_TAIL),
    cost(
        "nic.unattributed_share",
        "ratio",
        "ops_per_wall_s on this workload (1 - sum of replay shares: testbed glue)",
    ),
    cost("telemetry.trace_emit_disabled_ns", "ns", ALL),
    cost(
        "telemetry.trace_emit_enabled_ns",
        "ns",
        "ops_per_wall_s on every traced corpus case",
    ),
    cost("telemetry.histogram_record_ns", "ns", KV),
    cost(
        "telemetry.tracing_overhead_share",
        "ratio",
        "ops_per_wall_s on every traced corpus case",
    ),
    cost("telemetry.replay_share", "ratio", SHARE),
    cost(
        "trace_overhead_share",
        "ratio",
        "none: cost of the benchmark's own spans",
    ),
    rate(
        "kv.slo_krps",
        "krps",
        "the printed p999 on kv_serve (0 on other workloads)",
    ),
];

/// The layers, in crate dependency order.
pub const LAYERS: [&str; 7] = ["sim", "wire", "proto", "mem", "kernels", "nic", "telemetry"];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The contents of `BENCHMARK.json`, in the shape the driver's contract
/// gives (exactly these keys).
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better.name())),
        ];
        fields.extend(bound.map(|b| ("bound", Value::Num(b))));
        Value::obj(fields)
    };
    let workload =
        |w: &Workload| Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))]);
    Value::obj([
        ("command", Value::Arr(command.map(Value::str).to_vec())),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(Workload::ALL.iter().map(workload).collect()),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

/// [`manifest`] laid out for reading: one top-level key per line, and
/// one line per workload or metric.
pub fn manifest_text() -> String {
    let mut out = String::from("{\n");
    let manifest = manifest();
    let fields = manifest.fields();
    for (i, (key, value)) in fields.iter().enumerate() {
        let rows = value.items();
        if rows.first().is_some_and(|r| !r.fields().is_empty()) {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
            out += &format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"));
        } else {
            out += &format!("  \"{key}\": {value}");
        }
        out += if i + 1 < fields.len() { ",\n" } else { "\n" };
    }
    out + "}"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Metric and workload names: letters, digits, `_`, `.` and `-`, at most
    /// 64 of them, starting with a letter or a digit.
    fn valid_name(name: &str) -> bool {
        let mut bytes = name.bytes();
        bytes.next().is_some_and(|b| b.is_ascii_alphanumeric())
            && name.len() <= 64
            && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// Units: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_follow_the_charset() {
        for ok in [
            "ops_per_wall_s",
            "sim.queue_ns_per_event_1e4",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", "a%", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("GiB/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("a b"));
        assert!(!valid_unit("seventeen_letters"));
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
            let layer = m.name.split('.').next().unwrap();
            assert!(
                LAYERS.contains(&layer) || matches!(layer, "kv" | "trace_overhead_share"),
                "{} names no layer",
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let on_disk = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(on_disk, manifest());
        assert_eq!(json::parse(&manifest_text()).unwrap(), manifest());
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 << 10);
    }
}
