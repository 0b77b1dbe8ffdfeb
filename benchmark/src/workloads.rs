//! The six sustained workloads. Each has a fixed *unit* of work driven
//! through one public scenario function of `strom-nic`; names and sizes
//! are fixed so later issues can refer to them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use strom_nic::cluster_incast::{run_incast, IncastSpec};
use strom_nic::cluster_shuffle::{run_shuffle, ShuffleSpec};
use strom_nic::{
    run_crcverify_shuffle, run_filter_agg_hll, run_kv_serve, ChainSpec, KvSpec, LinkFaultModel,
    Platform,
};
use strom_sim::arrivals::ArrivalProcess;
use strom_sim::time::{MICROS, SECS};
use strom_sim::EcnConfig;

use crate::stats::{highest_supported, median, Percentile};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvServe,
    ShuffleBulk,
    ShuffleStorm,
    IncastWrites,
    IncastReads,
    ChainStream,
}

/// Requests per `kv_serve` unit. Fixed at 20 000: the driver's wall time
/// is quadratic in the request count (README, known issues).
pub const KV_REQUESTS: usize = 20_000;
/// Offered rate of `kv_serve`, about two thirds of the latency knee.
const KV_RATE_KRPS: u64 = 1_000;
/// Requests per rung of the `kv_serve` SLO ladder.
pub const KV_LADDER_REQUESTS: usize = 10_000;
/// Value size of the KV tier in bytes.
const KV_VALUE_BYTES: u32 = 64;
const SHUFFLE_NODES: usize = 8;
const SHUFFLE_BULK_VALUES: usize = 300_000;
const SHUFFLE_STORM_VALUES: usize = 250_000;
const INCAST_SENDERS: usize = 16;
const INCAST_MESSAGES: usize = 640;
const INCAST_MESSAGE_BYTES: u32 = 8 << 10;
/// Tuples per chain run. Stay ≤ 800 000: larger streams panic inside
/// the chain drivers (README, known issues).
const CHAIN_TUPLES: usize = 800_000;
const CHAIN_REPEATS: u64 = 4;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::KvServe,
        Workload::ShuffleBulk,
        Workload::ShuffleStorm,
        Workload::IncastWrites,
        Workload::IncastReads,
        Workload::ChainStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvServe => "kv_serve",
            Workload::ShuffleBulk => "shuffle_bulk",
            Workload::ShuffleStorm => "shuffle_storm",
            Workload::IncastWrites => "incast_writes",
            Workload::IncastReads => "incast_reads",
            Workload::ChainStream => "chain_stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op of this workload is, for the rate metrics.
    pub fn op_noun(self) -> &'static str {
        match self {
            Workload::KvServe => "requests",
            Workload::ShuffleBulk | Workload::ShuffleStorm => "values",
            Workload::IncastWrites | Workload::IncastReads => "messages",
            Workload::ChainStream => "tuples",
        }
    }

    /// Open or closed loop, with its rate or client count.
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::KvServe => {
                "open loop, Poisson 1000 krps; each request is posted exactly at its due \
                 time (the clock is advanced to it) and timed from it, so generator \
                 lateness is 0 by construction"
            }
            Workload::ShuffleBulk | Workload::ShuffleStorm => "closed, 56 flows posted up front",
            Workload::IncastWrites | Workload::IncastReads => "closed loop, 16 senders x window 2",
            Workload::ChainStream => "closed, one stream at a time",
        }
    }

    /// Why the benchmark runs this workload: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::KvServe => {
                "open-loop KV serving with 64 B frames: per-event and per-packet cost (event \
                 queue, proto, kernel dispatch, TLB) does nearly all the work, bytes do little"
            }
            Workload::ShuffleBulk => {
                "clean all-to-all shuffle with MTU frames at 100 G: bytes dominate (ICRC, \
                 encode/parse copies, host-memory writes, shuffle kernel), per-event cost is diluted"
            }
            Workload::ShuffleStorm => {
                "the same shuffle at 10 G through 32-frame queues with 2 % loss: tail drops, \
                 timers and go-back-N carry the run, so a fast-path gain that costs recovery shows"
            }
            Workload::IncastWrites => {
                "16-to-1 WRITE incast under DCQCN: switch queueing, ECN marking, CNPs and \
                 per-QP pacing dominate"
            }
            Workload::IncastReads => {
                "the same incast on the READ verb: the only workload on the multi-queue and \
                 paced read responses, reads beside writes on one fabric"
            }
            Workload::ChainStream => {
                "two kernel chains streamed over a two-node fabric: kernels and the SIMD \
                 layer do most of the work, the fabric almost none"
            }
        }
    }
}

/// What the scenario driver reported for one unit of work. Integer
/// observables only feed the fingerprint, so same-seed units compare
/// bit-exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitOutcome {
    /// Operations attempted (requests, values, messages or tuples).
    pub ops: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// RDMA messages the ops took (requests, flows, messages or streams).
    pub messages: u64,
    /// Payload bytes the ops carried.
    pub payload_bytes: u64,
    /// Simulated time the unit took, picoseconds.
    pub sim_elapsed_ps: u64,
    /// Median op latency on the simulated clock, where the driver
    /// exposes one.
    pub sim_p50_ps: Option<u64>,
    /// Headline latency: the highest percentile the driver exposes that
    /// the sample count supports.
    pub sim_latency_ps: u64,
    /// Which percentile `sim_latency_ps` is, and over how many samples.
    pub latency_label: String,
    /// FNV-1a fold of the driver's integer observables.
    pub fingerprint: u64,
    /// Counts from the outcome, for the per-layer metrics and the replay.
    pub counts: Counts,
}

impl UnitOutcome {
    /// A unit whose driver panicked: every one of its ops failed.
    pub fn failed_unit(attempted: u64) -> UnitOutcome {
        UnitOutcome {
            ops: attempted,
            failed: attempted,
            latency_label: "driver panicked".to_string(),
            ..UnitOutcome::default()
        }
    }
}

/// Protocol and fabric counts a scenario outcome exposes (0 where the
/// driver does not report one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub retransmissions: u64,
    pub cnps: u64,
    pub qp_errors: u64,
    pub tail_drops: u64,
    pub ecn_marked: u64,
    /// Completed KV operations by kernel (`kv_serve` only).
    pub gets: u64,
    pub puts: u64,
    pub traversals: u64,
}

/// FNV-1a over little-endian words.
pub fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A small seed-derived trim of a workload's input size, so that every
/// simulated-clock metric depends on the seed (the incasts and the chains
/// are otherwise deterministic in everything but payload contents, and
/// would read exactly the same at every seed).
fn size_trim(seed: u64, below: u64) -> u64 {
    fnv(&[seed]) % below
}

pub fn kv_spec(seed: u64, rate_krps: u64, requests: usize) -> KvSpec {
    let mean_gap = SECS / (rate_krps * 1_000);
    let mut spec = KvSpec::new(4, 4, mean_gap, seed);
    spec.platform = Platform::HundredGig;
    spec.keys_per_server = 4_096;
    spec.primary_entries = 1_024;
    spec.value_size = KV_VALUE_BYTES;
    spec.requests = requests;
    spec.process = ArrivalProcess::Poisson { mean_gap };
    spec.zipf_theta = 0.99;
    spec.get_pct = 70;
    spec.put_pct = 20;
    spec
}

fn shuffle_spec(storm: bool, seed: u64, trace_capacity: Option<usize>) -> ShuffleSpec {
    let values = if storm {
        SHUFFLE_STORM_VALUES
    } else {
        SHUFFLE_BULK_VALUES
    };
    let mut spec = ShuffleSpec::new(SHUFFLE_NODES, values, seed);
    spec.retransmit_timeout = Some(1_000 * MICROS);
    spec.trace_capacity = trace_capacity;
    if storm {
        spec.platform = Platform::TenGig;
        spec.switch.egress_capacity = 32;
        spec.fault = LinkFaultModel::bernoulli(0.02);
    } else {
        spec.platform = Platform::HundredGig;
        spec.switch.egress_capacity = 8_192;
    }
    spec
}

fn incast_spec(reads: bool, seed: u64) -> IncastSpec {
    let mut spec = IncastSpec::new(INCAST_SENDERS, 2, seed);
    spec.platform = Platform::HundredGig;
    spec.message_len = INCAST_MESSAGE_BYTES - size_trim(seed, 32) as u32;
    spec.messages_per_sender = INCAST_MESSAGES;
    spec.switch.egress_capacity = 256;
    spec.switch.ecn = Some(EcnConfig::step(16));
    spec.cc = true;
    spec.reads = reads;
    spec.retransmit_timeout = Some(1_000 * MICROS);
    spec
}

/// The headline latency: the highest of the driver's quantiles
/// `[p50, p99, p999]` that `samples` supports.
fn headline(samples: u64, quantiles: [Option<u64>; 3]) -> (Percentile, u64) {
    let [p50, p99, p999] = quantiles;
    [
        (Percentile::P999, p999),
        (Percentile::P99, p99),
        (Percentile::P50, p50),
    ]
    .into_iter()
    .find_map(|(p, v)| {
        v.filter(|_| highest_supported(samples) >= Some(p))
            .map(|v| (p, v))
    })
    .unwrap_or((Percentile::P50, 0))
}

/// Runs the `kv_serve` driver once and folds its outcome.
pub fn kv_unit(spec: &KvSpec) -> UnitOutcome {
    let out = run_kv_serve(spec);
    let attempted = spec.requests as u64;
    let failed = (out.verify_failures
        + out.lost_puts
        + out.dup_puts
        + out.put_errors
        + out
            .lost_responses
            .max(attempted.saturating_sub(out.completed)))
    .min(attempted);
    let (pct, ps) = headline(out.completed, [out.p50_ps, out.p99_ps, out.p999_ps]);
    UnitOutcome {
        ops: attempted,
        failed,
        messages: attempted,
        payload_bytes: out.completed * u64::from(spec.value_size),
        sim_elapsed_ps: out.elapsed_ps,
        sim_p50_ps: out.p50_ps,
        sim_latency_ps: ps,
        latency_label: format!("{} over {} requests", pct.name(), out.completed),
        fingerprint: fnv(&[
            out.fingerprint,
            out.elapsed_ps,
            out.completed,
            out.retransmissions,
            failed,
        ]),
        counts: Counts {
            retransmissions: out.retransmissions,
            qp_errors: out.qp_errors as u64,
            gets: out.gets,
            puts: out.puts,
            traversals: out.traversals,
            ..Counts::default()
        },
    }
}

fn shuffle_unit(spec: &ShuffleSpec) -> UnitOutcome {
    // The driver verifies exactly-once byte-exact delivery itself and
    // panics on any violation, which `run_unit` turns into failed ops.
    let out = run_shuffle(spec);
    let flows = (spec.nodes * (spec.nodes - 1)) as u64;
    let p99 = out.p99_rpc_ps.unwrap_or(0);
    UnitOutcome {
        ops: (spec.nodes * spec.values_per_node) as u64,
        failed: 0,
        messages: flows,
        payload_bytes: out.bytes_shuffled,
        sim_elapsed_ps: out.elapsed_ps,
        sim_p50_ps: None,
        sim_latency_ps: p99,
        latency_label: format!(
            "p99 RPC-WRITE over {flows} flows (the only percentile the driver exposes; \
             fewer than 10 samples lie beyond it, so it reads as the slowest flow)"
        ),
        // The driver's own fingerprint is its trace ring's, present only
        // with the ring on; leaving it out keeps ring-on units comparable.
        fingerprint: fnv(&[
            out.bytes_shuffled,
            out.elapsed_ps,
            p99,
            out.tail_drops,
            out.retransmissions,
        ]),
        counts: Counts {
            retransmissions: out.retransmissions,
            tail_drops: out.tail_drops,
            ..Counts::default()
        },
    }
}

fn incast_unit(spec: &IncastSpec) -> UnitOutcome {
    let out = run_incast(spec);
    let attempted = (spec.senders * spec.messages_per_sender) as u64;
    let bytes: u64 = out.per_sender_bytes.iter().sum();
    let completed = (bytes / u64::from(spec.message_len)).min(attempted);
    let (pct, ps) = headline(completed, [out.p50_ps, out.p99_ps, out.p999_ps]);
    let mut words = vec![
        out.elapsed_ps,
        out.p50_ps.unwrap_or(0),
        out.p99_ps.unwrap_or(0),
        out.p999_ps.unwrap_or(0),
        out.tail_drops,
        out.ecn_marked,
        out.cnps,
        out.retransmissions,
        out.qp_errors as u64,
    ];
    words.extend_from_slice(&out.per_sender_bytes);
    UnitOutcome {
        ops: attempted,
        failed: attempted - completed,
        messages: attempted,
        payload_bytes: bytes,
        sim_elapsed_ps: out.elapsed_ps,
        sim_p50_ps: out.p50_ps,
        sim_latency_ps: ps,
        latency_label: format!("{} over {completed} messages", pct.name()),
        fingerprint: fnv(&words),
        counts: Counts {
            retransmissions: out.retransmissions,
            cnps: out.cnps,
            qp_errors: out.qp_errors as u64,
            tail_drops: out.tail_drops,
            ecn_marked: out.ecn_marked,
            ..Counts::default()
        },
    }
}

fn chain_unit(seed: u64, trace_capacity: Option<usize>) -> UnitOutcome {
    let tuples = CHAIN_TUPLES - size_trim(seed, 1_024) as usize;
    let mut unit = UnitOutcome::default();
    let mut words = Vec::new();
    let mut runs_ps = Vec::new();
    for i in 0..2 * CHAIN_REPEATS {
        let mut spec = ChainSpec::new(tuples, seed.wrapping_add(i / 2));
        spec.platform = Platform::HundredGig;
        spec.trace_capacity = trace_capacity;
        let out = if i % 2 == 0 {
            run_filter_agg_hll(&spec)
        } else {
            run_crcverify_shuffle(&spec)
        };
        unit.ops += tuples as u64;
        if out.error_code.is_some() {
            unit.failed += tuples as u64;
        }
        unit.messages += 1;
        unit.payload_bytes += out.payload_bytes;
        unit.sim_elapsed_ps += out.elapsed_ps;
        unit.counts.retransmissions += out.retransmissions;
        runs_ps.push(out.elapsed_ps as f64);
        words.extend_from_slice(&[
            out.fingerprint,
            out.payload_bytes,
            out.elapsed_ps,
            u64::from(out.error_code.unwrap_or(0)),
            out.retransmissions,
        ]);
    }
    unit.sim_latency_ps = median(&runs_ps) as u64;
    unit.sim_p50_ps = Some(unit.sim_latency_ps);
    unit.latency_label = format!(
        "median chain-run time over {} runs (one op per run: no tail percentile has \
         10 samples beyond it)",
        runs_ps.len()
    );
    unit.fingerprint = fnv(&words);
    unit
}

/// Whether the scenario driver exposes the testbed's trace-ring knob.
pub fn has_trace_knob(workload: Workload) -> bool {
    matches!(
        workload,
        Workload::ShuffleBulk | Workload::ShuffleStorm | Workload::ChainStream
    )
}

/// Runs one unit of `workload` at `seed`. `trace_capacity` turns on the
/// testbed's own trace ring where the driver exposes the knob
/// ([`has_trace_knob`]); end-to-end metrics are measured with it off.
///
/// A driver panic (the drivers assert their own delivery checks) fails
/// every op of the unit instead of aborting the benchmark.
pub fn run_unit(workload: Workload, seed: u64, trace_capacity: Option<usize>) -> UnitOutcome {
    catch_unwind(AssertUnwindSafe(|| match workload {
        Workload::KvServe => kv_unit(&kv_spec(seed, KV_RATE_KRPS, KV_REQUESTS)),
        Workload::ShuffleBulk => shuffle_unit(&shuffle_spec(false, seed, trace_capacity)),
        Workload::ShuffleStorm => shuffle_unit(&shuffle_spec(true, seed, trace_capacity)),
        Workload::IncastWrites => incast_unit(&incast_spec(false, seed)),
        Workload::IncastReads => incast_unit(&incast_spec(true, seed)),
        Workload::ChainStream => chain_unit(seed, trace_capacity),
    }))
    .unwrap_or_else(|_| {
        UnitOutcome::failed_unit(match workload {
            Workload::KvServe => KV_REQUESTS as u64,
            Workload::ShuffleBulk => (SHUFFLE_NODES * SHUFFLE_BULK_VALUES) as u64,
            Workload::ShuffleStorm => (SHUFFLE_NODES * SHUFFLE_STORM_VALUES) as u64,
            Workload::IncastWrites | Workload::IncastReads => {
                (INCAST_SENDERS * INCAST_MESSAGES) as u64
            }
            Workload::ChainStream => 2 * CHAIN_REPEATS * CHAIN_TUPLES as u64,
        })
    })
}
