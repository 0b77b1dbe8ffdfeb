//! Chained-kernel pipelines on the cluster testbed.
//!
//! §8's outlook — "more complex processing pipelines can be built by
//! chaining kernels" — executed with real NIC timing: a
//! [`KernelChain`] deploys into a
//! node's kernel fabric like any single kernel (one RPC op-code, one
//! fabric slot), the client configures every stage with one RPC Params
//! message, and the payload streams through the chain as RDMA RPC WRITE
//! packets cross the switch. Each driver verifies the end-to-end result
//! against a host-computed reference and folds every result record into a
//! deterministic fingerprint, so same-seed reruns must be bit-identical —
//! including under a chaos fault model with retransmissions.

use strom_kernels::aggregate::Aggregate;
use strom_kernels::chains::{
    crcverify_shuffle, crcverify_shuffle_params, filter_agg_hll, filter_agg_hll_params,
};
use strom_kernels::crc_verify::{append_trailer, CrcVerifyKernel, CrcVerifyParams};
use strom_kernels::filter::FilterKernel;
use strom_kernels::framework::{decode_error, KernelChain};
use strom_kernels::hll_kernel::HllKernel;
use strom_kernels::radix::{radix_bits, radix_partition};
use strom_kernels::shuffle::{encode_histogram, ShuffleParams};
use strom_kernels::traversal::Predicate;
use strom_kernels::{AggregateParams, FilterParams};
use strom_proto::{CompletionStatus, WorkRequest};
use strom_sim::time::TimeDelta;
use strom_sim::SimRng;
use strom_telemetry::Fingerprint;
use strom_wire::opcode::RpcOpCode;

use crate::config::Platform;
use crate::fault::LinkFaultModel;
use crate::scenario::{us, Scenario};
use crate::testbed::{ClusterTestbed, SwitchParams};

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

/// Event budget for the post-completion quiesce.
const EVENT_BUDGET: u64 = 200_000_000;

/// Everything that determines one chain run.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Hardware platform (10 G or 100 G datapath).
    pub platform: Platform,
    /// 8 B tuples in the client's payload.
    pub tuples: usize,
    /// Seed for payload contents and all simulation randomness.
    pub seed: u64,
    /// Radix partitions of the shuffle stage (crc-verify → shuffle only).
    pub partitions: u32,
    /// Flips one payload byte in flight metadata (crc-verify → shuffle
    /// only): the chain must surface `ERR_INCONSISTENT` in-band.
    pub corrupt: bool,
    /// Global link fault model (chaos soaks drive this).
    pub fault: LinkFaultModel,
    /// Enables the structured trace ring with this capacity.
    pub trace_capacity: Option<usize>,
}

impl ChainSpec {
    /// A fault-free 10 G spec.
    pub fn new(tuples: usize, seed: u64) -> Self {
        ChainSpec {
            platform: Platform::TenGig,
            tuples,
            seed,
            partitions: 16,
            corrupt: false,
            fault: LinkFaultModel::default(),
            trace_capacity: None,
        }
    }
}

/// What one chain run observed. `PartialEq` so determinism tests can
/// compare whole reruns.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRun {
    /// Payload bytes streamed through the chain.
    pub payload_bytes: u64,
    /// Simulated time from posting the stream to its completion.
    pub elapsed_ps: TimeDelta,
    /// End-to-end chain throughput in GiB/s of payload.
    pub gib_per_sec: f64,
    /// FNV-1a fold of every result record (and partition contents).
    pub fingerprint: u64,
    /// In-band error the chain surfaced, if any.
    pub error_code: Option<u16>,
    /// Retransmissions summed over both nodes.
    pub retransmissions: u64,
}

/// Which chained kernel pipeline a [`Chain`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// filter → aggregate → HyperLogLog.
    FilterAggHll,
    /// CRC-verify → radix shuffle.
    CrcVerifyShuffle,
}

impl ChainKind {
    /// The wire name used in spec JSON.
    pub fn name(self) -> &'static str {
        match self {
            ChainKind::FilterAggHll => "filter-agg-hll",
            ChainKind::CrcVerifyShuffle => "crcverify-shuffle",
        }
    }

    /// Parses a wire name back to the kind.
    pub fn from_name(name: &str) -> Option<ChainKind> {
        match name {
            "filter-agg-hll" => Some(ChainKind::FilterAggHll),
            "crcverify-shuffle" => Some(ChainKind::CrcVerifyShuffle),
            _ => None,
        }
    }
}

/// One kernel-chain run as a [`Scenario`]: which pipeline, over which
/// spec.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The pipeline.
    pub kind: ChainKind,
    /// Everything else about the run.
    pub spec: ChainSpec,
}

impl Scenario for Chain {
    type Outcome = ChainRun;

    fn testbed(&self) -> ClusterTestbed {
        testbed(&self.spec)
    }

    /// Verifies every result record against a host-computed reference.
    fn drive(&self, tb: &mut ClusterTestbed) -> ChainRun {
        match self.kind {
            ChainKind::FilterAggHll => drive_filter_agg_hll(&self.spec, tb),
            ChainKind::CrcVerifyShuffle => drive_crcverify_shuffle(&self.spec, tb),
        }
    }

    fn fingerprint(out: &ChainRun) -> u64 {
        let mut fp = Fingerprint::new();
        for word in [
            out.fingerprint,
            out.payload_bytes,
            out.elapsed_ps,
            u64::from(out.error_code.unwrap_or(0)),
            out.retransmissions,
        ] {
            fp.word(word);
        }
        fp.value()
    }

    fn perf(out: &ChainRun) -> Vec<(&'static str, f64)> {
        vec![
            ("elapsed_us", us(out.elapsed_ps)),
            ("gib_per_sec", out.gib_per_sec),
            (
                "chain_errors",
                f64::from(u8::from(out.error_code.is_some())),
            ),
            ("retransmissions", out.retransmissions as f64),
        ]
    }
}

fn testbed(spec: &ChainSpec) -> ClusterTestbed {
    let mut cfg = spec.platform.config();
    cfg.seed = spec.seed;
    cfg.fault = spec.fault;
    let mut tb = ClusterTestbed::switched(cfg, 2, SwitchParams::default());
    if let Some(capacity) = spec.trace_capacity {
        tb.enable_tracing(capacity);
    }
    tb.connect_qp_between(CLIENT, SERVER, QP);
    tb
}

/// Smallest region either node pins; a stream that needs more gets
/// exactly what it needs.
const MIN_REGION: u64 = 8 << 20;
/// Offset of the staged stream (client) and of the shuffle partitions
/// (server) inside their regions; the result slots sit below it.
const DATA_OFFSET: u64 = 4096;

fn payload_tuples(spec: &ChainSpec) -> Vec<u64> {
    let mut rng = SimRng::seed(spec.seed ^ 0xC4A1);
    (0..spec.tuples).map(|_| rng.next_u64() % 10_000).collect()
}

fn finish(
    tb: &ClusterTestbed,
    payload_bytes: u64,
    elapsed_ps: TimeDelta,
    fingerprint: u64,
    error_code: Option<u16>,
) -> ChainRun {
    let secs = elapsed_ps as f64 * 1e-12;
    ChainRun {
        payload_bytes,
        elapsed_ps,
        gib_per_sec: if secs > 0.0 {
            payload_bytes as f64 / secs / (1u64 << 30) as f64
        } else {
            0.0
        },
        fingerprint,
        error_code,
        retransmissions: (0..2).map(|i| tb.retransmissions(i)).sum(),
    }
}

/// Runs the filter → aggregate → HLL chain end-to-end and verifies all
/// three result records against a host-computed reference. Panics on any
/// mismatch.
pub fn run_filter_agg_hll(spec: &ChainSpec) -> ChainRun {
    drive_filter_agg_hll(spec, &mut testbed(spec))
}

fn drive_filter_agg_hll(spec: &ChainSpec, tb: &mut ClusterTestbed) -> ChainRun {
    let stream_len = spec.tuples as u64 * 8;
    // Every tuple may qualify, so the filter's result region is as large
    // as the stream.
    let result_capacity = (4u64 << 20).max(stream_len);
    let client = tb.pin(CLIENT, MIN_REGION.max(DATA_OFFSET + stream_len));
    let server = tb.pin(SERVER, MIN_REGION.max(result_capacity));
    tb.bring_up();

    let filter_target = client;
    let agg_target = client + 64;
    let hll_target = client + 128;
    let src = client + DATA_OFFSET;

    tb.deploy_kernel(SERVER, Box::new(filter_agg_hll()));
    let operand = 5_000u64;
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::CHAIN_FILTER_AGG_HLL,
            params: filter_agg_hll_params(
                &FilterParams {
                    dest_addr: server,
                    dest_capacity: u32::try_from(result_capacity)
                        .expect("a validated spec streams at most 32 MiB"),
                    predicate: Predicate::GreaterThan,
                    operand,
                    target_address: filter_target,
                },
                &AggregateParams {
                    target_address: agg_target,
                },
                hll_target,
            ),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let values = payload_tuples(spec);
    let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    tb.mem(CLIENT).write(src, &data);

    let t0 = tb.now();
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::CHAIN_FILTER_AGG_HLL,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    let elapsed_ps = tb.now() - t0;
    assert_eq!(
        tb.completion_status(CLIENT, h),
        Some(CompletionStatus::Success),
        "seed {}: chain stream failed",
        spec.seed
    );
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "seed {}: chain failed to quiesce",
        spec.seed
    );

    // Host reference.
    let expect: Vec<u64> = values.iter().copied().filter(|&v| v > operand).collect();
    let distinct = {
        let mut s = expect.clone();
        s.sort_unstable();
        s.dedup();
        s.len() as f64
    };

    let fs = tb.mem(CLIENT).read(filter_target, 16);
    assert_eq!(
        FilterKernel::decode_summary(&fs),
        Some((values.len() as u64, expect.len() as u64)),
        "seed {}: filter summary mismatch",
        spec.seed
    );
    let ag = tb.mem(CLIENT).read(agg_target, 32);
    assert_eq!(
        Aggregate::decode(&ag),
        Some(Aggregate::of(&expect)),
        "seed {}: aggregate record mismatch",
        spec.seed
    );
    let hs = tb.mem(CLIENT).read(hll_target, 16);
    let (estimate, items) = HllKernel::decode_snapshot(&hs).expect("snapshot");
    assert_eq!(
        items,
        expect.len() as u64,
        "seed {}: HLL item count mismatch",
        spec.seed
    );
    if distinct > 100.0 {
        assert!(
            (estimate - distinct).abs() / distinct < 0.05,
            "seed {}: HLL estimate {estimate} vs {distinct}",
            spec.seed
        );
    }
    // The chain captured every filter burst: nothing landed in the
    // server-side result region.
    let leaked = tb.mem(SERVER).read(server, 4096);
    assert!(
        leaked.iter().all(|&b| b == 0),
        "seed {}: filter bursts leaked to host memory",
        spec.seed
    );
    let chain = tb
        .fabric(SERVER)
        .kernel(RpcOpCode::CHAIN_FILTER_AGG_HLL)
        .and_then(|k| k.as_any().downcast_ref::<KernelChain>())
        .expect("chain deployed");
    assert!(
        !chain.failed(),
        "seed {}: clean run must not latch",
        spec.seed
    );

    let mut fp = Fingerprint::new();
    fp.bytes(&fs).bytes(&ag).bytes(&hs);
    finish(tb, data.len() as u64, elapsed_ps, fp.value(), None)
}

/// Runs the CRC-verify → shuffle chain end-to-end. On a clean stream the
/// partitions must match the host-computed radix split byte-exactly; with
/// `spec.corrupt` the chain must surface [`ERR_INCONSISTENT`] and starve
/// the shuffle stage of post-corruption data. Panics on any violation.
///
/// [`ERR_INCONSISTENT`]: strom_kernels::framework::ERR_INCONSISTENT
pub fn run_crcverify_shuffle(spec: &ChainSpec) -> ChainRun {
    drive_crcverify_shuffle(spec, &mut testbed(spec))
}

fn drive_crcverify_shuffle(spec: &ChainSpec, tb: &mut ClusterTestbed) -> ChainRun {
    assert!(
        spec.partitions.is_power_of_two(),
        "partition count must be a power of two"
    );
    // The client stages the stream and its 8 B CRC trailer; the server
    // holds one partition byte per stream byte.
    let stream_len = spec.tuples as u64 * 8;
    let client = tb.pin(CLIENT, MIN_REGION.max(DATA_OFFSET + stream_len + 8));
    let server = tb.pin(SERVER, MIN_REGION.max(DATA_OFFSET + stream_len));
    tb.bring_up();

    let verdict_target = client;
    let src = client + DATA_OFFSET;
    let hist_addr = server;

    // Host reference split, sized exactly.
    let values = payload_tuples(spec);
    let bits = radix_bits(spec.partitions as usize);
    let mut split: Vec<Vec<u64>> = vec![Vec::new(); spec.partitions as usize];
    for &v in &values {
        split[radix_partition(v, bits)].push(v);
    }
    let mut regions: Vec<(u64, u32)> = Vec::with_capacity(split.len());
    let mut cursor = server + DATA_OFFSET;
    for part in &split {
        regions.push((cursor, (part.len() * 8) as u32));
        cursor += (part.len() * 8) as u64;
    }
    tb.mem(SERVER).write(hist_addr, &encode_histogram(&regions));

    tb.deploy_kernel(SERVER, Box::new(crcverify_shuffle()));
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
            params: crcverify_shuffle_params(
                &CrcVerifyParams {
                    target_address: verdict_target,
                },
                &ShuffleParams {
                    histogram_addr: hist_addr,
                    num_partitions: spec.partitions,
                },
            ),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut stream = append_trailer(&payload);
    if spec.corrupt {
        let n = stream.len();
        stream[n / 2] ^= 0x80;
    }
    tb.mem(CLIENT).write(src, &stream);

    let t0 = tb.now();
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
            local_vaddr: src,
            len: stream.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    let elapsed_ps = tb.now() - t0;
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "seed {}: chain failed to quiesce",
        spec.seed
    );

    let chain_failed = tb
        .fabric(SERVER)
        .kernel(RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE)
        .and_then(|k| k.as_any().downcast_ref::<KernelChain>())
        .expect("chain deployed")
        .failed();

    let mut fp = Fingerprint::new();
    let error_code;
    if spec.corrupt {
        // The verdict slot holds the in-band sentinel.
        let v = tb.mem(CLIENT).read(verdict_target, 8);
        let word = u64::from_le_bytes(v[..8].try_into().expect("sized"));
        error_code = decode_error(word);
        assert_eq!(
            error_code,
            Some(strom_kernels::framework::ERR_INCONSISTENT),
            "seed {}: corruption must surface ERR_INCONSISTENT",
            spec.seed
        );
        assert!(chain_failed, "seed {}: chain must latch failure", spec.seed);
        fp.bytes(&v);
    } else {
        let v = tb.mem(CLIENT).read(verdict_target, 16);
        let (crc, len) = CrcVerifyKernel::decode_verdict(&v).expect("verdict");
        assert_eq!(
            (crc, len),
            (strom_kernels::crc64::crc64(&payload), payload.len() as u64),
            "seed {}: verdict mismatch",
            spec.seed
        );
        assert!(
            !chain_failed,
            "seed {}: clean run must not latch",
            spec.seed
        );
        error_code = None;
        fp.bytes(&v);
        for (pid, &(addr, cap)) in regions.iter().enumerate() {
            let want: Vec<u8> = split[pid].iter().flat_map(|v| v.to_le_bytes()).collect();
            let got = tb.mem(SERVER).read(addr, cap as usize);
            assert_eq!(
                got, want,
                "seed {}: partition {pid} content mismatch",
                spec.seed
            );
            fp.bytes(&got);
        }
    }
    finish(tb, payload.len() as u64, elapsed_ps, fp.value(), error_code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_agg_hll_end_to_end() {
        let run = run_filter_agg_hll(&ChainSpec::new(20_000, 0xC0FFEE));
        assert_eq!(run.payload_bytes, 20_000 * 8);
        assert!(run.gib_per_sec > 0.0);
        assert_eq!(run.error_code, None);
    }

    #[test]
    fn crcverify_shuffle_end_to_end() {
        let run = run_crcverify_shuffle(&ChainSpec::new(10_000, 0xFACE));
        assert_eq!(run.payload_bytes, 10_000 * 8);
        assert_eq!(run.error_code, None);
    }

    #[test]
    fn corruption_surfaces_inband_error() {
        let mut spec = ChainSpec::new(5_000, 0xBAD);
        spec.corrupt = true;
        let run = run_crcverify_shuffle(&spec);
        assert_eq!(
            run.error_code,
            Some(strom_kernels::framework::ERR_INCONSISTENT)
        );
    }

    #[test]
    fn streams_past_the_minimum_region_run() {
        // 1.1 M tuples overflow an 8 MiB staging region (1 048 064 tuples
        // after the result slots) and, at ~50 % selectivity, a 4 MiB
        // filter result region.
        let spec = ChainSpec::new(1_100_000, 0xB16);
        assert_eq!(run_filter_agg_hll(&spec).payload_bytes, 1_100_000 * 8);
        assert_eq!(run_crcverify_shuffle(&spec).payload_bytes, 1_100_000 * 8);
    }

    #[test]
    fn same_seed_reruns_are_identical() {
        let spec = ChainSpec::new(4_000, 0x5EED);
        assert_eq!(run_filter_agg_hll(&spec), run_filter_agg_hll(&spec));
        assert_eq!(run_crcverify_shuffle(&spec), run_crcverify_shuffle(&spec));
    }
}
