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
//! including under a chaos fault model with retransmissions. The part of
//! the reference that reads only the drawn tuples runs on a second thread
//! beside the simulation ([`beside`]); the checks against what the testbed
//! holds run after it.

use strom_kernels::aggregate::Aggregate;
use strom_kernels::chains::{
    crcverify_shuffle, crcverify_shuffle_params, filter_agg_hll, filter_agg_hll_params,
};
use strom_kernels::crc_verify::{push_trailer, CrcVerifyParams, TRAILER_LEN};
use strom_kernels::filter::FilterKernel;
use strom_kernels::framework::{decode_error, KernelChain};
use strom_kernels::hll_kernel::HllKernel;
use strom_kernels::radix::{radix_bits, radix_partition, MAX_PARTITIONS};
use strom_kernels::shuffle::{encode_histogram, ShuffleParams};
use strom_kernels::traversal::Predicate;
use strom_kernels::{AggregateParams, FilterParams};
use strom_proto::{CompletionStatus, WorkRequest};
use strom_sim::time::TimeDelta;
use strom_sim::{beside, SimRng};
use strom_telemetry::Fingerprint;
use strom_wire::opcode::RpcOpCode;

use crate::config::Platform;
use crate::fault::LinkFaultModel;
use crate::scenario::{us, Scenario, EVENT_BUDGET};
use crate::spec::{shape, spec_json, SpecError};
use crate::testbed::{ClusterTestbed, SwitchParams};

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

/// Everything that determines one chain run.
#[derive(Debug, Clone, PartialEq)]
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

    /// What makes the spec runnable.
    pub fn check(&self) -> Result<(), SpecError> {
        shape(
            self.partitions.is_power_of_two() && self.partitions as usize <= MAX_PARTITIONS,
            "chain partitions must be a power of two up to 1024",
        )
    }
}

spec_json! { ChainSpec { platform, tuples, seed, partitions, corrupt, fault, trace_capacity } }

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
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The pipeline.
    pub kind: ChainKind,
    /// Everything else about the run.
    pub spec: ChainSpec,
}

spec_json! { Chain { kind, spec } }

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
    spec.check().unwrap_or_else(|e| panic!("{e}"));
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

/// Payload tuples are drawn from `0..TUPLE_DOMAIN`.
const TUPLE_DOMAIN: u64 = 10_000;

fn payload_tuples(spec: &ChainSpec) -> Vec<u64> {
    let mut rng = SimRng::seed(spec.seed ^ 0xC4A1);
    (0..spec.tuples)
        .map(|_| rng.next_u64() % TUPLE_DOMAIN)
        .collect()
}

/// The tuples' little-endian bytes, in one buffer with room for `spare`
/// more bytes.
fn tuple_bytes(values: &[u64], spare: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8 + spare);
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    out
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

/// Streams the `len` bytes staged at the client's `src` through the chain
/// behind `rpc_op`, then runs the testbed until it is idle again. Returns
/// the simulated time from the post to the stream's completion, and the
/// completion's status.
fn run_stream(
    tb: &mut ClusterTestbed,
    spec: &ChainSpec,
    rpc_op: RpcOpCode,
    src: u64,
    len: usize,
) -> (TimeDelta, Option<CompletionStatus>) {
    let t0 = tb.now();
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op,
            local_vaddr: src,
            len: len as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    let elapsed_ps = tb.now() - t0;
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "seed {}: chain failed to quiesce",
        spec.seed
    );
    (elapsed_ps, tb.completion_status(CLIENT, h))
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
    let data = tuple_bytes(&values, 0);
    tb.mem(CLIENT).write(src, &data);

    // The host reference runs beside the stream, in a bitset lent to it.
    let mut seen = vec![0u64; TUPLE_DOMAIN.div_ceil(64) as usize];
    let ((expect, distinct), (elapsed_ps, status)) = beside(
        || filter_reference(&values, operand, &mut seen),
        || run_stream(tb, spec, RpcOpCode::CHAIN_FILTER_AGG_HLL, src, data.len()),
    );
    assert_eq!(
        status,
        Some(CompletionStatus::Success),
        "seed {}: chain stream failed",
        spec.seed
    );
    let distinct = distinct as f64;

    let fs = tb.mem(CLIENT).read(filter_target, 16);
    assert_eq!(
        FilterKernel::decode_summary(&fs),
        Some((values.len() as u64, expect.count)),
        "seed {}: filter summary mismatch",
        spec.seed
    );
    let ag = tb.mem(CLIENT).read(agg_target, 32);
    assert_eq!(
        Aggregate::decode(&ag),
        Some(expect),
        "seed {}: aggregate record mismatch",
        spec.seed
    );
    let hs = tb.mem(CLIENT).read(hll_target, 16);
    let (estimate, items) = HllKernel::decode_snapshot(&hs).expect("snapshot");
    assert_eq!(
        items, expect.count,
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

/// The filter chain's host reference, in one pass: the aggregate of the
/// tuples the filter keeps, and how many distinct ones there are (`seen`
/// is a zeroed bitset over the tuple domain). Runs beside the simulation,
/// so it neither allocates nor frees.
fn filter_reference(values: &[u64], operand: u64, seen: &mut [u64]) -> (Aggregate, u64) {
    let mut expect = Aggregate::default();
    let mut distinct = 0u64;
    for &v in values.iter().filter(|&&v| v > operand) {
        expect.add(v);
        let (word, bit) = ((v / 64) as usize, 1 << (v % 64));
        distinct += u64::from(seen[word] & bit == 0);
        seen[word] |= bit;
    }
    (expect, distinct)
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
    // The client stages the stream and its CRC trailer; the server holds
    // one partition byte per stream byte.
    let stream_len = spec.tuples as u64 * 8;
    let client = tb.pin(
        CLIENT,
        MIN_REGION.max(DATA_OFFSET + stream_len + TRAILER_LEN as u64),
    );
    let server = tb.pin(SERVER, MIN_REGION.max(DATA_OFFSET + stream_len));
    tb.bring_up();

    let verdict_target = client;
    let src = client + DATA_OFFSET;
    let hist_addr = server;

    // The histogram needs every partition's size before the run.
    let values = payload_tuples(spec);
    let bits = radix_bits(spec.partitions as usize);
    let mut sizes = vec![0usize; spec.partitions as usize];
    for &v in &values {
        sizes[radix_partition(v, bits)] += 8;
    }
    let mut regions: Vec<(u64, u32)> = Vec::with_capacity(sizes.len());
    let mut cursor = server + DATA_OFFSET;
    for &size in &sizes {
        regions.push((cursor, size as u32));
        cursor += size as u64;
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

    // The stream is the payload and its CRC trailer, built in place. A
    // clean run's verdict is that CRC and the payload length.
    let mut stream = tuple_bytes(&values, TRAILER_LEN);
    let payload_len = stream.len();
    push_trailer(&mut stream);
    let mut verdict = [0u8; 16];
    verdict[..8].copy_from_slice(&stream[payload_len..]);
    verdict[8..].copy_from_slice(&(payload_len as u64).to_le_bytes());
    if spec.corrupt {
        let n = stream.len();
        stream[n / 2] ^= 0x80;
    }
    tb.mem(CLIENT).write(src, &stream);

    // The reference split is sized here and filled beside the run.
    let mut split: Vec<Vec<u8>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
    let len = stream.len();
    let (clean_fingerprint, (elapsed_ps, _)) = beside(
        || split_and_fold(&values, bits, &verdict, &mut split),
        || run_stream(tb, spec, RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE, src, len),
    );

    let chain_failed = tb
        .fabric(SERVER)
        .kernel(RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE)
        .and_then(|k| k.as_any().downcast_ref::<KernelChain>())
        .expect("chain deployed")
        .failed();

    let (fingerprint, error_code);
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
        fingerprint = Fingerprint::new().bytes(&v).value();
    } else {
        let v = tb.mem(CLIENT).read(verdict_target, 16);
        assert_eq!(v, verdict, "seed {}: verdict mismatch", spec.seed);
        assert!(
            !chain_failed,
            "seed {}: clean run must not latch",
            spec.seed
        );
        error_code = None;
        // Each partition is read into one reused buffer and compared with
        // the reference split byte for byte. The split's fingerprint then
        // is the run's: it folded exactly these bytes.
        let mut got = vec![0u8; sizes.iter().copied().max().unwrap_or(0)];
        for (pid, (&(addr, _), part)) in regions.iter().zip(&split).enumerate() {
            let got = &mut got[..part.len()];
            tb.mem(SERVER).read_into(addr, got);
            assert!(
                *got == **part,
                "seed {}: partition {pid} content mismatch",
                spec.seed
            );
        }
        fingerprint = clean_fingerprint;
    }
    finish(tb, payload_len as u64, elapsed_ps, fingerprint, error_code)
}

/// The CRC chain's reference radix split of `values`, written as bytes
/// into `split`'s buffers (each sized exactly), and a clean run's
/// fingerprint: the expected 16 B `verdict`, then every partition. Runs
/// beside the simulation, so it neither allocates nor frees.
fn split_and_fold(values: &[u64], bits: u32, verdict: &[u8; 16], split: &mut [Vec<u8>]) -> u64 {
    for &v in values {
        split[radix_partition(v, bits)].extend_from_slice(&v.to_le_bytes());
    }
    let mut fp = Fingerprint::new();
    fp.bytes(verdict);
    for part in split.iter() {
        fp.bytes(part);
    }
    fp.value()
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
