//! Integration tests of chained kernel pipelines (§8's "chaining
//! kernels" outlook): empty payloads, in-band error propagation
//! mid-chain, per-stage DMA tag namespacing on the real fabric, and
//! same-seed determinism under the chaos fault schedules.

use strom::kernels::bloom::{BloomFilter, BloomKernel, BloomParams};
use strom::kernels::chains::{crcverify_shuffle, crcverify_shuffle_params};
use strom::kernels::crc_verify::{push_trailer, CrcVerifyKernel, CrcVerifyParams};
use strom::kernels::framework::{KernelChain, StageRoute, ERR_INCONSISTENT};
use strom::kernels::shuffle::{encode_histogram, ShuffleKernel, ShuffleParams};
use strom::nic::{
    chaos_model, run_crcverify_shuffle, run_filter_agg_hll, ChainSpec, NicConfig, RpcOpCode,
    Testbed, WorkRequest,
};
use strom::sim::{default_workers, parallel_map};

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

#[test]
fn empty_payload_through_a_chain() {
    // A stream that is *only* the CRC trailer: zero payload tuples reach
    // the shuffle stage, the verdict still reports crc64(&[]) and the
    // chain closes cleanly end to end on the wire.
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    let client = tb.pin(CLIENT, 1 << 20);
    let server = tb.pin(SERVER, 1 << 20);

    tb.mem(SERVER)
        .write(server, &encode_histogram(&[(server + 4096, 4096)]));
    tb.deploy_kernel(SERVER, Box::new(crcverify_shuffle()));
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
            params: crcverify_shuffle_params(
                &CrcVerifyParams {
                    target_address: client,
                },
                &ShuffleParams {
                    histogram_addr: server,
                    num_partitions: 1,
                },
            ),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let mut stream = Vec::new();
    push_trailer(&mut stream);
    tb.mem(CLIENT).write(client + 4096, &stream);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
            local_vaddr: client + 4096,
            len: stream.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let verdict = tb.mem(CLIENT).read(client, 16);
    let (crc, len) = CrcVerifyKernel::decode_verdict(&verdict).expect("verdict");
    assert_eq!((crc, len), (strom::kernels::crc64::crc64(&[]), 0));
    let chain = tb
        .fabric(SERVER)
        .kernel(RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE)
        .and_then(|k| k.as_any().downcast_ref::<KernelChain>())
        .expect("chain deployed");
    assert!(!chain.failed());
    // The fabric completed the invocation (not wedged): a fresh
    // invocation with a non-empty stream still runs end to end.
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
            params: crcverify_shuffle_params(
                &CrcVerifyParams {
                    target_address: client,
                },
                &ShuffleParams {
                    histogram_addr: server,
                    num_partitions: 1,
                },
            ),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();
    let payload: Vec<u8> = (0..16u64).flat_map(|v| v.to_le_bytes()).collect();
    let mut stream = payload.clone();
    push_trailer(&mut stream);
    tb.mem(CLIENT).write(client + 8192, &stream);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::CHAIN_CRCVERIFY_SHUFFLE,
            local_vaddr: client + 8192,
            len: stream.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();
    assert_eq!(tb.mem(SERVER).read(server + 4096, payload.len()), payload);
}

#[test]
fn sentinel_propagates_mid_chain_and_starves_downstream() {
    let mut corrupt = ChainSpec::new(4_000, 0xC0DE);
    corrupt.corrupt = true;
    let run = run_crcverify_shuffle(&corrupt);
    assert_eq!(run.error_code, Some(ERR_INCONSISTENT));

    // The same seed without corruption is clean — the sentinel is caused
    // by the corruption, not the workload.
    let clean = ChainSpec::new(4_000, 0xC0DE);
    assert_eq!(run_crcverify_shuffle(&clean).error_code, None);
}

#[test]
fn dma_tag_collision_between_stages_is_namespaced() {
    // bloom → shuffle: BOTH stages issue a configure-time DMA read with
    // inner tag 1 (bitmap and histogram). The chain's per-stage tag
    // namespace must route each completion to its own stage on the real
    // fabric — a collision would hand the histogram to the Bloom stage.
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    let client = tb.pin(CLIENT, 1 << 20);
    let server = tb.pin(SERVER, 2 << 20);

    let members: Vec<u64> = (0..512u64).filter(|v| v % 3 == 0).collect();
    let mut bf = BloomFilter::new(16, 4);
    for &m in &members {
        bf.insert(m);
    }
    let bitmap_addr = server;
    let hist_addr = server + (1 << 16);
    let part_base = server + (1 << 17);
    tb.mem(SERVER).write(bitmap_addr, &bf.to_bitmap());
    tb.mem(SERVER)
        .write(hist_addr, &encode_histogram(&[(part_base, 1 << 16)]));

    let chain = KernelChain::new(
        RpcOpCode(0x7F),
        vec![
            (
                Box::new(BloomKernel::new()) as Box<dyn strom::kernels::Kernel>,
                StageRoute::CaptureDmaWrites,
            ),
            (Box::new(ShuffleKernel::new()), StageRoute::Handoff),
        ],
    );
    tb.deploy_kernel(SERVER, Box::new(chain));
    let params = strom::kernels::ChainParams {
        stages: vec![
            BloomParams {
                bitmap_addr,
                dest_addr: server + (1 << 18), // sizing only; bursts are captured
                dest_capacity: 1 << 18,
                log2_bits: 16,
                probes: 4,
                target_address: client,
            }
            .encode(),
            ShuffleParams {
                histogram_addr: hist_addr,
                num_partitions: 1,
            }
            .encode(),
        ],
    }
    .encode();
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode(0x7F),
            params,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let values: Vec<u64> = (0..512u64).collect();
    let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    tb.mem(CLIENT).write(client + 4096, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode(0x7F),
            local_vaddr: client + 4096,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    // Members (plus possible false positives) flowed bloom → shuffle and
    // landed in the single partition, in stream order.
    let kept: Vec<u64> = values.iter().copied().filter(|&v| bf.contains(v)).collect();
    let expect: Vec<u8> = kept.iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(tb.mem(SERVER).read(part_base, expect.len()), expect);
    for &m in &members {
        assert!(kept.contains(&m), "no false negatives through the chain");
    }
    // The Bloom stage's own result region stayed empty (bursts captured).
    let leaked = tb.mem(SERVER).read(server + (1 << 18), 4096);
    assert!(leaked.iter().all(|&b| b == 0));
}

#[test]
fn chain_reruns_are_deterministic_under_chaos() {
    // 24 chaos seeds, both chains: a same-seed rerun must reproduce the
    // identical ChainRun (fingerprint, elapsed, retransmissions).
    let outcomes = parallel_map((0..24u64).collect(), default_workers(), |seed| {
        let mut spec = ChainSpec::new(1_500, 0x50AC ^ seed);
        spec.fault = chaos_model(seed);
        spec.trace_capacity = Some(1 << 12);
        let a = (run_filter_agg_hll(&spec), run_crcverify_shuffle(&spec));
        let b = (run_filter_agg_hll(&spec), run_crcverify_shuffle(&spec));
        (seed, a, b)
    });
    for (seed, a, b) in outcomes {
        assert_eq!(a, b, "seed {seed}: chain rerun diverged");
    }
}
