//! Integration tests of the stream kernels (shuffle §6.4, HLL §7.2):
//! RPC WRITE streaming, receive-path taps, and functional verification of
//! the partitioned/sketched data.

use strom::baselines::cpu_partition::software_partition;
use strom::kernels::hll_kernel::{HllKernel, HllParams};
use strom::kernels::shuffle::{encode_histogram, ShuffleKernel, ShuffleParams};
use strom::nic::{LinkFaultModel, NicConfig, RpcOpCode, Testbed, WorkRequest};
use strom::sim::SimRng;

const CLIENT: usize = 0;
const SERVER: usize = 1;
const QP: u32 = 1;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(NicConfig::ten_gig());
    tb.connect_qp(QP);
    tb
}

/// Sets up the shuffle kernel with `parts` partition regions on the
/// server; returns the per-partition base addresses.
fn configure_shuffle(tb: &mut Testbed, server_base: u64, parts: u32, capacity: u32) -> Vec<u64> {
    tb.deploy_kernel(SERVER, Box::new(ShuffleKernel::new()));
    let bases: Vec<u64> = (0..u64::from(parts))
        .map(|i| server_base + (1 << 20) + i * u64::from(capacity))
        .collect();
    let histogram = encode_histogram(&bases.iter().map(|&b| (b, capacity)).collect::<Vec<_>>());
    tb.mem(SERVER).write(server_base, &histogram);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::SHUFFLE,
            params: ShuffleParams {
                histogram_addr: server_base,
                num_partitions: parts,
            }
            .encode(),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();
    bases
}

#[test]
fn shuffle_rpc_write_partitions_match_software() {
    let mut tb = testbed();
    let src = tb.pin(CLIENT, 4 << 20);
    let server = tb.pin(SERVER, 16 << 20);
    let parts = 32u32;
    let bases = configure_shuffle(&mut tb, server, parts, 1 << 18);

    let mut rng = SimRng::seed(42);
    let n = 50_000u64;
    let mut data = vec![0u8; (n * 8) as usize];
    rng.fill_bytes(&mut data);
    tb.mem(CLIENT).write(src, &data);

    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::SHUFFLE,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let values: Vec<u64> = data
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let want = software_partition(&values, parts as usize);
    for (pid, base) in bases.iter().enumerate() {
        let expected: Vec<u8> = want.partitions[pid]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let got = tb.mem(SERVER).read(*base, expected.len());
        assert_eq!(got, expected, "partition {pid}");
    }
}

#[test]
fn shuffle_works_over_lossy_link() {
    let mut tb = testbed();
    tb.set_fault_model(LinkFaultModel::bernoulli(0.03));
    let src = tb.pin(CLIENT, 4 << 20);
    let server = tb.pin(SERVER, 8 << 20);
    let parts = 8u32;
    let bases = configure_shuffle(&mut tb, server, parts, 1 << 18);

    let mut rng = SimRng::seed(43);
    let n = 10_000u64;
    let mut data = vec![0u8; (n * 8) as usize];
    rng.fill_bytes(&mut data);
    tb.mem(CLIENT).write(src, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::SHUFFLE,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    // The reliable transport means the kernel saw every tuple exactly
    // once despite retransmissions (duplicates are dropped before the
    // kernel).
    let values: Vec<u64> = data
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let want = software_partition(&values, parts as usize);
    let mut total = 0usize;
    for (pid, base) in bases.iter().enumerate() {
        let expected: Vec<u8> = want.partitions[pid]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(
            tb.mem(SERVER).read(*base, expected.len()),
            expected,
            "partition {pid}"
        );
        total += expected.len();
    }
    assert_eq!(total, data.len());
    assert!(tb.retransmissions(CLIENT) > 0, "loss must have occurred");
}

#[test]
fn hll_tap_sketches_write_stream_without_altering_it() {
    let mut tb = testbed();
    let src = tb.pin(CLIENT, 4 << 20);
    let dst = tb.pin(SERVER, 4 << 20);
    tb.deploy_kernel(SERVER, Box::new(HllKernel::new()));
    tb.set_receive_tap(SERVER, RpcOpCode::HLL);

    // 30k items, 10k distinct.
    let mut rng = SimRng::seed(44);
    let n = 30_000u64;
    let distinct = 10_000u64;
    let mut data = Vec::with_capacity((n * 8) as usize);
    for _ in 0..n {
        data.extend_from_slice(&rng.below(distinct).to_le_bytes());
    }
    tb.mem(CLIENT).write(src, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    // Data in memory is untouched by the tap.
    assert_eq!(tb.mem(SERVER).read(dst, data.len()), data);
    // The kernel saw every item and estimates the distinct count.
    let kernel = tb
        .fabric(SERVER)
        .kernel(RpcOpCode::HLL)
        .and_then(|k| k.as_any().downcast_ref::<HllKernel>())
        .expect("kernel deployed");
    assert_eq!(kernel.items(), n);
    let e = kernel.estimate();
    let truth = {
        let mut s: Vec<u64> = data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        s.sort_unstable();
        s.dedup();
        s.len() as f64
    };
    assert!((e - truth).abs() / truth < 0.05, "estimate {e} vs {truth}");
}

#[test]
fn hll_snapshot_rpc_returns_estimate_to_client() {
    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 1 << 20);
    let src = tb.pin(CLIENT, 2 << 20);
    let dst = tb.pin(SERVER, 2 << 20);
    tb.deploy_kernel(SERVER, Box::new(HllKernel::new()));
    tb.set_receive_tap(SERVER, RpcOpCode::HLL);

    let data: Vec<u8> = (0..5000u64).flat_map(|i| i.to_le_bytes()).collect();
    tb.mem(CLIENT).write(src, &data);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Write {
            remote_vaddr: dst,
            local_vaddr: src,
            len: data.len() as u32,
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    // Ask the kernel for its snapshot via the RPC path.
    let watch = tb.add_watch(CLIENT, client_buf, 16);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::HLL,
            params: HllParams {
                target_address: client_buf,
            }
            .encode(),
        },
    );
    tb.run_until_watch(watch);
    let snapshot = tb.mem(CLIENT).read(client_buf, 16);
    let (estimate, items) = HllKernel::decode_snapshot(&snapshot).unwrap();
    assert_eq!(items, 5000);
    assert!(
        (estimate - 5000.0).abs() / 5000.0 < 0.05,
        "estimate {estimate}"
    );
    tb.run_until_idle();
}

#[test]
fn multi_kernel_deployment_dispatches_by_opcode() {
    // §5.1: "enables multi-kernel deployments on the remote NIC".
    use strom::kernels::consistency::{ConsistencyKernel, ConsistencyParams};
    use strom::kernels::get::{GetKernel, GetParams};
    use strom::kernels::layouts::{build_hash_table, build_object_store, value_pattern};
    use strom::kernels::traversal::TraversalKernel;

    let mut tb = testbed();
    let client_buf = tb.pin(CLIENT, 2 << 20);
    let server = tb.pin(SERVER, 4 << 20);
    tb.deploy_kernel(SERVER, Box::new(TraversalKernel::new()));
    tb.deploy_kernel(SERVER, Box::new(ConsistencyKernel::new()));
    tb.deploy_kernel(SERVER, Box::new(GetKernel::new()));

    let ht = build_hash_table(tb.mem(SERVER), server, 128, &[5, 6, 7], 64);
    let store = build_object_store(tb.mem(SERVER), server + (2 << 20), 1, 128);

    // GET kernel.
    let w1 = tb.add_watch(CLIENT, client_buf, 64);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::GET,
            params: GetParams {
                entry_addr: ht.entry_addr(6),
                key: 6,
                target_address: client_buf,
                chained: false,
            }
            .encode(),
        },
    );
    tb.run_until_watch(w1);
    assert_eq!(tb.mem(CLIENT).read(client_buf, 64), value_pattern(6, 64));

    // Consistency kernel, same NIC, different op-code.
    let size = store.object_size();
    let w2 = tb.add_watch(CLIENT, client_buf + 4096, u64::from(size));
    tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::CONSISTENCY,
            params: ConsistencyParams {
                object_addr: store.object_addrs[0],
                object_len: size,
                target_address: client_buf + 4096,
            }
            .encode(),
        },
    );
    tb.run_until_watch(w2);
    assert!(strom::kernels::consistency::verify_object(
        &tb.mem(CLIENT).read(client_buf + 4096, size as usize)
    ));
    tb.run_until_idle();
    assert_eq!(tb.fabric(SERVER).completed(), 2);
    assert_eq!(tb.fabric(SERVER).unmatched(), 0);
}
