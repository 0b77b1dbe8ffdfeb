//! End-to-end tests of the filtering and aggregation stream kernels —
//! the §1 data-reduction operations whose response size is unknown in
//! advance (the reason the StRoM verbs use write semantics, §5.1).

use strom::kernels::aggregate::{Aggregate, AggregateKernel, AggregateParams};
use strom::kernels::filter::{FilterKernel, FilterParams};
use strom::kernels::traversal::Predicate;
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

fn random_tuples(n: u64, seed: u64) -> (Vec<u64>, Vec<u8>) {
    let mut rng = SimRng::seed(seed);
    let values: Vec<u64> = (0..n).map(|_| rng.below(1 << 32)).collect();
    let bytes = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    (values, bytes)
}

#[test]
fn filter_kernel_pushes_selection_to_the_server_nic() {
    let mut tb = testbed();
    let src = tb.pin(CLIENT, 4 << 20);
    let summary_buf = tb.pin(CLIENT, 1 << 20);
    let result_region = tb.pin(SERVER, 4 << 20);
    tb.deploy_kernel(SERVER, Box::new(FilterKernel::new()));

    let (values, bytes) = random_tuples(20_000, 11);
    tb.mem(CLIENT).write(src, &bytes);
    let threshold = 1u64 << 31;

    // Configure via RPC, then stream via RPC WRITE.
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::FILTER,
            params: FilterParams {
                dest_addr: result_region,
                dest_capacity: 4 << 20,
                predicate: Predicate::GreaterThan,
                operand: threshold,
                target_address: summary_buf,
            }
            .encode(),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let watch = tb.add_watch(CLIENT, summary_buf, 16);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::FILTER,
            local_vaddr: src,
            len: bytes.len() as u32,
        },
    );
    tb.run_until_watch(watch);
    tb.run_until_idle();

    // Summary arrived at the client.
    let summary = tb.mem(CLIENT).read(summary_buf, 16);
    let (seen, kept) = FilterKernel::decode_summary(&summary).unwrap();
    let want: Vec<u64> = values.iter().copied().filter(|&v| v > threshold).collect();
    assert_eq!(seen, values.len() as u64);
    assert_eq!(kept, want.len() as u64);

    // The qualifying tuples landed contiguously in the server region.
    let got_bytes = tb.mem(SERVER).read(result_region, want.len() * 8);
    let got: Vec<u64> = got_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn aggregate_kernel_reduces_the_stream_to_32_bytes() {
    let mut tb = testbed();
    let src = tb.pin(CLIENT, 4 << 20);
    let result_buf = tb.pin(CLIENT, 1 << 20);
    tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(AggregateKernel::new()));

    let (values, bytes) = random_tuples(50_000, 12);
    tb.mem(CLIENT).write(src, &bytes);

    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::AGGREGATE,
            params: AggregateParams {
                target_address: result_buf,
            }
            .encode(),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();

    let watch = tb.add_watch(CLIENT, result_buf, 32);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::AGGREGATE,
            local_vaddr: src,
            len: bytes.len() as u32,
        },
    );
    tb.run_until_watch(watch);
    tb.run_until_idle();

    let record = tb.mem(CLIENT).read(result_buf, 32);
    let agg = Aggregate::decode(&record).unwrap();
    assert_eq!(agg, Aggregate::of(&values));
    // 400 KB in, 32 B out: the data reduction the paper motivates.
    assert_eq!(record.len(), 32);
}

#[test]
fn reduction_kernels_survive_loss() {
    let mut tb = testbed();
    tb.set_fault_model(LinkFaultModel::bernoulli(0.04));
    let src = tb.pin(CLIENT, 2 << 20);
    let result_buf = tb.pin(CLIENT, 1 << 20);
    tb.pin(SERVER, 1 << 20);
    tb.deploy_kernel(SERVER, Box::new(AggregateKernel::new()));

    let (values, bytes) = random_tuples(10_000, 13);
    tb.mem(CLIENT).write(src, &bytes);
    let h = tb.post(
        CLIENT,
        QP,
        WorkRequest::Rpc {
            rpc_op: RpcOpCode::AGGREGATE,
            params: AggregateParams {
                target_address: result_buf,
            }
            .encode(),
        },
    );
    tb.run_until_complete(CLIENT, h);
    tb.run_until_idle();
    let watch = tb.add_watch(CLIENT, result_buf, 32);
    tb.post(
        CLIENT,
        QP,
        WorkRequest::RpcWrite {
            rpc_op: RpcOpCode::AGGREGATE,
            local_vaddr: src,
            len: bytes.len() as u32,
        },
    );
    tb.run_until_watch(watch);
    tb.run_until_idle();
    let agg = Aggregate::decode(&tb.mem(CLIENT).read(result_buf, 32)).unwrap();
    assert_eq!(
        agg,
        Aggregate::of(&values),
        "retransmission must not double-count tuples"
    );
    assert!(tb.retransmissions(CLIENT) > 0);
}
