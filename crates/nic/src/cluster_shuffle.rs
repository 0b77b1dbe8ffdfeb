//! The all-to-all distributed shuffle over a switched cluster.
//!
//! §6.4 evaluates the shuffle kernel between two directly connected
//! NICs; this module scales the experiment out: every node of an N-node
//! [`ClusterTestbed`](crate::ClusterTestbed) hash-partitions its local
//! table by *destination node* and streams each bucket to the owning
//! peer as an RDMA RPC WRITE through that peer's on-NIC
//! [`ShuffleKernel`], which radix-partitions the incoming values into
//! host memory on the fly. All N·(N−1) flows cross the same
//! store-and-forward switch concurrently, so the experiment exercises
//! egress contention, round-robin arbitration, and (under a fault
//! model) retransmission through the switch.
//!
//! The driver is deterministic: node tables, the destination hash, and
//! every timing decision derive from the configured seed, so a rerun
//! with the same [`ShuffleSpec`] reproduces byte-identical partitions
//! and an identical telemetry fingerprint.

use std::collections::BTreeMap;

use strom_kernels::radix::{radix_bits, radix_partition};
use strom_kernels::shuffle::{encode_histogram, ShuffleKernel, ShuffleParams};
use strom_proto::{CompletionStatus, WorkRequest};
use strom_sim::time::TimeDelta;
use strom_sim::SimRng;
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::config::Platform;
use crate::event::NodeId;
use crate::fault::LinkFaultModel;
use crate::testbed::{ClusterTestbed, SwitchParams};

/// Event budget for the post-completion quiesce.
const EVENT_BUDGET: u64 = 200_000_000;

/// Everything that determines one shuffle run.
#[derive(Debug, Clone)]
pub struct ShuffleSpec {
    /// Hardware platform (10 G or 100 G datapath).
    pub platform: Platform,
    /// Number of nodes (≥ 2).
    pub nodes: usize,
    /// 8 B values in each node's local table.
    pub values_per_node: usize,
    /// Radix partitions each receiver's kernel maintains (power of two).
    pub local_partitions: u32,
    /// Seed for table contents and all simulation randomness.
    pub seed: u64,
    /// Switch geometry.
    pub switch: SwitchParams,
    /// Global link fault model.
    pub fault: LinkFaultModel,
    /// Per-egress-port overrides: `(dst_node, model)`.
    pub port_faults: Vec<(NodeId, LinkFaultModel)>,
    /// Enables the structured trace ring with this capacity.
    pub trace_capacity: Option<usize>,
    /// Overrides the NIC retransmission timeout (`None` keeps the
    /// platform default). Deep-buffered switch geometries
    /// need this: queueing delay beyond the timeout turns every queued
    /// frame into a spurious retransmission.
    pub retransmit_timeout: Option<TimeDelta>,
    /// Enables DCQCN congestion control on every NIC. Pair with an
    /// ECN-marking switch ([`SwitchParams::ecn`]) — without marking the
    /// flag only stamps packets ECT(0) and no rate control happens.
    pub cc: bool,
}

impl ShuffleSpec {
    /// A fault-free 10 G spec with default switch geometry.
    pub fn new(nodes: usize, values_per_node: usize, seed: u64) -> Self {
        ShuffleSpec {
            platform: Platform::TenGig,
            nodes,
            values_per_node,
            local_partitions: 16,
            seed,
            switch: SwitchParams::default(),
            fault: LinkFaultModel::default(),
            port_faults: Vec::new(),
            trace_capacity: None,
            retransmit_timeout: None,
            cc: false,
        }
    }
}

/// What one shuffle run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleOutcome {
    /// Wall-clock (simulated) time from first posted WRITE to the last
    /// flow's completion. (Not to quiesce: the post-completion drain
    /// contains only disarmed retransmit-check timers, which would
    /// charge up to one idle timeout to the shuffle.)
    pub elapsed_ps: TimeDelta,
    /// Payload bytes that crossed the switch (sum over all flows).
    pub bytes_shuffled: u64,
    /// Aggregate shuffle throughput in GB/s.
    pub aggregate_gbps: f64,
    /// p99 RPC-WRITE completion latency in picoseconds.
    pub p99_rpc_ps: Option<u64>,
    /// Trace fingerprint (`Some` when tracing was enabled).
    pub fingerprint: Option<u64>,
    /// Switch tail-drops over the run.
    pub tail_drops: u64,
    /// Retransmissions summed over all nodes.
    pub retransmissions: u64,
}

/// The QP connecting the unordered node pair `{i, j}`; both directions
/// of a flow share it. Deterministic and collision-free for `i != j`.
pub fn pair_qpn(nodes: usize, i: NodeId, j: NodeId) -> Qpn {
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    (lo * nodes + hi) as Qpn + 1
}

/// The node that owns value `v` in an N-node shuffle. Uses the *upper*
/// half of the value so node routing is independent of the kernel's
/// low-bit radix partitioning.
pub fn dest_node(v: u64, nodes: usize) -> NodeId {
    ((v >> 32) % nodes as u64) as NodeId
}

/// Per-node deterministic source table.
fn node_table(spec: &ShuffleSpec, node: NodeId) -> Vec<u64> {
    let mut rng = SimRng::seed(spec.seed ^ (0x517u64 << 8) ^ node as u64);
    (0..spec.values_per_node).map(|_| rng.next_u64()).collect()
}

/// The expected post-shuffle contents: for each `(receiver, partition)`,
/// the sorted multiset of values every *other* node routes there.
/// (Self-owned values stay local and never cross the wire.)
pub fn expected_partitions(spec: &ShuffleSpec) -> BTreeMap<(NodeId, u32), Vec<u64>> {
    let bits = radix_bits(spec.local_partitions as usize);
    let parts = spec.local_partitions as usize;
    // Filled densely, indexed `dst * parts + p` (the map's key order): a
    // map lookup per value would cost more than the sorts.
    let mut dense: Vec<Vec<u64>> = vec![Vec::new(); spec.nodes * parts];
    for src in 0..spec.nodes {
        for v in node_table(spec, src) {
            let dst = dest_node(v, spec.nodes);
            if dst == src {
                continue;
            }
            dense[dst * parts + radix_partition(v, bits)].push(v);
        }
    }
    dense
        .into_iter()
        .enumerate()
        .map(|(i, mut values)| {
            values.sort_unstable();
            (((i / parts) as NodeId, (i % parts) as u32), values)
        })
        .collect()
}

/// Host-memory layout of one node for the shuffle run.
struct NodeLayout {
    /// Per-destination staging buffers: `(addr, encoded bytes)`,
    /// indexed by destination node (empty for self).
    staging: Vec<(u64, Vec<u8>)>,
    /// Histogram address.
    hist_addr: u64,
    /// Per-partition `(base, capacity_bytes)` of the receive regions.
    partitions: Vec<(u64, u32)>,
    /// Values this node's kernel will receive (for the exactly-once
    /// accounting check).
    incoming_values: u64,
}

/// Runs the all-to-all shuffle and verifies byte-exact, exactly-once
/// delivery of every value into the correct peer partition before
/// returning the observables. Panics on any violation.
pub fn run_shuffle(spec: &ShuffleSpec) -> ShuffleOutcome {
    assert!(spec.nodes >= 2, "shuffle needs at least two nodes");
    assert!(
        spec.local_partitions.is_power_of_two(),
        "partition count must be a power of two"
    );
    let n = spec.nodes;
    let expected = expected_partitions(spec);

    let mut cfg = spec.platform.config();
    cfg.seed = spec.seed;
    cfg.fault = spec.fault;
    cfg.cc = spec.cc;
    if let Some(timeout) = spec.retransmit_timeout {
        cfg.retransmit_timeout = timeout;
    }
    let mut tb = ClusterTestbed::switched(cfg, n, spec.switch);
    if let Some(capacity) = spec.trace_capacity {
        tb.enable_tracing(capacity);
    }
    for &(dst, model) in &spec.port_faults {
        tb.set_port_fault_model(dst, model);
    }
    for i in 0..n {
        for j in i + 1..n {
            tb.connect_qp_between(i, j, pair_qpn(n, i, j));
        }
    }

    // Lay out host memory: per-destination staging buffers, then the
    // histogram, then exact-capacity receive regions (so any duplicated
    // or misrouted value would overflow its partition and be counted).
    let mut layouts: Vec<NodeLayout> = Vec::with_capacity(n);
    for node in 0..n {
        let mut staging: Vec<(u64, Vec<u8>)> = vec![(0, Vec::new()); n];
        for v in node_table(spec, node) {
            let dst = dest_node(v, n);
            if dst != node {
                staging[dst].1.extend_from_slice(&v.to_le_bytes());
            }
        }
        let staging_total: usize = staging.iter().map(|(_, b)| b.len()).sum();
        let partitions: Vec<u32> = (0..spec.local_partitions)
            .map(|p| (expected[&(node, p)].len() * 8) as u32)
            .collect();
        let receive_total: usize = partitions.iter().map(|&c| c as usize).sum();
        let hist_len = spec.local_partitions as usize * 16;
        let base = tb.pin(
            node,
            (staging_total + hist_len + receive_total + 4096) as u64,
        );
        let mut cursor = base;
        for (addr, bytes) in &mut staging {
            *addr = cursor;
            cursor += bytes.len() as u64;
        }
        let hist_addr = cursor;
        cursor += hist_len as u64;
        let mut part_regions = Vec::with_capacity(partitions.len());
        for &cap in &partitions {
            part_regions.push((cursor, cap));
            cursor += u64::from(cap);
        }
        layouts.push(NodeLayout {
            staging,
            hist_addr,
            partitions: part_regions,
            incoming_values: (receive_total / 8) as u64,
        });
    }
    tb.bring_up();

    // Configure every receiver's kernel via a local RPC (§5.2), then
    // quiesce so all kernels are Active before any payload arrives.
    for (node, layout) in layouts.iter().enumerate() {
        tb.deploy_kernel(node, Box::new(ShuffleKernel::new()));
        let histogram = encode_histogram(&layout.partitions);
        tb.mem(node).write(layout.hist_addr, &histogram);
        for (addr, bytes) in &layout.staging {
            if !bytes.is_empty() {
                tb.mem(node).write(*addr, bytes);
            }
        }
        tb.post_local_rpc(
            node,
            pair_qpn(n, node, (node + 1) % n),
            RpcOpCode::SHUFFLE,
            ShuffleParams {
                histogram_addr: layout.hist_addr,
                num_partitions: spec.local_partitions,
            }
            .encode(),
        );
    }
    tb.run_until_idle();

    // Post every flow up front: all N·(N−1) RPC WRITEs contend for the
    // switch concurrently.
    let t0 = tb.now();
    let mut handles: Vec<(NodeId, u64, usize)> = Vec::new();
    let mut bytes_shuffled = 0u64;
    for (src, layout) in layouts.iter().enumerate() {
        for (dst, (addr, bytes)) in layout.staging.iter().enumerate() {
            if dst == src || bytes.is_empty() {
                continue;
            }
            let h = tb.post(
                src,
                pair_qpn(n, src, dst),
                WorkRequest::RpcWrite {
                    rpc_op: RpcOpCode::SHUFFLE,
                    local_vaddr: *addr,
                    len: bytes.len() as u32,
                },
            );
            handles.push((src, h, dst));
            bytes_shuffled += bytes.len() as u64;
        }
    }
    for &(src, h, dst) in &handles {
        tb.run_until_complete(src, h);
        assert_eq!(
            tb.completion_status(src, h),
            Some(CompletionStatus::Success),
            "seed {}: shuffle flow {src} -> {dst} failed",
            spec.seed
        );
    }
    let elapsed_ps = tb.now() - t0;
    assert!(
        tb.run_until_idle_bounded(EVENT_BUDGET),
        "seed {}: shuffle failed to quiesce",
        spec.seed
    );

    // Exactly-once verification: every value each node shuffled out is
    // present in the correct peer partition, no value is duplicated
    // (exact-capacity regions make a duplicate overflow), none invented.
    for node in 0..n {
        let layout = &layouts[node];
        let kernel = tb
            .fabric(node)
            .kernel(RpcOpCode::SHUFFLE)
            .expect("deployed above")
            .as_any()
            .downcast_ref::<ShuffleKernel>()
            .expect("shuffle kernel");
        assert_eq!(
            kernel.overflowed(),
            0,
            "seed {}: node {node} kernel overflowed a partition",
            spec.seed
        );
        assert_eq!(
            kernel.values(),
            layout.incoming_values,
            "seed {}: node {node} partitioned a wrong value count",
            spec.seed
        );
        for (p, &(addr, cap)) in layout.partitions.iter().enumerate() {
            let want = &expected[&(node, p as u32)];
            let mut got: Vec<u64> = tb
                .mem(node)
                .read(addr, cap as usize)
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
                .collect();
            got.sort_unstable();
            assert_eq!(
                &got, want,
                "seed {}: node {node} partition {p} content mismatch",
                spec.seed
            );
        }
    }

    let secs = elapsed_ps as f64 * 1e-12;
    let p99_rpc_ps = tb
        .metrics()
        .histogram("latency.rpc_ps")
        .snapshot()
        .quantile(0.99);
    ShuffleOutcome {
        elapsed_ps,
        bytes_shuffled,
        aggregate_gbps: if secs > 0.0 {
            bytes_shuffled as f64 / secs / 1e9
        } else {
            0.0
        },
        p99_rpc_ps,
        fingerprint: spec.trace_capacity.map(|_| tb.trace().fingerprint()),
        tail_drops: tb.switch_tail_drops(),
        retransmissions: (0..n).map(|i| tb.retransmissions(i)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_qpns_are_distinct_and_symmetric() {
        let n = 8;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert_eq!(pair_qpn(n, i, j), pair_qpn(n, j, i));
                if i < j {
                    assert!(seen.insert(pair_qpn(n, i, j)), "collision at {i},{j}");
                }
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn destination_hash_covers_all_nodes() {
        let spec = ShuffleSpec::new(4, 512, 0xD15C);
        let mut hit = [false; 4];
        for v in node_table(&spec, 0) {
            hit[dest_node(v, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "512 draws must hit all 4 nodes");
    }

    #[test]
    fn expected_partitions_conserve_the_multiset() {
        let spec = ShuffleSpec::new(3, 100, 7);
        let expected = expected_partitions(&spec);
        let total: usize = expected.values().map(Vec::len).sum();
        let kept: usize = (0..3)
            .map(|i| {
                node_table(&spec, i)
                    .iter()
                    .filter(|&&v| dest_node(v, 3) == i)
                    .count()
            })
            .sum();
        assert_eq!(total + kept, 300, "every value is owned exactly once");
    }

    #[test]
    fn two_node_shuffle_is_byte_correct() {
        let outcome = run_shuffle(&ShuffleSpec::new(2, 400, 0xBEEF));
        assert!(outcome.bytes_shuffled > 0);
        assert!(outcome.aggregate_gbps > 0.0);
        assert_eq!(outcome.tail_drops, 0, "fault-free run never tail-drops");
    }

    #[test]
    fn same_seed_reruns_are_fingerprint_identical() {
        let mut spec = ShuffleSpec::new(3, 200, 0xF00D);
        spec.trace_capacity = Some(1 << 14);
        let a = run_shuffle(&spec);
        let b = run_shuffle(&spec);
        assert_eq!(a, b, "same spec must reproduce identical observables");
        assert!(a.fingerprint.is_some());
    }
}
