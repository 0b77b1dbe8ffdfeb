//! The all-to-all distributed shuffle over a switched cluster.
//!
//! §6.4 evaluates the shuffle kernel between two directly connected
//! NICs; this module scales the experiment out: every node of an N-node
//! [`ClusterTestbed`] hash-partitions its local
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

use strom_kernels::radix::{radix_bits, radix_partition, MAX_PARTITIONS};
use strom_kernels::shuffle::{encode_histogram, ShuffleKernel, ShuffleParams};
use strom_proto::{CompletionStatus, WorkRequest};
use strom_sim::time::TimeDelta;
use strom_sim::SimRng;
use strom_telemetry::Fingerprint;
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::config::Platform;
use crate::event::NodeId;
use crate::fault::LinkFaultModel;
use crate::scenario::{us, Scenario, EVENT_BUDGET};
use crate::spec::{check_cc, check_qp_table, shape, spec_json, SpecError};
use crate::testbed::{ClusterTestbed, SwitchParams};

/// Everything that determines one shuffle run.
#[derive(Debug, Clone, PartialEq)]
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

    /// What makes the spec runnable.
    pub fn check(&self) -> Result<(), SpecError> {
        let n = self.nodes;
        shape(n >= 2, "shuffle nodes must be ≥ 2")?;
        let what = format!("{n} nodes × {} peers", n - 1);
        check_qp_table(self.platform, &what, n * (n - 1))?;
        shape(
            self.local_partitions.is_power_of_two()
                && self.local_partitions as usize <= MAX_PARTITIONS,
            "shuffle local_partitions must be a power of two up to 1024",
        )?;
        shape(
            self.port_faults.iter().all(|&(dst, _)| dst < n),
            "shuffle port_faults must name a node",
        )?;
        check_cc(self.cc, &self.switch)
    }
}

spec_json! {
    ShuffleSpec {
        platform, nodes, values_per_node, local_partitions, seed, switch, fault, port_faults,
        trace_capacity, retransmit_timeout, cc,
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
    /// Partitions the linear exactly-once walk could not decide and the
    /// sort then proved: non-zero only if some flow reached host memory
    /// out of order, or equal values from two flows misled the walk.
    pub out_of_order_partitions: u64,
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
fn node_table(spec: &ShuffleSpec, node: NodeId) -> impl Iterator<Item = u64> {
    let mut rng = SimRng::seed(spec.seed ^ (0x517u64 << 8) ^ node as u64);
    (0..spec.values_per_node).map(move |_| rng.next_u64())
}

/// Where every shuffled value goes, from one draw of each node's table.
/// The one piece of code that routes values: [`run_shuffle`] stages and
/// verifies from it, [`expected_partitions`] sorts it.
///
/// Filled in two levels, like a two-pass radix partition: a sender's
/// draw appends each value to its destination's staging buffer, then
/// each of those buffers is split by receive partition. Scattering the
/// draw straight into all `nodes × partitions` expected lists runs 128
/// write streams at once in the benchmark's shuffles, and measured
/// slower than both levels together (EXPERIMENTS.md, PR 25).
struct Routing {
    /// `staging[src][dst]`: the values `src` sends `dst`, encoded in
    /// table order (empty for `dst == src`).
    staging: Vec<Vec<Vec<u8>>>,
    /// `expected[dst * parts + p]`: the values partition `p` of node
    /// `dst` receives, grouped by sender in ascending order, each
    /// sender's values in table order.
    expected: Vec<Vec<u64>>,
    /// `bounds[slot * (nodes + 1) + src]`: where sender `src`'s flow
    /// starts in `expected[slot]` (and sender `src − 1`'s ends); entry
    /// `nodes` is the slot's end.
    bounds: Vec<usize>,
}

impl Routing {
    fn fill(spec: &ShuffleSpec) -> Routing {
        let n = spec.nodes;
        let parts = spec.local_partitions as usize;
        let bits = radix_bits(parts);
        let mut staging = Vec::with_capacity(n);
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); n * parts];
        let mut bounds = vec![0; n * parts * (n + 1)];
        for src in 0..n {
            let mut out = vec![Vec::new(); n];
            for v in node_table(spec, src) {
                let dst = dest_node(v, n);
                if dst != src {
                    out[dst].extend_from_slice(&v.to_le_bytes());
                }
            }
            for (bytes, slots) in out.iter().zip(expected.chunks_mut(parts)) {
                for v in values_of(bytes) {
                    slots[radix_partition(v, bits)].push(v);
                }
            }
            staging.push(out);
            for (slot, values) in expected.iter().enumerate() {
                bounds[slot * (n + 1) + src + 1] = values.len();
            }
        }
        // The expected values outlive the simulation: no spare capacity.
        for values in &mut expected {
            values.shrink_to_fit();
        }
        Routing {
            staging,
            expected,
            bounds,
        }
    }
}

/// The expected post-shuffle contents: for each `(receiver, partition)`,
/// the sorted multiset of values every *other* node routes there.
/// (Self-owned values stay local and never cross the wire.) The
/// reference model for tests: built from the same fill [`run_shuffle`]
/// verifies against, plus one sort per partition, which `run_shuffle`
/// itself does not need.
pub fn expected_partitions(spec: &ShuffleSpec) -> BTreeMap<(NodeId, u32), Vec<u64>> {
    let parts = spec.local_partitions as usize;
    Routing::fill(spec)
        .expected
        .into_iter()
        .enumerate()
        .map(|(slot, mut values)| {
            values.sort_unstable();
            (((slot / parts) as NodeId, (slot % parts) as u32), values)
        })
        .collect()
}

/// The linear exactly-once check: whether `got` (little-endian 8-byte
/// values) is an interleaving of the flows
/// `values[bounds[f]..bounds[f + 1]]` — each value the next unconsumed
/// one of some flow, every flow consumed to its end. `true` proves that
/// `got` holds exactly the flows' multiset, each flow in order. `false`
/// decides nothing: a wrong value, a flow out of order, and equal values
/// the greedy walk credited to the wrong flow all land here.
///
/// The flow that matched last is tried first, because a packet's values
/// land contiguously; any other flow is a scan over the `bounds.len() − 1`
/// flow heads.
fn interleaves(got: &[u8], values: &[u64], bounds: &[usize]) -> bool {
    let ends = &bounds[1..];
    // Each flow's next unconsumed index; the current flow's is `at`.
    let mut next = bounds[..ends.len()].to_vec();
    let (mut flow, mut at) = (0, next[0]);
    for v in values_of(got) {
        let heads = |at: usize, end: usize| at < end && values[at] == v;
        if !heads(at, ends[flow]) {
            next[flow] = at;
            match (0..ends.len()).find(|&f| heads(next[f], ends[f])) {
                Some(f) => (flow, at) = (f, next[f]),
                None => return false,
            }
        }
        at += 1;
    }
    next[flow] = at;
    got.len().is_multiple_of(8) && next == ends
}

/// `values`, sorted — the fallback decision when [`interleaves`] cannot
/// decide.
fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

/// The little-endian 8-byte values in `bytes`.
fn values_of(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
}

/// Host-memory layout of one node for the shuffle run.
struct NodeLayout {
    /// Per-destination staging regions `(addr, len)`, indexed by
    /// destination node (empty for self). The bytes live only in host
    /// memory.
    staging: Vec<(u64, u32)>,
    /// Histogram address.
    hist_addr: u64,
    /// Per-partition `(base, capacity_bytes)` of the receive regions.
    partitions: Vec<(u64, u32)>,
    /// Values this node's kernel will receive (for the exactly-once
    /// accounting check).
    incoming_values: u64,
}

/// Runs the all-to-all shuffle on a fresh testbed (see [`ShuffleSpec`]'s
/// [`Scenario`] impl).
pub fn run_shuffle(spec: &ShuffleSpec) -> ShuffleOutcome {
    let mut tb = spec.testbed();
    spec.drive(&mut tb)
}

impl Scenario for ShuffleSpec {
    type Outcome = ShuffleOutcome;

    fn testbed(&self) -> ClusterTestbed {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = self.platform.config();
        cfg.seed = self.seed;
        cfg.fault = self.fault;
        cfg.cc = self.cc;
        if let Some(timeout) = self.retransmit_timeout {
            cfg.retransmit_timeout = timeout;
        }
        let mut tb = ClusterTestbed::switched(cfg, self.nodes, self.switch);
        if let Some(capacity) = self.trace_capacity {
            tb.enable_tracing(capacity);
        }
        for &(dst, model) in &self.port_faults {
            tb.set_port_fault_model(dst, model);
        }
        tb
    }

    /// Verifies byte-exact, exactly-once delivery of every value into the
    /// correct peer partition. Panics on any violation.
    ///
    /// Host-side work is linear in the values shuffled. Each node's table
    /// is drawn once, into its staging bytes and, grouped by sender, each
    /// partition's expected values — no [`expected_partitions`] call and
    /// no sort. Staging bytes are freed once written into host memory.
    /// Each partition is checked by one walk over its values against the
    /// flows that feed it; only a partition the walk cannot decide is
    /// sorted and compared, and is counted in
    /// [`ShuffleOutcome::out_of_order_partitions`].
    fn drive(&self, tb: &mut ClusterTestbed) -> ShuffleOutcome {
        let n = self.nodes;
        let parts = self.local_partitions as usize;
        let Routing {
            staging,
            expected,
            bounds,
        } = Routing::fill(self);
        for i in 0..n {
            for j in i + 1..n {
                tb.connect_qp_between(i, j, pair_qpn(n, i, j));
            }
        }

        // Lay out host memory: per-destination staging buffers, then the
        // histogram, then exact-capacity receive regions (so any duplicated
        // or misrouted value would overflow its partition and be counted).
        // Staging bytes are written as soon as their region is pinned and
        // freed with it; only `(addr, len)` stays.
        let mut layouts: Vec<NodeLayout> = Vec::with_capacity(n);
        for (node, out) in staging.into_iter().enumerate() {
            let staging_total: usize = out.iter().map(Vec::len).sum();
            let partitions: Vec<u32> = expected[node * parts..(node + 1) * parts]
                .iter()
                .map(|values| (values.len() * 8) as u32)
                .collect();
            let receive_total: usize = partitions.iter().map(|&c| c as usize).sum();
            let hist_len = parts * 16;
            let base = tb.pin(
                node,
                (staging_total + hist_len + receive_total + 4096) as u64,
            );
            let mut cursor = base;
            let mut staging = Vec::with_capacity(n);
            for bytes in out {
                if !bytes.is_empty() {
                    tb.mem(node).write(cursor, &bytes);
                }
                staging.push((cursor, bytes.len() as u32));
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
            tb.post_local_rpc(
                node,
                pair_qpn(n, node, (node + 1) % n),
                RpcOpCode::SHUFFLE,
                ShuffleParams {
                    histogram_addr: layout.hist_addr,
                    num_partitions: self.local_partitions,
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
            for (dst, &(addr, len)) in layout.staging.iter().enumerate() {
                if dst == src || len == 0 {
                    continue;
                }
                let h = tb.post(
                    src,
                    pair_qpn(n, src, dst),
                    WorkRequest::RpcWrite {
                        rpc_op: RpcOpCode::SHUFFLE,
                        local_vaddr: addr,
                        len,
                    },
                );
                handles.push((src, h, dst));
                bytes_shuffled += u64::from(len);
            }
        }
        for &(src, h, dst) in &handles {
            tb.run_until_complete(src, h);
            assert_eq!(
                tb.completion_status(src, h),
                Some(CompletionStatus::Success),
                "seed {}: shuffle flow {src} -> {dst} failed",
                self.seed
            );
        }
        let elapsed_ps = tb.now() - t0;
        assert!(
            tb.run_until_idle_bounded(EVENT_BUDGET),
            "seed {}: shuffle failed to quiesce",
            self.seed
        );

        // Exactly-once verification: every value each node shuffled out is
        // present in the correct peer partition, no value is duplicated
        // (exact-capacity regions make a duplicate overflow), none invented.
        // A partition the linear walk cannot decide is decided by the sort.
        let mut out_of_order_partitions = 0;
        for (node, layout) in layouts.iter().enumerate() {
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
                self.seed
            );
            assert_eq!(
                kernel.values(),
                layout.incoming_values,
                "seed {}: node {node} partitioned a wrong value count",
                self.seed
            );
            for (p, &(addr, cap)) in layout.partitions.iter().enumerate() {
                let slot = node * parts + p;
                let want = &expected[slot];
                let got = tb.mem(node).read(addr, cap as usize);
                if !interleaves(&got, want, &bounds[slot * (n + 1)..(slot + 1) * (n + 1)]) {
                    out_of_order_partitions += 1;
                    assert_eq!(
                        sorted(values_of(&got).collect()),
                        sorted(want.clone()),
                        "seed {}: node {node} partition {p} content mismatch",
                        self.seed
                    );
                }
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
            fingerprint: self.trace_capacity.map(|_| tb.trace().fingerprint()),
            tail_drops: tb.switch_tail_drops(),
            retransmissions: (0..n).map(|i| tb.retransmissions(i)).sum(),
            out_of_order_partitions,
        }
    }

    fn fingerprint(out: &ShuffleOutcome) -> u64 {
        let mut fp = Fingerprint::new();
        for word in [
            out.fingerprint.unwrap_or(0),
            out.bytes_shuffled,
            out.elapsed_ps,
            out.p99_rpc_ps.unwrap_or(0),
            out.tail_drops,
            out.retransmissions,
        ] {
            fp.word(word);
        }
        fp.value()
    }

    fn perf(out: &ShuffleOutcome) -> Vec<(&'static str, f64)> {
        vec![
            ("elapsed_us", us(out.elapsed_ps)),
            ("aggregate_gbps", out.aggregate_gbps),
            ("p99_rpc_us", us(out.p99_rpc_ps.unwrap_or(0))),
            ("tail_drops", out.tail_drops as f64),
            ("retransmissions", out.retransmissions as f64),
        ]
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
                    .filter(|&v| dest_node(v, 3) == i)
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
        assert_eq!(
            outcome.out_of_order_partitions, 0,
            "every flow lands in order"
        );
    }

    #[test]
    fn same_seed_reruns_are_fingerprint_identical() {
        let mut spec = ShuffleSpec::new(3, 200, 0xF00D);
        spec.trace_capacity = Some(1 << 14);
        let a = run_shuffle(&spec);
        let b = run_shuffle(&spec);
        assert_eq!(a, b, "same spec must reproduce identical observables");
        assert!(a.fingerprint.is_some());
        assert_eq!(a.out_of_order_partitions, 0, "every flow lands in order");
    }

    /// The fill behind both views: each partition's slice of `expected`
    /// is the senders' flows in ascending order, each flow the sender's
    /// table filtered to that partition, and each staging buffer the
    /// sender's table filtered to that destination.
    #[test]
    fn fill_groups_every_partition_by_sender_in_table_order() {
        let n = 4;
        let spec = ShuffleSpec::new(n, 300, 11);
        let parts = spec.local_partitions as usize;
        let bits = radix_bits(parts);
        let routing = Routing::fill(&spec);
        for src in 0..n {
            let routed = |dst: NodeId| {
                node_table(&spec, src).filter(move |&v| src != dst && dest_node(v, n) == dst)
            };
            for dst in 0..n {
                let bytes: Vec<u8> = routed(dst).flat_map(u64::to_le_bytes).collect();
                assert_eq!(routing.staging[src][dst], bytes, "staging {src} -> {dst}");
                for p in 0..parts {
                    let slot = dst * parts + p;
                    let bounds = &routing.bounds[slot * (n + 1)..(slot + 1) * (n + 1)];
                    let flow: Vec<u64> = routed(dst)
                        .filter(|&v| radix_partition(v, bits) == p)
                        .collect();
                    assert_eq!(
                        routing.expected[slot][bounds[src]..bounds[src + 1]],
                        flow,
                        "flow {src} -> ({dst}, {p})"
                    );
                    assert_eq!(bounds[n], routing.expected[slot].len());
                }
            }
        }
    }

    /// Differential test of the partition check against the sort it
    /// replaces: the walk never accepts contents whose multiset differs
    /// from the flows', and walk-then-sort gives the sort's verdict on
    /// every case. Half the cases draw from a four-value domain, so ties
    /// between flows are common.
    #[test]
    fn partition_check_agrees_with_the_sort() {
        let mut rng = SimRng::seed(0x5EED_C4EC);
        let (mut walked, mut sort_only, mut rejected) = (0, 0, 0);
        for case in 0..20_000 {
            let ties = case % 2 == 0;
            let mut values = Vec::new();
            let mut bounds = vec![0];
            for _ in 0..rng.range(1, 16) {
                for _ in 0..rng.below(13) {
                    values.push(if ties { rng.below(4) } else { rng.next_u64() });
                }
                bounds.push(values.len());
            }
            // A random interleaving in runs of one to four values, as
            // packets land.
            let flows = bounds.len() - 1;
            let mut next = bounds[..flows].to_vec();
            let mut got = Vec::with_capacity(values.len());
            while got.len() < values.len() {
                let f = rng.below(flows as u64) as usize;
                for _ in 0..rng.range(1, 5) {
                    if next[f] < bounds[f + 1] {
                        got.push(values[next[f]]);
                        next[f] += 1;
                    }
                }
            }
            if got.len() >= 2 {
                let (i, j) = (
                    rng.below(got.len() as u64) as usize,
                    rng.below(got.len() as u64) as usize,
                );
                match rng.below(4) {
                    0 => {}
                    1 => got.swap(i, j),
                    2 => got[i] ^= 1 << rng.below(64),
                    _ => got[i] = got[j],
                }
            }
            let bytes: Vec<u8> = got.iter().copied().flat_map(u64::to_le_bytes).collect();
            let truth = sorted(got) == sorted(values.clone());
            let walk = interleaves(&bytes, &values, &bounds);
            assert!(
                !walk || truth,
                "case {case}: the walk accepted a wrong multiset"
            );
            let verdict = walk || sorted(values_of(&bytes).collect()) == sorted(values);
            assert_eq!(
                verdict, truth,
                "case {case}: walk-then-sort disagrees with the sort"
            );
            match (walk, truth) {
                (true, _) => walked += 1,
                (false, true) => sort_only += 1,
                (false, false) => rejected += 1,
            }
        }
        assert!(
            walked > 0 && sort_only > 0 && rejected > 0,
            "every branch must be hit: {walked} walked, {sort_only} sorted, {rejected} rejected"
        );
    }
}
