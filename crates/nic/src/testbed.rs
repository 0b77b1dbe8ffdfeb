//! The StRoM testbed: N simulated NIC + host pairs around a network.
//!
//! A [`ClusterTestbed`] is `N` `Nic`s joined by one `Wire`, plus
//! what the experimenter holds: the event queue, the table of posted
//! work requests, the memory watches, the trace sink and the metrics
//! registry. Two network geometries share the datapath.
//! [`ClusterTestbed::new`] is the simulated equivalent of §6.1's setup
//! ("we directly connected two StRoM NICs to each other"): exactly two
//! nodes, point-to-point, no switch. [`ClusterTestbed::switched`]
//! instead places N nodes around a deterministic store-and-forward
//! switch ([`strom_sim::Switch`]), which adds per-egress-port
//! serialization, switching latency, bounded egress queues with
//! tail-drop, and round-robin arbitration — the substrate for
//! multi-node experiments like the all-to-all shuffle.
//!
//! This module is the public API, the run loops and the dispatch: an
//! event names the NIC it belongs to (or the switch), and that NIC's
//! handler runs with the rest of the testbed lent to it as a `Ctx`.
//!
//! Experiments drive the testbed co-routine style: `post` work requests,
//! then `run_until_watch`/`run_until_complete` to advance simulated time
//! until the interesting state change.

use bytes::Bytes;

use strom_kernels::framework::Kernel;
use strom_mem::HostMemory;
use strom_proto::{CompletionStatus, WorkRequest};
use strom_sim::switch::SwitchPortCounters;
use strom_sim::time::{Time, TimeDelta};
use strom_telemetry::{HistogramHandle, MetricsRegistry, TraceSink};
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::config::NicConfig;
use crate::controller::StatusRegisters;
pub use crate::event::LookaheadReport;
use crate::event::{Event, LookaheadAudit, NodeId, Scheduler};
use crate::fabric::KernelFabric;
use crate::fault::LinkFaultModel;
pub use crate::nic::CpuFallback;
use crate::nic::{Ctx, Nic};
pub use crate::watch::WatchId;
use crate::watch::WatchTable;
pub use crate::wire::SwitchParams;
use crate::wire::Wire;

/// The simulated world: N nodes and the network between them —
/// point-to-point wires for the two nodes of [`ClusterTestbed::new`], a
/// store-and-forward switch for [`ClusterTestbed::switched`].
pub struct ClusterTestbed {
    cfg: NicConfig,
    nics: Vec<Nic>,
    wire: Wire,
    sched: Scheduler,
    requests: Requests,
    watches: WatchTable,
    /// Testbed-level trace sink (disabled until
    /// [`Self::enable_tracing`]).
    trace: TraceSink,
    /// Shared metrics registry: completion-latency histograms and the
    /// sim dispatch counter live here; experiments may add their own.
    metrics: MetricsRegistry,
    /// Reusable buffer for [`Self::step_batch`] (zero steady-state
    /// allocation).
    batch_buf: Vec<strom_sim::Scheduled<Event>>,
}

/// The original name of the two-node point-to-point testbed, built with
/// [`ClusterTestbed::new`].
pub type Testbed = ClusterTestbed;

/// Every work request the host has posted, and how each one ended.
pub(crate) struct Requests {
    /// One record per posted work request; handle `h` is `table[h - 1]`.
    table: Vec<Request>,
    /// How many completions have been recorded so far.
    completed: u64,
    /// Completion-latency histogram handles, indexed by [`LatKind`].
    lat: [HistogramHandle; 3],
}

/// What the testbed knows about one posted work request.
#[derive(Debug, Clone, Copy)]
struct Request {
    node: NodeId,
    posted: Time,
    kind: LatKind,
    /// Completion time and outcome, once the request has completed.
    done: Option<(Time, CompletionStatus)>,
}

/// Work-request classes with separate completion-latency histograms.
#[derive(Debug, Clone, Copy)]
enum LatKind {
    Write = 0,
    Read = 1,
    Rpc = 2,
}

impl LatKind {
    fn of(wr: &WorkRequest) -> LatKind {
        match wr {
            WorkRequest::Read { .. } => LatKind::Read,
            WorkRequest::Rpc { .. } | WorkRequest::RpcWrite { .. } => LatKind::Rpc,
            WorkRequest::Write { .. } | WorkRequest::WriteInline { .. } => LatKind::Write,
        }
    }
}

impl Requests {
    /// Records a work request's outcome and feeds its post-to-completion
    /// latency into the per-kind histogram. Every completion path funnels
    /// through here, so the histograms and the request table agree.
    pub(crate) fn finish(&mut self, handle: u64, at: Time, status: CompletionStatus) {
        let req = &mut self.table[handle as usize - 1];
        debug_assert!(req.done.is_none(), "handle {handle} completed twice");
        req.done = Some((at, status));
        self.completed += 1;
        self.lat[req.kind as usize].record(at.saturating_sub(req.posted));
    }
}

impl ClusterTestbed {
    /// Builds the two-node testbed of the paper: no switch in the path,
    /// frames serialize on the sender's link and arrive after
    /// propagation + RX store-and-forward (the chaos-soak fingerprints
    /// and the pcap golden fixture pin its timing and RNG draws).
    pub fn new(cfg: NicConfig) -> Self {
        Self::build(cfg, 2, None)
    }

    /// Builds `n` nodes around a deterministic store-and-forward switch:
    /// every frame serializes on the sender's link, propagates to the
    /// switch, waits out the switching latency, wins a round-robin
    /// grant, serializes on the egress port (or tail-drops at the queue
    /// bound), and then propagates on to the receiver.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 256`.
    pub fn switched(cfg: NicConfig, n: usize, params: SwitchParams) -> Self {
        assert!(n >= 2, "a cluster needs at least two nodes");
        Self::build(cfg, n, Some(params))
    }

    fn build(cfg: NicConfig, n: usize, switch: Option<SwitchParams>) -> Self {
        assert!(
            n <= 256,
            "{n} nodes: a node's IPv4 address and its trace records carry its id in one byte, \
             so nodes 256 apart would alias"
        );
        let metrics = MetricsRegistry::default();
        let lat = [
            metrics.histogram("latency.write_ps"),
            metrics.histogram("latency.read_ps"),
            metrics.histogram("latency.rpc_ps"),
        ];
        Self {
            nics: (0..n).map(|id| Nic::new(id, n, &cfg)).collect(),
            wire: Wire::new(&cfg, n, switch, &metrics),
            sched: Scheduler::new(n),
            requests: Requests {
                table: Vec::new(),
                completed: 0,
                lat,
            },
            watches: WatchTable::new(n),
            trace: TraceSink::default(),
            metrics,
            batch_buf: Vec::new(),
            cfg,
        }
    }

    /// Node `node`'s NIC, and the rest of the testbed lent to it.
    fn nic_cx(&mut self, node: NodeId) -> (&mut Nic, Ctx<'_>) {
        let cx = Ctx {
            cfg: &self.cfg,
            sched: &mut self.sched,
            wire: &mut self.wire,
            requests: &mut self.requests,
            watches: &mut self.watches,
        };
        (&mut self.nics[node], cx)
    }

    /// Enables structured tracing with a bounded ring of `capacity`
    /// records, threading the sink through every instrumented layer: the
    /// event queue publishes the simulation clock to it, and the
    /// requesters, retransmission timers, and TLBs of every node emit
    /// into it alongside the testbed's own packet/DMA/kernel events.
    /// Returns a handle to the sink (also available via [`Self::trace`]).
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        let sink = TraceSink::enabled(capacity);
        self.sched.queue.set_telemetry(
            sink.clone(),
            Some(self.metrics.counter("sim.events_dispatched")),
        );
        for nic in &mut self.nics {
            nic.set_trace(&sink);
        }
        self.wire.set_trace(&sink);
        self.trace = sink.clone();
        sink
    }

    /// The testbed's trace sink (disabled unless
    /// [`Self::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The testbed's metrics registry (completion-latency histograms,
    /// the sim dispatch counter, and anything experiments add).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts capturing every RoCE frame that reaches the wire into an
    /// in-memory pcap file (nanosecond timestamps, Ethernet link type).
    /// Frames the fault model drops outright are never encoded, so they
    /// do not appear; corrupted frames appear as transmitted (post-flip).
    /// ARP uses a bare 28-byte body in this model — not an Ethernet
    /// frame — so bring-up traffic is not captured.
    pub fn enable_capture(&mut self) {
        self.wire.enable_capture();
    }

    /// The captured pcap file bytes, if [`Self::enable_capture`] is on.
    pub fn pcap_bytes(&self) -> Option<&[u8]> {
        self.wire.pcap_bytes()
    }

    /// The configuration in force.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Advances simulated time by `delta` without processing events —
    /// models host CPU work (e.g. a software checksum pass) between
    /// simulated I/O operations.
    pub fn advance(&mut self, delta: TimeDelta) {
        let t = self.now() + delta;
        self.sched.queue.advance_to(t);
    }

    /// Timestamp of the earliest pending event, if any. Open-loop
    /// drivers use this to process everything due before an arrival
    /// time, then [`Self::advance`] the clock to the arrival itself.
    pub fn next_event_at(&self) -> Option<Time> {
        self.sched.queue.peek_time()
    }

    /// Mutable access to a node's host memory (the application's view).
    pub fn mem(&mut self, node: NodeId) -> &mut HostMemory {
        &mut self.nics[node].mem
    }

    /// Immutable access to a node's kernel fabric (statistics).
    pub fn fabric(&self, node: NodeId) -> &KernelFabric {
        &self.nics[node].fabric
    }

    /// Mutable access to a node's kernel fabric (failure injection).
    pub fn fabric_mut(&mut self, node: NodeId) -> &mut KernelFabric {
        &mut self.nics[node].fabric
    }

    /// When the kernel with `op` on `node` will have finished consuming
    /// all stream payload fed to it so far (its pipeline occupancy; §3.4).
    /// Returns 0 if the kernel has consumed nothing.
    pub fn kernel_busy_until(&self, node: NodeId, op: RpcOpCode) -> Time {
        self.nics[node].kernel_busy_until(op)
    }

    /// Retransmitted packets on a node (loss-recovery diagnostics).
    pub fn retransmissions(&self, node: NodeId) -> u64 {
        self.status(node).retransmissions
    }

    /// Frames dropped by injected link loss toward `node`.
    pub fn frames_lost(&self, node: NodeId) -> u64 {
        self.status(node).frames_lost
    }

    /// Payload bytes delivered into `node`'s memory by WRITEs.
    pub fn payload_bytes_rx(&self, node: NodeId) -> u64 {
        self.status(node).payload_bytes_rx
    }

    /// Pins `len` bytes on `node` and installs the pages in the NIC TLB
    /// (the driver's pin + populate flow, §4.3). Returns the base address.
    pub fn pin(&mut self, node: NodeId, len: u64) -> u64 {
        self.nics[node].pin(len)
    }

    /// Initializes a queue pair between nodes 0 and 1 (the out-of-band
    /// connection setup RoCE performs before one-sided traffic) — the
    /// original two-host API.
    pub fn connect_qp(&mut self, qpn: Qpn) {
        self.connect_qp_between(0, 1, qpn);
    }

    /// Initializes a queue pair between two specific nodes; subsequent
    /// traffic posted on `qpn` from either endpoint is routed to the
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn connect_qp_between(&mut self, a: NodeId, b: NodeId, qpn: Qpn) {
        assert_ne!(a, b, "a queue pair connects two distinct nodes");
        self.nics[a].connect_qp(qpn, b);
        self.nics[b].connect_qp(qpn, a);
    }

    /// Number of nodes in the testbed.
    pub fn num_nodes(&self) -> usize {
        self.nics.len()
    }

    /// The switch's forwarding counters for one port, when running in
    /// switched mode.
    pub fn switch_counters(&self, port: usize) -> Option<SwitchPortCounters> {
        self.wire.switch_counters(port)
    }

    /// Total frames tail-dropped across all switch egress ports (0 in
    /// transparent mode).
    pub fn switch_tail_drops(&self) -> u64 {
        self.wire.switch_tail_drops()
    }

    /// Deploys a StRoM kernel on `node` (§5.1 multi-kernel deployment).
    pub fn deploy_kernel(&mut self, node: NodeId, kernel: Box<dyn Kernel>) {
        self.nics[node].fabric.register(kernel);
    }

    /// Taps incoming WRITE payload on `node` into the kernel with the
    /// given op-code (receive kernel, §3.5).
    pub fn set_receive_tap(&mut self, node: NodeId, op: RpcOpCode) {
        self.nics[node].receive_tap = Some(op);
    }

    /// Taps *outgoing* WRITE payload on `node` into the kernel with the
    /// given op-code (send kernel, §3.5: kernels can "process data before
    /// being sent").
    pub fn set_send_tap(&mut self, node: NodeId, op: RpcOpCode) {
        self.nics[node].send_tap = Some(op);
    }

    /// Configures a CPU fallback for RPCs with op-code `op` on `node`
    /// (§5.1). Used when the kernel is not deployed on the NIC.
    pub fn set_cpu_fallback(&mut self, node: NodeId, op: RpcOpCode, handler: Box<dyn CpuFallback>) {
        self.nics[node].fallbacks.push((op, handler));
    }

    /// Invokes a kernel on `node`'s *own* NIC (local StRoM invocation,
    /// §5.2: "StRoM kernels can also be invoked by the local host by
    /// posting an RPC to the local network card"). The kernel's network
    /// output, if any, is transmitted from `node` on `qpn`.
    pub fn post_local_rpc(&mut self, node: NodeId, qpn: Qpn, rpc_op: RpcOpCode, params: Bytes) {
        let (nic, mut cx) = self.nic_cx(node);
        nic.post_local_rpc(qpn, rpc_op, params, &mut cx);
    }

    /// Sets independent Bernoulli link loss — [`Self::set_fault_model`]
    /// with the original single knob. Replaces any fault model in force,
    /// per-port overrides included.
    pub fn set_loss_rate(&mut self, rate: f64) {
        self.set_fault_model(LinkFaultModel::bernoulli(rate));
    }

    /// Installs a composable link fault model (loss, corruption,
    /// reordering, duplication) and resets the per-direction loss-model
    /// state, so the chaos schedule is fully determined by the model plus
    /// the testbed seed. Clears any per-port overrides.
    pub fn set_fault_model(&mut self, model: LinkFaultModel) {
        self.cfg.fault = model;
        self.wire.reset_faults();
    }

    /// Overrides the fault model for all traffic *toward* `dst` (the
    /// switch egress port facing that node), leaving other ports on the
    /// global model — a chaos run can degrade one port while the rest of
    /// the cluster stays healthy. Resets the fault state of the affected
    /// directed pairs.
    pub fn set_port_fault_model(&mut self, dst: NodeId, model: LinkFaultModel) {
        self.wire.set_port_fault_model(dst, model);
    }

    /// Whether `qpn` on `node` is in the terminal error state (retry
    /// budget exhausted).
    pub fn qp_errored(&self, node: NodeId, qpn: Qpn) -> bool {
        self.nics[node].qp_errored(qpn)
    }

    /// Performs network bring-up: each node sends an ARP who-has for
    /// every peer and answers the peers' requests, populating all
    /// resolution caches over the simulated wire (§4.1: "we use an open
    /// source module to handle the Address Resolution Protocol"). Returns
    /// the time at which every cache is populated.
    pub fn bring_up(&mut self) -> Time {
        let n = self.nics.len();
        for node in 0..n {
            for peer in (0..n).filter(|&p| p != node) {
                let (nic, mut cx) = self.nic_cx(node);
                nic.arp_request(peer, &mut cx);
            }
        }
        self.run_until_idle();
        for node in 0..n {
            assert!(self.resolved(node), "bring-up must resolve every peer");
        }
        self.now()
    }

    /// Whether `node` has resolved every peer's MAC address.
    pub fn resolved(&self, node: NodeId) -> bool {
        self.nics[node].resolved(self.nics.len())
    }

    /// Posts a work request from `node`'s host; returns a handle usable
    /// with [`Self::run_until_complete`].
    ///
    /// Charges the host-side costs: software post overhead, the AVX2-store
    /// pacing interval, and the MMIO latency to the Controller.
    ///
    /// # Panics
    ///
    /// Panics if `qpn` was never connected on `node` (two-node testbeds
    /// keep the implicit 0 ↔ 1 pairing).
    pub fn post(&mut self, node: NodeId, qpn: Qpn, wr: WorkRequest) -> u64 {
        self.requests.table.push(Request {
            node,
            posted: self.sched.now(),
            kind: LatKind::of(&wr),
            done: None,
        });
        let handle = self.requests.table.len() as u64;
        let (nic, mut cx) = self.nic_cx(node);
        nic.post(qpn, wr, handle, &mut cx);
        handle
    }

    /// Reads the Controller's status registers for `node` (§4.3: "the
    /// host can also retrieve status and performance metrics").
    pub fn status(&self, node: NodeId) -> StatusRegisters {
        let mut status = self.nics[node].status();
        self.wire.rx_faults_into(node, &mut status.wire);
        status
    }

    /// Registers a watch on `[addr, addr + len)` of `node`'s memory; fires
    /// once that many bytes of the range have been DMA-written.
    pub fn add_watch(&mut self, node: NodeId, addr: u64, len: u64) -> WatchId {
        self.watches.add(node, addr, len)
    }

    /// When the given watch fired (including the host's polling-detection
    /// overhead), if it has.
    pub fn watch_fired(&self, id: WatchId) -> Option<Time> {
        self.watches
            .fired_at(id)
            .map(|t| t + self.cfg.poll_overhead)
    }

    /// Runs until the watch fires; returns the detection time.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains first — the awaited data can then
    /// never arrive, which is an experiment bug.
    pub fn run_until_watch(&mut self, id: WatchId) -> Time {
        loop {
            if let Some(t) = self.watch_fired(id) {
                return t;
            }
            assert!(self.step(), "simulation went idle before watch fired");
        }
    }

    /// When the given work request completed (ACKed / data delivered /
    /// failed terminally).
    pub fn completed_at(&self, node: NodeId, handle: u64) -> Option<Time> {
        self.completion(node, handle).map(|(t, _)| t)
    }

    /// How the given work request completed, once it has.
    pub fn completion_status(&self, node: NodeId, handle: u64) -> Option<CompletionStatus> {
        self.completion(node, handle).map(|(_, s)| s)
    }

    /// The completion record of `handle`, if it names a request `node`
    /// posted and that request has completed.
    fn completion(&self, node: NodeId, handle: u64) -> Option<(Time, CompletionStatus)> {
        let req = self.requests.table.get(handle.checked_sub(1)? as usize)?;
        req.done.filter(|_| req.node == node)
    }

    /// How many work requests have completed so far, on any node and with
    /// any status. It only ever grows, so a driver polling
    /// [`Self::completed_at`] for many handles can skip the poll while the
    /// count stands still.
    pub fn completion_count(&self) -> u64 {
        self.requests.completed
    }

    /// Runs until a work request completes; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains first.
    pub fn run_until_complete(&mut self, node: NodeId, handle: u64) -> Time {
        loop {
            // A completion may be recorded with a timestamp slightly in
            // the future (e.g. a read completes when its final DMA write
            // lands); keep stepping until simulated time catches up so
            // the memory effects are visible to the caller.
            if let Some(t) = self.completed_at(node, handle) {
                if self.now() >= t || self.sched.queue.is_empty() {
                    return t;
                }
                self.step();
                continue;
            }
            assert!(self.step(), "simulation went idle before completion");
        }
    }

    /// Runs the event loop dry, one same-timestamp batch at a time.
    pub fn run_until_idle(&mut self) {
        while self.step_batch() > 0 {}
    }

    /// Runs the event loop dry, but gives up after `max_events` events.
    ///
    /// Returns `true` if the simulation quiesced within the budget — the
    /// chaos harness's livelock detector: a retransmission storm that
    /// never converges fails this instead of hanging the test suite.
    /// Batched dispatch may overshoot the budget by at most one
    /// same-timestamp bucket.
    pub fn run_until_idle_bounded(&mut self, max_events: u64) -> bool {
        let mut left = max_events;
        loop {
            if left == 0 {
                return self.sched.queue.is_empty();
            }
            let n = self.step_batch();
            if n == 0 {
                return true;
            }
            left = left.saturating_sub(n);
        }
    }

    /// Whether `qpn` on `node` still has unacknowledged messages or
    /// outstanding reads (a "stuck QP" probe for the chaos harness: after
    /// the sim quiesces, nothing may be left outstanding on a healthy QP).
    pub fn qp_has_outstanding(&self, node: NodeId, qpn: Qpn) -> bool {
        self.nics[node].qp_has_outstanding(qpn)
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.sched.queue.pop() else {
            return false;
        };
        self.dispatch_event(scheduled.event);
        true
    }

    /// Processes one same-timestamp batch of events; returns how many
    /// were dispatched (0 when the queue is empty).
    ///
    /// Equivalent to calling [`Self::step`] once per event in the batch —
    /// same order, same handlers — but amortizes the queue's bucket walk
    /// across the whole tick. Used by the idle-drain loops; the
    /// completion- and watch-bounded loops keep single-event granularity
    /// so they stop exactly where the reference engine would.
    pub fn step_batch(&mut self) -> u64 {
        let mut buf = std::mem::take(&mut self.batch_buf);
        buf.clear();
        let n = self.sched.queue.pop_batch(&mut buf);
        for s in buf.drain(..) {
            self.dispatch_event(s.event);
        }
        self.batch_buf = buf;
        n as u64
    }

    /// Enables the observation-only lookahead audit: every event
    /// scheduled from inside the dispatch loop is classified by
    /// [`Event::owner`] as staying inside the box that scheduled it or
    /// crossing to another, and the crossing distances are tracked
    /// against the cable propagation delay between a NIC and anything
    /// outside it. Changes nothing about the run itself.
    pub fn enable_lookahead_audit(&mut self) {
        self.sched.audit = Some(LookaheadAudit {
            dispatching: None,
            report: LookaheadReport {
                cross_events: 0,
                min_cross_delta: u64::MAX,
                violations: 0,
                floor: self.cfg.propagation,
            },
        });
    }

    /// The lookahead audit's findings so far (`None` until
    /// [`Self::enable_lookahead_audit`] is called).
    pub fn lookahead_report(&self) -> Option<LookaheadReport> {
        self.sched.audit.as_ref().map(|a| a.report)
    }

    /// Runs the handler of an event the queue just popped (so the clock
    /// already reads its firing time).
    fn dispatch_event(&mut self, event: Event) {
        let owner = event.owner(self.sched.switch_owner);
        if let Some(audit) = &mut self.sched.audit {
            audit.dispatching = Some(owner);
        }
        match event {
            Event::Nic { node, ev } => {
                let (nic, mut cx) = self.nic_cx(node);
                nic.handle(ev, &mut cx);
            }
            Event::SwitchTick => {
                self.wire.on_switch_tick(&self.cfg, &mut self.sched);
            }
        }
        if let Some(audit) = &mut self.sched.audit {
            audit.dispatching = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_sim::time::MICROS;

    fn testbed() -> Testbed {
        let mut tb = Testbed::new(NicConfig::ten_gig());
        tb.connect_qp(1);
        tb
    }

    #[test]
    fn write_delivers_bytes_end_to_end() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, b"hello remote memory");
        let watch = tb.add_watch(1, dst, 19);
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 19,
            },
        );
        let t = tb.run_until_watch(watch);
        assert!(t > 0);
        assert_eq!(tb.mem(1).read(dst, 19), b"hello remote memory");
        tb.run_until_idle();
    }

    #[test]
    fn write_latency_is_in_the_paper_range() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, &[7u8; 64]);
        let watch = tb.add_watch(1, dst, 64);
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 64,
            },
        );
        let t = tb.run_until_watch(watch);
        let us = t as f64 / MICROS as f64;
        // One-way delivery of a 64 B write: around 3 µs (Fig 5a).
        assert!((2.0..4.5).contains(&us), "one-way write = {us} µs");
        tb.run_until_idle();
    }

    #[test]
    fn multi_packet_write_reassembles() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        tb.mem(0).write(src, &data);
        let watch = tb.add_watch(1, dst, data.len() as u64);
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: data.len() as u32,
            },
        );
        tb.run_until_watch(watch);
        assert_eq!(tb.mem(1).read(dst, data.len()), data);
        tb.run_until_idle();
    }

    #[test]
    fn read_fetches_remote_bytes() {
        let mut tb = testbed();
        let local = tb.pin(0, 1 << 20);
        let remote = tb.pin(1, 1 << 20);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        tb.mem(1).write(remote, &data);
        let h = tb.post(
            0,
            1,
            WorkRequest::Read {
                remote_vaddr: remote,
                local_vaddr: local,
                len: data.len() as u32,
            },
        );
        let t = tb.run_until_complete(0, h);
        assert!(t > 0);
        assert_eq!(tb.mem(0).read(local, data.len()), data);
        tb.run_until_idle();
    }

    #[test]
    fn read_latency_exceeds_write_latency() {
        // A read pays the remote PCIe fetch (~1.5 µs) on top of the wire
        // round trip; a one-way write does not wait for anything remote.
        let mut tb = testbed();
        let local = tb.pin(0, 1 << 20);
        let remote = tb.pin(1, 1 << 20);
        tb.mem(1).write(remote, &[1u8; 64]);
        let watch = tb.add_watch(0, local, 64);
        tb.post(
            0,
            1,
            WorkRequest::Read {
                remote_vaddr: remote,
                local_vaddr: local,
                len: 64,
            },
        );
        let t_read = tb.run_until_watch(watch);
        let us = t_read as f64 / MICROS as f64;
        assert!((3.5..7.0).contains(&us), "read RTT = {us} µs");
        tb.run_until_idle();
    }

    #[test]
    fn writes_complete_on_ack() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, &[9u8; 128]);
        let h = tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 128,
            },
        );
        let t = tb.run_until_complete(0, h);
        assert!(t > 0, "ACK observed");
        tb.run_until_idle();
        assert_eq!(tb.retransmissions(0), 0);
    }

    #[test]
    fn lossy_link_recovers_by_retransmission() {
        let mut tb = testbed();
        tb.set_loss_rate(0.05);
        let src = tb.pin(0, 4 << 20);
        let dst = tb.pin(1, 4 << 20);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
        tb.mem(0).write(src, &data);
        let mut handles = Vec::new();
        // Ten 20 KB writes over a 5 %-lossy link.
        for i in 0..10u64 {
            let off = i * 20_000;
            handles.push(tb.post(
                0,
                1,
                WorkRequest::Write {
                    remote_vaddr: dst + off,
                    local_vaddr: src + off,
                    len: 20_000,
                },
            ));
        }
        for h in handles {
            tb.run_until_complete(0, h);
        }
        tb.set_loss_rate(0.0);
        tb.run_until_idle();
        assert_eq!(tb.mem(1).read(dst, data.len()), data, "data survives loss");
        assert!(tb.retransmissions(0) > 0, "loss actually happened");
    }

    #[test]
    fn rpc_without_kernel_is_naked() {
        let mut tb = testbed();
        tb.pin(0, 1 << 20);
        tb.pin(1, 1 << 20);
        let h = tb.post(
            0,
            1,
            WorkRequest::Rpc {
                rpc_op: RpcOpCode(0x7777),
                params: Bytes::from_static(b"whatever"),
            },
        );
        // The params packet is ACKed (receipt) — completion still happens —
        // and the fabric counts the unmatched request.
        tb.run_until_complete(0, h);
        tb.run_until_idle();
        assert_eq!(tb.fabric(1).unmatched(), 1);
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = || {
            let mut tb = testbed();
            tb.set_loss_rate(0.02);
            let src = tb.pin(0, 1 << 20);
            let dst = tb.pin(1, 1 << 20);
            tb.mem(0).write(src, &[5u8; 50_000]);
            let h = tb.post(
                0,
                1,
                WorkRequest::Write {
                    remote_vaddr: dst,
                    local_vaddr: src,
                    len: 50_000,
                },
            );
            let t = tb.run_until_complete(0, h);
            tb.run_until_idle();
            (t, tb.retransmissions(0))
        };
        assert_eq!(run(), run(), "same seed, same trace");
    }
}
