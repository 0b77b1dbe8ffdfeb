//! One StRoM NIC and the host behind it (paper Fig. 1 / Fig. 4).
//!
//! A [`Nic`] is self-contained: host memory behind the TLB and the PCIe
//! DMA engine, the RoCE stack (state table, requester, responder,
//! retransmission timers, DCQCN pacing), the kernel fabric between the
//! two, the Controller's doorbell and status registers, and the ARP
//! cache. Every handler is a method over `&mut self` plus one borrowed
//! [`Ctx`] — the services the testbed lends it for the duration of one
//! call. Nothing here can name another NIC: a packet leaves through
//! [`Wire::carry`] and the far end learns of it from its own
//! [`NicEvent::FrameArrive`].
//!
//! Every latency component is charged explicitly:
//!
//! ```text
//! host post → MMIO → TX pipeline → payload DMA fetch → wire
//!     → RX store-and-forward (ICRC) → RX pipeline → protocol FSM
//!     → { DMA write to memory | kernel fabric | ACK generation }
//! ```

use std::collections::VecDeque;

use bytes::Bytes;

use strom_kernels::framework::KernelAction;
use strom_mem::{HostMemory, Segments, Tlb};
use strom_proto::{
    Completion, CompletionStatus, Dcqcn, DcqcnConfig, PacketDescriptor, PayloadSource, PostError,
    Requester, Responder, ResponderAction, RetransmissionTimer, StateTable, WorkRequest,
};
use strom_sim::time::{Time, TimeDelta};
use strom_sim::{Bandwidth, LinkSerializer, Pacer};
use strom_telemetry::{DropReason, TraceEvent, TraceSink, WireCounters};
use strom_wire::arp::{ArpCache, ArpPacket};
use strom_wire::bth::{Aeth, AethSyndrome, Psn, Qpn, Reth};
use strom_wire::ethernet::MacAddr;
use strom_wire::ipv4::Ipv4Addr;
use strom_wire::opcode::{Opcode, RpcOpCode};
use strom_wire::packet::{Packet, PacketError};
use strom_wire::segment::segment_message;

use crate::config::NicConfig;
use crate::controller::{CommandWord, StatusRegisters};
use crate::event::{Event, NicEvent, NodeId, Scheduler};
use crate::fabric::KernelFabric;
use crate::posted::{Posted, PostedWrites};
use crate::testbed::Requests;
use crate::watch::WatchTable;
use crate::wire::{wire_bytes, Wire};

/// A CPU fallback handler for RPC op-codes with no matching kernel
/// (§5.1: "either a fallback implementation on the remote CPU is
/// triggered (if configured a priori by the remote CPU) or an error code
/// is written back to the requesting node").
///
/// The handler runs on the remote host CPU: it receives the host memory
/// and the RPC parameters and returns the requester-side target address
/// plus the response bytes (sent back as an RDMA WRITE), or `None` to
/// stay silent. The NIC charges the interrupt/wakeup latency plus any
/// CPU time the handler reports.
pub trait CpuFallback {
    /// Handles one RPC on the host CPU.
    ///
    /// Returns `(target_address, response, cpu_time)`.
    fn handle(
        &mut self,
        mem: &mut HostMemory,
        qpn: Qpn,
        params: &Bytes,
    ) -> Option<(u64, Bytes, TimeDelta)>;
}

/// What the testbed lends a NIC for one call: the configuration, the
/// scheduling chokepoint, the wire, and the host-side observers
/// (completion table, memory watches).
pub(crate) struct Ctx<'a> {
    pub(crate) cfg: &'a NicConfig,
    pub(crate) sched: &'a mut Scheduler,
    pub(crate) wire: &'a mut Wire,
    pub(crate) requests: &'a mut Requests,
    pub(crate) watches: &'a mut WatchTable,
}

impl Ctx<'_> {
    /// Current simulated time: inside a handler, the firing time of the
    /// event being handled.
    fn now(&self) -> Time {
        self.sched.now()
    }
}

/// One built frame on its way to the wire, parked in a QP's paced
/// transmit queue while DCQCN holds it: either a request (arms the
/// retransmission timer on release) or a READ response (responder data
/// that must survive requester-side timeout flushes).
struct Tx {
    frame: Bytes,
    opcode: Opcode,
    qpn: Qpn,
    psn: Psn,
    /// When the payload is on the NIC (its DMA fetch done).
    payload_ready: Time,
    arm_timer: bool,
}

/// The NIC's reusable output buffers, one stack per kind. A handler
/// takes a buffer, has the protocol FSM or the kernel fabric fill it,
/// drains it and gives it back; a call it makes that re-enters (a kernel
/// `Done` dispatching a queued invocation, a send tap streaming into a
/// kernel) takes a second one. After warm-up nothing here allocates.
#[derive(Default)]
struct Buffers {
    packets: Vec<Vec<PacketDescriptor>>,
    completions: Vec<Vec<Completion>>,
    responder: Vec<Vec<ResponderAction>>,
    kernel: Vec<Vec<KernelAction>>,
}

/// Takes an empty buffer from `stack`.
fn take<T>(stack: &mut Vec<Vec<T>>) -> Vec<T> {
    stack.pop().unwrap_or_default()
}

/// Returns a drained buffer to `stack`.
fn give<T>(stack: &mut Vec<Vec<T>>, buf: Vec<T>) {
    debug_assert!(buf.is_empty(), "buffers go back drained");
    stack.push(buf);
}

/// Per-node NIC + host state.
pub(crate) struct Nic {
    /// This NIC's port on the wire; its MAC and IP derive from it.
    id: NodeId,
    pub(crate) mem: HostMemory,
    tlb: Tlb,
    state: StateTable,
    responder: Responder,
    requester: Requester,
    timer: RetransmissionTimer,
    pub(crate) fabric: KernelFabric,
    /// PCIe occupancy (shared by TX fetches, RX stores, kernel DMA).
    dma: LinkSerializer,
    /// DMA writes issued and not yet landed, oldest first; only the
    /// oldest has its [`NicEvent::DmaWriteDone`] pending.
    posted: PostedWrites,
    /// `DmaWriteDone` events filed and not yet handled.
    #[cfg(test)]
    write_events_pending: usize,
    /// Next time the host may issue a command (AVX2-store pacing, §7.1).
    next_cmd_issue: Time,
    /// Receive kernel tapped into incoming WRITE payload (§3.5).
    pub(crate) receive_tap: Option<RpcOpCode>,
    /// Kernel tapped into *outgoing* WRITE payload (send kernel, §3.5).
    pub(crate) send_tap: Option<RpcOpCode>,
    /// CPU fallback handlers by RPC op-code (§5.1).
    pub(crate) fallbacks: Vec<(RpcOpCode, Box<dyn CpuFallback>)>,
    /// Firing time of the earliest pending RetransmitCheck event, if any
    /// (dedup: one outstanding check per node keeps the event count
    /// linear).
    check_at: Option<Time>,
    /// Address-resolution cache (the open-source ARP module of §4.1).
    arp: ArpCache,
    /// Per-kernel stream occupancy: a kernel consumes `datapath / II`
    /// bytes per cycle (§3.4), so back-to-back payload queues behind its
    /// pipeline when II > 1.
    kernel_occ: Vec<(RpcOpCode, LinkSerializer)>,
    /// DCQCN reaction point: per-QP transmit rates, driven by received
    /// CNPs. Idle (all QPs at line rate) unless `cfg.cc` is on and
    /// congestion is signalled.
    dcqcn: Dcqcn,
    /// Per-QP transmit pacers enforcing the DCQCN rate (only used when
    /// `cfg.cc` is on; a CC-disabled testbed takes the exact pre-CC
    /// timing path).
    pacers: Vec<Pacer>,
    /// Per-QP queues of request packets awaiting their paced transmit
    /// slot. Pacing must bind at *release* time, not post time — a rate
    /// cut mid-message has to slow the packets still queued, which
    /// pre-computed admission times could never do.
    txq: Vec<VecDeque<Tx>>,
    /// The live [`NicEvent::PacerTick`] deadline per QP (dedup guard,
    /// same discipline as `check_at`).
    tick_at: Vec<Option<Time>>,
    /// Node at the far end of each queue pair, by QP number.
    qp_peer: Vec<Option<NodeId>>,
    /// The far end of a QP nobody connected: the other node of a
    /// two-node testbed (QPs were implicitly 0 ↔ 1 before clusters, and
    /// two-node flows that skip `connect_qp` — raw ACK probes — rely on
    /// it), nobody in a larger one.
    default_peer: Option<NodeId>,
    /// Testbed handle by the requester's dense work-request id; 0 for
    /// ids the NIC posted on its own behalf or that already completed.
    wr_handle: Vec<u64>,
    /// Wire datapath statistics this NIC counts itself; the status
    /// registers embed the block verbatim.
    counters: WireCounters,
    /// Where packet, DMA and kernel events are traced.
    trace: TraceSink,
    /// Work requests between the doorbell and the Controller: a
    /// [`NicEvent::CmdArrive`] names its request's slot here. Freed slots
    /// are reused, so commands cost no allocation.
    cmds: Vec<Option<WorkRequest>>,
    free_cmds: Vec<u32>,
    bufs: Buffers,
}

impl Nic {
    /// Builds node `id` of an `n`-node testbed.
    pub(crate) fn new(id: NodeId, n: usize, cfg: &NicConfig) -> Self {
        Nic {
            id,
            mem: HostMemory::new(),
            tlb: Tlb::new(),
            state: StateTable::new(cfg.num_qps),
            responder: Responder::new(cfg.num_qps, cfg.max_payload()),
            requester: Requester::new(cfg.num_qps, cfg.max_outstanding_reads, cfg.max_payload()),
            timer: RetransmissionTimer::new(cfg.num_qps, cfg.retransmit_timeout)
                .with_backoff_cap(cfg.backoff_shift_cap),
            fabric: KernelFabric::new(cfg.seed ^ (0xA + id as u64)),
            dma: LinkSerializer::new(cfg.pcie.bandwidth),
            posted: PostedWrites::default(),
            #[cfg(test)]
            write_events_pending: 0,
            next_cmd_issue: 0,
            receive_tap: None,
            send_tap: None,
            fallbacks: Vec::new(),
            check_at: None,
            arp: ArpCache::new(),
            kernel_occ: Vec::new(),
            dcqcn: Dcqcn::new(
                DcqcnConfig::for_line_rate(cfg.link_bandwidth.as_gbit_per_sec() * 1e9),
                cfg.num_qps,
            ),
            pacers: vec![Pacer::new(); cfg.num_qps],
            txq: (0..cfg.num_qps).map(|_| VecDeque::new()).collect(),
            tick_at: vec![None; cfg.num_qps],
            qp_peer: vec![None; cfg.num_qps],
            default_peer: (n == 2).then(|| 1 - id),
            wr_handle: Vec::new(),
            counters: WireCounters::default(),
            trace: TraceSink::default(),
            cmds: Vec::new(),
            free_cmds: Vec::new(),
            bufs: Buffers::default(),
        }
    }

    /// Threads the trace sink through the instrumented protocol layers.
    pub(crate) fn set_trace(&mut self, sink: &TraceSink) {
        self.trace = sink.clone();
        self.requester.set_trace(sink.clone());
        self.timer.set_trace(sink.clone());
        self.tlb.set_trace(sink.clone());
    }

    // ----- host driver ------------------------------------------------------

    /// Pins `len` bytes and installs the pages in the NIC TLB (the
    /// driver's pin + populate flow, §4.3). Returns the base address.
    pub(crate) fn pin(&mut self, len: u64) -> u64 {
        let (base, pages) = self.mem.pin(len).expect("pin failed");
        self.tlb.insert_region(base, &pages).expect("TLB full");
        base
    }

    /// Initializes this end of queue pair `qpn`, whose far end is `peer`.
    pub(crate) fn connect_qp(&mut self, qpn: Qpn, peer: NodeId) {
        // Both directions start at PSN 0 for reproducibility.
        self.state.init_qp(qpn, 0, 0);
        self.qp_peer[qpn as usize] = Some(peer);
    }

    /// The node at the far end of `qpn`.
    ///
    /// # Panics
    ///
    /// Panics if nobody connected `qpn` here and this is not a two-node
    /// testbed.
    fn peer_of(&self, qpn: Qpn) -> NodeId {
        let connected = self.qp_peer.get(qpn as usize).copied().flatten();
        connected
            .or(self.default_peer)
            .unwrap_or_else(|| panic!("qpn {qpn} on node {} was never connected", self.id))
    }

    /// Rings the doorbell for a work request the host posts on `qpn`,
    /// charging the host-side costs: software post overhead, the
    /// AVX2-store pacing interval, and the MMIO latency to the
    /// Controller.
    pub(crate) fn post(&mut self, qpn: Qpn, wr: WorkRequest, handle: u64, cx: &mut Ctx<'_>) {
        // A QP with no far end is refused here, at the host's call, not
        // when its first packet is built.
        self.peer_of(qpn);
        let arrive = self.issue_cmd(cx) + cx.cfg.pcie.mmio_latency;
        // Drive the real doorbell ABI: encode the request into the 32 B
        // AVX2 command word (§7.1) and let the Controller decode it back.
        // RPC parameters are staged in a host-side buffer the word points
        // at, as the driver does with WQE memory.
        let mut staged: Option<Bytes> = None;
        let wr = match CommandWord::encode(qpn, &wr, |p| {
            staged = Some(p.clone());
            0xFFFF_0000_0000 // Staging-slot address inside driver memory.
        }) {
            Some(word) => {
                let staged = staged;
                let (decoded_qpn, decoded) = word
                    .decode(|_, _| staged.expect("params were staged"))
                    .expect("own encoding decodes");
                debug_assert_eq!(decoded_qpn, qpn);
                decoded
            }
            // WriteInline has no doorbell form (NIC-internal only).
            None => wr,
        };
        self.counters.commands += 1;
        let slot = match self.free_cmds.pop() {
            Some(slot) => {
                self.cmds[slot as usize] = Some(wr);
                slot
            }
            None => {
                self.cmds.push(Some(wr));
                self.cmds.len() as u32 - 1
            }
        };
        self.schedule(cx, arrive, NicEvent::CmdArrive { qpn, slot, handle });
    }

    /// Invokes a kernel on this NIC from its own host (§5.2). The
    /// kernel's network output, if any, is transmitted on `qpn`.
    pub(crate) fn post_local_rpc(
        &mut self,
        qpn: Qpn,
        rpc_op: RpcOpCode,
        params: Bytes,
        cx: &mut Ctx<'_>,
    ) {
        // The command crosses MMIO to the Controller, which forwards it to
        // the kernel fabric directly — no network hop and no event: the
        // fabric is dispatched here with the right base time.
        let at = self.issue_cmd(cx) + cx.cfg.pcie.mmio_latency + cx.cfg.kernel_dispatch_time();
        self.invoke_kernel(rpc_op, qpn, params, at, cx);
    }

    /// When the host's next command store lands, after the software post
    /// overhead and the command issue interval.
    fn issue_cmd(&mut self, cx: &Ctx<'_>) -> Time {
        let t_store = (cx.now() + cx.cfg.host_post_overhead).max(self.next_cmd_issue);
        self.next_cmd_issue = t_store + cx.cfg.pcie.cmd_issue_interval;
        t_store
    }

    /// The Controller's status registers (§4.3), less the fault counters
    /// the wire keeps for this node.
    pub(crate) fn status(&self) -> StatusRegisters {
        StatusRegisters {
            wire: self.counters,
            retransmissions: self.requester.retransmissions(),
            timeouts: self.timer.expirations(),
            backoff_events: self.timer.backoff_events(),
            qps_in_error: self.requester.qps_in_error(),
            kernel_invocations: self.fabric.completed(),
            rpc_unmatched: self.fabric.unmatched(),
        }
    }

    /// Whether `qpn` is in the terminal error state.
    pub(crate) fn qp_errored(&self, qpn: Qpn) -> bool {
        self.requester.is_errored(qpn)
    }

    /// Whether `qpn` still has unacknowledged messages or outstanding
    /// reads.
    pub(crate) fn qp_has_outstanding(&self, qpn: Qpn) -> bool {
        self.requester.has_outstanding(qpn)
    }

    /// When the kernel with `op` will have finished consuming all stream
    /// payload fed to it so far (0 if it has consumed nothing).
    pub(crate) fn kernel_busy_until(&self, op: RpcOpCode) -> Time {
        self.kernel_occ
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0, |(_, s)| s.busy_until())
    }

    // ----- address resolution -----------------------------------------------

    fn ip(&self) -> Ipv4Addr {
        Ipv4Addr::from_node_id(self.id as u8)
    }

    /// Sends an ARP who-has for `peer`.
    pub(crate) fn arp_request(&mut self, peer: NodeId, cx: &mut Ctx<'_>) {
        let req = ArpPacket::request(
            MacAddr::from_node_id(self.id as u32),
            self.ip(),
            Ipv4Addr::from_node_id(peer as u8),
        );
        self.send_arp(peer, &req, cx);
    }

    /// Whether this node has resolved the MAC address of every other
    /// node of a `nodes`-node testbed.
    pub(crate) fn resolved(&self, nodes: usize) -> bool {
        (0..nodes)
            .filter(|&p| p != self.id)
            .all(|p| self.arp.lookup(Ipv4Addr::from_node_id(p as u8)).is_some())
    }

    fn send_arp(&mut self, dst: NodeId, pkt: &ArpPacket, cx: &mut Ctx<'_>) {
        let tx_ready = cx.now() + cx.cfg.tx_pipeline_time();
        cx.wire
            .carry_arp(self.id, dst, pkt.encode(), tx_ready, cx.cfg, cx.sched);
    }

    fn on_arp(&mut self, frame: &[u8], cx: &mut Ctx<'_>) {
        let Some(pkt) = ArpPacket::parse(frame) else {
            self.counters.frames_parse_dropped += 1;
            self.trace_drop(DropReason::Malformed);
            return;
        };
        let my_mac = MacAddr::from_node_id(self.id as u32);
        if let Some(reply) = self.arp.on_packet(&pkt, self.ip(), my_mac) {
            // The reply's target is the requester; its IP names the node.
            let dst = reply
                .target_ip
                .node_id()
                .expect("ARP requester is a testbed node");
            self.send_arp(usize::from(dst), &reply, cx);
        }
    }

    // ----- event handlers -------------------------------------------------

    /// Runs the handler for one of this NIC's events.
    pub(crate) fn handle(&mut self, ev: NicEvent, cx: &mut Ctx<'_>) {
        match ev {
            NicEvent::CmdArrive { qpn, slot, handle } => self.on_cmd(qpn, slot, handle, cx),
            NicEvent::FrameArrive { frame } => self.on_frame(frame, cx),
            NicEvent::DmaWriteDone => self.on_dma_write_done(cx),
            NicEvent::KernelDmaReadDone {
                op,
                tag,
                vaddr,
                len,
            } => self.on_kernel_read_done(op, tag, vaddr, len, cx),
            NicEvent::RetransmitCheck => self.on_retransmit_check(cx),
            NicEvent::PacerTick { qpn } => self.on_pacer_tick(qpn, cx),
            NicEvent::ArpArrive { frame } => self.on_arp(&frame, cx),
        }
    }

    fn schedule(&self, cx: &mut Ctx<'_>, at: Time, ev: NicEvent) {
        cx.sched.schedule(at, Event::Nic { node: self.id, ev });
    }

    fn trace_drop(&self, reason: DropReason) {
        self.trace.emit(TraceEvent::PacketDrop {
            node: self.id as u8,
            reason,
        });
    }

    fn trace_kernel_enter(&self, op: RpcOpCode) {
        self.trace.emit(TraceEvent::KernelEnter {
            node: self.id as u8,
            op: op.0,
        });
    }

    fn on_cmd(&mut self, qpn: Qpn, slot: u32, handle: u64, cx: &mut Ctx<'_>) {
        let now = cx.now();
        // Reads land in the bounded multi-queue; if it is full, back the
        // doorbell off *before* posting, leaving the request in its slot.
        let parked = &mut self.cmds[slot as usize];
        if matches!(parked, Some(WorkRequest::Read { .. })) && self.requester.read_queue_full() {
            let retry = now + 500 * strom_sim::time::NANOS;
            self.schedule(cx, retry, NicEvent::CmdArrive { qpn, slot, handle });
            return;
        }
        let wr = parked.take().expect("a command waits in its slot");
        self.free_cmds.push(slot);
        match self.post_and_send(qpn, wr, handle, now, cx) {
            Ok(()) => {}
            Err(PostError::MultiQueueFull) => {
                unreachable!("read-queue fullness is pre-checked above")
            }
            Err(PostError::QpInError) => {
                // The QP went terminal while the doorbell was in flight:
                // complete immediately with an error instead of wedging
                // the host, which may be blocked on this handle.
                cx.requests
                    .finish(handle, now, CompletionStatus::RetryExceeded);
            }
            Err(e) => panic!("post failed on node {}: {e}", self.id),
        }
    }

    /// Posts `wr` on `qpn` and sends its packets from `now`; `handle` is
    /// the host's (0 for requests the NIC makes on its own behalf).
    fn post_and_send(
        &mut self,
        qpn: Qpn,
        wr: WorkRequest,
        handle: u64,
        now: Time,
        cx: &mut Ctx<'_>,
    ) -> Result<(), PostError> {
        let mut packets = take(&mut self.bufs.packets);
        let posted = self
            .requester
            .post_into(&mut self.state, qpn, wr, &mut packets);
        match posted {
            Ok(wr_id) if handle != 0 => {
                let slot = wr_id as usize;
                if self.wr_handle.len() <= slot {
                    self.wr_handle.resize(slot + 1, 0);
                }
                self.wr_handle[slot] = handle;
            }
            _ => {}
        }
        for desc in packets.drain(..) {
            self.send_descriptor_at(&desc, now, cx);
        }
        give(&mut self.bufs.packets, packets);
        posted.map(|_| ())
    }

    fn on_frame(&mut self, frame: Bytes, cx: &mut Ctx<'_>) {
        let now = cx.now();
        self.counters.frames_rx += 1;
        let pkt = match Packet::parse(&frame) {
            Ok(p) => p,
            Err(e) => {
                // A checksum catching in-flight corruption (ICRC over
                // BTH+payload, IPv4 header checksum) degrades the frame
                // into a loss the retransmission machinery recovers from;
                // count it separately from structurally malformed frames.
                if matches!(e, PacketError::Icrc | PacketError::Ip) {
                    self.counters.frames_crc_dropped += 1;
                    self.trace_drop(DropReason::Corruption);
                } else {
                    self.counters.frames_parse_dropped += 1;
                    self.trace_drop(DropReason::Malformed);
                }
                return;
            }
        };
        self.trace.emit(TraceEvent::PacketRx {
            node: self.id as u8,
            opcode: pkt.opcode() as u8,
            qpn: pkt.bth.dest_qp,
            psn: pkt.bth.psn,
            payload_len: pkt.payload.len() as u32,
        });
        let qpn = pkt.bth.dest_qp;
        match pkt.opcode() {
            Opcode::Acknowledge => {
                let aeth = pkt.aeth.expect("ACK carries an AETH");
                self.on_ack(qpn, pkt.bth.psn, aeth, cx);
            }
            Opcode::ReadResponseFirst
            | Opcode::ReadResponseMiddle
            | Opcode::ReadResponseLast
            | Opcode::ReadResponseOnly => {
                let mut acked = take(&mut self.bufs.completions);
                let placed = self.requester.on_read_response_into(
                    &mut self.state,
                    qpn,
                    pkt.bth.psn,
                    &pkt.payload,
                    &mut acked,
                );
                // Messages the final response acknowledged complete now,
                // ahead of the read, whose data must land first.
                for c in acked.drain(..) {
                    self.record_completion(&c, now, cx);
                }
                give(&mut self.bufs.completions, acked);
                if let Some((addr, completion)) = placed {
                    let done = self.schedule_dma_write(
                        addr,
                        &pkt.payload,
                        now,
                        cx.cfg.pcie.bypass_overhead,
                        cx,
                    );
                    if let Some(c) = completion {
                        self.record_completion(&c, done, cx);
                    }
                    // Every response packet is forward progress: restart
                    // the retransmission timer (standard RC requester
                    // behaviour), or a multi-millisecond response stream
                    // would spuriously time out mid-flight.
                    self.refresh_timer(qpn, cx);
                } // else: duplicate/out-of-order response, dropped.
                  // A CE mark on a read response means the responder→
                  // requester direction is congested: echo a CNP so the
                  // *responder's* DCQCN cuts its read-response rate (the
                  // mirror of the responder-side echo for request data in
                  // `strom-proto`). Duplicates still count — each marked
                  // packet is evidence of a congested queue.
                if cx.cfg.cc && pkt.ecn == strom_wire::ECN_CE {
                    self.send_cnp(qpn, cx);
                }
            }
            Opcode::Cnp => {
                // Congestion echo: apply the DCQCN rate cut to the QP the
                // marked data packet came from. CNPs are pure signals —
                // no PSN, no ACK, never retransmitted.
                self.counters.cnps_rx += 1;
                self.dcqcn.on_cnp(qpn as usize, now);
            }
            _ => {
                let mut actions = take(&mut self.bufs.responder);
                self.responder
                    .on_packet_into(&mut self.state, &pkt, &mut actions);
                self.exec_responder_actions(&pkt, &mut actions, cx);
                give(&mut self.bufs.responder, actions);
            }
        }
    }

    fn on_ack(&mut self, qpn: Qpn, psn: Psn, aeth: Aeth, cx: &mut Ctx<'_>) {
        let now = cx.now();
        let mut completions = take(&mut self.bufs.completions);
        let mut retransmit = take(&mut self.bufs.packets);
        self.requester.on_ack_into(
            &mut self.state,
            qpn,
            psn,
            aeth,
            &mut completions,
            &mut retransmit,
        );
        for c in completions.drain(..) {
            self.record_completion(&c, now, cx);
        }
        for desc in retransmit.drain(..) {
            self.send_descriptor_at(&desc, now, cx);
        }
        give(&mut self.bufs.completions, completions);
        give(&mut self.bufs.packets, retransmit);
        self.refresh_timer(qpn, cx);
    }

    /// Lands the oldest posted write, then files the event of the next.
    fn on_dma_write_done(&mut self, cx: &mut Ctx<'_>) {
        #[cfg(test)]
        {
            self.write_events_pending -= 1;
        }
        let Posted { vaddr, len, .. } = *self.posted.head().expect("a posted write is waiting");
        // The NIC writes through the TLB: translate and store physically,
        // straight from the queue's chunks.
        let mut segs = self
            .tlb
            .translate_command(vaddr, len)
            .unwrap_or_else(|e| panic!("DMA write fault on node {}: {e}", self.id));
        let (mem, mut paddr, mut room) = (&mut self.mem, 0, 0);
        self.posted.pop(|mut piece| {
            while !piece.is_empty() {
                if room == 0 {
                    let seg = segs.next().expect("the segments cover the write");
                    (paddr, room) = (seg.paddr, seg.len as usize);
                }
                let n = room.min(piece.len());
                mem.phys_write(paddr, &piece[..n]);
                (paddr, room, piece) = (paddr + n as u64, room - n, &piece[n..]);
            }
        });
        cx.watches
            .on_write(self.id, vaddr, u64::from(len), cx.now());
        if let Some(&Posted { at, seq, .. }) = self.posted.head() {
            self.schedule_write_done(at, seq, cx);
        }
    }

    /// Files the event of the new head of the posted writes at the key
    /// `(at, seq)` reserved when it was issued.
    fn schedule_write_done(&mut self, at: Time, seq: u64, cx: &mut Ctx<'_>) {
        #[cfg(test)]
        {
            self.write_events_pending += 1;
        }
        let ev = Event::Nic {
            node: self.id,
            ev: NicEvent::DmaWriteDone,
        };
        cx.sched.schedule_reserved(at, seq, ev);
    }

    fn on_kernel_read_done(
        &mut self,
        op: RpcOpCode,
        tag: u32,
        vaddr: u64,
        len: u32,
        cx: &mut Ctx<'_>,
    ) {
        // Read the bytes *at completion time* — a concurrently modified
        // object yields a torn read, which is what the consistency kernel
        // exists to catch.
        let data = self.dma_read_bytes(vaddr, len);
        self.run_kernel(op, cx.now(), cx, |fabric, out| {
            fabric.dma_data(op, tag, data, out)
        });
    }

    fn on_retransmit_check(&mut self, cx: &mut Ctx<'_>) {
        let now = cx.now();
        // Only the live check — the one `schedule_check` most recently
        // filed — may act. Re-arming at an *earlier* deadline orphans the
        // previously queued event; if an orphan were allowed to clear the
        // dedup state and fall through to `schedule_check`, every orphan
        // would mint a fresh duplicate on each firing and the duplicate
        // population would never decay (a self-sustaining event storm
        // under congestion-driven retransmission).
        if self.check_at != Some(now) {
            return;
        }
        self.check_at = None;
        for qpn in self.timer.expired(now) {
            if !self.requester.has_outstanding(qpn) {
                continue;
            }
            // Whether the QP goes terminal or goes back N, its requests
            // still parked in the pacer queue are superseded — failed
            // with the window, or about to go out again with it — so
            // drop them. Paced READ responses stay: they are
            // responder-side data for the *peer's* read, not part of
            // this requester window.
            self.txq[qpn as usize].retain(|tx| !tx.arm_timer);
            // Retry budget (IB retry_cnt): after max_retries consecutive
            // timeouts without progress the QP goes terminal instead of
            // retransmitting forever. Everything in flight completes with
            // an error status so the host observes the failure.
            if self.timer.attempts(qpn) > cx.cfg.max_retries {
                for c in self.requester.fail_qp(qpn) {
                    self.record_completion(&c, now, cx);
                }
                continue;
            }
            // Go-back-N: the timeout retransmits every outstanding packet.
            let mut packets = take(&mut self.bufs.packets);
            self.requester.on_timeout_into(qpn, &mut packets);
            for desc in packets.drain(..) {
                self.send_descriptor_at(&desc, now, cx);
            }
            give(&mut self.bufs.packets, packets);
        }
        self.schedule_check(cx);
    }

    // ----- protocol execution ---------------------------------------------

    /// Executes (and drains) the responder's actions for `pkt`.
    fn exec_responder_actions(
        &mut self,
        pkt: &Packet,
        actions: &mut Vec<ResponderAction>,
        cx: &mut Ctx<'_>,
    ) {
        let now = cx.now();
        for action in actions.drain(..) {
            match action {
                ResponderAction::WritePayload { vaddr, data } => {
                    self.counters.payload_bytes_rx += data.len() as u64;
                    let overhead = cx.cfg.pcie.bypass_overhead;
                    self.schedule_dma_write(vaddr, &data, now, overhead, cx);
                    // Receive kernel tap: bump-in-the-wire copy (§3.5),
                    // no extra latency on the main path.
                    if let Some(op) = self.receive_tap {
                        let (qpn, last) = (pkt.bth.dest_qp, pkt.opcode().ends_message());
                        let done = self.kernel_consume(op, data.len(), now, cx);
                        self.run_kernel(op, done, cx, |fabric, out| {
                            fabric.stream(op, qpn, data, last, out)
                        });
                    }
                }
                ResponderAction::SendAck { qpn, psn, msn } => {
                    self.send_ack(qpn, psn, msn, AethSyndrome::Ack, cx);
                }
                ResponderAction::SendNakSequenceError { qpn, psn, msn } => {
                    self.send_ack(qpn, psn, msn, AethSyndrome::NakSequenceError, cx);
                }
                ResponderAction::ReadResponse {
                    qpn,
                    first_psn,
                    vaddr,
                    len,
                } => {
                    self.send_read_response(qpn, first_psn, vaddr, len, cx);
                }
                ResponderAction::RpcInvoke {
                    qpn,
                    rpc_op,
                    params,
                } => {
                    let at = now + cx.cfg.kernel_dispatch_time();
                    // No kernel matched: try the CPU fallback (§5.1), else
                    // NAK so the requester observes the failure.
                    if !self.invoke_kernel(rpc_op, qpn, params.clone(), at, cx)
                        && !self.run_cpu_fallback(rpc_op, qpn, &params, cx)
                    {
                        let syndrome = AethSyndrome::NakRemoteOperationalError;
                        self.send_ack(qpn, pkt.bth.psn, 0, syndrome, cx);
                    }
                }
                ResponderAction::RpcPayload {
                    qpn,
                    rpc_op,
                    data,
                    last,
                } => {
                    let at = self
                        .kernel_consume(rpc_op, data.len(), now, cx)
                        .max(now + cx.cfg.kernel_dispatch_time());
                    self.run_kernel(rpc_op, at, cx, |fabric, out| {
                        fabric.stream(rpc_op, qpn, data, last, out)
                    });
                }
                ResponderAction::SendCnp { qpn } => self.send_cnp(qpn, cx),
                ResponderAction::DroppedDuplicate | ResponderAction::DroppedInvalid => {}
            }
        }
    }

    /// Invokes the kernel matching `op` and executes what it emits from
    /// `at`. Returns `false` if no kernel matched.
    fn invoke_kernel(
        &mut self,
        op: RpcOpCode,
        qpn: Qpn,
        params: Bytes,
        at: Time,
        cx: &mut Ctx<'_>,
    ) -> bool {
        let mut actions = take(&mut self.bufs.kernel);
        let matched = self.fabric.invoke(op, qpn, params, &mut actions);
        if matched {
            self.trace_kernel_enter(op);
            self.exec_kernel_actions(op, &mut actions, at, cx);
        }
        give(&mut self.bufs.kernel, actions);
        matched
    }

    /// Runs `dispatch` against the kernel fabric with one of the NIC's
    /// action buffers and executes what the kernel with `op` emitted,
    /// from `now`.
    fn run_kernel(
        &mut self,
        op: RpcOpCode,
        now: Time,
        cx: &mut Ctx<'_>,
        dispatch: impl FnOnce(&mut KernelFabric, &mut Vec<KernelAction>) -> bool,
    ) {
        let mut actions = take(&mut self.bufs.kernel);
        if dispatch(&mut self.fabric, &mut actions) {
            self.exec_kernel_actions(op, &mut actions, now, cx);
        }
        give(&mut self.bufs.kernel, actions);
    }

    /// Executes (and drains) actions the kernel with `op` emitted.
    fn exec_kernel_actions(
        &mut self,
        op: RpcOpCode,
        actions: &mut Vec<KernelAction>,
        now: Time,
        cx: &mut Ctx<'_>,
    ) {
        for action in actions.drain(..) {
            match action {
                KernelAction::DmaRead { tag, vaddr, len } => {
                    let (_, occ_end) =
                        self.dma
                            .admit_with_overhead(now, u64::from(len), cx.cfg.pcie.cmd_overhead);
                    let done = occ_end + cx.cfg.pcie.read_rtt_base;
                    let ev = NicEvent::KernelDmaReadDone {
                        op,
                        tag,
                        vaddr,
                        len,
                    };
                    self.schedule(cx, done, ev);
                }
                KernelAction::DmaWrite { vaddr, data } => {
                    // Kernel-issued stores are random-access commands.
                    self.schedule_dma_write(vaddr, &data, now, cx.cfg.pcie.cmd_overhead, cx);
                }
                KernelAction::RoceSend {
                    qpn,
                    remote_vaddr,
                    data,
                } => {
                    // A send the requester refuses is dropped; the
                    // kernel's `Done` still retires its slot.
                    let wr = WorkRequest::WriteInline { remote_vaddr, data };
                    if self.post_and_send(qpn, wr, 0, now, cx).is_err() {
                        self.trace_drop(DropReason::SendRefused);
                    }
                }
                KernelAction::Forward { .. } => {
                    // A Forward leaving the *top-level* kernel has no next
                    // stage: the data was already delivered to host memory
                    // by the RPC WRITE path (bump-in-the-wire), so the
                    // fabric drops it. Inside a KernelChain, Forward is
                    // consumed by the chain itself and never reaches here.
                }
                KernelAction::Done => {
                    self.trace.emit(TraceEvent::KernelExit {
                        node: self.id as u8,
                        op: op.0,
                    });
                    self.run_kernel(op, now, cx, |fabric, out| {
                        fabric.done(op, out);
                        true
                    });
                }
            }
        }
    }

    // ----- transmission ---------------------------------------------------

    /// Builds and sends a descriptor's packet.
    fn send_descriptor_at(&mut self, desc: &PacketDescriptor, now: Time, cx: &mut Ctx<'_>) {
        let (op, qpn, psn, reth) = (desc.opcode, desc.qpn, desc.psn, desc.reth);
        self.emit(op, qpn, psn, reth, None, &desc.payload, now, true, cx);
    }

    fn send_ack(&mut self, qpn: Qpn, psn: Psn, msn: u32, syndrome: AethSyndrome, cx: &mut Ctx<'_>) {
        let aeth = Some(Aeth { syndrome, msn });
        let (op, payload) = (Opcode::Acknowledge, &PayloadSource::None);
        self.emit(op, qpn, psn, None, aeth, payload, cx.now(), false, cx);
    }

    /// Echoes a CE mark back to the sender as a bare CNP: no payload, no
    /// AETH, PSN 0 (CNPs sit outside the PSN space and are never acked or
    /// retransmitted — losing one just defers the cut to the next mark).
    fn send_cnp(&mut self, qpn: Qpn, cx: &mut Ctx<'_>) {
        self.counters.cnps_tx += 1;
        let (op, payload) = (Opcode::Cnp, &PayloadSource::None);
        self.emit(op, qpn, 0, None, None, payload, cx.now(), false, cx);
    }

    fn send_read_response(
        &mut self,
        qpn: Qpn,
        first_psn: Psn,
        vaddr: u64,
        len: u32,
        cx: &mut Ctx<'_>,
    ) {
        let now = cx.now();
        let msn = 0; // The AETH MSN is informational for responses here.
        for (i, seg) in segment_message(len as usize, cx.cfg.max_payload()).enumerate() {
            // Per-packet DMA fetch: response packet i streams out as soon
            // as its chunk has crossed PCIe (pipelined, not
            // store-the-whole-message).
            let (vaddr, len) = (vaddr + seg.offset as u64, seg.len as u32);
            let chunk = &PayloadSource::Host { vaddr, len };
            let opcode = seg.kind.read_response_opcode();
            let aeth = opcode.has_aeth().then_some(Aeth {
                syndrome: AethSyndrome::Ack,
                msn,
            });
            let psn = strom_proto::psn_add(first_psn, i as u32);
            self.emit(opcode, qpn, psn, None, aeth, chunk, now, false, cx);
        }
    }

    /// Builds the packet that goes to the far end of `qpn` and sends it.
    ///
    /// The frame is built once, here, into the one buffer it travels in
    /// ([`Packet::build`]): the headers at fixed offsets, a host payload
    /// DMA-fetched through the TLB straight into its slot (ready once the
    /// fetch issued at `now` has crossed PCIe), an inline one copied in,
    /// the ICRC folded over it. Outgoing WRITE payload is tapped into the
    /// send kernel (§3.5) as it streams to the MAC. Then the frame goes
    /// through the QP's pacer queue when DCQCN governs it, straight to
    /// the wire otherwise. `arm_timer` marks a request packet, which arms
    /// the retransmission timer when it leaves.
    #[allow(clippy::too_many_arguments)] // Packet::new's, plus when and how to send.
    fn emit(
        &mut self,
        opcode: Opcode,
        qpn: Qpn,
        psn: Psn,
        reth: Option<Reth>,
        aeth: Option<Aeth>,
        payload: &PayloadSource,
        now: Time,
        arm_timer: bool,
        cx: &mut Ctx<'_>,
    ) {
        let (src, dst) = (self.id as u32, self.peer_of(qpn) as u32);
        let mut pkt = Packet::new(src, dst, opcode, qpn, psn, reth, aeth, Bytes::new());
        // Data packets go out ECN-capable so switches can mark them
        // instead of dropping. Control traffic (ACKs, CNPs) stays
        // Not-ECT: cutting rates on ACK marks would punish the wrong
        // direction.
        if cx.cfg.cc && opcode.has_payload() {
            pkt.ecn = strom_wire::ECN_ECT0;
        }
        let len = payload.len() as usize;
        let (frame, payload_ready) = match payload {
            PayloadSource::None => (pkt.build(0, |_| {}), now),
            PayloadSource::Inline(b) => (pkt.build(len, |s| s.copy_from_slice(b)), now),
            &PayloadSource::Host { vaddr, len } => {
                let frame = pkt.build(len as usize, self.dma_read(vaddr, len));
                (frame, self.dma_fetch_ready(u64::from(len), now, cx))
            }
        };
        // Send kernel (§3.5): outgoing WRITE payload is tapped into the
        // kernel as it streams to the MAC, without altering the packet.
        // The tap holds a slice of the frame, the payload before its ICRC.
        if len > 0
            && matches!(
                opcode,
                Opcode::WriteFirst | Opcode::WriteMiddle | Opcode::WriteLast | Opcode::WriteOnly
            )
        {
            if let Some(op) = self.send_tap {
                let end = frame.len() - strom_wire::icrc::ICRC_LEN;
                let (data, last) = (frame.slice(end - len..end), opcode.ends_message());
                let done = self.kernel_consume(op, data.len(), now, cx);
                self.run_kernel(op, done, cx, |fabric, out| {
                    fabric.stream(op, qpn, data, last, out)
                });
            }
        }
        let tx = Tx {
            frame,
            opcode,
            qpn,
            psn,
            payload_ready,
            arm_timer,
        };
        // DCQCN intercepts both data directions: requester packets (the
        // ones that arm the retransmission timer) and READ responses —
        // a READ-heavy incast is congested by responder→requester data,
        // so the responder's return stream must obey its rate too.
        // Packets park in a per-QP queue and a PacerTick releases one
        // per paced slot, so a rate cut mid-message slows everything
        // still queued. Pure control (ACKs, NAKs, CNPs) bypasses the
        // pacer: delaying the congestion signal would defeat it.
        if cx.cfg.cc && (arm_timer || opcode.is_read_response()) {
            self.txq[qpn as usize].push_back(tx);
            self.schedule_pacer_tick(qpn, cx);
            return;
        }
        self.transmit(tx, cx);
    }

    /// Schedules the live PacerTick for `qpn` at its next paced slot, if
    /// the queue is non-empty and no tick is already pending.
    fn schedule_pacer_tick(&mut self, qpn: Qpn, cx: &mut Ctx<'_>) {
        let q = qpn as usize;
        if self.tick_at[q].is_some() || self.txq[q].is_empty() {
            return;
        }
        let at = cx.now().max(self.pacers[q].next_ready());
        self.tick_at[q] = Some(at);
        self.schedule(cx, at, NicEvent::PacerTick { qpn });
    }

    /// Releases the head of one QP's paced transmit queue at the DCQCN
    /// rate *read at release time* — the whole point of queueing.
    fn on_pacer_tick(&mut self, qpn: Qpn, cx: &mut Ctx<'_>) {
        let (q, now) = (qpn as usize, cx.now());
        // Same staleness discipline as `on_retransmit_check`: only the
        // most recently scheduled tick may act (a timeout flush may have
        // rescheduled underneath an in-flight tick).
        if self.tick_at[q] != Some(now) {
            return;
        }
        self.tick_at[q] = None;
        let Some(tx) = self.txq[q].pop_front() else {
            return;
        };
        let bits = self.dcqcn.rate(q, now);
        let rate = Bandwidth::gbit_per_sec(bits / 1e9);
        self.pacers[q].pace(now, wire_bytes(&tx.frame), rate);
        self.transmit(tx, cx);
        self.schedule_pacer_tick(qpn, cx);
    }

    /// Puts a frame on the wire: TX pipeline, link serialization, then
    /// whatever the wire is made of. Arms the retransmission timer for
    /// request packets.
    fn transmit(&mut self, tx: Tx, cx: &mut Ctx<'_>) {
        let tx_ready = (cx.now() + cx.cfg.tx_pipeline_time()).max(tx.payload_ready);
        let wire_bytes = wire_bytes(&tx.frame);
        let wire_end = cx.wire.serialize(self.id, tx_ready, wire_bytes);
        if tx.arm_timer {
            self.timer.arm(tx.qpn, wire_end);
            self.schedule_check(cx);
        }
        self.trace.emit(TraceEvent::PacketTx {
            node: self.id as u8,
            opcode: tx.opcode as u8,
            qpn: tx.qpn,
            psn: tx.psn,
            wire_bytes: wire_bytes as u32,
        });
        let dst = self.peer_of(tx.qpn);
        cx.wire
            .carry(self.id, dst, tx.frame, wire_end, cx.cfg, cx.sched);
    }

    // ----- helpers ----------------------------------------------------------

    /// Starts a DMA read of `len` bytes at `vaddr` through the TLB (the DMA
    /// engine's path): traces and translates it now — a fault panics
    /// before anything is allocated — and returns the copy, split at page
    /// boundaries, of the bytes from host memory into the buffer the
    /// caller builds.
    fn dma_read(&self, vaddr: u64, len: u32) -> impl FnOnce(&mut [u8]) + '_ {
        let segs = self.dma_segments(vaddr, len);
        move |buf| self.dma_fill(segs, buf)
    }

    /// A kernel DMA read of `len` bytes at `vaddr` into one exact-size
    /// buffer, traced and translated as [`Nic::dma_read`]. A read inside
    /// one page and one chunk of host memory (every bucket and value
    /// read) is copied straight out of its slice; one that spans them
    /// fills a zeroed buffer piece by piece.
    fn dma_read_bytes(&self, vaddr: u64, len: u32) -> Bytes {
        let segs = self.dma_segments(vaddr, len);
        if segs.len() == 1 {
            let seg = segs.clone().next().expect("one segment");
            if let Some(bytes) = self.mem.phys_slice(seg.paddr, len as usize) {
                return Bytes::copy_from_slice(bytes);
            }
        }
        Bytes::from_fn(len as usize, |buf| self.dma_fill(segs, buf))
    }

    /// Traces a DMA read and translates it into its physical segments;
    /// panics on a fault.
    fn dma_segments(&self, vaddr: u64, len: u32) -> Segments<'_> {
        self.trace.emit(TraceEvent::DmaRead {
            node: self.id as u8,
            vaddr,
            len,
        });
        self.tlb
            .translate_command(vaddr, len)
            .unwrap_or_else(|e| panic!("DMA read fault on node {}: {e}", self.id))
    }

    /// Copies the bytes of `segs` from host memory into `buf`, in order.
    fn dma_fill(&self, segs: Segments<'_>, buf: &mut [u8]) {
        let mut at = 0;
        for seg in segs {
            let end = at + seg.len as usize;
            self.mem.phys_read(seg.paddr, &mut buf[at..end]);
            at = end;
        }
    }

    /// When `len` payload bytes fetched from host memory at `now` are on
    /// the NIC: PCIe occupancy of a Descriptor Bypass read plus the
    /// read round trip.
    fn dma_fetch_ready(&mut self, len: u64, now: Time, cx: &Ctx<'_>) -> Time {
        let (_, occ_end) = self
            .dma
            .admit_with_overhead(now, len, cx.cfg.pcie.bypass_overhead);
        occ_end + cx.cfg.pcie.read_rtt_base
    }

    /// Posts a DMA write: PCIe occupancy + posted-write latency, then
    /// the bytes land (and watches fire). Returns the landing time.
    /// `overhead` distinguishes stream-oriented stores (Descriptor
    /// Bypass) from random kernel-issued commands.
    ///
    /// The write's event seq is reserved now, so it fires at the same
    /// `(time, seq)` as an event scheduled here would; the write itself
    /// waits in [`Self::posted`], and its event is filed only once it
    /// heads that queue.
    fn schedule_dma_write(
        &mut self,
        vaddr: u64,
        data: &Bytes,
        now: Time,
        overhead: Time,
        cx: &mut Ctx<'_>,
    ) -> Time {
        let len = data.len() as u32;
        self.trace.emit(TraceEvent::DmaWrite {
            node: self.id as u8,
            vaddr,
            len,
        });
        let (_, occ_end) = self.dma.admit_with_overhead(now, u64::from(len), overhead);
        let at = occ_end + cx.cfg.pcie.write_post_latency;
        let seq = cx.sched.queue.reserve();
        if self.posted.push(at, seq, vaddr, data) {
            self.schedule_write_done(at, seq, cx);
        }
        at
    }

    /// When the kernel with `op` finishes consuming `bytes` of stream
    /// payload submitted at `now` — the §3.4 line-rate condition: an
    /// II = 1 kernel consumes one datapath word per cycle and never lags
    /// the wire; an II > 1 kernel becomes the bottleneck.
    fn kernel_consume(&mut self, op: RpcOpCode, bytes: usize, now: Time, cx: &Ctx<'_>) -> Time {
        let Some(cycles) = self.fabric.cycles_per_word(op) else {
            return now;
        };
        let idx = match self.kernel_occ.iter().position(|(o, _)| *o == op) {
            Some(idx) => idx,
            None => {
                let bytes_per_sec =
                    cx.cfg.datapath_bytes as f64 * cx.cfg.clock.mhz() * 1e6 / cycles as f64;
                let rate = Bandwidth::gbyte_per_sec(bytes_per_sec / 1e9);
                self.kernel_occ.push((op, LinkSerializer::new(rate)));
                self.kernel_occ.len() - 1
            }
        };
        self.kernel_occ[idx].1.admit(now, bytes as u64).1
    }

    /// Runs the CPU fallback for an unmatched RPC, if one is configured.
    ///
    /// Returns `true` if a handler accepted the request. Timing: the NIC
    /// DMA-writes the request to a host queue, the polling CPU picks it
    /// up, computes, and posts the response as an ordinary WRITE. A
    /// response the requester refuses (unknown QP, or a QP in error) is
    /// dropped and traced as a [`DropReason::SendRefused`] drop.
    fn run_cpu_fallback(
        &mut self,
        rpc_op: RpcOpCode,
        qpn: Qpn,
        params: &Bytes,
        cx: &mut Ctx<'_>,
    ) -> bool {
        let Some((_, handler)) = self.fallbacks.iter_mut().find(|(op, _)| *op == rpc_op) else {
            return false;
        };
        let Some((target, response, cpu_time)) = handler.handle(&mut self.mem, qpn, params) else {
            return true; // Accepted, no response.
        };
        // Host handoff: DMA the request up (posted write + poll detection),
        // CPU work, then the response is posted like any host command.
        let ready = cx.now()
            + cx.cfg.pcie.write_post_latency
            + cx.cfg.poll_overhead
            + cpu_time
            + cx.cfg.host_post_overhead
            + cx.cfg.pcie.mmio_latency;
        let wr = WorkRequest::WriteInline {
            remote_vaddr: target,
            data: response,
        };
        if self.post_and_send(qpn, wr, 0, ready, cx).is_err() {
            self.trace_drop(DropReason::SendRefused);
        }
        true
    }

    /// Ensures a RetransmitCheck is pending no later than the earliest
    /// timer deadline (at most one outstanding check per node).
    fn schedule_check(&mut self, cx: &mut Ctx<'_>) {
        let Some(deadline) = self.timer.next_deadline() else {
            return;
        };
        match self.check_at {
            Some(t) if t <= deadline => {}
            _ => {
                // The queue clamps past times to `now`; record the clamped
                // time so the firing event matches `check_at` exactly.
                let at = deadline.max(cx.now());
                self.schedule(cx, at, NicEvent::RetransmitCheck);
                self.check_at = Some(at);
            }
        }
    }

    /// Hands a protocol completion to the host, if a host request is
    /// waiting on it.
    fn record_completion(&mut self, c: &Completion, at: Time, cx: &mut Ctx<'_>) {
        let handle = self
            .wr_handle
            .get_mut(c.wr_id as usize)
            .map_or(0, std::mem::take);
        if handle != 0 {
            cx.requests.finish(handle, at, c.status);
        }
    }

    fn refresh_timer(&mut self, qpn: Qpn, cx: &mut Ctx<'_>) {
        // Any ACK/NAK/response from the peer is evidence it is alive:
        // reset the retry budget and exponential backoff.
        self.timer.note_progress(qpn);
        if self.requester.has_outstanding(qpn) {
            // Restart the timer on progress — but never let the deadline
            // land before packets still queued on the transmit link have
            // even left the NIC, or a long transmit queue would trigger
            // spurious mass retransmissions.
            let base = cx.now().max(cx.wire.tx_busy_until(self.id));
            self.timer.arm(qpn, base);
            self.schedule_check(cx);
        } else {
            self.timer.disarm(qpn);
        }
    }
}

#[cfg(test)]
impl Nic {
    /// Posted DMA writes not yet landed.
    pub(crate) fn posted_writes(&self) -> usize {
        self.posted.len()
    }

    /// `DmaWriteDone` events in the event queue for this NIC.
    pub(crate) fn write_events_pending(&self) -> usize {
        self.write_events_pending
    }
}
