//! The requester finite state machine.
//!
//! Mirrors the transmit path of Figure 2: the Request Handler receives
//! work requests from the host, segments them into packets (Generate
//! RETH/AETH → Generate BTH), tracks outstanding PSNs via the State Table,
//! registers outstanding reads in the Multi-Queue, and retransmits on NAK
//! or timer expiry.
//!
//! Sans-IO: posting a work request returns [`PacketDescriptor`]s for the
//! NIC to transmit (payload is *described*, not copied — the DMA engine
//! fetches it from host memory at transmit time, which is also how
//! retransmission re-fetches data without buffering packets on the NIC).
//!
//! Per message the requester keeps one record of what the message is —
//! kind, first PSN, packet count, RETH and payload source — and derives
//! packet `i` from it by segmentation arithmetic, on post and on every
//! retransmission; like the hardware, it stores PSN state, not packets.
//! Each entry point has an `_into` form appending to a caller-owned
//! buffer, which the NIC reuses so that no packet list is allocated per
//! message; [`Requester::post`] and [`Requester::on_ack`] also have plain
//! forms that wrap it.

use std::collections::VecDeque;

use bytes::Bytes;

use strom_telemetry::{QpState, TraceEvent, TraceSink};
use strom_wire::bth::{Aeth, AethSyndrome, Psn, Qpn, Reth};
use strom_wire::opcode::{Opcode, RpcOpCode};
use strom_wire::segment::segment_message;

use crate::multi_queue::MultiQueue;
use crate::psn::{psn_add, psn_cmp, PsnClass};
use crate::state_table::StateTable;

/// A work request posted by the host (via the Controller registers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkRequest {
    /// One-sided RDMA WRITE from local to remote memory.
    Write {
        /// Remote virtual address.
        remote_vaddr: u64,
        /// Local virtual address the DMA engine fetches payload from.
        local_vaddr: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// One-sided RDMA READ from remote to local memory.
    Read {
        /// Remote virtual address.
        remote_vaddr: u64,
        /// Local virtual address the response data is placed at.
        local_vaddr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// StRoM RPC invocation (RDMA RPC Params, ≤ one MTU of parameters).
    Rpc {
        /// Kernel-matching op-code.
        rpc_op: RpcOpCode,
        /// Parameter bytes (inline; the host passes them in the command).
        params: Bytes,
    },
    /// StRoM RPC WRITE: stream local memory to a remote kernel.
    RpcWrite {
        /// Kernel-matching op-code.
        rpc_op: RpcOpCode,
        /// Local virtual address of the payload.
        local_vaddr: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// RDMA WRITE whose payload originates on the NIC itself rather than
    /// in host memory — how a StRoM kernel transmits its response
    /// (`roceMetaOut` + `roceDataOut`, §5.2).
    WriteInline {
        /// Remote virtual address.
        remote_vaddr: u64,
        /// The payload bytes.
        data: Bytes,
    },
}

/// Where a packet's payload comes from at (re)transmit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadSource {
    /// No payload (READ request).
    None,
    /// Fetched from local host memory by the DMA engine.
    Host {
        /// Local virtual address.
        vaddr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Carried inline in the work request (RPC parameters).
    Inline(Bytes),
}

impl PayloadSource {
    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        match self {
            PayloadSource::None => 0,
            PayloadSource::Host { len, .. } => *len,
            PayloadSource::Inline(b) => b.len() as u32,
        }
    }

    /// Whether there is no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One packet the NIC must transmit for a work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketDescriptor {
    /// Queue pair to send on.
    pub qpn: Qpn,
    /// BTH op-code.
    pub opcode: Opcode,
    /// Assigned PSN.
    pub psn: Psn,
    /// RETH, when the op-code carries one.
    pub reth: Option<Reth>,
    /// Payload source.
    pub payload: PayloadSource,
}

/// How a work request finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionStatus {
    /// Acknowledged end to end.
    #[default]
    Success,
    /// The QP exhausted its retry budget and entered the error state;
    /// the request may have partially executed on the remote side.
    RetryExceeded,
    /// The responder reported an unrecoverable error (NAK remote
    /// operational error, e.g. no kernel matched an RPC, §5.1).
    RemoteError,
}

/// A completed work request, reported back to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Host-assigned work request id.
    pub wr_id: u64,
    /// QP the request ran on.
    pub qpn: Qpn,
    /// Outcome the host observes.
    pub status: CompletionStatus,
}

impl Completion {
    /// A successful completion.
    pub fn success(wr_id: u64, qpn: Qpn) -> Self {
        Completion {
            wr_id,
            qpn,
            status: CompletionStatus::Success,
        }
    }
}

/// Why a work request could not be posted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The QP is not initialized in the State Table.
    UnknownQp,
    /// The Multi-Queue has no free outstanding-read slots.
    MultiQueueFull,
    /// RPC parameters exceed one MTU (the RDMA RPC verb is Only-sized,
    /// §5.1: "the payload size is at most one MTU").
    RpcParamsTooLarge,
    /// The QP is in the error state (retry budget exhausted) and accepts
    /// no further work until torn down and re-initialized.
    QpInError,
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostError::UnknownQp => write!(f, "queue pair not initialized"),
            PostError::MultiQueueFull => write!(f, "no free outstanding-read slots"),
            PostError::RpcParamsTooLarge => write!(f, "RPC parameters exceed one MTU"),
            PostError::QpInError => write!(f, "queue pair is in the error state"),
        }
    }
}

impl std::error::Error for PostError {}

/// The op-code family of a message's packets, and how it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MessageKind {
    /// RDMA WRITE (from host memory, or inline from the NIC).
    Write,
    /// StRoM RPC WRITE: the RETH address carries the RPC op-code.
    RpcWrite,
    /// StRoM RPC Params: one packet, parameters inline.
    Rpc,
    /// READ request: one packet; completes via response data, not ACK.
    Read,
}

/// Tracking record for an unacknowledged message: what the message is,
/// from which packet `i` — its op-code, PSN, RETH and payload slice — is
/// derived on post and on every retransmission.
#[derive(Debug, Clone)]
struct OutstandingMessage {
    /// Host work-request id.
    wr_id: u64,
    kind: MessageKind,
    /// PSN of the first packet.
    first_psn: Psn,
    /// Packets the message is sent as (1 for a READ request: its
    /// responses use the rest of its PSN range).
    packets: u32,
    /// The first packet's RETH: remote address (or RPC op-code), and the
    /// message length, which segmentation splits.
    reth: Reth,
    /// The whole message's payload; each packet takes its segment.
    payload: PayloadSource,
}

impl OutstandingMessage {
    /// PSN of the final packet (the one whose ACK completes the message).
    fn last_psn(&self) -> Psn {
        psn_add(self.first_psn, self.packets - 1)
    }

    /// Packet `i` of the message.
    fn packet(&self, qpn: Qpn, i: u32, max_payload: usize) -> PacketDescriptor {
        let seg = segment_message(self.reth.dma_len as usize, max_payload)
            .nth(i as usize)
            .expect("packet index within the message");
        let opcode = match self.kind {
            MessageKind::Write => seg.kind.write_opcode(),
            MessageKind::RpcWrite => seg.kind.rpc_write_opcode(),
            MessageKind::Rpc => Opcode::RpcParams,
            MessageKind::Read => Opcode::ReadRequest,
        };
        let payload = match &self.payload {
            PayloadSource::None => PayloadSource::None,
            PayloadSource::Host { vaddr, .. } => PayloadSource::Host {
                vaddr: vaddr + seg.offset as u64,
                len: seg.len as u32,
            },
            PayloadSource::Inline(b) => {
                PayloadSource::Inline(b.slice(seg.offset..seg.offset + seg.len))
            }
        };
        PacketDescriptor {
            qpn,
            opcode,
            psn: psn_add(self.first_psn, i),
            reth: opcode.has_reth().then_some(self.reth),
            payload,
        }
    }
}

/// Tracking record for an outstanding read (parallel to the Multi-Queue).
#[derive(Debug, Clone, Copy)]
struct ReadTrack {
    /// PSN of the next expected response packet.
    next_resp_psn: Psn,
    /// PSN of the final response packet.
    last_resp_psn: Psn,
    /// Host work-request id.
    wr_id: u64,
}

/// Per-QP requester state.
#[derive(Debug, Default)]
struct QpRequester {
    outstanding: VecDeque<OutstandingMessage>,
    reads: VecDeque<ReadTrack>,
    /// Highest cumulatively acknowledged PSN. Go-back-N resumes *after*
    /// this watermark (IB: the oldest unacknowledged PSN), so a timeout
    /// mid-message never re-sends the already-delivered prefix — under
    /// sustained congestion a full-message restart can livelock, with the
    /// responder's expected PSN falling on the same dropped slot forever.
    acked: Option<Psn>,
    /// Terminal error state: the retry budget was exhausted. The QP
    /// accepts no new work and never retransmits again.
    errored: bool,
}

/// The requester FSM.
#[derive(Debug)]
pub struct Requester {
    qps: Vec<QpRequester>,
    multi_queue: MultiQueue,
    max_payload: usize,
    next_wr_id: u64,
    retransmissions: u64,
    trace: TraceSink,
}

impl Requester {
    /// Creates a requester for `num_qps` QPs, `max_outstanding_reads`
    /// shared Multi-Queue slots, and the given per-packet payload budget.
    pub fn new(num_qps: usize, max_outstanding_reads: usize, max_payload: usize) -> Self {
        assert!(max_payload > 0, "max payload must be positive");
        Self {
            qps: (0..num_qps).map(|_| QpRequester::default()).collect(),
            multi_queue: MultiQueue::new(num_qps, max_outstanding_reads),
            max_payload,
            next_wr_id: 1,
            retransmissions: 0,
            trace: TraceSink::default(),
        }
    }

    /// Attaches a trace sink; QP error transitions and retransmission
    /// batches are emitted to it.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Total retransmitted packets (diagnostics for the loss experiments).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Whether the QP has unacknowledged messages or outstanding reads
    /// (drives the retransmission timer).
    pub fn has_outstanding(&self, qpn: Qpn) -> bool {
        self.qps
            .get(qpn as usize)
            .map(|q| !q.outstanding.is_empty() || !q.reads.is_empty())
            .unwrap_or(false)
    }

    /// Whether a READ posted now would be refused with
    /// [`PostError::MultiQueueFull`] — no free Multi-Queue slot. Lets the
    /// NIC check before moving a work request into [`Self::post`] instead
    /// of cloning it against the possibility of that error.
    pub fn read_queue_full(&self) -> bool {
        self.multi_queue.free_slots() == 0
    }

    /// Posts a work request; returns the packets to transmit and the
    /// work-request id that will appear in the eventual [`Completion`].
    pub fn post(
        &mut self,
        state: &mut StateTable,
        qpn: Qpn,
        wr: WorkRequest,
    ) -> Result<(u64, Vec<PacketDescriptor>), PostError> {
        let mut packets = Vec::new();
        let wr_id = self.post_into(state, qpn, wr, &mut packets)?;
        Ok((wr_id, packets))
    }

    /// [`Self::post`], appending the packets to transmit to `out`; returns
    /// the work-request id. On error nothing is appended.
    pub fn post_into(
        &mut self,
        state: &mut StateTable,
        qpn: Qpn,
        wr: WorkRequest,
        out: &mut Vec<PacketDescriptor>,
    ) -> Result<u64, PostError> {
        if state.get(qpn).is_none() || (qpn as usize) >= self.qps.len() {
            return Err(PostError::UnknownQp);
        }
        if self.qps[qpn as usize].errored {
            return Err(PostError::QpInError);
        }
        let wr_id = self.next_wr_id;
        self.next_wr_id += 1;
        let mut read_into = None;
        let (kind, target, len, payload) = match wr {
            WorkRequest::Write {
                remote_vaddr,
                local_vaddr,
                len,
            } => (
                MessageKind::Write,
                remote_vaddr,
                len,
                PayloadSource::Host {
                    vaddr: local_vaddr,
                    len,
                },
            ),
            WorkRequest::RpcWrite {
                rpc_op,
                local_vaddr,
                len,
            } => (
                MessageKind::RpcWrite,
                rpc_op.0,
                len,
                PayloadSource::Host {
                    vaddr: local_vaddr,
                    len,
                },
            ),
            WorkRequest::WriteInline { remote_vaddr, data } => (
                MessageKind::Write,
                remote_vaddr,
                data.len() as u32,
                PayloadSource::Inline(data),
            ),
            WorkRequest::Rpc { rpc_op, params } => {
                if params.len() > self.max_payload {
                    return Err(PostError::RpcParamsTooLarge);
                }
                let len = params.len() as u32;
                (
                    MessageKind::Rpc,
                    rpc_op.0,
                    len,
                    PayloadSource::Inline(params),
                )
            }
            WorkRequest::Read {
                remote_vaddr,
                local_vaddr,
                len,
            } => {
                if self.multi_queue.free_slots() == 0 {
                    return Err(PostError::MultiQueueFull);
                }
                read_into = Some(local_vaddr);
                (MessageKind::Read, remote_vaddr, len, PayloadSource::None)
            }
        };
        let segments = segment_message(len as usize, self.max_payload).len() as u32;
        let (packets, psns) = match kind {
            MessageKind::Write | MessageKind::RpcWrite => (segments, segments),
            MessageKind::Rpc => (1, 1),
            // A READ request is one packet; its responses take one PSN each.
            MessageKind::Read => (1, segments),
        };
        let first_psn = state.alloc_psns(qpn, psns).ok_or(PostError::UnknownQp)?;
        if let Some(local_vaddr) = read_into {
            let pushed = self.multi_queue.push(qpn, local_vaddr, len);
            debug_assert!(pushed, "free slot checked above");
            self.qps[qpn as usize].reads.push_back(ReadTrack {
                next_resp_psn: first_psn,
                last_resp_psn: psn_add(first_psn, psns - 1),
                wr_id,
            });
        }
        let msg = OutstandingMessage {
            wr_id,
            kind,
            first_psn,
            packets,
            reth: Reth {
                vaddr: target,
                rkey: 0,
                dma_len: len,
            },
            payload,
        };
        out.extend((0..packets).map(|i| msg.packet(qpn, i, self.max_payload)));
        // Every message stays retransmittable until acknowledged — the
        // read request included; reads complete via response data.
        self.qps[qpn as usize].outstanding.push_back(msg);
        Ok(wr_id)
    }

    /// Handles an inbound ACK/NAK.
    ///
    /// Returns `(completions, retransmit_packets)`.
    pub fn on_ack(
        &mut self,
        state: &mut StateTable,
        qpn: Qpn,
        psn: Psn,
        aeth: Aeth,
    ) -> (Vec<Completion>, Vec<PacketDescriptor>) {
        let (mut completions, mut retransmit) = (Vec::new(), Vec::new());
        self.on_ack_into(state, qpn, psn, aeth, &mut completions, &mut retransmit);
        (completions, retransmit)
    }

    /// [`Self::on_ack`], appending to `completions` and `retransmit`.
    pub fn on_ack_into(
        &mut self,
        state: &mut StateTable,
        qpn: Qpn,
        psn: Psn,
        aeth: Aeth,
        completions: &mut Vec<Completion>,
        retransmit: &mut Vec<PacketDescriptor>,
    ) {
        match aeth.syndrome {
            AethSyndrome::Ack => {
                state.ack_up_to(qpn, psn);
                self.collect_acked(qpn, psn, CompletionStatus::Success, completions);
            }
            AethSyndrome::NakSequenceError => {
                // The AETH PSN names the responder's expected PSN; ack
                // everything before it and retransmit from there.
                if psn != 0 {
                    let acked = psn_add(psn, strom_wire::bth::MASK_24); // psn - 1 wrapping.
                    state.ack_up_to(qpn, acked);
                    self.collect_acked(qpn, acked, CompletionStatus::Success, completions);
                }
                self.retransmit_from(qpn, psn, retransmit);
            }
            AethSyndrome::NakRemoteOperationalError => {
                // Unrecoverable for this message: surface the completion so
                // the host observes the error (error reporting is by value
                // in host memory, §5.1).
                self.collect_acked(qpn, psn, CompletionStatus::RemoteError, completions);
            }
        }
    }

    /// Raises `qpn`'s cumulative-ack watermark to `psn` and retires every
    /// message it covers, appending a completion with `status` for each
    /// one an ACK completes (reads complete via their data instead).
    fn collect_acked(
        &mut self,
        qpn: Qpn,
        psn: Psn,
        status: CompletionStatus,
        out: &mut Vec<Completion>,
    ) {
        let Some(qp) = self.qps.get_mut(qpn as usize) else {
            return;
        };
        // Raise the cumulative-ack watermark (never lower it — stale
        // duplicate ACKs arrive out of order under retransmission).
        if qp
            .acked
            .is_none_or(|a| psn_cmp(psn, a) == std::cmp::Ordering::Greater)
        {
            qp.acked = Some(psn);
        }
        while let Some(front) = qp.outstanding.front() {
            if psn_cmp(front.last_psn(), psn) == std::cmp::Ordering::Greater {
                break;
            }
            let msg = qp.outstanding.pop_front().expect("front checked");
            if msg.kind != MessageKind::Read {
                out.push(Completion {
                    wr_id: msg.wr_id,
                    qpn,
                    status,
                });
            }
        }
    }

    /// Handles an inbound READ response packet.
    ///
    /// Returns the local DMA placement for the payload plus the read's
    /// completion, on its final response. That response also
    /// acknowledges every earlier PSN of the QP, so the completions of
    /// messages whose own ACK never arrived are appended to `acked`, in
    /// post order. Out-of-order or duplicate responses return `None` and
    /// are dropped (the retransmission machinery recovers).
    pub fn on_read_response_into(
        &mut self,
        state: &mut StateTable,
        qpn: Qpn,
        psn: Psn,
        payload: &Bytes,
        acked: &mut Vec<Completion>,
    ) -> Option<(u64, Option<Completion>)> {
        let qp = self.qps.get_mut(qpn as usize)?;
        let track = qp.reads.front_mut()?;
        match crate::psn::classify(psn, track.next_resp_psn) {
            PsnClass::Valid => {}
            PsnClass::Duplicate | PsnClass::Invalid => return None,
        }
        let (addr, done) = self.multi_queue.consume(qpn, payload.len() as u32)?;
        track.next_resp_psn = psn_add(track.next_resp_psn, 1);
        let mut completion = None;
        if done {
            debug_assert_eq!(psn, track.last_resp_psn, "length/PSN bookkeeping agree");
            let track = qp.reads.pop_front().expect("front_mut succeeded");
            completion = Some(Completion::success(track.wr_id, qpn));
            // The final response also acknowledges the read request's PSN
            // range, releasing its retransmission record, and every
            // message before it.
            state.ack_up_to(qpn, track.last_resp_psn);
            let status = CompletionStatus::Success;
            self.collect_acked(qpn, track.last_resp_psn, status, acked);
        }
        Some((addr, completion))
    }

    /// Appends every outstanding packet of `qpn` to `out`, for
    /// retransmission (timer expiry).
    pub fn on_timeout_into(&mut self, qpn: Qpn, out: &mut Vec<PacketDescriptor>) {
        self.retransmit_from(qpn, 0xffff_ffff, out);
    }

    /// Whether `qpn` is in the terminal error state.
    pub fn is_errored(&self, qpn: Qpn) -> bool {
        self.qps
            .get(qpn as usize)
            .map(|q| q.errored)
            .unwrap_or(false)
    }

    /// Number of QPs currently in the error state.
    pub fn qps_in_error(&self) -> u64 {
        self.qps.iter().filter(|q| q.errored).count() as u64
    }

    /// Transitions `qpn` to the terminal error state (retry budget
    /// exhausted, IB `retry_cnt` semantics).
    ///
    /// Every in-flight work request — unacknowledged messages and
    /// outstanding reads — completes with
    /// [`CompletionStatus::RetryExceeded`] so the host never hangs waiting
    /// on a wedged QP, and the QP's Multi-Queue slots return to the shared
    /// pool. Subsequent posts fail with [`PostError::QpInError`].
    pub fn fail_qp(&mut self, qpn: Qpn) -> Vec<Completion> {
        let Some(qp) = self.qps.get_mut(qpn as usize) else {
            return Vec::new();
        };
        if !qp.errored {
            self.trace.emit(TraceEvent::QpTransition {
                qpn,
                from: QpState::Ready,
                to: QpState::Error,
            });
        }
        qp.errored = true;
        let mut out = Vec::new();
        // Unacknowledged messages, in post order. Reads are skipped here —
        // their completion is owned by the read-track queue below, so each
        // wr_id surfaces exactly once.
        for msg in qp.outstanding.drain(..) {
            if msg.kind != MessageKind::Read {
                out.push(Completion {
                    wr_id: msg.wr_id,
                    qpn,
                    status: CompletionStatus::RetryExceeded,
                });
            }
        }
        for track in qp.reads.drain(..) {
            out.push(Completion {
                wr_id: track.wr_id,
                qpn,
                status: CompletionStatus::RetryExceeded,
            });
        }
        self.multi_queue.flush(qpn);
        out.sort_by_key(|c| c.wr_id);
        out
    }

    /// Appends the packets to retransmit: all packets of outstanding
    /// messages with PSN at or after `from_psn` (`0xffff_ffff` =
    /// everything).
    fn retransmit_from(&mut self, qpn: Qpn, from_psn: u32, out: &mut Vec<PacketDescriptor>) {
        let Some(qp) = self.qps.get(qpn as usize) else {
            return;
        };
        let everything = from_psn > strom_wire::bth::MASK_24;
        let before = out.len();
        for msg in &qp.outstanding {
            for i in 0..msg.packets {
                let psn = psn_add(msg.first_psn, i);
                // Never re-send the cumulatively acknowledged prefix:
                // go-back-N resumes at the oldest *unacknowledged* PSN.
                if qp
                    .acked
                    .is_some_and(|a| psn_cmp(psn, a) != std::cmp::Ordering::Greater)
                {
                    continue;
                }
                if everything || psn_cmp(psn, from_psn) != std::cmp::Ordering::Less {
                    out.push(msg.packet(qpn, i, self.max_payload));
                }
            }
        }
        let sent = (out.len() - before) as u32;
        self.retransmissions += u64::from(sent);
        if sent > 0 {
            self.trace
                .emit(TraceEvent::Retransmit { qpn, packets: sent });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StateTable, Requester) {
        let mut st = StateTable::new(8);
        st.init_qp(2, 0, 0);
        (st, Requester::new(8, 16, 1440))
    }

    fn ack(_psn: Psn) -> Aeth {
        Aeth {
            syndrome: AethSyndrome::Ack,
            msn: 0,
        }
    }

    /// The packets a timeout on `qpn` retransmits.
    fn timeout(r: &mut Requester, qpn: Qpn) -> Vec<PacketDescriptor> {
        let mut out = Vec::new();
        r.on_timeout_into(qpn, &mut out);
        out
    }

    /// Delivers one READ response on QP 2, which none of these tests
    /// expects to complete an earlier message.
    fn respond(
        r: &mut Requester,
        st: &mut StateTable,
        psn: Psn,
        data: &Bytes,
    ) -> Option<(u64, Option<Completion>)> {
        let mut acked = Vec::new();
        let placed = r.on_read_response_into(st, 2, psn, data, &mut acked);
        assert!(acked.is_empty());
        placed
    }

    #[test]
    fn small_write_is_one_packet() {
        let (mut st, mut r) = setup();
        let (wr_id, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::Write {
                    remote_vaddr: 0x1000,
                    local_vaddr: 0x2000,
                    len: 64,
                },
            )
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].opcode, Opcode::WriteOnly);
        assert_eq!(pkts[0].psn, 0);
        assert_eq!(
            pkts[0].payload,
            PayloadSource::Host {
                vaddr: 0x2000,
                len: 64
            }
        );
        assert!(r.has_outstanding(2));
        let (comps, retx) = r.on_ack(&mut st, 2, 0, ack(0));
        assert_eq!(comps, vec![Completion::success(wr_id, 2)]);
        assert!(retx.is_empty());
        assert!(!r.has_outstanding(2));
    }

    #[test]
    fn large_write_segments_with_correct_psns() {
        let (mut st, mut r) = setup();
        let (_, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::Write {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 4000,
                },
            )
            .unwrap();
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].opcode, Opcode::WriteFirst);
        assert_eq!(pkts[1].opcode, Opcode::WriteMiddle);
        assert_eq!(pkts[2].opcode, Opcode::WriteLast);
        assert_eq!(
            pkts.iter().map(|p| p.psn).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(pkts[0].reth.is_some());
        assert!(pkts[1].reth.is_none());
        // Only the final ACK completes the message.
        let (comps, _) = r.on_ack(&mut st, 2, 1, ack(1));
        assert!(comps.is_empty());
        let (comps, _) = r.on_ack(&mut st, 2, 2, ack(2));
        assert_eq!(comps.len(), 1);
    }

    #[test]
    fn read_places_response_data_in_order() {
        let (mut st, mut r) = setup();
        let (wr_id, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::Read {
                    remote_vaddr: 0x9000,
                    local_vaddr: 0x100,
                    len: 3000,
                },
            )
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].opcode, Opcode::ReadRequest);
        // 3 response packets expected (PSNs 0,1,2).
        let d0 = Bytes::from(vec![0u8; 1440]);
        let d1 = Bytes::from(vec![1u8; 1440]);
        let d2 = Bytes::from(vec![2u8; 120]);
        let (addr, comp) = respond(&mut r, &mut st, 0, &d0).unwrap();
        assert_eq!(addr, 0x100);
        assert!(comp.is_none());
        let (addr, comp) = respond(&mut r, &mut st, 1, &d1).unwrap();
        assert_eq!(addr, 0x100 + 1440);
        assert!(comp.is_none());
        let (addr, comp) = respond(&mut r, &mut st, 2, &d2).unwrap();
        assert_eq!(addr, 0x100 + 2880);
        assert_eq!(comp, Some(Completion::success(wr_id, 2)));
        assert!(!r.has_outstanding(2), "read ack'd its own PSN range");
    }

    #[test]
    fn duplicate_response_is_dropped() {
        let (mut st, mut r) = setup();
        r.post(
            &mut st,
            2,
            WorkRequest::Read {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 2000,
            },
        )
        .unwrap();
        let d = Bytes::from(vec![0u8; 1440]);
        assert!(respond(&mut r, &mut st, 0, &d).is_some());
        assert!(
            respond(&mut r, &mut st, 0, &d).is_none(),
            "same PSN twice must be dropped"
        );
        // The stream continues at PSN 1.
        let tail = Bytes::from(vec![0u8; 560]);
        assert!(respond(&mut r, &mut st, 1, &tail).is_some());
    }

    #[test]
    fn out_of_order_response_is_dropped() {
        let (mut st, mut r) = setup();
        r.post(
            &mut st,
            2,
            WorkRequest::Read {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 3000,
            },
        )
        .unwrap();
        let d = Bytes::from(vec![0u8; 1440]);
        // PSN 1 arrives before PSN 0: drop.
        assert!(respond(&mut r, &mut st, 1, &d).is_none());
        assert!(respond(&mut r, &mut st, 0, &d).is_some());
    }

    #[test]
    fn final_read_response_completes_writes_whose_ack_was_lost() {
        let (mut st, mut r) = setup();
        let write = WorkRequest::Write {
            remote_vaddr: 0,
            local_vaddr: 0,
            len: 2000, // PSNs 0 and 1; neither ACK arrives.
        };
        let (w1, _) = r.post(&mut st, 2, write.clone()).unwrap();
        let (w2, _) = r.post(&mut st, 2, write).unwrap();
        let (rd, _) = r
            .post(
                &mut st,
                2,
                WorkRequest::Read {
                    remote_vaddr: 0,
                    local_vaddr: 0x100,
                    len: 8,
                },
            )
            .unwrap();
        let mut acked = Vec::new();
        let d = Bytes::from_static(&[0u8; 8]);
        let (_, comp) = r
            .on_read_response_into(&mut st, 2, 4, &d, &mut acked)
            .unwrap();
        assert_eq!(comp, Some(Completion::success(rd, 2)));
        assert_eq!(
            acked,
            vec![Completion::success(w1, 2), Completion::success(w2, 2)],
            "the response acknowledges every earlier PSN"
        );
        assert!(!r.has_outstanding(2));
    }

    #[test]
    fn timeout_retransmits_everything_outstanding() {
        let (mut st, mut r) = setup();
        let (_, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::Write {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 3000,
                },
            )
            .unwrap();
        let retx = timeout(&mut r, 2);
        assert_eq!(retx, pkts);
        assert_eq!(r.retransmissions(), 3);
    }

    #[test]
    fn timeout_skips_the_cumulatively_acked_prefix() {
        let (mut st, mut r) = setup();
        r.post(
            &mut st,
            2,
            WorkRequest::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 4000, // 3 segments: PSNs 0, 1, 2.
            },
        )
        .unwrap();
        // The responder acknowledged PSNs 0 and 1; only the tail may be
        // re-sent — restarting the delivered prefix on every timeout can
        // livelock against a deterministic congestion drop pattern.
        let (comps, retx) = r.on_ack(
            &mut st,
            2,
            1,
            Aeth {
                syndrome: AethSyndrome::Ack,
                msn: 0,
            },
        );
        assert!(comps.is_empty(), "mid-message ack completes nothing");
        assert!(retx.is_empty());
        let retx = timeout(&mut r, 2);
        assert_eq!(retx.len(), 1, "only the unacked tail retransmits");
        assert_eq!(retx[0].psn, 2);
        // A stale duplicate ack must not lower the watermark.
        let _ = r.on_ack(
            &mut st,
            2,
            0,
            Aeth {
                syndrome: AethSyndrome::Ack,
                msn: 0,
            },
        );
        assert_eq!(timeout(&mut r, 2).len(), 1);
    }

    #[test]
    fn nak_retransmits_from_expected_psn() {
        let (mut st, mut r) = setup();
        r.post(
            &mut st,
            2,
            WorkRequest::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 4000,
            },
        )
        .unwrap();
        // Responder expected PSN 1 (packet 1 lost).
        let (comps, retx) = r.on_ack(
            &mut st,
            2,
            1,
            Aeth {
                syndrome: AethSyndrome::NakSequenceError,
                msn: 0,
            },
        );
        assert!(comps.is_empty());
        assert_eq!(retx.len(), 2, "PSNs 1 and 2 retransmitted");
        assert_eq!(retx[0].psn, 1);
        assert_eq!(retx[1].psn, 2);
    }

    #[test]
    fn rpc_params_single_packet_with_opcode_in_reth() {
        let (mut st, mut r) = setup();
        let (_, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::Rpc {
                    rpc_op: RpcOpCode::CONSISTENCY,
                    params: Bytes::from_static(b"0123456789abcdef"),
                },
            )
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].opcode, Opcode::RpcParams);
        assert_eq!(pkts[0].reth.unwrap().vaddr, RpcOpCode::CONSISTENCY.0);
        assert!(matches!(pkts[0].payload, PayloadSource::Inline(_)));
    }

    #[test]
    fn oversized_rpc_params_rejected() {
        let (mut st, mut r) = setup();
        let err = r
            .post(
                &mut st,
                2,
                WorkRequest::Rpc {
                    rpc_op: RpcOpCode::GET,
                    params: Bytes::from(vec![0u8; 2000]),
                },
            )
            .unwrap_err();
        assert_eq!(err, PostError::RpcParamsTooLarge);
    }

    #[test]
    fn rpc_write_uses_rpc_opcodes() {
        let (mut st, mut r) = setup();
        let (_, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::RpcWrite {
                    rpc_op: RpcOpCode::SHUFFLE,
                    local_vaddr: 0,
                    len: 3000,
                },
            )
            .unwrap();
        assert_eq!(pkts[0].opcode, Opcode::RpcWriteFirst);
        assert_eq!(pkts[1].opcode, Opcode::RpcWriteMiddle);
        assert_eq!(pkts[2].opcode, Opcode::RpcWriteLast);
        assert_eq!(pkts[0].reth.unwrap().vaddr, RpcOpCode::SHUFFLE.0);
    }

    #[test]
    fn multi_queue_exhaustion_rejects_reads() {
        let mut st = StateTable::new(8);
        st.init_qp(2, 0, 0);
        let mut r = Requester::new(8, 2, 1440);
        for _ in 0..2 {
            r.post(
                &mut st,
                2,
                WorkRequest::Read {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 8,
                },
            )
            .unwrap();
        }
        let err = r
            .post(
                &mut st,
                2,
                WorkRequest::Read {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 8,
                },
            )
            .unwrap_err();
        assert_eq!(err, PostError::MultiQueueFull);
    }

    #[test]
    fn write_inline_carries_nic_data() {
        // The path a StRoM kernel's response takes (§5.2): payload comes
        // from the NIC, not host memory, and segments like any write.
        let (mut st, mut r) = setup();
        let data = Bytes::from(vec![0xCDu8; 3000]);
        let (wr_id, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::WriteInline {
                    remote_vaddr: 0x7000,
                    data: data.clone(),
                },
            )
            .unwrap();
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].opcode, Opcode::WriteFirst);
        assert_eq!(pkts[0].reth.unwrap().vaddr, 0x7000);
        // The inline payload slices reassemble to the original data.
        let mut rebuilt = Vec::new();
        for p in &pkts {
            match &p.payload {
                PayloadSource::Inline(b) => rebuilt.extend_from_slice(b),
                other => panic!("expected inline payload, got {other:?}"),
            }
        }
        assert_eq!(Bytes::from(rebuilt), data);
        // Completes on the final ACK like an ordinary write.
        let (comps, _) = r.on_ack(&mut st, 2, pkts[2].psn, ack(0));
        assert_eq!(comps, vec![Completion::success(wr_id, 2)]);
    }

    #[test]
    fn write_inline_retransmits_without_host_memory() {
        let (mut st, mut r) = setup();
        let data = Bytes::from_static(b"kernel response");
        let (_, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::WriteInline {
                    remote_vaddr: 0x10,
                    data,
                },
            )
            .unwrap();
        let retx = timeout(&mut r, 2);
        assert_eq!(retx, pkts, "inline payload is retained for retransmit");
    }

    #[test]
    fn remote_operational_error_surfaces_completion() {
        // A NAK remote-operational-error (no kernel matched, §5.1) must
        // not wedge the message: the completion is surfaced.
        let (mut st, mut r) = setup();
        let (wr_id, pkts) = r
            .post(
                &mut st,
                2,
                WorkRequest::Rpc {
                    rpc_op: RpcOpCode(0x77),
                    params: Bytes::from_static(b"params"),
                },
            )
            .unwrap();
        let (comps, retx) = r.on_ack(
            &mut st,
            2,
            pkts[0].psn,
            Aeth {
                syndrome: AethSyndrome::NakRemoteOperationalError,
                msn: 0,
            },
        );
        assert_eq!(
            comps,
            vec![Completion {
                wr_id,
                qpn: 2,
                status: CompletionStatus::RemoteError
            }]
        );
        assert!(retx.is_empty());
        assert!(!r.has_outstanding(2));
    }

    #[test]
    fn fail_qp_completes_everything_with_retry_exceeded() {
        let (mut st, mut r) = setup();
        let (w1, _) = r
            .post(
                &mut st,
                2,
                WorkRequest::Write {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 3000,
                },
            )
            .unwrap();
        let (w2, _) = r
            .post(
                &mut st,
                2,
                WorkRequest::Read {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 2000,
                },
            )
            .unwrap();
        let comps = r.fail_qp(2);
        assert_eq!(comps.len(), 2, "one completion per wr, reads included");
        assert_eq!(
            comps.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![w1, w2]
        );
        assert!(comps
            .iter()
            .all(|c| c.status == CompletionStatus::RetryExceeded));
        assert!(r.is_errored(2));
        assert_eq!(r.qps_in_error(), 1);
        assert!(!r.has_outstanding(2), "nothing left to retransmit");
        assert!(timeout(&mut r, 2).is_empty());
    }

    #[test]
    fn errored_qp_rejects_new_work() {
        let (mut st, mut r) = setup();
        r.fail_qp(2);
        let err = r
            .post(
                &mut st,
                2,
                WorkRequest::Write {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 8,
                },
            )
            .unwrap_err();
        assert_eq!(err, PostError::QpInError);
    }

    #[test]
    fn fail_qp_releases_multi_queue_slots() {
        // A wedged QP must not pin shared Multi-Queue capacity: other QPs
        // reclaim the slots after the failure.
        let mut st = StateTable::new(8);
        st.init_qp(2, 0, 0);
        st.init_qp(3, 0, 0);
        let mut r = Requester::new(8, 2, 1440);
        for _ in 0..2 {
            r.post(
                &mut st,
                2,
                WorkRequest::Read {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 8,
                },
            )
            .unwrap();
        }
        let read = WorkRequest::Read {
            remote_vaddr: 0,
            local_vaddr: 0,
            len: 8,
        };
        assert_eq!(
            r.post(&mut st, 3, read.clone()).unwrap_err(),
            PostError::MultiQueueFull
        );
        r.fail_qp(2);
        assert!(r.post(&mut st, 3, read).is_ok());
    }

    /// Per-packet construction, the reference the record-derived packets
    /// are checked against: one descriptor per segment, built by walking
    /// `segment_message`.
    fn build_write(
        qpn: Qpn,
        first_psn: Psn,
        remote_vaddr: u64,
        local_vaddr: u64,
        len: u32,
        rpc_op: Option<RpcOpCode>,
        max_payload: usize,
    ) -> Vec<PacketDescriptor> {
        let mut out = Vec::new();
        for (i, seg) in segment_message(len as usize, max_payload).enumerate() {
            let opcode = match rpc_op {
                Some(_) => seg.kind.rpc_write_opcode(),
                None => seg.kind.write_opcode(),
            };
            let reth = if opcode.has_reth() {
                Some(Reth {
                    vaddr: rpc_op.map(|o| o.0).unwrap_or(remote_vaddr),
                    rkey: 0,
                    dma_len: len,
                })
            } else {
                None
            };
            out.push(PacketDescriptor {
                qpn,
                opcode,
                psn: psn_add(first_psn, i as u32),
                reth,
                payload: PayloadSource::Host {
                    vaddr: local_vaddr + seg.offset as u64,
                    len: seg.len as u32,
                },
            });
        }
        out
    }

    fn build_write_inline(
        qpn: Qpn,
        first_psn: Psn,
        remote_vaddr: u64,
        data: Bytes,
        max_payload: usize,
    ) -> Vec<PacketDescriptor> {
        let mut out = Vec::new();
        for (i, seg) in segment_message(data.len(), max_payload).enumerate() {
            let opcode = seg.kind.write_opcode();
            let reth = opcode.has_reth().then_some(Reth {
                vaddr: remote_vaddr,
                rkey: 0,
                dma_len: data.len() as u32,
            });
            out.push(PacketDescriptor {
                qpn,
                opcode,
                psn: psn_add(first_psn, i as u32),
                reth,
                payload: PayloadSource::Inline(data.slice(seg.offset..seg.offset + seg.len)),
            });
        }
        out
    }

    /// The reference packets of `wr` posted at `first_psn`.
    fn reference_packets(
        qpn: Qpn,
        first_psn: Psn,
        wr: &WorkRequest,
        max_payload: usize,
    ) -> Vec<PacketDescriptor> {
        let single = |opcode, vaddr, dma_len, payload| {
            vec![PacketDescriptor {
                qpn,
                opcode,
                psn: first_psn,
                reth: Some(Reth {
                    vaddr,
                    rkey: 0,
                    dma_len,
                }),
                payload,
            }]
        };
        match wr {
            WorkRequest::Write {
                remote_vaddr,
                local_vaddr,
                len,
            } => build_write(
                qpn,
                first_psn,
                *remote_vaddr,
                *local_vaddr,
                *len,
                None,
                max_payload,
            ),
            WorkRequest::RpcWrite {
                rpc_op,
                local_vaddr,
                len,
            } => build_write(
                qpn,
                first_psn,
                rpc_op.0,
                *local_vaddr,
                *len,
                Some(*rpc_op),
                max_payload,
            ),
            WorkRequest::WriteInline { remote_vaddr, data } => {
                build_write_inline(qpn, first_psn, *remote_vaddr, data.clone(), max_payload)
            }
            WorkRequest::Rpc { rpc_op, params } => single(
                Opcode::RpcParams,
                rpc_op.0,
                params.len() as u32,
                PayloadSource::Inline(params.clone()),
            ),
            WorkRequest::Read {
                remote_vaddr, len, ..
            } => single(
                Opcode::ReadRequest,
                *remote_vaddr,
                *len,
                PayloadSource::None,
            ),
        }
    }

    /// A work request of `kind` (0..5) with a `len`-byte payload.
    fn work_request(kind: u64, len: u32, rng: &mut strom_sim::SimRng) -> WorkRequest {
        let mut data = vec![0u8; len as usize];
        rng.fill_bytes(&mut data);
        match kind {
            0 => WorkRequest::Write {
                remote_vaddr: rng.next_u64() >> 8,
                local_vaddr: rng.next_u64() >> 8,
                len,
            },
            1 => WorkRequest::RpcWrite {
                rpc_op: RpcOpCode::SHUFFLE,
                local_vaddr: rng.next_u64() >> 8,
                len,
            },
            2 => WorkRequest::WriteInline {
                remote_vaddr: rng.next_u64() >> 8,
                data: Bytes::from(data),
            },
            3 => WorkRequest::Rpc {
                rpc_op: RpcOpCode::GET,
                params: Bytes::from(data),
            },
            _ => WorkRequest::Read {
                remote_vaddr: rng.next_u64() >> 8,
                local_vaddr: rng.next_u64() >> 8,
                len,
            },
        }
    }

    #[test]
    fn record_derived_packets_match_the_per_packet_reference() {
        const MTU: usize = 16;
        const QPN: Qpn = 2;
        let mut seeds = strom_sim::SimRng::seed(0x05EC_02D5);
        for kind in 0..5u64 {
            for len in 0..=4 * MTU as u32 {
                let seed = seeds.next_u64();
                // Three messages around the one under test, from a start
                // PSN that may wrap the 24-bit space mid-window.
                let setup = || {
                    let mut rng = strom_sim::SimRng::seed(seed);
                    let start = strom_wire::bth::MASK_24 - rng.below(3 * MTU as u64) as u32;
                    let mut st = StateTable::new(8);
                    st.init_qp(QPN, start, 0);
                    let mut r = Requester::new(8, 16, MTU);
                    let wrs = [
                        work_request(rng.below(5), rng.below(2 * MTU as u64 + 1) as u32, &mut rng),
                        work_request(kind, len, &mut rng),
                        work_request(rng.below(3), rng.below(2 * MTU as u64 + 1) as u32, &mut rng),
                    ];
                    // Every posted packet, in PSN order, with whether an
                    // ACK of its last packet completes a work request.
                    let mut posted = Vec::new();
                    for wr in wrs {
                        let first_psn = st.get(QPN).unwrap().next_psn;
                        let want = reference_packets(QPN, first_psn, &wr, MTU);
                        match r.post(&mut st, QPN, wr.clone()) {
                            Ok((wr_id, got)) => {
                                assert_eq!(got, want, "post of {wr:?}");
                                posted.push((wr_id, matches!(wr, WorkRequest::Read { .. }), got));
                            }
                            Err(e) => {
                                let too_large = matches!(&wr, WorkRequest::Rpc { params, .. } if params.len() > MTU);
                                assert!(too_large && e == PostError::RpcParamsTooLarge, "{e:?}");
                            }
                        }
                    }
                    (start, st, r, posted)
                };
                let (start, st, _, posted) = setup();
                let window =
                    st.get(QPN).unwrap().next_psn.wrapping_sub(start) & strom_wire::bth::MASK_24;
                // What go-back-N must resend from `from` (`None`: all of
                // it) once everything up to `acked` is acknowledged, and
                // the completions the ACK surfaces.
                let expect = |acked: Option<Psn>, from: Option<Psn>| {
                    let after = |p: Psn, a: Psn| psn_cmp(p, a) == std::cmp::Ordering::Greater;
                    let retx: Vec<PacketDescriptor> = posted
                        .iter()
                        .flat_map(|(_, _, pkts)| pkts)
                        .filter(|d| acked.is_none_or(|a| after(d.psn, a)))
                        .filter(|d| {
                            from.is_none_or(|f| psn_cmp(d.psn, f) != std::cmp::Ordering::Less)
                        })
                        .cloned()
                        .collect();
                    let done: Vec<u64> = posted
                        .iter()
                        .filter(|(_, read, pkts)| {
                            !read && acked.is_some_and(|a| !after(pkts.last().unwrap().psn, a))
                        })
                        .map(|(id, _, _)| *id)
                        .collect();
                    (retx, done)
                };
                let nak = Aeth {
                    syndrome: AethSyndrome::NakSequenceError,
                    msn: 0,
                };
                for k in 0..window {
                    let p = psn_add(start, k);
                    // A NAK naming `p` as the expected PSN.
                    let (_, mut st, mut r, _) = setup();
                    let (comps, retx) = r.on_ack(&mut st, QPN, p, nak);
                    let acked = (p != 0).then(|| psn_add(p, strom_wire::bth::MASK_24));
                    let (want_retx, want_done) = expect(acked, Some(p));
                    assert_eq!(retx, want_retx, "kind {kind}, len {len}: NAK at {p}");
                    let done: Vec<u64> = comps.iter().map(|c| c.wr_id).collect();
                    assert_eq!(done, want_done, "kind {kind}, len {len}: NAK at {p}");
                    assert_eq!(r.retransmissions(), want_retx.len() as u64);
                    // A cumulative ACK of `p`, then a timeout.
                    let (_, mut st, mut r, _) = setup();
                    let (comps, retx) = r.on_ack(&mut st, QPN, p, ack(p));
                    assert!(retx.is_empty());
                    let (want_retx, want_done) = expect(Some(p), None);
                    let done: Vec<u64> = comps.iter().map(|c| c.wr_id).collect();
                    assert_eq!(done, want_done, "kind {kind}, len {len}: ACK of {p}");
                    assert_eq!(
                        timeout(&mut r, QPN),
                        want_retx,
                        "kind {kind}, len {len}: timeout after ACK of {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_qp_rejected() {
        let (mut st, mut r) = setup();
        let err = r
            .post(
                &mut st,
                5,
                WorkRequest::Write {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: 8,
                },
            )
            .unwrap_err();
        assert_eq!(err, PostError::UnknownQp);
    }
}
