//! The responder finite state machine.
//!
//! This is the receive-side FSM of Figure 2's Process BTH and Process
//! RETH/AETH stages: it classifies the PSN against the State Table,
//! instructs the Packet Dropper, and "takes decisions based on the RDMA
//! op-code and if required issues DMA commands and requests to generate
//! response packets" (§4.1). For the StRoM op-codes of Table 1 the payload
//! is "not written to the host memory but forwarded to the StRoM kernel
//! using the address field in the RETH as an RPC op-code" (§5.1).
//!
//! Sans-IO: the FSM consumes parsed packets and produces a list of
//! [`ResponderAction`]s — appended to a caller-owned buffer by
//! [`Responder::on_packet_into`] — which the NIC simulation executes with
//! timing.

use bytes::Bytes;

use strom_wire::bth::{Psn, Qpn};
use strom_wire::opcode::{Opcode, RpcOpCode};
use strom_wire::packet::Packet;

use crate::msn_table::MsnTable;
use crate::psn::PsnClass;
use crate::state_table::StateTable;

/// What the responder wants the NIC to do for one received packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponderAction {
    /// DMA the payload into host memory at `vaddr`.
    WritePayload {
        /// Destination virtual address.
        vaddr: u64,
        /// Payload bytes.
        data: Bytes,
    },
    /// Transmit a positive acknowledgement.
    SendAck {
        /// QP to acknowledge on.
        qpn: Qpn,
        /// PSN being acknowledged.
        psn: Psn,
        /// Current message sequence number.
        msn: u32,
    },
    /// Transmit a NAK (PSN sequence error): a gap was detected.
    SendNakSequenceError {
        /// QP to NAK on.
        qpn: Qpn,
        /// The expected PSN (what we want retransmitted).
        psn: Psn,
        /// Current message sequence number.
        msn: u32,
    },
    /// Generate read-response packets from host memory.
    ReadResponse {
        /// QP to respond on.
        qpn: Qpn,
        /// First response PSN (= the read request's PSN).
        first_psn: Psn,
        /// Host virtual address to read.
        vaddr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Invoke a StRoM kernel with parameters (RDMA RPC Params, §5.1).
    RpcInvoke {
        /// QP the RPC arrived on (kernels answer on the same QP).
        qpn: Qpn,
        /// Kernel-matching op-code from the RETH address field.
        rpc_op: RpcOpCode,
        /// The parameter bytes.
        params: Bytes,
    },
    /// Stream RPC WRITE payload into a StRoM kernel.
    RpcPayload {
        /// QP the payload arrived on.
        qpn: Qpn,
        /// Kernel-matching op-code (from the First/Only packet's RETH).
        rpc_op: RpcOpCode,
        /// Payload bytes for the kernel's `roceDataIn` stream.
        data: Bytes,
        /// Whether this is the final packet of the RPC WRITE message.
        last: bool,
    },
    /// Echo congestion back to the sender: the packet arrived CE-marked,
    /// so transmit a CNP on the reverse path (DCQCN congestion point →
    /// reaction point signal).
    SendCnp {
        /// QP whose sender must slow down.
        qpn: Qpn,
    },
    /// The packet was a duplicate and was dropped (after re-acking).
    DroppedDuplicate,
    /// The packet was invalid (gap or protocol violation) and was dropped.
    DroppedInvalid,
}

/// The responder FSM with its state-keeping structures.
#[derive(Debug)]
pub struct Responder {
    msn: MsnTable,
    /// Per-QP RPC op-code of the in-progress RPC WRITE message.
    rpc_in_progress: Vec<Option<RpcOpCode>>,
    /// Per-QP flag: a NAK for the current gap has already been sent.
    /// RC responders NAK a sequence error once and then silently drop
    /// further out-of-order packets until the expected PSN arrives —
    /// otherwise every in-flight packet behind one loss would trigger
    /// another full go-back-N retransmission.
    nak_armed: Vec<bool>,
    /// Maximum payload per packet, to size read responses.
    max_payload: usize,
}

impl Responder {
    /// Creates a responder for `num_qps` QPs at the given per-packet
    /// payload budget.
    pub fn new(num_qps: usize, max_payload: usize) -> Self {
        assert!(max_payload > 0, "max payload must be positive");
        Self {
            msn: MsnTable::new(num_qps),
            rpc_in_progress: vec![None; num_qps],
            nak_armed: vec![false; num_qps],
            max_payload,
        }
    }

    /// Number of response packets a read of `len` bytes will produce.
    pub fn read_response_packets(&self, len: u32) -> u32 {
        (len as usize).div_ceil(self.max_payload).max(1) as u32
    }

    /// Processes one inbound *request* packet (requester → responder
    /// direction). ACKs and read responses belong to the requester FSM.
    ///
    /// `state` is the shared State Table (Figure 3).
    pub fn on_packet(&mut self, state: &mut StateTable, pkt: &Packet) -> Vec<ResponderAction> {
        let mut actions = Vec::new();
        self.on_packet_into(state, pkt, &mut actions);
        actions
    }

    /// [`Self::on_packet`], appending the actions to `out`.
    pub fn on_packet_into(
        &mut self,
        state: &mut StateTable,
        pkt: &Packet,
        out: &mut Vec<ResponderAction>,
    ) {
        let qpn = pkt.bth.dest_qp;
        let psn = pkt.bth.psn;
        let Some(class) = state.classify_request(qpn, psn) else {
            out.push(ResponderAction::DroppedInvalid); // Unknown QP.
            return;
        };
        // A CE mark is a congestion signal regardless of how the PSN
        // classified — even a duplicate or out-of-sequence packet crossed
        // the congested queue, so the sender must still slow down. The
        // echo leads the packet's other actions.
        if pkt.ecn == strom_wire::ipv4::ECN_CE {
            out.push(ResponderAction::SendCnp { qpn });
        }
        match class {
            PsnClass::Valid => {
                // Forward progress resolves any pending gap.
                self.nak_armed[qpn as usize] = false;
                self.on_valid(state, pkt, out);
            }
            PsnClass::Duplicate => self.on_duplicate(pkt, out),
            PsnClass::Invalid => {
                // One NAK per gap (IB responder rule): once armed, the
                // requester is already retransmitting.
                if !self.nak_armed[qpn as usize] {
                    self.nak_armed[qpn as usize] = true;
                    let epsn = state.get(qpn).map(|s| s.epsn).unwrap_or(0);
                    out.push(ResponderAction::SendNakSequenceError {
                        qpn,
                        psn: epsn,
                        msn: self.msn.msn(qpn),
                    });
                }
                out.push(ResponderAction::DroppedInvalid);
            }
        }
    }

    fn on_valid(&mut self, state: &mut StateTable, pkt: &Packet, out: &mut Vec<ResponderAction>) {
        let qpn = pkt.bth.dest_qp;
        let psn = pkt.bth.psn;
        match pkt.opcode() {
            Opcode::WriteFirst | Opcode::WriteOnly => {
                let Some(reth) = pkt.reth else {
                    out.push(ResponderAction::DroppedInvalid);
                    return;
                };
                let vaddr = self.msn.start_message(qpn, reth.vaddr, pkt.payload.len());
                out.push(ResponderAction::WritePayload {
                    vaddr,
                    data: pkt.payload.clone(),
                });
                state.advance_epsn(qpn, 1);
                if pkt.opcode() == Opcode::WriteOnly {
                    let msn = self.msn.complete_message(qpn);
                    out.push(ResponderAction::SendAck { qpn, psn, msn });
                }
            }
            Opcode::WriteMiddle | Opcode::WriteLast => {
                let Some(vaddr) = self.msn.continue_message(qpn, pkt.payload.len()) else {
                    // Middle/Last without First: protocol violation.
                    out.push(ResponderAction::DroppedInvalid);
                    return;
                };
                out.push(ResponderAction::WritePayload {
                    vaddr,
                    data: pkt.payload.clone(),
                });
                state.advance_epsn(qpn, 1);
                if pkt.opcode() == Opcode::WriteLast {
                    let msn = self.msn.complete_message(qpn);
                    out.push(ResponderAction::SendAck { qpn, psn, msn });
                }
            }
            Opcode::ReadRequest => {
                let Some(reth) = pkt.reth else {
                    out.push(ResponderAction::DroppedInvalid);
                    return;
                };
                // A read consumes as many PSNs as it has response packets.
                let n = self.read_response_packets(reth.dma_len);
                state.advance_epsn(qpn, n);
                self.msn.start_message(qpn, reth.vaddr, 0);
                self.msn.complete_message(qpn);
                out.push(ResponderAction::ReadResponse {
                    qpn,
                    first_psn: psn,
                    vaddr: reth.vaddr,
                    len: reth.dma_len,
                });
            }
            Opcode::RpcParams => {
                let Some(reth) = pkt.reth else {
                    out.push(ResponderAction::DroppedInvalid);
                    return;
                };
                state.advance_epsn(qpn, 1);
                self.msn.start_message(qpn, 0, 0);
                let msn = self.msn.complete_message(qpn);
                out.push(ResponderAction::RpcInvoke {
                    qpn,
                    rpc_op: RpcOpCode(reth.vaddr),
                    params: pkt.payload.clone(),
                });
                out.push(ResponderAction::SendAck { qpn, psn, msn });
            }
            Opcode::RpcWriteFirst | Opcode::RpcWriteOnly => {
                let Some(reth) = pkt.reth else {
                    out.push(ResponderAction::DroppedInvalid);
                    return;
                };
                let rpc_op = RpcOpCode(reth.vaddr);
                let last = pkt.opcode() == Opcode::RpcWriteOnly;
                state.advance_epsn(qpn, 1);
                self.msn.start_message(qpn, 0, 0);
                if !last {
                    self.rpc_in_progress[qpn as usize] = Some(rpc_op);
                }
                out.push(ResponderAction::RpcPayload {
                    qpn,
                    rpc_op,
                    data: pkt.payload.clone(),
                    last,
                });
                if last {
                    let msn = self.msn.complete_message(qpn);
                    out.push(ResponderAction::SendAck { qpn, psn, msn });
                }
            }
            Opcode::RpcWriteMiddle | Opcode::RpcWriteLast => {
                let Some(rpc_op) = self.rpc_in_progress[qpn as usize] else {
                    out.push(ResponderAction::DroppedInvalid);
                    return;
                };
                let last = pkt.opcode() == Opcode::RpcWriteLast;
                state.advance_epsn(qpn, 1);
                out.push(ResponderAction::RpcPayload {
                    qpn,
                    rpc_op,
                    data: pkt.payload.clone(),
                    last,
                });
                if last {
                    self.rpc_in_progress[qpn as usize] = None;
                    let msn = self.msn.complete_message(qpn);
                    out.push(ResponderAction::SendAck { qpn, psn, msn });
                }
            }
            Opcode::Acknowledge
            | Opcode::ReadResponseFirst
            | Opcode::ReadResponseMiddle
            | Opcode::ReadResponseLast
            | Opcode::ReadResponseOnly
            | Opcode::Cnp => {
                // Responder never sees these; the NIC routes ACKs and
                // read responses to the requester FSM and CNPs to the
                // DCQCN reaction point.
                out.push(ResponderAction::DroppedInvalid);
            }
        }
    }

    fn on_duplicate(&mut self, pkt: &Packet, out: &mut Vec<ResponderAction>) {
        let qpn = pkt.bth.dest_qp;
        let psn = pkt.bth.psn;
        match pkt.opcode() {
            // Duplicate reads must be re-executed (the original response
            // may have been lost); write data was already placed, so
            // duplicates are dropped but re-acknowledged.
            Opcode::ReadRequest => match pkt.reth {
                Some(reth) => out.push(ResponderAction::ReadResponse {
                    qpn,
                    first_psn: psn,
                    vaddr: reth.vaddr,
                    len: reth.dma_len,
                }),
                None => out.push(ResponderAction::DroppedInvalid),
            },
            _ => out.extend([
                ResponderAction::SendAck {
                    qpn,
                    psn,
                    msn: self.msn.msn(qpn),
                },
                ResponderAction::DroppedDuplicate,
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_wire::bth::Reth;

    fn setup() -> (StateTable, Responder) {
        let mut st = StateTable::new(8);
        st.init_qp(1, 0, 0);
        (st, Responder::new(8, 1440))
    }

    fn write_only(psn: Psn, vaddr: u64, data: &[u8]) -> Packet {
        Packet::new(
            0,
            1,
            Opcode::WriteOnly,
            1,
            psn,
            Some(Reth {
                vaddr,
                rkey: 0,
                dma_len: data.len() as u32,
            }),
            None,
            Bytes::copy_from_slice(data),
        )
    }

    #[test]
    fn write_only_places_payload_and_acks() {
        let (mut st, mut r) = setup();
        let actions = r.on_packet(&mut st, &write_only(0, 0x1000, b"abc"));
        assert_eq!(
            actions[0],
            ResponderAction::WritePayload {
                vaddr: 0x1000,
                data: Bytes::from_static(b"abc")
            }
        );
        assert!(matches!(
            actions[1],
            ResponderAction::SendAck {
                qpn: 1,
                psn: 0,
                msn: 1
            }
        ));
        assert_eq!(st.get(1).unwrap().epsn, 1);
    }

    #[test]
    fn multi_packet_write_tracks_dma_address() {
        let (mut st, mut r) = setup();
        let first = Packet::new(
            0,
            1,
            Opcode::WriteFirst,
            1,
            0,
            Some(Reth {
                vaddr: 0x2000,
                rkey: 0,
                dma_len: 3000,
            }),
            None,
            Bytes::from(vec![1u8; 1440]),
        );
        let middle = Packet::new(
            0,
            1,
            Opcode::WriteMiddle,
            1,
            1,
            None,
            None,
            Bytes::from(vec![2u8; 1440]),
        );
        let last = Packet::new(
            0,
            1,
            Opcode::WriteLast,
            1,
            2,
            None,
            None,
            Bytes::from(vec![3u8; 120]),
        );

        let a1 = r.on_packet(&mut st, &first);
        assert!(matches!(
            a1[0],
            ResponderAction::WritePayload { vaddr: 0x2000, .. }
        ));
        assert_eq!(a1.len(), 1, "no ack until the message completes");

        let a2 = r.on_packet(&mut st, &middle);
        assert!(matches!(
            a2[0],
            ResponderAction::WritePayload { vaddr, .. } if vaddr == 0x2000 + 1440
        ));

        let a3 = r.on_packet(&mut st, &last);
        assert!(matches!(
            a3[0],
            ResponderAction::WritePayload { vaddr, .. } if vaddr == 0x2000 + 2880
        ));
        assert!(matches!(a3[1], ResponderAction::SendAck { msn: 1, .. }));
        assert_eq!(st.get(1).unwrap().epsn, 3);
    }

    #[test]
    fn gap_triggers_nak_and_drop() {
        let (mut st, mut r) = setup();
        // PSN 5 while expecting 0.
        let actions = r.on_packet(&mut st, &write_only(5, 0, b"x"));
        assert!(matches!(
            actions[0],
            ResponderAction::SendNakSequenceError { psn: 0, .. }
        ));
        assert_eq!(actions[1], ResponderAction::DroppedInvalid);
        assert_eq!(st.get(1).unwrap().epsn, 0, "ePSN unchanged");
    }

    #[test]
    fn duplicate_write_is_reacked_not_rewritten() {
        let (mut st, mut r) = setup();
        let pkt = write_only(0, 0x1000, b"abc");
        r.on_packet(&mut st, &pkt);
        let actions = r.on_packet(&mut st, &pkt);
        assert!(matches!(actions[0], ResponderAction::SendAck { .. }));
        assert_eq!(actions[1], ResponderAction::DroppedDuplicate);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ResponderAction::WritePayload { .. })),
            "duplicate payload must not be written twice"
        );
    }

    #[test]
    fn read_request_consumes_response_psns() {
        let (mut st, mut r) = setup();
        let pkt = Packet::new(
            0,
            1,
            Opcode::ReadRequest,
            1,
            0,
            Some(Reth {
                vaddr: 0x3000,
                rkey: 0,
                dma_len: 4000, // 3 response packets at 1440.
            }),
            None,
            Bytes::new(),
        );
        let actions = r.on_packet(&mut st, &pkt);
        assert_eq!(
            actions[0],
            ResponderAction::ReadResponse {
                qpn: 1,
                first_psn: 0,
                vaddr: 0x3000,
                len: 4000
            }
        );
        assert_eq!(st.get(1).unwrap().epsn, 3, "read consumed 3 PSNs");
    }

    #[test]
    fn duplicate_read_is_reexecuted() {
        let (mut st, mut r) = setup();
        let pkt = Packet::new(
            0,
            1,
            Opcode::ReadRequest,
            1,
            0,
            Some(Reth {
                vaddr: 0x3000,
                rkey: 0,
                dma_len: 100,
            }),
            None,
            Bytes::new(),
        );
        r.on_packet(&mut st, &pkt);
        let again = r.on_packet(&mut st, &pkt);
        assert!(
            matches!(again[0], ResponderAction::ReadResponse { .. }),
            "lost responses require re-execution"
        );
    }

    #[test]
    fn rpc_params_invokes_kernel_and_acks() {
        let (mut st, mut r) = setup();
        let pkt = Packet::new(
            0,
            1,
            Opcode::RpcParams,
            1,
            0,
            Some(Reth {
                vaddr: RpcOpCode::TRAVERSAL.0,
                rkey: 0,
                dma_len: 4,
            }),
            None,
            Bytes::from_static(b"args"),
        );
        let actions = r.on_packet(&mut st, &pkt);
        assert_eq!(
            actions[0],
            ResponderAction::RpcInvoke {
                qpn: 1,
                rpc_op: RpcOpCode::TRAVERSAL,
                params: Bytes::from_static(b"args"),
            }
        );
        assert!(matches!(actions[1], ResponderAction::SendAck { .. }));
    }

    #[test]
    fn rpc_write_streams_payload_to_kernel() {
        let (mut st, mut r) = setup();
        let first = Packet::new(
            0,
            1,
            Opcode::RpcWriteFirst,
            1,
            0,
            Some(Reth {
                vaddr: RpcOpCode::SHUFFLE.0,
                rkey: 0,
                dma_len: 2880,
            }),
            None,
            Bytes::from(vec![1u8; 1440]),
        );
        let last = Packet::new(
            0,
            1,
            Opcode::RpcWriteLast,
            1,
            1,
            None,
            None,
            Bytes::from(vec![2u8; 1440]),
        );
        let a1 = r.on_packet(&mut st, &first);
        assert!(matches!(
            &a1[0],
            ResponderAction::RpcPayload { rpc_op, last: false, .. } if *rpc_op == RpcOpCode::SHUFFLE
        ));
        let a2 = r.on_packet(&mut st, &last);
        assert!(matches!(
            &a2[0],
            ResponderAction::RpcPayload { rpc_op, last: true, .. } if *rpc_op == RpcOpCode::SHUFFLE
        ));
        assert!(matches!(a2[1], ResponderAction::SendAck { .. }));
    }

    #[test]
    fn rpc_write_middle_without_first_is_dropped() {
        let (mut st, mut r) = setup();
        let middle = Packet::new(
            0,
            1,
            Opcode::RpcWriteMiddle,
            1,
            0,
            None,
            None,
            Bytes::from(vec![0u8; 8]),
        );
        let actions = r.on_packet(&mut st, &middle);
        assert_eq!(actions, vec![ResponderAction::DroppedInvalid]);
    }

    #[test]
    fn ce_marked_packet_prepends_a_cnp() {
        let (mut st, mut r) = setup();
        let mut pkt = write_only(0, 0x1000, b"abc");
        pkt.ecn = strom_wire::ipv4::ECN_CE;
        let actions = r.on_packet(&mut st, &pkt);
        assert_eq!(actions[0], ResponderAction::SendCnp { qpn: 1 });
        assert!(matches!(actions[1], ResponderAction::WritePayload { .. }));
        assert!(matches!(actions[2], ResponderAction::SendAck { .. }));
        // A CE-marked duplicate still signals congestion.
        let again = r.on_packet(&mut st, &pkt);
        assert_eq!(again[0], ResponderAction::SendCnp { qpn: 1 });
        assert!(again.contains(&ResponderAction::DroppedDuplicate));
    }

    #[test]
    fn unmarked_packets_never_generate_cnps() {
        let (mut st, mut r) = setup();
        let actions = r.on_packet(&mut st, &write_only(0, 0x1000, b"abc"));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, ResponderAction::SendCnp { .. })));
    }

    #[test]
    fn unknown_qp_is_dropped() {
        let (mut st, mut r) = setup();
        let pkt = write_only(0, 0, b"x");
        let mut pkt2 = pkt.clone();
        pkt2.bth.dest_qp = 7; // Initialized table has only QP 1.
        let actions = r.on_packet(&mut st, &pkt2);
        assert_eq!(actions, vec![ResponderAction::DroppedInvalid]);
    }
}
