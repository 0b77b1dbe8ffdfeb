//! Randomized tests of the protocol state machines, driven by the
//! deterministic [`SimRng`] with fixed seeds.

use bytes::Bytes;
use strom_sim::SimRng;

use strom_proto::psn::{classify, psn_add, PsnClass};
use strom_proto::{MultiQueue, Requester, Responder, ResponderAction, StateTable, WorkRequest};
use strom_wire::bth::{Aeth, AethSyndrome, MASK_24};
use strom_wire::packet::Packet;

/// Valid/duplicate/invalid partition the PSN space: every PSN falls into
/// exactly one class, and exactly one PSN is Valid.
#[test]
fn psn_classes_partition_the_space() {
    let mut rng = SimRng::seed(0x95);
    for _ in 0..2000 {
        let epsn = rng.below(1 << 24) as u32;
        let probe = rng.below(1 << 24) as u32;
        match classify(probe, epsn) {
            PsnClass::Valid => assert_eq!(probe, epsn),
            PsnClass::Duplicate => {
                // Behind: adding the forward distance gets back to epsn.
                let dist = epsn.wrapping_sub(probe) & MASK_24;
                assert!(dist > 0 && dist < (1 << 23) || dist == 0 && probe == epsn);
                assert_eq!(psn_add(probe, dist), epsn);
            }
            PsnClass::Invalid => {
                let dist = probe.wrapping_sub(epsn) & MASK_24;
                assert!(dist > 0 && dist <= (1 << 23));
            }
        }
    }
}

/// psn_add is associative with respect to splitting the delta.
#[test]
fn psn_add_splits() {
    let mut rng = SimRng::seed(0xadd);
    for _ in 0..2000 {
        let base = rng.below(1 << 24) as u32;
        let a = rng.below(1 << 24) as u32;
        let b = rng.below(1 << 24) as u32;
        let whole = psn_add(base, a.wrapping_add(b) & MASK_24);
        let split = psn_add(psn_add(base, a), b);
        assert_eq!(whole, split);
    }
}

/// The Multi-Queue behaves exactly like a vector-of-queues model under
/// an arbitrary operation sequence.
#[test]
fn multi_queue_matches_model() {
    let mut rng = SimRng::seed(0x309);
    for _ in 0..100 {
        let mut mq = MultiQueue::new(4, 16);
        let mut model: Vec<std::collections::VecDeque<(u64, u32)>> =
            vec![std::collections::VecDeque::new(); 4];
        let mut in_use = 0usize;
        for _ in 0..rng.range(1, 200) {
            let op = rng.below(4) as u32;
            let qpn = rng.below(4) as u32;
            let arg = rng.range(1, 100) as u32;
            match op {
                // Push.
                0 | 1 => {
                    let ptr = u64::from(arg) * 1000;
                    let ok = mq.push(qpn, ptr, arg);
                    if in_use < 16 {
                        assert!(ok);
                        model[qpn as usize].push_back((ptr, arg));
                        in_use += 1;
                    } else {
                        assert!(!ok, "model expected a full queue");
                    }
                }
                // Consume some bytes.
                _ => {
                    let got = mq.consume(qpn, arg);
                    let front = model[qpn as usize].front_mut();
                    match (got, front) {
                        (None, None) => {}
                        (Some((addr, done)), Some(entry)) => {
                            assert_eq!(addr, entry.0);
                            let consumed = arg.min(entry.1);
                            entry.0 += u64::from(consumed);
                            entry.1 -= consumed;
                            if entry.1 == 0 {
                                assert!(done);
                                model[qpn as usize].pop_front();
                                in_use -= 1;
                            } else {
                                assert!(!done);
                            }
                        }
                        (got, front) => panic!("divergence: {got:?} vs {front:?}"),
                    }
                }
            }
            assert_eq!(mq.free_slots() as usize, 16 - in_use);
        }
    }
}

/// A requester/responder conversation over a perfect wire delivers every
/// write exactly once and completes every request, for an arbitrary mix
/// of write sizes.
#[test]
fn lockstep_conversation_completes() {
    let mut rng = SimRng::seed(0x10c);
    for _ in 0..50 {
        let sizes: Vec<u32> = (0..rng.range(1, 20))
            .map(|_| rng.range(1, 6000) as u32)
            .collect();
        let mut client_state = StateTable::new(4);
        let mut server_state = StateTable::new(4);
        client_state.init_qp(1, 0, 0);
        server_state.init_qp(1, 0, 0);
        let mut requester = Requester::new(4, 16, 1440);
        let mut responder = Responder::new(4, 1440);

        let mut completions = 0usize;
        let mut delivered: Vec<(u64, usize)> = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let remote = 0x10_000 * (i as u64 + 1);
            let (_, pkts) = requester
                .post(
                    &mut client_state,
                    1,
                    WorkRequest::Write {
                        remote_vaddr: remote,
                        local_vaddr: 0,
                        len,
                    },
                )
                .expect("post");
            for desc in pkts {
                // Materialize the packet as the NIC would.
                let payload = Bytes::from(vec![0xaau8; desc.payload.len() as usize]);
                let pkt = Packet::new(
                    0,
                    1,
                    desc.opcode,
                    desc.qpn,
                    desc.psn,
                    desc.reth,
                    None,
                    payload,
                );
                for action in responder.on_packet(&mut server_state, &pkt) {
                    match action {
                        ResponderAction::WritePayload { vaddr, data } => {
                            delivered.push((vaddr, data.len()));
                        }
                        ResponderAction::SendAck { qpn, psn, msn } => {
                            let _ = msn;
                            let (comps, retx) = requester.on_ack(
                                &mut client_state,
                                qpn,
                                psn,
                                Aeth {
                                    syndrome: AethSyndrome::Ack,
                                    msn: 0,
                                },
                            );
                            assert!(retx.is_empty(), "no loss, no retransmit");
                            completions += comps.len();
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        assert_eq!(completions, sizes.len());
        // Each message's payload bytes were delivered contiguously from
        // its base address.
        let mut by_msg: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (vaddr, len) in &delivered {
            let base = vaddr & !0xffff;
            let cursor = by_msg.entry(base).or_insert(base);
            assert_eq!(*vaddr, *cursor, "contiguous placement");
            *cursor += *len as u64;
        }
        for (i, &len) in sizes.iter().enumerate() {
            let base = 0x10_000 * (i as u64 + 1);
            assert_eq!(by_msg[&base], base + u64::from(len));
        }
    }
}

/// Go-back-N under arbitrary single-packet drops still delivers every
/// message: drop one chosen packet on first transmission, let the NAK
/// or duplicate path recover.
#[test]
fn single_drop_recovers() {
    let mut rng = SimRng::seed(0xd70);
    for _ in 0..100 {
        let len = rng.range(1500, 20_000) as u32;
        let mut client_state = StateTable::new(2);
        let mut server_state = StateTable::new(2);
        client_state.init_qp(1, 0, 0);
        server_state.init_qp(1, 0, 0);
        let mut requester = Requester::new(2, 8, 1440);
        let mut responder = Responder::new(2, 1440);

        let (_, pkts) = requester
            .post(
                &mut client_state,
                1,
                WorkRequest::Write {
                    remote_vaddr: 0x8000,
                    local_vaddr: 0,
                    len,
                },
            )
            .expect("post");
        let dropped = rng.below(pkts.len() as u64) as usize;
        let mut delivered = 0u64;
        let mut completed = false;

        // Queue of packets to process (descriptors).
        let mut wire: std::collections::VecDeque<strom_proto::PacketDescriptor> =
            pkts.iter().cloned().collect();
        let mut first_pass_counter = 0usize;
        let mut guard = 0usize;
        let mut timeouts = 0usize;
        loop {
            let Some(desc) = wire.pop_front() else {
                if completed {
                    break;
                }
                // Dropping the tail packet produces no NAK (nothing
                // arrives after the gap): the retransmission timer is the
                // only recovery path, exactly as in the real protocol.
                timeouts += 1;
                assert!(timeouts <= 2, "timer should recover in one shot");
                let mut retx = Vec::new();
                requester.on_timeout_into(1, &mut retx);
                wire.extend(retx);
                continue;
            };
            guard += 1;
            assert!(guard < 10_000, "conversation did not converge");
            // Drop exactly one packet, on its first transmission.
            if first_pass_counter == dropped {
                first_pass_counter += 1;
                continue;
            }
            if first_pass_counter < pkts.len() {
                first_pass_counter += 1;
            }
            let payload = Bytes::from(vec![0u8; desc.payload.len() as usize]);
            let pkt = Packet::new(
                0,
                1,
                desc.opcode,
                desc.qpn,
                desc.psn,
                desc.reth,
                None,
                payload,
            );
            for action in responder.on_packet(&mut server_state, &pkt) {
                match action {
                    ResponderAction::WritePayload { data, .. } => delivered += data.len() as u64,
                    ResponderAction::SendAck { psn, .. } => {
                        let (comps, retx) = requester.on_ack(
                            &mut client_state,
                            1,
                            psn,
                            Aeth {
                                syndrome: AethSyndrome::Ack,
                                msn: 0,
                            },
                        );
                        completed |= !comps.is_empty();
                        wire.extend(retx);
                    }
                    ResponderAction::SendNakSequenceError { psn, .. } => {
                        let (_, retx) = requester.on_ack(
                            &mut client_state,
                            1,
                            psn,
                            Aeth {
                                syndrome: AethSyndrome::NakSequenceError,
                                msn: 0,
                            },
                        );
                        wire.extend(retx);
                    }
                    ResponderAction::DroppedDuplicate | ResponderAction::DroppedInvalid => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(completed, "message must complete despite the drop");
        assert!(
            delivered >= u64::from(len),
            "every byte delivered at least once"
        );
    }
}
