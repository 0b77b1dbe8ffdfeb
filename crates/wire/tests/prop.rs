//! Randomized tests of the wire codecs, driven by the deterministic
//! [`SimRng`] (fixed seeds, so every run explores the same cases).

use bytes::Bytes;
use strom_sim::SimRng;

use strom_wire::bth::{Aeth, AethSyndrome, Bth, Reth};
use strom_wire::icrc;
use strom_wire::opcode::Opcode;
use strom_wire::packet::Packet;
use strom_wire::segment::{segment_message, SegmentKind};
use strom_wire::{ipv4, max_payload};

fn rand_packet(rng: &mut SimRng) -> Packet {
    let op = Opcode::ALL[rng.below(Opcode::ALL.len() as u64) as usize];
    let qpn = rng.below(1 << 24) as u32;
    let psn = rng.below(1 << 24) as u32;
    let payload = if op.has_payload() {
        let mut buf = vec![0u8; rng.below(256) as usize];
        rng.fill_bytes(&mut buf);
        Bytes::from(buf)
    } else {
        Bytes::new()
    };
    let reth = op.has_reth().then(|| Reth {
        vaddr: rng.next_u64(),
        rkey: rng.next_u64() as u32,
        dma_len: rng.below(4097) as u32,
    });
    let aeth = op.has_aeth().then_some(Aeth {
        syndrome: AethSyndrome::Ack,
        msn: psn & 0xff_ffff,
    });
    Packet::new(1, 2, op, qpn, psn, reth, aeth, payload)
}

/// Encoding then parsing any packet is the identity.
#[test]
fn packet_round_trip() {
    let mut rng = SimRng::seed(0x77_17);
    for _ in 0..300 {
        let pkt = rand_packet(&mut rng);
        let parsed = Packet::parse(&Bytes::from(pkt.encode())).expect("own encoding parses");
        assert_eq!(parsed, pkt);
    }
}

/// Any single-bit flip anywhere in the frame is rejected somewhere in
/// the pipeline (ICRC, IP checksum, or a header check) — or, if it
/// lands in the Ethernet MACs (unprotected in our byte encoding, FCS
/// is accounted in timing only), parsing still never panics.
#[test]
fn bit_flips_never_panic_and_rarely_pass() {
    let mut rng = SimRng::seed(0xf11b);
    for _ in 0..1000 {
        let pkt = rand_packet(&mut rng);
        let mut frame = pkt.encode();
        let i = rng.below(frame.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        frame[i] ^= 1 << bit;
        // Genuinely unprotected bytes (as in real RoCE v2): the Ethernet
        // MACs (their FCS is modeled in timing only), the UDP source port
        // (a *variable* field the ICRC masks out), and the UDP checksum
        // (zero by RoCE convention, not validated).
        let unprotected = i < 12 || (34..36).contains(&i) || (40..42).contains(&i);
        if Packet::parse(&Bytes::from(frame)).is_ok() {
            assert!(unprotected, "flip at byte {i} passed");
        }
    }
}

/// Truncated frames never panic and never parse.
#[test]
fn truncation_is_rejected() {
    let mut rng = SimRng::seed(0x7277);
    for _ in 0..300 {
        let pkt = rand_packet(&mut rng);
        let frame = Bytes::from(pkt.encode());
        let keep = rng.below(frame.len() as u64) as usize;
        assert!(Packet::parse(&frame.slice(..keep)).is_err());
    }
}

/// The ICRC (carry-less fold + slice-by-16) equals the byte-at-a-time
/// reference on random lengths, contents, and alignments — including
/// empty, 1-byte, and larger-than-MTU inputs, and unaligned starting
/// offsets (both loops read multi-byte blocks, so every offset modulo the
/// block must agree).
#[test]
fn icrc_slice16_matches_reference() {
    let mut rng = SimRng::seed(0xc32c);
    let mut buf = vec![0u8; 16384];
    rng.fill_bytes(&mut buf);
    for len in [0usize, 1, 7, 8, 9, 4096, 9001, 16384] {
        assert_eq!(
            icrc::icrc(&buf[..len]),
            icrc::icrc_reference(&buf[..len]),
            "fixed len = {len}"
        );
    }
    for _ in 0..500 {
        let start = rng.below(64) as usize;
        let len = rng.below((buf.len() - start) as u64 + 1) as usize;
        let data = &buf[start..start + len];
        assert_eq!(
            icrc::icrc(data),
            icrc::icrc_reference(data),
            "start = {start}, len = {len}"
        );
    }
}

/// Segmentation tiles the message exactly, respects the budget, and
/// classifies First/Middle/Last/Only correctly.
#[test]
fn segmentation_invariants() {
    let mut rng = SimRng::seed(0x5e6);
    for _ in 0..300 {
        let total = rng.below(100_000) as usize;
        let budget = rng.range(1, 4096) as usize;
        let segs: Vec<_> = segment_message(total, budget).collect();
        // Tiling.
        let mut offset = 0;
        for s in &segs {
            assert_eq!(s.offset, offset);
            assert!(s.len <= budget);
            offset += s.len;
        }
        assert_eq!(offset, total);
        // Classification.
        if segs.len() == 1 {
            assert_eq!(segs[0].kind, SegmentKind::Only);
        } else {
            assert_eq!(segs[0].kind, SegmentKind::First);
            assert_eq!(segs[segs.len() - 1].kind, SegmentKind::Last);
            for s in &segs[1..segs.len() - 1] {
                assert_eq!(s.kind, SegmentKind::Middle);
            }
        }
        // Reassembly is the identity on data.
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let mut rebuilt = Vec::new();
        for s in &segs {
            rebuilt.extend_from_slice(&data[s.offset..s.offset + s.len]);
        }
        assert_eq!(rebuilt, data);
    }
}

/// The internet checksum of a header with its checksum field filled
/// in is always zero, and flipping any byte breaks it.
#[test]
fn ipv4_checksum_detects_corruption() {
    let mut rng = SimRng::seed(0x1b4);
    for _ in 0..300 {
        let mut src = [0u8; 4];
        let mut dst = [0u8; 4];
        rng.fill_bytes(&mut src);
        rng.fill_bytes(&mut dst);
        let len = rng.below(1400) as usize;
        let ident = rng.next_u64() as u16;
        let h = ipv4::Ipv4Header::for_udp(ipv4::Ipv4Addr(src), ipv4::Ipv4Addr(dst), len, ident);
        let mut buf = h.to_bytes();
        assert_eq!(ipv4::checksum(&buf), 0);
        let i = rng.below(buf.len() as u64) as usize;
        buf[i] ^= 0xff;
        assert_ne!(ipv4::checksum(&buf), 0, "flip at {i} undetected");
    }
}

/// BTH wire round trip for arbitrary field values.
#[test]
fn bth_round_trip() {
    let mut rng = SimRng::seed(0xb7);
    for _ in 0..300 {
        let op = Opcode::ALL[rng.below(Opcode::ALL.len() as u64) as usize];
        let bth = Bth::new(
            op,
            rng.next_u64() as u32,
            rng.next_u64() as u32,
            rng.chance(0.5),
        );
        assert_eq!(Bth::read(&bth.to_bytes()), Some(bth));
    }
}

/// Payload budgets shrink monotonically with header additions and the
/// max_payload fits the MTU.
#[test]
fn payload_budget_fits_mtu() {
    let mut rng = SimRng::seed(0x307);
    for _ in 0..300 {
        let mtu = rng.range(100, 9000) as usize;
        let p = max_payload(mtu);
        assert!(p < mtu);
        // A full packet at this budget encodes within MTU + Ethernet.
        if p > 0 {
            let pkt = Packet::new(
                1,
                2,
                Opcode::WriteOnly,
                1,
                0,
                Some(Reth {
                    vaddr: 0,
                    rkey: 0,
                    dma_len: p as u32,
                }),
                None,
                Bytes::from(vec![0u8; p]),
            );
            assert!(pkt.ip_len() <= mtu);
        }
    }
}

/// A frame built in one pass ([`Packet::build`], the NIC's transmit path)
/// is byte for byte what [`Packet::encode_into`] writes, and it parses
/// back to the same packet with the payload a slice of the frame: every
/// op-code, with RETH and AETH as it requires, every ECN codepoint,
/// ragged payload lengths from empty to the MTU's payload budget.
#[test]
fn a_frame_built_in_one_pass_is_the_encoded_frame() {
    let mut rng = SimRng::seed(0xb1_1d);
    let max = max_payload(strom_wire::DEFAULT_MTU);
    let syndromes = [
        AethSyndrome::Ack,
        AethSyndrome::NakSequenceError,
        AethSyndrome::NakRemoteOperationalError,
    ];
    let mut encoded = Vec::new();
    for op in Opcode::ALL {
        for ecn in 0..4u8 {
            let mut lens = vec![0];
            if op.has_payload() {
                lens.extend([1, max]);
                lens.extend((0..6).map(|_| rng.range(2, max as u64) as usize));
            }
            for len in lens {
                let mut payload = vec![0u8; len];
                rng.fill_bytes(&mut payload);
                let psn = rng.below(1 << 24) as u32;
                let reth = op.has_reth().then(|| Reth {
                    vaddr: rng.next_u64(),
                    rkey: rng.next_u64() as u32,
                    dma_len: len as u32,
                });
                let aeth = op.has_aeth().then(|| Aeth {
                    syndrome: syndromes[rng.below(3) as usize],
                    msn: rng.below(1 << 24) as u32,
                });
                let qpn = rng.below(1 << 24) as u32;
                let (src, dst) = (rng.below(200) as u32, rng.below(200) as u32);
                let header = |payload| {
                    let mut p = Packet::new(src, dst, op, qpn, psn, reth, aeth, payload);
                    p.ecn = ecn;
                    p
                };
                let want = header(Bytes::copy_from_slice(&payload));
                want.encode_into(&mut encoded);

                let frame = header(Bytes::new()).build(len, |slot| slot.copy_from_slice(&payload));
                let at = format!("{op:?}, ecn {ecn}, {len} B");
                assert_eq!(frame[..], encoded[..], "{at}");
                let slot = frame.len() - icrc::ICRC_LEN - len;
                let parsed = Packet::parse(&frame).expect("a built frame parses");
                assert_eq!(parsed, want, "{at}");
                assert_eq!(parsed.payload.as_ptr(), frame[slot..].as_ptr(), "{at}");
            }
        }
    }
}
