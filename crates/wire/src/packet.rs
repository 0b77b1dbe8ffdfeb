//! Whole-packet encode/parse: the functional equivalent of the RX/TX
//! pipelines' header stages chained together (Figure 2).
//!
//! A [`Packet`] is the in-simulation representation of one RoCE v2 frame.
//! `encode` produces the exact byte stream (Ethernet + IPv4 + UDP + BTH
//! [+ RETH] [+ AETH] + payload + ICRC); `parse` is its inverse and performs
//! the same validity checks the hardware pipeline performs, stage by stage,
//! reporting *where* an invalid packet would have been dropped.
//!
//! Both directions are engineered as a fast datapath: [`Packet::encode_into`]
//! writes the whole frame into one caller-supplied buffer in a single pass
//! (header lengths are known up front, so no intermediate RoCE-payload
//! buffer is assembled and the ICRC is computed in place over the tail),
//! and [`Packet::parse`] takes the frame as [`Bytes`] and returns the
//! payload as an O(1) slice of it — zero copies on either side of the
//! simulated wire.

use bytes::Bytes;

use crate::bth::{Aeth, Bth, Psn, Qpn, Reth};
use crate::ethernet::{self, EtherType, MacAddr};
use crate::icrc;
use crate::ipv4::{Ipv4Addr, Ipv4Header, PROTO_UDP};
use crate::opcode::Opcode;
use crate::udp::UdpHeader;

/// One RoCE v2 packet with all headers and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Base transport header.
    pub bth: Bth,
    /// RDMA extended transport header, when the op-code carries one.
    pub reth: Option<Reth>,
    /// ACK extended transport header, when the op-code carries one.
    pub aeth: Option<Aeth>,
    /// ECN codepoint carried in the IPv4 header (`ECN_NOT_ECT` unless the
    /// sender advertises ECN capability; `ECN_CE` after a switch marks it).
    pub ecn: u8,
    /// Payload bytes (cheaply cloneable).
    pub payload: Bytes,
}

/// Where in the RX pipeline an invalid packet is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Dropped before the IP stage: truncated or non-IPv4 frame.
    Ethernet,
    /// Dropped in the Process IP stage: bad checksum/length/protocol.
    Ip,
    /// Dropped in the Process UDP stage: wrong port or bad length.
    Udp,
    /// Dropped in the Process BTH stage: unknown op-code or truncation.
    Bth,
    /// Dropped in the Process RETH/AETH stage: missing extended header.
    Eth,
    /// Dropped at ICRC validation: corrupted packet.
    Icrc,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stage = match self {
            PacketError::Ethernet => "ethernet",
            PacketError::Ip => "ip",
            PacketError::Udp => "udp",
            PacketError::Bth => "bth",
            PacketError::Eth => "reth/aeth",
            PacketError::Icrc => "icrc",
        };
        write!(f, "packet dropped at the {stage} stage")
    }
}

impl std::error::Error for PacketError {}

impl Packet {
    /// Builds a request/response packet between two simulated nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src_node: u32,
        dst_node: u32,
        opcode: Opcode,
        dest_qp: Qpn,
        psn: Psn,
        reth: Option<Reth>,
        aeth: Option<Aeth>,
        payload: Bytes,
    ) -> Self {
        debug_assert_eq!(opcode.has_reth(), reth.is_some(), "RETH presence");
        debug_assert_eq!(opcode.has_aeth(), aeth.is_some(), "AETH presence");
        Packet {
            dst_mac: MacAddr::from_node_id(dst_node),
            src_mac: MacAddr::from_node_id(src_node),
            src_ip: Ipv4Addr::from_node_id(src_node as u8),
            dst_ip: Ipv4Addr::from_node_id(dst_node as u8),
            bth: Bth::new(opcode, dest_qp, psn, opcode.ends_message()),
            reth,
            aeth,
            ecn: crate::ipv4::ECN_NOT_ECT,
            payload,
        }
    }

    /// The op-code, for convenience.
    pub fn opcode(&self) -> Opcode {
        self.bth.opcode
    }

    /// Length of the encoded IP packet (IP header through ICRC).
    pub fn ip_len(&self) -> usize {
        let ib = crate::bth::BTH_LEN
            + if self.reth.is_some() {
                crate::bth::RETH_LEN
            } else {
                0
            }
            + if self.aeth.is_some() {
                crate::bth::AETH_LEN
            } else {
                0
            };
        crate::ipv4::IPV4_HEADER_LEN
            + crate::udp::UDP_HEADER_LEN
            + ib
            + self.payload.len()
            + icrc::ICRC_LEN
    }

    /// Total wire occupancy in bytes (framing, FCS, padding, preamble, IPG)
    /// — what the link serializer charges for this packet.
    pub fn wire_bytes(&self) -> usize {
        ethernet::wire_bytes(self.ip_len())
    }

    /// Encodes the full frame byte stream into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes the full frame byte stream into `buf` (cleared first) in a
    /// single pass: every length is known up front from [`Self::ip_len`],
    /// so headers, payload, and ICRC are written directly into one buffer
    /// with no intermediate allocation, reserved once at its exact size.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        let ip_len = self.ip_len();
        buf.reserve(ethernet::ETHERNET_HEADER_LEN + ip_len);
        ethernet::encode_header(self.dst_mac, self.src_mac, EtherType::Ipv4, buf);

        let udp_len = ip_len - crate::ipv4::IPV4_HEADER_LEN;
        let roce_len = udp_len - crate::udp::UDP_HEADER_LEN;
        let mut ip = Ipv4Header::for_udp(self.src_ip, self.dst_ip, udp_len, 0);
        ip.ecn = self.ecn;
        ip.encode(buf);
        let udp = UdpHeader::for_roce((self.bth.dest_qp & 0xffff) as u16, roce_len);
        udp.encode(buf);

        // The RoCE (UDP) payload: BTH [+RETH] [+AETH] + data + ICRC, with
        // the ICRC computed in place over the bytes just written.
        let roce_start = buf.len();
        self.bth.encode(buf);
        if let Some(reth) = &self.reth {
            reth.encode(buf);
        }
        if let Some(aeth) = &self.aeth {
            aeth.encode(buf);
        }
        buf.extend_from_slice(&self.payload);
        let crc = icrc::icrc(&buf[roce_start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len(), ethernet::ETHERNET_HEADER_LEN + ip_len);
    }

    /// Parses a frame, performing every pipeline validity check.
    ///
    /// Zero-copy: the returned packet's payload is an O(1)
    /// [`Bytes::slice`] of `frame`, not a copy — the frame buffer stays
    /// alive for exactly as long as something still references the
    /// payload.
    pub fn parse(frame: &Bytes) -> Result<Packet, PacketError> {
        let (dst_mac, src_mac, ethertype, rest) =
            ethernet::parse_header(frame).ok_or(PacketError::Ethernet)?;
        if EtherType::from_wire(ethertype) != Some(EtherType::Ipv4) {
            return Err(PacketError::Ethernet);
        }
        let (ip, rest) = Ipv4Header::parse(rest).ok_or(PacketError::Ip)?;
        if ip.protocol != PROTO_UDP {
            return Err(PacketError::Ip);
        }
        let (udp, roce) = UdpHeader::parse(rest).ok_or(PacketError::Udp)?;
        if !udp.is_roce() {
            return Err(PacketError::Udp);
        }
        // ICRC is validated over the whole IB packet (store-and-forward).
        let (body, ok) = icrc::check_icrc(roce).ok_or(PacketError::Icrc)?;
        if !ok {
            return Err(PacketError::Icrc);
        }
        let (bth, rest) = Bth::parse(body).ok_or(PacketError::Bth)?;
        let (reth, rest) = if bth.opcode.has_reth() {
            let (r, rest) = Reth::parse(rest).ok_or(PacketError::Eth)?;
            (Some(r), rest)
        } else {
            (None, rest)
        };
        let (aeth, rest) = if bth.opcode.has_aeth() {
            let (a, rest) = Aeth::parse(rest).ok_or(PacketError::Eth)?;
            (Some(a), rest)
        } else {
            (None, rest)
        };
        // `rest` is the payload. Recover its offset in `frame` from the
        // header structure alone: the RoCE region always starts right
        // after the fixed Ethernet + IPv4 + UDP headers, and the headers
        // consumed `body.len() - rest.len()` of it. Deriving the offset
        // from the *physical* frame tail instead would silently shift the
        // payload into any trailing bytes beyond the IP datagram (e.g.
        // Ethernet minimum-frame padding), which the length-bounded
        // header stages and the ICRC never look at.
        let payload_start = ethernet::ETHERNET_HEADER_LEN
            + crate::ipv4::IPV4_HEADER_LEN
            + crate::udp::UDP_HEADER_LEN
            + (body.len() - rest.len());
        let payload_end = payload_start + rest.len();
        Ok(Packet {
            dst_mac,
            src_mac,
            src_ip: ip.src,
            dst_ip: ip.dst,
            bth,
            reth,
            aeth,
            ecn: ip.ecn,
            payload: frame.slice(payload_start..payload_end),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bth::AethSyndrome;

    fn write_only(payload: &[u8]) -> Packet {
        Packet::new(
            1,
            2,
            Opcode::WriteOnly,
            5,
            100,
            Some(Reth {
                vaddr: 0x1000,
                rkey: 1,
                dma_len: payload.len() as u32,
            }),
            None,
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn encode_parse_round_trip_write() {
        let p = write_only(b"hello strom");
        let parsed = Packet::parse(&Bytes::from(p.encode())).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn encode_parse_round_trip_ack() {
        let p = Packet::new(
            2,
            1,
            Opcode::Acknowledge,
            7,
            55,
            None,
            Some(Aeth {
                syndrome: AethSyndrome::Ack,
                msn: 3,
            }),
            Bytes::new(),
        );
        let parsed = Packet::parse(&Bytes::from(p.encode())).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn encode_parse_round_trip_rpc_params() {
        let p = Packet::new(
            1,
            2,
            Opcode::RpcParams,
            9,
            1,
            Some(Reth {
                vaddr: crate::opcode::RpcOpCode::TRAVERSAL.0,
                rkey: 0,
                dma_len: 48,
            }),
            None,
            Bytes::from(vec![7u8; 48]),
        );
        let parsed = Packet::parse(&Bytes::from(p.encode())).unwrap();
        assert_eq!(parsed, p);
        assert!(parsed.opcode().is_strom_extension());
    }

    #[test]
    fn payload_corruption_fails_icrc() {
        let p = write_only(b"data to protect");
        let mut frame = p.encode();
        let n = frame.len();
        frame[n - 10] ^= 0x40;
        assert_eq!(Packet::parse(&Bytes::from(frame)), Err(PacketError::Icrc));
    }

    #[test]
    fn any_flipped_bit_in_an_mtu_frame_fails_icrc() {
        // An MTU frame's RoCE region is long enough for the carry-less
        // fold's four-lane loop, its single-lane tail and the table
        // finish: a flip anywhere in it must surface as an ICRC failure,
        // never as a packet (the BTH/RETH stages run after the check).
        use strom_sim::SimRng;
        let mut rng = SimRng::seed(0x1c2c);
        let mut payload = vec![0u8; crate::max_payload(crate::DEFAULT_MTU)];
        rng.fill_bytes(&mut payload);
        let frame = write_only(&payload).encode();
        let roce_start = ethernet::ETHERNET_HEADER_LEN
            + crate::ipv4::IPV4_HEADER_LEN
            + crate::udp::UDP_HEADER_LEN;
        assert!(Packet::parse(&Bytes::from(frame.clone())).is_ok());
        for _ in 0..256 {
            let byte = rng.range(roce_start as u64, frame.len() as u64) as usize;
            let bit = rng.below(8);
            let mut bad = frame.clone();
            bad[byte] ^= 1 << bit;
            assert_eq!(
                Packet::parse(&Bytes::from(bad)),
                Err(PacketError::Icrc),
                "flip of bit {bit} in byte {byte}"
            );
        }
    }

    #[test]
    fn wrong_udp_port_dropped_at_udp_stage() {
        let p = write_only(b"x");
        let mut frame = p.encode();
        // UDP dst port lives at eth(14) + ip(20) + 2.
        frame[14 + 20 + 2] = 0;
        frame[14 + 20 + 3] = 53;
        assert_eq!(Packet::parse(&Bytes::from(frame)), Err(PacketError::Udp));
    }

    #[test]
    fn non_ipv4_dropped_at_ethernet_stage() {
        let p = write_only(b"x");
        let mut frame = p.encode();
        frame[12] = 0x86;
        frame[13] = 0xdd; // IPv6.
        assert_eq!(
            Packet::parse(&Bytes::from(frame)),
            Err(PacketError::Ethernet)
        );
    }

    #[test]
    fn ip_len_matches_encoding() {
        for payload_len in [0usize, 1, 64, 1440] {
            let p = write_only(&vec![0u8; payload_len]);
            assert_eq!(
                p.encode().len(),
                ethernet::ETHERNET_HEADER_LEN + p.ip_len(),
                "payload_len = {payload_len}"
            );
        }
    }

    #[test]
    fn wire_bytes_includes_overheads() {
        let p = write_only(&[0u8; 64]);
        // 64 B payload + 14 eth + 20 ip + 8 udp + 12 bth + 16 reth + 4 icrc
        // + 4 fcs + 20 preamble/ipg.
        assert_eq!(p.wire_bytes(), 64 + 14 + 20 + 8 + 12 + 16 + 4 + 4 + 20);
    }

    #[test]
    fn trailing_bytes_beyond_the_ip_datagram_do_not_shift_the_payload() {
        // The IP total-length field bounds every parse stage, so bytes
        // appended after the ICRC (e.g. Ethernet minimum-frame padding)
        // must be ignored — the payload slice is recovered from header
        // offsets, not the physical frame tail.
        let p = write_only(b"short");
        let mut frame = p.encode();
        frame.extend_from_slice(&[0xEE; 13]);
        let parsed = Packet::parse(&Bytes::from(frame)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn ce_marked_frame_round_trips_and_passes_icrc() {
        // A switch marks CE on the encoded frame; the IPv4 checksum is
        // repaired in place and the ICRC (BTH+payload only) still holds.
        let mut p = write_only(b"ecn capable payload");
        p.ecn = crate::ipv4::ECN_ECT0;
        let mut frame = p.encode();
        assert!(crate::ipv4::mark_ce(
            &mut frame[ethernet::ETHERNET_HEADER_LEN..]
        ));
        let parsed = Packet::parse(&Bytes::from(frame)).unwrap();
        assert_eq!(parsed.ecn, crate::ipv4::ECN_CE);
        assert_eq!(parsed.payload, p.payload);
        // And the marked frame re-encodes to the same bytes (capture
        // round-trip invariant of the switched testbed).
        let mut frame2 = p.encode();
        crate::ipv4::mark_ce(&mut frame2[ethernet::ETHERNET_HEADER_LEN..]);
        assert_eq!(parsed.encode(), frame2);
    }

    #[test]
    fn cnp_round_trips() {
        let p = Packet::new(2, 1, Opcode::Cnp, 9, 0, None, None, Bytes::new());
        let parsed = Packet::parse(&Bytes::from(p.encode())).unwrap();
        assert_eq!(parsed, p);
        assert!(!parsed.bth.ack_req);
    }

    #[test]
    fn middle_packet_has_no_reth() {
        let p = Packet::new(
            1,
            2,
            Opcode::WriteMiddle,
            5,
            101,
            None,
            None,
            Bytes::from(vec![1u8; 32]),
        );
        let parsed = Packet::parse(&Bytes::from(p.encode())).unwrap();
        assert!(parsed.reth.is_none());
        assert_eq!(parsed.payload.len(), 32);
    }
}
