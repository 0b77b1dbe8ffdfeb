//! Whole-packet encode/parse: the functional equivalent of the RX/TX
//! pipelines' header stages chained together (Figure 2).
//!
//! A [`Packet`] is the in-simulation representation of one RoCE v2 frame.
//! `encode` produces the exact byte stream (Ethernet + IPv4 + UDP + BTH
//! [+ RETH] [+ AETH] + payload + ICRC); `parse` is its inverse and performs
//! the same validity checks the hardware pipeline performs, stage by stage,
//! reporting *where* an invalid packet would have been dropped.
//!
//! Both directions are engineered as a fast datapath. [`Packet::build`]
//! builds the frame once into the one exact-size [`Bytes`] it travels in:
//! the headers at fixed offsets, the payload written straight into its
//! slot by the caller (the NIC's DMA fetch), the ICRC folded over it.
//! [`Packet::encode_into`] writes the same bytes into a caller's `Vec`
//! through the same header writer. [`Packet::parse`] takes the frame as
//! [`Bytes`] and returns the payload as an O(1) slice of it — zero copies
//! on either side of the simulated wire.

use bytes::Bytes;

use crate::bth::{Aeth, Bth, Psn, Qpn, Reth, AETH_LEN, BTH_LEN, RETH_LEN};
use crate::ethernet::{self, EtherType, MacAddr};
use crate::icrc;
use crate::ipv4::{Ipv4Addr, Ipv4Header, IPV4_HEADER_LEN, PROTO_UDP};
use crate::opcode::Opcode;
use crate::udp::{UdpHeader, UDP_HEADER_LEN};

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
        self.ip_len_with(self.payload.len())
    }

    /// Length of the IP packet these headers make with a payload of
    /// `payload_len` bytes.
    fn ip_len_with(&self, payload_len: usize) -> usize {
        self.headers_len() - IP_AT + payload_len + icrc::ICRC_LEN
    }

    /// Header bytes before the payload: Ethernet through RETH/AETH.
    fn headers_len(&self) -> usize {
        let reth = if self.reth.is_some() { RETH_LEN } else { 0 };
        let aeth = if self.aeth.is_some() { AETH_LEN } else { 0 };
        EXT_AT + reth + aeth
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
    /// single pass: the headers are written at their fixed offsets into
    /// one stack array and copied out in one piece, followed by the
    /// payload and the ICRC computed in place over the RoCE region — no
    /// intermediate allocation, `buf` reserved once at its exact size.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut hdr = [0u8; HEADERS_MAX];
        let end = self.write_headers(self.payload.len(), &mut hdr);
        buf.clear();
        buf.reserve(IP_AT + self.ip_len());
        buf.extend_from_slice(&hdr[..end]);
        buf.extend_from_slice(&self.payload);
        let crc = icrc::icrc(&buf[ROCE_AT..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len(), IP_AT + self.ip_len());
    }

    /// Builds the frame of these headers in one pass into the one
    /// exact-size buffer it travels in, with a payload of `payload_len`
    /// bytes: the headers at their fixed offsets, then `fill` writes the
    /// payload straight into its slot (handed over zeroed), then the ICRC
    /// is folded over the RoCE region. The packet's own payload is not
    /// read. The frame is byte for byte what [`Packet::encode_into`]
    /// writes for these headers and that payload, and the payload is the
    /// `payload_len` bytes before the ICRC: [`Packet::parse`] hands it
    /// back as an O(1) slice of the frame.
    pub fn build(&self, payload_len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let at = self.headers_len();
        Bytes::from_fn(IP_AT + self.ip_len_with(payload_len), |f| {
            self.write_headers(payload_len, f);
            let (body, crc) = f.split_at_mut(at + payload_len);
            fill(&mut body[at..]);
            crc.copy_from_slice(&icrc::icrc(&body[ROCE_AT..]).to_le_bytes());
        })
    }

    /// Writes the headers, Ethernet through RETH/AETH, for a payload of
    /// `payload_len` bytes at their fixed offsets at the start of `out`.
    /// Returns where the payload starts. The one header writer under
    /// [`Packet::encode_into`] and [`Packet::build`].
    fn write_headers(&self, payload_len: usize, out: &mut [u8]) -> usize {
        let udp_len = self.ip_len_with(payload_len) - IPV4_HEADER_LEN;
        let mut ip = Ipv4Header::for_udp(self.src_ip, self.dst_ip, udp_len, 0);
        ip.ecn = self.ecn;
        let roce_len = udp_len - UDP_HEADER_LEN;
        let udp = UdpHeader::for_roce((self.bth.dest_qp & 0xffff) as u16, roce_len);
        let eth = ethernet::header_bytes(self.dst_mac, self.src_mac, EtherType::Ipv4);
        out[..IP_AT].copy_from_slice(&eth);
        out[IP_AT..UDP_AT].copy_from_slice(&ip.to_bytes());
        out[UDP_AT..ROCE_AT].copy_from_slice(&udp.to_bytes());
        out[ROCE_AT..EXT_AT].copy_from_slice(&self.bth.to_bytes());
        let mut end = EXT_AT;
        if let Some(reth) = &self.reth {
            out[end..end + RETH_LEN].copy_from_slice(&reth.to_bytes());
            end += RETH_LEN;
        }
        if let Some(aeth) = &self.aeth {
            out[end..end + AETH_LEN].copy_from_slice(&aeth.to_bytes());
            end += AETH_LEN;
        }
        end
    }

    /// Parses a frame, performing every pipeline validity check.
    ///
    /// The stages run in pipeline order — Ethernet, IP, UDP, ICRC, BTH,
    /// RETH/AETH — each reading its header at its fixed offset, and the
    /// first failing stage names the [`PacketError`].
    ///
    /// Zero-copy: the returned packet's payload is an O(1)
    /// [`Bytes::slice`] of `frame`, not a copy — the frame buffer stays
    /// alive for exactly as long as something still references the
    /// payload.
    pub fn parse(frame: &Bytes) -> Result<Packet, PacketError> {
        let f: &[u8] = frame;
        let eth = f.first_chunk().ok_or(PacketError::Ethernet)?;
        let (dst_mac, src_mac, ethertype) = ethernet::read_header(eth);
        if EtherType::from_wire(ethertype) != Some(EtherType::Ipv4) {
            return Err(PacketError::Ethernet);
        }
        let ip = (f[IP_AT..].first_chunk())
            .and_then(Ipv4Header::read)
            .ok_or(PacketError::Ip)?;
        // Every later stage is bounded by the IP total length, never by
        // the physical frame: bytes past the datagram (e.g. Ethernet
        // minimum-frame padding) are not the packet's.
        let ip_end = IP_AT + ip.total_len as usize;
        if ip_end > f.len() || ip.protocol != PROTO_UDP {
            return Err(PacketError::Ip);
        }
        let udp = (f[..ip_end].get(UDP_AT..).and_then(<[u8]>::first_chunk))
            .map(UdpHeader::read)
            .ok_or(PacketError::Udp)?;
        let udp_end = UDP_AT + udp.length as usize;
        if (udp.length as usize) < UDP_HEADER_LEN || udp_end > ip_end || !udp.is_roce() {
            return Err(PacketError::Udp);
        }
        // ICRC is validated over the whole IB packet (store-and-forward).
        let (body, ok) = icrc::check_icrc(&f[ROCE_AT..udp_end]).ok_or(PacketError::Icrc)?;
        if !ok {
            return Err(PacketError::Icrc);
        }
        let bth = (body.first_chunk())
            .and_then(Bth::read)
            .ok_or(PacketError::Bth)?;
        let body_end = ROCE_AT + body.len();
        let mut at = EXT_AT;
        let reth = if bth.opcode.has_reth() {
            let h = f[..body_end].get(at..).and_then(<[u8]>::first_chunk);
            at += RETH_LEN;
            Some(Reth::read(h.ok_or(PacketError::Eth)?))
        } else {
            None
        };
        let aeth = if bth.opcode.has_aeth() {
            let h = f[..body_end].get(at..).and_then(<[u8]>::first_chunk);
            at += AETH_LEN;
            Some(h.and_then(Aeth::read).ok_or(PacketError::Eth)?)
        } else {
            None
        };
        Ok(Packet {
            dst_mac,
            src_mac,
            src_ip: ip.src,
            dst_ip: ip.dst,
            bth,
            reth,
            aeth,
            ecn: ip.ecn,
            payload: frame.slice(at..body_end),
        })
    }
}

/// Offset of the IPv4 header in a frame.
const IP_AT: usize = ethernet::ETHERNET_HEADER_LEN;
/// Offset of the UDP header in a frame.
const UDP_AT: usize = IP_AT + IPV4_HEADER_LEN;
/// Offset of the RoCE region (the BTH) in a frame.
const ROCE_AT: usize = UDP_AT + UDP_HEADER_LEN;
/// Offset of the extended transport headers (RETH, then AETH).
const EXT_AT: usize = ROCE_AT + BTH_LEN;
/// The most header bytes a frame carries before its payload.
const HEADERS_MAX: usize = EXT_AT + RETH_LEN + AETH_LEN;

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

    /// Rewrites the IP total length and UDP length of `f` (fixing the IP
    /// checksum), leaving every other byte alone.
    fn set_lengths(f: &mut [u8], ip_total: usize, udp_len: usize) {
        f[UDP_AT + 4..UDP_AT + 6].copy_from_slice(&(udp_len as u16).to_be_bytes());
        f[IP_AT + 2..IP_AT + 4].copy_from_slice(&(ip_total as u16).to_be_bytes());
        f[IP_AT + 10..IP_AT + 12].fill(0);
        let csum = crate::ipv4::checksum(&f[IP_AT..UDP_AT]);
        f[IP_AT + 10..IP_AT + 12].copy_from_slice(&csum.to_be_bytes());
    }

    /// `frame` with its RoCE region cut to `body_len` bytes before a
    /// valid ICRC, and every length and checksum consistent with that.
    fn reframe(frame: &[u8], body_len: usize) -> Bytes {
        let mut f = frame[..ROCE_AT + body_len].to_vec();
        let crc = icrc::icrc(&f[ROCE_AT..]);
        f.extend_from_slice(&crc.to_le_bytes());
        let udp_len = UDP_HEADER_LEN + body_len + icrc::ICRC_LEN;
        set_lengths(&mut f, IPV4_HEADER_LEN + udp_len, udp_len);
        Bytes::from(f)
    }

    /// A frame too short for a header, or whose lengths promise more than
    /// it holds, is dropped at the first stage that would read past what
    /// it has — the stage order the drop counters are keyed on.
    #[test]
    fn short_frames_drop_at_the_stage_that_runs_out() {
        let write = write_only(b"payload").encode();
        let parse = |f: &[u8]| Packet::parse(&Bytes::copy_from_slice(f));
        assert_eq!(parse(&write[..IP_AT - 1]), Err(PacketError::Ethernet));
        assert_eq!(parse(&write[..UDP_AT - 1]), Err(PacketError::Ip));
        // The IP total length promises one byte more than the frame has.
        assert_eq!(parse(&write[..write.len() - 1]), Err(PacketError::Ip));

        let mut f = write.clone();
        set_lengths(&mut f, IPV4_HEADER_LEN + UDP_HEADER_LEN - 1, UDP_HEADER_LEN);
        assert_eq!(parse(&f), Err(PacketError::Udp), "no room for UDP");
        let ip_total = write.len() - IP_AT;
        set_lengths(&mut f, ip_total, UDP_HEADER_LEN - 1);
        assert_eq!(parse(&f), Err(PacketError::Udp), "UDP length < header");
        set_lengths(&mut f, ip_total, ip_total - IPV4_HEADER_LEN + 1);
        assert_eq!(parse(&f), Err(PacketError::Udp), "UDP beyond the datagram");
        set_lengths(&mut f, ip_total, UDP_HEADER_LEN + icrc::ICRC_LEN - 1);
        assert_eq!(parse(&f), Err(PacketError::Icrc), "no room for the ICRC");

        assert_eq!(parse(&reframe(&write, BTH_LEN - 1)), Err(PacketError::Bth));
        assert_eq!(
            parse(&reframe(&write, BTH_LEN + RETH_LEN - 1)),
            Err(PacketError::Eth),
            "RETH cut short"
        );
        let ack = Packet::new(
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
        )
        .encode();
        assert_eq!(
            parse(&reframe(&ack, BTH_LEN + AETH_LEN - 1)),
            Err(PacketError::Eth),
            "AETH cut short"
        );
        // Cut exactly at the end of the headers, the packet is whole with
        // an empty payload.
        let bare = parse(&reframe(&write, BTH_LEN + RETH_LEN)).expect("headers only");
        assert!(bare.payload.is_empty());
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
