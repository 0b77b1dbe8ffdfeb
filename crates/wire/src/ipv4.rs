//! IPv4 header encoding, parsing, and checksum.
//!
//! StRoM uses RoCE v2 over IPv4 and UDP (§2.1). The Process IP pipeline
//! stage checks the header checksum and extracts addresses and length
//! before forwarding metadata on a separate bus (§4.1); this module is the
//! functional equivalent.

/// Length of an IPv4 header without options (StRoM never emits options).
pub const IPV4_HEADER_LEN: usize = 20;

/// ECN codepoint: not ECN-capable transport (the default).
pub const ECN_NOT_ECT: u8 = 0b00;

/// ECN codepoint: ECN-capable transport (ECT(0), RFC 3168).
pub const ECN_ECT0: u8 = 0b10;

/// ECN codepoint: congestion experienced, set by a marking switch.
pub const ECN_CE: u8 = 0b11;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Builds a testbed address `10.1.212.<id>` (the fpga-network-stack
    /// default subnet).
    pub fn from_node_id(id: u8) -> Self {
        Ipv4Addr([10, 1, 212, id])
    }

    /// The node id of a testbed address (the inverse of
    /// [`Ipv4Addr::from_node_id`]), or `None` for an address outside the
    /// testbed subnet.
    pub fn node_id(&self) -> Option<u8> {
        match self.0 {
            [10, 1, 212, id] => Some(id),
            _ => None,
        }
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// A parsed IPv4 header (the fields StRoM's Process IP stage uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Total length (header + payload).
    pub total_len: u16,
    /// Layer-4 protocol (17 = UDP for RoCE v2).
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used for diagnostics only).
    pub ident: u16,
    /// ECN codepoint (2 bits): `ECN_NOT_ECT`, `ECN_ECT0`, or `ECN_CE`.
    pub ecn: u8,
}

/// Protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

impl Ipv4Header {
    /// Creates a UDP-carrying header with the given payload length.
    pub fn for_udp(src: Ipv4Addr, dst: Ipv4Addr, payload_len: usize, ident: u16) -> Self {
        Ipv4Header {
            src,
            dst,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            protocol: PROTO_UDP,
            ttl: 64,
            ident,
            ecn: ECN_NOT_ECT,
        }
    }

    /// The header's bytes, with a correct checksum.
    pub fn to_bytes(&self) -> [u8; IPV4_HEADER_LEN] {
        let len = self.total_len.to_be_bytes();
        let ident = self.ident.to_be_bytes();
        let (s, d) = (self.src.0, self.dst.0);
        let mut h = [
            0x45,            // Version 4, IHL 5.
            self.ecn & 0b11, // DSCP 0, ECN in the low two bits.
            len[0],
            len[1],
            ident[0],
            ident[1],
            0x40, // Flags: DF, fragment offset 0.
            0x00,
            self.ttl,
            self.protocol,
            0, // Checksum placeholder.
            0,
            s[0],
            s[1],
            s[2],
            s[3],
            d[0],
            d[1],
            d[2],
            d[3],
        ];
        let csum = header_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }

    /// Reads and checksum-verifies a header, or `None` where the Process
    /// IP stage would drop it: options, a failed checksum, or a total
    /// length shorter than the header. The total length is checked
    /// against the bytes that follow by the caller (`Packet::parse`).
    pub fn read(h: &[u8; IPV4_HEADER_LEN]) -> Option<Ipv4Header> {
        if h[0] != 0x45 {
            return None; // StRoM only handles IPv4 without options.
        }
        if header_checksum(h) != 0 {
            return None;
        }
        let total_len = u16::from_be_bytes([h[2], h[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN {
            return None;
        }
        Some(Ipv4Header {
            total_len,
            ecn: h[1] & 0b11,
            ident: u16::from_be_bytes([h[4], h[5]]),
            ttl: h[8],
            protocol: h[9],
            src: Ipv4Addr([h[12], h[13], h[14], h[15]]),
            dst: Ipv4Addr([h[16], h[17], h[18], h[19]]),
        })
    }
}

/// Marks Congestion Experienced on an encoded IPv4 header in place.
///
/// `header` must start at byte 0 of the IPv4 header (at least
/// [`IPV4_HEADER_LEN`] bytes). Only ECN-capable packets (ECT codepoints)
/// may be marked — a switch never invents ECN support the endpoint did not
/// advertise — so Not-ECT packets are left untouched and `false` is
/// returned. The header checksum is recomputed; the ICRC is unaffected
/// because it covers only the IB transport headers and payload.
pub fn mark_ce(header: &mut [u8]) -> bool {
    if header.len() < IPV4_HEADER_LEN || header[0] != 0x45 {
        return false;
    }
    if header[1] & 0b11 == ECN_NOT_ECT {
        return false;
    }
    let h = header
        .first_chunk_mut::<IPV4_HEADER_LEN>()
        .expect("length checked above");
    h[1] |= ECN_CE;
    h[10] = 0;
    h[11] = 0;
    let csum = header_checksum(h);
    h[10..12].copy_from_slice(&csum.to_be_bytes());
    true
}

/// [`checksum`] over exactly one option-less header: ten 16-bit words,
/// whose sum two end-around folds bring below `0x10000`.
#[inline]
fn header_checksum(h: &[u8; IPV4_HEADER_LEN]) -> u16 {
    let mut sum: u32 = 0;
    for w in h.as_chunks::<2>().0 {
        sum += u32::from(u16::from_be_bytes(*w));
    }
    sum = (sum & 0xffff) + (sum >> 16);
    sum = (sum & 0xffff) + (sum >> 16);
    !(sum as u16)
}

/// The Internet checksum (RFC 1071) over `data`.
///
/// Computing it over a header whose checksum field is correct yields 0.
pub fn checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::for_udp(
            Ipv4Addr::from_node_id(1),
            Ipv4Addr::from_node_id(2),
            100,
            42,
        )
    }

    #[test]
    fn to_bytes_read_round_trip() {
        let h = sample();
        assert_eq!(checksum(&h.to_bytes()), 0);
        assert_eq!(Ipv4Header::read(&h.to_bytes()), Some(h));
    }

    #[test]
    fn corrupted_checksum_is_dropped() {
        let mut buf = sample().to_bytes();
        buf[10] ^= 0xff;
        assert!(Ipv4Header::read(&buf).is_none());
    }

    #[test]
    fn corrupted_body_byte_in_header_is_dropped() {
        let mut buf = sample().to_bytes();
        buf[15] ^= 0x01; // Flip a source-address bit.
        assert!(Ipv4Header::read(&buf).is_none());
    }

    #[test]
    fn total_length_shorter_than_the_header_is_dropped() {
        let mut h = sample();
        h.total_len = IPV4_HEADER_LEN as u16 - 1;
        assert!(Ipv4Header::read(&h.to_bytes()).is_none());
    }

    #[test]
    fn options_are_rejected() {
        let mut buf = sample().to_bytes();
        buf[0] = 0x46; // IHL = 6 (with options).
        assert!(Ipv4Header::read(&buf).is_none());
    }

    #[test]
    fn rfc1071_known_vector() {
        // Example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn header_checksum_matches_the_general_fold() {
        let mut rng = strom_sim::SimRng::seed(0x01F0_1D00);
        for _ in 0..2_000 {
            let mut h = [0u8; IPV4_HEADER_LEN];
            rng.fill_bytes(&mut h);
            assert_eq!(header_checksum(&h), checksum(&h), "{h:?}");
        }
        assert_eq!(
            header_checksum(&[0xff; IPV4_HEADER_LEN]),
            checksum(&[0xff; 20])
        );
    }

    #[test]
    fn odd_length_checksum_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn display_format() {
        assert_eq!(Ipv4Addr::from_node_id(3).to_string(), "10.1.212.3");
    }

    #[test]
    fn ecn_round_trips_through_the_header_bytes() {
        for ecn in [ECN_NOT_ECT, ECN_ECT0, ECN_CE] {
            let mut h = sample();
            h.ecn = ecn;
            let parsed = Ipv4Header::read(&h.to_bytes()).unwrap();
            assert_eq!(parsed.ecn, ecn);
        }
    }

    #[test]
    fn default_header_byte_stream_is_unchanged_by_the_ecn_field() {
        // Not-ECT encodes byte 1 as zero — exactly the pre-ECN byte
        // stream, so pinned pcap goldens and fingerprints are unaffected.
        assert_eq!(sample().to_bytes()[1], 0);
    }

    #[test]
    fn mark_ce_sets_the_codepoint_and_fixes_the_checksum() {
        let mut h = sample();
        h.ecn = ECN_ECT0;
        let mut buf = h.to_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 100]);
        assert!(mark_ce(&mut buf));
        let parsed = Ipv4Header::read(buf.first_chunk().unwrap()).expect("checksum repaired");
        assert_eq!(parsed.ecn, ECN_CE);
    }

    #[test]
    fn mark_ce_refuses_not_ect_packets() {
        let mut buf = sample().to_bytes();
        let before = buf;
        assert!(!mark_ce(&mut buf));
        assert_eq!(buf, before, "Not-ECT frames must not be altered");
    }

    #[test]
    fn mark_ce_rejects_short_or_non_ipv4_buffers() {
        assert!(!mark_ce(&mut [0u8; IPV4_HEADER_LEN - 1]));
        let mut not_ip = [0u8; IPV4_HEADER_LEN];
        not_ip[0] = 0x46;
        assert!(!mark_ce(&mut not_ip));
    }
}
