//! Ethernet framing: MAC addresses, EtherTypes, and frame geometry.
//!
//! The StRoM NIC transmits IB packets as Ethernet frames (RoCE v2 over
//! IPv4/UDP). The simulation accounts frame overhead exactly: 14 B header,
//! 4 B FCS, plus the 20 B of preamble/SFD/inter-packet gap that occupy the
//! wire but never reach the pipeline.

/// Length of the Ethernet header (dst MAC + src MAC + EtherType).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Length of the frame check sequence (CRC-32 trailer).
pub const ETHERNET_FCS_LEN: usize = 4;

/// Minimum Ethernet frame size (header + payload + FCS), 64 B.
///
/// The paper uses this to bound per-packet processing: "the smallest
/// possible Ethernet frame is 64 B corresponding to 8 cycles" at the 8 B
/// datapath (§4.1).
pub const ETHERNET_MIN_FRAME: usize = 64;

/// Preamble (7) + SFD (1) + minimum inter-packet gap (12), in bytes.
///
/// These occupy wire time on every frame and are what separates 10 Gbit/s
/// line rate from the ~9.4 Gbit/s payload goodput ceiling in Fig 5b.
pub const ETHERNET_WIRE_OVERHEAD: usize = 20;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally administered address derived from a node id — handy for
    /// the simulated testbed where nodes are numbered.
    pub fn from_node_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// The EtherTypes the StRoM NIC understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EtherType {
    /// IPv4 (carries RoCE v2).
    Ipv4 = 0x0800,
    /// ARP (handled by the open-source module the paper reuses).
    Arp = 0x0806,
}

impl EtherType {
    /// Decodes an EtherType of interest from its wire value.
    pub fn from_wire(v: u16) -> Option<EtherType> {
        match v {
            0x0800 => Some(EtherType::Ipv4),
            0x0806 => Some(EtherType::Arp),
            _ => None,
        }
    }
}

/// Computes the total wire occupancy in bytes of a frame carrying an IP
/// packet of `ip_len` bytes: Ethernet framing, FCS, padding to the minimum
/// frame, preamble and inter-packet gap.
pub fn wire_bytes(ip_len: usize) -> usize {
    let frame = (ETHERNET_HEADER_LEN + ip_len + ETHERNET_FCS_LEN).max(ETHERNET_MIN_FRAME);
    frame + ETHERNET_WIRE_OVERHEAD
}

/// The bytes of an Ethernet header.
pub fn header_bytes(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> [u8; ETHERNET_HEADER_LEN] {
    let mut h = [0u8; ETHERNET_HEADER_LEN];
    h[0..6].copy_from_slice(&dst.0);
    h[6..12].copy_from_slice(&src.0);
    h[12..14].copy_from_slice(&(ethertype as u16).to_be_bytes());
    h
}

/// Reads an Ethernet header's `(dst, src, ethertype)`.
pub fn read_header(h: &[u8; ETHERNET_HEADER_LEN]) -> (MacAddr, MacAddr, u16) {
    let (dst, rest) = h.split_first_chunk::<6>().expect("sized header");
    let (src, ethertype) = rest.split_first_chunk::<6>().expect("sized header");
    let ethertype = u16::from_be_bytes([ethertype[0], ethertype[1]]);
    (MacAddr(*dst), MacAddr(*src), ethertype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let dst = MacAddr::from_node_id(1);
        let src = MacAddr::from_node_id(2);
        let (d, s, et) = read_header(&header_bytes(dst, src, EtherType::Ipv4));
        assert_eq!(d, dst);
        assert_eq!(s, src);
        assert_eq!(EtherType::from_wire(et), Some(EtherType::Ipv4));
    }

    #[test]
    fn minimum_frame_is_padded() {
        // A 1-byte IP packet still occupies min frame + overhead.
        assert_eq!(wire_bytes(1), ETHERNET_MIN_FRAME + ETHERNET_WIRE_OVERHEAD);
    }

    #[test]
    fn large_frame_is_not_padded() {
        assert_eq!(wire_bytes(1500), 14 + 1500 + 4 + 20);
    }

    #[test]
    fn node_macs_are_distinct_and_local() {
        let a = MacAddr::from_node_id(7);
        let b = MacAddr::from_node_id(8);
        assert_ne!(a, b);
        // Locally administered bit set, not multicast.
        assert_eq!(a.0[0] & 0x03, 0x02);
        assert!(!a.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
    }

    #[test]
    fn display_formats_colon_hex() {
        assert_eq!(
            MacAddr([0, 1, 0xab, 3, 4, 5]).to_string(),
            "00:01:ab:03:04:05"
        );
    }

    #[test]
    fn unknown_ethertype_is_rejected() {
        assert_eq!(EtherType::from_wire(0x86dd), None, "no IPv6 in StRoM");
    }
}
