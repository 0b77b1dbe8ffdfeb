//! UDP header for RoCE v2 encapsulation.
//!
//! RoCE v2 encapsulates IB packets in IP/UDP (§2.1); the destination port
//! 4791 identifies RoCE traffic. The Process UDP stage checks the port and
//! extracts the length (§4.1).

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// IANA-assigned UDP destination port for RoCE v2.
pub const ROCE_V2_PORT: u16 = 4791;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port (RoCE uses it for ECMP entropy; we echo the QPN).
    pub src_port: u16,
    /// Destination port — must be [`ROCE_V2_PORT`] for RoCE traffic.
    pub dst_port: u16,
    /// Length of header plus payload.
    pub length: u16,
}

impl UdpHeader {
    /// Creates a RoCE v2 header for a payload of `payload_len` bytes.
    pub fn for_roce(src_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port: ROCE_V2_PORT,
            length: (UDP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// The header's bytes.
    ///
    /// RoCE v2 sets the UDP checksum to zero (it relies on the ICRC), and
    /// so do we.
    pub fn to_bytes(&self) -> [u8; UDP_HEADER_LEN] {
        let mut h = [0u8; UDP_HEADER_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..6].copy_from_slice(&self.length.to_be_bytes());
        h
    }

    /// Reads the header's fields. The length is checked against the
    /// datagram by the caller (`Packet::parse`).
    pub fn read(h: &[u8; UDP_HEADER_LEN]) -> UdpHeader {
        UdpHeader {
            src_port: u16::from_be_bytes([h[0], h[1]]),
            dst_port: u16::from_be_bytes([h[2], h[3]]),
            length: u16::from_be_bytes([h[4], h[5]]),
        }
    }

    /// Whether this datagram is addressed to the RoCE v2 port.
    pub fn is_roce(&self) -> bool {
        self.dst_port == ROCE_V2_PORT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = UdpHeader::for_roce(7, 32);
        let bytes = h.to_bytes();
        assert_eq!(&bytes[6..], &[0, 0], "checksum zero");
        let parsed = UdpHeader::read(&bytes);
        assert_eq!(parsed, h);
        assert_eq!(parsed.length, 40);
        assert!(parsed.is_roce());
    }

    #[test]
    fn non_roce_port_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 53,
            length: 8,
        };
        assert!(!h.is_roce());
    }
}
