//! RoCE v2 wire formats for StRoM.
//!
//! This crate implements the packet formats the StRoM NIC processes
//! (paper §4.1): Ethernet, IPv4, UDP, the Infiniband Base Transport Header
//! (BTH), the RDMA Extended Transport Header (RETH), the ACK Extended
//! Transport Header (AETH), and the invariant CRC (ICRC) trailer — plus the
//! five StRoM-specific BTH op-codes of Table 1 that carry RPC invocations
//! and RPC WRITE payload to on-NIC kernels.
//!
//! Packets here are byte-accurate: encode/parse are exact inverses and the
//! protocol state machines in `strom-proto` operate on the parsed headers,
//! just as the FPGA pipeline stages of Figure 2 operate on header fields
//! extracted from the byte stream.

#![deny(unsafe_code)]

pub mod arp;
pub mod bth;
pub mod clmul;
pub mod ethernet;
pub mod icrc;
pub mod ipv4;
pub mod opcode;
pub mod packet;
pub mod pcap;
pub mod segment;
pub mod udp;

pub use bth::{Aeth, Bth, Reth, AETH_LEN, BTH_LEN, RETH_LEN};
pub use ethernet::{EtherType, MacAddr, ETHERNET_HEADER_LEN, ETHERNET_MIN_FRAME};
pub use ipv4::{mark_ce, Ipv4Addr, Ipv4Header, ECN_CE, ECN_ECT0, ECN_NOT_ECT, IPV4_HEADER_LEN};
pub use opcode::{Opcode, RpcOpCode};
pub use packet::{Packet, PacketError};
pub use pcap::PcapWriter;
pub use segment::{segment_message, SegmentKind};
pub use udp::{UdpHeader, ROCE_V2_PORT, UDP_HEADER_LEN};

/// Default Ethernet MTU assumed throughout the paper (1500 B, §6.1/Fig 5).
pub const DEFAULT_MTU: usize = 1500;

/// RoCE payload bytes that fit in one MTU-sized packet.
///
/// The IP packet must fit the MTU: IPv4 (20) + UDP (8) + BTH (12) +
/// RETH (16) + ICRC (4) leaves `MTU - 60` for payload on a FIRST/ONLY
/// packet. For simplicity StRoM segments all packets of a message to the
/// same maximum payload.
pub fn max_payload(mtu: usize) -> usize {
    mtu.saturating_sub(IPV4_HEADER_LEN + UDP_HEADER_LEN + BTH_LEN + RETH_LEN + icrc::ICRC_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mtu_payload() {
        assert_eq!(max_payload(DEFAULT_MTU), 1440);
    }

    #[test]
    fn tiny_mtu_saturates() {
        assert_eq!(max_payload(10), 0);
    }
}
