//! BTH op-codes: the standard RC one-sided subset plus the StRoM extension.
//!
//! The paper's stack implements only the one-sided RC verbs (RDMA WRITE and
//! RDMA READ, §4.1) and extends the protocol with exactly five new op-codes
//! and two new verbs (Table 1):
//!
//! | verb        | op-code | description            |
//! |-------------|---------|------------------------|
//! | `RPC`       | `11000` | RDMA RPC Params        |
//! | `RPC WRITE` | `11001` | RDMA RPC WRITE First   |
//! | `RPC WRITE` | `11010` | RDMA RPC WRITE Middle  |
//! | `RPC WRITE` | `11011` | RDMA RPC WRITE Last    |
//! | `RPC WRITE` | `11100` | RDMA RPC WRITE Only    |
//! |             | `11101` | CNP (congestion notification, DCQCN) |
//! |             | `11110`–`11111` | reserved       |
//!
//! The CNP op-code is this repo's congestion-control extension (not in the
//! paper's Table 1): it occupies the first reserved slot, mirroring how
//! RoCE v2 DCQCN reserves a BTH op-code for its congestion notification
//! packets.
//!
//! The BTH op-code field is 8 bits: a 3-bit transport prefix (RC = `000`)
//! followed by the 5-bit operation code listed above.

/// The 3-bit Reliable Connection transport prefix in the BTH op-code field.
pub const TRANSPORT_RC: u8 = 0b000;

/// A BTH operation code (the 5-bit operation part, RC transport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// RDMA WRITE First — first packet of a multi-packet write.
    WriteFirst = 0x06,
    /// RDMA WRITE Middle.
    WriteMiddle = 0x07,
    /// RDMA WRITE Last.
    WriteLast = 0x08,
    /// RDMA WRITE Only — single-packet write.
    WriteOnly = 0x0A,
    /// RDMA READ Request.
    ReadRequest = 0x0C,
    /// RDMA READ Response First.
    ReadResponseFirst = 0x0D,
    /// RDMA READ Response Middle.
    ReadResponseMiddle = 0x0E,
    /// RDMA READ Response Last.
    ReadResponseLast = 0x0F,
    /// RDMA READ Response Only.
    ReadResponseOnly = 0x10,
    /// Acknowledge (carries an AETH).
    Acknowledge = 0x11,
    /// StRoM: RDMA RPC Params — invokes a kernel, payload = parameters.
    RpcParams = 0b11000,
    /// StRoM: RDMA RPC WRITE First — payload streamed to a kernel.
    RpcWriteFirst = 0b11001,
    /// StRoM: RDMA RPC WRITE Middle.
    RpcWriteMiddle = 0b11010,
    /// StRoM: RDMA RPC WRITE Last.
    RpcWriteLast = 0b11011,
    /// StRoM: RDMA RPC WRITE Only.
    RpcWriteOnly = 0b11100,
    /// Congestion Notification Packet (DCQCN): sent by a responder when a
    /// CE-marked frame arrives; carries no RETH, AETH, or payload.
    Cnp = 0b11101,
}

impl Opcode {
    /// All op-codes the StRoM stack understands.
    pub const ALL: [Opcode; 16] = [
        Opcode::WriteFirst,
        Opcode::WriteMiddle,
        Opcode::WriteLast,
        Opcode::WriteOnly,
        Opcode::ReadRequest,
        Opcode::ReadResponseFirst,
        Opcode::ReadResponseMiddle,
        Opcode::ReadResponseLast,
        Opcode::ReadResponseOnly,
        Opcode::Acknowledge,
        Opcode::RpcParams,
        Opcode::RpcWriteFirst,
        Opcode::RpcWriteMiddle,
        Opcode::RpcWriteLast,
        Opcode::RpcWriteOnly,
        Opcode::Cnp,
    ];

    /// Decodes the 5-bit operation part of a BTH op-code byte.
    pub fn from_wire(op: u8) -> Option<Opcode> {
        Self::ALL.iter().copied().find(|&o| o as u8 == op & 0x1f)
    }

    /// Encodes into the full 8-bit BTH op-code byte (RC transport).
    pub fn to_wire(self) -> u8 {
        (TRANSPORT_RC << 5) | self as u8
    }

    /// Whether this op-code is one of the five StRoM extensions (Table 1).
    pub fn is_strom_extension(self) -> bool {
        matches!(
            self,
            Opcode::RpcParams
                | Opcode::RpcWriteFirst
                | Opcode::RpcWriteMiddle
                | Opcode::RpcWriteLast
                | Opcode::RpcWriteOnly
        )
    }

    /// Whether packets with this op-code carry a RETH (address/length).
    ///
    /// WRITE First/Only carry the target address; StRoM packets reuse the
    /// RETH address field as the RPC op-code (§5.1).
    pub fn has_reth(self) -> bool {
        matches!(
            self,
            Opcode::WriteFirst
                | Opcode::WriteOnly
                | Opcode::ReadRequest
                | Opcode::RpcParams
                | Opcode::RpcWriteFirst
                | Opcode::RpcWriteOnly
        )
    }

    /// Whether packets with this op-code carry an AETH.
    pub fn has_aeth(self) -> bool {
        matches!(
            self,
            Opcode::Acknowledge
                | Opcode::ReadResponseFirst
                | Opcode::ReadResponseLast
                | Opcode::ReadResponseOnly
        )
    }

    /// Whether this op-code is a READ response segment (the responder's
    /// data-bearing return traffic, distinct from request packets).
    pub fn is_read_response(self) -> bool {
        matches!(
            self,
            Opcode::ReadResponseFirst
                | Opcode::ReadResponseMiddle
                | Opcode::ReadResponseLast
                | Opcode::ReadResponseOnly
        )
    }

    /// Whether packets with this op-code carry payload.
    pub fn has_payload(self) -> bool {
        !matches!(
            self,
            Opcode::ReadRequest | Opcode::Acknowledge | Opcode::Cnp
        )
    }

    /// Whether this op-code starts a message (First or Only variants).
    pub fn starts_message(self) -> bool {
        matches!(
            self,
            Opcode::WriteFirst
                | Opcode::WriteOnly
                | Opcode::ReadRequest
                | Opcode::ReadResponseFirst
                | Opcode::ReadResponseOnly
                | Opcode::RpcParams
                | Opcode::RpcWriteFirst
                | Opcode::RpcWriteOnly
                | Opcode::Acknowledge
        )
    }

    /// Whether this op-code ends a message (Last or Only variants).
    pub fn ends_message(self) -> bool {
        matches!(
            self,
            Opcode::WriteLast
                | Opcode::WriteOnly
                | Opcode::ReadRequest
                | Opcode::ReadResponseLast
                | Opcode::ReadResponseOnly
                | Opcode::RpcParams
                | Opcode::RpcWriteLast
                | Opcode::RpcWriteOnly
                | Opcode::Acknowledge
        )
    }

    /// The human-readable name used in Table 1 and logs.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::WriteFirst => "RDMA WRITE First",
            Opcode::WriteMiddle => "RDMA WRITE Middle",
            Opcode::WriteLast => "RDMA WRITE Last",
            Opcode::WriteOnly => "RDMA WRITE Only",
            Opcode::ReadRequest => "RDMA READ Request",
            Opcode::ReadResponseFirst => "RDMA READ Response First",
            Opcode::ReadResponseMiddle => "RDMA READ Response Middle",
            Opcode::ReadResponseLast => "RDMA READ Response Last",
            Opcode::ReadResponseOnly => "RDMA READ Response Only",
            Opcode::Acknowledge => "Acknowledge",
            Opcode::RpcParams => "RDMA RPC Params",
            Opcode::RpcWriteFirst => "RDMA RPC WRITE First",
            Opcode::RpcWriteMiddle => "RDMA RPC WRITE Middle",
            Opcode::RpcWriteLast => "RDMA RPC WRITE Last",
            Opcode::RpcWriteOnly => "RDMA RPC WRITE Only",
            Opcode::Cnp => "Congestion Notification",
        }
    }
}

/// An application-level RPC op-code used to match a request against the
/// kernels deployed on the remote NIC (§5.1).
///
/// On the wire it travels in the RETH *address* field of `RPC Params` /
/// `RPC WRITE` packets — the paper reuses that field rather than defining a
/// new header, a mechanism resembling Portals matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RpcOpCode(pub u64);

impl RpcOpCode {
    /// RPC op-code of the traversal kernel (§6.2).
    pub const TRAVERSAL: RpcOpCode = RpcOpCode(0x01);
    /// RPC op-code of the consistency (CRC64) kernel (§6.3).
    pub const CONSISTENCY: RpcOpCode = RpcOpCode(0x02);
    /// RPC op-code of the shuffle kernel (§6.4).
    pub const SHUFFLE: RpcOpCode = RpcOpCode(0x03);
    /// RPC op-code of the HyperLogLog kernel (§7.2).
    pub const HLL: RpcOpCode = RpcOpCode(0x04);
    /// RPC op-code of the simple GET example kernel (§5.2, Listing 2).
    pub const GET: RpcOpCode = RpcOpCode(0x05);
    /// RPC op-code of the filtering kernel (stream selection, §1).
    pub const FILTER: RpcOpCode = RpcOpCode(0x06);
    /// RPC op-code of the aggregation kernel (stream reduction, §1).
    pub const AGGREGATE: RpcOpCode = RpcOpCode(0x07);
    /// RPC op-code of the KV PUT/INSERT kernel (versioned chained
    /// hash-table updates over RDMA RPC WRITE).
    pub const PUT: RpcOpCode = RpcOpCode(0x08);
    // 0x09–0x0B belonged to stream kernels no deployment used; they stay
    // unassigned so an op-code never changes meaning.
    /// RPC op-code of the cut-through CRC64 verify stage.
    pub const CRC_VERIFY: RpcOpCode = RpcOpCode(0x0C);
    /// RPC op-code of the filter→aggregate→HLL kernel chain.
    pub const CHAIN_FILTER_AGG_HLL: RpcOpCode = RpcOpCode(0x0D);
    /// RPC op-code of the CRC-verify→shuffle kernel chain.
    pub const CHAIN_CRCVERIFY_SHUFFLE: RpcOpCode = RpcOpCode(0x0E);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_opcode_values() {
        // The exact 5-bit values from Table 1 of the paper.
        assert_eq!(Opcode::RpcParams as u8, 0b11000);
        assert_eq!(Opcode::RpcWriteFirst as u8, 0b11001);
        assert_eq!(Opcode::RpcWriteMiddle as u8, 0b11010);
        assert_eq!(Opcode::RpcWriteLast as u8, 0b11011);
        assert_eq!(Opcode::RpcWriteOnly as u8, 0b11100);
    }

    #[test]
    fn exactly_five_strom_extensions() {
        let n = Opcode::ALL
            .iter()
            .filter(|o| o.is_strom_extension())
            .count();
        assert_eq!(n, 5, "the paper adds exactly 5 op-codes");
    }

    #[test]
    fn reserved_opcodes_do_not_decode() {
        for op in 0b11110..=0b11111u8 {
            assert_eq!(Opcode::from_wire(op), None, "op {op:#07b} is reserved");
        }
    }

    #[test]
    fn cnp_is_a_bare_notification() {
        assert_eq!(Opcode::Cnp as u8, 0b11101);
        assert!(!Opcode::Cnp.is_strom_extension());
        assert!(!Opcode::Cnp.has_reth());
        assert!(!Opcode::Cnp.has_aeth());
        assert!(!Opcode::Cnp.has_payload());
        assert!(!Opcode::Cnp.ends_message(), "CNPs are never acked");
    }

    #[test]
    fn wire_round_trip() {
        for &op in &Opcode::ALL {
            assert_eq!(Opcode::from_wire(op.to_wire()), Some(op));
        }
    }

    #[test]
    fn rc_transport_prefix() {
        for &op in &Opcode::ALL {
            assert_eq!(op.to_wire() >> 5, TRANSPORT_RC);
        }
    }

    #[test]
    fn header_presence_rules() {
        assert!(Opcode::WriteFirst.has_reth());
        assert!(!Opcode::WriteMiddle.has_reth());
        assert!(!Opcode::WriteLast.has_reth());
        assert!(Opcode::RpcParams.has_reth());
        assert!(Opcode::Acknowledge.has_aeth());
        assert!(!Opcode::Acknowledge.has_payload());
        assert!(!Opcode::ReadRequest.has_payload());
        assert!(Opcode::ReadResponseMiddle.has_payload());
    }

    #[test]
    fn first_last_classification() {
        assert!(Opcode::WriteOnly.starts_message() && Opcode::WriteOnly.ends_message());
        assert!(Opcode::WriteFirst.starts_message() && !Opcode::WriteFirst.ends_message());
        assert!(!Opcode::WriteMiddle.starts_message() && !Opcode::WriteMiddle.ends_message());
        assert!(!Opcode::WriteLast.starts_message() && Opcode::WriteLast.ends_message());
        assert!(Opcode::RpcWriteOnly.starts_message() && Opcode::RpcWriteOnly.ends_message());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Opcode::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Opcode::ALL.len());
    }
}
