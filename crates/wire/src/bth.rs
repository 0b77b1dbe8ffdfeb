//! Infiniband transport headers: BTH, RETH, and AETH.
//!
//! These are the headers the Process BTH / Process RETH/AETH and Generate
//! BTH / Generate RETH/AETH pipeline stages of Figure 2 handle. Field
//! layouts follow the IB specification (the subset StRoM implements).

use crate::opcode::Opcode;

/// Length of the Base Transport Header.
pub const BTH_LEN: usize = 12;

/// Length of the RDMA Extended Transport Header.
pub const RETH_LEN: usize = 16;

/// Length of the ACK Extended Transport Header.
pub const AETH_LEN: usize = 4;

/// A queue pair number (24 bits on the wire).
pub type Qpn = u32;

/// A packet sequence number (24 bits on the wire, wrapping).
pub type Psn = u32;

/// Mask for 24-bit wire fields (QPN, PSN, MSN).
pub const MASK_24: u32 = 0x00ff_ffff;

/// The Base Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bth {
    /// Operation code.
    pub opcode: Opcode,
    /// Destination queue pair number (24 bits).
    pub dest_qp: Qpn,
    /// Packet sequence number (24 bits).
    pub psn: Psn,
    /// Whether the responder must acknowledge this packet.
    pub ack_req: bool,
    /// Partition key (constant `0xffff` in StRoM, the default partition).
    pub pkey: u16,
}

impl Bth {
    /// Creates a BTH with the default partition key.
    pub fn new(opcode: Opcode, dest_qp: Qpn, psn: Psn, ack_req: bool) -> Self {
        Bth {
            opcode,
            dest_qp: dest_qp & MASK_24,
            psn: psn & MASK_24,
            ack_req,
            pkey: 0xffff,
        }
    }

    /// The header's bytes.
    pub fn to_bytes(&self) -> [u8; BTH_LEN] {
        let qp = (self.dest_qp & MASK_24).to_be_bytes();
        let psn = (self.psn & MASK_24).to_be_bytes();
        let pkey = self.pkey.to_be_bytes();
        [
            self.opcode.to_wire(),
            0x40, // Flags: migration state = migrated, pad 0, tver 0.
            pkey[0],
            pkey[1],
            0, // Reserved.
            qp[1],
            qp[2],
            qp[3],
            if self.ack_req { 0x80 } else { 0x00 },
            psn[1],
            psn[2],
            psn[3],
        ]
    }

    /// Reads a BTH.
    ///
    /// Unknown or reserved op-codes read as `None` — the hardware drops such
    /// packets in the Process BTH stage.
    pub fn read(h: &[u8; BTH_LEN]) -> Option<Bth> {
        let opcode = Opcode::from_wire(h[0] & 0x1f)?;
        if h[0] >> 5 != crate::opcode::TRANSPORT_RC {
            return None; // Only the RC transport is implemented.
        }
        Some(Bth {
            opcode,
            dest_qp: u32::from_be_bytes([0, h[5], h[6], h[7]]),
            psn: u32::from_be_bytes([0, h[9], h[10], h[11]]),
            ack_req: h[8] & 0x80 != 0,
            pkey: u16::from_be_bytes([h[2], h[3]]),
        })
    }
}

/// The RDMA Extended Transport Header: target address, rkey, and length.
///
/// For the StRoM op-codes the *address* field carries the RPC op-code used
/// to match the request against the kernels deployed on the remote NIC
/// (§5.1) — the header layout is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reth {
    /// Remote virtual address (or RPC op-code for StRoM packets).
    pub vaddr: u64,
    /// Remote key of the target memory region.
    pub rkey: u32,
    /// Total DMA length of the message in bytes.
    pub dma_len: u32,
}

impl Reth {
    /// The header's bytes.
    pub fn to_bytes(&self) -> [u8; RETH_LEN] {
        let mut h = [0u8; RETH_LEN];
        h[0..8].copy_from_slice(&self.vaddr.to_be_bytes());
        h[8..12].copy_from_slice(&self.rkey.to_be_bytes());
        h[12..16].copy_from_slice(&self.dma_len.to_be_bytes());
        h
    }

    /// Reads a RETH.
    pub fn read(h: &[u8; RETH_LEN]) -> Reth {
        let (vaddr, rest) = h.split_first_chunk::<8>().expect("sized header");
        let (rkey, dma_len) = rest.split_first_chunk::<4>().expect("sized header");
        let dma_len = dma_len.first_chunk::<4>().expect("sized header");
        Reth {
            vaddr: u64::from_be_bytes(*vaddr),
            rkey: u32::from_be_bytes(*rkey),
            dma_len: u32::from_be_bytes(*dma_len),
        }
    }
}

/// AETH syndrome values StRoM generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AethSyndrome {
    /// Positive acknowledgement.
    Ack,
    /// Negative acknowledgement: PSN sequence error (requests retransmit).
    NakSequenceError,
    /// Negative acknowledgement: remote operational error (e.g. no kernel
    /// matched an RPC op-code and no CPU fallback was configured, §5.1).
    NakRemoteOperationalError,
}

impl AethSyndrome {
    /// Encodes into the 8-bit syndrome field.
    pub fn to_wire(self) -> u8 {
        match self {
            // Ack with credit count field = 31 (unlimited credits).
            AethSyndrome::Ack => 0b0001_1111,
            AethSyndrome::NakSequenceError => 0b0110_0000,
            AethSyndrome::NakRemoteOperationalError => 0b0110_0100,
        }
    }

    /// Decodes from the 8-bit syndrome field.
    pub fn from_wire(v: u8) -> Option<AethSyndrome> {
        match v >> 5 {
            0b000 => Some(AethSyndrome::Ack),
            0b011 => match v & 0x1f {
                0 => Some(AethSyndrome::NakSequenceError),
                4 => Some(AethSyndrome::NakRemoteOperationalError),
                _ => None,
            },
            _ => None,
        }
    }
}

/// The ACK Extended Transport Header: syndrome plus message sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aeth {
    /// ACK/NAK discrimination.
    pub syndrome: AethSyndrome,
    /// Message sequence number (24 bits) from the responder's MSN table.
    pub msn: u32,
}

impl Aeth {
    /// The header's bytes.
    pub fn to_bytes(&self) -> [u8; AETH_LEN] {
        let mut h = (self.msn & MASK_24).to_be_bytes();
        h[0] = self.syndrome.to_wire();
        h
    }

    /// Reads an AETH, or `None` for a syndrome StRoM does not know.
    pub fn read(h: &[u8; AETH_LEN]) -> Option<Aeth> {
        Some(Aeth {
            syndrome: AethSyndrome::from_wire(h[0])?,
            msn: u32::from_be_bytes([0, h[1], h[2], h[3]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bth_round_trip() {
        let bth = Bth::new(Opcode::WriteOnly, 0x1234, 0xabcdef, true);
        assert_eq!(Bth::read(&bth.to_bytes()), Some(bth));
    }

    #[test]
    fn bth_masks_to_24_bits() {
        let bth = Bth::new(Opcode::ReadRequest, 0xff00_0001, 0xff00_0002, false);
        assert_eq!(bth.dest_qp, 0x0000_0001);
        assert_eq!(bth.psn, 0x0000_0002);
    }

    #[test]
    fn bth_rejects_reserved_opcode() {
        let mut buf = Bth::new(Opcode::WriteOnly, 1, 1, false).to_bytes();
        buf[0] = 0b000_11110; // Reserved StRoM op-code (11101 is now CNP).
        assert!(Bth::read(&buf).is_none());
    }

    #[test]
    fn bth_rejects_non_rc_transport() {
        let mut buf = Bth::new(Opcode::WriteOnly, 1, 1, false).to_bytes();
        buf[0] = (0b011 << 5) | 0x0a; // UD transport prefix.
        assert!(Bth::read(&buf).is_none());
    }

    #[test]
    fn reth_round_trip() {
        let reth = Reth {
            vaddr: 0xdead_beef_0000_0040,
            rkey: 7,
            dma_len: 4096,
        };
        assert_eq!(Reth::read(&reth.to_bytes()), reth);
    }

    #[test]
    fn aeth_round_trip_all_syndromes() {
        for syndrome in [
            AethSyndrome::Ack,
            AethSyndrome::NakSequenceError,
            AethSyndrome::NakRemoteOperationalError,
        ] {
            let aeth = Aeth { syndrome, msn: 99 };
            assert_eq!(Aeth::read(&aeth.to_bytes()), Some(aeth));
        }
    }

    #[test]
    fn strom_rpc_opcode_travels_in_reth_vaddr() {
        // §5.1: the RETH address field encodes the RPC op-code.
        let reth = Reth {
            vaddr: crate::opcode::RpcOpCode::TRAVERSAL.0,
            rkey: 0,
            dma_len: 64,
        };
        let parsed = Reth::read(&reth.to_bytes());
        assert_eq!(
            crate::opcode::RpcOpCode(parsed.vaddr),
            crate::opcode::RpcOpCode::TRAVERSAL
        );
    }
}
