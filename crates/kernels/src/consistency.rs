//! The consistency kernel: CRC64-verified object reads with NIC-side retry.
//!
//! §6.3: "This kernel, consistency kernel, reads a data object from the
//! remote host memory, calculates the CRC64 checksum over the object, and
//! verifies its correctness on the remote NIC. In case of inconsistency,
//! the kernel re-reads the data object, otherwise it issues an RDMA write
//! to place the object in the requester's memory."
//!
//! The object layout is the Pilaf convention the paper cites: each object
//! stores its checksum inline (here: an 8 B CRC64 header, see
//! [`crate::layouts::build_object_store`]). Retries happen entirely over
//! PCIe — the Fig 10 result that StRoM tolerates even a 50 % failure rate
//! with minimal overhead, because a retry costs ~1.5 µs instead of a
//! network round trip.

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::crc64::crc64;
use crate::framework::{Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS, ERR_INCONSISTENT};
use crate::walk::{reply, reply_error};

/// Parameters of the consistency kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyParams {
    /// Address of the object header (CRC64) in remote host memory.
    pub object_addr: u64,
    /// Object length including the 8 B CRC header.
    pub object_len: u32,
    /// Requester-side address the verified object is written to.
    pub target_address: u64,
}

/// Encoded parameter length in bytes.
pub const CONSISTENCY_PARAMS_LEN: usize = 20;

impl ConsistencyParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; CONSISTENCY_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.object_addr.to_le_bytes());
        out[8..12].copy_from_slice(&self.object_len.to_le_bytes());
        out[12..20].copy_from_slice(&self.target_address.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<ConsistencyParams> {
        if buf.len() < CONSISTENCY_PARAMS_LEN {
            return None;
        }
        Some(ConsistencyParams {
            object_addr: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            object_len: u32::from_le_bytes(buf[8..12].try_into().expect("sized")),
            target_address: u64::from_le_bytes(buf[12..20].try_into().expect("sized")),
        })
    }
}

/// Verifies an object's inline checksum: `[crc64 (8 B)] [payload]`.
pub fn verify_object(object: &[u8]) -> bool {
    if object.len() < 8 {
        return false;
    }
    let stored = u64::from_le_bytes(object[..8].try_into().expect("sized"));
    crc64(&object[8..]) == stored
}

/// Retries before the kernel gives up and reports an error.
const MAX_RETRIES: u32 = 64;

/// The longest object the kernel reads, header included. `object_len`
/// comes from a remote caller, and the NIC allocates and DMA-reads
/// whatever length the kernel asks for: unbounded, one request could
/// make it allocate gigabytes or read past the pinned region (a DMA
/// fault). 64 KiB is 16 times the largest object any figure, test or
/// corpus case stores (4 KiB); a longer one is answered `ERR_BAD_PARAMS`.
pub const MAX_OBJECT_LEN: u32 = 64 << 10;

/// The shortest object: its 8 B CRC header. A shorter one can never
/// verify, so it is answered `ERR_BAD_PARAMS` rather than read
/// [`MAX_RETRIES`] times.
const MIN_OBJECT_LEN: u32 = 8;

/// DMA tag for object reads.
const TAG_OBJECT: u32 = 1;

/// The consistency kernel FSM.
#[derive(Debug, Default)]
pub struct ConsistencyKernel {
    /// The object read in flight: its invocation's QP and params, and
    /// which attempt it is.
    reading: Option<(Qpn, ConsistencyParams, u32)>,
    /// Re-reads performed over the kernel's lifetime (Fig 10 diagnostics).
    retries: u64,
}

impl ConsistencyKernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total re-reads performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Issues the object read of attempt number `attempt`.
    fn read(&mut self, qpn: Qpn, p: ConsistencyParams, attempt: u32, out: &mut Vec<KernelAction>) {
        self.reading = Some((qpn, p, attempt));
        let (tag, vaddr, len) = (TAG_OBJECT, p.object_addr, p.object_len);
        out.push(KernelAction::DmaRead { tag, vaddr, len });
    }
}

impl Kernel for ConsistencyKernel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::CONSISTENCY
    }

    fn name(&self) -> &'static str {
        "consistency"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => match ConsistencyParams::decode(&params)
                .filter(|p| (MIN_OBJECT_LEN..=MAX_OBJECT_LEN).contains(&p.object_len))
            {
                Some(p) => self.read(qpn, p, 1, out),
                None => reply_error(out, qpn, 0, ERR_BAD_PARAMS),
            },
            KernelEvent::DmaData { tag, data } => {
                let Some((qpn, p, attempt)) = self.reading.take() else {
                    return;
                };
                if tag != TAG_OBJECT {
                    return;
                }
                if verify_object(&data) {
                    reply(out, qpn, p.target_address, data);
                } else if attempt >= MAX_RETRIES {
                    reply_error(out, qpn, p.target_address, ERR_INCONSISTENT);
                } else {
                    // Inconsistent: re-read over PCIe (§6.3).
                    self.retries += 1;
                    self.read(qpn, p, attempt + 1, out);
                }
            }
            KernelEvent::RoceData { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::error_word;
    use crate::framework::testing::{drive, invoke, mem, send};
    use crate::layouts::build_object_store;
    use KernelAction::Done;

    #[test]
    fn params_round_trip() {
        let p = ConsistencyParams {
            object_addr: 0x1111,
            object_len: 4096,
            target_address: 0x2222,
        };
        assert_eq!(ConsistencyParams::decode(&p.encode()), Some(p));
        assert!(ConsistencyParams::decode(&[0u8; 10]).is_none());
    }

    #[test]
    fn consistent_object_is_returned_first_try() {
        let (mut m, base) = mem();
        let store = build_object_store(&mut m, base, 1, 256);
        let addr = store.object_addrs[0];
        let mut k = ConsistencyKernel::new();
        let params = ConsistencyParams {
            object_addr: addr,
            object_len: store.object_size(),
            target_address: 0x4000,
        };
        let a1 = k.on_event(KernelEvent::Invoke {
            qpn: 2,
            params: params.encode(),
        });
        let KernelAction::DmaRead { vaddr, len, .. } = a1[0] else {
            panic!("expected a DMA read");
        };
        assert_eq!((vaddr, len), (addr, 264));
        let (a2, reads) = drive(&mut k, &mut m, a1);
        assert_eq!(
            (a2, reads),
            (vec![send(2, 0x4000, &m.read(addr, 264)), Done], 1)
        );
        assert_eq!(k.retries(), 0);
    }

    #[test]
    fn inconsistent_read_triggers_reread() {
        let (mut m, base) = mem();
        let store = build_object_store(&mut m, base, 1, 128);
        let addr = store.object_addrs[0];
        let mut k = ConsistencyKernel::new();
        let params = ConsistencyParams {
            object_addr: addr,
            object_len: store.object_size(),
            target_address: 0x4000,
        };
        let a1 = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: params.encode(),
        });
        let KernelAction::DmaRead { tag, vaddr, len } = a1[0] else {
            panic!("expected a DMA read");
        };
        // First read arrives corrupted (torn read during concurrent
        // modification).
        let mut corrupted = m.read(vaddr, len as usize);
        corrupted[20] ^= 0xff;
        let a2 = k.on_event(KernelEvent::DmaData {
            tag,
            data: Bytes::from(corrupted),
        });
        let KernelAction::DmaRead { tag: tag2, .. } = a2[0] else {
            panic!("expected a re-read, got {:?}", a2[0]);
        };
        assert_eq!(k.retries(), 1);
        // Second read is clean.
        let clean = Bytes::from(m.read(vaddr, len as usize));
        let a3 = k.on_event(KernelEvent::DmaData {
            tag: tag2,
            data: clean.clone(),
        });
        assert_eq!(a3, [send(1, 0x4000, &clean), Done]);
    }

    #[test]
    fn permanently_corrupt_object_reports_error() {
        let (mut m, base) = mem();
        let store = build_object_store(&mut m, base, 1, 64);
        let addr = store.object_addrs[0];
        // Corrupt the object in memory itself.
        let mut b = m.read(addr + 12, 1);
        b[0] ^= 1;
        m.write(addr + 12, &b);
        let mut k = ConsistencyKernel::new();
        let params = ConsistencyParams {
            object_addr: addr,
            object_len: store.object_size(),
            target_address: 0x8000,
        };
        let first = k.on_event(invoke(params.encode()));
        let (actions, reads) = drive(&mut k, &mut m, first);
        assert_eq!(reads, MAX_RETRIES);
        assert_eq!(
            actions,
            [send(1, 0x8000, &error_word(ERR_INCONSISTENT)), Done]
        );
    }

    #[test]
    fn verify_object_edge_cases() {
        assert!(!verify_object(b""));
        assert!(!verify_object(&[0u8; 7]));
        // Header-only object: CRC of empty payload is 0.
        assert!(verify_object(&[0u8; 8]));
    }
}
