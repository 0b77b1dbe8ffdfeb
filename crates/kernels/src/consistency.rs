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
use crate::framework::{
    error_word, Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS, ERR_INCONSISTENT,
};

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

/// DMA tag for object reads.
const TAG_OBJECT: u32 = 1;

#[derive(Debug)]
enum State {
    Idle,
    Reading {
        qpn: Qpn,
        params: ConsistencyParams,
        attempts: u32,
    },
}

/// The consistency kernel FSM.
#[derive(Debug)]
pub struct ConsistencyKernel {
    state: State,
    /// Re-reads performed over the kernel's lifetime (Fig 10 diagnostics).
    retries: u64,
}

impl Default for ConsistencyKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl ConsistencyKernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            state: State::Idle,
            retries: 0,
        }
    }

    /// Total re-reads performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn read_object(
        &mut self,
        qpn: Qpn,
        params: ConsistencyParams,
        attempts: u32,
        out: &mut Vec<KernelAction>,
    ) {
        self.state = State::Reading {
            qpn,
            params,
            attempts,
        };
        out.push(KernelAction::DmaRead {
            tag: TAG_OBJECT,
            vaddr: params.object_addr,
            len: params.object_len,
        });
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
            KernelEvent::Invoke { qpn, params } => match ConsistencyParams::decode(&params) {
                Some(p) => self.read_object(qpn, p, 1, out),
                None => out.extend([
                    KernelAction::RoceSend {
                        qpn,
                        remote_vaddr: 0,
                        data: Bytes::copy_from_slice(&error_word(ERR_BAD_PARAMS)),
                    },
                    KernelAction::Done,
                ]),
            },
            KernelEvent::DmaData { tag, data } => {
                let State::Reading {
                    qpn,
                    params,
                    attempts,
                } = std::mem::replace(&mut self.state, State::Idle)
                else {
                    return;
                };
                if tag != TAG_OBJECT {
                    return;
                }
                let reply = |data| {
                    [
                        KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: params.target_address,
                            data,
                        },
                        KernelAction::Done,
                    ]
                };
                if verify_object(&data) {
                    out.extend(reply(data));
                } else if attempts >= MAX_RETRIES {
                    out.extend(reply(Bytes::copy_from_slice(&error_word(ERR_INCONSISTENT))));
                } else {
                    // Inconsistent: re-read over PCIe (§6.3).
                    self.retries += 1;
                    self.read_object(qpn, params, attempts + 1, out);
                }
            }
            KernelEvent::RoceData { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::build_object_store;
    use strom_mem::{HostMemory, HUGE_PAGE_SIZE};

    fn mem() -> (HostMemory, u64) {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        (m, base)
    }

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
        let KernelAction::DmaRead { tag, vaddr, len } = a1[0] else {
            panic!("expected a DMA read");
        };
        assert_eq!((vaddr, len), (addr, 264));
        let data = Bytes::from(m.read(vaddr, len as usize));
        let a2 = k.on_event(KernelEvent::DmaData {
            tag,
            data: data.clone(),
        });
        assert_eq!(
            a2[0],
            KernelAction::RoceSend {
                qpn: 2,
                remote_vaddr: 0x4000,
                data
            }
        );
        assert_eq!(a2[1], KernelAction::Done);
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
        assert!(matches!(&a3[0], KernelAction::RoceSend { data, .. } if *data == clean));
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
        let mut actions = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: params.encode(),
        });
        let mut reads = 0;
        while let Some(KernelAction::DmaRead { tag, vaddr, len }) = actions.first() {
            reads += 1;
            let data = Bytes::from(m.read(*vaddr, *len as usize));
            actions = k.on_event(KernelEvent::DmaData { tag: *tag, data });
        }
        assert_eq!(reads, MAX_RETRIES);
        assert!(matches!(&actions[0], KernelAction::RoceSend { data, .. }
            if crate::framework::decode_error(u64::from_le_bytes(data[..8].try_into().unwrap()))
                == Some(ERR_INCONSISTENT)));
    }

    #[test]
    fn verify_object_edge_cases() {
        assert!(!verify_object(b""));
        assert!(!verify_object(&[0u8; 7]));
        // Header-only object: CRC of empty payload is 0.
        assert!(verify_object(&[0u8; 8]));
    }
}
