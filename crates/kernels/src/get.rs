//! The GET kernel of Listing 2 (§5.2), grown past the paper's
//! simplifying assumption.
//!
//! The paper walks through this kernel to illustrate the programming
//! model: `fetch_ht_entry` reads the hash-table entry, `parse_ht_entry`
//! matches the key against the buckets (unrolled in hardware) and
//! requests the value, with `merge_read_cmds` / `split_read_data` gluing
//! the DMA streams. "For simplicity, in this example we assume that there
//! is always exactly one matching key in the hash table entry" — this
//! implementation drops that assumption:
//!
//! - a true miss answers with `ERR_NOT_FOUND` instead of hanging;
//! - with [`GetParams::chained`] set, the kernel serves the
//!   [`crate::layouts::chained_layout`] KV entries (2 buckets + overflow
//!   chain), following next-entry pointers on a bucket miss — §6.2's
//!   "fetch the next hash table entry in case the implementation uses
//!   chaining" — and prefixing the response with the matched bucket's
//!   8 B version counter so the serving tier can verify reads against
//!   concurrent PUTs.
//!
//! Chained response layout at `target_address`: the value lands at
//! `target + 8` first and the version header at `target` last, so a
//! host watching the header observes a fully-landed response (RC
//! delivery is in-order). A miss writes only the 8 B error header.
//!
//! The event-driven structure mirrors the paper's four HLS functions: the
//! `Invoke` arm is `fetch_ht_entry`, the first `DmaData` arm is
//! `parse_ht_entry`, and the framework's tag routing plays the role of
//! `merge_read_cmds`/`split_read_data`.

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{
    error_word, Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS, ERR_NOT_FOUND,
};
use crate::layouts::{chained_layout, ht_layout, ELEMENT_SIZE};

/// Parameters of the GET kernel (Listing 3's `getParams`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetParams {
    /// Address of the hash-table entry (the host computed the hash).
    pub entry_addr: u64,
    /// The lookup key.
    pub key: u64,
    /// Requester-side address the value is written to.
    pub target_address: u64,
    /// Chained-layout mode: 2-bucket entries with overflow chains and a
    /// version-prefixed response (the KV serving tier). `false` keeps
    /// the paper's 3-bucket Pilaf entry and the bare-value response.
    pub chained: bool,
}

/// Encoded parameter length in bytes (3 fields + a flags byte).
pub const GET_PARAMS_LEN: usize = 25;

/// Flag bit: serve the chained layout.
const FLAG_CHAINED: u8 = 1;

impl GetParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; GET_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.entry_addr.to_le_bytes());
        out[8..16].copy_from_slice(&self.key.to_le_bytes());
        out[16..24].copy_from_slice(&self.target_address.to_le_bytes());
        out[24] = if self.chained { FLAG_CHAINED } else { 0 };
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload. A 24-byte blob (the original
    /// flag-less encoding) decodes as non-chained.
    pub fn decode(buf: &[u8]) -> Option<GetParams> {
        if buf.len() < 24 {
            return None;
        }
        let flags = if buf.len() >= GET_PARAMS_LEN {
            buf[24]
        } else {
            0
        };
        Some(GetParams {
            entry_addr: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            key: u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
            target_address: u64::from_le_bytes(buf[16..24].try_into().expect("sized")),
            chained: flags & FLAG_CHAINED != 0,
        })
    }
}

/// DMA tag for the hash-table entry read (`htCmdFifo`).
const TAG_ENTRY: u32 = 1;
/// DMA tag for the value read (`valueCmdFifo`).
const TAG_VALUE: u32 = 2;

/// Chain-walk bound: a cycle in a corrupted table must not wedge the
/// kernel (mirrors the traversal kernel's hop cap).
const MAX_HOPS: u32 = 1024;

#[derive(Debug)]
enum State {
    Idle,
    /// Waiting for the entry (`htEntryFifo` in Listing 2).
    FetchingEntry {
        qpn: Qpn,
        params: GetParams,
        hops: u32,
    },
    /// Waiting for the value data.
    FetchingValue {
        qpn: Qpn,
        target_address: u64,
        /// Version header for the chained response (`None` in the
        /// paper's plain mode).
        version: Option<u64>,
    },
}

/// The GET kernel FSM.
#[derive(Debug)]
pub struct GetKernel {
    state: State,
}

impl Default for GetKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl GetKernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self { state: State::Idle }
    }
}

/// The miss response: the 8 B error header at the target address.
fn miss(qpn: Qpn, target_address: u64, out: &mut Vec<KernelAction>) {
    out.extend([
        KernelAction::RoceSend {
            qpn,
            remote_vaddr: target_address,
            data: Bytes::copy_from_slice(&error_word(ERR_NOT_FOUND)),
        },
        KernelAction::Done,
    ]);
}

impl Kernel for GetKernel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::GET
    }

    fn name(&self) -> &'static str {
        "get"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            // fetch_ht_entry (Listing 3): consume qpnIn + paramIn, issue
            // the 64 B entry read.
            KernelEvent::Invoke { qpn, params } => {
                let Some(p) = GetParams::decode(&params) else {
                    out.extend([
                        KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: 0,
                            data: Bytes::copy_from_slice(&error_word(ERR_BAD_PARAMS)),
                        },
                        KernelAction::Done,
                    ]);
                    return;
                };
                let addr = p.entry_addr;
                self.state = State::FetchingEntry {
                    qpn,
                    params: p,
                    hops: 0,
                };
                out.push(KernelAction::DmaRead {
                    tag: TAG_ENTRY,
                    vaddr: addr,
                    len: ELEMENT_SIZE as u32,
                });
            }
            KernelEvent::DmaData { tag, data } => {
                match std::mem::replace(&mut self.state, State::Idle) {
                    // parse_ht_entry (Listing 4): match the key against
                    // the buckets concurrently, emit the value command
                    // and the RoCE metadata.
                    State::FetchingEntry { qpn, params, hops } if tag == TAG_ENTRY => {
                        let key_pos: &[u8] = if params.chained {
                            &chained_layout::BUCKET_KEY_POS
                        } else {
                            &ht_layout::BUCKET_KEY_POS
                        };
                        let word = |off: usize| {
                            u64::from_le_bytes(data[off..off + 8].try_into().expect("sized"))
                        };
                        let matched = key_pos.iter().enumerate().find_map(|(b, &pos)| {
                            let off = usize::from(pos) * 4;
                            let key = word(off);
                            (key != 0 && key == params.key).then(|| {
                                let len = u32::from_le_bytes(
                                    data[off + 16..off + 20].try_into().expect("sized"),
                                );
                                let version =
                                    params.chained.then(|| word(chained_layout::version_off(b)));
                                (word(off + 8), len, version)
                            })
                        });
                        let Some((value_ptr, value_len, version)) = matched else {
                            // No bucket matched. Chained mode follows the
                            // overflow chain before declaring a miss.
                            if params.chained {
                                let next = word(chained_layout::next_off());
                                if next != 0 && hops < MAX_HOPS {
                                    self.state = State::FetchingEntry {
                                        qpn,
                                        params,
                                        hops: hops + 1,
                                    };
                                    out.push(KernelAction::DmaRead {
                                        tag: TAG_ENTRY,
                                        vaddr: next,
                                        len: ELEMENT_SIZE as u32,
                                    });
                                    return;
                                }
                            }
                            miss(qpn, params.target_address, out);
                            return;
                        };
                        self.state = State::FetchingValue {
                            qpn,
                            target_address: params.target_address,
                            version,
                        };
                        out.push(KernelAction::DmaRead {
                            tag: TAG_VALUE,
                            vaddr: value_ptr,
                            len: value_len,
                        });
                    }
                    // split_read_data: the value flows out to the network
                    // — chained mode sends value first, header last, so
                    // the in-order header write signals a complete
                    // response.
                    State::FetchingValue {
                        qpn,
                        target_address,
                        version,
                    } if tag == TAG_VALUE => match version {
                        Some(v) => out.extend([
                            KernelAction::RoceSend {
                                qpn,
                                remote_vaddr: target_address + 8,
                                data,
                            },
                            KernelAction::RoceSend {
                                qpn,
                                remote_vaddr: target_address,
                                data: Bytes::copy_from_slice(&v.to_le_bytes()),
                            },
                            KernelAction::Done,
                        ]),
                        None => out.extend([
                            KernelAction::RoceSend {
                                qpn,
                                remote_vaddr: target_address,
                                data,
                            },
                            KernelAction::Done,
                        ]),
                    },
                    other => self.state = other,
                }
            }
            KernelEvent::RoceData { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::{
        build_hash_table, build_kv_store, value_pattern, versioned_value_pattern,
    };
    use strom_mem::{HostMemory, HUGE_PAGE_SIZE};

    fn run(
        kernel: &mut GetKernel,
        mem: &mut HostMemory,
        params: GetParams,
    ) -> (Vec<KernelAction>, u32) {
        let mut reads = 0;
        let mut actions = kernel.on_event(KernelEvent::Invoke {
            qpn: 4,
            params: params.encode(),
        });
        while let Some(KernelAction::DmaRead { tag, vaddr, len }) = actions.first() {
            reads += 1;
            let data = Bytes::from(mem.read(*vaddr, *len as usize));
            actions = kernel.on_event(KernelEvent::DmaData { tag: *tag, data });
        }
        (actions, reads)
    }

    fn plain(entry_addr: u64, key: u64, target_address: u64) -> GetParams {
        GetParams {
            entry_addr,
            key,
            target_address,
            chained: false,
        }
    }

    #[test]
    fn params_round_trip() {
        for chained in [false, true] {
            let p = GetParams {
                entry_addr: 1,
                key: 2,
                target_address: 3,
                chained,
            };
            assert_eq!(GetParams::decode(&p.encode()), Some(p));
        }
        assert!(GetParams::decode(&[0u8; 8]).is_none());
        // The original 24-byte encoding still decodes (as non-chained).
        let legacy = GetParams::decode(&[0u8; 24]).unwrap();
        assert!(!legacy.chained);
    }

    #[test]
    fn get_retrieves_the_value_in_two_reads() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        let keys: Vec<u64> = (1..=20).collect();
        let ht = build_hash_table(&mut m, base, 64, &keys, 96);
        let mut k = GetKernel::new();
        for &key in &keys {
            let (actions, reads) = run(&mut k, &mut m, plain(ht.entry_addr(key), key, 0x6000));
            assert_eq!(reads, 2, "Listing 2: entry + value");
            match &actions[0] {
                KernelAction::RoceSend {
                    qpn,
                    remote_vaddr,
                    data,
                } => {
                    assert_eq!((*qpn, *remote_vaddr), (4, 0x6000));
                    assert_eq!(&data[..], value_pattern(key, 96));
                }
                other => panic!("expected RoceSend, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_key_reports_not_found() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        let ht = build_hash_table(&mut m, base, 16, &[1, 2, 3], 16);
        let mut k = GetKernel::new();
        let (actions, reads) = run(&mut k, &mut m, plain(ht.entry_addr(999), 999, 0));
        assert_eq!(reads, 1);
        assert!(matches!(&actions[0], KernelAction::RoceSend { data, .. }
            if crate::framework::decode_error(u64::from_le_bytes(data[..8].try_into().unwrap()))
                == Some(ERR_NOT_FOUND)));
    }

    #[test]
    fn malformed_params_error_out() {
        let mut k = GetKernel::new();
        let actions = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: Bytes::from_static(b"xx"),
        });
        assert!(matches!(actions[0], KernelAction::RoceSend { .. }));
        assert_eq!(actions[1], KernelAction::Done);
    }

    /// Chained-mode helpers: run a lookup and decode the response.
    fn chained_get(m: &mut HostMemory, entry_addr: u64, key: u64) -> (Vec<KernelAction>, u32) {
        let mut k = GetKernel::new();
        run(
            &mut k,
            m,
            GetParams {
                entry_addr,
                key,
                target_address: 0x8000,
                chained: true,
            },
        )
    }

    #[test]
    fn chained_get_serves_collisions_and_chains() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        // 2 primary entries × 2 buckets for 12 keys: collisions in every
        // entry and guaranteed overflow chains.
        let keys: Vec<u64> = (1..=12).collect();
        let kv = build_kv_store(&mut m, base, 2, &keys, 48, 4);
        assert!(kv.table.overflow_entries > 0);
        for &key in &keys {
            let (actions, reads) = chained_get(&mut m, kv.entry_addr(key), key);
            assert!(
                reads >= 2,
                "entry + value at minimum; chained keys take more hops"
            );
            // Value first (target + 8), version header last (target).
            match (&actions[0], &actions[1]) {
                (
                    KernelAction::RoceSend {
                        remote_vaddr: va,
                        data: value,
                        ..
                    },
                    KernelAction::RoceSend {
                        remote_vaddr: ha,
                        data: header,
                        ..
                    },
                ) => {
                    assert_eq!((*va, *ha), (0x8008, 0x8000));
                    assert_eq!(&value[..], versioned_value_pattern(key, 0, 48));
                    let v = u64::from_le_bytes(header[..8].try_into().unwrap());
                    assert_eq!(v, 0, "preloaded keys are at version 0");
                }
                other => panic!("expected value+header sends, got {other:?}"),
            }
            assert_eq!(actions[2], KernelAction::Done);
        }
    }

    #[test]
    fn chained_entry_lookup_walks_the_overflow_chain() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        // A single primary entry: keys 3.. must live in overflow entries.
        let keys: Vec<u64> = (1..=7).collect();
        let kv = build_kv_store(&mut m, base, 1, &keys, 32, 0);
        // Deepest key needs ceil(7/2) = 4 entry hops + 1 value read.
        let deep = *keys.last().unwrap();
        let (_, reads) = chained_get(&mut m, kv.entry_addr(deep), deep);
        assert_eq!(reads, 4 + 1, "chain walk must hop entry by entry");
    }

    #[test]
    fn chained_true_miss_walks_to_the_end_and_reports_not_found() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        let keys: Vec<u64> = (1..=6).collect();
        let kv = build_kv_store(&mut m, base, 1, &keys, 32, 0);
        // Key 100 hashes to the same (only) entry but is absent: the
        // kernel must walk the whole chain, then answer ERR_NOT_FOUND.
        let (actions, reads) = chained_get(&mut m, kv.entry_addr(100), 100);
        assert_eq!(reads, 3, "all three chain entries visited");
        match &actions[0] {
            KernelAction::RoceSend {
                remote_vaddr, data, ..
            } => {
                assert_eq!(*remote_vaddr, 0x8000, "error lands at the header");
                let word = u64::from_le_bytes(data[..8].try_into().unwrap());
                assert_eq!(crate::framework::decode_error(word), Some(ERR_NOT_FOUND));
            }
            other => panic!("expected error send, got {other:?}"),
        }
    }
}
