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
//!   chaining" — and answers with the matched bucket's 8 B version
//!   counter too, so the serving tier can verify reads against concurrent
//!   PUTs: the value lands at `target + 8` first and the version header
//!   at `target` last, so a host watching the header observes a
//!   fully-landed response (RC delivery is in-order). A miss writes only
//!   the 8 B error header.
//!
//! The entry walk is the random-access kernels' shared pointer chase
//! (the crate's private `walk` module); GET keeps its op-code, its
//! parameters and its response.

use bytes::Bytes;

use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS};
use crate::layouts::{chained_layout, ht_layout};
use crate::traversal::Predicate::Equal;
use crate::walk::{reply_error, word, Lookup, Walk};

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

/// Entry reads one GET may issue: 1 024 hops counted from 0. A cycle in
/// a corrupted table must not wedge the kernel.
const MAX_READS: u32 = 1025;

/// The GET kernel FSM.
#[derive(Debug, Default)]
pub struct GetKernel {
    state: Lookup<GetParams>,
}

impl GetKernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self::default()
    }
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
                    return reply_error(out, qpn, 0, ERR_BAD_PARAMS);
                };
                let (mask, next) = if p.chained {
                    (chained_layout::KEY_MASK, Some(chained_layout::NEXT_POS))
                } else {
                    (ht_layout::KEY_MASK, None)
                };
                let walk = Walk::start(p.entry_addr, p.key, mask, Equal, next, MAX_READS, out);
                self.state = Lookup::Walking(qpn, p.target_address, p, walk);
            }
            // parse_ht_entry (Listing 4): a hit reads the value its bucket
            // points to (pointer at +8, 4 B length at +16), chained mode
            // with the bucket's version after it.
            KernelEvent::DmaData { tag, data } => {
                self.state.on_data(tag, data, out, |p, entry, off| {
                    let field = |off| word(entry, off).expect("in the entry");
                    let version = p.chained.then(|| field(chained_layout::version_at(off)));
                    Ok((field(off + 8), field(off + 16) as u32, version))
                });
            }
            KernelEvent::RoceData { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testing::{drive, invoke, mem, send};
    use crate::framework::{error_word, ERR_NOT_FOUND};
    use crate::layouts::{
        build_hash_table, build_kv_store, value_pattern, versioned_value_pattern,
    };
    use strom_mem::HostMemory;
    use KernelAction::Done;

    fn run(k: &mut GetKernel, mem: &mut HostMemory, p: GetParams) -> (Vec<KernelAction>, u32) {
        let first = k.on_event(invoke(p.encode()));
        drive(k, mem, first)
    }

    fn get(entry_addr: u64, key: u64, target_address: u64, chained: bool) -> GetParams {
        GetParams {
            entry_addr,
            key,
            target_address,
            chained,
        }
    }

    #[test]
    fn params_round_trip() {
        for chained in [false, true] {
            let p = get(1, 2, 3, chained);
            assert_eq!(GetParams::decode(&p.encode()), Some(p));
        }
        assert!(GetParams::decode(&[0u8; 8]).is_none());
        // The original 24-byte encoding still decodes (as non-chained).
        let legacy = GetParams::decode(&[0u8; 24]).unwrap();
        assert!(!legacy.chained);
    }

    #[test]
    fn get_retrieves_the_value_in_two_reads() {
        let (mut m, base) = mem();
        let keys: Vec<u64> = (1..=20).collect();
        let ht = build_hash_table(&mut m, base, 64, &keys, 96);
        let mut k = GetKernel::new();
        for &key in &keys {
            let (actions, reads) = run(&mut k, &mut m, get(ht.entry_addr(key), key, 0x6000, false));
            assert_eq!(reads, 2, "Listing 2: entry + value");
            assert_eq!(actions, [send(1, 0x6000, &value_pattern(key, 96)), Done]);
        }
    }

    #[test]
    fn missing_key_reports_not_found() {
        let (mut m, base) = mem();
        let ht = build_hash_table(&mut m, base, 16, &[1, 2, 3], 16);
        let mut k = GetKernel::new();
        let (actions, reads) = run(&mut k, &mut m, get(ht.entry_addr(999), 999, 0, false));
        assert_eq!(reads, 1);
        assert_eq!(actions, [send(1, 0, &error_word(ERR_NOT_FOUND)), Done]);
    }

    /// A chained lookup of `key` from `entry_addr`, answered at 0x8000.
    fn chained_get(m: &mut HostMemory, entry_addr: u64, key: u64) -> (Vec<KernelAction>, u32) {
        run(&mut GetKernel::new(), m, get(entry_addr, key, 0x8000, true))
    }

    #[test]
    fn chained_get_serves_collisions_and_chains() {
        let (mut m, base) = mem();
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
            // Value first (target + 8), version header last (target):
            // preloaded keys are at version 0.
            let value = send(1, 0x8008, &versioned_value_pattern(key, 0, 48));
            assert_eq!(actions, [value, send(1, 0x8000, &[0; 8]), Done]);
        }
    }

    #[test]
    fn chained_entry_lookup_walks_the_overflow_chain() {
        let (mut m, base) = mem();
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
        let (mut m, base) = mem();
        let keys: Vec<u64> = (1..=6).collect();
        let kv = build_kv_store(&mut m, base, 1, &keys, 32, 0);
        // Key 100 hashes to the same (only) entry but is absent: the
        // kernel must walk the whole chain, then answer ERR_NOT_FOUND.
        let (actions, reads) = chained_get(&mut m, kv.entry_addr(100), 100);
        assert_eq!(reads, 3, "all three chain entries visited");
        let error = send(1, 0x8000, &error_word(ERR_NOT_FOUND));
        assert_eq!(actions, [error, Done], "error lands at the header");
    }
}
