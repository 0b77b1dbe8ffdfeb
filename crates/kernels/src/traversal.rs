//! The traversal kernel: pointer chasing over remote data structures.
//!
//! §6.2: "The key idea of StRoM is to replace high-latency network
//! round-trips with PCIe round trips of relatively low latency. The kernel
//! starts from a root element and then extracts one or multiple keys in
//! that element and compares them against a given key. In case of a match,
//! the data value associated to that key is read out. Otherwise the next
//! element in the data structure is fetched (or the traversal terminates
//! if it is the leaf/tail element)."
//!
//! The parameters are exactly Table 2 (plus the requester-side target
//! address that Listing 3's `getTargetAddr()` shows the params carry).
//! With them the kernel traverses "linked lists, hash tables, trees,
//! graphs, skip lists, and other data structures".

use bytes::Bytes;

use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS};
use crate::walk::{reply_error, word, Lookup, Walk};

/// The comparison predicate of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Predicate {
    /// Element key equals the lookup key.
    Equal = 0,
    /// Element key is less than the lookup key.
    LessThan = 1,
    /// Element key is greater than the lookup key.
    GreaterThan = 2,
    /// Element key differs from the lookup key.
    NotEqual = 3,
}

impl Predicate {
    /// Decodes from the parameter byte.
    pub fn from_u8(v: u8) -> Option<Predicate> {
        match v {
            0 => Some(Predicate::Equal),
            1 => Some(Predicate::LessThan),
            2 => Some(Predicate::GreaterThan),
            3 => Some(Predicate::NotEqual),
            _ => None,
        }
    }

    /// Applies the predicate: does `element_key` match against
    /// `lookup_key`?
    pub fn matches(self, element_key: u64, lookup_key: u64) -> bool {
        match self {
            Predicate::Equal => element_key == lookup_key,
            Predicate::LessThan => element_key < lookup_key,
            Predicate::GreaterThan => element_key > lookup_key,
            Predicate::NotEqual => element_key != lookup_key,
        }
    }
}

/// The traversal-kernel parameters (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalParams {
    /// "The address of the initial element in the remote data structure."
    pub remote_address: u64,
    /// "The size of the final value to be read."
    pub value_size: u32,
    /// "The lookup key."
    pub key: u64,
    /// "Specifies where the key(s) is/are located in the data structure
    /// element": a bitmask over the sixteen 4 B field positions; a set bit
    /// `i` means an 8 B key starts at byte `4 * i`.
    pub key_mask: u16,
    /// "Operation applied to compare the key in the command and in the
    /// data structure."
    pub predicate: Predicate,
    /// "The position of the value pointer within the data structure
    /// element which can be absolute or relative to the key that matched"
    /// (4 B units).
    pub value_ptr_position: u8,
    /// "Indicates if the valuePtrPosition is relative to the key or
    /// absolute."
    pub is_relative_position: bool,
    /// "The position of the pointer to the next element … read in case
    /// none of the keys in the current element matched" (4 B units).
    pub next_element_ptr_position: u8,
    /// "Indicates if the data structure element contains a pointer to a
    /// next element."
    pub next_element_ptr_valid: bool,
    /// Where on the requester the result is written (Listing 3's
    /// `getTargetAddr()`).
    pub target_address: u64,
}

/// Encoded parameter length in bytes.
pub const TRAVERSAL_PARAMS_LEN: usize = 36;

impl TraversalParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; TRAVERSAL_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.remote_address.to_le_bytes());
        out[8..12].copy_from_slice(&self.value_size.to_le_bytes());
        out[12..20].copy_from_slice(&self.key.to_le_bytes());
        out[20..22].copy_from_slice(&self.key_mask.to_le_bytes());
        out[22] = self.predicate as u8;
        out[23] = self.value_ptr_position;
        out[24] = u8::from(self.is_relative_position);
        out[25] = self.next_element_ptr_position;
        out[26] = u8::from(self.next_element_ptr_valid);
        // Byte 27 pads to 4 B alignment.
        out[28..36].copy_from_slice(&self.target_address.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<TraversalParams> {
        if buf.len() < TRAVERSAL_PARAMS_LEN {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("sized"));
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("sized"));
        let u16_at = |i: usize| u16::from_le_bytes(buf[i..i + 2].try_into().expect("sized"));
        Some(TraversalParams {
            remote_address: u64_at(0),
            value_size: u32_at(8),
            key: u64_at(12),
            key_mask: u16_at(20),
            predicate: Predicate::from_u8(buf[22])?,
            value_ptr_position: buf[23],
            is_relative_position: buf[24] != 0,
            next_element_ptr_position: buf[25],
            next_element_ptr_valid: buf[26] != 0,
            target_address: u64_at(28),
        })
    }

    /// Parameters for the Figure 6 linked list, exactly as the paper sets
    /// them: "we set the keyMask to 1, the valuePtrPosition to 4, and the
    /// nextElementPtrPosition to 2".
    pub fn for_linked_list(head: u64, key: u64, value_size: u32, target_address: u64) -> Self {
        TraversalParams {
            remote_address: head,
            value_size,
            key,
            key_mask: 1,
            predicate: Predicate::Equal,
            value_ptr_position: 4,
            is_relative_position: false,
            next_element_ptr_position: 2,
            next_element_ptr_valid: true,
            target_address,
        }
    }

    /// Parameters for a GET on the Pilaf-style hash table: keys in the
    /// three bucket positions, value pointer relative to the matched key,
    /// no next-element chaining (best case of §6.2's hash table example).
    pub fn for_hash_table(entry: u64, key: u64, value_size: u32, target_address: u64) -> Self {
        use crate::layouts::ht_layout::{KEY_MASK, VALUE_PTR_REL};
        TraversalParams {
            remote_address: entry,
            value_size,
            key,
            key_mask: KEY_MASK,
            predicate: Predicate::Equal,
            value_ptr_position: VALUE_PTR_REL,
            is_relative_position: true,
            next_element_ptr_position: 0,
            next_element_ptr_valid: false,
            target_address,
        }
    }
}

/// Elements one lookup may read: the guard against cyclic structures.
const MAX_READS: u32 = 65_536;

/// The longest value a lookup reads. `value_size` comes from a remote
/// caller, and the NIC allocates and DMA-reads whatever length the kernel
/// asks for, so it has the consistency kernel's bound
/// ([`MAX_OBJECT_LEN`](crate::consistency::MAX_OBJECT_LEN)); a longer one
/// is answered `ERR_BAD_PARAMS`.
pub const MAX_VALUE_LEN: u32 = crate::consistency::MAX_OBJECT_LEN;

/// The traversal kernel FSM.
#[derive(Debug, Default)]
pub struct TraversalKernel {
    state: Lookup<TraversalParams>,
    /// Elements visited by the current/last invocation (diagnostics; the
    /// latency figures correlate with this).
    last_hops: u32,
}

impl TraversalKernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Elements visited by the most recent lookup.
    pub fn last_hops(&self) -> u32 {
        self.last_hops
    }
}

impl Kernel for TraversalKernel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::TRAVERSAL
    }

    fn name(&self) -> &'static str {
        "traversal"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let decoded = TraversalParams::decode(&params);
                let Some(p) = decoded.filter(|p| p.value_size <= MAX_VALUE_LEN) else {
                    self.state = Lookup::Idle;
                    return reply_error(out, qpn, 0, ERR_BAD_PARAMS);
                };
                let (entry, next) = (p.remote_address, p.next_element_ptr_position);
                let next = p.next_element_ptr_valid.then_some(next);
                let walk = Walk::start(entry, p.key, p.key_mask, p.predicate, next, MAX_READS, out);
                self.state = Lookup::Walking(qpn, p.target_address, p, walk);
            }
            // A hit reads the value through the pointer at its absolute
            // position, or at its position relative to the matched key.
            KernelEvent::DmaData { tag, data } => {
                let hops = self.state.on_data(tag, data, out, |p, element, off| {
                    let relative = if p.is_relative_position { off / 4 } else { 0 };
                    let pos = usize::from(p.value_ptr_position) + relative;
                    let ptr = word(element, pos * 4).ok_or(ERR_BAD_PARAMS)?;
                    Ok((ptr, p.value_size, None))
                });
                self.last_hops = hops.unwrap_or(self.last_hops);
            }
            KernelEvent::RoceData { .. } => {} // Not a stream kernel.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testing::{drive, invoke, mem, send};
    use crate::framework::{error_word, ERR_NOT_FOUND};
    use crate::layouts::{build_hash_table, build_linked_list, value_pattern};
    use strom_mem::HostMemory;
    use KernelAction::Done;

    /// Invokes the kernel and drives it against host memory.
    fn run(
        k: &mut TraversalKernel,
        m: &mut HostMemory,
        p: TraversalParams,
    ) -> (Vec<KernelAction>, u32) {
        let first = k.on_event(invoke(p.encode()));
        drive(k, m, first)
    }

    #[test]
    fn params_encode_decode_round_trip() {
        let p = TraversalParams::for_linked_list(0x1000, 42, 64, 0x9000);
        assert_eq!(TraversalParams::decode(&p.encode()), Some(p));
        let p2 = TraversalParams::for_hash_table(0x2000, 7, 128, 0x9100);
        assert_eq!(TraversalParams::decode(&p2.encode()), Some(p2));
    }

    #[test]
    fn paper_linked_list_parameters() {
        // §6.2: keyMask 1, valuePtrPosition 4, nextElementPtrPosition 2.
        let p = TraversalParams::for_linked_list(0, 0, 0, 0);
        assert_eq!(p.key_mask, 1);
        assert_eq!(p.value_ptr_position, 4);
        assert_eq!(p.next_element_ptr_position, 2);
        assert!(p.next_element_ptr_valid);
        assert!(!p.is_relative_position);
    }

    #[test]
    fn relative_value_pointer_past_the_element_is_bad_params() {
        // A key at field 10 matches; field 10 + 250 overflows a `u8` and
        // lies past the element, so no value read may follow.
        let (mut m, base) = mem();
        m.write(base + 40, &77u64.to_le_bytes());
        let mut p = TraversalParams::for_linked_list(base, 77, 16, 0x9000);
        (p.key_mask, p.value_ptr_position, p.is_relative_position) = (1 << 10, 250, true);
        let (actions, dma_reads) = run(&mut TraversalKernel::new(), &mut m, p);
        assert_eq!(dma_reads, 1, "the element only");
        assert_eq!(
            actions,
            [send(1, 0x9000, &error_word(ERR_BAD_PARAMS)), Done]
        );
    }

    #[test]
    fn linked_list_lookup_finds_each_key() {
        let (mut m, base) = mem();
        let keys = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let list = build_linked_list(&mut m, base, &keys, 64);
        let mut k = TraversalKernel::new();
        for (i, &key) in keys.iter().enumerate() {
            let p = TraversalParams::for_linked_list(list.head, key, 64, 0xabc0);
            let (actions, dma_reads) = run(&mut k, &mut m, p);
            // i+1 element reads plus 1 value read.
            assert_eq!(dma_reads as usize, i + 2, "key {key}");
            assert_eq!(k.last_hops() as usize, i + 1);
            assert_eq!(actions, [send(1, 0xabc0, &value_pattern(key, 64)), Done]);
        }
    }

    #[test]
    fn missing_key_reaches_tail_and_errors() {
        let (mut m, base) = mem();
        let list = build_linked_list(&mut m, base, &[1, 2, 3], 32);
        let mut k = TraversalKernel::new();
        let p = TraversalParams::for_linked_list(list.head, 99, 32, 0xdef0);
        let (actions, dma_reads) = run(&mut k, &mut m, p);
        assert_eq!(dma_reads, 3, "whole list traversed");
        assert_eq!(actions, [send(1, 0xdef0, &error_word(ERR_NOT_FOUND)), Done]);
    }

    #[test]
    fn hash_table_get_is_two_dma_reads() {
        // §6.2: "A GET operation requires in the best case two RDMA READ
        // operations" — on the NIC that is exactly two PCIe reads.
        let (mut m, base) = mem();
        let keys: Vec<u64> = (1..=30).collect();
        let ht = build_hash_table(&mut m, base, 512, &keys, 48);
        let mut k = TraversalKernel::new();
        for &key in &keys {
            let p = TraversalParams::for_hash_table(ht.entry_addr(key), key, 48, 0x5000);
            let (actions, dma_reads) = run(&mut k, &mut m, p);
            assert_eq!(dma_reads, 2, "entry + value for key {key}");
            assert_eq!(actions, [send(1, 0x5000, &value_pattern(key, 48)), Done]);
        }
    }

    #[test]
    fn hash_table_miss_has_no_next_pointer() {
        let (mut m, base) = mem();
        let ht = build_hash_table(&mut m, base, 16, &[5, 6, 7], 16);
        let mut k = TraversalKernel::new();
        let p = TraversalParams::for_hash_table(ht.entry_addr(1234), 1234, 16, 0);
        let (actions, dma_reads) = run(&mut k, &mut m, p);
        assert_eq!(dma_reads, 1, "no chaining configured");
        assert_eq!(actions, [send(1, 0, &error_word(ERR_NOT_FOUND)), Done]);
    }

    #[test]
    fn predicates_compare_correctly() {
        assert!(Predicate::Equal.matches(5, 5));
        assert!(!Predicate::Equal.matches(5, 6));
        assert!(Predicate::LessThan.matches(4, 5));
        assert!(!Predicate::LessThan.matches(5, 5));
        assert!(Predicate::GreaterThan.matches(6, 5));
        assert!(Predicate::NotEqual.matches(4, 5));
        assert!(!Predicate::NotEqual.matches(5, 5));
        assert_eq!(Predicate::from_u8(7), None);
    }

    #[test]
    fn greater_than_traversal_acts_as_skip_scan() {
        // Find the first element whose key exceeds the probe: a B-tree /
        // skip-list style search the flexible parameters enable (§6.2).
        let (mut m, base) = mem();
        let list = build_linked_list(&mut m, base, &[10, 20, 30, 40], 16);
        let mut p = TraversalParams::for_linked_list(list.head, 25, 16, 0x7700);
        p.predicate = Predicate::GreaterThan;
        let mut k = TraversalKernel::new();
        let (actions, dma_reads) = run(&mut k, &mut m, p);
        // Elements 10, 20 fail; 30 matches: 3 element reads + 1 value.
        assert_eq!(dma_reads, 4);
        assert_eq!(actions, [send(1, 0x7700, &value_pattern(30, 16)), Done]);
    }

    #[test]
    fn cycle_guard_terminates() {
        let (mut m, base) = mem();
        // A 2-element cycle with keys that never match.
        let list = build_linked_list(&mut m, base, &[1, 2], 16);
        // Point element 1's next back at element 0.
        m.write(
            list.element_addrs[1] + 8,
            &list.element_addrs[0].to_le_bytes(),
        );
        let p = TraversalParams::for_linked_list(list.head, 99, 16, 0);
        let mut k = TraversalKernel::new();
        let (actions, dma_reads) = run(&mut k, &mut m, p);
        assert_eq!(dma_reads, MAX_READS, "the cap stops the cycle");
        assert_eq!(actions, [send(1, 0, &error_word(ERR_NOT_FOUND)), Done]);
    }
}
