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

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{
    error_word, Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS, ERR_NOT_FOUND,
};
use crate::layouts::ELEMENT_SIZE;

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
        use crate::layouts::ht_layout::{BUCKET_KEY_POS, VALUE_PTR_REL};
        let mut mask = 0u16;
        for pos in BUCKET_KEY_POS {
            mask |= 1 << pos;
        }
        TraversalParams {
            remote_address: entry,
            value_size,
            key,
            key_mask: mask,
            predicate: Predicate::Equal,
            value_ptr_position: VALUE_PTR_REL,
            is_relative_position: true,
            next_element_ptr_position: 0,
            next_element_ptr_valid: false,
            target_address,
        }
    }
}

/// Guard against cyclic structures: maximum elements visited per lookup.
const MAX_HOPS: u32 = 65_536;

/// DMA tag for element fetches.
const TAG_ELEMENT: u32 = 1;
/// DMA tag for the value fetch.
const TAG_VALUE: u32 = 2;

#[derive(Debug)]
enum State {
    Idle,
    FetchingElement {
        qpn: Qpn,
        params: TraversalParams,
        hops: u32,
    },
    FetchingValue {
        qpn: Qpn,
        target_address: u64,
    },
}

/// The traversal kernel FSM.
#[derive(Debug)]
pub struct TraversalKernel {
    state: State,
    /// Elements visited by the current/last invocation (diagnostics; the
    /// latency figures correlate with this).
    last_hops: u32,
}

impl Default for TraversalKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl TraversalKernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            state: State::Idle,
            last_hops: 0,
        }
    }

    /// Elements visited by the most recent lookup.
    pub fn last_hops(&self) -> u32 {
        self.last_hops
    }

    fn fail(&mut self, qpn: Qpn, target: u64, code: u16, out: &mut Vec<KernelAction>) {
        self.state = State::Idle;
        out.extend([
            KernelAction::RoceSend {
                qpn,
                remote_vaddr: target,
                data: Bytes::copy_from_slice(&error_word(code)),
            },
            KernelAction::Done,
        ]);
    }

    fn evaluate_element(
        &mut self,
        qpn: Qpn,
        params: TraversalParams,
        hops: u32,
        element: &[u8],
        out: &mut Vec<KernelAction>,
    ) {
        let field_u64 = |pos: u8| {
            let off = usize::from(pos) * 4;
            if off + 8 <= element.len() {
                Some(u64::from_le_bytes(
                    element[off..off + 8].try_into().expect("sized"),
                ))
            } else {
                None
            }
        };
        // Compare the lookup key against every masked key position —
        // "concurrently" in hardware (the UNROLL pragma of Listing 4).
        let mut matched_pos: Option<u8> = None;
        for pos in 0..16u8 {
            if params.key_mask & (1 << pos) == 0 {
                continue;
            }
            let Some(element_key) = field_u64(pos) else {
                return self.fail(qpn, params.target_address, ERR_BAD_PARAMS, out);
            };
            // Position 0 keys of value 0 mark empty buckets in the
            // layouts; never match those.
            if element_key == 0 {
                continue;
            }
            if params.predicate.matches(element_key, params.key) {
                matched_pos = Some(pos);
                break;
            }
        }
        if let Some(pos) = matched_pos {
            let ptr_pos = if params.is_relative_position {
                pos + params.value_ptr_position
            } else {
                params.value_ptr_position
            };
            let Some(value_ptr) = field_u64(ptr_pos) else {
                return self.fail(qpn, params.target_address, ERR_BAD_PARAMS, out);
            };
            self.last_hops = hops;
            self.state = State::FetchingValue {
                qpn,
                target_address: params.target_address,
            };
            out.push(KernelAction::DmaRead {
                tag: TAG_VALUE,
                vaddr: value_ptr,
                len: params.value_size,
            });
            return;
        }
        // No match: chase the next pointer, if the structure has one.
        if !params.next_element_ptr_valid {
            self.last_hops = hops;
            return self.fail(qpn, params.target_address, ERR_NOT_FOUND, out);
        }
        let Some(next) = field_u64(params.next_element_ptr_position) else {
            return self.fail(qpn, params.target_address, ERR_BAD_PARAMS, out);
        };
        if next == 0 || hops >= MAX_HOPS {
            self.last_hops = hops;
            return self.fail(qpn, params.target_address, ERR_NOT_FOUND, out);
        }
        self.state = State::FetchingElement {
            qpn,
            params,
            hops: hops + 1,
        };
        out.push(KernelAction::DmaRead {
            tag: TAG_ELEMENT,
            vaddr: next,
            len: ELEMENT_SIZE as u32,
        });
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
                let Some(p) = TraversalParams::decode(&params) else {
                    return self.fail(qpn, 0, ERR_BAD_PARAMS, out);
                };
                self.state = State::FetchingElement {
                    qpn,
                    params: p,
                    hops: 1,
                };
                out.push(KernelAction::DmaRead {
                    tag: TAG_ELEMENT,
                    vaddr: p.remote_address,
                    len: ELEMENT_SIZE as u32,
                });
            }
            KernelEvent::DmaData { tag, data } => {
                match std::mem::replace(&mut self.state, State::Idle) {
                    State::FetchingElement { qpn, params, hops } if tag == TAG_ELEMENT => {
                        self.evaluate_element(qpn, params, hops, &data, out);
                    }
                    State::FetchingValue {
                        qpn,
                        target_address,
                    } if tag == TAG_VALUE => out.extend([
                        KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: target_address,
                            data,
                        },
                        KernelAction::Done,
                    ]),
                    // Unmatched completion: protocol bug; drop it.
                    other => self.state = other,
                }
            }
            KernelEvent::RoceData { .. } => {} // Not a stream kernel.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::{build_hash_table, build_linked_list, value_pattern};
    use strom_mem::{HostMemory, HUGE_PAGE_SIZE};

    /// Drives the kernel against real host memory, counting DMA reads —
    /// a miniature kernel fabric.
    fn run(
        kernel: &mut TraversalKernel,
        mem: &mut HostMemory,
        params: TraversalParams,
    ) -> (Vec<KernelAction>, u32) {
        let mut dma_reads = 0;
        let mut actions = kernel.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: params.encode(),
        });
        loop {
            match actions.first() {
                Some(KernelAction::DmaRead { tag, vaddr, len }) => {
                    dma_reads += 1;
                    let data = Bytes::from(mem.read(*vaddr, *len as usize));
                    actions = kernel.on_event(KernelEvent::DmaData { tag: *tag, data });
                }
                _ => return (actions, dma_reads),
            }
        }
    }

    fn mem() -> (HostMemory, u64) {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(4 * HUGE_PAGE_SIZE).unwrap();
        (m, base)
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
    fn truncated_params_are_rejected() {
        let mut k = TraversalKernel::new();
        let actions = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: Bytes::from_static(b"short"),
        });
        assert!(matches!(&actions[0], KernelAction::RoceSend { data, .. }
            if crate::framework::decode_error(u64::from_le_bytes(data[..8].try_into().unwrap()))
                == Some(ERR_BAD_PARAMS)));
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
            match &actions[0] {
                KernelAction::RoceSend {
                    qpn,
                    remote_vaddr,
                    data,
                } => {
                    assert_eq!(*qpn, 1);
                    assert_eq!(*remote_vaddr, 0xabc0);
                    assert_eq!(&data[..], value_pattern(key, 64));
                }
                other => panic!("expected RoceSend, got {other:?}"),
            }
            assert_eq!(actions[1], KernelAction::Done);
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
        match &actions[0] {
            KernelAction::RoceSend { data, .. } => {
                let word = u64::from_le_bytes(data[..8].try_into().unwrap());
                assert_eq!(crate::framework::decode_error(word), Some(ERR_NOT_FOUND));
            }
            other => panic!("expected error RoceSend, got {other:?}"),
        }
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
            match &actions[0] {
                KernelAction::RoceSend { data, .. } => {
                    assert_eq!(&data[..], value_pattern(key, 48));
                }
                other => panic!("expected RoceSend, got {other:?}"),
            }
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
        assert!(matches!(&actions[0], KernelAction::RoceSend { data, .. }
            if crate::framework::decode_error(u64::from_le_bytes(data[..8].try_into().unwrap()))
                == Some(ERR_NOT_FOUND)));
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
        match &actions[0] {
            KernelAction::RoceSend { data, .. } => {
                assert_eq!(&data[..], value_pattern(30, 16));
            }
            other => panic!("expected RoceSend, got {other:?}"),
        }
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
        assert!(dma_reads <= MAX_HOPS + 1);
        assert!(matches!(&actions[0], KernelAction::RoceSend { .. }));
    }
}
