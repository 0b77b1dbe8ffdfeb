//! Host-side data-structure layouts the StRoM kernels operate on.
//!
//! The traversal kernel assumes "each data structure element cannot exceed
//! 64 B, the key has a fixed size of 8 B, and the fields within the
//! element are 4 B aligned" (§6.2). This module builds the structures the
//! experiments use, directly in simulated host memory:
//!
//! - the **linked list** of Figure 6 (key / next / value pointer), with
//!   the exact field positions the paper quotes (`keyMask = 1`,
//!   `valuePtrPosition = 4`, `nextElementPtrPosition = 2`);
//! - the **Pilaf-style hash table** of §6.2/§5.2: fixed-size 64 B entries
//!   of 3 buckets (key, value pointer, value length), values in a separate
//!   region — "the first one contains fix-sized hash table entries which
//!   point to the corresponding data value and the second one contains all
//!   the values";
//! - the **CRC-stamped object store** of §6.3 (8 B CRC64 header per
//!   object, Pilaf-style checksums).

use strom_mem::HostMemory;

use crate::crc64::crc64;

/// Size of one data-structure element (§6.2).
pub const ELEMENT_SIZE: u64 = 64;

/// 4-byte field positions within a linked-list element (Figure 6):
/// key at position 0, next pointer at 2, value pointer at 4, value length
/// at 6 — matching the paper's parameter example exactly.
pub mod list_layout {
    /// Key position (4 B units).
    pub const KEY_POS: u8 = 0;
    /// Next-element pointer position.
    pub const NEXT_POS: u8 = 2;
    /// Value pointer position.
    pub const VALUE_PTR_POS: u8 = 4;
    /// Value length position.
    pub const VALUE_LEN_POS: u8 = 6;
}

/// 4-byte field positions within a hash-table entry: three 20 B buckets
/// (key 8 B, value pointer 8 B, value length 4 B) at positions 0, 5, 10.
pub mod ht_layout {
    /// Key positions of the three buckets (4 B units).
    pub const BUCKET_KEY_POS: [u8; 3] = [0, 5, 10];
    /// Value pointer offset relative to its bucket's key (4 B units).
    pub const VALUE_PTR_REL: u8 = 2;
    /// Value length offset relative to its bucket's key (4 B units).
    pub const VALUE_LEN_REL: u8 = 4;
}

/// A linked list placed in host memory.
#[derive(Debug, Clone)]
pub struct LinkedList {
    /// Address of the head element.
    pub head: u64,
    /// Keys, in list order.
    pub keys: Vec<u64>,
    /// Address of each element, in list order.
    pub element_addrs: Vec<u64>,
    /// Address of each value, in list order.
    pub value_addrs: Vec<u64>,
    /// Value size in bytes.
    pub value_size: u32,
}

/// Builds a linked list of `keys.len()` elements starting at `base`.
///
/// Elements are laid out contiguously, followed by the value region. Each
/// value is filled with a deterministic pattern derived from its key so
/// integrity can be verified end-to-end.
///
/// # Panics
///
/// Panics if `keys` is empty.
pub fn build_linked_list(
    mem: &mut HostMemory,
    base: u64,
    keys: &[u64],
    value_size: u32,
) -> LinkedList {
    assert!(!keys.is_empty(), "a list needs at least one element");
    let n = keys.len() as u64;
    let value_base = base + n * ELEMENT_SIZE;
    let mut element_addrs = Vec::with_capacity(keys.len());
    let mut value_addrs = Vec::with_capacity(keys.len());
    for (i, &key) in keys.iter().enumerate() {
        let elem = base + i as u64 * ELEMENT_SIZE;
        let value = value_base + i as u64 * u64::from(value_size);
        let next = if (i as u64) + 1 < n {
            base + (i as u64 + 1) * ELEMENT_SIZE
        } else {
            0 // Null: tail of the list.
        };
        let mut buf = [0u8; ELEMENT_SIZE as usize];
        buf[0..8].copy_from_slice(&key.to_le_bytes());
        buf[8..16].copy_from_slice(&next.to_le_bytes());
        buf[16..24].copy_from_slice(&value.to_le_bytes());
        buf[24..28].copy_from_slice(&value_size.to_le_bytes());
        mem.write(elem, &buf);
        mem.write(value, &value_pattern(key, value_size));
        element_addrs.push(elem);
        value_addrs.push(value);
    }
    LinkedList {
        head: base,
        keys: keys.to_vec(),
        element_addrs,
        value_addrs,
        value_size,
    }
}

/// The deterministic value payload for `key` (verifiable end-to-end).
pub fn value_pattern(key: u64, value_size: u32) -> Vec<u8> {
    let mut value = vec![0; value_size as usize];
    value_pattern_into(key, &mut value);
    value
}

/// [`value_pattern`] of `out.len()` bytes, written into `out`.
fn value_pattern_into(key: u64, out: &mut [u8]) {
    let first = key.wrapping_mul(0x9E37_79B9);
    for (i, b) in out.iter_mut().enumerate() {
        *b = (first.wrapping_add(i as u64) & 0xff) as u8;
    }
}

/// A Pilaf-style hash table placed in host memory.
#[derive(Debug, Clone)]
pub struct HashTable {
    /// Address of entry 0.
    pub entries_base: u64,
    /// Number of 64 B entries.
    pub num_entries: u64,
    /// Value size in bytes (fixed per table in the experiments).
    pub value_size: u32,
    /// Base of the value region.
    pub value_base: u64,
}

impl HashTable {
    /// The entry address a key hashes to.
    pub fn entry_addr(&self, key: u64) -> u64 {
        let idx = crate::hash::mix64(key) % self.num_entries;
        self.entries_base + idx * ELEMENT_SIZE
    }
}

/// Builds a hash table of `num_entries` entries at `base`, inserting
/// `keys`. Each key is placed in one of its entry's 3 buckets (first
/// free); the experiments pick keys without bucket overflow, mirroring the
/// paper's "always exactly one matching key" assumption (§5.2).
///
/// # Panics
///
/// Panics if a key's entry already has 3 occupants (bucket overflow) or a
/// duplicate key is inserted.
pub fn build_hash_table(
    mem: &mut HostMemory,
    base: u64,
    num_entries: u64,
    keys: &[u64],
    value_size: u32,
) -> HashTable {
    assert!(num_entries > 0, "hash table needs entries");
    let table = HashTable {
        entries_base: base,
        num_entries,
        value_size,
        value_base: base + num_entries * ELEMENT_SIZE,
    };
    // Zero the entry region so empty buckets read as key 0 (reserved).
    for i in 0..num_entries {
        mem.write(base + i * ELEMENT_SIZE, &[0u8; ELEMENT_SIZE as usize]);
    }
    for (i, &key) in keys.iter().enumerate() {
        assert_ne!(key, 0, "key 0 is the empty-bucket marker");
        let entry = table.entry_addr(key);
        let mut buf = [0u8; ELEMENT_SIZE as usize];
        mem.read_into(entry, &mut buf);
        let value_addr = table.value_base + i as u64 * u64::from(value_size);
        let mut placed = false;
        for b in 0..3usize {
            let off = usize::from(ht_layout::BUCKET_KEY_POS[b]) * 4;
            let existing = u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
            assert_ne!(existing, key, "duplicate key {key:#x}");
            if existing == 0 {
                buf[off..off + 8].copy_from_slice(&key.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&value_addr.to_le_bytes());
                buf[off + 16..off + 20].copy_from_slice(&value_size.to_le_bytes());
                placed = true;
                break;
            }
        }
        assert!(placed, "bucket overflow for key {key:#x}");
        mem.write(entry, &buf);
        mem.write(value_addr, &value_pattern(key, value_size));
    }
    table
}

/// A CRC-stamped object store (§6.3): each object is
/// `[crc64 of payload (8 B)] [payload]`.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    /// Address of each object header.
    pub object_addrs: Vec<u64>,
    /// Payload size (excluding the 8 B CRC header).
    pub payload_size: u32,
}

impl ObjectStore {
    /// Total on-wire size of one object (header + payload).
    pub fn object_size(&self) -> u32 {
        self.payload_size + 8
    }
}

/// Builds `count` objects of `payload_size` bytes each at `base`.
pub fn build_object_store(
    mem: &mut HostMemory,
    base: u64,
    count: u64,
    payload_size: u32,
) -> ObjectStore {
    let size = u64::from(payload_size) + 8;
    let mut object_addrs = Vec::with_capacity(count as usize);
    for i in 0..count {
        let addr = base + i * size;
        let payload = value_pattern(i + 1, payload_size);
        let crc = crc64(&payload);
        mem.write(addr, &crc.to_le_bytes());
        mem.write(addr + 8, &payload);
        object_addrs.push(addr);
    }
    ObjectStore {
        object_addrs,
        payload_size,
    }
}

/// A two-lane skip list placed in host memory (§6.2 names skip lists as
/// one of the structures the traversal kernel handles).
///
/// The **base lane** is an ordinary sorted linked list of all keys. The
/// **express lane** samples every `stride`-th base element; each express
/// element stores the *lookahead* key (the key of the *next* express
/// element, `u64::MAX` at the tail) in its key slot and a *down pointer*
/// to its base-lane element in its value-pointer slot. A lookup is then
/// two kernel invocations with unchanged kernel code:
///
/// 1. traverse the express lane with `GreaterThan`: the first element
///    whose lookahead key exceeds the probe "matches", and its "value" —
///    8 bytes read through the value pointer — is the down pointer;
/// 2. traverse the base lane from that element with `Equal`.
///
/// Total PCIe reads ≈ `n/stride + stride` instead of `n`.
#[derive(Debug, Clone)]
pub struct SkipList {
    /// Head of the express lane.
    pub express_head: u64,
    /// The base lane (a [`LinkedList`] over all keys, sorted).
    pub base: LinkedList,
    /// Express sampling stride.
    pub stride: usize,
}

/// Builds a two-lane skip list over `sorted_keys` at `base_addr`.
///
/// # Panics
///
/// Panics if `sorted_keys` is empty or not strictly ascending, or if
/// `stride` is zero.
pub fn build_skip_list(
    mem: &mut HostMemory,
    base_addr: u64,
    sorted_keys: &[u64],
    value_size: u32,
    stride: usize,
) -> SkipList {
    assert!(stride > 0, "stride must be positive");
    assert!(!sorted_keys.is_empty(), "skip list needs keys");
    assert!(
        sorted_keys.windows(2).all(|w| w[0] < w[1]),
        "keys must be strictly ascending"
    );
    // Base lane first: elements + values.
    let base = build_linked_list(mem, base_addr, sorted_keys, value_size);

    // Express lane after the base lane's value region.
    let express_base = base.value_addrs.last().expect("non-empty") + u64::from(value_size);
    let express_base = express_base.div_ceil(ELEMENT_SIZE) * ELEMENT_SIZE;
    let samples: Vec<usize> = (0..sorted_keys.len()).step_by(stride).collect();
    // Each express element is followed by its 8 B "value": the down
    // pointer the kernel reads through the value-pointer slot.
    let slot = ELEMENT_SIZE + 8;
    for (i, &sample_idx) in samples.iter().enumerate() {
        let elem = express_base + i as u64 * slot;
        let down_slot = elem + ELEMENT_SIZE;
        let lookahead = samples
            .get(i + 1)
            .map(|&next| sorted_keys[next])
            .unwrap_or(u64::MAX);
        let next_elem = if i + 1 < samples.len() {
            express_base + (i as u64 + 1) * slot
        } else {
            0
        };
        let mut buf = [0u8; ELEMENT_SIZE as usize];
        buf[0..8].copy_from_slice(&lookahead.to_le_bytes());
        buf[8..16].copy_from_slice(&next_elem.to_le_bytes());
        buf[16..24].copy_from_slice(&down_slot.to_le_bytes());
        mem.write(elem, &buf);
        mem.write(down_slot, &base.element_addrs[sample_idx].to_le_bytes());
    }
    SkipList {
        express_head: express_base,
        base,
        stride,
    }
}

impl SkipList {
    /// Phase-1 parameters: find the express segment covering `probe` and
    /// return its 8 B down pointer to `target_address` on the requester.
    pub fn express_params(
        &self,
        probe: u64,
        target_address: u64,
    ) -> crate::traversal::TraversalParams {
        use crate::traversal::{Predicate, TraversalParams};
        TraversalParams {
            remote_address: self.express_head,
            value_size: 8, // The down pointer.
            key: probe,
            key_mask: 1,
            predicate: Predicate::GreaterThan,
            value_ptr_position: 4,
            is_relative_position: false,
            next_element_ptr_position: 2,
            next_element_ptr_valid: true,
            target_address,
        }
    }

    /// Phase-2 parameters: exact lookup on the base lane starting from
    /// the `down_ptr` returned by phase 1.
    pub fn base_params(
        &self,
        down_ptr: u64,
        probe: u64,
        target_address: u64,
    ) -> crate::traversal::TraversalParams {
        let mut p = crate::traversal::TraversalParams::for_linked_list(
            down_ptr,
            probe,
            self.base.value_size,
            target_address,
        );
        p.remote_address = down_ptr;
        p
    }
}

/// 4-byte field positions of a *chained* hash-table entry: two 20 B
/// buckets plus an 8 B next-entry pointer — §6.2: "the remote NIC could
/// either return an error code or fetch the next hash table entry in case
/// the implementation uses chaining for collision resolution".
pub mod chained_layout {
    /// Key positions of the two buckets (4 B units).
    pub const BUCKET_KEY_POS: [u8; 2] = [0, 5];
    /// Value pointer offset relative to its bucket's key (4 B units).
    pub const VALUE_PTR_REL: u8 = 2;
    /// Next-entry (overflow chain) pointer position (4 B units).
    pub const NEXT_POS: u8 = 10;
    /// Buckets per entry.
    pub const BUCKETS: usize = 2;
    /// Per-bucket version counter positions (4 B units): the spare tail
    /// of the 64 B entry carries an 8 B version per bucket. Version 0 is
    /// the preloaded state; every PUT bumps its bucket's version, so
    /// concurrent PUTs are detectable and every committed update is
    /// countable.
    pub const VERSION_POS: [u8; 2] = [12, 14];

    /// Byte offset of bucket `b`'s key within the entry.
    pub fn key_off(b: usize) -> usize {
        usize::from(BUCKET_KEY_POS[b]) * 4
    }
    /// Byte offset of bucket `b`'s version within the entry.
    pub fn version_off(b: usize) -> usize {
        usize::from(VERSION_POS[b]) * 4
    }
    /// Byte offset of the next-entry pointer within the entry.
    pub fn next_off() -> usize {
        usize::from(NEXT_POS) * 4
    }
}

/// A chained hash table: 2-bucket entries with overflow chains.
#[derive(Debug, Clone)]
pub struct ChainedHashTable {
    /// Address of entry 0.
    pub entries_base: u64,
    /// Number of primary 64 B entries.
    pub num_entries: u64,
    /// Value size in bytes.
    pub value_size: u32,
    /// Overflow entries allocated (diagnostics).
    pub overflow_entries: u64,
}

impl ChainedHashTable {
    /// The primary entry address a key hashes to.
    pub fn entry_addr(&self, key: u64) -> u64 {
        let idx = crate::hash::mix64(key) % self.num_entries;
        self.entries_base + idx * ELEMENT_SIZE
    }
}

/// Builds a chained hash table at `base`: `num_entries` primary entries,
/// overflow entries allocated past them as chains fill up.
///
/// # Panics
///
/// Panics on duplicate or zero keys.
pub fn build_chained_hash_table(
    mem: &mut HostMemory,
    base: u64,
    num_entries: u64,
    keys: &[u64],
    value_size: u32,
) -> ChainedHashTable {
    assert!(num_entries > 0, "hash table needs entries");
    let mut table = ChainedHashTable {
        entries_base: base,
        num_entries,
        value_size,
        overflow_entries: 0,
    };
    // Region plan: primary entries, overflow arena, then values.
    let overflow_base = base + num_entries * ELEMENT_SIZE;
    let max_overflow = keys.len() as u64; // Worst case: one per key.
    let value_base = overflow_base + max_overflow * ELEMENT_SIZE;
    let mut next_overflow = overflow_base;
    for i in 0..num_entries {
        mem.write(base + i * ELEMENT_SIZE, &[0u8; ELEMENT_SIZE as usize]);
    }
    for (i, &key) in keys.iter().enumerate() {
        assert_ne!(key, 0, "key 0 is the empty-bucket marker");
        let value_addr = value_base + i as u64 * u64::from(value_size);
        mem.write(value_addr, &value_pattern(key, value_size));
        // Walk the chain to the first entry with a free bucket.
        let mut entry = table.entry_addr(key);
        loop {
            let mut buf = [0u8; ELEMENT_SIZE as usize];
            mem.read_into(entry, &mut buf);
            let mut placed = false;
            for b in 0..chained_layout::BUCKETS {
                let off = usize::from(chained_layout::BUCKET_KEY_POS[b]) * 4;
                let existing = u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
                assert_ne!(existing, key, "duplicate key {key:#x}");
                if existing == 0 {
                    buf[off..off + 8].copy_from_slice(&key.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&value_addr.to_le_bytes());
                    buf[off + 16..off + 20].copy_from_slice(&value_size.to_le_bytes());
                    placed = true;
                    break;
                }
            }
            if placed {
                mem.write(entry, &buf);
                break;
            }
            // Both buckets full: follow (or allocate) the overflow entry.
            let next_off = usize::from(chained_layout::NEXT_POS) * 4;
            let next = u64::from_le_bytes(buf[next_off..next_off + 8].try_into().expect("sized"));
            if next != 0 {
                entry = next;
                continue;
            }
            let fresh = next_overflow;
            next_overflow += ELEMENT_SIZE;
            table.overflow_entries += 1;
            mem.write(fresh, &[0u8; ELEMENT_SIZE as usize]);
            buf[next_off..next_off + 8].copy_from_slice(&fresh.to_le_bytes());
            mem.write(entry, &buf);
            entry = fresh;
        }
    }
    table
}

impl ChainedHashTable {
    /// Traversal-kernel parameters for a chained GET: match either bucket,
    /// follow the overflow chain on miss (§6.2's chaining case).
    pub fn get_params(&self, key: u64, target_address: u64) -> crate::traversal::TraversalParams {
        use crate::traversal::{Predicate, TraversalParams};
        let mut mask = 0u16;
        for pos in chained_layout::BUCKET_KEY_POS {
            mask |= 1 << pos;
        }
        TraversalParams {
            remote_address: self.entry_addr(key),
            value_size: self.value_size,
            key,
            key_mask: mask,
            predicate: Predicate::Equal,
            value_ptr_position: chained_layout::VALUE_PTR_REL,
            is_relative_position: true,
            next_element_ptr_position: chained_layout::NEXT_POS,
            next_element_ptr_valid: true,
            target_address,
        }
    }
}

/// The deterministic payload of `key` at `version` — version 0 is the
/// preloaded [`value_pattern`], so a never-updated key verifies with the
/// plain pattern and every PUT rewrites the slot with the next version's
/// pattern (end-to-end verifiable under concurrency).
pub fn versioned_value_pattern(key: u64, version: u64, value_size: u32) -> Vec<u8> {
    let mut value = vec![0; value_size as usize];
    versioned_value_pattern_into(key, version, &mut value);
    value
}

/// [`versioned_value_pattern`] of `out.len()` bytes, written into `out`:
/// an audit checking many candidate versions reuses one buffer.
pub fn versioned_value_pattern_into(key: u64, version: u64, out: &mut [u8]) {
    // Version 0 leaves the key, and so the preload pattern, unchanged.
    value_pattern_into(
        key.wrapping_add(version.wrapping_mul(0xA24B_AED4_963E_E407)),
        out,
    );
}

/// A KV store region: a versioned chained hash table plus the spare
/// arenas the on-NIC PUT kernel allocates inserts from.
///
/// Region plan (all inside one pinned range starting at
/// `table.entries_base`):
///
/// ```text
/// [primary entries][overflow entries: preloaded + spare]
/// [value slots: preloaded + spare]
/// ```
///
/// Every value slot is exactly `value_size` bytes; the builder reports
/// the first free overflow entry and value slot so the host can hand the
/// PUT kernel its allocation window.
#[derive(Debug, Clone)]
pub struct KvStore {
    /// The chained hash table (preloaded keys at version 0).
    pub table: ChainedHashTable,
    /// First free overflow entry (the PUT kernel's entry arena cursor).
    pub entry_arena_next: u64,
    /// End of the overflow entry arena (exclusive).
    pub entry_arena_end: u64,
    /// First free value slot (the PUT kernel's value arena cursor).
    pub value_arena_next: u64,
    /// End of the value arena (exclusive).
    pub value_arena_end: u64,
}

impl KvStore {
    /// Total bytes the region plan occupies from the table base.
    pub fn region_len(num_entries: u64, capacity_keys: u64, value_size: u32) -> u64 {
        (num_entries + capacity_keys) * ELEMENT_SIZE + capacity_keys * u64::from(value_size)
    }

    /// The primary entry address a key hashes to.
    pub fn entry_addr(&self, key: u64) -> u64 {
        self.table.entry_addr(key)
    }

    /// Host-side chain walk: `(version, value_ptr)` of `key`, if present.
    /// Used by the load generator to audit the kernels' effects.
    pub fn lookup(&self, mem: &HostMemory, key: u64) -> Option<(u64, u64)> {
        let mut entry = self.entry_addr(key);
        let mut buf = [0u8; ELEMENT_SIZE as usize];
        while entry != 0 {
            mem.read_into(entry, &mut buf);
            for b in 0..chained_layout::BUCKETS {
                let off = chained_layout::key_off(b);
                let k = u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
                if k == key {
                    let ptr = u64::from_le_bytes(buf[off + 8..off + 16].try_into().expect("sized"));
                    let voff = chained_layout::version_off(b);
                    let version =
                        u64::from_le_bytes(buf[voff..voff + 8].try_into().expect("sized"));
                    return Some((version, ptr));
                }
            }
            let noff = chained_layout::next_off();
            entry = u64::from_le_bytes(buf[noff..noff + 8].try_into().expect("sized"));
        }
        None
    }
}

/// Builds a KV store at `base`: a chained hash table preloaded with
/// `keys` (version 0), plus arena headroom for `spare_keys` future
/// on-NIC inserts.
///
/// # Panics
///
/// Panics on duplicate or zero keys.
pub fn build_kv_store(
    mem: &mut HostMemory,
    base: u64,
    num_entries: u64,
    keys: &[u64],
    value_size: u32,
    spare_keys: u64,
) -> KvStore {
    assert!(num_entries > 0, "hash table needs entries");
    let capacity = keys.len() as u64 + spare_keys;
    let overflow_base = base + num_entries * ELEMENT_SIZE;
    let value_base = overflow_base + capacity * ELEMENT_SIZE;
    let value_end = value_base + capacity * u64::from(value_size);
    let mut table = ChainedHashTable {
        entries_base: base,
        num_entries,
        value_size,
        overflow_entries: 0,
    };
    let mut next_overflow = overflow_base;
    let mut next_value = value_base;
    for i in 0..num_entries {
        mem.write(base + i * ELEMENT_SIZE, &[0u8; ELEMENT_SIZE as usize]);
    }
    for &key in keys {
        assert_ne!(key, 0, "key 0 is the empty-bucket marker");
        let value_addr = next_value;
        next_value += u64::from(value_size);
        mem.write(value_addr, &versioned_value_pattern(key, 0, value_size));
        let mut entry = table.entry_addr(key);
        loop {
            let mut buf = [0u8; ELEMENT_SIZE as usize];
            mem.read_into(entry, &mut buf);
            let mut placed = false;
            for b in 0..chained_layout::BUCKETS {
                let off = chained_layout::key_off(b);
                let existing = u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
                assert_ne!(existing, key, "duplicate key {key:#x}");
                if existing == 0 {
                    buf[off..off + 8].copy_from_slice(&key.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&value_addr.to_le_bytes());
                    buf[off + 16..off + 20].copy_from_slice(&value_size.to_le_bytes());
                    // Version 0: zeroed slot already says so, written
                    // explicitly for clarity.
                    let voff = chained_layout::version_off(b);
                    buf[voff..voff + 8].copy_from_slice(&0u64.to_le_bytes());
                    placed = true;
                    break;
                }
            }
            if placed {
                mem.write(entry, &buf);
                break;
            }
            let noff = chained_layout::next_off();
            let next = u64::from_le_bytes(buf[noff..noff + 8].try_into().expect("sized"));
            if next != 0 {
                entry = next;
                continue;
            }
            let fresh = next_overflow;
            assert!(
                fresh + ELEMENT_SIZE <= value_base,
                "overflow arena exhausted during preload"
            );
            next_overflow += ELEMENT_SIZE;
            table.overflow_entries += 1;
            mem.write(fresh, &[0u8; ELEMENT_SIZE as usize]);
            buf[noff..noff + 8].copy_from_slice(&fresh.to_le_bytes());
            mem.write(entry, &buf);
            entry = fresh;
        }
    }
    KvStore {
        table,
        entry_arena_next: next_overflow,
        entry_arena_end: value_base,
        value_arena_next: next_value,
        value_arena_end: value_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_mem::HUGE_PAGE_SIZE;

    fn mem_with_region(len: u64) -> (HostMemory, u64) {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(len.max(HUGE_PAGE_SIZE)).unwrap();
        (m, base)
    }

    #[test]
    fn linked_list_chains_correctly() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let keys = [11u64, 22, 33, 44];
        let list = build_linked_list(&mut m, base, &keys, 64);
        // Walk the chain by hand.
        let mut addr = list.head;
        for (i, &key) in keys.iter().enumerate() {
            let elem = m.read(addr, 64);
            let k = u64::from_le_bytes(elem[0..8].try_into().unwrap());
            let next = u64::from_le_bytes(elem[8..16].try_into().unwrap());
            let vptr = u64::from_le_bytes(elem[16..24].try_into().unwrap());
            assert_eq!(k, key);
            assert_eq!(vptr, list.value_addrs[i]);
            assert_eq!(m.read(vptr, 64), value_pattern(key, 64));
            if i + 1 < keys.len() {
                assert_eq!(next, list.element_addrs[i + 1]);
                addr = next;
            } else {
                assert_eq!(next, 0, "tail has a null next pointer");
            }
        }
    }

    #[test]
    fn hash_table_lookup_by_hand() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let keys: Vec<u64> = (1..=40).collect();
        let ht = build_hash_table(&mut m, base, 128, &keys, 32);
        for &key in &keys {
            let entry = m.read(ht.entry_addr(key), 64);
            let mut found = false;
            for b in 0..3usize {
                let off = usize::from(ht_layout::BUCKET_KEY_POS[b]) * 4;
                let k = u64::from_le_bytes(entry[off..off + 8].try_into().unwrap());
                if k == key {
                    let vptr = u64::from_le_bytes(entry[off + 8..off + 16].try_into().unwrap());
                    let vlen = u32::from_le_bytes(entry[off + 16..off + 20].try_into().unwrap());
                    assert_eq!(vlen, 32);
                    assert_eq!(m.read(vptr, 32), value_pattern(key, 32));
                    found = true;
                }
            }
            assert!(found, "key {key} not found in its entry");
        }
    }

    #[test]
    fn hash_table_uses_all_three_buckets() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        // One entry: every key lands in it, filling buckets 0, 1, 2.
        let keys = [5u64, 6, 7];
        let ht = build_hash_table(&mut m, base, 1, &keys, 16);
        let entry = m.read(ht.entries_base, 64);
        for (b, &key) in keys.iter().enumerate() {
            let off = usize::from(ht_layout::BUCKET_KEY_POS[b]) * 4;
            let k = u64::from_le_bytes(entry[off..off + 8].try_into().unwrap());
            assert_eq!(k, key, "bucket {b}");
        }
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn fourth_key_in_one_entry_overflows() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let _ = build_hash_table(&mut m, base, 1, &[1, 2, 3, 4], 16);
    }

    #[test]
    fn object_store_crcs_verify() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let store = build_object_store(&mut m, base, 10, 256);
        assert_eq!(store.object_size(), 264);
        for &addr in &store.object_addrs {
            let stored_crc = u64::from_le_bytes(m.read(addr, 8).try_into().unwrap());
            let payload = m.read(addr + 8, 256);
            assert_eq!(crc64(&payload), stored_crc);
        }
    }

    #[test]
    fn corrupted_object_fails_crc() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let store = build_object_store(&mut m, base, 1, 64);
        let addr = store.object_addrs[0];
        let mut byte = m.read(addr + 20, 1);
        byte[0] ^= 0xff;
        m.write(addr + 20, &byte);
        let stored_crc = u64::from_le_bytes(m.read(addr, 8).try_into().unwrap());
        assert_ne!(crc64(&m.read(addr + 8, 64)), stored_crc);
    }

    #[test]
    fn skip_list_structure_is_consistent() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let keys: Vec<u64> = (1..=20).map(|i| i * 5).collect();
        let sl = build_skip_list(&mut m, base, &keys, 32, 4);
        // Walk the express lane by hand: lookahead keys ascend and down
        // pointers land on the sampled base elements.
        let mut addr = sl.express_head;
        let mut sample = 0usize;
        let mut prev_lookahead = 0u64;
        while addr != 0 {
            let elem = m.read(addr, 64);
            let lookahead = u64::from_le_bytes(elem[0..8].try_into().unwrap());
            let next = u64::from_le_bytes(elem[8..16].try_into().unwrap());
            let down_slot = u64::from_le_bytes(elem[16..24].try_into().unwrap());
            let down = m.read_u64(down_slot);
            assert!(lookahead > prev_lookahead);
            prev_lookahead = lookahead;
            assert_eq!(down, sl.base.element_addrs[sample], "sample {sample}");
            sample += 4;
            addr = next;
        }
        assert!(sample >= keys.len(), "every sample visited");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn skip_list_rejects_unsorted_keys() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let _ = build_skip_list(&mut m, base, &[5, 3, 8], 16, 2);
    }

    #[test]
    fn chained_hash_table_places_every_key() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        // 4 entries × 2 buckets = 8 primary slots for 30 keys: chains are
        // guaranteed.
        let keys: Vec<u64> = (1..=30).collect();
        let ht = build_chained_hash_table(&mut m, base, 4, &keys, 16);
        assert!(ht.overflow_entries > 0, "chains must have been needed");
        // Find each key by walking its chain manually.
        for &key in &keys {
            let mut entry = ht.entry_addr(key);
            let mut found = false;
            while entry != 0 && !found {
                let buf = m.read(entry, 64);
                for b in 0..chained_layout::BUCKETS {
                    let off = usize::from(chained_layout::BUCKET_KEY_POS[b]) * 4;
                    let k = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    if k == key {
                        let vptr = u64::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap());
                        assert_eq!(m.read(vptr, 16), value_pattern(key, 16));
                        found = true;
                    }
                }
                let noff = usize::from(chained_layout::NEXT_POS) * 4;
                entry = u64::from_le_bytes(buf[noff..noff + 8].try_into().unwrap());
            }
            assert!(found, "key {key} must be reachable through its chain");
        }
    }

    #[test]
    fn kv_store_preloads_at_version_zero() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let keys: Vec<u64> = (1..=50).collect();
        let kv = build_kv_store(&mut m, base, 8, &keys, 32, 16);
        assert!(kv.table.overflow_entries > 0, "8×2 slots force chains");
        for &key in &keys {
            let (version, ptr) = kv.lookup(&m, key).expect("preloaded");
            assert_eq!(version, 0);
            assert_eq!(m.read(ptr, 32), versioned_value_pattern(key, 0, 32));
        }
        assert_eq!(kv.lookup(&m, 999), None, "absent key");
    }

    #[test]
    fn kv_store_region_plan_has_headroom() {
        let (mut m, base) = mem_with_region(HUGE_PAGE_SIZE);
        let keys: Vec<u64> = (1..=10).collect();
        let kv = build_kv_store(&mut m, base, 16, &keys, 64, 6);
        assert!(kv.entry_arena_next <= kv.entry_arena_end);
        assert!(kv.value_arena_next < kv.value_arena_end);
        assert_eq!(
            kv.value_arena_end - base,
            KvStore::region_len(16, 16, 64),
            "region plan must match the static size helper"
        );
        // Preload consumed exactly keys.len() value slots.
        assert_eq!(
            kv.value_arena_end - kv.value_arena_next,
            6 * 64,
            "spare value slots remain for on-NIC inserts"
        );
    }

    #[test]
    fn versioned_pattern_distinguishes_versions() {
        assert_eq!(
            versioned_value_pattern(9, 0, 24),
            value_pattern(9, 24),
            "version 0 is the preload pattern"
        );
        assert_ne!(versioned_value_pattern(9, 1, 24), value_pattern(9, 24));
        assert_ne!(
            versioned_value_pattern(9, 1, 24),
            versioned_value_pattern(9, 2, 24)
        );
        let mut buf = [0xEE; 24];
        versioned_value_pattern_into(9, 2, &mut buf);
        assert_eq!(buf[..], versioned_value_pattern(9, 2, 24)[..]);
    }

    #[test]
    fn value_pattern_is_key_dependent() {
        assert_ne!(value_pattern(1, 32), value_pattern(2, 32));
        assert_eq!(value_pattern(7, 16).len(), 16);
    }
}
