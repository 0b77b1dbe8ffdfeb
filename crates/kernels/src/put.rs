//! The KV PUT/INSERT kernel: versioned chained-hash-table updates
//! served on the NIC, fed by RDMA RPC WRITE.
//!
//! The GET side of the serving tier ([`crate::get`]) only reads; this
//! kernel is its write path. A client streams one request blob per PUT
//! through the RDMA RPC WRITE verb (§5.1 — the payload rides
//! `RPC WRITE First/Middle/Last` packets straight into the kernel, no
//! host round trip), and the kernel walks the chained entry on the same
//! pointer chase as GET, then either
//!
//! - **updates** the matching bucket in place: rewrites the value slot
//!   and bumps the bucket's 8 B version counter, or
//! - **inserts** the key at the chain tail: into a free bucket, or into
//!   a freshly allocated overflow entry, taking the value slot (and
//!   entry) from arenas the host granted at configuration time — the
//!   kernel owns the arena cursors as hardware registers, and the
//!   fabric's per-op-code serialization makes allocation race-free.
//!
//! Every successful PUT is acknowledged with the entry's **new version**
//! (an 8 B RDMA WRITE into the requester's ack slot); failures answer
//! with an error word instead. Version counters make concurrent PUTs
//! detectable end-to-end: the server-side counter equals the number of
//! acknowledged updates, so lost or duplicated PUTs show up as a counter
//! mismatch — the serving tier's exactly-once audit.
//!
//! Request blob layout (streamed, any MTU segmentation):
//!
//! ```text
//! [0..8)   key
//! [8..16)  primary entry address (the client computed the hash)
//! [16..24) requester-side ack address
//! [24..28) value length (must equal the configured slot size)
//! [28..)   value bytes
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{
    error_word, Kernel, KernelAction, KernelEvent, ERR_BAD_PARAMS, ERR_NO_SPACE,
};
use crate::layouts::chained_layout::{self, key_off};
use crate::layouts::{KvStore, ELEMENT_SIZE};
use crate::traversal::Predicate::Equal;
use crate::walk::{reply, word, Stop, Walk, TAG_ENTRY};

/// Arena grant + slot geometry the host configures the kernel with
/// (one local RPC invoke at deployment time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutConfig {
    /// Next free value slot.
    pub value_arena_next: u64,
    /// End of the value arena (exclusive).
    pub value_arena_end: u64,
    /// Next free overflow entry.
    pub entry_arena_next: u64,
    /// End of the overflow entry arena (exclusive).
    pub entry_arena_end: u64,
    /// Fixed value slot size; every PUT must carry exactly this many
    /// value bytes.
    pub value_size: u32,
}

/// Encoded configuration length in bytes.
pub const PUT_CONFIG_LEN: usize = 36;

/// Streamed request header length in bytes (value bytes follow).
pub const PUT_HEADER_LEN: usize = 28;

impl PutConfig {
    /// The grant covering a [`KvStore`]'s spare arenas.
    pub fn for_store(kv: &KvStore) -> PutConfig {
        PutConfig {
            value_arena_next: kv.value_arena_next,
            value_arena_end: kv.value_arena_end,
            entry_arena_next: kv.entry_arena_next,
            entry_arena_end: kv.entry_arena_end,
            value_size: kv.table.value_size,
        }
    }

    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; PUT_CONFIG_LEN];
        out[0..8].copy_from_slice(&self.value_arena_next.to_le_bytes());
        out[8..16].copy_from_slice(&self.value_arena_end.to_le_bytes());
        out[16..24].copy_from_slice(&self.entry_arena_next.to_le_bytes());
        out[24..32].copy_from_slice(&self.entry_arena_end.to_le_bytes());
        out[32..36].copy_from_slice(&self.value_size.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<PutConfig> {
        if buf.len() < PUT_CONFIG_LEN {
            return None;
        }
        Some(PutConfig {
            value_arena_next: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            value_arena_end: u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
            entry_arena_next: u64::from_le_bytes(buf[16..24].try_into().expect("sized")),
            entry_arena_end: u64::from_le_bytes(buf[24..32].try_into().expect("sized")),
            value_size: u32::from_le_bytes(buf[32..36].try_into().expect("sized")),
        })
    }
}

/// Encodes one PUT request blob (client side).
pub fn encode_put_request(key: u64, entry_addr: u64, ack_addr: u64, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PUT_HEADER_LEN + value.len());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&entry_addr.to_le_bytes());
    out.extend_from_slice(&ack_addr.to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
    out
}

/// One decoded, fully received request.
#[derive(Debug)]
struct PutRequest {
    qpn: Qpn,
    key: u64,
    entry_addr: u64,
    ack_addr: u64,
    /// The value bytes: a slice of the request blob, not a copy.
    value: Bytes,
}

/// Entry reads one chain walk may issue: 1 024 hops counted from 0 (the
/// corrupted-table cycle guard).
const MAX_READS: u32 = 1025;

/// One hash-table entry, as read and rewritten.
type Entry = [u8; ELEMENT_SIZE as usize];

/// Fills bucket `b` with a fresh key at version 1.
fn fill(buf: &mut Entry, b: usize, key: u64, value_addr: u64, value_size: u32) {
    let off = key_off(b);
    buf[off..off + 8].copy_from_slice(&key.to_le_bytes());
    buf[off + 8..off + 16].copy_from_slice(&value_addr.to_le_bytes());
    buf[off + 16..off + 20].copy_from_slice(&value_size.to_le_bytes());
    let voff = chained_layout::version_off(b);
    buf[voff..voff + 8].copy_from_slice(&1u64.to_le_bytes());
}

/// The PUT/INSERT kernel.
#[derive(Debug, Default)]
pub struct PutKernel {
    /// The arena grant; `None` (none yet, or a malformed one) grants nothing.
    cfg: Option<PutConfig>,
    /// Per-QP reassembly of request blobs streamed over more than one
    /// packet (RC keeps each QP's stream ordered; different QPs
    /// interleave freely).
    partial: BTreeMap<Qpn, Vec<u8>>,
    /// Fully received requests waiting for the walk engine.
    pending: VecDeque<PutRequest>,
    /// The request whose chain walk is in flight.
    active: Option<(PutRequest, Walk)>,
    /// Successful in-place updates.
    pub updates: u64,
    /// Successful inserts (fresh bucket or fresh overflow entry).
    pub inserts: u64,
    /// Requests answered with an error word.
    pub errors: u64,
}

impl PutKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Successful PUTs of either kind.
    pub fn applied(&self) -> u64 {
        self.updates + self.inserts
    }

    /// Starts the next pending request, if the walk engine is idle.
    fn start_next(&mut self, out: &mut Vec<KernelAction>) {
        if self.active.is_some() {
            return;
        }
        let Some(req) = self.pending.pop_front() else {
            return;
        };
        let (mask, next) = (chained_layout::KEY_MASK, Some(chained_layout::NEXT_POS));
        let walk = Walk::start(req.entry_addr, req.key, mask, Equal, next, MAX_READS, out);
        self.active = Some((req, walk));
    }

    /// Finishes the active request with an ack (or error) word, then
    /// chains the next pending request.
    fn finish(&mut self, qpn: Qpn, ack_addr: u64, word: [u8; 8], out: &mut Vec<KernelAction>) {
        reply(out, qpn, ack_addr, Bytes::copy_from_slice(&word));
        self.start_next(out);
    }

    /// Handles a fully-read entry for the active request.
    fn on_entry(&mut self, data: Bytes, out: &mut Vec<KernelAction>) {
        let Some((req, mut walk)) = self.active.take() else {
            return;
        };
        let mut buf: Entry = data[..].try_into().expect("one entry read");
        let Some(stop) = walk.step(&buf, out) else {
            self.active = Some((req, walk));
            return;
        };
        let (qpn, ack_addr) = (req.qpn, req.ack_addr);
        let write = |vaddr, data| KernelAction::DmaWrite { vaddr, data };
        let entry = |buf: &Entry| Bytes::copy_from_slice(buf);

        // Update in place: a bucket already holds the key.
        if let Stop::Hit(off) = stop {
            let ptr = word(&buf, off + 8).expect("in the entry");
            let voff = chained_layout::version_at(off);
            let version = word(&buf, voff).expect("in the entry") + 1;
            buf[voff..voff + 8].copy_from_slice(&version.to_le_bytes());
            self.updates += 1;
            out.extend([write(ptr, req.value), write(walk.entry, entry(&buf))]);
            return self.finish(qpn, ack_addr, version.to_le_bytes(), out);
        }

        // Chain tail: insert, into a free bucket of the tail entry or a
        // fresh overflow entry, taking the value slot (and entry) from the
        // arenas. No configuration is an empty grant.
        let free = (0..chained_layout::BUCKETS).find(|&b| word(&buf, key_off(b)) == Some(0));
        let holds = |next: u64, len, end| next.checked_add(len).is_some_and(|e| e <= end);
        let fits = |c: &PutConfig| {
            holds(
                c.value_arena_next,
                u64::from(c.value_size),
                c.value_arena_end,
            ) && (free.is_some() || holds(c.entry_arena_next, ELEMENT_SIZE, c.entry_arena_end))
        };
        let Some(cfg) = self.cfg.as_mut().filter(|c| fits(c)) else {
            self.errors += 1;
            return self.finish(qpn, ack_addr, error_word(ERR_NO_SPACE), out);
        };
        let (value_addr, size) = (cfg.value_arena_next, cfg.value_size);
        cfg.value_arena_next += u64::from(size);
        out.push(write(value_addr, req.value));
        match free {
            Some(b) => fill(&mut buf, b, req.key, value_addr, size),
            None => {
                let fresh = cfg.entry_arena_next;
                cfg.entry_arena_next += ELEMENT_SIZE;
                let mut fresh_buf: Entry = [0u8; ELEMENT_SIZE as usize];
                fill(&mut fresh_buf, 0, req.key, value_addr, size);
                let noff = chained_layout::next_off();
                buf[noff..noff + 8].copy_from_slice(&fresh.to_le_bytes());
                out.push(write(fresh, entry(&fresh_buf)));
            }
        }
        // The tail entry goes live last, so a concurrent GET walk never
        // follows a pointer into a half-built entry.
        out.push(write(walk.entry, entry(&buf)));
        self.inserts += 1;
        self.finish(qpn, ack_addr, 1u64.to_le_bytes(), out);
    }

    /// Decodes a fully-received blob into a request; on a malformed blob
    /// appends the error ack, if there is an address to send it to.
    fn admit(&mut self, qpn: Qpn, blob: Bytes, out: &mut Vec<KernelAction>) -> Option<PutRequest> {
        if blob.len() < PUT_HEADER_LEN {
            // Malformed blob: without a decodable ack address there is
            // nowhere to answer; drop it (the client's timeout owns it).
            self.errors += 1;
            return None;
        }
        let [key, entry_addr, ack_addr] = [0, 8, 16].map(|off| word(&blob, off).expect("header"));
        let value_len = u32::from_le_bytes(blob[24..28].try_into().expect("sized")) as usize;
        let Some(cfg) = self.cfg else {
            self.errors += 1;
            return None;
        };
        if blob.len() != PUT_HEADER_LEN + value_len
            || value_len != cfg.value_size as usize
            || key == 0
            || entry_addr == 0
        {
            self.errors += 1;
            out.push(KernelAction::RoceSend {
                qpn,
                remote_vaddr: ack_addr,
                data: Bytes::copy_from_slice(&error_word(ERR_BAD_PARAMS)),
            });
            return None;
        }
        Some(PutRequest {
            qpn,
            key,
            entry_addr,
            ack_addr,
            value: blob.slice(PUT_HEADER_LEN..),
        })
    }
}

impl Kernel for PutKernel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::PUT
    }

    fn name(&self) -> &'static str {
        "put"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            // Configuration: a local RPC invoke carrying the arena grant.
            KernelEvent::Invoke { params, .. } => {
                self.cfg = PutConfig::decode(&params);
                out.push(KernelAction::Done);
            }
            // Streamed request payload (RDMA RPC WRITE). A blob that
            // arrives whole is used as it came off the wire.
            KernelEvent::RoceData { qpn, data, last } => {
                let blob = if last && !self.partial.contains_key(&qpn) {
                    data
                } else {
                    self.partial
                        .entry(qpn)
                        .or_default()
                        .extend_from_slice(&data);
                    if !last {
                        return;
                    }
                    Bytes::from(self.partial.remove(&qpn).unwrap_or_default())
                };
                if let Some(req) = self.admit(qpn, blob, out) {
                    self.pending.push_back(req);
                    self.start_next(out);
                }
            }
            KernelEvent::DmaData { tag, data } if tag == TAG_ENTRY => self.on_entry(data, out),
            KernelEvent::DmaData { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testing::{drive, invoke, mem, send, DONE};
    use crate::layouts::{build_kv_store, versioned_value_pattern, KvStore};
    use strom_mem::HostMemory;
    use KernelAction::Done;

    /// One streamed segment of a request.
    fn seg(qpn: Qpn, data: &[u8], last: bool) -> KernelEvent {
        let data = Bytes::copy_from_slice(data);
        KernelEvent::RoceData { qpn, data, last }
    }

    /// The ack `word` at 0x9000 on `qpn`.
    fn ack(qpn: Qpn, word: [u8; 8]) -> [KernelAction; 2] {
        [send(qpn, 0x9000, &word), Done]
    }

    /// Streams a PUT of `key` on `qpn`, acked at 0x9000, and drives it
    /// against host memory; returns what the kernel answered.
    fn put(
        k: &mut PutKernel,
        m: &mut HostMemory,
        kv: &KvStore,
        qpn: Qpn,
        key: u64,
        value: &[u8],
    ) -> Vec<KernelAction> {
        let blob = encode_put_request(key, kv.entry_addr(key), 0x9000, value);
        // Stream in two chunks to exercise reassembly.
        let (a, b) = blob.split_at(blob.len() / 2);
        let mut first = k.on_event(seg(qpn, a, false));
        first.extend(k.on_event(seg(qpn, b, true)));
        drive(k, m, first).0
    }

    fn setup(value_size: u32, keys: &[u64], spare: u64) -> (HostMemory, KvStore, PutKernel) {
        let (mut m, base) = mem();
        let kv = build_kv_store(&mut m, base, 4, keys, value_size, spare);
        let mut k = PutKernel::new();
        let actions = k.on_event(invoke(PutConfig::for_store(&kv).encode()));
        assert_eq!(actions, DONE);
        (m, kv, k)
    }

    #[test]
    fn config_round_trip() {
        let c = PutConfig {
            value_arena_next: 1,
            value_arena_end: 2,
            entry_arena_next: 3,
            entry_arena_end: 4,
            value_size: 5,
        };
        assert_eq!(PutConfig::decode(&c.encode()), Some(c));
        assert!(PutConfig::decode(&[0u8; 10]).is_none());
    }

    #[test]
    fn update_bumps_the_version_and_rewrites_the_value() {
        let keys: Vec<u64> = (1..=10).collect();
        let (mut m, kv, mut k) = setup(32, &keys, 4);
        for round in 1..=3u64 {
            for &key in &keys {
                let val = versioned_value_pattern(key, round, 32);
                let replies = put(&mut k, &mut m, &kv, 7, key, &val);
                let bumped = ack(7, round.to_le_bytes());
                assert_eq!(replies, bumped, "each PUT must bump the version by one");
            }
        }
        for &key in &keys {
            let (version, ptr) = kv.lookup(&m, key).unwrap();
            assert_eq!(version, 3);
            assert_eq!(m.read(ptr, 32), versioned_value_pattern(key, 3, 32));
        }
        assert_eq!(k.updates, 30);
        assert_eq!(k.inserts, 0);
    }

    #[test]
    fn insert_places_new_keys_reachably() {
        let keys: Vec<u64> = (1..=6).collect();
        let (mut m, kv, mut k) = setup(16, &keys, 8);
        for new_key in 100..=104u64 {
            let val = versioned_value_pattern(new_key, 1, 16);
            let replies = put(&mut k, &mut m, &kv, 3, new_key, &val);
            assert_eq!(
                replies,
                ack(3, 1u64.to_le_bytes()),
                "fresh insert starts at version 1"
            );
            let (version, ptr) = kv.lookup(&m, new_key).expect("inserted key reachable");
            assert_eq!(version, 1);
            assert_eq!(m.read(ptr, 16), val);
        }
        assert_eq!(k.inserts, 5);
        // Old keys are untouched.
        for &key in &keys {
            let (version, ptr) = kv.lookup(&m, key).unwrap();
            assert_eq!(version, 0);
            assert_eq!(m.read(ptr, 16), versioned_value_pattern(key, 0, 16));
        }
    }

    #[test]
    fn arena_exhaustion_reports_no_space() {
        let keys: Vec<u64> = (1..=4).collect();
        let (mut m, kv, mut k) = setup(16, &keys, 1);
        let a = put(
            &mut k,
            &mut m,
            &kv,
            1,
            50,
            &versioned_value_pattern(50, 1, 16),
        );
        assert_eq!(a, ack(1, 1u64.to_le_bytes()));
        // The single spare slot is gone: the next insert must fail
        // cleanly with ERR_NO_SPACE, and never corrupt the table.
        let b = put(
            &mut k,
            &mut m,
            &kv,
            1,
            51,
            &versioned_value_pattern(51, 1, 16),
        );
        assert_eq!(b, ack(1, error_word(ERR_NO_SPACE)));
        assert_eq!(kv.lookup(&m, 51), None);
        assert_eq!(k.errors, 1);
    }

    #[test]
    fn wrong_value_length_is_rejected() {
        let keys = [1u64, 2];
        let (mut m, kv, mut k) = setup(32, &keys, 2);
        let replies = put(&mut k, &mut m, &kv, 1, 1, &[0u8; 16]);
        assert_eq!(replies, [send(1, 0x9000, &error_word(ERR_BAD_PARAMS))]);
        let (version, _) = kv.lookup(&m, 1).unwrap();
        assert_eq!(version, 0, "rejected PUT must not touch the entry");
    }

    #[test]
    fn interleaved_streams_from_two_qps_reassemble_independently() {
        let keys: Vec<u64> = (1..=8).collect();
        let (mut m, kv, mut k) = setup(24, &keys, 2);
        let blob = |key, ack| {
            let value = versioned_value_pattern(key, 1, 24);
            encode_put_request(key, kv.entry_addr(key), ack, &value)
        };
        let (blob_a, blob_b) = (blob(3, 0xA000), blob(5, 0xB000));
        // Interleave: A first half, B whole, A second half.
        let (a1, a2) = blob_a.split_at(blob_a.len() / 2);
        let mut actions = k.on_event(seg(10, a1, false));
        actions.extend(k.on_event(seg(20, &blob_b, true)));
        actions.extend(k.on_event(seg(10, a2, true)));
        let (replies, _) = drive(&mut k, &mut m, actions);
        // Both PUTs applied (order: B completed first, then A).
        let one = 1u64.to_le_bytes();
        assert_eq!(
            replies,
            [send(20, 0xB000, &one), Done, send(10, 0xA000, &one), Done]
        );
        assert_eq!(kv.lookup(&m, 3).unwrap().0, 1);
        assert_eq!(kv.lookup(&m, 5).unwrap().0, 1);
        assert_eq!(k.applied(), 2);
    }

    #[test]
    fn a_malformed_config_mid_walk_is_an_empty_grant() {
        // Key 1 is an update, key 60 an insert; both walks are in flight
        // when a malformed configuration drops the grant.
        let (mut m, kv, mut k) = setup(16, &[1, 2, 3, 4, 5, 6], 4);
        for (key, word) in [(1, 1u64.to_le_bytes()), (60, error_word(ERR_NO_SPACE))] {
            let blob = encode_put_request(key, kv.entry_addr(key), 0x9000, &[9; 16]);
            let first = k.on_event(seg(1, &blob, true));
            assert_eq!(k.on_event(invoke(Bytes::from_static(&[0]))), DONE);
            assert_eq!(drive(&mut k, &mut m, first).0, ack(1, word));
            let setup_again = PutConfig::for_store(&kv).encode();
            assert_eq!(k.on_event(invoke(setup_again)), DONE);
        }
        assert_eq!(kv.lookup(&m, 1).unwrap().0, 1, "the update applied");
        assert_eq!(kv.lookup(&m, 60), None, "the insert did not");
    }
}
