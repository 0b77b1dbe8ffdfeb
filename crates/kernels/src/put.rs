//! The KV PUT/INSERT kernel: versioned chained-hash-table updates
//! served on the NIC, fed by RDMA RPC WRITE.
//!
//! The GET side of the serving tier ([`crate::get`]) only reads; this
//! kernel is its write path. A client streams one request blob per PUT
//! through the RDMA RPC WRITE verb (§5.1 — the payload rides
//! `RPC WRITE First/Middle/Last` packets straight into the kernel, no
//! host round trip), and the kernel walks the chained entry like the GET
//! kernel does, then either
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
use crate::layouts::{chained_layout, KvStore, ELEMENT_SIZE};

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
        let mut out = Vec::with_capacity(PUT_CONFIG_LEN);
        out.extend_from_slice(&self.value_arena_next.to_le_bytes());
        out.extend_from_slice(&self.value_arena_end.to_le_bytes());
        out.extend_from_slice(&self.entry_arena_next.to_le_bytes());
        out.extend_from_slice(&self.entry_arena_end.to_le_bytes());
        out.extend_from_slice(&self.value_size.to_le_bytes());
        Bytes::from(out)
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
    value: Vec<u8>,
}

/// The in-flight chain walk.
#[derive(Debug)]
struct Active {
    req: PutRequest,
    /// Entry the outstanding DMA read targets.
    cur_entry: u64,
    hops: u32,
}

/// DMA tag for entry reads.
const TAG_ENTRY: u32 = 1;
/// Chain-walk bound (corrupted-table cycle guard).
const MAX_HOPS: u32 = 1024;

/// The PUT/INSERT kernel.
#[derive(Debug, Default)]
pub struct PutKernel {
    cfg: Option<PutConfig>,
    /// Per-QP reassembly of streamed request blobs (RC keeps each QP's
    /// stream ordered; different QPs interleave freely).
    partial: BTreeMap<Qpn, Vec<u8>>,
    /// Fully received requests waiting for the walk engine.
    pending: VecDeque<PutRequest>,
    active: Option<Active>,
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
    fn start_next(&mut self) -> Vec<KernelAction> {
        if self.active.is_some() {
            return Vec::new();
        }
        let Some(req) = self.pending.pop_front() else {
            return Vec::new();
        };
        let entry = req.entry_addr;
        self.active = Some(Active {
            req,
            cur_entry: entry,
            hops: 0,
        });
        vec![KernelAction::DmaRead {
            tag: TAG_ENTRY,
            vaddr: entry,
            len: ELEMENT_SIZE as u32,
        }]
    }

    /// Finishes the active request with an ack (or error) word, then
    /// chains the next pending request.
    fn finish(&mut self, qpn: Qpn, ack_addr: u64, word: [u8; 8]) -> Vec<KernelAction> {
        self.active = None;
        let mut actions = vec![
            KernelAction::RoceSend {
                qpn,
                remote_vaddr: ack_addr,
                data: Bytes::copy_from_slice(&word),
            },
            KernelAction::Done,
        ];
        actions.extend(self.start_next());
        actions
    }

    /// Handles a fully-read entry for the active request.
    fn on_entry(&mut self, data: Bytes) -> Vec<KernelAction> {
        let Some(active) = self.active.take() else {
            return Vec::new();
        };
        let Active {
            req,
            cur_entry,
            hops,
        } = active;
        let cfg = self.cfg.expect("configured before first request");
        let mut buf = data.to_vec();

        // Update in place: a bucket already holds the key.
        for b in 0..chained_layout::BUCKETS {
            let off = chained_layout::key_off(b);
            let k = u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
            if k != 0 && k == req.key {
                let ptr = u64::from_le_bytes(buf[off + 8..off + 16].try_into().expect("sized"));
                let voff = chained_layout::version_off(b);
                let version =
                    u64::from_le_bytes(buf[voff..voff + 8].try_into().expect("sized")) + 1;
                buf[voff..voff + 8].copy_from_slice(&version.to_le_bytes());
                self.updates += 1;
                let mut actions = vec![
                    KernelAction::DmaWrite {
                        vaddr: ptr,
                        data: Bytes::from(req.value),
                    },
                    KernelAction::DmaWrite {
                        vaddr: cur_entry,
                        data: Bytes::from(buf),
                    },
                ];
                actions.extend(self.finish(req.qpn, req.ack_addr, version.to_le_bytes()));
                return actions;
            }
        }

        // Keep walking the chain.
        let noff = chained_layout::next_off();
        let next = u64::from_le_bytes(buf[noff..noff + 8].try_into().expect("sized"));
        if next != 0 && hops < MAX_HOPS {
            self.active = Some(Active {
                req,
                cur_entry: next,
                hops: hops + 1,
            });
            return vec![KernelAction::DmaRead {
                tag: TAG_ENTRY,
                vaddr: next,
                len: ELEMENT_SIZE as u32,
            }];
        }

        // Chain tail: insert. Take a value slot from the arena.
        let cfg_ref = self.cfg.as_mut().expect("configured");
        if cfg_ref.value_arena_next + u64::from(cfg.value_size) > cfg_ref.value_arena_end {
            self.errors += 1;
            return self.finish(req.qpn, req.ack_addr, error_word(ERR_NO_SPACE));
        }
        let value_addr = cfg_ref.value_arena_next;
        // A free bucket in the tail entry takes the key directly.
        for b in 0..chained_layout::BUCKETS {
            let off = chained_layout::key_off(b);
            let k = u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
            if k == 0 {
                self.cfg.as_mut().expect("configured").value_arena_next +=
                    u64::from(cfg.value_size);
                buf[off..off + 8].copy_from_slice(&req.key.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&value_addr.to_le_bytes());
                buf[off + 16..off + 20].copy_from_slice(&cfg.value_size.to_le_bytes());
                let voff = chained_layout::version_off(b);
                buf[voff..voff + 8].copy_from_slice(&1u64.to_le_bytes());
                self.inserts += 1;
                let mut actions = vec![
                    KernelAction::DmaWrite {
                        vaddr: value_addr,
                        data: Bytes::from(req.value),
                    },
                    KernelAction::DmaWrite {
                        vaddr: cur_entry,
                        data: Bytes::from(buf),
                    },
                ];
                actions.extend(self.finish(req.qpn, req.ack_addr, 1u64.to_le_bytes()));
                return actions;
            }
        }
        // Both buckets taken: allocate a fresh overflow entry.
        let cfg_ref = self.cfg.as_mut().expect("configured");
        if cfg_ref.entry_arena_next + ELEMENT_SIZE > cfg_ref.entry_arena_end {
            self.errors += 1;
            return self.finish(req.qpn, req.ack_addr, error_word(ERR_NO_SPACE));
        }
        let fresh = cfg_ref.entry_arena_next;
        cfg_ref.entry_arena_next += ELEMENT_SIZE;
        cfg_ref.value_arena_next += u64::from(cfg.value_size);
        let mut fresh_buf = vec![0u8; ELEMENT_SIZE as usize];
        let off = chained_layout::key_off(0);
        fresh_buf[off..off + 8].copy_from_slice(&req.key.to_le_bytes());
        fresh_buf[off + 8..off + 16].copy_from_slice(&value_addr.to_le_bytes());
        fresh_buf[off + 16..off + 20].copy_from_slice(&cfg.value_size.to_le_bytes());
        let voff = chained_layout::version_off(0);
        fresh_buf[voff..voff + 8].copy_from_slice(&1u64.to_le_bytes());
        buf[noff..noff + 8].copy_from_slice(&fresh.to_le_bytes());
        self.inserts += 1;
        let mut actions = vec![
            KernelAction::DmaWrite {
                vaddr: value_addr,
                data: Bytes::from(req.value),
            },
            KernelAction::DmaWrite {
                vaddr: fresh,
                data: Bytes::from(fresh_buf),
            },
            // The tail's next pointer goes live last, so a concurrent
            // GET walk never follows a pointer into a half-built entry.
            KernelAction::DmaWrite {
                vaddr: cur_entry,
                data: Bytes::from(buf),
            },
        ];
        actions.extend(self.finish(req.qpn, req.ack_addr, 1u64.to_le_bytes()));
        actions
    }

    /// Decodes a fully-received blob into a request, or an error ack.
    fn admit(&mut self, qpn: Qpn, blob: Vec<u8>) -> Result<PutRequest, Vec<KernelAction>> {
        let bad = |this: &mut Self| {
            this.errors += 1;
            // Malformed blob: without a decodable ack address there is
            // nowhere to answer; drop it (the client's timeout owns it).
            Err(Vec::new())
        };
        if blob.len() < PUT_HEADER_LEN {
            return bad(self);
        }
        let key = u64::from_le_bytes(blob[0..8].try_into().expect("sized"));
        let entry_addr = u64::from_le_bytes(blob[8..16].try_into().expect("sized"));
        let ack_addr = u64::from_le_bytes(blob[16..24].try_into().expect("sized"));
        let value_len = u32::from_le_bytes(blob[24..28].try_into().expect("sized")) as usize;
        let Some(cfg) = self.cfg else {
            return bad(self);
        };
        if blob.len() != PUT_HEADER_LEN + value_len
            || value_len != cfg.value_size as usize
            || key == 0
            || entry_addr == 0
        {
            self.errors += 1;
            return Err(vec![KernelAction::RoceSend {
                qpn,
                remote_vaddr: ack_addr,
                data: Bytes::copy_from_slice(&error_word(ERR_BAD_PARAMS)),
            }]);
        }
        Ok(PutRequest {
            qpn,
            key,
            entry_addr,
            ack_addr,
            value: blob[PUT_HEADER_LEN..].to_vec(),
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

    fn on_event(&mut self, event: KernelEvent) -> Vec<KernelAction> {
        match event {
            // Configuration: a local RPC invoke carrying the arena grant.
            KernelEvent::Invoke { params, .. } => {
                self.cfg = PutConfig::decode(&params);
                vec![KernelAction::Done]
            }
            // Streamed request payload (RDMA RPC WRITE).
            KernelEvent::RoceData { qpn, data, last } => {
                self.partial
                    .entry(qpn)
                    .or_default()
                    .extend_from_slice(&data);
                if !last {
                    return Vec::new();
                }
                let blob = self.partial.remove(&qpn).unwrap_or_default();
                match self.admit(qpn, blob) {
                    Ok(req) => {
                        self.pending.push_back(req);
                        self.start_next()
                    }
                    Err(actions) => actions,
                }
            }
            KernelEvent::DmaData { tag, data } if tag == TAG_ENTRY => self.on_entry(data),
            KernelEvent::DmaData { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::decode_error;
    use crate::layouts::{build_kv_store, versioned_value_pattern, KvStore};
    use strom_mem::{HostMemory, HUGE_PAGE_SIZE};

    /// Feeds events and executes DMA actions against host memory until
    /// the kernel goes quiet; returns every RoceSend it emitted.
    fn pump(
        kernel: &mut PutKernel,
        mem: &mut HostMemory,
        mut actions: Vec<KernelAction>,
    ) -> Vec<(u64, Bytes)> {
        let mut sends = Vec::new();
        loop {
            let mut next = Vec::new();
            for a in actions {
                match a {
                    KernelAction::DmaRead { tag, vaddr, len } => {
                        let data = Bytes::from(mem.read(vaddr, len as usize));
                        next.extend(kernel.on_event(KernelEvent::DmaData { tag, data }));
                    }
                    KernelAction::DmaWrite { vaddr, data } => mem.write(vaddr, &data),
                    KernelAction::RoceSend {
                        remote_vaddr, data, ..
                    } => sends.push((remote_vaddr, data)),
                    KernelAction::Done | KernelAction::Forward { .. } => {}
                }
            }
            if next.is_empty() {
                return sends;
            }
            actions = next;
        }
    }

    fn put(
        kernel: &mut PutKernel,
        mem: &mut HostMemory,
        kv: &KvStore,
        qpn: Qpn,
        key: u64,
        value: &[u8],
    ) -> Vec<(u64, Bytes)> {
        let blob = encode_put_request(key, kv.entry_addr(key), 0x9000, value);
        // Stream in two chunks to exercise reassembly.
        let mid = blob.len() / 2;
        let mut actions = kernel.on_event(KernelEvent::RoceData {
            qpn,
            data: Bytes::copy_from_slice(&blob[..mid]),
            last: false,
        });
        actions.extend(kernel.on_event(KernelEvent::RoceData {
            qpn,
            data: Bytes::copy_from_slice(&blob[mid..]),
            last: true,
        }));
        pump(kernel, mem, actions)
    }

    fn setup(value_size: u32, keys: &[u64], spare: u64) -> (HostMemory, KvStore, PutKernel) {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(HUGE_PAGE_SIZE).unwrap();
        let kv = build_kv_store(&mut m, base, 4, keys, value_size, spare);
        let mut k = PutKernel::new();
        let actions = k.on_event(KernelEvent::Invoke {
            qpn: 0,
            params: PutConfig::for_store(&kv).encode(),
        });
        assert_eq!(actions, vec![KernelAction::Done]);
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
                let sends = put(&mut k, &mut m, &kv, 7, key, &val);
                assert_eq!(sends.len(), 1);
                assert_eq!(sends[0].0, 0x9000);
                let ack = u64::from_le_bytes(sends[0].1[..8].try_into().unwrap());
                assert_eq!(ack, round, "each PUT must bump the version by one");
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
            let sends = put(&mut k, &mut m, &kv, 3, new_key, &val);
            let ack = u64::from_le_bytes(sends[0].1[..8].try_into().unwrap());
            assert_eq!(ack, 1, "fresh insert starts at version 1");
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
        assert_eq!(u64::from_le_bytes(a[0].1[..8].try_into().unwrap()), 1);
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
        let word = u64::from_le_bytes(b[0].1[..8].try_into().unwrap());
        assert_eq!(decode_error(word), Some(ERR_NO_SPACE));
        assert_eq!(kv.lookup(&m, 51), None);
        assert_eq!(k.errors, 1);
    }

    #[test]
    fn wrong_value_length_is_rejected() {
        let keys = [1u64, 2];
        let (mut m, kv, mut k) = setup(32, &keys, 2);
        let sends = put(&mut k, &mut m, &kv, 1, 1, &[0u8; 16]);
        let word = u64::from_le_bytes(sends[0].1[..8].try_into().unwrap());
        assert_eq!(decode_error(word), Some(ERR_BAD_PARAMS));
        let (version, _) = kv.lookup(&m, 1).unwrap();
        assert_eq!(version, 0, "rejected PUT must not touch the entry");
    }

    #[test]
    fn interleaved_streams_from_two_qps_reassemble_independently() {
        let keys: Vec<u64> = (1..=8).collect();
        let (mut m, kv, mut k) = setup(24, &keys, 2);
        let blob_a = encode_put_request(
            3,
            kv.entry_addr(3),
            0xA000,
            &versioned_value_pattern(3, 1, 24),
        );
        let blob_b = encode_put_request(
            5,
            kv.entry_addr(5),
            0xB000,
            &versioned_value_pattern(5, 1, 24),
        );
        // Interleave: A first half, B whole, A second half.
        let mid = blob_a.len() / 2;
        let mut actions = k.on_event(KernelEvent::RoceData {
            qpn: 10,
            data: Bytes::copy_from_slice(&blob_a[..mid]),
            last: false,
        });
        actions.extend(k.on_event(KernelEvent::RoceData {
            qpn: 20,
            data: Bytes::copy_from_slice(&blob_b),
            last: true,
        }));
        actions.extend(k.on_event(KernelEvent::RoceData {
            qpn: 10,
            data: Bytes::copy_from_slice(&blob_a[mid..]),
            last: true,
        }));
        let sends = pump(&mut k, &mut m, actions);
        // Both PUTs applied (order: B completed first, then A).
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[0].0, 0xB000);
        assert_eq!(sends[1].0, 0xA000);
        assert_eq!(kv.lookup(&m, 3).unwrap().0, 1);
        assert_eq!(kv.lookup(&m, 5).unwrap().0, 1);
        assert_eq!(k.applied(), 2);
    }
}
