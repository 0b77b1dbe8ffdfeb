//! A Bloom-filter semi-join kernel: membership push-down on RDMA streams.
//!
//! The distributed-join pattern the paper's shuffle kernel (§6.4) serves
//! has a classic companion: ship a Bloom filter of the build side to the
//! probe side and discard non-matching tuples *before* they cross the
//! network — a semi-join reduction. On StRoM the filter lives in host
//! memory, the kernel DMA-reads it at configure time (the same
//! pointer-parameter pattern as the shuffle histogram), and then drops
//! non-member tuples from the stream at line rate.
//!
//! The hot loop decodes a block of tuples and probes them one by one:
//! the bitmap probes are data-dependent gathers, exactly like the HLL
//! register scatter, and dominate the per-tuple cost.

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};
use crate::hash::mix64;

/// Second-hash tweak for double hashing (an arbitrary odd constant).
const H2_TWEAK: u64 = 0x9E37_79B9_7F4A_7C15;

/// A plain Bloom filter over `u64` values: `2^log2_bits` bits, `k`
/// double-hashed probes per value.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    log2_bits: u8,
    probes: u8,
    words: Vec<u64>,
}

impl BloomFilter {
    /// Creates an empty filter with `2^log2_bits` bits and `probes`
    /// probes per value.
    ///
    /// # Panics
    ///
    /// Panics if `log2_bits` is outside `6..=32` or `probes` is 0.
    pub fn new(log2_bits: u8, probes: u8) -> Self {
        assert!((6..=32).contains(&log2_bits), "log2_bits must be in 6..=32");
        assert!(probes > 0, "at least one probe");
        Self {
            log2_bits,
            probes,
            words: vec![0; 1usize << (log2_bits - 6)],
        }
    }

    /// Rebuilds a filter from its serialized bitmap (the kernel's
    /// configure-time DMA read).
    ///
    /// # Panics
    ///
    /// Same domain checks as [`Self::new`]; also panics if `bitmap` is not
    /// exactly `2^log2_bits / 8` bytes.
    pub fn from_bitmap(log2_bits: u8, probes: u8, bitmap: &[u8]) -> Self {
        let mut f = Self::new(log2_bits, probes);
        assert_eq!(bitmap.len(), f.words.len() * 8, "bitmap size mismatch");
        for (w, c) in f.words.iter_mut().zip(bitmap.chunks_exact(8)) {
            *w = u64::from_le_bytes(c.try_into().expect("sized"));
        }
        f
    }

    /// The serialized bitmap (little-endian words).
    pub fn to_bitmap(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// The two double-hashing streams for a value.
    #[inline]
    fn hashes(value: u64) -> (u64, u64) {
        let h1 = mix64(value);
        (h1, mix64(h1 ^ H2_TWEAK) | 1)
    }

    #[inline]
    fn bit(&self, h1: u64, h2: u64, i: u64) -> (usize, u64) {
        let idx = h1.wrapping_add(i.wrapping_mul(h2)) & ((1u64 << self.log2_bits) - 1);
        ((idx >> 6) as usize, 1u64 << (idx & 63))
    }

    /// Inserts a value.
    pub fn insert(&mut self, value: u64) {
        let (h1, h2) = Self::hashes(value);
        for i in 0..u64::from(self.probes) {
            let (word, mask) = self.bit(h1, h2, i);
            self.words[word] |= mask;
        }
    }

    /// Membership probe: no false negatives, tunable false positives.
    pub fn contains(&self, value: u64) -> bool {
        let (h1, h2) = Self::hashes(value);
        (0..u64::from(self.probes)).all(|i| {
            let (word, mask) = self.bit(h1, h2, i);
            self.words[word] & mask != 0
        })
    }

    /// Block membership probe: bit i of the result is set iff
    /// `values[i]` may be a member ([`Self::contains`] per value: the
    /// probes are dependent gathers, and hashing the block four lanes at
    /// a time ahead of them measured no faster — EXPERIMENTS.md).
    ///
    /// # Panics
    ///
    /// Panics if `values` holds more than 64 elements.
    pub fn contains_mask(&self, values: &[u64]) -> u64 {
        assert!(values.len() <= 64, "one mask word covers 64 values");
        let mut m = 0u64;
        for (i, &v) in values.iter().enumerate() {
            m |= u64::from(self.contains(v)) << i;
        }
        m
    }
}

/// Parameters of the Bloom semi-join kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomParams {
    /// Host-memory address of the serialized bitmap.
    pub bitmap_addr: u64,
    /// Host-memory base of the result region qualifying tuples append to.
    pub dest_addr: u64,
    /// Capacity of the result region in bytes.
    pub dest_capacity: u32,
    /// `log2` of the bitmap size in bits (6 ..= 32).
    pub log2_bits: u8,
    /// Probes per value.
    pub probes: u8,
    /// Requester-side address the 16 B summary is written to.
    pub target_address: u64,
}

/// Encoded parameter length in bytes.
pub const BLOOM_PARAMS_LEN: usize = 32;

impl BloomParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; BLOOM_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.bitmap_addr.to_le_bytes());
        out[8..16].copy_from_slice(&self.dest_addr.to_le_bytes());
        out[16..20].copy_from_slice(&self.dest_capacity.to_le_bytes());
        out[20] = self.log2_bits;
        out[21] = self.probes;
        out[24..32].copy_from_slice(&self.target_address.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<BloomParams> {
        if buf.len() < BLOOM_PARAMS_LEN {
            return None;
        }
        let log2_bits = buf[20];
        let probes = buf[21];
        if !(6..=32).contains(&log2_bits) || probes == 0 {
            return None;
        }
        Some(BloomParams {
            bitmap_addr: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            dest_addr: u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
            dest_capacity: u32::from_le_bytes(buf[16..20].try_into().expect("sized")),
            log2_bits,
            probes,
            target_address: u64::from_le_bytes(buf[24..32].try_into().expect("sized")),
        })
    }
}

/// DMA tag for the bitmap read.
const TAG_BITMAP: u32 = 1;

/// Flush granularity, matching the filter/shuffle kernels.
const FLUSH_BYTES: usize = 128;

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    LoadingBitmap,
    Active {
        filter: BloomFilter,
    },
}

/// The Bloom semi-join kernel FSM.
#[derive(Debug, Default)]
pub struct BloomKernel {
    state: State,
    qpn: Qpn,
    params: Option<BloomParams>,
    /// Staged qualifying tuples awaiting a flush.
    staged: Vec<u8>,
    /// Next host address to flush to.
    cursor: u64,
    /// Remaining capacity of the result region.
    remaining: u32,
    /// Partial tuple spilled across packet boundaries.
    spill: Vec<u8>,
    /// Tuples observed in the current invocation.
    seen: u64,
    /// Tuples that passed the membership probe.
    kept: u64,
    /// Tuples dropped because the result region filled up.
    overflowed: u64,
}

impl BloomKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuples dropped because the destination region was full.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// `(seen, kept)` counters (Controller status view).
    pub fn counters(&self) -> (u64, u64) {
        (self.seen, self.kept)
    }

    fn flush(&mut self, out: &mut Vec<KernelAction>) {
        if self.staged.is_empty() {
            return;
        }
        out.push(KernelAction::DmaWrite {
            vaddr: self.cursor,
            data: Bytes::copy_from_slice(&self.staged),
        });
        self.staged.clear();
    }

    fn ingest(&mut self, data: &[u8], out: &mut Vec<KernelAction>) {
        // Take the filter out for the duration of the scan so the staging
        // state can be mutated alongside it.
        let filter = match std::mem::take(&mut self.state) {
            State::Active { filter } => filter,
            other => {
                self.state = other;
                return;
            }
        };
        let mut input: &[u8] = data;
        let joined;
        if !self.spill.is_empty() {
            let mut j = std::mem::take(&mut self.spill);
            j.extend_from_slice(data);
            joined = j;
            input = &joined;
        }
        let whole = input.len() / 8 * 8;
        let mut block = [0u64; 64];
        for run in input[..whole].chunks(64 * 8) {
            let n = run.len() / 8;
            for (slot, chunk) in block[..n].iter_mut().zip(run.chunks_exact(8)) {
                *slot = u64::from_le_bytes(chunk.try_into().expect("sized"));
            }
            self.seen += n as u64;
            let mut mask = filter.contains_mask(&block[..n]);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if (self.staged.len() + 8) as u32 > self.remaining {
                    self.overflowed += 1;
                    continue;
                }
                self.staged.extend_from_slice(&block[i].to_le_bytes());
                self.kept += 1;
                if self.staged.len() >= FLUSH_BYTES {
                    let len = self.staged.len() as u64;
                    self.flush(out);
                    self.cursor += len;
                    self.remaining -= len as u32;
                }
            }
        }
        if whole < input.len() {
            self.spill = input[whole..].to_vec();
        }
        self.state = State::Active { filter };
    }
}

impl Kernel for BloomKernel {
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::BLOOM
    }

    fn name(&self) -> &'static str {
        "bloom"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let Some(p) = BloomParams::decode(&params) else {
                    return;
                };
                self.qpn = qpn;
                self.cursor = p.dest_addr;
                self.remaining = p.dest_capacity;
                self.staged.clear();
                self.spill.clear();
                self.seen = 0;
                self.kept = 0;
                self.state = State::LoadingBitmap;
                let len = (1u64 << p.log2_bits) / 8;
                let vaddr = p.bitmap_addr;
                self.params = Some(p);
                out.push(KernelAction::DmaRead {
                    tag: TAG_BITMAP,
                    vaddr,
                    len: len as u32,
                });
            }
            KernelEvent::DmaData {
                tag: TAG_BITMAP,
                data,
            } => {
                let (State::LoadingBitmap, Some(p)) = (&self.state, &self.params) else {
                    return;
                };
                self.state = State::Active {
                    filter: BloomFilter::from_bitmap(p.log2_bits, p.probes, &data),
                };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                if self.params.is_none() {
                    return;
                }
                self.ingest(&data, out);
                if last {
                    let len = self.staged.len() as u64;
                    self.flush(out);
                    self.cursor += len;
                    self.remaining = self.remaining.saturating_sub(len as u32);
                    let p = self.params.as_ref().expect("configured");
                    out.push(KernelAction::RoceSend {
                        qpn: self.qpn,
                        remote_vaddr: p.target_address,
                        data: Bytes::copy_from_slice(&crate::filter::FilterKernel::encode_summary(
                            self.seen, self.kept,
                        )),
                    });
                    out.push(KernelAction::Done);
                }
            }
            KernelEvent::DmaData { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_filter(members: &[u64]) -> BloomFilter {
        let mut f = BloomFilter::new(16, 4);
        for &m in members {
            f.insert(m);
        }
        f
    }

    #[test]
    fn no_false_negatives() {
        let members: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(7919)).collect();
        let f = build_filter(&members);
        for &m in &members {
            assert!(f.contains(m), "member {m} must be found");
        }
    }

    #[test]
    fn false_positive_rate_is_plausible() {
        let members: Vec<u64> = (0..1000u64).collect();
        let f = build_filter(&members);
        let fp = (1_000_000..1_100_000u64).filter(|&v| f.contains(v)).count();
        // 2^16 bits / 1000 members, 4 probes → well under 1 % expected.
        assert!(fp < 1000, "false positives = {fp} / 100000");
    }

    #[test]
    fn bitmap_round_trips() {
        let members: Vec<u64> = (0..500u64).map(|i| i * 3 + 1).collect();
        let f = build_filter(&members);
        let g = BloomFilter::from_bitmap(16, 4, &f.to_bitmap());
        for v in 0..5000u64 {
            assert_eq!(f.contains(v), g.contains(v), "value {v}");
        }
    }

    #[test]
    fn params_round_trip() {
        let p = BloomParams {
            bitmap_addr: 1,
            dest_addr: 2,
            dest_capacity: 3,
            log2_bits: 16,
            probes: 4,
            target_address: 5,
        };
        assert_eq!(BloomParams::decode(&p.encode()), Some(p));
        assert!(BloomParams::decode(&[0u8; 8]).is_none());
        let bad = BloomParams { log2_bits: 40, ..p };
        assert!(BloomParams::decode(&bad.encode()).is_none());
    }

    #[test]
    fn kernel_drops_non_members() {
        let members: Vec<u64> = vec![10, 20, 30, 40];
        let f = build_filter(&members);
        let mut k = BloomKernel::new();
        let p = BloomParams {
            bitmap_addr: 0x100,
            dest_addr: 0x1000,
            dest_capacity: 1 << 20,
            log2_bits: 16,
            probes: 4,
            target_address: 0x9000,
        };
        let a = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: p.encode(),
        });
        assert_eq!(
            a,
            vec![KernelAction::DmaRead {
                tag: TAG_BITMAP,
                vaddr: 0x100,
                len: (1 << 16) / 8,
            }]
        );
        let a = k.on_event(KernelEvent::DmaData {
            tag: TAG_BITMAP,
            data: Bytes::from(f.to_bitmap()),
        });
        assert_eq!(a, vec![KernelAction::Done]);

        let stream: Vec<u64> = (0..50).collect();
        let data: Vec<u8> = stream.iter().flat_map(|v| v.to_le_bytes()).collect();
        let actions = k.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::from(data),
            last: true,
        });
        let written: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                KernelAction::DmaWrite { data, .. } => Some(
                    data.chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect();
        // No false negatives: every member of the stream survives. The
        // small universe makes false positives vanishingly unlikely but
        // membership is what we assert exactly.
        let expect: Vec<u64> = stream.iter().copied().filter(|v| f.contains(*v)).collect();
        assert_eq!(written, expect);
        for m in [10u64, 20, 30, 40] {
            assert!(written.contains(&m));
        }
        let (seen, kept) = k.counters();
        assert_eq!(seen, 50);
        assert_eq!(kept, written.len() as u64);
    }
}
