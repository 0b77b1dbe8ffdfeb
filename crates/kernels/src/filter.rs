//! A filtering kernel: selection push-down on RDMA streams.
//!
//! §1: "When operating on data streams, the StRoM kernel acts as a
//! bump-in-the-wire and can execute operations such as **filtering**,
//! aggregation, partitioning, and gathering of statistics while data is
//! transmitted" — the Ibex-style SQL off-loading the paper cites \[55\].
//!
//! The kernel treats RPC WRITE payload as 8 B unsigned tuples, applies a
//! predicate, appends the qualifying tuples to a host-memory result
//! region, and finally writes an 16 B summary (tuples seen, tuples kept)
//! back to the requester. Data reduction like this is exactly what write
//! semantics enable: "the size of the response does not have to be known
//! in advance" (§5.1).

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};
use crate::simd::{mask_cmp, Cmp};
use crate::traversal::Predicate;

/// The lane comparison implementing a [`Predicate`].
fn predicate_cmp(p: Predicate) -> Cmp {
    match p {
        Predicate::Equal => Cmp::Eq,
        Predicate::NotEqual => Cmp::Ne,
        Predicate::LessThan => Cmp::Lt,
        Predicate::GreaterThan => Cmp::Gt,
    }
}

/// Predicate scan over a block of up to 64 tuples: bit i of the result is
/// set iff `values[i] <predicate> operand` — the vectorized form of the
/// filter/bloom selection loops. Reference: [`predicate_mask_reference`].
///
/// # Panics
///
/// Panics if `values` holds more than 64 elements.
pub fn predicate_mask(values: &[u64], predicate: Predicate, operand: u64) -> u64 {
    mask_cmp(values, predicate_cmp(predicate), operand)
}

/// One-tuple-at-a-time reference for [`predicate_mask`], built on
/// [`Predicate::matches`].
///
/// # Panics
///
/// Panics if `values` holds more than 64 elements.
pub fn predicate_mask_reference(values: &[u64], predicate: Predicate, operand: u64) -> u64 {
    assert!(values.len() <= 64, "one mask word covers 64 values");
    let mut m = 0u64;
    for (i, &v) in values.iter().enumerate() {
        m |= u64::from(predicate.matches(v, operand)) << i;
    }
    m
}

/// Parameters of the filter kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterParams {
    /// Host-memory base of the result region.
    pub dest_addr: u64,
    /// Capacity of the result region in bytes.
    pub dest_capacity: u32,
    /// The predicate applied as `tuple <op> operand`.
    pub predicate: Predicate,
    /// Right-hand operand of the predicate.
    pub operand: u64,
    /// Requester-side address the 16 B summary is written to.
    pub target_address: u64,
}

/// Encoded parameter length in bytes.
pub const FILTER_PARAMS_LEN: usize = 32;

impl FilterParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; FILTER_PARAMS_LEN];
        out[0..8].copy_from_slice(&self.dest_addr.to_le_bytes());
        out[8..12].copy_from_slice(&self.dest_capacity.to_le_bytes());
        out[12] = self.predicate as u8;
        out[16..24].copy_from_slice(&self.operand.to_le_bytes());
        out[24..32].copy_from_slice(&self.target_address.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<FilterParams> {
        if buf.len() < FILTER_PARAMS_LEN {
            return None;
        }
        Some(FilterParams {
            dest_addr: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            dest_capacity: u32::from_le_bytes(buf[8..12].try_into().expect("sized")),
            predicate: Predicate::from_u8(buf[12])?,
            operand: u64::from_le_bytes(buf[16..24].try_into().expect("sized")),
            target_address: u64::from_le_bytes(buf[24..32].try_into().expect("sized")),
        })
    }
}

/// Flush granularity: qualifying tuples are staged on chip and written in
/// bursts (like the shuffle kernel's 128 B buffers).
const FLUSH_BYTES: usize = 128;

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    Active {
        qpn: Qpn,
        params: FilterParams,
    },
}

/// The filter kernel FSM.
#[derive(Debug, Default)]
pub struct FilterKernel {
    state: State,
    /// Staged qualifying tuples awaiting a flush; a flush copies them
    /// out and the buffer keeps its capacity.
    staged: Vec<u8>,
    /// Next host address to flush to.
    cursor: u64,
    /// Remaining capacity of the result region.
    remaining: u32,
    /// Partial tuple spilled across packet boundaries.
    spill: Vec<u8>,
    /// Tuples observed in the current invocation.
    seen: u64,
    /// Tuples that passed the predicate.
    kept: u64,
    /// Tuples dropped because the result region filled up (diagnostics).
    overflowed: u64,
}

impl FilterKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuples dropped because the destination region was full.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Encodes the 16 B summary `(seen, kept)`.
    pub fn encode_summary(seen: u64, kept: u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&seen.to_le_bytes());
        out[8..16].copy_from_slice(&kept.to_le_bytes());
        out
    }

    /// Decodes a summary into `(seen, kept)`.
    pub fn decode_summary(buf: &[u8]) -> Option<(u64, u64)> {
        if buf.len() < 16 {
            return None;
        }
        Some((
            u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
        ))
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

    fn ingest(&mut self, params: &FilterParams, data: &[u8], out: &mut Vec<KernelAction>) {
        let mut input: &[u8] = data;
        let joined;
        if !self.spill.is_empty() {
            let mut j = std::mem::take(&mut self.spill);
            j.extend_from_slice(data);
            joined = j;
            input = &joined;
        }
        let whole = input.len() / 8 * 8;
        // Decode a block of tuples, evaluate the predicate as one vector
        // scan, then stage the qualifying tuples in ascending order —
        // bit-identical to the per-tuple loop (differential-tested via
        // `predicate_mask_reference`).
        let mut block = [0u64; 64];
        for run in input[..whole].chunks(64 * 8) {
            let n = run.len() / 8;
            for (slot, chunk) in block[..n].iter_mut().zip(run.chunks_exact(8)) {
                *slot = u64::from_le_bytes(chunk.try_into().expect("sized"));
            }
            self.seen += n as u64;
            let mut mask = predicate_mask(&block[..n], params.predicate, params.operand);
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
    }
}

impl Kernel for FilterKernel {
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::FILTER
    }

    fn name(&self) -> &'static str {
        "filter"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let Some(p) = FilterParams::decode(&params) else {
                    return;
                };
                self.cursor = p.dest_addr;
                self.remaining = p.dest_capacity;
                self.staged.clear();
                self.spill.clear();
                self.seen = 0;
                self.kept = 0;
                self.state = State::Active { qpn, params: p };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                let State::Active { qpn, params } = &self.state else {
                    return;
                };
                let (qpn, params) = (*qpn, *params);
                self.ingest(&params, &data, out);
                if last {
                    let len = self.staged.len() as u64;
                    self.flush(out);
                    self.cursor += len;
                    self.remaining = self.remaining.saturating_sub(len as u32);
                    out.push(KernelAction::RoceSend {
                        qpn,
                        remote_vaddr: params.target_address,
                        data: Bytes::copy_from_slice(&Self::encode_summary(self.seen, self.kept)),
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

    fn configured(predicate: Predicate, operand: u64) -> FilterKernel {
        let mut k = FilterKernel::new();
        let a = k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: FilterParams {
                dest_addr: 0x1000,
                dest_capacity: 1 << 20,
                predicate,
                operand,
                target_address: 0x9000,
            }
            .encode(),
        });
        assert_eq!(a, vec![KernelAction::Done]);
        k
    }

    fn feed(k: &mut FilterKernel, values: &[u64], last: bool) -> Vec<KernelAction> {
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        k.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::from(data),
            last,
        })
    }

    fn written(actions: &[KernelAction]) -> Vec<u64> {
        let mut out = Vec::new();
        for a in actions {
            if let KernelAction::DmaWrite { data, .. } = a {
                for c in data.chunks_exact(8) {
                    out.push(u64::from_le_bytes(c.try_into().unwrap()));
                }
            }
        }
        out
    }

    #[test]
    fn params_round_trip() {
        let p = FilterParams {
            dest_addr: 1,
            dest_capacity: 2,
            predicate: Predicate::LessThan,
            operand: 3,
            target_address: 4,
        };
        assert_eq!(FilterParams::decode(&p.encode()), Some(p));
        assert!(FilterParams::decode(&[0u8; 8]).is_none());
    }

    #[test]
    fn greater_than_filter_matches_reference() {
        let mut k = configured(Predicate::GreaterThan, 50);
        let values: Vec<u64> = (0..100).collect();
        let actions = feed(&mut k, &values, true);
        let got = written(&actions);
        let want: Vec<u64> = values.iter().copied().filter(|&v| v > 50).collect();
        assert_eq!(got, want);
        // Summary reports seen/kept.
        let summary = actions.iter().find_map(|a| match a {
            KernelAction::RoceSend { data, .. } => FilterKernel::decode_summary(data),
            _ => None,
        });
        assert_eq!(summary, Some((100, 49)));
    }

    #[test]
    fn flushes_are_contiguous_from_dest() {
        let mut k = configured(Predicate::NotEqual, u64::MAX);
        let values: Vec<u64> = (0..40).collect(); // All pass: 320 B.
        let actions = feed(&mut k, &values, true);
        let mut cursor = 0x1000u64;
        for a in &actions {
            if let KernelAction::DmaWrite { vaddr, data } = a {
                assert_eq!(*vaddr, cursor);
                cursor += data.len() as u64;
            }
        }
        assert_eq!(cursor, 0x1000 + 320);
    }

    #[test]
    fn capacity_overflow_is_counted() {
        let mut k = FilterKernel::new();
        k.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: FilterParams {
                dest_addr: 0,
                dest_capacity: 16, // Two tuples only.
                predicate: Predicate::NotEqual,
                operand: u64::MAX,
                target_address: 0,
            }
            .encode(),
        });
        let actions = feed(&mut k, &[1, 2, 3, 4, 5], true);
        assert_eq!(written(&actions), vec![1, 2]);
        assert_eq!(k.overflowed(), 3);
    }

    #[test]
    fn split_tuples_across_packets() {
        let mut k = configured(Predicate::Equal, 7);
        let data: Vec<u8> = [7u64, 8, 7, 9, 7]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let mut all = Vec::new();
        let mut fed = 0;
        for chunk in data.chunks(11) {
            fed += chunk.len();
            let actions = k.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(chunk),
                last: fed == data.len(),
            });
            all.extend(actions);
        }
        assert_eq!(written(&all), vec![7, 7, 7]);
    }

    #[test]
    fn data_before_configuration_is_ignored() {
        let mut k = FilterKernel::new();
        assert!(feed(&mut k, &[1, 2, 3], true).is_empty());
    }

    #[test]
    fn predicate_mask_matches_reference_at_every_width() {
        let values: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37) % 50).collect();
        for len in 0..=64usize {
            for pred in [
                Predicate::Equal,
                Predicate::NotEqual,
                Predicate::LessThan,
                Predicate::GreaterThan,
            ] {
                for operand in [0u64, 25, 49, u64::MAX] {
                    assert_eq!(
                        predicate_mask(&values[..len], pred, operand),
                        predicate_mask_reference(&values[..len], pred, operand),
                        "len={len} pred={pred:?} operand={operand}"
                    );
                }
            }
        }
    }
}
