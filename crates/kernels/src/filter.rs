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
use crate::stream::{ResultRegion, TupleStream};
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
/// filter's selection loop, differential-tested against
/// [`Predicate::matches`].
///
/// # Panics
///
/// Panics if `values` holds more than 64 elements.
pub fn predicate_mask(values: &[u64], predicate: Predicate, operand: u64) -> u64 {
    mask_cmp(values, predicate_cmp(predicate), operand)
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
    stream: TupleStream,
    /// Where qualifying tuples go.
    region: ResultRegion,
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

    fn ingest(&mut self, params: &FilterParams, data: &[u8], out: &mut Vec<KernelAction>) {
        // Evaluate the predicate over a block as one vector scan, then
        // stage the qualifying tuples in ascending order — bit-identical
        // to the per-tuple loop.
        self.stream.feed(data, |block| {
            self.seen += block.len() as u64;
            let mask = predicate_mask(block, params.predicate, params.operand);
            let kept = self.region.push_selected(block, mask, out);
            self.kept += kept;
            self.overflowed += u64::from(mask.count_ones()) - kept;
        });
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
                self.state = match FilterParams::decode(&params) {
                    Some(p) => {
                        self.stream = TupleStream::default();
                        self.region = ResultRegion::new(p.dest_addr, p.dest_capacity);
                        self.seen = 0;
                        self.kept = 0;
                        State::Active { qpn, params: p }
                    }
                    // Malformed: drop the configuration, free the slot.
                    None => State::Unconfigured,
                };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                let State::Active { qpn, params } = &self.state else {
                    // Unconfigured: the words are dropped; a closing
                    // stream still ends.
                    out.extend(last.then_some(KernelAction::Done));
                    return;
                };
                let (qpn, params) = (*qpn, *params);
                self.ingest(&params, &data, out);
                if last {
                    self.region.flush(out);
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

    /// One tuple at a time through [`Predicate::matches`]: the reference
    /// for [`predicate_mask`].
    fn predicate_mask_reference(values: &[u64], predicate: Predicate, operand: u64) -> u64 {
        let mut m = 0u64;
        for (i, &v) in values.iter().enumerate() {
            m |= u64::from(predicate.matches(v, operand)) << i;
        }
        m
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
