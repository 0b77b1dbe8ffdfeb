//! A top-k selection kernel: streaming order statistics on the NIC.
//!
//! §1 positions stream kernels as data-reduction bumps-in-the-wire; top-k
//! is the canonical "give me the heavy hitters" reduction — the response
//! (k values) is tiny and size-independent of the input, which is exactly
//! why the StRoM verbs use write semantics (§5.1).
//!
//! The kernel treats RPC WRITE payload as 8 B unsigned tuples and keeps
//! the k largest in an on-chip min-heap. The hot loop is a vectorized
//! *threshold scan*: once the heap is full, a whole 64-tuple block is
//! compared against the current minimum with one [`crate::simd`] predicate
//! sweep, and only the (rare) candidates that beat it touch the heap — the
//! same fast path a hardware implementation gets from a parallel
//! comparator front-end ahead of a serial heap. The result is
//! bit-identical to a tuple-at-a-time heap insert because tuples excluded
//! by the block-entry threshold can only lose against the monotonically
//! rising minimum.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};
use crate::simd_dispatch;

simd_dispatch! {
    /// Survivor mask of one run of up to 64 little-endian 8 B tuples:
    /// bit i is set iff tuple i is (unsigned) greater than `floor`. The
    /// comparison reads the wire bytes in place — no staging copy — and
    /// the loop lowers to 256-bit loads and compares under the AVX2
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics if `run` is longer than 64 tuples.
    pub fn gt_mask_le_bytes(run: &[u8], floor: u64) -> u64 {
        assert!(run.len() <= 64 * 8, "one mask word covers 64 tuples");
        let mut m = 0u64;
        for (i, c) in run.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(c.try_into().expect("sized"));
            m |= u64::from(v > floor) << i;
        }
        m
    }
}

/// Parameters of the top-k kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKParams {
    /// Number of maxima to keep (1 ..= 4096).
    pub k: u32,
    /// Requester-side address the result record is written to.
    pub target_address: u64,
}

/// Encoded parameter length in bytes.
pub const TOPK_PARAMS_LEN: usize = 16;

/// Largest supported k (bounds on-chip state like the shuffle kernel's
/// 1024-partition limit).
pub const MAX_K: u32 = 4096;

impl TopKParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = [0u8; TOPK_PARAMS_LEN];
        out[0..4].copy_from_slice(&self.k.to_le_bytes());
        out[8..16].copy_from_slice(&self.target_address.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<TopKParams> {
        if buf.len() < TOPK_PARAMS_LEN {
            return None;
        }
        let k = u32::from_le_bytes(buf[0..4].try_into().expect("sized"));
        if k == 0 || k > MAX_K {
            return None;
        }
        Some(TopKParams {
            k,
            target_address: u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
        })
    }
}

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    Active {
        qpn: Qpn,
        params: TopKParams,
    },
}

/// The top-k kernel FSM.
#[derive(Debug, Default)]
pub struct TopKKernel {
    state: State,
    /// Min-heap of the current k maxima.
    heap: BinaryHeap<Reverse<u64>>,
    /// Partial tuple spilled across packet boundaries.
    spill: Vec<u8>,
    /// Tuples observed in the current invocation.
    seen: u64,
}

impl TopKKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuples observed so far (Controller status view).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current maxima in descending order.
    pub fn top(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.heap.iter().map(|r| r.0).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Encodes the result record: count, then the values descending.
    pub fn encode_result(top: &[u64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + top.len() * 8);
        out.extend_from_slice(&(top.len() as u64).to_le_bytes());
        for v in top {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes a result record into the descending maxima.
    pub fn decode_result(buf: &[u8]) -> Option<Vec<u64>> {
        if buf.len() < 8 {
            return None;
        }
        let n = u64::from_le_bytes(buf[0..8].try_into().expect("sized")) as usize;
        if buf.len() < 8 + n * 8 {
            return None;
        }
        Some(
            buf[8..8 + n * 8]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
                .collect(),
        )
    }

    /// Folds one tuple in (the scalar reference path).
    #[inline]
    fn offer(heap: &mut BinaryHeap<Reverse<u64>>, k: usize, value: u64) {
        if heap.len() < k {
            heap.push(Reverse(value));
        } else if value > heap.peek().expect("non-empty").0 {
            heap.pop();
            heap.push(Reverse(value));
        }
    }

    /// Streams raw little-endian tuple bytes through the vectorized
    /// select path. Public so the micro-benchmarks and differential
    /// tests drive the exact code the kernel runs on the wire.
    pub fn ingest(&mut self, k: usize, data: &[u8]) {
        let mut input: &[u8] = data;
        let joined;
        if !self.spill.is_empty() {
            let mut j = std::mem::take(&mut self.spill);
            j.extend_from_slice(data);
            joined = j;
            input = &joined;
        }
        let whole = input.len() / 8 * 8;
        for run in input[..whole].chunks(64 * 8) {
            self.seen += (run.len() / 8) as u64;
            if self.heap.len() < k {
                // Warm-up: the heap is still filling; no threshold exists.
                for c in run.chunks_exact(8) {
                    let v = u64::from_le_bytes(c.try_into().expect("sized"));
                    Self::offer(&mut self.heap, k, v);
                }
                continue;
            }
            // Steady state: one vector sweep over the wire bytes rejects
            // the whole run against the current minimum; only survivors
            // are decoded, and they re-check against the (possibly risen)
            // minimum inside `offer`.
            let floor = self.heap.peek().expect("full").0;
            let mut mask = gt_mask_le_bytes(run, floor);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize * 8;
                mask &= mask - 1;
                let v = u64::from_le_bytes(run[i..i + 8].try_into().expect("sized"));
                Self::offer(&mut self.heap, k, v);
            }
        }
        if whole < input.len() {
            self.spill = input[whole..].to_vec();
        }
    }
}

impl Kernel for TopKKernel {
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::TOPK
    }

    fn name(&self) -> &'static str {
        "topk"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let Some(p) = TopKParams::decode(&params) else {
                    return;
                };
                self.heap.clear();
                self.spill.clear();
                self.seen = 0;
                self.state = State::Active { qpn, params: p };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                let State::Active { qpn, params } = &self.state else {
                    return;
                };
                let (qpn, params) = (*qpn, *params);
                self.ingest(params.k as usize, &data);
                if last {
                    out.extend([
                        KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: params.target_address,
                            data: Bytes::from(Self::encode_result(&self.top())),
                        },
                        KernelAction::Done,
                    ]);
                }
            }
            KernelEvent::DmaData { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Reference top-k of a slice: sort descending, truncate (verification).
pub fn reference_topk(values: &[u64], k: usize) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured(k: u32) -> TopKKernel {
        let mut kernel = TopKKernel::new();
        let a = kernel.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: TopKParams {
                k,
                target_address: 0x7000,
            }
            .encode(),
        });
        assert_eq!(a, vec![KernelAction::Done]);
        kernel
    }

    fn result_of(actions: &[KernelAction]) -> Vec<u64> {
        actions
            .iter()
            .find_map(|a| match a {
                KernelAction::RoceSend { data, .. } => TopKKernel::decode_result(data),
                _ => None,
            })
            .expect("result record")
    }

    #[test]
    fn params_round_trip() {
        let p = TopKParams {
            k: 10,
            target_address: 0xabc,
        };
        assert_eq!(TopKParams::decode(&p.encode()), Some(p));
        assert!(TopKParams::decode(&[0u8; 8]).is_none());
        let zero = TopKParams {
            k: 0,
            target_address: 0,
        };
        assert!(
            TopKParams::decode(&zero.encode()).is_none(),
            "k = 0 rejected"
        );
    }

    #[test]
    fn gt_mask_matches_the_filter_reference_at_every_width() {
        let values: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let pivot = u64::MAX / 2;
        for width in 0..=64usize {
            assert_eq!(
                gt_mask_le_bytes(&bytes[..width * 8], pivot),
                crate::filter::predicate_mask_reference(
                    &values[..width],
                    crate::traversal::Predicate::GreaterThan,
                    pivot
                ),
                "width = {width}"
            );
        }
    }

    #[test]
    fn matches_sort_based_reference() {
        // Pseudo-random values with duplicates; multiple block widths.
        let values: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1000)
            .collect();
        for k in [1usize, 7, 64, 100] {
            let mut kernel = configured(k as u32);
            let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            let actions = kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::from(data),
                last: true,
            });
            assert_eq!(result_of(&actions), reference_topk(&values, k), "k = {k}");
        }
    }

    #[test]
    fn fragmentation_does_not_change_the_result() {
        let values: Vec<u64> = (0..999u64).map(|i| i.wrapping_mul(7919) % 500).collect();
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut kernel = configured(16);
        let mut fed = 0;
        let mut result = None;
        for chunk in data.chunks(13) {
            fed += chunk.len();
            for a in kernel.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(chunk),
                last: fed == data.len(),
            }) {
                if let KernelAction::RoceSend { data, .. } = a {
                    result = TopKKernel::decode_result(&data);
                }
            }
        }
        assert_eq!(result, Some(reference_topk(&values, 16)));
    }

    #[test]
    fn short_streams_return_fewer_than_k() {
        let mut kernel = configured(100);
        let actions = kernel.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::copy_from_slice(
                &[5u64, 3, 9]
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            ),
            last: true,
        });
        assert_eq!(result_of(&actions), vec![9, 5, 3]);
    }

    #[test]
    fn data_before_configuration_is_ignored() {
        let mut kernel = TopKKernel::new();
        let a = kernel.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::from_static(&[0u8; 16]),
            last: true,
        });
        assert!(a.is_empty());
    }
}
