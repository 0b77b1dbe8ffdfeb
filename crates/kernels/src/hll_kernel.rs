//! The HyperLogLog kernel: cardinality estimation as a by-product of data
//! reception (§7.2).
//!
//! "By implementing HLL as a StRoM kernel, we can gather this statistic as
//! a by-product of data reception, e.g., when data is received using RDMA
//! from a storage node by a compute node."
//!
//! The kernel is a **receive kernel** (§3.5's "Local StRoM Invocation"):
//! the NIC taps a copy of incoming WRITE payload into the kernel's
//! `roceDataIn` stream while the data continues to host memory unchanged —
//! a bump-in-the-wire with zero overhead, which is exactly the Fig 13b
//! result (Write+HLL tracks plain Write). The host retrieves the current
//! estimate either through Controller status registers or by invoking the
//! kernel's RPC, which writes the register snapshot summary back to the
//! requester.

use bytes::Bytes;

use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};
use crate::hll::HyperLogLog;

/// The HLL kernel: a sketch updated from the receive data path.
#[derive(Debug)]
pub struct HllKernel {
    sketch: HyperLogLog,
    /// Partial 8 B item spilled across packet boundaries.
    spill: Vec<u8>,
    /// Total items observed.
    items: u64,
    /// Configured end-of-stream snapshot target (chain stages): when set,
    /// the snapshot is sent when the stream closes instead of at invoke.
    pending_summary: Option<(strom_wire::bth::Qpn, u64)>,
}

impl Default for HllKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl HllKernel {
    /// Creates a kernel with the standard p = 14 sketch.
    pub fn new() -> Self {
        Self::with_precision(14)
    }

    /// Creates a kernel with `p` index bits.
    pub fn with_precision(p: u8) -> Self {
        Self {
            sketch: HyperLogLog::new(p),
            spill: Vec::new(),
            items: 0,
            pending_summary: None,
        }
    }

    /// Encodes *streaming* parameters: configure the kernel to send its
    /// snapshot to `target_address` when the inbound stream closes — the
    /// mode a terminal HLL stage of a [`crate::framework::KernelChain`]
    /// uses. Distinguished from [`HllParams`] (an immediate snapshot
    /// query) by length and a flag word.
    pub fn stream_params(target_address: u64) -> Bytes {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&target_address.to_le_bytes());
        out[8..16].copy_from_slice(&1u64.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    /// Decodes [`Self::stream_params`]; `None` for plain [`HllParams`].
    fn decode_stream_params(buf: &[u8]) -> Option<u64> {
        if buf.len() >= 16 && buf[8..16] == 1u64.to_le_bytes() {
            Some(u64::from_le_bytes(buf[0..8].try_into().expect("sized")))
        } else {
            None
        }
    }

    /// The current cardinality estimate (Controller status read).
    pub fn estimate(&self) -> f64 {
        self.sketch.estimate()
    }

    /// Total 8 B items observed.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Read-only access to the sketch (for merging across nodes).
    pub fn sketch(&self) -> &HyperLogLog {
        &self.sketch
    }

    fn ingest(&mut self, data: &[u8]) {
        let mut input: &[u8] = data;
        let joined;
        if !self.spill.is_empty() {
            let mut j = std::mem::take(&mut self.spill);
            j.extend_from_slice(data);
            joined = j;
            input = &joined;
        }
        let whole = input.len() / 8 * 8;
        // Decode and add a block of tuples at a time.
        let mut block = [0u64; 64];
        for run in input[..whole].chunks(64 * 8) {
            let n = run.len() / 8;
            for (slot, chunk) in block[..n].iter_mut().zip(run.chunks_exact(8)) {
                *slot = u64::from_le_bytes(chunk.try_into().expect("sized"));
            }
            self.sketch.add_u64_batch(&block[..n]);
            self.items += n as u64;
        }
        if whole < input.len() {
            self.spill = input[whole..].to_vec();
        }
    }

    /// Encodes the estimate snapshot the RPC path returns: estimate as a
    /// `f64` bit pattern, then the item count.
    pub fn snapshot(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.estimate().to_bits().to_le_bytes());
        out[8..16].copy_from_slice(&self.items.to_le_bytes());
        out
    }

    /// Decodes a snapshot produced by [`Self::snapshot`].
    pub fn decode_snapshot(buf: &[u8]) -> Option<(f64, u64)> {
        if buf.len() < 16 {
            return None;
        }
        let est = f64::from_bits(u64::from_le_bytes(buf[0..8].try_into().expect("sized")));
        let items = u64::from_le_bytes(buf[8..16].try_into().expect("sized"));
        Some((est, items))
    }
}

/// RPC parameters: just the requester-side target address for the
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HllParams {
    /// Where the snapshot is written on the requester.
    pub target_address: u64,
}

impl HllParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.target_address.to_le_bytes())
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<HllParams> {
        if buf.len() < 8 {
            return None;
        }
        Some(HllParams {
            target_address: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
        })
    }
}

impl Kernel for HllKernel {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::HLL
    }

    fn name(&self) -> &'static str {
        "hll"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            // Receive-path tap or RPC WRITE stream: update the sketch.
            KernelEvent::RoceData { data, last, .. } => {
                self.ingest(&data);
                if last {
                    if let Some((qpn, target)) = self.pending_summary.take() {
                        out.push(self.snapshot_to(qpn, target));
                    }
                    out.push(KernelAction::Done);
                }
            }
            // RPC: configure an end-of-stream snapshot (chain stage) or
            // write the snapshot back to the requester immediately.
            KernelEvent::Invoke { qpn, params } => {
                if let Some(target) = Self::decode_stream_params(&params) {
                    self.pending_summary = Some((qpn, target));
                    out.push(KernelAction::Done);
                } else if let Some(p) = HllParams::decode(&params) {
                    out.extend([self.snapshot_to(qpn, p.target_address), KernelAction::Done]);
                }
            }
            KernelEvent::DmaData { .. } => {}
        }
    }
}

impl HllKernel {
    /// Sends the estimate snapshot to `target` on the requester.
    fn snapshot_to(&self, qpn: strom_wire::bth::Qpn, target: u64) -> KernelAction {
        KernelAction::RoceSend {
            qpn,
            remote_vaddr: target,
            data: Bytes::copy_from_slice(&self.snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(range: std::ops::Range<u64>) -> Vec<u8> {
        range.flat_map(|i| i.to_le_bytes()).collect()
    }

    #[test]
    fn estimates_distinct_items_in_stream() {
        let mut k = HllKernel::new();
        let data = items(0..50_000);
        for chunk in data.chunks(1440) {
            k.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(chunk),
                last: false,
            });
        }
        assert_eq!(k.items(), 50_000);
        let e = k.estimate();
        assert!((e - 50_000.0).abs() / 50_000.0 < 0.04, "estimate = {e}");
    }

    #[test]
    fn duplicates_across_packets_are_deduplicated() {
        let mut k = HllKernel::new();
        for _ in 0..10 {
            let data = items(0..1000);
            k.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::from(data),
                last: false,
            });
        }
        let e = k.estimate();
        assert!((e - 1000.0).abs() / 1000.0 < 0.05, "estimate = {e}");
        assert_eq!(k.items(), 10_000, "items counts arrivals, not distinct");
    }

    #[test]
    fn split_items_across_packet_boundaries() {
        let mut a = HllKernel::new();
        let mut b = HllKernel::new();
        let data = items(0..999);
        a.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::copy_from_slice(&data),
            last: true,
        });
        // Same data in 13-byte fragments.
        for chunk in data.chunks(13) {
            b.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: Bytes::copy_from_slice(chunk),
                last: false,
            });
        }
        assert_eq!(a.items(), b.items());
        assert_eq!(a.estimate(), b.estimate(), "fragmentation must not matter");
    }

    #[test]
    fn rpc_returns_snapshot() {
        let mut k = HllKernel::new();
        k.on_event(KernelEvent::RoceData {
            qpn: 1,
            data: Bytes::from(items(0..5000)),
            last: true,
        });
        let actions = k.on_event(KernelEvent::Invoke {
            qpn: 3,
            params: HllParams {
                target_address: 0xbeef,
            }
            .encode(),
        });
        match &actions[0] {
            KernelAction::RoceSend {
                qpn,
                remote_vaddr,
                data,
            } => {
                assert_eq!((*qpn, *remote_vaddr), (3, 0xbeef));
                let (est, n) = HllKernel::decode_snapshot(data).unwrap();
                assert_eq!(n, 5000);
                assert!((est - 5000.0).abs() / 5000.0 < 0.05);
            }
            other => panic!("expected RoceSend, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_round_trip() {
        let k = HllKernel::new();
        let (est, n) = HllKernel::decode_snapshot(&k.snapshot()).unwrap();
        assert_eq!(est, 0.0);
        assert_eq!(n, 0);
        assert!(HllKernel::decode_snapshot(&[0u8; 8]).is_none());
    }

    #[test]
    fn stream_params_snapshot_arrives_at_stream_end() {
        let mut k = HllKernel::new();
        let a = k.on_event(KernelEvent::Invoke {
            qpn: 2,
            params: HllKernel::stream_params(0x4000),
        });
        assert_eq!(a, vec![KernelAction::Done], "configuration completes");
        assert!(k
            .on_event(KernelEvent::RoceData {
                qpn: 2,
                data: Bytes::from(items(0..2000)),
                last: false,
            })
            .is_empty());
        let end = k.on_event(KernelEvent::RoceData {
            qpn: 2,
            data: Bytes::new(),
            last: true,
        });
        match &end[0] {
            KernelAction::RoceSend {
                qpn,
                remote_vaddr,
                data,
            } => {
                assert_eq!((*qpn, *remote_vaddr), (2, 0x4000));
                let (est, n) = HllKernel::decode_snapshot(data).unwrap();
                assert_eq!(n, 2000);
                assert!((est - 2000.0).abs() / 2000.0 < 0.05);
            }
            other => panic!("expected RoceSend, got {other:?}"),
        }
        assert_eq!(end[1], KernelAction::Done);
        // The summary is one-shot: a second stream end is just Done.
        assert_eq!(
            k.on_event(KernelEvent::RoceData {
                qpn: 2,
                data: Bytes::new(),
                last: true
            }),
            vec![KernelAction::Done]
        );
    }

    #[test]
    fn line_rate_contract() {
        // The kernel must declare II = 1 — the §3.4 condition for
        // bump-in-the-wire deployment at 100 G.
        assert_eq!(HllKernel::new().cycles_per_word(), 1);
    }
}
