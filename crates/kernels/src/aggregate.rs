//! An aggregation kernel: count/sum/min/max over RDMA streams.
//!
//! §1: StRoM stream kernels "can execute operations such as filtering,
//! **aggregation**, partitioning, and gathering of statistics while data
//! is transmitted" — the in-network data-reduction case the paper argues
//! is infeasible on programmable switches (§2.3: reliable protocols and
//! per-flow state make "data reduction operations, such as aggregation …
//! at the switch highly complex or unfeasible") but natural on the NIC.
//!
//! The kernel folds 8 B unsigned tuples into a running aggregate and, at
//! end of stream, writes a 32 B result record (count, sum, min, max) to
//! the requester — another response whose size is independent of the
//! input, which is why the StRoM verbs use write semantics (§5.1).

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

use crate::framework::{Kernel, KernelAction, KernelEvent};

/// The 32 B aggregate record the kernel returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// Number of tuples.
    pub count: u64,
    /// Wrapping sum of the tuples.
    pub sum: u64,
    /// Minimum tuple (`u64::MAX` for an empty stream).
    pub min: u64,
    /// Maximum tuple (0 for an empty stream).
    pub max: u64,
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Aggregate {
    /// Folds one tuple in.
    #[inline]
    pub fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Encodes to the 32 B wire record.
    pub fn encode(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&self.count.to_le_bytes());
        out[8..16].copy_from_slice(&self.sum.to_le_bytes());
        out[16..24].copy_from_slice(&self.min.to_le_bytes());
        out[24..32].copy_from_slice(&self.max.to_le_bytes());
        out
    }

    /// Decodes from the 32 B wire record.
    pub fn decode(buf: &[u8]) -> Option<Aggregate> {
        if buf.len() < 32 {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("sized"));
        Some(Aggregate {
            count: u64_at(0),
            sum: u64_at(8),
            min: u64_at(16),
            max: u64_at(24),
        })
    }

    /// Computes the reference aggregate of a slice (for verification).
    pub fn of(values: &[u64]) -> Aggregate {
        let mut agg = Aggregate::default();
        for &v in values {
            agg.add(v);
        }
        agg
    }
}

/// Parameters: where on the requester the result record lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateParams {
    /// Requester-side result address.
    pub target_address: u64,
}

impl AggregateParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.target_address.to_le_bytes())
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<AggregateParams> {
        if buf.len() < 8 {
            return None;
        }
        Some(AggregateParams {
            target_address: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
        })
    }
}

#[derive(Debug, Default)]
enum State {
    #[default]
    Unconfigured,
    Active {
        qpn: Qpn,
        target: u64,
    },
}

/// The aggregation kernel FSM.
#[derive(Debug, Default)]
pub struct AggregateKernel {
    state: State,
    agg: Aggregate,
    spill: Vec<u8>,
}

impl AggregateKernel {
    /// Creates an unconfigured kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// The running aggregate (Controller status view).
    pub fn current(&self) -> Aggregate {
        self.agg
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
        for chunk in input[..whole].chunks_exact(8) {
            self.agg
                .add(u64::from_le_bytes(chunk.try_into().expect("sized")));
        }
        if whole < input.len() {
            self.spill = input[whole..].to_vec();
        }
    }
}

impl Kernel for AggregateKernel {
    fn rpc_op(&self) -> RpcOpCode {
        RpcOpCode::AGGREGATE
    }

    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let Some(p) = AggregateParams::decode(&params) else {
                    return;
                };
                self.agg = Aggregate::default();
                self.spill.clear();
                self.state = State::Active {
                    qpn,
                    target: p.target_address,
                };
                out.push(KernelAction::Done);
            }
            KernelEvent::RoceData { data, last, .. } => {
                let State::Active { qpn, target } = self.state else {
                    return;
                };
                self.ingest(&data);
                if last {
                    out.extend([
                        KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: target,
                            data: Bytes::copy_from_slice(&self.agg.encode()),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn configured() -> AggregateKernel {
        let mut k = AggregateKernel::new();
        let a = k.on_event(KernelEvent::Invoke {
            qpn: 2,
            params: AggregateParams {
                target_address: 0x8000,
            }
            .encode(),
        });
        assert_eq!(a, vec![KernelAction::Done]);
        k
    }

    #[test]
    fn record_round_trips() {
        let agg = Aggregate {
            count: 1,
            sum: 2,
            min: 3,
            max: 4,
        };
        assert_eq!(Aggregate::decode(&agg.encode()), Some(agg));
        assert!(Aggregate::decode(&[0u8; 16]).is_none());
    }

    #[test]
    fn aggregate_matches_reference() {
        let mut k = configured();
        let values: Vec<u64> = vec![42, 7, 1000, 0, 77, 42];
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let actions = k.on_event(KernelEvent::RoceData {
            qpn: 2,
            data: Bytes::from(data),
            last: true,
        });
        match &actions[0] {
            KernelAction::RoceSend {
                remote_vaddr, data, ..
            } => {
                assert_eq!(*remote_vaddr, 0x8000);
                assert_eq!(Aggregate::decode(data), Some(Aggregate::of(&values)));
            }
            other => panic!("expected RoceSend, got {other:?}"),
        }
    }

    #[test]
    fn chunking_does_not_change_the_result() {
        let values: Vec<u64> = (0..500).map(|i| i * 31).collect();
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut k = configured();
        let mut fed = 0;
        let mut result = None;
        for chunk in data.chunks(13) {
            fed += chunk.len();
            for a in k.on_event(KernelEvent::RoceData {
                qpn: 2,
                data: Bytes::copy_from_slice(chunk),
                last: fed == data.len(),
            }) {
                if let KernelAction::RoceSend { data, .. } = a {
                    result = Aggregate::decode(&data);
                }
            }
        }
        assert_eq!(result, Some(Aggregate::of(&values)));
    }

    #[test]
    fn empty_stream_has_identity_aggregate() {
        let mut k = configured();
        let actions = k.on_event(KernelEvent::RoceData {
            qpn: 2,
            data: Bytes::new(),
            last: true,
        });
        match &actions[0] {
            KernelAction::RoceSend { data, .. } => {
                let agg = Aggregate::decode(data).unwrap();
                assert_eq!(agg.count, 0);
                assert_eq!(agg.min, u64::MAX);
                assert_eq!(agg.max, 0);
            }
            other => panic!("expected RoceSend, got {other:?}"),
        }
    }

    #[test]
    fn sum_wraps_instead_of_panicking() {
        let mut agg = Aggregate::default();
        agg.add(u64::MAX);
        agg.add(2);
        assert_eq!(agg.sum, 1);
        assert_eq!(agg.count, 2);
    }

    #[test]
    fn reinvocation_resets_state() {
        let mut k = configured();
        k.on_event(KernelEvent::RoceData {
            qpn: 2,
            data: Bytes::copy_from_slice(&1u64.to_le_bytes()),
            last: true,
        });
        let mut k2 = k;
        k2.on_event(KernelEvent::Invoke {
            qpn: 2,
            params: AggregateParams { target_address: 0 }.encode(),
        });
        assert_eq!(k2.current().count, 0, "fresh invocation starts clean");
    }
}
