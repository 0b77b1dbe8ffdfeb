//! The kernel fabric: StRoM kernels deployed behind the op-code matcher.
//!
//! §5.1: the RETH address field of an RPC packet "encodes an RPC op-code
//! that is used to match the request against the deployed StRoM kernels on
//! the remote NIC. This mechanism resembles the matching used in Portals
//! and enables multi-kernel deployments." If no kernel matches, "either a
//! fallback implementation on the remote CPU is triggered (if configured
//! a priori by the remote CPU) or an error code is written back to the
//! requesting node."
//!
//! The fabric also provides the consistency experiment's fault injection:
//! with probability `failure_rate`, the *first* DMA read of an invocation
//! returns corrupted data — "note that in this evaluation it does not
//! affect consecutive retries, which always succeed" (§6.3, Fig 10).

use std::collections::VecDeque;

use bytes::Bytes;

use strom_kernels::framework::{Kernel, KernelAction, KernelEvent};
use strom_sim::SimRng;
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

/// Per-kernel slot state.
struct Slot {
    kernel: Box<dyn Kernel>,
    /// Whether an RPC invocation is in flight (stream kernels never set
    /// this).
    busy: bool,
    /// Queued invocations waiting for the kernel to go idle.
    queue: VecDeque<(Qpn, Bytes)>,
    /// DMA reads issued by the current invocation (drives first-read
    /// fault injection).
    reads_in_invocation: u32,
    /// Completed invocations (diagnostics).
    completed: u64,
}

/// The kernel fabric of one NIC.
pub struct KernelFabric {
    slots: Vec<Slot>,
    /// Probability of corrupting the first DMA read of an invocation of
    /// the consistency kernel (Fig 10's failure rate).
    failure_rate: f64,
    rng: SimRng,
    /// RPC requests that matched no kernel (each returned an error).
    unmatched: u64,
}

impl std::fmt::Debug for KernelFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelFabric")
            .field("kernels", &self.slots.len())
            .field("failure_rate", &self.failure_rate)
            .finish()
    }
}

impl KernelFabric {
    /// Creates an empty fabric.
    pub fn new(seed: u64) -> Self {
        Self {
            slots: Vec::new(),
            failure_rate: 0.0,
            rng: SimRng::seed(seed),
            unmatched: 0,
        }
    }

    /// Deploys a kernel. Kernels are run-time interchangeable on the FPGA
    /// (partial reconfiguration, §3.3); here they can be registered at any
    /// point.
    pub fn register(&mut self, kernel: Box<dyn Kernel>) {
        self.slots.push(Slot {
            kernel,
            busy: false,
            queue: VecDeque::new(),
            reads_in_invocation: 0,
            completed: 0,
        });
    }

    /// Sets the Fig 10 failure rate for first reads.
    pub fn set_failure_rate(&mut self, rate: f64) {
        self.failure_rate = rate;
    }

    /// Number of RPC requests that matched no kernel.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Total completed invocations across all kernels.
    pub fn completed(&self) -> u64 {
        self.slots.iter().map(|s| s.completed).sum()
    }

    fn index_of(&self, op: RpcOpCode) -> Option<usize> {
        self.slots.iter().position(|s| s.kernel.rpc_op() == op)
    }

    /// Whether a kernel for `op` is deployed.
    pub fn has_kernel(&self, op: RpcOpCode) -> bool {
        self.index_of(op).is_some()
    }

    /// Immutable access to a deployed kernel (for reading statistics).
    pub fn kernel(&self, op: RpcOpCode) -> Option<&dyn Kernel> {
        self.index_of(op).map(|i| &*self.slots[i].kernel)
    }

    /// The kernel's declared pipeline cost in cycles per datapath word
    /// (§3.4's initiation interval).
    pub fn cycles_per_word(&self, op: RpcOpCode) -> Option<u64> {
        self.index_of(op)
            .map(|i| self.slots[i].kernel.cycles_per_word())
    }

    /// Dispatches an RPC invocation, appending the kernel's actions to
    /// `out`. Returns `false` if no kernel matched (the caller writes the
    /// error back, §5.1). If the kernel is busy, the invocation is queued
    /// and nothing is appended.
    pub fn invoke(
        &mut self,
        op: RpcOpCode,
        qpn: Qpn,
        params: Bytes,
        out: &mut Vec<KernelAction>,
    ) -> bool {
        let Some(i) = self.index_of(op) else {
            self.unmatched += 1;
            return false;
        };
        let slot = &mut self.slots[i];
        if slot.busy {
            slot.queue.push_back((qpn, params));
            return true;
        }
        slot.busy = true;
        slot.reads_in_invocation = 0;
        slot.kernel
            .on_event_into(KernelEvent::Invoke { qpn, params }, out);
        true
    }

    /// Feeds RPC WRITE payload (or a receive-path tap) to a kernel,
    /// appending its actions to `out`. Returns `false` if no kernel
    /// matched.
    pub fn stream(
        &mut self,
        op: RpcOpCode,
        qpn: Qpn,
        data: Bytes,
        last: bool,
        out: &mut Vec<KernelAction>,
    ) -> bool {
        let Some(i) = self.index_of(op) else {
            return false;
        };
        self.slots[i]
            .kernel
            .on_event_into(KernelEvent::RoceData { qpn, data, last }, out);
        true
    }

    /// Routes a DMA read completion back to the kernel, applying the
    /// first-read fault injection for the consistency kernel; appends
    /// the kernel's actions to `out`. Returns `false` if no kernel
    /// matched.
    pub fn dma_data(
        &mut self,
        op: RpcOpCode,
        tag: u32,
        mut data: Bytes,
        out: &mut Vec<KernelAction>,
    ) -> bool {
        let Some(i) = self.index_of(op) else {
            return false;
        };
        let slot = &mut self.slots[i];
        slot.reads_in_invocation += 1;
        if op == RpcOpCode::CONSISTENCY
            && slot.reads_in_invocation == 1
            && self.failure_rate > 0.0
            && self.rng.chance(self.failure_rate)
        {
            // Torn read: the object was concurrently modified. Flip one
            // payload byte so the CRC check fails.
            let mut torn = Bytes::copy_from_slice(&data);
            if let Some(b) = torn.try_mut().and_then(<[u8]>::last_mut) {
                *b ^= 0xff;
            }
            data = torn;
        }
        slot.kernel
            .on_event_into(KernelEvent::DmaData { tag, data }, out);
        true
    }

    /// Marks the current invocation of `op` complete; if another
    /// invocation is queued, dispatches it, appending its actions to
    /// `out`.
    pub fn done(&mut self, op: RpcOpCode, out: &mut Vec<KernelAction>) {
        let Some(i) = self.index_of(op) else {
            return;
        };
        let slot = &mut self.slots[i];
        slot.completed += 1;
        if let Some((qpn, params)) = slot.queue.pop_front() {
            slot.reads_in_invocation = 0;
            slot.kernel
                .on_event_into(KernelEvent::Invoke { qpn, params }, out);
        } else {
            slot.busy = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_kernels::framework::ERROR_SENTINEL;

    /// A kernel that answers with a constant after one DMA read.
    struct Probe;

    impl Kernel for Probe {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn rpc_op(&self) -> RpcOpCode {
            RpcOpCode(0x99)
        }

        fn name(&self) -> &'static str {
            "probe"
        }

        fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
            match event {
                KernelEvent::Invoke { .. } => out.push(KernelAction::DmaRead {
                    tag: 7,
                    vaddr: 0x100,
                    len: 8,
                }),
                KernelEvent::DmaData { .. } => out.extend([
                    KernelAction::RoceSend {
                        qpn: 1,
                        remote_vaddr: 0,
                        data: Bytes::from_static(b"pong"),
                    },
                    KernelAction::Done,
                ]),
                KernelEvent::RoceData { .. } => {}
            }
        }
    }

    /// Invokes `op`, returning the actions, or `None` when unmatched.
    fn invoke(f: &mut KernelFabric, op: RpcOpCode, qpn: Qpn) -> Option<Vec<KernelAction>> {
        let mut out = Vec::new();
        f.invoke(op, qpn, Bytes::new(), &mut out).then_some(out)
    }

    fn dma_data(f: &mut KernelFabric, op: RpcOpCode, data: &Bytes) -> Vec<KernelAction> {
        let mut out = Vec::new();
        assert!(f.dma_data(op, 1, data.clone(), &mut out), "kernel deployed");
        out
    }

    #[test]
    fn matching_dispatches_and_unmatched_counts() {
        let mut f = KernelFabric::new(1);
        f.register(Box::new(Probe));
        assert!(f.has_kernel(RpcOpCode(0x99)));
        let a = invoke(&mut f, RpcOpCode(0x99), 1).unwrap();
        assert!(matches!(a[0], KernelAction::DmaRead { tag: 7, .. }));
        assert!(invoke(&mut f, RpcOpCode(0x42), 1).is_none());
        assert_eq!(f.unmatched(), 1);
    }

    #[test]
    fn busy_kernel_queues_invocations() {
        let mut f = KernelFabric::new(1);
        f.register(Box::new(Probe));
        let op = RpcOpCode(0x99);
        let a1 = invoke(&mut f, op, 1).unwrap();
        assert_eq!(a1.len(), 1);
        // Second invocation while the first is mid-flight: queued.
        let a2 = invoke(&mut f, op, 2).unwrap();
        assert!(a2.is_empty());
        // Finish the first.
        let a3 = dma_data(&mut f, op, &Bytes::from_static(b"12345678"));
        assert!(matches!(a3[1], KernelAction::Done));
        let mut a4 = Vec::new();
        f.done(op, &mut a4);
        // The queued invocation starts immediately.
        assert!(matches!(a4[0], KernelAction::DmaRead { .. }));
        assert_eq!(f.completed(), 1);
    }

    /// A kernel that echoes every DMA completion back out, so tests can
    /// observe exactly what bytes the fabric delivered.
    struct EchoDma(RpcOpCode);

    impl Kernel for EchoDma {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn rpc_op(&self) -> RpcOpCode {
            self.0
        }
        fn name(&self) -> &'static str {
            "echo-dma"
        }
        fn on_event_into(&mut self, e: KernelEvent, out: &mut Vec<KernelAction>) {
            if let KernelEvent::DmaData { data, .. } = e {
                out.push(KernelAction::RoceSend {
                    qpn: 0,
                    remote_vaddr: 0,
                    data,
                });
            }
        }
    }

    fn echoed(actions: &[KernelAction]) -> Bytes {
        match &actions[0] {
            KernelAction::RoceSend { data, .. } => data.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_injection_corrupts_only_first_reads() {
        let mut f = KernelFabric::new(3);
        f.register(Box::new(EchoDma(RpcOpCode::CONSISTENCY)));
        f.set_failure_rate(1.0);
        let clean = Bytes::from_static(b"AAAAAAAA");
        invoke(&mut f, RpcOpCode::CONSISTENCY, 1).unwrap();
        let a1 = dma_data(&mut f, RpcOpCode::CONSISTENCY, &clean);
        let a2 = dma_data(&mut f, RpcOpCode::CONSISTENCY, &clean);
        assert_ne!(
            echoed(&a1),
            clean,
            "first read must be corrupted at rate 1.0"
        );
        assert_eq!(echoed(&a2), clean, "retries always succeed (Fig 10)");
    }

    #[test]
    fn zero_failure_rate_never_corrupts() {
        let mut f = KernelFabric::new(7);
        f.register(Box::new(EchoDma(RpcOpCode::CONSISTENCY)));
        let clean = Bytes::from_static(b"BBBBBBBB");
        invoke(&mut f, RpcOpCode::CONSISTENCY, 1).unwrap();
        for _ in 0..50 {
            let a = dma_data(&mut f, RpcOpCode::CONSISTENCY, &clean);
            assert_eq!(echoed(&a), clean);
        }
        let _ = ERROR_SENTINEL;
    }

    #[test]
    fn non_consistency_kernels_are_never_corrupted() {
        let mut f = KernelFabric::new(9);
        f.register(Box::new(EchoDma(RpcOpCode::TRAVERSAL)));
        f.set_failure_rate(1.0);
        let clean = Bytes::from_static(b"CCCCCCCC");
        invoke(&mut f, RpcOpCode::TRAVERSAL, 1).unwrap();
        let a = dma_data(&mut f, RpcOpCode::TRAVERSAL, &clean);
        assert_eq!(echoed(&a), clean);
    }
}
