//! The kernel hardware interface as an event/action protocol.
//!
//! Listing 1 of the paper fixes the interface of every StRoM kernel:
//!
//! ```c
//! void strom_kernel(stream<ap_uint<24>>&  qpnIn,
//!                   stream<ap_uint<256>>& paramIn,
//!                   stream<net_axis<512>>& roceDataIn,
//!                   stream<memCmd>&        dmaCmdOut,
//!                   stream<net_axis<512>>& dmaDataOut,
//!                   stream<net_axis<512>>& dmaDataIn,
//!                   stream<roceMeta>&      roceMetaOut,
//!                   stream<net_axis<512>>& roceDataOut);
//! ```
//!
//! In the simulation those eight FIFOs become an event/action protocol:
//! inbound streams (`qpnIn`+`paramIn`, `roceDataIn`, `dmaDataIn`) arrive as
//! [`KernelEvent`]s, outbound streams (`dmaCmdOut`+`dmaDataOut`,
//! `roceMetaOut`+`roceDataOut`) leave as [`KernelAction`]s. Kernels are
//! pure state machines; the NIC's kernel fabric executes actions with
//! PCIe/network timing and routes DMA read completions back by tag.

use bytes::Bytes;

use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

/// An input to a kernel (one of the inbound streams of Listing 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelEvent {
    /// A new RPC invocation: `qpnIn` + `paramIn` (§5.1, RDMA RPC Params).
    Invoke {
        /// QP the request arrived on — responses go back on the same QP.
        qpn: Qpn,
        /// Parameter bytes from the RPC Params payload.
        params: Bytes,
    },
    /// Payload from the network: `roceDataIn` (RDMA RPC WRITE stream, or a
    /// tapped copy of ordinary WRITE payload for receive kernels).
    RoceData {
        /// QP the payload arrived on.
        qpn: Qpn,
        /// The data word(s).
        data: Bytes,
        /// Whether this is the last packet of the message.
        last: bool,
    },
    /// Completion of a DMA read this kernel issued: `dmaDataIn`.
    DmaData {
        /// The tag of the [`KernelAction::DmaRead`] this answers.
        tag: u32,
        /// The bytes read from host memory.
        data: Bytes,
    },
}

/// An output of a kernel (one of the outbound streams of Listing 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelAction {
    /// Issue a DMA read (`dmaCmdOut`); data returns as
    /// [`KernelEvent::DmaData`] with the same tag.
    DmaRead {
        /// Kernel-chosen tag to match the completion.
        tag: u32,
        /// Virtual address in host memory.
        vaddr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Issue a DMA write (`dmaCmdOut` + `dmaDataOut`).
    DmaWrite {
        /// Virtual address in host memory.
        vaddr: u64,
        /// The bytes to store.
        data: Bytes,
    },
    /// Transmit data to the requesting node (`roceMetaOut` +
    /// `roceDataOut`): an RDMA WRITE into the requester's memory —
    /// "the metadata consists of the QPN, the target virtual address, and
    /// the length" (§5.2).
    RoceSend {
        /// QP to respond on.
        qpn: Qpn,
        /// Target virtual address on the requester.
        remote_vaddr: u64,
        /// The response bytes.
        data: Bytes,
    },
    /// Hand data to the next kernel of a chain: `roceDataOut` looped back
    /// into a downstream `roceDataIn` instead of leaving the NIC. Emitted
    /// by transforming stages (e.g. CRC-verify strips its trailer and
    /// forwards the payload); interpreted by [`KernelChain`]. At the top
    /// level — a chain's own final stage, or a kernel deployed outside a
    /// chain — the fabric drops the words (there is no downstream FIFO).
    Forward {
        /// The data handed downstream.
        data: Bytes,
        /// Whether this also closes the downstream stream.
        last: bool,
    },
    /// The current invocation finished (for accounting; no wire effect).
    Done,
}

/// A StRoM kernel: a sans-IO state machine behind the fixed interface.
pub trait Kernel {
    /// The RPC op-code requests are matched against (§5.1).
    fn rpc_op(&self) -> RpcOpCode;

    /// A short name for logs and reports.
    fn name(&self) -> &'static str;

    /// Feeds one event, appending the actions to execute to `out`, in
    /// order. A kernel only appends: `out` may already hold actions of
    /// the caller's.
    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>);

    /// Feeds one event; returns the actions to execute, in order.
    fn on_event(&mut self, event: KernelEvent) -> Vec<KernelAction> {
        let mut out = Vec::new();
        self.on_event_into(event, &mut out);
        out
    }

    /// Pipeline processing cycles per 64 B word (II = 1 ⇒ 1; the paper
    /// requires line-rate kernels, §3.4). Used by the timing model.
    fn cycles_per_word(&self) -> u64 {
        1
    }

    /// Downcasting access to the concrete kernel — how the host reads
    /// kernel status (the paper's Controller exposes "status and
    /// performance metrics" registers, §4.3).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Wraps a kernel with an artificial initiation interval — a kernel that
/// needs `cycles` clock cycles per datapath word instead of 1.
///
/// §3.4 demands II = 1 ("the application's hardware implementation needs
/// to consume the data stream at line rate. Otherwise, StRoM might affect
/// the functionality of the original RDMA operation"); this wrapper exists
/// to *violate* that condition on purpose, so the testbed and the
/// `abl-slow-kernel` ablation can show the consequence.
pub struct Throttled<K> {
    inner: K,
    cycles: u64,
}

impl<K: Kernel> Throttled<K> {
    /// Wraps `inner` with an initiation interval of `cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn new(inner: K, cycles: u64) -> Self {
        assert!(cycles > 0, "initiation interval must be at least 1");
        Self { inner, cycles }
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }
}

impl<K: Kernel + 'static> Kernel for Throttled<K> {
    fn rpc_op(&self) -> RpcOpCode {
        self.inner.rpc_op()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        self.inner.on_event_into(event, out);
    }

    fn cycles_per_word(&self) -> u64 {
        self.cycles
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The 8-byte error sentinel kernels write to the requester when an
/// operation fails (e.g. traversal key not found, §5.1 "an error code is
/// written back to the requesting node").
pub const ERROR_SENTINEL: u64 = 0xFFFF_FFFF_DEAD_0000;

/// Encodes an error code into the sentinel's low 16 bits.
pub fn error_word(code: u16) -> [u8; 8] {
    (ERROR_SENTINEL | u64::from(code)).to_le_bytes()
}

/// Decodes an error word; returns the code if the word is a sentinel.
pub fn decode_error(word: u64) -> Option<u16> {
    if word & 0xFFFF_FFFF_FFFF_0000 == ERROR_SENTINEL {
        Some((word & 0xffff) as u16)
    } else {
        None
    }
}

/// Error code: no key matched and the structure is exhausted.
pub const ERR_NOT_FOUND: u16 = 1;
/// Error code: malformed kernel parameters.
pub const ERR_BAD_PARAMS: u16 = 2;
/// Error code: consistency check failed permanently.
pub const ERR_INCONSISTENT: u16 = 3;
/// Error code: an insert found no free bucket and the kernel's arena is
/// exhausted.
pub const ERR_NO_SPACE: u16 = 4;

/// Bit position where a chain stage's index is packed into DMA tags: the
/// low 24 bits stay the stage's own tag namespace, the high bits identify
/// the stage, so two stages may use the same inner tag concurrently.
pub const STAGE_TAG_SHIFT: u32 = 24;

const STAGE_TAG_MASK: u32 = (1 << STAGE_TAG_SHIFT) - 1;

/// How a (non-final) chain stage's output streams feed the next stage.
///
/// The FPGA analogue is which of the stage's outbound FIFOs is spliced
/// into the downstream kernel's `roceDataIn` instead of leaving the
/// module. Explicit [`KernelAction::Forward`] words always go downstream,
/// whatever the route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageRoute {
    /// Only explicit [`KernelAction::Forward`] words go downstream — for
    /// transforming stages (CRC-verify) that consume the inbound stream.
    Handoff,
    /// Bump-in-the-wire: the stage observes the stream and the inbound
    /// words themselves continue to the next stage unchanged (how the
    /// paper's receive kernels tap a WRITE, §3.5).
    Tap,
    /// The stage's `DmaWrite` payloads are diverted downstream instead of
    /// being written to host memory (e.g. a filter pushing its qualifying
    /// tuples into an aggregator instead of a result region).
    CaptureDmaWrites,
    /// The stage's `RoceSend` payloads are diverted downstream instead of
    /// being sent to the requester. Error sentinels are never diverted —
    /// they always reach the requester (in-band error propagation).
    CaptureRoceSends,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StagePhase {
    /// Waiting for the stage's configuration `Done` (some stages, like
    /// shuffle, configure asynchronously via a DMA read).
    Configuring,
    /// Configured; consuming stream data.
    Streaming,
    /// Emitted its end-of-stream `Done`.
    Finished,
}

struct Stage {
    kernel: Box<dyn Kernel>,
    route: StageRoute,
    phase: StagePhase,
    /// Whether this stage has received its `last` word (guards against
    /// double-close when both a `Forward { last: true }` and the upstream
    /// `Done` cascade would end the stream).
    input_closed: bool,
}

/// Parameters of a [`KernelChain`] invocation: one opaque parameter blob
/// per stage, length-prefixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainParams {
    /// Per-stage parameter payloads, in stage order.
    pub stages: Vec<Bytes>,
}

impl ChainParams {
    /// Encodes into the RPC Params payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.stages.len() as u16).to_le_bytes());
        for s in &self.stages {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s);
        }
        Bytes::from(out)
    }

    /// Decodes from the RPC Params payload.
    pub fn decode(buf: &[u8]) -> Option<ChainParams> {
        let count = u16::from_le_bytes(buf.get(0..2)?.try_into().ok()?) as usize;
        let mut stages = Vec::with_capacity(count);
        let mut off = 2usize;
        for _ in 0..count {
            let len = u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?) as usize;
            off += 4;
            stages.push(Bytes::copy_from_slice(buf.get(off..off + len)?));
            off += len;
        }
        Some(ChainParams { stages })
    }
}

/// A pipeline of kernels behind one RPC op-code: each stage's outbound
/// stream (selected by its [`StageRoute`]) is spliced into the next
/// stage's `roceDataIn`, with per-stage DMA-tag namespaces and in-band
/// error propagation.
///
/// Protocol, mirroring the single stream kernels:
///
/// - `Invoke` carries [`ChainParams`] — one parameter blob per stage; each
///   stage is invoked with its own blob. The chain emits its
///   configuration `Done` once **all** stages have configured (a stage
///   configuring asynchronously, e.g. shuffle's histogram DMA read, delays
///   it).
/// - `RoceData` feeds stage 0. When a stage emits its end-of-stream
///   `Done`, the chain closes the next stage's input with an empty `last`
///   word, so summaries cascade front-to-back deterministically; when the
///   final stage finishes, the chain emits its own end-of-stream `Done`.
/// - A non-final stage sending an 8 B `ERR_*` sentinel ([`error_word`])
///   latches the chain into a failed state: the sentinel passes through to
///   the requester and no further data flows downstream (streams still
///   close so every stage finalizes and the fabric is not wedged).
#[allow(missing_debug_implementations)]
pub struct KernelChain {
    op: RpcOpCode,
    name: &'static str,
    stages: Vec<Stage>,
    qpn: Qpn,
    failed: bool,
    /// Stages whose configuration `Done` is still outstanding.
    configuring: usize,
    /// Reusable buffers holding one stage's actions while they are
    /// routed; routing can feed the next stage, which takes its own.
    scratch: Vec<Vec<KernelAction>>,
}

impl KernelChain {
    /// Builds a chain answering to `op` from `(kernel, route)` stages.
    /// The final stage's route is irrelevant (its outputs leave the chain
    /// as-is); pass [`StageRoute::Handoff`].
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or holds more than 8 stages (the tag
    /// namespace allows 256; 8 matches plausible on-chip budgets).
    pub fn new(op: RpcOpCode, stages: Vec<(Box<dyn Kernel>, StageRoute)>) -> Self {
        assert!(!stages.is_empty(), "a chain needs at least one stage");
        assert!(stages.len() <= 8, "at most 8 stages per chain");
        let label = stages
            .iter()
            .map(|(k, _)| k.name())
            .collect::<Vec<_>>()
            .join("→");
        let name: &'static str = Box::leak(format!("chain({label})").into_boxed_str());
        Self {
            op,
            name,
            stages: stages
                .into_iter()
                .map(|(kernel, route)| Stage {
                    kernel,
                    route,
                    phase: StagePhase::Finished,
                    input_closed: true,
                })
                .collect(),
            qpn: 0,
            failed: false,
            configuring: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages (never true — `new` rejects it).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Whether an in-band error sentinel latched the chain failed during
    /// the current invocation.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Downcasting access to stage `i`'s kernel (status registers).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> &dyn Kernel {
        self.stages[i].kernel.as_ref()
    }

    /// Feeds `data` into stage `i`'s `roceDataIn` and routes the fallout.
    fn feed(&mut self, i: usize, data: Bytes, last: bool, out: &mut Vec<KernelAction>) {
        if i >= self.stages.len() || self.stages[i].input_closed {
            return;
        }
        if last {
            self.stages[i].input_closed = true;
        }
        let tap = self.stages[i].route == StageRoute::Tap && i + 1 < self.stages.len();
        let mut actions = self.scratch.pop().unwrap_or_default();
        let event = KernelEvent::RoceData {
            qpn: self.qpn,
            data: data.clone(),
            last,
        };
        self.stages[i].kernel.on_event_into(event, &mut actions);
        // Tap: the inbound words continue downstream ahead of whatever
        // this stage produced (matching wire order on the FPGA: the word
        // passes through the splice before the stage's actions retire).
        if tap && !self.failed && !data.is_empty() {
            self.feed(i + 1, data, false, out);
        }
        self.route(i, &mut actions, out);
        self.scratch.push(actions);
    }

    /// Hands `event` to stage `i` and routes what it emits.
    fn dispatch(&mut self, i: usize, event: KernelEvent, out: &mut Vec<KernelAction>) {
        let mut actions = self.scratch.pop().unwrap_or_default();
        self.stages[i].kernel.on_event_into(event, &mut actions);
        self.route(i, &mut actions, out);
        self.scratch.push(actions);
    }

    /// Routes (and drains) one batch of stage `i`'s actions: namespaces
    /// DMA tags, diverts captured streams downstream, passes the rest
    /// through, and advances the stage's phase on `Done`.
    fn route(&mut self, i: usize, actions: &mut Vec<KernelAction>, out: &mut Vec<KernelAction>) {
        let is_final = i + 1 == self.stages.len();
        let route = self.stages[i].route;
        let mut finished_streaming = false;
        for a in actions.drain(..) {
            match a {
                KernelAction::DmaRead { tag, vaddr, len } => {
                    debug_assert!(tag <= STAGE_TAG_MASK, "stage DMA tags are 24-bit");
                    out.push(KernelAction::DmaRead {
                        tag: ((i as u32) << STAGE_TAG_SHIFT) | (tag & STAGE_TAG_MASK),
                        vaddr,
                        len,
                    });
                }
                KernelAction::DmaWrite { vaddr, data } => {
                    if !is_final && route == StageRoute::CaptureDmaWrites {
                        if !self.failed {
                            self.feed(i + 1, data, false, out);
                        }
                    } else {
                        out.push(KernelAction::DmaWrite { vaddr, data });
                    }
                }
                KernelAction::RoceSend {
                    qpn,
                    remote_vaddr,
                    data,
                } => {
                    let sentinel = data.len() == 8
                        && decode_error(u64::from_le_bytes(data[..].try_into().expect("sized")))
                            .is_some();
                    if sentinel && !is_final {
                        // In-band error: always reaches the requester and
                        // stops downstream data.
                        self.failed = true;
                        out.push(KernelAction::RoceSend {
                            qpn,
                            remote_vaddr,
                            data,
                        });
                    } else if !is_final && route == StageRoute::CaptureRoceSends {
                        if !self.failed {
                            self.feed(i + 1, data, false, out);
                        }
                    } else {
                        out.push(KernelAction::RoceSend {
                            qpn,
                            remote_vaddr,
                            data,
                        });
                    }
                }
                KernelAction::Forward { data, last } => {
                    if is_final {
                        // Chains compose: the final stage's hand-off is the
                        // chain's own hand-off.
                        out.push(KernelAction::Forward { data, last });
                    } else if !self.failed {
                        if !data.is_empty() {
                            self.feed(i + 1, data, false, out);
                        }
                        if last {
                            self.feed(i + 1, Bytes::new(), true, out);
                        }
                    }
                }
                KernelAction::Done => match self.stages[i].phase {
                    StagePhase::Configuring => {
                        self.stages[i].phase = StagePhase::Streaming;
                        self.configuring -= 1;
                        if self.configuring == 0 {
                            out.push(KernelAction::Done);
                        }
                    }
                    StagePhase::Streaming => {
                        self.stages[i].phase = StagePhase::Finished;
                        finished_streaming = true;
                    }
                    StagePhase::Finished => {}
                },
            }
        }
        if finished_streaming {
            if is_final {
                out.push(KernelAction::Done);
            } else {
                // Cascade end-of-stream so the next stage finalizes (its
                // summary, if any, follows the data it already received).
                self.feed(i + 1, Bytes::new(), true, out);
            }
        }
    }
}

impl Kernel for KernelChain {
    fn rpc_op(&self) -> RpcOpCode {
        self.op
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
        match event {
            KernelEvent::Invoke { qpn, params } => {
                let stage_params = match ChainParams::decode(&params) {
                    Some(p) if p.stages.len() == self.stages.len() => p.stages,
                    // Malformed chain params: complete the invocation
                    // without configuring (the fabric must not wedge).
                    _ => {
                        out.push(KernelAction::Done);
                        return;
                    }
                };
                self.qpn = qpn;
                self.failed = false;
                self.configuring = self.stages.len();
                for s in &mut self.stages {
                    s.phase = StagePhase::Configuring;
                    s.input_closed = false;
                }
                for (i, params) in stage_params.into_iter().enumerate() {
                    self.dispatch(i, KernelEvent::Invoke { qpn, params }, out);
                }
            }
            KernelEvent::RoceData { data, last, .. } => {
                self.feed(0, data, last, out);
            }
            KernelEvent::DmaData { tag, data } => {
                let i = (tag >> STAGE_TAG_SHIFT) as usize;
                if i < self.stages.len() {
                    let tag = tag & STAGE_TAG_MASK;
                    self.dispatch(i, KernelEvent::DmaData { tag, data }, out);
                }
            }
        }
    }

    /// A chain runs at the initiation interval of its slowest stage.
    fn cycles_per_word(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.kernel.cycles_per_word())
            .max()
            .unwrap_or(1)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_words_round_trip() {
        for code in [ERR_NOT_FOUND, ERR_BAD_PARAMS, ERR_INCONSISTENT, 0xffff] {
            let word = u64::from_le_bytes(error_word(code));
            assert_eq!(decode_error(word), Some(code));
        }
    }

    #[test]
    fn ordinary_data_is_not_an_error() {
        assert_eq!(decode_error(42), None);
        assert_eq!(decode_error(0x1234_5678_9abc_def0), None);
    }

    /// A trivial kernel used to exercise the trait surface.
    struct Echo;

    impl Kernel for Echo {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn rpc_op(&self) -> RpcOpCode {
            RpcOpCode(0xEE)
        }

        fn name(&self) -> &'static str {
            "echo"
        }

        fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
            if let KernelEvent::Invoke { qpn, params } = event {
                out.extend([
                    KernelAction::RoceSend {
                        qpn,
                        remote_vaddr: 0,
                        data: params,
                    },
                    KernelAction::Done,
                ]);
            }
        }
    }

    #[test]
    fn chain_params_round_trip() {
        let p = ChainParams {
            stages: vec![
                Bytes::from_static(b"alpha"),
                Bytes::new(),
                Bytes::from_static(&[1, 2, 3]),
            ],
        };
        assert_eq!(ChainParams::decode(&p.encode()), Some(p));
        assert_eq!(ChainParams::decode(&[]), None);
        // Truncated stage payload.
        let enc = ChainParams {
            stages: vec![Bytes::from_static(b"xyz")],
        }
        .encode();
        assert_eq!(ChainParams::decode(&enc[..enc.len() - 1]), None);
    }

    /// A stage that counts inbound words, forwards them doubled, and
    /// reports `(words, closed)` via its name-less state — used to probe
    /// chain routing without real kernels.
    struct Doubler {
        words: u64,
        closed: bool,
    }

    impl Kernel for Doubler {
        fn rpc_op(&self) -> RpcOpCode {
            RpcOpCode(0xD0)
        }
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
            match event {
                KernelEvent::Invoke { .. } => out.push(KernelAction::Done),
                KernelEvent::RoceData { data, last, .. } => {
                    self.words += data.len() as u64;
                    if !data.is_empty() {
                        let mut doubled = data.to_vec();
                        doubled.extend_from_slice(&data);
                        out.push(KernelAction::Forward {
                            data: Bytes::from(doubled),
                            last: false,
                        });
                    }
                    if last {
                        self.closed = true;
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

    /// A stage that fails the stream with `ERR_INCONSISTENT` on the first
    /// data word.
    struct Tripwire;

    impl Kernel for Tripwire {
        fn rpc_op(&self) -> RpcOpCode {
            RpcOpCode(0xD1)
        }
        fn name(&self) -> &'static str {
            "tripwire"
        }
        fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
            match event {
                KernelEvent::Invoke { .. } => out.push(KernelAction::Done),
                KernelEvent::RoceData { qpn, data, last } => {
                    if !data.is_empty() {
                        out.push(KernelAction::RoceSend {
                            qpn,
                            remote_vaddr: 0x666,
                            data: Bytes::copy_from_slice(&error_word(ERR_INCONSISTENT)),
                        });
                    }
                    if last {
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

    fn invoke_chain(chain: &mut KernelChain, n: usize) -> Vec<KernelAction> {
        chain.on_event(KernelEvent::Invoke {
            qpn: 9,
            params: ChainParams {
                stages: vec![Bytes::new(); n],
            }
            .encode(),
        })
    }

    #[test]
    fn chain_forwards_through_stages_and_cascades_close() {
        let mut chain = KernelChain::new(
            RpcOpCode(0x40),
            vec![
                (
                    Box::new(Doubler {
                        words: 0,
                        closed: false,
                    }),
                    StageRoute::Handoff,
                ),
                (
                    Box::new(Doubler {
                        words: 0,
                        closed: false,
                    }),
                    StageRoute::Handoff,
                ),
            ],
        );
        assert_eq!(chain.name(), "chain(doubler→doubler)");
        assert_eq!(invoke_chain(&mut chain, 2), vec![KernelAction::Done]);
        let a = chain.on_event(KernelEvent::RoceData {
            qpn: 9,
            data: Bytes::from_static(b"ab"),
            last: true,
        });
        // Stage 1's quadrupled output leaves the chain as a Forward; both
        // stages closed; the chain emitted its end-of-stream Done.
        let fwd: Vec<_> = a
            .iter()
            .filter_map(|x| match x {
                KernelAction::Forward { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![b"abababab".to_vec()]);
        assert_eq!(*a.last().unwrap(), KernelAction::Done);
        let s0 = chain.stage(0).as_any().downcast_ref::<Doubler>().unwrap();
        let s1 = chain.stage(1).as_any().downcast_ref::<Doubler>().unwrap();
        assert_eq!((s0.words, s1.words), (2, 4));
        assert!(s0.closed && s1.closed);
        assert!(!chain.failed());
    }

    #[test]
    fn chain_error_sentinel_latches_and_starves_downstream() {
        let mut chain = KernelChain::new(
            RpcOpCode(0x41),
            vec![
                (Box::new(Tripwire), StageRoute::Tap),
                (
                    Box::new(Doubler {
                        words: 0,
                        closed: false,
                    }),
                    StageRoute::Handoff,
                ),
            ],
        );
        assert_eq!(invoke_chain(&mut chain, 2), vec![KernelAction::Done]);
        let first = chain.on_event(KernelEvent::RoceData {
            qpn: 9,
            data: Bytes::from_static(b"xxxxxxxx"),
            last: false,
        });
        // The sentinel passes through to the requester.
        assert!(first.iter().any(|x| matches!(
            x,
            KernelAction::RoceSend {
                remote_vaddr: 0x666,
                ..
            }
        )));
        assert!(chain.failed());
        // Later data no longer reaches stage 1 (the first tapped word did,
        // cut-through, before the error latched).
        let before = chain
            .stage(1)
            .as_any()
            .downcast_ref::<Doubler>()
            .unwrap()
            .words;
        let more = chain.on_event(KernelEvent::RoceData {
            qpn: 9,
            data: Bytes::from_static(b"yyyyyyyy"),
            last: true,
        });
        let after = chain.stage(1).as_any().downcast_ref::<Doubler>().unwrap();
        assert_eq!(after.words, before, "no data downstream after failure");
        assert!(after.closed, "stream still closes so the stage finalizes");
        assert_eq!(*more.last().unwrap(), KernelAction::Done, "chain completes");
    }

    #[test]
    fn chain_namespaces_dma_tags_per_stage() {
        /// Issues a DMA read with tag 1 at configure time; completes on
        /// the answer (a deliberate inner-tag collision across stages).
        struct Loader {
            got: Option<Vec<u8>>,
        }
        impl Kernel for Loader {
            fn rpc_op(&self) -> RpcOpCode {
                RpcOpCode(0xD2)
            }
            fn name(&self) -> &'static str {
                "loader"
            }
            fn on_event_into(&mut self, event: KernelEvent, out: &mut Vec<KernelAction>) {
                match event {
                    KernelEvent::Invoke { .. } => out.push(KernelAction::DmaRead {
                        tag: 1,
                        vaddr: 0x100,
                        len: 4,
                    }),
                    KernelEvent::DmaData { tag: 1, data } => {
                        self.got = Some(data.to_vec());
                        out.push(KernelAction::Done);
                    }
                    KernelEvent::RoceData { last: true, .. } => out.push(KernelAction::Done),
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }

        let mut chain = KernelChain::new(
            RpcOpCode(0x42),
            vec![
                (
                    Box::new(Loader { got: None }) as Box<dyn Kernel>,
                    StageRoute::Tap,
                ),
                (Box::new(Loader { got: None }), StageRoute::Handoff),
            ],
        );
        let a = invoke_chain(&mut chain, 2);
        // Both stages asked for tag-1 reads; the chain namespaced them.
        let tags: Vec<u32> = a
            .iter()
            .filter_map(|x| match x {
                KernelAction::DmaRead { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![1, (1 << STAGE_TAG_SHIFT) | 1]);
        assert!(
            a.iter().all(|x| *x != KernelAction::Done),
            "still configuring"
        );
        // Answer stage 1 first — routed by the high bits, not arrival order.
        let a1 = chain.on_event(KernelEvent::DmaData {
            tag: (1 << STAGE_TAG_SHIFT) | 1,
            data: Bytes::from_static(&[9, 9, 9, 9]),
        });
        assert!(a1.is_empty(), "chain Done waits for stage 0");
        let a0 = chain.on_event(KernelEvent::DmaData {
            tag: 1,
            data: Bytes::from_static(&[7, 7, 7, 7]),
        });
        assert_eq!(a0, vec![KernelAction::Done], "all stages configured");
        let s0 = chain.stage(0).as_any().downcast_ref::<Loader>().unwrap();
        let s1 = chain.stage(1).as_any().downcast_ref::<Loader>().unwrap();
        assert_eq!(s0.got.as_deref(), Some(&[7u8, 7, 7, 7][..]));
        assert_eq!(s1.got.as_deref(), Some(&[9u8, 9, 9, 9][..]));
    }

    #[test]
    fn chain_rejects_malformed_params_without_wedging() {
        let mut chain = KernelChain::new(
            RpcOpCode(0x43),
            vec![(Box::new(Echo) as Box<dyn Kernel>, StageRoute::Handoff)],
        );
        let a = chain.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: Bytes::from_static(b"\xff"),
        });
        assert_eq!(a, vec![KernelAction::Done]);
        // Stage-count mismatch is rejected the same way.
        let a = invoke_chain(&mut chain, 3);
        assert_eq!(a, vec![KernelAction::Done]);
    }

    #[test]
    fn echo_kernel_reflects_params() {
        let mut k = Echo;
        assert_eq!(k.cycles_per_word(), 1, "default is line rate");
        let actions = k.on_event(KernelEvent::Invoke {
            qpn: 3,
            params: Bytes::from_static(b"ping"),
        });
        assert_eq!(
            actions[0],
            KernelAction::RoceSend {
                qpn: 3,
                remote_vaddr: 0,
                data: Bytes::from_static(b"ping")
            }
        );
        assert_eq!(actions[1], KernelAction::Done);
    }
}
