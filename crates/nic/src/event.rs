//! The testbed's discrete-event vocabulary and its one scheduling
//! chokepoint.

use bytes::Bytes;

use strom_proto::WorkRequest;
use strom_sim::time::{Time, TimeDelta};
use strom_sim::EventQueue;
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

/// A node index in the testbed (0 or 1 for the back-to-back pair; 0..N
/// for a switched cluster).
pub type NodeId = usize;

/// Everything that can happen in the simulated world: something on one
/// NIC, or a switch arbitration pass.
///
/// Every timer-wheel bucket and heap slot pays for the largest variant,
/// so payloads that would bloat the enum ride behind a `Box` (the
/// `WorkRequest` below); a test pins the whole enum to one cache line.
#[derive(Debug)]
pub enum Event {
    /// An event owned by one NIC.
    Nic {
        /// The NIC it happens on.
        node: NodeId,
        /// What happens.
        ev: NicEvent,
    },
    /// The cluster switch has at least one ingress frame eligible for
    /// arbitration at this time; the wire runs a grant pass. Extra
    /// ticks at the same instant are harmless no-ops (the first drains
    /// every eligible frame).
    SwitchTick,
}

/// What can happen on one NIC.
#[derive(Debug)]
pub enum NicEvent {
    /// A host command reached the NIC Controller (after the MMIO store).
    CmdArrive {
        /// Queue pair of the command.
        qpn: Qpn,
        /// The work request (boxed: it is the fattest payload in the
        /// simulation, and commands are rare next to frames and DMAs).
        wr: Box<WorkRequest>,
        /// Work-request handle assigned at post time.
        handle: u64,
    },
    /// An encoded frame finished the RX pipeline and ICRC check and is
    /// ready for protocol processing.
    FrameArrive {
        /// The raw frame bytes (parsed on arrival — bit-accurate RX).
        /// Carried as `Bytes` so fault-model duplication and the parsed
        /// payload share one buffer instead of copying it.
        frame: Bytes,
    },
    /// A DMA write to host memory completed (data becomes visible to CPU
    /// pollers and watches).
    DmaWriteDone {
        /// Destination virtual address.
        vaddr: u64,
        /// The bytes written.
        data: Bytes,
    },
    /// A DMA read issued by a kernel completed; the fabric routes the data
    /// back to the kernel by tag.
    KernelDmaReadDone {
        /// The kernel's RPC op-code.
        op: RpcOpCode,
        /// Kernel-chosen completion tag.
        tag: u32,
        /// Source virtual address.
        vaddr: u64,
        /// Read length.
        len: u32,
    },
    /// Periodic retransmission-timer scan.
    RetransmitCheck,
    /// The paced transmit slot for one QP's queued request packets came
    /// up (DCQCN rate limiting): release the head of the queue. The
    /// per-QP deadline guard in the handler makes stale ticks no-ops.
    PacerTick {
        /// The rate-limited QP.
        qpn: Qpn,
    },
    /// An ARP frame arrived (network bring-up, §4.1's ARP module).
    ArpArrive {
        /// The raw 28-byte ARP payload.
        frame: Vec<u8>,
    },
}

impl Event {
    /// The box this event happens inside: NIC events belong to their
    /// node, switch arbitration to the switch (`switch` is the id the
    /// caller assigns it — conventionally the node count).
    ///
    /// This is the ownership tag the lookahead audit uses to classify a
    /// scheduled event as staying inside one box or crossing a cable.
    pub fn owner(&self, switch: usize) -> usize {
        match self {
            Event::Nic { node, .. } => *node,
            Event::SwitchTick => switch,
        }
    }
}

/// What the observation-only lookahead audit saw over a run: how often
/// one box (a NIC or the switch, per [`Event::owner`]) scheduled an
/// event for another, and how far into the future the nearest such
/// event landed.
///
/// `min_cross_delta >= floor` with `violations == 0` states a physical
/// invariant of the fabric (DESIGN.md §15): a NIC and anything outside
/// it are joined by a cable, so nothing one of them does can reach
/// another sooner than one cable propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadReport {
    /// Events scheduled for another box while dispatching.
    pub cross_events: u64,
    /// Smallest observed distance between such an event and the moment
    /// it was scheduled (`u64::MAX` when none were seen).
    pub min_cross_delta: TimeDelta,
    /// Events scheduled for another box closer than `floor`.
    pub violations: u64,
    /// The distance being audited against: the cable propagation delay
    /// between a NIC and anything outside it.
    pub floor: TimeDelta,
}

/// Running state of the lookahead audit.
#[derive(Debug)]
pub(crate) struct LookaheadAudit {
    /// Owner of the event being dispatched. Samples are taken only for
    /// events scheduled from inside a dispatch — host-driver posts from
    /// outside the loop have no owning box to have crossed a cable from.
    pub(crate) dispatching: Option<usize>,
    pub(crate) report: LookaheadReport,
}

/// The event queue behind the single scheduling chokepoint: every event
/// a NIC or the wire files goes through [`Scheduler::schedule`], so the
/// lookahead audit sees each exactly once, tagged with [`Event::owner`].
/// The audit is observation-only: enabled or not, the scheduled event
/// stream is bit-identical (the chaos fingerprints pin this).
#[derive(Debug)]
pub(crate) struct Scheduler {
    pub(crate) queue: EventQueue<Event>,
    /// Owner id of the switch (= the node count).
    pub(crate) switch_owner: usize,
    pub(crate) audit: Option<LookaheadAudit>,
}

impl Scheduler {
    pub(crate) fn new(switch_owner: usize) -> Self {
        Scheduler {
            queue: EventQueue::new(),
            switch_owner,
            audit: None,
        }
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> Time {
        self.queue.now()
    }

    pub(crate) fn schedule(&mut self, at: Time, event: Event) {
        if let Some(LookaheadAudit {
            dispatching: Some(owner),
            report,
        }) = &mut self.audit
        {
            if event.owner(self.switch_owner) != *owner {
                let delta = at.saturating_sub(self.queue.now());
                report.cross_events += 1;
                report.min_cross_delta = report.min_cross_delta.min(delta);
                if delta < report.floor {
                    report.violations += 1;
                }
            }
        }
        self.queue.schedule_at(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event engine moves `Scheduled<Event>` values on every insert
    /// and cascade; keep the payload within one cache line so those
    /// moves stay cheap. Growing a variant past this is a perf
    /// regression, not a compile error — hence the pin.
    #[test]
    fn event_fits_in_a_cache_line() {
        let size = std::mem::size_of::<Event>();
        assert!(size <= 64, "Event grew to {size} B (> 64)");
    }
}
