//! The structured trace subsystem: typed events in a bounded ring.
//!
//! Instrumentation sites hold a [`TraceSink`] and call
//! [`TraceSink::emit`]; a disabled sink (the default) reduces that call
//! to one branch on an `Option`, so tracing can stay compiled into the
//! datapath. An enabled sink stamps each event with the simulated time
//! most recently published by the event queue ([`TraceSink::set_now`])
//! and appends it to a fixed-capacity ring that drops its oldest record
//! when full — a run can trace forever in bounded memory.
//!
//! Every emitted event, retained or overwritten, is folded into a
//! running FNV-1a [`TraceSink::fingerprint`], so two runs can be compared
//! for bit-identical event streams without retaining either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{Fingerprint, Time};

/// Why a frame was dropped on the receive path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The injected link fault model dropped the frame outright.
    Loss,
    /// A checksum (ICRC or IPv4 header) caught in-flight corruption.
    Corruption,
    /// The frame failed structural parsing.
    Malformed,
    /// The switch's bounded egress queue was full (tail-drop); `node` in
    /// the event is the destination whose port overflowed.
    TailDrop,
    /// The requester refused a kernel's RoCE send or a CPU fallback's
    /// response (unknown QP, or a QP in error), so no frame was built;
    /// `node` in the event is the responding node's.
    SendRefused,
}

/// Coarse queue-pair state for transition events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Operational.
    Ready,
    /// Terminal error (retry budget exhausted).
    Error,
}

/// One typed datapath event.
///
/// Fields are plain integers (no wire-crate types) so every layer of the
/// stack can emit without new dependencies; `node` is the observing NIC
/// where the emitting layer knows it, and `u8::MAX` where it does not
/// (the protocol and memory crates are per-node by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet entered the transmit path.
    PacketTx {
        /// Sending node.
        node: u8,
        /// Raw BTH op-code.
        opcode: u8,
        /// Destination queue pair.
        qpn: u32,
        /// Packet sequence number.
        psn: u32,
        /// Bytes the frame occupies on the wire.
        wire_bytes: u32,
    },
    /// A packet parsed successfully on the receive path.
    PacketRx {
        /// Receiving node.
        node: u8,
        /// Raw BTH op-code.
        opcode: u8,
        /// Destination queue pair.
        qpn: u32,
        /// Packet sequence number.
        psn: u32,
        /// RoCE payload length.
        payload_len: u32,
    },
    /// A frame was dropped before dispatch, or a kernel's send before it
    /// became one.
    PacketDrop {
        /// The node that failed to receive it (or to send it).
        node: u8,
        /// Why.
        reason: DropReason,
    },
    /// A queue pair changed state.
    QpTransition {
        /// The queue pair.
        qpn: u32,
        /// State before.
        from: QpState,
        /// State after.
        to: QpState,
    },
    /// The requester re-sent outstanding packets (NAK or timeout).
    Retransmit {
        /// The queue pair.
        qpn: u32,
        /// Packets re-queued for transmission.
        packets: u32,
    },
    /// A retransmission-timer expiration re-armed with a backed-off
    /// timeout.
    Backoff {
        /// The queue pair.
        qpn: u32,
        /// Consecutive expirations without forward progress.
        attempts: u32,
        /// The backed-off timeout now in force.
        timeout: Time,
    },
    /// The DMA engine fetched bytes from host memory.
    DmaRead {
        /// The node whose memory was read.
        node: u8,
        /// Virtual start address.
        vaddr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// The DMA engine scheduled a store to host memory.
    DmaWrite {
        /// The node whose memory is written.
        node: u8,
        /// Virtual start address.
        vaddr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// The TLB translated a command, splitting at page boundaries.
    TlbLookup {
        /// Virtual start address.
        vaddr: u64,
        /// Command length in bytes.
        len: u32,
        /// Physical segments produced.
        segments: u32,
    },
    /// A kernel invocation entered the fabric.
    KernelEnter {
        /// The invoking node.
        node: u8,
        /// RPC op-code.
        op: u64,
    },
    /// A kernel signalled completion.
    KernelExit {
        /// The node it ran on.
        node: u8,
        /// RPC op-code.
        op: u64,
    },
}

/// A trace event plus its emission order and simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in the emission stream (0-based, never reused).
    pub seq: u64,
    /// Simulated time at emission, in picoseconds.
    pub at: Time,
    /// The event.
    pub event: TraceEvent,
}

impl TraceEvent {
    /// Folds the event into `fp` via a stable manual encoding (a tag
    /// word plus each field widened to `u64`), so fingerprints are
    /// comparable across runs and platforms.
    fn fold(&self, fp: &mut Fingerprint) {
        let mut words = |ws: &[u64]| {
            for &w in ws {
                fp.word(w);
            }
        };
        match *self {
            TraceEvent::PacketTx {
                node,
                opcode,
                qpn,
                psn,
                wire_bytes,
            } => words(&[
                1,
                u64::from(node),
                u64::from(opcode),
                u64::from(qpn),
                u64::from(psn),
                u64::from(wire_bytes),
            ]),
            TraceEvent::PacketRx {
                node,
                opcode,
                qpn,
                psn,
                payload_len,
            } => words(&[
                2,
                u64::from(node),
                u64::from(opcode),
                u64::from(qpn),
                u64::from(psn),
                u64::from(payload_len),
            ]),
            TraceEvent::PacketDrop { node, reason } => words(&[3, u64::from(node), reason as u64]),
            TraceEvent::QpTransition { qpn, from, to } => {
                words(&[4, u64::from(qpn), from as u64, to as u64])
            }
            TraceEvent::Retransmit { qpn, packets } => {
                words(&[5, u64::from(qpn), u64::from(packets)])
            }
            TraceEvent::Backoff {
                qpn,
                attempts,
                timeout,
            } => words(&[6, u64::from(qpn), u64::from(attempts), timeout]),
            TraceEvent::DmaRead { node, vaddr, len } => {
                words(&[7, u64::from(node), vaddr, u64::from(len)])
            }
            TraceEvent::DmaWrite { node, vaddr, len } => {
                words(&[8, u64::from(node), vaddr, u64::from(len)])
            }
            TraceEvent::TlbLookup {
                vaddr,
                len,
                segments,
            } => words(&[9, vaddr, u64::from(len), u64::from(segments)]),
            TraceEvent::KernelEnter { node, op } => words(&[10, u64::from(node), op]),
            TraceEvent::KernelExit { node, op } => words(&[11, u64::from(node), op]),
        }
    }
}

/// The mutable core of an enabled sink.
#[derive(Debug)]
struct SinkState {
    ring: Vec<TraceRecord>,
    capacity: usize,
    /// Index in `ring` the next record overwrites once full.
    head: usize,
    emitted: u64,
    fingerprint: Fingerprint,
}

impl SinkState {
    fn push(&mut self, at: Time, event: TraceEvent) {
        let rec = TraceRecord {
            seq: self.emitted,
            at,
            event,
        };
        self.emitted += 1;
        self.fingerprint.word(rec.seq).word(rec.at);
        event.fold(&mut self.fingerprint);
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained records in emission order (oldest first).
    fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }
}

#[derive(Debug)]
struct Inner {
    /// Simulated "now" published by the event queue; emissions read it so
    /// lower layers never need to know the time themselves.
    now: AtomicU64,
    state: Mutex<SinkState>,
}

/// A cloneable handle to a trace ring, or to nothing.
///
/// The default sink is disabled: [`TraceSink::emit`] and
/// [`TraceSink::set_now`] cost one branch each, which the benchmark
/// records per layer as `telemetry.trace_emit_disabled_ns` beside
/// `telemetry.trace_emit_enabled_ns`. Clones of an enabled sink share
/// the same ring, which is how one testbed-wide trace collects events
/// from the event queue, both protocol engines, and both TLBs.
///
/// # Examples
///
/// ```
/// use strom_telemetry::{TraceEvent, TraceSink};
/// let sink = TraceSink::enabled(8);
/// sink.set_now(1_000);
/// sink.emit(TraceEvent::Retransmit { qpn: 1, packets: 3 });
/// let records = sink.records();
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].at, 1_000);
/// assert!(TraceSink::default().records().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<Inner>>);

impl TraceSink {
    /// A sink that records into a ring of `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceSink(Some(Arc::new(Inner {
            now: AtomicU64::new(0),
            state: Mutex::new(SinkState {
                ring: Vec::new(),
                capacity,
                head: 0,
                emitted: 0,
                fingerprint: Fingerprint::new(),
            }),
        })))
    }

    /// Whether emissions are recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Publishes the current simulated time (the event queue's clock
    /// hook); subsequent emissions are stamped with it.
    #[inline]
    pub fn set_now(&self, t: Time) {
        if let Some(inner) = &self.0 {
            inner.now.store(t, Ordering::Relaxed);
        }
    }

    /// The most recently published simulated time.
    pub fn now(&self) -> Time {
        self.0
            .as_ref()
            .map(|i| i.now.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Records an event (a no-op costing one branch when disabled).
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.0 {
            let at = inner.now.load(Ordering::Relaxed);
            inner.state.lock().expect("trace lock").push(at, event);
        }
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.0 {
            Some(inner) => inner.state.lock().expect("trace lock").records(),
            None => Vec::new(),
        }
    }

    /// Total events emitted, including any the ring has overwritten.
    pub fn emitted(&self) -> u64 {
        self.0
            .as_ref()
            .map(|i| i.state.lock().expect("trace lock").emitted)
            .unwrap_or(0)
    }

    /// Events the bounded ring overwrote (emitted − retained).
    pub fn overwritten(&self) -> u64 {
        match &self.0 {
            Some(inner) => {
                let s = inner.state.lock().expect("trace lock");
                s.emitted - s.ring.len() as u64
            }
            None => 0,
        }
    }

    /// FNV-1a fingerprint of the full emission stream (sequence numbers,
    /// timestamps, and every event field). Two same-seed runs must agree.
    pub fn fingerprint(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(Fingerprint::new(), |i| {
                i.state.lock().expect("trace lock").fingerprint
            })
            .value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TraceEvent {
        TraceEvent::Retransmit { qpn: n, packets: 1 }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::default();
        sink.set_now(5);
        sink.emit(ev(1));
        assert!(!sink.is_enabled());
        assert_eq!(sink.emitted(), 0);
        assert!(sink.records().is_empty());
    }

    #[test]
    fn events_are_stamped_with_published_time() {
        let sink = TraceSink::enabled(4);
        sink.set_now(100);
        sink.emit(ev(1));
        sink.set_now(250);
        sink.emit(ev(2));
        let r = sink.records();
        assert_eq!((r[0].at, r[1].at), (100, 250));
        assert_eq!((r[0].seq, r[1].seq), (0, 1));
    }

    #[test]
    fn ring_drops_oldest_and_counts_overwrites() {
        let sink = TraceSink::enabled(3);
        for i in 0..5 {
            sink.emit(ev(i));
        }
        let r = sink.records();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.iter().map(|x| x.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest records dropped first"
        );
        assert_eq!(sink.emitted(), 5);
        assert_eq!(sink.overwritten(), 2);
    }

    #[test]
    fn clones_share_the_ring() {
        let sink = TraceSink::enabled(8);
        let clone = sink.clone();
        clone.emit(ev(7));
        assert_eq!(sink.emitted(), 1);
    }

    #[test]
    fn fingerprint_covers_overwritten_events() {
        let a = TraceSink::enabled(2);
        let b = TraceSink::enabled(2);
        for i in 0..10 {
            a.emit(ev(i));
            b.emit(ev(i));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = TraceSink::enabled(2);
        for i in 0..10 {
            c.emit(ev(i + 1));
        }
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_timestamps() {
        let a = TraceSink::enabled(4);
        a.set_now(1);
        a.emit(ev(0));
        let b = TraceSink::enabled(4);
        b.set_now(2);
        b.emit(ev(0));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
