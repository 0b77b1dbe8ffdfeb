//! A deterministic store-and-forward Ethernet switch model.
//!
//! The paper deliberately removes the switch from its measurements ("we
//! directly connected two StRoM NICs to each other to remove the
//! potential noise introduced by a switch", §6.1); scaling the simulated
//! platform past two hosts puts one back. The model is a single
//! output-queued switch with `ports` ports, one NIC per port:
//!
//! ```text
//! ingress FIFO[p] ──┐
//! ingress FIFO[q] ──┼─► round-robin grant per egress ─► egress queue[e]
//! ingress FIFO[r] ──┘      (bounded, tail-drop)          └─► serializer
//! ```
//!
//! * **Ingress**: each port holds an arrival-ordered FIFO of received
//!   frames. A frame becomes *eligible* for forwarding `latency` after it
//!   has been fully received (store-and-forward switching delay).
//! * **Arbitration**: each egress port grants eligible ingress FIFO heads
//!   in round-robin order over the ingress ports, one frame per grant
//!   round, until no eligible head remains. Only FIFO heads are eligible
//!   (head-of-line blocking, as in a simple output-queued design). The
//!   grant order is a pure function of the queue contents and the
//!   per-egress cursors, so two same-seed simulations arbitrate
//!   identically — determinism does not depend on any RNG.
//! * **Egress**: each port owns a [`LinkSerializer`] at `port_rate` and a
//!   bounded queue of not-yet-transmitted frames. A granted frame that
//!   finds the queue at `egress_capacity` is **tail-dropped** (counted
//!   per port); otherwise it is admitted and leaves the port when its
//!   serialization completes.
//!
//! The model is generic over a caller payload `T` carried alongside each
//! frame, so the NIC layer can attach its own buffers and fault-model
//! decisions without this crate depending on them.

use std::collections::VecDeque;

use crate::rate::{Bandwidth, LinkSerializer};
use crate::rng::SimRng;
use crate::time::{Time, TimeDelta};

/// ECN marking policy for a [`Switch`] egress queue (RED/WRED-style).
///
/// A frame admitted to an egress queue observes the queue occupancy
/// `q` (frames already queued ahead of it, including the one in
/// service):
///
/// * `q < min_threshold` — never marked;
/// * `q >= max_threshold` — always marked;
/// * otherwise — marked with probability
///   `max_mark_prob * (q - min_threshold) / (max_threshold - min_threshold)`,
///   drawn from a dedicated [`SimRng`] stream seeded at construction.
///
/// Setting `min_threshold == max_threshold` gives a deterministic step
/// marker that consumes **zero** RNG draws — the configuration used by
/// reproducibility tests. Marking never drops frames; tail-drop at
/// `egress_capacity` still applies above it.
#[derive(Debug, Clone, Copy)]
pub struct EcnConfig {
    /// Occupancy below which frames are never marked.
    pub min_threshold: usize,
    /// Occupancy at or above which frames are always marked.
    pub max_threshold: usize,
    /// Marking probability as occupancy reaches `max_threshold`.
    pub max_mark_prob: f64,
    /// Seed of the switch's private WRED RNG stream.
    pub seed: u64,
}

impl EcnConfig {
    /// A deterministic step marker at `threshold` (no RNG draws).
    pub fn step(threshold: usize) -> Self {
        EcnConfig {
            min_threshold: threshold,
            max_threshold: threshold,
            max_mark_prob: 1.0,
            seed: 0,
        }
    }
}

/// Geometry and timing of a [`Switch`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Number of ports (one NIC per port).
    pub ports: usize,
    /// Egress serialization rate per port.
    pub port_rate: Bandwidth,
    /// Store-and-forward switching latency: delay between full frame
    /// reception on ingress and eligibility for egress arbitration.
    pub latency: TimeDelta,
    /// Maximum frames queued per egress port (including the frame in
    /// service); a granted frame beyond this bound is tail-dropped.
    pub egress_capacity: usize,
    /// ECN marking policy; `None` disables marking entirely (no RNG is
    /// even constructed, so disabled switches are bit-identical to the
    /// pre-ECN model).
    pub ecn: Option<EcnConfig>,
}

/// Per-port forwarding statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwitchPortCounters {
    /// Frames received on this ingress port.
    pub frames_in: u64,
    /// Frames serialized out of this egress port.
    pub frames_out: u64,
    /// Wire bytes serialized out of this egress port.
    pub bytes_out: u64,
    /// Frames tail-dropped at this egress port's queue bound.
    pub tail_drops: u64,
    /// Frames ECN-marked (CE) at this egress port.
    pub ecn_marked: u64,
    /// High watermark of this egress port's queue depth (frames,
    /// including the one in service) observed at admission time.
    pub queue_peak: u64,
}

/// A frame waiting in an ingress FIFO.
#[derive(Debug)]
struct InFrame<T> {
    dst: usize,
    wire_bytes: u64,
    /// When the frame becomes eligible for arbitration (fully received
    /// plus the switching latency).
    eligible: Time,
    payload: T,
}

/// A frame granted egress: it leaves the switch at `egress_end`.
#[derive(Debug)]
pub struct Delivery<T> {
    /// Ingress port the frame arrived on.
    pub src: usize,
    /// Egress port the frame leaves through.
    pub dst: usize,
    /// When the egress serializer finishes transmitting the frame.
    pub egress_end: Time,
    /// Whether the egress queue's ECN policy marked this frame (the
    /// caller applies the CE codepoint to the frame bytes).
    pub marked: bool,
    /// Caller payload attached at [`Switch::enqueue`].
    pub payload: T,
}

/// A frame tail-dropped at a full egress queue.
#[derive(Debug)]
pub struct TailDrop<T> {
    /// Ingress port the frame arrived on.
    pub src: usize,
    /// Egress port whose queue was full.
    pub dst: usize,
    /// Caller payload attached at [`Switch::enqueue`].
    pub payload: T,
}

/// The switch: per-port ingress FIFOs, round-robin arbitration, bounded
/// egress queues.
#[derive(Debug)]
pub struct Switch<T> {
    cfg: SwitchConfig,
    ingress: Vec<VecDeque<InFrame<T>>>,
    egress: Vec<LinkSerializer>,
    /// Serialization-end times of frames admitted to each egress port;
    /// entries at or before "now" have left the port and are pruned on
    /// the next grant. The live length is the egress queue depth.
    egress_queue: Vec<VecDeque<Time>>,
    /// Per-egress round-robin cursor: the ingress port granted first on
    /// the next round.
    rr: Vec<usize>,
    counters: Vec<SwitchPortCounters>,
    /// Arbitration scratch, all zero between calls. `candidates` holds one
    /// bitset row per egress port (as many words as `active` has): the
    /// ingress ports whose FIFO head is eligible and destined there.
    /// `active` is the bitset of egress ports whose row is non-empty.
    candidates: Vec<u64>,
    active: Vec<u64>,
    /// WRED marking stream; present only when `cfg.ecn` is, and drawn
    /// from only inside the probabilistic band, so deterministic
    /// configurations consume no randomness at all.
    mark_rng: Option<SimRng>,
}

impl<T> Switch<T> {
    /// Builds an idle switch.
    ///
    /// # Panics
    ///
    /// Panics on zero ports or a zero egress capacity.
    pub fn new(cfg: SwitchConfig) -> Self {
        assert!(cfg.ports > 0, "a switch needs at least one port");
        assert!(
            cfg.egress_capacity > 0,
            "egress queue capacity must be positive"
        );
        Switch {
            cfg,
            ingress: (0..cfg.ports).map(|_| VecDeque::new()).collect(),
            egress: (0..cfg.ports)
                .map(|_| LinkSerializer::new(cfg.port_rate))
                .collect(),
            egress_queue: (0..cfg.ports).map(|_| VecDeque::new()).collect(),
            rr: vec![0; cfg.ports],
            counters: vec![SwitchPortCounters::default(); cfg.ports],
            candidates: vec![0; cfg.ports * cfg.ports.div_ceil(64)],
            active: vec![0; cfg.ports.div_ceil(64)],
            mark_rng: cfg.ecn.map(|e| SimRng::seed(e.seed)),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Accepts a frame fully received on ingress port `src` at `received`,
    /// destined for the NIC on port `dst`. Returns the time the frame
    /// becomes eligible for arbitration — the caller schedules a switch
    /// tick no later than that.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port or a self-directed frame.
    pub fn enqueue(
        &mut self,
        src: usize,
        dst: usize,
        wire_bytes: u64,
        received: Time,
        payload: T,
    ) -> Time {
        assert!(
            src < self.cfg.ports && dst < self.cfg.ports,
            "port out of range"
        );
        assert_ne!(src, dst, "a NIC does not switch frames to itself");
        let eligible = received + self.cfg.latency;
        self.counters[src].frames_in += 1;
        self.ingress[src].push_back(InFrame {
            dst,
            wire_bytes,
            eligible,
            payload,
        });
        eligible
    }

    /// Frames still queued on ingress (not yet granted or dropped).
    pub fn pending(&self) -> usize {
        self.ingress.iter().map(VecDeque::len).sum()
    }

    /// Per-port counters.
    pub fn counters(&self, port: usize) -> SwitchPortCounters {
        self.counters[port]
    }

    /// Total tail drops across all egress ports.
    pub fn total_tail_drops(&self) -> u64 {
        self.counters.iter().map(|c| c.tail_drops).sum()
    }

    /// Runs arbitration at `now`: repeatedly grants one eligible ingress
    /// FIFO head per egress port (round-robin over ingress ports) until
    /// no grant is possible, appending the outcomes to `deliveries` and
    /// `drops` in grant order.
    ///
    /// The grant order is that of sweeping the egress ports in ascending
    /// order, round after round, each taking the first eligible head in
    /// cyclic order from its cursor. The sweep is not performed literally:
    /// the eligible heads are sorted once into per-egress candidate sets,
    /// only egress ports with a candidate are visited, and a pop moves
    /// the newly exposed head into its set — so a call costs
    /// O(ports + grants), not O(ports² × rounds).
    pub fn arbitrate(
        &mut self,
        now: Time,
        deliveries: &mut Vec<Delivery<T>>,
        drops: &mut Vec<TailDrop<T>>,
    ) {
        let words = self.active.len();
        for i in 0..self.cfg.ports {
            self.file_head(i, now);
        }
        // One pass over the live `active` set is one grant round. A head
        // exposed by a pop at egress `e` joins its set at once: an egress
        // above `e` is still ahead of this pass and sees it this round,
        // one at or below `e` sees it on the next pass.
        let mut from = 0;
        loop {
            let e = match first_set_from(&self.active, from) {
                Some(e) => e,
                None if from == 0 => return,
                None => {
                    from = 0;
                    continue;
                }
            };
            from = e + 1;
            let row = &mut self.candidates[e * words..][..words];
            let src = first_set_from(row, self.rr[e])
                .or_else(|| first_set_from(row, 0))
                .expect("an active egress has a candidate");
            clear_bit(row, src);
            let frame = self.ingress[src].pop_front().expect("candidates are heads");
            self.file_head(src, now);
            if self.candidates[e * words..][..words]
                .iter()
                .all(|&w| w == 0)
            {
                clear_bit(&mut self.active, e);
            }
            self.rr[e] = if src + 1 == self.cfg.ports {
                0
            } else {
                src + 1
            };
            self.grant(now, src, e, frame, deliveries, drops);
        }
    }

    /// Files ingress port `i`'s FIFO head, if it is eligible at `now`, into
    /// the candidate set of the egress it is destined to.
    fn file_head(&mut self, i: usize, now: Time) {
        let words = self.active.len();
        if let Some(head) = self.ingress[i].front().filter(|f| f.eligible <= now) {
            set_bit(&mut self.candidates[head.dst * words..][..words], i);
            set_bit(&mut self.active, head.dst);
        }
    }

    /// Hands a granted frame to egress `e`: tail-drops it at a full queue,
    /// otherwise admits it to the serializer (with the ECN decision).
    fn grant(
        &mut self,
        now: Time,
        src: usize,
        e: usize,
        frame: InFrame<T>,
        deliveries: &mut Vec<Delivery<T>>,
        drops: &mut Vec<TailDrop<T>>,
    ) {
        // Prune frames that have finished serializing; what remains is
        // the live egress queue depth.
        while self.egress_queue[e].front().is_some_and(|&end| end <= now) {
            self.egress_queue[e].pop_front();
        }
        let occupancy = self.egress_queue[e].len();
        if occupancy >= self.cfg.egress_capacity {
            self.counters[e].tail_drops += 1;
            drops.push(TailDrop {
                src,
                dst: e,
                payload: frame.payload,
            });
            return;
        }
        let marked = self.mark_decision(e, occupancy);
        let (_, egress_end) = self.egress[e].admit(now, frame.wire_bytes);
        self.egress_queue[e].push_back(egress_end);
        self.counters[e].frames_out += 1;
        self.counters[e].bytes_out += frame.wire_bytes;
        self.counters[e].queue_peak = self.counters[e].queue_peak.max(occupancy as u64 + 1);
        if marked {
            self.counters[e].ecn_marked += 1;
        }
        deliveries.push(Delivery {
            src,
            dst: e,
            egress_end,
            marked,
            payload: frame.payload,
        });
    }

    /// The literal egress sweep [`Self::arbitrate`] must reproduce grant
    /// for grant — the reference of the differential test.
    #[cfg(test)]
    fn arbitrate_reference(
        &mut self,
        now: Time,
        deliveries: &mut Vec<Delivery<T>>,
        drops: &mut Vec<TailDrop<T>>,
    ) {
        loop {
            let mut granted = false;
            for e in 0..self.cfg.ports {
                // One grant per egress per round: scan ingress ports from
                // this egress's cursor for an eligible head destined here.
                let Some(src) = (0..self.cfg.ports)
                    .map(|k| (self.rr[e] + k) % self.cfg.ports)
                    .find(|&i| {
                        self.ingress[i]
                            .front()
                            .is_some_and(|f| f.dst == e && f.eligible <= now)
                    })
                else {
                    continue;
                };
                let frame = self.ingress[src].pop_front().expect("head just matched");
                self.rr[e] = (src + 1) % self.cfg.ports;
                granted = true;
                self.grant(now, src, e, frame, deliveries, drops);
            }
            if !granted {
                return;
            }
        }
    }

    /// The WRED marking decision for a frame admitted to egress `e` that
    /// observes `occupancy` frames queued ahead of it. RNG is consumed
    /// only inside the probabilistic band between the thresholds.
    fn mark_decision(&mut self, _e: usize, occupancy: usize) -> bool {
        let Some(ecn) = self.cfg.ecn else {
            return false;
        };
        if occupancy >= ecn.max_threshold {
            return true;
        }
        if occupancy < ecn.min_threshold {
            return false;
        }
        let span = (ecn.max_threshold - ecn.min_threshold) as f64;
        let p = ecn.max_mark_prob * (occupancy - ecn.min_threshold) as f64 / span;
        self.mark_rng
            .as_mut()
            .expect("mark_rng exists iff cfg.ecn does")
            .chance(p)
    }
}

fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] |= 1 << (bit % 64);
}

fn clear_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] &= !(1 << (bit % 64));
}

/// The lowest set bit at or above `start`, if any.
fn first_set_from(words: &[u64], start: usize) -> Option<usize> {
    let first = start / 64;
    let mut mask = !0u64 << (start % 64);
    for (w, &word) in words.iter().enumerate().skip(first) {
        let hit = word & mask;
        if hit != 0 {
            return Some(w * 64 + hit.trailing_zeros() as usize);
        }
        mask = !0;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::NANOS;

    fn cfg(ports: usize, capacity: usize) -> SwitchConfig {
        SwitchConfig {
            ports,
            port_rate: Bandwidth::gbit_per_sec(10.0),
            latency: 300 * NANOS,
            egress_capacity: capacity,
            ecn: None,
        }
    }

    fn drain(sw: &mut Switch<u32>, now: Time) -> (Vec<Delivery<u32>>, Vec<TailDrop<u32>>) {
        let mut d = Vec::new();
        let mut x = Vec::new();
        sw.arbitrate(now, &mut d, &mut x);
        (d, x)
    }

    #[test]
    fn frame_is_held_for_the_switching_latency() {
        let mut sw = Switch::new(cfg(2, 8));
        let eligible = sw.enqueue(0, 1, 100, 1000, 7);
        assert_eq!(eligible, 1000 + 300 * NANOS);
        let (d, _) = drain(&mut sw, eligible - 1);
        assert!(d.is_empty(), "not yet eligible");
        let (d, _) = drain(&mut sw, eligible);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].src, d[0].dst, d[0].payload), (0, 1, 7));
        assert!(d[0].egress_end > eligible, "serialization takes time");
    }

    #[test]
    fn round_robin_grants_rotate_over_ingress_ports() {
        let mut sw = Switch::new(cfg(4, 64));
        // Ports 0, 1, 2 each have two frames for port 3, all eligible.
        for src in 0..3usize {
            for i in 0..2u32 {
                sw.enqueue(src, 3, 100, 0, src as u32 * 10 + i);
            }
        }
        let (d, x) = drain(&mut sw, 300 * NANOS);
        assert!(x.is_empty());
        let order: Vec<u32> = d.iter().map(|g| g.payload).collect();
        // Cursor starts at 0 and advances past each granted port:
        // 0, 1, 2, 0, 1, 2 — no ingress port is served twice in a row
        // while another has an eligible frame.
        assert_eq!(order, vec![0, 10, 20, 1, 11, 21]);
    }

    #[test]
    fn egress_queue_tail_drops_at_the_bound() {
        let mut sw = Switch::new(cfg(3, 2));
        // Six eligible frames race for port 2, which holds at most two.
        for i in 0..3u32 {
            sw.enqueue(0, 2, 1_000, 0, i);
            sw.enqueue(1, 2, 1_000, 0, 100 + i);
        }
        let (d, x) = drain(&mut sw, 300 * NANOS);
        assert_eq!(d.len(), 2, "queue admits exactly its capacity");
        assert_eq!(x.len(), 4, "the rest tail-drop");
        assert_eq!(sw.counters(2).tail_drops, 4);
        assert_eq!(sw.counters(2).frames_out, 2);
        // Drops preserve src attribution for per-port accounting.
        assert!(x.iter().all(|t| t.dst == 2));
    }

    #[test]
    fn egress_queue_drains_as_time_advances() {
        let mut sw = Switch::new(cfg(2, 1));
        sw.enqueue(0, 1, 1_000, 0, 1);
        let (d, _) = drain(&mut sw, 300 * NANOS);
        let end = d[0].egress_end;
        // A second frame while the first still serializes: dropped.
        sw.enqueue(0, 1, 1_000, end - 200 * NANOS, 2);
        let (d, x) = drain(&mut sw, end - 200 * NANOS + 300 * NANOS);
        // eligible at end+100ns > end: queue drained by then, admitted.
        assert_eq!((d.len(), x.len()), (1, 0));
        assert_eq!(sw.counters(1).frames_out, 2);
    }

    #[test]
    fn counters_track_bytes_and_frames() {
        let mut sw = Switch::new(cfg(2, 8));
        sw.enqueue(0, 1, 1_500, 0, 0);
        sw.enqueue(0, 1, 500, 0, 1);
        drain(&mut sw, 300 * NANOS);
        let c = sw.counters(1);
        assert_eq!((c.frames_out, c.bytes_out), (2, 2_000));
        assert_eq!(sw.counters(0).frames_in, 2);
        assert_eq!(sw.pending(), 0);
    }

    #[test]
    fn ingress_fifo_preserves_arrival_order_per_port() {
        let mut sw = Switch::new(cfg(2, 8));
        for i in 0..5u32 {
            sw.enqueue(0, 1, 100, i as u64 * 10, i);
        }
        let (d, _) = drain(&mut sw, 300 * NANOS + 100);
        let order: Vec<u32> = d.iter().map(|g| g.payload).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        // Egress completion times are strictly increasing: the
        // serializer admits them back to back.
        assert!(d.windows(2).all(|w| w[0].egress_end < w[1].egress_end));
    }

    #[test]
    fn step_marking_fires_exactly_at_the_threshold() {
        // Step marker at occupancy 2: frames 0 and 1 (seeing 0 and 1
        // queued ahead) pass unmarked; frames 2.. (seeing >= 2) are CE.
        let mut c = cfg(3, 64);
        c.ecn = Some(EcnConfig::step(2));
        let mut sw = Switch::new(c);
        for i in 0..6u32 {
            sw.enqueue(0, 2, 1_000, 0, i);
        }
        let (d, x) = drain(&mut sw, 300 * NANOS);
        assert!(x.is_empty());
        let marks: Vec<bool> = d.iter().map(|g| g.marked).collect();
        assert_eq!(marks, vec![false, false, true, true, true, true]);
        assert_eq!(sw.counters(2).ecn_marked, 4);
        assert_eq!(sw.counters(2).queue_peak, 6);
    }

    #[test]
    fn queue_peak_tracks_the_high_watermark() {
        let mut sw = Switch::new(cfg(2, 64));
        sw.enqueue(0, 1, 1_000, 0, 0);
        drain(&mut sw, 300 * NANOS);
        assert_eq!(sw.counters(1).queue_peak, 1);
        // Two more while the first may still serialize.
        sw.enqueue(0, 1, 1_000, 0, 1);
        sw.enqueue(0, 1, 1_000, 0, 2);
        drain(&mut sw, 300 * NANOS);
        assert_eq!(sw.counters(1).queue_peak, 3);
    }

    #[test]
    fn wred_band_marks_probabilistically_and_reproducibly() {
        let run = |seed: u64| {
            let mut c = cfg(2, 4096);
            c.ecn = Some(EcnConfig {
                min_threshold: 0,
                max_threshold: 1_000,
                max_mark_prob: 0.5,
                seed,
            });
            let mut sw = Switch::new(c);
            for i in 0..900u32 {
                sw.enqueue(0, 1, 1_000, 0, i);
            }
            let (d, _) = drain(&mut sw, 300 * NANOS);
            d.iter().map(|g| g.marked).collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same marks");
        assert_ne!(a, run(8), "different seed, different marks");
        // Probability ramps from 0 toward 0.5·0.9: the tail should mark
        // far more often than the head, and neither all nor none.
        let head = a[..300].iter().filter(|&&m| m).count();
        let tail = a[600..].iter().filter(|&&m| m).count();
        assert!(head < tail, "head {head} vs tail {tail}");
        assert!(tail > 60 && head < 120);
    }

    #[test]
    fn disabled_ecn_never_marks() {
        let mut sw = Switch::new(cfg(3, 2));
        for i in 0..6u32 {
            sw.enqueue(0, 2, 1_000, 0, i);
        }
        let (d, _) = drain(&mut sw, 300 * NANOS);
        assert!(d.iter().all(|g| !g.marked));
        assert_eq!(sw.counters(2).ecn_marked, 0);
    }

    #[test]
    fn arbitration_is_deterministic() {
        let run = || {
            let mut sw = Switch::new(cfg(8, 4));
            for src in 0..8usize {
                for i in 0..4u32 {
                    let dst = (src + 1 + i as usize) % 8;
                    if dst != src {
                        sw.enqueue(src, dst, 200 + i as u64, i as u64, src as u32 * 100 + i);
                    }
                }
            }
            let mut d = Vec::new();
            let mut x = Vec::new();
            sw.arbitrate(400 * NANOS, &mut d, &mut x);
            (
                d.iter()
                    .map(|g| (g.src, g.dst, g.egress_end, g.payload))
                    .collect::<Vec<_>>(),
                x.len(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Everything observable about a switch after a tick.
    type Observed = (
        Vec<(usize, usize, Time, bool, u32)>,
        Vec<(usize, usize, u32)>,
        Vec<usize>,
        Vec<SwitchPortCounters>,
        usize,
    );

    fn observe(
        sw: &Switch<u32>,
        deliveries: &[Delivery<u32>],
        drops: &[TailDrop<u32>],
    ) -> Observed {
        (
            deliveries
                .iter()
                .map(|d| (d.src, d.dst, d.egress_end, d.marked, d.payload))
                .collect(),
            drops.iter().map(|x| (x.src, x.dst, x.payload)).collect(),
            sw.rr.clone(),
            sw.counters.clone(),
            sw.pending(),
        )
    }

    #[test]
    fn arbitrate_matches_the_reference_sweep_on_random_schedules() {
        let mut rng = SimRng::seed(0x5A17_C4ED);
        // 63/64/65 straddle the first candidate-word boundary; the random
        // draws reach up to 70 ports.
        let fixed_ports = [2usize, 3, 8, 17, 63, 64, 65, 70];
        for case in 0..64usize {
            let ports = match fixed_ports.get(case) {
                Some(&p) => p,
                None => rng.range(2, 71) as usize,
            };
            let capacity = if rng.chance(0.5) {
                rng.range(1, 5) as usize
            } else {
                1024
            };
            let ecn = match case % 3 {
                0 => None,
                1 => Some(EcnConfig::step(rng.range(0, 6) as usize)),
                _ => Some(EcnConfig {
                    min_threshold: 0,
                    max_threshold: rng.range(2, 40) as usize,
                    max_mark_prob: 0.7,
                    seed: rng.next_u64(),
                }),
            };
            let mut c = cfg(ports, capacity);
            c.ecn = ecn;
            let mut fast = Switch::<u32>::new(c);
            let mut slow = Switch::<u32>::new(c);
            // A few hot egress ports make candidate sets collide.
            let hot = rng.range(1, 4) as usize;
            let mut now: Time = 0;
            let mut payload = 0u32;
            for _tick in 0..30 {
                for _ in 0..rng.below(3 * ports as u64) {
                    let src = rng.below(ports as u64) as usize;
                    let dst = if rng.chance(0.6) {
                        rng.below(hot.min(ports) as u64) as usize
                    } else {
                        rng.below(ports as u64) as usize
                    };
                    if dst == src {
                        continue;
                    }
                    // Some frames are received "late", so a head can block
                    // eligible frames behind it across ticks.
                    let received = now + rng.below(2) * rng.below(400 * NANOS);
                    let bytes = rng.range(64, 1_600);
                    fast.enqueue(src, dst, bytes, received, payload);
                    slow.enqueue(src, dst, bytes, received, payload);
                    payload += 1;
                }
                now += rng.range(1, 600 * NANOS);
                let (mut d, mut x) = (Vec::new(), Vec::new());
                fast.arbitrate(now, &mut d, &mut x);
                let got = observe(&fast, &d, &x);
                let (mut d, mut x) = (Vec::new(), Vec::new());
                slow.arbitrate_reference(now, &mut d, &mut x);
                assert_eq!(
                    got,
                    observe(&slow, &d, &x),
                    "case {case}: {ports} ports, capacity {capacity}, {ecn:?}"
                );
                assert!(
                    fast.active.iter().chain(&fast.candidates).all(|&w| w == 0),
                    "case {case}: scratch not cleared"
                );
            }
            // Equal marks could still hide unequal RNG consumption.
            assert_eq!(
                fast.mark_rng.as_mut().map(SimRng::next_u64),
                slow.mark_rng.as_mut().map(SimRng::next_u64),
                "case {case}: mark RNG streams diverged"
            );
        }
    }
}
