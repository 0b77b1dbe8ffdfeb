//! The deterministic event queue at the heart of the simulator.
//!
//! Events are ordered by (time, insertion sequence): two events scheduled
//! for the same instant fire in the order they were scheduled, which makes
//! simulations reproducible regardless of payload type.
//!
//! Storage is a hybrid of a hierarchical timer wheel for
//! near-future events (O(1) scheduling, the overwhelmingly common case:
//! link serialization, PCIe latencies, DMA completions) and an overflow
//! min-heap for far-future deadlines, which cascade into the wheel as the
//! clock advances. The original `BinaryHeap` engine survives as the
//! test-only `ReferenceEventQueue`, differential-tested against the wheel
//! in this module's tests — the same keep-the-slow-one pattern as the
//! byte-at-a-time CRC references.

use std::cmp::Ordering;

use strom_telemetry::{Counter, TraceSink};

use crate::time::{Time, TimeDelta};
use crate::wheel::TimerWheel;

/// Cap on the number of events [`EventQueue`] pulls from the wheel in one
/// run. Bounds the memmove cost when [`EventQueue::schedule_at`] splices
/// an event into a partially drained run; buckets larger than this
/// cascade level-by-level as before.
const RUN_MAX: usize = 4096;

/// An event together with its firing time and a tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Absolute simulated time at which the event fires.
    pub at: Time,
    /// Monotonic insertion sequence; breaks ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that a `BinaryHeap` (a max-heap) pops the earliest
        // event first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A priority queue of timed events with a monotonically advancing clock.
///
/// # Examples
///
/// ```
/// use strom_sim::EventQueue;
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(100, "b");
/// q.schedule_at(50, "a");
/// assert_eq!(q.pop().map(|s| (s.at, s.event)), Some((50, "a")));
/// assert_eq!(q.now(), 50);
/// assert_eq!(q.pop().map(|s| (s.at, s.event)), Some((100, "b")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The wheel carries compact `(at, seq, slab index)` tokens, not
    /// payloads. A pending event's payload is written to [`Self::pool`]
    /// once at schedule time and read once at pop time; every cascade,
    /// sort, and batch copy in between moves 24 bytes instead of a full
    /// `Scheduled<E>`. The measured reason is memory: bucket buffers and
    /// the run buffer sized for whole events raised the testbed's peak
    /// live heap by 4–19 % (DESIGN.md §12).
    wheel: TimerWheel<u32>,
    /// The earliest *run* of tokens — one or more whole wheel buckets,
    /// possibly spanning distinct firing times — in ascending `(at, seq)`
    /// order exactly as [`TimerWheel::pop_run`] produced it. Served
    /// front-to-back through [`Self::batch_pos`] so a refill never
    /// reverses or moves the run. Events scheduled before the run's last
    /// time while it drains are spliced into position
    /// ([`Self::schedule_at`]); everything else goes to the wheel, which
    /// therefore always fires at or after the run's last event.
    batch: Vec<Scheduled<u32>>,
    /// Index of the next unserved token in [`Self::batch`].
    batch_pos: usize,
    /// Payload slab, indexed by the token carried through the wheel.
    pool: Vec<Option<E>>,
    /// Free slab slots, reused LIFO so recently vacated (cache-warm)
    /// slots are refilled first.
    free: Vec<u32>,
    now: Time,
    seq: u64,
    processed: u64,
    trace: TraceSink,
    dispatched: Option<Counter>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self {
            wheel: TimerWheel::new(),
            batch: Vec::new(),
            batch_pos: 0,
            pool: Vec::new(),
            free: Vec::new(),
            now: 0,
            seq: 0,
            processed: 0,
            trace: TraceSink::default(),
            dispatched: None,
        }
    }

    /// Parks `event` in the slab and returns its token.
    fn park(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.pool[i as usize] = Some(event);
                i
            }
            None => {
                let i = u32::try_from(self.pool.len()).expect("more than u32::MAX pending events");
                self.pool.push(Some(event));
                i
            }
        }
    }

    /// Reclaims a popped token's payload and frees its slab slot.
    fn unpark(&mut self, s: Scheduled<u32>) -> Scheduled<E> {
        let event = self.pool[s.event as usize]
            .take()
            .expect("token points at a live slab slot");
        self.free.push(s.event);
        Scheduled {
            at: s.at,
            seq: s.seq,
            event,
        }
    }

    /// Attaches telemetry: the queue publishes its clock to `trace` on every
    /// pop/advance (so instrumented components can stamp events with sim
    /// time without holding a clock reference) and counts dispatched events
    /// on `dispatched`. Either may be disabled/`None`.
    pub fn set_telemetry(&mut self, trace: TraceSink, dispatched: Option<Counter>) {
        trace.set_now(self.now);
        self.trace = trace;
        self.dispatched = dispatched;
    }

    /// The current simulated time (the firing time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The number of events still pending.
    pub fn pending(&self) -> usize {
        self.wheel.len() + self.batch.len() - self.batch_pos
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.batch_pos == self.batch.len() && self.wheel.is_empty()
    }

    /// Refills the run buffer from the wheel when it is fully served.
    #[inline]
    fn refill(&mut self) {
        if self.batch_pos == self.batch.len() {
            self.batch.clear();
            self.batch_pos = 0;
            self.wheel.pop_run(&mut self.batch, RUN_MAX);
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` — hardware cannot react
    /// retroactively, and clamping keeps the clock monotonic.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let event = self.park(event);
        if self.batch.last().is_some_and(|max| at < max.at) && self.batch_pos < self.batch.len() {
            // The event lands inside the drained run, where the wheel can
            // no longer order it: splice it into position among the
            // unserved tokens. Its seq is the largest yet, so it goes
            // after every token at or before `at`. Runs are capped at
            // `RUN_MAX`, so the memmove stays small.
            let pos = self.batch_pos + self.batch[self.batch_pos..].partition_point(|s| s.at <= at);
            self.batch.insert(pos, Scheduled { at, seq, event });
            return;
        }
        if self.wheel.is_empty() {
            // Nothing bounds the cursor: pull it up to the clock so a
            // long-idle queue files near-future events O(1) again.
            self.wheel.reset_cursor(self.now);
        }
        self.wheel.insert(Scheduled { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: TimeDelta, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pops the earliest pending event, advancing the clock to its time.
    ///
    /// If the clock was moved past the event's firing time by
    /// [`Self::advance_to`], the event still pops (in order) and the clock
    /// simply does not move backwards.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.refill();
        let s = self.batch.get(self.batch_pos)?.clone();
        self.batch_pos += 1;
        self.now = self.now.max(s.at);
        self.processed += 1;
        self.trace.set_now(self.now);
        if let Some(c) = &self.dispatched {
            c.inc();
        }
        Some(self.unpark(s))
    }

    /// Drains every pending event sharing the earliest firing time into
    /// `out` (appended in `(time, seq)` order) — same-timestamp dispatch
    /// without re-touching the queue per event. Advances the clock
    /// exactly as the equivalent [`Self::pop`] loop would and returns the
    /// number of events drained.
    pub fn pop_batch(&mut self, out: &mut Vec<Scheduled<E>>) -> usize {
        self.refill();
        let Some(t) = self.batch.get(self.batch_pos).map(|s| s.at) else {
            return 0;
        };
        let start = out.len();
        loop {
            // The earliest tick is the equal-time group at the front of
            // the unserved run.
            while let Some(s) = self.batch.get(self.batch_pos).filter(|s| s.at == t) {
                let s = s.clone();
                self.batch_pos += 1;
                out.push(self.unpark(s));
            }
            // Same-tick events scheduled during a partial pop of this tick
            // went to the wheel only when the tick was the run's last time
            // (earlier ones are spliced into the run); they are still part
            // of the earliest tick, so serve them from the next run.
            if self.batch_pos < self.batch.len() || self.wheel.min_time() != Some(t) {
                break;
            }
            self.refill();
        }
        let n = out.len() - start;
        self.now = self.now.max(t);
        self.processed += n as u64;
        self.trace.set_now(self.now);
        if let Some(c) = &self.dispatched {
            c.add(n as u64);
        }
        n
    }

    /// Advances the clock to `t` without processing events — used to model
    /// host CPU work happening between simulated I/O (e.g. a software
    /// CRC64 pass). Never moves the clock backwards.
    pub fn advance_to(&mut self, t: Time) {
        self.now = self.now.max(t);
        self.trace.set_now(self.now);
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.batch
            .get(self.batch_pos)
            .map(|s| s.at)
            .or_else(|| self.wheel.min_time())
    }
}

#[cfg(test)]
use std::collections::BinaryHeap;

/// The original `BinaryHeap`-backed event queue, kept as the differential
/// reference for the timer wheel (the engine equivalent of the
/// byte-at-a-time CRC references): O(log n) per operation, trivially
/// correct by construction. The tests below drive identical schedules
/// through both and assert identical streams.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: Time,
    seq: u64,
    processed: u64,
}

#[cfg(test)]
impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            processed: 0,
        }
    }

    /// See [`EventQueue::now`].
    pub fn now(&self) -> Time {
        self.now
    }

    /// See [`EventQueue::processed`].
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// See [`EventQueue::pending`].
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// See [`EventQueue::schedule_at`].
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// See [`EventQueue::schedule_in`].
    pub fn schedule_in(&mut self, delay: TimeDelta, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// See [`EventQueue::pop`].
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let s = self.heap.pop()?;
        self.now = self.now.max(s.at);
        self.processed += 1;
        Some(s)
    }

    /// See [`EventQueue::pop_batch`]: drains every event tied with the
    /// earliest firing time, via repeated heap pops.
    pub fn pop_batch(&mut self, out: &mut Vec<Scheduled<E>>) -> usize {
        let Some(at) = self.peek_time() else {
            return 0;
        };
        let mut n = 0;
        while self.heap.peek().map(|s| s.at) == Some(at) {
            out.push(self.heap.pop().expect("peeked"));
            n += 1;
        }
        self.now = self.now.max(at);
        self.processed += n as u64;
        n
    }

    /// See [`EventQueue::advance_to`].
    pub fn advance_to(&mut self, t: Time) {
        self.now = self.now.max(t);
    }

    /// See [`EventQueue::peek_time`].
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, 3);
        q.schedule_at(10, 1);
        q.schedule_at(20, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(42, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.schedule_at(5, ());
        q.pop();
        assert_eq!(q.now(), 5);
        // Scheduling in the past is clamped to now.
        q.schedule_at(1, ());
        let s = q.pop().unwrap();
        assert_eq!(s.at, 5);
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "first");
        q.pop();
        q.schedule_in(25, "second");
        assert_eq!(q.pop().unwrap().at, 125);
    }

    #[test]
    fn telemetry_hook_publishes_clock_and_counts_dispatches() {
        let mut q = EventQueue::new();
        let trace = TraceSink::enabled(8);
        let dispatched = Counter::default();
        q.set_telemetry(trace.clone(), Some(dispatched.clone()));
        q.schedule_at(40, ());
        q.schedule_at(90, ());
        q.pop();
        assert_eq!(trace.now(), 40);
        q.advance_to(70);
        assert_eq!(trace.now(), 70);
        q.pop();
        assert_eq!(trace.now(), 90);
        assert_eq!(dispatched.get(), 2);
    }

    #[test]
    fn counters_track_processing() {
        let mut q = EventQueue::new();
        q.schedule_at(1, ());
        q.schedule_at(2, ());
        assert_eq!(q.pending(), 2);
        assert_eq!(q.processed(), 0);
        q.pop();
        assert_eq!(q.pending(), 1);
        assert_eq!(q.processed(), 1);
        assert_eq!(q.peek_time(), Some(2));
    }

    #[test]
    fn pop_batch_drains_exactly_the_earliest_tick() {
        let mut q = EventQueue::new();
        q.schedule_at(7, "a");
        q.schedule_at(7, "b");
        q.schedule_at(9, "c");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 2);
        let got: Vec<_> = out.iter().map(|s| (s.at, s.event)).collect();
        assert_eq!(got, vec![(7, "a"), (7, "b")]);
        assert_eq!(q.now(), 7);
        assert_eq!(q.processed(), 2);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), 1);
        assert_eq!(out[0].event, "c");
        assert_eq!(q.pop_batch(&mut out), 0);
    }

    #[test]
    fn pop_batch_counts_telemetry_per_event() {
        let mut q = EventQueue::new();
        let trace = TraceSink::enabled(8);
        let dispatched = Counter::default();
        q.set_telemetry(trace.clone(), Some(dispatched.clone()));
        for _ in 0..3 {
            q.schedule_at(11, ());
        }
        let mut out = Vec::new();
        q.pop_batch(&mut out);
        assert_eq!(dispatched.get(), 3);
        assert_eq!(trace.now(), 11);
    }

    #[test]
    fn partial_pop_then_batch_preserves_order() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule_at(5, i);
        }
        assert_eq!(q.pop().unwrap().event, 0);
        // A same-tick event scheduled mid-bucket still belongs to the
        // earliest tick — the batch drains it after the original events.
        q.schedule_at(5, 4);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 4);
        assert_eq!(
            out.iter().map(|s| s.event).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
    }

    #[test]
    fn reference_queue_matches_on_a_small_interleaving() {
        let mut q = EventQueue::new();
        let mut r = ReferenceEventQueue::new();
        for (at, ev) in [(30, 'a'), (10, 'b'), (30, 'c'), (20, 'd')] {
            q.schedule_at(at, ev);
            r.schedule_at(at, ev);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event));
                }
                (None, None) => break,
                _ => panic!("queues diverged: {a:?} vs {b:?}"),
            }
        }
    }

    /// The timer-wheel queue and the reference heap queue produce identical
    /// `(at, seq, event)` streams under arbitrary interleavings of
    /// `schedule_at` (including past-time clamping and same-tick ties),
    /// `schedule_in`, `pop`, `pop_batch` and `advance_to`, including a
    /// tick that gains an event after one of its events popped, so
    /// `pop_batch` must continue that tick from the wheel when it runs
    /// past the run buffer's end. This is the determinism proof
    /// the engine swap rests on: the wheel's order is *defined* as whatever
    /// the trivially correct heap produces.
    #[test]
    fn wheel_and_reference_heap_are_indistinguishable() {
        fn same_batch(q: &mut EventQueue<u32>, r: &mut ReferenceEventQueue<u32>, round: u32) {
            let (mut qa, mut rb) = (Vec::new(), Vec::new());
            assert_eq!(q.pop_batch(&mut qa), r.pop_batch(&mut rb));
            let a: Vec<_> = qa.iter().map(|s| (s.at, s.seq, s.event)).collect();
            let b: Vec<_> = rb.iter().map(|s| (s.at, s.seq, s.event)).collect();
            assert_eq!(a, b, "pop_batch diverged (round {round})");
        }
        let mut rng = SimRng::seed(0x11ee1);
        for round in 0..60 {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut r: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
            let mut next_ev = 0u32;
            for _ in 0..rng.range(10, 400) {
                match rng.below(11) {
                    // Schedule: a mix of near, far (multi-level / overflow),
                    // tied, and past (clamped) times.
                    0..=4 => {
                        let at = match rng.below(4) {
                            0 => q.now().saturating_add(rng.below(64)),
                            1 => q.now().saturating_add(rng.below(1 << 20)),
                            2 => q.now().saturating_add(rng.below(1 << 40)),
                            // Possibly in the past: both queues must clamp.
                            _ => rng.below(q.now().max(1) * 2 + 100),
                        };
                        q.schedule_at(at, next_ev);
                        r.schedule_at(at, next_ev);
                        next_ev += 1;
                    }
                    5 => {
                        let d = rng.below(1 << 30);
                        q.schedule_in(d, next_ev);
                        r.schedule_in(d, next_ev);
                        next_ev += 1;
                    }
                    6..=7 => {
                        let a = q.pop().map(|s| (s.at, s.seq, s.event));
                        let b = r.pop().map(|s| (s.at, s.seq, s.event));
                        assert_eq!(a, b, "pop diverged (round {round})");
                    }
                    8 => {
                        let t = q.now().saturating_add(rng.below(1 << 24));
                        q.advance_to(t);
                        r.advance_to(t);
                    }
                    9 => {
                        // Pop one event of a tick, schedule at that tick,
                        // then drain the tick.
                        let a = q.pop().map(|s| (s.at, s.seq, s.event));
                        let b = r.pop().map(|s| (s.at, s.seq, s.event));
                        assert_eq!(a, b, "pop diverged (round {round})");
                        if let Some((at, _, _)) = a {
                            q.schedule_at(at, next_ev);
                            r.schedule_at(at, next_ev);
                            next_ev += 1;
                        }
                        same_batch(&mut q, &mut r, round);
                    }
                    _ => same_batch(&mut q, &mut r, round),
                }
                assert_eq!(q.now(), r.now());
                assert_eq!(q.pending(), r.pending());
                assert_eq!(q.peek_time(), r.peek_time());
            }
            // Drain fully: the tails must match event for event.
            loop {
                let a = q.pop().map(|s| (s.at, s.seq, s.event));
                let b = r.pop().map(|s| (s.at, s.seq, s.event));
                assert_eq!(a, b, "drain diverged (round {round})");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(q.processed(), r.processed());
        }
    }

    /// Dense same-tick bursts: many events on few distinct times exercise the
    /// bucket sort and the batch/wheel handoff, where ordering bugs would
    /// hide. Ties must pop in exact insertion order on both engines.
    #[test]
    fn wheel_preserves_insertion_order_on_heavy_ties() {
        let mut rng = SimRng::seed(0x7135);
        for _ in 0..40 {
            let mut q = EventQueue::new();
            let mut r = ReferenceEventQueue::new();
            let ticks: Vec<u64> = (0..rng.range(1, 8)).map(|_| rng.below(1 << 14)).collect();
            for i in 0..rng.range(50, 300) {
                let at = ticks[rng.below(ticks.len() as u64) as usize];
                q.schedule_at(at, i);
                r.schedule_at(at, i);
            }
            while let Some(a) = q.pop() {
                let b = r.pop().expect("same length");
                assert_eq!((a.at, a.seq, a.event), (b.at, b.seq, b.event));
            }
            assert!(r.pop().is_none());
        }
    }

    /// Hold-depth-constant churn at every depth the wheel is sized for
    /// (1e2 … 1e6 pending events): prefill, then pop one / schedule one,
    /// with deltas shaped like the testbed's mix — mostly sub-2 µs pipeline
    /// hops, some 2 µs–200 µs timer waits, and a thin 1 s–10 s tail that
    /// lives in the overflow heap. Both engines must pop the same
    /// `(at, seq, event)` stream at every depth.
    #[test]
    fn wheel_and_reference_heap_agree_at_every_depth() {
        fn delta(rng: &mut SimRng) -> u64 {
            match rng.below(100) {
                0 => rng.range(1_000_000_000, 10_000_000_000),
                1..=9 => rng.range(2_000_000, 200_000_000),
                _ => rng.range(100, 2_000_000),
            }
        }
        for depth in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            let mut rng = SimRng::seed(0x51ed ^ depth);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut r: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
            for i in 0..depth {
                let at = delta(&mut rng);
                q.schedule_at(at, i);
                r.schedule_at(at, i);
            }
            for i in 0..20_000u64 {
                let a = q.pop().expect("churn holds depth constant");
                let b = r.pop().expect("churn holds depth constant");
                assert_eq!(
                    (a.at, a.seq, a.event),
                    (b.at, b.seq, b.event),
                    "depth {depth}: pop {i} diverged"
                );
                let at = a.at + delta(&mut rng);
                q.schedule_at(at, i ^ a.at);
                r.schedule_at(at, i ^ a.at);
            }
            assert_eq!(q.pending(), r.pending(), "depth {depth}");
        }
    }
}
