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
/// run. Bounds the memmove cost when [`EventQueue::schedule_reserved`] splices
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
    /// sort, and run copy in between moves 24 bytes instead of a full
    /// `Scheduled<E>`. The measured reason is memory: bucket buffers and
    /// the run buffer sized for whole events raised the testbed's peak
    /// live heap by 4–19 % (DESIGN.md §12).
    wheel: TimerWheel<u32>,
    /// The earliest *run* of tokens — one or more whole wheel buckets,
    /// possibly spanning distinct firing times — in ascending `(at, seq)`
    /// order exactly as [`TimerWheel::pop_run`] produced it. Served
    /// front-to-back through [`Self::run_pos`] so a refill never
    /// reverses or moves the run. Events scheduled before the run's last
    /// time while it drains are spliced into position
    /// ([`Self::schedule_reserved`]); everything else goes to the wheel, which
    /// therefore always fires at or after the run's last event.
    run: Vec<Scheduled<u32>>,
    /// Index of the next unserved token in [`Self::run`].
    run_pos: usize,
    /// Payload slab, indexed by the token carried through the wheel.
    pool: Vec<Option<E>>,
    /// Free slab slots, reused LIFO so recently vacated (cache-warm)
    /// slots are refilled first.
    free: Vec<u32>,
    now: Time,
    seq: u64,
    /// The key of the last event popped, which every later insert must
    /// follow ([`Self::schedule_reserved`]).
    #[cfg(debug_assertions)]
    popped: Option<(Time, u64)>,
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
            run: Vec::new(),
            run_pos: 0,
            pool: Vec::new(),
            free: Vec::new(),
            now: 0,
            seq: 0,
            #[cfg(debug_assertions)]
            popped: None,
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
    #[inline]
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

    /// The number of events still pending.
    pub fn pending(&self) -> usize {
        self.wheel.len() + self.run.len() - self.run_pos
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run_pos == self.run.len() && self.wheel.is_empty()
    }

    /// Refills the run buffer from the wheel when it is fully served.
    #[inline]
    fn refill(&mut self) {
        if self.run_pos == self.run.len() {
            self.run.clear();
            self.run_pos = 0;
            self.wheel.pop_run(&mut self.run, RUN_MAX);
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` — hardware cannot react
    /// retroactively, and clamping keeps the clock monotonic.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let seq = self.reserve();
        self.schedule_reserved(at.max(self.now), seq, event);
    }

    /// Takes the next insertion sequence number without scheduling
    /// anything: the tie-break an event scheduled now would get. A caller
    /// that holds events back (a NIC's posted DMA writes wait in one FIFO
    /// and only the head is scheduled) reserves each one's seq when it
    /// arises and files it later with [`Self::schedule_reserved`], so it
    /// fires at the same `(at, seq)` as if it had been scheduled then.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at the key `(at, seq)`, `seq` taken from
    /// [`Self::reserve`] — the one insert path; [`Self::schedule_at`]
    /// calls it with a fresh seq.
    ///
    /// `at` is not clamped to `now`: [`Self::advance_to`] may have moved
    /// the clock past a held-back event, which must still fire at its
    /// original key. The caller guarantees the key follows every event
    /// popped so far, as a write scheduled by its popped predecessor
    /// does (same or later time, larger seq); the event then pops in
    /// exact `(at, seq)` order, and the clock does not move backwards.
    ///
    /// # Panics
    ///
    /// In debug builds, if the key does not follow the last popped key.
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: E) {
        #[cfg(debug_assertions)]
        assert!(
            self.popped.is_none_or(|key| key < (at, seq)),
            "key ({at}, {seq}) does not follow the last popped {:?}",
            self.popped
        );
        let event = self.park(event);
        let s = Scheduled { at, seq, event };
        let unserved = &self.run[self.run_pos..];
        // An event before the last unserved token of the drained run
        // lands where the wheel can no longer order it, and so does one
        // before the wheel's cursor (only a reserved key can be: the
        // clock ran ahead of it): splice it into position among the
        // unserved tokens. A fresh seq is the largest yet, so it goes
        // after every token at or before `at`. Runs are capped at
        // `RUN_MAX`, so the memmove stays small.
        if at < self.wheel.cursor()
            || unserved
                .last()
                .is_some_and(|max| (at, seq) < (max.at, max.seq))
        {
            let pos = self.run_pos + unserved.partition_point(|t| (t.at, t.seq) < (at, seq));
            self.run.insert(pos, s);
            return;
        }
        if self.wheel.is_empty() {
            // Nothing bounds the cursor: pull it up to the clock (or to
            // a reserved key behind it) so a long-idle queue files
            // near-future events O(1) again.
            self.wheel.reset_cursor(self.now.min(at));
        }
        self.wheel.insert(s);
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
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.refill();
        let s = self.run.get(self.run_pos)?.clone();
        self.run_pos += 1;
        #[cfg(debug_assertions)]
        {
            self.popped = Some((s.at, s.seq));
        }
        self.now = self.now.max(s.at);
        self.trace.set_now(self.now);
        if let Some(c) = &self.dispatched {
            c.inc();
        }
        Some(self.unpark(s))
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
        self.run
            .get(self.run_pos)
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
}

#[cfg(test)]
impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// See [`EventQueue::now`].
    pub fn now(&self) -> Time {
        self.now
    }

    /// See [`EventQueue::pending`].
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// See [`EventQueue::schedule_at`].
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let seq = self.reserve();
        self.schedule_reserved(at.max(self.now), seq, event);
    }

    /// See [`EventQueue::reserve`].
    pub fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// See [`EventQueue::schedule_reserved`].
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: E) {
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
        Some(s)
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
        q.pop();
        assert_eq!(q.pending(), 1);
        assert_eq!(q.peek_time(), Some(2));
    }

    #[test]
    fn partial_pop_then_schedule_preserves_order() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule_at(5, i);
        }
        assert_eq!(q.pop().unwrap().event, 0);
        // A same-tick event scheduled mid-bucket still belongs to the
        // earliest tick: it pops after the original events.
        q.schedule_at(5, 4);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| (s.at, s.event))).collect();
        assert_eq!(rest, [(5, 1), (5, 2), (5, 3), (5, 4)]);
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
    /// `schedule_in`, `pop` and `advance_to`, including a tick that gains
    /// an event after one of its events popped, so the tick continues
    /// from the wheel once the run buffer is served. This is the
    /// determinism proof the engine swap rests on: the wheel's order is
    /// *defined* as whatever the trivially correct heap produces.
    #[test]
    fn wheel_and_reference_heap_are_indistinguishable() {
        /// Pops the earliest tick dry on both queues, event for event.
        fn same_tick(q: &mut EventQueue<u32>, r: &mut ReferenceEventQueue<u32>, round: u32) {
            let t = r.peek_time();
            while t.is_some() && r.peek_time() == t {
                let a = q.pop().map(|s| (s.at, s.seq, s.event));
                let b = r.pop().map(|s| (s.at, s.seq, s.event));
                assert_eq!(a, b, "tick drain diverged (round {round})");
            }
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
                        same_tick(&mut q, &mut r, round);
                    }
                    _ => same_tick(&mut q, &mut r, round),
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
        }
    }

    /// Dense same-tick bursts: many events on few distinct times exercise the
    /// bucket sort and the run/wheel handoff, where ordering bugs would
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

    /// A held-back event filed at its reserved key ties an earlier-issued
    /// seq with the unserved part of a partly drained run: it splices in
    /// ahead of the later seqs at its time.
    #[test]
    fn a_reserved_key_splices_into_a_partly_drained_run() {
        let mut q = EventQueue::new();
        let held = q.reserve();
        for (at, ev) in [(10, 'a'), (20, 'b'), (20, 'c')] {
            q.schedule_at(at, ev);
        }
        assert_eq!(q.pop().map(|s| s.event), Some('a'));
        // The run's last unserved token is at the held key's time.
        q.schedule_reserved(20, held, 'w');
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| (s.at, s.seq, s.event))).collect();
        assert_eq!(rest, [(20, 0, 'w'), (20, 2, 'b'), (20, 3, 'c')]);
    }

    /// `advance_to` moved the clock (and with it the wheel's cursor) past
    /// a held-back event's time: filed afterwards, it keeps its key and
    /// pops first, and the clock does not move back.
    #[test]
    fn a_reserved_key_behind_the_clock_keeps_its_place() {
        let mut q = EventQueue::new();
        let held = q.reserve();
        q.advance_to(1_000_000);
        q.schedule_at(0, 'b');
        q.schedule_reserved(500, held, 'w');
        assert_eq!(q.peek_time(), Some(500));
        assert_eq!(q.pop().map(|s| (s.at, s.event)), Some((500, 'w')));
        assert_eq!(q.now(), 1_000_000);
        assert_eq!(q.pop().map(|s| (s.at, s.event)), Some((1_000_000, 'b')));
        assert!(q.pop().is_none());
    }

    /// A key that does not follow the last popped one would pop out of
    /// order; debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not follow the last popped")]
    fn a_reserved_key_before_the_last_pop_is_refused() {
        let mut q = EventQueue::new();
        let early = q.reserve();
        q.schedule_at(10, 'a');
        assert_eq!(q.pop().map(|s| s.event), Some('a'));
        q.schedule_reserved(10, early, 'w');
    }

    /// Reserved-seq inserts the way a NIC files its posted DMA writes:
    /// each of a few FIFOs takes writes whose landing times never
    /// decrease, every write reserves its seq when it is issued, and the
    /// wheel queue is handed only a FIFO's head — when it is issued into
    /// an empty FIFO, or when its predecessor pops. The reference heap is
    /// handed every write at issue time. Mixed with fresh schedules
    /// (clamped past times included), pops and `advance_to` jumps past
    /// pending writes, both pop the same `(at, seq, event)` stream: the
    /// held-back writes fire exactly as if scheduled eagerly. Times fall
    /// on a coarse grid so ties between writes and fresh events are
    /// common, and the pop-then-schedule op keeps splicing into partly
    /// drained runs.
    #[test]
    fn held_back_fifos_pop_like_eager_scheduling() {
        use std::collections::VecDeque;
        const FIFOS: usize = 3;
        /// Writes are tagged above this bit with their FIFO.
        const WRITE: u32 = 1 << 24;
        let mut rng = SimRng::seed(0xF1F0);
        for round in 0..80 {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut r: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
            let mut fifos: [VecDeque<(Time, u64, u32)>; FIFOS] = Default::default();
            let mut last_at = [0; FIFOS];
            let mut next_ev = 0u32;
            let grid = |rng: &mut SimRng, span: u64| rng.below(span) / 64 * 64;
            // Pops one event from both queues and, for a write, files its
            // FIFO's next head at its reserved key.
            let pop = |q: &mut EventQueue<u32>,
                       r: &mut ReferenceEventQueue<u32>,
                       fifos: &mut [VecDeque<(Time, u64, u32)>; FIFOS]| {
                let a = q.pop().map(|s| (s.at, s.seq, s.event));
                let b = r.pop().map(|s| (s.at, s.seq, s.event));
                assert_eq!(a, b, "pop diverged (round {round})");
                if let Some((at, seq, ev)) = a.filter(|&(_, _, ev)| ev >= WRITE) {
                    let f = (ev / WRITE - 1) as usize;
                    assert_eq!(
                        fifos[f].pop_front(),
                        Some((at, seq, ev)),
                        "a FIFO's head fired"
                    );
                    if let Some(&(at, seq, ev)) = fifos[f].front() {
                        q.schedule_reserved(at, seq, ev);
                    }
                }
                a
            };
            for _ in 0..rng.range(10, 600) {
                match rng.below(12) {
                    0..=2 => {
                        let at = match rng.below(3) {
                            0 => q.now() + grid(&mut rng, 4_096),
                            1 => q.now() + grid(&mut rng, 1 << 22),
                            // Possibly in the past: both queues clamp.
                            _ => grid(&mut rng, q.now() * 2 + 4_096),
                        };
                        q.schedule_at(at, next_ev);
                        r.schedule_at(at, next_ev);
                        next_ev += 1;
                    }
                    3..=6 => {
                        let f = rng.below(FIFOS as u64) as usize;
                        let at = q.now().max(last_at[f]) + grid(&mut rng, 2_048);
                        last_at[f] = at;
                        let seq = q.reserve();
                        assert_eq!(seq, r.reserve());
                        let ev = (f as u32 + 1) * WRITE + next_ev;
                        next_ev += 1;
                        r.schedule_reserved(at, seq, ev);
                        fifos[f].push_back((at, seq, ev));
                        if fifos[f].len() == 1 {
                            q.schedule_reserved(at, seq, ev);
                        }
                    }
                    7..=9 => {
                        pop(&mut q, &mut r, &mut fifos);
                    }
                    10 => {
                        // Lets the clock run past pending writes.
                        let t = q.now() + grid(&mut rng, 1 << 14);
                        q.advance_to(t);
                        r.advance_to(t);
                    }
                    _ => {
                        // Pop, then schedule a tie at the popped time.
                        if let Some((at, _, _)) = pop(&mut q, &mut r, &mut fifos) {
                            q.schedule_at(at, next_ev);
                            r.schedule_at(at, next_ev);
                            next_ev += 1;
                        }
                    }
                }
                assert_eq!(q.now(), r.now());
                assert_eq!(q.peek_time(), r.peek_time());
                let held: usize = fifos.iter().map(|f| f.len().saturating_sub(1)).sum();
                assert_eq!(q.pending() + held, r.pending());
            }
            while pop(&mut q, &mut r, &mut fifos).is_some() {}
            assert!(fifos.iter().all(VecDeque::is_empty));
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
