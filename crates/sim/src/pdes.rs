//! Conservative time-windowed parallel DES (PDES) engine.
//!
//! The cluster model has *physical lookahead*: every event that crosses
//! from one node's NIC to another rides a link or a switch hop whose
//! latency is at least the serialization quantum of one frame. A
//! partition (one node, or the switch) therefore cannot be surprised by
//! a remote event sooner than `lookahead` picoseconds after the remote
//! partition's current time — the classic conservative-synchronization
//! guarantee (Chandy/Misra/Bryant, here in its barrier-window form).
//!
//! The engine exploits that: the event space is split into partitions,
//! each with its own [`EventQueue`] (and thus its own timer wheel),
//! driven by a pool of worker threads. Execution proceeds in *windows*:
//!
//! 1. **Deliver** — each partition drains its inbound mailboxes (one
//!    ordered mailbox per source partition), sorts the arrivals by the
//!    canonical key `(time, source partition, source sequence)`, and
//!    files them into its local queue.
//! 2. **Barrier**, then every worker computes the same global minimum
//!    next-event time `m`; the window is `[m, m + lookahead)`.
//! 3. **Execute** — each partition runs all its events with `at <
//!    window_end` in canonical-key order. Emissions to *itself* go
//!    straight into its queue (strictly future: `delay >= 1`);
//!    emissions to *other* partitions (which must respect `delay >=
//!    lookahead`, checked at every send) are appended to the per-pair
//!    mailbox, to be delivered at the next window's step 1. A second
//!    barrier ends the window.
//!
//! Safety of the window: every event executed in the window has `at >=
//! m`, so every cross-partition emission lands at `at + lookahead >=
//! window_end` — no partition can receive an event inside a window it
//! is already executing. Window time-ranges are therefore disjoint and
//! ascending across the run.
//!
//! **Determinism.** Every event carries a key `(at, src, seq)` assigned
//! at *send* time — `src` is the emitting partition, `seq` its private
//! emission counter. A partition handles its events in exactly
//! canonical-key order, so the sequence of `handle` calls each
//! partition sees — and hence its state, its emissions, and their
//! sequence numbers — is a pure function of the model, independent of
//! worker count and thread scheduling. The global dispatch order is
//! defined as the merge by `(at, dst, src, seq)`; equal-time events at
//! different destinations cannot affect each other inside a window
//! (cross sends land at least `lookahead` later), so this merge is a
//! legal serialization. [`PdesEngine::run_reference`] executes that
//! exact serialization one event at a time on a single global heap —
//! the differential reference, kept for the same reason the test-only
//! `ReferenceEventQueue` of [`crate::event`] shadows the timer wheel —
//! and must produce bit-identical dispatch logs,
//! fingerprints, and partition states to [`PdesEngine::run`] at any
//! worker count.

use std::cell::UnsafeCell;
use std::cmp::Ordering as CmpOrdering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use strom_telemetry::Fingerprint;

use crate::event::{EventQueue, Scheduled};
use crate::time::{Time, TimeDelta};

/// Identifies a partition (a node, or the switch) in a PDES run.
pub type PartitionId = usize;

/// "No pending event" marker in the shared next-time slots.
const T_NONE: u64 = u64::MAX;

/// One partition of the simulated world: a self-contained chunk of
/// state whose only interaction with other partitions is through timed
/// events sent via the [`Outbox`].
pub trait Partition {
    /// The event payload exchanged between partitions.
    type Event;

    /// Called once at time zero, before any event fires; seed the
    /// initial events here. Self-sends need `delay >= 1` and
    /// cross-sends `delay >= lookahead`, exactly as in [`Self::handle`].
    fn init(&mut self, out: &mut Outbox<'_, Self::Event>);

    /// Handles one event at simulated time `out.now()`. Emissions go
    /// through `out`; sending under the contract delays panics — that
    /// would falsify the conservative window argument.
    fn handle(&mut self, event: Self::Event, out: &mut Outbox<'_, Self::Event>);
}

/// Collects the emissions of one `init`/`handle` call and enforces the
/// lookahead contract at every send.
pub struct Outbox<'a, E> {
    src: PartitionId,
    now: Time,
    lookahead: TimeDelta,
    emit_seq: &'a mut u64,
    self_out: &'a mut Vec<(Time, u64, E)>,
    cross_out: &'a mut Vec<(PartitionId, Time, u64, E)>,
}

impl<E> Outbox<'_, E> {
    /// The simulated time of the event being handled (zero in `init`).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The partition this outbox belongs to.
    pub fn src(&self) -> PartitionId {
        self.src
    }

    /// Schedules `event` to fire at partition `dst`, `delay` picoseconds
    /// from now.
    ///
    /// # Panics
    ///
    /// A self-send with `delay == 0` panics (events must make progress:
    /// the equal-time batch a partition executes is fixed before it
    /// starts). A cross-partition send with `delay < lookahead` panics —
    /// it violates the physical-lookahead premise the window barrier is
    /// built on, and silently accepting it would let a parallel run
    /// diverge from the reference.
    pub fn send(&mut self, dst: PartitionId, delay: TimeDelta, event: E) {
        let seq = *self.emit_seq;
        *self.emit_seq += 1;
        let at = self.now + delay;
        if dst == self.src {
            assert!(
                delay >= 1,
                "partition {dst}: zero-delay self-send at t={}",
                self.now
            );
            self.self_out.push((at, seq, event));
        } else {
            assert!(
                delay >= self.lookahead,
                "partition {} -> {dst}: delay {delay} ps under the lookahead {} ps at t={}",
                self.src,
                self.lookahead,
                self.now
            );
            self.cross_out.push((dst, at, seq, event));
        }
    }
}

/// One dispatched event in the canonical global order, for record-mode
/// differential comparisons. Field order is the merge key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DispatchRecord {
    /// Firing time.
    pub at: Time,
    /// Destination (handling) partition.
    pub dst: PartitionId,
    /// Source (emitting) partition.
    pub src: PartitionId,
    /// Source emission sequence.
    pub seq: u64,
}

/// What a PDES run produced, for throughput reporting and differential
/// tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdesReport {
    /// Total events dispatched across all partitions.
    pub events: u64,
    /// Number of windows executed (the reference counts one per event).
    pub windows: u64,
    /// XOR over per-partition dispatch-stream fingerprints: identical
    /// across worker counts and the reference iff every partition saw
    /// the same event stream.
    pub fingerprint: u64,
    /// Per-partition dispatch-stream fingerprints (FNV-1a over the
    /// canonical keys, in handling order).
    pub partition_fingerprints: Vec<u64>,
    /// The full dispatch log, merged into canonical global order —
    /// populated only when the engine was built [`PdesEngine::recorded`].
    pub log: Option<Vec<DispatchRecord>>,
}

/// An event filed in a partition's local queue, carrying its send-time
/// canonical key (the firing time rides in the queue's [`Scheduled`]).
#[derive(Debug, Clone)]
struct LocalEvent<E> {
    src: PartitionId,
    seq: u64,
    event: E,
}

/// Everything one partition's owning worker touches while executing.
struct PartState<P: Partition> {
    part: P,
    queue: EventQueue<LocalEvent<P::Event>>,
    /// Private emission counter (the `seq` of the canonical key).
    emit_seq: u64,
    /// Whole-word fold over this partition's dispatch stream.
    fp: Fingerprint,
    dispatched: u64,
    log: Option<Vec<DispatchRecord>>,
    /// Scratch: equal-time batch being sorted into canonical order.
    batch: Vec<Scheduled<LocalEvent<P::Event>>>,
    /// Scratch: self emissions of the current handle call.
    self_out: Vec<(Time, u64, P::Event)>,
    /// Cross emissions of the current window, flushed to the mailboxes
    /// at the window's end.
    cross_out: Vec<(PartitionId, Time, u64, P::Event)>,
    /// Scratch: mailbox arrivals being sorted before filing.
    inbound: Vec<(Time, PartitionId, u64, P::Event)>,
}

impl<P: Partition> PartState<P> {
    fn new(part: P, record: bool) -> Self {
        Self {
            part,
            queue: EventQueue::new(),
            emit_seq: 0,
            fp: Fingerprint::new(),
            dispatched: 0,
            log: record.then(Vec::new),
            batch: Vec::new(),
            self_out: Vec::new(),
            cross_out: Vec::new(),
            inbound: Vec::new(),
        }
    }

    fn next_time(&self) -> u64 {
        self.queue.peek_time().unwrap_or(T_NONE)
    }

    /// Runs `init` at time zero and files the seeded self events (cross
    /// seeds stay in `cross_out` for the caller to flush).
    fn run_init(&mut self, me: PartitionId, lookahead: TimeDelta) {
        let mut out = Outbox {
            src: me,
            now: 0,
            lookahead,
            emit_seq: &mut self.emit_seq,
            self_out: &mut self.self_out,
            cross_out: &mut self.cross_out,
        };
        self.part.init(&mut out);
        for (at, seq, event) in self.self_out.drain(..) {
            self.queue.schedule_at(
                at,
                LocalEvent {
                    src: me,
                    seq,
                    event,
                },
            );
        }
    }

    /// Drains every inbound mailbox into the local queue in canonical
    /// order. Mailboxes are indexed `src * n + dst` in `boxes`.
    fn deliver(&mut self, me: PartitionId, n: usize, boxes: &[Mailbox<P::Event>]) {
        for src in 0..n {
            let mut inbox = boxes[src * n + me].lock().expect("mailbox poisoned");
            for (at, seq, event) in inbox.drain(..) {
                self.inbound.push((at, src, seq, event));
            }
        }
        self.inbound
            .sort_by_key(|&(at, src, seq, _)| (at, src, seq));
        for (at, src, seq, event) in self.inbound.drain(..) {
            self.queue.schedule_at(at, LocalEvent { src, seq, event });
        }
    }

    /// Executes every local event with `at < window_end` in canonical
    /// order, accumulating cross emissions in `self.cross_out`.
    fn run_window(&mut self, me: PartitionId, window_end: Time, lookahead: TimeDelta) {
        while self.queue.peek_time().is_some_and(|t| t < window_end) {
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            self.queue.pop_batch(&mut batch);
            // The queue hands the equal-time group out in insertion
            // order; the canonical order within a tick is (src, seq).
            batch.sort_by_key(|s| (s.event.src, s.event.seq));
            for s in batch.drain(..) {
                self.fp.mix(s.at).mix(s.event.src as u64).mix(s.event.seq);
                self.dispatched += 1;
                if let Some(log) = &mut self.log {
                    log.push(DispatchRecord {
                        at: s.at,
                        dst: me,
                        src: s.event.src,
                        seq: s.event.seq,
                    });
                }
                let mut out = Outbox {
                    src: me,
                    now: s.at,
                    lookahead,
                    emit_seq: &mut self.emit_seq,
                    self_out: &mut self.self_out,
                    cross_out: &mut self.cross_out,
                };
                self.part.handle(s.event.event, &mut out);
                for (at, seq, event) in self.self_out.drain(..) {
                    self.queue.schedule_at(
                        at,
                        LocalEvent {
                            src: me,
                            seq,
                            event,
                        },
                    );
                }
            }
            self.batch = batch;
        }
    }

    /// Flushes the window's cross emissions into the per-pair mailboxes.
    fn flush_cross(&mut self, me: PartitionId, n: usize, boxes: &[Mailbox<P::Event>]) {
        for (dst, at, seq, event) in self.cross_out.drain(..) {
            boxes[me * n + dst]
                .lock()
                .expect("mailbox poisoned")
                .push((at, seq, event));
        }
    }
}

/// One ordered cross-partition mailbox: `(arrival time, send seq,
/// event)` triples from a single source, appended in the sender's
/// window and drained by the receiver in the next.
type Mailbox<E> = Mutex<Vec<(Time, u64, E)>>;

/// The window barrier: a cyclic barrier that doubles as the min-reduce
/// for the window consensus and can be *poisoned*.
///
/// The threaded window loop needs every worker to agree, each window,
/// on one value: the global minimum next-event time `m`. Computing it
/// from per-partition atomic slots and having each worker take its own
/// minimum opens a consensus seam — any two workers reading different
/// values (a caught panic leaving slots stale, a reordered relaxed
/// load) makes one worker exit the loop while its peers re-enter it,
/// and a `std::sync::Barrier` then blocks the survivors forever. Here
/// the fold happens once, under the barrier's own mutex: each arrival
/// folds its local minimum into the generation accumulator, the last
/// arrival publishes the result, and every waiter reads that single
/// published value. Divergence is impossible by construction.
///
/// Poisoning handles the other half of the liveness argument: a worker
/// that has to stop (a caught model panic) — or that dies by a path we
/// never anticipated (see `ExitGuard`) — marks the group poisoned and
/// wakes every waiter, so no peer is ever left waiting on an arrival
/// that cannot happen.
struct WindowBarrier {
    state: Mutex<BarrierState>,
    cv: std::sync::Condvar,
    workers: usize,
}

struct BarrierState {
    /// Arrivals so far in the current generation.
    count: usize,
    /// Completed generations; bumped by the last arrival.
    generation: u64,
    /// Min-fold accumulator for the in-progress generation.
    acc: u64,
    /// Published fold result of the last completed generation.
    result: u64,
    /// Once true the group is dead: every current and future waiter
    /// returns immediately with the poisoned flag set.
    poisoned: bool,
}

impl WindowBarrier {
    fn new(workers: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                acc: T_NONE,
                result: T_NONE,
                poisoned: false,
            }),
            cv: std::sync::Condvar::new(),
            workers,
        }
    }

    /// Arrives at the barrier folding `local` into the group minimum.
    /// Returns `(group_min, poisoned)`; on `poisoned` the group value
    /// is meaningless and the caller must leave the window loop.
    fn arrive(&self, local: u64) -> (u64, bool) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.poisoned {
            return (T_NONE, true);
        }
        st.acc = st.acc.min(local);
        st.count += 1;
        if st.count == self.workers {
            st.result = st.acc;
            st.acc = T_NONE;
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return (st.result, false);
        }
        let gen = st.generation;
        loop {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            if st.poisoned {
                return (T_NONE, true);
            }
            if st.generation != gen {
                // A waiter cannot sleep through two generations: the
                // next one needs all `workers` arrivals, including ours.
                return (st.result, false);
            }
        }
    }

    /// Kills the group: wakes every waiter and makes every subsequent
    /// arrival return poisoned.
    fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons the barrier if the owning worker unwinds out of the window
/// loop by any path that did not explicitly disarm the guard. The two
/// phase bodies already run under `catch_unwind`, so this should be
/// unreachable — but "a worker died and its peers wait forever" is the
/// one failure the engine must rule out unconditionally, not just on
/// the paths we thought of.
struct ExitGuard<'a> {
    barrier: &'a WindowBarrier,
    armed: bool,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.barrier.poison();
        }
    }
}

/// A partition cell mutated only by its owning worker within a window;
/// the window barriers order cross-worker access.
struct PartCell<P: Partition>(UnsafeCell<PartState<P>>);

// SAFETY: each cell is accessed mutably only by the worker that owns
// its index (static `p % workers` assignment); the window barriers
// order those accesses, and the scope join orders them against the
// caller's final collection.
unsafe impl<P: Partition + Send> Sync for PartCell<P> where P::Event: Send {}

/// The conservative time-windowed PDES engine. Build with the model's
/// partitions and its physical lookahead, then call [`Self::run`] (the
/// windowed engine, any worker count) or [`Self::run_reference`] (the
/// sequential global-heap differential reference).
pub struct PdesEngine<P: Partition> {
    lookahead: TimeDelta,
    record: bool,
    parts: Vec<PartCell<P>>,
    /// `boxes[src * n + dst]`: the ordered mailbox from `src` to `dst`.
    /// Locked once per append/drain; uncontended by construction (the
    /// two sides touch it in different phases).
    boxes: Vec<Mailbox<P::Event>>,
}

impl<P: Partition> PdesEngine<P> {
    /// Creates an engine over `partitions` with the given physical
    /// lookahead (picoseconds; must be at least 1).
    pub fn new(partitions: Vec<P>, lookahead: TimeDelta) -> Self {
        assert!(lookahead >= 1, "lookahead must be at least 1 ps");
        let n = partitions.len();
        assert!(n >= 1, "at least one partition");
        Self {
            lookahead,
            record: false,
            parts: partitions
                .into_iter()
                .map(|p| PartCell(UnsafeCell::new(PartState::new(p, false))))
                .collect(),
            boxes: (0..n * n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Enables record mode: the report carries the full dispatch log in
    /// canonical global order (for differential tests; costs memory).
    pub fn recorded(mut self) -> Self {
        self.record = true;
        for cell in &mut self.parts {
            cell.0.get_mut().log = Some(Vec::new());
        }
        self
    }

    /// Builds the report from the final partition states and hands the
    /// partitions back for model-state comparison.
    fn collect(self, windows: u64) -> (PdesReport, Vec<P>) {
        let mut events = 0;
        let mut fingerprint = 0u64;
        let mut partition_fingerprints = Vec::with_capacity(self.parts.len());
        let mut log = self.record.then(Vec::new);
        let mut partitions = Vec::with_capacity(self.parts.len());
        for cell in self.parts {
            let st = cell.0.into_inner();
            events += st.dispatched;
            fingerprint ^= st.fp.value();
            partition_fingerprints.push(st.fp.value());
            if let (Some(all), Some(mine)) = (&mut log, st.log) {
                all.extend(mine);
            }
            partitions.push(st.part);
        }
        if let Some(all) = &mut log {
            // Per-partition logs are each sorted by (at, src, seq);
            // the canonical global order adds dst to the key.
            all.sort();
        }
        (
            PdesReport {
                events,
                windows,
                fingerprint,
                partition_fingerprints,
                log,
            },
            partitions,
        )
    }

    /// Runs the model to quiescence on `workers` threads (clamped to
    /// the partition count; 1 runs the identical window loop inline on
    /// the calling thread) and returns the report plus the final
    /// partitions.
    pub fn run(mut self, workers: usize) -> (PdesReport, Vec<P>)
    where
        P: Send,
        P::Event: Send,
    {
        let n = self.parts.len();
        let workers = workers.max(1).min(n);
        let lookahead = self.lookahead;
        // Init runs sequentially — it is once-per-run and cheap next to
        // the event stream.
        for p in 0..n {
            let st = self.parts[p].0.get_mut();
            st.run_init(p, lookahead);
        }
        for p in 0..n {
            // Split borrow: flush needs &self.boxes alongside &mut state.
            let cell = &self.parts[p];
            // SAFETY: exclusive access — single-threaded here.
            let st = unsafe { &mut *cell.0.get() };
            st.flush_cross(p, n, &self.boxes);
        }
        let windows = if workers == 1 {
            self.run_windows_inline(n)
        } else {
            self.run_windows_threaded(n, workers)
        };
        self.collect(windows)
    }

    /// The window loop on the calling thread: same phases, same order,
    /// no barriers — the sequential engine the parallel one must match.
    fn run_windows_inline(&mut self, n: usize) -> u64 {
        let lookahead = self.lookahead;
        let mut windows = 0;
        loop {
            let mut m = T_NONE;
            for p in 0..n {
                // SAFETY: exclusive access — single-threaded.
                let st = unsafe { &mut *self.parts[p].0.get() };
                st.deliver(p, n, &self.boxes);
                m = m.min(st.next_time());
            }
            if m == T_NONE {
                return windows;
            }
            let window_end = m + lookahead;
            windows += 1;
            for p in 0..n {
                // SAFETY: exclusive access — single-threaded.
                let st = unsafe { &mut *self.parts[p].0.get() };
                st.run_window(p, window_end, lookahead);
                st.flush_cross(p, n, &self.boxes);
            }
        }
    }

    /// The window loop across `workers` persistent threads with static
    /// round-robin partition ownership and two barriers per window.
    fn run_windows_threaded(&mut self, n: usize, workers: usize) -> u64
    where
        P: Send,
        P::Event: Send,
    {
        let lookahead = self.lookahead;
        let parts = &self.parts;
        let boxes = &self.boxes;
        let windows = AtomicU64::new(0);
        let barrier = WindowBarrier::new(workers);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let stash = |e: Box<dyn std::any::Any + Send>| {
            panic_payload
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get_or_insert(e);
            barrier.poison();
        };
        std::thread::scope(|scope| {
            for w in 0..workers {
                let barrier = &barrier;
                let stash = &stash;
                let windows = &windows;
                scope.spawn(move || {
                    // Any exit from this closure that is not the `break`
                    // below (an unwind we failed to anticipate) poisons
                    // the barrier so the peers wake instead of waiting
                    // forever for a worker that will never arrive.
                    let mut guard = ExitGuard {
                        barrier,
                        armed: true,
                    };
                    let owned = || (w..n).step_by(workers);
                    loop {
                        // Phase A: deliver mailboxes, fold this worker's
                        // minimum next-event time.
                        let mut local = T_NONE;
                        let a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            for p in owned() {
                                // SAFETY: `p % workers == w` — this worker
                                // owns the cell; the window barrier orders
                                // this against other workers' phases.
                                let st = unsafe { &mut *parts[p].0.get() };
                                st.deliver(p, n, boxes);
                                local = local.min(st.next_time());
                            }
                        }));
                        if let Err(e) = a {
                            stash(e);
                        }
                        // Phase B: the barrier computes the window start
                        // once, under its own lock — every worker gets
                        // the identical `m` (or the poison notice) by
                        // construction, so no worker can leave the loop
                        // while a peer re-enters it.
                        let (m, poisoned) = barrier.arrive(local);
                        if poisoned || m == T_NONE {
                            break;
                        }
                        let window_end = m + lookahead;
                        if w == 0 {
                            windows.fetch_add(1, Ordering::Relaxed);
                        }
                        // Phase C: execute the window, flush mailboxes.
                        let c = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            for p in owned() {
                                // SAFETY: as above — owner-only access.
                                let st = unsafe { &mut *parts[p].0.get() };
                                st.run_window(p, window_end, lookahead);
                                st.flush_cross(p, n, boxes);
                            }
                        }));
                        if let Err(e) = c {
                            stash(e);
                        }
                        let (_, poisoned) = barrier.arrive(T_NONE);
                        if poisoned {
                            break;
                        }
                    }
                    guard.armed = false;
                });
            }
        });
        if let Some(e) = panic_payload
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
        {
            std::panic::resume_unwind(e);
        }
        windows.load(Ordering::Relaxed)
    }

    /// The sequential differential reference: one global heap ordered by
    /// the canonical key `(at, dst, src, seq)`, one event at a time —
    /// the exact serialization the windowed engine's merge defines.
    /// Must be bit-identical to [`Self::run`] at any worker count.
    pub fn run_reference(mut self) -> (PdesReport, Vec<P>) {
        let n = self.parts.len();
        let lookahead = self.lookahead;
        let mut heap: BinaryHeap<Reverse<RefEntry<P::Event>>> = BinaryHeap::new();
        let mut self_out: Vec<(Time, u64, P::Event)> = Vec::new();
        let mut cross_out: Vec<(PartitionId, Time, u64, P::Event)> = Vec::new();
        for p in 0..n {
            let st = self.parts[p].0.get_mut();
            let mut out = Outbox {
                src: p,
                now: 0,
                lookahead,
                emit_seq: &mut st.emit_seq,
                self_out: &mut self_out,
                cross_out: &mut cross_out,
            };
            st.part.init(&mut out);
            for (at, seq, event) in self_out.drain(..) {
                heap.push(Reverse(RefEntry {
                    at,
                    dst: p,
                    src: p,
                    seq,
                    event,
                }));
            }
            for (dst, at, seq, event) in cross_out.drain(..) {
                heap.push(Reverse(RefEntry {
                    at,
                    dst,
                    src: p,
                    seq,
                    event,
                }));
            }
        }
        let mut events = 0u64;
        while let Some(Reverse(entry)) = heap.pop() {
            events += 1;
            let st = self.parts[entry.dst].0.get_mut();
            st.fp.mix(entry.at).mix(entry.src as u64).mix(entry.seq);
            st.dispatched += 1;
            if let Some(log) = &mut st.log {
                log.push(DispatchRecord {
                    at: entry.at,
                    dst: entry.dst,
                    src: entry.src,
                    seq: entry.seq,
                });
            }
            let mut out = Outbox {
                src: entry.dst,
                now: entry.at,
                lookahead,
                emit_seq: &mut st.emit_seq,
                self_out: &mut self_out,
                cross_out: &mut cross_out,
            };
            st.part.handle(entry.event, &mut out);
            let me = entry.dst;
            for (at, seq, event) in self_out.drain(..) {
                heap.push(Reverse(RefEntry {
                    at,
                    dst: me,
                    src: me,
                    seq,
                    event,
                }));
            }
            for (dst, at, seq, event) in cross_out.drain(..) {
                heap.push(Reverse(RefEntry {
                    at,
                    dst,
                    src: me,
                    seq,
                    event,
                }));
            }
        }
        self.collect(events)
    }
}

/// A pending event in the reference executor's global heap, ordered by
/// the canonical key alone (the payload does not participate).
struct RefEntry<E> {
    at: Time,
    dst: PartitionId,
    src: PartitionId,
    seq: u64,
    event: E,
}

impl<E> RefEntry<E> {
    fn key(&self) -> (Time, PartitionId, PartitionId, u64) {
        (self.at, self.dst, self.src, self.seq)
    }
}

impl<E> PartialEq for RefEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for RefEntry<E> {}

impl<E> PartialOrd for RefEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for RefEntry<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// A chatty token-passing partition: every received token does a
    /// little arithmetic, mutates a running digest, and forwards new
    /// tokens to pseudo-random peers (or itself) with pseudo-random
    /// delays — enough nondeterminism-bait to catch ordering bugs.
    struct Chatter {
        me: PartitionId,
        n: usize,
        rng: SimRng,
        digest: u64,
        budget: u32,
        lookahead: TimeDelta,
    }

    impl Chatter {
        fn fleet(n: usize, seed: u64, budget: u32, lookahead: TimeDelta) -> Vec<Chatter> {
            (0..n)
                .map(|me| Chatter {
                    me,
                    n,
                    rng: SimRng::seed(seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    digest: 0,
                    budget,
                    lookahead,
                })
                .collect()
        }
    }

    impl Partition for Chatter {
        type Event = u64;

        fn init(&mut self, out: &mut Outbox<'_, u64>) {
            out.send(self.me, 1 + self.rng.below(50), self.me as u64);
        }

        fn handle(&mut self, event: u64, out: &mut Outbox<'_, u64>) {
            self.digest = Fingerprint::resume(self.digest)
                .mix(event ^ out.now())
                .value();
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            // Fan out 1-2 tokens; bias toward tie-prone delays.
            for _ in 0..1 + self.rng.below(2) {
                let dst = self.rng.below(self.n as u64) as usize;
                let delay = if dst == self.me {
                    1 + self.rng.below(3) * 25
                } else {
                    self.lookahead + self.rng.below(3) * 25
                };
                out.send(dst, delay, self.digest ^ dst as u64);
            }
        }
    }

    fn digests(parts: &[Chatter]) -> Vec<u64> {
        parts.iter().map(|p| p.digest).collect()
    }

    #[test]
    fn windowed_matches_reference_bit_for_bit() {
        for seed in 0..6 {
            let la = 100;
            let (r_ref, p_ref) = PdesEngine::new(Chatter::fleet(5, seed, 40, la), la)
                .recorded()
                .run_reference();
            let (r_one, p_one) = PdesEngine::new(Chatter::fleet(5, seed, 40, la), la)
                .recorded()
                .run(1);
            let (r_many, p_many) = PdesEngine::new(Chatter::fleet(5, seed, 40, la), la)
                .recorded()
                .run(4);
            assert!(r_ref.events > 100, "model too quiet to prove anything");
            assert_eq!(r_one.log, r_ref.log, "seed {seed}: 1-worker log diverged");
            assert_eq!(r_many.log, r_ref.log, "seed {seed}: 4-worker log diverged");
            assert_eq!(r_one.fingerprint, r_ref.fingerprint);
            assert_eq!(r_many.fingerprint, r_ref.fingerprint);
            assert_eq!(r_many.partition_fingerprints, r_ref.partition_fingerprints);
            assert_eq!(
                digests(&p_one),
                digests(&p_ref),
                "seed {seed}: state diverged"
            );
            assert_eq!(
                digests(&p_many),
                digests(&p_ref),
                "seed {seed}: state diverged"
            );
            assert_eq!(r_one.events, r_ref.events);
            assert_eq!(r_many.events, r_ref.events);
        }
    }

    #[test]
    fn windows_batch_many_events() {
        let la = 1000;
        let (report, _) = PdesEngine::new(Chatter::fleet(4, 7, 200, la), la).run(1);
        assert!(
            report.windows < report.events,
            "windowing degenerated to one event per window: {} windows for {} events",
            report.windows,
            report.events
        );
    }

    /// Two partitions fire at partition 2 at the same instant, plus a
    /// same-time self-send: the tie must break by (src, then seq), no
    /// matter which mailbox delivered first.
    #[test]
    fn same_window_ties_break_by_source_then_sequence() {
        struct Tie {
            me: PartitionId,
        }
        impl Partition for Tie {
            type Event = u64;
            fn init(&mut self, out: &mut Outbox<'_, u64>) {
                match self.me {
                    // Both cross-sends land at t=100 on partition 2.
                    0 => {
                        out.send(2, 100, 7); // seq 0
                        out.send(2, 100, 8); // seq 1
                    }
                    1 => out.send(2, 100, 9), // seq 0
                    // Partition 2's own event also at t=100.
                    _ => out.send(2, 100, 1), // seq 0
                }
            }
            fn handle(&mut self, event: u64, out: &mut Outbox<'_, u64>) {
                let _ = event;
                let _ = out;
            }
        }
        let (report, parts) =
            PdesEngine::new(vec![Tie { me: 0 }, Tie { me: 1 }, Tie { me: 2 }], 100)
                .recorded()
                .run(3);
        let _ = parts;
        let log = report.log.expect("record mode");
        let expect: Vec<DispatchRecord> = vec![
            DispatchRecord {
                at: 100,
                dst: 2,
                src: 0,
                seq: 0,
            },
            DispatchRecord {
                at: 100,
                dst: 2,
                src: 0,
                seq: 1,
            },
            DispatchRecord {
                at: 100,
                dst: 2,
                src: 1,
                seq: 0,
            },
            DispatchRecord {
                at: 100,
                dst: 2,
                src: 2,
                seq: 0,
            },
        ];
        assert_eq!(log, expect);
    }

    struct OneShot {
        dst: PartitionId,
        delay: TimeDelta,
    }
    impl Partition for OneShot {
        type Event = ();
        fn init(&mut self, out: &mut Outbox<'_, ()>) {
            out.send(self.dst, self.delay, ());
        }
        fn handle(&mut self, _event: (), _out: &mut Outbox<'_, ()>) {}
    }

    #[test]
    #[should_panic(expected = "under the lookahead")]
    fn lookahead_violation_panics() {
        let parts = vec![
            OneShot { dst: 1, delay: 50 },
            OneShot { dst: 0, delay: 100 },
        ];
        let _ = PdesEngine::new(parts, 100).run(1);
    }

    #[test]
    #[should_panic(expected = "zero-delay self-send")]
    fn zero_delay_self_send_panics() {
        let parts = vec![OneShot { dst: 0, delay: 0 }];
        let _ = PdesEngine::new(parts, 100).run(1);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        struct Bomb {
            me: PartitionId,
        }
        impl Partition for Bomb {
            type Event = ();
            fn init(&mut self, out: &mut Outbox<'_, ()>) {
                out.send(self.me, 10, ());
            }
            fn handle(&mut self, _event: (), out: &mut Outbox<'_, ()>) {
                assert_ne!(out.src(), 1, "boom");
                out.send(out.src(), 10, ());
            }
        }
        let caught = std::panic::catch_unwind(|| {
            let parts = (0..3).map(|me| Bomb { me }).collect();
            let _ = PdesEngine::new(parts, 100).run(3);
        });
        assert!(caught.is_err());
    }
}
