//! Hierarchical timer wheel: the O(1) storage engine behind
//! [`EventQueue`](crate::EventQueue).
//!
//! A discrete-event simulator at 100 G line rate dispatches hundreds of
//! millions of events per simulated second, and almost all of them are
//! *near-future*: link serialization, PCIe hops, and DMA completions are
//! short, config-bounded delays. A comparison-based heap pays O(log n)
//! per event and a comparator-driven pointer chase per level; the wheel
//! places each event in a bucket by simple bit arithmetic instead.
//!
//! # Geometry
//!
//! Three levels of 4096 slots, 1 ps granularity at level 0. A slot at
//! level `k` spans `4096^k` ps, so the wheel covers `4096^3 = 2^36` ps
//! (~68.7 ms) ahead of its cursor — beyond the longest backed-off
//! retransmission deadline (`100 µs << 6` = 6.4 ms). Events scheduled
//! further out than the horizon wait in an overflow min-heap and migrate
//! into the wheel as the cursor advances.
//!
//! The wide radix is deliberate: with 12-bit digits the common delta
//! band (sub-2 µs link/PCIe/DMA hops) files at level 1 and is handed
//! back out as one sorted bucket ([`TimerWheel::pop_run`]) without ever
//! cascading — at high occupancy the cascade traffic, not the bucket
//! arithmetic, is what made throughput sag with depth. Occupancy per
//! level is a two-tier bitmap (64 words plus a one-bit-per-word
//! summary), so finding the first pending slot is still two
//! `trailing_zeros`.
//!
//! An event's level is the highest 12-bit digit in which its firing time
//! differs from the cursor (`level_of(at ^ cur)`, the Linux timer-wheel
//! rule). This keeps every occupied slot *ahead* of the cursor in plain
//! (non-wrapping) slot order. When the cursor enters a level-`k` slot,
//! that slot's events re-place into levels `< k` (cascade); each event
//! cascades at most twice, so scheduling stays amortized O(1).
//!
//! # Determinism
//!
//! The public order is the exact `(time, seq)` total order of the
//! reference heap. Two events only share a level-0 slot if they share an
//! exact firing time, and a drained bucket is sorted before it is handed
//! out — cascading from different levels may interleave arrival order
//! inside a bucket, and the sort restores it. Equivalence with the
//! test-only `ReferenceEventQueue` of [`crate::event`] is
//! property-tested over randomized schedule/pop/advance interleavings.

use std::collections::BinaryHeap;

use crate::event::Scheduled;
use crate::time::Time;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 12;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; deltas of `4096^LEVELS` ps or more overflow.
const LEVELS: usize = 3;
/// log2 of the wheel horizon in picoseconds.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// 64-bit words per occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Max whole buckets per [`TimerWheel::pop_run`] at levels >= 1.
const MULTI_BUCKETS: usize = 32;
/// Levels whose buckets [`TimerWheel::pop_run`] may hand out whole
/// (slot span <= 4096 ps); deeper buckets always cascade first.
const HANDOUT_LEVELS: usize = 2;

/// The level whose 12-bit digit is the highest one set in `x = at ^ cur`.
///
/// `x` must be below the horizon (`x >> HORIZON_BITS == 0`).
#[inline]
fn level_of(x: u64) -> usize {
    if x == 0 {
        0
    } else {
        ((63 - x.leading_zeros()) / SLOT_BITS) as usize
    }
}

/// One level's occupancy: a bit per slot, plus a one-bit-per-word summary
/// so the first occupied slot is two `trailing_zeros` away.
#[derive(Debug, Clone)]
struct Occupancy {
    summary: u64,
    words: [u64; WORDS],
}

impl Default for Occupancy {
    fn default() -> Self {
        Self {
            summary: 0,
            words: [0; WORDS],
        }
    }
}

impl Occupancy {
    #[inline]
    fn set(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        let w = idx / 64;
        self.words[w] &= !(1 << (idx % 64));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.summary == 0
    }

    /// The lowest occupied slot index, if any.
    #[inline]
    fn first(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// Timed-event storage with O(1) near-future scheduling.
///
/// The wheel is pure storage: it neither assigns sequence numbers nor
/// tracks a public clock — [`EventQueue`](crate::EventQueue) layers both
/// on top. The only ordering contract is that [`Self::pop_batch`] and
/// [`Self::pop_run`] drain buckets in `(time, seq)` order.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` buckets; bucket `(k, i)` lives at `k * SLOTS + i`.
    slots: Vec<Vec<Scheduled<E>>>,
    /// Per-level occupancy bitmaps.
    occupied: [Occupancy; LEVELS],
    /// Events beyond the wheel horizon, earliest `(at, seq)` first
    /// (`Scheduled`'s reversed `Ord` makes the max-heap pop the minimum).
    overflow: BinaryHeap<Scheduled<E>>,
    /// Scratch buffer reused by cascades (capacity recycles via swap).
    cascade_buf: Vec<Scheduled<E>>,
    /// Wheel cursor: a lower bound on every pending firing time. Distinct
    /// from the simulation clock, which may run ahead via `advance_to`.
    cur: Time,
    /// Total pending events (wheel + overflow).
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [
                Occupancy::default(),
                Occupancy::default(),
                Occupancy::default(),
            ],
            overflow: BinaryHeap::new(),
            cascade_buf: Vec::new(),
            cur: 0,
            len: 0,
        }
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Moves the cursor forward to `t` — allowed only while empty, where
    /// the cursor bounds nothing. Keeps a long-idle wheel from filing
    /// fresh events into the overflow heap just because the cursor was
    /// left far in the past.
    pub fn reset_cursor(&mut self, t: Time) {
        debug_assert!(self.is_empty(), "cursor reset with events pending");
        self.cur = self.cur.max(t);
    }

    /// Inserts an event. `s.at` must not precede the cursor (the event
    /// queue's past-time clamp guarantees this).
    pub fn insert(&mut self, s: Scheduled<E>) {
        debug_assert!(
            s.at >= self.cur,
            "insert at {} before cursor {}",
            s.at,
            self.cur
        );
        self.place(s);
        self.len += 1;
    }

    /// Files an event into its wheel slot or the overflow heap. Does not
    /// touch `len` (shared by insert, cascade, and overflow migration).
    fn place(&mut self, s: Scheduled<E>) {
        let x = s.at ^ self.cur;
        if x >> HORIZON_BITS != 0 {
            self.overflow.push(s);
            return;
        }
        let k = level_of(x);
        let idx = ((s.at >> (SLOT_BITS * k as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[k * SLOTS + idx].push(s);
        self.occupied[k].set(idx);
    }

    /// Pulls every overflow event now inside the horizon into the wheel.
    fn migrate_overflow(&mut self) {
        while let Some(peek) = self.overflow.peek() {
            if (peek.at ^ self.cur) >> HORIZON_BITS != 0 {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            self.place(s);
        }
    }

    /// The earliest pending firing time, without disturbing the wheel.
    pub fn min_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        // Level 0 buckets hold exact times; the lowest occupied slot is
        // the global minimum (higher levels sit past the next boundary).
        if let Some(idx) = self.occupied[0].first() {
            return Some((self.cur & !(SLOTS as u64 - 1)) + idx as u64);
        }
        // Otherwise the lowest occupied level's first slot contains the
        // minimum; a level-k slot spans 4096^k ps, so scan it.
        for k in 1..LEVELS {
            if let Some(idx) = self.occupied[k].first() {
                return self.slots[k * SLOTS + idx].iter().map(|s| s.at).min();
            }
        }
        self.overflow.peek().map(|s| s.at)
    }

    /// Drains a *run* of earliest pending events — one or more whole
    /// buckets, possibly spanning distinct firing times — appending them
    /// to `out` in `(at, seq)` order. Returns the number of events moved
    /// (0 when empty, otherwise at least one whole bucket; `max_run` is a
    /// soft cap checked between buckets).
    ///
    /// Two run sources, both resting on the same dominance argument as
    /// the lone-event fast path in [`Self::pop_batch`]:
    ///
    /// * every level-0 event lives inside the cursor's current 4096-ps
    ///   block and precedes everything filed at a higher level, so the
    ///   occupied level-0 slots drain together in index order;
    /// * with level 0 empty, the first occupied slot of the lowest
    ///   occupied level holds the globally earliest events, so when it
    ///   fits the cap it is handed out sorted *instead of* re-placing
    ///   every event one level down.
    ///
    /// The second source is what fixes the depth-1e6 throughput cliff:
    /// at high occupancy each event used to pay a cascade hop per level
    /// (a random-access `Vec` push over a tens-of-MB working set) before
    /// reaching level 0; serving whole buckets replaces those hops with
    /// one cache-friendly in-place sort.
    ///
    /// The caller owns ordering across calls: after a run is taken, every
    /// event still in the wheel fires at or after the run's last time, so
    /// a later insert must not precede it (the event queue's batch spill
    /// guarantees this).
    pub fn pop_run(&mut self, out: &mut Vec<Scheduled<E>>, max_run: usize) -> usize {
        if self.len == 0 {
            return 0;
        }
        let start = out.len();
        loop {
            self.migrate_overflow();
            let Some(k) = (0..LEVELS).find(|&k| !self.occupied[k].is_empty()) else {
                let next = self
                    .overflow
                    .peek()
                    .expect("len > 0 with an empty wheel implies overflow events")
                    .at;
                self.cur = next;
                continue;
            };
            if k >= HANDOUT_LEVELS {
                // Never hand a deep bucket out whole: a level-2 slot
                // spans 4096² ps ≈ 16.8 µs, and a served run that wide
                // turns almost every near-future schedule into a batch
                // splice in the event queue (a memmove per event — the
                // measured cost was a 3x throughput dip at the depth
                // where level-2 buckets happened to fit the cap).
                // Re-place its events a level down instead.
                let idx = self.occupied[k].first().expect("level is occupied");
                self.cascade(k, idx);
                continue;
            }
            // Every occupied level-k slot shares the cursor's digits
            // above level k (that is what made it file at level k), so
            // in index order the slots' time ranges are disjoint and
            // ascending, and all of them precede every higher-level and
            // every overflow event. Whole buckets can therefore be
            // handed out back-to-back until the cap, each sorted in
            // place — this multi-bucket drain is what amortizes the
            // per-refill cost at shallow depths, where a single bucket
            // holds only a handful of events.
            let mut taken = 0;
            while out.len() - start < max_run {
                if k > 0 && taken == MULTI_BUCKETS {
                    // Bound the run's *time span* at higher levels: each
                    // extra bucket widens the window into which a fresh
                    // schedule can land (forcing a batch splice in the
                    // event queue), so runs trade refill amortization
                    // against splice frequency.
                    break;
                }
                let Some(idx) = self.occupied[k].first() else {
                    break;
                };
                let bucket = k * SLOTS + idx;
                let n = self.slots[bucket].len();
                if n > max_run - (out.len() - start) && out.len() > start {
                    // Cap reached; the bucket stays for the next run.
                    break;
                }
                if n > max_run && k > 0 {
                    // A single oversized bucket: re-place its events one
                    // level down rather than sorting it whole.
                    self.cascade(k, idx);
                    break;
                }
                self.occupied[k].clear(idx);
                let s0 = out.len();
                out.append(&mut self.slots[bucket]);
                if n > 1 {
                    if k == 0 {
                        // A level-0 slot holds one exact firing time;
                        // seq order is the contract within it.
                        out[s0..].sort_unstable_by_key(|s| s.seq);
                    } else {
                        out[s0..].sort_unstable_by_key(|s| (s.at, s.seq));
                    }
                }
                self.len -= n;
                taken += 1;
            }
            if out.len() > start {
                self.cur = self.cur.max(out.last().expect("drained a slot").at);
                return out.len() - start;
            }
            // Nothing drained: a cascade happened — rescan from level 0.
        }
    }

    /// Re-places every event of slot `(k, idx)` — the first slot of the
    /// lowest occupied level — into levels `< k`, advancing the cursor to
    /// the slot's start.
    fn cascade(&mut self, k: usize, idx: usize) {
        let span = SLOT_BITS * (k as u32 + 1);
        let base = (self.cur >> span) << span;
        let slot_start = base + ((idx as u64) << (SLOT_BITS * k as u32));
        self.cur = self.cur.max(slot_start);
        self.occupied[k].clear(idx);
        let mut buf = std::mem::take(&mut self.cascade_buf);
        std::mem::swap(&mut buf, &mut self.slots[k * SLOTS + idx]);
        for s in buf.drain(..) {
            // Relative to the new cursor every event in this slot is
            // within 4096^k, so it re-places strictly below level k.
            self.place(s);
        }
        self.cascade_buf = buf;
    }

    /// Drains the earliest pending bucket — every event sharing the
    /// earliest firing time — appending it to `out` in `(at, seq)` order.
    /// Returns the number of events moved (0 when empty).
    pub fn pop_batch(&mut self, out: &mut Vec<Scheduled<E>>) -> usize {
        if self.len == 0 {
            return 0;
        }
        loop {
            self.migrate_overflow();
            if let Some(idx) = self.occupied[0].first() {
                let t = (self.cur & !(SLOTS as u64 - 1)) + idx as u64;
                debug_assert!(t >= self.cur);
                // `t` stays inside the cursor's current horizon block, so
                // no overflow event can share it: safe to advance and
                // drain without re-migrating.
                self.cur = t;
                self.occupied[0].clear(idx);
                let slot = &mut self.slots[idx];
                let n = slot.len();
                let start = out.len();
                out.append(slot);
                if n > 1 {
                    // Same-time events from different levels may have
                    // landed in arrival (cascade) order; seq order is the
                    // contract.
                    out[start..].sort_unstable_by_key(|s| s.seq);
                }
                self.len -= n;
                return n;
            }
            // Level 0 empty: enter the first slot of the lowest occupied
            // level and cascade it downward, or refill from overflow.
            let Some(k) = (1..LEVELS).find(|&k| !self.occupied[k].is_empty()) else {
                let next = self
                    .overflow
                    .peek()
                    .expect("len > 0 with an empty wheel implies overflow events")
                    .at;
                self.cur = next;
                continue;
            };
            let idx = self.occupied[k].first().expect("level is occupied");
            if self.slots[k * SLOTS + idx].len() == 1 {
                // A lone event in the first slot of the lowest occupied
                // level is the global minimum: same-time events always
                // share a slot, and overflow events live in later horizon
                // blocks. Hand it out without cascading level by level —
                // the common case when pending times are sparse.
                let s = self.slots[k * SLOTS + idx].pop().expect("len == 1");
                self.occupied[k].clear(idx);
                self.cur = s.at;
                self.len -= 1;
                out.push(s);
                return 1;
            }
            self.cascade(k, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Time, seq: u64) -> Scheduled<u64> {
        Scheduled {
            at,
            seq,
            event: seq,
        }
    }

    #[test]
    fn level_selection_matches_highest_differing_digit() {
        assert_eq!(level_of(0), 0);
        assert_eq!(level_of(1), 0);
        assert_eq!(level_of(4095), 0);
        assert_eq!(level_of(4096), 1);
        assert_eq!(level_of(4096 * 4096 - 1), 1);
        assert_eq!(level_of(4096 * 4096), 2);
        assert_eq!(level_of((1u64 << HORIZON_BITS) - 1), LEVELS - 1);
    }

    #[test]
    fn occupancy_tracks_first_occupied_slot() {
        let mut o = Occupancy::default();
        assert_eq!(o.first(), None);
        o.set(4095);
        assert_eq!(o.first(), Some(4095));
        o.set(70);
        assert_eq!(o.first(), Some(70));
        o.set(71);
        o.clear(70);
        assert_eq!(o.first(), Some(71));
        o.clear(71);
        assert_eq!(o.first(), Some(4095));
        o.clear(4095);
        assert_eq!(o.first(), None);
        assert!(o.is_empty());
    }

    #[test]
    fn drains_buckets_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // Events at every level, plus one in the overflow heap.
        let times = [
            3u64,
            100,
            5_000,
            300_000,
            20_000_000,
            1_500_000_000,
            1 << 40,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(ev(t, i as u64));
        }
        assert_eq!(w.len(), times.len());
        let mut got = Vec::new();
        let mut out = Vec::new();
        while w.pop_batch(&mut out) > 0 {
            got.extend(out.drain(..).map(|s| s.at));
        }
        assert_eq!(got, times.to_vec());
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_events_pop_in_seq_order_even_across_levels() {
        let mut w = TimerWheel::new();
        // seq 0 lands at level 1 (far away), seq 1 at level 0 for the
        // same instant after the cursor advances: the drained bucket must
        // still come out in seq order.
        w.insert(ev(10_000, 0));
        w.insert(ev(9_000, 1));
        let mut out = Vec::new();
        assert_eq!(w.pop_batch(&mut out), 1);
        assert_eq!(out[0].at, 9_000);
        w.insert(ev(10_000, 2));
        out.clear();
        assert_eq!(w.pop_batch(&mut out), 2);
        let seqs: Vec<u64> = out.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    #[test]
    fn min_time_sees_every_region() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        assert_eq!(w.min_time(), None);
        w.insert(ev(1 << 40, 0));
        assert_eq!(w.min_time(), Some(1 << 40)); // overflow only
        w.insert(ev(70_000_000, 1));
        assert_eq!(w.min_time(), Some(70_000_000)); // level-2 slot scan
        w.insert(ev(99_000_000, 2));
        assert_eq!(w.min_time(), Some(70_000_000));
        w.insert(ev(5, 3));
        assert_eq!(w.min_time(), Some(5)); // level 0 exact
    }

    #[test]
    fn overflow_migrates_back_in_order() {
        let mut w = TimerWheel::new();
        let horizon = 1u64 << HORIZON_BITS;
        w.insert(ev(3 * horizon + 7, 0));
        w.insert(ev(2 * horizon + 7, 1));
        w.insert(ev(2 * horizon + 7, 2));
        w.insert(ev(40, 3));
        let mut got = Vec::new();
        let mut out = Vec::new();
        while w.pop_batch(&mut out) > 0 {
            got.extend(out.drain(..).map(|s| (s.at, s.seq)));
        }
        assert_eq!(
            got,
            vec![
                (40, 3),
                (2 * horizon + 7, 1),
                (2 * horizon + 7, 2),
                (3 * horizon + 7, 0)
            ]
        );
    }

    #[test]
    fn cursor_reset_keeps_fresh_events_in_the_wheel() {
        let mut w = TimerWheel::new();
        w.insert(ev(10, 0));
        let mut out = Vec::new();
        w.pop_batch(&mut out);
        assert!(w.is_empty());
        // A long simulated-time jump later, near-future events should
        // still land in the wheel, not the overflow heap.
        w.reset_cursor(5 << HORIZON_BITS);
        w.insert(ev((5 << HORIZON_BITS) + 100, 1));
        assert!(w.overflow.is_empty());
        out.clear();
        assert_eq!(w.pop_batch(&mut out), 1);
        assert_eq!(out[0].at, (5 << HORIZON_BITS) + 100);
    }

    #[test]
    fn pop_run_hands_out_whole_buckets_in_order() {
        let mut w = TimerWheel::new();
        // Two level-1 buckets (several distinct times within one 4096-ps
        // slot far from the cursor, plus a later slot). Multi-bucket
        // drain serves both in a single run, each bucket sorted by
        // (at, seq) and buckets concatenated in slot order, so the run
        // as a whole is in canonical order.
        for (i, &t) in [8_000u64, 8_100, 8_050, 8_100, 20_000].iter().enumerate() {
            w.insert(ev(t, i as u64));
        }
        let mut out = Vec::new();
        assert_eq!(w.pop_run(&mut out, 128), 5);
        let got: Vec<(u64, u64)> = out.iter().map(|s| (s.at, s.seq)).collect();
        assert_eq!(
            got,
            vec![(8_000, 0), (8_050, 2), (8_100, 1), (8_100, 3), (20_000, 4)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn pop_run_cap_falls_back_to_cascading_large_buckets() {
        let mut w = TimerWheel::new();
        for i in 0..10u64 {
            w.insert(ev(8_000 + i, i));
        }
        let mut out = Vec::new();
        // Cap below the bucket size: the bucket cascades to level 0 and
        // the run is served from there, earliest slots first, never
        // exceeding whole-slot granularity mid-tick.
        let n = w.pop_run(&mut out, 4);
        assert!(n >= 4, "at least the cap once a bucket is entered");
        let times: Vec<u64> = out.iter().map(|s| s.at).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        let mut rest = Vec::new();
        while w.pop_run(&mut rest, 4) > 0 {}
        assert_eq!(out.len() + rest.len(), 10);
        assert!(w.is_empty());
    }
}
