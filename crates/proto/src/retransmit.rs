//! The Retransmission Timer: one countdown per queue pair.
//!
//! §4.1: "The Retransmission Timer implements one timer per queue pair to
//! detect packet loss. The timers are implemented as an array of time
//! intervals stored in on-chip memory. The Retransmission Timer module is
//! continuously iterating over this array and decreasing the time
//! intervals of all active timers. If any timer reaches zero an event is
//! triggered and forwarded to the transmitting data path to retransmit the
//! lost packet(s)."
//!
//! The hardware decrements in a scan loop; functionally that is a per-QP
//! deadline, which is how we expose it (`expired` returns every QP whose
//! deadline has passed). Timer values are opaque ticks — the NIC
//! simulation feeds it simulated time.

use strom_telemetry::{TraceEvent, TraceSink};
use strom_wire::bth::Qpn;

/// Per-QP retransmission timers over an opaque monotonic tick domain.
///
/// Consecutive expirations without progress back the timeout off
/// exponentially: the n-th retry waits `timeout << min(n, cap)`. An ACK
/// that advances the window ([`Self::note_progress`]) resets the backoff,
/// and the attempt counter doubles as the retry budget the NIC checks
/// against its `max_retries` configuration.
#[derive(Debug, Clone)]
pub struct RetransmissionTimer {
    /// `None` = inactive; `Some(deadline)` = armed.
    deadlines: Vec<Option<u64>>,
    /// The QPs whose slot in `deadlines` is `Some`, in no particular
    /// order: [`Self::next_deadline`] runs on every request packet and
    /// every ACK, and only a handful of the table's QPs are ever armed at
    /// once.
    armed: Vec<Qpn>,
    /// Consecutive expirations per QP since the last forward progress.
    attempts: Vec<u32>,
    /// The retransmission timeout added to "now" when arming.
    timeout: u64,
    /// Cap on the backoff shift, bounding the longest retry interval.
    backoff_cap: u32,
    /// Total number of expirations observed (diagnostics).
    expirations: u64,
    /// Expirations that re-armed with a backed-off (doubled+) timeout.
    backoff_events: u64,
    /// Trace sink for backoff events (disabled by default).
    trace: TraceSink,
}

impl RetransmissionTimer {
    /// Creates timers for `num_qps` queue pairs with the given timeout.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero — a zero timeout would retransmit
    /// everything instantly.
    pub fn new(num_qps: usize, timeout: u64) -> Self {
        assert!(timeout > 0, "retransmission timeout must be positive");
        Self {
            deadlines: vec![None; num_qps],
            armed: Vec::new(),
            attempts: vec![0; num_qps],
            timeout,
            backoff_cap: 6,
            expirations: 0,
            backoff_events: 0,
            trace: TraceSink::default(),
        }
    }

    /// Attaches a trace sink; backed-off expirations are emitted to it.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Sets the cap on the exponential-backoff shift (builder style).
    pub fn with_backoff_cap(mut self, cap: u32) -> Self {
        // A shift ≥ 64 would overflow; anything near it is already an
        // absurd multiplier for a timeout.
        self.backoff_cap = cap.min(32);
        self
    }

    /// The configured (base, un-backed-off) timeout.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// The current timeout for `qpn`, including backoff.
    pub fn current_timeout(&self, qpn: Qpn) -> u64 {
        let shift = self
            .attempts
            .get(qpn as usize)
            .map(|&a| a.min(self.backoff_cap))
            .unwrap_or(0);
        self.timeout << shift
    }

    /// Arms (or re-arms) the timer for `qpn` at `now` plus the current
    /// (possibly backed-off) timeout.
    ///
    /// Called when a request packet is transmitted. An out-of-range QPN
    /// is a caller bug — the timer array is sized to the QP table — so it
    /// trips a debug assertion; release builds ignore the call.
    pub fn arm(&mut self, qpn: Qpn, now: u64) {
        debug_assert!(
            (qpn as usize) < self.deadlines.len(),
            "qpn {qpn} out of range: timer array holds {} QPs",
            self.deadlines.len()
        );
        let deadline = now + self.current_timeout(qpn);
        if let Some(slot) = self.deadlines.get_mut(qpn as usize) {
            if slot.replace(deadline).is_none() {
                self.armed.push(qpn);
            }
        }
    }

    /// Disarms the timer for `qpn`.
    ///
    /// Called when every outstanding packet of the QP has been
    /// acknowledged.
    pub fn disarm(&mut self, qpn: Qpn) {
        let was_armed = self
            .deadlines
            .get_mut(qpn as usize)
            .is_some_and(|slot| slot.take().is_some());
        if was_armed {
            let i = self.armed.iter().position(|&q| q == qpn);
            self.armed
                .swap_remove(i.expect("armed list mirrors deadlines"));
        }
    }

    /// Whether the timer for `qpn` is armed.
    pub fn is_armed(&self, qpn: Qpn) -> bool {
        self.deadlines
            .get(qpn as usize)
            .map(|d| d.is_some())
            .unwrap_or(false)
    }

    /// The earliest armed deadline, if any — the next time the simulation
    /// must poll [`Self::expired`].
    pub fn next_deadline(&self) -> Option<u64> {
        self.armed
            .iter()
            .filter_map(|&q| self.deadlines[q as usize])
            .min()
    }

    /// Collects every QP whose deadline has passed at `now`, disarming
    /// each (the requester re-arms when it retransmits).
    ///
    /// Each expiration bumps the QP's attempt counter, so the next
    /// [`Self::arm`] waits longer.
    pub fn expired(&mut self, now: u64) -> Vec<Qpn> {
        let deadlines = &mut self.deadlines;
        let mut out = Vec::new();
        self.armed.retain(|&q| {
            let due = deadlines[q as usize].is_some_and(|d| d <= now);
            if due {
                deadlines[q as usize] = None;
                out.push(q);
            }
            !due
        });
        // Ascending QPN order, as the hardware's scan loop finds them.
        out.sort_unstable();
        for &qpn in &out {
            let attempts = &mut self.attempts[qpn as usize];
            self.expirations += 1;
            if *attempts > 0 {
                self.backoff_events += 1;
            }
            *attempts = attempts.saturating_add(1);
            let attempts = *attempts;
            if attempts > 1 {
                // The re-arm timeout after this expiration, with the
                // backoff shift applied.
                self.trace.emit(TraceEvent::Backoff {
                    qpn,
                    attempts,
                    timeout: self.current_timeout(qpn),
                });
            }
        }
        out
    }

    /// Consecutive expirations for `qpn` since its last forward progress —
    /// the value the NIC compares against its retry budget.
    pub fn attempts(&self, qpn: Qpn) -> u32 {
        self.attempts.get(qpn as usize).copied().unwrap_or(0)
    }

    /// Records forward progress on `qpn` (the ACK window moved): resets
    /// the backoff and the retry budget.
    pub fn note_progress(&mut self, qpn: Qpn) {
        if let Some(a) = self.attempts.get_mut(qpn as usize) {
            *a = 0;
        }
    }

    /// Total expirations observed since construction.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Expirations that re-armed with a backed-off (≥ doubled) timeout.
    pub fn backoff_events(&self) -> u64 {
        self.backoff_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_and_expire() {
        let mut t = RetransmissionTimer::new(4, 100);
        t.arm(2, 1000);
        assert!(t.is_armed(2));
        assert!(t.expired(1099).is_empty());
        assert_eq!(t.expired(1100), vec![2]);
        assert!(!t.is_armed(2), "expiry disarms");
        assert_eq!(t.expirations(), 1);
    }

    #[test]
    fn ack_disarms_before_expiry() {
        let mut t = RetransmissionTimer::new(4, 100);
        t.arm(1, 0);
        t.disarm(1);
        assert!(t.expired(1000).is_empty());
    }

    #[test]
    fn rearm_pushes_deadline_out() {
        let mut t = RetransmissionTimer::new(4, 100);
        t.arm(0, 0);
        t.arm(0, 50); // Retransmitted packet re-arms.
        assert!(t.expired(100).is_empty());
        assert_eq!(t.expired(150), vec![0]);
    }

    #[test]
    fn multiple_qps_expire_together() {
        let mut t = RetransmissionTimer::new(4, 10);
        t.arm(0, 0);
        t.arm(3, 0);
        t.arm(1, 5);
        let mut expired = t.expired(10);
        expired.sort_unstable();
        assert_eq!(expired, vec![0, 3]);
        assert_eq!(t.expired(15), vec![1]);
    }

    #[test]
    fn next_deadline_is_minimum() {
        let mut t = RetransmissionTimer::new(4, 100);
        assert_eq!(t.next_deadline(), None);
        t.arm(0, 50);
        t.arm(1, 10);
        assert_eq!(t.next_deadline(), Some(110));
    }

    #[test]
    fn armed_list_matches_the_full_scan() {
        // Seeded differential: the same random arm/disarm/expire/progress
        // sequence against a model that scans every slot, as the timer
        // did before it tracked its armed QPs.
        use strom_sim::SimRng;
        const QPS: usize = 24;
        const TIMEOUT: u64 = 50;
        for seed in 0..8 {
            let mut rng = SimRng::seed(seed);
            let mut t = RetransmissionTimer::new(QPS, TIMEOUT);
            let mut deadlines = [None::<u64>; QPS];
            let mut attempts = [0u32; QPS];
            let mut now = 0u64;
            for step in 0..4_000 {
                now += rng.below(20);
                let q = rng.below(QPS as u64) as usize;
                match rng.below(8) {
                    0..=2 => {
                        t.arm(q as Qpn, now);
                        let shift = attempts[q].min(6);
                        deadlines[q] = Some(now + (TIMEOUT << shift));
                    }
                    3 | 4 => {
                        t.disarm(q as Qpn);
                        deadlines[q] = None;
                    }
                    5 => {
                        t.note_progress(q as Qpn);
                        attempts[q] = 0;
                    }
                    _ => {
                        let mut want = Vec::new();
                        for (i, d) in deadlines.iter_mut().enumerate() {
                            if d.is_some_and(|d| d <= now) {
                                *d = None;
                                attempts[i] += 1;
                                want.push(i as Qpn);
                            }
                        }
                        assert_eq!(t.expired(now), want, "seed {seed} step {step}");
                    }
                }
                assert_eq!(
                    t.next_deadline(),
                    deadlines.iter().flatten().copied().min(),
                    "seed {seed} step {step}"
                );
                for i in 0..QPS {
                    assert_eq!(t.is_armed(i as Qpn), deadlines[i].is_some());
                    assert_eq!(t.attempts(i as Qpn), attempts[i]);
                }
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out of range"))]
    fn out_of_range_qpn_is_a_debug_assertion() {
        // Arming a QPN outside the table is a caller bug: loud in debug
        // builds, ignored (not UB, not a panic) in release builds.
        let mut t = RetransmissionTimer::new(2, 10);
        t.arm(9, 0);
        assert!(!t.is_armed(9));
        assert!(t.expired(100).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_panics() {
        let _ = RetransmissionTimer::new(1, 0);
    }

    #[test]
    fn consecutive_expirations_back_off_exponentially() {
        let mut t = RetransmissionTimer::new(2, 10).with_backoff_cap(3);
        let mut now = 0u64;
        // Expected per-attempt timeouts: 10, 20, 40, 80, then capped at 80.
        for want in [10u64, 20, 40, 80, 80, 80] {
            t.arm(0, now);
            assert!(t.expired(now + want - 1).is_empty(), "want {want}");
            now += want;
            assert_eq!(t.expired(now), vec![0]);
        }
        assert_eq!(t.attempts(0), 6);
        // First expiration is not a backoff event; the rest are.
        assert_eq!(t.backoff_events(), 5);
    }

    #[test]
    fn backoff_expirations_are_traced() {
        let sink = TraceSink::enabled(16);
        let mut t = RetransmissionTimer::new(2, 10).with_backoff_cap(3);
        t.set_trace(sink.clone());
        let mut now = 0u64;
        for want in [10u64, 20, 40] {
            t.arm(0, now);
            now += want;
            assert_eq!(t.expired(now), vec![0]);
        }
        // The first expiration is not a backoff; the next two are.
        let backoffs: Vec<_> = sink.records().into_iter().map(|r| r.event).collect();
        assert_eq!(
            backoffs,
            vec![
                TraceEvent::Backoff {
                    qpn: 0,
                    attempts: 2,
                    timeout: 40
                },
                TraceEvent::Backoff {
                    qpn: 0,
                    attempts: 3,
                    timeout: 80
                },
            ]
        );
    }

    #[test]
    fn progress_resets_backoff() {
        let mut t = RetransmissionTimer::new(2, 10);
        t.arm(0, 0);
        assert_eq!(t.expired(10), vec![0]);
        assert_eq!(t.current_timeout(0), 20);
        t.note_progress(0);
        assert_eq!(t.attempts(0), 0);
        assert_eq!(t.current_timeout(0), 10);
    }

    #[test]
    fn backoff_is_per_qp() {
        let mut t = RetransmissionTimer::new(2, 10);
        t.arm(0, 0);
        assert_eq!(t.expired(10), vec![0]);
        assert_eq!(t.current_timeout(0), 20);
        assert_eq!(t.current_timeout(1), 10, "QP 1 untouched");
    }
}
