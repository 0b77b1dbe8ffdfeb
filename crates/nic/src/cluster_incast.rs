//! N→1 incast over the switched cluster: the canonical congestion
//! benchmark DCQCN exists to survive.
//!
//! N senders each keep a fixed window of RDMA WRITEs outstanding toward
//! the same receiver, so all N flows collapse onto one egress port. The
//! driver is closed-loop: a sender posts its next message the moment the
//! previous one completes, which makes the per-sender window the offered
//! -load axis (window × message size ≈ bytes in flight per flow).
//!
//! Without congestion control the shared egress queue either tail-drops
//! (shallow buffers → retransmission storms, possibly terminal QP
//! errors) or bloats (deep buffers → p999 latency far beyond the
//! retransmit timeout). With DCQCN
//! ([`NicConfig::cc`](crate::NicConfig::cc)) the switch CE-marks at a
//! threshold, receivers echo CNPs, and every sender
//! converges near its fair share of the bottleneck — the run completes
//! with near-zero drops and a bounded tail.
//!
//! Everything derives from the seed; same-spec reruns are bit-identical.

use strom_sim::time::TimeDelta;
use strom_sim::SimRng;
use strom_telemetry::{jain_index, Fingerprint, Histogram};
use strom_wire::bth::Qpn;

use crate::config::Platform;
use crate::scenario::{us, Scenario};
use crate::spec::{check_cc, check_qp_table, shape, spec_json, SpecError};
use crate::testbed::{ClusterTestbed, SwitchParams};
use crate::{CompletionStatus, WorkRequest};

/// Everything that determines one incast run.
#[derive(Debug, Clone, PartialEq)]
pub struct IncastSpec {
    /// Hardware platform (10 G or 100 G datapath).
    pub platform: Platform,
    /// Concurrent senders (the receiver is one extra node).
    pub senders: usize,
    /// Bytes per RDMA WRITE message.
    pub message_len: u32,
    /// Messages each sender must complete.
    pub messages_per_sender: usize,
    /// Messages each sender keeps outstanding (the offered-load knob).
    pub window: usize,
    /// Seed for payload contents and all simulation randomness.
    pub seed: u64,
    /// Switch geometry (ECN marking lives here).
    pub switch: SwitchParams,
    /// Enables DCQCN on every NIC.
    pub cc: bool,
    /// Overrides the NIC retransmission timeout (`None` keeps the
    /// platform default).
    pub retransmit_timeout: Option<TimeDelta>,
    /// The first `elephants` senders keep `window × elephant_boost`
    /// messages outstanding instead of `window` — the elephant flows of
    /// an elephant/mice fairness mix (0 makes every sender a mouse).
    pub elephants: usize,
    /// Window multiplier for elephant senders (≥ 1).
    pub elephant_boost: usize,
    /// READ-heavy mode: node 0 issues RDMA READs *from* every peer
    /// instead of the peers writing to it. The congested traffic is then
    /// the read-*response* streams converging on node 0's egress port —
    /// the case where DCQCN only helps if responders pace their
    /// responses (CE-marked responses echo CNPs back to the responder).
    pub reads: bool,
}

impl IncastSpec {
    /// A congestion-control-off 10 G spec with default switch geometry.
    pub fn new(senders: usize, window: usize, seed: u64) -> Self {
        IncastSpec {
            platform: Platform::TenGig,
            senders,
            message_len: 8 << 10,
            messages_per_sender: 24,
            window,
            seed,
            switch: SwitchParams::default(),
            cc: false,
            retransmit_timeout: None,
            elephants: 0,
            elephant_boost: 1,
            reads: false,
        }
    }

    /// What makes the spec runnable.
    pub fn check(&self) -> Result<(), SpecError> {
        let senders = self.senders;
        shape(senders >= 1, "incast senders must be ≥ 1")?;
        let what = format!("{senders} senders × 1 receiver");
        check_qp_table(self.platform, &what, senders)?;
        shape(self.window >= 1, "incast window must be ≥ 1")?;
        shape(
            self.elephant_boost >= 1,
            "incast elephant_boost must be ≥ 1",
        )?;
        check_cc(self.cc, &self.switch)
    }

    /// The outstanding-message window of sender `s` (0-based).
    pub fn window_for(&self, s: usize) -> usize {
        if s < self.elephants {
            self.window * self.elephant_boost.max(1)
        } else {
            self.window
        }
    }

    /// The message quota of sender `s`: elephants carry proportionally
    /// more data, so they stay backlogged for the whole run instead of
    /// finishing their share early.
    pub fn quota_for(&self, s: usize) -> usize {
        if s < self.elephants {
            self.messages_per_sender * self.elephant_boost.max(1)
        } else {
            self.messages_per_sender
        }
    }
}

spec_json! {
    IncastSpec {
        platform, senders, message_len, messages_per_sender, window, seed, switch, cc,
        retransmit_timeout, elephants, elephant_boost, reads,
    }
}

/// What one incast run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct IncastOutcome {
    /// First post to last completion, in picoseconds.
    pub elapsed_ps: TimeDelta,
    /// Receiver goodput in Gbit/s (completed payload bytes over elapsed).
    pub goodput_gbps: f64,
    /// Message completion latency quantiles, picoseconds.
    pub p50_ps: Option<u64>,
    pub p99_ps: Option<u64>,
    pub p999_ps: Option<u64>,
    /// Switch tail-drops over the run.
    pub tail_drops: u64,
    /// Frames the switch CE-marked.
    pub ecn_marked: u64,
    /// CNPs received across all senders (== DCQCN rate-cut signals).
    pub cnps: u64,
    /// Retransmissions summed over all senders.
    pub retransmissions: u64,
    /// Senders whose QP went terminal (must be 0 at any sane operating
    /// point — incast is supposed to be survivable).
    pub qp_errors: usize,
    /// Payload bytes each sender completed (for fairness analysis).
    pub per_sender_bytes: Vec<u64>,
    /// Jain's fairness index over `per_sender_bytes` weighted by the
    /// inverse of each sender's active time — 1.0 when every flow got an
    /// equal share of the bottleneck.
    pub jain: f64,
}

/// The QP connecting sender `s` (0-based) to the receiver.
fn sender_qpn(s: usize) -> Qpn {
    s as Qpn + 1
}

/// Runs the N→1 incast on a fresh testbed (see [`IncastSpec`]'s
/// [`Scenario`] impl).
pub fn run_incast(spec: &IncastSpec) -> IncastOutcome {
    let mut tb = spec.testbed();
    spec.drive(&mut tb)
}

impl Scenario for IncastSpec {
    type Outcome = IncastOutcome;

    /// # Panics
    ///
    /// Only on a spec [`IncastSpec::check`] refuses.
    fn testbed(&self) -> ClusterTestbed {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = self.platform.config();
        cfg.seed = self.seed;
        cfg.cc = self.cc;
        if let Some(timeout) = self.retransmit_timeout {
            cfg.retransmit_timeout = timeout;
        }
        ClusterTestbed::switched(cfg, self.senders + 1, self.switch)
    }

    /// Verifies every surviving sender's payload. Congestion outcomes —
    /// drops, retransmissions, even terminal QP errors — are *reported*,
    /// not asserted, so callers can probe operating points beyond the
    /// cliff.
    fn drive(&self, tb: &mut ClusterTestbed) -> IncastOutcome {
        let n = self.senders;
        let receiver: usize = 0;
        for s in 0..n {
            tb.connect_qp_between(receiver, s + 1, sender_qpn(s));
        }

        // Each sender stages one seeded message buffer and writes it
        // repeatedly into its own private slice of the receiver's region —
        // flows never alias, so memory checks stay meaningful.
        let msg = self.message_len as u64;
        let dst_base = tb.pin(receiver, msg * n as u64);
        let mut src = Vec::with_capacity(n);
        for s in 0..n {
            let addr = tb.pin(s + 1, msg);
            let mut data = vec![0u8; self.message_len as usize];
            SimRng::seed(self.seed ^ (s as u64) << 17).fill_bytes(&mut data);
            tb.mem(s + 1).write(addr, &data);
            src.push((addr, data));
        }
        tb.bring_up();

        // Closed loop: keep `window` writes in flight per sender until each
        // has completed its quota. Per-QP RC ordering means completions
        // arrive in post order, so only the head of each sender's FIFO needs
        // polling.
        let t0 = tb.now();
        let mut outstanding: Vec<std::collections::VecDeque<(u64, u64)>> =
            vec![std::collections::VecDeque::new(); n];
        let mut posted = vec![0usize; n];
        let mut done = vec![0usize; n];
        let mut dead = vec![false; n];
        let mut per_sender_bytes = vec![0u64; n];
        let mut finished_at = vec![t0; n];
        let mut latency = Histogram::new();
        // READ mode inverts who posts: node 0 is the requester on every QP
        // and pulls each peer's staged buffer; the data still flows
        // peer → node 0, so completion polling and memory verification stay
        // on the same nodes in both modes.
        let post_node = |s: usize| if self.reads { receiver } else { s + 1 };
        let post_next = |tb: &mut ClusterTestbed, s: usize, posted: &mut Vec<usize>| {
            let wr = if self.reads {
                WorkRequest::Read {
                    remote_vaddr: src[s].0,
                    local_vaddr: dst_base + msg * s as u64,
                    len: self.message_len,
                }
            } else {
                WorkRequest::Write {
                    remote_vaddr: dst_base + msg * s as u64,
                    local_vaddr: src[s].0,
                    len: self.message_len,
                }
            };
            let h = tb.post(post_node(s), sender_qpn(s), wr);
            posted[s] += 1;
            (h, tb.now())
        };
        for (s, fifo) in outstanding.iter_mut().enumerate() {
            for _ in 0..self.window_for(s).min(self.quota_for(s)) {
                fifo.push_back(post_next(tb, s, &mut posted));
            }
        }
        loop {
            let polled_at = tb.completion_count();
            let mut all_done = true;
            for s in 0..n {
                while let Some(&(h, posted_at)) = outstanding[s].front() {
                    let Some(t) = tb.completed_at(post_node(s), h) else {
                        break;
                    };
                    outstanding[s].pop_front();
                    match tb.completion_status(post_node(s), h) {
                        Some(CompletionStatus::Success) => {
                            latency.record(t.saturating_sub(posted_at));
                            per_sender_bytes[s] += msg;
                            done[s] += 1;
                            finished_at[s] = finished_at[s].max(t);
                            if posted[s] < self.quota_for(s) {
                                let entry = post_next(tb, s, &mut posted);
                                outstanding[s].push_back(entry);
                            }
                        }
                        _ => {
                            // Terminal QP error: the whole flow is dead, stop
                            // feeding it.
                            dead[s] = true;
                            outstanding[s].clear();
                        }
                    }
                }
                if !dead[s] && done[s] < self.quota_for(s) {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
            // A FIFO head changes state only when a completion is recorded,
            // and most events record none: poll again only after one has.
            while tb.completion_count() == polled_at {
                assert!(
                    tb.step_batch() > 0,
                    "seed {}: incast went idle with messages outstanding",
                    self.seed
                );
            }
        }
        let elapsed_ps = (finished_at.iter().copied().max().unwrap_or(t0) - t0).max(1);
        tb.run_until_idle();

        // Survivors' memory must hold their staged pattern (last write wins;
        // all writes per sender carry identical bytes).
        for s in 0..n {
            if !dead[s] && done[s] > 0 {
                assert_eq!(
                    tb.mem(receiver)
                        .read(dst_base + msg * s as u64, src[s].1.len()),
                    src[s].1,
                    "seed {}: sender {s} payload corrupted",
                    self.seed
                );
            }
        }

        let bytes: u64 = per_sender_bytes.iter().sum();
        let secs = elapsed_ps as f64 * 1e-12;
        // Fairness over per-flow goodput: each sender's bytes over its own
        // active time, so a flow that finished early is not counted as
        // starved for the remainder of the run.
        let rates: Vec<f64> = (0..n)
            .map(|s| {
                let active = (finished_at[s] - t0).max(1) as f64;
                per_sender_bytes[s] as f64 / active
            })
            .collect();
        IncastOutcome {
            elapsed_ps,
            goodput_gbps: bytes as f64 * 8.0 / secs / 1e9,
            p50_ps: latency.quantile(0.50),
            p99_ps: latency.quantile(0.99),
            p999_ps: latency.quantile(0.999),
            tail_drops: tb.switch_tail_drops(),
            ecn_marked: (0..n + 1)
                .map(|p| tb.switch_counters(p).map_or(0, |c| c.ecn_marked))
                .sum(),
            // Summed over *all* nodes: in write mode the rate-cut signals
            // land on the senders, in read mode on the responding peers and
            // the retransmissions on the requesting node 0.
            cnps: (0..=n).map(|p| tb.status(p).wire.cnps_rx).sum(),
            retransmissions: (0..=n).map(|p| tb.retransmissions(p)).sum(),
            qp_errors: dead.iter().filter(|&&d| d).count(),
            per_sender_bytes,
            jain: jain_index(&rates),
        }
    }

    fn fingerprint(out: &IncastOutcome) -> u64 {
        let mut fp = Fingerprint::new();
        for word in [
            out.elapsed_ps,
            out.p50_ps.unwrap_or(0),
            out.p99_ps.unwrap_or(0),
            out.p999_ps.unwrap_or(0),
            out.tail_drops,
            out.ecn_marked,
            out.cnps,
            out.retransmissions,
            out.qp_errors as u64,
        ] {
            fp.word(word);
        }
        for &b in &out.per_sender_bytes {
            fp.word(b);
        }
        fp.value()
    }

    fn perf(out: &IncastOutcome) -> Vec<(&'static str, f64)> {
        vec![
            ("elapsed_us", us(out.elapsed_ps)),
            ("goodput_gbps", out.goodput_gbps),
            ("p999_us", us(out.p999_ps.unwrap_or(0))),
            ("tail_drops", out.tail_drops as f64),
            ("ecn_marked", out.ecn_marked as f64),
            ("qp_errors", out.qp_errors as f64),
            ("jain", out.jain),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_sim::time::{MICROS, NANOS};
    use strom_sim::{Bandwidth, EcnConfig};

    fn congested_switch(capacity: usize, ecn: Option<EcnConfig>) -> SwitchParams {
        SwitchParams {
            port_rate: Some(Bandwidth::gbit_per_sec(10.0)),
            latency: 500 * NANOS,
            egress_capacity: capacity,
            ecn,
        }
    }

    #[test]
    fn small_incast_completes_without_cc() {
        let mut spec = IncastSpec::new(2, 2, 0x1CA5);
        spec.messages_per_sender = 6;
        spec.switch = congested_switch(256, None);
        let o = run_incast(&spec);
        assert_eq!(o.qp_errors, 0);
        assert_eq!(o.per_sender_bytes, vec![6 * 8192, 6 * 8192]);
        assert!(o.goodput_gbps > 0.0);
        assert_eq!(o.cnps, 0, "no CC, no CNPs");
        assert_eq!(o.ecn_marked, 0, "no marker configured");
    }

    #[test]
    fn cc_incast_marks_cuts_and_stays_fair() {
        let mut spec = IncastSpec::new(4, 4, 0x1CA5);
        spec.messages_per_sender = 12;
        spec.retransmit_timeout = Some(1_000 * MICROS);
        spec.switch = congested_switch(256, Some(EcnConfig::step(16)));
        spec.cc = true;
        let o = run_incast(&spec);
        assert_eq!(o.qp_errors, 0, "CC incast must not error QPs");
        assert!(o.ecn_marked > 0, "4:1 overload must cross the threshold");
        assert!(o.cnps > 0, "marks must echo back as CNPs");
        assert_eq!(o.tail_drops, 0, "marking should hold the queue short");
        assert!(o.jain > 0.8, "fair share expected, Jain = {}", o.jain);
    }

    #[test]
    fn dcqcn_restores_elephant_mice_fairness() {
        // Two elephants keep 4× the window (and carry 4× the data) of
        // four mice. Without CC the FIFO egress queue serves flows in
        // proportion to their queue occupancy, so elephants take ~4× the
        // mice's bandwidth; DCQCN's per-QP rate control pushes every
        // backlogged flow toward the same share.
        let run = |cc: bool| {
            let mut spec = IncastSpec::new(6, 4, 0xFA1);
            spec.messages_per_sender = 8;
            spec.elephants = 2;
            spec.elephant_boost = 4;
            spec.retransmit_timeout = Some(1_000 * MICROS);
            spec.switch = congested_switch(384, cc.then(|| EcnConfig::step(16)));
            spec.cc = cc;
            run_incast(&spec)
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.qp_errors, 0);
        assert_eq!(on.qp_errors, 0);
        assert!(
            on.jain > off.jain,
            "DCQCN should improve fairness: {} (on) vs {} (off)",
            on.jain,
            off.jain
        );
    }

    #[test]
    fn read_incast_paces_responses_through_dcqcn() {
        // N:1 READ incast: node 0 pulls from 4 peers at once, so the
        // congested stream is read *responses* converging on node 0's
        // egress port. This only benefits from DCQCN because responders
        // pace their responses through the per-QP pacer and CE-marked
        // responses echo CNPs back — the regression this test pins.
        let run = |cc: bool| {
            let mut spec = IncastSpec::new(4, 4, 0x2EAD);
            spec.messages_per_sender = 12;
            spec.reads = true;
            spec.retransmit_timeout = Some(1_000 * MICROS);
            spec.switch = congested_switch(32, cc.then(|| EcnConfig::step(8)));
            spec.cc = cc;
            run_incast(&spec)
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(on.qp_errors, 0, "paced READ incast must not error QPs");
        assert!(
            on.ecn_marked > 0,
            "4:1 response overload must cross the mark threshold"
        );
        assert!(
            on.cnps > 0,
            "CE-marked responses must echo CNPs to the responders"
        );
        assert!(
            off.tail_drops > 0,
            "operating point too mild: CC-off READ incast did not drop"
        );
        assert!(
            on.tail_drops < off.tail_drops,
            "response pacing should shed drops: {} (on) vs {} (off)",
            on.tail_drops,
            off.tail_drops
        );
        assert!(
            on.retransmissions < off.retransmissions,
            "fewer drops should mean fewer retransmissions: {} (on) vs {} (off)",
            on.retransmissions,
            off.retransmissions
        );
    }

    #[test]
    fn read_incast_reruns_reproduce_the_outcome() {
        let mut spec = IncastSpec::new(3, 3, 0x2EAD5);
        spec.messages_per_sender = 8;
        spec.reads = true;
        spec.switch = congested_switch(128, Some(EcnConfig::step(12)));
        spec.cc = true;
        let a = run_incast(&spec);
        let b = run_incast(&spec);
        assert_eq!(a, b, "READ incast rerun diverged");
    }

    #[test]
    fn same_seed_reruns_reproduce_the_outcome() {
        let mut spec = IncastSpec::new(3, 3, 0xD0C5);
        spec.messages_per_sender = 8;
        spec.switch = congested_switch(128, Some(EcnConfig::step(12)));
        spec.cc = true;
        let a = run_incast(&spec);
        let b = run_incast(&spec);
        assert_eq!(a, b, "incast rerun diverged");
    }
}
