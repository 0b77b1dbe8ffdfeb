//! N→1 incast under DCQCN: tail latency vs offered load, survival at
//! scale, and elephant/mice fairness.
//!
//! The canonical congestion benchmark the switched cluster's congestion
//! control exists to pass: N senders hammer one receiver through a
//! single egress port, with the per-sender window of outstanding 8 KiB
//! WRITEs as the offered-load axis. Every run is a checked
//! [`run_incast`] (survivor payloads verified byte-exact); the tuned
//! operating point is the one the tests below hold to zero tail drops
//! and zero QP errors.

use strom_nic::cluster_incast::{run_incast, IncastOutcome, IncastSpec};
use strom_nic::{Scenario, SwitchParams};
use strom_sim::report::{Figure, Series};
use strom_sim::time::{MICROS, NANOS};
use strom_sim::{Bandwidth, EcnConfig};
use strom_telemetry::TelemetryReport;

use super::{us, Scale};

/// Sender counts on the survival curve (the receiver is one more node).
const SENDER_COUNTS: [usize; 3] = [4, 8, 16];

/// The tuned operating point's per-sender window: deep enough that the
/// aggregate overloads the egress port (so ECN marking and rate cuts
/// engage), shallow enough that the line-rate burst in flight before the
/// first CNPs land fits the switch buffer even at N = 16.
const TUNED_WINDOW: usize = 2;

/// Offered-load axis: per-sender windows swept by the latency figure.
fn windows(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 16],
    }
}

/// The congested fabric every incast point runs through: 10 G ports, a
/// 256-frame shared-tail egress buffer, and (with `cc`) a step marker at
/// 16 frames — 1/16 of the buffer, low because a CE mark decided at
/// enqueue must ride the whole queue before the responder can echo it.
fn congested_switch(cc: bool, seed: u64) -> SwitchParams {
    SwitchParams {
        port_rate: Some(Bandwidth::gbit_per_sec(10.0)),
        latency: 500 * NANOS,
        egress_capacity: 256,
        ecn: cc.then(|| {
            let mut ecn = EcnConfig::step(16);
            ecn.seed = seed ^ 0xECF;
            ecn
        }),
    }
}

/// The spec for one incast point.
fn spec(senders: usize, window: usize, scale: Scale, cc: bool) -> IncastSpec {
    let mut spec = IncastSpec::new(senders, window, 0x1CA_5000 + senders as u64);
    spec.messages_per_sender = match scale {
        Scale::Quick => 12,
        Scale::Full => 48,
    };
    spec.cc = cc;
    spec.switch = congested_switch(cc, spec.seed);
    // Deep-queue operating points park hundreds of microseconds of
    // frames on the egress port; the timeout must sit above that delay
    // or every queued frame turns into a spurious go-back-N storm.
    spec.retransmit_timeout = Some(1_000 * MICROS);
    spec
}

/// The elephant/mice fairness point: two elephants at `boost`× the
/// window and data volume of six mice, same congested fabric.
fn fairness_spec(boost: usize, scale: Scale, cc: bool) -> IncastSpec {
    let mut spec = spec(8, 2, scale, cc);
    spec.seed ^= 0xE1E;
    spec.elephants = 2;
    spec.elephant_boost = boost;
    spec
}

/// Renders the three incast figures; the metrics registry of the tuned
/// N = 8 run (per-port queue-depth high watermarks, ECN mark counters)
/// becomes the experiment's telemetry report.
pub fn run(scale: Scale) -> (String, TelemetryReport) {
    // Figure 1: completion-latency quantiles vs offered load at N = 8,
    // with the no-CC p999 for contrast.
    let wins = windows(scale);
    let ticks: Vec<String> = wins.iter().map(|w| w.to_string()).collect();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut p999 = Vec::new();
    let mut p999_off = Vec::new();
    let mut cc_drops = 0u64;
    let mut cc_marks = 0u64;
    let mut cc_errors = 0usize;
    let mut off_drops = 0u64;
    let mut off_errors = 0usize;
    for &w in &wins {
        let on = run_incast(&spec(8, w, scale, true));
        let off = run_incast(&spec(8, w, scale, false));
        p50.push(us(on.p50_ps));
        p99.push(us(on.p99_ps));
        p999.push(us(on.p999_ps));
        p999_off.push(us(off.p999_ps));
        cc_drops += on.tail_drops;
        cc_marks += on.ecn_marked;
        cc_errors += on.qp_errors;
        off_drops += off.tail_drops;
        off_errors += off.qp_errors;
    }
    let latency = Figure::new(
        "Incast 8:1: WRITE completion latency vs offered load (window of 8 KiB messages)",
        "window",
        ticks,
        "us",
    )
    .push_series(Series::with_gaps("DCQCN p50", p50))
    .push_series(Series::with_gaps("DCQCN p99", p99))
    .push_series(Series::with_gaps("DCQCN p999", p999))
    .push_series(Series::with_gaps("no CC p999", p999_off))
    .push_note(format!(
        "DCQCN: tail_drops={cc_drops} ecn_marked={cc_marks} qp_errors={cc_errors}; \
         no CC: tail_drops={off_drops} qp_errors={off_errors}"
    ));

    // Figure 2: survival at the tuned window as the fan-in grows, the
    // N = 8 point's registry kept for the telemetry export.
    let ticks: Vec<String> = SENDER_COUNTS.iter().map(|n| n.to_string()).collect();
    let mut report = TelemetryReport::new("incast");
    let mut tuned: Vec<(usize, IncastOutcome)> = Vec::new();
    for &n in &SENDER_COUNTS {
        let (out, observed) = spec(n, TUNED_WINDOW, scale, true).observe();
        if n == 8 {
            report = report.with_registry(&observed.metrics);
        }
        tuned.push((n, out));
    }
    let survival = Figure::new(
        "Incast N:1 at the tuned operating point (DCQCN, window 2)",
        "senders",
        ticks,
        "us",
    )
    .push_series(Series::with_gaps(
        "p99",
        tuned.iter().map(|(_, o)| us(o.p99_ps)).collect(),
    ))
    .push_series(Series::with_gaps(
        "p999",
        tuned.iter().map(|(_, o)| us(o.p999_ps)).collect(),
    ))
    .push_note(
        tuned
            .iter()
            .map(|(n, o)| {
                format!(
                    "N={n}: goodput={:.2} Gbit/s drops={} marks={} cnps={} qp_errors={}",
                    o.goodput_gbps, o.tail_drops, o.ecn_marked, o.cnps, o.qp_errors
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
    );

    // Figure 3: elephant/mice fairness (Jain's index, 1.0 = every flow
    // got an equal share) as the elephants grow hungrier.
    let boosts = [2usize, 4, 8];
    let ticks: Vec<String> = boosts.iter().map(|b| format!("{b}x")).collect();
    let mut jain_on = Vec::new();
    let mut jain_off = Vec::new();
    for &b in &boosts {
        jain_on.push(run_incast(&fairness_spec(b, scale, true)).jain);
        jain_off.push(run_incast(&fairness_spec(b, scale, false)).jain);
    }
    let fairness = Figure::new(
        "Elephant/mice fairness: Jain's index vs elephant window boost (2 elephants, 6 mice)",
        "boost",
        ticks,
        "Jain",
    )
    .push_series(Series::new("DCQCN", jain_on))
    .push_series(Series::new("no CC", jain_off));

    (
        format!(
            "{}\n{}\n{}",
            latency.render(),
            survival.render(),
            fairness.render()
        ),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the tuned operating point: an 8:1 incast
    /// under DCQCN completes with zero terminal QP errors, zero tail
    /// drops, and a p999 bounded well below the retransmission timeout.
    #[test]
    fn tuned_point_survives_eight_to_one() {
        let out = run_incast(&spec(8, TUNED_WINDOW, Scale::Quick, true));
        assert_eq!(out.qp_errors, 0);
        assert_eq!(out.tail_drops, 0);
        assert!(out.ecn_marked > 0, "overload must engage the marker");
        let p999 = out.p999_ps.expect("completions recorded");
        assert!(
            p999 < 1_000 * MICROS,
            "p999 = {} us exceeds the retransmit timeout",
            p999 / MICROS
        );
    }

    /// Survival at scale: every fan-in on the survival curve completes at
    /// the tuned window without a single QP going terminal.
    #[test]
    fn tuned_window_survives_every_fan_in() {
        for n in SENDER_COUNTS {
            let out = run_incast(&spec(n, TUNED_WINDOW, Scale::Quick, true));
            assert_eq!(out.qp_errors, 0, "N={n}");
            assert!(out.p999_ps.is_some(), "N={n}: completions recorded");
        }
    }
}
