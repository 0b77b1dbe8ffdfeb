//! One scenario shape for every workload family: a spec builds its
//! testbed, drives the run on it and verifies it, and the run reports
//! one [`Observables`] value.
//!
//! The chaos soak ([`crate::chaos::ChaosSpec`]), the all-to-all shuffle
//! ([`crate::cluster_shuffle::ShuffleSpec`]), the incast
//! ([`crate::cluster_incast::IncastSpec`]), the KV serving tier
//! ([`crate::kv_serve::KvSpec`]) and the kernel chains
//! ([`crate::cluster_chain::Chain`]) each implement [`Scenario`] beside
//! their outcome type, and that impl is the only place their corpus
//! fingerprint and perf list are written down. The corpus pins
//! [`Observables::fingerprint`] and gates [`Observables::perf`], `figures`
//! exports [`Observables::metrics`], and the soak tests split
//! [`Scenario::testbed`] from [`Scenario::drive`] to instrument the
//! testbed a run happens on.

use strom_telemetry::MetricsRegistry;

use crate::testbed::ClusterTestbed;

/// The livelock bound on the drain after a scenario's traffic completes
/// ([`ClusterTestbed::run_until_idle_bounded`]). A healthy run has only
/// acks, timers and drained queues left to dispatch by then; a
/// retransmission or pacing loop that never converges keeps scheduling,
/// and fails the drain at this many events instead of hanging the corpus,
/// a figure or a benchmark run. One bound serves the shuffle, the KV tier
/// and the chains; the chaos soak keeps a smaller one of its own.
pub(crate) const EVENT_BUDGET: u64 = 200_000_000;

/// A workload that runs on a [`ClusterTestbed`] and verifies itself.
pub trait Scenario {
    /// What one verified run reports.
    type Outcome;

    /// Builds the testbed the scenario runs on: its platform, seed and
    /// node geometry. Setup that belongs to the run itself (QPs, fault
    /// models, pinned memory) may happen here or in [`Self::drive`]. A
    /// caller may instrument the testbed (tracing, capture) before handing
    /// it to [`Self::drive`].
    fn testbed(&self) -> ClusterTestbed;

    /// Drives the scenario on `tb`, which [`Self::testbed`] built, and
    /// verifies the run against its reference. Panics on any integrity
    /// violation, so no outcome is ever reported for a corrupt run.
    fn drive(&self, tb: &mut ClusterTestbed) -> Self::Outcome;

    /// The corpus fingerprint of a run.
    fn fingerprint(outcome: &Self::Outcome) -> u64;

    /// The perf observables the corpus gates, in report order
    /// (`elapsed_us` first). `CORPUS.json` serializes them in this order.
    fn perf(outcome: &Self::Outcome) -> Vec<(&'static str, f64)>;

    /// Builds the testbed, drives and verifies the run, and distills it.
    fn observe(&self) -> (Self::Outcome, Observables) {
        let mut tb = self.testbed();
        let outcome = self.drive(&mut tb);
        let observables = Observables {
            fingerprint: Self::fingerprint(&outcome),
            perf: Self::perf(&outcome),
            metrics: tb.metrics().clone(),
        };
        (outcome, observables)
    }
}

/// What one scenario run observed, in the shape every consumer reads.
#[derive(Debug, Clone)]
pub struct Observables {
    /// The run's corpus fingerprint ([`Scenario::fingerprint`]).
    pub fingerprint: u64,
    /// Named perf observables in report order; `elapsed_us` comes first.
    pub perf: Vec<(&'static str, f64)>,
    /// The testbed's metrics registry after the run: completion-latency
    /// histograms, switch per-port gauges and counters, and anything the
    /// driver recorded.
    pub metrics: MetricsRegistry,
}

impl Observables {
    /// Looks up one perf observable.
    pub fn perf(&self, key: &str) -> Option<f64> {
        self.perf.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Picoseconds as microseconds, the unit of every `_us` perf key.
pub fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}
