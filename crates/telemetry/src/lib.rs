//! Observability for the StRoM simulation stack.
//!
//! Every other crate in the workspace sits *below* the experiments and
//! above the raw byte level, so this crate deliberately depends on
//! nothing: it defines the vocabulary (trace events, counters,
//! histograms, the status-register counter block) and the rest of the
//! stack threads handles to it through the datapath.
//!
//! - [`TraceSink`] — a cloneable handle to a bounded ring of typed
//!   [`TraceEvent`]s stamped with simulated time. A disabled sink (the
//!   default) costs a single branch per emission site, so instrumentation
//!   stays in the hot path permanently.
//! - [`MetricsRegistry`] — named counters, gauges, and log-linear
//!   HDR-style [`Histogram`]s that answer p50/p90/p99/p999 without
//!   storing samples.
//! - [`WireCounters`] — the per-node datapath counter block shared
//!   between the NIC's receive/transmit path and the Controller's status
//!   registers, so a counter cannot silently drift out of `status()`.
//! - [`TelemetryReport`] — machine-readable JSON export of all of the
//!   above, written next to the text tables by the bench binaries.
//! - [`Fingerprint`] — the one FNV-1a fold every golden (corpus, chaos,
//!   trace stream) is pinned to.
//! - [`json`] — the one JSON reader and writer: every document the
//!   workspace emits is a [`json::Value`] printed by its `Display`.
//!
//! Determinism: nothing here draws randomness or reads wall-clock time.
//! Two same-seed simulation runs emit byte-identical trace streams and
//! bit-identical histogram buckets, which `tests/chaos_soak.rs` checks.

#![forbid(unsafe_code)]

pub mod counters;
pub mod fingerprint;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use counters::WireCounters;
pub use fingerprint::Fingerprint;
pub use metrics::{
    jain_index, Counter, Gauge, Histogram, HistogramHandle, MetricsRegistry, MetricsSnapshot,
};
pub use report::TelemetryReport;
pub use trace::{DropReason, QpState, TraceEvent, TraceRecord, TraceSink};

/// Simulated time in picoseconds — the same unit as `strom_sim::Time`,
/// re-declared here so the telemetry vocabulary depends on nothing.
pub type Time = u64;
