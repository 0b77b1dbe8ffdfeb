//! Machine-readable JSON export of a run's telemetry.
//!
//! The container this workspace builds in has no crates.io access, so the
//! JSON is hand-rolled: integers, doubles, escaped strings, and objects
//! with keys in insertion order (callers insert sorted names, so output
//! is deterministic); strings go through [`crate::json::escape`]. The
//! schema is versioned via the top-level `"schema"` field and validated
//! by the telemetry smoke test in `crates/bench/tests/smoke.rs`.

use crate::json::escape;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::TraceSink;

/// Summary of a trace sink's state for export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events emitted.
    pub emitted: u64,
    /// Events still retained in the ring.
    pub retained: u64,
    /// Events the bounded ring overwrote.
    pub overwritten: u64,
    /// FNV-1a fingerprint of the full emission stream.
    pub fingerprint: u64,
}

/// A run's exported telemetry: counters, gauges, histograms with
/// percentiles, and optional trace statistics.
///
/// # Examples
///
/// ```
/// use strom_telemetry::{MetricsRegistry, TelemetryReport};
/// let reg = MetricsRegistry::default();
/// reg.counter("ops").add(3);
/// reg.histogram("lat_ps").record(1500);
/// let json = TelemetryReport::new("example").with_registry(&reg).to_json();
/// assert!(json.contains("\"schema\": \"strom-telemetry-v1\""));
/// assert!(json.contains("\"ops\": 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    source: String,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
    trace: Option<TraceStats>,
}

fn push_histogram(out: &mut String, h: &Histogram) {
    let q = |p: f64| h.quantile(p).unwrap_or(0);
    out.push_str(&format!(
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}, \"mean\": {:.3}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [",
        h.count(),
        h.min(),
        h.max(),
        h.sum(),
        h.mean(),
        q(0.50),
        q(0.90),
        q(0.99),
        q(0.999),
    ));
    for (i, (lo, count)) in h.nonzero_buckets().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{lo}, {count}]"));
    }
    out.push_str("]}");
}

impl TelemetryReport {
    /// An empty report labelled with its producing context.
    pub fn new(source: &str) -> Self {
        Self {
            source: source.to_string(),
            ..Default::default()
        }
    }

    /// Copies every metric out of `registry` (builder style).
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        let snap = registry.snapshot();
        self.counters.extend(snap.counters);
        self.gauges.extend(snap.gauges);
        self.histograms.extend(snap.histograms);
        self
    }

    /// Records the trace sink's summary statistics.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(TraceStats {
            emitted: sink.emitted(),
            retained: sink.records().len() as u64,
            overwritten: sink.overwritten(),
            fingerprint: sink.fingerprint(),
        });
        self
    }

    /// Serializes the report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"strom-telemetry-v1\",\n  \"source\": ");
        out.push_str(&escape(&self.source));
        for (section, entries) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            out.push_str(&format!(",\n  \"{section}\": {{"));
            for (i, (name, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {}: {value}", escape(name)));
            }
            if !entries.is_empty() {
                out.push_str("\n  ");
            }
            out.push('}');
        }
        out.push_str(",\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: ", escape(name)));
            push_histogram(&mut out, h);
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push('}');
        if let Some(t) = &self.trace {
            out.push_str(&format!(
                ",\n  \"trace\": {{\"emitted\": {}, \"retained\": {}, \"overwritten\": {}, \
                 \"fingerprint\": \"{:#018x}\"}}",
                t.emitted, t.retained, t.overwritten, t.fingerprint
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceSink};

    #[test]
    fn json_contains_all_sections() {
        let reg = MetricsRegistry::default();
        reg.counter("sim.events").add(42);
        reg.gauge("depth").set(7);
        reg.histogram("lat").record(1000);
        let sink = TraceSink::enabled(4);
        sink.emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        let json = TelemetryReport::new("unit \"test\"")
            .with_registry(&reg)
            .with_trace(&sink)
            .to_json();
        let doc = crate::json::parse(&json).expect("report is valid JSON");
        assert_eq!(doc.str_field("source").unwrap(), "unit \"test\"");
        assert!(json.contains("\"schema\": \"strom-telemetry-v1\""));
        assert!(json.contains("\"source\": \"unit \\\"test\\\"\""));
        assert!(json.contains("\"sim.events\": 42"));
        assert!(json.contains("\"depth\": 7"));
        assert!(json.contains("\"p999\": "));
        assert!(json.contains("\"emitted\": 1"));
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let json = TelemetryReport::new("empty").to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(!json.contains("\"trace\""));
    }
}
