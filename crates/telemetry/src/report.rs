//! Machine-readable JSON export of a run's telemetry.
//!
//! A report is a [`Value`] built from the registry and the trace sink,
//! with keys in insertion order (callers insert sorted names, so output
//! is deterministic), and printed by the one JSON writer
//! ([`crate::json`]). The schema is versioned via the top-level
//! `"schema"` field and validated by the telemetry smoke test in
//! `crates/bench/tests/smoke.rs`.

use crate::json::Value;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::TraceSink;

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
/// let doc = TelemetryReport::new("example").with_registry(&reg).to_value();
/// assert_eq!(doc.str_field("schema").unwrap(), "strom-telemetry-v1");
/// assert_eq!(doc.field("counters").unwrap().u64_field("ops").unwrap(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    source: String,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
    trace: Option<Value>,
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

/// A histogram's count, exact min/max/sum, mean, quantiles and
/// non-empty buckets.
fn histogram_value(h: &Histogram) -> Value {
    let q = |p: f64| num(h.quantile(p).unwrap_or(0));
    // The mean is exported to three decimals.
    let mean = format!("{:.3}", h.mean())
        .parse()
        .expect("a formatted f64 parses");
    let buckets = (h.nonzero_buckets().into_iter())
        .map(|(lo, count)| Value::Arr(vec![num(lo), num(count)]))
        .collect();
    Value::obj([
        ("count", num(h.count())),
        ("min", num(h.min())),
        ("max", num(h.max())),
        ("sum", num(h.sum())),
        ("mean", Value::Num(mean)),
        ("p50", q(0.50)),
        ("p90", q(0.90)),
        ("p99", q(0.99)),
        ("p999", q(0.999)),
        ("buckets", Value::Arr(buckets)),
    ])
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

    /// Records the trace sink's summary statistics: events emitted,
    /// still retained, overwritten by the bounded ring, and the
    /// fingerprint of the full emission stream.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(Value::obj([
            ("emitted", num(sink.emitted())),
            ("retained", num(sink.records().len() as u64)),
            ("overwritten", num(sink.overwritten())),
            (
                "fingerprint",
                Value::Str(format!("{:#018x}", sink.fingerprint())),
            ),
        ]));
        self
    }

    /// The report as one `strom-telemetry-v1` JSON object.
    pub fn to_value(&self) -> Value {
        let named = |entries: &[(String, u64)]| {
            Value::obj((entries.iter()).map(|(name, v)| (name.as_str(), num(*v))))
        };
        let histograms =
            (self.histograms.iter()).map(|(name, h)| (name.as_str(), histogram_value(h)));
        let mut fields = vec![
            ("schema", Value::str("strom-telemetry-v1")),
            ("source", Value::str(&self.source)),
            ("counters", named(&self.counters)),
            ("gauges", named(&self.gauges)),
            ("histograms", Value::obj(histograms)),
        ];
        fields.extend(self.trace.clone().map(|t| ("trace", t)));
        Value::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceSink};

    #[test]
    fn report_carries_every_section() {
        let reg = MetricsRegistry::default();
        reg.counter("sim.events").add(42);
        reg.gauge("depth").set(7);
        reg.histogram("lat").record(1000);
        let sink = TraceSink::enabled(4);
        sink.emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        let doc = TelemetryReport::new("unit \"test\"")
            .with_registry(&reg)
            .with_trace(&sink)
            .to_value();
        assert_eq!(crate::json::parse(&format!("{doc:#}")), Ok(doc.clone()));
        assert_eq!(doc.str_field("schema").unwrap(), "strom-telemetry-v1");
        assert_eq!(doc.str_field("source").unwrap(), "unit \"test\"");
        let field = |section: &str, key: &str| doc.field(section).unwrap().u64_field(key).unwrap();
        assert_eq!(field("counters", "sim.events"), 42);
        assert_eq!(field("gauges", "depth"), 7);
        assert_eq!(field("trace", "emitted"), 1);
        let lat = doc.field("histograms").unwrap().field("lat").unwrap();
        assert_eq!(lat.u64_field("p999").unwrap(), 1000);
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let text = format!("{:#}", TelemetryReport::new("empty").to_value());
        assert!(text.contains("\"counters\": {}"));
        assert!(text.contains("\"histograms\": {}"));
        assert!(!text.contains("\"trace\""));
    }

    /// The mean keeps three decimals; every other statistic is exact.
    #[test]
    fn histogram_mean_is_rounded_to_three_decimals() {
        let mut h = Histogram::new();
        for v in [1, 2, 2] {
            h.record(v);
        }
        let v = histogram_value(&h);
        assert_eq!(v.field("mean"), Ok(&Value::Num(1.667)));
        assert_eq!(v.u64_field("sum"), Ok(5));
    }
}
