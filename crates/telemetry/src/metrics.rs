//! Named counters, gauges, and log-linear HDR-style histograms.
//!
//! The histogram buckets values by power-of-two octave subdivided into
//! [`SUB_BUCKETS`] linear sub-buckets, the classic HDR layout: ~6%
//! relative error, a few kilobytes of memory, O(1) recording, and
//! quantiles computed from bucket counts alone — no samples are stored,
//! so a million-operation soak costs the same memory as ten operations.
//! Buckets are plain integers, so two deterministic runs produce
//! bit-identical bucket arrays (asserted by the chaos-soak determinism
//! tests) and histograms merge exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Log2 of the linear sub-buckets per octave.
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two octave (relative error ≤ 1/16).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total buckets needed to cover the full `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) << SUB_BITS;

/// A shared monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared last-value-wins gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-linear histogram over `u64` values (latencies in picoseconds,
/// sizes in bytes, …).
///
/// # Examples
///
/// ```
/// use strom_telemetry::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.50).unwrap();
/// assert!((470..=530).contains(&p50), "p50 = {p50}");
/// assert_eq!(h.quantile(1.0), Some(h.max()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB_BUCKETS;
    (((shift + 1) << SUB_BITS) + sub as u32) as usize
}

/// Inclusive value range `[lo, hi]` covered by bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS as usize {
        return (index as u64, index as u64);
    }
    let shift = (index as u32 >> SUB_BITS) - 1;
    let sub = index as u64 & (SUB_BUCKETS - 1);
    let lo = (SUB_BUCKETS + sub) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the q-th ranked sample, clamped to the exact
    /// observed `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i).1.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds every recorded value of `other` into `self` (bucket-exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).0, c))
            .collect()
    }
}

/// Jain's fairness index over per-flow allocations: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly equal shares; `k/n` means `k` flows split the
/// resource while `n−k` starve. Returns 1.0 for an empty or all-zero
/// input (nothing is being shared unfairly).
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len() as f64;
    let sum: f64 = allocations.iter().sum();
    let sq_sum: f64 = allocations.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sq_sum)
}

/// A shared handle to one registered histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.lock().expect("histogram lock").record(v);
    }

    /// Adds every recorded value of `other` ([`Histogram::merge`]).
    pub fn merge(&self, other: &Histogram) {
        self.0.lock().expect("histogram lock").merge(other);
    }

    /// A snapshot of the current state.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().expect("histogram lock").clone()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// A registry of named metrics shared by every component of one testbed.
///
/// Cloning the registry (or any handle it returns) shares state, so the
/// testbed hands out handles at construction time and the hot path never
/// touches the name maps again.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry(Arc<Mutex<RegistryInner>>);

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` for every histogram.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// The counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.0
            .lock()
            .expect("registry lock")
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.0
            .lock()
            .expect("registry lock")
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.0
            .lock()
            .expect("registry lock")
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Copies out every metric, sorted by name (deterministic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.0.lock().expect("registry lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_spans_equal_to_starved() {
        assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        // One of four flows hogging everything: index = 1/4.
        assert!((jain_index(&[12.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Degenerate inputs are "fair" by convention.
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        // Mild skew sits strictly between the extremes.
        let j = jain_index(&[4.0, 5.0, 6.0]);
        assert!(j > 0.9 && j < 1.0, "got {j}");
    }

    #[test]
    fn bucket_layout_is_contiguous_and_ordered() {
        // Every value maps to a bucket whose bounds contain it, and
        // bucket lower bounds are non-decreasing in index.
        let mut last_hi = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            if i > 0 {
                assert_eq!(lo, last_hi.wrapping_add(1), "gap before bucket {i}");
            }
            last_hi = hi;
        }
        for v in [0u64, 1, 15, 16, 17, 255, 1 << 20, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1 << 30, 987_654_321] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(
                (hi - lo) as f64 / v as f64 <= 1.0 / SUB_BUCKETS as f64,
                "bucket [{lo}, {hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).unwrap() as f64;
            assert!(
                (got - want).abs() / want <= 0.07,
                "q{q}: got {got}, want ~{want}"
            );
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(10_000));
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 7);
            all.record(v * 7);
        }
        for v in 0..300u64 {
            b.record(v * 13 + 1);
            all.record(v * 13 + 1);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_handles_share_state() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("x");
        reg.counter("x").add(5);
        c.inc();
        assert_eq!(reg.counter("x").get(), 6);
        reg.histogram("h").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("x".to_string(), 6)]);
        assert_eq!(snap.histograms[0].1.count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::default();
        reg.counter("zeta");
        reg.counter("alpha");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
