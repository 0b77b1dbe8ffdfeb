//! Order statistics for unit times and the percentile rule.

/// The latency percentiles the scenario drivers expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Percentile {
    P50,
    P99,
    P999,
}

impl Percentile {
    pub fn name(self) -> &'static str {
        match self {
            Percentile::P50 => "p50",
            Percentile::P99 => "p99",
            Percentile::P999 => "p999",
        }
    }

    /// Share of samples beyond this percentile, as `1 / n`.
    fn one_in(self) -> u64 {
        match self {
            Percentile::P50 => 2,
            Percentile::P99 => 100,
            Percentile::P999 => 1_000,
        }
    }
}

/// The highest percentile with at least ten of `samples` beyond it, or
/// `None` when even the median has fewer.
pub fn highest_supported(samples: u64) -> Option<Percentile> {
    [Percentile::P999, Percentile::P99, Percentile::P50]
        .into_iter()
        .find(|p| samples / p.one_in() >= 10)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the values
/// Python's `statistics.quantiles(values, n=4)` gives. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Cut point k·(n+1)/4 between the 1-based samples j and j+1; j is
        // clamped to the sample, so small samples extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(20_000), Some(Percentile::P999));
        assert_eq!(highest_supported(10_000), Some(Percentile::P999));
        assert_eq!(highest_supported(9_999), Some(Percentile::P99));
        assert_eq!(highest_supported(1_000), Some(Percentile::P99));
        assert_eq!(highest_supported(999), Some(Percentile::P50));
        assert_eq!(highest_supported(20), Some(Percentile::P50));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(8), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
