//! Order statistics and the sample-count rules the benchmark reports by.

/// Timed passes a run must collect before its median is reported.
pub const MIN_TIMED_PASSES: usize = 7;

/// Samples that must lie beyond a tail percentile for it to be reported
/// (choosing-metrics: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// Returns `values` sorted ascending. Panics on NaN: a timing is never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median of an ascending slice: the middle sample, or the mean of the
/// two middle samples. 0 for an empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending slice: the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond
/// percentile `p`, so the tail is a measurement rather than one outlier.
pub fn tail_is_resolved(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= MIN_TAIL_SAMPLES
}

/// The quartile spread the contract judges steadiness by: (Q3 - Q1) of
/// `values` as a share of their median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to [1, n-1]; delta = k*(n+1) - 4j.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let med = median_sorted(&s);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50.0);
        assert_eq!(percentile_sorted(&s, 0.95), 95.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!tail_is_resolved(199, 0.95));
        assert!(tail_is_resolved(200, 0.95));
        assert!(tail_is_resolved(2000, 0.95));
        assert!(!tail_is_resolved(999, 0.99));
        assert!(tail_is_resolved(1000, 0.99));
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12.0, 31.5]
        assert!((iqr_share(&[10.0, 12.0, 11.0, 13.0, 50.0]) - 21.0 / 12.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
