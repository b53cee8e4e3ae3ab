//! Nearest-rank percentile — the one shared implementation behind
//! loadgen's client-side p50/p99 and the daemon's server-side histogram
//! quantiles.

/// Zero-based index of the nearest-rank `q`-th percentile in an
/// ascending sample of `n` elements: `⌈q/100 · n⌉` clamped to `1..=n`,
/// minus one.
///
/// # Panics
///
/// Panics when `n == 0` — a percentile of an empty sample is
/// meaningless.
#[must_use]
pub fn nearest_rank_index(q: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// # Panics
///
/// Panics when `sorted` is empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[nearest_rank_index(q, sorted.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((nearest_rank(&sample, 50.0) - 5.0).abs() < f64::EPSILON);
        assert!((nearest_rank(&sample, 99.0) - 10.0).abs() < f64::EPSILON);
        assert!((nearest_rank(&sample, 100.0) - 10.0).abs() < f64::EPSILON);
        assert!((nearest_rank(&sample, 0.0) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = nearest_rank(&[], 50.0);
    }
}
