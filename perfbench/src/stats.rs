//! Order statistics with the benchmark's reporting rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least [`MIN_BEYOND`] samples beyond it. The tail percentile
//! the benchmark publishes is p90, so it exists only from 100 samples
//! on; below that it is missing, never estimated.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the rule may choose from, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
/// `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// True when `n` samples put at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supported(n, p))
}

/// p90 under the rule: `None` unless the samples support p90 or higher
/// (100 samples and up).
pub fn p90(samples: &[f64]) -> Option<f64> {
    match highest_supported(samples.len()) {
        Some(p) if p >= 90.0 => percentile(samples, 90.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn p90_is_missing_below_one_hundred_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&v), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(p90(&v), Some(89.0));
    }
}
