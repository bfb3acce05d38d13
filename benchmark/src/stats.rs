//! Sample statistics. Percentiles are nearest-rank on the sorted
//! samples, so every reported value is one that was measured.

/// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the
/// smallest sample with at least `p` % of the samples at or below it.
/// With fewer than `100 / (100 - p)` samples this is the maximum.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of a set of operation times: the highest percentile, up to
/// the 95th, that still has at least ten samples beyond it — and never
/// below the median. Runs with under 20 operations (whole audits)
/// have no tail to speak of and report the median; 40 operations give
/// p75, 200 and more p95.
pub fn tail(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    let p = (100.0 * (n - 10.0) / n).min(95.0);
    if p <= 50.0 {
        median(samples)
    } else {
        percentile(samples, p)
    }
}

/// The median; the mean of the two middle samples when the count is
/// even (so two samples give their midpoint, not the smaller one).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the benchmark contract is written
/// in. Quartiles follow Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), so `compare` and the driver agree.
pub fn iqr_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Few samples: the tail percentile is the maximum.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 95.0), 3.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&v(1000)), 950.0);
        assert_eq!(tail(&v(200)), 190.0);
        assert_eq!(tail(&v(40)), 30.0);
        // Too few for any tail: the median.
        assert_eq!(tail(&v(20)), 10.5);
        assert_eq!(tail(&v(15)), 8.0);
        assert_eq!(tail(&v(2)), 1.5);
        assert_eq!(tail(&v(1)), 1.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }
}
