//! Order statistics on small sample sets.

/// The median; the mean of the two middle samples when `n` is even.
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The sample at rank `ceil(q * n)` (nearest-rank percentile, `0 < q <= 1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 at rank 90.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// is the spread the driver computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the repeatability
/// figure every bound in `BENCHMARK.json` is judged against.
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "order statistic of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p80_of_51_samples_is_the_41st_and_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=51).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.8), 41.0);
        assert_eq!(samples.iter().filter(|&&s| s > 41.0).count(), 10);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
