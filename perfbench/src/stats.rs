//! Nearest-rank percentiles that refuse to report a tail the samples
//! cannot support, plus the medians and means the report uses.

/// Nearest-rank `q`-quantile of `samples` (`0 < q < 1`). Refused unless
/// at least ten samples lie beyond it: a p95 needs 200 samples, a p99
/// 1000, a p50 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} out of range");
    let n = samples.len();
    let need = (10.0 / (1.0 - q) - 1e-9).ceil() as usize;
    if n < need {
        return Err(format!("p{} needs {need} samples, have {n}", q * 100.0));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// Median of a non-empty set (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
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
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(percentile(&ramp(199), 0.95).is_err());
        assert_eq!(percentile(&ramp(200), 0.95), Ok(190.0));
    }

    #[test]
    fn nearest_rank_p50() {
        assert!(percentile(&ramp(19), 0.5).is_err());
        let mut shuffled = ramp(21);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Ok(11.0));
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
