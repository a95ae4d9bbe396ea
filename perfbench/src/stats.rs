//! Order statistics for latency samples and repeat medians.

/// Candidate percentiles in basis points, highest first.
const PERCENTILES_BP: [u64; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 5_000];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// The highest candidate percentile (in basis points) that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even
/// the median does not.
pub fn supported_percentile_bp(n: usize) -> Option<u64> {
    let n = n as u64;
    PERCENTILES_BP.into_iter().find(|bp| n * (10_000 - bp) / 10_000 >= MIN_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` samples, `bp` in basis
/// points; `None` for an empty sample.
pub fn percentile(sorted: &[f64], bp: u64) -> Option<f64> {
    let n = sorted.len() as u64;
    let rank = (bp * n).div_ceil(10_000).max(1);
    sorted.get(usize::try_from(rank - 1).ok()?).copied()
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts samples ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile_bp(9), None);
        assert_eq!(supported_percentile_bp(20), Some(5_000));
        assert_eq!(supported_percentile_bp(99), Some(5_000));
        assert_eq!(supported_percentile_bp(100), Some(9_000));
        assert_eq!(supported_percentile_bp(200), Some(9_500));
        assert_eq!(supported_percentile_bp(999), Some(9_500));
        assert_eq!(supported_percentile_bp(1_000), Some(9_900));
        assert_eq!(supported_percentile_bp(9_999), Some(9_900));
        assert_eq!(supported_percentile_bp(10_000), Some(9_990));
        assert_eq!(supported_percentile_bp(100_000), Some(9_999));
        // At the boundary exactly ten samples sit above the reported rank.
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let p99 = percentile(&samples, 9_900).unwrap();
        assert_eq!(samples.iter().filter(|s| **s > p99).count(), 10);
    }

    #[test]
    fn nearest_rank_and_median() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 5_000), Some(2.0));
        assert_eq!(percentile(&s, 9_900), Some(4.0));
        assert_eq!(percentile(&[], 5_000), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
