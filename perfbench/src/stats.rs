//! Exact order statistics.

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `q` of all samples at or below it. Exact, no bucketing.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of no samples");
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples strictly after the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 0.5), 5_000);
        assert_eq!(percentile(&v, 0.999), 9_990);
        assert_eq!(beyond(v.len(), 0.999), 10);
        assert_eq!(percentile(&[7], 0.999), 7);
    }
}
