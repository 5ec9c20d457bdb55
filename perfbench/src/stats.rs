//! Latency summaries: nearest-rank percentiles and the rule for which
//! percentile a sample count can support.

/// Percentiles a report may use, in per-mille, lowest first.
pub const LADDER_PERMILLE: [u64; 5] = [500, 900, 950, 990, 999];

/// A percentile is reported only with at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` percentile among `n` samples:
/// `ceil(permille · n / 1000)`, in integers so 95% of 200 is rank 190.
pub fn rank(n: usize, permille: u64) -> usize {
    ((permille as u128 * n as u128).div_ceil(1000) as usize).max(1)
}

/// Samples strictly beyond the `permille` percentile's rank.
pub fn beyond(n: usize, permille: u64) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has too few.
pub fn highest_reportable(n: usize) -> Option<u64> {
    LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .max()
}

/// Nearest-rank percentile of an ascending slice (NaN when empty).
pub fn percentile(sorted: &[f64], permille: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// Sort ascending (total order; NaNs last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts; NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}
