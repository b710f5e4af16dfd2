//! Medians and percentiles, with the sample count kept beside each.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile over weighted samples: the smallest value whose
/// cumulative weight reaches `q` of the total. Reads served in one turn
/// share that turn's latency, so a turn is one sample weighing as many
/// reads as it served. 0 for no weight.
pub fn weighted_percentile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut v: Vec<(f64, u64)> = samples.iter().copied().filter(|&(_, w)| w > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|&(_, w)| w).sum();
    // The epsilon keeps 0.9 × 100 at rank 90, not 91.
    let need = (q * total as f64 - 1e-9).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for &(x, w) in &v {
        seen += w;
        if seen >= need {
            return x;
        }
    }
    v.last().map_or(0.0, |&(x, _)| x)
}

/// Nearest-rank percentile of unweighted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let weighted: Vec<(f64, u64)> = values.iter().map(|&x| (x, 1)).collect();
    weighted_percentile(&weighted, q)
}

/// The percentiles the harness will quote, lowest first.
/// `(label, per mille)`: integers, so "ten beyond" is exact at n = 100.
const LADDER: [(&str, usize); 5] = [
    ("p50", 500),
    ("p90", 900),
    ("p95", 950),
    ("p99", 990),
    ("p99.9", 999),
];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as `(label, q)`: a tail read off fewer samples than
/// that is one slow sample, not a percentile. `None` below 20 samples,
/// where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<(&'static str, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&(_, pm)| n * (1000 - pm) / 1000 >= 10)
        .map(|&(label, pm)| (label, pm as f64 / 1000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_helper_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(("p50", 0.50)));
        assert_eq!(highest_supported_percentile(99), Some(("p50", 0.50)));
        assert_eq!(highest_supported_percentile(100), Some(("p90", 0.90)));
        assert_eq!(highest_supported_percentile(256), Some(("p95", 0.95)));
        assert_eq!(highest_supported_percentile(1000), Some(("p99", 0.99)));
        assert_eq!(highest_supported_percentile(10_000), Some(("p99.9", 0.999)));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // One slow turn that served most of the reads owns the median.
        let turns = [(1.0, 10), (2.0, 10), (9.0, 80)];
        assert_eq!(weighted_percentile(&turns, 0.50), 9.0);
        assert_eq!(weighted_percentile(&turns, 0.10), 1.0);
        assert_eq!(weighted_percentile(&[(5.0, 0)], 0.5), 0.0);
    }
}
