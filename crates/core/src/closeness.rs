//! Anytime snapshots of closeness centrality.

use aa_graph::VertexId;

/// An anytime snapshot of the running analysis: closeness estimates derived
/// from the current (possibly partial) distance vectors.
///
/// Estimates are computed with the papers' definition
/// `C(v) = 1 / Σ_{u reachable} d(v, u)`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Recombination step at which the snapshot was taken.
    pub rc_step: usize,
    /// Virtual cluster time when the snapshot was taken (µs).
    pub makespan_us: f64,
    /// Closeness estimate per vertex id slot (0.0 for dead/isolated slots).
    pub closeness: Vec<f64>,
    /// Sum of the finite non-self distance estimates per vertex id slot —
    /// the exact integer denominator behind `closeness` (0 for dead or
    /// fully-unreached slots). Bound consumers need the integer sum, not the
    /// lossy `1/sum` float.
    pub dist_sum: Vec<u64>,
    /// Number of finite non-self targets per vertex id slot: how many
    /// vertices this row has found *some* path to so far.
    pub finite_targets: Vec<u32>,
}

impl Snapshot {
    /// The `k` vertices with the highest closeness, descending (ties broken
    /// by lower vertex id for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        top_k_by_score(&self.closeness, k)
    }

    /// Mean absolute closeness error against a reference (e.g. the exact
    /// oracle), over slots live in the reference.
    pub fn mean_abs_error(&self, reference: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (&got, &want) in self.closeness.iter().zip(reference) {
            if want > 0.0 {
                sum += (got - want).abs();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// The `k` highest positive scores with their id slots, descending, ties by
/// lower id. The comparator is a total order over distinct ids, so selecting
/// the k best and sorting only those gives exactly the prefix a full sort
/// would — in `O(n + k log k)`.
fn top_k_by_score(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let by_score =
        |a: &(VertexId, f64), b: &(VertexId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    let mut ranked: Vec<(VertexId, f64)> = scores
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0.0)
        .map(|(v, &c)| (v as VertexId, c))
        .collect();
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k - 1, by_score);
        ranked.truncate(k);
    }
    ranked.sort_by(by_score);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(closeness: Vec<f64>) -> Snapshot {
        Snapshot {
            rc_step: 0,
            makespan_us: 0.0,
            dist_sum: vec![0; closeness.len()],
            finite_targets: vec![0; closeness.len()],
            closeness,
        }
    }

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let s = snap(vec![0.1, 0.5, 0.0, 0.5, 0.3]);
        let top = s.top_k(3);
        assert_eq!(top, vec![(1, 0.5), (3, 0.5), (4, 0.3)]);
    }

    #[test]
    fn partial_selection_equals_the_full_sort_for_every_k() {
        // Heavy ties and zeros, so the id tie-break and the filter both bite.
        let scores: Vec<f64> = (0..97u32).map(|i| f64::from(i * 7 % 5) / 4.0).collect();
        let mut full: Vec<(VertexId, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0.0)
            .map(|(v, &c)| (v as VertexId, c))
            .collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let s = snap(scores);
        for k in 0..=full.len() + 5 {
            let want = &full[..k.min(full.len())];
            assert_eq!(s.top_k(k), want, "k = {k}");
        }
    }

    #[test]
    fn top_k_excludes_zero_scores() {
        let s = snap(vec![0.0, 0.2]);
        assert_eq!(s.top_k(10).len(), 1);
    }

    #[test]
    fn mean_abs_error_over_live_reference() {
        let s = snap(vec![0.1, 0.4, 0.0]);
        let reference = vec![0.2, 0.4, 0.0]; // slot 2 dead in reference
        assert!((s.mean_abs_error(&reference) - 0.05).abs() < 1e-12);
        assert_eq!(s.mean_abs_error(&[0.0, 0.0, 0.0]), 0.0);
    }
}
