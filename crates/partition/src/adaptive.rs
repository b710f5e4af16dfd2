//! Adaptive (stability-aware) repartitioning — the ParMETIS adaptive-
//! repartition substitute.
//!
//! The papers' Repartition-S strategy repartitions the grown graph and then
//! migrates the partial results of every relocated vertex; the repartitioner
//! they reuse (ParMETIS) minimizes *migration* as well as cut when invoked
//! adaptively. [`MultilevelKWay::repartition`] reproduces that contract: it
//! coarsens without mixing the current parts (an unassigned, new vertex
//! merges into a labelled neighbour's coarse vertex), projects the current
//! assignment onto the coarsest level, gives the all-new coarse vertices
//! left over to the lightest part, and refines on the way back up under the
//! balance constraint. Vertices move only when the refinement finds a cut gain or
//! balance demands it, so migration volume stays proportional to how much
//! the graph actually changed.

use crate::multilevel::{
    build_base, contract, refine_pass, MultilevelKWay, COARSE_FACTOR, EPSILON, REFINE_PASSES,
};
use crate::partition::Partition;
use aa_graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

impl MultilevelKWay {
    /// Repartitions `g` into `k` parts starting from `current`, the way
    /// ParMETIS repartitions: coarsen the grown graph with heavy-edge
    /// matching, **project the current partition** onto the coarsest level
    /// (weighted majority per coarse vertex), then refine on the way back
    /// up. Produces multilevel-quality cuts while moving only the vertices
    /// the refinement actually wants to move — the scheme the papers'
    /// Repartition-S relies on.
    pub fn repartition(&self, g: &Graph, current: &Partition, k: usize) -> Partition {
        assert!(k >= 1);
        let mut out = Partition::unassigned(g.capacity(), k);
        let n = g.vertex_count();
        if n == 0 {
            return out;
        }
        let max_weight = ((n as f64 / k as f64) * (1.0 + EPSILON)).ceil().max(1.0) as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let (base, orig_of) = build_base(g);

        // Seed assignment at the finest level from `current`; unassigned
        // (new) vertices inherit by neighbour affinity during projection —
        // here they start unlabelled and are fixed after coarsening.
        let mut fine_part: Vec<usize> = orig_of
            .iter()
            .map(|&v| current.part_of(v).filter(|&p| p < k).unwrap_or(usize::MAX))
            .collect();

        // Coarsen with *label-constrained* heavy-edge matching (only
        // same-label or unlabelled vertices merge, as ParMETIS does when
        // repartitioning), so the current partition projects exactly onto
        // every level of the hierarchy.
        let stop_at = (COARSE_FACTOR * k).max(200);
        let mut levels = vec![base];
        let mut part = fine_part.clone();
        #[expect(
            clippy::unwrap_used,
            reason = "levels starts with one element and only grows — last() cannot be empty"
        )]
        while levels.last().unwrap().n() > stop_at {
            #[expect(
                clippy::unwrap_used,
                reason = "same non-empty invariant as the loop condition"
            )]
            let last = levels.last().unwrap();
            let matched = labeled_matching(last, &part, &mut rng);
            let next = contract(last, &matched);
            // Integer form of `next.n() > 0.95 * last.n()`: coarsening stalls
            // when a pass shrinks the level by less than 5% (float-free so the
            // stop decision is exact and replayable).
            if next.n() * 20 > last.n() * 19 {
                break;
            }
            // Project labels exactly (label-pure coarse vertices).
            let mut coarse_part = vec![usize::MAX; next.n()];
            for (fine_v, &lbl) in part.iter().enumerate() {
                let c = next.coarse_of[fine_v] as usize;
                if lbl != usize::MAX {
                    debug_assert!(coarse_part[c] == usize::MAX || coarse_part[c] == lbl);
                    coarse_part[c] = lbl;
                }
            }
            part = coarse_part;
            levels.push(next);
        }

        // Fix unlabelled coarse vertices (all-new regions): lightest part.
        {
            #[expect(
                clippy::unwrap_used,
                reason = "levels is never emptied after its seeded first element"
            )]
            let coarsest = levels.last().unwrap();
            let mut weight = vec![0u64; k];
            for (v, &lbl) in part.iter().enumerate() {
                if lbl != usize::MAX {
                    weight[lbl] += coarsest.vw[v];
                }
            }
            for (v, lbl) in part.iter_mut().enumerate() {
                if *lbl == usize::MAX {
                    // k >= 1 is asserted at entry; the fallback is unreachable.
                    let p = (0..k).min_by_key(|&p| weight[p]).unwrap_or(0);
                    *lbl = p;
                    weight[p] += coarsest.vw[v];
                }
            }
        }

        // Repair any imbalance (growth may have landed unevenly), then refine
        // on the way back up.
        #[expect(
            clippy::unwrap_used,
            reason = "levels is never emptied after its seeded first element"
        )]
        balance_pass(levels.last().unwrap(), &mut part, k, max_weight);
        for _ in 0..REFINE_PASSES {
            #[expect(
                clippy::unwrap_used,
                reason = "levels is never emptied after its seeded first element"
            )]
            if !refine_pass(levels.last().unwrap(), &mut part, k, max_weight) {
                break;
            }
        }
        for li in (1..levels.len()).rev() {
            let fine = &levels[li - 1];
            let coarse_of = &levels[li].coarse_of;
            let mut projected = vec![0usize; fine.n()];
            for v in 0..fine.n() {
                projected[v] = part[coarse_of[v] as usize];
            }
            balance_pass(fine, &mut projected, k, max_weight);
            for _ in 0..REFINE_PASSES {
                if !refine_pass(fine, &mut projected, k, max_weight) {
                    break;
                }
            }
            part = projected;
        }
        fine_part.copy_from_slice(&part);

        for (d, &v) in orig_of.iter().enumerate() {
            out.assign(v, fine_part[d]);
        }
        out
    }
}

/// Heavy-edge matching restricted to same-label (or unlabelled) pairs, so
/// coarse vertices never mix partitions.
fn labeled_matching(
    level: &crate::multilevel::Level,
    part: &[usize],
    rng: &mut ChaCha8Rng,
) -> Vec<u32> {
    use rand::seq::SliceRandom;
    let n = level.n();
    let mut matched = vec![u32::MAX; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        let lv = part[v as usize];
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in &level.adj[v as usize] {
            if u == v || matched[u as usize] != u32::MAX {
                continue;
            }
            let lu = part[u as usize];
            if lv != usize::MAX && lu != usize::MAX && lv != lu {
                continue; // would mix labels
            }
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v as usize] = u;
                matched[u as usize] = v;
            }
            None => matched[v as usize] = v,
        }
    }
    matched
}

/// Moves vertices out of overweight parts (highest external connectivity
/// first, crude greedy) until every part fits `max_weight` or no legal move
/// remains.
fn balance_pass(level: &crate::multilevel::Level, part: &mut [usize], k: usize, max_weight: u64) {
    let n = level.n();
    let mut weight = vec![0u64; k];
    for v in 0..n {
        weight[part[v]] += level.vw[v];
    }
    let mut progress = true;
    while progress && weight.iter().any(|&w| w > max_weight) {
        progress = false;
        for v in 0..n {
            let cur = part[v];
            if weight[cur] <= max_weight {
                continue;
            }
            // Best destination: most connectivity, must have room.
            let mut conn = vec![0u64; k];
            for &(u, w) in &level.adj[v] {
                conn[part[u as usize]] += w;
            }
            let dest = (0..k)
                .filter(|&p| p != cur && weight[p] + level.vw[v] <= max_weight)
                .max_by_key(|&p| (conn[p], std::cmp::Reverse(weight[p])));
            if let Some(p) = dest {
                weight[cur] -= level.vw[v];
                weight[p] += level.vw[v];
                part[v] = p;
                progress = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::balance;
    use crate::Partitioner;
    use aa_graph::{generators, VertexId};

    /// Number of vertices whose assignment differs between two partitions
    /// (the migration volume Repartition-S will pay).
    fn migration_count(old: &Partition, new: &Partition) -> usize {
        let slots = old.assignment.len().max(new.assignment.len());
        (0..slots as VertexId)
            .filter(|&v| {
                let a = old.part_of(v);
                let b = new.part_of(v);
                a.is_some() && b.is_some() && a != b
            })
            .count()
    }

    #[test]
    fn adaptive_multilevel_valid_and_stable() {
        let g = generators::barabasi_albert(600, 2, 1, 13);
        let current = MultilevelKWay::default().partition(&g, 8);
        let new = MultilevelKWay { seed: 0xADA9 }.repartition(&g, &current, 8);
        new.validate(&g).unwrap();
        assert!(balance(&new) <= 1.20, "balance {}", balance(&new));
        let moved = migration_count(&current, &new);
        assert!(
            moved < g.vertex_count() / 3,
            "adaptive multilevel must be far more stable than a fresh run: moved {moved}"
        );
    }

    #[test]
    fn adaptive_multilevel_absorbs_growth() {
        let mut g = generators::barabasi_albert(300, 2, 1, 15);
        let current = MultilevelKWay::default().partition(&g, 4);
        // Grow by 10%: a clique attached to vertex 0.
        let base = g.capacity() as u32;
        for _ in 0..30 {
            g.add_vertex();
        }
        for i in 0..30u32 {
            g.add_edge(base + i, if i == 0 { 0 } else { base + i - 1 }, 1);
        }
        let new = MultilevelKWay { seed: 0xADA9 }.repartition(&g, &current, 4);
        new.validate(&g).unwrap();
        assert!(balance(&new) <= 1.25, "balance {}", balance(&new));
    }

    #[test]
    fn adaptive_multilevel_from_empty_assignment() {
        let g = generators::planted_partition(4, 30, 0.4, 0.01, 1, 17);
        let empty = Partition::unassigned(g.capacity(), 4);
        let new = MultilevelKWay { seed: 0xADA9 }.repartition(&g, &empty, 4);
        new.validate(&g).unwrap();
    }

    #[test]
    fn migration_count_counts_moves_only() {
        let mut a = Partition::unassigned(4, 2);
        let mut b = Partition::unassigned(4, 2);
        a.assign(0, 0);
        a.assign(1, 1);
        b.assign(0, 1); // moved
        b.assign(1, 1); // stayed
        b.assign(2, 0); // new in b: not a migration
        assert_eq!(migration_count(&a, &b), 1);
    }
}
