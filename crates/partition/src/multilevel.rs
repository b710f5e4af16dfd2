//! Multilevel k-way partitioner — the METIS substitute.
//!
//! Classic three-stage multilevel scheme (Karypis & Kumar):
//!
//! 1. **Coarsening**: repeated heavy-edge matching contracts the graph until
//!    it is small (`≈ max(30·k, 200)` vertices). Contracted vertices carry the
//!    number of original vertices they represent so balance is tracked in
//!    original-vertex units.
//! 2. **Initial partition**: greedy graph growing on the coarsest graph —
//!    parts are grown one at a time from high-connectivity frontiers until
//!    they reach the target weight.
//! 3. **Uncoarsening + refinement**: the assignment is projected back level by
//!    level; at every level a bounded Fiduccia–Mattheyses-style pass moves
//!    boundary vertices to the neighbouring part with the best cut gain,
//!    subject to the balance constraint `weight(part) ≤ (1+ε)·total/k`.

use crate::partition::Partition;
use crate::partitioners::Partitioner;
use aa_graph::{Graph, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Multilevel k-way partitioner with a balance constraint. The same type
/// repartitions adaptively from a current assignment
/// ([`MultilevelKWay::repartition`], the ParMETIS substitute).
///
/// ```
/// use aa_partition::{MultilevelKWay, Partitioner, quality};
/// use aa_graph::generators;
///
/// let g = generators::planted_partition(4, 25, 0.4, 0.01, 1, 7);
/// let part = MultilevelKWay::default().partition(&g, 4);
/// part.validate(&g).unwrap();
/// assert!(quality::balance(&part) <= 1.15);
/// ```
#[derive(Debug, Clone)]
pub struct MultilevelKWay {
    /// Seed for the randomized matching order.
    pub seed: u64,
}

impl Default for MultilevelKWay {
    fn default() -> Self {
        MultilevelKWay { seed: 0x5EED }
    }
}

/// Allowed imbalance ε: a part's weight may reach `(1+ε)·total/k`.
pub const EPSILON: f64 = 0.10;
/// Coarsening stops once a level has at most `max(COARSE_FACTOR · k, 200)`
/// vertices.
pub(crate) const COARSE_FACTOR: usize = 30;
/// FM refinement passes per level.
pub(crate) const REFINE_PASSES: usize = 4;

/// One level of the coarsening hierarchy: a weighted graph in dense indexing
/// plus the mapping from the finer level's vertices to this level's.
pub(crate) struct Level {
    pub(crate) adj: Vec<Vec<(u32, u64)>>, // neighbor -> combined edge weight
    pub(crate) vw: Vec<u64>,              // vertex weights (original-vertex counts)
    /// For each vertex of the *finer* level, its coarse vertex here.
    pub(crate) coarse_of: Vec<u32>,
}

impl Level {
    pub(crate) fn n(&self) -> usize {
        self.adj.len()
    }
}

/// Builds level 0 (dense re-indexing of the live vertices of `g`).
/// Returns the level plus `orig_of` (dense index -> original vertex id).
pub(crate) fn build_base(g: &Graph) -> (Level, Vec<VertexId>) {
    let mut dense = vec![u32::MAX; g.capacity()];
    let mut orig_of = Vec::with_capacity(g.vertex_count());
    for v in g.vertices() {
        dense[v as usize] = orig_of.len() as u32;
        orig_of.push(v);
    }
    let mut adj = vec![Vec::new(); orig_of.len()];
    for (u, v, w) in g.edges() {
        let (du, dv) = (dense[u as usize], dense[v as usize]);
        adj[du as usize].push((dv, w as u64));
        adj[dv as usize].push((du, w as u64));
    }
    let n = orig_of.len();
    (
        Level {
            adj,
            vw: vec![1; n],
            coarse_of: Vec::new(),
        },
        orig_of,
    )
}

/// Heavy-edge matching: visit vertices in random order; match each unmatched
/// vertex with its unmatched neighbour of maximum edge weight (ties broken by
/// smaller vertex weight to keep coarse vertices balanced).
pub(crate) fn heavy_edge_matching(level: &Level, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let n = level.n();
    let mut matched = vec![u32::MAX; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in &level.adj[v as usize] {
            if u == v || matched[u as usize] != u32::MAX {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bw)) => {
                    w > bw || (w == bw && level.vw[u as usize] < level.vw[bu as usize])
                }
            };
            if better {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v as usize] = u;
                matched[u as usize] = v;
            }
            None => matched[v as usize] = v, // self-match
        }
    }
    matched
}

/// Contracts matched pairs into a coarser level.
pub(crate) fn contract(level: &Level, matched: &[u32]) -> Level {
    let n = level.n();
    let mut coarse_of = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if coarse_of[v as usize] != u32::MAX {
            continue;
        }
        let m = matched[v as usize];
        coarse_of[v as usize] = next;
        if m != v {
            coarse_of[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;
    let mut vw = vec![0u64; cn];
    for v in 0..n {
        vw[coarse_of[v] as usize] += level.vw[v];
    }
    // Accumulate combined edge weights via a per-vertex scatter map.
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); cn];
    let mut scratch: Vec<u64> = vec![0; cn];
    let mut touched: Vec<u32> = Vec::new();
    let mut fine_of = vec![Vec::new(); cn];
    for v in 0..n as u32 {
        fine_of[coarse_of[v as usize] as usize].push(v);
    }
    for c in 0..cn as u32 {
        touched.clear();
        for &v in &fine_of[c as usize] {
            for &(u, w) in &level.adj[v as usize] {
                let cu = coarse_of[u as usize];
                if cu == c {
                    continue; // contracted edge disappears
                }
                if scratch[cu as usize] == 0 {
                    touched.push(cu);
                }
                scratch[cu as usize] += w;
            }
        }
        for &cu in &touched {
            adj[c as usize].push((cu, scratch[cu as usize]));
            scratch[cu as usize] = 0;
        }
    }
    Level { adj, vw, coarse_of }
}

/// Greedy graph growing initial partition of the coarsest level.
fn initial_partition(level: &Level, k: usize, max_weight: u64, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let n = level.n();
    let total: u64 = level.vw.iter().sum();
    let target = total.div_ceil(k as u64);
    let mut part = vec![usize::MAX; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut oi = 0usize;

    for p in 0..k {
        let mut weight = 0u64;
        // Frontier scored by connectivity to the growing part.
        let mut gain: Vec<i64> = vec![0; n];
        let mut frontier: Vec<u32> = Vec::new();
        while weight < target {
            let v = if let Some(pos) = frontier
                .iter()
                .enumerate()
                .filter(|&(_, &v)| part[v as usize] == usize::MAX)
                .max_by_key(|&(_, &v)| gain[v as usize])
                .map(|(i, _)| i)
            {
                frontier.swap_remove(pos)
            } else {
                // Fresh seed: next unassigned vertex.
                while oi < n && part[order[oi] as usize] != usize::MAX {
                    oi += 1;
                }
                if oi >= n {
                    break;
                }
                order[oi]
            };
            if part[v as usize] != usize::MAX {
                continue;
            }
            if p + 1 < k && weight + level.vw[v as usize] > max_weight && weight > 0 {
                // Would overflow this part; leave it for a later part.
                continue;
            }
            part[v as usize] = p;
            weight += level.vw[v as usize];
            for &(u, w) in &level.adj[v as usize] {
                if part[u as usize] == usize::MAX {
                    gain[u as usize] += w as i64;
                    frontier.push(u);
                }
            }
            if p + 1 == k {
                // Last part absorbs everything remaining; ignore the target.
                continue;
            }
        }
    }
    // Sweep up any vertices the growth missed (disconnected remainders).
    let sizes = {
        let mut s = vec![0u64; k];
        for v in 0..n {
            if part[v] != usize::MAX {
                s[part[v]] += level.vw[v];
            }
        }
        s
    };
    let mut sizes = sizes;
    for (v, lbl) in part.iter_mut().enumerate() {
        if *lbl == usize::MAX {
            #[expect(
                clippy::unwrap_used,
                reason = "k is at least 1 so the 0..k range is non-empty"
            )]
            let p = (0..k).min_by_key(|&p| sizes[p]).unwrap();
            *lbl = p;
            sizes[p] += level.vw[v];
        }
    }
    part
}

/// One FM-style refinement pass at a level. Moves boundary vertices to the
/// adjacent part with the highest positive cut gain, respecting the balance
/// bound. Returns whether any move happened.
pub(crate) fn refine_pass(level: &Level, part: &mut [usize], k: usize, max_weight: u64) -> bool {
    let n = level.n();
    let mut part_weight = vec![0u64; k];
    for v in 0..n {
        part_weight[part[v]] += level.vw[v];
    }
    let mut moved_any = false;
    let mut conn: Vec<u64> = vec![0; k];
    for v in 0..n {
        let cur = part[v];
        // Connectivity of v to each part.
        for c in conn.iter_mut() {
            *c = 0;
        }
        let mut is_boundary = false;
        for &(u, w) in &level.adj[v] {
            conn[part[u as usize]] += w;
            if part[u as usize] != cur {
                is_boundary = true;
            }
        }
        if !is_boundary {
            continue;
        }
        let internal = conn[cur];
        let mut best: Option<(usize, u64)> = None;
        for p in 0..k {
            if p == cur || conn[p] <= internal {
                continue;
            }
            if part_weight[p] + level.vw[v] > max_weight {
                continue;
            }
            if best.is_none_or(|(_, bw)| conn[p] > bw) {
                best = Some((p, conn[p]));
            }
        }
        if let Some((p, _)) = best {
            part_weight[cur] -= level.vw[v];
            part_weight[p] += level.vw[v];
            part[v] = p;
            moved_any = true;
        }
    }
    moved_any
}

impl Partitioner for MultilevelKWay {
    fn partition(&self, g: &Graph, k: usize) -> Partition {
        assert!(k >= 1);
        let mut out = Partition::unassigned(g.capacity(), k);
        let n = g.vertex_count();
        if n == 0 {
            return out;
        }
        if k == 1 {
            for v in g.vertices() {
                out.assign(v, 0);
            }
            return out;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let (base, orig_of) = build_base(g);
        let total: u64 = base.vw.iter().sum();
        let max_weight = ((total as f64 / k as f64) * (1.0 + EPSILON))
            .ceil()
            .max(1.0) as u64;

        // Coarsen.
        let stop_at = (COARSE_FACTOR * k).max(200);
        let mut levels: Vec<Level> = vec![base];
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
            let matched = heavy_edge_matching(last, &mut rng);
            let next = contract(last, &matched);
            if next.n() as f64 > 0.95 * last.n() as f64 {
                break; // matching stalled (e.g. star graphs); stop coarsening
            }
            levels.push(next);
        }

        // Initial partition on the coarsest level.
        #[expect(
            clippy::unwrap_used,
            reason = "levels is never emptied after its seeded first element"
        )]
        let coarsest = levels.last().unwrap();
        let mut part = initial_partition(coarsest, k, max_weight, &mut rng);
        for _ in 0..REFINE_PASSES {
            if !refine_pass(coarsest, &mut part, k, max_weight) {
                break;
            }
        }

        // Uncoarsen + refine.
        for li in (1..levels.len()).rev() {
            let fine = &levels[li - 1];
            let coarse_of = &levels[li].coarse_of;
            let mut fine_part = vec![0usize; fine.n()];
            for v in 0..fine.n() {
                fine_part[v] = part[coarse_of[v] as usize];
            }
            for _ in 0..REFINE_PASSES {
                if !refine_pass(fine, &mut fine_part, k, max_weight) {
                    break;
                }
            }
            part = fine_part;
        }

        for (dense, &orig) in orig_of.iter().enumerate() {
            out.assign(orig, part[dense]);
        }
        out
    }

    fn name(&self) -> &'static str {
        "multilevel-kway"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut};
    use crate::RoundRobinPartitioner;
    use aa_graph::generators;

    #[test]
    fn valid_balanced_partition() {
        let g = generators::barabasi_albert(500, 3, 1, 2);
        let p = MultilevelKWay::default().partition(&g, 8);
        p.validate(&g).unwrap();
        assert!(
            balance(&p) <= 1.0 + 0.10 + 0.05,
            "balance {} exceeds bound",
            balance(&p)
        );
    }

    #[test]
    fn beats_round_robin_on_cut() {
        let g = generators::planted_partition(8, 40, 0.3, 0.005, 1, 7);
        let ml = MultilevelKWay::default().partition(&g, 8);
        let rr = RoundRobinPartitioner.partition(&g, 8);
        let (cm, cr) = (edge_cut(&g, &ml), edge_cut(&g, &rr));
        assert!(
            2 * cm < cr,
            "multilevel cut {cm} should be far below round-robin {cr}"
        );
    }

    #[test]
    fn recovers_planted_communities_nearly_perfectly() {
        let g = generators::planted_partition(4, 50, 0.4, 0.002, 1, 3);
        let p = MultilevelKWay::default().partition(&g, 4);
        // Nearly all intra-community edges should be uncut.
        let cut = edge_cut(&g, &p);
        let m = g.edge_count();
        assert!(
            (cut as f64) < 0.15 * m as f64,
            "cut {cut} of {m} edges is too high"
        );
    }

    #[test]
    fn handles_small_graphs() {
        let g = generators::path(3);
        let p = MultilevelKWay::default().partition(&g, 2);
        p.validate(&g).unwrap();
    }

    #[test]
    fn handles_k_exceeding_n() {
        let g = generators::path(3);
        let p = MultilevelKWay::default().partition(&g, 8);
        p.validate(&g).unwrap();
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut g = generators::path(40);
        g.remove_edge(19, 20);
        g.remove_edge(9, 10);
        let p = MultilevelKWay::default().partition(&g, 4);
        p.validate(&g).unwrap();
        assert!(balance(&p) <= 1.25);
    }

    #[test]
    fn handles_star_graph_matching_stall() {
        // Heavy-edge matching on a star can only contract one pair per round;
        // the stall guard must prevent infinite loops.
        let g = generators::star(300);
        let p = MultilevelKWay::default().partition(&g, 4);
        p.validate(&g).unwrap();
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generators::barabasi_albert(200, 2, 1, 9);
        let a = MultilevelKWay::default().partition(&g, 4);
        let b = MultilevelKWay::default().partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn single_part() {
        let g = generators::cycle(10);
        let p = MultilevelKWay::default().partition(&g, 1);
        p.validate(&g).unwrap();
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn skips_tombstones() {
        let mut g = generators::barabasi_albert(100, 2, 1, 4);
        g.remove_vertex(10);
        g.remove_vertex(50);
        let p = MultilevelKWay::default().partition(&g, 4);
        p.validate(&g).unwrap();
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 98);
    }
}
