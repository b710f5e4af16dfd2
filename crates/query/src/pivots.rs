//! Structural closeness bounds from pivot (landmark) Dijkstras.
//!
//! A handful of exact single-source shortest-path trees buy two things the
//! anytime estimates alone cannot provide:
//!
//! * **Upper bounds.** For a pivot `p` the triangle inequality gives
//!   `d(v, t) ≥ |d(p, v) − d(p, t)|`, and any two distinct vertices are at
//!   least one minimum edge weight apart. Summing the per-target maximum of
//!   those two floors over `v`'s component lower-bounds `Σ_t d(v, t)`, hence
//!   upper-bounds `C(v) = 1/Σ_t d(v, t)`. The sum over all targets is
//!   computed for *every* vertex of the pivot's component in `O(n log n)`
//!   per pivot by sorting the pivot's distance row and splitting prefix sums
//!   at each query value.
//! * **Exact anchors.** A pivot's own distance row is exact, so its
//!   closeness is exact from step zero. Seeding pivots with the highest-
//!   degree vertices means the likely top-k members carry exact scores long
//!   before the engine converges, which is what lifts the k-th lower bound
//!   high enough to prune early.
//! * **Exploration floors.** Triangle floors saturate once every vertex is
//!   within the pivot k-center radius of some pivot — on small-world graphs
//!   that leaves most of the periphery unprunable. A bounded Dijkstra per
//!   vertex fixes this: settle the nearest [`BALL_CAP`] targets at their
//!   exact distances, and since Dijkstra settles in nondecreasing order,
//!   every unsettled component member is at least as far as the last
//!   settled target. The floor `Σ_settled d + (reach − settled) · d_last`
//!   tracks neighbourhood expansion — precisely the quantity that separates
//!   peripheral vertices from the top-k in graphs where absolute distances
//!   barely spread. `ub_sum` keeps the larger of the two floors per vertex.
//!   The floor is non-decreasing in the settled count `s` —
//!   `floor_{s+1} − floor_s = (reach − s)(d_{s+1} − d_s) ≥ 0` — so a search
//!   stops the moment its floor passes the k-th smallest pivot exact sum
//!   `T`: pivots carry their exact sums as lower-bound denominators for the
//!   whole generation, hence the k-th best denominator never rises above
//!   `T`, and a floor above `T` already prunes the vertex for every `k' ≤ k`
//!   (the cut Bisenius et al. use for dynamic top-k closeness). Floors at or
//!   below `T` are the ones an unbounded search would reach, bit for bit.
//!
//! Component membership also falls out exactly: a pivot reaches precisely
//! its component, pinning the reachable-target count every lower bound needs.
//!
//! Bounds here are *per generation* — valid for one `(invalidation epoch,
//! state version)` of the graph — and are rebuilt from scratch when the
//! tracker observes a frame from a new generation. Everything is integer
//! arithmetic on distance sums; floats only appear when a caller converts a
//! sum to a closeness score.

use aa_graph::search::{lower, unless_stale, Search, Settle};
use aa_graph::{algo, Graph, VertexId, Weight, INF};

/// Settled-target budget of the per-vertex exploration floor: this many
/// nearest targets are settled at their exact distance, every farther
/// component member is charged the last settled distance. Components at or
/// below the budget get their exact distance sums as floors.
pub const BALL_CAP: usize = 256;

/// Per-generation structural bound state: component geometry, pivot rows
/// collapsed into per-vertex distance-sum lower bounds, and exact sums for
/// the pivots themselves.
#[derive(Debug, Clone)]
pub struct StructuralBounds {
    /// Invalidation epoch of the graph these bounds were built from.
    pub epoch: u64,
    /// Mutation state version of that graph.
    pub state_version: u64,
    /// Maximum edge weight in the graph (≥ 1), for the per-component
    /// distance ceiling `(|comp| − 1) · w_max`.
    pub w_max: u64,
    /// Size of the vertex's connected component, per id slot (0 for dead
    /// slots). A slot with `comp_size < 2` has exactly zero closeness.
    pub comp_size: Vec<u64>,
    /// Lower bound on the vertex's final distance sum `Σ_t d(v, t)`, per id
    /// slot — the best (largest) pivot-derived floor, which upper-bounds
    /// closeness as `1/ub_sum`. 0 means "no bound" (never prunable).
    pub ub_sum: Vec<u64>,
    /// Exact distance sum per id slot for pivots; `u64::MAX` elsewhere.
    pub exact_sum: Vec<u64>,
    /// The pivots, in selection order (degree seeds, component cover,
    /// greedy k-center fill).
    pub pivots: Vec<VertexId>,
}

impl StructuralBounds {
    /// Whether `v` is a pivot, i.e. its closeness is exact from these bounds.
    pub fn is_pivot(&self, v: VertexId) -> bool {
        self.exact_sum
            .get(v as usize)
            .is_some_and(|&s| s != u64::MAX)
    }

    /// Builds bounds for the graph as it stands, stamped with the given
    /// generation, for rankings up to `k`. `k` pivots are seeded by highest
    /// degree (the likely top-k anchors), every component of size ≥ 2 gets
    /// at least one pivot, and the remaining budget up to `max_pivots` is
    /// spent on greedy k-center spread (each new pivot is the vertex
    /// farthest from all existing pivots). Exploration floors are cut at
    /// the k-th smallest pivot exact sum (see the module docs): a ranking
    /// for any `k' ≤ k` classifies every vertex exactly as uncut floors
    /// would; a larger `k'` stays sound but may leave more unresolved.
    pub fn build(
        g: &Graph,
        epoch: u64,
        state_version: u64,
        k: usize,
        max_pivots: usize,
    ) -> StructuralBounds {
        Self::build_cut(g, epoch, state_version, k, max_pivots, k)
    }

    /// The build proper. `cut_rank` picks the exploration threshold: the
    /// `cut_rank`-th smallest pivot exact sum. Production always passes the
    /// rank it seeds for; the tests also pass a rank no pivot set reaches —
    /// no threshold, every exploration run to [`BALL_CAP`] — as the
    /// reference they hold the cut to.
    pub(crate) fn build_cut(
        g: &Graph,
        epoch: u64,
        state_version: u64,
        seed_count: usize,
        max_pivots: usize,
        cut_rank: usize,
    ) -> StructuralBounds {
        let cap = g.capacity();
        let (comp_of, comp_count) = algo::connected_components(g);
        let mut comp_members = vec![0u64; comp_count];
        for v in g.vertices() {
            if let Some(c) = comp_members.get_mut(comp_of[v as usize]) {
                *c += 1;
            }
        }
        let mut comp_size = vec![0u64; cap];
        for v in g.vertices() {
            comp_size[v as usize] = comp_members.get(comp_of[v as usize]).copied().unwrap_or(0);
        }
        let mut w_max = 1u64;
        let mut unit = u64::MAX;
        for (_, _, w) in g.edges() {
            w_max = w_max.max(u64::from(w));
            unit = unit.min(u64::from(w));
        }
        let unit = if unit == u64::MAX { 1 } else { unit.max(1) };

        let mut bounds = StructuralBounds {
            epoch,
            state_version,
            w_max,
            comp_size,
            ub_sum: vec![0; cap],
            exact_sum: vec![u64::MAX; cap],
            pivots: Vec::new(),
        };

        // Candidates: vertices that can have positive closeness at all.
        let candidates: Vec<VertexId> = g
            .vertices()
            .filter(|&v| bounds.comp_size[v as usize] >= 2)
            .collect();
        if candidates.is_empty() {
            return bounds;
        }
        let budget = max_pivots.max(1);

        // Degree seeds: the highest-degree vertices anchor the probable
        // top-k with exact scores (ties broken by lower id).
        let mut by_degree = candidates.clone();
        by_degree.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
        let mut is_pivot = vec![false; cap];
        // Min distance to any existing pivot, for the k-center fill.
        let mut mind = vec![INF; cap];
        let mut search = Search::default();
        let neighbors = |v| g.neighbors(v);
        // Each pivot's row is folded into the bounds as it is found (see
        // `apply_pivot`): every fold only raises entries, so in any order.
        let mut add_pivot = |v: VertexId,
                             is_pivot: &mut Vec<bool>,
                             mind: &mut Vec<u32>,
                             bounds: &mut StructuralBounds| {
            if is_pivot[v as usize] {
                return;
            }
            is_pivot[v as usize] = true;
            let mut row = vec![INF; cap];
            row[v as usize] = 0;
            search.run(&mut row[..], [(v, 0)], neighbors, lower, unless_stale);
            mind.iter_mut()
                .zip(&row)
                .for_each(|(m, &d)| *m = (*m).min(d));
            bounds.pivots.push(v);
            bounds.apply_pivot(v, &row, &comp_of, unit);
        };
        for &v in by_degree.iter().take(seed_count.min(budget)) {
            add_pivot(v, &mut is_pivot, &mut mind, &mut bounds);
        }
        // Component cover: every component of size ≥ 2 gets its lowest-id
        // vertex as a pivot if the degree seeds missed it. Coverage is what
        // makes `ub_sum` nonzero component-wide, so it may exceed the
        // k-center budget (bounded by the component count, not by n).
        let mut covered = vec![false; comp_count];
        for &p in &bounds.pivots.clone() {
            if let Some(c) = covered.get_mut(comp_of[p as usize]) {
                *c = true;
            }
        }
        for &v in &candidates {
            let comp = comp_of[v as usize];
            if !covered.get(comp).copied().unwrap_or(true) {
                covered[comp] = true;
                add_pivot(v, &mut is_pivot, &mut mind, &mut bounds);
            }
        }
        // Greedy k-center fill: repeatedly take the vertex farthest from
        // every existing pivot (ties by lower id) until the budget is spent.
        while bounds.pivots.len() < budget {
            let mut best: Option<(u64, VertexId)> = None;
            for &v in &candidates {
                if is_pivot[v as usize] {
                    continue;
                }
                let d = u64::from(mind[v as usize]);
                if d == 0 {
                    continue;
                }
                if best.is_none_or(|(bd, _)| d > bd) {
                    best = Some((d, v));
                }
            }
            match best {
                Some((_, v)) => add_pivot(v, &mut is_pivot, &mut mind, &mut bounds),
                None => break,
            }
        }

        // Exploration floors: one bounded search per candidate (see the
        // module docs), its settle hook keeping the floor. Scratch state is
        // reused across candidates; only the touched slots are reset between
        // runs. A floor is a function of the settled distances in
        // nondecreasing order — which vertex of two at equal distance
        // settles first changes neither `sum` nor `d` at any settled count —
        // so it does not depend on how ties pop.
        let cut = bounds.kth_pivot_sum(cut_rank);
        let mut dist = vec![INF; cap];
        let mut touched: Vec<VertexId> = Vec::new();
        for &v in &candidates {
            // A pivot's floor is already its exact sum, and a triangle floor
            // above the cut has pruned the vertex before any search.
            if is_pivot[v as usize] || bounds.ub_sum[v as usize] > cut {
                continue;
            }
            let reach = bounds.comp_size[v as usize].saturating_sub(1);
            dist[v as usize] = 0;
            touched.push(v);
            let (mut settled, mut sum, mut floor) = (0u64, 0u64, 0u64);
            let sink = |dist: &mut [Weight], t: VertexId, d| {
                let first = dist[t as usize] == INF;
                let lowered = lower(dist, t, d);
                if lowered && first {
                    touched.push(t);
                }
                lowered
            };
            let settle = |dist: &mut [Weight], u, d| match unless_stale(dist, u, d) {
                Settle::Expand if u != v => {
                    sum += u64::from(d);
                    settled += 1;
                    // Unsettled component members settle later, hence at ≥ d.
                    floor = sum + reach.saturating_sub(settled).saturating_mul(u64::from(d));
                    match settled >= BALL_CAP as u64 || floor > cut {
                        true => Settle::Stop,
                        false => Settle::Expand,
                    }
                }
                other => other,
            };
            search.run(&mut dist[..], [(v, 0)], neighbors, sink, settle);
            bounds.ub_sum[v as usize] = bounds.ub_sum[v as usize].max(floor);
            for &t in &touched {
                dist[t as usize] = INF;
            }
            touched.clear();
        }
        bounds
    }

    /// The `rank`-th smallest pivot exact sum — a ceiling on the `rank`-th
    /// best lower-bound denominator for as long as these bounds live.
    /// `u64::MAX` (no ceiling) with fewer than `rank` pivots or `rank` 0.
    fn kth_pivot_sum(&self, rank: usize) -> u64 {
        if rank == 0 || rank > self.pivots.len() {
            return u64::MAX;
        }
        let mut sums: Vec<u64> = self
            .pivots
            .iter()
            .map(|&p| self.exact_sum[p as usize])
            .collect();
        *sums.select_nth_unstable(rank - 1).1
    }

    /// Folds one pivot's exact distance row into the bounds: exact sum for
    /// the pivot, triangle-inequality distance-sum floors for every vertex
    /// of the pivot's component.
    fn apply_pivot(&mut self, p: VertexId, row: &[u32], comp_of: &[usize], unit: u64) {
        let pc = comp_of.get(p as usize).copied().unwrap_or(usize::MAX);
        if pc == usize::MAX {
            return;
        }
        // Members of the pivot's component with their exact pivot distances,
        // sorted by distance for the prefix-sum split below.
        let mut members: Vec<(u64, VertexId)> = row
            .iter()
            .enumerate()
            .filter(|&(t, &d)| d != INF && comp_of.get(t).copied() == Some(pc))
            .map(|(t, &d)| (u64::from(d), t as VertexId))
            .collect();
        members.sort_unstable();
        let n = members.len();
        if n < 2 {
            return;
        }
        let ds: Vec<u64> = members.iter().map(|&(d, _)| d).collect();
        let mut prefix = vec![0u64; n + 1];
        for (i, &d) in ds.iter().enumerate() {
            prefix[i + 1] = prefix[i] + d;
        }
        let total_sum = prefix[n];

        // Pivot's own closeness is exact: its row is an exact SSSP tree.
        let exact = total_sum; // d(p, p) = 0 contributes nothing
        self.exact_sum[p as usize] = exact;

        for &(x, v) in &members {
            // Σ_t |d(p,t) − x| via a prefix split at x.
            let le = ds.partition_point(|&d| d <= x);
            let (cnt_le, sum_le) = (le as u64, prefix[le]);
            let abs_total =
                (cnt_le * x - sum_le) + ((total_sum - sum_le) - (n as u64 - cnt_le) * x);
            // Raise every pair closer than one minimum edge weight to that
            // floor: near range is d ∈ (x − unit, x + unit).
            let lo = ds.partition_point(|&d| d + unit <= x);
            let hi = ds.partition_point(|&d| d < x + unit);
            let le_c = le.clamp(lo, hi);
            let near_le = (le_c - lo) as u64 * x - (prefix[le_c] - prefix[lo]);
            let near_gt = (prefix[hi] - prefix[le_c]) - (hi - le_c) as u64 * x;
            let abs_near = near_le + near_gt;
            let cnt_near = (hi - lo) as u64;
            // The vertex itself sits in the near range at |Δ| = 0 and must
            // not count as a target; drop its raised `unit` contribution.
            let s = (abs_total + (cnt_near * unit - abs_near)).saturating_sub(unit);
            if s > self.ub_sum[v as usize] {
                self.ub_sum[v as usize] = s;
            }
        }
        // The pivot's floor is its exact sum (the formula above already
        // yields it, since every other member is ≥ unit away).
        if exact > self.ub_sum[p as usize] {
            self.ub_sum[p as usize] = exact;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;

    /// Brute-force version of the prefix-sum floor for one pivot.
    fn brute_floor(row: &[u32], comp_of: &[usize], pc: usize, v: usize, unit: u64) -> u64 {
        let x = u64::from(row[v]);
        row.iter()
            .enumerate()
            .filter(|&(t, &d)| t != v && d != INF && comp_of[t] == pc)
            .map(|(_, &d)| u64::from(d).abs_diff(x).max(unit))
            .sum()
    }

    #[test]
    fn pivot_floor_matches_brute_force() {
        for seed in [3u64, 17, 99] {
            let g = generators::erdos_renyi_gnm(60, 120, 5, seed);
            let (comp_of, _) = algo::connected_components(&g);
            let b = StructuralBounds::build(&g, 0, 0, 4, 8);
            let p = b.pivots[0];
            let row = algo::dijkstra(&g, p);
            let pc = comp_of[p as usize];
            let mut single = StructuralBounds {
                epoch: 0,
                state_version: 0,
                w_max: b.w_max,
                comp_size: b.comp_size.clone(),
                ub_sum: vec![0; g.capacity()],
                exact_sum: vec![u64::MAX; g.capacity()],
                pivots: vec![p],
            };
            let mut unit = u64::MAX;
            for (_, _, w) in g.edges() {
                unit = unit.min(u64::from(w));
            }
            let unit = unit.max(1);
            single.apply_pivot(p, &row, &comp_of, unit);
            for v in g.vertices() {
                if comp_of[v as usize] != pc {
                    continue;
                }
                assert_eq!(
                    single.ub_sum[v as usize],
                    brute_floor(&row, &comp_of, pc, v as usize, unit),
                    "seed {seed} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn floors_never_exceed_true_sums() {
        for seed in [7u64, 21, 42] {
            let g = generators::barabasi_albert(70, 2, 6, seed);
            let b = StructuralBounds::build(&g, 0, 0, 8, 16);
            let dist = algo::apsp_dijkstra(&g);
            for v in g.vertices() {
                let true_sum: u64 = dist[v as usize]
                    .iter()
                    .enumerate()
                    .filter(|&(t, &d)| t != v as usize && d != INF)
                    .map(|(_, &d)| u64::from(d))
                    .sum();
                assert!(
                    b.ub_sum[v as usize] <= true_sum,
                    "seed {seed} vertex {v}: floor {} > true {}",
                    b.ub_sum[v as usize],
                    true_sum
                );
            }
        }
    }

    /// The floor an exploration run to [`BALL_CAP`] must reach, from an exact
    /// distance row: the nearest targets at their distance, the rest at the
    /// last of them.
    fn brute_exploration_floor(row: &[u32], v: usize) -> u64 {
        let finite = row.iter().enumerate().filter(|&(t, &d)| t != v && d != INF);
        let mut ds: Vec<u64> = finite.map(|(_, &d)| u64::from(d)).collect();
        ds.sort_unstable();
        let settled = ds.len().min(BALL_CAP);
        let last = settled.checked_sub(1).map_or(0, |i| ds[i]);
        ds[..settled].iter().sum::<u64>() + (ds.len() - settled) as u64 * last
    }

    /// A connected-ish G(n, m) whose weights are 1 or 10^6, a third of them
    /// the latter.
    fn one_or_a_million(n: usize, seed: u64) -> Graph {
        let shape = generators::erdos_renyi_gnm(n, 3 * n, 1, seed);
        let mut g = Graph::with_vertices(n);
        for (u, v, _) in shape.edges() {
            g.add_edge(u, v, if (u + v) % 3 == 0 { 1_000_000 } else { 1 });
        }
        g
    }

    #[test]
    fn floors_hold_on_weights_up_to_a_million() {
        // Weights the generators' callers never ask for: 32-bit keys that
        // differ in their high bits, and keys a million apart beside ties.
        let fixtures = [
            (
                "G(n,m), w ≤ 10^6",
                generators::erdos_renyi_gnm(120, 300, 1_000_000, 5),
            ),
            (
                "scale-free, w ≤ 10^6",
                generators::barabasi_albert(200, 2, 1_000_000, 9),
            ),
            ("1 or 10^6", one_or_a_million(150, 3)),
            ("1 or 10^6, past the ball cap", one_or_a_million(400, 11)),
        ];
        let mut stopped_early = 0;
        for (name, g) in fixtures {
            let k = 6;
            let cut = StructuralBounds::build(&g, 0, 0, k, 12);
            let uncut = StructuralBounds::build_cut(&g, 0, 0, k, 12, usize::MAX);
            let threshold = cut.kth_pivot_sum(k);
            assert_eq!(cut.pivots, uncut.pivots, "{name}");
            let dist = algo::apsp_dijkstra(&g);
            for v in g.vertices().map(|v| v as usize) {
                if uncut.comp_size[v] < 2 {
                    continue;
                }
                let true_sum: u64 = dist[v]
                    .iter()
                    .filter(|&&d| d != INF)
                    .map(|&d| u64::from(d))
                    .sum();
                let explored = brute_exploration_floor(&dist[v], v);
                let (c, u) = (cut.ub_sum[v], uncut.ub_sum[v]);
                assert!(u >= explored, "{name}: vertex {v} floor {u} < {explored}");
                assert!(
                    u <= true_sum,
                    "{name}: vertex {v} floor {u} > sum {true_sum}"
                );
                if uncut.comp_size[v] as usize <= BALL_CAP + 1 {
                    assert_eq!(u, true_sum, "{name}: vertex {v} settles its component");
                }
                if u <= threshold {
                    assert_eq!(c, u, "{name}: vertex {v} under the cut");
                } else {
                    assert!(threshold < c && c <= u, "{name}: vertex {v} cut at {c}");
                    stopped_early += usize::from(c < u);
                }
            }
        }
        assert!(stopped_early > 0, "the cut stopped no search");
    }

    #[test]
    fn pivot_sums_are_exact() {
        let g = generators::watts_strogatz(50, 3, 0.2, 4, 11);
        let b = StructuralBounds::build(&g, 0, 0, 5, 10);
        assert!(!b.pivots.is_empty());
        for &p in &b.pivots {
            let row = algo::dijkstra(&g, p);
            let true_sum: u64 = row
                .iter()
                .enumerate()
                .filter(|&(t, &d)| t != p as usize && d != INF)
                .map(|(_, &d)| u64::from(d))
                .sum();
            assert_eq!(b.exact_sum[p as usize], true_sum);
            assert_eq!(b.ub_sum[p as usize], true_sum);
            assert!(b.is_pivot(p));
        }
    }

    #[test]
    fn every_component_gets_a_pivot() {
        let mut g = generators::path(6);
        g.remove_edge(2, 3); // two components of size 3
        let b = StructuralBounds::build(&g, 0, 0, 1, 2);
        let (comp_of, _) = algo::connected_components(&g);
        for v in g.vertices() {
            assert!(
                b.ub_sum[v as usize] > 0,
                "vertex {v} (comp {}) has no floor",
                comp_of[v as usize]
            );
        }
    }

    #[test]
    fn isolated_and_dead_slots_have_no_bounds() {
        let mut g = generators::path(5);
        g.remove_vertex(4); // 3 is now the path end; 4 dead
        let mut g2 = g;
        let _ = g2.add_vertex(); // fresh isolated vertex
        let b = StructuralBounds::build(&g2, 0, 0, 4, 8);
        assert_eq!(b.comp_size[4], 0, "dead slot");
        assert_eq!(b.ub_sum[4], 0);
        let iso = 5;
        assert_eq!(b.comp_size[iso], 1, "isolated vertex");
        assert_eq!(b.ub_sum[iso], 0);
        assert!(!b.is_pivot(iso as VertexId));
    }

    #[test]
    fn degree_seeds_come_first() {
        let g = generators::star(12);
        let b = StructuralBounds::build(&g, 0, 0, 3, 6);
        assert_eq!(b.pivots[0], 0, "star center has the highest degree");
    }
}
