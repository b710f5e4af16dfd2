//! The one shortest-path search the engine and the top-k bounds run:
//! Dijkstra over a [`MonotoneQueue`], on labels the caller keeps and sees in
//! two hooks — a sink that takes or refuses each lowering, and a settle hook
//! that sees every pop. `algo::dijkstra` is the independent reference it is
//! held to; the two share no code.

use crate::monotone::MonotoneQueue;
use crate::{VertexId, Weight};

/// What a search does with a popped vertex: offer its neighbours labels
/// through it, leave them alone (a stale entry, or a vertex not to expand),
/// or end the search there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    Expand,
    Skip,
    Stop,
}

/// The queue of a shortest-path search, kept between runs for its
/// allocations.
#[derive(Debug, Default, Clone)]
pub struct Search(MonotoneQueue);

impl Search {
    /// Runs one search from `seeds`, `(vertex, label)` pairs already set in
    /// `labels`; `neighbors(v)` lists `v`'s edges. Each neighbour `t` of an
    /// expanded vertex is offered to `sink` at the popped label plus the
    /// edge weight, saturating at `INF`; `sink` answers whether `t` joins the
    /// queue, so it may write a label it does not queue (reached, never
    /// expanded) or refuse the write. `settle` sees every pop, stale ones
    /// included. The queue is emptied first: a caller reusing the search
    /// starts each run at any labels it likes.
    pub fn run<'g, L: ?Sized>(
        &mut self,
        labels: &mut L,
        seeds: impl IntoIterator<Item = (VertexId, Weight)>,
        neighbors: impl Fn(VertexId) -> &'g [(VertexId, Weight)],
        mut sink: impl FnMut(&mut L, VertexId, Weight) -> bool,
        mut settle: impl FnMut(&mut L, VertexId, Weight) -> Settle,
    ) {
        self.0.clear();
        for (v, d) in seeds {
            self.0.push(d, v);
        }
        while let Some((d, u)) = self.0.pop() {
            match settle(labels, u, d) {
                Settle::Expand => {}
                Settle::Skip => continue,
                Settle::Stop => break,
            }
            for &(t, w) in neighbors(u) {
                let d = d.saturating_add(w);
                if sink(labels, t, d) {
                    self.0.push(d, t);
                }
            }
        }
    }
}

/// The plain row sink: lowers `row[v]` to `d` if that is lower, and then
/// queues `v`. With [`unless_stale`] and one seed at 0: single-source Dijkstra.
pub fn lower(row: &mut [Weight], v: VertexId, d: Weight) -> bool {
    match row.get_mut(v as usize) {
        Some(label) if d < *label => {
            *label = d;
            true
        }
        _ => false,
    }
}

/// The plain settle hook: expands a vertex popped at its label in `row`,
/// skips an entry above it.
pub fn unless_stale(row: &mut [Weight], v: VertexId, d: Weight) -> Settle {
    match row.get(v as usize) {
        Some(&label) if d > label => Settle::Skip,
        _ => Settle::Expand,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo, generators, Graph, INF};
    use proptest::prelude::*;

    /// The kernel's labels from `seeds` on `g`, with the plain row pair.
    fn kernel_row(g: &Graph, seeds: &[(VertexId, Weight)]) -> Vec<Weight> {
        let mut row = vec![INF; g.capacity()];
        for &(v, d) in seeds {
            lower(&mut row, v, d);
        }
        let neighbors = |v| g.neighbors(v);
        Search::default().run(
            &mut row[..],
            seeds.iter().copied(),
            neighbors,
            lower,
            unless_stale,
        );
        row
    }

    proptest! {
        /// From every vertex, and from a set of seeds at preset labels, the
        /// kernel's row is the oracle's, at weights that tie everywhere,
        /// small ones, a million, and 2^31 — where two edges already
        /// saturate a sum at `INF`.
        #[test]
        fn kernel_rows_equal_the_oracle_at_every_weight_range(
            n in 2usize..40,
            density in 1usize..4,
            range in 0usize..4,
            graph_seed in 0u64..1000,
            seeds in proptest::collection::vec((0u32..40, 0u32..u32::MAX), 1..6),
        ) {
            let max_weight = [1, 4, 1_000_000, 1 << 31][range];
            let m = (density * n).min(n * (n - 1) / 2);
            let g = generators::erdos_renyi_gnm(n, m, max_weight, graph_seed);
            for s in g.vertices() {
                prop_assert_eq!(kernel_row(&g, &[(s, 0)]), algo::dijkstra(&g, s));
            }
            // Several seeds, some twice at different labels: the oracle's
            // row from a virtual source joined to each at its least label.
            let seeds: Vec<(VertexId, Weight)> = seeds
                .into_iter()
                .map(|(v, raw)| (v % n as VertexId, raw % max_weight.saturating_mul(2)))
                .collect();
            let mut least = vec![INF; n];
            for &(v, d) in &seeds {
                least[v as usize] = least[v as usize].min(d);
            }
            let mut joined = g.clone();
            let source = joined.add_vertex();
            for (v, &d) in least.iter().enumerate() {
                if d != INF {
                    joined.add_edge(source, v as VertexId, d);
                }
            }
            let mut want = algo::dijkstra(&joined, source);
            want.truncate(n);
            prop_assert_eq!(kernel_row(&g, &seeds), want);
        }
    }

    #[test]
    fn a_refused_queue_reaches_without_expanding_and_stop_ends_the_run() {
        let g = generators::path(5); // 0-1-2-3-4
        let mut row = vec![INF; 5];
        row[0] = 0;
        let sink = |row: &mut [Weight], v, d| lower(row, v, d) && v != 2;
        Search::default().run(
            &mut row[..],
            [(0, 0)],
            |v| g.neighbors(v),
            sink,
            unless_stale,
        );
        assert_eq!(row, [0, 1, 2, INF, INF], "2 is reached, not expanded");

        let mut row = vec![INF; 5];
        row[0] = 0;
        let mut popped = Vec::new();
        let settle = |row: &mut [Weight], v, d| match unless_stale(row, v, d) {
            Settle::Expand if v == 1 => Settle::Stop,
            other => {
                popped.push(v);
                other
            }
        };
        Search::default().run(&mut row[..], [(0, 0)], |v| g.neighbors(v), lower, settle);
        assert_eq!(popped, [0]);
        assert_eq!(row, [0, 1, INF, INF, INF], "1 is labelled, not expanded");
    }
}
