//! Frozen, seed-driven input generators.
//!
//! These are the benchmark's own copies of the churn schedule that
//! `aa_bench::ingest::churn_ops` draws and of the per-turn request mix that
//! `aa_serve::LoadGen` draws, so a later PR can edit either without moving
//! the benchmark. Everything is generated in set-up against a shadow
//! [`Graph`]; nothing here runs inside a timed region (`LoadGen::write`
//! rescans every edge per request, which would be measured as server time).

use crate::rng::Rng;
use aa_graph::rmat::{rmat, RmatParams};
use aa_graph::{Graph, VertexId, Weight};
use aa_ingest::UpdateOp;
use aa_serve::{ClientOp, ReadKind};

/// Largest edge weight the generators draw.
const MAX_WEIGHT: Weight = 4;
/// `k` of every top-k read.
pub const TOP_K: usize = 10;

/// The R-MAT graph every workload starts from: `2^scale` vertices and
/// `4 · 2^scale` edges with weights in `1..=4`.
pub fn base_graph(scale: u32, seed: u64) -> Graph {
    rmat(
        scale,
        4usize << scale,
        RmatParams::default(),
        MAX_WEIGHT,
        seed,
    )
}

/// A weight in `1..=4` different from `w0`.
fn other_weight(rng: &mut Rng, w0: Weight) -> Weight {
    let w = rng.range(1, MAX_WEIGHT);
    if w == w0 {
        w0 % MAX_WEIGHT + 1
    } else {
        w
    }
}

/// A churn schedule of `updates` ops, each valid and effective when applied
/// in order to `base`, and the graph they leave behind (the oracle input).
///
/// The feed is skewed the way `churn_ops` skews it: about 75 % of edge ops
/// flap one of 8 hub–hub "hot pairs" (R-MAT hubs sit on most shortest
/// paths, so these are the most expensive edges to serve one at a time and
/// the most profitable to coalesce), 15 % hit uniform pairs, and 10 % are
/// vertex arrivals with 1–3 anchors. An absent pair is added; a present
/// pair is deleted or reweighted to a different weight.
pub fn churn_schedule(base: &Graph, updates: usize, seed: u64) -> (Vec<UpdateOp>, Graph) {
    let mut rng = Rng::new(seed, 0xC4);
    let mut shadow = base.clone();
    let mut alive: Vec<VertexId> = shadow.vertices().collect();

    let mut by_degree: Vec<(usize, VertexId)> =
        alive.iter().map(|&v| (base.degree(v), v)).collect();
    by_degree.sort_unstable_by(|a, b| b.cmp(a));
    let hubs: Vec<VertexId> = by_degree.iter().take(16).map(|&(_, v)| v).collect();
    let mut hot: Vec<(VertexId, VertexId)> = Vec::new();
    while hot.len() < 8 && hubs.len() >= 6 {
        let u = hubs[rng.below(hubs.len())];
        let v = hubs[rng.below(hubs.len())];
        if u != v && !hot.contains(&(u, v)) && !hot.contains(&(v, u)) {
            hot.push((u, v));
        }
    }

    let mut ops = Vec::with_capacity(updates);
    while ops.len() < updates {
        let roll = rng.below(100);
        if roll < 10 || hot.is_empty() {
            let count = (1 + rng.below(3)).min(alive.len());
            let mut anchors: Vec<(VertexId, Weight)> = Vec::with_capacity(count);
            for _ in 0..count {
                let a = alive[rng.below(alive.len())];
                if !anchors.iter().any(|&(x, _)| x == a) {
                    anchors.push((a, 1));
                }
            }
            let id = shadow.add_vertex();
            for &(a, w) in &anchors {
                shadow.add_edge(id, a, w);
            }
            alive.push(id);
            ops.push(UpdateOp::AddVertex { anchors });
            continue;
        }
        let (u, v) = if roll < 85 {
            hot[rng.below(hot.len())]
        } else {
            let u = alive[rng.below(alive.len())];
            let v = alive[rng.below(alive.len())];
            if u == v {
                continue;
            }
            (u, v)
        };
        ops.push(edge_flip(&mut rng, &mut shadow, u, v));
    }
    (ops, shadow)
}

/// Adds `(u, v)` if absent, else deletes or reweights it (even odds),
/// keeping `shadow` in step.
fn edge_flip(rng: &mut Rng, shadow: &mut Graph, u: VertexId, v: VertexId) -> UpdateOp {
    match shadow.edge_weight(u, v) {
        None => {
            let w = rng.range(1, MAX_WEIGHT);
            shadow.add_edge(u, v, w);
            UpdateOp::AddEdge(u, v, w)
        }
        Some(_) if rng.below(2) == 0 => {
            shadow.remove_edge(u, v);
            UpdateOp::DeleteEdge(u, v)
        }
        Some(w0) => {
            let w = other_weight(rng, w0);
            shadow.set_edge_weight(u, v, w);
            UpdateOp::Reweight(u, v, w)
        }
    }
}

/// Shape of the offered load of one serving phase.
#[derive(Debug, Clone, Copy)]
pub struct ServeMix {
    pub turns: usize,
    /// Requests offered per turn; stays inside the default `ServeConfig`
    /// budgets (64 read + 64 write tokens per turn), so a shed request is a
    /// regression, not load shedding.
    pub per_turn: usize,
    /// Share of requests that are reads, in percent. Half of the reads are
    /// `TopK(10)`, half single-vertex lookups.
    pub read_pct: usize,
}

/// The per-turn request schedule of a serving phase and the graph its
/// writes leave behind.
///
/// Writes follow `LoadGen`'s edge-churn mix (40 % add a uniform absent
/// pair, 35 % delete an existing edge, 25 % reweight one) but are drawn
/// against the shadow graph, so every write is effective when it arrives.
pub fn serve_schedule(base: &Graph, mix: ServeMix, seed: u64) -> (Vec<Vec<ClientOp>>, Graph) {
    let mut rng = Rng::new(seed, 0x5E);
    let mut shadow = base.clone();
    let alive: Vec<VertexId> = shadow.vertices().collect();
    let mut edges: Vec<(VertexId, VertexId)> = shadow.edges().map(|(u, v, _)| (u, v)).collect();
    let mut turns = Vec::with_capacity(mix.turns);
    for _ in 0..mix.turns {
        let mut ops = Vec::with_capacity(mix.per_turn);
        while ops.len() < mix.per_turn {
            if rng.below(100) < mix.read_pct {
                ops.push(ClientOp::Read(if rng.below(2) == 0 {
                    ReadKind::TopK(TOP_K)
                } else {
                    ReadKind::Vertex(alive[rng.below(alive.len())])
                }));
                continue;
            }
            let roll = rng.below(100);
            let op = if roll < 40 || edges.is_empty() {
                let u = alive[rng.below(alive.len())];
                let v = alive[rng.below(alive.len())];
                if u == v || shadow.has_edge(u, v) {
                    continue;
                }
                let w = rng.range(1, MAX_WEIGHT);
                shadow.add_edge(u, v, w);
                edges.push((u, v));
                UpdateOp::AddEdge(u, v, w)
            } else if roll < 75 {
                let (u, v) = edges.swap_remove(rng.below(edges.len()));
                shadow.remove_edge(u, v);
                UpdateOp::DeleteEdge(u, v)
            } else {
                let (u, v) = edges[rng.below(edges.len())];
                let w0 = shadow.edge_weight(u, v).unwrap_or(1);
                let w = other_weight(&mut rng, w0);
                shadow.set_edge_weight(u, v, w);
                UpdateOp::Reweight(u, v, w)
            };
            ops.push(ClientOp::Write(op));
        }
        turns.push(ops);
    }
    (turns, shadow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        let g = base_graph(7, 11);
        let (a, ga) = churn_schedule(&g, 200, 11);
        let (b, gb) = churn_schedule(&g, 200, 11);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            ga.edges().collect::<Vec<_>>(),
            gb.edges().collect::<Vec<_>>()
        );
        let (c, _) = churn_schedule(&g, 200, 12);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));

        let mix = ServeMix {
            turns: 20,
            per_turn: 64,
            read_pct: 80,
        };
        let (s1, _) = serve_schedule(&g, mix, 11);
        let (s2, _) = serve_schedule(&g, mix, 11);
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
        assert_eq!(s1.len(), 20);
        assert!(s1.iter().all(|t| t.len() == 64));
    }

    #[test]
    fn churn_ops_are_effective_on_the_evolving_graph() {
        let g = base_graph(7, 5);
        let (ops, end) = churn_schedule(&g, 300, 5);
        let mut replay = g.clone();
        for op in &ops {
            match op {
                UpdateOp::AddEdge(u, v, w) => assert!(replay.add_edge(*u, *v, *w)),
                UpdateOp::DeleteEdge(u, v) => assert!(replay.remove_edge(*u, *v).is_some()),
                UpdateOp::Reweight(u, v, w) => {
                    assert_ne!(replay.set_edge_weight(*u, *v, *w), Some(*w))
                }
                UpdateOp::AddVertex { anchors } => {
                    let id = replay.add_vertex();
                    for &(a, w) in anchors {
                        replay.add_edge(id, a, w);
                    }
                }
                UpdateOp::DeleteVertex(_) => panic!("schedule never deletes vertices"),
            }
        }
        assert_eq!(
            replay.edges().collect::<Vec<_>>(),
            end.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn serve_mix_respects_the_read_share() {
        let g = base_graph(7, 3);
        let all_reads = ServeMix {
            turns: 10,
            per_turn: 64,
            read_pct: 100,
        };
        let (s, end) = serve_schedule(&g, all_reads, 3);
        assert!(s.iter().flatten().all(|op| matches!(op, ClientOp::Read(_))));
        assert_eq!(end.edge_count(), g.edge_count());
        let mixed = ServeMix {
            read_pct: 80,
            ..all_reads
        };
        let (s, _) = serve_schedule(&g, mixed, 3);
        let writes = s
            .iter()
            .flatten()
            .filter(|op| matches!(op, ClientOp::Write(_)))
            .count();
        assert!((64..=192).contains(&writes), "{writes} writes of 640");
    }
}
