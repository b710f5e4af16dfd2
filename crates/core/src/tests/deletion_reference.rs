//! Deletion references: a test-only switch back to what `dynamic.rs`'s
//! deletions used to run, and a record of what either path reset, so tests
//! can run them side by side (`changelog.rs`):
//!
//! * [`whole_row`]: the old invalidation — every owned row scanned whole
//!   (on the sole-support sets production computes for the same edges),
//!   raised rows written through raw access and their neighbours marked
//!   all-columns, and every raised row rebuilt by a full local Dijkstra
//!   before the repair, which only the fetched edges let reach past the
//!   rank's view. Settled insertions, the mirror rule, relax every owned
//!   row over every column under it, not on their candidate columns
//!   (`candidate_insertion.rs`).

use super::{DeletedEdge, InvalidationTally, ProcState, Raised};
use crate::dv::{DistanceMatrix, Row};
use aa_graph::{VertexId, Weight, INF};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// `(rank, owned row, reset columns)`.
pub(crate) type Reset = (usize, VertexId, Vec<usize>);

thread_local! {
    static WHOLE_ROW: Cell<bool> = const { Cell::new(false) };
    static RESETS: RefCell<Option<Vec<Reset>>> = const { RefCell::new(None) };
}

pub(crate) fn is_whole_row() -> bool {
    WHOLE_ROW.with(Cell::get)
}

/// Runs `f` with every deletion on this thread invalidating the old way,
/// and every settled insertion relaxing whole rows.
pub(crate) fn whole_row<R>(f: impl FnOnce() -> R) -> R {
    let before = WHOLE_ROW.with(|w| w.replace(true));
    let out = f();
    WHOLE_ROW.with(|w| w.set(before));
    out
}

/// Records a row's reset columns, if it has any and [`recording`] is on.
pub(crate) fn note_reset(rank: usize, row: VertexId, cols: &[usize]) {
    if cols.is_empty() {
        return;
    }
    RESETS.with(|r| {
        if let Some(log) = r.borrow_mut().as_mut() {
            log.push((rank, row, cols.to_vec()));
        }
    });
}

/// Runs `f` and returns, with its result, what the deletions in it
/// reset, in the order they reset it: rank by rank, each in row order.
pub(crate) fn recording<R>(f: impl FnOnce() -> R) -> (R, Vec<Reset>) {
    RESETS.with(|r| r.replace(Some(Vec::new())));
    let out = f();
    (out, RESETS.with(RefCell::take).unwrap_or_default())
}

/// The deletion filters' shadow check: each `d(x,e) = row_e[x]` read off
/// a broadcast row is what row `x` holds, so both keep the same rows.
pub(crate) fn assert_row_agrees(row: Row<'_>, x: VertexId, ends: &[(VertexId, Weight)]) {
    for &(e, d) in ends {
        let held = row.get(e as usize);
        assert_eq!(Some(d), held, "row {x}: d({x},{e}) off the broadcast row");
    }
}

/// The whole-row scan `DeletedEdge::affected_targets` replaced: every
/// entry of the row held to both directions' thresholds, no filter, on the
/// same sole-support sets.
pub(super) fn affected_targets_edge(
    row: Row<'_>,
    x: VertexId,
    edge: &DeletedEdge<'_>,
) -> Vec<usize> {
    let ((u, v, w), (row_u, row_v)) = (edge.edge, edge.rows);
    let holds = |set: &[(u32, Weight)], t: usize| set.iter().any(|&(s, _)| s as usize == t);
    // `d(x,u) + w`, `d(x,v) + w`; `INF` on the side whose far end keeps
    // `x`.
    let plus_w = |e: VertexId, back: &[(u32, Weight)]| {
        let kept = !holds(back, x as usize);
        let d = row.get(e as usize).filter(|_| !kept);
        d.map_or(INF, |d| d.saturating_add(w))
    };
    let (a, b) = (plus_w(u, &edge.beyond_u), plus_w(v, &edge.beyond_v));
    let mut out = Vec::new();
    for (t, ((d, du), dv)) in row.iter().zip(row_u.iter()).zip(row_v.iter()).enumerate() {
        if d == INF || t == x as usize {
            continue;
        }
        let over_uv = d >= a.saturating_add(dv) && holds(&edge.beyond_v, t);
        let over_vu = d >= b.saturating_add(du) && holds(&edge.beyond_u, t);
        if over_uv || over_vu {
            out.push(t);
        }
    }
    out
}

/// The support test before sole support, by brute force from its
/// definition on the exact pre-deletion distances `pre`: the pairs `(x, t)`,
/// `t ≠ x`, that some shortest path runs over an edge of `deleted`.
pub(crate) fn unrefined_resets(
    pre: &[Vec<Weight>],
    deleted: &[(VertexId, VertexId, Weight)],
) -> BTreeSet<(VertexId, usize)> {
    let at = |a: VertexId, b: VertexId| pre[a as usize][b as usize];
    let mut resets = BTreeSet::new();
    for (x, row) in pre.iter().enumerate() {
        let x = x as VertexId;
        for (t, &d) in row.iter().enumerate() {
            let over = |&(u, v, w): &(VertexId, VertexId, Weight)| {
                let via = |a, b| {
                    at(x, a)
                        .saturating_add(w)
                        .saturating_add(at(b, t as VertexId))
                };
                d == via(u, v).min(via(v, u))
            };
            if d != INF && t != x as usize && deleted.iter().any(over) {
                resets.insert((x, t));
            }
        }
    }
    resets
}

/// The old phase 1: raised rows written through raw access, and their
/// local neighbours marked all-columns.
pub(crate) fn raise<F>(
    ps: &mut ProcState,
    tally: &mut InvalidationTally,
    affected: &mut F,
) -> Raised
where
    F: FnMut(Row<'_>, VertexId) -> Vec<usize>,
{
    let mut raised = Vec::new();
    for x in ps.dv.vertices().to_vec() {
        let targets = affected(ps.dv.row(x), x);
        tally.note(targets.len());
        if targets.is_empty() {
            continue;
        }
        note_reset(ps.rank, x, &targets);
        for &t in &targets {
            ps.dv.set_entry(x, t, INF);
        }
        raised.push((x, targets));
    }
    for (x, _) in &raised {
        for &(u, _) in &ps.adj[*x as usize] {
            if ps.is_local[u as usize] {
                ps.dv.mark_all_columns(u);
            }
        }
    }
    raised
}

/// The row [`ProcState::seed_rows`] gives `source` on `ps`'s view, owned
/// there or not, leaving `ps` as it is: external boundary vertices are
/// reachable sinks.
pub(crate) fn local_sssp(ps: &ProcState, source: VertexId) -> Vec<Weight> {
    let mut scratch = ps.clone();
    // At 32 bits, which withhold nothing.
    scratch.dv = DistanceMatrix::new(ps.dv.col_count());
    scratch.dv.add_row(source);
    scratch.seed_rows(&[source]);
    scratch.dv.row(source).to_vec()
}

/// The old phase 3: each raised row rebuilt whole by a local Dijkstra
/// (which the exact repair then completes, since only the fetched edges
/// reach past the rank's view) and marked dirty.
pub(crate) fn rebuild(ps: &mut ProcState, raised: &Raised) {
    for &(x, _) in raised {
        for (t, d) in local_sssp(ps, x).into_iter().enumerate() {
            ps.dv.lower_entry(x, t, d);
        }
        ps.dirty.insert(x);
    }
}
