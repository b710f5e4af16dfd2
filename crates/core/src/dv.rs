//! Distance vectors and the distance matrix owned by one virtual processor.
//!
//! Every processor stores one **distance vector** (DV) per vertex it owns:
//! the current shortest-path estimates from that vertex to *every* vertex id
//! slot in the graph. Estimates start at `INF` and only ever decrease
//! (except during deletion invalidation), which is the anytime property's
//! backbone. Columns grow when vertices are added (the papers' amortized
//! doubling analysis applies — `Vec` growth is exactly that), and whole rows
//! migrate between processors during repartitioning.
//!
//! Beside each row the matrix keeps a **change log**: one bit per column, set
//! by whichever write lowers that entry and cleared when the row has been
//! propagated to its local neighbours. Recombination relaxes a neighbour only
//! on the logged columns of the row that moved — the receive-side half of the
//! papers' "send only the updated values of the boundary DVs". That is exact
//! because of the *propagation invariant* `ProcState` maintains: for every
//! local edge `(v, u, w)` and every column `c` outside `v`'s log,
//! `row_u[c] <= row_v[c] + w`. Whatever breaks the invariant without going
//! through a logging write (raised entries, raw row access, new adjacency, a
//! row installed from elsewhere) marks the row all-columns instead.
//!
//! The rows whose log is non-empty are the **frontier**: exactly the rows
//! that still owe their local neighbours a relaxation. The frontier is the
//! only worklist — `ProcState::propagate` drains it and nobody hands it
//! seeds — so a row cannot be marked and then forgotten.

use aa_graph::{VertexId, Weight, INF};

/// Relaxes `dst[t] = min(dst[t], src[t] + offset)` for every column.
/// Returns whether any entry decreased. `INF` saturates.
#[inline]
pub fn relax_row(dst: &mut [Weight], src: &[Weight], offset: Weight) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut changed = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let cand = s.saturating_add(offset);
        if cand < *d {
            *d = cand;
            changed = true;
        }
    }
    changed
}

/// Columns per change-log word.
const WORD: usize = u64::BITS as usize;

/// A set of columns of one distance row: one bit per column, or "all of
/// them". A bitset rather than an index list because its size is fixed at
/// `cols / 8` bytes per row however many entries move (an index `Vec` per
/// row cost +12 MB at n = 2,048), and because merging is a word-wise OR.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    /// Bit `c % 64` of word `c / 64` is column `c`. Bits at or beyond the
    /// column count are never set.
    words: Vec<u64>,
    /// Every column is a member, whatever `words` says.
    all: bool,
}

impl ColumnSet {
    /// The empty set over `cols` columns.
    pub fn empty(cols: usize) -> Self {
        ColumnSet {
            words: vec![0; cols.div_ceil(WORD)],
            all: false,
        }
    }

    /// Every column of a row of any width: relaxing on it is a dense sweep.
    pub const EVERY: ColumnSet = ColumnSet {
        words: Vec::new(),
        all: true,
    };

    /// Every one of `cols` columns, with room to log single columns again
    /// once cleared.
    fn all(cols: usize) -> Self {
        ColumnSet {
            all: true,
            ..Self::empty(cols)
        }
    }

    /// The columns where `row` is finite — the only ones a relaxation
    /// through `row` can lower.
    pub fn finite_of(row: &[Weight]) -> Self {
        let words = row
            .chunks(WORD)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (bit, &d)| m | u64::from(d != INF) << bit)
            })
            .collect();
        ColumnSet { words, all: false }
    }

    /// Adds column `col`; columns beyond the set's width are ignored.
    pub fn insert(&mut self, col: usize) {
        if let Some(word) = self.words.get_mut(col / WORD) {
            *word |= 1 << (col % WORD);
        }
    }

    /// Whether `col` is a member.
    #[cfg(test)]
    pub(crate) fn contains(&self, col: usize) -> bool {
        self.all
            || self
                .words
                .get(col / WORD)
                .is_some_and(|word| word >> (col % WORD) & 1 == 1)
    }

    /// Whether no column is a member.
    pub(crate) fn is_empty(&self) -> bool {
        !self.all && self.words.iter().all(|&word| word == 0)
    }

    fn mark_all(&mut self) {
        self.all = true;
    }

    /// Adds every member of `other`, a set over the same columns.
    fn merge(&mut self, other: &ColumnSet) {
        self.all |= other.all;
        for (word, &more) in self.words.iter_mut().zip(&other.words) {
            *word |= more;
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.all = false;
    }

    /// Whether walking the members one by one would cost more than a dense
    /// sweep: all columns, or more than a quarter of them.
    fn is_dense(&self, cols: usize) -> bool {
        self.all
            || 4 * self
                .words
                .iter()
                .map(|word| word.count_ones() as usize)
                .sum::<usize>()
                > cols
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! Test-only switch that turns every logged relaxation back into the
    //! row-granular `relax_row` over all columns — the behaviour before
    //! change logs existed — so tests can run both side by side.
    use std::cell::Cell;

    thread_local! {
        static DENSE: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn is_dense() -> bool {
        DENSE.with(Cell::get)
    }

    /// Runs `f` with every relaxation on this thread row-granular. A matrix
    /// must live entirely inside or entirely outside such scopes: inside one
    /// a lowered row is logged all-columns, which puts it on the frontier and
    /// says nothing about which entries moved.
    pub(crate) fn dense<R>(f: impl FnOnce() -> R) -> R {
        let before = DENSE.with(|d| d.replace(true));
        let out = f();
        DENSE.with(|d| d.set(before));
        out
    }
}

/// `dst[c] = min(dst[c], src[c] + offset)` for every column `c` in `cols`,
/// recording each lowered column in `log`. Returns whether any entry
/// decreased. Dense sets take a whole-row sweep, sparse ones a walk over the
/// set bits; both visit a superset of the columns that can change, so the
/// rows they leave are identical.
// aa-lint: allow(AA07, the sparse walk indexes dst/src/log at columns taken from cols, whose bits never reach the column count — every set is built over the matrix width and resized with it)
fn relax_on(
    dst: &mut [Weight],
    log: &mut ColumnSet,
    src: &[Weight],
    offset: Weight,
    cols: &ColumnSet,
) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(log.words.len(), dst.len().div_ceil(WORD));
    #[cfg(test)]
    if reference::is_dense() {
        let changed = relax_row(dst, src, offset);
        if changed {
            log.mark_all();
        }
        return changed;
    }
    let mut changed = false;
    if cols.is_dense(dst.len()) {
        let chunks = dst.chunks_mut(WORD).zip(src.chunks(WORD));
        for ((d64, s64), word) in chunks.zip(&mut log.words) {
            // Nine sweeps in ten lower nothing: probe read-only first (this
            // loop vectorizes), and pay for the bit bookkeeping only in a
            // chunk that has something to lower.
            let hit = d64
                .iter()
                .zip(s64)
                .fold(false, |hit, (&d, &s)| hit | (s.saturating_add(offset) < d));
            if !hit {
                continue;
            }
            for (bit, (d, &s)) in d64.iter_mut().zip(s64).enumerate() {
                let cand = s.saturating_add(offset);
                if cand < *d {
                    *d = cand;
                    *word |= 1 << bit;
                }
            }
            changed = true;
        }
    } else {
        for (wi, &members) in cols.words.iter().enumerate() {
            let mut rest = members;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let c = wi * WORD + bit;
                let cand = src[c].saturating_add(offset);
                if cand < dst[c] {
                    dst[c] = cand;
                    log.words[wi] |= 1 << bit;
                    changed = true;
                }
            }
        }
    }
    changed
}

/// `(&mut s[a], &s[b])` for distinct in-range indices.
// aa-lint: allow(AA07, callers pass two distinct row indices read from row_of, both below the row count; split_at_mut offsets derive from them)
fn pair_mut<T>(s: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = s.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = s.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// The distance vectors of one processor's owned vertices.
#[derive(Debug, Clone, Default)]
pub struct DistanceMatrix {
    rows: Vec<Vec<Weight>>,
    /// Change log of each row (see the module docs), parallel to `rows`.
    logs: Vec<ColumnSet>,
    /// Global vertex id of each row.
    vertex_of_row: Vec<VertexId>,
    /// Row index of each global vertex id slot (`u32::MAX` if not owned here).
    row_of: Vec<u32>,
    cols: usize,
}

const NO_ROW: u32 = u32::MAX;

impl DistanceMatrix {
    /// Creates an empty matrix with `cols` columns (one per vertex id slot).
    pub fn new(cols: usize) -> Self {
        DistanceMatrix {
            rows: Vec::new(),
            logs: Vec::new(),
            vertex_of_row: Vec::new(),
            row_of: vec![NO_ROW; cols],
            cols,
        }
    }

    /// Number of owned rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (vertex id slots).
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// Whether this matrix owns a row for vertex `v`.
    // aa-lint: allow(AA07, the index is range-checked by the && short-circuit on the same line)
    pub fn has_row(&self, v: VertexId) -> bool {
        (v as usize) < self.row_of.len() && self.row_of[v as usize] != NO_ROW
    }

    /// Adds a row for vertex `v`, initialized to `INF` except `row[v] = 0`.
    /// A new row has propagated nothing yet: its log starts all-columns.
    ///
    /// # Panics
    /// Panics if `v` already has a row or lies outside the column range.
    // aa-lint: allow(AA07, documented-panic constructor — the asserts above every index state the contract and fire before any index can miss)
    pub fn add_row(&mut self, v: VertexId) {
        assert!((v as usize) < self.cols, "vertex {v} outside column range");
        assert!(!self.has_row(v), "vertex {v} already has a row");
        let mut row = vec![INF; self.cols];
        row[v as usize] = 0;
        // aa-lint: allow(AA05, row count is bounded by the u32 vertex-id space)
        self.row_of[v as usize] = self.rows.len() as u32;
        self.rows.push(row);
        self.logs.push(ColumnSet::all(self.cols));
        self.vertex_of_row.push(v);
    }

    /// Inserts a row with explicit contents (migration, checkpoint restore,
    /// recovery); its log starts all-columns.
    // aa-lint: allow(AA07, documented-panic constructor — same assert-first contract as add_row)
    pub fn insert_row(&mut self, v: VertexId, mut row: Vec<Weight>) {
        assert!((v as usize) < self.cols, "vertex {v} outside column range");
        assert!(!self.has_row(v), "vertex {v} already has a row");
        // A migrated row may predate recent column extensions.
        assert!(row.len() <= self.cols, "row longer than column count");
        row.resize(self.cols, INF);
        // aa-lint: allow(AA05, row count is bounded by the u32 vertex-id space)
        self.row_of[v as usize] = self.rows.len() as u32;
        self.rows.push(row);
        self.logs.push(ColumnSet::all(self.cols));
        self.vertex_of_row.push(v);
    }

    /// Removes and returns the row of vertex `v` (used for migration).
    // aa-lint: allow(AA07, migration path — the NO_ROW assert fires before the swap_remove indexes and row_of covers every id the owning engine hands in)
    pub fn take_row(&mut self, v: VertexId) -> Vec<Weight> {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        let idx = idx as usize;
        let row = self.rows.swap_remove(idx);
        self.logs.swap_remove(idx);
        self.vertex_of_row.swap_remove(idx);
        self.row_of[v as usize] = NO_ROW;
        if idx < self.rows.len() {
            let moved = self.vertex_of_row[idx];
            // aa-lint: allow(AA05, idx indexes the row table, bounded by the u32 vertex-id space)
            self.row_of[moved as usize] = idx as u32;
        }
        row
    }

    /// Grows the column space to `new_cols`, filling new entries with `INF`.
    /// No-op if `new_cols <= col_count()`. The logs grow with the rows and
    /// keep their members: a new column is `INF` in every row, so
    /// `row_u[c] <= row_v[c] + w` holds on it for every edge as it stands.
    pub fn extend_cols(&mut self, new_cols: usize) {
        if new_cols <= self.cols {
            return;
        }
        for row in &mut self.rows {
            row.resize(new_cols, INF);
        }
        let words = new_cols.div_ceil(WORD);
        for log in &mut self.logs {
            // A fresh zeroed buffer, not `words.resize`: reallocating the
            // small buffers right after the row reallocations above left
            // `churn_single`'s peak RSS 5 % higher.
            let mut grown = vec![0; words];
            grown.iter_mut().zip(&log.words).for_each(|(g, &w)| *g = w);
            log.words = grown;
        }
        self.row_of.resize(new_cols, NO_ROW);
        self.cols = new_cols;
    }

    /// The distance vector of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` has no row here.
    // aa-lint: allow(AA07, documented-panic accessor — callers hold the has_row/ownership invariant and the assert names the violation)
    pub fn row(&self, v: VertexId) -> &[Weight] {
        &self.rows[self.row_index(v)]
    }

    /// Mutable distance vector of vertex `v`. Raw access can write anything,
    /// so the row is marked all-columns.
    // aa-lint: allow(AA07, documented-panic accessor — same contract as row)
    pub fn row_mut(&mut self, v: VertexId) -> &mut [Weight] {
        let idx = self.row_index(v);
        self.logs[idx].mark_all();
        &mut self.rows[idx]
    }

    /// Row-table index of vertex `v`.
    // aa-lint: allow(AA07, documented-panic accessor — same contract as row)
    fn row_index(&self, v: VertexId) -> usize {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        idx as usize
    }

    /// The columns of `v`'s row lowered since its log was last cleared.
    #[cfg(test)]
    pub(crate) fn log(&self, v: VertexId) -> &ColumnSet {
        &self.logs[self.row_index(v)]
    }

    /// Marks every column of `v`'s row as possibly unpropagated.
    // aa-lint: allow(AA07, documented-panic accessor — same contract as row)
    pub fn mark_all_columns(&mut self, v: VertexId) {
        let idx = self.row_index(v);
        self.logs[idx].mark_all();
    }

    /// Raises the entries `cols` of `v`'s row to `INF` (deletion
    /// invalidation). The log stays as it is: with `v` on the right of
    /// `row_u[c] <= row_v[c] + w` a raised entry keeps the inequality, and
    /// with `v` on the left it is the neighbour's log that has to hold the
    /// column — [`Self::mark_columns`] on each local neighbour of `v`.
    pub fn raise_entries(&mut self, v: VertexId, cols: &[usize]) {
        let idx = self.row_index(v);
        if let Some(row) = self.rows.get_mut(idx) {
            for &c in cols {
                if let Some(d) = row.get_mut(c) {
                    *d = INF;
                }
            }
        }
    }

    /// Adds `cols` to `v`'s log: on these columns a local neighbour may sit
    /// above what `v`'s row offers it.
    pub fn mark_columns(&mut self, v: VertexId, cols: &ColumnSet) {
        let idx = self.row_index(v);
        if let Some(log) = self.logs.get_mut(idx) {
            log.merge(cols);
        }
    }

    /// `row_v[col] = min(row_v[col], value)`, logged like any lowering
    /// write. Returns whether the entry decreased.
    pub fn lower_entry(&mut self, v: VertexId, col: usize, value: Weight) -> bool {
        let idx = self.row_index(v);
        let entry = self.rows.get_mut(idx).and_then(|row| row.get_mut(col));
        let Some(d) = entry.filter(|d| value < **d) else {
            return false;
        };
        *d = value;
        if let Some(log) = self.logs.get_mut(idx) {
            log.insert(col);
        }
        true
    }

    /// Marks every column of every row as possibly unpropagated.
    pub fn mark_all_rows(&mut self) {
        for log in &mut self.logs {
            log.mark_all();
        }
    }

    /// Empties `v`'s log: the row has been propagated to its local
    /// neighbours on every logged column.
    // aa-lint: allow(AA07, documented-panic accessor — same contract as row)
    pub fn clear_log(&mut self, v: VertexId) {
        let idx = self.row_index(v);
        self.logs[idx].clear();
    }

    /// Empties every log. Sound only when the propagation invariant holds
    /// on all columns, e.g. right after the rows were set to the exact APSP
    /// of the local sub-graph.
    pub fn clear_logs(&mut self) {
        for log in &mut self.logs {
            log.clear();
        }
    }

    /// Owned vertices in row order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertex_of_row
    }

    /// The frontier: owned vertices whose log is non-empty, in row order.
    pub fn frontier(&self) -> impl Iterator<Item = VertexId> + '_ {
        let logged = self.logs.iter().zip(&self.vertex_of_row);
        logged.filter(|(log, _)| !log.is_empty()).map(|(_, &v)| v)
    }

    /// `dst_row[t] = min(dst_row[t], src_row[t] + offset)` for every column,
    /// where both rows live in this matrix. Returns whether anything changed;
    /// a self-relax is a no-op.
    pub fn relax_rows(&mut self, dst: VertexId, src: VertexId, offset: Weight) -> bool {
        self.relax_rows_on(dst, src, offset, false)
    }

    /// [`Self::relax_rows`] restricted to the columns in `src`'s log — all
    /// that can lower `dst` when the propagation invariant holds for the
    /// edge between them.
    pub fn relax_rows_logged(&mut self, dst: VertexId, src: VertexId, offset: Weight) -> bool {
        self.relax_rows_on(dst, src, offset, true)
    }

    fn relax_rows_on(
        &mut self,
        dst: VertexId,
        src: VertexId,
        offset: Weight,
        logged: bool,
    ) -> bool {
        let (di, si) = (self.row_index(dst), self.row_index(src));
        if di == si {
            return false;
        }
        let (dst_row, src_row) = pair_mut(&mut self.rows, di, si);
        let (dst_log, src_log) = pair_mut(&mut self.logs, di, si);
        let cols = if logged { src_log } else { &ColumnSet::EVERY };
        relax_on(dst_row, dst_log, src_row, offset, cols)
    }

    /// Relaxes every column of the row of `dst` against an external row.
    pub fn relax_with_external(
        &mut self,
        dst: VertexId,
        src_row: &[Weight],
        offset: Weight,
    ) -> bool {
        self.relax_with_external_on(dst, src_row, offset, &ColumnSet::EVERY)
    }

    /// Relaxes the columns `cols` of the row of `dst` against an external
    /// row.
    // aa-lint: allow(AA07, documented-panic accessor — same contract as row)
    pub fn relax_with_external_on(
        &mut self,
        dst: VertexId,
        src_row: &[Weight],
        offset: Weight,
        cols: &ColumnSet,
    ) -> bool {
        let idx = self.row_index(dst);
        relax_on(
            &mut self.rows[idx],
            &mut self.logs[idx],
            src_row,
            offset,
            cols,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_row_basics() {
        let mut dst = vec![10, INF, 3, INF];
        let src = vec![1, 2, INF, INF];
        assert!(relax_row(&mut dst, &src, 5));
        assert_eq!(dst, vec![6, 7, 3, INF]);
        // Second pass changes nothing.
        assert!(!relax_row(&mut dst, &src, 5));
    }

    #[test]
    fn relax_row_saturates_at_inf() {
        let mut dst = vec![INF];
        let src = vec![INF];
        assert!(!relax_row(&mut dst, &src, 100), "INF + x must stay INF");
        assert_eq!(dst, vec![INF]);
        let mut dst2 = vec![INF];
        // Saturation caps the candidate at INF, which is never an improvement.
        assert!(!relax_row(&mut dst2, &[u32::MAX - 1], 100));
        assert_eq!(dst2, vec![INF]);
    }

    /// A row of `n` pseudo-random small distances with some `INF`s.
    fn noise(n: usize, salt: u32) -> Vec<Weight> {
        (0..n as u32)
            .map(|i| match (i.wrapping_mul(2_654_435_761) ^ salt) >> 7 {
                h if h % 5 == 0 => INF,
                h => h % 23,
            })
            .collect()
    }

    #[test]
    fn relax_on_any_column_set_equals_relax_row_on_those_columns() {
        // 150 columns: two full words and a ragged third.
        let (n, offset) = (150, 3);
        let src = noise(n, 1);
        for (salt, stride) in [(2, 1), (3, 2), (4, 7), (5, 40)] {
            let before = noise(n, salt);
            let mut cols = ColumnSet::empty(n);
            (0..n).step_by(stride).for_each(|c| cols.insert(c));
            // Stride 1 and 2 are dense sets, 7 and 40 sparse ones.
            assert_eq!(cols.is_dense(n), stride <= 2);

            let mut want = before.clone();
            relax_row(&mut want, &src, offset);
            for c in (0..n).filter(|&c| !cols.contains(c) && !cols.is_dense(n)) {
                want[c] = before[c]; // a sparse walk leaves the others alone
            }
            let mut got = before.clone();
            let mut log = ColumnSet::empty(n);
            let changed = relax_on(&mut got, &mut log, &src, offset, &cols);
            assert_eq!(got, want, "stride {stride}");
            assert_eq!(changed, got != before);
            for c in 0..n {
                assert_eq!(log.contains(c), got[c] < before[c], "log bit {c}");
            }
        }
    }

    #[test]
    fn finite_of_lists_exactly_the_finite_columns() {
        let row = noise(150, 9);
        let cols = ColumnSet::finite_of(&row);
        for (c, &d) in row.iter().enumerate() {
            assert_eq!(cols.contains(c), d != INF);
        }
        assert!(!cols.contains(150) && !cols.contains(191));
    }

    #[test]
    fn logs_follow_the_writes() {
        let mut m = DistanceMatrix::new(8);
        m.add_row(0);
        m.add_row(1);
        assert!(m.log(0).contains(7), "a new row has propagated nothing");
        m.clear_logs();
        assert!(m.log(0).is_empty() && m.log(1).is_empty());
        // A relaxation logs what it lowered, in the lowered row only.
        let mut ext = vec![INF; 8];
        ext[2] = 4;
        assert!(m.relax_with_external(1, &ext, 0));
        assert!(m.log(1).contains(2) && !m.log(1).contains(1));
        assert!(m.log(0).is_empty());
        // Row 0 learns column 2 from row 1 and nothing else: column 1,
        // which row 1 could also improve, is not in row 1's log.
        assert!(m.relax_rows_logged(0, 1, 1));
        assert_eq!(m.row(0)[..3], [0, INF, 5]);
        assert!(m.log(0).contains(2) && !m.log(0).contains(1));
        m.clear_log(1);
        m.row_mut(1)[0] = 1; // raw access: anything may have changed
        assert!(m.log(1).contains(0) && m.log(1).contains(7));
        // The log travels with its row through a swap_remove.
        m.clear_log(0);
        m.add_row(2);
        m.take_row(0);
        assert!(m.log(2).contains(0) && m.log(1).contains(7));
    }

    #[test]
    fn add_row_initializes_identity() {
        let mut m = DistanceMatrix::new(4);
        m.add_row(2);
        assert!(m.has_row(2));
        assert_eq!(m.row(2), &[INF, INF, 0, INF]);
        assert_eq!(m.row_count(), 1);
        assert_eq!(m.vertices(), &[2]);
    }

    #[test]
    #[should_panic(expected = "already has a row")]
    fn duplicate_row_rejected() {
        let mut m = DistanceMatrix::new(2);
        m.add_row(0);
        m.add_row(0);
    }

    #[test]
    fn take_row_fixes_swapped_index() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        m.add_row(1);
        m.add_row(2);
        let r = m.take_row(0); // row 2 swaps into slot 0
        assert_eq!(r[0], 0);
        assert!(!m.has_row(0));
        assert_eq!(m.row(2)[2], 0, "swapped row still reachable");
        assert_eq!(m.row(1)[1], 0);
        assert_eq!(m.row_count(), 2);
    }

    #[test]
    fn migration_roundtrip() {
        let mut a = DistanceMatrix::new(3);
        a.add_row(1);
        a.row_mut(1)[0] = 7;
        let row = a.take_row(1);
        let mut b = DistanceMatrix::new(3);
        b.insert_row(1, row);
        assert_eq!(b.row(1), &[7, 0, INF]);
    }

    #[test]
    fn insert_row_pads_short_rows() {
        let mut m = DistanceMatrix::new(5);
        m.insert_row(0, vec![0, 1, 2]);
        assert_eq!(m.row(0), &[0, 1, 2, INF, INF]);
    }

    #[test]
    fn extend_cols_pads_with_inf() {
        let mut m = DistanceMatrix::new(2);
        m.add_row(1);
        m.extend_cols(4);
        assert_eq!(m.col_count(), 4);
        assert_eq!(m.row(1), &[INF, 0, INF, INF]);
        m.add_row(3);
        assert_eq!(m.row(3)[3], 0);
        m.extend_cols(3); // shrink request is a no-op
        assert_eq!(m.col_count(), 4);
    }

    #[test]
    fn relax_rows_internal() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        m.add_row(1);
        m.row_mut(1)[2] = 4;
        assert!(m.relax_rows(0, 1, 1)); // d(0,*) <= 1 + d(1,*)
        assert_eq!(m.row(0), &[0, 1, 5]);
        assert!(!m.relax_rows(0, 0, 1), "self relax is a no-op");
        // Reverse direction with the dst stored after src.
        assert!(m.relax_rows(1, 0, 1));
        assert_eq!(m.row(1)[0], 1);
    }

    #[test]
    fn relax_with_external_row() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        let ext = vec![2, 0, 9];
        assert!(m.relax_with_external(0, &ext, 3));
        assert_eq!(m.row(0), &[0, 3, 12]);
    }
}
