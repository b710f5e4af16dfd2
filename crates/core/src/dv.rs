//! Distance vectors and the distance matrix of one virtual processor.
//!
//! Every processor stores one **distance vector** (DV) per vertex it owns, in
//! one [`DistanceMatrix`]: the current shortest-path estimates from that
//! vertex to *every* vertex id slot in the graph. It keeps no copy of anyone
//! else's: a boundary row it receives is relaxed into its local neighbours on
//! arrival and dropped, as a distance-vector router does. Estimates start at
//! `INF` and only ever decrease (except during deletion invalidation), which
//! is the anytime property's backbone. Columns grow when vertices are added,
//! and whole rows migrate between processors during repartitioning.
//!
//! Rows are as narrow as the distances they hold: an engine's matrices start
//! at 8 bits, with `u8::MAX` as `INF`, and widen one step at a time — to 16
//! bits, then to `u32`, as `Weight` is everywhere outside this module. No
//! write stores a finite distance at or past its width's `INF`: a relaxation
//! whose candidate saturates from a finite source onto an `INF` entry, a
//! lowering write, a row converted to the width (`insert_row`) or an offset
//! the width cannot hold leaves the entry `INF` — an upper bound, so every
//! estimate stays sound — and sets the matrix's **overflow flag**. (Onto a
//! finite entry nothing is lost: it lies below every distance the width
//! cannot hold.) The engine reads the flags after every call that writes
//! rows and, if any rank raised one, widens every rank
//! ([`DistanceMatrix::widen`]) and marks every row all-columns in both logs,
//! so recombination re-derives what was withheld. Rows never narrow again.
//! At `u32` nothing is guarded: a candidate that saturates at `u32::MAX` is
//! `INF`, as it always was.
//!
//! Column growth is the papers' amortized argument with ratio `1 + 1/16` in
//! place of 2 (`grow`): a row of `n` columns carries fewer than `n/16 + 64`
//! spare ones and is copied once per at least `n/16` arrivals — at most 16
//! entries per row per arrival, where doubling copies one but leaves a row
//! up to twice as wide as it is.
//!
//! Beside each row a matrix keeps a **change log**: one bit per column, set
//! by whichever write lowers that entry and cleared when the row has been
//! propagated to its local neighbours. Recombination relaxes a neighbour only
//! on the logged columns of the row that moved — the receive-side half of the
//! papers' "send only the updated values of the boundary DVs". That is exact
//! because of the *propagation invariant* `ProcState` maintains: **for every
//! edge `(v, u, w)` between owned vertices and every column `c` outside
//! `v`'s log, `row_u[c] <= row_v[c] + w`.** Whatever breaks the invariant
//! without going through a logging write (raised entries, raw writes, new
//! adjacency, a row installed from elsewhere) marks the row all-columns
//! instead. (Over a cut edge the same inequality holds against the row as
//! its owner last sent it, which is what `ProcState::sent_to` vouches for.)
//!
//! The rows whose log is non-empty are the **frontier**: exactly the rows
//! that still owe their local neighbours a relaxation. The frontier is the
//! only worklist — `ProcState::propagate` drains it and nobody hands it
//! seeds — so a row cannot be marked and then forgotten.
//!
//! A second set per row, the **unsent log**, holds the columns lowered since
//! the row's last send — the send-side half of the same
//! sentence: a delta is a walk over its bits, and no copy of the row as sent
//! is kept to diff against. The same lowering writes set it, and nothing
//! else does: the marks that put a row back on the frontier because its
//! *adjacency* changed say nothing about what the receivers of the row have
//! been relaxed against, and must not reach it. A raw write marks it
//! all-columns, which makes the next send a full row.
//!
//! Both logs are empty, for every row of every rank, after every update that
//! ends exact (`AnytimeEngine::end_update`): an insertion that lands on a
//! settled engine — a batch of edges or lighter edges, relaxed one at a
//! time, or one vertex placed by RoundRobin-PS or CutEdge-PS — and every
//! deletion or heavier edge. Each leaves every row the exact APSP, which
//! obeys the invariant over every edge, local or cut, against each row as
//! it stands, and owes nothing. So its writes log nothing: the candidate
//! relax, the arrival relax and each chain link go through the one kernel
//! with logging off (`relax_on::<_, false>`), and the repair writes no log
//! bit either. A matrix's **marked** flag says whether any log may hold a
//! column since the last clear; while it is down, clearing the logs and
//! asking for the frontier cost nothing. It goes up where recombination or
//! an unsettled update logs, so the first exact update after convergence
//! by recombination clears every row once, and the ones after it clear
//! nothing. A write the width withholds is not logged either: the widening
//! that follows marks every row whole.

#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use aa_graph::search::{Search, Settle};
use aa_graph::{VertexId, Weight, INF};

/// Relaxes `dst[t] = min(dst[t], src[t] + offset)` for every column.
/// Returns whether any entry decreased. `INF` saturates. This is the dense
/// kernel recombination runs, without the change-log bookkeeping.
#[inline]
pub fn relax_row(dst: &mut [Weight], src: &[Weight], offset: Weight) -> bool {
    relax_chunks(dst, src, offset, &mut false, |_, _| {})
}

/// Columns per change-log word.
const WORD: usize = u64::BITS as usize;

/// One distance as a row stores it: 8, 16 or 32 bits, the type's `MAX` as
/// `INF` (see the module docs).
trait Cell: Copy + Ord + Into<Weight> + 'static {
    const INF: Self;
    /// Bits per cell.
    const BITS: u32;
    /// Whether a finite distance can be past what the width holds: every
    /// width but `u32`'s.
    const GUARDED: bool = Self::BITS < Weight::BITS;
    /// `d` at this width; a `d` past what it holds is `INF`.
    fn of(d: Weight) -> Self;
    /// The cell as a `Weight`.
    fn weight(self) -> Weight;
    /// `self + offset`, saturating at `INF`.
    fn plus(self, offset: Self) -> Self;
    /// `self + 1`, wrapping: `INF` to 0.
    fn succ(self) -> Self;
    /// The row's cells, if it is stored at this width.
    fn cells(row: Row<'_>) -> Option<&[Self]>;
    /// The row's buffer, if it is stored at this width; else the row.
    fn buffer(row: RowBuf) -> Result<Vec<Self>, RowBuf>;
}

macro_rules! cell {
    ($t:ty, $width:ident) => {
        impl Cell for $t {
            const INF: Self = <$t>::MAX;
            const BITS: u32 = <$t>::BITS;
            fn of(d: Weight) -> Self {
                <$t>::try_from(d).unwrap_or(Self::INF)
            }
            fn weight(self) -> Weight {
                match self {
                    Self::INF => INF,
                    d => Weight::from(d),
                }
            }
            fn plus(self, offset: Self) -> Self {
                self.saturating_add(offset)
            }
            fn succ(self) -> Self {
                self.wrapping_add(1)
            }
            fn cells(row: Row<'_>) -> Option<&[Self]> {
                match row.0 {
                    Width::$width(cells) => Some(cells),
                    _ => None,
                }
            }
            fn buffer(row: RowBuf) -> Result<Vec<Self>, RowBuf> {
                match row.0 {
                    Width::$width(cells) => Ok(cells),
                    other => Err(RowBuf(other)),
                }
            }
        }
    };
}
cell!(u8, U8);
cell!(u16, U16);
cell!(u32, U32);

/// Whether storing the distance `d` as `cell` withholds it: `d` is finite
/// and the width has no room for it.
#[inline(always)]
fn withheld<C: Cell>(d: Weight, cell: C) -> bool {
    C::GUARDED & (d != INF) & (cell == C::INF)
}

/// Whether relaxing entry `d` through the cell `s` to `cand = s + offset`
/// withholds a distance: `cand` saturated from a finite `s` at a narrow
/// `INF`, onto an `INF` entry.
#[inline(always)]
fn spills<C: Cell>(s: C, cand: C, d: C) -> bool {
    C::GUARDED & (s != C::INF) & (cand == C::INF) & (d == C::INF)
}

/// Whether a finite entry of `src` plus `offset` is past what the width
/// holds: the only way a relaxation through `src` can withhold a distance.
/// One pass that vectorizes, `INF + 1` wrapping to 0.
fn saturates<C: Cell>(src: &[C], offset: C) -> bool {
    let top = src.iter().fold(C::of(0), |top, &s| top.max(s.succ()));
    let (top, offset, inf): (Weight, Weight, Weight) = (top.into(), offset.into(), C::INF.into());
    C::GUARDED && top > 0 && top + offset > inf
}

/// One row, or the whole row table, at one of the three widths.
#[derive(Debug, Clone, Copy)]
enum Width<A, B, C> {
    U8(A),
    U16(B),
    U32(C),
}

/// Runs `$body` with `$bind` bound to what `$value` holds at its width: the
/// body compiles once per width.
macro_rules! by_width {
    ($value:expr, $bind:ident => $body:expr) => {
        match $value {
            Width::U8($bind) => $body,
            Width::U16($bind) => $body,
            Width::U32($bind) => $body,
        }
    };
}

/// [`by_width!`] whose result keeps the width of `$value`.
macro_rules! map_width {
    ($value:expr, $bind:ident => $body:expr) => {
        match $value {
            Width::U8($bind) => Width::U8($body),
            Width::U16($bind) => Width::U16($body),
            Width::U32($bind) => Width::U32($body),
        }
    };
}

/// The row at `C`'s width: moved if it is stored at it already. A finite
/// entry the width cannot hold is stored as `INF` and sets `lost`.
fn owned<C: Cell>(row: RowBuf, lost: &mut bool) -> Vec<C> {
    fn convert<S: Cell, C: Cell>(cells: &[S], lost: &mut bool) -> Vec<C> {
        let cell = |&d: &S| {
            let cell = C::of(d.weight());
            *lost |= withheld(d.weight(), cell);
            cell
        };
        cells.iter().map(cell).collect()
    }
    C::buffer(row).unwrap_or_else(|row| by_width!(row.0, cells => convert(&cells, lost)))
}

/// One distance row, read as `Weight`s whatever width it is stored at.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a>(Width<&'a [u8], &'a [u16], &'a [Weight]>);

impl<'a> Row<'a> {
    /// Number of columns.
    pub fn len(self) -> usize {
        by_width!(self.0, cells => cells.len())
    }

    /// Whether the row has no column.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The entry in column `col`, if there is one.
    pub fn get(self, col: usize) -> Option<Weight> {
        by_width!(self.0, cells => cells.get(col).map(|&d| d.weight()))
    }

    /// The entries in column order. Folding over them (`fold`, `for_each`,
    /// `try_for_each`) runs one loop over the stored width.
    pub fn iter(self) -> impl Iterator<Item = Weight> + 'a {
        let (bytes, narrow, wide) = match self.0 {
            Width::U8(cells) => (cells, &[][..], &[][..]),
            Width::U16(cells) => (&[][..], cells, &[][..]),
            Width::U32(cells) => (&[][..], &[][..], cells),
        };
        let bytes = bytes.iter().map(|&d| d.weight());
        let narrow = narrow.iter().map(|&d| d.weight());
        bytes.chain(narrow).chain(wide.iter().copied())
    }

    /// The sum of the row's finite entries outside column `skip`, and how
    /// many of them are above 0: a vertex's distance sum and how many
    /// vertices it reaches. One loop at the stored width; 8-bit rows sum
    /// each 256 cells in 16-bit lanes first, which cannot overflow: 256 ·
    /// 254 < 2^16.
    pub fn reach(self, skip: usize) -> (u64, u32) {
        fn reach<C: Cell>(cells: &[C]) -> (u64, u32) {
            cells.iter().fold((0, 0), |(sum, n), &d| {
                let counted = d != C::INF && d != C::of(0);
                let d: Weight = if counted { d.into() } else { 0 };
                (sum + u64::from(d), n + u32::from(counted))
            })
        }
        fn reach_bytes(cells: &[u8]) -> (u64, u32) {
            cells.chunks(256).fold((0, 0), |(sum, n), chunk| {
                let (s, c) = chunk.iter().fold((0u16, 0u16), |(s, c), &d| {
                    let finite = u16::from(d != u8::INF);
                    (s + finite * u16::from(d), c + finite * u16::from(d != 0))
                });
                (sum + u64::from(s), n + u32::from(c))
            })
        }
        let (sum, n) = match self.0 {
            Width::U8(cells) => reach_bytes(cells),
            Width::U16(cells) => reach(cells),
            Width::U32(cells) => reach(cells),
        };
        match self.get(skip) {
            Some(d) if d != INF && d > 0 => (sum - u64::from(d), n - 1),
            _ => (sum, n),
        }
    }

    /// The columns `t` at which the entry is finite and at least `via[t] +
    /// offset`, with `via[t]` finite, each with its entry, ascending. One
    /// loop at the stored width when both rows share it, as an engine's
    /// rows do.
    pub fn at_least(self, via: Row<'_>, offset: Weight) -> Vec<(u32, Weight)> {
        fn scan<C: Cell>(row: &[C], via: &[C], offset: C) -> Vec<(u32, Weight)> {
            let columns = row.iter().zip(via).enumerate();
            let hits = columns.filter(|&(_, (&d, &v))| {
                let through = v.plus(offset);
                d != C::INF && through != C::INF && d >= through
            });
            let hit = |(t, (&d, _)): (usize, (&C, &C))| Some((u32::try_from(t).ok()?, d.weight()));
            hits.filter_map(hit).collect()
        }
        match (self.0, via.0) {
            (Width::U8(row), Width::U8(via)) => scan(row, via, u8::of(offset)),
            (Width::U16(row), Width::U16(via)) => scan(row, via, u16::of(offset)),
            (Width::U32(row), Width::U32(via)) => scan(row, via, offset),
            _ => scan(&self.to_vec(), &via.to_vec(), offset),
        }
    }

    /// The entries as `Weight`s.
    pub fn to_vec(self) -> Vec<Weight> {
        self.iter().collect()
    }

    /// An owned copy at the stored width.
    pub fn to_buf(self) -> RowBuf {
        RowBuf(map_width!(self.0, cells => cells.to_vec()))
    }
}

impl Default for Row<'_> {
    fn default() -> Self {
        Row(Width::U32(&[]))
    }
}

/// One distance row owned at the width it was stored at: a migrated row, a
/// broadcast row, a full row on the wire.
#[derive(Debug, Clone)]
pub struct RowBuf(Width<Vec<u8>, Vec<u16>, Vec<Weight>>);

impl RowBuf {
    /// The row as a [`Row`].
    pub fn as_row(&self) -> Row<'_> {
        Row(map_width!(&self.0, cells => &cells[..]))
    }
}

impl Default for RowBuf {
    fn default() -> Self {
        RowBuf(Width::U32(Vec::new()))
    }
}

impl From<Vec<Weight>> for RowBuf {
    fn from(row: Vec<Weight>) -> Self {
        RowBuf(Width::U32(row))
    }
}

/// One flag byte (0 or 1) per column of a word, as the word's bits: eight
/// lanes packed into eight bits by one multiply (byte `i` of the lane lands
/// on bit `56 + i` of the product, and no two partial products share a bit).
fn pack(flags: &[[u8; 8]; WORD / 8]) -> u64 {
    flags.iter().rev().fold(0u64, |bits, &lane| {
        bits << 8 | u64::from_le_bytes(lane).wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

/// The dense kernel: `dst[c] = min(dst[c], src[c] + offset)` over every
/// column, one change-log word (64 columns) at a time. `lowered(w, bits)` is
/// told which columns of word `w` decreased, for the chunks where any did;
/// a candidate withheld onto an `INF` entry ([`spills`]) sets `lost`.
/// Returns whether any entry decreased.
#[inline]
fn relax_chunks<C: Cell>(
    dst: &mut [C],
    src: &[C],
    offset: C,
    lost: &mut bool,
    mut lowered: impl FnMut(usize, u64),
) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    // Where no source entry comes within `offset` of `INF`, nothing can be
    // withheld, and the sweep below runs unguarded.
    if C::GUARDED && saturates(src, offset) {
        *lost |= dst
            .iter()
            .zip(src)
            .any(|(&d, &s)| spills(s, s.plus(offset), d));
    }
    let mut changed = false;
    for (w, (d64, s64)) in dst.chunks_mut(WORD).zip(src.chunks(WORD)).enumerate() {
        // Nine sweeps in ten lower nothing: probe read-only first, and write
        // only a chunk that has something to lower.
        let hit = d64
            .iter()
            .zip(s64)
            .fold(false, |hit, (&d, &s)| hit | (s.plus(offset) < d));
        if !hit {
            continue;
        }
        // No branch on the comparison, so this loop vectorizes like the
        // probe: a flag byte per lane, packed into a word afterwards.
        let mut flags = [[0u8; 8]; WORD / 8];
        let lanes = flags.as_flattened_mut().iter_mut();
        for ((d, &s), flag) in d64.iter_mut().zip(s64).zip(lanes) {
            let cand = s.plus(offset);
            *flag = u8::from(cand < *d);
            *d = cand.min(*d);
        }
        lowered(w, pack(&flags));
        changed = true;
    }
    changed
}

/// A set of columns of one distance row: one bit per column, or "all of
/// them". A bitset rather than an index list because its size is fixed at
/// `cols / 8` bytes per row however many entries move (an index `Vec` per
/// row cost +12 MB at n = 2,048), and because merging is a word-wise OR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSet {
    /// Bit `c % 64` of word `c / 64` is column `c`. Bits at or beyond the
    /// column count are never set.
    words: Vec<u64>,
    /// Every column is a member, whatever `words` says.
    all: bool,
    /// `false` only while every word is zero: an empty set — most change
    /// logs, between steps — says so without a walk over its words.
    marked: bool,
    /// Whether relaxing on the set sweeps every column, decided once where
    /// a fixed set is built ([`Self::lowered`]); `None` for a set that
    /// changes, a change log above all, which is counted at each relaxation.
    dense: Option<bool>,
}

impl ColumnSet {
    /// The empty set over `cols` columns.
    pub fn empty(cols: usize) -> Self {
        ColumnSet {
            words: vec![0; cols.div_ceil(WORD)],
            all: false,
            marked: false,
            dense: None,
        }
    }

    /// Every column of a row of any width: relaxing on it is a dense sweep.
    pub const EVERY: ColumnSet = ColumnSet {
        words: Vec::new(),
        all: true,
        marked: false,
        dense: None,
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
    pub fn finite_of(row: Row<'_>) -> Self {
        fn finite<C: Cell>(row: &[C]) -> Vec<u64> {
            let word = |chunk: &[C]| {
                let mut flags = [[0u8; 8]; WORD / 8];
                let lanes = flags.as_flattened_mut().iter_mut().zip(chunk);
                lanes.for_each(|(flag, &d)| *flag = u8::from(d != C::INF));
                pack(&flags)
            };
            row.chunks(WORD).map(word).collect()
        }
        let words = by_width!(row.0, cells => finite(cells));
        ColumnSet {
            words,
            all: false,
            marked: true,
            dense: None,
        }
    }

    /// The columns `t` where `via[t] + offset < row[t]`, `via[t]` finite,
    /// compared as `Weight`s whatever the width — a sum past the width's
    /// `INF` still undercuts an `INF` entry. On exact rows, with `row` and
    /// `via` the rows of `a` and of `b` and `offset` an edge `(a, b)`, these
    /// are the columns where `d(a,t)` falls through `b`. Whether relaxing on
    /// it sweeps every column is decided here, once: more than a quarter of
    /// them.
    pub fn lowered(row: Row<'_>, via: Row<'_>, offset: Weight) -> Self {
        fn scan<C: Cell>(row: &[C], via: &[C], offset: Weight) -> Vec<u64> {
            let word = |(row, via): (&[C], &[C])| {
                let mut flags = [[0u8; 8]; WORD / 8];
                let lanes = flags.as_flattened_mut().iter_mut().zip(row.iter().zip(via));
                lanes.for_each(|(flag, (&d, &s))| {
                    let (raw_d, raw_s): (Weight, Weight) = (d.into(), s.into());
                    let through = u64::from(raw_s) + u64::from(offset);
                    let d = if d == C::INF { u64::MAX } else { raw_d.into() };
                    *flag = u8::from((s != C::INF) & (through < d));
                });
                pack(&flags)
            };
            row.chunks(WORD).zip(via.chunks(WORD)).map(word).collect()
        }
        let words = match (row.0, via.0) {
            (Width::U8(row), Width::U8(via)) => scan(row, via, offset),
            (Width::U16(row), Width::U16(via)) => scan(row, via, offset),
            (Width::U32(row), Width::U32(via)) => scan(row, via, offset),
            _ => scan(&row.to_vec(), &via.to_vec(), offset),
        };
        let mut set = ColumnSet {
            words,
            all: false,
            marked: true,
            dense: None,
        };
        set.dense = Some(set.is_dense(row.len()));
        set
    }

    /// Adds column `col`; columns beyond the set's width are ignored.
    pub fn insert(&mut self, col: usize) {
        self.insert_word(col / WORD, 1 << (col % WORD));
    }

    /// Adds the columns `bits` names in word `wi`; a word beyond the set's
    /// width is ignored.
    fn insert_word(&mut self, wi: usize, bits: u64) {
        if let Some(word) = self.words.get_mut(wi) {
            *word |= bits;
            self.marked = true;
        }
    }

    /// Whether `col` is a member.
    pub(crate) fn contains(&self, col: usize) -> bool {
        self.all
            || self
                .words
                .get(col / WORD)
                .is_some_and(|word| word >> (col % WORD) & 1 == 1)
    }

    /// Whether no column is a member.
    pub(crate) fn is_empty(&self) -> bool {
        !self.all && (!self.marked || self.words.iter().all(|&word| word == 0))
    }

    fn mark_all(&mut self) {
        self.all = true;
    }

    /// Empties the set; an unmarked set's words are zero already, so
    /// emptying every row of a matrix costs what its marked rows hold.
    fn clear(&mut self) {
        if self.marked {
            self.words.fill(0);
        }
        (self.all, self.marked) = (false, false);
    }

    /// How many single columns are logged (whatever `all` says).
    pub(crate) fn logged(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether walking the members one by one would cost more than a dense
    /// sweep: all columns, or more than a quarter of them — counted, unless
    /// the set was built fixed and decided then.
    fn is_dense(&self, cols: usize) -> bool {
        self.all || self.dense.unwrap_or_else(|| 4 * self.logged() > cols)
    }

    /// Bytes a set of single columns takes on the wire over `cols` columns:
    /// a list of its members (a 4 B count, 4 B each) or a bitset, whichever
    /// is shorter.
    pub(crate) fn wire_bytes(&self, cols: usize) -> usize {
        (4 + 4 * self.logged()).min(cols.div_ceil(8))
    }
}

/// The entries of one row that its holders are missing, as one buffer: the
/// unsent columns as a bitset, and the row's values on them in ascending
/// column order. That is `cols / 8 + 4 · len` bytes where `(column, value)`
/// pairs take `8 · len`, and it is built once per row however many ranks it
/// goes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowDelta {
    /// The columns, never "all of them".
    cols: ColumnSet,
    /// One value per member of `cols`, in column order.
    values: Vec<Weight>,
}

impl RowDelta {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the delta carries no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bytes the buffer holds in memory: the bitset and the values.
    pub(crate) fn buffer_bytes(&self) -> usize {
        8 * self.cols.words.len() + 4 * self.values.len()
    }

    /// The entries as wire pairs, in ascending column order.
    #[cfg(test)]
    pub(crate) fn pairs(&self) -> Vec<(u32, Weight)> {
        let words = self.cols.words.iter().enumerate();
        let bits = words.flat_map(|(wi, &w)| {
            (0..WORD)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| wi * WORD + b)
        });
        bits.map(|c| c as u32)
            .zip(self.values.iter().copied())
            .collect()
    }

    /// The delta carrying `entries`, given in any column order.
    #[cfg(test)]
    pub(crate) fn from_pairs(entries: &[(u32, Weight)]) -> Self {
        let width = entries.iter().map(|&(c, _)| c as usize + 1).max();
        let mut cols = ColumnSet::empty(width.unwrap_or(0));
        entries.iter().for_each(|&(c, _)| cols.insert(c as usize));
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted.len(), cols.logged(), "one value per column");
        let values = sorted.into_iter().map(|(_, d)| d).collect();
        RowDelta { cols, values }
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
/// recording each lowered column in `log` and in `unsent` under `LOG`, and
/// a withheld candidate in `lost` either way. Returns whether any entry
/// decreased. Dense sets take a whole-row sweep, sparse ones a walk over the
/// set bits; both visit a superset of the columns that can change, so the
/// rows they leave are identical. A write that ends exact passes `LOG =
/// false`: it owes nothing, so a log bit would only be cleared again.
#[expect(
    clippy::indexing_slicing,
    reason = "the sparse walk indexes dst/src/log/unsent at columns taken from cols, whose bits never reach the column count — every set is built over the matrix width and resized with it; the dense sweep is handed word indices below dst.len().div_ceil(64), the length of both logs"
)]
fn relax_on<C: Cell, const LOG: bool>(
    dst: &mut [C],
    (log, unsent): (&mut ColumnSet, &mut ColumnSet),
    src: &[C],
    offset: C,
    cols: &ColumnSet,
    lost: &mut bool,
) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(log.words.len(), dst.len().div_ceil(WORD));
    debug_assert_eq!(unsent.words.len(), log.words.len());
    #[cfg(test)]
    if reference::is_dense() {
        let changed = relax_chunks(dst, src, offset, lost, |w, bits| {
            if LOG {
                unsent.words[w] |= bits;
            }
        });
        if changed && LOG {
            log.mark_all();
            unsent.marked = true;
        }
        return changed;
    }
    if cols.is_dense(dst.len()) {
        return relax_chunks(dst, src, offset, lost, |w, bits| {
            if LOG {
                log.words[w] |= bits;
                unsent.words[w] |= bits;
                (log.marked, unsent.marked) = (true, true);
            }
        });
    }
    let (mut changed, mut spilt) = (false, false);
    for (wi, &members) in cols.words.iter().enumerate() {
        let mut rest = members;
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let c = wi * WORD + bit;
            let cand = src[c].plus(offset);
            if cand < dst[c] {
                dst[c] = cand;
                if LOG {
                    log.words[wi] |= 1 << bit;
                    unsent.words[wi] |= 1 << bit;
                    (log.marked, unsent.marked) = (true, true);
                }
                changed = true;
            } else if cand == C::INF {
                // Rare: only a candidate at `INF` can be withheld, and a
                // logged column was lowered to a finite value.
                spilt |= spills(src[c], cand, dst[c]);
            }
        }
    }
    *lost |= spilt;
    changed
}

/// [`relax_on`] through a row stored at `dst`'s width, as every row a
/// matrix is handed is: all ranks widen together, and a row keeps its width
/// when it is broadcast, migrated or sent whole. An offset the width cannot
/// hold is `INF`, which withholds every candidate from a finite source.
fn relax_through<C: Cell, const LOG: bool>(
    dst: &mut [C],
    logs: (&mut ColumnSet, &mut ColumnSet),
    src: Row<'_>,
    offset: Weight,
    cols: &ColumnSet,
    lost: &mut bool,
) -> bool {
    let src = C::cells(src);
    debug_assert!(src.is_some(), "a row of another width");
    src.is_some_and(|src| relax_on::<C, LOG>(dst, logs, src, C::of(offset), cols, lost))
}

/// `row[col] = min(row[col], d)`; whether it decreased. Under `GUARD`, a
/// `d` withheld onto an `INF` entry sets `lost`.
#[inline(always)]
fn lower<C: Cell, const GUARD: bool>(
    row: &mut [C],
    col: usize,
    d: Weight,
    lost: &mut bool,
) -> bool {
    let cell = C::of(d);
    let Some(label) = row.get_mut(col) else {
        return false;
    };
    if cell < *label {
        *label = cell;
        return true;
    }
    // Rare: a candidate at the width's `INF`.
    if GUARD && cell == C::INF {
        *lost |= withheld(d, cell) & (*label == C::INF);
    }
    false
}

/// The initial approximation of one row: `row` reset to `INF` and searched
/// from `s` (see [`DistanceMatrix::seed_row`]). A label withheld is not
/// expanded.
fn seed<'g, C: Cell>(
    row: &mut [C],
    s: VertexId,
    search: &mut Search,
    neighbors: impl Fn(VertexId) -> &'g [(VertexId, Weight)],
    expands: impl Fn(VertexId) -> bool,
    lost: &mut bool,
) {
    row.fill(C::INF);
    let mut spilt = false;
    lower::<C, true>(row, s as usize, 0, &mut spilt); // the source's label
    let sink = |row: &mut [C], v: VertexId, d| {
        lower::<C, true>(row, v as usize, d, &mut spilt) && expands(v)
    };
    search.run(row, [(s, 0)], neighbors, sink, unless_stale);
    *lost |= spilt;
}

/// A search's settle hook on a row of cells: expands a vertex popped at its
/// label, skips one popped above it.
fn unless_stale<C: Cell>(row: &mut [C], v: VertexId, d: Weight) -> Settle {
    match row.get(v as usize) {
        Some(&label) if d > label.weight() => Settle::Skip,
        _ => Settle::Expand,
    }
}

/// What [`DistanceMatrix::repair_row`] reuses from row to row and from call
/// to call, so that a repair allocates nothing once warm: a flag per column,
/// all false between rows, the seeds, and the search's queue.
#[derive(Debug, Default, Clone)]
pub(crate) struct RowRepair {
    is_raised: Vec<bool>,
    seeds: Vec<(VertexId, Weight)>,
    search: Search,
}

/// [`DistanceMatrix::repair_row`] on the row's cells: each raised column
/// `t` of `targets` is seeded with `min (row[y] + w)` over its edges `(y, t,
/// w)`, all read before any is written, and the search relaxes raised
/// columns only. A label withheld sets `lost`. Returns how many edges the
/// seeds and the search read.
fn repair_cells<'g, C: Cell>(
    row: &mut [C],
    targets: &[usize],
    edges_of: impl Fn(usize) -> &'g [(VertexId, Weight)],
    scratch: &mut RowRepair,
    lost: &mut bool,
) -> u64 {
    let RowRepair {
        is_raised,
        seeds,
        search,
    } = scratch;
    if is_raised.len() < row.len() {
        is_raised.resize(row.len(), false);
    }
    let reads = std::cell::Cell::new(0u64);
    let edges_of = |t: usize| {
        let edges = edges_of(t);
        reads.set(reads.get() + edges.len() as u64);
        edges
    };
    let offer = |t: usize| {
        let at = |y: VertexId| row.get(y as usize).map_or(INF, |d| d.weight());
        let through = edges_of(t).iter().map(|&(y, w)| at(y).saturating_add(w));
        through.min().unwrap_or(INF)
    };
    seeds.clear();
    let offers = targets
        .iter()
        .filter_map(|&t| Some((VertexId::try_from(t).ok()?, offer(t))));
    seeds.extend(offers.filter(|&(_, d)| d != INF));
    let mark = |is_raised: &mut [bool], on: bool| {
        for &t in targets {
            if let Some(raised) = is_raised.get_mut(t) {
                *raised = on;
            }
        }
    };
    mark(is_raised, true);
    let mut spilt = false;
    for &(t, d) in seeds.iter() {
        lower::<C, true>(row, t as usize, d, &mut spilt);
    }
    let raised: &[bool] = is_raised;
    let sink = |row: &mut [C], y: VertexId, d| {
        raised.get(y as usize) == Some(&true) && lower::<C, true>(row, y as usize, d, &mut spilt)
    };
    let neighbors = |t: VertexId| edges_of(t as usize);
    search.run(row, seeds.iter().copied(), neighbors, sink, unless_stale);
    mark(is_raised, false);
    *lost |= spilt;
    reads.get()
}

/// `row[c] = min(row[c], value + offset)` for each entry of `delta` (see
/// [`DistanceMatrix::relax_with_delta`]); a candidate withheld onto an `INF`
/// entry sets `lost`.
fn relax_delta<C: Cell>(
    row: &mut [C],
    (log, unsent): (&mut ColumnSet, &mut ColumnSet),
    delta: &RowDelta,
    offset: Weight,
    lost: &mut bool,
) -> bool {
    // Only a candidate as large as the largest the walk offered can have
    // been withheld. Where that one fits, none was; else the walk runs again
    // guarded, and what the first one lowered stays lowered.
    let logs = (&mut *log, &mut *unsent);
    let (changed, top) = walk_delta::<C, false>(row, logs, delta, offset, lost);
    if withheld(top, C::of(top)) {
        walk_delta::<C, true>(row, (log, unsent), delta, offset, lost);
    }
    changed
}

/// [`relax_delta`]'s walk, guarded or not: whether it lowered anything, and
/// the largest candidate it offered.
fn walk_delta<C: Cell, const GUARD: bool>(
    row: &mut [C],
    (log, unsent): (&mut ColumnSet, &mut ColumnSet),
    delta: &RowDelta,
    offset: Weight,
    lost: &mut bool,
) -> (bool, Weight) {
    // The values come in bit order, one per bit.
    let mut values = delta.values.iter();
    let (mut changed, mut spilt, mut top) = (false, false, 0);
    for (wi, &word) in delta.cols.words.iter().enumerate() {
        let (mut rest, mut lowered) = (word, 0u64);
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let Some(&value) = values.next() else {
                break; // one value per bit: never taken
            };
            let cand = value.saturating_add(offset);
            top = top.max(cand);
            if lower::<C, GUARD>(row, wi * WORD + bit, cand, &mut spilt) {
                lowered |= 1 << bit;
            }
        }
        if lowered != 0 {
            log.insert_word(wi, lowered);
            unsent.insert_word(wi, lowered);
            changed = true;
        }
    }
    *lost |= spilt;
    #[cfg(test)]
    if changed && reference::is_dense() {
        log.mark_all();
    }
    (changed, top)
}

/// Grows `v` to `len` elements of `fill`: in place while its buffer has
/// room, else into one sized exactly for `len` plus a sixteenth of `v`'s
/// length, rounded up to 64. (`Vec`'s own growth doubles every row.)
pub(crate) fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if len > v.capacity() {
        v.reserve_exact((len + v.len() / 16).next_multiple_of(WORD) - v.len());
    }
    v.resize(len, fill);
}

/// `(&mut s[a], &s[b])` for distinct in-range indices.
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass two distinct row indices read from row_of, both below the row count; split_at_mut offsets derive from them"
)]
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

/// A row table at one width.
type Rows<C> = Vec<Vec<C>>;

/// Distance vectors held by one processor: those of the vertices it owns.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    /// The rows, all at one width.
    rows: Width<Rows<u8>, Rows<u16>, Rows<Weight>>,
    /// Change log of each row (see the module docs), parallel to `rows`.
    logs: Vec<ColumnSet>,
    /// Unsent log of each row (see the module docs), parallel to `rows`.
    unsent: Vec<ColumnSet>,
    /// Global vertex id of each row.
    vertex_of_row: Vec<VertexId>,
    /// Row index of each global vertex id slot (`u32::MAX` if not held here).
    row_of: Vec<u32>,
    cols: usize,
    /// Whether a write withheld a finite distance the rows cannot hold
    /// since the last [`Self::widen`] (see the module docs).
    overflow: bool,
    /// Whether some change or unsent log may hold a column: set by every
    /// write or mark that can add one, cleared by [`Self::clear_all_logs`].
    /// While it is false every log is empty.
    marked: bool,
}

const NO_ROW: u32 = u32::MAX;

impl DistanceMatrix {
    /// Creates an empty matrix with `cols` columns (one per vertex id slot),
    /// its rows `u32` wide: any distance fits.
    pub fn new(cols: usize) -> Self {
        DistanceMatrix {
            rows: Width::U32(Vec::new()),
            logs: Vec::new(),
            unsent: Vec::new(),
            vertex_of_row: Vec::new(),
            row_of: vec![NO_ROW; cols],
            cols,
            overflow: false,
            marked: false,
        }
    }

    /// Creates an empty matrix with `cols` columns at the narrowest width
    /// that holds the distance `largest`: 8 bits for anything below 255.
    pub(crate) fn holding(cols: usize, largest: Weight) -> Self {
        let rows = match largest {
            d if d < Weight::from(u8::MAX) => Width::U8(Vec::new()),
            d if d < Weight::from(u16::MAX) => Width::U16(Vec::new()),
            _ => Width::U32(Vec::new()),
        };
        DistanceMatrix {
            rows,
            ..Self::new(cols)
        }
    }

    /// Whether a write withheld a distance since the last [`Self::widen`].
    pub(crate) fn overflowed(&self) -> bool {
        self.overflow
    }

    /// Widens the rows one step, 8 bits to 16 or 16 to 32, after a write
    /// withheld a distance they could not hold, and marks every row
    /// all-columns in both logs: relaxing and sending every row whole
    /// re-derives what was withheld. Clears the overflow flag.
    pub(crate) fn widen(&mut self) {
        fn widened<N: Cell, W: Cell>(rows: Vec<Vec<N>>) -> Vec<Vec<W>> {
            let wide = |row: Vec<N>| {
                let mut wide = Vec::with_capacity(row.capacity());
                wide.extend(row.iter().map(|&d| W::of(d.weight())));
                wide
            };
            rows.into_iter().map(wide).collect()
        }
        self.rows = match std::mem::replace(&mut self.rows, Width::U32(Vec::new())) {
            Width::U8(rows) => Width::U16(widened(rows)),
            Width::U16(rows) => Width::U32(widened(rows)),
            wide => wide,
        };
        self.overflow = false;
        for idx in 0..self.row_count() {
            self.mark_raw(idx);
        }
    }

    /// Bits per stored distance: 8, 16 or 32.
    pub fn bits(&self) -> u32 {
        fn bits<C: Cell>(_: &[Vec<C>]) -> u32 {
            C::BITS
        }
        by_width!(&self.rows, rows => bits(rows))
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.vertex_of_row.len()
    }

    /// Number of columns (vertex id slots).
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// Whether this matrix holds a row for vertex `v`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the index is range-checked by the && short-circuit on the same line"
    )]
    pub fn has_row(&self, v: VertexId) -> bool {
        (v as usize) < self.row_of.len() && self.row_of[v as usize] != NO_ROW
    }

    /// Adds a row for vertex `v`, initialized to `INF` except `row[v] = 0`.
    /// A new row has propagated nothing yet, and nobody holds a copy: both
    /// its logs start all-columns.
    ///
    /// # Panics
    /// Panics if `v` already has a row or lies outside the column range.
    pub fn add_row(&mut self, v: VertexId) {
        assert!((v as usize) < self.cols, "vertex {v} outside column range");
        let blank = map_width!(&self.rows, _rows => vec![Cell::INF; self.cols]);
        self.insert_row(v, RowBuf(blank));
        self.set_entry(v, v as usize, 0);
    }

    /// Inserts a row with explicit contents (migration, checkpoint restore,
    /// recovery), padded with `INF` to the column count and stored at the
    /// matrix's width (an entry the width cannot hold is withheld). Both
    /// its logs start all-columns.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic constructor — the asserts above every index state the contract and fire before any index can miss"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row count is bounded by the u32 vertex-id space"
    )]
    pub fn insert_row(&mut self, v: VertexId, row: impl Into<RowBuf>) {
        assert!((v as usize) < self.cols, "vertex {v} outside column range");
        assert!(!self.has_row(v), "vertex {v} already has a row");
        let row = row.into();
        // A migrated row may predate recent column extensions.
        assert!(
            row.as_row().len() <= self.cols,
            "row longer than column count"
        );
        self.row_of[v as usize] = self.row_count() as u32;
        let (cols, lost) = (self.cols, &mut self.overflow);
        by_width!(&mut self.rows, rows => {
            let mut row = owned(row, lost);
            grow(&mut row, cols, Cell::INF);
            rows.push(row);
        });
        self.logs.push(ColumnSet::all(self.cols));
        self.unsent.push(ColumnSet::all(self.cols));
        self.vertex_of_row.push(v);
        self.marked = true;
    }

    /// Removes and returns the row of vertex `v` with its unsent log (used
    /// for migration).
    #[expect(
        clippy::indexing_slicing,
        reason = "migration path — the NO_ROW assert fires before the swap_remove indexes and row_of covers every id the owning engine hands in"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "idx indexes the row table, bounded by the u32 vertex-id space"
    )]
    pub fn take_row(&mut self, v: VertexId) -> (RowBuf, ColumnSet) {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        let idx = idx as usize;
        let row = RowBuf(map_width!(&mut self.rows, rows => rows.swap_remove(idx)));
        self.logs.swap_remove(idx);
        let unsent = self.unsent.swap_remove(idx);
        self.vertex_of_row.swap_remove(idx);
        self.row_of[v as usize] = NO_ROW;
        if idx < self.vertex_of_row.len() {
            let moved = self.vertex_of_row[idx];
            self.row_of[moved as usize] = idx as u32;
        }
        (row, unsent)
    }

    /// Replaces the unsent log of `v`'s row by the one that travelled with
    /// it: the receivers' copies stay valid across a migration, so the new
    /// owner goes on sending them deltas.
    pub fn restore_unsent(&mut self, v: VertexId, mut unsent: ColumnSet) {
        unsent.words.resize(self.cols.div_ceil(WORD), 0);
        let idx = self.row_index(v);
        if let Some(slot) = self.unsent.get_mut(idx) {
            *slot = unsent;
            self.marked = true;
        }
    }

    /// Grows the column space to `new_cols`, filling new entries with `INF`.
    /// No-op if `new_cols <= col_count()`. Rows grow by `grow`'s step. The
    /// logs are reallocated only when their word count grows, and keep their
    /// members: a new column is `INF` in every row, so the invariant's
    /// `row_u[c] <= row_v[c] + w` holds on it for every edge as it stands.
    pub fn extend_cols(&mut self, new_cols: usize) {
        if new_cols <= self.cols {
            return;
        }
        by_width!(&mut self.rows, rows => {
            for row in rows {
                grow(row, new_cols, Cell::INF);
            }
        });
        let words = new_cols.div_ceil(WORD);
        if words > self.cols.div_ceil(WORD) {
            for log in self.logs.iter_mut().chain(&mut self.unsent) {
                // A fresh buffer moves the log off its slot between two rows'
                // freed buffers, which then merge into room for the next
                // matrix's rows: `churn_single` peaks at 56.7 MB, not 69.6.
                let mut grown = vec![0; words];
                grown.iter_mut().zip(&log.words).for_each(|(g, &w)| *g = w);
                log.words = grown;
            }
        }
        grow(&mut self.row_of, new_cols, NO_ROW);
        self.cols = new_cols;
    }

    /// The distance vector of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` has no row here.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic accessor — callers hold the has_row/ownership invariant and the assert names the violation"
    )]
    pub fn row(&self, v: VertexId) -> Row<'_> {
        let idx = self.row_index(v);
        Row(map_width!(&self.rows, rows => &rows[idx][..]))
    }

    /// Writes `row_v[col] = d` whatever was there (a `d` the width cannot
    /// hold is withheld). A raw write can undo anything, so the row is
    /// marked all-columns in both logs.
    pub fn set_entry(&mut self, v: VertexId, col: usize, d: Weight) {
        let idx = self.row_index(v);
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            if let Some(entry) = rows.get_mut(idx).and_then(|row| row.get_mut(col)) {
                *entry = Cell::of(d);
                *lost |= withheld(d, *entry);
            }
        });
        self.mark_raw(idx);
    }

    /// Reruns the initial approximation of `s`'s row: reset to `INF`, then
    /// labelled by a shortest-path search from `s` over `neighbors`, which
    /// expands only the vertices `expands` accepts (the others are labelled
    /// and left). The search writes the row raw, so both its logs are
    /// marked all-columns.
    pub(crate) fn seed_row<'g>(
        &mut self,
        s: VertexId,
        search: &mut Search,
        neighbors: impl Fn(VertexId) -> &'g [(VertexId, Weight)],
        expands: impl Fn(VertexId) -> bool,
    ) {
        let idx = self.row_index(s);
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            if let Some(row) = rows.get_mut(idx) {
                seed(row, s, search, neighbors, expands, lost);
            }
        });
        self.mark_raw(idx);
    }

    /// Marks row `idx` all-columns in both logs after a raw write.
    fn mark_raw(&mut self, idx: usize) {
        for log in [self.logs.get_mut(idx), self.unsent.get_mut(idx)] {
            log.into_iter().for_each(ColumnSet::mark_all);
        }
        self.marked = true;
    }

    /// Whether `v`'s row is on the frontier: its log is non-empty, so some
    /// local neighbour may still sit above it.
    pub fn owes(&self, v: VertexId) -> bool {
        let idx = self.row_index(v);
        self.logs.get(idx).is_some_and(|log| !log.is_empty())
    }

    /// Row-table index of vertex `v`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic accessor — same contract as row"
    )]
    fn row_index(&self, v: VertexId) -> usize {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        idx as usize
    }

    /// Row `idx` with its change log and its unsent log.
    fn row_logs<'a, C>(
        rows: &'a mut [Vec<C>],
        logs: &'a mut [ColumnSet],
        unsent: &'a mut [ColumnSet],
        idx: usize,
    ) -> Option<(&'a mut Vec<C>, (&'a mut ColumnSet, &'a mut ColumnSet))> {
        Some((
            rows.get_mut(idx)?,
            (logs.get_mut(idx)?, unsent.get_mut(idx)?),
        ))
    }

    /// The columns of `v`'s row lowered since its log was last cleared.
    #[cfg(test)]
    pub(crate) fn log(&self, v: VertexId) -> &ColumnSet {
        &self.logs[self.row_index(v)]
    }

    /// The columns of `v`'s row lowered since its last send.
    #[cfg(test)]
    pub(crate) fn unsent(&self, v: VertexId) -> &ColumnSet {
        &self.unsent[self.row_index(v)]
    }

    /// What a rank holding `v`'s row as of its last send is missing: the
    /// row's values on its unsent columns — or `None` if they are
    /// all-columns, and only the full row will do.
    pub fn unsent_entries(&self, v: VertexId) -> Option<RowDelta> {
        let unsent = self.unsent.get(self.row_index(v))?;
        (!unsent.all).then(|| self.entries_on(v, unsent.clone()))
    }

    /// The finite entries of `v`'s row among the columns `cols` names one
    /// by one (its `all` flag aside), as one buffer — an `INF` lowers
    /// nothing. (An unsent column is always finite: a write that lowers an
    /// entry lowers it below `INF`.)
    pub fn entries_on(&self, v: VertexId, mut cols: ColumnSet) -> RowDelta {
        #[expect(
            clippy::indexing_slicing,
            reason = "the one pragma the send side adds: the bit walk indexes the row at columns taken from a set built over the matrix width, whose bits never reach the column count — the argument relax_on's sparse walk already makes"
        )]
        fn walk<C: Cell>(row: &[C], cols: &mut ColumnSet) -> Vec<Weight> {
            let mut values = Vec::with_capacity(cols.logged());
            for (wi, word) in cols.words.iter_mut().enumerate() {
                let mut rest = *word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    match row[wi * WORD + bit] {
                        d if d == C::INF => *word &= !(1 << bit),
                        d => values.push(d.weight()),
                    }
                }
            }
            values
        }
        let values = by_width!(self.row(v).0, row => walk(row, &mut cols));
        cols.all = false;
        RowDelta { cols, values }
    }

    /// Empties `v`'s unsent log: every rank the row goes to holds it as it
    /// stands.
    pub fn clear_unsent(&mut self, v: VertexId) {
        let idx = self.row_index(v);
        if let Some(unsent) = self.unsent.get_mut(idx) {
            unsent.clear();
        }
    }

    /// Marks every column of `v`'s row as possibly unpropagated. This is a
    /// statement about `v`'s local neighbours (new adjacency, say), not
    /// about the row's values: the unsent log is not touched, here or in
    /// [`Self::mark_all_rows`].
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic accessor — same contract as row"
    )]
    pub fn mark_all_columns(&mut self, v: VertexId) {
        let idx = self.row_index(v);
        self.logs[idx].mark_all();
        self.marked = true;
    }

    /// Raises the entries `cols` of `v`'s row to `INF` (deletion
    /// invalidation). The log stays as it is: with `v` on the right of
    /// `row_u[c] <= row_v[c] + w` a raised entry keeps the inequality, and
    /// with `v` on the left the deletion's repair restores it, as it ends
    /// with every row exact (`AnytimeEngine::end_update`). The unsent log
    /// loses the raised columns: every rank that holds the row takes the
    /// same decision on the same values (the deletion barrier), so on these
    /// columns both sides now read `INF` and nothing is owed until a write
    /// lowers the entry again — and logs it.
    pub fn raise_entries(&mut self, v: VertexId, cols: &[usize]) {
        fn raise<C: Cell>(row: &mut [C], unsent: &mut ColumnSet, cols: &[usize]) {
            for &c in cols {
                if let (Some(d), Some(word)) = (row.get_mut(c), unsent.words.get_mut(c / WORD)) {
                    *d = C::INF;
                    *word &= !(1 << (c % WORD));
                }
            }
        }
        let idx = self.row_index(v);
        let Some(unsent) = self.unsent.get_mut(idx) else {
            return;
        };
        by_width!(&mut self.rows, rows => {
            if let Some(row) = rows.get_mut(idx) {
                raise(row, unsent, cols);
            }
        });
    }

    /// `row_v[col] = min(row_v[col], value)`, logged like any lowering
    /// write. Returns whether the entry decreased.
    pub fn lower_entry(&mut self, v: VertexId, col: usize, value: Weight) -> bool {
        let idx = self.row_index(v);
        self.marked = true;
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            let row = Self::row_logs(rows, &mut self.logs, &mut self.unsent, idx);
            row.is_some_and(|(row, (log, unsent))| {
                let lowered = lower::<_, true>(row, col, value, lost);
                if lowered {
                    log.insert(col);
                    unsent.insert(col);
                }
                lowered
            })
        })
    }

    /// Repairs the raised entries `targets` of `v`'s row exactly, by one
    /// search over them at the row's stored width: `edges_of(t)` lists the
    /// edges of column `t` (any raised one). No log bit is written: the
    /// deletion that calls it ends owing nothing or, should the rows widen,
    /// with every row marked whole (`AnytimeEngine::end_update`). A
    /// distance the width cannot hold is withheld and flagged. Returns how
    /// many edges the repair read.
    pub(crate) fn repair_row<'g>(
        &mut self,
        v: VertexId,
        targets: &[usize],
        edges_of: impl Fn(usize) -> &'g [(VertexId, Weight)],
        scratch: &mut RowRepair,
    ) -> u64 {
        let idx = self.row_index(v);
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            rows.get_mut(idx)
                .map_or(0, |row| repair_cells(row, targets, edges_of, scratch, lost))
        })
    }

    /// `row_v[c] = min(row_v[c], value + offset)` for each entry of a
    /// received delta, walking its column bits in step with its values, and
    /// logged like any lowering write. Returns whether any entry decreased.
    pub fn relax_with_delta(&mut self, v: VertexId, delta: &RowDelta, offset: Weight) -> bool {
        let idx = self.row_index(v);
        self.marked = true;
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            let row = Self::row_logs(rows, &mut self.logs, &mut self.unsent, idx);
            row.is_some_and(|(row, logs)| relax_delta(row, logs, delta, offset, lost))
        })
    }

    /// Marks every column of every row as possibly unpropagated.
    pub fn mark_all_rows(&mut self) {
        for log in &mut self.logs {
            log.mark_all();
        }
        self.marked = true;
    }

    /// Empties `v`'s log: the row has been propagated to its local
    /// neighbours on every logged column.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic accessor — same contract as row"
    )]
    pub fn clear_log(&mut self, v: VertexId) {
        let idx = self.row_index(v);
        self.logs[idx].clear();
    }

    /// Empties every change log. Sound only when the propagation invariant
    /// holds on all columns, e.g. right after the rows were set to the exact
    /// APSP of the local sub-graph.
    pub fn clear_logs(&mut self) {
        for log in &mut self.logs {
            log.clear();
        }
    }

    /// Empties every change log and every unsent log, where every row is
    /// exact and every receiver of a row holds it as it stands
    /// (`AnytimeEngine::end_update`). Costs nothing unless some write or
    /// mark logged a column since the last call: an engine that stays
    /// settled walks its rows here once per convergence, not per update.
    pub(crate) fn clear_all_logs(&mut self) {
        if std::mem::take(&mut self.marked) {
            for log in self.logs.iter_mut().chain(&mut self.unsent) {
                log.clear();
            }
        }
    }

    /// The vertices that have a row, in row order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertex_of_row
    }

    /// The frontier: vertices whose log is non-empty, in row order. While
    /// no log is marked it is empty, and says so without a walk.
    pub fn frontier(&self) -> impl Iterator<Item = VertexId> + '_ {
        let rows = if self.marked { self.row_count() } else { 0 };
        let logged = self.logs.iter().zip(&self.vertex_of_row).take(rows);
        logged.filter(|(log, _)| !log.is_empty()).map(|(_, &v)| v)
    }

    /// `dst_row[t] = min(dst_row[t], src_row[t] + offset)` where both rows
    /// live in this matrix, for the columns `t` in `src`'s log — all that can
    /// lower `dst` when the propagation invariant holds for the edge between
    /// them. Returns whether anything changed; a self-relax is a no-op.
    pub fn relax_rows_on(&mut self, dst: VertexId, src: VertexId, offset: Weight) -> bool {
        let (di, si) = (self.row_index(dst), self.row_index(src));
        if di == si {
            return false;
        }
        let Some(dst_unsent) = self.unsent.get_mut(di) else {
            return false;
        };
        let (dst_log, src_log) = pair_mut(&mut self.logs, di, si);
        self.marked = true;
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            let (dst_row, src_row) = pair_mut(rows, di, si);
            let (logs, offset) = ((dst_log, dst_unsent), Cell::of(offset));
            relax_on::<_, true>(dst_row, logs, src_row, offset, src_log, lost)
        })
    }

    /// Relaxes every column of the row of `dst` against an external row.
    pub fn relax_with_external(&mut self, dst: VertexId, src_row: Row<'_>, offset: Weight) -> bool {
        self.relax_with_external_on(dst, src_row, offset, &ColumnSet::EVERY)
    }

    /// Relaxes the columns `cols` of the row of `dst` against an external
    /// row, logging what it lowers.
    pub fn relax_with_external_on(
        &mut self,
        dst: VertexId,
        src_row: Row<'_>,
        offset: Weight,
        cols: &ColumnSet,
    ) -> bool {
        self.relax_external::<true>(dst, src_row, offset, cols)
    }

    /// [`Self::relax_with_external_on`] for a write that ends exact: it
    /// logs nothing, as the update owes nothing (`AnytimeEngine::end_update`).
    /// A candidate withheld still sets the overflow flag, and the widening
    /// that follows marks every row whole.
    pub(crate) fn relax_exact_on(
        &mut self,
        dst: VertexId,
        src_row: Row<'_>,
        offset: Weight,
        cols: &ColumnSet,
    ) -> bool {
        self.relax_external::<false>(dst, src_row, offset, cols)
    }

    /// The row of `dst` relaxed on `cols` through an external row, logged
    /// under `LOG`.
    fn relax_external<const LOG: bool>(
        &mut self,
        dst: VertexId,
        src_row: Row<'_>,
        offset: Weight,
        cols: &ColumnSet,
    ) -> bool {
        let idx = self.row_index(dst);
        self.marked |= LOG;
        let lost = &mut self.overflow;
        by_width!(&mut self.rows, rows => {
            let row = Self::row_logs(rows, &mut self.logs, &mut self.unsent, idx);
            row.is_some_and(|(row, logs)| {
                relax_through::<_, LOG>(row, logs, src_row, offset, cols, lost)
            })
        })
    }

    /// The vertices of `of` that have a row here, in row order.
    pub(crate) fn rows_among(&self, of: &[VertexId]) -> Vec<VertexId> {
        let held = of.iter().filter_map(|&v| self.row_of.get(v as usize));
        let mut idx: Vec<u32> = held.copied().filter(|&i| i != NO_ROW).collect();
        idx.sort_unstable();
        let rows = idx
            .iter()
            .filter_map(|&i| self.vertex_of_row.get(i as usize));
        rows.copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A `Weight` slice as a wide row.
    impl<'a, T: AsRef<[Weight]> + ?Sized> From<&'a T> for Row<'a> {
        fn from(row: &'a T) -> Self {
            Row(Width::U32(row.as_ref()))
        }
    }

    /// Rows are equal when they read as the same `Weight`s.
    impl PartialEq for Row<'_> {
        fn eq(&self, other: &Row<'_>) -> bool {
            self.len() == other.len() && self.iter().eq(other.iter())
        }
    }

    impl<T: AsRef<[Weight]> + ?Sized> PartialEq<&T> for Row<'_> {
        fn eq(&self, other: &&T) -> bool {
            *self == Row::from(*other)
        }
    }

    impl DistanceMatrix {
        /// `row` stored at this matrix's width, to hand to its relaxations,
        /// as a sender at that width would hold it: an entry the width
        /// cannot hold is withheld, and flags this matrix.
        pub(crate) fn at_width(&mut self, row: &[Weight]) -> RowBuf {
            fn at<C: Cell>(_: &[Vec<C>], row: &[Weight], lost: &mut bool) -> Vec<C> {
                owned(RowBuf::from(row.to_vec()), lost)
            }
            let lost = &mut self.overflow;
            RowBuf(map_width!(&self.rows, rows => at(rows, row, lost)))
        }
    }

    /// `v`'s unsent entries as wire pairs.
    fn pairs(m: &DistanceMatrix, v: VertexId) -> Option<Vec<(u32, Weight)>> {
        m.unsent_entries(v).map(|delta| delta.pairs())
    }

    /// `0..40` as a distance, `40..48` as `INF`.
    fn distance(d: u32) -> Weight {
        if d < 40 {
            d
        } else {
            INF
        }
    }

    /// One write to a matrix, its rows and columns taken modulo the
    /// matrix's.
    #[derive(Debug, Clone)]
    enum Write {
        /// `relax_rows_on(dst, src, offset)`.
        Rows(usize, usize, Weight),
        /// `relax_with_external_on(dst, …, offset, every stride-th column)`
        /// through a copy of row `src`, or through the generated external row.
        External(usize, Option<usize>, Weight, usize),
        /// `relax_with_delta(dst, entries, offset)`.
        Delta(usize, Vec<(usize, u32)>, Weight),
        Lower(usize, usize, u32),
        Raise(usize, Vec<usize>),
        Extend(usize),
        /// `clear_log` and `clear_unsent`: the row was propagated and sent.
        Sent(usize),
    }

    /// `0..1000` as a distance, `1000..1200` as `INF`: forty writes of
    /// these, offsets included, stay below 16 bits' `INF`.
    fn near(d: u32) -> Weight {
        if d < 1000 {
            d
        } else {
            INF
        }
    }

    /// `write` with its distances below 1,000 and its offsets divided by
    /// `scale`: at 200, forty writes stay below 8 bits' `INF` too.
    fn scaled(write: &Write, scale: u32) -> Write {
        let d = |d: u32| if d < 1000 { d / scale } else { d };
        match write.clone() {
            Write::Rows(a, b, o) => Write::Rows(a, b, o / scale),
            Write::External(a, b, o, k) => Write::External(a, b, o / scale, k),
            Write::Delta(a, e, o) => {
                let e = e.into_iter().map(|(c, v)| (c, d(v))).collect();
                Write::Delta(a, e, o / scale)
            }
            Write::Lower(a, c, v) => Write::Lower(a, c, d(v)),
            other => other,
        }
    }

    fn write() -> impl Strategy<Value = Write> {
        let (row, col, d, offset) = (0usize..3, 0usize..4096, 0u32..1200, 0u32..1000);
        let entries = proptest::collection::vec((col.clone(), d.clone()), 0..40);
        prop_oneof![
            (row.clone(), row.clone(), offset.clone()).prop_map(|(a, b, o)| Write::Rows(a, b, o)),
            (row.clone(), 0usize..4, offset.clone(), 1usize..4)
                .prop_map(|(a, b, o, k)| Write::External(a, (b < 3).then_some(b), o, k)),
            (row.clone(), entries, offset).prop_map(|(a, e, o)| Write::Delta(a, e, o)),
            (row.clone(), col.clone(), d).prop_map(|(a, c, d)| Write::Lower(a, c, d)),
            (row.clone(), proptest::collection::vec(col, 0..20))
                .prop_map(|(a, cs)| Write::Raise(a, cs)),
            (0usize..70).prop_map(Write::Extend),
            row.prop_map(Write::Sent),
        ]
    }

    /// Every `stride`-th of `cols` columns; stride 1 is [`ColumnSet::EVERY`].
    fn strided(cols: usize, stride: usize) -> ColumnSet {
        if stride == 1 {
            return ColumnSet::EVERY;
        }
        let mut set = ColumnSet::empty(cols);
        (0..cols).step_by(stride).for_each(|c| set.insert(c));
        set
    }

    /// Applies `write` to `m`, whose external row is `ext` cycled; returns
    /// what the write returned.
    fn apply(m: &mut DistanceMatrix, write: &Write, ext: &[Weight]) -> bool {
        let (rows, cols) = (m.row_count(), m.col_count());
        let v = |i: &usize| (i % rows) as VertexId;
        match write {
            Write::Rows(a, b, o) => m.relax_rows_on(v(a), v(b), *o),
            Write::External(a, src, o, k) => {
                let row = match src {
                    Some(b) => m.row(v(b)).to_buf(),
                    None => m.at_width(&(0..cols).map(|c| ext[c % ext.len()]).collect::<Vec<_>>()),
                };
                m.relax_with_external_on(v(a), row.as_row(), *o, &strided(cols, *k))
            }
            Write::Delta(a, entries, o) => {
                let finite = entries.iter().filter(|&&(_, d)| near(d) != INF);
                let pairs: std::collections::BTreeMap<u32, Weight> =
                    finite.map(|&(c, d)| ((c % cols) as u32, d)).collect();
                let delta = RowDelta::from_pairs(&pairs.into_iter().collect::<Vec<_>>());
                m.relax_with_delta(v(a), &delta, *o)
            }
            Write::Lower(a, c, d) => m.lower_entry(v(a), c % cols, near(*d)),
            Write::Raise(a, cs) => {
                m.raise_entries(v(a), &cs.iter().map(|c| c % cols).collect::<Vec<_>>());
                false
            }
            Write::Extend(more) => {
                m.extend_cols(cols + more);
                false
            }
            Write::Sent(a) => {
                m.clear_log(v(a));
                m.clear_unsent(v(a));
                false
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn narrow_and_wide_rows_take_every_write_alike(
            width in (0usize..5).prop_map(|i| [1, 63, 64, 65, 130][i]),
            scale in prop_oneof![Just(1u32), Just(200)],
            ext in proptest::collection::vec(0u32..1200, 1..200),
            writes in proptest::collection::vec(write(), 1..40),
        ) {
            let mut narrow = [DistanceMatrix::holding(width, 0), DistanceMatrix::holding(width, 255)];
            let mut wide = DistanceMatrix::new(width);
            prop_assert_eq!([narrow[0].bits(), narrow[1].bits(), wide.bits()], [8, 16, 32]);
            let rows = width.min(3) as VertexId;
            for m in narrow.iter_mut().chain([&mut wide]) {
                (0..rows).for_each(|v| m.add_row(v));
            }
            let d = |d: u32| if d < 1000 { d / scale } else { d };
            let ext: Vec<Weight> = ext.into_iter().map(|e| near(d(e))).collect();
            for write in writes.iter().map(|w| scaled(w, scale)) {
                let changed = apply(&mut wide, &write, &ext);
                for m in &mut narrow {
                    let narrow_changed = apply(m, &write, &ext);
                    // Every width takes every write alike until one withholds
                    // a distance; from then on it reads at or above the wide
                    // rows, and `INF` wherever they differ — never a finite
                    // value of its own.
                    if m.overflowed() {
                        for v in 0..rows {
                            let both = m.row(v).iter().zip(wide.row(v).iter());
                            for (n, w) in both {
                                prop_assert!(n == w || n == INF, "{} vs {} after {:?}", n, w, write);
                            }
                        }
                        continue;
                    }
                    prop_assert_eq!(narrow_changed, changed, "{:?}", write);
                    for v in 0..rows {
                        prop_assert_eq!(m.row(v), wide.row(v), "row {} after {:?}", v, write);
                        prop_assert_eq!(m.log(v), wide.log(v), "log {}", v);
                        prop_assert_eq!(m.unsent(v), wide.unsent(v), "unsent {}", v);
                        prop_assert_eq!(m.unsent_entries(v), wide.unsent_entries(v));
                    }
                }
            }
            // Sixteen bits hold every distance here, and so do eight once
            // scaled down; a width keeps its bits whatever it was handed.
            prop_assert!(!narrow[1].overflowed() && (scale == 1 || !narrow[0].overflowed()));
            prop_assert_eq!([narrow[0].bits(), narrow[1].bits(), wide.bits()], [8, 16, 32]);
        }

        #[test]
        fn relax_with_delta_leaves_what_the_pair_reference_leaves(
            width in (0usize..6).prop_map(|i| [1, 63, 64, 65, 130, 199][i]),
            sent in proptest::collection::vec(0u32..48, 199..200),
            offers in proptest::collection::vec((0usize..199, 0u32..48), 0..64),
            held in proptest::collection::vec(0u32..48, 199..200),
            logged in proptest::bool::ANY,
            offset in 0u32..3,
        ) {
            // The sender's row, as its holders have it, then lowered at
            // random: the delta is what it logged.
            let mut sender = DistanceMatrix::new(width);
            let sent: Vec<Weight> = sent[..width].iter().map(|&d| distance(d)).collect();
            sender.insert_row(0, sent.clone());
            sender.clear_unsent(0);
            for &(c, d) in &offers {
                sender.lower_entry(0, c % width, distance(d));
            }
            let delta = sender.unsent_entries(0).expect("logged column by column");
            let now = sender.row(0).to_vec();
            let lowered = now.iter().zip(&sent).enumerate();
            let lowered = lowered.filter(|(_, (now, was))| now < was);
            let want: Vec<(u32, Weight)> = lowered.map(|(c, (&d, _))| (c as u32, d)).collect();
            prop_assert_eq!(delta.pairs(), want.clone());
            prop_assert_eq!(delta.len(), want.len());
            prop_assert_eq!(delta.buffer_bytes(), 8 * width.div_ceil(WORD) + 4 * want.len());

            // A neighbour's row at the receiver, its logs fresh from an
            // install or empty.
            let mut reference = DistanceMatrix::new(width);
            let held: Vec<Weight> = held[..width].iter().map(|&d| distance(d)).collect();
            reference.insert_row(0, held);
            if !logged {
                reference.clear_logs();
                reference.clear_unsent(0);
            }
            let (mut walked, mut rebuilt) = (reference.clone(), reference.clone());
            // The reference: one lowering write per wire pair.
            let lower = |changed, &(c, d): &(u32, Weight)| {
                reference.lower_entry(0, c as usize, d.saturating_add(offset)) | changed
            };
            let changed = want.iter().fold(false, lower);
            prop_assert_eq!(walked.relax_with_delta(0, &delta, offset), changed);
            let rebuilt_delta = RowDelta::from_pairs(&want);
            prop_assert_eq!(rebuilt.relax_with_delta(0, &rebuilt_delta, offset), changed);
            for m in [&walked, &rebuilt] {
                prop_assert_eq!(m.row(0), reference.row(0));
                prop_assert_eq!(m.log(0), reference.log(0));
                prop_assert_eq!(m.unsent(0), reference.unsent(0));
            }
        }
    }

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
            let (mut log, mut unsent) = (ColumnSet::empty(n), ColumnSet::empty(n));
            let mut lost = false;
            let logs = (&mut log, &mut unsent);
            let changed = relax_on::<_, true>(&mut got, logs, &src, offset, &cols, &mut lost);
            assert!(!lost, "nothing is withheld at 32 bits");
            assert_eq!(got, want, "stride {stride}");
            assert_eq!(changed, got != before);
            for c in 0..n {
                assert_eq!(log.contains(c), got[c] < before[c], "log bit {c}");
            }
            assert_eq!(unsent, log, "both logs hold the lowered columns");
        }
    }

    /// The hit-chunk loop the dense kernel replaced: rows and bits.
    fn scalar_relax(dst: &mut [Weight], src: &[Weight], offset: Weight) -> Vec<u64> {
        let mut words = vec![0u64; dst.len().div_ceil(WORD)];
        for (c, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
            let cand = s.saturating_add(offset);
            if cand < *d {
                *d = cand;
                words[c / WORD] |= 1 << (c % WORD);
            }
        }
        words
    }

    #[test]
    fn packed_flag_kernel_equals_the_scalar_loop_in_rows_and_bits() {
        // 150 columns: two full words and a ragged third.
        let (n, offset) = (150usize, 3);
        let mut src = noise(n, 11);
        src[7] = u32::MAX - 1; // saturates to INF: never an improvement
        for hit_pct in [0u32, 2, 50, 100] {
            // `dst` sits above `src + offset` on `hit_pct` % of the finite
            // columns and at or below it on the rest; some are `INF`.
            let dst: Vec<Weight> = (0..n as u32)
                .map(|i| {
                    let cand = src[i as usize].saturating_add(offset);
                    let hit = i.wrapping_mul(2_654_435_761) % 100 < hit_pct;
                    match (hit, i % 9) {
                        (true, 0) => INF,
                        (true, _) => cand.saturating_add(1 + i % 4),
                        (false, _) => cand - i % 3,
                    }
                })
                .collect();
            let mut want = dst.clone();
            let want_bits = scalar_relax(&mut want, &src, offset);
            assert_eq!(want_bits.iter().any(|&w| w != 0), hit_pct > 0);

            let (mut got, mut got_bits) = (dst.clone(), vec![0u64; n.div_ceil(WORD)]);
            let lowered = |w, bits| got_bits[w] |= bits;
            let changed = relax_chunks(&mut got, &src, offset, &mut false, lowered);
            assert_eq!(got, want, "{hit_pct} %: rows");
            assert_eq!(got_bits, want_bits, "{hit_pct} %: bits");
            assert_eq!(changed, hit_pct > 0);
            assert_eq!(got[7], dst[7], "INF saturation");

            // `relax_row` and both branches of `relax_on` are that kernel.
            let mut row = dst.clone();
            assert_eq!(relax_row(&mut row, &src, offset), changed);
            assert_eq!(row, want);
            for dense_twin in [false, true] {
                let mut row = dst.clone();
                let (mut log, mut unsent) = (ColumnSet::empty(n), ColumnSet::empty(n));
                let logs = (&mut log, &mut unsent);
                let every = &ColumnSet::EVERY;
                let relax = || relax_on::<_, true>(&mut row, logs, &src, offset, every, &mut false);
                let changed = if dense_twin {
                    reference::dense(relax)
                } else {
                    relax()
                };
                assert_eq!((row, changed), (want.clone(), hit_pct > 0));
                // The twin says "all columns" to its neighbours, and still
                // exactly the lowered ones to the wire.
                assert_eq!(unsent.words, want_bits);
                assert_eq!(log.all, dense_twin && changed);
                assert!(dense_twin || log.words == want_bits);
            }
        }
    }

    #[test]
    fn reach_sums_the_finite_entries_outside_one_column_at_every_width() {
        let row = noise(150, 3);
        for skip in [0, 7, 149, 150] {
            let others = row
                .iter()
                .enumerate()
                .filter(|&(t, &d)| t != skip && d != INF && d > 0);
            let want = others.fold((0, 0), |(sum, n), (_, &d)| (sum + u64::from(d), n + 1));
            for largest in [0, 255, 65_535] {
                let mut m = DistanceMatrix::holding(150, largest);
                let buf = m.at_width(&row);
                assert_eq!(
                    buf.as_row().reach(skip),
                    want,
                    "skip {skip}, largest {largest}"
                );
            }
        }
    }

    #[test]
    fn reach_equals_the_per_cell_fold_at_every_width_and_length() {
        let fold = |row: Row<'_>, skip: usize| {
            let counted = row.iter().enumerate();
            let counted = counted.filter(|&(t, d)| t != skip && d != INF && d > 0);
            counted.fold((0, 0), |(sum, n), (_, d)| (sum + u64::from(d), n + 1))
        };
        for largest in [0, 255, 65_535] {
            let top = match largest {
                0 => 254,
                255 => 65_534,
                _ => 1 << 30,
            };
            for len in [0, 1, 255, 256, 257, 700] {
                // INF, 0 and the width's largest finite distance, which fills
                // a 16-bit lane closest to its limit, among smaller ones.
                let cell = |t: usize| match (t * 2_654_435_761) >> 7 & 7 {
                    0 => INF,
                    1 => 0,
                    2..=4 => top,
                    h => (t as Weight + h as Weight) % top,
                };
                for row in [(0..len).map(cell).collect(), vec![top; len]] {
                    let mut m = DistanceMatrix::holding(len, largest);
                    let buf = m.at_width(&row);
                    assert!(!m.overflowed(), "the width holds every entry");
                    let inf = row.iter().position(|&d| d == INF);
                    let zero = row.iter().position(|&d| d == 0);
                    let finite = row.iter().position(|&d| d == top);
                    let skips = [inf, zero, finite, Some(len)].into_iter().flatten();
                    for skip in skips {
                        let what = format!("largest {largest}, {len} columns, skip {skip}");
                        assert_eq!(buf.as_row().reach(skip), fold(buf.as_row(), skip), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn finite_of_lists_exactly_the_finite_columns() {
        let row = noise(150, 9);
        let cols = ColumnSet::finite_of(Row::from(&row));
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
        assert!(pairs(&m, 0).is_none(), "and nobody holds a copy");
        m.clear_logs();
        assert!(m.log(0).is_empty() && m.log(1).is_empty());
        assert!(m.unsent(0).contains(7), "clearing one log leaves the other");
        m.clear_unsent(0);
        m.clear_unsent(1);
        // A relaxation logs what it lowered, in the lowered row only.
        let mut ext = vec![INF; 8];
        ext[2] = 4;
        assert!(m.relax_with_external(1, Row::from(&ext), 0));
        assert!(m.log(1).contains(2) && !m.log(1).contains(1));
        assert!(m.log(0).is_empty());
        // Row 0 learns column 2 from row 1 and nothing else: column 1,
        // which row 1 could also improve, is not in row 1's log.
        assert!(m.relax_rows_on(0, 1, 1));
        assert_eq!(m.row(0).to_vec()[..3], [0, INF, 5]);
        assert!(m.log(0).contains(2) && !m.log(0).contains(1));
        // The unsent log saw the same writes, and outlives the propagation.
        m.clear_log(1);
        assert_eq!(pairs(&m, 1), Some(vec![(2, 4)]));
        assert_eq!(pairs(&m, 0), Some(vec![(2, 5)]));
        // Marks about the neighbourhood leave it alone.
        m.mark_all_columns(0);
        m.mark_all_rows();
        assert_eq!(pairs(&m, 0), Some(vec![(2, 5)]));
        // A raised entry leaves it, and comes back when lowered again.
        assert!(m.lower_entry(0, 5, 9));
        m.raise_entries(0, &[2]);
        assert_eq!(pairs(&m, 0), Some(vec![(5, 9)]));
        assert!(m.lower_entry(0, 2, 6));
        assert_eq!(pairs(&m, 0), Some(vec![(2, 6), (5, 9)]));
        m.clear_log(1);
        m.set_entry(1, 0, 1); // raw access: anything may have changed
        assert!(m.log(1).contains(0) && m.log(1).contains(7));
        assert!(pairs(&m, 1).is_none());
        // Both logs travel with their row: through a swap_remove, through
        // column growth, and the unsent one on to the next owner.
        m.clear_log(0);
        m.add_row(2);
        m.extend_cols(70);
        let (_, unsent) = m.take_row(0);
        assert!(m.log(2).contains(0) && m.log(1).contains(7));
        assert!(pairs(&m, 2).is_none() && pairs(&m, 1).is_none());
        let mut next = DistanceMatrix::new(130);
        next.insert_row(0, vec![0, INF, 6, INF, INF, 9]);
        assert!(pairs(&next, 0).is_none());
        next.restore_unsent(0, unsent);
        assert_eq!(pairs(&next, 0), Some(vec![(2, 6), (5, 9)]));
        assert!(next.lower_entry(0, 129, 3), "and grows to the new width");
        assert_eq!(pairs(&next, 0).map(|e| e.len()), Some(3));
    }

    #[test]
    fn an_emptied_set_is_empty_whichever_way_it_was_emptied() {
        let mut m = DistanceMatrix::new(70);
        m.add_row(0);
        m.clear_logs();
        m.clear_unsent(0);
        assert!(m.log(0).is_empty() && m.unsent(0).is_empty());
        assert!(m.frontier().next().is_none());
        assert!(m.lower_entry(0, 69, 4));
        assert!(!m.log(0).is_empty() && !m.unsent(0).is_empty());
        // Bit by bit (only the words can say so), or wholesale.
        m.raise_entries(0, &[69]);
        assert!(m.unsent(0).is_empty() && m.frontier().eq([0]));
        m.clear_log(0);
        assert!(m.log(0).is_empty() && m.frontier().next().is_none());
        // Both relaxation kernels mark what they lower, and only then.
        let mut src = vec![INF; 70];
        assert!(!m.relax_with_external(0, Row::from(&src), 1) && m.log(0).is_empty());
        src[3] = 2;
        assert!(m.relax_with_external(0, Row::from(&src), 1) && m.frontier().eq([0]));
        m.clear_log(0);
        src[4] = 2;
        let sparse = ColumnSet::finite_of(Row::from(&src));
        assert!(m.relax_with_external_on(0, Row::from(&src), 1, &sparse));
        assert!(m.log(0).contains(4) && !m.log(0).contains(3));
        assert!(!m.unsent(0).is_empty());
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
        let (r, _) = m.take_row(0); // row 2 swaps into slot 0
        assert_eq!(r.as_row().get(0), Some(0));
        assert!(!m.has_row(0));
        assert_eq!(m.row(2).to_vec()[2], 0, "swapped row still reachable");
        assert_eq!(m.row(1).to_vec()[1], 0);
        assert_eq!(m.row_count(), 2);
    }

    #[test]
    fn migration_roundtrip() {
        let mut a = DistanceMatrix::new(3);
        a.add_row(1);
        a.set_entry(1, 0, 7);
        let (row, _) = a.take_row(1);
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
        assert_eq!(m.row(3).to_vec()[3], 0);
        m.extend_cols(3); // shrink request is a no-op
        assert_eq!(m.col_count(), 4);
    }

    fn wide(m: &DistanceMatrix) -> &[Vec<Weight>] {
        match &m.rows {
            Width::U32(rows) => rows,
            _ => panic!("a matrix from `new` is wide"),
        }
    }

    #[test]
    fn columns_grow_by_a_sixteenth_and_logs_only_with_their_word_count() {
        // An added row, a short migrated one and a full-width one.
        let mut m = DistanceMatrix::new(130);
        m.add_row(0);
        m.insert_row(1, vec![0; 40]);
        m.insert_row(2, vec![INF; 130]);
        let bound = |cols: usize| (cols + cols / 16).next_multiple_of(WORD);
        let mut copies = 0;
        for cols in 131..=430 {
            let rows: Vec<_> = wide(&m)
                .iter()
                .map(|r| (r.as_ptr(), r.capacity()))
                .collect();
            let logs: Vec<_> = m
                .logs
                .iter()
                .chain(&m.unsent)
                .map(|l| l.words.as_ptr())
                .collect();
            m.extend_cols(cols);
            for (row, (ptr, cap)) in wide(&m).iter().zip(rows) {
                let spare = row.capacity() - cols;
                assert!(
                    row.capacity() <= bound(cols),
                    "{cols} columns, {spare} spare"
                );
                if cols <= cap {
                    assert_eq!(row.as_ptr(), ptr, "{cols} columns: moved with room left");
                } else {
                    assert!(spare >= (cols - 1) / 16, "{cols} columns, {spare} spare");
                    copies += 1;
                }
            }
            let grew = cols.div_ceil(WORD) > (cols - 1).div_ceil(WORD);
            for (log, ptr) in m.logs.iter().chain(&m.unsent).zip(logs) {
                assert_eq!(log.words.as_ptr() != ptr, grew, "{cols} columns");
                assert_eq!(log.words.len(), cols.div_ceil(WORD));
            }
        }
        // Steps at 131 (the short row was padded to 192 already), 193, 257,
        // 321 and 385 columns. Doubling copies less often, and leaves rows
        // up to twice as wide as they are.
        assert_eq!(copies, 14);
        let row = m.row(1).to_vec();
        let (kept, padded) = row.split_at(40);
        assert!(kept == [0; 40] && padded.iter().all(|&d| d == INF));
    }

    #[test]
    fn relax_rows_internal() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        m.add_row(1);
        m.set_entry(1, 2, 4);
        // Fresh rows log every column, so every column is relaxed.
        assert!(m.relax_rows_on(0, 1, 1)); // d(0,*) <= 1 + d(1,*)
        assert_eq!(m.row(0), &[0, 1, 5]);
        assert!(!m.relax_rows_on(0, 0, 1), "self relax is a no-op");
        // Reverse direction with the dst stored after src.
        assert!(m.relax_rows_on(1, 0, 1));
        assert_eq!(m.row(1).to_vec()[0], 1);
    }

    #[test]
    fn a_row_on_some_columns_relaxes_a_neighbour_on_those_only() {
        // The owner's row on three columns, as a kept-values answer carries it.
        let mut owner = DistanceMatrix::new(70);
        owner.insert_row(3, (0..70).collect::<Vec<Weight>>());
        let mut cols = ColumnSet::empty(70);
        [1, 5, 69].into_iter().for_each(|c| cols.insert(c));
        let kept = owner.entries_on(3, cols);
        assert_eq!(kept.pairs(), [(1, 1), (5, 5), (69, 69)]);
        // A neighbour two away relaxes through it on exactly those columns,
        // and logs what it lowered: column 5 already sits below 5 + 2.
        let mut dv = DistanceMatrix::new(70);
        dv.add_row(0);
        dv.clear_logs();
        dv.clear_unsent(0);
        assert!(dv.lower_entry(0, 5, 4));
        dv.clear_log(0);
        assert!(dv.relax_with_delta(0, &kept, 2));
        assert_eq!(
            (
                dv.row(0).to_vec()[1],
                dv.row(0).to_vec()[5],
                dv.row(0).to_vec()[69]
            ),
            (3, 4, 71)
        );
        assert_eq!((dv.row(0).to_vec()[0], dv.row(0).to_vec()[2]), (0, INF));
        let log = dv.log(0);
        assert!(log.contains(1) && log.contains(69) && !log.contains(5));
        assert!(dv.owes(0) && dv.unsent(0).contains(69));
        // The same buffer again lowers nothing.
        dv.clear_log(0);
        assert!(!dv.relax_with_delta(0, &kept, 2) && !dv.owes(0));
    }

    #[test]
    fn a_logging_write_after_a_clear_puts_its_row_back_on_the_frontier() {
        // After `clear_all_logs` the frontier reads empty without a walk;
        // a write that logs must mark the matrix again, or the row it
        // lowered would never reach its local neighbours.
        let delta = RowDelta::from_pairs(&[(2, 1)]);
        type Write<'a> = (&'a str, &'a dyn Fn(&mut DistanceMatrix));
        let writes: [Write; 4] = [
            ("lower_entry", &|m| assert!(m.lower_entry(0, 2, 3))),
            ("relax_with_external_on", &|m| {
                let row = m.row(1).to_buf();
                assert!(m.relax_with_external_on(0, row.as_row(), 1, &ColumnSet::EVERY));
            }),
            ("relax_with_delta", &|m| {
                assert!(m.relax_with_delta(0, &delta, 1))
            }),
            ("mark_all_columns", &|m| m.mark_all_columns(0)),
        ];
        for (what, write) in writes {
            let mut m = DistanceMatrix::new(3);
            (0..2).for_each(|v| m.add_row(v));
            m.set_entry(1, 2, 1);
            m.clear_all_logs();
            assert_eq!(m.frontier().count(), 0, "{what}");
            write(&mut m);
            assert_eq!(m.frontier().collect::<Vec<_>>(), [0], "{what}");
            m.clear_all_logs();
            assert!(!m.owes(0) && m.unsent(0).is_empty(), "{what}");
        }
    }

    #[test]
    fn relax_with_external_row() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        let ext = vec![2, 0, 9];
        assert!(m.relax_with_external(0, Row::from(&ext), 3));
        assert_eq!(m.row(0), &[0, 3, 12]);
    }

    #[test]
    fn a_distance_the_width_cannot_hold_is_withheld_and_flagged() {
        // Rows 0 and 1 of an 8-bit matrix, row 1 at 200 on column 5 and 0 on
        // column 1; each write below offers column 5 (or 2) a distance of
        // 255 or more.
        let fresh = |col5: Weight| {
            let mut m = DistanceMatrix::holding(130, 0);
            (0..2).for_each(|v| m.add_row(v));
            m.set_entry(1, 5, 200);
            m.set_entry(0, 5, col5);
            assert!(!m.overflowed() && m.bits() == 8);
            m
        };
        let delta = RowDelta::from_pairs(&[(5, 200)]);
        let path = [vec![(1, 200)], vec![(0, 200), (2, 200)], vec![(1, 200)]];
        type Offer<'a> = (&'a str, &'a dyn Fn(&mut DistanceMatrix));
        let writes: [Offer; 8] = [
            ("set_entry", &|m| m.set_entry(0, 5, 300)),
            ("lower_entry", &|m| assert!(!m.lower_entry(0, 5, 255))),
            ("insert_row", &|m| {
                m.take_row(0);
                m.insert_row(0, vec![0, 1, INF, 3, 4, 999]);
            }),
            ("relax_rows_on", &|m| {
                m.relax_rows_on(0, 1, 60);
            }),
            ("an offset past the width", &|m| {
                m.set_entry(1, 5, 0);
                assert!(!m.relax_rows_on(0, 1, 300));
            }),
            ("relax_with_external_on", &|m| {
                let row = m.row(1).to_buf();
                m.relax_with_external_on(0, row.as_row(), 60, &ColumnSet::EVERY);
            }),
            ("relax_with_delta", &|m| {
                assert!(!m.relax_with_delta(0, &delta, 60));
            }),
            ("seed_row", &|m| {
                let neighbors = |v: VertexId| &path[v as usize][..];
                m.seed_row(0, &mut Search::default(), neighbors, |_| true);
                m.set_entry(0, 5, INF);
            }),
        ];
        for (what, write) in writes {
            // Onto an `INF` entry the write is withheld and flagged; the
            // search's is on column 2, the others' on column 5.
            let mut m = fresh(INF);
            write(&mut m);
            assert!(m.overflowed(), "{what}");
            assert_eq!(m.row(0).get(5), Some(INF), "{what}");
            assert_eq!(m.row(0).get(2), Some(INF), "{what}");
            // Widening keeps every value, clears the flag and owes every row
            // whole.
            let before = [m.row(0).to_vec(), m.row(1).to_vec()];
            m.widen();
            assert!(!m.overflowed() && m.bits() == 16, "{what}");
            assert!(m.log(0).contains(129) && m.unsent_entries(1).is_none());
            assert_eq!([m.row(0).to_vec(), m.row(1).to_vec()], before, "{what}");
            // Onto a finite entry the same write loses nothing (the writes
            // that offer column 5 alone).
            let wider = [
                "set_entry",
                "insert_row",
                "seed_row",
                "an offset past the width",
            ];
            if !wider.contains(&what) {
                let mut m = fresh(7);
                write(&mut m);
                assert!(!m.overflowed() && m.row(0).get(5) == Some(7), "{what}");
            }
        }
    }
}
