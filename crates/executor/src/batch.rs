//! Batched tuple transport: what flows between operators.
//!
//! A [`RowBatch`] carries up to [`BATCH_CAPACITY`] fixed-width rows in
//! **columnar** layout: one value vector per attribute, plus an optional
//! **selection vector** marking which rows are live. Operators exchange
//! whole batches through [`crate::Operator::next_batch`], so the per-call
//! costs — the virtual call, the `Result` unwrap, the governor check, the
//! shared-counter lock — are paid once per batch and nothing is allocated
//! per row. The columnar layout goes further than amortization: kernels
//! (filter comparisons, the join mix hash) run as one tight loop over a
//! contiguous `&[i64]` column the compiler can auto-vectorize, the
//! MonetDB/X100 decomposition. Filters qualify rows by writing the
//! selection vector instead of copying survivors, so a selective scan
//! stays allocation-free.
//!
//! Rows an operator already holds — a join's output past the request, a
//! received frame, an exchange's worker output, a retained intermediate —
//! leave through one cut, [`HeldRows`], and the one leaf over held rows
//! is [`crate::LinkScanExec`].

use std::collections::VecDeque;

use dqep_storage::PageRows;

use crate::tuple::Tuple;

/// Rows the root drain asks for per pull, and the most an internal
/// consumer asks for. A request is a hard bound on the batch returned
/// (see [`crate::Operator`]).
pub const BATCH_CAPACITY: usize = 1024;

/// A batch of fixed-width rows in columnar storage.
///
/// `columns[c]` holds attribute `c` of every row, so `columns` is a
/// `width × rows` transpose of the row-major layout; `selection`, when
/// present, lists the indices of live rows in ascending order. All
/// consuming iteration goes through [`RowBatch::iter`] /
/// [`RowBatch::selected_indices`], which respect the selection vector, so
/// a filtered batch never needs compaction. Kernels that want a whole
/// attribute at once use [`RowBatch::column`].
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    width: usize,
    rows: usize,
    columns: Vec<Vec<i64>>,
    selection: Option<Vec<u32>>,
}

impl RowBatch {
    /// An empty batch of `width`-attribute rows, with storage reserved for
    /// [`BATCH_CAPACITY`] rows.
    #[must_use]
    pub fn new(width: usize) -> RowBatch {
        RowBatch::with_capacity(width, BATCH_CAPACITY)
    }

    /// An empty batch with storage reserved for `rows` rows.
    #[must_use]
    pub fn with_capacity(width: usize, rows: usize) -> RowBatch {
        RowBatch {
            width,
            rows: 0,
            columns: (0..width).map(|_| Vec::with_capacity(rows)).collect(),
            selection: None,
        }
    }

    /// The `rows` live rows of `batches` as one dense batch: the one batch
    /// itself when it already is one, else a copy of exactly those rows.
    pub(crate) fn dense(mut batches: Vec<RowBatch>, width: usize, rows: usize) -> RowBatch {
        if let [only] = &mut batches[..] {
            if only.selection.is_none() {
                return std::mem::take(only);
            }
        }
        let mut out = RowBatch::with_capacity(width, rows);
        batches.iter().for_each(|batch| out.extend_from_live(batch, 0..batch.len()));
        out
    }

    /// A dense batch of `width`-attribute rows whose value vectors are
    /// `columns`, uncopied: what [`SpillFile::read`] hands over. A file no
    /// row was written to has no columns, and gets `width` empty ones.
    ///
    /// # Panics
    /// Panics if the columns are ragged or more than `width`.
    ///
    /// [`SpillFile::read`]: dqep_storage::SpillFile::read
    pub(crate) fn from_columns(width: usize, mut columns: Vec<Vec<i64>>) -> RowBatch {
        assert!(columns.len() <= width, "{} columns for rows of {width}", columns.len());
        let rows = columns.first().map_or(0, Vec::len);
        columns.resize_with(width, Vec::new);
        assert!(columns.iter().all(|col| col.len() == rows), "ragged columns");
        RowBatch { width, rows, columns, selection: None }
    }

    /// Appends rows of a file — a page, or a stretch of pages — column
    /// slice by column slice.
    pub(crate) fn extend_from_page(&mut self, page: PageRows<'_>) {
        self.extend_rows_with(page.rows(), |cols| {
            cols.iter_mut().zip(page.columns()).for_each(|(col, from)| col.extend_from_slice(from));
        });
    }

    /// Attributes per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Physical rows stored (ignoring the selection vector).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Live rows (respecting the selection vector).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    /// Whether no live rows remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selection vector, if one was applied.
    #[must_use]
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref()
    }

    /// The value vector of attribute `c`: one entry per **physical** row.
    /// Kernels pair it with [`RowBatch::selection`] to skip dead rows.
    ///
    /// # Panics
    /// Panics if `c >= width`.
    #[must_use]
    pub fn column(&self, c: usize) -> &[i64] {
        &self.columns[c]
    }

    /// All value vectors, one per attribute (see [`RowBatch::column`]).
    pub(crate) fn columns(&self) -> &[Vec<i64>] {
        &self.columns
    }

    /// Gives the value vectors up, uncopied (one entry per physical row;
    /// the selection vector is dropped).
    pub(crate) fn into_columns(self) -> Vec<Vec<i64>> {
        self.columns
    }

    /// Appends one row. The batch grows past [`BATCH_CAPACITY`] if pushed
    /// to — capacity is a fill target, not a hard limit.
    ///
    /// # Panics
    /// Panics if `row.len() != width`.
    pub fn push_row(&mut self, row: &[i64]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        debug_assert!(self.selection.is_none(), "push into a filtered batch");
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Appends `n` rows whose values the producer writes straight into the
    /// column vectors (a scan copying a page's column slices, a join
    /// gathering match pairs). The closure must extend **every** column by
    /// exactly `n` values; this is checked in debug builds.
    pub fn extend_rows_with(&mut self, n: usize, f: impl FnOnce(&mut [Vec<i64>])) {
        debug_assert!(self.selection.is_none(), "push into a filtered batch");
        f(&mut self.columns);
        self.rows += n;
        debug_assert!(
            self.columns.iter().all(|c| c.len() == self.rows),
            "extend_rows_with left ragged columns"
        );
    }

    /// Appends live rows number `live.start..live.end` of `src` (positions
    /// among its live rows, not physical indices) column by column,
    /// compacting its selection vector away.
    ///
    /// # Panics
    /// Panics if the range reaches past `src.len()` or the widths differ.
    pub fn extend_from_live(&mut self, src: &RowBatch, live: std::ops::Range<usize>) {
        assert_eq!(src.width, self.width, "row width mismatch");
        self.extend_rows_with(live.len(), |cols| match &src.selection {
            None => {
                for (col, from) in cols.iter_mut().zip(&src.columns) {
                    col.extend_from_slice(&from[live.clone()]);
                }
            }
            Some(sel) => {
                for (col, from) in cols.iter_mut().zip(&src.columns) {
                    col.extend(sel[live.clone()].iter().map(|&i| from[i as usize]));
                }
            }
        });
    }

    /// Cuts the batch after its first `at` live rows (`0 < at < len()`):
    /// they stay in this batch's own column buffers — under the first `at`
    /// entries of its selection vector, if it has one — and the live rows
    /// past them are returned as a dense copy, the only rows copied.
    pub(crate) fn split_off(&mut self, at: usize) -> RowBatch {
        debug_assert!(0 < at && at < self.len(), "cut at {at} of {} live rows", self.len());
        let Some(sel) = &self.selection else {
            let columns = self.columns.iter_mut().map(|col| col.split_off(at)).collect();
            let rows = std::mem::replace(&mut self.rows, at) - at;
            return RowBatch { width: self.width, rows, columns, selection: None };
        };
        let live = sel.len();
        let mut rest = RowBatch::with_capacity(self.width, live - at);
        rest.extend_from_live(self, at..live);
        if let Some(sel) = &mut self.selection {
            sel.truncate(at);
        }
        rest
    }

    /// Copies the `i`-th physical row (selection vector not applied) into
    /// `out`, appending `width` values.
    ///
    /// # Panics
    /// Panics if `i >= rows()`.
    pub fn gather_row_into(&self, i: usize, out: &mut Vec<i64>) {
        assert!(i < self.rows, "row index out of range");
        out.extend(self.columns.iter().map(|col| col[i]));
    }

    /// The `i`-th physical row as an owned tuple (selection vector not
    /// applied). Gathers across the columns; kernels should prefer
    /// [`RowBatch::column`].
    ///
    /// # Panics
    /// Panics if `i >= rows()`.
    #[must_use]
    pub fn row_vec(&self, i: usize) -> Tuple {
        let mut out = Vec::with_capacity(self.width);
        self.gather_row_into(i, &mut out);
        out
    }

    /// Restricts the batch to the rows whose physical indices are in
    /// `sel` (ascending). Composes with an existing selection: indices are
    /// interpreted as physical row numbers either way.
    pub fn set_selection(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection unsorted");
        self.selection = Some(sel);
    }

    /// The physical index of live row number `live`.
    pub(crate) fn physical(&self, live: usize) -> usize {
        self.selection.as_ref().map_or(live, |sel| sel[live] as usize)
    }

    /// Physical indices of the live rows, in order.
    pub fn selected_indices(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.len()).map(|i| self.physical(i))
    }

    /// Iterates the live rows as owned tuples (gathering across columns).
    pub fn iter(&self) -> RowBatchIter<'_> {
        RowBatchIter { batch: self, pos: 0 }
    }

    /// Copies the live rows out as owned tuples (interop with the tuple
    /// path; used by tests and `drain`-style collectors).
    #[must_use]
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().collect()
    }

    /// Clears all rows and the selection vector, keeping the allocations.
    pub fn clear(&mut self) {
        for col in &mut self.columns {
            col.clear();
        }
        self.rows = 0;
        self.selection = None;
    }
}

/// Rows an operator holds and hands out `max_rows` at a time, the
/// module's one cut of held rows: a queue of owned batches. A batch whose
/// live rows fit the request leaves by move; one of up to twice the
/// request leaves its first `max_rows` live rows by move and keeps only
/// the rest, as a copy ([`RowBatch::split_off`]); a larger one would copy
/// its rest again at every cut, so it leaves in copies of `max_rows` live
/// rows from a position instead. So every slice lies within one batch
/// pushed, and a drain never copies more rows than it hands out.
#[derive(Debug, Default)]
pub(crate) struct HeldRows {
    batches: VecDeque<RowBatch>,
    /// Live rows of the front batch already handed out in copies.
    served: usize,
}

impl HeldRows {
    /// Queues `batch`; one with no live rows is dropped.
    pub(crate) fn push(&mut self, batch: RowBatch) {
        if !batch.is_empty() {
            self.batches.push_back(batch);
        }
    }

    /// Live rows not yet handed out.
    pub(crate) fn remaining(&self) -> usize {
        self.batches.iter().map(RowBatch::len).sum::<usize>() - self.served
    }

    /// The next at most `max_rows` (at least one) live rows, from the
    /// front batch alone; `None` when nothing is held.
    pub(crate) fn next_slice(&mut self, max_rows: usize) -> Option<RowBatch> {
        if self.served == 0 {
            let batch = self.batches.pop_front()?;
            return self.cut(batch, max_rows);
        }
        self.copy_front(max_rows)
    }

    /// The first `max_rows` (at least one) live rows of `batch` — all of
    /// it, by move, when they fit — holding the rest in front of any rows
    /// held; `None` when it has none: how a producer hands out a batch it
    /// just made without queueing it.
    pub(crate) fn cut(&mut self, mut batch: RowBatch, max_rows: usize) -> Option<RowBatch> {
        let rest = batch.len().saturating_sub(max_rows);
        if rest > max_rows {
            self.batches.push_front(batch);
            return self.copy_front(max_rows);
        }
        if rest > 0 {
            self.batches.push_front(batch.split_off(max_rows));
        }
        (!batch.is_empty()).then_some(batch)
    }

    /// A copy of the front batch's next `max_rows` live rows: a rare path.
    #[cold]
    fn copy_front(&mut self, max_rows: usize) -> Option<RowBatch> {
        let front = self.batches.front()?;
        let take = max_rows.min(front.len() - self.served);
        let mut out = RowBatch::with_capacity(front.width(), take);
        out.extend_from_live(front, self.served..self.served + take);
        self.served += take;
        if self.served == front.len() {
            self.batches.pop_front();
            self.served = 0;
        }
        Some(out)
    }
}

/// Iterator over a batch's live rows, yielding owned tuples.
#[derive(Debug)]
pub struct RowBatchIter<'a> {
    batch: &'a RowBatch,
    /// Position within the selection vector, or the physical row index
    /// when no selection is set.
    pos: usize,
}

impl Iterator for RowBatchIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let idx = match &self.batch.selection {
            Some(sel) => *sel.get(self.pos)? as usize,
            None => {
                if self.pos >= self.batch.rows {
                    return None;
                }
                self.pos
            }
        };
        self.pos += 1;
        Some(self.batch.row_vec(idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.batch.len().saturating_sub(self.pos);
        (remaining, Some(remaining))
    }
}

impl<'a> IntoIterator for &'a RowBatch {
    type Item = Tuple;
    type IntoIter = RowBatchIter<'a>;

    fn into_iter(self) -> RowBatchIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use proptest::{prop_assert, prop_assert_eq};

    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut b = RowBatch::new(2);
        b.push_row(&[1, 2]);
        b.push_row(&[3, 4]);
        b.push_row(&[5, 6]);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row_vec(1), vec![3, 4]);
        assert_eq!(b.column(0), &[1, 3, 5]);
        assert_eq!(b.column(1), &[2, 4, 6]);
        let all: Vec<_> = b.iter().collect();
        assert_eq!(all, vec![vec![1i64, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(b.to_tuples(), vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn selection_vector_filters_iteration() {
        let mut b = RowBatch::new(1);
        for v in 0..6 {
            b.push_row(&[v]);
        }
        b.set_selection(vec![0, 2, 5]);
        assert_eq!(b.rows(), 6, "physical rows unchanged");
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let live: Vec<_> = b.iter().map(|r| r[0]).collect();
        assert_eq!(live, vec![0, 2, 5]);
        assert_eq!(b.selected_indices().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(b.selection(), Some(&[0u32, 2, 5][..]));
    }

    #[test]
    fn empty_selection_is_empty() {
        let mut b = RowBatch::new(3);
        b.push_row(&[1, 2, 3]);
        b.set_selection(Vec::new());
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn clear_resets_selection_and_rows() {
        let mut b = RowBatch::new(1);
        b.push_row(&[9]);
        b.set_selection(vec![0]);
        b.clear();
        assert_eq!(b.rows(), 0);
        assert!(b.is_empty());
        assert!(b.selection().is_none());
        b.push_row(&[7]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn extend_rows_with_appends_columns() {
        let mut b = RowBatch::new(2);
        b.extend_rows_with(2, |cols| {
            cols[0].extend_from_slice(&[1, 3]);
            cols[1].extend_from_slice(&[2, 4]);
        });
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row_vec(0), vec![1, 2]);
        assert_eq!(b.column(1), &[2, 4]);
    }

    #[test]
    fn held_rows_slice_across_batches_and_selections() {
        let mut a = RowBatch::new(1);
        (0..5).for_each(|v| a.push_row(&[v]));
        a.set_selection(vec![1, 3, 4]);
        let mut b = RowBatch::new(1);
        b.set_selection(Vec::new());
        let mut c = RowBatch::new(1);
        (10..13).for_each(|v| c.push_row(&[v]));
        let mut held = HeldRows::default();
        [a, b, c].into_iter().for_each(|batch| held.push(batch));
        assert_eq!(held.remaining(), 6);
        let mut slices = Vec::new();
        while let Some(slice) = held.next_slice(2) {
            assert!(slice.len() <= 2);
            slices.push(slice.iter().map(|row| row[0]).collect::<Vec<_>>());
        }
        assert_eq!(slices, vec![vec![1, 3], vec![4], vec![10, 11], vec![12]]);
        assert_eq!(held.remaining(), 0);
    }

    /// The slicer `HeldRows` replaced, kept as the reference for slice
    /// boundaries: a position in the list of batches; a request takes the
    /// next `min(max_rows, left in the batch)` live rows of one batch,
    /// skipping batches with none left.
    fn reference_slices(batches: &[RowBatch], requests: &[usize]) -> Vec<Vec<Tuple>> {
        let (mut idx, mut pos, mut out) = (0, 0, Vec::new());
        for &max_rows in requests.iter().cycle() {
            loop {
                let Some(batch) = batches.get(idx) else { return out };
                let take = max_rows.min(batch.len() - pos);
                if take == 0 {
                    idx += 1;
                    pos = 0;
                    continue;
                }
                out.push(batch.iter().skip(pos).take(take).collect());
                pos += take;
                break;
            }
        }
        unreachable!("requests cycle")
    }

    /// Batches of `(rows, kind, seed)`: dense (kind 0), under a random
    /// selection vector (1) or under an empty one (2); values are the
    /// row's ordinal across the list and its negation. Batches that would
    /// take the list past `3 × BATCH_CAPACITY` live rows are left out.
    fn batches_of(shapes: &[(usize, u8, u64)]) -> Vec<RowBatch> {
        let (mut next, mut live, mut out) = (0i64, 0, Vec::new());
        for &(rows, kind, mut seed) in shapes {
            let mut batch = RowBatch::with_capacity(2, rows);
            (next..next + rows as i64).for_each(|v| batch.push_row(&[v, -v]));
            match kind {
                0 => {}
                1 => batch.set_selection(
                    (0..rows as u32)
                        .filter(|_| {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            seed % 3 != 0
                        })
                        .collect(),
                ),
                _ => batch.set_selection(Vec::new()),
            }
            if live + batch.len() > 3 * BATCH_CAPACITY {
                continue;
            }
            next += rows as i64;
            live += batch.len();
            out.push(batch);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Drained under any request sequence, held rows come out in
        /// order, in the reference slicer's slices. A batch that fits the
        /// request, and the head of a cut of a batch up to twice the
        /// request, leaves in its own column buffers, and such a cut keeps
        /// a copy of only the rows past the request; a larger batch leaves
        /// in dense copies. No drain copies more rows than it hands out.
        #[test]
        fn a_cut_moves_the_head_and_copies_only_the_rest(
            shapes in proptest::collection::vec(
                (1usize..=2 * BATCH_CAPACITY, 0u8..3, 1u64..u64::MAX),
                0..8,
            ),
            requests in proptest::collection::vec(1usize..=2 * BATCH_CAPACITY, 1..16),
        ) {
            let batches = batches_of(&shapes);
            let want = reference_slices(&batches, &requests);
            let mut held = HeldRows::default();
            batches.into_iter().for_each(|batch| held.push(batch));
            let (total, mut copied, mut got) = (held.remaining(), 0, Vec::new());
            for &max_rows in requests.iter().cycle() {
                let served = held.served;
                let front = held.batches.front().map(|b| (b.column(0).as_ptr(), b.len() - served));
                let Some(slice) = held.next_slice(max_rows) else { break };
                let (buffer, live) = front.expect("a slice comes from the front batch");
                prop_assert!(slice.len() <= max_rows);
                if served == 0 && live <= 2 * max_rows {
                    prop_assert_eq!(slice.column(0).as_ptr(), buffer, "moved, not copied");
                    if live > max_rows {
                        let rest = held.batches.front().expect("the rest of the cut batch");
                        prop_assert!(rest.selection().is_none());
                        prop_assert_eq!(rest.rows(), live - max_rows, "only the rest copied");
                        copied += rest.rows();
                    }
                } else {
                    prop_assert!(slice.selection().is_none());
                    copied += slice.rows();
                }
                got.push(slice.to_tuples());
            }
            prop_assert_eq!(held.remaining(), 0);
            prop_assert!(copied <= total, "{} rows copied to hand out {}", copied, total);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn gather_row_into_appends() {
        let mut b = RowBatch::new(2);
        b.push_row(&[7, 8]);
        let mut out = vec![42];
        b.gather_row_into(0, &mut out);
        assert_eq!(out, vec![42, 7, 8]);
    }

    #[test]
    fn size_hint_tracks_iteration() {
        let mut b = RowBatch::new(1);
        b.push_row(&[1]);
        b.push_row(&[2]);
        let mut it = b.iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
        it.next();
        assert_eq!(it.size_hint(), (1, Some(1)));
    }
}
