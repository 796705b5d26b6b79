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

/// A finished columnar result — a join's output, a received frame —
/// handed out in `max_rows` slices of its live rows.
#[derive(Debug, Default)]
pub(crate) struct ColStream {
    batch: RowBatch,
    pos: usize,
}

impl ColStream {
    pub(crate) fn new(batch: RowBatch) -> ColStream {
        ColStream { batch, pos: 0 }
    }

    /// Rows not yet handed out.
    pub(crate) fn remaining(&self) -> usize {
        self.batch.len() - self.pos
    }

    pub(crate) fn next_slice(&mut self, max_rows: usize) -> Option<RowBatch> {
        let take = max_rows.min(self.remaining());
        if take == 0 {
            return None;
        }
        if take == self.batch.len() {
            // The whole result fits one request: hand it over uncopied.
            return Some(std::mem::take(self).batch);
        }
        let lo = self.pos;
        self.pos += take;
        let mut out = RowBatch::with_capacity(self.batch.width(), take);
        out.extend_from_live(&self.batch, lo..lo + take);
        Some(out)
    }
}

/// A position in a list of batches that is handed out in `max_rows`
/// slices: how an exchange serves what its workers produced and a
/// materialized scan a retained intermediate. A slice is a dense copy:
/// the list may be shared between readers, and selection vectors are
/// compacted away.
#[derive(Debug, Default)]
pub(crate) struct BatchCursor {
    /// The batch being handed out.
    idx: usize,
    /// Live rows of it already handed out.
    pos: usize,
}

impl BatchCursor {
    /// Live rows not yet handed out.
    pub(crate) fn remaining(&self, batches: &[RowBatch]) -> usize {
        let ahead: usize = batches.iter().skip(self.idx).map(RowBatch::len).sum();
        ahead - self.pos
    }

    pub(crate) fn next_slice(&mut self, batches: &[RowBatch], max_rows: usize) -> Option<RowBatch> {
        loop {
            let batch = batches.get(self.idx)?;
            let take = max_rows.min(batch.len() - self.pos);
            if take == 0 {
                self.idx += 1;
                self.pos = 0;
                continue;
            }
            let mut out = RowBatch::with_capacity(batch.width(), take);
            out.extend_from_live(batch, self.pos..self.pos + take);
            self.pos += take;
            return Some(out);
        }
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
    fn batch_cursor_slices_across_batches_and_selections() {
        let mut a = RowBatch::new(1);
        (0..5).for_each(|v| a.push_row(&[v]));
        a.set_selection(vec![1, 3, 4]);
        let mut b = RowBatch::new(1);
        b.set_selection(Vec::new());
        let mut c = RowBatch::new(1);
        (10..13).for_each(|v| c.push_row(&[v]));
        let batches = [a, b, c];
        let mut cursor = BatchCursor::default();
        assert_eq!(cursor.remaining(&batches), 6);
        let mut slices = Vec::new();
        while let Some(slice) = cursor.next_slice(&batches, 2) {
            assert!(slice.selection().is_none() && slice.rows() <= 2);
            slices.push(slice.column(0).to_vec());
        }
        assert_eq!(slices, vec![vec![1, 3], vec![4], vec![10, 11], vec![12]]);
        assert_eq!(cursor.remaining(&batches), 0);
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
