//! The one row layout: a file of fixed-width rows keeps them as columns,
//! one `Vec<i64>` per attribute, beside the disk, which holds only the
//! file's page ids. Page `k` is rows `k·r .. (k + 1)·r`, `r` =
//! [`records_per_page`]`(record_len)`: as many rows as a slotted page held
//! records of the file's length, so page counts, record ids and page
//! charges are the slotted layout's. A reader accounts for a page with a
//! disk read and then reads its rows here, as column slices
//! ([`PageRows`]) or one row at a time ([`Row`]).

use crate::error::StorageError;
use crate::page::PAGE_SIZE;

/// The longest record a page holds, one a page.
pub const MAX_RECORD: usize = PAGE_SIZE - 8;

/// How many records of `len` bytes each a page holds: as many as a
/// slotted page with a 4-byte header and a 4-byte slot a record did.
#[must_use]
pub const fn records_per_page(len: usize) -> usize {
    (PAGE_SIZE - 4) / (len + 4)
}

/// Whether a record of `len` bytes can fit a page at all.
///
/// # Errors
/// [`StorageError::RecordTooLarge`] if not even an empty page holds it.
pub fn check_fits(len: usize) -> Result<(), StorageError> {
    if len > MAX_RECORD {
        return Err(StorageError::RecordTooLarge { len, max: MAX_RECORD });
    }
    Ok(())
}

/// Consecutive rows of a file — one page, or a stretch of pages — as
/// column slices: what a reader copies out after the disk has accounted
/// for the pages.
#[derive(Debug, Clone, Copy)]
pub struct PageRows<'a> {
    columns: &'a [Vec<i64>],
    lo: usize,
    hi: usize,
}

impl<'a> PageRows<'a> {
    /// Rows `lo .. hi` of `columns`.
    pub(crate) fn new(columns: &'a [Vec<i64>], lo: usize, hi: usize) -> PageRows<'a> {
        PageRows { columns, lo, hi }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.hi - self.lo
    }

    /// Each attribute of the rows, in order: one value a row.
    pub fn columns(self) -> impl Iterator<Item = &'a [i64]> {
        let (lo, hi) = (self.lo, self.hi);
        self.columns.iter().map(move |col| &col[lo..hi])
    }

    /// Rows `from .. from + max_rows` of these, as far as there are any.
    #[must_use]
    pub fn slice(self, from: usize, max_rows: usize) -> PageRows<'a> {
        let lo = self.hi.min(self.lo + from);
        PageRows { hi: self.hi.min(lo.saturating_add(max_rows)), lo, ..self }
    }

    /// Row `i` of these, or `None` past the last.
    #[must_use]
    pub fn row(&self, i: usize) -> Option<Row<'a>> {
        (i < self.rows()).then(|| Row { columns: self.columns, at: self.lo + i })
    }

    /// The rows in order.
    pub fn iter(self) -> impl Iterator<Item = Row<'a>> {
        (self.lo..self.hi).map(move |at| Row { columns: self.columns, at })
    }
}

/// One row of a file, read from its columns: what a record id fetch
/// hands out.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    columns: &'a [Vec<i64>],
    at: usize,
}

impl Row<'_> {
    /// Attribute `attr` of the row.
    ///
    /// # Panics
    /// Panics when the row has no attribute `attr`.
    #[must_use]
    #[inline]
    pub fn value(&self, attr: usize) -> i64 {
        self.columns[attr][self.at]
    }

    /// Appends the row's leading `cols.len()` values to the columns:
    /// attribute `c` to `cols[c]`.
    ///
    /// # Panics
    /// Panics when given more columns than the row has values.
    #[inline]
    pub fn push_into(&self, cols: &mut [Vec<i64>]) {
        assert!(
            cols.len() <= self.columns.len(),
            "{} columns of a {}-wide row",
            cols.len(),
            self.columns.len()
        );
        for (col, from) in cols.iter_mut().zip(self.columns) {
            col.push(from[self.at]);
        }
    }

    /// All of the row's values.
    #[must_use]
    pub fn to_vec(&self) -> Vec<i64> {
        self.columns.iter().map(|col| col[self.at]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_page_holds_what_a_slotted_page_held() {
        // 2048-byte page, 4-byte header, 4-byte slots: 3 records of 512
        // (4 × (512 + 4) + 4 > 2048), 7 of 256.
        assert_eq!((records_per_page(512), records_per_page(256)), (3, 7));
        assert_eq!((records_per_page(MAX_RECORD), records_per_page(MAX_RECORD + 1)), (1, 0));
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        assert_eq!(
            check_fits(PAGE_SIZE),
            Err(StorageError::RecordTooLarge { len: PAGE_SIZE, max: MAX_RECORD })
        );
        assert!(check_fits(MAX_RECORD).is_ok());
    }

    #[test]
    fn rows_read_as_slices_and_one_at_a_time() {
        let columns = vec![vec![1, 2, 3, 4], vec![-1, -2, -3, -4]];
        let rows = PageRows::new(&columns, 1, 4);
        assert_eq!(rows.rows(), 3);
        assert_eq!(rows.columns().collect::<Vec<_>>(), [&[2, 3, 4][..], &[-2, -3, -4][..]]);
        let mid = rows.slice(1, 1);
        assert_eq!(mid.columns().collect::<Vec<_>>(), [&[3][..], &[-3][..]]);
        assert_eq!((rows.slice(2, usize::MAX).rows(), rows.slice(9, 1).rows()), (1, 0));
        assert_eq!(rows.row(2).map(|row| row.to_vec()), Some(vec![4, -4]));
        assert!(rows.row(3).is_none());
        assert_eq!(rows.iter().map(|row| row.value(1)).collect::<Vec<_>>(), [-2, -3, -4]);
        let mut cols = vec![Vec::new()];
        rows.row(0).unwrap().push_into(&mut cols);
        assert_eq!(cols, [[2]]);
    }
}
