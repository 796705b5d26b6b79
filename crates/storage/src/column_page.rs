//! Column pages (PAX): a base-table page keeps each attribute's values
//! together. An 8-byte header (`rows`, `capacity`, `width`: `u16`s), then
//! one *minipage* of `capacity` little-endian `i64`s per attribute: value
//! `slot` of attribute `attr` lies at byte `8 + 8 × (attr × capacity +
//! slot)`. A page holds as many rows as a slotted page held records of the
//! file's length ([`ColumnPage::records_per_page`]), so page counts, record
//! ids and page charges are the slotted layout's; the bytes a record padded
//! its values to are not stored. Pages are filled at load and then only
//! read: every slot below the count holds a row.

use std::ops::Deref;
use std::sync::Arc;

use crate::error::StorageError;
use crate::page::{PageRef, PAGE_SIZE};

const HEADER: usize = 8;

/// A view over one column page's bytes, held as `B`: the default, a
/// [`PageRef`], *holds* the page, shared with whoever handed it over, and
/// [`ColumnPage::push`] is copy-on-write; over a `&[u8; PAGE_SIZE]`
/// ([`PageView`]) the view *borrows* it. One read path whoever owns the
/// bytes.
#[derive(Debug, Clone)]
pub struct ColumnPage<B = PageRef> {
    data: B,
}

/// A column page looked at where the disk holds it: the view a
/// [`crate::SimDisk::read_run`] visitor reads through.
pub type PageView<'a> = ColumnPage<&'a [u8; PAGE_SIZE]>;

impl ColumnPage {
    /// A fresh, empty page for rows of `width` values that take
    /// `record_len` bytes each as records: it holds
    /// [`ColumnPage::records_per_page`]`(record_len)` of them (none for a
    /// record no page holds).
    ///
    /// # Panics
    /// Panics when a `record_len`-byte record has no room for `width`
    /// values.
    #[must_use]
    pub fn new(record_len: usize, width: usize) -> ColumnPage {
        assert!(width * 8 <= record_len, "a {record_len}-byte record holds fewer than {width} values");
        let mut data = [0u8; PAGE_SIZE];
        write_u16(&mut data, 2, Self::records_per_page(record_len) as u16);
        write_u16(&mut data, 4, width as u16);
        ColumnPage { data: Arc::new(data) }
    }

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
        if len > Self::MAX_RECORD {
            return Err(StorageError::RecordTooLarge { len, max: Self::MAX_RECORD });
        }
        Ok(())
    }

    /// Adds a row, returning its slot number, or `None` when the page is
    /// full.
    ///
    /// # Panics
    /// Panics on a row of other than [`ColumnPage::width`] values.
    pub fn push(&mut self, values: &[i64]) -> Option<u16> {
        assert_eq!(values.len(), self.width(), "row arity");
        let (slot, capacity) = (self.len(), self.capacity());
        if slot == capacity {
            return None;
        }
        let data = &mut Arc::make_mut(&mut self.data)[..];
        for (attr, v) in values.iter().enumerate() {
            let at = HEADER + 8 * (attr * capacity + slot);
            data[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        write_u16(data, 0, (slot + 1) as u16);
        Some(slot as u16)
    }
}

/// Reading: the same for a page that is held and a page that is borrowed.
impl<B: Deref<Target = [u8; PAGE_SIZE]>> ColumnPage<B> {
    /// Wraps existing page bytes, as read from disk: a [`PageRef`] to
    /// share them, a `&[u8; PAGE_SIZE]` to look at them where they lie.
    #[must_use]
    pub fn from_bytes(data: B) -> ColumnPage<B> {
        ColumnPage { data }
    }

    /// The underlying bytes (for writing back to disk).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Number of rows stored.
    #[must_use]
    pub fn len(&self) -> usize {
        read_u16(&self.data[..], 0)
    }

    /// Whether the page holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many rows the page holds when full: the length of a minipage.
    #[must_use]
    pub fn capacity(&self) -> usize {
        read_u16(&self.data[..], 2)
    }

    /// Values a row: the number of minipages.
    #[must_use]
    pub fn width(&self) -> usize {
        read_u16(&self.data[..], 4)
    }

    /// The row in `slot`, read where it lies, or `None` past the last row.
    #[must_use]
    pub fn row(&self, slot: u16) -> Option<Row<'_>> {
        let slot = usize::from(slot);
        (slot < self.len()).then(|| Row {
            page: &self.data,
            at: HEADER + 8 * slot,
            stride: 8 * self.capacity(),
            width: self.width(),
        })
    }

    /// The rows in slot order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.len() as u16).filter_map(|slot| self.row(slot))
    }

    /// Copies the rows from slot `from` on into columns — attribute `c`
    /// onto `cols[c]`, for every column given — stopping after `max_rows`
    /// of them: returns how many were copied, `n = min(rows − from,
    /// max_rows)`, and the slot to resume at, `from + n` (the page's row
    /// count once it is used up). A scan carries the rest of a page over
    /// to its next batch as a page reference and this slot.
    ///
    /// Every column is a run of its minipage, copied with one bounds
    /// check and one capacity check for its `n` values — on pages of three
    /// rows too, where a copy row by row, a capacity check a value, was
    /// slower.
    ///
    /// # Panics
    /// Panics when given more columns than the page's rows have values.
    #[inline]
    pub fn read_into(&self, from: u16, max_rows: usize, cols: &mut [Vec<i64>]) -> (usize, u16) {
        assert!(cols.len() <= self.width(), "{} columns of a {}-wide page", cols.len(), self.width());
        let (from, capacity) = (usize::from(from), self.capacity());
        let n = self.len().saturating_sub(from).min(max_rows);
        for (attr, col) in cols.iter_mut().enumerate() {
            let start = HEADER + 8 * (attr * capacity + from);
            col.extend(self.data[start..start + 8 * n].chunks_exact(8).map(|value| le_i64(value, 0)));
        }
        (n, (from + n) as u16)
    }
}

/// One row of a column page, read where it lies: what a record id fetch
/// hands out.
#[derive(Debug, Clone, Copy)]
pub struct Row<'p> {
    page: &'p [u8; PAGE_SIZE],
    /// Byte offset of the row's first value.
    at: usize,
    /// Bytes from one minipage to the next.
    stride: usize,
    width: usize,
}

impl Row<'_> {
    /// Attribute `attr` of the row.
    ///
    /// # Panics
    /// Panics when the row has no attribute `attr`.
    #[must_use]
    #[inline]
    pub fn value(&self, attr: usize) -> i64 {
        assert!(attr < self.width, "attribute {attr} of a {}-wide row", self.width);
        le_i64(self.page, self.at + attr * self.stride)
    }

    /// Appends the row's leading `cols.len()` values to the columns:
    /// attribute `c` to `cols[c]`.
    ///
    /// # Panics
    /// Panics when given more columns than the row has values.
    #[inline]
    pub fn push_into(&self, cols: &mut [Vec<i64>]) {
        for (attr, col) in cols.iter_mut().enumerate() {
            col.push(self.value(attr));
        }
    }

    /// All of the row's values.
    #[must_use]
    pub fn to_vec(&self) -> Vec<i64> {
        (0..self.width).map(|attr| self.value(attr)).collect()
    }
}

/// The little-endian `i64` at byte `at` of `bytes`.
// `#[inline]` here and on the readers above: they are generic over who
// holds the bytes, so they are instantiated in the calling crate, and
// without it they call back into this one once a value.
#[inline]
fn le_i64(bytes: &[u8], at: usize) -> i64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    i64::from_le_bytes(b)
}

#[inline]
fn read_u16(data: &[u8], at: usize) -> usize {
    usize::from(u16::from_le_bytes([data[at], data[at + 1]]))
}

fn write_u16(data: &mut [u8], at: usize, v: u16) {
    data[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut p = ColumnPage::new(24, 3);
        assert!(p.is_empty());
        assert_eq!(p.push(&[1, -2, 3]), Some(0));
        assert_eq!(p.push(&[i64::MIN, 0, i64::MAX]), Some(1));
        assert_eq!((p.len(), p.capacity(), p.width()), (2, ColumnPage::records_per_page(24), 3));
        assert_eq!(p.row(0).map(|r| r.to_vec()), Some(vec![1, -2, 3]));
        assert_eq!(p.row(1).map(|r| r.value(2)), Some(i64::MAX));
        assert!(p.row(2).is_none());
        let rows: Vec<Vec<i64>> = p.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, [[1, -2, 3], [i64::MIN, 0, i64::MAX]]);
    }

    #[test]
    fn fills_up_at_the_slotted_capacity() {
        // 2048-byte page, 4-byte header, 4-byte slots: 3 records of 512
        // (4 × (512 + 4) + 4 > 2048), 7 of 256.
        for (record_len, fits) in [(512, 3), (256, 7), (ColumnPage::MAX_RECORD, 1)] {
            let mut p = ColumnPage::new(record_len, 2);
            let mut count = 0;
            while p.push(&[count, -count]).is_some() {
                count += 1;
            }
            assert_eq!((count, ColumnPage::records_per_page(record_len)), (fits, fits as usize));
        }
        assert_eq!(ColumnPage::records_per_page(ColumnPage::MAX_RECORD + 1), 0);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = ColumnPage::new(16, 2);
        p.push(&[1, 2]).unwrap();
        p.push(&[3, 4]).unwrap();
        let q = ColumnPage::from_bytes(Arc::new(*p.as_bytes()));
        let view = PageView::from_bytes(q.as_bytes());
        let mut cols = vec![Vec::new(); 2];
        assert_eq!(view.read_into(0, usize::MAX, &mut cols), (2, 2));
        assert_eq!(cols, [[1, 3], [2, 4]]);
    }

    #[test]
    fn pushing_to_a_clone_leaves_the_shared_page_alone() {
        let mut p = ColumnPage::new(8, 1);
        p.push(&[1]).unwrap();
        let mut q = p.clone();
        q.push(&[2]).unwrap();
        assert_eq!((p.len(), q.len()), (1, 2));
        assert!(p.row(1).is_none());
        assert_eq!(q.row(1).map(|r| r.value(0)), Some(2));
    }

    #[test]
    fn a_row_of_no_values_takes_a_slot() {
        let mut p = ColumnPage::new(0, 0);
        assert_eq!(p.push(&[]), Some(0));
        assert_eq!(p.row(0).map(|r| r.to_vec()), Some(Vec::new()));
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        assert_eq!(
            ColumnPage::check_fits(PAGE_SIZE),
            Err(StorageError::RecordTooLarge { len: PAGE_SIZE, max: ColumnPage::MAX_RECORD })
        );
        assert!(ColumnPage::check_fits(ColumnPage::MAX_RECORD).is_ok());
        // A page for such records holds none.
        assert_eq!(ColumnPage::new(PAGE_SIZE, 1).push(&[7]), None);
    }
}
