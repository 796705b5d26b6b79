//! Slotted-page layout for variable-length records.
//!
//! Layout: a 4-byte header (`n_slots: u16`, `free_end: u16`), a slot array
//! growing forward from byte 4 (each slot is `offset: u16`, `len: u16`),
//! and record bytes growing backward from the end of the page.
//!
//! Pages are filled at load and then only read: there is no delete, so
//! every slot below the count holds a record.

use std::ops::Deref;
use std::sync::Arc;

use crate::error::StorageError;
use crate::page::{PageRef, PAGE_SIZE};

const HEADER: usize = 4;
const SLOT: usize = 4;

/// An in-memory view over one slotted page's bytes, held as `B`.
///
/// The default, a [`PageRef`], *holds* the page: the bytes are shared with
/// whoever handed them over (the disk, a buffer pool), reading through the
/// view copies nothing, and [`SlottedPage::insert`] is copy-on-write — the
/// first change to a shared page clones it, a page this view owns alone
/// is changed in place. Over a `&[u8; PAGE_SIZE]` ([`PageView`]) the
/// view *borrows* the page and reads through the same methods, so there is
/// one slot walk whoever owns the bytes.
#[derive(Debug, Clone)]
pub struct SlottedPage<B = PageRef> {
    data: B,
}

/// A slotted page looked at where the disk holds it: the view a
/// [`crate::SimDisk::read_run`] visitor decodes through.
pub type PageView<'a> = SlottedPage<&'a [u8; PAGE_SIZE]>;

impl SlottedPage {
    /// A fresh, empty page.
    #[must_use]
    pub fn new() -> SlottedPage {
        let mut data = [0u8; PAGE_SIZE];
        write_u16(&mut data, 2, PAGE_SIZE as u16); // free_end
        SlottedPage { data: Arc::new(data) }
    }

    /// The longest record an empty page can hold.
    pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

    /// How many records of `len` bytes each a page holds.
    #[must_use]
    pub const fn records_per_page(len: usize) -> usize {
        (PAGE_SIZE - HEADER) / (len + SLOT)
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

    /// Inserts a record, returning its slot number, or `None` when the
    /// page is full.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] for a record that could never fit
    /// even an empty page — retrying on a fresh page cannot help, so the
    /// caller must not treat it as "page full".
    pub fn insert(&mut self, record: &[u8]) -> Result<Option<u16>, StorageError> {
        let len = record.len();
        Self::check_fits(len)?;
        if self.free_space() < len {
            return Ok(None);
        }
        let n = self.len();
        let free_end = read_u16(&self.data[..], 2) as usize;
        let off = free_end - len;
        let data = &mut Arc::make_mut(&mut self.data)[..];
        let slot_base = HEADER + n * SLOT;
        write_u16(data, slot_base, off as u16);
        write_u16(data, slot_base + 2, len as u16);
        write_u16(data, 0, (n + 1) as u16);
        write_u16(data, 2, off as u16);
        data[off..free_end].copy_from_slice(record);
        Ok(Some(n as u16))
    }
}

/// Reading: the same for a page that is held and a page that is borrowed.
impl<B: Deref<Target = [u8; PAGE_SIZE]>> SlottedPage<B> {
    /// Wraps existing page bytes, as read from disk: a [`PageRef`] to
    /// share them, a `&[u8; PAGE_SIZE]` to look at them where they lie.
    #[must_use]
    pub fn from_bytes(data: B) -> SlottedPage<B> {
        SlottedPage { data }
    }

    /// The underlying bytes (for writing back to disk).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Number of records stored.
    #[must_use]
    pub fn len(&self) -> usize {
        read_u16(&self.data[..], 0) as usize
    }

    /// Whether the page holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free bytes remaining (accounting for the slot a new record needs).
    #[must_use]
    pub fn free_space(&self) -> usize {
        let n = self.len();
        let free_end = read_u16(&self.data[..], 2) as usize;
        free_end.saturating_sub(HEADER + (n + 1) * SLOT)
    }

    /// The record in `slot`, or `None` when out of range.
    #[must_use]
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        ((slot as usize) < self.len()).then(|| self.record(slot))
    }

    /// Iterates over the records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len() as u16).map(|slot| self.record(slot))
    }

    /// The record in `slot`, which must be below [`SlottedPage::len`]:
    /// every slot of the array holds one.
    pub(crate) fn record(&self, slot: u16) -> &[u8] {
        let slot_base = HEADER + slot as usize * SLOT;
        let off = read_u16(&self.data[..], slot_base) as usize;
        let len = read_u16(&self.data[..], slot_base + 2) as usize;
        &self.data[off..off + len]
    }
}

impl Default for SlottedPage {
    fn default() -> Self {
        SlottedPage::new()
    }
}

#[inline]
fn read_u16(data: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([data[at], data[at + 1]])
}

fn write_u16(data: &mut [u8], at: usize, v: u16) {
    data[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = SlottedPage::new();
        assert!(p.is_empty());
        let s0 = p.insert(b"hello").unwrap().unwrap();
        let s1 = p.insert(b"world!").unwrap().unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0), Some(&b"hello"[..]));
        assert_eq!(p.get(1), Some(&b"world!"[..]));
        assert_eq!(p.get(2), None);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = SlottedPage::new();
        let record = [7u8; 512];
        let mut count = 0;
        while p.insert(&record).unwrap().is_some() {
            count += 1;
        }
        // 2048-byte page, 4-byte header, 4-byte slots: 3 records of 512 fit
        // (4 * (512 + 4) + 4 > 2048).
        assert_eq!(count, 3);
        assert_eq!(SlottedPage::records_per_page(512), 3);
        assert!(p.insert(&record).unwrap().is_none());
        // Smaller records may still fit.
        assert!(p.insert(&[1u8; 100]).unwrap().is_some());
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = SlottedPage::new();
        p.insert(b"abc").unwrap().unwrap();
        p.insert(b"defg").unwrap().unwrap();
        let q = SlottedPage::from_bytes(Arc::new(*p.as_bytes()));
        let records: Vec<&[u8]> = q.iter().collect();
        assert_eq!(records, vec![&b"abc"[..], &b"defg"[..]]);
    }

    #[test]
    fn mutating_a_clone_leaves_the_shared_page_alone() {
        let mut p = SlottedPage::new();
        p.insert(b"abc").unwrap().unwrap();
        let mut q = p.clone();
        q.insert(b"defg").unwrap().unwrap();
        assert_eq!((p.len(), p.get(0), p.get(1)), (1, Some(&b"abc"[..]), None));
        assert_eq!((q.len(), q.get(0), q.get(1)), (2, Some(&b"abc"[..]), Some(&b"defg"[..])));
    }

    #[test]
    fn empty_record_allowed() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"").unwrap().unwrap();
        assert_eq!(p.get(s), Some(&b""[..]));
    }

    #[test]
    fn oversized_record_is_a_typed_error() {
        let mut p = SlottedPage::new();
        assert_eq!(
            p.insert(&[0u8; PAGE_SIZE]),
            Err(StorageError::RecordTooLarge { len: PAGE_SIZE, max: SlottedPage::MAX_RECORD })
        );
        assert!(p.is_empty(), "a refused record leaves the page untouched");
        assert!(p.insert(&[0u8; SlottedPage::MAX_RECORD]).unwrap().is_some());
    }
}
