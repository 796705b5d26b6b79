//! Heap files: unordered record storage over slotted pages.

use std::ops::ControlFlow;

use crate::disk::SimDisk;
use crate::error::StorageError;
use crate::page::PageId;
use crate::slotted::{PageView, SlottedPage};

/// A record id: page + slot. What unclustered B-trees point at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// An unordered file of records that lives as long as its disk: a base
/// table.
///
/// Loading happens through [`HeapFile::append`] (unaccounted writes — the
/// experiments measure query I/O, not load I/O); scans read pages in
/// allocation order, which the simulated disk accounts as sequential I/O.
/// Query-lifetime files — Grace partitions, sort runs — are written
/// through a [`SpillWriter`] instead.
#[derive(Debug)]
pub struct HeapFile {
    disk: SimDisk,
    pages: Vec<PageId>,
    records: u64,
    /// The tail page being filled during loading.
    tail: Option<SlottedPage>,
}

impl HeapFile {
    /// An empty heap file on `disk`.
    #[must_use]
    pub fn new(disk: SimDisk) -> HeapFile {
        HeapFile { disk, pages: Vec::new(), records: 0, tail: None }
    }

    /// Appends a record at load time (unaccounted), returning its rid.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] for a record no page can hold
    /// (nothing is appended).
    pub fn append(&mut self, record: &[u8]) -> Result<Rid, StorageError> {
        SlottedPage::check_fits(record.len())?;
        loop {
            let mut tail = match self.tail.take() {
                Some(t) => t,
                None => {
                    self.pages.push(self.disk.allocate());
                    SlottedPage::new()
                }
            };
            if let Some(slot) = tail.insert(record)? {
                let page = self.pages.last().copied().unwrap_or(PageId::INVALID);
                // Written through on every record, not once when the page
                // fills: a base table has no seal, and `scan()` must see
                // the tail.
                self.disk
                    .write_unaccounted(page, tail.as_bytes().as_slice());
                self.records += 1;
                self.tail = Some(tail);
                return Ok(Rid { page, slot });
            }
            // Tail full: start a new page on the next iteration.
        }
    }

    /// Inserts a record through the **accounted** write path: the mutated
    /// page is written back with [`SimDisk::write`], so the write is
    /// charged to I/O stats and can fail under an injected fault plan.
    /// This is the query-time mutation entry point, as
    /// opposed to load-time [`HeapFile::append`].
    ///
    /// In-memory state (page list, cached tail, record count) is committed
    /// only after the disk write succeeds, so a faulted insert leaves the
    /// file exactly as it was.
    ///
    /// # Errors
    /// Page-write failures, including injected write faults;
    /// [`StorageError::RecordTooLarge`] for a record no page can hold.
    pub fn insert(&mut self, record: &[u8]) -> Result<Rid, StorageError> {
        SlottedPage::check_fits(record.len())?;
        // Fill the cached tail when the record fits.
        if let Some(tail) = &self.tail {
            if tail.free_space() >= record.len() && !self.pages.is_empty() {
                // A clone shares the tail's bytes; the insert copies them,
                // so a failed write leaves the cached tail as it was.
                let mut page = tail.clone();
                let slot = page
                    .insert(record)?
                    .unwrap_or_else(|| unreachable!("free_space said the record fits"));
                let pid = self.pages.last().copied().unwrap_or(PageId::INVALID);
                self.disk.write(pid, page.as_bytes().as_slice())?;
                self.tail = Some(page);
                self.records += 1;
                return Ok(Rid { page: pid, slot });
            }
        }
        // No tail or tail full: start a fresh page.
        let mut page = SlottedPage::new();
        let slot = page
            .insert(record)?
            .unwrap_or_else(|| unreachable!("a record that fits a page fits an empty one"));
        let pid = self.disk.allocate();
        self.disk.write(pid, page.as_bytes().as_slice())?;
        self.pages.push(pid);
        self.tail = Some(page);
        self.records += 1;
        Ok(Rid { page: pid, slot })
    }

    /// Deletes the record at `rid` (tombstoning its slot), returning the
    /// old record bytes so callers can unhook index entries. Reads and
    /// writes are **accounted** — and therefore faultable — except that a
    /// delete targeting the cached tail page reads the in-memory copy
    /// (and writes it back through the accounted path, keeping the cache
    /// and disk in sync so a later append cannot resurrect the record).
    ///
    /// # Errors
    /// Page access failures (injected faults included);
    /// [`StorageError::RecordNotFound`] when the slot is empty or already
    /// deleted. In-memory state is committed only after the disk write
    /// succeeds.
    pub fn delete(&mut self, rid: Rid) -> Result<Vec<u8>, StorageError> {
        let tail_hit = self
            .tail
            .as_ref()
            .filter(|_| self.pages.last() == Some(&rid.page));
        let is_tail = tail_hit.is_some();
        let mut page = match tail_hit {
            Some(t) => t.clone(),
            None => SlottedPage::from_bytes(self.disk.read(rid.page)?),
        };
        let old = page
            .get(rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or(StorageError::RecordNotFound { page: rid.page, slot: rid.slot })?;
        page.delete(rid.slot);
        self.disk.write(rid.page, page.as_bytes().as_slice())?;
        if is_tail {
            self.tail = Some(page);
        }
        self.records -= 1;
        Ok(old)
    }

    /// Number of live records.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Number of data pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page ids in scan order.
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Fetches a single record by rid (one accounted page read).
    ///
    /// # Errors
    /// Propagates page-read failures (unallocated page, injected fault);
    /// [`StorageError::RecordNotFound`] if the slot is empty.
    pub fn fetch(&self, rid: Rid) -> Result<Vec<u8>, StorageError> {
        self.fetch_with(rid, <[u8]>::to_vec)
    }

    /// Like [`HeapFile::fetch`], but hands the record to `f` where it lies
    /// in the page instead of copying it out.
    ///
    /// # Errors
    /// As [`HeapFile::fetch`].
    pub fn fetch_with<T>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> T) -> Result<T, StorageError> {
        let page = SlottedPage::from_bytes(self.disk.read(rid.page)?);
        page.get(rid.slot)
            .map(f)
            .ok_or(StorageError::RecordNotFound { page: rid.page, slot: rid.slot })
    }

    /// Page-at-a-time scan: one accounted (sequential) read per page, in
    /// page order, each handed out as a view that shares the disk's
    /// buffer — consumers decode records straight out of the page. A page
    /// whose read fails yields one `Err` and the scan moves on; callers
    /// typically stop at the first error.
    pub fn scan_pages(&self) -> impl Iterator<Item = Result<SlottedPage, StorageError>> + '_ {
        self.pages.iter().map(|&pid| self.disk.read(pid).map(SlottedPage::from_bytes))
    }

    /// Full scan: iterates all records in page order, copying each out
    /// (I/O as [`HeapFile::scan_pages`]).
    pub fn scan(&self) -> impl Iterator<Item = Result<Vec<u8>, StorageError>> + '_ {
        self.scan_pages().flat_map(|page| match page {
            Ok(page) => page.iter().map(|r| Ok(r.to_vec())).collect(),
            Err(e) => vec![Err(e)],
        })
    }

    /// Like [`HeapFile::scan`], but yields each record together with its
    /// rid — the locate pass of value-addressed deletes.
    pub fn scan_with_rids(
        &self,
    ) -> impl Iterator<Item = Result<(Rid, Vec<u8>), StorageError>> + '_ {
        self.pages.iter().flat_map(move |&pid| match self.disk.read(pid) {
            Ok(bytes) => {
                let page = SlottedPage::from_bytes(bytes);
                (0..page.len() as u16)
                    .filter_map(|slot| {
                        page.get(slot)
                            .map(|r| Ok((Rid { page: pid, slot }, r.to_vec())))
                    })
                    .collect::<Vec<_>>()
            }
            Err(e) => vec![Err(e)],
        })
    }

    /// The disk this file lives on.
    #[must_use]
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }
}

/// The write half of a query-lifetime file of fixed-width rows — a Grace
/// partition, a sort run. The page being filled lives *here*, owned by the
/// writer alone: a row is written into it in place from its values, and a
/// full page — and the last one at [`SpillWriter::finish`] — reaches the
/// disk once, by move. The file can be read only after `finish` has
/// sealed it, which is why reading is [`SpillFile`]'s and not this type's:
///
/// ```compile_fail
/// let writer = dqep_storage::SpillWriter::charged(dqep_storage::SimDisk::new(), 16);
/// let _ = writer.scan_pages(); // an unsealed file has no read path
/// ```
///
/// What the disk observes is what an append per encoded record would
/// show: a page id is allocated when the page's first row arrives, and a
/// charged writer accounts one write per page — when the next row finds
/// the page full, and for the last page at `finish` — so write ordinals,
/// and with them injected faults, fall on the same rows.
///
/// Dropping the writer, sealed or not, gives its pages back to the disk.
#[derive(Debug)]
pub struct SpillWriter {
    file: SpillFile,
    record_len: usize,
    /// The page being filled; its id is the file's last.
    tail: Option<SlottedPage>,
    /// Whether a finished page charges a disk write (Grace partitions do;
    /// the sort settles a run's charges itself, in one sweep it can
    /// spread over workers).
    charged: bool,
}

impl SpillWriter {
    /// A writer of `record_len`-byte rows that charges one write per page.
    #[must_use]
    pub fn charged(disk: SimDisk, record_len: usize) -> SpillWriter {
        SpillWriter::with(disk, record_len, true)
    }

    /// A writer that charges nothing: the caller settles one write per
    /// page itself.
    #[must_use]
    pub fn uncharged(disk: SimDisk, record_len: usize) -> SpillWriter {
        SpillWriter::with(disk, record_len, false)
    }

    fn with(disk: SimDisk, record_len: usize, charged: bool) -> SpillWriter {
        let file = SpillFile { disk, pages: Vec::new(), records: 0 };
        SpillWriter { file, record_len, tail: None, charged }
    }

    /// Appends one row: its values little-endian at the front of a
    /// `record_len`-byte record, zeroes behind them.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] when no page can hold a row of
    /// this file (nothing is allocated or charged); an injected write
    /// fault on the charge for the page this row found full.
    pub fn append(&mut self, values: impl IntoIterator<Item = i64>) -> Result<(), StorageError> {
        let record_len = self.record_len;
        let tail = match &mut self.tail {
            Some(tail) if tail.free_space() >= record_len => tail,
            _ => self.next_page()?,
        };
        tail.insert_values(values, record_len);
        self.file.records += 1;
        Ok(())
    }

    /// Seals the full tail, if there is one, and starts the next page.
    fn next_page(&mut self) -> Result<&mut SlottedPage, StorageError> {
        SlottedPage::check_fits(self.record_len)?;
        self.seal()?;
        self.file.pages.push(self.file.disk.allocate_temp());
        Ok(self.tail.insert(SlottedPage::new()))
    }

    fn seal(&mut self) -> Result<(), StorageError> {
        match (self.tail.take(), self.file.pages.last()) {
            (Some(tail), Some(&id)) => {
                self.file.disk.seal_temp(id, tail.into_bytes(), self.charged)
            }
            _ => Ok(()),
        }
    }

    /// Seals the last page and hands the file over for reading.
    ///
    /// # Errors
    /// An injected write fault on the last page's charge; the pages are
    /// given back.
    pub fn finish(mut self) -> Result<SpillFile, StorageError> {
        self.seal()?;
        Ok(self.file)
    }
}

/// A sealed query-lifetime file: what [`SpillWriter::finish`] returns.
/// Dropping it gives its pages back to the disk, so an operator that
/// holds its spill files reclaims them on `close()`, on every `?` error
/// path and on unwinding alike, without saying so.
#[derive(Debug)]
pub struct SpillFile {
    disk: SimDisk,
    pages: Vec<PageId>,
    records: u64,
}

impl SpillFile {
    /// Number of rows.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page ids in scan order.
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Page-at-a-time scan, as [`HeapFile::scan_pages`].
    pub fn scan_pages(&self) -> impl Iterator<Item = Result<SlottedPage, StorageError>> + '_ {
        self.pages.iter().map(|&pid| self.disk.read(pid).map(SlottedPage::from_bytes))
    }

    /// Reads the file back for a reader that keeps no page: every page in
    /// scan order, accounted as [`SpillFile::scan_pages`], lent to `visit`
    /// in [`SimDisk::read_run`]s of at most `run_pages` (> 0) pages —
    /// `usize::MAX` where the reader has the disk to itself, a morsel
    /// where sibling workers read it too. Nothing `visit` calls may touch
    /// the disk.
    ///
    /// # Errors
    /// The first page read that fails; the pages before it were visited.
    pub fn read_pages(
        &self,
        run_pages: usize,
        mut visit: impl FnMut(&PageView<'_>),
    ) -> Result<(), StorageError> {
        self.pages.chunks(run_pages).try_for_each(|run| {
            self.disk.read_run(run.iter().copied(), |page| {
                visit(&PageView::from_bytes(&**page));
                ControlFlow::Continue(())
            })
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.disk.free(&self.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_scan_roundtrip() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        for i in 0..100u64 {
            heap.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(heap.record_count(), 100);
        let values: Vec<u64> = heap
            .scan()
            .map(|r| u64::from_le_bytes(r.unwrap().as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_append_is_refused_and_leaves_the_file_usable() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        heap.append(&[1u8; 100]).unwrap();
        let err = heap.append(&[0u8; 2560]).unwrap_err();
        assert_eq!(
            err,
            StorageError::RecordTooLarge { len: 2560, max: SlottedPage::MAX_RECORD }
        );
        assert_eq!((heap.record_count(), heap.page_count()), (1, 1), "nothing appended");
        heap.append(&[2u8; 100]).unwrap();
        assert_eq!(heap.scan().count(), 2);
    }

    #[test]
    fn a_spill_row_no_page_can_hold_is_refused_before_anything_happens() {
        let disk = SimDisk::new();
        let mut wide = SpillWriter::charged(disk.clone(), 2560);
        assert_eq!(
            wide.append([1, 2]).unwrap_err(),
            StorageError::RecordTooLarge { len: 2560, max: SlottedPage::MAX_RECORD }
        );
        assert_eq!((disk.page_count(), disk.stats().writes), (0, 0), "nothing allocated or charged");
        let sealed = wide.finish().unwrap();
        assert_eq!((sealed.record_count(), sealed.page_count()), (0, 0));
        // The widest row that does fit takes a page to itself.
        let mut widest = SpillWriter::charged(disk.clone(), SlottedPage::MAX_RECORD);
        widest.append([7]).unwrap();
        widest.append([8]).unwrap();
        let sealed = widest.finish().unwrap();
        // Counted after the seal: a file is readable from `finish` on.
        assert_eq!(sealed.scan_pages().map(|p| p.unwrap().iter().count()).sum::<usize>(), 2);
        assert_eq!((sealed.page_count(), disk.stats().writes), (2, 2));
    }

    #[test]
    fn the_writer_leaves_the_pages_an_append_per_encoded_record_leaves() {
        use crate::gen::encode_record;
        let rows: Vec<[i64; 3]> = (0..40).map(|i| [i, -i, i << 40]).collect();
        let (disk, reference) = (SimDisk::new(), SimDisk::new());
        let mut writer = SpillWriter::charged(disk.clone(), 300);
        let mut heap = HeapFile::new(reference.clone());
        for row in &rows {
            writer.append(*row).unwrap();
            heap.append(&encode_record(row, 300)).unwrap();
        }
        // A full page has reached the disk; the tail has not: its id
        // still refers to the shared zero page.
        let first = writer.file.pages[0];
        assert_eq!(disk.read_unaccounted(first), reference.read_unaccounted(first));
        let last = *writer.file.pages.last().unwrap();
        assert_eq!(disk.read_unaccounted(last)[..], [0u8; crate::PAGE_SIZE][..]);
        let sealed = writer.finish().unwrap();
        assert_eq!(sealed.pages(), heap.pages());
        for &pid in sealed.pages() {
            assert_eq!(disk.read_unaccounted(pid), reference.read_unaccounted(pid), "{pid}");
        }
        assert_eq!(sealed.record_count(), 40);
        assert_eq!(disk.stats().writes as usize, sealed.page_count(), "one charge a page");
    }

    #[test]
    fn temp_files_give_their_pages_back_and_permanent_files_do_not() {
        let disk = SimDisk::new();
        let mut base = HeapFile::new(disk.clone());
        for _ in 0..6 {
            base.append(&[1u8; 512]).unwrap();
        }
        let loaded = disk.page_count();
        for make in [SpillWriter::charged, SpillWriter::uncharged] {
            let mut temp = make(disk.clone(), 512);
            for i in 0..10 {
                temp.append([i]).unwrap();
            }
            let temp = temp.finish().unwrap();
            let pages = temp.pages().to_vec();
            assert_eq!(disk.temp_pages().live, 4);
            assert_eq!(temp.scan_pages().map(|p| p.unwrap().iter().count()).sum::<usize>(), 10);
            drop(temp);
            assert_eq!((disk.page_count(), disk.temp_pages().live), (loaded, 0));
            assert_eq!(disk.read(pages[0]).unwrap_err(), StorageError::UnallocatedPage(pages[0]));
        }
        // The uncharged kind charged nothing; the charged kind one write a page.
        assert_eq!(disk.stats().writes, 4);
        drop(base);
        assert_eq!(disk.page_count(), loaded, "a permanent file outlives its handle");
    }

    #[test]
    fn a_half_failed_spill_reclaims_on_drop() {
        use crate::fault::FaultPlan;
        let disk = SimDisk::new();
        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![2];
        disk.set_fault_plan(plan);
        let mut temp = SpillWriter::charged(disk.clone(), 512);
        let failed = (0..20).any(|i| temp.append([i]).is_err());
        assert!(failed && disk.temp_pages().live > 0);
        drop(temp);
        assert_eq!((disk.page_count(), disk.temp_pages().live), (0, 0));
        // A failed seal of the last page reclaims too.
        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![1];
        disk.set_fault_plan(plan);
        let mut temp = SpillWriter::charged(disk.clone(), 512);
        temp.append([1]).unwrap();
        assert!(temp.finish().unwrap_err().is_injected());
        assert_eq!((disk.page_count(), disk.temp_pages().live), (0, 0));
    }

    #[test]
    fn records_span_pages() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk);
        let record = [9u8; 512];
        for _ in 0..10 {
            heap.append(&record).unwrap();
        }
        // 3 × 512-byte records per 2 KB slotted page → 4 pages for 10.
        assert_eq!(heap.page_count(), 4);
        assert_eq!(heap.scan().count(), 10);
    }

    #[test]
    fn fetch_by_rid_charges_random_io() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        let mut rids = Vec::new();
        for i in 0..10u8 {
            rids.push(heap.append(&[i; 512]).unwrap());
        }
        disk.reset_stats();
        let rec = heap.fetch(rids[7]).unwrap();
        assert_eq!(rec[0], 7);
        assert_eq!(disk.stats().random_reads, 1);
        assert_eq!(
            heap.fetch(Rid { page: rids[0].page, slot: 99 }).unwrap_err(),
            StorageError::RecordNotFound { page: rids[0].page, slot: 99 }
        );
    }

    #[test]
    fn scan_is_sequential_io() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        for _ in 0..12 {
            heap.append(&[1u8; 512]).unwrap();
        }
        disk.reset_stats();
        let n = heap.scan().count();
        assert_eq!(n, 12);
        let stats = disk.stats();
        // First page random, rest sequential.
        assert_eq!(stats.random_reads, 1);
        assert_eq!(stats.seq_reads as usize, heap.page_count() - 1);
    }

    #[test]
    fn loading_is_unaccounted() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        for _ in 0..50 {
            heap.append(&[0u8; 100]).unwrap();
        }
        assert_eq!(disk.stats().total(), 0);
    }

    #[test]
    fn scan_surfaces_injected_faults_as_errors() {
        use crate::fault::FaultPlan;
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        for _ in 0..10 {
            heap.append(&[1u8; 512]).unwrap();
        }
        disk.set_fault_plan(FaultPlan::nth_read(2));
        let outcomes: Vec<_> = heap.scan().collect();
        assert_eq!(outcomes.iter().filter(|r| r.is_err()).count(), 1);
        assert!(outcomes[3].is_err(), "second page read (records 3..6) fails");
    }

    #[test]
    fn insert_is_accounted_and_scannable() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        for i in 0..5u64 {
            heap.append(&i.to_le_bytes()).unwrap();
        }
        disk.reset_stats();
        let rid = heap.insert(&99u64.to_le_bytes()).unwrap();
        assert_eq!(disk.stats().writes, 1, "insert charges the page write");
        assert_eq!(heap.record_count(), 6);
        assert_eq!(heap.fetch(rid).unwrap(), 99u64.to_le_bytes());
        let values: Vec<u64> = heap
            .scan()
            .map(|r| u64::from_le_bytes(r.unwrap().as_slice().try_into().unwrap()))
            .collect();
        assert!(values.contains(&99));
    }

    #[test]
    fn delete_tombstones_and_scan_skips() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        let mut rids = Vec::new();
        for i in 0..10u64 {
            rids.push(heap.append(&i.to_le_bytes()).unwrap());
        }
        let old = heap.delete(rids[4]).unwrap();
        assert_eq!(old, 4u64.to_le_bytes());
        assert_eq!(heap.record_count(), 9);
        assert_eq!(heap.scan().count(), 9);
        // Double delete reports RecordNotFound.
        assert!(matches!(
            heap.delete(rids[4]),
            Err(StorageError::RecordNotFound { .. })
        ));
        // Deleting on the tail page keeps cache and disk consistent: a
        // subsequent append must not resurrect the record.
        let last = *rids.last().unwrap();
        heap.delete(last).unwrap();
        heap.append(&77u64.to_le_bytes()).unwrap();
        let values: Vec<u64> = heap
            .scan()
            .map(|r| u64::from_le_bytes(r.unwrap().as_slice().try_into().unwrap()))
            .collect();
        assert!(!values.contains(&9), "tail delete survives the next append");
        assert!(values.contains(&77));
    }

    #[test]
    fn faulted_insert_leaves_state_unchanged() {
        use crate::fault::FaultPlan;
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone());
        for i in 0..5u64 {
            heap.append(&i.to_le_bytes()).unwrap();
        }
        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![1];
        disk.set_fault_plan(plan);
        assert!(heap.insert(&42u64.to_le_bytes()).is_err());
        disk.set_fault_plan(FaultPlan::none());
        assert_eq!(heap.record_count(), 5, "failed insert not committed");
        assert_eq!(heap.scan().count(), 5);
    }

    #[test]
    fn temp_append_fails_on_injected_write_fault() {
        use crate::fault::FaultPlan;
        let disk = SimDisk::new();
        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![1];
        disk.set_fault_plan(plan);
        let mut temp = SpillWriter::charged(disk, 512);
        // Three 512-byte rows fill a page: the fourth finds it full, and
        // the charge for it is the write that fails.
        let failed_at = (0..10).position(|i| temp.append([i]).is_err());
        assert_eq!(failed_at, Some(3), "first page-seal write should fail");
    }
}
