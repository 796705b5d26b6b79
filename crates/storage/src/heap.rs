//! Heap files and query-lifetime files: fixed-width rows kept as columns,
//! the disk holding their page ids.

use std::ops::{ControlFlow, Range};

use crate::column_page::{check_fits, records_per_page, PageRows, Row};
use crate::disk::SimDisk;
use crate::error::StorageError;
use crate::page::PageId;

/// A record id: the row's page and its position in its file. What
/// unclustered B-trees point at: a fetch reads the page, then finds the
/// values at the position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// The row's position in its file, counted from 0 in load order.
    pub row: u32,
}

/// The rows of a file, one vector per column, and the page ids the disk
/// accounts for them: page `k` is rows `k·r .. (k + 1)·r`, `r` =
/// [`records_per_page`]`(record_len)`. What a heap file and a spill file
/// both are.
#[derive(Debug)]
struct Columns {
    pages: Vec<PageId>,
    record_len: usize,
    rows_per_page: usize,
    rows: usize,
    values: Vec<Vec<i64>>,
}

impl Columns {
    fn new(record_len: usize, width: usize) -> Columns {
        let values = vec![Vec::new(); width];
        Columns {
            pages: Vec::new(),
            record_len,
            rows_per_page: records_per_page(record_len),
            rows: 0,
            values,
        }
    }

    /// Whether the next row starts a page.
    fn page_full(&self) -> bool {
        self.rows == self.pages.len() * self.rows_per_page
    }

    /// The rows of pages `pages` (indexes into the page list).
    fn rows_of(&self, pages: Range<usize>) -> PageRows<'_> {
        let r = self.rows_per_page;
        let lo = self.rows.min(pages.start * r);
        PageRows::new(&self.values, lo, self.rows.min(pages.end * r).max(lo))
    }

    /// Every page in scan order, accounted one read each on `disk`, in
    /// [`SimDisk::read_run`]s of at most `run_pages` (> 0) pages, and each
    /// page's rows lent to `visit`.
    fn read_pages(
        &self,
        disk: &SimDisk,
        run_pages: usize,
        mut visit: impl FnMut(PageRows<'_>),
    ) -> Result<(), StorageError> {
        let mut next = 0;
        self.pages.chunks(run_pages).try_for_each(|run| {
            disk.read_run(run.iter().copied(), |_| {
                visit(self.rows_of(next..next + 1));
                next += 1;
                ControlFlow::Continue(())
            })
        })
    }
}

/// An unordered file of rows that lives as long as its disk: a base
/// table, its rows `width` values each, `record_len` bytes as records.
/// Page `k` is rows `k·r .. (k + 1)·r`, `r` =
/// [`records_per_page`]`(record_len)`. The rows are the file's, one vector
/// per column; the disk holds the page ids, and counts, classifies and
/// fails the reads of them.
///
/// It is written once, at load, through [`HeapFile::append`] (unaccounted
/// — the experiments measure query I/O, not load I/O), and then only read:
/// scans read pages in allocation order, which the simulated disk accounts
/// as sequential I/O. Query-lifetime files — Grace partitions, sort runs —
/// are written through a [`SpillWriter`] instead.
#[derive(Debug)]
pub struct HeapFile {
    disk: SimDisk,
    columns: Columns,
}

impl HeapFile {
    /// An empty heap file on `disk` of rows of `width` values,
    /// `record_len` bytes each as records (at least `8 × width`).
    #[must_use]
    pub fn new(disk: SimDisk, record_len: usize, width: usize) -> HeapFile {
        HeapFile { disk, columns: Columns::new(record_len, width) }
    }

    /// Appends a row at load time (unaccounted), returning its rid: a page
    /// id is allocated when the page's first row arrives.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] when no page holds a record of the
    /// file (nothing is appended).
    ///
    /// # Panics
    /// Panics on a row of other than the file's width, or wider than its
    /// records, and on a row past the `2^32` a [`Rid`] can name.
    pub fn append(&mut self, values: &[i64]) -> Result<Rid, StorageError> {
        let file = &mut self.columns;
        check_fits(file.record_len)?;
        assert_eq!(values.len(), file.values.len(), "row arity");
        assert!(
            8 * values.len() <= file.record_len,
            "a {}-byte record holds fewer than {} values",
            file.record_len,
            values.len()
        );
        let Ok(row) = u32::try_from(file.rows) else {
            panic!("a heap file holds at most 2^32 rows")
        };
        if file.page_full() {
            file.pages.push(self.disk.allocate());
        }
        file.values.iter_mut().zip(values).for_each(|(col, &v)| col.push(v));
        file.rows += 1;
        Ok(Rid { page: file.pages[file.pages.len() - 1], row })
    }

    /// Number of records.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.columns.rows as u64
    }

    /// Number of data pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.columns.pages.len()
    }

    /// The page ids in scan order.
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.columns.pages
    }

    /// The rows of page `k` (none past the last page), without a read: for
    /// a reader that accounts for it with [`SimDisk::read_run`].
    #[must_use]
    pub fn page(&self, k: usize) -> PageRows<'_> {
        self.columns.rows_of(k..k + 1)
    }

    /// The rows of the pages `pages` (indexes into [`HeapFile::pages`]), as
    /// one stretch of column slices, without a read.
    #[must_use]
    pub fn rows_of(&self, pages: Range<usize>) -> PageRows<'_> {
        self.columns.rows_of(pages)
    }

    /// The row `rid` names, without a read: for a reader that accounts for
    /// its page itself (a buffer pool). Its position gives the page it is
    /// on, `rid.row / r`, and where its values lie in the columns.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] for a row past the file's last, or
    /// a page that is not the one of this file that holds the row (a rid
    /// of another file).
    pub fn row(&self, rid: Rid) -> Result<Row<'_>, StorageError> {
        let (at, r) = (rid.row as usize, self.columns.rows_per_page);
        at.checked_div(r)
            .filter(|&k| self.pages().get(k) == Some(&rid.page))
            .and_then(|k| self.page(k).row(at % r))
            .ok_or(StorageError::RecordNotFound { page: rid.page, row: rid.row })
    }

    /// Fetches a single row's values by rid (one accounted page read).
    ///
    /// # Errors
    /// Propagates page-read failures (unallocated page, injected fault);
    /// then as [`HeapFile::row`].
    pub fn fetch(&self, rid: Rid) -> Result<Vec<i64>, StorageError> {
        self.fetch_with(rid, |row| row.to_vec())
    }

    /// Like [`HeapFile::fetch`], but hands the row to `f` where it lies in
    /// the columns instead of copying its values out.
    ///
    /// # Errors
    /// As [`HeapFile::fetch`].
    pub fn fetch_with<T>(&self, rid: Rid, f: impl FnOnce(Row<'_>) -> T) -> Result<T, StorageError> {
        self.disk.read(rid.page)?;
        self.row(rid).map(f)
    }

    /// Reads the file: every page in scan order, accounted one read each,
    /// in [`SimDisk::read_run`]s of at most `run_pages` (> 0) pages, and
    /// each page's rows lent to `visit`. Nothing `visit` calls may touch
    /// the disk.
    ///
    /// # Errors
    /// The first page read that fails; the pages before it were visited.
    pub fn read_pages(
        &self,
        run_pages: usize,
        visit: impl FnMut(PageRows<'_>),
    ) -> Result<(), StorageError> {
        self.columns.read_pages(&self.disk, run_pages, visit)
    }

    /// Full scan: iterates all rows in page order, copying each one's
    /// values out, one accounted (sequential) read a page. A page whose
    /// read fails yields one `Err` and the scan moves on; callers
    /// typically stop at the first error.
    pub fn scan(&self) -> impl Iterator<Item = Result<Vec<i64>, StorageError>> + '_ {
        self.pages().iter().enumerate().flat_map(|(k, &pid)| match self.disk.read(pid) {
            Ok(_) => self.page(k).iter().map(|row| Ok(row.to_vec())).collect(),
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
/// partition, a sort run. The rows stay with the file, one vector per
/// column, as a [`HeapFile`]'s do; the disk holds the file's page ids and
/// accounts for them as it would for pages of `record_len`-byte records.
/// Page `k` is rows `k·r .. (k + 1)·r`, `r` =
/// [`records_per_page`]`(record_len)`. The file can be read only after
/// [`SpillWriter::finish`] has sealed it, which is why reading is
/// [`SpillFile`]'s and not this type's:
///
/// ```compile_fail
/// let writer = dqep_storage::SpillWriter::charged(dqep_storage::SimDisk::new(), 16);
/// let _ = writer.read_pages(1, |_| ()); // an unsealed file has no read path
/// ```
///
/// What the disk observes is what a [`HeapFile::append`] per row would
/// show: a page id is allocated when the page's first row arrives, and a
/// charged writer accounts one write per page — when the next row finds
/// the page full, and for the last page at `finish` — so write ordinals,
/// and with them injected faults, fall on the same rows.
///
/// Dropping the writer, sealed or not, gives its pages back to the disk.
#[derive(Debug)]
pub struct SpillWriter {
    file: SpillFile,
    /// Whether the file's last page is still to be sealed.
    tail: bool,
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
        SpillWriter {
            file: SpillFile { disk, columns: Columns::new(record_len, 0) },
            tail: false,
            charged,
        }
    }

    /// Appends one row: the values a `record_len`-byte record holds at its
    /// front (the first row fixes how many; values beyond what the record
    /// holds are dropped).
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] when no page can hold a row of
    /// this file (nothing is allocated or charged); an injected write
    /// fault on the charge for the page this row found full.
    pub fn append(&mut self, values: impl IntoIterator<Item = i64>) -> Result<(), StorageError> {
        self.next_row()?;
        let file = &mut self.file.columns;
        let mut values = values.into_iter().take(file.record_len / 8);
        file.values.iter_mut().zip(values.by_ref()).for_each(|(col, v)| col.push(v));
        file.values.extend(values.map(|v| vec![v]));
        Ok(())
    }

    /// Appends rows of `columns` (row `i` is entry `i` of every column) to
    /// `writers`, in the order `rows` gives them as `(row, writer)` pairs:
    /// to the disk, [`SpillWriter::append`] of each row to its writer in
    /// turn — the same page ids, charges and faults — while each writer's
    /// columns grow once for all of its rows.
    ///
    /// # Errors
    /// As [`SpillWriter::append`], for the first row that fails: the rows
    /// before it are appended, it and the rows after it are not.
    pub fn deal(
        writers: &mut [SpillWriter],
        columns: &[Vec<i64>],
        rows: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> Result<(), StorageError> {
        // The disk's steps first, row by row; then the values.
        let mut failed = None;
        for (at, (_, w)) in rows.clone().enumerate() {
            if let Err(e) = writers[w].next_row() {
                failed = Some((at, e));
                break;
            }
        }
        for file in writers.iter_mut().map(|writer| &mut writer.file.columns) {
            let held = file.values.first().map_or(0, Vec::len);
            file.values.resize_with(columns.len().min(file.record_len / 8), Vec::new);
            file.values.iter_mut().for_each(|col| col.reserve(file.rows - held));
        }
        for (row, w) in rows.take(failed.as_ref().map_or(usize::MAX, |&(at, _)| at)) {
            for (col, from) in writers[w].file.columns.values.iter_mut().zip(columns) {
                col.push(from[row]);
            }
        }
        failed.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// The disk's steps for the next row, which is counted: when it starts
    /// a page, the check that a row fits one, the seal of the full page
    /// before it, and the new page's id.
    fn next_row(&mut self) -> Result<(), StorageError> {
        if self.file.columns.page_full() {
            check_fits(self.file.columns.record_len)?;
            self.seal()?;
            let page = self.file.disk.allocate_temp();
            self.file.columns.pages.push(page);
            self.tail = true;
        }
        self.file.columns.rows += 1;
        Ok(())
    }

    /// Charges the last page's write, once, if the writer is charged.
    fn seal(&mut self) -> Result<(), StorageError> {
        if std::mem::take(&mut self.tail) && self.charged {
            return self.file.disk.note_write();
        }
        Ok(())
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

/// A sealed query-lifetime file: what [`SpillWriter::finish`] returns. The
/// rows are the file's, one vector per column; the disk holds its page ids,
/// which count, classify and fail the reads.
///
/// Dropping it gives its pages back to the disk, so an operator that
/// holds its spill files reclaims them on `close()`, on every `?` error
/// path and on unwinding alike, without saying so.
#[derive(Debug)]
pub struct SpillFile {
    disk: SimDisk,
    columns: Columns,
}

impl SpillFile {
    /// Number of rows.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.columns.rows as u64
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.columns.pages.len()
    }

    /// The page ids in scan order.
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.columns.pages
    }

    /// The rows of page `k` (none past the last page), without a read: for
    /// a reader that accounts for it with [`SimDisk::read_run`].
    #[must_use]
    pub fn page(&self, k: usize) -> PageRows<'_> {
        self.columns.rows_of(k..k + 1)
    }

    /// Reads the file back: every page in scan order, accounted one read
    /// each, in [`SimDisk::read_run`]s of at most `run_pages` (> 0) pages —
    /// `usize::MAX` where the reader has the disk to itself, a morsel
    /// where sibling workers read it too — and each page's rows lent to
    /// `visit`. Nothing `visit` calls may touch the disk.
    ///
    /// # Errors
    /// The first page read that fails; the pages before it were visited.
    pub fn read_pages(
        &self,
        run_pages: usize,
        visit: impl FnMut(PageRows<'_>),
    ) -> Result<(), StorageError> {
        self.columns.read_pages(&self.disk, run_pages, visit)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.disk.free(&self.columns.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_lands_on_the_page_its_rid_names() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), 512, 1);
        let r = records_per_page(512);
        let rids: Vec<Rid> = (0..=r as i64 + 1).map(|i| heap.append(&[i]).unwrap()).collect();
        assert_eq!((heap.page(0).rows(), heap.page(1).rows()), (r, 2), "every row is on its page");
        assert_eq!(
            (rids[r - 1], rids[r]),
            (
                Rid { page: heap.pages()[0], row: r as u32 - 1 },
                Rid { page: heap.pages()[1], row: r as u32 }
            )
        );
        for (i, &rid) in rids.iter().enumerate() {
            assert_eq!(heap.row(rid).unwrap().value(0), i as i64);
        }
        assert_eq!(disk.stats().total(), 0, "loading is unaccounted");
    }

    #[test]
    fn append_scan_roundtrip() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), 8, 1);
        for i in 0..100 {
            heap.append(&[i]).unwrap();
        }
        assert_eq!(heap.record_count(), 100);
        let values: Vec<Vec<i64>> = heap.scan().map(Result::unwrap).collect();
        assert_eq!(values, (0..100).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_append_is_refused_and_leaves_the_file_usable() {
        let disk = SimDisk::new();
        let mut wide = HeapFile::new(disk.clone(), 2560, 2);
        let err = wide.append(&[1, 2]).unwrap_err();
        assert_eq!(err, StorageError::RecordTooLarge { len: 2560, max: crate::MAX_RECORD });
        assert_eq!(
            (wide.record_count(), wide.page_count(), disk.page_count()),
            (0, 0, 0),
            "nothing appended"
        );
        let mut widest = HeapFile::new(disk.clone(), crate::MAX_RECORD, 2);
        widest.append(&[1, 2]).unwrap();
        widest.append(&[3, 4]).unwrap();
        assert_eq!(widest.page_count(), 2, "one row a page");
        assert_eq!(widest.scan().map(Result::unwrap).collect::<Vec<_>>(), [[1, 2], [3, 4]]);
    }

    #[test]
    fn a_spill_row_no_page_can_hold_is_refused_before_anything_happens() {
        let disk = SimDisk::new();
        let mut wide = SpillWriter::charged(disk.clone(), 2560);
        assert_eq!(
            wide.append([1, 2]).unwrap_err(),
            StorageError::RecordTooLarge { len: 2560, max: crate::MAX_RECORD }
        );
        assert_eq!(
            (disk.page_count(), disk.stats().writes),
            (0, 0),
            "nothing allocated or charged"
        );
        let sealed = wide.finish().unwrap();
        assert_eq!((sealed.record_count(), sealed.page_count()), (0, 0));
        // The widest row that does fit takes a page to itself.
        let mut widest = SpillWriter::charged(disk.clone(), crate::MAX_RECORD);
        widest.append([7]).unwrap();
        widest.append([8]).unwrap();
        let sealed = widest.finish().unwrap();
        // Counted after the seal: a file is readable from `finish` on.
        let mut rows = 0;
        sealed.read_pages(usize::MAX, |page| rows += page.rows()).unwrap();
        assert_eq!(rows, 2);
        assert_eq!((sealed.page_count(), disk.stats().writes), (2, 2));
    }

    #[test]
    fn the_writer_puts_a_row_on_the_page_a_heap_append_puts_it_on() {
        let rows: Vec<[i64; 3]> = (0..40).map(|i| [i, -i, i << 40]).collect();
        let (disk, reference) = (SimDisk::new(), SimDisk::new());
        let mut writer = SpillWriter::charged(disk.clone(), 300);
        let mut heap = HeapFile::new(reference.clone(), 300, 3);
        for row in &rows {
            writer.append(*row).unwrap();
            heap.append(row).unwrap();
        }
        let sealed = writer.finish().unwrap();
        assert_eq!(sealed.pages(), heap.pages());
        for k in 0..sealed.page_count() {
            let got: Vec<&[i64]> = sealed.page(k).columns().collect();
            assert_eq!(got, heap.page(k).columns().collect::<Vec<_>>(), "page {k}");
        }
        assert_eq!(sealed.record_count(), 40);
        assert_eq!(disk.stats().writes as usize, sealed.page_count(), "one charge a page");
    }

    #[test]
    fn temp_files_give_their_pages_back_and_permanent_files_do_not() {
        let disk = SimDisk::new();
        let mut base = HeapFile::new(disk.clone(), 512, 1);
        for _ in 0..6 {
            base.append(&[1]).unwrap();
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
            let mut rows: Vec<i64> = Vec::new();
            temp.read_pages(usize::MAX, |page| rows.extend(page.columns().flatten())).unwrap();
            assert_eq!(rows, (0..10).collect::<Vec<_>>());
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
        let mut heap = HeapFile::new(disk, 512, 2);
        for i in 0..10 {
            heap.append(&[i, 9]).unwrap();
        }
        // 3 × 512-byte records a 2 KB page → 4 pages for 10.
        assert_eq!(heap.page_count(), 4);
        assert_eq!(heap.scan().count(), 10);
    }

    #[test]
    fn fetch_by_rid_charges_random_io() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), 512, 2);
        let mut rids = Vec::new();
        for i in 0..10 {
            rids.push(heap.append(&[i, -i]).unwrap());
        }
        disk.reset_stats();
        assert_eq!(heap.fetch(rids[7]).unwrap(), [7, -7]);
        assert_eq!(disk.stats().random_reads, 1);
        assert_eq!(
            heap.fetch(Rid { page: rids[0].page, row: 99 }).unwrap_err(),
            StorageError::RecordNotFound { page: rids[0].page, row: 99 }
        );
    }

    #[test]
    fn scan_is_sequential_io() {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), 512, 1);
        for _ in 0..12 {
            heap.append(&[1]).unwrap();
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
        let mut heap = HeapFile::new(disk.clone(), 100, 2);
        for _ in 0..50 {
            heap.append(&[0, 0]).unwrap();
        }
        assert_eq!(disk.stats().total(), 0);
    }

    #[test]
    fn scan_surfaces_injected_faults_as_errors() {
        use crate::fault::FaultPlan;
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), 512, 1);
        for _ in 0..10 {
            heap.append(&[1]).unwrap();
        }
        disk.set_fault_plan(FaultPlan::nth_read(2));
        let outcomes: Vec<_> = heap.scan().collect();
        assert_eq!(outcomes.iter().filter(|r| r.is_err()).count(), 1);
        assert!(outcomes[3].is_err(), "second page read (records 3..6) fails");
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
