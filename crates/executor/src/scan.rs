//! Data-retrieval operators: File-Scan and the morsel-driven scan worker
//! backing its parallel form, over one page-decoding body; B-tree-Scan and
//! Filter-B-tree-Scan, one operator over a key range.

use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use dqep_catalog::IndexId;
use dqep_storage::gen::{decode_page_slots_into, decode_record_into};
use dqep_storage::{PageClaims, PageView, Rid, SlottedPage, StoredTable, DEFAULT_MORSEL_PAGES};

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::tuple::TupleLayout;
use crate::Operator;

/// The shared body of the two heap scans: decodes the pages its caller
/// names straight into batches, carrying a page tail and a deferred
/// error between calls.
struct HeapPages<'a> {
    table: &'a StoredTable,
    layout: TupleLayout,
    ctx: ExecContext,
    /// The most pages read under one disk latch: no bound for a scan that
    /// has the disk to itself, a morsel where the workers of a parallel
    /// query share it.
    run_pages: usize,
    /// The last page read when the request was full before the page was
    /// used up, and the slot to go on from: a reference to the disk's
    /// buffer, not a copy of the rows.
    tail: Option<(SlottedPage, u16)>,
    /// Error hit while a batch already held decoded rows; surfaced on the
    /// next call so the partial batch is delivered (and counted) first.
    pending_err: Option<ExecError>,
    /// The page whose read failed: a further pull reads it again first.
    retry_page: Option<usize>,
}

impl<'a> HeapPages<'a> {
    fn new(table: &'a StoredTable, layout: TupleLayout, ctx: ExecContext, run_pages: usize) -> Self {
        HeapPages {
            table,
            layout,
            ctx,
            run_pages,
            tail: None,
            pending_err: None,
            retry_page: None,
        }
    }

    fn reset(&mut self) {
        self.tail = None;
        self.pending_err = None;
        self.retry_page = None;
    }

    /// Fills a batch of up to `max_rows` rows from the page tail and then
    /// from the pages `next_page` yields (indexes into the heap's page
    /// list): whole pages decode straight into the batch's contiguous
    /// storage — no per-row allocation, one governor check and one
    /// record-counter update per batch. The pages are read in runs
    /// ([`dqep_storage::SimDisk::read_run`]): one disk latch for as many
    /// pages as the batch takes (`run_pages` at most), each decoded from
    /// the disk's own bytes; only a page the batch leaves unfinished is
    /// kept, as the tail. I/O is still charged per page, before it is
    /// read (so fault injection and I/O budgets trip on the page that
    /// caused them). A fault after the batch already holds rows is
    /// deferred to the next call.
    ///
    /// `pages_left` bounds what `next_page` can still yield: the batch's
    /// columns are sized for the rows those pages (and the tail) can
    /// hold when that is less than `max_rows`, so the scan of a small
    /// relation, and the last batch of a large one, do not allocate a
    /// full batch's columns for a few pages' rows.
    fn fill(
        &mut self,
        max_rows: usize,
        pages_left: usize,
        mut next_page: impl FnMut() -> Option<usize>,
    ) -> Result<Option<RowBatch>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        let tail_rows = self.tail.as_ref().map_or(0, |(page, from)| page.len() - usize::from(*from));
        let pages = pages_left + usize::from(self.retry_page.is_some());
        let to_come = tail_rows + pages * SlottedPage::records_per_page(self.table.record_len);
        let mut batch = RowBatch::with_capacity(self.layout.width(), max_rows.min(to_come));
        if let Some((page, from)) = self.tail.take() {
            let view = PageView::from_bytes(page.as_bytes());
            if let Some(next) = decode_page(&view, from, max_rows, &mut batch) {
                self.tail = Some((page, next));
            }
        }
        let (heap, governor) = (&self.table.heap, &self.ctx.governor);
        let mut exhausted = false;
        while batch.rows() < max_rows && !exhausted {
            // One run. `ids` and the visit run under the disk latch: they
            // touch the governor, the claim counter and the batch, never
            // the disk.
            let (mut at, mut refused) = (None, None);
            let ids = std::iter::from_fn(|| {
                at = self.retry_page.take().or_else(&mut next_page);
                exhausted = at.is_none();
                let idx = at?;
                refused = governor.charge_io(1).err();
                refused.is_none().then(|| heap.pages()[idx])
            });
            let read = heap.disk().read_run(ids.take(self.run_pages), |page| {
                let view = PageView::from_bytes(&**page);
                if let Some(next) = decode_page(&view, 0, max_rows, &mut batch) {
                    self.tail = Some((SlottedPage::from_bytes(Arc::clone(page)), next));
                }
                if batch.rows() < max_rows {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
            if let Some(e) = refused.or(read.err().map(ExecError::from)) {
                self.retry_page = at;
                if batch.rows() == 0 {
                    return Err(e);
                }
                self.pending_err = Some(e);
                break;
            }
        }
        let rows = batch.rows();
        if rows == 0 {
            return Ok(None);
        }
        self.ctx.governor.check_batch(rows as u64)?;
        self.ctx.counters.add_records(rows as u64);
        Ok(Some(batch))
    }
}

/// Decodes `page` from slot `from` on straight into the columns of
/// `batch`, as far as `max_rows` lets it; the slot to go on from when the
/// page has slots left over.
fn decode_page(page: &PageView<'_>, from: u16, max_rows: usize, batch: &mut RowBatch) -> Option<u16> {
    let room = max_rows - batch.rows();
    let mut next = from;
    batch.extend_with(|cols| {
        let (rows, resume) = decode_page_slots_into(page, from, room, cols);
        next = resume;
        rows
    });
    ((next as usize) < page.len()).then_some(next)
}

/// Sequential scan of a base table (accounted as sequential page reads).
pub struct FileScanExec<'a> {
    pages: HeapPages<'a>,
    /// Page indexes not yet read.
    remaining: Range<usize>,
}

impl<'a> FileScanExec<'a> {
    /// Creates a scan over `table`.
    #[must_use]
    pub fn new(table: &'a StoredTable, layout: TupleLayout, ctx: ExecContext) -> Self {
        // At DOP > 1 the other operators' workers read this disk too.
        let run_pages = if ctx.dop > 1 { DEFAULT_MORSEL_PAGES } else { usize::MAX };
        FileScanExec {
            pages: HeapPages::new(table, layout, ctx, run_pages),
            remaining: 0..table.heap.pages().len(),
        }
    }
}

impl Operator for FileScanExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.remaining = 0..self.pages.table.heap.pages().len();
        self.pages.reset();
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let remaining = &mut self.remaining;
        self.pages.fill(max_rows, remaining.len(), || remaining.next())
    }

    fn close(&mut self) {
        self.pages.reset();
    }

    fn layout(&self) -> &TupleLayout {
        &self.pages.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        Some(self.pages.table.heap.record_count())
    }
}

/// One worker of the partition-parallel file scan: claims page-range
/// morsels from a shared [`PageClaims`] dispenser and scans only the pages
/// it claims. The exchange operator runs `ctx.dop` of these over one
/// dispenser; together they read each page exactly once, charging I/O and
/// record counters exactly as the serial [`FileScanExec`] does — totals
/// are independent of how threads interleave.
pub struct MorselScanExec<'a> {
    pages: HeapPages<'a>,
    claims: Arc<PageClaims>,
    /// Page indexes of the current morsel not yet read.
    current: Range<usize>,
}

impl<'a> MorselScanExec<'a> {
    /// Creates one scan worker over `table`, drawing morsels from `claims`.
    #[must_use]
    pub fn new(
        table: &'a StoredTable,
        layout: TupleLayout,
        ctx: ExecContext,
        claims: Arc<PageClaims>,
    ) -> Self {
        MorselScanExec {
            pages: HeapPages::new(table, layout, ctx, DEFAULT_MORSEL_PAGES),
            claims,
            current: 0..0,
        }
    }
}

impl Operator for MorselScanExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pages.reset();
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let (current, claims) = (&mut self.current, &self.claims);
        // The next page of the current morsel, claiming a fresh morsel
        // when it is exhausted.
        self.pages.fill(max_rows, current.len() + claims.unclaimed(), || loop {
            if let Some(idx) = current.next() {
                return Some(idx);
            }
            *current = claims.claim()?;
        })
    }

    fn close(&mut self) {
        self.pages.reset();
    }

    fn layout(&self) -> &TupleLayout {
        &self.pages.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Unknown: this worker produces only its share of the table, and
        // the share depends on run-time claim racing.
        None
    }
}

/// Scan through an unclustered B-tree over an inclusive key range. With
/// no bounds it is the B-tree-Scan: the whole relation in key order, at
/// the cost of one random record fetch per entry — the trade the
/// optimizer reasons about when an interesting order is requested. With
/// the range of a bound predicate it is the Filter-B-tree-Scan: combined
/// retrieval + selection that descends once and touches only qualifying
/// keys.
pub struct BtreeScanExec<'a> {
    table: &'a StoredTable,
    index: IndexId,
    /// Inclusive key range (`None` = unbounded).
    range: (Option<i64>, Option<i64>),
    layout: TupleLayout,
    ctx: ExecContext,
    /// The rids of the range in key order, collected at `open`.
    rids: Vec<Rid>,
    /// The next rid to fetch; a rid whose fetch failed stays next.
    pos: usize,
    /// Error hit while a batch already held rows; surfaced on the next
    /// call so the partial batch is delivered (and counted) first.
    pending_err: Option<ExecError>,
}

impl<'a> BtreeScanExec<'a> {
    /// Creates a scan of the keys in `[lo, hi]` (inclusive bounds).
    #[must_use]
    pub fn new(
        table: &'a StoredTable,
        index: IndexId,
        range: (Option<i64>, Option<i64>),
        layout: TupleLayout,
        ctx: ExecContext,
    ) -> Self {
        BtreeScanExec {
            table,
            index,
            range,
            layout,
            ctx,
            rids: Vec::new(),
            pos: 0,
            pending_err: None,
        }
    }
}

impl Operator for BtreeScanExec<'_> {
    /// Collects the range's rids and charges the index pages the descent
    /// and the leaf chain read.
    fn open(&mut self) -> Result<(), ExecError> {
        self.close();
        let tree = &self.table.indexes[&self.index];
        if self.range == (None, None) {
            self.rids.reserve(tree.len() as usize);
        }
        let rids = &mut self.rids;
        let pages = tree.range_scan(self.range.0, self.range.1, |_, rid| rids.push(rid))?;
        self.ctx.governor.charge_io(pages)
    }

    /// Fetches up to `max_rows` records, each decoded from where it lies
    /// in its page into the batch's columns: I/O charged per fetch (so
    /// fault injection and I/O budgets trip on the page that caused
    /// them), one governor check and one record-counter update per batch.
    /// A failure after the batch already holds rows is deferred to the
    /// next call.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        let to_come = self.rids.len() - self.pos;
        let mut batch = RowBatch::with_capacity(self.layout.width(), max_rows.min(to_come));
        while batch.rows() < max_rows {
            let Some(&rid) = self.rids.get(self.pos) else { break };
            let fetched = self.ctx.governor.charge_io(1).and_then(|()| {
                Ok(self.table.heap.fetch_with(rid, |record| {
                    batch.extend_rows_with(1, |cols| decode_record_into(record, cols));
                })?)
            });
            if let Err(e) = fetched {
                if batch.rows() == 0 {
                    return Err(e);
                }
                self.pending_err = Some(e);
                break;
            }
            self.pos += 1;
        }
        let rows = batch.rows();
        if rows == 0 {
            return Ok(None);
        }
        self.ctx.governor.check_batch(rows as u64)?;
        self.ctx.counters.add_records(rows as u64);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.rids.clear();
        self.pos = 0;
        self.pending_err = None;
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open` (remaining rids); zero before.
        Some((self.rids.len() - self.pos) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SharedCounters;
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_storage::StoredDatabase;

    /// A morsel-scan worker's last batches are sized for the pages it can
    /// still be handed, not for the whole table: 134 pages of three rows,
    /// pulled 150 rows at a time, leave 34 pages for the third batch.
    #[test]
    fn the_last_batch_of_a_morsel_scan_is_sized_for_the_pages_left() {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 400, 512, |r| r.attr("a", 400.0))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 11);
        let rel = cat.relation_by_name("r").unwrap().id;
        let table = db.table(rel);
        let claims = Arc::new(PageClaims::new(table.heap.page_count(), DEFAULT_MORSEL_PAGES));
        let ctx = ExecContext::new(SharedCounters::new());
        let mut scan = MorselScanExec::new(table, TupleLayout::base(&cat, rel), ctx, claims);
        scan.open().unwrap();
        let mut sizes = Vec::new();
        while let Some(batch) = scan.next_batch(150).unwrap() {
            let rows = batch.rows();
            sizes.push((rows, batch.into_columns()[0].capacity()));
        }
        // Each capacity: the request, or what the tail and the pages not
        // yet read can hold when that is less.
        assert_eq!(sizes, [(150, 150), (150, 150), (100, 34 * 3)]);
    }
}
