//! Data-retrieval operators: File-Scan, B-tree-Scan, Filter-B-tree-Scan,
//! and the morsel-driven scan worker backing the parallel file scan.

use std::ops::Range;
use std::sync::Arc;

use dqep_storage::gen::decode_page_slots_into;
use dqep_storage::{PageClaims, Rid, SlottedPage, StoredTable};

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::exec::{cursor_next, RowCursor};
use crate::governor::ExecContext;
use crate::tuple::{Tuple, TupleLayout};
use crate::Operator;

/// The shared body of the two heap scans: decodes the pages its caller
/// names straight into batches, carrying a page tail and a deferred
/// error between calls.
struct HeapPages<'a> {
    table: &'a StoredTable,
    layout: TupleLayout,
    ctx: ExecContext,
    /// The last page read when the request was full before the page was
    /// used up, and the slot to go on from: a reference to the disk's
    /// buffer, not a copy of the rows.
    tail: Option<(SlottedPage, u16)>,
    /// Error hit while a batch already held decoded rows; surfaced on the
    /// next call so the partial batch is delivered (and counted) first.
    pending_err: Option<ExecError>,
    /// The page whose read failed: a further pull reads it again first.
    retry_page: Option<usize>,
    cursor: RowCursor,
}

impl<'a> HeapPages<'a> {
    fn new(table: &'a StoredTable, layout: TupleLayout, ctx: ExecContext) -> Self {
        HeapPages {
            table,
            layout,
            ctx,
            tail: None,
            pending_err: None,
            retry_page: None,
            cursor: RowCursor::default(),
        }
    }

    fn reset(&mut self) {
        self.tail = None;
        self.pending_err = None;
        self.retry_page = None;
        self.cursor.clear();
    }

    /// Fills a batch of up to `max_rows` rows from the page tail and then
    /// from the pages `next_page` yields (indexes into the heap's page
    /// list): whole pages decode straight into the batch's contiguous
    /// storage — no per-row allocation, one governor check and one
    /// record-counter update per batch, I/O charged per page as it is
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
            self.decode(page, from, max_rows, &mut batch);
        }
        while batch.rows() < max_rows {
            let Some(page_idx) = self.retry_page.take().or_else(&mut next_page) else { break };
            let heap = &self.table.heap;
            let read = self
                .ctx
                .governor
                .charge_io(1)
                .and_then(|()| Ok(heap.disk().read(heap.pages()[page_idx])?));
            match read {
                Ok(bytes) => self.decode(SlottedPage::from_bytes(bytes), 0, max_rows, &mut batch),
                Err(e) => {
                    self.retry_page = Some(page_idx);
                    if batch.rows() == 0 {
                        return Err(e);
                    }
                    self.pending_err = Some(e);
                    break;
                }
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

    /// Decodes `page` from slot `from` on straight into the columns of
    /// `batch`, as far as `max_rows` lets it; a page with slots left over
    /// becomes the tail.
    fn decode(&mut self, page: SlottedPage, from: u16, max_rows: usize, batch: &mut RowBatch) {
        let room = max_rows - batch.rows();
        let mut next = from;
        batch.extend_with(|cols| {
            let (rows, resume) = decode_page_slots_into(&page, from, room, cols);
            next = resume;
            rows
        });
        if (next as usize) < page.len() {
            self.tail = Some((page, next));
        }
    }
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
        FileScanExec {
            pages: HeapPages::new(table, layout, ctx),
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

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        cursor_next(self, |op| &mut op.pages.cursor)
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
            pages: HeapPages::new(table, layout, ctx),
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

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        cursor_next(self, |op| &mut op.pages.cursor)
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let (current, claims) = (&mut self.current, &self.claims);
        // The next page of the current morsel, claiming a fresh morsel
        // when it is exhausted.
        self.pages.fill(max_rows, claims.total(), || loop {
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

/// Full scan through an unclustered B-tree: delivers key order, at the
/// cost of one random record fetch per entry — the trade the optimizer
/// reasons about when an interesting order is requested.
pub struct BtreeScanExec<'a> {
    table: &'a StoredTable,
    index: dqep_catalog::IndexId,
    layout: TupleLayout,
    ctx: ExecContext,
    rids: std::vec::IntoIter<Rid>,
}

impl<'a> BtreeScanExec<'a> {
    /// Creates a full index scan.
    #[must_use]
    pub fn new(
        table: &'a StoredTable,
        index: dqep_catalog::IndexId,
        layout: TupleLayout,
        ctx: ExecContext,
    ) -> Self {
        BtreeScanExec {
            table,
            index,
            layout,
            ctx,
            rids: Vec::new().into_iter(),
        }
    }
}

impl Operator for BtreeScanExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        let tree = &self.table.indexes[&self.index];
        let mut rids = Vec::with_capacity(tree.len() as usize);
        tree.scan_all(|_, rid| rids.push(rid))?;
        self.rids = rids.into_iter();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        self.ctx.governor.check()?;
        let Some(rid) = self.rids.next() else {
            return Ok(None);
        };
        self.ctx.governor.charge_io(1)?;
        let row = self.table.heap.fetch_with(rid, |record| self.table.decode(record))?;
        self.ctx.counters.add_records(1);
        Ok(Some(row))
    }

    fn close(&mut self) {
        self.rids = Vec::new().into_iter();
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open` (remaining rids); zero before.
        Some(self.rids.len() as u64)
    }
}

/// Combined retrieval + selection through a B-tree range probe
/// (Filter-B-tree-Scan): descends once and touches only qualifying keys.
pub struct FilterBtreeScanExec<'a> {
    table: &'a StoredTable,
    index: dqep_catalog::IndexId,
    /// Inclusive key range derived from the (bound) predicate.
    range: (Option<i64>, Option<i64>),
    layout: TupleLayout,
    ctx: ExecContext,
    rids: std::vec::IntoIter<Rid>,
}

impl<'a> FilterBtreeScanExec<'a> {
    /// Creates a range probe over `[lo, hi]` (inclusive bounds).
    #[must_use]
    pub fn new(
        table: &'a StoredTable,
        index: dqep_catalog::IndexId,
        range: (Option<i64>, Option<i64>),
        layout: TupleLayout,
        ctx: ExecContext,
    ) -> Self {
        FilterBtreeScanExec {
            table,
            index,
            range,
            layout,
            ctx,
            rids: Vec::new().into_iter(),
        }
    }
}

impl Operator for FilterBtreeScanExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        let tree = &self.table.indexes[&self.index];
        self.rids = tree.range(self.range.0, self.range.1)?.into_iter();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        self.ctx.governor.check()?;
        let Some(rid) = self.rids.next() else {
            return Ok(None);
        };
        self.ctx.governor.charge_io(1)?;
        let row = self.table.heap.fetch_with(rid, |record| self.table.decode(record))?;
        self.ctx.counters.add_records(1);
        Ok(Some(row))
    }

    fn close(&mut self) {
        self.rids = Vec::new().into_iter();
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open` (remaining qualifying rids); zero before.
        Some(self.rids.len() as u64)
    }
}
