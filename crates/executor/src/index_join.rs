//! Index nested-loop join: probe the inner relation's B-tree per outer
//! row.

use dqep_catalog::IndexId;
use dqep_storage::gen::{decode_record_into, record_value};
use dqep_storage::{BufferPool, Rid, SlottedPage, StorageError, StoredTable};

use crate::batch::{ColStream, RowBatch};
use crate::error::ExecError;
use crate::filter::ResolvedPred;
use crate::governor::ExecContext;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// Index join: for each live row of an outer batch, look up matching
/// inner records through the inner relation's B-tree, fetch them, apply
/// the residual selection and any extra join predicates, and append the
/// outer row's columns and the inner record's values to the output batch.
/// Preserves the outer's order.
///
/// Inner record fetches go through a [`BufferPool`] sized to the query's
/// memory grant: repeated probes for popular keys hit the cache, which is
/// the executable counterpart of the cost model's assumption that probe
/// I/O is bounded by one leaf access plus the matching fetches.
pub struct IndexJoinExec<'a> {
    outer: BoxedOperator<'a>,
    inner: &'a StoredTable,
    pool: BufferPool,
    index: IndexId,
    /// Position of the indexed join attribute within the outer layout.
    outer_key: usize,
    /// Extra equi-join checks: (outer position, inner attribute position).
    extra: Vec<(usize, usize)>,
    /// The inner relation's selection predicate, positions within the
    /// inner record.
    residual: Option<ResolvedPred>,
    layout: TupleLayout,
    ctx: ExecContext,
    /// The outer batch being probed, and how many of its live rows have
    /// been.
    outer_batch: RowBatch,
    outer_pos: usize,
    /// Joined rows not yet handed out: the last outer row probed may
    /// match more inner records than the request had room for.
    joined: ColStream,
    /// The rids one probe found; kept for its allocation.
    rids: Vec<Rid>,
}

impl<'a> IndexJoinExec<'a> {
    /// Creates an index join.
    ///
    /// # Errors
    /// [`ExecError::Storage`] if the buffer pool cannot be created.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        outer: BoxedOperator<'a>,
        inner: &'a StoredTable,
        inner_layout: &TupleLayout,
        index: IndexId,
        outer_key: usize,
        extra: Vec<(usize, usize)>,
        residual: Option<ResolvedPred>,
        ctx: ExecContext,
        pool_pages: usize,
    ) -> Result<Self, ExecError> {
        let layout = outer.layout().concat(inner_layout);
        let pool = BufferPool::new(inner.heap.disk().clone(), pool_pages.max(1))?;
        Ok(IndexJoinExec {
            outer,
            inner,
            pool,
            index,
            outer_key,
            extra,
            residual,
            layout,
            ctx,
            outer_batch: RowBatch::default(),
            outer_pos: 0,
            joined: ColStream::default(),
            rids: Vec::new(),
        })
    }

    /// Probes outer rows until `out` holds `max_rows` joined rows or the
    /// outer input ends, counting the inner records examined and the rows
    /// joined. A row's matches are never split across two probes, so
    /// `out` may end up past `max_rows` by the last row's surplus.
    fn probe(
        &mut self,
        max_rows: usize,
        out: &mut RowBatch,
        compares: &mut u64,
    ) -> Result<(), ExecError> {
        let tree = &self.inner.indexes[&self.index];
        let outer_width = self.outer.layout().width();
        while out.rows() < max_rows {
            if self.outer_pos >= self.outer_batch.len() {
                let Some(batch) = self.outer.next_batch(max_rows)? else { break };
                self.outer_batch = batch;
                self.outer_pos = 0;
                continue;
            }
            let o = self.outer_batch.physical(self.outer_pos);
            self.outer_pos += 1;
            let outer = self.outer_batch.columns();
            let key = Some(outer[self.outer_key][o]);
            self.rids.clear();
            let rids = &mut self.rids;
            let pages = tree.range_scan(key, key, |_, rid| rids.push(rid))?;
            self.ctx.governor.charge_io(pages)?;
            for rid in &self.rids {
                let misses_before = self.pool.misses();
                let page = SlottedPage::from_bytes(self.pool.read(rid.page)?);
                if self.pool.misses() > misses_before {
                    self.ctx.governor.charge_io(1)?;
                }
                let record = page
                    .get(rid.slot)
                    .ok_or(ExecError::Storage(StorageError::RecordNotFound {
                        page: rid.page,
                        slot: rid.slot,
                    }))?;
                *compares += 1;
                if let Some(p) = &self.residual {
                    if !p.op.eval_int(record_value(record, p.pos), p.value) {
                        continue;
                    }
                }
                if !self.extra.iter().all(|&(oc, ic)| outer[oc][o] == record_value(record, ic)) {
                    continue;
                }
                out.extend_rows_with(1, |cols| {
                    let (outer_cols, inner_cols) = cols.split_at_mut(outer_width);
                    for (col, from) in outer_cols.iter_mut().zip(outer) {
                        col.push(from[o]);
                    }
                    decode_record_into(record, inner_cols);
                });
            }
        }
        Ok(())
    }
}

impl Operator for IndexJoinExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.outer.open()?;
        self.outer_batch = RowBatch::default();
        self.outer_pos = 0;
        self.joined = ColStream::default();
        Ok(())
    }

    /// Hands out joined rows in `max_rows` slices, probing more outer
    /// rows (pulled from the outer input `max_rows` at a time) when none
    /// are left. Counters are charged once per probe pass — also for the
    /// work of a pass that failed.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        loop {
            if let Some(batch) = self.joined.next_slice(max_rows) {
                return Ok(Some(batch));
            }
            let mut out = RowBatch::with_capacity(self.layout.width(), 0);
            let mut compares = 0;
            let probed = self.probe(max_rows, &mut out, &mut compares);
            self.ctx.counters.add_compares(compares);
            self.ctx.counters.add_records(out.rows() as u64);
            probed?;
            self.ctx.governor.check_batch(out.rows() as u64)?;
            if out.rows() == 0 {
                return Ok(None);
            }
            self.joined = ColStream::new(out);
        }
    }

    fn close(&mut self) {
        self.outer.close();
        self.outer_batch = RowBatch::default();
        self.joined = ColStream::default();
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }
}
