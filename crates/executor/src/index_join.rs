//! Index nested-loop join: probe the inner relation's B-tree per outer
//! tuple.

use dqep_catalog::IndexId;
use dqep_storage::{BufferPool, SlottedPage, StorageError, StoredTable};

use crate::error::ExecError;
use crate::filter::ResolvedPred;
use crate::governor::ExecContext;
use crate::tuple::{Tuple, TupleLayout};
use crate::{BoxedOperator, Operator};

/// Index join: for each outer tuple, look up matching inner records
/// through the inner relation's B-tree, fetch them, and apply the
/// residual selection and any extra join predicates. Preserves the
/// outer's order.
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
    pending: Vec<Tuple>,
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
            pending: Vec::new(),
        })
    }
}

impl Operator for IndexJoinExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.outer.open()?;
        self.pending.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        loop {
            self.ctx.governor.check()?;
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let Some(outer) = self.outer.next()? else {
                return Ok(None);
            };
            let key = outer[self.outer_key];
            let tree = &self.inner.indexes[&self.index];
            for rid in tree.lookup(key)? {
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
                let inner = self.inner.decode(record);
                self.ctx.counters.add_compares(1);
                if let Some(residual) = &self.residual {
                    if !residual.matches(&inner) {
                        continue;
                    }
                }
                if !self.extra.iter().all(|&(o, i)| outer[o] == inner[i]) {
                    continue;
                }
                let mut joined = outer.clone();
                joined.extend_from_slice(&inner);
                self.ctx.counters.add_records(1);
                self.pending.push(joined);
            }
            self.pending.reverse();
        }
    }

    fn close(&mut self) {
        self.outer.close();
        self.pending.clear();
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }
}
