//! The exchange operator: intra-query parallelism behind the ordinary
//! Volcano interface (Graefe's Volcano exchange, adapted to this engine's
//! stop-and-go style).
//!
//! [`ExchangeExec`] owns N worker subtrees. At `open()` it runs every
//! worker to completion on its own thread — each worker opens, drains
//! into a batch sink, and closes its subtree — then merges the workers'
//! private [`SharedCounters`] into the query's counters and lines their
//! batches up in worker-index order. `next_batch` hands that list out in
//! `max_rows` slices. Because the whole operator
//! still *is* an [`Operator`], everything above it — choose-plan fallback,
//! the resource governor, fault injection — composes unchanged.
//!
//! **Error phases.** A serial file scan performs all of its I/O while
//! it is pulled, after `open()` has returned; only stop-and-go work (hash-join
//! build, sort ingest) happens inside `open()`. The exchange runs its
//! workers eagerly inside `open()`, which would move every failure into
//! the open phase — and `open`-phase failures are exactly what
//! [`crate::ChoosePlanExec`] catches for fallback. To keep fallback
//! semantics identical to serial execution, a worker failure is *deferred*:
//! `open()` still returns `Ok`, and the error surfaces from the first
//! `next_batch()` call — the phase where the serial scan would have
//! raised it. Counters are merged either way, so partial work is
//! always accounted.
//!
//! **Memory.** Worker subtrees reserve operator working memory from the
//! *shared* governor, so the sum of all workers' reservations stays under
//! the one query grant — parallelism cannot oversubscribe it. The merge
//! buffer itself is transport, not operator working memory, and is exempt
//! from reservation for the same reason the root drain's result vector is.

use std::panic;
use std::sync::Arc;
use std::thread;

use dqep_storage::{PageClaims, StoredTable, DEFAULT_MORSEL_PAGES};

use crate::batch::{BatchCursor, RowBatch};
use crate::error::ExecError;
use crate::exec::{drain_root, RootSink};
use crate::governor::ExecContext;
use crate::metrics::SharedCounters;
use crate::scan::MorselScanExec;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// Runs every task on its own scoped thread and collects their results in
/// task order. Panics are propagated (a worker panic is a bug, not an
/// [`ExecError`]).
pub(crate) fn run_parallel<T, F>(tasks: Vec<F>) -> Vec<Result<T, ExecError>>
where
    T: Send,
    F: FnOnce() -> Result<T, ExecError> + Send,
{
    thread::scope(|s| {
        let handles: Vec<_> = tasks.into_iter().map(|t| s.spawn(t)).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => panic::resume_unwind(p),
            })
            .collect()
    })
}

struct ExchangeWorker<'a> {
    op: BoxedOperator<'a>,
    /// The worker subtree's private counters (see [`ExecContext::worker`]),
    /// merged into the query counters when the parallel phase finishes.
    counters: SharedCounters,
}

/// Partitions execution across worker subtrees and merges their results
/// back through the ordinary [`Operator`] interface.
pub struct ExchangeExec<'a> {
    workers: Vec<ExchangeWorker<'a>>,
    layout: TupleLayout,
    ctx: ExecContext,
    /// What the workers produced, in worker order, and how far it has
    /// been handed out.
    output: Vec<RowBatch>,
    served: BatchCursor,
    /// A worker failure, surfaced on the first `next_batch` call (the
    /// serial scan's error phase) instead of from `open`.
    pending_err: Option<ExecError>,
    opened: bool,
    /// Mid-query re-optimization probe, fired once per `open` with the
    /// merged output cardinality when every worker has joined.
    checkpoint: Option<crate::reopt::ReoptProbe>,
}

impl<'a> ExchangeExec<'a> {
    /// Creates an exchange over `workers`, each paired with the private
    /// counters its subtree was compiled with (see [`ExecContext::worker`]).
    ///
    /// # Panics
    /// Panics if `workers` is empty — an exchange with nothing to run is a
    /// compiler bug, not a run-time condition.
    #[must_use]
    pub fn new(workers: Vec<(BoxedOperator<'a>, SharedCounters)>, ctx: ExecContext) -> Self {
        assert!(!workers.is_empty(), "exchange needs at least one worker");
        let layout = workers[0].0.layout().clone();
        ExchangeExec {
            workers: workers
                .into_iter()
                .map(|(op, counters)| ExchangeWorker { op, counters })
                .collect(),
            layout,
            ctx,
            output: Vec::new(),
            served: BatchCursor::default(),
            pending_err: None,
            opened: false,
            checkpoint: None,
        }
    }

    /// Attaches a re-optimization checkpoint probe to the worker join.
    pub(crate) fn with_checkpoint(mut self, probe: crate::reopt::ReoptProbe) -> Self {
        self.checkpoint = Some(probe);
        self
    }
}

impl Operator for ExchangeExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.close();
        self.opened = true;
        let tasks: Vec<_> = self
            .workers
            .iter_mut()
            .map(|w| {
                let op = w.op.as_mut();
                move || {
                    let mut batches = Vec::new();
                    drain_root(op, None, RootSink::Batches(&mut batches)).map(|_| batches)
                }
            })
            .collect();
        let results = run_parallel(tasks);
        // Partial work is real work: merge counters before error handling.
        for w in &self.workers {
            self.ctx.counters.merge_from(&w.counters);
        }
        for r in results {
            match r {
                Ok(batches) => self.output.extend(batches),
                Err(e) => {
                    self.pending_err.get_or_insert(e);
                }
            }
        }
        if self.pending_err.is_some() {
            self.output.clear();
        } else if let Some(probe) = &self.checkpoint {
            // Worker join is a pipeline breaker: every worker finished,
            // so the merged cardinality is exact.
            probe.observe(self.served.remaining(&self.output) as u64);
        }
        Ok(())
    }

    /// Hands out the workers' batches. They already charged record
    /// counters when producing these rows; the exchange is pure transport.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        let Some(batch) = self.served.next_slice(&self.output, max_rows) else {
            return Ok(None);
        };
        self.ctx.governor.check_batch(batch.rows() as u64)?;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        // Workers close themselves at the end of their drain; only their
        // output remains to release.
        self.output.clear();
        self.served = BatchCursor::default();
        self.pending_err = None;
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open` (what is left to hand out); unknown before.
        self.opened.then(|| self.served.remaining(&self.output) as u64)
    }
}

/// Builds the partition-parallel file scan: `ctx.dop` morsel-scan workers
/// share one atomic [`PageClaims`] dispenser over the table's pages, so
/// each page is read by exactly one worker and work stays balanced however
/// the threads interleave. Page reads and record decodes are charged by
/// the workers exactly as the serial scan charges them — totals are
/// independent of the interleaving.
#[must_use]
pub fn parallel_scan<'a>(
    table: &'a StoredTable,
    layout: TupleLayout,
    ctx: &ExecContext,
) -> ExchangeExec<'a> {
    let claims = Arc::new(PageClaims::new(
        table.heap.page_count(),
        DEFAULT_MORSEL_PAGES,
    ));
    // Tracing: all workers share ONE span. Each wrapper accumulates its
    // worker's private totals and flushes on close (from the worker
    // thread), so the span's stats merge concurrently via
    // `SpanStats::merge_from` — the same shape as the counter merge below
    // it. Worker wrappers pass no disk: their windows over the shared
    // disk overlap, so per-worker I/O deltas would double-count; the
    // enclosing scan node's span (whose `open` window contains the whole
    // parallel phase) accounts the I/O exactly instead.
    let worker_span = ctx.tracer.as_ref().filter(|t| t.records_spans()).map(|tracer| {
        tracer.span(
            format!("Morsel-Scan x{}", ctx.dop.max(1)),
            "Morsel-Scan",
            None,
            None,
            ctx.span_parent,
            ctx.dop.max(1),
        )
    });
    let workers = (0..ctx.dop.max(1))
        .map(|_| {
            let wctx = ctx.worker();
            let counters = wctx.counters.clone();
            let mut op: BoxedOperator<'a> = Box::new(MorselScanExec::new(
                table,
                layout.clone(),
                wctx,
                Arc::clone(&claims),
            ));
            if let (Some(span), Some(tracer)) = (worker_span, ctx.tracer.as_ref()) {
                op = Box::new(crate::trace::TracedExec::new(
                    op,
                    Arc::clone(tracer),
                    span,
                    counters.clone(),
                    None,
                    ctx.governor.clone(),
                ));
            }
            (op, counters)
        })
        .collect();
    ExchangeExec::new(workers, ctx.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drain;
    use crate::tuple::Tuple;
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_storage::StoredDatabase;

    fn fixture() -> (dqep_catalog::Catalog, StoredDatabase) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 500, 512, |r| r.attr("a", 500.0).attr("b", 25.0))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 11);
        (cat, db)
    }

    fn sorted_rows(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn parallel_scan_matches_serial_multiset_and_counters() {
        let (cat, db) = fixture();
        let rel = cat.relation_by_name("r").unwrap().id;
        let table = db.table(rel);
        let serial_ctx = ExecContext::new(SharedCounters::new());
        let mut serial = crate::scan::FileScanExec::new(
            table,
            TupleLayout::base(&cat, rel),
            serial_ctx.clone(),
        );
        let serial_rows = drain(&mut serial).unwrap();
        let serial_io = db.disk.stats();
        db.disk.reset_stats();

        for dop in [2usize, 4] {
            let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
            let mut ex = parallel_scan(table, TupleLayout::base(&cat, rel), &ctx);
            let rows = drain(&mut ex).unwrap();
            assert_eq!(sorted_rows(rows), sorted_rows(serial_rows.clone()), "dop {dop}");
            assert_eq!(
                ctx.counters.snapshot().records,
                serial_ctx.counters.snapshot().records,
                "record counters merge exactly (dop {dop})"
            );
            let io = db.disk.stats();
            db.disk.reset_stats();
            assert_eq!(io.total(), serial_io.total(), "same pages read once each");
        }
    }

    #[test]
    fn worker_fault_is_deferred_to_next_like_a_serial_scan() {
        use dqep_storage::FaultPlan;
        let (cat, db) = fixture();
        let rel = cat.relation_by_name("r").unwrap().id;
        let table = db.table(rel);
        let pages = table.heap.pages();
        // Fault every page: every worker fails on its first read.
        db.disk.set_fault_plan(FaultPlan::page_range(pages[0].0, pages[pages.len() - 1].0));
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(2);
        let mut ex = parallel_scan(table, TupleLayout::base(&cat, rel), &ctx);
        assert!(ex.open().is_ok(), "worker faults defer past open");
        let err = ex.next_batch(crate::BATCH_CAPACITY).unwrap_err();
        assert!(matches!(err, ExecError::Storage(_)), "{err:?}");
        ex.close();
        db.disk.set_fault_plan(FaultPlan::none());
    }
}
