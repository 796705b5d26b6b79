//! The exchange operator: the one place a plan runs in parallel
//! (Graefe's Volcano exchange, adapted to this engine's stop-and-go
//! style), and [`run_parallel`], the one rule for when work takes threads.
//!
//! [`ExchangeExec`] owns N worker subtrees. At `open()` it runs every
//! worker to completion through [`run_parallel`] — each worker opens,
//! drains into a batch sink, and closes its subtree — then merges the
//! workers' private [`SharedCounters`] into the query's counters and lines
//! their batches up in worker-index order. `next_batch` hands them out
//! through the engine's one cut of held rows (`HeldRows`): a batch that
//! fits the request leaves by move, and every worker batch fits a
//! [`BATCH_CAPACITY`](crate::BATCH_CAPACITY) request, so at that request
//! the exchange copies no row.
//! Because the whole operator still *is* an [`Operator`], everything
//! above it — choose-plan fallback, the resource governor, fault
//! injection — composes unchanged. Its workers are morsel scans
//! ([`parallel_scan`]); every other operator runs its dop-1 code at every
//! dop.
//!
//! **Threads only on a paced disk.** On this engine a degree of
//! parallelism above 1 buys I/O overlap and nothing else: on an unpaced
//! disk two threads run a scan, a join or a sort slower than one. So
//! [`run_parallel`] starts threads only when the disk the work reads
//! sleeps on every access ([`SimDisk::is_paced`]), and otherwise runs
//! the tasks in order on the calling thread. The sharded driver takes its
//! per-shard steps through the same rule.
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

use dqep_storage::{PageClaims, SimDisk, StoredTable, DEFAULT_MORSEL_PAGES};

use crate::batch::{HeldRows, RowBatch};
use crate::error::ExecError;
use crate::exec::{drain_root, RootSink};
use crate::governor::ExecContext;
use crate::metrics::SharedCounters;
use crate::scan::MorselScanExec;
use crate::trace::TracedExec;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// Runs `tasks` over `disk` and collects their results in task order:
/// each on its own scoped thread when the disk is paced, so that their
/// sleeps overlap, else one after another on the calling thread. Every
/// task runs either way. Panics are propagated (a task panic is a bug,
/// not an [`ExecError`]).
pub fn run_parallel<T, F>(disk: &SimDisk, tasks: Vec<F>) -> Vec<Result<T, ExecError>>
where
    T: Send,
    F: FnOnce() -> Result<T, ExecError> + Send,
{
    if !disk.is_paced() {
        return tasks.into_iter().map(|task| task()).collect();
    }
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
    /// The disk the workers read: whether it paces decides whether they
    /// run on threads.
    disk: SimDisk,
    /// What the workers produced and is not yet handed out, in worker
    /// order.
    output: HeldRows,
    /// A worker failure, surfaced on the first `next_batch` call (the
    /// serial scan's error phase) instead of from `open`.
    pending_err: Option<ExecError>,
    opened: bool,
}

impl<'a> ExchangeExec<'a> {
    /// Creates an exchange over `workers`, each paired with the private
    /// counters its subtree was compiled with (see [`ExecContext::worker`]),
    /// that read `disk`.
    ///
    /// # Panics
    /// Panics if `workers` is empty — an exchange with nothing to run is a
    /// compiler bug, not a run-time condition.
    #[must_use]
    pub fn new(
        workers: Vec<(BoxedOperator<'a>, SharedCounters)>,
        ctx: ExecContext,
        disk: SimDisk,
    ) -> Self {
        assert!(!workers.is_empty(), "exchange needs at least one worker");
        let layout = workers[0].0.layout().clone();
        ExchangeExec {
            workers: workers
                .into_iter()
                .map(|(op, counters)| ExchangeWorker { op, counters })
                .collect(),
            layout,
            ctx,
            disk,
            output: HeldRows::default(),
            pending_err: None,
            opened: false,
        }
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
        let results = run_parallel(&self.disk, tasks);
        // Partial work is real work: merge counters before error handling.
        for w in &self.workers {
            self.ctx.counters.merge_from(&w.counters);
        }
        for r in results {
            match r {
                Ok(batches) => batches.into_iter().for_each(|batch| self.output.push(batch)),
                Err(e) => {
                    self.pending_err.get_or_insert(e);
                }
            }
        }
        if self.pending_err.is_some() {
            self.output = HeldRows::default();
        }
        Ok(())
    }

    /// Hands out the workers' batches. They already charged record
    /// counters when producing these rows; the exchange is pure transport.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        let Some(batch) = self.output.next_slice(max_rows) else {
            return Ok(None);
        };
        self.ctx.governor.check_batch(batch.len() as u64)?;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        // Workers close themselves at the end of their drain; only their
        // output remains to release.
        self.output = HeldRows::default();
        self.pending_err = None;
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open` (what is left to hand out); unknown before.
        self.opened.then(|| self.output.remaining() as u64)
    }
}

/// Builds the partition-parallel file scan: `ctx.dop` morsel-scan workers
/// share one atomic [`PageClaims`] dispenser over the table's pages, so
/// each page is read by exactly one worker and work stays balanced however
/// the threads interleave (on an unpaced disk the first worker, run first,
/// claims every morsel and reads the table in order). Page reads and
/// record decodes are charged by the workers exactly as the serial scan
/// charges them — totals are independent of the interleaving.
#[must_use]
pub fn parallel_scan<'a>(
    table: &'a StoredTable,
    layout: TupleLayout,
    ctx: &ExecContext,
) -> ExchangeExec<'a> {
    let claims = Arc::new(PageClaims::new(table.heap.page_count(), DEFAULT_MORSEL_PAGES));
    // Tracing: all workers share ONE span. Each wrapper accumulates its
    // worker's private totals and ends the span on close (from the worker
    // thread) on the worker's trail, which merges into the query's with
    // the worker's counters; the report merges the ends with
    // `SpanStats::merge_from`. Worker wrappers pass no disk: their windows
    // over the shared disk overlap, so per-worker I/O deltas would
    // double-count; the enclosing scan node's span (whose `open` window
    // contains the whole parallel phase) accounts the I/O exactly instead.
    let dop = ctx.dop.max(1);
    let label = || format!("Morsel-Scan x{dop}");
    let worker_span = ctx.open_span("Morsel-Scan", None, label, ctx.span_parent, None);
    let workers = (0..dop)
        .map(|_| {
            let wctx = ctx.worker();
            let counters = wctx.counters.clone();
            let traced = worker_span.map(|span| (span, wctx.clone()));
            let mut op: BoxedOperator<'a> =
                Box::new(MorselScanExec::new(table, layout.clone(), wctx, Arc::clone(&claims)));
            if let Some((span, wctx)) = traced {
                op = Box::new(TracedExec::new(op, span, wctx, None));
            }
            (op, counters)
        })
        .collect();
    ExchangeExec::new(workers, ctx.clone(), table.heap.disk().clone())
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

    /// The order the tasks ran in and the thread each ran on, beside the
    /// results `run_parallel` handed back.
    fn run_four(disk: &SimDisk) -> (Vec<usize>, Vec<thread::ThreadId>, Vec<usize>) {
        let ran = parking_lot::Mutex::new(Vec::new());
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                let ran = &ran;
                move || {
                    ran.lock().push((i, thread::current().id()));
                    Ok(i * 10)
                }
            })
            .collect();
        let results = run_parallel(disk, tasks).into_iter().map(Result::unwrap).collect();
        let (order, threads) = ran.into_inner().into_iter().unzip();
        (order, threads, results)
    }

    #[test]
    fn run_parallel_runs_in_order_on_the_callers_thread_when_unpaced() {
        let (order, threads, results) = run_four(&SimDisk::new());
        assert_eq!(order, [0, 1, 2, 3], "task order");
        assert!(threads.iter().all(|&t| t == thread::current().id()), "no thread started");
        assert_eq!(results, [0, 10, 20, 30], "results in task order");
    }

    #[test]
    fn run_parallel_runs_each_task_on_a_thread_of_its_own_when_paced() {
        let disk = SimDisk::new();
        disk.set_io_latency_micros(1);
        let (mut order, threads, results) = run_four(&disk);
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2, 3], "every task ran");
        assert!(threads.iter().all(|&t| t != thread::current().id()), "off the caller's thread");
        let distinct: std::collections::HashSet<_> = threads.into_iter().collect();
        assert_eq!(distinct.len(), 4, "a thread a task");
        assert_eq!(results, [0, 10, 20, 30], "results in task order");
    }

    #[test]
    fn run_parallel_propagates_a_tasks_panic() {
        for latency in [0, 1] {
            let disk = SimDisk::new();
            disk.set_io_latency_micros(latency);
            let tasks: Vec<Box<dyn FnOnce() -> Result<(), ExecError> + Send>> =
                vec![Box::new(|| Ok(())), Box::new(|| panic!("task panicked"))];
            let caught =
                panic::catch_unwind(panic::AssertUnwindSafe(|| run_parallel(&disk, tasks)));
            let message = caught.expect_err("the panic reaches the caller");
            assert_eq!(message.downcast_ref::<&str>(), Some(&"task panicked"), "paced: {latency}");
        }
    }

    #[test]
    fn parallel_scan_matches_serial_multiset_and_counters() {
        let (cat, db) = fixture();
        let rel = cat.relation_by_name("r").unwrap().id;
        let table = db.table(rel);
        let serial_ctx = ExecContext::new(SharedCounters::new());
        let mut serial =
            crate::scan::FileScanExec::new(table, TupleLayout::base(&cat, rel), serial_ctx.clone());
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
