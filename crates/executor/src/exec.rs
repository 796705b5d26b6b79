//! The Volcano iterator interface: one protocol, one pull method.

use crate::batch::{RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::governor::ResourceGovernor;
use crate::tuple::{Tuple, TupleLayout};

/// A demand-driven query operator (Volcano iterator model): `open`
/// prepares state (and may consume inputs eagerly for stop-and-go
/// operators like sort and hash-join build), `next_batch` produces rows a
/// [`RowBatch`] at a time, `close` releases state. Rows as owned tuples
/// exist only at a sink ([`RootSink::Rows`]).
///
/// `open` and `next_batch` are fallible: storage faults,
/// resource-governor aborts and cancellation surface as [`ExecError`]
/// instead of panics, so a choose-plan operator can catch a retryable
/// `open` failure and fall back to another alternative. `close` stays
/// infallible — teardown must always succeed so errors propagate without
/// leaking operator state.
///
/// Three contracts hold for every implementation, and everything above an
/// operator relies on them:
///
/// 1. **`max_rows` is a hard bound.** A returned batch never holds more
///    live rows than were asked for. Consumers that reserve memory per
///    pulled row (hash build, sort ingest) ask for exactly as many rows
///    as they can still pay for
///    ([`ResourceGovernor::ingest_batch_rows`]).
/// 2. **An operator pulls its inputs with the `max_rows` it was asked
///    for**, so that bound reaches the leaves: no input produces (and
///    charges for) more than a request ahead of what its consumer takes.
/// 3. **Charges follow events, not batches**: one record per row
///    produced, one compare per row examined, one page per fetch, pool
///    miss or index node read. A plan's `CpuCounters` and page counts do
///    not depend on the request sizes its rows travel in — nor on how
///    many pages a scan reads under one disk latch: a run of pages is
///    charged, budgeted and faulted page by page.
pub trait Operator {
    /// Prepares the operator; must be called before `next_batch`.
    ///
    /// # Errors
    /// Any [`ExecError`]; blocking operators do their buffering here, so
    /// memory exhaustion and most storage faults surface from `open`.
    fn open(&mut self) -> Result<(), ExecError>;

    /// Produces the next batch of at most `max_rows` live rows, or
    /// `Ok(None)` when exhausted. A returned batch is never empty of
    /// physical rows, but a filter may return a batch whose selection
    /// vector is empty — callers iterate live rows and pull again.
    ///
    /// # Errors
    /// Any [`ExecError`]. After an error the operator's state is
    /// unspecified; callers should `close` it and not pull again. (The
    /// scans do better: an error met after the batch already holds rows
    /// is raised by the *next* call, so the rows are delivered first, and
    /// a pull after the error reads the failed page again.)
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError>;

    /// Releases resources; the operator may not be reopened.
    fn close(&mut self);

    /// The layout of produced tuples.
    fn layout(&self) -> &TupleLayout;

    /// A hint of how many rows this operator will still produce, when it
    /// knows (a file scan knows its table's record count; a sort knows its
    /// buffered output exactly after `open`). `None` when unknown —
    /// operators whose output depends on predicate selectivity do not
    /// guess. Callers use this to pre-size result buffers only; it has no
    /// correctness weight.
    fn estimated_rows(&self) -> Option<u64> {
        None
    }
}

/// A boxed operator as the compiler produces it. Operators are `Send` so
/// a compiled subtree can be handed to an exchange worker thread; they are
/// not `Sync` — each worker owns its subtree exclusively.
pub type BoxedOperator<'a> = Box<dyn Operator + Send + 'a>;

/// Caps speculative `Vec` pre-sizing from [`Operator::estimated_rows`], so
/// a bad hint cannot ask for unbounded memory up front.
pub(crate) const MAX_PRESIZE_ROWS: u64 = 1 << 20;

/// Where [`drain_root`] puts the rows it pulls.
#[derive(Debug)]
pub enum RootSink<'a> {
    /// Nowhere: rows are counted (and charged) only.
    Discard,
    /// One owned tuple per row — the only place rows become tuples.
    Rows(&'a mut Vec<Tuple>),
    /// The batches as the operator produced them, selection vectors
    /// included — for a consumer that is another stage, not a printer.
    Batches(&'a mut Vec<RowBatch>),
}

impl RootSink<'_> {
    /// The same sink for one more drain.
    pub(crate) fn reborrow(&mut self) -> RootSink<'_> {
        match self {
            RootSink::Discard => RootSink::Discard,
            RootSink::Rows(out) => RootSink::Rows(out),
            RootSink::Batches(out) => RootSink::Batches(out),
        }
    }

    /// How much the sink holds now; [`RootSink::truncate`] cuts back to it.
    pub(crate) fn mark(&self) -> usize {
        match self {
            RootSink::Discard => 0,
            RootSink::Rows(out) => out.len(),
            RootSink::Batches(out) => out.len(),
        }
    }

    /// Drops what a failed drain delivered after `mark` was taken, so the
    /// attempt that replaces it starts from the caller's own contents.
    pub(crate) fn truncate(&mut self, mark: usize) {
        match self {
            RootSink::Discard => {}
            RootSink::Rows(out) => out.truncate(mark),
            RootSink::Batches(out) => out.truncate(mark),
        }
    }
}

/// The root drain: opens `op`, pulls it to exhaustion in
/// [`BATCH_CAPACITY`]-row requests, and closes it on success *and* on
/// error, so buffered state and memory reservations are released either
/// way. Returns the number of rows produced.
///
/// With a `governor`, produced rows are charged against the row budget
/// batch by batch. Rows go to `sink` (a row sink is pre-sized from the
/// operator's [`Operator::estimated_rows`] hint). This is how every
/// consumer that wants a whole input pulls it: the root of a query,
/// exchange workers, re-optimization checkpoints, a sharded query's steps.
///
/// # Errors
/// The first [`ExecError`] raised by `open`, a pull, or the row budget.
pub fn drain_root(
    op: &mut dyn Operator,
    governor: Option<&ResourceGovernor>,
    mut sink: RootSink<'_>,
) -> Result<u64, ExecError> {
    let mut rows = 0u64;
    let mut pull = || -> Result<(), ExecError> {
        op.open()?;
        if let (RootSink::Rows(out), Some(n)) = (&mut sink, op.estimated_rows()) {
            out.reserve(n.min(MAX_PRESIZE_ROWS) as usize);
        }
        while let Some(batch) = op.next_batch(BATCH_CAPACITY)? {
            let n = batch.len() as u64;
            rows += n;
            governor.map_or(Ok(()), |g| g.charge_rows(n))?;
            match &mut sink {
                RootSink::Discard => {}
                RootSink::Rows(out) => out.extend(batch.iter()),
                RootSink::Batches(out) => out.push(batch),
            }
        }
        Ok(())
    };
    let result = pull();
    op.close();
    result.map(|()| rows)
}

/// Drains an operator to completion into owned tuples — [`drain_root`]
/// with a row sink and no row budget.
///
/// # Errors
/// The first [`ExecError`] raised by `open` or a pull.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    drain_root(op, None, RootSink::Rows(&mut out)).map(|_| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ExecContext;
    use crate::metrics::SharedCounters;
    use crate::LinkScanExec;

    #[test]
    fn batch_sink_keeps_batches_and_a_mark_cuts_back_to_it() {
        let n = 2 * BATCH_CAPACITY + 5;
        let mut source = RowBatch::with_capacity(2, n);
        (0..n as i64).for_each(|v| source.push_row(&[v, -v]));
        let rows = source.to_tuples();
        let ctx = ExecContext::new(SharedCounters::new());
        let layout = TupleLayout::for_tests(2, 16);
        // A leaf is read once: each drain gets its own over the same rows.
        let leaf = || LinkScanExec::held(vec![source.clone()], layout.clone(), ctx.clone());
        let mut batches = vec![RowBatch::new(2)];
        let mut sink = RootSink::Batches(&mut batches);
        let mark = sink.mark();
        let pulled = drain_root(&mut leaf(), None, sink.reborrow());
        assert_eq!(pulled.unwrap(), n as u64);
        sink.truncate(mark);
        drain_root(&mut leaf(), None, sink).unwrap();
        assert_eq!(batches.len(), 4, "the caller's batch, then one drain's three");
        assert!(batches.iter().all(|b| b.rows() <= BATCH_CAPACITY));
        let got: Vec<Tuple> = batches.iter().flat_map(RowBatch::iter).collect();
        assert_eq!(got, rows);
    }
}
