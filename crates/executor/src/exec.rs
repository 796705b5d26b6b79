//! The Volcano iterator interface: one protocol, two pull granularities.

use crate::batch::{RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::governor::{ExecMode, ResourceGovernor};
use crate::tuple::{Tuple, TupleLayout};

/// A demand-driven query operator (Volcano iterator model): `open`
/// prepares state (and may consume inputs eagerly for stop-and-go
/// operators like sort and hash-join build), `next`/`next_batch` produce
/// rows, `close` releases state.
///
/// `open` and the pull calls are fallible: storage faults,
/// resource-governor aborts and cancellation surface as [`ExecError`]
/// instead of panics, so a choose-plan operator can catch a retryable
/// `open` failure and fall back to another alternative. `close` stays
/// infallible — teardown must always succeed so errors propagate without
/// leaking operator state.
///
/// **One native body per operator.** Every operator hand-writes exactly
/// one of [`Operator::next`] / [`Operator::next_batch`]; the other is
/// derived. Batch-native operators (scans, filter, hash join, sort,
/// exchange, the materialized scan) derive `next` from a [`RowCursor`]
/// over their own `next_batch`; tuple-native operators (B-tree scans,
/// index join, merge join) keep the trait's default `next_batch`, which
/// loops `next`; pass-through operators (choose-plan, the tracing
/// wrapper) forward both calls to their child. Whoever pulls an operator
/// must stick to one of the two calls between `open` and `close` —
/// interleaving them on the same operator is unsupported.
///
/// **Cursor read-ahead.** A derived `next` refills a whole batch at a
/// time, so a batch-native operator pulled row-wise does up to
/// [`BATCH_CAPACITY`] rows of work (I/O, counter charges) ahead of the
/// row it hands out. A parent that drains its input never sees the
/// difference. A parent that stops early — a merge join ends when its
/// *left* input does — leaves its batch-native right input (a sort
/// buffer, a filter) charged for up to one batch of rows it did not
/// consume. That overshoot is bounded by one batch per such input and
/// must stay inside the plan's compile-time cost interval
/// (`tests/executor_validation.rs` pins this). Consumers that reserve
/// memory per pulled row (hash build, sort ingest) therefore pull
/// `next_batch` with an explicit row bound, never `next`.
pub trait Operator {
    /// Prepares the operator; must be called before `next`.
    ///
    /// # Errors
    /// Any [`ExecError`]; blocking operators do their buffering here, so
    /// memory exhaustion and most storage faults surface from `open`.
    fn open(&mut self) -> Result<(), ExecError>;

    /// Produces the next tuple, or `Ok(None)` when exhausted.
    ///
    /// # Errors
    /// Any [`ExecError`]. After an error the operator's state is
    /// unspecified; callers should `close` it and not call `next` again.
    fn next(&mut self) -> Result<Option<Tuple>, ExecError>;

    /// Produces the next batch of up to roughly `max_rows` rows, or
    /// `Ok(None)` when exhausted. A returned batch is never empty of
    /// physical rows, but a native filter may return a batch whose
    /// selection vector is empty — callers iterate live rows and pull
    /// again.
    ///
    /// The default implementation loops [`Operator::next`]; it is the
    /// derived body of the tuple-native operators.
    ///
    /// # Errors
    /// Any [`ExecError`], as for `next`.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let mut batch = RowBatch::with_capacity(self.layout().width(), max_rows);
        while batch.rows() < max_rows {
            match self.next()? {
                Some(t) => batch.push_row(&t),
                None => break,
            }
        }
        Ok(if batch.rows() == 0 { None } else { Some(batch) })
    }

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

/// The derived `next()` of every batch-native operator: the batch being
/// handed out row by row, and the position of the next live row in it.
/// Operators hold one, clear it in `open`, and delegate `next` to
/// [`cursor_next`].
#[derive(Debug, Default)]
pub(crate) struct RowCursor {
    batch: RowBatch,
    /// Index into the batch's live rows (its selection vector when set).
    pos: usize,
}

impl RowCursor {
    /// Drops any rows read ahead.
    pub(crate) fn clear(&mut self) {
        *self = RowCursor::default();
    }

    /// The next live row, pulling a fresh batch from `refill` whenever
    /// the current one is used up (batches with an empty selection are
    /// skipped).
    pub(crate) fn next_row(
        &mut self,
        mut refill: impl FnMut() -> Result<Option<RowBatch>, ExecError>,
    ) -> Result<Option<Tuple>, ExecError> {
        while self.pos >= self.batch.len() {
            let Some(batch) = refill()? else {
                return Ok(None);
            };
            self.batch = batch;
            self.pos = 0;
        }
        let idx = match self.batch.selection() {
            Some(sel) => sel[self.pos] as usize,
            None => self.pos,
        };
        self.pos += 1;
        Ok(Some(self.batch.row_vec(idx)))
    }
}

/// The whole derived `next()` of a batch-native operator: takes the
/// operator's cursor (reached through `cursor`) out for the duration of
/// the call, so refilling it may borrow the operator for `next_batch`.
pub(crate) fn cursor_next<O: Operator>(
    op: &mut O,
    cursor: impl Fn(&mut O) -> &mut RowCursor,
) -> Result<Option<Tuple>, ExecError> {
    let mut taken = std::mem::take(cursor(op));
    let row = taken.next_row(|| op.next_batch(BATCH_CAPACITY));
    *cursor(op) = taken;
    row
}

/// Caps speculative `Vec` pre-sizing from [`Operator::estimated_rows`], so
/// a bad hint cannot ask for unbounded memory up front.
pub(crate) const MAX_PRESIZE_ROWS: u64 = 1 << 20;

/// Where [`drain_root`] puts the rows it pulls.
#[derive(Debug)]
pub enum RootSink<'a> {
    /// Nowhere: rows are counted (and charged) only.
    Discard,
    /// One owned tuple per row.
    Rows(&'a mut Vec<Tuple>),
    /// The batches as the operator produced them, selection vectors
    /// included (`Tuple` mode packs its rows into [`BATCH_CAPACITY`]-row
    /// batches) — for a consumer that is another stage, not a printer.
    Batches(&'a mut Vec<RowBatch>),
}

/// The root drain — the **one** place an [`ExecMode`] is read. Opens
/// `op`, pulls it to exhaustion through the interface `mode` names
/// (`Tuple`: row by row through `next`, which for batch-native operators
/// is the [`RowCursor`]; `Batch`: `next_batch`), and closes it on success
/// *and* on error, so buffered state and memory reservations are released
/// either way. Returns the number of rows produced.
///
/// With a `governor`, produced rows are charged against the row budget as
/// they are pulled — per row or per batch, tripping at the same
/// cumulative counts. Rows go to `sink` (a row sink is pre-sized from the
/// operator's [`Operator::estimated_rows`] hint).
///
/// # Errors
/// The first [`ExecError`] raised by `open`, a pull, or the row budget.
pub fn drain_root(
    op: &mut dyn Operator,
    mode: ExecMode,
    governor: Option<&ResourceGovernor>,
    mut sink: RootSink<'_>,
) -> Result<u64, ExecError> {
    let mut rows = 0u64;
    let mut pull = || -> Result<(), ExecError> {
        op.open()?;
        if let (RootSink::Rows(out), Some(n)) = (&mut sink, op.estimated_rows()) {
            out.reserve(n.min(MAX_PRESIZE_ROWS) as usize);
        }
        let mut charge = |n: u64| {
            rows += n;
            governor.map_or(Ok(()), |g| g.charge_rows(n))
        };
        match mode {
            ExecMode::Tuple => {
                let width = op.layout().width();
                while let Some(t) = op.next()? {
                    charge(1)?;
                    match &mut sink {
                        RootSink::Discard => {}
                        RootSink::Rows(out) => out.push(t),
                        RootSink::Batches(out) => match out.last_mut() {
                            Some(batch) if batch.rows() < BATCH_CAPACITY => batch.push_row(&t),
                            _ => {
                                let mut batch = RowBatch::new(width);
                                batch.push_row(&t);
                                out.push(batch);
                            }
                        },
                    }
                }
            }
            ExecMode::Batch => {
                while let Some(batch) = op.next_batch(BATCH_CAPACITY)? {
                    charge(batch.len() as u64)?;
                    match &mut sink {
                        RootSink::Discard => {}
                        RootSink::Rows(out) => out.extend(batch.iter()),
                        RootSink::Batches(out) => out.push(batch),
                    }
                }
            }
        }
        Ok(())
    };
    let result = pull();
    op.close();
    result.map(|()| rows)
}

/// Drains an operator to completion row by row, returning all tuples
/// (see [`drain_root`] for the close-on-error contract).
///
/// # Errors
/// The first [`ExecError`] raised by `open` or `next`.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    drain_root(op, ExecMode::Tuple, None, RootSink::Rows(&mut out)).map(|_| out)
}

/// Drains an operator to completion through `next_batch`, returning all
/// tuples (materialized row by row for interop). This is how every
/// internal consumer that wants a whole input — exchange workers,
/// re-optimization checkpoints — pulls it.
///
/// # Errors
/// The first [`ExecError`] raised by `open` or `next_batch`.
pub fn drain_batch(op: &mut dyn Operator) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    drain_root(op, ExecMode::Batch, None, RootSink::Rows(&mut out)).map(|_| out)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::governor::ExecContext;
    use crate::metrics::SharedCounters;
    use crate::reopt::MaterializedScanExec;

    #[test]
    fn batch_sink_keeps_batches_in_both_modes() {
        let n = 2 * BATCH_CAPACITY as i64 + 5;
        let rows: Arc<Vec<Tuple>> = Arc::new((0..n).map(|v| vec![v, -v]).collect());
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            let ctx = ExecContext::new(SharedCounters::new());
            let layout = TupleLayout::for_tests(2, 16);
            let mut op = MaterializedScanExec::new(Arc::clone(&rows), layout, ctx);
            let mut batches = Vec::new();
            let pulled = drain_root(&mut op, mode, None, RootSink::Batches(&mut batches));
            assert_eq!(pulled.unwrap(), n as u64, "{mode:?}");
            assert!(batches.iter().all(|b| b.rows() <= BATCH_CAPACITY), "{mode:?}");
            let got: Vec<Tuple> = batches.iter().flat_map(RowBatch::iter).collect();
            assert_eq!(got, *rows, "{mode:?}");
        }
    }
}
