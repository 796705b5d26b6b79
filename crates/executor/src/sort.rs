//! External sort with memory-bounded, governor-audited runs — columnar
//! from ingest to emission — and the two kernels it is made of, exported
//! for callers that hold their runs in memory already.
//!
//! A *run* here is a slice of [`RowBatch`]es with their selection vectors.
//! [`sort_batches`] is the stable argsort of one run's live rows plus a
//! gather per column; [`kway_merge`] merges runs already sorted on the
//! key, lowest run first among equal keys. The operator sorts a chunk
//! with the first and merges its spilled runs with the second, so its
//! output is *the stable sort of its input*: among equal keys, arrival
//! order.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

use dqep_storage::{PageId, SimDisk, SpillFile, SpillWriter, DEFAULT_MORSEL_PAGES};

use crate::batch::{ColStream, RowBatch};
use crate::error::ExecError;
use crate::exchange::run_parallel;
use crate::governor::ExecContext;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// One row in sort order: its key, and where it lies — the batch of its
/// run (for merged runs: the run) and the physical row in it. Arrival
/// order *is* (batch, row) order, so the plain tuple order of the entries
/// of one run is the stable sort on the key.
type Entry = (i64, u32, u32);

/// The entries of the live rows of `batches`, in arrival order.
fn entries(batches: &[RowBatch], key: usize) -> Vec<Entry> {
    let mut order = Vec::with_capacity(batches.iter().map(RowBatch::len).sum());
    for (b, batch) in batches.iter().enumerate() {
        let col = batch.column(key);
        order.extend(batch.selected_indices().map(|i| (col[i], b as u32, i as u32)));
    }
    order
}

/// Gathers the rows `order` names out of `batches`, one pass per column,
/// into a dense batch — no row is assembled.
fn gather(batches: &[RowBatch], width: usize, order: &[Entry]) -> RowBatch {
    let mut out = RowBatch::with_capacity(width, order.len());
    out.extend_rows_with(order.len(), |cols| {
        for (c, col) in cols.iter_mut().enumerate() {
            let src: Vec<&[i64]> = batches.iter().map(|batch| batch.column(c)).collect();
            col.extend(order.iter().map(|&(_, b, i)| src[b as usize][i as usize]));
        }
    });
    out
}

/// Stable sort of the live rows of `batches` on column `key`, as one
/// dense batch of `width` columns: equal keys keep arrival order.
#[must_use]
pub fn sort_batches(batches: &[RowBatch], width: usize, key: usize) -> RowBatch {
    let mut order = entries(batches, key);
    order.sort_unstable();
    gather(batches, width, &order)
}

/// Where a merge stands in one sorted run: the batch, the index into that
/// batch's live rows, and how many live rows of the run are still to come
/// (a key-range worker merges a stretch of each run, not all of it).
struct RunCursor<'a> {
    run: &'a [RowBatch],
    batch: usize,
    pos: usize,
    left: usize,
}

impl<'a> RunCursor<'a> {
    /// Live rows `lo..hi` of `run`.
    fn stretch(run: &'a [RowBatch], lo: usize, hi: usize) -> RunCursor<'a> {
        let (mut batch, mut pos) = (0, lo);
        while let Some(len) = run.get(batch).map(RowBatch::len).filter(|&len| pos >= len) {
            pos -= len;
            batch += 1;
        }
        RunCursor { run, batch, pos, left: hi - lo }
    }

    /// The batch and physical row under the cursor, stepping over batches
    /// that are used up; `None` at the end of the stretch.
    fn head(&mut self) -> Option<(&'a RowBatch, usize)> {
        if self.left == 0 {
            return None;
        }
        loop {
            let batch = self.run.get(self.batch)?;
            if self.pos < batch.len() {
                let row = batch.selection().map_or(self.pos, |sel| sel[self.pos] as usize);
                return Some((batch, row));
            }
            self.batch += 1;
            self.pos = 0;
        }
    }

    fn advance(&mut self) {
        self.pos += 1;
        self.left -= 1;
    }
}

/// The merge loop: a binary heap of `(key, run)` over the cursors' heads.
/// One head per run is in the heap at a time, so that order is `(key,
/// run, position)` — ties go to the lowest run, and within a run to
/// arrival order. Each winner is handed to `emit` as (run, batch,
/// physical row).
fn merge_cursors<'a>(
    mut cursors: Vec<RunCursor<'a>>,
    key: usize,
    mut emit: impl FnMut(usize, &'a RowBatch, usize),
) {
    let mut heads: Vec<_> = cursors.iter_mut().map(RunCursor::head).collect();
    let mut heap: BinaryHeap<_> = heads
        .iter()
        .enumerate()
        .filter_map(|(r, head)| head.map(|(batch, row)| Reverse((batch.column(key)[row], r))))
        .collect();
    while let Some(mut top) = heap.peek_mut() {
        let r = top.0 .1;
        if let Some((batch, row)) = heads[r] {
            emit(r, batch, row);
        }
        cursors[r].advance();
        heads[r] = cursors[r].head();
        // Replacing the top in place costs one sift, not a pop and a push.
        match heads[r] {
            Some((batch, row)) => top.0 .0 = batch.column(key)[row],
            None => {
                PeekMut::pop(top);
            }
        }
    }
}

/// Order-preserving k-way merge of `runs`, each already sorted on column
/// `key`: every live row is handed to `emit` as (run, batch, physical
/// row), in key order, rows of equal keys lowest run first and in their
/// run's order. Merging the stably sorted runs of an input cut in arrival
/// order therefore yields its stable sort.
pub fn kway_merge<'a>(
    runs: &[&'a [RowBatch]],
    key: usize,
    emit: impl FnMut(usize, &'a RowBatch, usize),
) {
    let cursors = runs
        .iter()
        .map(|run| RunCursor::stretch(run, 0, run.iter().map(RowBatch::len).sum()))
        .collect();
    merge_cursors(cursors, key, emit);
}

/// Merges the rows `lo..hi` of each run (one dense batch per run) into
/// one dense batch. The merge reads the runs' key columns directly: a
/// binary heap of `(key, run)` over each stretch's next key, one head per
/// run, so ties go to the lowest run and within a run to its order — the
/// order [`kway_merge`] gives, without a cursor or a selection check a
/// row.
fn merge_stretches(
    runs: &[RowBatch],
    stretches: impl Iterator<Item = (usize, usize)>,
    width: usize,
    key: usize,
) -> RowBatch {
    // Each run's key column, next row and end.
    let mut rest: Vec<(&[i64], usize, usize)> =
        runs.iter().zip(stretches).map(|(run, (lo, hi))| (run.column(key), lo, hi)).collect();
    let mut order: Vec<Entry> = Vec::with_capacity(rest.iter().map(|&(_, lo, hi)| hi - lo).sum());
    let mut heap: BinaryHeap<_> = rest
        .iter()
        .enumerate()
        .filter(|&(_, &(_, lo, hi))| lo < hi)
        .map(|(r, &(keys, lo, _))| Reverse((keys[lo], r)))
        .collect();
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((k, r)) = *top;
        let (keys, next, end) = &mut rest[r];
        order.push((k, r as u32, *next as u32));
        *next += 1;
        // Replacing the top in place costs one sift, not a pop and a push.
        if *next < *end {
            top.0 .0 = keys[*next];
        } else {
            PeekMut::pop(top);
        }
    }
    gather(runs, width, &order)
}

/// The cooperative merge phase: partitions the key space into up to `dop`
/// ranges by sampling splitter keys from the sorted runs, cuts every run's
/// key column at each splitter with a binary search (`partition_point` on
/// `<=`, so equal keys never straddle a boundary), and merges each range's
/// stretches on its own worker thread. Every worker runs the serial
/// merge's loop within its disjoint key range, so concatenating the ranges
/// in order reproduces the serial merge output exactly — only the
/// wall-clock work is split.
fn parallel_range_merge(runs: &[RowBatch], width: usize, key: usize, dop: usize) -> ColStream {
    // Splitters: sample up to 32 evenly spaced keys per run, then take
    // `dop - 1` quantiles of the pooled sample. Sampling quality affects
    // only range balance, never correctness.
    let mut samples: Vec<i64> = Vec::new();
    for run in runs {
        let keys = run.column(key);
        let s = keys.len().min(32);
        samples.extend((0..s).map(|j| keys[j * keys.len() / s]));
    }
    samples.sort_unstable();
    let mut bounds: Vec<i64> = (1..dop).map(|i| samples[i * samples.len() / dop]).collect();
    bounds.dedup();
    // Cut offsets per run: range `r` owns `cuts[r]..cuts[r + 1]`.
    let cuts: Vec<Vec<usize>> = runs
        .iter()
        .map(|run| {
            let keys = run.column(key);
            let mut c = Vec::with_capacity(bounds.len() + 2);
            c.push(0);
            c.extend(bounds.iter().map(|&b| keys.partition_point(|&k| k <= b)));
            c.push(keys.len());
            c
        })
        .collect();
    let cuts = &cuts;
    let tasks: Vec<_> = (0..=bounds.len())
        .map(|r| {
            move || {
                let stretches = cuts.iter().map(|cut| (cut[r], cut[r + 1]));
                Ok((r, merge_stretches(runs, stretches, width, key)))
            }
        })
        .collect();
    // Range merging is pure CPU: the tasks are infallible.
    ColStream::concat(width, run_parallel(tasks).into_iter().flatten().collect())
}

/// Sorts its input ascending on one attribute position; rows of equal
/// keys come out in the order they came in.
///
/// Inputs fitting the memory grant are sorted in memory; larger inputs are
/// cut into sorted runs spilled to accounted temporary files and merged —
/// one extra write + read pass over the data, matching the cost model's
/// `2 × pages × passes` charge (the experiments' inputs need at most one
/// merge pass at the minimum 16-page grant).
///
/// Rows never take row shape on the way: batches are ingested into
/// per-attribute vectors, a chunk is argsorted on `(key, arrival)` and
/// written in that order straight from its columns, runs are read back
/// page-wise into columns and merged over their key columns, and the
/// output is gathered column by column and handed out in slices.
///
/// Buffered rows are *reserved* with the query's resource governor before
/// they are held, so a grant the governor refuses to cover surfaces as
/// [`ExecError::ResourceExhausted`] from `open` instead of silently
/// exceeding the limit. Run formation is governed; the merge pass streams
/// runs through fixed-size decode buffers the simulator does not charge
/// (the classic "one page per run" merge assumption).
pub struct SortExec<'a> {
    input: BoxedOperator<'a>,
    key: usize,
    ctx: ExecContext,
    disk: SimDisk,
    budget_bytes: usize,
    /// Bytes currently reserved with the governor; released in `close`.
    reserved: u64,
    output: ColStream,
}

impl<'a> SortExec<'a> {
    /// Creates a sort on attribute position `key`.
    #[must_use]
    pub fn new(
        input: BoxedOperator<'a>,
        key: usize,
        ctx: ExecContext,
        disk: SimDisk,
        budget_bytes: usize,
    ) -> Self {
        SortExec { input, key, ctx, disk, budget_bytes, reserved: 0, output: ColStream::default() }
    }

    fn reserve(&mut self, bytes: u64) -> Result<(), ExecError> {
        self.ctx.governor.try_reserve_memory(bytes)?;
        self.reserved += bytes;
        Ok(())
    }

    /// Reserves `rows` rows at once. When the governor refuses, the rows
    /// are reserved one by one up to the refusal instead, so the error
    /// names one row and leaves reserved what a per-row ingest would.
    fn reserve_rows(&mut self, rows: usize, row_bytes: usize) -> Result<(), ExecError> {
        if self.reserve((rows * row_bytes) as u64).is_ok() {
            return Ok(());
        }
        (0..rows).try_for_each(|_| self.reserve(row_bytes as u64))
    }

    /// Argsorts one buffered chunk, charging the cost model's `n·log₂(n)`
    /// compare formula. The entries are distinct, so the unstable sort of
    /// `(key, arrival)` is the stable sort on the key without the stable
    /// sort's allocation. With `ctx.dop > 1` and a chunk worth splitting,
    /// the entries are cut into `dop` slices sorted on worker threads —
    /// parallel run generation. Compare accounting is the same formula
    /// either way, so counters stay DOP-independent.
    fn sort_chunk(&self, chunk: &RowBatch) -> Vec<Entry> {
        let mut order = entries(std::slice::from_ref(chunk), self.key);
        let n = order.len();
        if n > 1 {
            let compares = (n as f64 * (n as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(compares);
        }
        let dop = self.ctx.dop.max(1);
        if dop <= 1 || n < dop * 2 {
            order.sort_unstable();
            return order;
        }
        let tasks: Vec<_> = order
            .chunks_mut(n.div_ceil(dop))
            .map(|slice| {
                move || {
                    slice.sort_unstable();
                    Ok(())
                }
            })
            .collect();
        // Slice sorting is pure CPU: the tasks are infallible.
        run_parallel::<(), _>(tasks);
        // The stable sort is a merge sort that starts from the sorted
        // stretches it finds: here, the workers' slices.
        order.sort();
        order
    }

    /// Sorts `chunk` and spills it to a fresh accounted run, releasing its
    /// memory reservation. The run is a query-lifetime file: its pages go
    /// back to the disk when `fill` drops it, merged or failed.
    ///
    /// The run's pages are written uncharged and the accounting is settled
    /// explicitly afterwards: exactly one charged write per data page, the
    /// same count, order, and fault-ordinal positions as a charged writer
    /// (no other accounted I/O happens inside a spill). Splitting content
    /// from accounting lets a parallel sort overlap the charges' pacing
    /// stalls across workers.
    fn spill_chunk(
        &mut self,
        chunk: &mut RowBatch,
        runs: &mut Vec<SpillFile>,
        row_bytes: usize,
    ) -> Result<(), ExecError> {
        let order = self.sort_chunk(chunk);
        let mut run = [SpillWriter::uncharged(self.disk.clone(), row_bytes)];
        SpillWriter::deal(
            &mut run,
            chunk.columns(),
            order.iter().map(|&(_, _, i)| (i as usize, 0)),
        )?;
        let [run] = run;
        let run = run.finish()?;
        self.charge_run_writes(run.page_count())?;
        runs.push(run);
        let spilled = (chunk.rows() * row_bytes) as u64;
        self.ctx.governor.release_memory(spilled);
        self.reserved -= spilled;
        chunk.clear();
        Ok(())
    }

    /// Charges the spilled run's page writes — to the I/O budget in one
    /// step, to the disk page by page. Serial below DOP 2 (or for a single
    /// page), under one disk latch ([`SimDisk::note_writes`]); otherwise
    /// the charges split across `dop` workers so
    /// their I/O pacing stalls overlap. Totals are DOP-exact; a write
    /// fault is charged before it errors on either path, exactly like a
    /// charged writer's.
    fn charge_run_writes(&self, pages: usize) -> Result<(), ExecError> {
        self.ctx.governor.charge_io(pages as u64)?;
        let dop = self.ctx.dop.max(1);
        if dop <= 1 || pages < 2 {
            return Ok(self.disk.note_writes(pages)?);
        }
        let share = pages.div_ceil(dop);
        let disk = &self.disk;
        let tasks: Vec<_> = (0..dop)
            .map(|w| share.min(pages.saturating_sub(w * share)))
            .filter(|&n| n > 0)
            .map(|n| {
                move || {
                    for _ in 0..n {
                        disk.note_write()?;
                    }
                    Ok(())
                }
            })
            .collect();
        for result in run_parallel::<(), _>(tasks) {
            result?;
        }
        Ok(())
    }

    /// Reads every run back (accounted, and charged to the I/O budget in
    /// one step before the first page), one dense batch per run, each
    /// run's rows copied after its reads with one slice a column: a whole
    /// run file under one disk latch at DOP 1.
    ///
    /// With `dop > 1` the reads fan out over *pages*, not whole runs
    /// (worker `w` reads every `dop`-th page of the concatenated run page
    /// list, a morsel under one latch at most, so the paced stalls overlap
    /// even when the grant produced fewer runs than workers — the page
    /// *set* is identical, so page-identity faults trip identically; only
    /// the seq/random read split may shift). A run's rows are its file's,
    /// so once every read has succeeded each run is copied the same way:
    /// the batches are the serial ones.
    fn read_runs(&self, runs: &[SpillFile], width: usize) -> Result<Vec<RowBatch>, ExecError> {
        let pages: usize = runs.iter().map(SpillFile::page_count).sum();
        self.ctx.governor.charge_io(pages as u64)?;
        let dop = self.ctx.dop.max(1);
        if dop <= 1 {
            return runs
                .iter()
                .map(|run| Ok(RowBatch::from_spill(run, width, usize::MAX)?))
                .collect();
        }
        let ids: Vec<PageId> = runs.iter().flat_map(|run| run.pages().iter().copied()).collect();
        let workers = dop.min(ids.len().max(1));
        let (ids, disk) = (&ids, &self.disk);
        let tasks: Vec<_> = (0..workers)
            .map(|w| {
                move || {
                    let mut stripe = ids.iter().copied().skip(w).step_by(workers).peekable();
                    while stripe.peek().is_some() {
                        disk.read_run(stripe.by_ref().take(DEFAULT_MORSEL_PAGES), |_| {
                            ControlFlow::Continue(())
                        })?;
                    }
                    Ok(())
                }
            })
            .collect();
        for result in run_parallel::<(), _>(tasks) {
            result?;
        }
        let copied = |run: &SpillFile| {
            let mut rows = RowBatch::with_capacity(width, run.record_count() as usize);
            rows.extend_from_page(run.rows());
            rows
        };
        Ok(runs.iter().map(copied).collect())
    }

    /// Consumes the (already open) input and leaves the sorted rows in
    /// `self.output`.
    fn fill(&mut self) -> Result<(), ExecError> {
        let row_bytes = self.input.layout().row_bytes;
        let width = self.input.layout().width();
        let budget_rows = (self.budget_bytes / row_bytes).max(1);

        // Run formation: buffer up to one memory grant of rows; when a row
        // arrives to a full chunk, sort the chunk and spill it as a run.
        // A batch is ingested in slices no larger than the room left in
        // the chunk, each reserved before it is held — the spill bound
        // (never more than one grant of rows resident) is part of the
        // memory contract, so ingest must not reserve a whole batch ahead.
        let mut chunk = RowBatch::with_capacity(width, 0);
        let mut runs: Vec<SpillFile> = Vec::new();
        loop {
            // Request at most one row past what the memory limit still
            // covers, so the input never produces (and charges for) rows
            // beyond the first one a reservation would be refused for.
            let req = self.ctx.governor.ingest_batch_rows(row_bytes);
            let Some(batch) = self.input.next_batch(req)? else { break };
            self.ctx.governor.check_batch(batch.len() as u64)?;
            let mut lo = 0;
            while lo < batch.len() {
                if chunk.rows() >= budget_rows {
                    self.spill_chunk(&mut chunk, &mut runs, row_bytes)?;
                }
                let take = (batch.len() - lo).min(budget_rows - chunk.rows());
                self.reserve_rows(take, row_bytes)?;
                chunk.extend_from_live(&batch, lo..lo + take);
                lo += take;
            }
        }

        if runs.is_empty() {
            // Everything fit the grant: sort in memory. The reservation is
            // held until `close` — the rows really are resident.
            let order = self.sort_chunk(&chunk);
            self.output = ColStream::new(gather(std::slice::from_ref(&chunk), width, &order));
            return Ok(());
        }

        // The tail chunk becomes the final run.
        if chunk.rows() > 0 {
            self.spill_chunk(&mut chunk, &mut runs, row_bytes)?;
        }

        // Merge pass: read runs back (accounted) and k-way merge. Compares
        // are charged by the cost model's `n·log₂(k)` selection-tree
        // formula rather than counted in the loop: the loop's actual count
        // depends on how the runs' key ranges interleave, and run
        // *composition* is arrival-order dependent under an exchange — a
        // per-head count would make the total DOP-sensitive. Run count and
        // total rows are fixed by the memory grant, so the formula keeps
        // the counters DOP-exact (and sums with the per-run charges to the
        // model's `n·log₂(n)`).
        //
        // With `dop > 1` the merge itself is range-cooperative: workers
        // claim disjoint key ranges via splitter sampling and merge them
        // concurrently, reproducing the serial output exactly.
        let run_rows = self.read_runs(&runs, width)?;
        let total_rows: usize = run_rows.iter().map(RowBatch::rows).sum();
        if total_rows > 0 && run_rows.len() > 1 {
            let merge_compares = (total_rows as f64 * (run_rows.len() as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(merge_compares);
        }
        let dop = self.ctx.dop.max(1);
        self.output = if dop <= 1 || total_rows < 2 {
            let whole = run_rows.iter().map(|run| (0, run.rows()));
            ColStream::new(merge_stretches(&run_rows, whole, width, self.key))
        } else {
            parallel_range_merge(&run_rows, width, self.key, dop)
        };
        Ok(())
    }
}

impl Operator for SortExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.input.open()?;
        let result = self.fill();
        self.input.close();
        result
    }

    /// The sort's native emission, a slice of the sorted columns: one
    /// governor check and one counter update per batch.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let Some(batch) = self.output.next_slice(max_rows) else {
            return Ok(None);
        };
        self.ctx.governor.check_batch(batch.rows() as u64)?;
        self.ctx.counters.add_records(batch.rows() as u64);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        if self.reserved > 0 {
            self.ctx.governor.release_memory(self.reserved);
            self.reserved = 0;
        }
        self.output = ColStream::default();
    }

    fn layout(&self) -> &TupleLayout {
        self.input.layout()
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open`: what is left of the sorted output.
        Some(self.output.remaining() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(width: usize, rows: &[&[i64]]) -> RowBatch {
        let mut batch = RowBatch::with_capacity(width, rows.len());
        rows.iter().for_each(|row| batch.push_row(row));
        batch
    }

    #[test]
    fn kway_merge_is_ordered_and_complete() {
        // Run 0 spans two batches (the first filtered down to one live
        // row), run 2 is empty, run 3 starts with an empty batch: the
        // cursors must step over all of that.
        let mut filtered = batch_of(2, &[&[0, 99], &[1, 10], &[3, 98]]);
        filtered.set_selection(vec![1]);
        let runs = [
            vec![filtered, batch_of(2, &[&[4, 11]])],
            vec![batch_of(2, &[&[2, 20]])],
            vec![],
            vec![batch_of(2, &[]), batch_of(2, &[&[2, 30], &[9, 31]])],
        ];
        let runs: Vec<&[RowBatch]> = runs.iter().map(Vec::as_slice).collect();
        let mut merged = Vec::new();
        kway_merge(&runs, 0, |run, batch, i| merged.push((run, batch.row_vec(i))));
        let keys: Vec<i64> = merged.iter().map(|(_, r)| r[0]).collect();
        assert_eq!(keys, vec![1, 2, 2, 4, 9]);
        // Ties resolve by run index: run 1's row precedes run 3's.
        assert_eq!(merged[1], (1, vec![2, 20]));
        assert_eq!(merged[2], (3, vec![2, 30]));
    }

    #[test]
    fn sort_batches_is_a_stable_sort_of_the_live_rows() {
        let mut first = batch_of(2, &[&[5, 0], &[1, 1], &[7, 2], &[1, 3]]);
        first.set_selection(vec![0, 1, 3]);
        let second = batch_of(2, &[&[1, 4], &[0, 5]]);
        let sorted = sort_batches(&[first, second], 2, 0);
        assert!(sorted.selection().is_none(), "the result is dense");
        assert_eq!(
            sorted.to_tuples(),
            vec![vec![0, 5], vec![1, 1], vec![1, 3], vec![1, 4], vec![5, 0]],
            "equal keys keep arrival order; the dead row is gone"
        );
    }

    #[test]
    fn a_stretch_starts_and_ends_inside_a_run_of_several_batches() {
        let mut filtered = batch_of(1, &[&[1], &[2], &[3], &[4]]);
        filtered.set_selection(vec![0, 2, 3]);
        let run = [filtered, batch_of(1, &[]), batch_of(1, &[&[5], &[6]])];
        // Live rows of the run: 1 3 4 5 6.
        for (lo, hi, want) in
            [(0, 5, vec![1, 3, 4, 5, 6]), (2, 4, vec![4, 5]), (3, 3, vec![]), (5, 5, vec![])]
        {
            let mut got = Vec::new();
            merge_cursors(vec![RunCursor::stretch(&run, lo, hi)], 0, |_, batch, i| {
                got.push(batch.column(0)[i]);
            });
            assert_eq!(got, want, "live rows {lo}..{hi}");
        }
    }
}
