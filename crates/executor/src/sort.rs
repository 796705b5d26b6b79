//! External sort with memory-bounded, governor-audited runs — columnar
//! from ingest to emission — and the two kernels it is made of, exported
//! for callers that hold their runs in memory already.
//!
//! A *run* here is a slice of [`RowBatch`]es with their selection vectors.
//! [`sort_batches`] is the stable argsort of one run's live rows plus a
//! gather per column; [`kway_merge`] merges runs already sorted on the
//! key, lowest run first among equal keys. The operator sorts a chunk
//! with the first and merges its spilled runs with the second's loop, so
//! its output is *the stable sort of its input*: among equal keys,
//! arrival order.
//!
//! Both kernels pack what they compare into one integer. The run sort is
//! a stable LSD radix sort of `(key − min) << 32 | arrival ordinal`, a
//! byte of the keys' span a pass. The merge is a tournament (loser) tree
//! over heads `(key − min) << ⌈log₂ k⌉ | run`, one integer compare a
//! level. Keys whose span the packing cannot hold take a comparison sort
//! and 128-bit heads instead.

use dqep_storage::{SimDisk, SpillFile, SpillWriter};

use crate::batch::{ColStream, RowBatch};
use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// A run-sort entry keeps the row's arrival ordinal in its low 32 bits and
/// the key's offset from the least key above them.
const ORDINAL_BITS: u32 = 32;

/// The run sort: a stable argsort of one run's keys. An operator keeps one
/// across its chunks, so its buffers are allocated once.
#[derive(Default)]
struct RunSort {
    /// After [`RunSort::sort`], one entry a row in key order, the row's
    /// arrival ordinal in the bits `ordinal` masks.
    sorted: Vec<u64>,
    /// The radix passes' second buffer.
    spare: Vec<u64>,
    /// `(key, ordinal)` pairs, for keys the packing cannot hold.
    wide: Vec<(i64, u64)>,
    ordinal: u64,
}

impl RunSort {
    /// Sorts `keys` stably: afterwards [`RunSort::order`] lists the
    /// ordinals of `keys` in key order, equal keys in ordinal order. The
    /// packed entries are distinct, so sorting them on the key's bits
    /// alone, stably, is sorting them as integers: the unstable sort of
    /// `(key, ordinal)`. Keys spanning `2^32` values or more, or `2^32`
    /// rows or more, take that comparison sort itself.
    fn sort(&mut self, keys: &[i64]) {
        let (min, max) =
            keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &key| (lo.min(key), hi.max(key)));
        let span = (max as u64).wrapping_sub(min as u64);
        self.sorted.clear();
        if (span | keys.len() as u64) >> ORDINAL_BITS == 0 {
            let offset = |key: i64| (key as u64).wrapping_sub(min as u64) << ORDINAL_BITS;
            self.sorted.extend(keys.iter().zip(0..).map(|(&key, o)| offset(key) | o));
            self.spare.resize(keys.len(), 0);
            radix_sort(&mut self.sorted, &mut self.spare, u64::BITS - span.leading_zeros());
            self.ordinal = u64::from(u32::MAX);
        } else {
            self.wide.clear();
            self.wide.extend(keys.iter().copied().zip(0..));
            self.wide.sort_unstable();
            self.sorted.extend(self.wide.iter().map(|&(_, o)| o));
            self.ordinal = u64::MAX;
        }
    }

    /// The ordinals of the last [`RunSort::sort`]'s keys, in key order.
    fn order(&self) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        self.sorted.iter().map(|&entry| (entry & self.ordinal) as usize)
    }
}

/// Stable LSD radix sort of `entries` (fewer than `2^32`) on their bits
/// `32..32 + bits`, a byte a pass, through `spare` (as long as
/// `entries`). One read counts every pass's digits; a pass whose digit is
/// the same for every entry would copy, and is skipped.
fn radix_sort(entries: &mut [u64], spare: &mut [u64], bits: u32) {
    const DIGITS: usize = 256;
    let passes = bits.div_ceil(8) as usize;
    let mut counts = [[0u32; DIGITS]; 4];
    for &entry in entries.iter() {
        for (p, count) in counts[..passes].iter_mut().enumerate() {
            count[(entry >> (ORDINAL_BITS as usize + 8 * p)) as usize % DIGITS] += 1;
        }
    }
    let n = entries.len() as u32;
    let (mut from, mut to) = (entries, spare);
    let mut in_spare = false;
    for (p, count) in counts[..passes].iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut next = [0u32; DIGITS];
        let mut at = 0;
        for (next, &count) in next.iter_mut().zip(count) {
            *next = at;
            at += count;
        }
        let shift = ORDINAL_BITS as usize + 8 * p;
        for &entry in from.iter() {
            let digit = (entry >> shift) as usize % DIGITS;
            to[next[digit] as usize] = entry;
            next[digit] += 1;
        }
        std::mem::swap(&mut from, &mut to);
        in_spare = !in_spare;
    }
    if in_spare {
        to.copy_from_slice(from);
    }
}

/// Gathers the rows `order` names — (batch, physical row) — out of
/// `batches`, one pass per column, into a dense batch: no row is
/// assembled.
fn gather(
    batches: &[RowBatch],
    width: usize,
    order: impl ExactSizeIterator<Item = (usize, usize)> + Clone,
) -> RowBatch {
    let mut out = RowBatch::with_capacity(width, order.len());
    out.extend_rows_with(order.len(), |cols| {
        for (c, col) in cols.iter_mut().enumerate() {
            let src: Vec<&[i64]> = batches.iter().map(|batch| batch.column(c)).collect();
            col.extend(order.clone().map(|(b, i)| src[b][i]));
        }
    });
    out
}

/// Stable sort of the live rows of `batches` on column `key`, as one
/// dense batch of `width` columns: equal keys keep arrival order.
#[must_use]
pub fn sort_batches(batches: &[RowBatch], width: usize, key: usize) -> RowBatch {
    let mut sort = RunSort::default();
    if let [batch] = batches {
        if batch.selection().is_none() {
            // One dense batch: its key column lists the keys in arrival
            // order.
            sort.sort(batch.column(key));
            return gather(batches, width, sort.order().map(|o| (0, o)));
        }
    }
    let live: Vec<(u32, u32)> = batches
        .iter()
        .zip(0..)
        .flat_map(|(batch, b)| batch.selected_indices().map(move |i| (b, i as u32)))
        .collect();
    let keys: Vec<i64> =
        live.iter().map(|&(b, i)| batches[b as usize].column(key)[i as usize]).collect();
    sort.sort(&keys);
    let order = sort.order().map(|o| (live[o].0 as usize, live[o].1 as usize));
    gather(batches, width, order)
}

/// A sorted input of the merge loop, seen from its next row.
trait MergeRun {
    /// The key of the next row; `None` once the run is used up.
    fn head(&self) -> Option<i64>;
    /// The key of the last row still to come.
    fn last(&self) -> Option<i64>;
    /// Steps past the next row.
    fn advance(&mut self);
}

/// Rows `next..` of a dense run's key column, cut at the end of the
/// stretch a merge reads.
struct Stretch<'a> {
    keys: &'a [i64],
    next: usize,
}

impl MergeRun for Stretch<'_> {
    fn head(&self) -> Option<i64> {
        self.keys.get(self.next).copied()
    }

    fn last(&self) -> Option<i64> {
        self.keys[self.next..].last().copied()
    }

    fn advance(&mut self) {
        self.next += 1;
    }
}

/// Where a merge stands in one sorted run of batches with selection
/// vectors: the batch and the index into its live rows, never on a batch
/// that is used up.
struct RunCursor<'a> {
    run: &'a [RowBatch],
    key: usize,
    batch: usize,
    pos: usize,
}

impl<'a> RunCursor<'a> {
    fn new(run: &'a [RowBatch], key: usize) -> RunCursor<'a> {
        let mut cursor = RunCursor { run, key, batch: 0, pos: 0 };
        cursor.skip_used();
        cursor
    }

    fn skip_used(&mut self) {
        while self.run.get(self.batch).is_some_and(|batch| self.pos >= batch.len()) {
            self.batch += 1;
            self.pos = 0;
        }
    }

    /// The batch and physical row of the next row; the run must have one.
    fn row(&self) -> (&'a RowBatch, usize) {
        let batch = &self.run[self.batch];
        (batch, batch.physical(self.pos))
    }
}

impl MergeRun for RunCursor<'_> {
    fn head(&self) -> Option<i64> {
        let batch = self.run.get(self.batch)?;
        Some(batch.column(self.key)[batch.physical(self.pos)])
    }

    fn last(&self) -> Option<i64> {
        let batch = self.run[self.batch..].iter().rev().find(|batch| !batch.is_empty())?;
        Some(batch.column(self.key)[batch.physical(batch.len() - 1)])
    }

    fn advance(&mut self) {
        self.pos += 1;
        self.skip_used();
    }
}

/// A merge head packed into one unsigned integer, the key's offset above
/// the run's index, so that one compare orders two heads by key and then
/// by run. [`Head::END`], above every packed head, stands for a used-up
/// run.
trait Head: Copy + Ord {
    const END: Self;
    fn pack(key: i64, min: i64, shift: u32, run: usize) -> Self;
    fn run(self, shift: u32) -> usize;
}

impl Head for u64 {
    const END: u64 = u64::MAX;

    fn pack(key: i64, min: i64, shift: u32, run: usize) -> u64 {
        ((key as u64).wrapping_sub(min as u64) << shift) | run as u64
    }

    fn run(self, shift: u32) -> usize {
        (self & ((1 << shift) - 1)) as usize
    }
}

/// The wide head, for any keys: the key with its sign bit flipped, so that
/// unsigned order is signed order.
impl Head for u128 {
    const END: u128 = u128::MAX;

    fn pack(key: i64, _min: i64, shift: u32, run: usize) -> u128 {
        (u128::from(key as u64 ^ (1 << 63)) << shift) | run as u128
    }

    fn run(self, shift: u32) -> usize {
        (self & ((1 << shift) - 1)) as usize
    }
}

/// The merge loop. Hands every row of `runs`, each sorted on its key, to
/// `emit` as (run, the run standing on that row), in key order: rows of
/// equal keys lowest run first, and within a run in the run's order.
/// Every run is sorted, so the least and greatest keys are the runs' ends;
/// a merge whose span leaves room for the run's index below the key's
/// offset in a `u64` packs its heads there, any other in a `u128`.
fn merge<R: MergeRun>(runs: &mut [R], emit: impl FnMut(usize, &R)) {
    let ends = runs.iter().filter_map(|run| Some((run.head()?, run.last()?)));
    let Some((min, max)) = ends.reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))
    else {
        return;
    };
    let shift = usize::BITS - (runs.len() - 1).leading_zeros();
    if (max as u64).wrapping_sub(min as u64) < u64::MAX >> shift {
        tournament::<u64, R>(runs, min, shift, emit);
    } else {
        tournament::<u128, R>(runs, min, shift, emit);
    }
}

/// A tournament over `1 << shift` leaves, leaf `r` the head of run `r`
/// (leaves past the last run are used up from the start). Node `n`, whose
/// children are `2n` and `2n + 1`, holds the loser of the match played
/// there, so a new head replays only its leaf's path to the root: at each
/// node one compare, the smaller head going on and the larger staying.
fn tournament<H: Head, R: MergeRun>(
    runs: &mut [R],
    min: i64,
    shift: u32,
    mut emit: impl FnMut(usize, &R),
) {
    let leaves = 1usize << shift;
    let head = |run: &R, r: usize| run.head().map_or(H::END, |key| H::pack(key, min, shift, r));
    let mut tree = vec![H::END; 2 * leaves];
    for (r, run) in runs.iter().enumerate() {
        tree[leaves + r] = head(run, r);
    }
    // Each inner node's winner, bottom up; then its loser, top down, while
    // its children still hold their winners.
    for n in (1..leaves).rev() {
        tree[n] = tree[2 * n].min(tree[2 * n + 1]);
    }
    let mut winner = tree[1];
    for n in 1..leaves {
        tree[n] = tree[2 * n].max(tree[2 * n + 1]);
    }
    while winner != H::END {
        let r = winner.run(shift);
        emit(r, &runs[r]);
        runs[r].advance();
        let mut next = head(&runs[r], r);
        let mut n = (leaves + r) / 2;
        while n > 0 {
            let loser = tree[n];
            tree[n] = loser.max(next);
            next = loser.min(next);
            n /= 2;
        }
        winner = next;
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
    mut emit: impl FnMut(usize, &'a RowBatch, usize),
) {
    let mut cursors: Vec<_> = runs.iter().map(|run| RunCursor::new(run, key)).collect();
    merge(&mut cursors, |r, cursor| {
        let (batch, row) = cursor.row();
        emit(r, batch, row);
    });
}

/// Merges the rows `lo..hi` of each run (one dense batch per run) into
/// one dense batch: the merge loop over the runs' key columns, so the
/// order is the one [`kway_merge`] gives, without a cursor or a selection
/// check a row.
fn merge_stretches(
    runs: &[RowBatch],
    stretches: impl Iterator<Item = (usize, usize)>,
    width: usize,
    key: usize,
) -> RowBatch {
    let mut rest: Vec<Stretch<'_>> = runs
        .iter()
        .zip(stretches)
        .map(|(run, (lo, hi))| Stretch { keys: &run.column(key)[..hi], next: lo })
        .collect();
    let rows = rest.iter().map(|stretch| stretch.keys.len() - stretch.next).sum();
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(rows);
    merge(&mut rest, |r, stretch| order.push((r as u32, stretch.next as u32)));
    gather(runs, width, order.iter().map(|&(r, i)| (r as usize, i as usize)))
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
/// per-attribute vectors, a chunk is radix-sorted on `(key, arrival)` and
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

    /// Sorts one buffered chunk with `sort`, charging the cost model's
    /// `n·log₂(n)` compare formula.
    fn sort_chunk(&self, chunk: &RowBatch, sort: &mut RunSort) {
        let n = chunk.rows();
        if n > 1 {
            let compares = (n as f64 * (n as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(compares);
        }
        sort.sort(chunk.column(self.key));
    }

    /// Sorts `chunk` and spills it to a fresh accounted run, releasing its
    /// memory reservation. The run is a query-lifetime file: its pages go
    /// back to the disk when `fill` drops it, merged or failed.
    ///
    /// The run's pages are written uncharged and the accounting is settled
    /// once the run is sealed — to the I/O budget in one step, then to the
    /// disk under one latch ([`SimDisk::note_writes`]): exactly one charged
    /// write per data page, the same count, order, and fault-ordinal
    /// positions as a charged writer (no other accounted I/O happens inside
    /// a spill). A write fault is charged before it errors, as a charged
    /// writer's is.
    fn spill_chunk(
        &mut self,
        chunk: &mut RowBatch,
        sort: &mut RunSort,
        runs: &mut Vec<SpillFile>,
        row_bytes: usize,
    ) -> Result<(), ExecError> {
        self.sort_chunk(chunk, sort);
        let mut run = [SpillWriter::uncharged(self.disk.clone(), row_bytes)];
        SpillWriter::deal(&mut run, chunk.columns(), sort.order().map(|i| (i, 0)))?;
        let [run] = run;
        let run = run.finish()?;
        self.ctx.governor.charge_io(run.page_count() as u64)?;
        self.disk.note_writes(run.page_count())?;
        runs.push(run);
        let spilled = (chunk.rows() * row_bytes) as u64;
        self.ctx.governor.release_memory(spilled);
        self.reserved -= spilled;
        chunk.clear();
        Ok(())
    }

    /// Reads every run back (accounted, and charged to the I/O budget in
    /// one step before the first page), one dense batch per run: a whole
    /// run file under one disk latch, its rows copied after its reads with
    /// one slice a column.
    fn read_runs(&self, runs: &[SpillFile], width: usize) -> Result<Vec<RowBatch>, ExecError> {
        let pages: usize = runs.iter().map(SpillFile::page_count).sum();
        self.ctx.governor.charge_io(pages as u64)?;
        runs.iter().map(|run| Ok(RowBatch::from_spill(run, width)?)).collect()
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
        let mut sort = RunSort::default();
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
                    self.spill_chunk(&mut chunk, &mut sort, &mut runs, row_bytes)?;
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
            self.sort_chunk(&chunk, &mut sort);
            let order = sort.order().map(|i| (0, i));
            self.output = ColStream::new(gather(std::slice::from_ref(&chunk), width, order));
            return Ok(());
        }

        // The tail chunk becomes the final run.
        if chunk.rows() > 0 {
            self.spill_chunk(&mut chunk, &mut sort, &mut runs, row_bytes)?;
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
        let run_rows = self.read_runs(&runs, width)?;
        let total_rows: usize = run_rows.iter().map(RowBatch::rows).sum();
        if total_rows > 0 && run_rows.len() > 1 {
            let merge_compares = (total_rows as f64 * (run_rows.len() as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(merge_compares);
        }
        let whole = run_rows.iter().map(|run| (0, run.rows()));
        self.output = ColStream::new(merge_stretches(&run_rows, whole, width, self.key));
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

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

    /// Key draws: a base and a span. Every draw of a case lies in `base
    /// ..= base + span` and both ends are drawn, so the span is exact:
    /// spans of 2^8, 2^16, 2^32 − 1 (the widest the run sort packs) and
    /// 2^32 (the narrowest it does not), the whole `i64` range, all keys
    /// equal, and keys below zero.
    fn key_ranges() -> impl Strategy<Value = (i64, u64)> {
        prop_oneof![
            (-1_000i64..1_000).prop_map(|base| (base, 1 << 8)),
            (-100_000i64..100_000).prop_map(|base| (base, 1 << 16)),
            (-100_000i64..100_000).prop_map(|base| (base, u64::from(u32::MAX))),
            (-100_000i64..100_000).prop_map(|base| (base, 1 << 32)),
            Just((i64::MIN, u64::MAX)),
            (any::<i64>()).prop_map(|base| (base, 0)),
            (-1_000_000i64..-1_000).prop_map(|base| (base, 999)),
        ]
    }

    /// A key of `base..=base + span`: a fifth each at either end, so that
    /// equal keys are common, the rest spread over the range.
    fn key_at(base: i64, span: u64, draw: u64) -> i64 {
        let offset = match draw % 5 {
            0 => 0,
            1 => span,
            _ => draw.checked_rem(span.wrapping_add(1)).unwrap_or(draw),
        };
        base.wrapping_add(offset as i64)
    }

    /// Batches of live and dead rows; column 0 the key, column 1 the row's
    /// place `(batch, physical row)` as one number. The first batch's
    /// first two rows are live and hold both ends of the range.
    fn batches_of(base: i64, span: u64, draws: &[Vec<(u64, bool)>]) -> Vec<RowBatch> {
        draws
            .iter()
            .enumerate()
            .map(|(b, rows)| {
                let mut batch = RowBatch::with_capacity(2, rows.len());
                let mut live = Vec::new();
                for (i, &(draw, keep)) in rows.iter().enumerate() {
                    let draw = if b == 0 && i < 2 { i as u64 } else { draw };
                    batch.push_row(&[key_at(base, span, draw), (b * 1_000 + i) as i64]);
                    if keep || (b == 0 && i < 2) {
                        live.push(i as u32);
                    }
                }
                if live.len() < rows.len() {
                    batch.set_selection(live);
                }
                batch
            })
            .collect()
    }

    /// The merge the tournament replaced, kept as its oracle: a binary
    /// heap of `(key, run)`, one head a run, over rows `lo..hi` of each
    /// run's key column. Yields (run, row).
    fn heap_merge(keys: &[&[i64]], stretches: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut next: Vec<usize> = stretches.iter().map(|&(lo, _)| lo).collect();
        let mut heap: BinaryHeap<_> = (0..keys.len())
            .filter(|&r| next[r] < stretches[r].1)
            .map(|r| Reverse((keys[r][next[r]], r)))
            .collect();
        let mut order = Vec::new();
        while let Some(Reverse((_, r))) = heap.pop() {
            order.push((r, next[r]));
            next[r] += 1;
            if next[r] < stretches[r].1 {
                heap.push(Reverse((keys[r][next[r]], r)));
            }
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn the_run_sort_is_the_sort_of_the_entries(
            (base, span) in key_ranges(),
            draws in collection::vec(
                collection::vec((any::<u64>(), any::<u8>().prop_map(|d| d % 4 != 0)), 2..300),
                1..4,
            ),
        ) {
            let batches = batches_of(base, span, &draws);
            // The reference: the unstable sort of (key, batch, row), which
            // is the stable sort on the key.
            let mut entries: Vec<(i64, usize, usize)> = Vec::new();
            for (b, batch) in batches.iter().enumerate() {
                entries.extend(batch.selected_indices().map(|i| (batch.column(0)[i], b, i)));
            }
            entries.sort_unstable();
            let expected: Vec<Vec<i64>> =
                entries.iter().map(|&(_, b, i)| batches[b].row_vec(i)).collect();
            prop_assert_eq!(sort_batches(&batches, 2, 0).to_tuples(), expected);

            // The run sort on its own: ordinals in key order, and the
            // packing taken exactly when the span and the count fit.
            let arrival: Vec<i64> = batches
                .iter()
                .flat_map(|batch| batch.selected_indices().map(|i| batch.column(0)[i]))
                .collect();
            let mut keyed: Vec<(i64, usize)> = arrival.iter().copied().zip(0..).collect();
            keyed.sort_unstable();
            let mut sort = RunSort::default();
            sort.sort(&arrival);
            prop_assert_eq!(sort.order().collect::<Vec<_>>(), keyed.iter().map(|&(_, o)| o).collect::<Vec<_>>());
            prop_assert_eq!(sort.ordinal == u64::from(u32::MAX), span < 1 << 32, "span {}", span);
        }

        #[test]
        fn the_tournament_merges_as_the_heap_did(
            k in prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(17usize), Just(64usize)],
            (base, span) in key_ranges(),
            draws in collection::vec(collection::vec(any::<u64>(), 0..24), 64),
            cuts in collection::vec((any::<u16>(), any::<u16>()), 64),
            dead in collection::vec(any::<u8>(), 64),
        ) {
            // `k` dense sorted runs (some empty); the first run holds both
            // ends of the range when it has two rows.
            let runs: Vec<RowBatch> = (0..k)
                .map(|r| {
                    let mut keys: Vec<i64> = draws[r]
                        .iter()
                        .enumerate()
                        .map(|(i, &draw)| key_at(base, span, if r == 0 && i < 2 { i as u64 } else { draw }))
                        .collect();
                    keys.sort_unstable();
                    let rows: Vec<Vec<i64>> =
                        keys.iter().enumerate().map(|(i, &key)| vec![key, (r * 1_000 + i) as i64]).collect();
                    let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
                    batch_of(2, &rows)
                })
                .collect();
            let keys: Vec<&[i64]> = runs.iter().map(|run| run.column(0)).collect();
            let tag = |order: &[(usize, usize)]| -> Vec<i64> {
                order.iter().map(|&(r, i)| (r * 1_000 + i) as i64).collect()
            };

            // Whole runs and stretches `lo..hi` of each (empty ones too).
            let whole: Vec<(usize, usize)> = runs.iter().map(|run| (0, run.rows())).collect();
            let cut: Vec<(usize, usize)> = runs
                .iter()
                .zip(&cuts)
                .map(|(run, &(a, b))| {
                    let (a, b) = (usize::from(a) % (run.rows() + 1), usize::from(b) % (run.rows() + 1));
                    (a.min(b), a.max(b))
                })
                .collect();
            for stretches in [&whole, &cut] {
                let merged = merge_stretches(&runs, stretches.iter().copied(), 2, 0);
                prop_assert_eq!(merged.column(1), tag(&heap_merge(&keys, stretches)).as_slice());
            }

            // `kway_merge` over the same runs as batches of at most five
            // rows with dead rows between them and empty batches.
            let batched: Vec<Vec<RowBatch>> = runs
                .iter()
                .enumerate()
                .map(|(r, run)| {
                    let mut out = vec![RowBatch::new(2)];
                    for i in 0..run.rows() {
                        if i % 5 == 0 {
                            out.push(RowBatch::new(2));
                        }
                        let batch = out.last_mut().expect("a batch");
                        if dead[r].is_multiple_of(3) {
                            batch.push_row(&[i64::MIN, -1]);
                        }
                        batch.push_row(&run.row_vec(i));
                    }
                    for batch in &mut out {
                        let live: Vec<u32> =
                            (0..batch.rows()).filter(|&i| batch.column(1)[i] >= 0).map(|i| i as u32).collect();
                        if live.len() < batch.rows() {
                            batch.set_selection(live);
                        }
                    }
                    out
                })
                .collect();
            let batched: Vec<&[RowBatch]> = batched.iter().map(Vec::as_slice).collect();
            let mut got = Vec::new();
            kway_merge(&batched, 0, |_, batch, i| got.push(batch.column(1)[i]));
            prop_assert_eq!(got, tag(&heap_merge(&keys, &whole)));
        }
    }
}
