//! External sort with memory-bounded, governor-audited runs — columnar
//! from ingest to emission — and the merge loop it shares with a caller
//! that holds sorted runs of batches already.
//!
//! The operator sorts a chunk with the run sort and merges its spilled
//! runs with the tournament, so its output is *the stable sort of its
//! input*: among equal keys, arrival order. [`kway_merge`] runs the same
//! tournament over runs that are slices of [`RowBatch`]es with their
//! selection vectors, each already sorted on the key, lowest run first
//! among equal keys (the sharded gather's ordered merge).
//!
//! Both kernels pack what they compare into one integer. The run sort is
//! a stable LSD radix sort of `(key − min) << 32 | arrival ordinal`, a
//! byte of the keys' span a pass. The merge is a tournament (loser) tree
//! over heads `(key − min) << ⌈log₂ k⌉ | run`, one integer compare a
//! level. Keys whose span the packing cannot hold take a comparison sort
//! and 128-bit heads instead.

use std::ops::Range;

use dqep_storage::{SimDisk, SpillFile, SpillWriter};

use crate::batch::{RowBatch, BATCH_CAPACITY};
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
        self.order_at(0..self.sorted.len())
    }

    /// Places `at` of [`RunSort::order`].
    fn order_at(&self, at: Range<usize>) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        self.sorted[at].iter().map(|&entry| (entry & self.ordinal) as usize)
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

/// The sorted inputs of the merge loop, each seen from its next row.
trait MergeRuns {
    /// How many runs there are.
    fn count(&self) -> usize;
    /// The key of run `r`'s next row; `None` once the run is used up.
    fn head(&self, r: usize) -> Option<i64>;
    /// The key of the last row still to come in run `r`.
    fn last(&self, r: usize) -> Option<i64>;
    /// Steps run `r` past its next row.
    fn advance(&mut self, r: usize);
}

/// Dense runs held as key columns, and where the merge stands in each:
/// run `r` is rows `next[r]..` of `keys[r]`.
struct RunHeads<'a> {
    keys: &'a [Vec<i64>],
    next: &'a mut [usize],
}

impl MergeRuns for RunHeads<'_> {
    fn count(&self) -> usize {
        self.keys.len()
    }

    fn head(&self, r: usize) -> Option<i64> {
        self.keys[r].get(self.next[r]).copied()
    }

    fn last(&self, r: usize) -> Option<i64> {
        self.keys[r][self.next[r]..].last().copied()
    }

    fn advance(&mut self, r: usize) {
        self.next[r] += 1;
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

impl MergeRuns for [RunCursor<'_>] {
    fn count(&self) -> usize {
        self.len()
    }

    fn head(&self, r: usize) -> Option<i64> {
        let cursor = &self[r];
        let batch = cursor.run.get(cursor.batch)?;
        Some(batch.column(cursor.key)[batch.physical(cursor.pos)])
    }

    fn last(&self, r: usize) -> Option<i64> {
        let cursor = &self[r];
        let batch = cursor.run[cursor.batch..].iter().rev().find(|batch| !batch.is_empty())?;
        Some(batch.column(cursor.key)[batch.physical(batch.len() - 1)])
    }

    fn advance(&mut self, r: usize) {
        self[r].pos += 1;
        self[r].skip_used();
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

/// A tournament over `1 << shift` leaves, leaf `r` the head of run `r`
/// (leaves past the last run are used up from the start). Node `n`, whose
/// children are `2n` and `2n + 1`, holds the loser of the match played
/// there, so a new head replays only its leaf's path to the root: at each
/// node one compare, the smaller head going on and the larger staying.
/// It is kept between plays, so a merge can hand its rows out a slice at
/// a time.
struct Tournament<H> {
    tree: Vec<H>,
    min: i64,
    shift: u32,
    /// The least head, [`Head::END`] once every run is used up.
    winner: H,
}

impl<H: Head> Tournament<H> {
    fn new<M: MergeRuns + ?Sized>(runs: &M, min: i64, shift: u32) -> Tournament<H> {
        let leaves = 1usize << shift;
        let mut tree = vec![H::END; 2 * leaves];
        for r in 0..runs.count() {
            tree[leaves + r] = Self::head(runs, r, min, shift);
        }
        // Each inner node's winner, bottom up; then its loser, top down, while
        // its children still hold their winners.
        for n in (1..leaves).rev() {
            tree[n] = tree[2 * n].min(tree[2 * n + 1]);
        }
        let winner = tree[1];
        for n in 1..leaves {
            tree[n] = tree[2 * n].max(tree[2 * n + 1]);
        }
        Tournament { tree, min, shift, winner }
    }

    fn head<M: MergeRuns + ?Sized>(runs: &M, r: usize, min: i64, shift: u32) -> H {
        runs.head(r).map_or(H::END, |key| H::pack(key, min, shift, r))
    }

    /// Hands the next `rows` rows, or as many as are left, to `emit` as
    /// (run, the runs standing on that row), and returns how many.
    fn play<M: MergeRuns + ?Sized>(
        &mut self,
        runs: &mut M,
        rows: usize,
        mut emit: impl FnMut(usize, &M),
    ) -> usize {
        let (tree, min, shift) = (&mut self.tree[..], self.min, self.shift);
        let leaves = tree.len() / 2;
        let mut winner = self.winner;
        let mut played = 0;
        while played < rows && winner != H::END {
            let r = winner.run(shift);
            emit(r, runs);
            runs.advance(r);
            let mut next = Self::head(runs, r, min, shift);
            let mut n = (leaves + r) / 2;
            while n > 0 {
                let loser = tree[n];
                tree[n] = loser.max(next);
                next = loser.min(next);
                n /= 2;
            }
            winner = next;
            played += 1;
        }
        self.winner = winner;
        played
    }
}

/// The merge of sorted runs: rows in key order, rows of equal keys lowest
/// run first, and within a run in the run's order. Every run is sorted, so
/// the least and greatest keys are the runs' ends; a merge whose span
/// leaves room for the run's index below the key's offset in a `u64` packs
/// its heads there, any other in a `u128`.
enum Merge {
    Narrow(Tournament<u64>),
    Wide(Tournament<u128>),
}

impl Merge {
    fn new<M: MergeRuns + ?Sized>(runs: &M) -> Merge {
        let ends = (0..runs.count()).filter_map(|r| Some((runs.head(r)?, runs.last(r)?)));
        let (min, max) =
            ends.reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last))).unwrap_or((0, 0));
        let shift = usize::BITS - runs.count().saturating_sub(1).leading_zeros();
        if (max as u64).wrapping_sub(min as u64) < u64::MAX >> shift {
            Merge::Narrow(Tournament::new(runs, min, shift))
        } else {
            Merge::Wide(Tournament::new(runs, min, shift))
        }
    }

    /// [`Tournament::play`].
    fn play<M: MergeRuns + ?Sized>(
        &mut self,
        runs: &mut M,
        rows: usize,
        emit: impl FnMut(usize, &M),
    ) -> usize {
        match self {
            Merge::Narrow(tournament) => tournament.play(runs, rows, emit),
            Merge::Wide(tournament) => tournament.play(runs, rows, emit),
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
    mut emit: impl FnMut(usize, &'a RowBatch, usize),
) {
    let mut cursors: Vec<_> = runs.iter().map(|run| RunCursor::new(run, key)).collect();
    let cursors = cursors.as_mut_slice();
    Merge::new(cursors).play(cursors, usize::MAX, |r, cursors| {
        let (batch, row) = cursors[r].row();
        emit(r, batch, row);
    });
}

/// A spilled sort's runs as read back, merged a slice at a time: the state
/// [`SortExec`] keeps between `next_batch` calls once its input was cut
/// into runs.
struct RunMerge {
    /// Column `c` of run `r` is `columns[c][r]`: the run file's columns,
    /// moved out of it.
    columns: Vec<Vec<Vec<i64>>>,
    key: usize,
    /// Each run's next row.
    next: Vec<usize>,
    merge: Merge,
    /// Rows not yet handed out.
    left: usize,
    /// A slice's rows in merge order, as (run, row): at most
    /// [`BATCH_CAPACITY`] at a time, whatever the request.
    order: Vec<(u32, u32)>,
}

impl RunMerge {
    /// The merge of `runs`, each a run's columns (all `width` of them),
    /// sorted on column `key`.
    fn new(runs: Vec<Vec<Vec<i64>>>, width: usize, key: usize) -> RunMerge {
        let mut columns: Vec<Vec<Vec<i64>>> =
            (0..width).map(|_| Vec::with_capacity(runs.len())).collect();
        for run in runs {
            assert_eq!(run.len(), width, "a run holds every column");
            columns.iter_mut().zip(run).for_each(|(by_run, col)| by_run.push(col));
        }
        let mut next = vec![0; columns[key].len()];
        let merge = Merge::new(&RunHeads { keys: &columns[key], next: &mut next });
        let left = columns[key].iter().map(Vec::len).sum();
        RunMerge { columns, key, next, merge, left, order: Vec::new() }
    }

    /// The next `rows` rows of the merge (no more than are left), gathered
    /// a column at a time into one dense batch.
    fn next_slice(&mut self, rows: usize) -> RowBatch {
        assert!(rows <= self.left, "{rows} rows asked of {} left", self.left);
        let mut out = RowBatch::with_capacity(self.columns.len(), rows);
        let mut heads = RunHeads { keys: &self.columns[self.key], next: &mut self.next };
        let mut wanted = rows;
        while wanted > 0 {
            let order = &mut self.order;
            order.clear();
            let played = self.merge.play(&mut heads, wanted.min(BATCH_CAPACITY), |r, heads| {
                order.push((r as u32, heads.next[r] as u32));
            });
            out.extend_rows_with(played, |cols| {
                for (col, by_run) in cols.iter_mut().zip(&self.columns) {
                    col.extend(order.iter().map(|&(r, i)| by_run[r as usize][i as usize]));
                }
            });
            wanted -= played;
        }
        self.left -= rows;
        out
    }
}

/// What a sort hands out, kept between `next_batch` calls.
enum Sorted {
    /// Nothing: before `open` and after `close`.
    Empty,
    /// The input fit the grant: the chunk as it arrived, the run sort's
    /// order of it, and how many rows of that order are handed out.
    InMemory { chunk: RowBatch, sort: RunSort, next: usize },
    /// The input was cut into runs: their merge.
    Spilled(RunMerge),
}

impl Sorted {
    /// Rows not yet handed out.
    fn remaining(&self) -> usize {
        match self {
            Sorted::Empty => 0,
            Sorted::InMemory { sort, next, .. } => sort.sorted.len() - next,
            Sorted::Spilled(merge) => merge.left,
        }
    }

    /// The next `rows` rows (no more than [`Sorted::remaining`]) as one
    /// dense batch, gathered straight into it.
    fn next_slice(&mut self, rows: usize) -> RowBatch {
        match self {
            Sorted::Empty => RowBatch::default(),
            Sorted::InMemory { chunk, sort, next } => {
                let order = sort.order_at(*next..*next + rows);
                *next += rows;
                let mut out = RowBatch::with_capacity(chunk.width(), rows);
                out.extend_rows_with(rows, |cols| {
                    for (col, src) in cols.iter_mut().zip(chunk.columns()) {
                        col.extend(order.clone().map(|o| src[o]));
                    }
                });
                out
            }
            Sorted::Spilled(merge) => merge.next_slice(rows),
        }
    }
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
/// written in that order straight from its columns, and a run's columns
/// are handed back by move when it is read. The sort keeps what it hands
/// out between `next_batch` calls — the chunk and its order, or the runs
/// and their tournament — and each call gathers at most `max_rows` rows of
/// it, column by column, straight into the batch it returns: a row is
/// copied once into its run and once into its output batch, and no
/// whole-output column is built.
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
    output: Sorted,
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
        SortExec { input, key, ctx, disk, budget_bytes, reserved: 0, output: Sorted::Empty }
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
    /// one step before the first page), a whole run file under one disk
    /// latch, and takes its columns by move. The files keep their pages
    /// until `fill` drops them.
    fn read_runs(&self, runs: &mut [SpillFile]) -> Result<Vec<Vec<Vec<i64>>>, ExecError> {
        let pages: usize = runs.iter().map(SpillFile::page_count).sum();
        self.ctx.governor.charge_io(pages as u64)?;
        runs.iter_mut().map(|run| Ok(run.read(usize::MAX)?)).collect()
    }

    /// Consumes the (already open) input and leaves what it hands out in
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
            self.output = Sorted::InMemory { chunk, sort, next: 0 };
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
        let run_columns = self.read_runs(&mut runs)?;
        let merge = RunMerge::new(run_columns, width, self.key);
        if merge.left > 0 && runs.len() > 1 {
            let merge_compares = (merge.left as f64 * (runs.len() as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(merge_compares);
        }
        self.output = Sorted::Spilled(merge);
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

    /// The sort's native emission, the next `max_rows` rows gathered
    /// straight into one batch: one governor check and one counter update
    /// per batch.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let rows = max_rows.min(self.output.remaining());
        if rows == 0 {
            return Ok(None);
        }
        let batch = self.output.next_slice(rows);
        self.ctx.governor.check_batch(batch.rows() as u64)?;
        self.ctx.counters.add_records(batch.rows() as u64);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        if self.reserved > 0 {
            self.ctx.governor.release_memory(self.reserved);
            self.reserved = 0;
        }
        self.output = Sorted::Empty;
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

    /// The merge loop over rows `lo..hi` of each run's key column: (run,
    /// row) in the order it hands them out.
    fn merge_stretches(keys: &[&[i64]], stretches: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let keys: Vec<Vec<i64>> =
            keys.iter().zip(stretches).map(|(k, &(_, hi))| k[..hi].to_vec()).collect();
        let mut next: Vec<usize> = stretches.iter().map(|&(lo, _)| lo).collect();
        let mut heads = RunHeads { keys: &keys, next: &mut next };
        let mut order = Vec::new();
        Merge::new(&heads).play(&mut heads, usize::MAX, |r, heads| order.push((r, heads.next[r])));
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
            // The reference: the unstable sort of (key, ordinal), which is
            // the stable sort on the key. The packing is taken exactly when
            // the span and the count fit.
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
                prop_assert_eq!(tag(&merge_stretches(&keys, stretches)), tag(&heap_merge(&keys, stretches)));
            }

            // The sort's merge of the same runs, handed out in slices of
            // the drawn sizes, one to a few hundred rows: the same rows in
            // the same order, gathered whole.
            let columns: Vec<Vec<Vec<i64>>> = runs.iter().map(|run| run.columns().to_vec()).collect();
            let mut merge = RunMerge::new(columns, 2, 0);
            let mut got = Vec::new();
            for &(size, _) in cuts.iter().cycle() {
                let rows = (usize::from(size) % 300 + 1).min(merge.left);
                if rows == 0 {
                    break;
                }
                let slice = merge.next_slice(rows);
                prop_assert_eq!((slice.rows(), slice.width()), (rows, 2));
                got.extend_from_slice(slice.column(1));
            }
            prop_assert_eq!(got, tag(&heap_merge(&keys, &whole)));

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
