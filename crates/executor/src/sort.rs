//! External sort with memory-bounded, governor-audited runs.

use dqep_storage::gen::{decode_record_into, encode_record_into};
use dqep_storage::{HeapFile, PageId, SimDisk, SlottedPage};

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::exchange::run_parallel;
use crate::exec::{cursor_next, RowCursor};
use crate::governor::ExecContext;
use crate::tuple::{Tuple, TupleLayout};
use crate::{BoxedOperator, Operator};

/// Merges `rows`, consisting of consecutive sorted slices of length
/// `share` (the last possibly shorter), into one sorted vector by moving
/// tuples out (no clones). Used by the parallel chunk sort to combine the
/// slices the workers sorted independently.
fn merge_sorted_slices(rows: &mut [Tuple], share: usize, key: usize) -> Vec<Tuple> {
    let n = rows.len();
    let mut cursors: Vec<(usize, usize)> = (0..n)
        .step_by(share)
        .map(|s| (s, (s + share).min(n)))
        .collect();
    let mut out = Vec::with_capacity(n);
    loop {
        let mut best: Option<usize> = None;
        for (i, &(pos, end)) in cursors.iter().enumerate() {
            if pos < end {
                best = match best {
                    Some(b) if rows[cursors[b].0][key] <= rows[pos][key] => Some(b),
                    _ => Some(i),
                };
            }
        }
        let Some(b) = best else { break };
        let pos = cursors[b].0;
        out.push(std::mem::take(&mut rows[pos]));
        cursors[b].0 += 1;
    }
    out
}

/// Decodes every record of one run page into `rows`.
fn decode_page_rows(page: &SlottedPage, width: usize, rows: &mut Vec<Tuple>) {
    for record in page.iter() {
        let mut row = Vec::with_capacity(width);
        decode_record_into(record, width, &mut row);
        rows.push(row);
    }
}

/// K-way merge of sorted run segments into one sorted vector, ties broken
/// toward the lowest run index (the scan below replaces `best` only on a
/// strictly smaller key). Both the serial merge (over whole runs) and
/// each parallel range worker (over one key range's segments) use this
/// loop, so the parallel concatenation is byte-identical to the serial
/// merge.
fn kway_merge(segments: Vec<Vec<Tuple>>, key: usize) -> Vec<Tuple> {
    let total: usize = segments.iter().map(Vec::len).sum();
    let mut streams: Vec<std::vec::IntoIter<Tuple>> =
        segments.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<Tuple>> = streams.iter_mut().map(Iterator::next).collect();
    let mut merged = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, i64)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(t) = head {
                let k = t[key];
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        let Some((i, _)) = best else { break };
        if let Some(t) = heads[i].take() {
            merged.push(t);
        }
        heads[i] = streams[i].next();
    }
    merged
}

/// The cooperative merge phase: partitions the key space into up to `dop`
/// ranges by sampling splitter keys from the sorted runs, cuts every run
/// at each splitter with a binary search (`partition_point` on `<=`, so
/// equal keys never straddle a boundary), and merges each range's
/// segments on its own worker thread. Every worker runs the same
/// tie-break as the serial merge within its disjoint key range, so
/// concatenating the ranges in order reproduces the serial merge output
/// exactly — only the wall-clock work is split.
fn parallel_range_merge(runs: Vec<Vec<Tuple>>, key: usize, dop: usize) -> Vec<Tuple> {
    // Splitters: sample up to 32 evenly spaced keys per run, then take
    // `dop - 1` quantiles of the pooled sample. Sampling quality affects
    // only range balance, never correctness.
    let mut samples: Vec<i64> = Vec::new();
    for run in &runs {
        let s = run.len().min(32);
        for j in 0..s {
            samples.push(run[j * run.len() / s][key]);
        }
    }
    samples.sort_unstable();
    let mut bounds: Vec<i64> = (1..dop)
        .map(|i| samples[i * samples.len() / dop])
        .collect();
    bounds.dedup();
    // Cut offsets per run: range `r` owns `cuts[r]..cuts[r + 1]`.
    let cuts: Vec<Vec<usize>> = runs
        .iter()
        .map(|run| {
            let mut c = Vec::with_capacity(bounds.len() + 2);
            c.push(0);
            for &b in &bounds {
                c.push(run.partition_point(|t| t[key] <= b));
            }
            c.push(run.len());
            c
        })
        .collect();
    let ranges = bounds.len() + 1;
    // Split each run into per-range segments by moving tuples out
    // (splitting off tails back to front keeps offsets valid).
    let mut segments: Vec<Vec<Vec<Tuple>>> = (0..ranges).map(|_| Vec::new()).collect();
    for (run, cut) in runs.into_iter().zip(&cuts) {
        let mut rest = run;
        let mut tails: Vec<Vec<Tuple>> = Vec::with_capacity(ranges);
        for r in (0..ranges).rev() {
            tails.push(rest.split_off(cut[r]));
        }
        for (r, seg) in tails.into_iter().rev().enumerate() {
            segments[r].push(seg);
        }
    }
    let tasks: Vec<_> = segments
        .into_iter()
        .map(|segs| move || Ok(kway_merge(segs, key)))
        .collect();
    let mut merged: Vec<Tuple> = Vec::new();
    // Range merging is pure CPU: the tasks are infallible.
    for part in run_parallel(tasks).into_iter().flatten() {
        merged.extend(part);
    }
    merged
}

/// Sorts its input ascending on one attribute position.
///
/// Inputs fitting the memory grant are sorted in place; larger inputs are
/// cut into sorted runs spilled to accounted temporary files and merged —
/// one extra write + read pass over the data, matching the cost model's
/// `2 × pages × passes` charge (the experiments' inputs need at most one
/// merge pass at the minimum 16-page grant).
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
    output: std::vec::IntoIter<Tuple>,
    cursor: RowCursor,
    /// Mid-query re-optimization probe, fired once per `open` with the
    /// input's actual cardinality when ingest completes.
    checkpoint: Option<crate::reopt::ReoptProbe>,
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
        SortExec {
            input,
            key,
            ctx,
            disk,
            budget_bytes,
            reserved: 0,
            output: Vec::new().into_iter(),
            cursor: RowCursor::default(),
            checkpoint: None,
        }
    }

    /// Attaches a re-optimization checkpoint probe to the ingest phase.
    pub(crate) fn with_checkpoint(mut self, probe: crate::reopt::ReoptProbe) -> Self {
        self.checkpoint = Some(probe);
        self
    }

    fn charge_sort_cpu(&self, n: usize) {
        if n > 1 {
            let compares = (n as f64 * (n as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(compares);
        }
    }

    fn reserve(&mut self, bytes: u64) -> Result<(), ExecError> {
        self.ctx.governor.try_reserve_memory(bytes)?;
        self.reserved += bytes;
        Ok(())
    }

    fn release(&mut self, bytes: u64) {
        self.ctx.governor.release_memory(bytes);
        self.reserved -= bytes;
    }

    /// Sorts one buffered chunk, charging the cost model's `n·log₂(n)`
    /// compare formula. `sort_unstable_by_key` (in-place pattern-defeating
    /// quicksort): the key is a single `i64`, so stability buys nothing,
    /// and the unstable sort avoids the stable sort's allocation and
    /// merge passes. With `ctx.dop > 1` and a chunk worth splitting, the
    /// chunk is cut into `dop` slices sorted on worker threads and merged
    /// back — parallel run generation. Compare accounting is the same
    /// formula either way, so counters stay DOP-independent.
    fn sort_rows(&self, rows: &mut Vec<Tuple>) {
        let key = self.key;
        self.charge_sort_cpu(rows.len());
        let dop = self.ctx.dop.max(1);
        if dop <= 1 || rows.len() < dop * 2 {
            rows.sort_unstable_by_key(|t| t[key]);
            return;
        }
        let share = rows.len().div_ceil(dop);
        let tasks: Vec<_> = rows
            .chunks_mut(share)
            .map(|slice| {
                move || {
                    slice.sort_unstable_by_key(|t| t[key]);
                    Ok(())
                }
            })
            .collect();
        // Slice sorting is pure CPU: the tasks are infallible.
        run_parallel::<(), _>(tasks);
        *rows = merge_sorted_slices(rows, share, key);
    }

    /// Sorts `chunk` and spills it to a fresh accounted run, releasing its
    /// memory reservation. The run is a query-lifetime file: its pages go
    /// back to the disk when `fill` drops it, merged or failed.
    ///
    /// The run's record content goes through unaccounted page writes and
    /// the accounting is settled explicitly afterwards: exactly one
    /// charged write per data page, the same count, order, and
    /// fault-ordinal positions as the accounted-append path (no other
    /// accounted I/O happens inside a spill). Splitting content from
    /// accounting lets a parallel sort overlap the charges' pacing stalls
    /// across workers.
    fn spill_chunk(
        &mut self,
        chunk: &mut Vec<Tuple>,
        runs: &mut Vec<HeapFile>,
        row_bytes: usize,
    ) -> Result<(), ExecError> {
        self.sort_rows(chunk);
        let mut run = HeapFile::new_temp_uncharged(self.disk.clone());
        let mut record = vec![0u8; row_bytes];
        for row in chunk.iter() {
            encode_record_into(row, &mut record);
            run.append(&record)?;
        }
        self.charge_run_writes(run.page_count())?;
        runs.push(run);
        self.release((chunk.len() * row_bytes) as u64);
        chunk.clear();
        Ok(())
    }

    /// Charges the spilled run's page writes. Serial below DOP 2 (or for
    /// a single page); otherwise the charges split across `dop` workers so
    /// their I/O pacing stalls overlap. Totals are DOP-exact; a write
    /// fault is charged before it errors on either path, exactly like an
    /// accounted append.
    fn charge_run_writes(&self, pages: usize) -> Result<(), ExecError> {
        let dop = self.ctx.dop.max(1);
        if dop <= 1 || pages < 2 {
            for _ in 0..pages {
                self.disk.note_write()?;
            }
            return Ok(());
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

    /// Consumes the (already open) input and leaves sorted rows in
    /// `self.output`.
    fn fill(&mut self) -> Result<(), ExecError> {
        let row_bytes = self.input.layout().row_bytes;
        let width = self.input.layout().width();
        let budget_rows = (self.budget_bytes / row_bytes).max(1);
        let key = self.key;

        // Run formation: buffer up to one memory grant of rows; on
        // overflow, sort the buffered chunk and spill it as a run. Rows
        // are *reserved* one at a time — the spill bound (never more than
        // one grant of rows resident) is part of the memory contract, so
        // ingest must not reserve a whole batch ahead.
        let mut chunk: Vec<Tuple> = Vec::new();
        let mut runs: Vec<HeapFile> = Vec::new();
        let mut ingested: u64 = 0;
        loop {
            // Request at most one row past what the memory limit still
            // covers, so the input never produces (and charges for) rows
            // beyond the first one a reservation would be refused for.
            let req = self.ctx.governor.ingest_batch_rows(row_bytes);
            let Some(batch) = self.input.next_batch(req)? else { break };
            self.ctx.governor.check_batch(batch.len() as u64)?;
            ingested += batch.len() as u64;
            for row in &batch {
                if chunk.len() >= budget_rows {
                    self.spill_chunk(&mut chunk, &mut runs, row_bytes)?;
                }
                self.reserve(row_bytes as u64)?;
                chunk.push(row);
            }
        }

        // Ingest completion is a pipeline breaker: the input's true
        // cardinality is now known exactly.
        if let Some(probe) = &self.checkpoint {
            probe.observe(ingested);
        }

        if runs.is_empty() {
            // Everything fit the grant: sort in place. The reservation is
            // held until `close` — the rows really are resident.
            self.sort_rows(&mut chunk);
            self.output = chunk.into_iter();
            return Ok(());
        }

        // The tail chunk becomes the final run.
        if !chunk.is_empty() {
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
        // With `dop > 1` the read-back fans out over *pages*, not whole
        // runs (worker `w` reads every `dop`-th page of the concatenated
        // run page list, so the paced stalls overlap even when the grant
        // produced fewer runs than workers — the page *set* is identical,
        // so page-identity faults trip identically; only the seq/random
        // read split may shift) and the merge itself is range-cooperative:
        // workers claim disjoint key ranges via splitter sampling and
        // merge them concurrently. Both phases reproduce the serial
        // output exactly: records decode per page in slot order and pages
        // reassemble per run in page order.
        let dop = self.ctx.dop.max(1);
        let run_rows: Vec<Vec<Tuple>> = if dop <= 1 {
            let mut all = Vec::with_capacity(runs.len());
            for run in &runs {
                let mut rows = Vec::with_capacity(run.record_count() as usize);
                for page in run.scan_pages() {
                    decode_page_rows(&page?, width, &mut rows);
                }
                all.push(rows);
            }
            all
        } else {
            // (run index, page id) units in scan order across all runs.
            let units: Vec<(usize, PageId)> = runs
                .iter()
                .enumerate()
                .flat_map(|(r, run)| run.pages().iter().map(move |&pid| (r, pid)))
                .collect();
            let runs_ref = &runs;
            let units_ref = &units;
            let tasks: Vec<_> = (0..dop.min(units.len().max(1)))
                .map(|w| {
                    move || {
                        let mut out: Vec<(usize, usize, Vec<Tuple>)> = Vec::new();
                        let mut u = w;
                        while u < units_ref.len() {
                            let (r, pid) = units_ref[u];
                            let bytes = runs_ref[r]
                                .disk()
                                .read(pid)
                                .map_err(ExecError::from)?;
                            let mut rows = Vec::new();
                            decode_page_rows(&SlottedPage::from_bytes(bytes), width, &mut rows);
                            out.push((r, u, rows));
                            u += dop;
                        }
                        Ok(out)
                    }
                })
                .collect();
            let mut collected: Vec<(usize, usize, Vec<Tuple>)> = Vec::new();
            for result in run_parallel(tasks) {
                collected.extend(result?);
            }
            // Reassemble: unit index orders pages globally in scan order,
            // and runs were concatenated run 0 first, so a stable sort by
            // (run, unit) restores every run's page order.
            collected.sort_by_key(|&(r, u, _)| (r, u));
            let mut all: Vec<Vec<Tuple>> = runs
                .iter()
                .map(|run| Vec::with_capacity(run.record_count() as usize))
                .collect();
            for (r, _, rows) in collected {
                all[r].extend(rows);
            }
            all
        };
        let total_rows: u64 = run_rows.iter().map(|r| r.len() as u64).sum();
        if total_rows > 0 && run_rows.len() > 1 {
            let merge_compares =
                (total_rows as f64 * (run_rows.len() as f64).log2()).ceil() as u64;
            self.ctx.counters.add_compares(merge_compares);
        }
        let merged = if dop <= 1 || total_rows < 2 {
            kway_merge(run_rows, key)
        } else {
            parallel_range_merge(run_rows, key, dop)
        };
        self.output = merged.into_iter();
        Ok(())
    }
}

impl Operator for SortExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.cursor.clear();
        self.input.open()?;
        let result = self.fill();
        self.input.close();
        result
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        cursor_next(self, |op| &mut op.cursor)
    }

    /// The sort's native emission from the sorted buffer: one governor
    /// check and one counter update per batch.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let mut batch = RowBatch::with_capacity(self.input.layout().width(), max_rows);
        while batch.rows() < max_rows {
            let Some(t) = self.output.next() else { break };
            batch.push_row(&t);
        }
        let rows = batch.rows();
        if rows == 0 {
            return Ok(None);
        }
        self.ctx.governor.check_batch(rows as u64)?;
        self.ctx.counters.add_records(rows as u64);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        if self.reserved > 0 {
            self.ctx.governor.release_memory(self.reserved);
            self.reserved = 0;
        }
        self.output = Vec::new().into_iter();
        self.cursor.clear();
    }

    fn layout(&self) -> &TupleLayout {
        self.input.layout()
    }

    fn estimated_rows(&self) -> Option<u64> {
        // Exact after `open`: the sorted buffer's remaining length.
        Some(self.output.len() as u64)
    }
}
