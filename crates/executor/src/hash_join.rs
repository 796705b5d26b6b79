//! Hash join: in-memory when the build input fits the memory grant,
//! Grace-partitioned otherwise — serial or partition-parallel.
//!
//! The build side is the **left** input (the optimizer's convention; the
//! commutativity rule generates the swapped variant). When the build input
//! exceeds the memory budget, both inputs are partitioned by join-key hash
//! into accounted temporary files, then each partition pair is joined in
//! memory — the extra write+read pass over both inputs is exactly what the
//! cost model charges.
//!
//! **One columnar join.** Every in-memory join — the resident table and
//! each spilled Grace partition pair, at every degree of parallelism —
//! goes through the same radix-partitioned columnar table: build rows are
//! ingested straight into per-attribute vectors (one dense [`RowBatch`]), hashed
//! with one multiply-xor pass per key *column* (the auto-vectorizable
//! [`fold_hash_column`] kernel — each row's hash is bit-identical to the
//! row-at-a-time [`hash_key`]), then scattered histogram → prefix-sum into
//! cache-sized partitions with chained bucket arrays ([`RadixTable`]).
//! Probing hashes a whole batch with the same kernel, takes partition and
//! bucket from the two ends of each hash, walks the index chains in one
//! loop that compares key columns as slices ([`RadixTable::probe`]), and
//! gathers match pairs into the output batch column by column. Partition
//! count scales with the build size (one partition per L2-sized slice)
//! and the degree of parallelism.
//!
//! **One hash, four consumers, disjoint bits.** The same 64-bit hash is
//! read by every partitioner a row passes on its way to a bucket: the
//! shard route (`h % shards`, [`crate::shard_route`]), the Grace fan-out
//! (`h % PARTITIONS`) and the radix partition (`h & part_mask`) all take
//! it from bit 0 upwards, and what they take is frozen — shard placement,
//! spill page identity and output order hang on it. The bucket index
//! therefore comes from the other end, `h >> (64 - log2(buckets))`: the
//! only bits no upstream partitioner has already made equal for every row
//! that reaches the table. [`mix`] is a full-avalanche finalizer, so the
//! top bits spread as well as the bottom ones; with buckets on the bits
//! just above the partition mask, the rows of one Grace partition could
//! reach an eighth to a quarter of their table's buckets, and the rows of
//! one of two shards half of them.
//!
//! Build-side rows are *reserved* with the query's resource governor
//! before they are held — both the resident build table and each Grace
//! partition's rebuilt table — so a governor limit below what the chosen
//! strategy needs surfaces as [`ExecError::ResourceExhausted`] instead of
//! silently exceeding the grant.
//!
//! With `ctx.dop > 1` the join runs its partition work on worker threads:
//! the in-memory strategy builds one table with at least `dop` radix
//! partitions (each row hashed once, as in the serial join) and probes the
//! partitions on separate workers; the Grace strategy spills exactly as
//! the serial join does (identical pages, identical write order) and then
//! joins the spilled partition pairs concurrently, each pair's table
//! reservation drawn from the shared governor through a wait-or-fail
//! [`ReserveGate`] so concurrency never oversubscribes the grant. Work
//! the serial join does while it is pulled (probe streaming,
//! partition-pair joining) runs eagerly inside `open()` when parallel, but
//! its errors are *deferred* to the first `next_batch()` call, so
//! choose-plan fallback semantics stay identical to serial execution.
//! Per-worker counters are merged back, making accounting totals
//! independent of the degree of parallelism.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use dqep_storage::{SimDisk, SpillFile, SpillWriter, DEFAULT_MORSEL_PAGES};

use crate::batch::{ColStream, RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::exchange::run_parallel;
use crate::governor::{ExecContext, ResourceGovernor};
use crate::metrics::SharedCounters;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// Grace spill fan-out (fixed: spill page identity must not depend on
/// memory grant or DOP).
const PARTITIONS: usize = 8;

/// Bytes of build-side data per radix partition — roughly an L2 slice, so
/// each partition's bucket array and rows stay cache-resident during its
/// build+probe.
const RADIX_PARTITION_BYTES: usize = 256 * 1024;

/// Upper bound on radix fan-out; beyond this the per-partition bucket
/// arrays stop paying for themselves.
const MAX_RADIX_PARTITIONS: usize = 64;

/// (build position, probe position) pairs of the equi-join keys.
type Keys = Vec<(usize, usize)>;

/// Seed of the join-key hash chain (every row's hash starts here).
pub const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-xor finalizer (splitmix64's): full avalanche in two
/// multiplies, no per-row hasher state to construct.
#[inline]
#[must_use]
pub fn mix(v: u64) -> u64 {
    let mut x = v;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes the join-key columns of one tuple with an inline multiply-xor
/// mix (no per-row hasher state to set up). The hash is a pure function
/// of the key *values*, so build and probe rows with equal keys hash
/// identically and partition assignment stays stable across sides and
/// degrees of parallelism.
#[inline]
#[must_use]
pub fn hash_key(keys: &[(usize, usize)], tuple: &[i64], side_build: bool) -> u64 {
    let mut h = HASH_SEED;
    for &(b, p) in keys {
        h = mix(h ^ tuple[if side_build { b } else { p }] as u64);
    }
    h
}

/// Folds one key column into a running hash state, one row per lane:
/// `hashes[i] = mix(hashes[i] ^ col[i])`. This is the batched counterpart
/// of [`hash_key`]'s per-key step — seeding `hashes` with [`HASH_SEED`]
/// and folding each key column in order produces bit-identical hashes to
/// the scalar loop, but as one tight pass over contiguous slices the
/// compiler can auto-vectorize.
#[inline]
pub fn fold_hash_column(hashes: &mut [u64], col: &[i64]) {
    for (h, &v) in hashes.iter_mut().zip(col) {
        *h = mix(*h ^ v as u64);
    }
}

/// Batched hash of the columns `key_cols` names, in order: one hash per
/// **live** row of `batch`, each bit-identical to [`hash_key`] over the
/// same positions. Dense batches take the column-slice fold; batches with
/// a selection vector gather first.
fn hash_batch(key_cols: impl Iterator<Item = usize>, batch: &RowBatch, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(batch.len(), HASH_SEED);
    for c in key_cols {
        let col = batch.column(c);
        match batch.selection() {
            None => fold_hash_column(hashes, col),
            Some(sel) => {
                for (h, &i) in hashes.iter_mut().zip(sel) {
                    *h = mix(*h ^ col[i as usize] as u64);
                }
            }
        }
    }
}

/// [`hash_batch`] over the build-side key positions.
fn hash_build_batch(keys: &[(usize, usize)], batch: &RowBatch, hashes: &mut Vec<u64>) {
    hash_batch(keys.iter().map(|&(b, _)| b), batch, hashes);
}

/// [`hash_batch`] over the probe-side key positions.
fn hash_probe_batch(keys: &[(usize, usize)], batch: &RowBatch, hashes: &mut Vec<u64>) {
    hash_batch(keys.iter().map(|&(_, p)| p), batch, hashes);
}

/// Radix fan-out for a resident build side of `build_bytes`: one
/// partition per L2-sized slice, at least one per worker, always a power
/// of two (the partition is a mask of the hash's low bits), capped at
/// [`MAX_RADIX_PARTITIONS`].
fn radix_partitions(build_bytes: usize, dop: usize) -> usize {
    build_bytes
        .div_ceil(RADIX_PARTITION_BYTES)
        .next_power_of_two()
        .max(dop.next_power_of_two())
        .min(MAX_RADIX_PARTITIONS)
}

/// Stable histogram → prefix-sum scatter of `(cols, hashes)` rows into
/// `parts = part_mask + 1` partitions keyed by the hash's low bits.
/// Returns the scattered columns and hashes (partition-major, arrival
/// order preserved within each partition) plus the partition boundaries
/// (`parts + 1` offsets).
fn scatter_by_partition(
    cols: &[Vec<i64>],
    hashes: &[u64],
    part_mask: u64,
) -> (Vec<Vec<i64>>, Vec<u64>, Vec<usize>) {
    let n = hashes.len();
    let parts = part_mask as usize + 1;
    let pids: Vec<u32> = hashes.iter().map(|&h| (h & part_mask) as u32).collect();
    let mut starts = vec![0usize; parts + 1];
    for &p in &pids {
        starts[p as usize + 1] += 1;
    }
    for p in 0..parts {
        starts[p + 1] += starts[p];
    }
    // Destination index of each row: its partition's running cursor.
    let mut cursors: Vec<usize> = starts[..parts].to_vec();
    let mut dest = vec![0u32; n];
    for (d, &p) in dest.iter_mut().zip(&pids) {
        let c = &mut cursors[p as usize];
        *d = *c as u32;
        *c += 1;
    }
    let scat_cols: Vec<Vec<i64>> = cols
        .iter()
        .map(|col| {
            let mut out = vec![0i64; n];
            for (&v, &d) in col.iter().zip(&dest) {
                out[d as usize] = v;
            }
            out
        })
        .collect();
    let mut scat_hashes = vec![0u64; n];
    for (&h, &d) in hashes.iter().zip(&dest) {
        scat_hashes[d as usize] = h;
    }
    (scat_cols, scat_hashes, starts)
}

/// Per-partition chained bucket index of a [`RadixTable`].
struct PartBuckets {
    /// `64 - log2(heads.len())`: a row's bucket is the **top** bits of its
    /// hash, `h >> shift` — the end no partitioner reads (module docs).
    shift: u32,
    /// Bucket → first build row (global scattered index + 1; 0 = empty).
    /// Chains run in build-arrival order.
    heads: Vec<u32>,
}

/// Match pairs of a probe: (build scattered index, probe physical index).
type Pairs = Vec<(u32, u32)>;

/// The in-memory join table: build rows scattered into radix partitions
/// (columnar) and a chained bucket index per partition. A row's hash is
/// spent at build time — low bits on the partition, top bits on the
/// bucket — and not kept: equal keys imply equal hashes, so the probe
/// compares key columns and nothing else. Match rows gather into the
/// output column by column.
struct RadixTable {
    part_mask: u64,
    /// Scattered build columns (partition-major).
    cols: Vec<Vec<i64>>,
    /// Next row in the same bucket chain (global index + 1; 0 = end).
    next_link: Vec<u32>,
    buckets: Vec<PartBuckets>,
}

impl RadixTable {
    /// Builds the table from a dense columnar build buffer, charging one
    /// hash per row. `parts` must be a power of two. A single partition
    /// keeps the rows where they are: an owned buffer's columns move into
    /// the table, only a borrowed one is copied.
    fn build(
        keys: &Keys,
        counters: &SharedCounters,
        store: Cow<'_, RowBatch>,
        parts: usize,
    ) -> RadixTable {
        let n = store.rows();
        debug_assert!(n < u32::MAX as usize, "build side exceeds u32 indexing");
        debug_assert!(parts.is_power_of_two());
        debug_assert!(store.selection().is_none(), "build buffer must be dense");
        counters.add_hashes(n as u64);
        let mut hashes = Vec::new();
        hash_build_batch(keys, &store, &mut hashes);
        let part_mask = (parts - 1) as u64;
        let (cols, hashes, part_starts) = if parts == 1 {
            (store.into_owned().into_columns(), hashes, vec![0, n])
        } else {
            scatter_by_partition(store.columns(), &hashes, part_mask)
        };
        let mut next_link = vec![0u32; n];
        let buckets = part_starts
            .windows(2)
            .map(|part| {
                // At least two buckets: the shift stays below 64.
                let nb = ((part[1] - part[0]) * 2).next_power_of_two().max(2);
                let shift = 64 - nb.trailing_zeros();
                let mut heads = vec![0u32; nb];
                // Reverse insertion leaves each chain in arrival order.
                for i in (part[0]..part[1]).rev() {
                    let b = (hashes[i] >> shift) as usize;
                    next_link[i] = heads[b];
                    heads[b] = i as u32 + 1;
                }
                PartBuckets { shift, heads }
            })
            .collect();
        RadixTable {
            part_mask,
            cols,
            next_link,
            buckets,
        }
    }

    fn build_width(&self) -> usize {
        self.cols.len()
    }

    /// The one chain walk. Probe row `rows[j]` (a physical index into the
    /// columns `probe_col` hands out) carries `hashes[j]`; its matches are
    /// appended to `pairs` in build-arrival order, probe rows in the order
    /// given. The key columns of both sides are resolved to slices once,
    /// here, and compared directly, first key first — a chain's strangers
    /// differ in the first key, and rows with equal keys have equal
    /// hashes, so no hash is compared.
    fn probe<'p>(
        &self,
        keys: &Keys,
        probe_col: impl Fn(usize) -> &'p [i64],
        hashes: &[u64],
        rows: impl Iterator<Item = usize>,
        pairs: &mut Pairs,
    ) {
        let mut key_cols = keys.iter().map(|&(bk, pk)| (self.cols[bk].as_slice(), probe_col(pk)));
        // The first key apart, so that the usual single-key join allocates
        // nothing here (`rest` is empty). No key at all is the cross
        // product: every hash is the seed, one chain holds every build
        // row, and every row on it matches.
        let first = key_cols.next();
        let rest: Vec<(&[i64], &[i64])> = key_cols.collect();
        let next_link = self.next_link.as_slice();
        for (&h, idx) in hashes.iter().zip(rows) {
            let part = &self.buckets[(h & self.part_mask) as usize];
            let mut link = part.heads[(h >> part.shift) as usize];
            while link != 0 {
                let i = (link - 1) as usize;
                if first.iter().chain(&rest).all(|(b, p)| b[i] == p[idx]) {
                    pairs.push((i as u32, idx as u32));
                }
                link = next_link[i];
            }
        }
    }

    /// Probes with every live row of `probe_batch`, dense or under a
    /// selection vector, leaving the match pairs in `pairs`: probe rows in
    /// batch order, each row's matches in build-arrival order. Charges one
    /// hash per probe row and one record per match. `hashes` is scratch.
    fn match_batch(
        &self,
        keys: &Keys,
        counters: &SharedCounters,
        probe_batch: &RowBatch,
        hashes: &mut Vec<u64>,
        pairs: &mut Pairs,
    ) {
        hash_probe_batch(keys, probe_batch, hashes);
        pairs.clear();
        self.probe(keys, |c| probe_batch.column(c), hashes, probe_batch.selected_indices(), pairs);
        counters.add_hashes(probe_batch.len() as u64);
        counters.add_records(pairs.len() as u64);
    }

    /// Gathers `pairs` into `out` column by column (`probe_col(c)` is the
    /// probe side's column `c`). The build attributes come first when
    /// `build_first` — the operator's layout, whose build side is its left
    /// input — else the probe attributes do.
    fn gather_pairs_into<'p>(
        &self,
        probe_col: impl Fn(usize) -> &'p [i64],
        pairs: &[(u32, u32)],
        build_first: bool,
        out: &mut RowBatch,
    ) {
        let bw = self.build_width();
        out.extend_rows_with(pairs.len(), |cols| {
            let (bcols, pcols) = if build_first {
                cols.split_at_mut(bw)
            } else {
                let (pcols, bcols) = cols.split_at_mut(cols.len() - bw);
                (bcols, pcols)
            };
            for (c, col) in bcols.iter_mut().enumerate() {
                let src = &self.cols[c];
                col.extend(pairs.iter().map(|&(i, _)| src[i as usize]));
            }
            for (c, col) in pcols.iter_mut().enumerate() {
                let src = probe_col(c);
                col.extend(pairs.iter().map(|&(_, i)| src[i as usize]));
            }
        });
    }
}

/// Joins two **resident** inputs in memory — each a set of batches with
/// its row width — on `keys` (`(left column, right column)` pairs) and
/// returns every `left ⊗ right` match as one dense batch. This is the
/// join of a caller that already holds both sides (the sharded service's
/// co-partitioned stage inputs); it runs on the same dense build batch +
/// [`RadixTable`] as [`HashJoinExec`] and never touches a disk.
///
/// The side with fewer live rows builds, whichever it is. The table's
/// footprint is reserved with `ctx.governor`: in full, else a half, a
/// quarter, an eighth of it. A partial grant degrades to a **chunked
/// build** — the build side is joined in grant-sized pieces, probing the
/// other side once per piece — counted as one fallback in `ctx.counters`,
/// the same graceful-degradation contract choose-plan gives retryable
/// opens. Output order: build piece, then probe rows in input order, each
/// row's matches in build-arrival order.
///
/// # Errors
/// The governor's refusal of the smallest (one-eighth) reservation, or
/// any non-retryable governor error.
pub fn join_batches(
    (left, left_width): (&[RowBatch], usize),
    (right, right_width): (&[RowBatch], usize),
    keys: &[(usize, usize)],
    ctx: &ExecContext,
) -> Result<RowBatch, ExecError> {
    let live = |side: &[RowBatch]| side.iter().map(RowBatch::len).sum::<usize>();
    let build_left = live(left) <= live(right);
    let (build, build_width, probe) = if build_left {
        (left, left_width, right)
    } else {
        (right, right_width, left)
    };
    let keys: Keys = keys
        .iter()
        .map(|&(l, r)| if build_left { (l, r) } else { (r, l) })
        .collect();
    // The build rows as one dense buffer; a side that already is one dense
    // batch is used where it lies.
    let mut store = match build {
        [only] if only.selection().is_none() => Cow::Borrowed(only),
        _ => {
            let mut store = RowBatch::with_capacity(build_width, live(build));
            for batch in build {
                store.extend_from_live(batch, 0..batch.len());
            }
            Cow::Owned(store)
        }
    };
    let rows = store.rows();

    // Per-row footprint: the row's values plus hash, chain link and
    // bucket heads.
    let bytes_per_row = (build_width * 8 + 48) as u64;
    let full = (rows as u64).saturating_mul(bytes_per_row).max(1);
    let mut granted = 0u64;
    let mut refusal = None;
    for divisor in [1u64, 2, 4, 8] {
        let ask = (full / divisor).max(bytes_per_row);
        match ctx.governor.try_reserve_memory(ask) {
            Ok(()) => {
                granted = ask;
                break;
            }
            Err(e) if e.is_retryable() => refusal = Some(e),
            Err(e) => return Err(e),
        }
    }
    if granted == 0 {
        return Err(refusal.unwrap_or_else(|| {
            ExecError::Network("memory reservation failed without an error".into())
        }));
    }
    if granted < full {
        ctx.counters.add_fallbacks(1);
    }

    let piece_rows = ((granted / bytes_per_row) as usize).max(1);
    let mut out = RowBatch::with_capacity(left_width + right_width, 0);
    let (mut hashes, mut pairs) = (Vec::new(), Pairs::new());
    for lo in (0..rows).step_by(piece_rows) {
        let hi = (lo + piece_rows).min(rows);
        let piece = if hi - lo == rows {
            // The one piece of an unchunked build: the buffer itself.
            std::mem::take(&mut store)
        } else {
            let mut sliced = RowBatch::with_capacity(build_width, hi - lo);
            sliced.extend_from_live(&store, lo..hi);
            Cow::Owned(sliced)
        };
        let parts = radix_partitions(piece.rows() * build_width * 8, 1);
        let table = RadixTable::build(&keys, &ctx.counters, piece, parts);
        for probe_batch in probe {
            table.match_batch(&keys, &ctx.counters, probe_batch, &mut hashes, &mut pairs);
            table.gather_pairs_into(|c| probe_batch.column(c), &pairs, build_left, &mut out);
        }
    }
    ctx.governor.release_memory(granted);
    Ok(out)
}

/// Locks a mutex, absorbing poisoning (a worker panic propagates through
/// the thread scope anyway; the gate's counter stays consistent).
fn lock_gate<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait-or-fail admission for concurrent partition-table reservations: a
/// worker that cannot reserve its partition's bytes *waits* while sibling
/// partitions hold reservations (they will release), and only fails when
/// it is alone — exactly the situation in which the serial join, holding
/// no other partition's memory, would have been refused too.
struct ReserveGate {
    inflight: Mutex<usize>,
    cv: Condvar,
}

impl ReserveGate {
    fn new() -> ReserveGate {
        ReserveGate {
            inflight: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn reserve(&self, governor: &ResourceGovernor, bytes: u64) -> Result<(), ExecError> {
        let mut inflight = lock_gate(&self.inflight);
        loop {
            match governor.try_reserve_memory(bytes) {
                Ok(()) => {
                    *inflight += 1;
                    return Ok(());
                }
                Err(e) => {
                    if *inflight == 0 {
                        return Err(e);
                    }
                    inflight = self
                        .cv
                        .wait(inflight)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn release(&self, governor: &ResourceGovernor, bytes: u64) {
        let mut inflight = lock_gate(&self.inflight);
        *inflight -= 1;
        governor.release_memory(bytes);
        self.cv.notify_all();
    }
}

/// Runs `join_part(p, worker context)` for every partition `p < parts`
/// on up to `dop` worker threads claiming indexes from an atomic counter,
/// merges the workers' private counters into `ctx`, and concatenates the
/// outputs in partition order.
///
/// # Errors
/// The first worker failure (the other workers' counters still merge).
fn join_partitions(
    ctx: &ExecContext,
    width: usize,
    dop: usize,
    parts: usize,
    join_part: impl Fn(usize, &ExecContext) -> Result<RowBatch, ExecError> + Sync,
) -> Result<ColStream, ExecError> {
    let next_part = AtomicUsize::new(0);
    let tasks: Vec<_> = (0..dop.min(parts))
        .map(|_| {
            let worker = ctx.worker();
            let (next_part, join_part) = (&next_part, &join_part);
            move || {
                let mut outs: Vec<(usize, RowBatch)> = Vec::new();
                loop {
                    let p = next_part.fetch_add(1, Ordering::Relaxed);
                    if p >= parts {
                        return Ok((outs, worker.counters));
                    }
                    outs.push((p, join_part(p, &worker)?));
                }
            }
        })
        .collect();
    let mut outs: Vec<(usize, RowBatch)> = Vec::new();
    let mut first_err = None;
    for result in run_parallel(tasks) {
        match result {
            Ok((part_outs, counters)) => {
                ctx.counters.merge_from(&counters);
                outs.extend(part_outs);
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    first_err.map_or_else(|| Ok(ColStream::concat(width, outs)), Err)
}

/// Joins one spilled Grace partition pair through a per-partition
/// [`RadixTable`] and returns every joined row (probe rows in spill
/// order, each row's matches in build-arrival order). The table's bytes
/// are reserved through `gate` while it is resident. The serial Grace arm
/// and the parallel workers both call this, so reads, reservation points
/// and counter charges do not depend on the degree of parallelism — only
/// `run_pages` does, the most pages read back under one disk latch.
fn join_spilled_pair(
    keys: &Keys,
    ctx: &ExecContext,
    gate: &ReserveGate,
    run_pages: usize,
    (build_part, build_layout): (&SpillFile, &TupleLayout),
    (probe_part, probe_layout): (&SpillFile, &TupleLayout),
) -> Result<RowBatch, ExecError> {
    let build_width = build_layout.width();
    let probe_width = probe_layout.width();
    ctx.governor.charge_io((build_part.page_count() + probe_part.page_count()) as u64)?;
    let store = RowBatch::from_spill(build_part, build_width, run_pages)?;
    let probe_batch = RowBatch::from_spill(probe_part, probe_width, run_pages)?;
    ctx.governor.check_batch(probe_batch.rows() as u64)?;
    // The reservation is the cost model's padded record size; the radix
    // fan-out follows the bytes the columns really hold, as in
    // [`join_batches`] — the rows of a pair share their low hash bits, so
    // a second partition would stay empty and only cost the scatter.
    let part_bytes = (store.rows() * build_layout.row_bytes) as u64;
    gate.reserve(&ctx.governor, part_bytes)?;
    let parts = radix_partitions(store.rows() * build_width * 8, 1);
    let table = RadixTable::build(keys, &ctx.counters, Cow::Owned(store), parts);
    let (mut hashes, mut pairs) = (Vec::new(), Pairs::new());
    table.match_batch(keys, &ctx.counters, &probe_batch, &mut hashes, &mut pairs);
    let mut out = RowBatch::with_capacity(build_width + probe_width, pairs.len());
    table.gather_pairs_into(|c| probe_batch.column(c), &pairs, true, &mut out);
    drop(table);
    gate.release(&ctx.governor, part_bytes);
    Ok(out)
}

enum State {
    Closed,
    /// Build table resident (serial): the probe input streams through it.
    Radix(RadixTable),
    /// Grace mode (serial): partition pairs are joined one at a time,
    /// each pair's output streamed out before the next pair is read.
    Partitioned {
        build_parts: Vec<SpillFile>,
        probe_parts: Vec<SpillFile>,
        part: usize,
    },
    /// Parallel (resident or Grace): all partition work finished at
    /// `open`; only the merged result is left to stream out.
    Joined,
}

/// Hash join over equi-join keys. With `ctx.dop > 1` the partition work
/// (in-memory or Grace) fans out across worker threads; see the module
/// docs for the parity guarantees.
pub struct HashJoinExec<'a> {
    build: BoxedOperator<'a>,
    probe: BoxedOperator<'a>,
    keys: Keys,
    layout: TupleLayout,
    ctx: ExecContext,
    disk: SimDisk,
    /// Memory budget in bytes for the build table.
    budget_bytes: usize,
    /// Bytes currently reserved with the governor; released in `close`.
    reserved: u64,
    state: State,
    /// Joined rows not yet handed out: the parallel paths' whole result,
    /// the current Grace partition pair's, or what a resident probe batch
    /// produced beyond the request.
    joined: ColStream,
    /// A failure from work the serial join performs while it is pulled
    /// (probe streaming, partition joining) that the parallel paths
    /// perform eagerly at `open()`; surfaced on the first `next_batch`.
    pending_err: Option<ExecError>,
    /// Mid-query re-optimization probe, fired once per `open` with the
    /// build input's actual cardinality when the build completes.
    checkpoint: Option<crate::reopt::ReoptProbe>,
}

impl<'a> HashJoinExec<'a> {
    /// Creates a hash join building on `build`. The degree of parallelism
    /// comes from `ctx.dop`; `1` compiles the classic serial join.
    #[must_use]
    pub fn new(
        build: BoxedOperator<'a>,
        probe: BoxedOperator<'a>,
        keys: Keys,
        ctx: ExecContext,
        disk: SimDisk,
        budget_bytes: usize,
    ) -> Self {
        let layout = build.layout().concat(probe.layout());
        HashJoinExec {
            build,
            probe,
            keys,
            layout,
            ctx,
            disk,
            budget_bytes,
            reserved: 0,
            state: State::Closed,
            joined: ColStream::default(),
            pending_err: None,
            checkpoint: None,
        }
    }

    /// Attaches a re-optimization checkpoint probe to the build phase.
    pub(crate) fn with_checkpoint(mut self, probe: crate::reopt::ReoptProbe) -> Self {
        self.checkpoint = Some(probe);
        self
    }

    /// Parallel in-memory strategy: build one [`RadixTable`] (fan-out ≥
    /// `dop`), drain + scatter the probe input columnar, then
    /// have `dop` workers claim partitions and probe them — match pairs
    /// gather into per-partition output batches merged in partition
    /// order.
    fn open_parallel_radix(&mut self, store: &RowBatch, dop: usize) -> Result<(), ExecError> {
        let build_bytes = store.rows() * self.build.layout().row_bytes;
        let parts = radix_partitions(build_bytes, dop);
        let table = RadixTable::build(&self.keys, &self.ctx.counters, Cow::Borrowed(store), parts);
        // Probe-phase work (errors defer to the first pull): hash each
        // live row once with the columnar kernel.
        let probe_rows = self.probe.estimated_rows().map_or(0, |n| n.min(1 << 20) as usize);
        let mut probe_store = RowBatch::with_capacity(self.probe.layout().width(), probe_rows);
        let mut probe_hashes: Vec<u64> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        let drained: Result<(), ExecError> = loop {
            match self.probe.next_batch(BATCH_CAPACITY) {
                Ok(Some(batch)) => {
                    if let Err(e) = self.ctx.governor.check_batch(batch.len() as u64) {
                        break Err(e);
                    }
                    self.ctx.counters.add_hashes(batch.len() as u64);
                    hash_probe_batch(&self.keys, &batch, &mut scratch);
                    probe_hashes.extend_from_slice(&scratch);
                    probe_store.extend_from_live(&batch, 0..batch.len());
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.state = State::Joined;
        if let Err(e) = drained {
            self.pending_err = Some(e);
            return Ok(());
        }
        let (probe_cols, probe_hashes, probe_starts) =
            scatter_by_partition(probe_store.columns(), &probe_hashes, table.part_mask);
        let (keys, out_width) = (&self.keys, self.layout.width());
        self.joined = join_partitions(&self.ctx, out_width, dop, parts, |p, worker| {
            let rows = probe_starts[p]..probe_starts[p + 1];
            let mut pairs = Pairs::new();
            table.probe(keys, |c| &probe_cols[c], &probe_hashes[rows.clone()], rows, &mut pairs);
            worker.counters.add_records(pairs.len() as u64);
            let mut out = RowBatch::with_capacity(out_width, pairs.len());
            table.gather_pairs_into(|c| &probe_cols[c], &pairs, true, &mut out);
            Ok(out)
        })?;
        Ok(())
    }
}

impl Operator for HashJoinExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.joined = ColStream::default();
        self.pending_err = None;
        let dop = self.ctx.dop.max(1);
        self.build.open()?;
        let build_row_bytes = self.build.layout().row_bytes;
        let build_width = self.build.layout().width();
        // Pre-size the build buffer from the input's row estimate — the
        // common in-memory case never reallocates mid-build.
        let build_rows = self.build.estimated_rows().map_or(0, |n| n.min(1 << 20) as usize);
        let mut store = RowBatch::with_capacity(build_width, build_rows);
        // Drain whole batches straight into the columnar store, reserving
        // and checking once per batch.
        loop {
            // Bounded so the input never produces (and charges for) rows
            // beyond the first one a reservation would be refused for.
            let req = self.ctx.governor.ingest_batch_rows(build_row_bytes);
            let Some(batch) = self.build.next_batch(req)? else { break };
            let n = batch.len();
            self.ctx.governor.check_batch(n as u64)?;
            self.ctx.governor.try_reserve_memory((n * build_row_bytes) as u64)?;
            self.reserved += (n * build_row_bytes) as u64;
            store.extend_from_live(&batch, 0..n);
        }
        self.build.close();
        // Build completion is a pipeline breaker: the build input's true
        // cardinality is now known exactly.
        if let Some(probe) = &self.checkpoint {
            probe.observe(store.rows() as u64);
        }
        self.probe.open()?;

        let build_bytes = store.rows() * build_row_bytes;
        if build_bytes <= self.budget_bytes {
            // The reservation stays held while the table is resident;
            // `close` releases it.
            if dop > 1 {
                return self.open_parallel_radix(&store, dop);
            }
            self.state = State::Radix(RadixTable::build(
                &self.keys,
                &self.ctx.counters,
                Cow::Owned(store),
                radix_partitions(build_bytes, 1),
            ));
            return Ok(());
        }

        // Grace partitioning: spill both inputs by key hash (accounted);
        // the buffered build rows move to disk, so release their grant.
        // The spill is single-threaded at every DOP — identical pages in
        // identical order — only the partition-pair joining fans out.
        //
        // Rows go from the columns straight into the page their
        // partition's writer owns, in arrival order; a partition is
        // readable once its writer has sealed it.
        let partition_writers = |row_bytes: usize| -> Vec<SpillWriter> {
            (0..PARTITIONS).map(|_| SpillWriter::charged(self.disk.clone(), row_bytes)).collect()
        };
        // Sealing settles the I/O budget for the pages the partitions
        // wrote, a side at a time; reading a pair back charges its own.
        let seal = |writers: Vec<SpillWriter>| -> Result<Vec<SpillFile>, ExecError> {
            let parts =
                writers.into_iter().map(|w| w.finish()).collect::<Result<Vec<_>, _>>()?;
            let pages: usize = parts.iter().map(SpillFile::page_count).sum();
            self.ctx.governor.charge_io(pages as u64)?;
            Ok(parts)
        };
        let mut writers = partition_writers(build_row_bytes);
        self.ctx.counters.add_hashes(store.rows() as u64);
        let mut hashes = Vec::new();
        hash_build_batch(&self.keys, &store, &mut hashes);
        for (i, &h) in hashes.iter().enumerate() {
            writers[(h as usize) % PARTITIONS].append(store.columns().iter().map(|col| col[i]))?;
        }
        drop(store);
        self.ctx.governor.release_memory(build_bytes as u64);
        self.reserved -= build_bytes as u64;
        let build_parts = seal(writers)?;
        let mut writers = partition_writers(self.probe.layout().row_bytes);
        while let Some(batch) = self.probe.next_batch(BATCH_CAPACITY)? {
            self.ctx.governor.check_batch(batch.len() as u64)?;
            self.ctx.counters.add_hashes(batch.len() as u64);
            hash_probe_batch(&self.keys, &batch, &mut hashes);
            for (idx, &h) in batch.selected_indices().zip(&hashes) {
                writers[(h as usize) % PARTITIONS]
                    .append(batch.columns().iter().map(|col| col[idx]))?;
            }
        }
        let probe_parts = seal(writers)?;
        if dop > 1 {
            // Join the spilled pairs concurrently, each pair's table
            // reservation going through one shared gate so concurrent
            // pairs never oversubscribe the grant. The serial join raises
            // partition-phase failures while it is pulled; defer them.
            self.state = State::Joined;
            let gate = ReserveGate::new();
            let keys = &self.keys;
            let (build_layout, probe_layout) = (self.build.layout(), self.probe.layout());
            let joined = join_partitions(
                &self.ctx,
                self.layout.width(),
                dop,
                PARTITIONS,
                |p, worker| {
                    // The workers share the disk: a run no longer than a morsel.
                    let (build, probe) = ((&build_parts[p], build_layout), (&probe_parts[p], probe_layout));
                    join_spilled_pair(keys, worker, &gate, DEFAULT_MORSEL_PAGES, build, probe)
                },
            );
            match joined {
                Ok(joined) => self.joined = joined,
                Err(e) => self.pending_err = Some(e),
            }
            return Ok(());
        }
        self.state = State::Partitioned {
            build_parts,
            probe_parts,
            part: 0,
        };
        Ok(())
    }

    /// The join's native body. Rows already joined stream out first, in
    /// `max_rows` slices. Then the serial resident path ([`State::Radix`])
    /// hashes probe batches with the columnar kernel, walks the radix
    /// table's chains, and gathers match pairs column by column; the
    /// serial Grace path joins the next spilled partition pair
    /// ([`join_spilled_pair`]); the parallel paths did all of that at
    /// `open`.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        self.ctx.governor.check_batch(0)?;
        loop {
            if let Some(batch) = self.joined.next_slice(max_rows) {
                return Ok(Some(batch));
            }
            match &mut self.state {
                State::Closed | State::Joined => return Ok(None),
                State::Partitioned { build_parts, probe_parts, part } => {
                    if *part >= PARTITIONS {
                        return Ok(None);
                    }
                    let p = *part;
                    *part += 1;
                    self.joined = ColStream::new(join_spilled_pair(
                        &self.keys,
                        &self.ctx,
                        &ReserveGate::new(),
                        usize::MAX,
                        (&build_parts[p], self.build.layout()),
                        (&probe_parts[p], self.probe.layout()),
                    )?);
                }
                State::Radix(table) => {
                    // Grown by each probe batch's exact match count: a
                    // selective join never pays for `max_rows` up front.
                    let mut out = RowBatch::with_capacity(self.layout.width(), 0);
                    let (mut hashes, mut pairs) = (Vec::new(), Pairs::new());
                    while out.rows() < max_rows {
                        let Some(probe_batch) = self.probe.next_batch(max_rows)? else {
                            break;
                        };
                        self.ctx.governor.check_batch(probe_batch.len() as u64)?;
                        table.match_batch(
                            &self.keys,
                            &self.ctx.counters,
                            &probe_batch,
                            &mut hashes,
                            &mut pairs,
                        );
                        table.gather_pairs_into(|c| probe_batch.column(c), &pairs, true, &mut out);
                    }
                    if out.rows() == 0 {
                        return Ok(None);
                    }
                    // The last probe batch may have out-produced the
                    // request; the loop hands out `max_rows` at a time.
                    self.joined = ColStream::new(out);
                }
            }
        }
    }

    fn close(&mut self) {
        self.probe.close();
        self.state = State::Closed;
        self.joined = ColStream::default();
        self.pending_err = None;
        if self.reserved > 0 {
            self.ctx.governor.release_memory(self.reserved);
            self.reserved = 0;
        }
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ResourceLimits;
    use crate::tuple::Tuple;

    #[test]
    fn hash_is_stable_across_sides_and_partitions() {
        // Build position 1 and probe position 0 carry the key.
        let keys: Keys = vec![(1, 0)];
        let build = [10i64, 42];
        let probe = [42i64, 99];
        let hb = hash_key(&keys, &build, true);
        let hp = hash_key(&keys, &probe, false);
        assert_eq!(hb, hp, "equal key values hash identically on both sides");
        for parts in [2usize, 4, 8] {
            assert_eq!(
                (hb as usize) % parts,
                (hp as usize) % parts,
                "partition assignment stable at {parts} partitions"
            );
        }
    }

    #[test]
    fn hash_spreads_small_sequential_keys() {
        let keys: Keys = vec![(0, 0)];
        let mut buckets = [0usize; PARTITIONS];
        for v in 0..800i64 {
            let h = hash_key(&keys, &[v], true);
            buckets[(h as usize) % PARTITIONS] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                count > 800 / PARTITIONS / 2,
                "bucket {i} starved: {buckets:?}"
            );
        }
    }

    #[test]
    fn batched_hash_kernel_matches_scalar() {
        // Two key columns; the folded column kernel must reproduce
        // hash_key bit for bit, dense and under a selection vector.
        let keys: Keys = vec![(0, 1), (1, 0)];
        let mut batch = RowBatch::new(2);
        for v in 0..100i64 {
            batch.push_row(&[v * 7 - 50, v * v]);
        }
        let mut hashes = Vec::new();
        hash_probe_batch(&keys, &batch, &mut hashes);
        for (i, &h) in hashes.iter().enumerate() {
            let row = batch.row_vec(i);
            assert_eq!(h, hash_key(&keys, &row, false), "row {i}");
        }
        batch.set_selection(vec![3, 17, 42, 99]);
        hash_probe_batch(&keys, &batch, &mut hashes);
        for (j, idx) in [3usize, 17, 42, 99].into_iter().enumerate() {
            let row = batch.row_vec(idx);
            assert_eq!(hashes[j], hash_key(&keys, &row, false), "selected row {idx}");
        }
    }

    /// The first `n` keys from 0 upwards that `keep` their hash.
    fn keys_where(n: usize, keep: impl Fn(u64) -> bool) -> Vec<i64> {
        (0i64..).filter(|&k| keep(hash_key(&[(0, 0)], &[k], true))).take(n).collect()
    }

    #[test]
    fn radix_table_probe_matches_hashmap_semantics() {
        // Probe rows in batch order, each row's matches in build-arrival
        // order — compared pair for pair with a nested loop, at every
        // fan-out.
        let check = |keys: &Keys, store: &RowBatch, probe: &RowBatch, what: &str| {
            let mut want = Vec::new();
            for idx in probe.selected_indices() {
                let p = probe.row_vec(idx);
                for b in store.iter().filter(|b| keys.iter().all(|&(bk, pk)| b[bk] == p[pk])) {
                    want.push([b.as_slice(), p.as_slice()].concat());
                }
            }
            assert!(!want.is_empty(), "{what}: the case joins something");
            let counters = SharedCounters::default();
            for parts in [1usize, 2, 4, 8] {
                let table = RadixTable::build(keys, &counters, Cow::Borrowed(store), parts);
                let (mut hashes, mut pairs) = (Vec::new(), Pairs::new());
                table.match_batch(keys, &counters, probe, &mut hashes, &mut pairs);
                let mut out = RowBatch::new(store.width() + probe.width());
                table.gather_pairs_into(|c| probe.column(c), &pairs, true, &mut out);
                assert_eq!(out.to_tuples(), want, "{what}, {parts} partitions");
            }
        };
        let batch_of = |width: usize, rows: &[Vec<i64>]| {
            let mut batch = RowBatch::new(width);
            for row in rows {
                batch.push_row(row);
            }
            batch
        };

        // Duplicate keys on the build side; probe key 7 matches nothing.
        let single: Keys = vec![(0, 0)];
        let store = batch_of(2, &[vec![1, 10], vec![2, 20], vec![1, 11], vec![3, 30], vec![1, 12]]);
        let probe = batch_of(2, &[vec![1, 99], vec![7, 0]]);
        check(&single, &store, &probe, "duplicate build keys");

        // A Grace partition's two sides: every key has the same hash
        // modulo the fan-out, duplicates on both sides, and every other
        // probe key has no partner.
        let in_partition = keys_where(300, |h| h as usize % PARTITIONS == 3);
        let build_rows: Vec<_> = (0..600).map(|i| vec![in_partition[i % 200], i as i64]).collect();
        let probe_rows: Vec<_> =
            (0..500).map(|i| vec![in_partition[(i * 7) % 300], -(i as i64)]).collect();
        let (store, mut probe) = (batch_of(2, &build_rows), batch_of(2, &probe_rows));
        check(&single, &store, &probe, "Grace-partitioned sides");

        // The same probe batch under a selection vector.
        probe.set_selection((0..500u32).filter(|i| i % 3 != 0).collect());
        check(&single, &store, &probe, "probe under a selection vector");

        // Two keys on crossed positions: most rows that agree on the
        // first key differ in the second.
        let double: Keys = vec![(0, 1), (1, 0)];
        let build_rows: Vec<_> = (0..120i64).map(|i| vec![i % 4, i % 3, 1_000 + i]).collect();
        let probe_rows: Vec<_> = (0..90i64).map(|i| vec![i % 5, i % 6, 2_000 + i]).collect();
        let (store, mut probe) = (batch_of(3, &build_rows), batch_of(3, &probe_rows));
        check(&double, &store, &probe, "two-key join");
        probe.set_selection((0..90u32).filter(|i| i % 2 == 1).collect());
        check(&double, &store, &probe, "two-key join under a selection vector");

        // No key at all: the cross product, in the same order.
        let (store, probe) = (batch_of(1, &[vec![1], vec![2], vec![3]]), batch_of(1, &[vec![8], vec![9]]));
        check(&Keys::new(), &store, &probe, "cross product");
    }

    #[test]
    fn pre_partitioned_build_sides_fill_the_buckets_independent_bits_would() {
        // Rows that reach a table have passed a partitioner that read the
        // same hash from the bottom: a Grace partition holds one residue
        // of `h % PARTITIONS`, a shard one destination of `shard_route`.
        // Buckets taken from the top of the hash do not care. `n` distinct
        // keys thrown at `nb` buckets independently occupy
        // `nb * (1 - e^(-n / nb))` of them; buckets on the bits next to
        // the partitioners' can reach an eighth, a half, a quarter of the
        // table and fall far short.
        let n = 2_000usize;
        let routed_to = |shards: usize, shard: u32| {
            let mut batch = RowBatch::with_capacity(1, 8 * n * shards);
            for k in 0..(8 * n * shards) as i64 {
                batch.push_row(&[k]);
            }
            let (mut hashes, mut dests) = (Vec::new(), Vec::new());
            crate::shard_route(&batch, &[0], shards, &mut hashes, &mut dests);
            let mine = (0..).zip(&dests).filter(|&(_, &d)| d == shard).map(|(k, _)| k);
            mine.take(n).collect::<Vec<i64>>()
        };
        let cases = [
            ("one Grace partition", keys_where(n, |h| h as usize % PARTITIONS == 5)),
            ("one of two shards", routed_to(2, 1)),
            ("one of four shards", routed_to(4, 2)),
        ];
        for (what, keys) in cases {
            assert_eq!(keys.len(), n, "{what}");
            let mut store = RowBatch::with_capacity(1, n);
            for k in keys {
                store.push_row(&[k]);
            }
            let counters = SharedCounters::default();
            let table = RadixTable::build(&vec![(0, 0)], &counters, Cow::Owned(store), 1);
            let heads = &table.buckets[0].heads;
            let nb = heads.len() as f64;
            assert_eq!(heads.len(), 4_096, "{what}: two buckets a row, rounded up");
            let occupied = heads.iter().filter(|&&h| h != 0).count();
            let independent = nb * (1.0 - (-(n as f64) / nb).exp());
            assert!(
                occupied as f64 >= 0.9 * independent,
                "{what}: {occupied} of {nb} buckets occupied, independent bits give {independent:.0}"
            );
        }
    }

    /// `n` rows `[key, tag + i]`, keys cycling through `0..keys`, split
    /// over two batches, every fifth row filtered out of the second.
    fn resident_side(n: i64, keys: i64, tag: i64) -> Vec<RowBatch> {
        let mut first = RowBatch::new(2);
        let mut second = RowBatch::new(2);
        for i in 0..n {
            let target = if i < n / 2 { &mut first } else { &mut second };
            target.push_row(&[i % keys, tag + i]);
        }
        second.set_selection((0..second.rows() as u32).filter(|i| i % 5 != 0).collect());
        vec![first, second]
    }

    fn nested_loop(left: &[RowBatch], right: &[RowBatch]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for l in left.iter().flat_map(RowBatch::iter) {
            for r in right.iter().flat_map(RowBatch::iter) {
                if l[0] == r[0] {
                    out.push([l.as_slice(), r.as_slice()].concat());
                }
            }
        }
        out.sort();
        out
    }

    fn sorted(batch: &RowBatch) -> Vec<Tuple> {
        let mut rows = batch.to_tuples();
        rows.sort();
        rows
    }

    #[test]
    fn join_batches_emits_left_then_right_whichever_side_builds() {
        let small = resident_side(40, 7, 1_000);
        let large = resident_side(300, 7, 5_000);
        let ctx = ExecContext::new(SharedCounters::new());
        // Small side on the left: it builds. On the right: it still
        // builds, and the columns still come out left-then-right.
        for (left, right) in [(&small, &large), (&large, &small)] {
            let out = join_batches((left, 2), (right, 2), &[(0, 0)], &ctx).expect("joins");
            assert_eq!(out.width(), 4);
            assert!(out.selection().is_none());
            assert_eq!(sorted(&out), nested_loop(left, right));
        }
        assert_eq!(ctx.counters.fallbacks(), 0, "an ungoverned join never degrades");
        assert_eq!(ctx.governor.memory_used(), 0, "the table's reservation is returned");
        // An empty side joins to nothing.
        let out = join_batches((&[], 2), (&large, 2), &[(0, 0)], &ctx).expect("joins");
        assert_eq!((out.rows(), out.width()), (0, 4));
    }

    #[test]
    fn join_batches_degrades_to_a_chunked_build_then_refuses() {
        let build = resident_side(200, 11, 1_000);
        let probe = resident_side(400, 11, 5_000);
        let rows: u64 = build.iter().map(|b| b.len() as u64).sum();
        let full = rows * (2 * 8 + 48);
        let governed = |bytes: u64| {
            ExecContext::with_limits(
                SharedCounters::new(),
                ResourceLimits { memory_bytes: Some(bytes), ..ResourceLimits::default() },
            )
        };
        // Room for a quarter of the table: four pieces, one fallback,
        // the same multiset.
        let ctx = governed(full / 4 + 8);
        let out = join_batches((&build, 2), (&probe, 2), &[(0, 0)], &ctx).expect("degrades");
        assert_eq!(sorted(&out), nested_loop(&build, &probe));
        assert_eq!(ctx.counters.fallbacks(), 1, "one degradation, however many pieces");
        assert_eq!(ctx.governor.memory_used(), 0);
        // Below an eighth the ladder is exhausted: a governed refusal.
        let ctx = governed(full / 16);
        let err = join_batches((&build, 2), (&probe, 2), &[(0, 0)], &ctx).unwrap_err();
        assert!(
            matches!(err, ExecError::ResourceExhausted(crate::Resource::Memory { .. })),
            "{err:?}"
        );
        assert_eq!(ctx.governor.memory_used(), 0);
    }

    #[test]
    fn scatter_preserves_arrival_order_within_partitions() {
        let hashes: Vec<u64> = (0..32).map(|i| mix(i as u64)).collect();
        let cols = vec![(0..32i64).collect::<Vec<_>>()];
        let (scols, shashes, starts) = scatter_by_partition(&cols, &hashes, 3);
        assert_eq!(*starts.last().unwrap(), 32);
        for p in 0..4u64 {
            let (lo, hi) = (starts[p as usize], starts[p as usize + 1]);
            let mut last = -1i64;
            for i in lo..hi {
                assert_eq!(shashes[i] & 3, p, "row landed in wrong partition");
                assert!(scols[0][i] > last, "arrival order broken in partition {p}");
                last = scols[0][i];
            }
        }
    }

    #[test]
    fn reserve_gate_waits_for_siblings_then_succeeds() {
        use std::sync::Arc;
        let governor = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(100),
            ..ResourceLimits::default()
        });
        let gate = Arc::new(ReserveGate::new());
        // One "partition" holds most of the grant; a second must wait for
        // the release instead of failing.
        gate.reserve(&governor, 80).unwrap();
        let gate2 = Arc::clone(&gate);
        let governor2 = governor.clone();
        let waiter = std::thread::spawn(move || gate2.reserve(&governor2, 60));
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.release(&governor, 80);
        waiter.join().unwrap().unwrap();
        gate.release(&governor, 60);
        assert_eq!(governor.memory_used(), 0);
    }

    #[test]
    fn reserve_gate_fails_when_alone() {
        let governor = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(100),
            ..ResourceLimits::default()
        });
        let gate = ReserveGate::new();
        let err = gate.reserve(&governor, 200).unwrap_err();
        assert!(matches!(err, ExecError::ResourceExhausted(_)));
    }
}
