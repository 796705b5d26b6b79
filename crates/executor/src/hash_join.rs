//! Hash join: in-memory when the build input fits the memory grant,
//! Grace-partitioned otherwise — the same code at every degree of
//! parallelism (the exchange below it is where a plan runs in parallel).
//!
//! The build side is the **left** input (the optimizer's convention; the
//! commutativity rule generates the swapped variant). When the build input
//! exceeds the memory budget, both inputs are partitioned by join-key hash
//! into accounted temporary files, then each partition pair is joined in
//! memory — the extra write+read pass over both inputs is exactly what the
//! cost model charges.
//!
//! **One columnar join.** Every in-memory join — the resident table and
//! each spilled Grace partition pair — goes through the same radix-partitioned columnar table: build rows are
//! ingested straight into per-attribute vectors (one dense [`RowBatch`]), hashed
//! with one multiply-xor pass per key *column* (the auto-vectorizable
//! [`fold_hash_column`] kernel — each row's hash is bit-identical to the
//! row-at-a-time [`hash_key`]), then scattered histogram → prefix-sum into
//! cache-sized partitions with chained bucket arrays ([`RadixTable`]).
//! Probing hashes a whole batch with the same kernel, takes partition and
//! bucket from the two ends of each hash, walks the index chains in one
//! loop that compares key columns as slices ([`RadixTable::probe`]), and
//! gathers match pairs into the output batch column by column. Partition
//! count scales with the build size (one partition per L2-sized slice).
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

use dqep_storage::{SimDisk, SpillFile, SpillWriter};

use crate::batch::{HeldRows, RowBatch, BATCH_CAPACITY};
use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::metrics::SharedCounters;
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// Grace spill fan-out (fixed: spill page identity must not depend on
/// the memory grant).
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
/// identically and partition assignment stays stable across sides.
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
/// partition per L2-sized slice, always a power of two (the partition is
/// a mask of the hash's low bits), capped at [`MAX_RADIX_PARTITIONS`].
fn radix_partitions(build_bytes: usize) -> usize {
    build_bytes.div_ceil(RADIX_PARTITION_BYTES).next_power_of_two().min(MAX_RADIX_PARTITIONS)
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
    /// keeps the rows where they are: the buffer's columns move into the
    /// table.
    fn build(keys: &Keys, counters: &SharedCounters, store: RowBatch, parts: usize) -> RadixTable {
        let n = store.rows();
        debug_assert!(n < u32::MAX as usize, "build side exceeds u32 indexing");
        debug_assert!(parts.is_power_of_two());
        debug_assert!(store.selection().is_none(), "build buffer must be dense");
        counters.add_hashes(n as u64);
        let mut hashes = Vec::new();
        hash_build_batch(keys, &store, &mut hashes);
        let part_mask = (parts - 1) as u64;
        let (cols, hashes, part_starts) = if parts == 1 {
            (store.into_columns(), hashes, vec![0, n])
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
        RadixTable { part_mask, cols, next_link, buckets }
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
    /// probe side's column `c`), the build attributes first — the
    /// operator's layout, whose build side is its left input.
    fn gather_pairs_into<'p>(
        &self,
        probe_col: impl Fn(usize) -> &'p [i64],
        pairs: &[(u32, u32)],
        out: &mut RowBatch,
    ) {
        let bw = self.build_width();
        out.extend_rows_with(pairs.len(), |cols| {
            let (bcols, pcols) = cols.split_at_mut(bw);
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

/// One Grace partition pair, joined: the table built on its build
/// partition, its probe partition, both as read back, and the match pairs
/// of the probe, gathered into the output `max_rows` at a time.
struct JoinedPair {
    table: RadixTable,
    probe: RowBatch,
    pairs: Pairs,
    /// Match pairs handed out.
    next: usize,
}

impl JoinedPair {
    /// Joins a spilled partition pair: reads both partitions back (the
    /// build side first) and takes their columns by move, builds a
    /// per-partition [`RadixTable`] on the build rows and probes it with
    /// every probe row (probe rows in spill order, each row's matches in
    /// build-arrival order). The table's bytes are reserved with the
    /// governor while it is built and probed; what stays resident after
    /// that — the table and the probe rows the pairs point into — stands
    /// in for the pair's joined rows, which the governor never saw.
    fn join(
        keys: &Keys,
        ctx: &ExecContext,
        (build_part, build_layout): (&mut SpillFile, &TupleLayout),
        (probe_part, probe_layout): (&mut SpillFile, &TupleLayout),
    ) -> Result<JoinedPair, ExecError> {
        let build_width = build_layout.width();
        ctx.governor.charge_io((build_part.page_count() + probe_part.page_count()) as u64)?;
        let store = RowBatch::from_columns(build_width, build_part.read(usize::MAX)?);
        let probe = RowBatch::from_columns(probe_layout.width(), probe_part.read(usize::MAX)?);
        ctx.governor.check_batch(probe.rows() as u64)?;
        // The reservation is the cost model's padded record size; the radix
        // fan-out follows the bytes the columns really hold — the rows of a
        // pair share their low hash bits, so a second partition would stay
        // empty and only cost the scatter.
        let part_bytes = (store.rows() * build_layout.row_bytes) as u64;
        ctx.governor.try_reserve_memory(part_bytes)?;
        let parts = radix_partitions(store.rows() * build_width * 8);
        let table = RadixTable::build(keys, &ctx.counters, store, parts);
        let (mut hashes, mut pairs) = (Vec::new(), Pairs::new());
        table.match_batch(keys, &ctx.counters, &probe, &mut hashes, &mut pairs);
        ctx.governor.release_memory(part_bytes);
        Ok(JoinedPair { table, probe, pairs, next: 0 })
    }

    /// The next `max_rows` joined rows (build attributes first), gathered
    /// column by column straight into one batch of `width`; `None` once
    /// every match pair is handed out.
    fn next_slice(&mut self, max_rows: usize, width: usize) -> Option<RowBatch> {
        let take = max_rows.min(self.pairs.len() - self.next);
        if take == 0 {
            return None;
        }
        let pairs = &self.pairs[self.next..self.next + take];
        self.next += take;
        let mut out = RowBatch::with_capacity(width, take);
        self.table.gather_pairs_into(|c| self.probe.column(c), pairs, &mut out);
        Some(out)
    }
}

enum State {
    Closed,
    /// Build table resident: the probe input streams through it.
    Radix(RadixTable),
    /// Grace mode: partition pairs are joined one at a time, each pair's
    /// matches handed out before the next pair is read. The partitions
    /// keep their pages until `close`, read or not.
    Partitioned {
        build_parts: Vec<SpillFile>,
        probe_parts: Vec<SpillFile>,
        part: usize,
        /// The pair being handed out.
        pair: Option<JoinedPair>,
    },
}

/// Hash join over equi-join keys (see the module docs).
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
    /// Joined rows a resident probe batch produced beyond the request.
    joined: HeldRows,
}

impl<'a> HashJoinExec<'a> {
    /// Creates a hash join building on `build` and probing with `probe` on
    /// `keys`, (build column, probe column) pairs: resident while the build
    /// side fits `budget_bytes`, partitioned to temp pages of `disk`
    /// (Grace) past it.
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
            joined: HeldRows::default(),
        }
    }
}

impl Operator for HashJoinExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.joined = HeldRows::default();
        self.build.open()?;
        let build_row_bytes = self.build.layout().row_bytes;
        let build_width = self.build.layout().width();
        // Keep the build batches, reserving and checking once per batch: a
        // table takes them as one buffer of exactly their rows, a Grace
        // side deals them out batch by batch; no buffer grows by estimate.
        let (mut batches, mut rows) = (Vec::new(), 0);
        loop {
            // Bounded so the input never produces (and charges for) rows
            // beyond the first one a reservation would be refused for.
            let req = self.ctx.governor.ingest_batch_rows(build_row_bytes);
            let Some(batch) = self.build.next_batch(req)? else { break };
            let n = batch.len();
            self.ctx.governor.check_batch(n as u64)?;
            self.ctx.governor.try_reserve_memory((n * build_row_bytes) as u64)?;
            self.reserved += (n * build_row_bytes) as u64;
            rows += n;
            batches.push(batch);
        }
        self.build.close();
        self.probe.open()?;

        let build_bytes = rows * build_row_bytes;
        if build_bytes <= self.budget_bytes {
            // The reservation stays held while the table is resident;
            // `close` releases it. The budget is the padded record size,
            // the cost model's; the radix fan-out follows the bytes the
            // columns hold, as a Grace pair's does.
            let store = RowBatch::dense(batches, build_width, rows);
            self.state = State::Radix(RadixTable::build(
                &self.keys,
                &self.ctx.counters,
                store,
                radix_partitions(rows * build_width * 8),
            ));
            return Ok(());
        }

        // Grace partitioning: spill both inputs by key hash (accounted);
        // the buffered build rows move to disk, so release their grant.
        // Rows are dealt from the columns to their partitions' writers in
        // arrival order; a partition is readable once its writer has
        // sealed it.
        let partition_writers = |row_bytes: usize| -> Vec<SpillWriter> {
            (0..PARTITIONS).map(|_| SpillWriter::charged(self.disk.clone(), row_bytes)).collect()
        };
        // Sealing settles the I/O budget for the pages the partitions
        // wrote, a side at a time; reading a pair back charges its own.
        let seal = |writers: Vec<SpillWriter>| -> Result<Vec<SpillFile>, ExecError> {
            let parts = writers.into_iter().map(|w| w.finish()).collect::<Result<Vec<_>, _>>()?;
            let pages: usize = parts.iter().map(SpillFile::page_count).sum();
            self.ctx.governor.charge_io(pages as u64)?;
            Ok(parts)
        };
        let mut writers = partition_writers(build_row_bytes);
        self.ctx.counters.add_hashes(rows as u64);
        let mut hashes = Vec::new();
        for batch in &batches {
            hash_build_batch(&self.keys, batch, &mut hashes);
            let dealt =
                batch.selected_indices().zip(hashes.iter().map(|&h| h as usize % PARTITIONS));
            SpillWriter::deal(&mut writers, batch.columns(), dealt)?;
        }
        drop(batches);
        self.ctx.governor.release_memory(build_bytes as u64);
        self.reserved -= build_bytes as u64;
        let build_parts = seal(writers)?;
        let mut writers = partition_writers(self.probe.layout().row_bytes);
        while let Some(batch) = self.probe.next_batch(BATCH_CAPACITY)? {
            self.ctx.governor.check_batch(batch.len() as u64)?;
            self.ctx.counters.add_hashes(batch.len() as u64);
            hash_probe_batch(&self.keys, &batch, &mut hashes);
            let dealt =
                batch.selected_indices().zip(hashes.iter().map(|&h| h as usize % PARTITIONS));
            SpillWriter::deal(&mut writers, batch.columns(), dealt)?;
        }
        let probe_parts = seal(writers)?;
        self.state = State::Partitioned { build_parts, probe_parts, part: 0, pair: None };
        Ok(())
    }

    /// The join's native body. The resident path (`State::Radix`)
    /// hashes probe batches with the columnar kernel, walks the radix
    /// table's chains, and gathers match pairs column by column — those
    /// past the request, which the last probe batch may produce, into a
    /// held batch of their own, handed out in `max_rows` slices first;
    /// the Grace path gathers the current partition pair's
    /// next `max_rows` match pairs, and joins the next pair
    /// (`JoinedPair::join`) when they are handed out.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        self.ctx.governor.check_batch(0)?;
        let width = self.layout.width();
        loop {
            if let Some(batch) = self.joined.next_slice(max_rows) {
                return Ok(Some(batch));
            }
            match &mut self.state {
                State::Closed => return Ok(None),
                State::Partitioned { build_parts, probe_parts, part, pair } => {
                    if let Some(batch) = pair.as_mut().and_then(|p| p.next_slice(max_rows, width)) {
                        return Ok(Some(batch));
                    }
                    *pair = None;
                    if *part >= PARTITIONS {
                        return Ok(None);
                    }
                    let p = *part;
                    *part += 1;
                    *pair = Some(JoinedPair::join(
                        &self.keys,
                        &self.ctx,
                        (&mut build_parts[p], self.build.layout()),
                        (&mut probe_parts[p], self.probe.layout()),
                    )?);
                }
                State::Radix(table) => {
                    // Grown by each probe batch's exact match count: a
                    // selective join never pays for `max_rows` up front.
                    let mut out = RowBatch::with_capacity(width, 0);
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
                        let room = pairs.len().min(max_rows - out.rows());
                        let probe_col = |c| probe_batch.column(c);
                        table.gather_pairs_into(probe_col, &pairs[..room], &mut out);
                        if room < pairs.len() {
                            // The last probe batch out-produced the request:
                            // the rows past it are gathered into a batch of
                            // their own and held, as a cut would keep them.
                            let mut rest = RowBatch::with_capacity(width, pairs.len() - room);
                            table.gather_pairs_into(probe_col, &pairs[room..], &mut rest);
                            self.joined.push(rest);
                        }
                    }
                    return Ok((out.rows() > 0).then_some(out));
                }
            }
        }
    }

    fn close(&mut self) {
        self.probe.close();
        self.state = State::Closed;
        self.joined = HeldRows::default();
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
            assert!(count > 800 / PARTITIONS / 2, "bucket {i} starved: {buckets:?}");
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
                let table = RadixTable::build(keys, &counters, store.clone(), parts);
                let (mut hashes, mut pairs) = (Vec::new(), Pairs::new());
                table.match_batch(keys, &counters, probe, &mut hashes, &mut pairs);
                let mut out = RowBatch::new(store.width() + probe.width());
                table.gather_pairs_into(|c| probe.column(c), &pairs, &mut out);
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
        let (store, probe) =
            (batch_of(1, &[vec![1], vec![2], vec![3]]), batch_of(1, &[vec![8], vec![9]]));
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
            let table = RadixTable::build(&vec![(0, 0)], &counters, store, 1);
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
}
