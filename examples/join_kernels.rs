//! What the per-row kernels under `exec_scale` and `shard_join` cost,
//! untraced.
//!
//! Seven splits, each through public functions only, over tables of the
//! benchmark's `fact`/`dim` shape (12 000 and 6 000 records of 256 bytes,
//! seven to a page):
//!
//! 1. **A page**: ns a page of a request's worth of pages (108, the mean
//!    of `prepared_hot`), read as a scan reads them: one
//!    `SimDisk::read_run` over their ids, then each column copied out of
//!    the heap file's columns in one slice. On pages of three 512-byte and
//!    of seven 256-byte records, with the pages warm and after a 4 MiB
//!    sweep of the cache.
//! 2. **A probe row**: ns a probe row of a resident hash join run by `run`
//!    over a hand-built plan (the join of two file scans, `dim` building)
//!    on an unpartitioned `dim ⋈ fact`, on the same rows pre-routed by
//!    `shard_route` for two and four shards, and — the control — on the
//!    same rows dealt into as many shares by a hash the join does not use;
//!    each share is a database of its own. A route conditions the low bits
//!    of the join hash; a table that takes its buckets from those bits runs
//!    the routed rows on a half or a quarter of its buckets, and the routed
//!    line reads above the control. With buckets from the other end of the
//!    hash the two lines are equal. The scans' work is in every line.
//! 3. **A statement**: µs a call of the three `exec_scale` statements (the
//!    Grace join of 8 400 × 6 000 rows, the external sort of 8 400, the
//!    join filtered on both sides) through `QueryService`, in turns.
//! 4. **A spilled row**: ns a row of `fact` (12 000 rows, two attributes)
//!    written to a spill file — one charged `SpillWriter` the rows are
//!    dealt to, as a sort writes a run — and ns a row read back through
//!    `SpillFile::read` (the reads, then the columns handed over by move),
//!    for 256- and 512-byte records: what a Grace partition or a sort run
//!    costs a row besides its hash, its sort and its join.
//! 5. **A selected row**: ns a row of the filter's kernel, `select_rows`,
//!    over `fact`'s `a` column in scan-sized batches, at bounds that pass
//!    10, 50 and 90 % of the rows. A kernel that branches on each row pays
//!    most near 50 %, where the outcome is least predictable.
//! 6. **A sorted row**: ns a row of a `SortExec` sorting a 512-row chunk
//!    of `fact` (the external sort's run under the 64-page grant) in
//!    memory, keyed on `j` as `exec_scale`'s sort is, and of `kway_merge`
//!    over 12, 17 and 22 such runs, sorted.
//! 7. **A degree of parallelism**: ms a run of whole plans through `run`
//!    at dop 1, 2 and 4 on an unpaced disk — a resident hash join of
//!    4 000, 40 000 and 400 000 probe rows (an eighth as many build rows),
//!    and the sort of 40 000 rows in memory and under a 64-page grant —
//!    with the minor faults and the system time of the process a run
//!    (`getrusage`, Linux). Pin it to two CPUs to give a second thread
//!    somewhere to run: `taskset -c 0,1`.
//!
//! It prints; it asserts nothing about time. Run pinned:
//! `taskset -c 1 cargo run --release --example join_kernels`
//! (`-- --quick` makes one pass of everything, the CI smoke run; `-- page`,
//! `-- probe`, `-- statement`, `-- spill`, `-- select`, `-- sort`, `-- dop`
//! run that split only).

use std::collections::HashMap;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::algebra::{CompareOp, JoinPred, PhysicalOp};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    kway_merge, mix, run, select_rows, shard_route, ExecContext, LinkScanExec, Operator,
    RootSink, RowBatch, SharedCounters, SortExec, TupleLayout, BATCH_CAPACITY,
};
use dqep::interval::Interval;
use dqep::plan::Plan;
use dqep::service::{QueryService, Request, ServiceConfig};
use dqep::storage::{records_per_page, SimDisk, SpillWriter, StoredDatabase, StoredTable};

const SEED: u64 = 7;
const FACT_ROWS: u64 = 12_000;
const DIM_ROWS: u64 = 6_000;

/// The benchmark's star catalog.
fn star_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", FACT_ROWS, 256, |r| {
            r.attr("a", FACT_ROWS as f64).attr("j", DIM_ROWS as f64).btree("a", false)
        })
        .relation("dim", DIM_ROWS, 256, |r| {
            r.attr("a", DIM_ROWS as f64).attr("j", DIM_ROWS as f64).btree("j", false)
        })
        .build()
        .expect("the catalog is well-formed")
}

fn ns_per(total: Duration, units: usize) -> f64 {
    total.as_secs_f64() * 1e9 / units as f64
}

/// Split 1: one request's worth of pages, read and copied out as a scan
/// does it.
fn page_kernels(quick: bool) {
    const PAGES: usize = 108;
    // Rows that fill `PAGES` pages of each record length.
    let rows = |record_len: usize| (PAGES * records_per_page(record_len)) as u64;
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("wide", rows(512), 512, |r| r.attr("a", 1000.0).attr("j", 1000.0))
        .relation("narrow", rows(256), 256, |r| r.attr("a", 1000.0).attr("j", 1000.0))
        .build()
        .expect("the catalog is well-formed");
    let db = StoredDatabase::generate(&catalog, SEED);
    let mut sweep = vec![0u8; 4 << 20];
    let mut copied = 0usize;
    println!("a page ({PAGES} pages a pass: one read_run, one copy a column; ns a page, warm / after a 4 MiB sweep)");
    for name in ["wide", "narrow"] {
        let table = db.table(catalog.relation_by_name(name).expect("relation exists").id);
        let heap = &table.heap;
        assert_eq!(heap.page_count(), PAGES);
        let mut cols: Vec<Vec<i64>> = (0..2).map(|_| Vec::with_capacity(BATCH_CAPACITY)).collect();
        let mut spent = [Duration::ZERO; 2];
        let passes = [if quick { 1 } else { 20_000 }, if quick { 1 } else { 1_000 }];
        for (swept, spent) in spent.iter_mut().enumerate() {
            for _ in 0..passes[swept] {
                if swept == 1 {
                    sweep.chunks_mut(64).for_each(|line| line[0] = line[0].wrapping_add(1));
                }
                // As a scan does: a batch's columns, filled from empty.
                cols.iter_mut().for_each(Vec::clear);
                let started = Instant::now();
                heap.disk()
                    .read_run(heap.pages().iter().copied(), |_| ControlFlow::Continue(()))
                    .expect("fault-free run");
                let rows = heap.rows_of(0..PAGES);
                cols.iter_mut().zip(rows.columns()).for_each(|(col, from)| col.extend_from_slice(from));
                copied += rows.rows();
                *spent += started.elapsed();
            }
        }
        let ns = |swept: usize| ns_per(spent[swept], PAGES * passes[swept]);
        let len = table.record_len;
        println!("  {} {len}-byte records a page {:>8.1} / {:>8.1}", records_per_page(len), ns(0), ns(1));
    }
    black_box((copied, sweep));
}

/// Every row of `table` as dense batches of the scan's size.
fn table_batches(table: &StoredTable) -> Vec<RowBatch> {
    let heap = &table.heap;
    let pages_a_batch = BATCH_CAPACITY / records_per_page(table.record_len);
    (0..heap.page_count())
        .step_by(pages_a_batch)
        .map(|k| {
            let rows = heap.rows_of(k..heap.page_count().min(k + pages_a_batch));
            let mut batch = RowBatch::new(table.n_attrs);
            batch.extend_rows_with(rows.rows(), |cols| {
                cols.iter_mut().zip(rows.columns()).for_each(|(col, from)| col.extend_from_slice(from));
            });
            batch
        })
        .collect()
}

/// `side` split into `shares` sets of batches by `dest` of each row, the
/// batches of a share no larger than a scan's (what a shard holds after a
/// repartition: a batch a frame, not one batch).
fn split(side: &[RowBatch], shares: usize, dest: impl Fn(&RowBatch, &mut Vec<u32>)) -> Vec<Vec<RowBatch>> {
    let width = side[0].width();
    let mut outs: Vec<Vec<RowBatch>> = (0..shares).map(|_| vec![RowBatch::new(width)]).collect();
    let mut dests = Vec::new();
    for batch in side {
        dest(batch, &mut dests);
        for (i, &d) in dests.iter().enumerate() {
            let share = &mut outs[d as usize];
            if share.last().expect("never empty").rows() >= BATCH_CAPACITY {
                share.push(RowBatch::new(width));
            }
            share.last_mut().expect("never empty").push_row(&batch.row_vec(i));
        }
    }
    outs
}

/// Split 2: `dim ⋈ fact` on `j`, whole and in shares, each share a
/// database of its own that `run` joins with a resident hash join over two
/// file scans.
fn probe_kernels(catalog: &Catalog, dim: &[RowBatch], fact: &[RowBatch], passes: usize) {
    const KEY: usize = 1;
    let probe_rows: usize = fact.iter().map(RowBatch::rows).sum();
    let build_rows: usize = dim.iter().map(RowBatch::rows).sum();
    let relation = |name: &str| catalog.relation_by_name(name).expect("relation exists");
    let (dim_rel, fact_rel) = (relation("dim"), relation("fact"));
    let mut plan = Plan::new();
    let scan = |plan: &mut Plan, relation, rows: usize| {
        plan.push(PhysicalOp::FileScan { relation }, &[], &[], stats(rows as u64), Cost::ZERO)
    };
    let (b, p) = (scan(&mut plan, dim_rel.id, build_rows), scan(&mut plan, fact_rel.id, probe_rows));
    let pred = JoinPred::new(dim_rel.attr_id("j").expect("attr"), fact_rel.attr_id("j").expect("attr"));
    plan.push(PhysicalOp::HashJoin, &[b, p], &[pred], stats(probe_rows as u64), Cost::ZERO);
    // A grant twice the whole build side: every share's join is resident.
    let bindings = Bindings::new().with_memory((build_rows * 256).div_ceil(2048) as f64 * 2.0);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let database = |(build, probe): (Vec<RowBatch>, Vec<RowBatch>)| {
        let rows = |side: Vec<RowBatch>| side.iter().flat_map(RowBatch::iter).collect::<Vec<_>>();
        StoredDatabase::from_rows(catalog, &HashMap::from([(dim_rel.id, rows(build)), (fact_rel.id, rows(probe))]))
    };
    // The inputs of each line: a database a share.
    let mut lines: Vec<(String, Vec<StoredDatabase>)> =
        vec![("unpartitioned".into(), vec![database((dim.to_vec(), fact.to_vec()))])];
    for shards in [2usize, 4] {
        let routed = |batch: &RowBatch, dests: &mut Vec<u32>| {
            shard_route(batch, &[KEY], shards, &mut Vec::new(), dests);
        };
        let dealt = |batch: &RowBatch, dests: &mut Vec<u32>| {
            dests.clear();
            dests.extend(batch.column(KEY).iter().map(|&k| (mix(!(k as u64)) % shards as u64) as u32));
        };
        let shares = |b: Vec<Vec<RowBatch>>, p: Vec<Vec<RowBatch>>| b.into_iter().zip(p).map(database).collect();
        lines.push((
            format!("routed by shard_route, {shards} shards"),
            shares(split(dim, shards, routed), split(fact, shards, routed)),
        ));
        lines.push((
            format!("dealt by another hash, {shards} shares"),
            shares(split(dim, shards, dealt), split(fact, shards, dealt)),
        ));
    }
    let ctx = ExecContext::new(SharedCounters::new());
    let mut spent = vec![Duration::ZERO; lines.len()];
    let mut joined = vec![0u64; lines.len()];
    for _ in 0..passes {
        for (at, (_, shares)) in lines.iter().enumerate() {
            let started = Instant::now();
            for db in shares {
                let summary = run(&plan, db, catalog, &env, &bindings, &ctx, RootSink::Discard);
                joined[at] += black_box(summary.expect("a resident join")).rows;
            }
            spent[at] += started.elapsed();
        }
    }
    assert!(joined.iter().all(|&rows| rows == joined[0]), "every line joins the same rows: {joined:?}");
    println!("\na probe row (a resident hash join through run, {build_rows} x {probe_rows} rows, {} rows out, passes: {passes})",
        joined[0] / passes as u64);
    for ((name, _), d) in lines.iter().zip(spent) {
        println!("  {name:<36} {:>8.1} ns a probe row", ns_per(d, probe_rows * passes));
    }
}

/// Split 3: the three `exec_scale` statements at 70 % selectivity.
fn statements(catalog: &Catalog, passes: usize) {
    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig { workers: 1, data_seed: SEED, ..ServiceConfig::default() },
    );
    let (x, y) = ((0.7 * FACT_ROWS as f64) as i64, (0.7 * DIM_ROWS as f64) as i64);
    let request = |sql: &str, binds: &[(&str, i64)]| Request {
        sql: sql.into(),
        binds: binds.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        ..Request::default()
    };
    let calls = [
        ("join", request("SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x", &[("x", x)])),
        ("sort", request("SELECT * FROM fact WHERE fact.a < :x ORDER BY fact.j", &[("x", x)])),
        (
            "join filtered on both sides",
            request(
                "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x AND dim.a < :y",
                &[("x", x), ("y", y)],
            ),
        ),
    ];
    let mut spent = [Duration::ZERO; 3];
    let mut rows = [0u64; 3];
    // Pass 0 prepares, decides and generates the replica: off the clock.
    for pass in 0..=passes {
        for (at, (_, call)) in calls.iter().enumerate() {
            let copy = call.clone();
            let started = Instant::now();
            let result = service.execute(copy).expect("fault-free request");
            if pass > 0 {
                spent[at] += started.elapsed();
                rows[at] = result.summary.rows;
            }
        }
    }
    println!("\na statement (QueryService::execute, {passes} calls each, in turns)");
    for ((name, _), (d, rows)) in calls.iter().zip(spent.iter().zip(rows)) {
        println!("  {name:<32} {:>8.1} us a call, {rows} rows", ns_per(*d, passes) / 1e3);
    }
}

/// Split 4: `rows` (one batch's columns) through a spill file and back.
fn spill_rows(rows: &RowBatch, passes: usize) {
    const WAYS: [&str; 2] = ["written (dealt to one writer)", "read back (read)"];
    let n = rows.rows();
    println!("\na spilled row ({n} rows of {} attributes, passes: {passes}; ns a row)", rows.width());
    for record_len in [256usize, 512] {
        let disk = SimDisk::new();
        let mut spent = [Duration::ZERO; 2];
        let mut pages = 0;
        let columns: Vec<Vec<i64>> = (0..rows.width()).map(|c| rows.column(c).to_vec()).collect();
        for _ in 0..passes {
            let started = Instant::now();
            let mut writer = [SpillWriter::charged(disk.clone(), record_len)];
            SpillWriter::deal(&mut writer, &columns, (0..n).map(|i| (i, 0))).expect("fault-free write");
            let [writer] = writer;
            let mut file = writer.finish().expect("fault-free seal");
            spent[0] += started.elapsed();
            let started = Instant::now();
            let back = file.read(usize::MAX).expect("fault-free read");
            spent[1] += started.elapsed();
            assert_eq!(back, columns, "the rows come back as they went");
            pages = file.page_count();
        }
        println!("  {record_len}-byte records, {} a page, {pages} pages", records_per_page(record_len));
        for (way, name) in WAYS.iter().enumerate() {
            println!("    {name:<32} {:>8.1}", ns_per(spent[way], n * passes));
        }
    }
}

/// Split 5: the filter's kernel over column 0 of `batches`, at bounds
/// that pass 10, 50 and 90 % of the rows.
fn selected_rows(batches: &[RowBatch], passes: usize) {
    let n: usize = batches.iter().map(RowBatch::rows).sum();
    let mut keys: Vec<i64> = batches.iter().flat_map(|batch| batch.column(0).iter().copied()).collect();
    keys.sort_unstable();
    println!("\na selected row (select_rows, a < bound over {n} rows in batches of {BATCH_CAPACITY}, passes: {passes}; ns a row)");
    let mut sel = Vec::with_capacity(BATCH_CAPACITY);
    for percent in [10usize, 50, 90] {
        let bound = keys[n * percent / 100];
        let (mut spent, mut kept) = (Duration::ZERO, 0usize);
        for _ in 0..passes {
            let started = Instant::now();
            for batch in batches {
                select_rows(batch, 0, CompareOp::Lt, bound, &mut sel);
                kept += black_box(&sel).len();
            }
            spent += started.elapsed();
        }
        println!("  {:>3} % selected {:>8.2}", kept * 100 / (n * passes), ns_per(spent, n * passes));
    }
}

/// Split 6: `rows` (one batch's columns, laid out as `layout`) cut into
/// 512-row runs, each sorted on `j` in memory by a `SortExec` over a leaf
/// that holds the run, then merged by `kway_merge` 12, 17 and 22 runs at a
/// time.
fn sorted_rows(rows: &RowBatch, layout: &TupleLayout, passes: usize) {
    const RUN: usize = 512;
    const KEY: usize = 1;
    let width = rows.width();
    let chunks: Vec<RowBatch> = (0..rows.rows() / RUN)
        .map(|c| {
            let mut chunk = RowBatch::with_capacity(width, RUN);
            chunk.extend_from_live(rows, c * RUN..(c + 1) * RUN);
            chunk
        })
        .collect();
    let (ctx, disk) = (ExecContext::new(SharedCounters::new()), SimDisk::new());
    let mut sorted = Vec::new();
    let mut spent = Duration::ZERO;
    for _ in 0..passes {
        sorted.clear();
        for chunk in &chunks {
            // A leaf of no links hands its run over by move.
            let leaf = LinkScanExec::new([], vec![chunk.clone()], layout, ctx.clone());
            let mut sort = SortExec::new(Box::new(leaf), KEY, ctx.clone(), disk.clone(), usize::MAX);
            let started = Instant::now();
            sort.open().expect("an in-memory sort");
            sorted.push(sort.next_batch(usize::MAX).expect("an in-memory sort").expect("a sorted run"));
            sort.close();
            spent += started.elapsed();
        }
    }
    println!("\na sorted row ({RUN}-row runs of {width} attributes on j, passes: {passes}; ns a row)");
    println!("  SortExec, one run {:>22.1}", ns_per(spent, chunks.len() * RUN * passes));
    for k in [12usize, 17, 22] {
        let runs: Vec<&[RowBatch]> = sorted[..k].iter().map(std::slice::from_ref).collect();
        let (mut spent, mut sum) = (Duration::ZERO, 0i64);
        for _ in 0..passes {
            let started = Instant::now();
            kway_merge(&runs, KEY, |_, batch, i| sum = sum.wrapping_add(batch.column(0)[i]));
            spent += started.elapsed();
        }
        black_box(sum);
        println!("  kway_merge, {k} runs {:>19.1}", ns_per(spent, k * RUN * passes));
    }
}

/// The process's minor faults and system time so far (`getrusage`).
#[cfg(target_os = "linux")]
fn usage() -> (i64, Duration) {
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `struct rusage` is two `timeval`s and fourteen longs on
    // x86_64 and aarch64 Linux: 18 words, `ru_stime` the 3rd and 4th,
    // `ru_minflt` the 9th.
    let done = unsafe { getrusage(0, &mut usage) };
    assert_eq!(done, 0, "getrusage failed");
    let system = Duration::from_secs(usage[2] as u64) + Duration::from_micros(usage[3] as u64);
    (usage[8], system)
}

#[cfg(not(target_os = "linux"))]
fn usage() -> (i64, Duration) {
    (0, Duration::ZERO)
}

/// One plan of split 7 and the memory grant it runs under.
struct DopCase {
    name: String,
    catalog: Catalog,
    db: StoredDatabase,
    plan: Plan,
    bindings: Bindings,
}

impl DopCase {
    /// `dim ⋈ fact` on `dim.k = fact.fk`, `fact` of `probe` rows, `dim` of
    /// an eighth as many, under a grant the build side fits: the resident
    /// hash join over two file scans.
    fn join(probe: u64) -> DopCase {
        let build = probe / 8;
        let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("dim", build, 256, |r| r.attr("k", build as f64).attr("v", 64.0))
            .relation("fact", probe, 256, |r| r.attr("fk", build as f64).attr("m", 64.0))
            .build()
            .expect("the catalog is well-formed");
        let (dim, fact) = (&catalog.relations()[0], &catalog.relations()[1]);
        let mut plan = Plan::new();
        let scan = |plan: &mut Plan, relation, rows: u64| {
            plan.push(PhysicalOp::FileScan { relation }, &[], &[], stats(rows), Cost::ZERO)
        };
        let (b, p) = (scan(&mut plan, dim.id, build), scan(&mut plan, fact.id, probe));
        let pred = JoinPred::new(dim.attr_id("k").expect("attr"), fact.attr_id("fk").expect("attr"));
        plan.push(PhysicalOp::HashJoin, &[b, p], &[pred], stats(probe), Cost::ZERO);
        let pages = (build * 256).div_ceil(2048) as f64 * 2.0;
        DopCase::new(format!("hash join, {probe} probe rows"), catalog, plan, pages)
    }

    /// The sort of `rows` rows on a uniform attribute, in memory or under
    /// a grant of `pages`.
    fn sort(rows: u64, pages: Option<f64>) -> DopCase {
        let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("fact", rows, 256, |r| r.attr("a", rows as f64).attr("m", 64.0))
            .build()
            .expect("the catalog is well-formed");
        let fact = &catalog.relations()[0];
        let mut plan = Plan::new();
        let scan = plan.push(PhysicalOp::FileScan { relation: fact.id }, &[], &[], stats(rows), Cost::ZERO);
        let sort = PhysicalOp::Sort { attr: fact.attr_id("a").expect("attr") };
        plan.push(sort, &[scan], &[], stats(rows), Cost::ZERO);
        let (name, pages) = match pages {
            Some(pages) => (format!("sort, {rows} rows, {pages} pages"), pages),
            None => (format!("sort, {rows} rows, in memory"), (rows * 256).div_ceil(2048) as f64 * 2.0),
        };
        DopCase::new(name, catalog, plan, pages)
    }

    fn new(name: String, catalog: Catalog, plan: Plan, pages: f64) -> DopCase {
        let db = StoredDatabase::generate(&catalog, SEED);
        DopCase { name, catalog, db, plan, bindings: Bindings::new().with_memory(pages) }
    }

    fn run(&self, dop: usize) -> u64 {
        let env = Environment::dynamic_compile_time(&self.catalog.config);
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        let summary = run(&self.plan, &self.db, &self.catalog, &env, &self.bindings, &ctx, RootSink::Discard);
        summary.expect("fault-free run").rows
    }
}

fn stats(rows: u64) -> PlanStats {
    PlanStats::new(Interval::point(rows as f64), 512.0)
}

/// Split 7: each case at dop 1, 2 and 4, in turns, `passes(case)` times
/// after one untimed run each.
fn dop_runs(quick: bool) {
    const DOPS: [usize; 3] = [1, 2, 4];
    println!("
a degree of parallelism (run on an unpaced disk, dop 1 / 2 / 4 in turns; a run: ms, minor faults, system ms)");
    let cases: [(fn() -> DopCase, u32); 5] = [
        (|| DopCase::join(4_000), 1_000),
        (|| DopCase::join(40_000), 100),
        (|| DopCase::join(400_000), 10),
        (|| DopCase::sort(40_000, None), 100),
        (|| DopCase::sort(40_000, Some(64.0)), 100),
    ];
    for (make, passes) in cases {
        let case = make();
        let passes = if quick { 1 } else { passes };
        let rows: Vec<u64> = DOPS.iter().map(|&dop| case.run(dop)).collect();
        assert!(rows.iter().all(|&n| n == rows[0]), "{}: every dop returns the same rows: {rows:?}", case.name);
        let mut spent = [(Duration::ZERO, 0i64, Duration::ZERO); DOPS.len()];
        for _ in 0..passes {
            for (at, &dop) in DOPS.iter().enumerate() {
                let (faults, system) = usage();
                let started = Instant::now();
                black_box(case.run(dop));
                let wall = started.elapsed();
                let (faults_after, system_after) = usage();
                let line = &mut spent[at];
                *line = (line.0 + wall, line.1 + faults_after - faults, line.2 + (system_after - system));
            }
        }
        println!("  {} ({} rows out, passes: {passes})", case.name, rows[0]);
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / f64::from(passes);
        for (&dop, &(wall, faults, system)) in DOPS.iter().zip(&spent) {
            let speed = spent[0].0.as_secs_f64() / wall.as_secs_f64();
            println!(
                "    dop {dop} {:>10.3} ms {:>9.1} faults {:>8.3} sys ms   {speed:.2}x dop 1's speed",
                ms(wall),
                faults as f64 / f64::from(passes),
                ms(system),
            );
        }
    }
}

/// Every row of `batches` as one dense batch.
fn one_batch(batches: &[RowBatch]) -> RowBatch {
    let rows = batches.iter().map(RowBatch::rows).sum();
    let mut all = RowBatch::with_capacity(batches[0].width(), rows);
    batches.iter().for_each(|batch| all.extend_from_live(batch, 0..batch.len()));
    all
}

fn main() {
    // `--quick` and, to run some of the splits only, their names.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted = |split: &str| args.iter().all(|a| a.starts_with("--")) || args.iter().any(|a| a == split);
    let catalog = star_catalog();
    let db = StoredDatabase::generate(&catalog, SEED);
    let table = |name: &str| db.table(catalog.relation_by_name(name).expect("relation exists").id);
    let (fact, dim) = (table("fact"), table("dim"));

    if wanted("page") {
        page_kernels(quick);
    }
    if wanted("probe") {
        probe_kernels(&catalog, &table_batches(dim), &table_batches(fact), if quick { 1 } else { 200 });
    }
    if wanted("statement") {
        statements(&catalog, if quick { 1 } else { 200 });
    }
    if wanted("spill") {
        spill_rows(&one_batch(&table_batches(fact)), if quick { 1 } else { 500 });
    }
    if wanted("select") {
        selected_rows(&table_batches(fact), if quick { 1 } else { 5_000 });
    }
    if wanted("sort") {
        let layout = TupleLayout::base(&catalog, fact.relation);
        sorted_rows(&one_batch(&table_batches(fact)), &layout, if quick { 1 } else { 2_000 });
    }
    if wanted("dop") {
        dop_runs(quick);
    }
}
