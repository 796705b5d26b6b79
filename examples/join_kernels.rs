//! What the per-row kernels under `exec_scale` and `shard_join` cost,
//! untraced.
//!
//! Three splits, each through public functions only, over tables of the
//! benchmark's `fact`/`dim` shape (12 000 and 6 000 records of 256 bytes,
//! seven to a page):
//!
//! 1. **A page**: ns a page of a request's worth of pages (108, the mean
//!    of `prepared_hot`), three ways: `SimDisk::read` and
//!    `decode_page_slots_into` page by page (a latch and a reference
//!    count a page — how the scans read until PR 23, kept here as a local
//!    loop), one `SimDisk::read_run` decoding each page where it lies (how
//!    they read now), and the decode alone over bytes already in hand
//!    (the floor: what no read path can go under). Each on pages of three
//!    512-byte and of seven 256-byte records, with the pages warm and
//!    after a 4 MiB sweep of the cache.
//! 2. **A probe row**: `join_batches` ns a probe row on an unpartitioned
//!    `dim ⋈ fact`, on the same rows pre-routed by `shard_route` for two
//!    and four shards, and — the control — on the same rows dealt into as
//!    many shares by a hash the join does not use. A route conditions the
//!    low bits of the join hash; a table that takes its buckets from those
//!    bits runs the routed rows on a half or a quarter of its buckets, and
//!    the routed line reads above the control. With buckets from the other
//!    end of the hash the two lines are equal.
//! 3. **A statement**: µs a call of the three `exec_scale` statements (the
//!    Grace join of 8 400 × 6 000 rows, the external sort of 8 400, the
//!    join filtered on both sides) through `QueryService`, in turns.
//!
//! It prints; it asserts nothing about time. Run pinned:
//! `taskset -c 1 cargo run --release --example join_kernels`
//! (`-- --quick` makes one pass of everything, the CI smoke run; `-- page`,
//! `-- probe`, `-- statement` run that split only).

use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::executor::{
    join_batches, mix, shard_route, ExecContext, RowBatch, SharedCounters,
    BATCH_CAPACITY,
};
use dqep::service::{QueryService, Request, ServiceConfig};
use dqep::storage::gen::decode_page_slots_into;
use dqep::storage::{PageRef, PageView, SlottedPage, StoredDatabase, StoredTable};

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

/// Split 1: the three ways over one request's worth of pages, in turns.
fn page_kernels(quick: bool) {
    const WAYS: [&str; 3] =
        ["read + decode, page by page", "one read_run + decode", "decode alone (resident bytes)"];
    const PAGES: usize = 108;
    // Rows that fill `PAGES` pages of each record length.
    let rows = |record_len: usize| (PAGES * SlottedPage::records_per_page(record_len)) as u64;
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("wide", rows(512), 512, |r| r.attr("a", 1000.0).attr("j", 1000.0))
        .relation("narrow", rows(256), 256, |r| r.attr("a", 1000.0).attr("j", 1000.0))
        .build()
        .expect("the catalog is well-formed");
    let db = StoredDatabase::generate(&catalog, SEED);
    let mut sweep = vec![0u8; 4 << 20];
    let mut decoded = 0usize;
    println!("a page ({PAGES} pages a pass; ns a page, warm / after a 4 MiB sweep)");
    for name in ["wide", "narrow"] {
        let table = db.table(catalog.relation_by_name(name).expect("relation exists").id);
        let (disk, ids) = (table.heap.disk(), table.heap.pages());
        assert_eq!(ids.len(), PAGES);
        let resident: Vec<PageRef> = ids.iter().map(|&pid| disk.read_unaccounted(pid)).collect();
        let mut cols: Vec<Vec<i64>> = (0..table.n_attrs).map(|_| Vec::with_capacity(BATCH_CAPACITY)).collect();
        let mut spent = [[Duration::ZERO; WAYS.len()]; 2];
        let passes = [if quick { 1 } else { 20_000 }, if quick { 1 } else { 1_000 }];
        for (swept, spent) in spent.iter_mut().enumerate() {
            for _ in 0..passes[swept] {
                for (way, spent) in spent.iter_mut().enumerate() {
                    if swept == 1 {
                        sweep.chunks_mut(64).for_each(|line| line[0] = line[0].wrapping_add(1));
                    }
                    // As a scan does: a batch's columns, filled from empty.
                    cols.iter_mut().for_each(Vec::clear);
                    let started = Instant::now();
                    match way {
                        0 => {
                            for &pid in ids {
                                let page = SlottedPage::from_bytes(disk.read(pid).expect("fault-free read"));
                                decoded += decode_page_slots_into(&page, 0, usize::MAX, &mut cols).0;
                            }
                        }
                        1 => disk
                            .read_run(ids.iter().copied(), |page| {
                                let page = PageView::from_bytes(&**page);
                                decoded += decode_page_slots_into(&page, 0, usize::MAX, &mut cols).0;
                                ControlFlow::Continue(())
                            })
                            .expect("fault-free run"),
                        _ => {
                            for page in &resident {
                                let page = PageView::from_bytes(&**page);
                                decoded += decode_page_slots_into(&page, 0, usize::MAX, &mut cols).0;
                            }
                        }
                    }
                    *spent += started.elapsed();
                }
            }
        }
        println!("  {} {}-byte records a page", SlottedPage::records_per_page(table.record_len), table.record_len);
        for (way, name) in WAYS.iter().enumerate() {
            let ns = |swept: usize| ns_per(spent[swept][way], PAGES * passes[swept]);
            println!("    {name:<32} {:>8.1} / {:>8.1}", ns(0), ns(1));
        }
    }
    black_box((decoded, sweep));
}

/// Every row of `table` as dense batches of the scan's size.
fn table_batches(table: &StoredTable) -> Vec<RowBatch> {
    let mut out = vec![RowBatch::new(table.n_attrs)];
    for &pid in table.heap.pages() {
        let page = SlottedPage::from_bytes(table.heap.disk().read(pid).expect("fault-free read"));
        if out.last().expect("never empty").rows() >= BATCH_CAPACITY {
            out.push(RowBatch::new(table.n_attrs));
        }
        let batch = out.last_mut().expect("never empty");
        batch.extend_with(|cols| decode_page_slots_into(&page, 0, usize::MAX, cols).0);
    }
    out
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

/// One share of the build side with the same share of the probe side.
type Shares = (Vec<RowBatch>, Vec<RowBatch>);

/// Split 2: `dim ⋈ fact` on `j` (column 1 of both), whole and in shares.
fn probe_kernels(dim: &[RowBatch], fact: &[RowBatch], passes: usize) {
    const KEY: usize = 1;
    let probe_rows: usize = fact.iter().map(RowBatch::rows).sum();
    let ctx = ExecContext::new(SharedCounters::new());
    // The inputs of each line: (build share, probe share) pairs.
    let mut lines: Vec<(String, Vec<Shares>)> =
        vec![("unpartitioned".into(), vec![(dim.to_vec(), fact.to_vec())])];
    for shards in [2usize, 4] {
        let routed = |batch: &RowBatch, dests: &mut Vec<u32>| {
            shard_route(batch, &[KEY], shards, &mut Vec::new(), dests);
        };
        let dealt = |batch: &RowBatch, dests: &mut Vec<u32>| {
            dests.clear();
            dests.extend(batch.column(KEY).iter().map(|&k| (mix(!(k as u64)) % shards as u64) as u32));
        };
        let pair = |b: Vec<Vec<RowBatch>>, p: Vec<Vec<RowBatch>>| b.into_iter().zip(p).collect();
        lines.push((
            format!("routed by shard_route, {shards} shards"),
            pair(split(dim, shards, routed), split(fact, shards, routed)),
        ));
        lines.push((
            format!("dealt by another hash, {shards} shares"),
            pair(split(dim, shards, dealt), split(fact, shards, dealt)),
        ));
    }
    let mut spent = vec![Duration::ZERO; lines.len()];
    let mut joined = vec![0usize; lines.len()];
    for _ in 0..passes {
        for (at, (_, shares)) in lines.iter().enumerate() {
            let started = Instant::now();
            for (build, probe) in shares {
                let out = join_batches((build, 2), (probe, 2), &[(KEY, KEY)], &ctx).expect("ungoverned join");
                joined[at] += black_box(out).rows();
            }
            spent[at] += started.elapsed();
        }
    }
    assert!(joined.iter().all(|&rows| rows == joined[0]), "every line joins the same rows: {joined:?}");
    println!("\na probe row (join_batches, {} x {probe_rows} rows, {} rows out, passes: {passes})",
        dim.iter().map(RowBatch::rows).sum::<usize>(), joined[0] / passes);
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
        probe_kernels(&table_batches(dim), &table_batches(fact), if quick { 1 } else { 200 });
    }
    if wanted("statement") {
        statements(&catalog, if quick { 1 } else { 200 });
    }
}
