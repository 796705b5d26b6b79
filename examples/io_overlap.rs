//! I/O overlap on a sleeping disk, not CPU speed.
//!
//! Every accounted page read or write here sleeps `LATENCY_US`
//! microseconds (`SimDisk::set_io_latency_micros`), so a query's wall time
//! is mostly waiting, and what four-way concurrency buys is waits that
//! overlap — on one core as on many. Three rows, each the same work at 4
//! against 1:
//! - `dop 4`: a hash join of 4 000 × 500 rows whose scans fan out into
//!   morsel workers (`ExecContext::with_dop`), each on a thread of its
//!   own because the disk is paced — the join itself runs the same code
//!   at every dop, so only the scans overlap;
//! - `4 shards`: a full scan of 4 000 rows gathered from the shards of a
//!   `ShardedService`, each reading a quarter of the pages;
//! - `4 service workers`: a batch of prepared four-relation chain
//!   statements over `QueryService::run_batch`.
//!
//! The two sides of a row take turns, a pass each, so a host that changes
//! speed changes it for both. Simulated costs are equal at every degree of
//! concurrency (`tests/parallel_parity.rs`, `tests/shard_parity.rs`,
//! `tests/service.rs`); this program measures only the wall clock that
//! remains, and exits 1 when a row overlaps less than 2 ×. On an unpaced
//! disk the first two rows would start no thread: the executor and the
//! sharded driver run their parallel work on the calling thread there
//! (`run_parallel`).
//!
//! `cargo run --release --example io_overlap` (`-- --quick`: 3 passes
//! instead of 10, what CI runs).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqep::algebra::{JoinPred, PhysicalOp};
use dqep::catalog::{make_chain_catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{run, ExecContext, RootSink, SharedCounters};
use dqep::interval::Interval;
use dqep::plan::Plan;
use dqep::service::{QueryService, Request, ServiceConfig, ShardConfig, ShardedService};
use dqep::storage::StoredDatabase;

const LATENCY_US: u64 = 20;
const SEED: u64 = 7;
const ROWS: u64 = 4_000;
const REQUIRED: f64 = 2.0;

/// Times `passes` calls of `go(1)` and of `go(4)`, taking turns after one
/// untimed call of each, prints the row and says whether it overlapped at
/// least `REQUIRED` times.
fn overlap(name: &str, passes: u32, go: impl Fn(usize)) -> bool {
    go(1);
    go(4);
    let mut spent = [Duration::ZERO; 2];
    for _ in 0..passes {
        for (side, n) in [1, 4].into_iter().enumerate() {
            let started = Instant::now();
            go(n);
            spent[side] += started.elapsed();
        }
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / f64::from(passes);
    let speedup = spent[0].as_secs_f64() / spent[1].as_secs_f64();
    println!("{name:<18} {:>10.2} {:>10.2} {:>7.2}x", ms(spent[0]), ms(spent[1]), speedup);
    speedup >= REQUIRED
}

/// `dim ⋈ fact` on `dim.k = fact.fk`, built by hand so the plan is the
/// same at every dop: a resident hash join over two file scans.
fn hash_join() -> impl Fn(usize) {
    let build_rows = ROWS / 8;
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("dim", build_rows, 256, |r| r.attr("k", build_rows as f64).attr("v", 64.0))
        .relation("fact", ROWS, 256, |r| r.attr("fk", build_rows as f64).attr("m", 64.0))
        .build()
        .expect("catalog");
    let db = StoredDatabase::generate(&catalog, SEED);
    db.disk.set_io_latency_micros(LATENCY_US);
    let (dim, fact) = (&catalog.relations()[0], &catalog.relations()[1]);
    let stats = |rows: u64| PlanStats::new(Interval::point(rows as f64), 512.0);
    let (dim_scan, fact_scan) =
        (PhysicalOp::FileScan { relation: dim.id }, PhysicalOp::FileScan { relation: fact.id });
    let mut plan = Plan::new();
    let build = plan.push(dim_scan, &[], &[], stats(build_rows), Cost::ZERO);
    let probe = plan.push(fact_scan, &[], &[], stats(ROWS), Cost::ZERO);
    let pred = JoinPred::new(dim.attr_id("k").expect("attr"), fact.attr_id("fk").expect("attr"));
    let root = plan.push(PhysicalOp::HashJoin, &[build, probe], &[pred], stats(ROWS), Cost::ZERO);
    let plan = Arc::new(plan.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    // A grant the build side fits: the join never spills.
    let bindings = Bindings::new().with_memory(1024.0);
    move |dop| {
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard).expect("join runs");
    }
}

/// `SELECT * FROM big WHERE big.a < :v0` bound past the domain: every row,
/// each shard scanning its own stripe.
fn sharded_scan() -> impl Fn(usize) {
    let service = |shards| {
        let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("big", ROWS, 256, |r| {
                r.attr("a", ROWS as f64).attr("b", 64.0).btree("a", false)
            })
            .build()
            .expect("catalog");
        let config = ShardConfig {
            shards,
            io_latency_micros: LATENCY_US,
            data_seed: SEED,
            ..ShardConfig::default()
        };
        ShardedService::new(catalog, config)
    };
    let (one, four) = (service(1), service(4));
    move |shards| {
        let service = if shards == 1 { &one } else { &four };
        let every_row = [("v0", ROWS as i64 + 1)];
        service.execute("SELECT * FROM big WHERE big.a < :v0", &every_row).expect("scan runs");
    }
}

/// Sixteen sessions of the paper's query 3 (a four-relation chain), one
/// prepared statement bound to a few mid-range selectivities.
fn service_batch() -> impl Fn(usize) {
    let relations = 4;
    let service = |workers| {
        let spec = SyntheticSpec::paper(relations, SEED);
        let config = ServiceConfig {
            workers,
            io_latency_micros: LATENCY_US,
            data_seed: SEED,
            ..ServiceConfig::default()
        };
        QueryService::new(make_chain_catalog(&spec, SystemConfig::paper_1994()), config)
    };
    let from: Vec<String> = (1..=relations).map(|i| format!("R{i}")).collect();
    let mut preds: Vec<String> =
        (1..relations).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
    preds.extend((1..=relations).map(|i| format!("R{i}.a < :v{i}")));
    let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
    let requests: Vec<Request> = (0..16)
        .map(|s| {
            let value = 420 + 10 * (s % 4);
            let binds = (1..=relations).map(|v| (format!("v{v}"), value + v as i64)).collect();
            Request { sql: sql.clone(), binds, ..Request::default() }
        })
        .collect();
    let (one, four) = (service(1), service(4));
    move |workers| {
        let service = if workers == 1 { &one } else { &four };
        for answer in service.run_batch(requests.clone()) {
            answer.expect("session runs");
        }
    }
}

fn main() -> ExitCode {
    let passes = if std::env::args().any(|a| a == "--quick") { 3 } else { 10 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "I/O overlap on a sleeping disk, not CPU speed: {LATENCY_US} us a page, \
         {passes} passes, {cores} cores\n"
    );
    println!("{:<18} {:>10} {:>10} {:>8}", "at 4 against 1", "1 (ms)", "4 (ms)", "speedup");
    let overlapped = [
        overlap("dop 4", passes, hash_join()),
        overlap("4 shards", passes, sharded_scan()),
        overlap("4 service workers", passes, service_batch()),
    ];
    if overlapped.contains(&false) {
        eprintln!("a row overlapped less than {REQUIRED}x");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
