//! The work ledger: what an ad-hoc statement costs the front end and a
//! first visit, in counts that do not depend on the machine — heap
//! allocations, frees and the optimizer's own counters — for the
//! benchmark's `adhoc_optimize` texts (chains of 4, 6, 8 and 10
//! relations, one host-variable selection a relation and a bound literal
//! on `R1`); and what the benchmark's two stored databases take once
//! loaded — heap pages, disk pages, the allocations of the load and the
//! bytes it leaves live.
//!
//! Every line is pinned by equality, so a change that moves one shows the
//! line in its diff: paste the table the failing run prints back only if
//! the change is *meant* to move it, and name each moved line where the
//! change is described. Its own test binary, because it installs a
//! counting `#[global_allocator]`; run it in release, where the benchmark
//! measures (`cargo test -q --release --test work_ledger`).
//!
//! The counters are process-wide and the harness runs test functions on
//! parallel threads, so each test holds [`LEDGER`] while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use dqep::catalog::{make_chain_catalog, Catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
use dqep::cost::Environment;
use dqep::optimizer::{OptimizerStats, Optimizer};
use dqep::plan::evaluate_startup;
use dqep::service::{
    region_key, CachedDecision, PreparedStatement, QueryService, Request, ServiceConfig,
};
use dqep::sql::parse_query;
use dqep::storage::StoredDatabase;
use parking_lot::Mutex;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Held by the test that is counting.
static LEDGER: Mutex<()> = Mutex::new(());

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; obligations are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The table as recorded. A line reads `<chain>-chain <what> <count>`.
const RECORDED: &str = "\
4-chain parse_query allocations 10
6-chain parse_query allocations 14
8-chain parse_query allocations 16
10-chain parse_query allocations 20
4-chain first visit allocations 138
6-chain first visit allocations 161
8-chain first visit allocations 180
10-chain first visit allocations 202
4-chain evicted statement frees 16
6-chain evicted statement frees 18
8-chain evicted statement frees 20
10-chain evicted statement frees 22
4-chain core.groups (point) 14
4-chain core.logical_exprs (point) 28
4-chain core.physical_considered (point) 108
4-chain core.pruned_by_bound (point) 52
4-chain core.plan_nodes (point) 7
4-chain core.choose_plans (point) 0
4-chain core.groups (dynamic) 14
4-chain core.logical_exprs (dynamic) 28
4-chain core.physical_considered (dynamic) 108
4-chain core.pruned_by_bound (dynamic) 13
4-chain core.plan_nodes (dynamic) 112
4-chain core.choose_plans (dynamic) 20
6-chain core.groups (point) 27
6-chain core.logical_exprs (point) 82
6-chain core.physical_considered (point) 278
6-chain core.pruned_by_bound (point) 156
6-chain core.plan_nodes (point) 9
6-chain core.choose_plans (point) 0
6-chain core.groups (dynamic) 27
6-chain core.logical_exprs (dynamic) 82
6-chain core.physical_considered (dynamic) 278
6-chain core.pruned_by_bound (dynamic) 19
6-chain core.plan_nodes (dynamic) 299
6-chain core.choose_plans (dynamic) 47
8-chain core.groups (point) 44
8-chain core.logical_exprs (point) 184
8-chain core.physical_considered (point) 568
8-chain core.pruned_by_bound (point) 344
8-chain core.plan_nodes (point) 11
8-chain core.choose_plans (point) 0
8-chain core.groups (dynamic) 44
8-chain core.logical_exprs (dynamic) 184
8-chain core.physical_considered (dynamic) 568
8-chain core.pruned_by_bound (dynamic) 25
8-chain core.plan_nodes (dynamic) 618
8-chain core.choose_plans (dynamic) 86
10-chain core.groups (point) 65
10-chain core.logical_exprs (point) 350
10-chain core.physical_considered (point) 1010
10-chain core.pruned_by_bound (point) 661
10-chain core.plan_nodes (point) 13
10-chain core.choose_plans (point) 0
10-chain core.groups (dynamic) 65
10-chain core.logical_exprs (dynamic) 350
10-chain core.physical_considered (dynamic) 1010
10-chain core.pruned_by_bound (dynamic) 31
10-chain core.plan_nodes (dynamic) 1101
10-chain core.choose_plans (dynamic) 137
";

/// Chain lengths of the benchmark's ad-hoc statements.
const CHAINS: [usize; 4] = [4, 6, 8, 10];

/// The benchmark's ad-hoc text for a `k`-chain: joins `Ri.jr = Ri+1.jl`,
/// selections `Ri.a < :vi`, and `R1.jl >= literal`, which holds for every
/// row when `literal` is negative and makes the text new to the registry.
fn adhoc_text(k: usize, literal: i64) -> String {
    let from: Vec<String> = (1..=k).map(|i| format!("R{i}")).collect();
    let mut preds: Vec<String> = (1..k).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
    preds.extend((1..=k).map(|i| format!("R{i}.a < :v{i}")));
    preds.push(format!("R1.jl >= {literal}"));
    format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
}

/// Binds `:vi` to select about 8 % of `Ri` (the middle of the benchmark's
/// 2–15 % range).
fn adhoc_binds(catalog: &Catalog, k: usize) -> Vec<(String, i64)> {
    (0..k)
        .map(|i| {
            let domain = catalog.relations()[i].attributes[0].domain_size;
            (format!("v{}", i + 1), (0.08 * domain).round() as i64)
        })
        .collect()
}

fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn frees_of(f: impl FnOnce()) -> u64 {
    let before = FREES.load(Ordering::Relaxed);
    f();
    FREES.load(Ordering::Relaxed) - before
}

/// The fewest allocations `QueryService::execute` made over five
/// consecutive first visits of new `k`-chain texts, untraced at dop 1 on
/// a service whose 64-statement registry is full, so every visit evicts.
/// The fewest: a registry insert now and then also grows or rehashes the
/// registry's own map, which depends on the (randomly seeded) hashes of
/// the resident texts.
fn first_visit_allocations(service: &QueryService, k: usize, next_literal: &mut i64) -> u64 {
    let binds = adhoc_binds(service.catalog(), k);
    (0..5)
        .map(|_| {
            *next_literal -= 1;
            let request = Request {
                sql: adhoc_text(k, *next_literal),
                binds: binds.clone(),
                ..Request::default()
            };
            let (result, allocs) = allocs_of(|| service.execute(request));
            result.expect("a fault-free first visit");
            allocs
        })
        .min()
        .expect("five visits")
}

/// The blocks freed when the last reference to a `k`-chain statement
/// drops — what the registry's eviction frees: the statement as a first
/// visit enters it (its text, parsed query, run-time optimization's
/// plan and that one decision memoized).
fn evicted_statement_frees(catalog: &Catalog, env: &Environment, k: usize) -> u64 {
    let text = adhoc_text(k, -1);
    let query = parse_query(&text, catalog).expect("the ad-hoc text parses");
    let binds = adhoc_binds(catalog, k);
    let refs: Vec<(&str, i64)> = binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let bindings = query.bindings(&refs).expect("every variable bound");
    let memory_pages = env.memory.expected();
    let key = region_key(&query, catalog, &bindings, 0, memory_pages);
    let bound = env.bind(&bindings);
    let plan = Optimizer::new(catalog, &bound)
        .optimize_with_props(&query.expr, query.required_props())
        .expect("the ad-hoc text optimizes")
        .plan;
    let startup = evaluate_startup(&plan, catalog, env, &bindings);
    drop(plan);
    let decision = CachedDecision {
        resolved: startup.resolved,
        predicted_seconds: startup.predicted_run_seconds,
    };
    let stmt = Arc::new(PreparedStatement::new(text, query, Arc::clone(&decision.resolved)));
    stmt.store_decision(key, decision);
    frees_of(|| drop(stmt))
}

/// The optimizer's counters for a `k`-chain's first visit (point mode at
/// its binding) and second binding (the dynamic plan).
fn core_counters(catalog: &Catalog, env: &Environment, k: usize) -> [(&'static str, OptimizerStats); 2] {
    let query = parse_query(&adhoc_text(k, -1), catalog).expect("the ad-hoc text parses");
    let binds = adhoc_binds(catalog, k);
    let refs: Vec<(&str, i64)> = binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let bindings = query.bindings(&refs).expect("every variable bound");
    let stats = |env: &Environment| {
        Optimizer::new(catalog, env)
            .optimize_with_props(&query.expr, query.required_props())
            .expect("the ad-hoc text optimizes")
            .stats
    };
    [("point", stats(&env.bind(&bindings))), ("dynamic", stats(env))]
}

#[test]
fn the_ad_hoc_work_ledger_reads_as_recorded() {
    let _counting = LEDGER.lock();
    let catalog = make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994());
    let env = Environment::dynamic_compile_time(&catalog.config);
    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            workers: 1,
            registry_capacity: 64,
            data_seed: 1989,
            dop: 1,
            ..ServiceConfig::default()
        },
    );
    // Warm up: generate the replica and fill the registry.
    let mut literal = 0;
    for round in 0..20 {
        first_visit_allocations(&service, CHAINS[round % CHAINS.len()], &mut literal);
    }

    let mut table = String::new();
    for k in CHAINS {
        let text = adhoc_text(k, -1);
        let (query, allocs) = allocs_of(|| parse_query(&text, &catalog));
        query.expect("the ad-hoc text parses");
        writeln!(table, "{k}-chain parse_query allocations {allocs}").unwrap();
    }
    for k in CHAINS {
        let allocs = first_visit_allocations(&service, k, &mut literal);
        writeln!(table, "{k}-chain first visit allocations {allocs}").unwrap();
    }
    for k in CHAINS {
        let frees = evicted_statement_frees(&catalog, &env, k);
        writeln!(table, "{k}-chain evicted statement frees {frees}").unwrap();
    }
    for k in CHAINS {
        for (mode, s) in core_counters(&catalog, &env, k) {
            for (what, n) in [
                ("groups", s.groups),
                ("logical_exprs", s.logical_exprs),
                ("physical_considered", s.physical_considered),
                ("pruned_by_bound", s.pruned_by_bound),
                ("plan_nodes", s.plan_nodes),
                ("choose_plans", s.choose_plans),
            ] {
                writeln!(table, "{k}-chain core.{what} ({mode}) {n}").unwrap();
            }
        }
    }
    assert!(
        table == RECORDED,
        "the ledger moved; this run's table:\n{table}\nrecorded:\n{RECORDED}"
    );
}

/// The footprint as recorded. A line reads `<catalog> <what> <count>`.
const FOOTPRINT: &str = "\
chain heap pages 1648
chain disk pages 1820
chain load allocations 1826
chain live bytes 459920
star heap pages 2573
star disk pages 2760
star load allocations 1600
star live bytes 752332
";

/// The star catalog of the scan-heavy workloads: 12 000 `fact` and 6 000
/// `dim` rows of 256 bytes.
fn star_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", 12_000, 256, |r| r.attr("a", 12_000.0).attr("j", 6_000.0).btree("a", false))
        .relation("dim", 6_000, 256, |r| r.attr("a", 6_000.0).attr("j", 6_000.0).btree("j", false))
        .build()
        .expect("the star catalog is well-formed")
}

/// `StoredDatabase::generate` of the benchmark's chain catalog
/// (`paper(10, 7)`, data seed 1989) and star catalog (data seed 8): the
/// base tables' pages, every page on the disk (B-tree pages too), the
/// allocations the load makes and the bytes still live while the
/// database is held.
#[test]
fn the_storage_footprint_reads_as_recorded() {
    let _counting = LEDGER.lock();
    let chain = make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994());
    let mut table = String::new();
    for (name, catalog, seed) in [("chain", chain, 1989), ("star", star_catalog(), 8)] {
        // The fewest of three loads: the harness's own thread allocates
        // now and then while another test's result is reported.
        let (mut allocs, mut bytes) = (u64::MAX, i64::MAX);
        for _ in 0..3 {
            let live = LIVE.load(Ordering::Relaxed);
            let (db, n) = allocs_of(|| StoredDatabase::generate(&catalog, seed));
            (allocs, bytes) = (allocs.min(n), bytes.min(LIVE.load(Ordering::Relaxed) - live));
            drop(db);
        }
        let db = StoredDatabase::generate(&catalog, seed);
        let heap_pages: usize = db.tables().map(|t| t.heap.page_count()).sum();
        writeln!(table, "{name} heap pages {heap_pages}").unwrap();
        writeln!(table, "{name} disk pages {}", db.disk.page_count()).unwrap();
        writeln!(table, "{name} load allocations {allocs}").unwrap();
        writeln!(table, "{name} live bytes {bytes}").unwrap();
    }
    assert!(
        table == FOOTPRINT,
        "the footprint moved; this run's table:\n{table}\nrecorded:\n{FOOTPRINT}"
    );
}
