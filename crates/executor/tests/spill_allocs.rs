//! Allocation ceiling of the two spilling operators. Its own test binary,
//! because it installs a counting `#[global_allocator]`.
//!
//! A Grace join and an external sort write every row to a spill file and
//! read it back. A spill file keeps its rows as columns and builds no page
//! bytes, so a page written costs no allocation: what is left is per
//! partition (its writer's columns, grown as batches are dealt to it and
//! trimmed to its rows when it is sealed, then moved to the reader: the
//! pair's table), per run (its columns, grown once and moved to the
//! merge), per sort (the run sort's two radix buffers, reused by every
//! run), and per batch (the scans feeding the operator, the output
//! slices). Nothing may grow with the data page by page or row by row:
//! not the scan (a page decodes from the disk's buffer straight into the
//! batch), not the partitioning or run formation, not the read-back (the
//! file's columns are handed over whole, nothing copied), not the merge
//! (a tournament tree, a slice's merged order, a gather per column into
//! each output batch).
//!
//! The ceilings are constants. The page-buffer format this replaced spent
//! one 2 KiB buffer per page written and could not fit: this test, run on
//! the commit before, counted 2 535 allocations for the join's 2 059 pages
//! written and 1 483 for the sort's 1 210 (its ceiling then was `1.25 ×
//! pages written + 400`: 2 973 and 1 912). The row path before that:
//! 9 913 and 22 860.
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dqep_algebra::{CompareOp, JoinPred, PhysicalOp, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_cost::{Bindings, Cost, PlanStats};
use dqep_executor::{compile_plan, drain_root, ExecContext, RootSink, SharedCounters};
use dqep_interval::Interval;
use dqep_plan::{NodeId, Plan};
use dqep_storage::StoredDatabase;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; obligations are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The benchmark's `exec_scale` shape: 12 000 and 6 000 rows of 256
/// bytes, seven to a page.
fn star_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", 12_000, 256, |r| {
            r.attr("a", 12_000.0).attr("j", 6_000.0).btree("a", false)
        })
        .relation("dim", 6_000, 256, |r| r.attr("a", 6_000.0).attr("j", 6_000.0).btree("j", false))
        .build()
        .expect("valid catalog")
}

/// The 64-page grant.
const GRANT_BYTES: usize = 64 * 2048;

fn node(p: &mut Plan, op: PhysicalOp, children: &[NodeId]) -> NodeId {
    join_node(p, op, children, &[])
}

/// [`node`] for a join on `preds`.
fn join_node(p: &mut Plan, op: PhysicalOp, children: &[NodeId], preds: &[JoinPred]) -> NodeId {
    p.push(op, children, preds, PlanStats::new(Interval::point(0.0), 256.0), Cost::ZERO)
}

/// Runs the subplan at `root` once to warm lazily initialized state, then
/// once more counting: (allocations, rows, pages written).
fn measure(plans: &Plan, root: NodeId, db: &StoredDatabase, catalog: &Catalog) -> (u64, u64, u64) {
    let plan = &plans.rooted_at(root);
    let mut measured = (0, 0, 0);
    for _ in 0..2 {
        db.disk.reset_stats();
        let before = ALLOCS.load(Ordering::Relaxed);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            compile_plan(plan, db, catalog, &Bindings::new(), GRANT_BYTES, &ctx).expect("compiles");
        let rows = drain_root(op.as_mut(), None, RootSink::Discard).expect("runs");
        drop(op);
        measured = (ALLOCS.load(Ordering::Relaxed) - before, rows, db.disk.stats().writes);
    }
    measured
}

/// The most allocations a Grace join of these inputs may make: 635 when
/// this was set; 638 since a pair's partitions are moved into its table,
/// its match pairs gathered a slice at a time, and a dealt batch's rows
/// grouped by partition before they are written (three vectors a
/// batch).
const JOIN_CEILING: u64 = 700;

/// The most allocations the 17-run sort may make: 321 when this was set;
/// 305 with the radix run sort and the tournament merge (323 on the
/// commit before, which allocated an entry vector a run and a heap); 277
/// since the runs' columns are moved into the merge and each output batch
/// is gathered straight from them.
const SORT_CEILING: u64 = 400;

#[test]
fn spilling_operators_allocate_per_partition_run_and_batch_not_per_page_or_row() {
    let catalog = star_catalog();
    let db = StoredDatabase::generate(&catalog, 7);
    let fact = catalog.relation_by_name("fact").expect("fact");
    let dim = catalog.relation_by_name("dim").expect("dim");
    let mut b = Plan::new();
    let scan_fact = node(&mut b, PhysicalOp::FileScan { relation: fact.id }, &[]);
    let scan_dim = node(&mut b, PhysicalOp::FileScan { relation: dim.id }, &[]);
    let predicate = SelectPred::bound(fact.attr_id("a").expect("a"), CompareOp::Lt, 8_400);
    let fact_lt = node(&mut b, PhysicalOp::Filter { predicate }, &[scan_fact]);

    // 6 000 build rows ⋈ 8 400 probe rows: twelve times the grant, so
    // both sides are partitioned to disk.
    let on_j = JoinPred::new(dim.attr_id("j").expect("j"), fact.attr_id("j").expect("j"));
    let join = join_node(&mut b, PhysicalOp::HashJoin, &[scan_dim, fact_lt], &[on_j]);
    let (allocs, rows, written) = measure(&b, join, &db, &catalog);
    assert!(rows >= 8_000, "a join large enough to tell: {rows} rows");
    assert!(written >= 2_000, "both sides spill: {written} pages written");
    assert!(
        allocs <= JOIN_CEILING,
        "Grace join: {allocs} allocations for {written} pages written (ceiling \
         {JOIN_CEILING}): something allocates per row or per page again"
    );

    // 8 400 rows under a 512-row grant: 17 runs.
    let sort = node(&mut b, PhysicalOp::Sort { attr: fact.attr_id("j").expect("j") }, &[fact_lt]);
    let (allocs, rows, written) = measure(&b, sort, &db, &catalog);
    assert!((8_000..9_000).contains(&rows), "{rows} rows");
    assert!(written >= 1_200, "17 runs: {written} pages written");
    assert!(
        allocs <= SORT_CEILING,
        "external sort: {allocs} allocations for {written} pages written (ceiling \
         {SORT_CEILING}): something allocates per row or per page again"
    );
}
