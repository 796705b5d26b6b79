//! Allocation ceiling of the two spilling operators. Its own test binary,
//! because it installs a counting `#[global_allocator]`.
//!
//! A Grace join and an external sort write every row to a spill page and
//! read it back. A page that is written needs a buffer — that is the
//! floor, one allocation per page *written*. Nothing else may grow with
//! the data page by page or row by row: not the scan feeding the operator
//! (a page decodes from the disk's buffer straight into the batch), not
//! the partitioning or run formation (a row goes from its columns into
//! the page its writer owns), not the read-back (a page decodes straight
//! into columns), not the merge (an argsort, a heap, a gather per
//! column). What is left besides the pages is per batch, per partition
//! and per run — a few hundred allocations for these inputs.
//!
//! The row-at-a-time paths this replaced cannot fit: a record list per
//! scanned page, a tuple per sorted row on the way in and again on the
//! way back, two page buffers per page written. This test, run on the
//! commit before: 9 913 allocations for the join's 2 059 pages (ceiling
//! 2 973) and 22 860 for the sort's 1 210 (ceiling 1 912) — against 2 649
//! and 1 495 when the ceiling was set.

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
        .relation("fact", 12_000, 256, |r| r.attr("a", 12_000.0).attr("j", 6_000.0).btree("a", false))
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
        let mut op = compile_plan(plan, db, catalog, &Bindings::new(), GRANT_BYTES, &ctx)
            .expect("compiles");
        let rows = drain_root(op.as_mut(), None, RootSink::Discard).expect("runs");
        drop(op);
        measured = (ALLOCS.load(Ordering::Relaxed) - before, rows, db.disk.stats().writes);
    }
    measured
}

/// One buffer per page written, a quarter as much again for vectors that
/// grow geometrically with the rows those pages hold, and a fixed
/// allowance for everything that is per batch, per partition or per run
/// (590 for the join and 285 for the sort when this was set). Linear in
/// pages written and in nothing else: the 2 573 pages the join's inputs
/// scan, let alone its 14 400 rows, do not fit under it even once.
fn ceiling(pages_written: u64) -> u64 {
    pages_written + pages_written / 4 + 400
}

#[test]
fn spilling_operators_allocate_per_page_written_and_not_per_row_or_page_scanned() {
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
        allocs <= ceiling(written),
        "Grace join: {allocs} allocations for {written} pages written \
         (ceiling {}): something allocates per row or per scanned page again",
        ceiling(written)
    );

    // 8 400 rows under a 512-row grant: 17 runs.
    let sort = node(
        &mut b,
        PhysicalOp::Sort { attr: fact.attr_id("j").expect("j") },
        &[fact_lt],
    );
    let (allocs, rows, written) = measure(&b, sort, &db, &catalog);
    assert!((8_000..9_000).contains(&rows), "{rows} rows");
    assert!(written >= 1_200, "17 runs: {written} pages written");
    assert!(
        allocs <= ceiling(written),
        "external sort: {allocs} allocations for {written} pages written \
         (ceiling {}): something allocates per row or per scanned page again",
        ceiling(written)
    );
}
