//! Allocation ceiling of dynamic-plan optimization and the start-up
//! decision. Its own test binary, because it installs a counting
//! `#[global_allocator]`.
//!
//! A run allocates a fixed number of tables — the memo's groups,
//! expressions and predicates, the search's frontiers, one plan table (a
//! node list, a child-id list and a join-predicate list) — each reserved
//! from the query's size or grown by doubling, so a table costs one or a
//! few allocations whatever its size. The start-up decision allocates its
//! estimates table, its decision list and the resolved table. What a run
//! must not allocate is anything per memo entry, per candidate
//! *considered* or per node *kept*. The history of the 10-relation chain
//! below (1 101 plan nodes): 9 270 allocations (optimize 8 222 + start-up
//! 1 048) before the dense table, 6 459 in point mode for a 12-node plan —
//! predicate lists, child lists and whole nodes built for candidates the
//! bound then rejected, a list per `connected()` probe, SipHash tables
//! rehashed as they grew; 3 561 (3 512 + 49) and 1 222 with heap nodes
//! (`Arc`, child list, predicate list); 1 364 (1 347 + 17) and 592 on the
//! one table while every join node still owned its predicate list; 543
//! (533 + 10) and 434 with the predicates in the table and the arena
//! reserved once, while every memo group owned a list of expressions and a
//! list of frontiers, and every frontier a list of plans. Measured now, the
//! memo and the frontiers laid out as a few lists: 70 (60 + 10) and 70 —
//! the ceiling below is that count plus a quarter, a constant, and the
//! 4-relation chain's count (53) is within a factor of 1.5 of the
//! 10-relation chain's although its memo is a twelfth the size.
//!
//! One test function: the counters are process-wide, and the harness runs
//! test functions on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::{LogicalMExpr, Optimizer};
use dqep_cost::{Bindings, Environment};
use dqep_plan::{evaluate_startup_observed, Observations, PlanNode};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

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
        FREES.fetch_add(1, Ordering::Relaxed);
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

/// Most allocations optimize + start-up of [`adhoc_chain`]`(10)` may make
/// under `dynamic_compile_time`, and optimize alone in point mode: 70 each
/// measured, plus a quarter.
const CEILING: u64 = 88;

/// The benchmark's ad-hoc statement shape: `σ(R1) ⋈ … ⋈ σ(Rk)`, one
/// host-variable selection per relation and a second, bound one on R1.
fn adhoc_chain(catalog: &Catalog, k: usize) -> LogicalExpr {
    let rels = catalog.relations();
    let selected = |i: usize| {
        let attr = rels[i].attr_id(SELECTION_ATTR).unwrap();
        LogicalExpr::get(rels[i].id).select(SelectPred::unbound(
            attr,
            CompareOp::Lt,
            HostVar(i as u32),
        ))
    };
    let a0 = rels[0].attr_id(SELECTION_ATTR).unwrap();
    let mut query = selected(0).select(SelectPred::bound(a0, CompareOp::Gt, -17));
    for i in 1..k {
        let left = rels[i - 1].attr_id(JOIN_RIGHT_ATTR).unwrap();
        let right = rels[i].attr_id(JOIN_LEFT_ATTR).unwrap();
        query = query.join(selected(i), vec![JoinPred::new(left, right)]);
    }
    query
}

fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn assert_copy<T: Copy>() {}

/// Optimize + start-up of [`adhoc_chain`]`(k)` under
/// `dynamic_compile_time`: the optimizer's result and the allocations.
fn dynamic_run(catalog: &Catalog, k: usize) -> (dqep_core::OptimizeResult, u64) {
    let query = adhoc_chain(catalog, k);
    let mut bindings = Bindings::new();
    for i in 0..k as u32 {
        bindings = bindings.with_value(HostVar(i), 40 + 7 * i64::from(i));
    }
    let observations = Observations::new();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let (result, optimize) = allocs_of(|| Optimizer::new(catalog, &env).optimize(&query).unwrap());
    let (startup, decide) = allocs_of(|| {
        evaluate_startup_observed(&result.plan, catalog, &env, &bindings, &observations)
    });
    assert_eq!(startup.evaluated_nodes, result.stats.plan_nodes);
    (result, optimize + decide)
}

#[test]
fn optimize_and_startup_allocate_a_constant_not_per_memo_entry_plan_node_or_candidate() {
    // A plan node owns no heap memory: copying one is a `memcpy`, and it
    // fits in 160 bytes. Nor does a memo expression (nor a memo group:
    // `memo.rs`'s own tests).
    assert_copy::<PhysicalOp>();
    assert_copy::<PlanNode>();
    assert_copy::<LogicalMExpr>();
    let node = std::mem::size_of::<PlanNode>();
    assert!(node <= 160, "a plan node is {node} bytes");

    let cat = make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994());

    // Dynamic-plan optimization and the start-up decision over its plan.
    let (result, total) = dynamic_run(&cat, 10);
    let stats = result.stats;
    assert_eq!(stats.plan_nodes, 1_101);
    assert!(
        total <= CEILING,
        "{total} allocations (optimize + start-up) for {} groups and {} expressions ({} plan \
         nodes); ceiling {CEILING}",
        stats.groups,
        stats.logical_exprs,
        stats.plan_nodes
    );

    // The memo is not in the count: the 4-relation chain's memo is a
    // twelfth of the 10-relation chain's, its plan a tenth, and its count
    // is not two thirds lower.
    let (small, small_total) = dynamic_run(&cat, 4);
    assert!(12 * small.stats.logical_exprs <= stats.logical_exprs);
    assert!(
        2 * total <= 3 * small_total,
        "{total} allocations for {} groups, {} for {}: the memo's size is in the count",
        stats.groups,
        small_total,
        small.stats.groups
    );

    // Dropping the plan — what evicting its statement from the registry
    // does — frees the table's three lists and its `Arc`, not a list per
    // join node.
    let before = FREES.load(Ordering::Relaxed);
    drop(result);
    let freed = FREES.load(Ordering::Relaxed) - before;
    assert!(freed <= 4, "dropping a {}-node plan freed {freed} buffers", stats.plan_nodes);

    // A candidate allocates nothing, whether the bound rejects it or the
    // frontier keeps it. Point mode is where the bound bites — 658 of this
    // query's 1 010 candidates — and where the plan is 12 nodes: the same
    // memo, the same ceiling; one allocation per rejected candidate or per
    // candidate that passed would not fit.
    let query = adhoc_chain(&cat, 10);
    let point = Environment::static_compile_time(&cat.config);
    let (result, optimize) = allocs_of(|| Optimizer::new(&cat, &point).optimize(&query).unwrap());
    let stats = result.stats;
    let passed = (stats.physical_considered - stats.pruned_by_bound) as u64;
    assert!(
        stats.pruned_by_bound as u64 > passed,
        "the bound must reject most candidates for this to tell: {stats:?}"
    );
    assert!(
        passed.min(stats.pruned_by_bound as u64) > CEILING,
        "a candidate's allocation must not fit under the ceiling: {stats:?}"
    );
    assert!(
        optimize <= CEILING,
        "{optimize} allocations in point mode for {passed} candidates past the bound and {} \
         rejected by it; ceiling {CEILING}",
        stats.pruned_by_bound
    );
}
