//! Allocation ceiling of dynamic-plan optimization and the start-up
//! decision. Its own test binary, because it installs a counting
//! `#[global_allocator]`.
//!
//! What a run must allocate is its product: a plan is one table — a node
//! list and a child-id list, grown by doubling — plus a predicate list per
//! join node, so optimization may allocate about one allocation per join
//! node it *builds*, plus tables sized once per run; the start-up decision
//! allocates its estimates table, its decision list and the resolved plan.
//! What it must not allocate is anything per candidate *considered*, or
//! per node *kept*: before the dense-table rewrite the 10-relation chain
//! below cost 9 270 allocations (optimize 8 222 + start-up 1 048) for a
//! 1 101-node plan, and 6 459 in point mode for a 12-node plan — predicate
//! lists, child lists and whole nodes built for candidates the bound then
//! rejected, a list per `connected()` probe, and SipHash tables rehashed
//! as they grew; with heap nodes (`Arc`, child list, predicate list) it was
//! 3 561 (3 512 + 49) and 1 222. Measured now, on the one table: 1 364
//! (1 347 + 17) and 592.
//!
//! One test function: the counter is process-wide, and the harness runs
//! test functions on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{evaluate_startup_observed, Observations};

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

/// Allocations of optimize + start-up for [`adhoc_chain`]`(10)` at the
/// commit before the rewrite.
const PARENT_ALLOCS: u64 = 9_270;

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

#[test]
fn optimize_and_startup_allocate_per_plan_node_kept_not_per_candidate() {
    let cat = make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994());
    let query = adhoc_chain(&cat, 10);
    let mut bindings = Bindings::new();
    for i in 0..10 {
        bindings = bindings.with_value(HostVar(i), 40 + 7 * i64::from(i));
    }
    let observations = Observations::new();

    // Dynamic-plan optimization and the start-up decision over its plan.
    let env = Environment::dynamic_compile_time(&cat.config);
    let (result, optimize) = allocs_of(|| Optimizer::new(&cat, &env).optimize(&query).unwrap());
    let (startup, decide) =
        allocs_of(|| evaluate_startup_observed(&result.plan, &cat, &env, &bindings, &observations));
    let plan_nodes = result.stats.plan_nodes as u64;
    assert_eq!(plan_nodes, 1_101);
    assert_eq!(startup.evaluated_nodes as u64, plan_nodes);

    let ceiling = 2 * plan_nodes + 128;
    assert!(
        ceiling <= PARENT_ALLOCS / 2,
        "the ceiling must at least halve the parent's count"
    );
    let total = optimize + decide;
    assert!(
        total <= ceiling,
        "{total} allocations (optimize {optimize} + start-up {decide}) for {plan_nodes} plan \
         nodes; ceiling {ceiling} = 2 x plan_nodes + 128"
    );

    // A candidate rejected by the bound allocates nothing. Point mode is
    // where the bound bites — 658 of this query's 1 010 candidates — so
    // the run may allocate for the candidates that *passed* it (a
    // predicate list each, and their share of the table's growth) and a
    // fixed amount besides; one allocation per rejected candidate would
    // not fit.
    let point = Environment::static_compile_time(&cat.config);
    let (result, optimize) = allocs_of(|| Optimizer::new(&cat, &point).optimize(&query).unwrap());
    let stats = result.stats;
    let passed = (stats.physical_considered - stats.pruned_by_bound) as u64;
    assert!(
        stats.pruned_by_bound as u64 > passed,
        "the bound must reject most candidates for this to tell: {stats:?}"
    );
    let ceiling = 2 * passed + 128;
    assert!(
        optimize <= ceiling,
        "{optimize} allocations in point mode for {passed} candidates past the bound and {} \
         rejected by it; ceiling {ceiling} = 2 x passed + 128",
        stats.pruned_by_bound
    );
}
