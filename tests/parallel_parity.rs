//! Parallel/serial execution parity: the exchange-parallel pipeline must
//! be observationally equivalent to serial execution at every DOP.
//!
//! "Equivalent" here means: the same result tuples as a *multiset*
//! (exchange concatenates worker outputs, so inter-worker order is one
//! thing parallelism may change), the same CPU counter totals (records,
//! compares, hashes — parallel operators hash each row exactly once and
//! charge sort compares by the same formula), the same *total* accounted
//! I/O and the same write count (interleaved morsel workers can break
//! the disk's sequential-run detection, so the seq/random split of reads
//! may shift — pages touched may not), the same number of choose-plan
//! fallbacks under injected page faults and refused memory grants, and
//! no leaked governor reservations. Faults are injected by *page
//! identity* (`FaultPlan::page_range`), which is deterministic under any
//! read interleaving; read-ordinal faults are only meaningful at DOP 1
//! and stay in `batch_parity.rs`.
//!
//! DOP-versus-DOP alone would be the engine checked against itself: the
//! random-workload properties also compare every DOP against the
//! independent nested-loop evaluator in `common/oracle.rs`.


use dqep::algebra::{CompareOp, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    compile_dynamic_plan, drain, run, ExecContext, ExecError, ExecSummary, ResourceLimits,
    RootSink, SharedCounters, Tuple,
};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{NodeId, Plan};
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

#[path = "common/oracle.rs"]
mod oracle;
#[path = "common/workload.rs"]
#[allow(dead_code)]
mod workload;

use workload::{build, classify, sorted, workload_strategy, Shape};

/// Asserts a parallel summary agrees with the serial baseline on
/// everything DOP parity promises.
fn assert_summaries_equal(serial: &ExecSummary, parallel: &ExecSummary, what: &str) {
    assert_eq!(serial.rows, parallel.rows, "{what}: result row counts diverged");
    assert_eq!(serial.fallbacks, parallel.fallbacks, "{what}: fallback counts diverged");
    assert_eq!(serial.cpu, parallel.cpu, "{what}: CPU counter totals diverged");
    assert_eq!(
        serial.io.total(),
        parallel.io.total(),
        "{what}: total accounted I/O diverged (serial={:?} parallel={:?})",
        serial.io,
        parallel.io
    );
    assert_eq!(serial.io.writes, parallel.io.writes, "{what}: accounted writes diverged");
}

fn node(b: &mut Plan, op: PhysicalOp, children: &[NodeId]) -> NodeId {
    b.push(
        op,
        children,
        &[],
        PlanStats::new(Interval::point(0.0), 512.0),
        Cost::ZERO,
    )
}

/// [`run`] at `dop` under `limits`, rows discarded.
fn run_at(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    limits: ResourceLimits,
    dop: usize,
) -> Result<ExecSummary, ExecError> {
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_dop(dop);
    run(plan, db, catalog, env, bindings, &ctx, RootSink::Discard)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random optimized plans over random data, executed serially and at
    /// DOP 2 and 4, under one of three hazards — none,
    /// injected page faults, or a tight memory limit: identical summaries
    /// when both succeed, same error class when both fail, never success
    /// at one DOP and failure at another. After *any* fallback the
    /// abandoned attempt's partial work may legitimately differ — a
    /// parallel exchange runs its workers eagerly in `open`, so an
    /// alternative that fails mid-drain has already scanned everything
    /// the serial attempt would have stopped short of — so counters are
    /// compared bit-for-bit only on fallback-free runs (the final,
    /// surviving alternative is what parity promises).
    #[test]
    fn random_plans_execute_identically_across_dops(
        w in workload_strategy(Shape::PARITY),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_lo in 0u32..40,
        fault_span in 0u32..4,
        mem_kb in 1u64..64,
    ) {
        let (catalog, query, space) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let bindings = space.bindings(&catalog, std::iter::repeat(sel));
        let limits = ResourceLimits {
            memory_bytes: (hazard == 2).then_some(mem_kb * 1024),
            ..ResourceLimits::unlimited()
        };
        let fault = if hazard == 1 {
            FaultPlan::page_range(fault_lo, fault_lo + fault_span)
        } else {
            FaultPlan::none()
        };

        // Page-identity faults carry no ordinal state, so one plan serves
        // every run; `set_fault_plan` still resets between runs for
        // uniformity with the batch parity suite.
        db.disk.set_fault_plan(fault.clone());
        let serial = run_at(&plan, &db, &catalog, &env, &bindings, limits, 1);
        if let Ok(s) = &serial {
            // `export_rows` reads unaccounted, so the installed fault
            // plan does not touch the oracle.
            let truth = oracle::evaluate(&query, &catalog, &db, &bindings);
            prop_assert_eq!(s.rows, truth.len() as u64, "row count differs from the oracle");
        }
        for dop in [2usize, 4] {
            db.disk.set_fault_plan(fault.clone());
            let parallel = run_at(&plan, &db, &catalog, &env, &bindings, limits, dop);
            let what = format!("dop={dop}");
            match (&serial, &parallel) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(s.rows, p.rows, "{}: result row counts diverged", &what);
                    prop_assert_eq!(
                        s.fallbacks, p.fallbacks, "{}: fallback counts diverged", &what
                    );
                    if s.fallbacks == 0 {
                        assert_summaries_equal(s, p, &what);
                    }
                }
                (Err(se), Err(pe)) => prop_assert_eq!(
                    classify(se), classify(pe),
                    "{}: error classes diverged: serial={:?} parallel={:?}", &what, se, pe
                ),
                (s, p) => prop_assert!(
                    false,
                    "{}: one DOP succeeded while the other failed: serial={:?} parallel={:?}",
                    &what,
                    s.as_ref().map(|s| s.rows),
                    p.as_ref().map(|s| s.rows)
                ),
            }
        }
        db.disk.set_fault_plan(FaultPlan::none());
    }

    /// Draining the same compiled plan at DOP 1, 2, and 4 returns the
    /// same tuples as a *multiset* — the oracle's — with no reservation
    /// left behind in any governor.
    #[test]
    fn drained_tuples_are_identical_as_multisets(
        w in workload_strategy(Shape::PARITY),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let (catalog, query, space) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let bindings = space.bindings(&catalog, std::iter::repeat(sel));
        let memory = 64 * 2048;
        let truth = oracle::evaluate(&query, &catalog, &db, &bindings);
        let attrs = oracle::output_attrs(&query, &catalog);

        let mut baseline: Option<Vec<Tuple>> = None;
        for dop in [1usize, 2, 4] {
            let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
            let mut op =
                compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx).unwrap();
            let positions: Vec<usize> =
                attrs.iter().map(|&a| op.layout().require(a)).collect();
            let rows = drain(op.as_mut()).unwrap();
            prop_assert_eq!(ctx.governor.memory_used(), 0, "dop={}: leaked reservation", dop);
            prop_assert_eq!(
                oracle::canonical(&rows, &positions), truth.clone(),
                "dop={}: differs from the oracle", dop
            );
            let rows = sorted(rows);
            match &baseline {
                None => baseline = Some(rows),
                Some(expect) => prop_assert_eq!(
                    expect, &rows, "dop={}: result multisets diverged", dop
                ),
            }
        }
    }
}

/// A choose-plan whose preferred alternative is refused its memory grant
/// falls back identically at every DOP: same rows, one recorded fallback,
/// no leaked reservations — the parallel sort's workers reserve through
/// the same governor, so the refusal still fires during the alternative's
/// `open`. The *abandoned* attempt's partial counters legitimately differ
/// across DOPs (the parallel scan below the sort runs eagerly before the
/// refusal lands), so what is pinned per DOP is what the surviving
/// alternative charged: a record for each of its 400 rows, on top of
/// whatever the refused one had pulled.
#[test]
fn memory_refusal_fallback_is_dop_independent() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 400, 512, |r| r.attr("a", 400.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 7);
    let rel = catalog.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let (idx, _) = catalog.index_on_attr(ra).unwrap();

    // Alternative 0: Sort(FileScan) — needs a grant the governor refuses.
    // Alternative 1: BtreeScan — streams in key order, grant-free.
    let mut choose = Plan::new();
    let scan = node(&mut choose, PhysicalOp::FileScan { relation: rel.id }, &[]);
    let sorted_alt = node(&mut choose, PhysicalOp::Sort { attr: ra }, &[scan]);
    let btree = node(
        &mut choose,
        PhysicalOp::BtreeScan { relation: rel.id, index: idx, key_attr: ra },
        &[],
    );
    node(&mut choose, PhysicalOp::ChoosePlan, &[sorted_alt, btree]);

    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new();
    let limits = ResourceLimits {
        memory_bytes: Some(512),
        ..ResourceLimits::unlimited()
    };

    let mut rows_by_run = Vec::new();
    for dop in [1usize, 2, 4] {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_dop(dop);
        let mut op =
            compile_dynamic_plan(&choose, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let rows = drain(op.as_mut()).unwrap();
        assert_eq!(ctx.counters.fallbacks(), 1, "dop={dop}: expected one fallback");
        assert_eq!(ctx.governor.memory_used(), 0, "dop={dop}: leaked reservation");
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]), "dop={dop}: B-tree order");
        let records = ctx.counters.snapshot().records;
        assert!((400..=800).contains(&records), "dop={dop}: {records} records for 400 rows");
        rows_by_run.push(sorted(rows));
    }
    assert_eq!(rows_by_run[0].len(), 400);
    for r in &rows_by_run[1..] {
        assert_eq!(r, &rows_by_run[0], "result rows diverged across DOPs after fallback");
    }
}

/// Page-identity faults produce the same outcome at every DOP: a fault on
/// a page the plan reads fails all of them with the same error class
/// (parallel scans defer worker errors to the first pull, preserving
/// the serial failure phase); a fault on a page outside the relation hits
/// none of them.
#[test]
fn page_faults_trip_identically_across_dops() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 600, 512, |r| r.attr("a", 600.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 21);
    let rel = catalog.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id).select(SelectPred::bound(
        rel.attr_id("a").unwrap(),
        CompareOp::Lt,
        300,
    ));
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new();

    let heap_pages = db.table(rel.id).heap.pages().to_vec();
    assert!(heap_pages.len() >= 4, "need a multi-page heap to fault mid-relation");
    // A mid-heap page, and one far past every allocated page.
    for fault_page in [heap_pages[heap_pages.len() / 2].0, 1_000_000] {
        let mut outcomes = Vec::new();
        for dop in [1usize, 2, 4] {
            db.disk
                .set_fault_plan(FaultPlan::page_range(fault_page, fault_page));
            let result =
                run_at(&plan, &db, &catalog, &env, &bindings, ResourceLimits::unlimited(), dop);
            db.disk.set_fault_plan(FaultPlan::none());
            outcomes.push(match result {
                Ok(s) => format!("ok:{}", s.rows),
                Err(e) => format!("err:{}", classify(&e)),
            });
        }
        let expected = if fault_page == 1_000_000 { "ok:" } else { "err:storage" };
        assert!(outcomes[0].starts_with(expected), "fault on page {fault_page}: {}", outcomes[0]);
        for o in &outcomes[1..] {
            assert_eq!(o, &outcomes[0], "fault on page {fault_page} diverged across DOPs");
        }
    }
}
