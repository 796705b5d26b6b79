//! Mid-query re-optimization parity: a re-optimizing execution must be
//! observationally equivalent to plain dynamic execution — the same
//! result tuples as a *multiset* — across random plans, bindings, DOPs,
//! injected storage faults, and tight memory grants. Re-optimization may legitimately *survive* a hazard that
//! fails the plain path (that is the degradation ladder doing its job),
//! but it must never fail where the plain path succeeds, and it must be
//! deterministic: identical inputs reproduce the identical audit trail.
//! And it must pay, in simulated seconds: nothing where the estimates
//! hold, a win where they drift.

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    compile_dynamic_plan, drain, run, ExecContext, ExecError, ExecSummary, ReoptConfig,
    ReoptReport, ReoptState, Resource, ResourceLimits, RootSink, SharedCounters, Tuple,
};
use dqep::optimizer::Optimizer;
use dqep::plan::Plan;
use dqep::storage::{FaultPlan, StoredDatabase, ValueDistribution};
use proptest::prelude::*;

#[path = "common/workload.rs"]
#[allow(dead_code)]
mod workload;

// The parity suites' chain workload, generated over Zipf-skewed data so
// uniform compile-time estimates drift and checkpoints actually escape.
use workload::{build, sorted, workload_strategy, Shape};

/// Drains the plain dynamic plan — the baseline every re-optimizing run
/// is compared against. The memory grant mirrors the reopt driver's
/// (the binding's, or the environment's expected grant).
fn plain_rows(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
) -> Result<Vec<Tuple>, ExecError> {
    let pages = bindings.memory_pages.unwrap_or_else(|| env.memory.expected());
    let memory = (pages * catalog.config.page_size as f64) as usize;
    let mut op = compile_dynamic_plan(plan, db, catalog, env, bindings, memory, ctx)?;
    drain(op.as_mut())
}

/// What a re-optimizing run reports: the summary `run` returned and the
/// audit trail of the state the caller kept.
struct ReoptOutcome {
    summary: ExecSummary,
    report: ReoptReport,
}

/// The re-optimizing run of the same plan — `run` under `ctx` with a fresh
/// re-optimization state attached — into `sink`.
fn reopt_into(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    sink: RootSink<'_>,
) -> Result<ReoptOutcome, ExecError> {
    let state = std::sync::Arc::new(ReoptState::new(ReoptConfig::default()));
    let ctx = ctx.clone().with_reopt(state.clone());
    let summary = run(plan, db, catalog, env, bindings, &ctx, sink)?;
    Ok(ReoptOutcome { summary, report: state.report() })
}

/// The same, its rows collected.
fn reopt_rows(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
) -> Result<(ReoptOutcome, Vec<Tuple>), ExecError> {
    let mut rows = Vec::new();
    let sink = RootSink::Rows(&mut rows);
    reopt_into(plan, db, catalog, env, bindings, ctx, sink).map(|outcome| (outcome, rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random optimized plans over skewed data, re-optimized under one of
    /// three hazards — none, injected page faults, or a tight memory
    /// grant — at DOP 1/2/4: identical result multisets
    /// when both paths succeed, and re-optimization never failing where
    /// plain execution succeeds. (The converse is allowed: surviving a
    /// hazard via the degradation ladder is the feature under test.)
    #[test]
    fn reopt_matches_plain_execution(
        w in workload_strategy(Shape::PARITY),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_lo in 0u32..40,
        fault_span in 0u32..4,
        mem_kb in 1u64..64,
        dop in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (catalog, query, space) = build(&w);
        let db = StoredDatabase::generate_with(
            &catalog,
            seed,
            ValueDistribution::Zipf { exponent: 1.1 },
        );
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

        let ctx = || ExecContext::with_limits(SharedCounters::new(), limits).with_dop(dop);
        db.disk.set_fault_plan(fault.clone());
        let baseline = plain_rows(&plan, &db, &catalog, &env, &bindings, &ctx());
        db.disk.set_fault_plan(fault);
        let reopt = reopt_rows(&plan, &db, &catalog, &env, &bindings, &ctx());
        db.disk.set_fault_plan(FaultPlan::none());

        match (baseline, reopt) {
            (Ok(b), Ok((outcome, r))) => {
                prop_assert_eq!(outcome.summary.rows, r.len() as u64);
                prop_assert_eq!(
                    sorted(b),
                    sorted(r),
                    "result multisets diverged (dop={} hazard={})", dop, hazard
                );
            }
            (Err(_), Err(_)) => {} // hazard fatal to both — consistent
            (Err(_), Ok(_)) => {}  // graceful degradation survived the hazard
            (Ok(_), Err(e)) => prop_assert!(
                false,
                "re-optimization failed where plain execution succeeded \
                 (dop={} hazard={}): {:?}", dop, hazard, e
            ),
        }
    }

    /// The machinery is deterministic: two runs over identical inputs
    /// reproduce the same result multiset *and* the same counter totals
    /// (checkpoints, escapes, re-plans), and release every governor
    /// reservation.
    #[test]
    fn reopt_is_deterministic_for_a_fixed_seed(
        w in workload_strategy(Shape::PARITY),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let (catalog, query, space) = build(&w);
        let db = StoredDatabase::generate_with(
            &catalog,
            seed,
            ValueDistribution::Zipf { exponent: 1.1 },
        );
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let bindings = space.bindings(&catalog, std::iter::repeat(sel));

        let mut runs = Vec::new();
        for _ in 0..2 {
            let ctx = ExecContext::new(SharedCounters::new());
            let (outcome, rows) =
                reopt_rows(&plan, &db, &catalog, &env, &bindings, &ctx).unwrap();
            prop_assert_eq!(
                ctx.governor.memory_used(), 0,
                "leaked governor reservation after a re-optimizing run"
            );
            runs.push((sorted(rows), outcome.report.counters));
        }
        prop_assert_eq!(&runs[0].0, &runs[1].0, "result multisets diverged across reruns");
        prop_assert_eq!(runs[0].1, runs[1].1, "reopt counters diverged across reruns");
    }
}

/// The sink rule. A skewed filter makes the first checkpoint escape, so
/// the remaining plan is re-arbitrated; the re-planned final run then
/// streams a 3 000-row probe side, delivers its first batches of joined
/// rows to the caller's sink, and hits a read fault among the probe's last
/// pages. The driver reverts to the original arbitration, and what the
/// caller finds in the sink is exactly the plain run's multiset — behind
/// the rows it had put there itself, and with no row of the failed
/// attempt.
#[test]
fn reverted_final_run_leaves_no_row_of_the_failed_attempt_in_the_sink() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 800, 512, |r| {
            r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
        })
        .relation("s", 3000, 512, |r| r.attr("a", 3000.0).attr("j", 200.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate_with(&catalog, 3, ValueDistribution::Zipf { exponent: 1.1 });
    let (r, s) = (&catalog.relations()[0], &catalog.relations()[1]);
    let query = LogicalExpr::get(r.id)
        .select(SelectPred::unbound(r.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0)))
        .join(
            LogicalExpr::get(s.id),
            vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
        );
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
    // A grant the build side fits: nothing spills, every read is a scan's.
    let bindings = Bindings::new().with_value(HostVar(0), 30).with_memory(400.0);
    let unlimited = || ExecContext::new(SharedCounters::new());
    let plain = sorted(plain_rows(&plan, &db, &catalog, &env, &bindings, &unlimited()).unwrap());

    // A clean re-optimizing run: it re-plans, and its reads are counted.
    let before = db.disk.stats();
    let (clean, rows) = reopt_rows(&plan, &db, &catalog, &env, &bindings, &unlimited()).unwrap();
    let reads = db.disk.stats().since(&before);
    assert!(clean.report.counters.replans_adopted >= 1, "{:?}", clean.report.counters);
    assert_eq!((reads.writes, clean.report.counters.fallbacks), (0, 0));
    assert_eq!(sorted(rows), plain);
    assert!(plain.len() > 2 * dqep::executor::BATCH_CAPACITY, "several batches of result");

    // The same run with one of its last reads failing.
    let nth = reads.total() - 3;
    let marker = vec![-1i64; plain[0].len()];
    let faulted = |ctx: &ExecContext| {
        db.disk.set_fault_plan(FaultPlan::nth_read(nth));
        let mut rows = vec![marker.clone()];
        let sink = RootSink::Rows(&mut rows);
        let outcome = reopt_into(&plan, &db, &catalog, &env, &bindings, ctx, sink);
        db.disk.set_fault_plan(FaultPlan::none());
        outcome.map(|outcome| (outcome, rows))
    };
    let (outcome, mut rows) = faulted(&unlimited()).unwrap();
    assert_eq!(outcome.report.counters.fallbacks, 1, "the re-planned run must have failed");
    assert_eq!(rows.remove(0), marker, "the caller's own row stays");
    assert_eq!(outcome.summary.rows, plain.len() as u64);
    assert_eq!(sorted(rows), plain, "exactly the plain run's rows");

    // That the failed attempt *had* delivered rows shows in the row
    // budget, which counts what a query produced, kept or not: a budget
    // of exactly the result admits the clean run and refuses this one.
    let exact = ResourceLimits { max_rows: Some(plain.len() as u64), ..ResourceLimits::unlimited() };
    let budgeted = || ExecContext::with_limits(SharedCounters::new(), exact);
    reopt_rows(&plan, &db, &catalog, &env, &bindings, &budgeted()).expect("the result fits");
    assert_eq!(
        faulted(&budgeted()).map(|_| ()).unwrap_err(),
        ExecError::ResourceExhausted(Resource::Rows { limit: plain.len() as u64 })
    );
}

/// A database, an optimized dynamic plan over it, and the bindings to run
/// it with.
type ChainCase = (Catalog, StoredDatabase, std::sync::Arc<Plan>, Bindings);

/// A three-relation chain `(σ_{a<v} r ⋈ s) ⋈ t` whose first join is a
/// hash join — its build side, the filtered `r`, is the checkpoint — and
/// whose second join picks between an index join into `t` (cheap when few
/// rows flow up) and a bulk hash join (cheap when many do). Only `r.a` is
/// drawn from `dist`; the join columns stay uniform, so the
/// filter's cardinality is the one estimate that can be wrong. `bound`:
/// `Some(v)` applies the filter; `None` joins the bare relations, whose
/// cardinalities are known exactly, so no checkpoint can escape.
fn chain_case(dist: ValueDistribution, scale: u64, bound: Option<i64>, seed: u64) -> ChainCase {
    let jdom = (scale / 4) as f64;
    let kdom = (scale * 8) as f64;
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", scale, 512, |r| {
            r.attr("a", scale as f64).attr("j", jdom).btree("a", false).btree("j", false)
        })
        .relation("s", scale / 2, 512, |r| {
            r.attr("j", jdom).attr("k", kdom).btree("j", false).btree("k", false)
        })
        .relation("t", scale * 8, 512, |r| r.attr("k", kdom).attr("b", 64.0).btree("k", false))
        .build()
        .unwrap();
    let (r, s, t) = (&catalog.relations()[0], &catalog.relations()[1], &catalog.relations()[2]);
    let db = StoredDatabase::generate_profiled(&catalog, seed, |rel, ai| {
        if rel == r.id && ai == 0 {
            dist
        } else {
            ValueDistribution::Uniform
        }
    });
    let mut outer = LogicalExpr::get(r.id);
    let mut bindings = Bindings::new();
    if let Some(v) = bound {
        let a = r.attr_id("a").unwrap();
        outer = outer.select(SelectPred::unbound(a, CompareOp::Lt, HostVar(0)));
        bindings = bindings.with_value(HostVar(0), v);
    }
    let query = outer
        .join(
            LogicalExpr::get(s.id),
            vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
        )
        .join(
            LogicalExpr::get(t.id),
            vec![JoinPred::new(s.attr_id("k").unwrap(), t.attr_id("k").unwrap())],
        );
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
    (catalog, db, plan, bindings)
}

/// Re-optimization costs (almost) nothing where the estimates hold and
/// pays where they drift, in simulated seconds, which are deterministic.
/// Drift-free (uniform data, no filter): nothing escapes and the
/// re-optimizing run costs at most 5 % more than the start-up-only run
/// (6.584 s both). Skew (Zipf `r.a` under uniform estimates): the
/// checkpoint escapes, a re-plan is adopted, and the run costs no more
/// than the start-up-only decision (7.864 s against 13.498 s).
#[test]
fn reopt_costs_nothing_without_drift_and_wins_under_skew() {
    let scale = 800;
    let measure = |(catalog, db, plan, bindings): ChainCase| {
        let env = Environment::dynamic_compile_time(&catalog.config);
        let ctx = ExecContext::new(SharedCounters::new());
        let startup = run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard).unwrap();
        let ctx = ExecContext::new(SharedCounters::new());
        let reopt =
            reopt_into(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard).unwrap();
        assert_eq!(startup.rows, reopt.summary.rows, "result row counts diverged");
        let ratio = reopt.summary.simulated_seconds(&catalog.config)
            / startup.simulated_seconds(&catalog.config).max(f64::MIN_POSITIVE);
        (ratio, reopt.report.counters)
    };

    let (ratio, counters) = measure(chain_case(ValueDistribution::Uniform, scale, None, 3));
    assert_eq!(counters.escapes, 0, "{counters:?}");
    assert!(ratio <= 1.05, "drift-free overhead {ratio:.4} above 5%");

    let skew = ValueDistribution::Zipf { exponent: 1.1 };
    let (ratio, counters) = measure(chain_case(skew, scale, Some(scale as i64 / 25), 3));
    assert!(counters.escapes >= 1, "{counters:?}");
    assert!(counters.replans_adopted >= 1, "{counters:?}");
    assert!(ratio <= 1.0 + 1e-9, "skew case must not regress: ratio {ratio:.4}");
}
