//! Mid-query re-optimization parity: a re-optimizing execution must be
//! observationally equivalent to plain dynamic execution — the same
//! result tuples as a *multiset* — across random plans, bindings, DOPs,
//! injected storage faults, and tight memory grants. Re-optimization may legitimately *survive* a hazard that
//! fails the plain path (that is the degradation ladder doing its job),
//! but it must never fail where the plain path succeeds, and it must be
//! deterministic: identical inputs reproduce the identical audit trail.

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    compile_dynamic_plan, drain, run, ExecContext, ExecError, ExecSummary, ReoptConfig,
    ReoptReport, ReoptState, Resource, ResourceLimits, RootSink, SharedCounters, Tuple,
};
use dqep::optimizer::Optimizer;
use dqep::storage::{FaultPlan, StoredDatabase, ValueDistribution};
use proptest::prelude::*;

/// The same randomized 1–3 relation chain workload as the other parity
/// suites, generated over Zipf-skewed data so uniform compile-time
/// estimates drift and checkpoints actually escape.
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
    selected: Vec<bool>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=3).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..400, n),
            proptest::collection::vec(0.2f64..1.25, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(cards, domain_factors, mut selected)| {
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload {
                    cards,
                    domain_factors,
                    selected,
                }
            })
    })
}

fn build(w: &RandomWorkload) -> (Catalog, LogicalExpr, Vec<(HostVar, f64)>) {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, (&card, &f)) in w.cards.iter().zip(&w.domain_factors).enumerate() {
        let name = format!("t{i}");
        let jdomain = (card as f64 * f).max(1.0).round();
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid random catalog");
    let rels: Vec<_> = catalog.relations().to_vec();
    let mut hosts = Vec::new();
    let leaf = |i: usize, hosts: &mut Vec<(HostVar, f64)>| {
        let mut e = LogicalExpr::get(rels[i].id);
        if w.selected[i] {
            let var = HostVar(i as u32);
            hosts.push((var, rels[i].attributes[0].domain_size));
            e = e.select(SelectPred::unbound(
                rels[i].attr_id("a").expect("attr"),
                CompareOp::Lt,
                var,
            ));
        }
        e
    };
    let mut q = leaf(0, &mut hosts);
    for i in 1..w.cards.len() {
        q = q.join(
            leaf(i, &mut hosts),
            vec![JoinPred::new(
                rels[i - 1].attr_id("j").expect("attr"),
                rels[i].attr_id("j").expect("attr"),
            )],
        );
    }
    (catalog, q, hosts)
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

use dqep::plan::Plan;

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
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_lo in 0u32..40,
        fault_span in 0u32..4,
        mem_kb in 1u64..64,
        dop in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate_with(
            &catalog,
            seed,
            ValueDistribution::Zipf { exponent: 1.1 },
        );
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
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
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate_with(
            &catalog,
            seed,
            ValueDistribution::Zipf { exponent: 1.1 },
        );
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }

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
