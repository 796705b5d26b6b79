//! The start-up decision is made once per activation, by count.
//!
//! The paper's Section 4: at start-up the access module is read, **every
//! node's cost function is evaluated once**, each choose-plan picks its
//! cheapest input, the plan runs. [`ExecSummary::startup_nodes`] counts the
//! cost functions evaluated on behalf of a run, so "once" is a number: the
//! plan's node count for a dynamic plan, zero for a resolved one, and under
//! mid-query re-optimization one whole-plan evaluation per decision the
//! driver makes — at the start, per adopted re-plan, per degraded grant,
//! per fallback — whatever the degree of parallelism. A choose-plan
//! operator evaluates nothing — not to pick, not to audit, not to fall
//! back.
//!
//! (`crates/core/tests/startup_guarantee.rs` holds the reason an operator
//! may read everything off the whole-plan result: bit-identical predicted
//! seconds for every alternative.)

use std::sync::Arc;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment, ParamSpace};
use dqep_executor::{
    run, ExecContext, ExecSummary, ReoptConfig, ReoptCounters, ReoptState, RootSink,
    SharedCounters, Tracer, Tuple,
};
use dqep_plan::{evaluate_startup, Plan};
use dqep_storage::{FaultPlan, StoredDatabase};

/// `σ(R1) ⋈ … ⋈ σ(Rk)`, one host-variable selection per relation.
fn chain(catalog: &Catalog) -> LogicalExpr {
    let rels = catalog.relations();
    let selected = |i: usize| {
        let attr = rels[i].attr_id(SELECTION_ATTR).unwrap();
        LogicalExpr::get(rels[i].id).select(SelectPred::unbound(
            attr,
            CompareOp::Lt,
            HostVar(i as u32),
        ))
    };
    (1..rels.len()).fold(selected(0), |query, i| {
        let left = rels[i - 1].attr_id(JOIN_RIGHT_ATTR).unwrap();
        let right = rels[i].attr_id(JOIN_LEFT_ATTR).unwrap();
        query.join(selected(i), vec![JoinPred::new(left, right)])
    })
}

/// The 6-relation chain of `search_golden.rs` (`dynamic k=6`: 309 nodes,
/// 51 choose-plans), its data, and a binding selecting `share` of every
/// relation.
struct Chain {
    catalog: Catalog,
    db: StoredDatabase,
    env: Environment,
    plan: Arc<Plan>,
}

impl Chain {
    fn new() -> Chain {
        let catalog = make_chain_catalog(&SyntheticSpec::paper(6, 7), SystemConfig::paper_1994());
        let db = StoredDatabase::generate(&catalog, 7);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&chain(&catalog)).unwrap().plan;
        assert_eq!((plan.len(), plan.choose_plan_count()), (309, 51));
        Chain { catalog, db, env, plan }
    }

    fn bindings(&self, share: f64) -> Bindings {
        let space = ParamSpace::new(&chain(&self.catalog), &self.catalog);
        space.bindings(&self.catalog, std::iter::repeat(share))
    }

    fn run(&self, plan: &Plan, bindings: &Bindings, ctx: &ExecContext) -> ExecSummary {
        run(plan, &self.db, &self.catalog, &self.env, bindings, ctx, RootSink::Discard).unwrap()
    }

    /// A re-optimizing run of the whole chain under `config` at `dop`: its
    /// summary, the counters of its state, and its rows, sorted.
    fn reopt(
        &self,
        bindings: &Bindings,
        config: ReoptConfig,
        dop: usize,
    ) -> (ExecSummary, ReoptCounters, Vec<Tuple>) {
        let state = Arc::new(ReoptState::new(config));
        let ctx =
            ExecContext::new(SharedCounters::new()).with_dop(dop).with_reopt(Arc::clone(&state));
        let mut rows = Vec::new();
        let sink = RootSink::Rows(&mut rows);
        let summary =
            run(&self.plan, &self.db, &self.catalog, &self.env, bindings, &ctx, sink).unwrap();
        rows.sort();
        (summary, state.counters(), rows)
    }
}

#[test]
fn a_run_evaluates_each_cost_function_once_whatever_the_context() {
    let chain = Chain::new();
    let bindings = chain.bindings(0.3);
    let nodes = chain.plan.len() as u64;
    let mut rows = Vec::new();
    for dop in [1, 4] {
        for traced in [false, true] {
            let mut ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
            let tracer = traced.then(|| Arc::new(Tracer::new()));
            if let Some(tracer) = &tracer {
                ctx = ctx.with_tracer(Arc::clone(tracer));
            }
            let summary = chain.run(&chain.plan, &bindings, &ctx);
            assert_eq!(
                summary.startup_nodes, nodes,
                "dop {dop}, traced {traced}: one evaluation per node of the plan"
            );
            if let Some(tracer) = tracer {
                // Every choose-plan that opened was audited — alternatives
                // and their predictions included — without evaluating.
                let report = tracer.report();
                let audits = report.outcomes();
                assert!(!audits.is_empty());
                assert!(audits.iter().all(|(a, outcome)| {
                    let clean = outcome.is_some_and(|(_, fallbacks)| fallbacks == 0);
                    a.alternatives.len() >= 2 && clean
                }));
            }
            rows.push(summary.rows);
        }
    }
    assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");

    // A resolved plan has nothing to decide, and a decision handed in is
    // not made again.
    let startup = Arc::new(evaluate_startup(&chain.plan, &chain.catalog, &chain.env, &bindings));
    let ctx = ExecContext::new(SharedCounters::new());
    let resolved = chain.run(&startup.resolved, &bindings, &ctx);
    assert_eq!(resolved.startup_nodes, 0);
    assert_eq!(resolved.rows, rows[0]);
    let ctx = ExecContext::new(SharedCounters::new()).with_decision(startup);
    let handed_in = chain.run(&chain.plan, &bindings, &ctx);
    assert_eq!(handed_in.startup_nodes, 0);
    assert_eq!(handed_in.rows, rows[0]);
}

#[test]
fn a_reoptimizing_run_evaluates_at_most_once_per_event_that_can_move_the_decision() {
    let chain = Chain::new();
    let nodes = chain.plan.len() as u64;
    let plain =
        chain.run(&chain.plan, &chain.bindings(0.3), &ExecContext::new(SharedCounters::new()));
    let budgets = [(0.05, 2), (0.3, 2), (0.9, 2), (0.9, 0)];
    for (share, max_replans) in budgets {
        let bindings = chain.bindings(share);
        let config = ReoptConfig { max_replans };
        let (summary, c, _) = chain.reopt(&bindings, config, 1);
        assert!(c.checkpoints >= 1, "the chain has pipeline breakers: {c:?}");
        // The driver decides at the start, per adopted re-plan, per
        // degraded grant and per fallback — nowhere else.
        let decisions = 1 + c.replans_adopted + c.memory_degradations + c.fallbacks;
        assert_eq!(
            summary.startup_nodes,
            decisions * nodes,
            "share {share}, budget {max_replans}: {c:?}"
        );
        assert!(c.replans_adopted <= u64::from(max_replans), "the budget bounds re-plans: {c:?}");
        // Every decision after the first applies the observations, unless
        // it is the fallback's, which suppresses them.
        assert_eq!(c.observed_arbitrations, decisions - 1 - c.fallbacks, "{c:?}");
        if share == 0.3 {
            assert_eq!(summary.rows, plain.rows);
        }
    }
}

#[test]
fn a_reoptimizing_run_decides_alike_at_every_dop() {
    let chain = Chain::new();
    for share in [0.3, 0.9] {
        let bindings = chain.bindings(share);
        let (serial, serial_counters, serial_rows) =
            chain.reopt(&bindings, ReoptConfig::default(), 1);
        assert!(serial_counters.checkpoints >= 1, "{serial_counters:?}");
        let (parallel, parallel_counters, parallel_rows) =
            chain.reopt(&bindings, ReoptConfig::default(), 4);
        assert_eq!(parallel_rows, serial_rows, "share {share}: rows");
        assert_eq!(parallel_counters, serial_counters, "share {share}: counters");
        assert_eq!(parallel.startup_nodes, serial.startup_nodes, "share {share}: evaluations");
    }
}

#[test]
fn a_fallback_opens_the_next_cheapest_alternative_without_evaluating_again() {
    // One relation, `a < :x` selective: the index alternative wins and its
    // open() descends the B-tree — fail the first accounted read.
    let catalog = make_chain_catalog(&SyntheticSpec::paper(1, 7), SystemConfig::paper_1994());
    let db = StoredDatabase::generate(&catalog, 7);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&chain(&catalog)).unwrap().plan;
    assert!(plan.root_node().is_choose_plan());
    let bindings = Bindings::new().with_value(HostVar(0), 3);
    let clean = run(
        &plan,
        &db,
        &catalog,
        &env,
        &bindings,
        &ExecContext::new(SharedCounters::new()),
        RootSink::Discard,
    )
    .unwrap();
    assert_eq!((clean.fallbacks, clean.startup_nodes), (0, plan.len() as u64));

    let tracer = Arc::new(Tracer::new());
    let ctx = ExecContext::new(SharedCounters::new()).with_tracer(Arc::clone(&tracer));
    db.disk.set_fault_plan(FaultPlan::nth_read(1));
    let faulted = run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard);
    db.disk.set_fault_plan(FaultPlan::none());
    let faulted = faulted.unwrap();
    assert_eq!(faulted.rows, clean.rows, "the fallback answers the query");
    assert_eq!(faulted.fallbacks, 1);
    assert_eq!(faulted.startup_nodes, plan.len() as u64, "falling back evaluates nothing");

    let report = tracer.report();
    let audits = report.outcomes();
    let &(audit, outcome) = audits.last().expect("the root choose-plan was audited");
    let attempted: Vec<usize> = audit.attempts.iter().map(|a| a.index).collect();
    let next_cheapest = audit
        .alternatives
        .iter()
        .filter(|a| a.index != audit.preferred)
        .min_by(|a, b| a.predicted_seconds.total_cmp(&b.predicted_seconds))
        .unwrap()
        .index;
    assert_eq!(attempted, vec![audit.preferred, next_cheapest]);
    assert_eq!(outcome.and_then(|(winner, _)| winner), Some(next_cheapest));
    // The audit's predictions are the start-up decision's own estimates.
    let startup = evaluate_startup(&plan, &catalog, &env, &bindings);
    for (alt, audited) in plan.children(plan.root()).iter().zip(&audit.alternatives) {
        assert_eq!(
            audited.predicted_seconds.to_bits(),
            startup.estimates[alt.index()].cost.total().lo().to_bits()
        );
    }
}
