//! Run-time adaptive execution: decisions delayed *beyond* start-up.
//!
//! The paper's final section sketches the next step past start-up-time
//! decisions: "our initial approach has been to handle inaccurate expected
//! values by evaluating subplans as part of choose-plan decision
//! procedures. When a subplan has been evaluated into a temporary result,
//! its logical and physical properties (e.g., result cardinality and value
//! distributions) are known and therefore may contribute to decisions with
//! increased confidence."
//!
//! [`execute_adaptive`] implements that loop:
//!
//! 1. find a subplan **shared by all alternatives** of the plan's root
//!    choose-plan whose compile-time cardinality is *uncertain* (the
//!    deepest such node — cheapest to pilot);
//! 2. execute it (the "temporary result") and observe its actual
//!    cardinality;
//! 3. re-run the start-up decision procedure with the observation
//!    overriding the estimate ([`dqep_plan::evaluate_startup_observed`]);
//! 4. execute the chosen plan.
//!
//! The pilot's cost is reported separately, but it is *not* repeated:
//! the pilot's materialized batches are retained (via the mid-query
//! re-optimization machinery, [`crate::ReoptState`]) and the main
//! execution serves them through a [`crate::MaterializedScanExec`]
//! wherever the shared subplan appears — so the observation's only
//! overhead is materializing once what the main execution would have
//! computed anyway. That makes the pilot worthwhile whenever estimates
//! are bad enough that the default start-up decision could pick the
//! wrong plan (e.g. skewed data without histograms).

use std::sync::Arc;

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{NodeId, Plan, StartupResult};
use dqep_storage::StoredDatabase;

use crate::compile::{grant_bytes, run, Compiler};
use crate::error::ExecError;
use crate::exec::{drain_root, RootSink};
use crate::governor::ExecContext;
use crate::metrics::{ExecSummary, SharedCounters};

/// Result of one adaptive execution.
#[derive(Debug)]
pub struct AdaptiveResult {
    /// The subplan observed (root of the pilot), if any was eligible.
    pub observed: Option<NodeId>,
    /// The pilot's observed cardinality, if a pilot ran.
    pub observed_rows: Option<u64>,
    /// Cost of the pilot execution (simulated I/O + CPU).
    pub pilot: Option<ExecSummary>,
    /// The start-up decision made with the observation applied — the one
    /// the main execution ran under.
    pub startup: Arc<StartupResult>,
    /// The main execution.
    pub main: ExecSummary,
}

impl AdaptiveResult {
    /// Total simulated seconds including the pilot overhead.
    #[must_use]
    pub fn total_seconds(&self, config: &dqep_catalog::SystemConfig) -> f64 {
        self.main.simulated_seconds(config)
            + self
                .pilot
                .map(|p| p.simulated_seconds(config))
                .unwrap_or(0.0)
    }
}

/// Picks the pilot subplan: the largest (deepest) subplan that (a) appears
/// in every alternative of the root choose-plan and (b) has an uncertain
/// compile-time cardinality. The pilot may itself contain choose-plans —
/// it executes through the run-time choose-plan operator, following the
/// start-up decision. Returns `None` when the plan has no root choose-plan
/// or no eligible shared subplan.
#[must_use]
pub fn pick_pilot(plan: &Plan) -> Option<NodeId> {
    if !plan.root_node().is_choose_plan() {
        return None;
    }
    // In how many alternatives each node appears: one descending sweep
    // per alternative (a node's parents come after it).
    let alternatives = plan.children(plan.root());
    let mut appearances = vec![0usize; plan.len()];
    let mut reached = vec![false; plan.len()];
    for alt in alternatives {
        reached.fill(false);
        reached[alt.index()] = true;
        for (id, _) in plan.iter().rev() {
            if reached[id.index()] {
                appearances[id.index()] += 1;
                for c in plan.children(id) {
                    reached[c.index()] = true;
                }
            }
        }
    }
    // Among the nodes every alternative shares, the deepest eligible one;
    // of equals, the first.
    let mut depth = vec![0usize; plan.len()];
    let mut best: Option<(usize, NodeId)> = None;
    for (id, node) in plan.iter() {
        let below = plan.children(id).iter().map(|c| depth[c.index()]).max();
        depth[id.index()] = 1 + below.unwrap_or(0);
        let eligible = appearances[id.index()] == alternatives.len() && !node.stats.card.is_point();
        if eligible && best.is_none_or(|(d, _)| depth[id.index()] > d) {
            best = Some((depth[id.index()], id));
        }
    }
    best.map(|(_, id)| id)
}

/// Executes a dynamic plan with one round of run-time observation (see the
/// module docs). Falls back to ordinary start-up execution when no pilot
/// subplan is eligible.
///
/// One start-up decision is made up front; the pilot runs under it, and
/// when the pilot has observed something the decision is made once more
/// with the observation applied — the one the main execution follows.
///
/// # Errors
/// Any [`ExecError`] from the pilot or main execution.
pub fn execute_adaptive(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
) -> Result<AdaptiveResult, ExecError> {
    let ctx = ExecContext::new(SharedCounters::new());
    let unobserved = dqep_plan::Observations::new();
    let startup = crate::choose::decide(plan, catalog, env, bindings, &unobserved, &ctx.counters);
    let startup = Arc::new(startup);
    let Some(pilot) = pick_pilot(plan) else {
        // Nothing to observe: run what the decision resolved to.
        let main = run(&startup.resolved, db, catalog, env, bindings, &ctx, RootSink::Discard)?;
        return Ok(AdaptiveResult { observed: None, observed_rows: None, pilot: None, startup, main });
    };

    let pilot_ctx = ExecContext::new(SharedCounters::new()).with_decision(startup);
    let before = db.disk.stats();
    let compiler = Compiler {
        plan,
        db,
        catalog,
        env: Some(env),
        bindings,
        memory_bytes: grant_bytes(bindings, env, catalog),
    };
    let mut op = compiler.node(pilot, &pilot_ctx)?;
    let mut batches = Vec::new();
    let rows = drain_root(op.as_mut(), None, RootSink::Batches(&mut batches))?;
    drop(op);
    let pilot_summary = ExecSummary {
        rows,
        cpu: pilot_ctx.counters.snapshot(),
        io: db.disk.stats().since(&before),
        fallbacks: pilot_ctx.counters.fallbacks(),
        ..ExecSummary::default()
    };
    // Retain the temporary result: the main execution serves it as a
    // materialized scan instead of recomputing the shared subplan.
    let state = Arc::new(crate::reopt::ReoptState::new(crate::reopt::ReoptConfig::default()));
    state.observe_checkpoint(pilot, plan[pilot].op.name(), plan[pilot].stats.card, rows);
    let layout = crate::choose::layout_of(plan, pilot, catalog);
    let _ = state.try_retain(&pilot_ctx.governor, pilot, layout, batches);
    // The decision with the observation applied, put in force for the main
    // execution of the *original* dynamic plan (its node ids key the
    // substitution): the compiler serves the pilot's batches in place of
    // its subtree and the choose-plan operators follow this decision.
    let startup = state.decide(|observed| {
        crate::choose::decide(plan, catalog, env, bindings, observed, &ctx.counters)
    });
    let main = run(plan, db, catalog, env, bindings, &ctx.with_reopt(state), RootSink::Discard)?;
    Ok(AdaptiveResult {
        observed: Some(pilot),
        observed_rows: Some(rows),
        pilot: Some(pilot_summary),
        startup,
        main,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_plan::evaluate_startup;
    use dqep_storage::ValueDistribution;

    /// A join whose uncertain input is Zipf-skewed: uniform estimates are
    /// badly wrong, so the plain start-up decision misfires while the
    /// observed decision does not.
    fn skewed_join() -> (Catalog, StoredDatabase, LogicalExpr) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 800, 512, |r| {
                r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
            })
            .relation("s", 400, 512, |r| {
                r.attr("a", 400.0).attr("j", 200.0).btree("j", false)
            })
            .build()
            .unwrap();
        let db =
            StoredDatabase::generate_with(&cat, 3, ValueDistribution::Zipf { exponent: 1.1 });
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        (cat, db, q)
    }

    #[test]
    fn pilot_is_a_shared_uncertain_subplan() {
        let (cat, _db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        // Query-1-shaped plans have a root choose-plan over scan variants.
        if let Some(pilot) = pick_pilot(&plan) {
            assert!(!plan[pilot].stats.card.is_point());
        }
        // A static plan never yields a pilot.
        let senv = Environment::static_compile_time(&cat.config);
        let splan = Optimizer::new(&cat, &senv).optimize(&q).unwrap().plan;
        assert!(pick_pilot(&splan).is_none());
    }

    #[test]
    fn observation_corrects_skew_blind_decisions() {
        let (cat, db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;

        // A binding that looks selective (30/800 ≈ 4%) but matches most of
        // the Zipf-skewed relation.
        let bindings = Bindings::new().with_value(HostVar(0), 30);

        // Plain start-up execution (estimation-blind).
        let blind = evaluate_startup(&plan, &cat, &env, &bindings);
        let ctx = ExecContext::new(SharedCounters::new());
        let blind_exec =
            run(&plan, &db, &cat, &env, &bindings, &ctx, RootSink::Discard).unwrap();

        // Adaptive execution with one observation round.
        let adaptive = execute_adaptive(&plan, &db, &cat, &env, &bindings).unwrap();
        assert_eq!(adaptive.main.rows, blind_exec.rows, "same logical result");

        if let Some(rows) = adaptive.observed_rows {
            // The observation must be the true pilot cardinality, far from
            // the uniform estimate.
            assert!(rows > 100, "zipf: most rows qualify, got {rows}");
        }
        let cfg = &cat.config;
        // The adaptive MAIN execution is no slower than the blind one
        // (it may equal it when the blind decision was already right).
        assert!(
            adaptive.main.simulated_seconds(cfg)
                <= blind_exec.simulated_seconds(cfg) + 1e-9,
            "adaptive main {:.4}s vs blind {:.4}s",
            adaptive.main.simulated_seconds(cfg),
            blind_exec.simulated_seconds(cfg)
        );
        let _ = blind;
    }

    #[test]
    fn pilot_rows_are_reused_not_recomputed() {
        let (cat, db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 30);
        let adaptive = execute_adaptive(&plan, &db, &cat, &env, &bindings).unwrap();
        let pilot = adaptive.pilot.expect("join fixture has a pilot");
        assert!(pilot.io.total() > 0, "pilot reads its base relation");

        // What the same chosen plan costs when executed from scratch.
        let memory_bytes =
            (env.memory.expected() * cat.config.page_size as f64) as usize;
        let ctx = ExecContext::new(SharedCounters::new());
        let before = db.disk.stats();
        let mut op = crate::compile::compile_plan(
            &adaptive.startup.resolved, &db, &cat, &bindings, memory_bytes, &ctx,
        )
        .unwrap();
        let rows = drain_root(op.as_mut(), None, RootSink::Discard).unwrap();
        let scratch_io = db.disk.stats().since(&before);

        assert_eq!(rows, adaptive.main.rows, "same logical result");
        assert!(
            adaptive.main.io.total() < scratch_io.total(),
            "serving the retained pilot rows must save the pilot subtree's \
             I/O: main {:?} vs from-scratch {:?}",
            adaptive.main.io,
            scratch_io
        );
    }

    #[test]
    fn adaptive_on_uniform_data_changes_nothing() {
        // With accurate estimates the observation agrees with the
        // estimate and the same plan is chosen.
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 500, 512, |r| r.attr("a", 500.0).btree("a", false))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 5);
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);

        let blind = evaluate_startup(&plan, &cat, &env, &bindings);
        let adaptive = execute_adaptive(&plan, &db, &cat, &env, &bindings).unwrap();
        assert_eq!(
            adaptive.startup.resolved.root_node().op.name(),
            blind.resolved.root_node().op.name(),
            "accurate estimates: observation should not change the choice"
        );
        assert!(adaptive.total_seconds(&cat.config) > 0.0);
    }
}
