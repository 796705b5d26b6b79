//! The run-time choose-plan operator (Graefe & Ward, SIGMOD 1989).
//!
//! The 1989 paper defined choose-plan as an *operator in the query
//! evaluation plan*: an iterator that, when opened, follows its decision
//! procedure's pick and from then on delegates every pull to the chosen
//! input. [`ChoosePlanExec`] is that operator, so dynamic plans compile
//! *as they are*.
//!
//! **The decision is made once per activation, for the whole plan** (the
//! 1994 paper's Section 4: every node's cost function is evaluated once,
//! each choose-plan picks its cheapest input). [`compile_dynamic_plan`]
//! makes it — unless the caller hands it in or a re-optimization driver
//! keeps it — and its result rides in the [`ExecContext`] to every
//! choose-plan operator of the tree. An operator reads its pick, every
//! alternative's predicted cost and its audit from that one result and
//! evaluates nothing itself; `open()` compiles only the winning alternative
//! and opens it, mirroring how an access module never instantiates the
//! plans it does not run.
//!
//! What the operator is *for* is **graceful degradation**: it is the
//! fallback point. When opening the chosen alternative fails *retryably*
//! (an injected storage fault, a memory grant the governor refuses to
//! cover), it falls back to the next alternative in predicted-cost order —
//! read off the same decision, and only once something has failed —
//! instead of failing the query, recording each fallback in the query's
//! counters ([`crate::ExecSummary::fallbacks`]). Fatal errors —
//! cancellation, exceeded query-wide budgets, malformed plans — propagate
//! immediately.

use std::sync::Arc;

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{
    chosen_alternative, evaluate_startup_observed, NodeId, Observations, Plan, StartupResult,
};
use dqep_storage::StoredDatabase;

use crate::compile::Compiler;
use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::metrics::SharedCounters;
use crate::trace::{AltAudit, AttemptAudit, ChooseAudit};
use crate::tuple::TupleLayout;
use crate::{BoxedOperator, Operator};

/// The run-time choose-plan operator: opens the start-up decision's pick,
/// falls back on retryable failure.
pub struct ChoosePlanExec<'a> {
    plan: &'a Plan,
    id: NodeId,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    env: Environment,
    bindings: Bindings,
    memory_bytes: usize,
    ctx: ExecContext,
    /// Filled at `open()`: the compiled winning alternative.
    chosen: Option<BoxedOperator<'a>>,
    /// Index of the alternative actually running (for observability).
    chosen_index: Option<usize>,
    layout: TupleLayout,
    /// Column permutation rewriting the winner's batches into the
    /// declared layout, when the winner is a commuted alternative whose
    /// column order differs. `None` — the common case — passes batches
    /// through untouched.
    remap: Option<Vec<usize>>,
}

impl<'a> ChoosePlanExec<'a> {
    /// The operator for the choose-plan node `id` of `compiler`'s plan,
    /// compiling its alternatives as `compiler` would, under `ctx` — which
    /// must carry the plan's start-up decision or a re-optimization state,
    /// as [`compile_dynamic_plan`] sees to. `None` when the compiler has no
    /// environment to decide under (it compiles a resolved plan).
    pub(crate) fn new(compiler: &Compiler<'a, '_>, id: NodeId, ctx: ExecContext) -> Option<Self> {
        let Compiler { plan, db, catalog, env, bindings, memory_bytes } = *compiler;
        Some(ChoosePlanExec {
            plan,
            id,
            db,
            catalog,
            env: env?.clone(),
            bindings: bindings.clone(),
            memory_bytes,
            ctx,
            chosen: None,
            chosen_index: None,
            // All alternatives share the logical result; take the first
            // alternative's layout (identical relation sets).
            layout: layout_of(plan, plan.children(id)[0], catalog),
            remap: None,
        })
    }

    /// Which alternative is running (after `open`). With fallbacks this
    /// may differ from the decision procedure's first pick.
    #[must_use]
    pub fn chosen_index(&self) -> Option<usize> {
        self.chosen_index
    }

    /// The start-up decision this operator follows. Outside mid-query
    /// re-optimization it is the one the context carries and nothing is
    /// evaluated here. Under re-optimization the decision in force lives on
    /// the re-optimization state, which re-makes it — once, for the whole
    /// plan, shared by every later `open` — when a checkpoint has recorded
    /// a newer observation since, so a re-arbitration after a cardinality
    /// escape decides from what the query actually saw.
    fn decision(&self) -> Result<Arc<StartupResult>, ExecError> {
        let decision = match (self.ctx.reopt.as_ref(), self.ctx.decision.as_ref()) {
            (Some(state), _) => state.decision(self.id, |observed| {
                let counters = &self.ctx.counters;
                decide(self.plan, self.catalog, &self.env, &self.bindings, observed, counters)
            }),
            (None, Some(decision)) => Arc::clone(decision),
            (None, None) => {
                return Err(ExecError::Internal(
                    "choose-plan compiled without a start-up decision".into(),
                ))
            }
        };
        if decision.estimates.len() != self.plan.len() {
            return Err(ExecError::Internal(
                "the start-up decision was made for another plan".into(),
            ));
        }
        Ok(decision)
    }

    /// Hands a completed arbitration audit to the tracer, if tracing, and
    /// records the arbitration outcome in the flight-recorder journal.
    fn flush_audit(&self, audit: ChooseAudit) {
        if let Some(tracer) = self.ctx.tracer.as_ref() {
            crate::journal::journal().record(
                crate::journal::EventKind::ArbitrationWinner,
                tracer.trace_id(),
                crate::journal::NO_ID,
                audit.node,
                audit.winner.map_or(crate::journal::NO_ID, |w| w as u64),
                audit.fallbacks,
            );
            tracer.audit(audit);
        }
    }
}

/// One start-up decision for the whole of `plan`, counted against the run
/// it is made for ([`crate::ExecSummary::startup_nodes`]).
pub(crate) fn decide(
    plan: &Plan,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    observed: &Observations,
    counters: &SharedCounters,
) -> StartupResult {
    let decision = evaluate_startup_observed(plan, catalog, env, bindings, observed);
    counters.add_startup_nodes(decision.evaluated_nodes as u64);
    decision
}

/// The tuple layout the subplan at `id` produces (base relations in
/// leaf-visit order, matching how join operators concatenate).
pub(crate) fn layout_of(plan: &Plan, id: NodeId, catalog: &Catalog) -> TupleLayout {
    use dqep_algebra::PhysicalOp::*;
    let child = |i: usize| layout_of(plan, plan.children(id)[i], catalog);
    match &plan[id].op {
        FileScan { relation } | BtreeScan { relation, .. } | FilterBtreeScan { relation, .. } => {
            TupleLayout::base(catalog, *relation)
        }
        Filter { .. } | Sort { .. } | ChoosePlan => child(0),
        HashJoin | MergeJoin => child(0).concat(&child(1)),
        IndexJoin { inner, .. } => child(0).concat(&TupleLayout::base(catalog, *inner)),
    }
}

impl Operator for ChoosePlanExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        let decision = self.decision()?;
        let (plan, alternatives) = (self.plan, self.plan.children(self.id));
        let preferred = chosen_alternative(&decision.decisions, self.id).unwrap_or(0);
        let predicted_seconds = |alt: NodeId| decision.estimates[alt.index()].cost.total().lo();
        // With tracing on, record the full arbitration audit trail: every
        // alternative with its bind-time prediction, the bound values, the
        // attempts in order, and the eventual winner. Costs nothing when
        // tracing is off (the map never runs).
        let mut audit = self.ctx.tracer.as_ref().map(|_| ChooseAudit {
            node: u64::from(self.id.0),
            bind_values: self
                .bindings
                .values
                .iter()
                .map(|(var, value)| (var.to_string(), *value))
                .collect(),
            memory_pages: self.bindings.memory_pages,
            alternatives: alternatives
                .iter()
                .enumerate()
                .map(|(index, alt)| AltAudit {
                    index,
                    label: plan.label(*alt).to_string(),
                    predicted_seconds: predicted_seconds(*alt),
                })
                .collect(),
            preferred,
            attempts: Vec::new(),
            winner: None,
            fallbacks: 0,
        });
        let compiler = Compiler {
            plan,
            db: self.db,
            catalog: self.catalog,
            env: Some(&self.env),
            bindings: &self.bindings,
            memory_bytes: self.memory_bytes,
        };
        // The decision's pick first; the rest, by their predicted run
        // time, ascending, are lined up only once it has failed.
        let mut order = vec![preferred];
        let mut last_err: Option<ExecError> = None;
        let mut attempt = 0;
        while let Some(&idx) = order.get(attempt) {
            attempt += 1;
            let opened = compiler.node(alternatives[idx], &self.ctx).and_then(|mut op| {
                // A failed attempt releases whatever it still holds
                // (buffered rows, memory reservations).
                op.open().inspect_err(|_| op.close())?;
                Ok(op)
            });
            if let Some(audit) = audit.as_mut() {
                let outcome = opened.as_ref().map_or_else(ToString::to_string, |_| "opened".into());
                audit.attempts.push(AttemptAudit { index: idx, outcome });
            }
            match opened {
                Ok(op) => {
                    // Alternatives share a relation *set*, not an order:
                    // a commuted join delivers the same rows with the
                    // columns permuted. Remap into the declared layout so
                    // parents (and callers) see one stable column order
                    // regardless of which alternative arbitration picked.
                    self.remap = self.layout.projection_from(op.layout());
                    self.chosen_index = Some(idx);
                    self.chosen = Some(op);
                    if let Some(mut audit) = audit.take() {
                        audit.winner = Some(idx);
                        self.flush_audit(audit);
                    }
                    return Ok(());
                }
                Err(e) if e.is_retryable() => {
                    self.ctx.counters.add_fallbacks(1);
                    if let Some(audit) = audit.as_mut() {
                        audit.fallbacks += 1;
                    }
                    last_err = Some(e);
                    if order.len() == 1 {
                        let mut rest: Vec<usize> =
                            (0..alternatives.len()).filter(|i| *i != preferred).collect();
                        rest.sort_by(|a, b| {
                            predicted_seconds(alternatives[*a])
                                .total_cmp(&predicted_seconds(alternatives[*b]))
                        });
                        order.extend(rest);
                    }
                }
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        if let Some(audit) = audit.take() {
            self.flush_audit(audit);
        }
        Err(last_err
            .unwrap_or_else(|| ExecError::Internal("choose-plan has no alternatives".into())))
    }

    /// Batches pass straight through to the chosen alternative — by the
    /// time they flow, the decision (and any fallbacks) already happened
    /// at `open`. A commuted winner's batches are rewritten into the
    /// declared column order.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<crate::RowBatch>, ExecError> {
        let Some(op) = self.chosen.as_mut() else {
            return Err(ExecError::Internal("choose-plan next_batch() before open()".into()));
        };
        let Some(batch) = op.next_batch(max_rows)? else {
            return Ok(None);
        };
        let Some(proj) = &self.remap else {
            return Ok(Some(batch));
        };
        let live: Vec<usize> = batch.selected_indices().collect();
        let mut out = crate::RowBatch::with_capacity(self.layout.width(), live.len());
        out.extend_rows_with(live.len(), |cols| {
            for (col, &src) in cols.iter_mut().zip(proj) {
                let from = batch.column(src);
                col.extend(live.iter().map(|&i| from[i]));
            }
        });
        Ok(Some(out))
    }

    fn close(&mut self) {
        if let Some(mut op) = self.chosen.take() {
            op.close();
        }
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        self.chosen.as_ref().and_then(|op| op.estimated_rows())
    }
}

/// Compiles a plan that may contain choose-plan operators: choose-plan
/// nodes — at the root or nested anywhere inside the tree — become
/// [`ChoosePlanExec`]; everything else compiles as usual. This is where
/// the start-up decision is made: if the plan is dynamic and the context
/// brings neither a decision nor a re-optimization state, the whole plan
/// is evaluated once here and every choose-plan operator compiled from it
/// — now or lazily at `open` — follows that result.
///
/// # Errors
/// Any compilation [`ExecError`]; choose-plan nodes themselves never fail
/// to compile (their alternatives compile lazily at `open`).
pub fn compile_dynamic_plan<'a>(
    plan: &'a Plan,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    env: &Environment,
    bindings: &Bindings,
    memory_bytes: usize,
    ctx: &ExecContext,
) -> Result<BoxedOperator<'a>, ExecError> {
    let compiler = Compiler { plan, db, catalog, env: Some(env), bindings, memory_bytes };
    if plan.is_dynamic() && ctx.decision.is_none() && ctx.reopt.is_none() {
        let decision = decide(plan, catalog, env, bindings, &Observations::new(), &ctx.counters);
        return compiler.node(plan.root(), &ctx.clone().with_decision(Arc::new(decision)));
    }
    compiler.node(plan.root(), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_plan;
    use crate::exec::drain;
    use crate::metrics::SharedCounters;
    use dqep_algebra::{CompareOp, HostVar, LogicalExpr, PhysicalOp, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_plan::evaluate_startup;

    fn fixture() -> (Catalog, StoredDatabase, LogicalExpr) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 600, 512, |r| r.attr("a", 600.0).btree("a", false))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 77);
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        (cat, db, q)
    }

    fn compiler<'a, 'b>(
        plan: &'a Plan,
        db: &'a StoredDatabase,
        catalog: &'a Catalog,
        env: &'b Environment,
        bindings: &'b Bindings,
    ) -> Compiler<'a, 'b> {
        Compiler { plan, db, catalog, env: Some(env), bindings, memory_bytes: 64 * 2048 }
    }

    #[test]
    fn runtime_operator_decides_at_open() {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        assert!(plan.root_node().is_choose_plan());

        for (v, expect_index) in [(5i64, true), (550, false)] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let ctx = ExecContext::new(SharedCounters::new())
                .with_decision(Arc::new(evaluate_startup(&plan, &cat, &env, &bindings)));
            let mut op = ChoosePlanExec::new(&compiler(&plan, &db, &cat, &env, &bindings), plan.root(), ctx).unwrap();
            assert!(op.chosen_index().is_none(), "no decision before open");
            op.open().unwrap();
            let idx = op.chosen_index().expect("decided at open");
            let is_index_plan = matches!(
                plan[plan.children(plan.root())[idx]].op,
                PhysicalOp::FilterBtreeScan { .. }
            );
            assert_eq!(is_index_plan, expect_index, "binding {v}");
            let rows = {
                let mut n = 0;
                while let Some(batch) = op.next_batch(crate::BATCH_CAPACITY).unwrap() {
                    n += batch.len();
                }
                n
            };
            op.close();
            // Ground truth.
            let table = db.table(cat.relation_by_name("r").unwrap().id);
            let expected = table
                .heap
                .scan()
                .map(Result::unwrap)
                .filter(|rec| table.decode(rec)[0] < v)
                .count();
            assert_eq!(rows, expected);
        }
    }

    #[test]
    fn dynamic_compile_matches_resolve_then_compile() {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        for v in [10i64, 200, 580] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            // Path 1: run-time operator.
            let ctx = ExecContext::new(SharedCounters::new());
            let mut lazy =
                compile_dynamic_plan(&plan, &db, &cat, &env, &bindings, 64 * 2048, &ctx).unwrap();
            let lazy_rows = drain(lazy.as_mut()).unwrap().len();
            // Path 2: resolve first.
            let startup = evaluate_startup(&plan, &cat, &env, &bindings);
            let ctx = ExecContext::new(SharedCounters::new());
            let mut eager =
                compile_plan(&startup.resolved, &db, &cat, &bindings, 64 * 2048, &ctx).unwrap();
            let eager_rows = drain(eager.as_mut()).unwrap().len();
            assert_eq!(lazy_rows, eager_rows, "binding {v}");
        }
    }

    #[test]
    fn losing_alternatives_are_never_compiled() {
        // Observable through I/O: opening the run-time operator with a
        // selective binding must not scan the file (the file-scan
        // alternative is never compiled or opened).
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 3);
        let before = db.disk.stats();
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            compile_dynamic_plan(&plan, &db, &cat, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let rows = drain(op.as_mut()).unwrap().len();
        let io = db.disk.stats().since(&before);
        // A full file scan would read ~150 pages; the index path touches
        // only the B-tree descent plus a handful of fetches.
        assert!(rows <= 10);
        assert!(
            io.total() < 20,
            "expected index-path I/O only, saw {io:?}"
        );
    }

    #[test]
    fn next_before_open_is_an_internal_error() {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let ctx = ExecContext::new(SharedCounters::new());
        let bindings = Bindings::new().with_value(HostVar(0), 10);
        let mut op = ChoosePlanExec::new(&compiler(&plan, &db, &cat, &env, &bindings), plan.root(), ctx).unwrap();
        assert!(matches!(op.next_batch(1), Err(ExecError::Internal(_))));
        assert!(
            matches!(op.open(), Err(ExecError::Internal(_))),
            "an operator built by hand without a decision has nothing to follow"
        );
    }

    #[test]
    fn faulted_alternative_falls_back_and_still_answers() {
        use dqep_storage::FaultPlan;
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        assert!(plan.children(plan.root()).len() >= 2);

        // Selective binding: the index path wins and is opened first. Its
        // open() materializes rids via a B-tree descent — fail the very
        // first accounted read so that descent dies and the operator must
        // fall back to the file scan.
        let bindings = Bindings::new().with_value(HostVar(0), 5);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op = compile_dynamic_plan(
            &plan, &db, &cat, &env, &bindings, 64 * 2048, &ctx,
        )
        .unwrap();
        db.disk.set_fault_plan(FaultPlan::nth_read(1));
        let rows = drain(op.as_mut()).unwrap().len();
        db.disk.set_fault_plan(FaultPlan::none());
        assert!(ctx.counters.fallbacks() >= 1, "fallback must be recorded");
        // Same answer as a clean run.
        let table = db.table(cat.relation_by_name("r").unwrap().id);
        let expected = table
            .heap
            .scan()
            .map(Result::unwrap)
            .filter(|rec| table.decode(rec)[0] < 5)
            .count();
        assert_eq!(rows, expected);
    }
}
