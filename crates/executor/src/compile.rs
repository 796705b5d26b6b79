//! Plan compilation: physical plan nodes → executable operator trees.

use std::sync::Arc;

use dqep_algebra::{JoinPred, PhysicalOp, Scalar, SelectPred};
use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{evaluate_startup, NodeId, Plan, StartupResult};
use dqep_storage::StoredDatabase;

use crate::error::ExecError;
use crate::exec::{drain_root, RootSink};
use crate::filter::{FilterExec, ResolvedPred};
use crate::governor::{ExecContext, ExecMode, ResourceLimits};
use crate::hash_join::HashJoinExec;
use crate::index_join::IndexJoinExec;
use crate::merge_join::MergeJoinExec;
use crate::metrics::{ExecSummary, SharedCounters};
use crate::scan::{BtreeScanExec, FileScanExec};
use crate::sort::SortExec;
use crate::tuple::TupleLayout;
use crate::BoxedOperator;

fn pred_value(pred: &SelectPred, bindings: &Bindings) -> Result<i64, ExecError> {
    match pred.rhs {
        Scalar::Const(v) => Ok(v),
        Scalar::Host(h) => bindings.value(h).ok_or(ExecError::UnboundHostVar(h)),
    }
}

fn resolve_pred(
    pred: &SelectPred,
    layout: &TupleLayout,
    bindings: &Bindings,
) -> Result<ResolvedPred, ExecError> {
    let pos =
        layout.position(pred.attr).ok_or_else(|| ExecError::PredicateMismatch(pred.to_string()))?;
    Ok(ResolvedPred { pos, op: pred.op, value: pred_value(pred, bindings)? })
}

/// Orients a join predicate so its first position indexes `left` and its
/// second indexes `right`.
fn orient(
    pred: &JoinPred,
    left: &TupleLayout,
    right: &TupleLayout,
) -> Result<(usize, usize), ExecError> {
    if let (Some(l), Some(r)) = (left.position(pred.left), right.position(pred.right)) {
        return Ok((l, r));
    }
    if let (Some(l), Some(r)) = (left.position(pred.right), right.position(pred.left)) {
        return Ok((l, r));
    }
    Err(ExecError::PredicateMismatch(pred.to_string()))
}

/// Compiles a **resolved** (choose-plan-free) physical plan into an
/// executable operator tree. All operators share `ctx` — its counters for
/// simulated-CPU accounting and its governor for resource enforcement.
///
/// # Errors
/// [`ExecError::UnresolvedChoosePlan`] on a choose-plan node (compile
/// those with [`crate::compile_dynamic_plan`]); unbound-host-variable and
/// predicate errors from resolution; storage errors from operator setup.
pub fn compile_plan<'a>(
    plan: &'a Plan,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    bindings: &Bindings,
    memory_bytes: usize,
    ctx: &ExecContext,
) -> Result<BoxedOperator<'a>, ExecError> {
    let compiler = Compiler { plan, db, catalog, env: None, bindings, memory_bytes };
    compiler.node(plan.root(), ctx)
}

/// What compiling any node of one plan needs besides the node and its
/// context. The compiler body behind [`compile_plan`] (`env = None`:
/// choose-plan nodes are an error) and [`crate::compile_dynamic_plan`]
/// (`env = Some`: choose-plan nodes — at the root or anywhere inside the
/// tree — become run-time [`crate::ChoosePlanExec`] operators, the
/// fallback points of the start-up decision the context carries).
pub(crate) struct Compiler<'a, 'b> {
    pub(crate) plan: &'a Plan,
    pub(crate) db: &'a StoredDatabase,
    pub(crate) catalog: &'a Catalog,
    pub(crate) env: Option<&'b Environment>,
    pub(crate) bindings: &'b Bindings,
    pub(crate) memory_bytes: usize,
}

impl<'a> Compiler<'a, '_> {
    /// Compiles the subplan at `id` — a subtree is `(plan, id)`.
    pub(crate) fn node(
        &self,
        id: NodeId,
        ctx: &ExecContext,
    ) -> Result<BoxedOperator<'a>, ExecError> {
        let (plan, kind) = (self.plan, self.plan[id].op.name());
        crate::trace::traced_operator(ctx, kind, Some((plan, id)), &self.db.disk, |ctx| {
            self.operator(id, ctx)
        })
    }

    /// The operator of node `id`, its inputs compiled under `ctx`.
    #[allow(clippy::too_many_lines)]
    fn operator(&self, id: NodeId, ctx: &ExecContext) -> Result<BoxedOperator<'a>, ExecError> {
        let Compiler { plan, db, catalog, bindings, memory_bytes, .. } = *self;
        let node = &plan[id];
        let children = plan.children(id);
        // Mid-query re-optimization: a node whose result was retained at a
        // checkpoint compiles to the leaf of held rows over a copy of the
        // retained batches — the substitution that keeps a re-plan from
        // ever repeating finished work.
        if let Some((layout, batches)) = ctx.reopt.as_ref().and_then(|s| s.materialized(id)) {
            return Ok(Box::new(crate::LinkScanExec::held(batches, layout, ctx.clone())));
        }
        Ok(match node.op {
            PhysicalOp::FileScan { relation } => {
                let table = db.table(relation);
                // The one place parallelism enters a compiled tree: a DOP > 1
                // file scan becomes an exchange over morsel-scan workers.
                // Every other operator runs the same code at every DOP.
                if ctx.dop > 1 && table.heap.page_count() >= 2 {
                    Box::new(crate::exchange::parallel_scan(
                        table,
                        TupleLayout::base(catalog, relation),
                        ctx,
                    ))
                } else {
                    Box::new(FileScanExec::new(
                        table,
                        TupleLayout::base(catalog, relation),
                        ctx.clone(),
                    ))
                }
            }
            PhysicalOp::BtreeScan { relation, index, .. } => Box::new(BtreeScanExec::new(
                db.table(relation),
                index,
                (None, None),
                TupleLayout::base(catalog, relation),
                ctx.clone(),
            )),
            PhysicalOp::FilterBtreeScan { relation, index, predicate } => {
                let layout = TupleLayout::base(catalog, relation);
                let resolved = resolve_pred(&predicate, &layout, bindings)?;
                Box::new(BtreeScanExec::new(
                    db.table(relation),
                    index,
                    resolved.key_range(),
                    layout,
                    ctx.clone(),
                ))
            }
            PhysicalOp::Filter { predicate } => {
                let child = self.node(children[0], ctx)?;
                let resolved = resolve_pred(&predicate, child.layout(), bindings)?;
                Box::new(FilterExec::new(child, resolved, ctx.clone()))
            }
            PhysicalOp::HashJoin => {
                let build = self.node(children[0], ctx)?;
                let probe = self.node(children[1], ctx)?;
                let keys = plan
                    .join_preds(id)
                    .iter()
                    .map(|p| orient(p, build.layout(), probe.layout()))
                    .collect::<Result<Vec<_>, _>>()?;
                Box::new(HashJoinExec::new(
                    build,
                    probe,
                    keys,
                    ctx.clone(),
                    db.disk.clone(),
                    memory_bytes,
                ))
            }
            PhysicalOp::MergeJoin => {
                let left = self.node(children[0], ctx)?;
                let right = self.node(children[1], ctx)?;
                let mut keys = plan
                    .join_preds(id)
                    .iter()
                    .map(|p| orient(p, left.layout(), right.layout()))
                    .collect::<Result<Vec<_>, _>>()?;
                let (lk, rk) = keys.remove(0);
                Box::new(MergeJoinExec::new(left, right, lk, rk, keys, ctx.clone()))
            }
            PhysicalOp::IndexJoin { inner, index, residual } => {
                let outer = self.node(children[0], ctx)?;
                let inner_layout = TupleLayout::base(catalog, inner);
                let mut keys = plan
                    .join_preds(id)
                    .iter()
                    .map(|p| orient(p, outer.layout(), &inner_layout))
                    .collect::<Result<Vec<_>, _>>()?;
                let (outer_key, _) = keys.remove(0);
                let residual = residual
                    .as_ref()
                    .map(|p| resolve_pred(p, &inner_layout, bindings))
                    .transpose()?;
                Box::new(IndexJoinExec::new(
                    outer,
                    db.table(inner),
                    &inner_layout,
                    index,
                    outer_key,
                    keys,
                    residual,
                    ctx.clone(),
                    memory_bytes / dqep_storage::PAGE_SIZE,
                )?)
            }
            PhysicalOp::Sort { attr } => {
                let child = self.node(children[0], ctx)?;
                let key = child
                    .layout()
                    .position(attr)
                    .ok_or_else(|| ExecError::PredicateMismatch(format!("sort key {attr}")))?;
                Box::new(SortExec::new(child, key, ctx.clone(), db.disk.clone(), memory_bytes))
            }
            // Dynamic compilation: the choose-plan becomes its run-time
            // operator, which opens the alternative the start-up decision
            // picked and is the fallback point should it fail. It keeps the
            // traced child context so alternatives compiled lazily nest
            // their spans under its span.
            PhysicalOp::ChoosePlan => Box::new(
                crate::choose::ChoosePlanExec::new(self, id, ctx.clone())
                    .ok_or(ExecError::UnresolvedChoosePlan)?,
            ),
        })
    }
}

/// The bytes of working memory a statement plans and runs with: the
/// binding's memory grant, or the environment's expected one.
pub(crate) fn grant_bytes(bindings: &Bindings, env: &Environment, catalog: &Catalog) -> usize {
    let pages = bindings.memory_pages.unwrap_or_else(|| env.memory.expected());
    (pages * catalog.config.page_size as f64) as usize
}

/// Runs a plan — static, dynamic, or already resolved — end to end: the
/// one way in, in every mode. For a dynamic plan it makes the start-up
/// decision — once, for the whole plan, one cost-function evaluation per
/// node — and compiles along it under the caller's [`ExecContext`], mapping
/// choose-plan nodes to the run-time [`crate::ChoosePlanExec`] (which opens
/// the alternative the decision picked, and on a retryable failure falls
/// back to the next cheapest by the same decision's estimates); a plan
/// without a choose-plan node is recognised as such in O(1), evaluates
/// nothing and compiles to exactly its operators. It drains the tree into
/// `sink`, charging result rows against the row budget, and reports the
/// execution summary. A [`RootSink::Batches`] drain feeds another stage —
/// a shard's repartition, a checkpoint, an exchange — and is not a query
/// result: its rows are not charged.
///
/// **The context is the options, the handles the caller attached are the
/// outputs.** Resource limits, degree of parallelism, tracing and
/// mid-query re-optimization ride in `ctx` ([`ExecContext::with_limits`] /
/// [`ExecContext::with_dop`] / [`ExecContext::with_tracer`] /
/// [`ExecContext::with_reopt`]); counters accumulate into `ctx.counters`,
/// cancellation goes through `ctx.governor`, a trace is read from the
/// [`crate::Tracer`] the caller kept — which reads the run's trail — and
/// the re-optimization audit trail, the decision in force and
/// what the checkpoints cost from the [`crate::ReoptState`] it kept. Under
/// a re-optimization state the run is the checkpointing driver of
/// [`crate::ReoptState`]'s module: the state's first target and the
/// blocking inputs are materialized and observed before the plan runs over
/// what they retained, every run the driver launches follows the decision
/// it made last, and the summary covers all of it. Results, counter totals
/// and fallback behavior are the same at every DOP (rows up to multiset
/// order) and with or without a tracer —
/// the parallel-parity and observability suites pin that down. Whoever
/// wants the start-up decision itself calls [`dqep_plan::evaluate_startup`]
/// and hands the result in with [`ExecContext::with_decision`]: the run
/// then follows that decision instead of making its own
/// ([`ExecSummary::startup_nodes`] says how many cost functions a run
/// evaluated).
///
/// The memory grant is the binding's (or the environment's expected one).
/// The summary's CPU counters, fallbacks and start-up evaluations are the
/// context's totals, so a context reused across runs reports their sum; its I/O and temp-page
/// high-water are this run's alone.
///
/// # Errors
/// Any [`ExecError`] from compilation or execution, including
/// [`ExecError::ResourceExhausted`] when a budget is exceeded; under
/// re-optimization a retryable one only once it has survived the whole
/// degradation ladder. A re-optimization state that already drove a run is
/// refused.
pub fn run(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    sink: RootSink<'_>,
) -> Result<ExecSummary, ExecError> {
    match &ctx.reopt {
        Some(state) => crate::reopt::drive(state, plan, db, catalog, env, bindings, ctx, sink),
        None => run_once(plan, db, catalog, env, bindings, ctx, sink),
    }
}

/// One compile-and-drain of `plan` under `ctx` as it is: all of [`run`]
/// without a re-optimization state, and the final run of the driver with
/// one.
pub(crate) fn run_once(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    sink: RootSink<'_>,
) -> Result<ExecSummary, ExecError> {
    let memory_bytes = grant_bytes(bindings, env, catalog);
    let io_before = db.disk.stats();
    db.disk.reset_temp_high_water();
    let mut op =
        crate::choose::compile_dynamic_plan(plan, db, catalog, env, bindings, memory_bytes, ctx)?;
    let budget = (!matches!(sink, RootSink::Batches(_))).then_some(&ctx.governor);
    let rows = drain_root(op.as_mut(), budget, sink)?;
    Ok(ExecSummary {
        rows,
        cpu: ctx.counters.snapshot(),
        io: db.disk.stats().since(&io_before),
        fallbacks: ctx.counters.fallbacks(),
        temp_pages_peak: db.disk.temp_pages().high_water,
        startup_nodes: ctx.counters.startup_nodes(),
        ..ExecSummary::default()
    })
}

// Compat shim for the frozen `benchmark/`, no reader in the workspace; the next `[benchmark]` PR deletes it (ROADMAP).
#[doc(hidden)]
#[allow(clippy::too_many_arguments, clippy::missing_errors_doc)]
pub fn execute_plan_dop(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    limits: ResourceLimits,
    _mode: ExecMode,
    dop: usize,
) -> Result<(ExecSummary, Arc<StartupResult>), ExecError> {
    let startup = Arc::new(evaluate_startup(plan, catalog, env, bindings));
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
        .with_dop(dop)
        .with_decision(Arc::clone(&startup));
    run(plan, db, catalog, env, bindings, &ctx, RootSink::Discard).map(|summary| (summary, startup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drain;
    use dqep_algebra::{CompareOp, HostVar, LogicalExpr};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;

    /// Two small relations joined on `j`, selection on `r.a`.
    fn fixture() -> (Catalog, StoredDatabase) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 400, 512, |r| {
                r.attr("a", 400.0).attr("j", 50.0).btree("a", false).btree("j", false)
            })
            .relation("s", 300, 512, |r| {
                r.attr("a", 300.0).attr("j", 50.0).btree("a", false).btree("j", false)
            })
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 99);
        (cat, db)
    }

    /// [`run`] with no sink and the given limits.
    fn run_with(
        plan: &Plan,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
        limits: ResourceLimits,
    ) -> Result<ExecSummary, ExecError> {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
        run(plan, db, cat, env, bindings, &ctx, RootSink::Discard)
    }

    fn select_query(cat: &Catalog) -> LogicalExpr {
        let r = cat.relation_by_name("r").unwrap();
        LogicalExpr::get(r.id).select(SelectPred::unbound(
            r.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ))
    }

    #[test]
    fn executes_resolved_selection_and_counts_match_ground_truth() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        for v in [0i64, 40, 200, 400] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let summary =
                run_with(&plan, &db, &cat, &env, &bindings, ResourceLimits::unlimited()).unwrap();
            // Ground truth from a raw heap scan.
            let table = db.table(cat.relation_by_name("r").unwrap().id);
            let expected =
                table.heap.scan().map(Result::unwrap).filter(|row| row[0] < v).count() as u64;
            assert_eq!(summary.rows, expected, "binding {v}");
        }
    }

    #[test]
    fn alternative_plans_agree_on_results() {
        // Both alternatives of the Figure 1 choose-plan produce the same
        // rows; only their cost differs.
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        assert!(plan.root_node().is_choose_plan());
        let bindings = Bindings::new().with_value(HostVar(0), 120);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut results: Vec<u64> = Vec::new();
        for alt in plan.children(plan.root()) {
            let alt = plan.rooted_at(*alt);
            let mut op = compile_plan(&alt, &db, &cat, &bindings, 1 << 20, &ctx).unwrap();
            results.push(drain(op.as_mut()).unwrap().len() as u64);
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    }

    #[test]
    fn chosen_alternative_is_faster_in_simulated_time() {
        // The headline validation: the start-up decision picks the plan
        // that is actually faster when executed on stored data.
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        for v in [4i64, 396] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let startup = evaluate_startup(&plan, &cat, &env, &bindings);
            let mut times = Vec::new();
            for alt in plan.children(plan.root()) {
                let alt = plan.rooted_at(*alt);
                let ctx = ExecContext::new(SharedCounters::new());
                let before = db.disk.stats();
                let mut op = compile_plan(&alt, &db, &cat, &bindings, 1 << 20, &ctx).unwrap();
                let _ = drain(op.as_mut()).unwrap();
                let io = db.disk.stats().since(&before);
                let summary = ExecSummary {
                    rows: 0,
                    cpu: ctx.counters.snapshot(),
                    io,
                    ..ExecSummary::default()
                };
                times.push(summary.simulated_seconds(&cat.config));
            }
            let chosen = startup.decisions[0].chosen_index;
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                times[chosen] <= min * 1.3 + 1e-9,
                "binding {v}: chose {chosen} ({:.4}s) but best is {min:.4}s ({times:?})",
                times[chosen]
            );
        }
    }

    #[test]
    fn join_query_executes_and_matches_nested_loop_ground_truth() {
        let (cat, db) = fixture();
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(r.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0)))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;

        let bindings = Bindings::new().with_value(HostVar(0), 100);
        let summary =
            run_with(&plan, &db, &cat, &env, &bindings, ResourceLimits::unlimited()).unwrap();

        // Ground truth: nested loops over raw heap scans.
        let rt = db.table(r.id);
        let st = db.table(s.id);
        let r_rows: Vec<Vec<i64>> = rt.heap.scan().map(Result::unwrap).collect();
        let s_rows: Vec<Vec<i64>> = st.heap.scan().map(Result::unwrap).collect();
        let expected = r_rows
            .iter()
            .filter(|row| row[0] < 100)
            .map(|row| s_rows.iter().filter(|srow| srow[1] == row[1]).count() as u64)
            .sum::<u64>();
        assert_eq!(summary.rows, expected);
        assert!(summary.io.total() > 0);
        assert!(summary.cpu.records > 0);
        assert_eq!(summary.fallbacks, 0, "no faults: no fallbacks");
    }

    #[test]
    fn unbound_host_var_is_reported() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        let err = run_with(&plan, &db, &cat, &env, &Bindings::new(), ResourceLimits::unlimited());
        // Start-up evaluation falls back to defaults, but compilation of a
        // predicate with no binding must fail.
        assert_eq!(err.unwrap_err(), ExecError::UnboundHostVar(HostVar(0)));
    }

    #[test]
    fn choose_plan_rejected_by_direct_compile() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        assert!(plan.root_node().is_choose_plan());
        let err = compile_plan(
            &plan,
            &db,
            &cat,
            &Bindings::new().with_value(HostVar(0), 1),
            1 << 20,
            &ExecContext::new(SharedCounters::new()),
        );
        assert_eq!(err.err(), Some(ExecError::UnresolvedChoosePlan));
    }

    #[test]
    fn row_limit_aborts_execution() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);
        let limits = ResourceLimits { max_rows: Some(10), ..ResourceLimits::default() };
        let err = run_with(&plan, &db, &cat, &env, &bindings, limits).unwrap_err();
        assert_eq!(err, ExecError::ResourceExhausted(crate::error::Resource::Rows { limit: 10 }));
        // The same query under a generous limit succeeds.
        let limits = ResourceLimits { max_rows: Some(1_000_000), ..ResourceLimits::default() };
        assert!(run_with(&plan, &db, &cat, &env, &bindings, limits).is_ok());
    }

    #[test]
    fn io_limit_aborts_execution() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&select_query(&cat)).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);
        let limits = ResourceLimits { max_io: Some(2), ..ResourceLimits::default() };
        let err = run_with(&plan, &db, &cat, &env, &bindings, limits).unwrap_err();
        assert_eq!(err, ExecError::ResourceExhausted(crate::error::Resource::Io { limit: 2 }));
    }
}
