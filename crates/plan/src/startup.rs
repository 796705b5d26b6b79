//! Start-up-time evaluation of dynamic plans.
//!
//! "A much simpler approach is to re-evaluate the cost functions associated
//! with the participating alternative plans. The decision procedure is now
//! merely a cost comparison of the plan alternatives with run-time bindings
//! instantiated; thus, the reasons for incomparability of costs at
//! compile-time have vanished." (paper Section 4)
//!
//! [`evaluate_startup`] implements exactly that: with all host variables
//! bound and actual memory known, every cost becomes a point; each DAG node
//! is costed **once** (shared subplans are not re-costed per use, paper
//! Section 4), each choose-plan operator picks its cheapest input, and the
//! dynamic plan resolves into an ordinary static plan.
//!
//! The same function applied to a *static* plan computes that plan's true
//! execution cost under the bindings — which is how the experiment harness
//! obtains the paper's `c_i` (static run-times) and `g_i` (dynamic
//! run-times) series.

use std::collections::HashMap;
use std::sync::Arc;

/// Observed actual properties of already-evaluated subplans, keyed by the
/// *original* plan node id: currently the actual output cardinality.
///
/// This is the hook for the paper's Section 7 direction — delaying
/// decisions beyond start-up into run-time: "when a subplan has been
/// evaluated into a temporary result, its logical and physical properties
/// (e.g., result cardinality …) are known and therefore may contribute to
/// decisions with increased confidence".
pub type Observations = HashMap<NodeId, f64>;

use dqep_catalog::{Catalog, RelationId};
use dqep_cost::{Bindings, Cost, CostModel, Environment, PlanStats};
use dqep_interval::Interval;

use crate::node::{NodeId, PlanNode, PlanNodeBuilder};
use crate::table::{DenseId, IdTable};

/// One choose-plan decision taken at start-up-time.
#[derive(Debug, Clone, PartialEq)]
pub struct StartupDecision {
    /// The choose-plan node that decided.
    pub choose_plan: NodeId,
    /// Index of the chosen alternative.
    pub chosen_index: usize,
    /// Number of alternatives available.
    pub alternatives: usize,
    /// The chosen alternative's (point) total cost in seconds.
    pub chosen_cost: f64,
}

/// What one cost-function evaluation produced for a DAG node under the
/// actual bindings: its output stream and the cost of its subtree (for a
/// choose-plan, those of the alternative it chose).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEstimate {
    /// Output stream statistics with host variables bound and
    /// observations applied.
    pub stats: PlanStats,
    /// Total cost of the subtree rooted at the node.
    pub cost: Cost,
}

/// Result of start-up-time evaluation.
#[derive(Debug)]
pub struct StartupResult {
    /// The resolved plan: all choose-plan operators replaced by their
    /// chosen alternative. Ready for execution.
    pub resolved: Arc<PlanNode>,
    /// Predicted execution cost of the resolved plan under the actual
    /// bindings (the paper's `g_i`), in seconds.
    pub predicted_run_seconds: f64,
    /// The decisions taken, in DAG post-order.
    pub decisions: Vec<StartupDecision>,
    /// Number of distinct DAG nodes whose cost function was evaluated.
    pub evaluated_nodes: usize,
    /// The bind-time estimate of every evaluated DAG node, keyed by
    /// *original* node id — the evaluation pass's own table. Its
    /// cardinalities are tighter than the compile-time intervals on the
    /// plan (host variables are bound, observations applied): the
    /// reference a runtime checkpoint compares its observation against.
    pub estimates: IdTable<NodeId, NodeEstimate>,
    /// Modeled start-up CPU seconds: one cost-function evaluation per
    /// evaluated node (`evaluated_nodes × choose_plan_overhead`).
    pub startup_cpu_seconds: f64,
}

/// Evaluates a (static or dynamic) plan at start-up-time.
///
/// * `base_env` is the compile-time environment the plan was optimized
///   under (its defaults carry over to unbound parameters).
/// * `bindings` supplies the actual host-variable values and memory grant.
///
/// Returns the resolved plan, its predicted execution cost under the
/// bindings, and the decisions taken.
#[must_use]
pub fn evaluate_startup(
    root: &Arc<PlanNode>,
    catalog: &Catalog,
    base_env: &Environment,
    bindings: &Bindings,
) -> StartupResult {
    evaluate_startup_observed(root, catalog, base_env, bindings, &Observations::new())
}

/// Like [`evaluate_startup`], additionally honouring *observed* subplan
/// cardinalities (from materialized temporary results): wherever an
/// observation exists for a node, it overrides the estimated output
/// cardinality in every cost function evaluated above it.
#[must_use]
pub fn evaluate_startup_observed(
    root: &Arc<PlanNode>,
    catalog: &Catalog,
    base_env: &Environment,
    bindings: &Bindings,
    observations: &Observations,
) -> StartupResult {
    // Observations describe *logical results*: all alternatives of a
    // choose-plan compute the same result, so an observation for any
    // member of the equivalence class applies to every member (and to the
    // choose-plan node itself). Expand to the closure before evaluating.
    let observations = expand_observations(root, observations);
    let env = base_env.bind(bindings);
    let ids = root.id.index() + 1;
    let mut eval = Eval {
        model: CostModel::new(catalog, &env),
        catalog,
        builder: PlanNodeBuilder::new(),
        estimates: IdTable::with_capacity(ids),
        chosen: IdTable::with_capacity(ids),
        resolved: IdTable::with_capacity(ids),
        decisions: Vec::new(),
        observations: &observations,
    };
    let cost = eval.cost_pass(root).cost;
    let evaluated_nodes = eval.estimates.len();
    let resolved = eval.materialize(root);
    StartupResult {
        resolved,
        predicted_run_seconds: cost.total().lo(),
        decisions: eval.decisions,
        evaluated_nodes,
        estimates: eval.estimates,
        startup_cpu_seconds: evaluated_nodes as f64 * catalog.config.choose_plan_overhead,
    }
}

/// The observations that concern this plan, as a table over its node ids,
/// propagated across choose-plan equivalence classes: if a choose-plan or
/// any of its alternatives is observed, the observation holds for the
/// choose-plan and all alternatives. Iterated to a fixpoint (nested
/// choose-plans chain). Nothing observed — every start-up decision outside
/// mid-query re-optimization — is an empty table and no walk.
fn expand_observations(
    root: &Arc<PlanNode>,
    observations: &Observations,
) -> IdTable<NodeId, f64> {
    let mut expanded = IdTable::new();
    if observations.is_empty() {
        return expanded;
    }
    crate::dag::walk_dag(root, &mut |node| {
        if let Some(&card) = observations.get(&node.id) {
            expanded.insert(node.id, card);
        }
    });
    loop {
        let mut changed = false;
        crate::dag::walk_dag(root, &mut |node| {
            if !node.is_choose_plan() {
                return;
            }
            // The class: the choose-plan plus its direct children.
            let class_value = expanded.get(node.id).copied().or_else(|| {
                node.children
                    .iter()
                    .find_map(|c| expanded.get(c.id).copied())
            });
            if let Some(v) = class_value {
                for id in std::iter::once(node.id).chain(node.children.iter().map(|c| c.id)) {
                    if expanded.insert(id, v) != Some(v) {
                        changed = true;
                    }
                }
            }
        });
        if !changed {
            return expanded;
        }
    }
}

/// Placeholder for the unused entries of a two-slot input array.
const NO_INPUT: PlanStats = PlanStats {
    card: Interval::ZERO,
    row_bytes: 0.0,
};

struct Eval<'a> {
    model: CostModel<'a>,
    catalog: &'a Catalog,
    builder: PlanNodeBuilder,
    observations: &'a IdTable<NodeId, f64>,
    /// Per distinct DAG node: recomputed point stats and point total
    /// subtree cost. One cost-function evaluation per node, as the paper
    /// prescribes ("the cost of shared subexpressions is computed only
    /// once").
    estimates: IdTable<NodeId, NodeEstimate>,
    /// Chosen alternative per choose-plan node.
    chosen: IdTable<NodeId, usize>,
    /// Resolved subplans, materialized only along chosen branches.
    resolved: IdTable<NodeId, Arc<PlanNode>>,
    decisions: Vec<StartupDecision>,
}

impl Eval<'_> {
    /// Phase 1: evaluate every DAG node's cost function once, bottom-up,
    /// recording each choose-plan decision. No plan nodes are allocated:
    /// losing alternatives are costed (that is the decision procedure) but
    /// never materialized.
    fn cost_pass(&mut self, node: &Arc<PlanNode>) -> NodeEstimate {
        if let Some(hit) = self.estimates.get(node.id) {
            return *hit;
        }
        let result = if node.is_choose_plan() {
            let mut best: Option<(NodeEstimate, usize)> = None;
            for (i, alt) in node.children.iter().enumerate() {
                let estimate = self.cost_pass(alt);
                let better = match &best {
                    None => true,
                    Some((b, _)) => estimate.cost.total().lo() < b.cost.total().lo(),
                };
                if better {
                    best = Some((estimate, i));
                }
            }
            let (estimate, idx) = best.expect("choose-plan has at least two alternatives");
            self.chosen.insert(node.id, idx);
            self.decisions.push(StartupDecision {
                choose_plan: node.id,
                chosen_index: idx,
                alternatives: node.children.len(),
                chosen_cost: estimate.cost.total().lo(),
            });
            estimate
        } else {
            // Every operator with a cost function over its inputs takes at
            // most two.
            let mut child_stats = [NO_INPUT; 2];
            let mut cost = Cost::ZERO;
            for (slot, c) in child_stats.iter_mut().zip(&node.children) {
                let child = self.cost_pass(c);
                *slot = child.stats;
                cost += child.cost;
            }
            let child_stats = &child_stats[..node.children.len()];
            let mut stats = self.recompute_stats(node, child_stats);
            if let Some(&card) = self.observations.get(node.id) {
                stats = PlanStats::new(Interval::point(card), stats.row_bytes);
            }
            cost += self.model.op_cost(&node.op, child_stats, &stats);
            NodeEstimate { stats, cost }
        };
        self.estimates.insert(node.id, result);
        result
    }

    /// The bind-time stats of an already costed node.
    fn stats(&self, id: NodeId) -> PlanStats {
        self.estimates.get(id).expect("costed in phase 1").stats
    }

    /// Phase 2: materialize the resolved plan along chosen branches only.
    fn materialize(&mut self, node: &Arc<PlanNode>) -> Arc<PlanNode> {
        if let Some(hit) = self.resolved.get(node.id) {
            return Arc::clone(hit);
        }
        let result = if node.is_choose_plan() {
            let idx = *self.chosen.get(node.id).expect("decided in phase 1");
            self.materialize(&node.children[idx])
        } else {
            let children: Vec<Arc<PlanNode>> =
                node.children.iter().map(|c| self.materialize(c)).collect();
            let mut child_stats = [NO_INPUT; 2];
            for (slot, c) in child_stats.iter_mut().zip(&node.children) {
                *slot = self.stats(c.id);
            }
            let stats = self.stats(node.id);
            let self_cost =
                self.model
                    .op_cost(&node.op, &child_stats[..node.children.len()], &stats);
            self.builder.node(node.op.clone(), children, stats, self_cost)
        };
        self.resolved.insert(node.id, Arc::clone(&result));
        result
    }

    /// Recomputes output stream statistics under the bound environment.
    /// Row widths are schema-determined and reused from compile-time.
    fn recompute_stats(&self, node: &Arc<PlanNode>, children: &[PlanStats]) -> PlanStats {
        use dqep_algebra::PhysicalOp::*;
        let env = self.model.env();
        let sel_model = self.model.selectivity();
        let card = match &node.op {
            FileScan { relation } | BtreeScan { relation, .. } => {
                Interval::point(self.base_card(*relation))
            }
            FilterBtreeScan {
                relation,
                predicate,
                ..
            } => Interval::point(self.base_card(*relation)) * sel_model.selection(predicate, env),
            Filter { predicate } => children[0].card * sel_model.selection(predicate, env),
            HashJoin { predicates } | MergeJoin { predicates } => {
                sel_model.join_output(children[0].card, children[1].card, predicates)
            }
            IndexJoin {
                predicates,
                inner,
                residual,
                ..
            } => {
                let inner_card = Interval::point(self.base_card(*inner));
                let mut card = sel_model.join_output(children[0].card, inner_card, predicates);
                if let Some(residual) = residual {
                    card = card * sel_model.selection(residual, env);
                }
                card
            }
            Sort { .. } => children[0].card,
            ChoosePlan => unreachable!("choose-plan is handled by resolve"),
        };
        PlanStats::new(card, node.stats.row_bytes)
    }

    fn base_card(&self, rel: RelationId) -> f64 {
        self.catalog.relation(rel).stats.cardinality as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, HostVar, PhysicalOp, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    /// A catalog with one 1000-record relation with an unclustered B-tree
    /// on attribute `a`.
    fn fixture() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap()
    }

    /// Builds the paper's Figure 1 dynamic plan by hand: choose-plan over
    /// {Filter(File-Scan R), Filter-B-tree-Scan R}.
    fn figure1_plan(cat: &Catalog, env: &Environment) -> Arc<PlanNode> {
        let rel = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(rel.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let model = CostModel::new(cat, env);
        let sel = model.selectivity().selection(&pred, env);
        let scan_stats = PlanStats::new(Interval::point(1000.0), 512.0);
        let out_stats = PlanStats::new(Interval::point(1000.0) * sel, 512.0);

        let mut b = PlanNodeBuilder::new();
        let scan_op = PhysicalOp::FileScan { relation: rel.id };
        let scan_cost = model.op_cost(&scan_op, &[], &scan_stats);
        let scan = b.node(scan_op, vec![], scan_stats, scan_cost);

        let filter_op = PhysicalOp::Filter { predicate: pred };
        let filter_cost = model.op_cost(&filter_op, &[scan_stats], &out_stats);
        let file_plan = b.node(filter_op, vec![scan], out_stats, filter_cost);

        let idx_op = PhysicalOp::FilterBtreeScan {
            relation: rel.id,
            index: idx,
            predicate: pred,
        };
        let idx_cost = model.op_cost(&idx_op, &[], &out_stats);
        let index_plan = b.node(idx_op, vec![], out_stats, idx_cost);

        b.choose_plan(vec![file_plan, index_plan], model.choose_plan_cost(2))
    }

    #[test]
    fn low_selectivity_picks_index_plan() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        assert!(plan.is_dynamic());

        let bindings = Bindings::new().with_value(HostVar(0), 10); // sel 0.01
        let result = evaluate_startup(&plan, &cat, &env, &bindings);
        assert_eq!(result.decisions.len(), 1);
        assert_eq!(result.decisions[0].chosen_index, 1, "index plan expected");
        assert!(!result.resolved.is_dynamic());
        assert!(matches!(
            result.resolved.op,
            PhysicalOp::FilterBtreeScan { .. }
        ));
    }

    #[test]
    fn high_selectivity_picks_file_scan() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);

        let bindings = Bindings::new().with_value(HostVar(0), 900); // sel 0.9
        let result = evaluate_startup(&plan, &cat, &env, &bindings);
        assert_eq!(result.decisions[0].chosen_index, 0, "file-scan plan expected");
        assert!(matches!(result.resolved.op, PhysicalOp::Filter { .. }));
    }

    #[test]
    fn chosen_cost_is_min_over_alternatives() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        for v in [0i64, 50, 200, 500, 999] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let result = evaluate_startup(&plan, &cat, &env, &bindings);
            // Evaluate each alternative separately as its own "plan".
            let alt_costs: Vec<f64> = plan
                .children
                .iter()
                .map(|alt| {
                    evaluate_startup(alt, &cat, &env, &bindings).predicted_run_seconds
                })
                .collect();
            let min = alt_costs.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                (result.predicted_run_seconds - min).abs() < 1e-12,
                "binding {v}: chose {} but best is {min}",
                result.predicted_run_seconds
            );
        }
    }

    #[test]
    fn startup_cost_within_compile_time_interval() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let compile_interval = plan.total_cost.total();
        for v in [0i64, 123, 456, 789, 999] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let result = evaluate_startup(&plan, &cat, &env, &bindings);
            // The resolved cost excludes decision overhead; the compile-time
            // interval includes it, so allow that slack below the low end.
            let overhead = cat.config.choose_plan_overhead * 2.0;
            assert!(
                result.predicted_run_seconds >= compile_interval.lo() - overhead - 1e-9
                    && result.predicted_run_seconds <= compile_interval.hi() + 1e-9,
                "binding {v}: {} outside {compile_interval}",
                result.predicted_run_seconds
            );
        }
    }

    #[test]
    fn evaluates_each_dag_node_once() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let result = evaluate_startup(&plan, &cat, &env, &Bindings::new().with_value(HostVar(0), 1));
        assert_eq!(result.evaluated_nodes, crate::dag::node_count(&plan));
        assert!(result.startup_cpu_seconds > 0.0);
    }

    #[test]
    fn static_plan_passes_through() {
        // evaluate_startup on a static plan just computes its true cost.
        let cat = fixture();
        let env = Environment::static_compile_time(&cat.config);
        let rel = cat.relation_by_name("r").unwrap();
        let model = CostModel::new(&cat, &env);
        let stats = PlanStats::new(Interval::point(1000.0), 512.0);
        let op = PhysicalOp::FileScan { relation: rel.id };
        let cost = model.op_cost(&op, &[], &stats);
        let mut b = PlanNodeBuilder::new();
        let plan = b.node(op, vec![], stats, cost);

        let result = evaluate_startup(&plan, &cat, &env, &Bindings::new());
        assert!(result.decisions.is_empty());
        assert!((result.predicted_run_seconds - 0.35).abs() < 1e-9);
    }
}
