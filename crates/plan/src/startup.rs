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

use dqep_algebra::JoinPred;
use dqep_catalog::{Catalog, RelationId};
use dqep_cost::{Bindings, Cost, CostModel, Environment, PlanStats};
use dqep_interval::Interval;

use crate::plan::{NodeId, Plan, PlanNode};

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

/// The alternative `decisions` — in table order, as
/// [`StartupResult::decisions`] lists them — picked for `choose_plan`.
#[must_use]
pub fn chosen_alternative(decisions: &[StartupDecision], choose_plan: NodeId) -> Option<usize> {
    decisions
        .binary_search_by_key(&choose_plan, |d| d.choose_plan)
        .ok()
        .map(|at| decisions[at].chosen_index)
}

/// What one cost-function evaluation produced for a plan node under the
/// actual bindings: its output stream, its own cost and the cost of its
/// subtree (for a choose-plan, those of the alternative it chose).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEstimate {
    /// Output stream statistics with host variables bound and
    /// observations applied.
    pub stats: PlanStats,
    /// Cost of the operator alone.
    pub self_cost: Cost,
    /// Total cost of the subtree rooted at the node.
    pub cost: Cost,
}

/// Result of start-up-time evaluation.
#[derive(Debug)]
pub struct StartupResult {
    /// The resolved plan: all choose-plan operators replaced by their
    /// chosen alternative, every operator carrying its bind-time
    /// statistics and cost. Ready for execution.
    pub resolved: Arc<Plan>,
    /// Predicted execution cost of the resolved plan under the actual
    /// bindings (the paper's `g_i`), in seconds.
    pub predicted_run_seconds: f64,
    /// The decisions taken, in table order (ascending choose-plan id).
    pub decisions: Vec<StartupDecision>,
    /// Number of plan nodes whose cost function was evaluated: all of
    /// them, each once.
    pub evaluated_nodes: usize,
    /// The bind-time estimate of every node of the *original* plan,
    /// indexed by node id — the evaluation pass's own table. Its
    /// cardinalities are tighter than the compile-time intervals on the
    /// plan (host variables are bound, observations applied): the
    /// reference a runtime checkpoint compares its observation against.
    pub estimates: Vec<NodeEstimate>,
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
    plan: &Plan,
    catalog: &Catalog,
    base_env: &Environment,
    bindings: &Bindings,
) -> StartupResult {
    evaluate_startup_observed(plan, catalog, base_env, bindings, &Observations::new())
}

/// Like [`evaluate_startup`], additionally honouring *observed* subplan
/// cardinalities (from materialized temporary results): wherever an
/// observation exists for a node, it overrides the estimated output
/// cardinality in every cost function evaluated above it.
///
/// The decision procedure is one forward loop over the plan table: a
/// node's children precede it, so by the time a node is reached the
/// estimates of its inputs are in the table at their ids — each cost
/// function is evaluated once ("the cost of shared subexpressions is
/// computed only once", paper Section 4), each choose-plan picks its
/// cheapest input (the first of equals), and nothing but the table is
/// allocated. Resolution is then one compaction of the plan that keeps the
/// chosen alternative under every choose-plan.
#[must_use]
pub fn evaluate_startup_observed(
    plan: &Plan,
    catalog: &Catalog,
    base_env: &Environment,
    bindings: &Bindings,
    observations: &Observations,
) -> StartupResult {
    // Observations describe *logical results*: all alternatives of a
    // choose-plan compute the same result, so an observation for any
    // member of the equivalence class applies to every member (and to the
    // choose-plan node itself). Expand to the closure before evaluating.
    let observed = expand_observations(plan, observations);
    let env = base_env.bind(bindings);
    let model = CostModel::new(catalog, &env);
    let mut estimates: Vec<NodeEstimate> = Vec::with_capacity(plan.len());
    let mut decisions = Vec::with_capacity(plan.choose_plan_count());
    for (id, node) in plan.iter() {
        let children = plan.children(id);
        let estimate = if node.is_choose_plan() {
            let (chosen_index, estimate) = children
                .iter()
                .map(|alt| estimates[alt.index()])
                .enumerate()
                .reduce(|best, alt| {
                    if alt.1.cost.total().lo() < best.1.cost.total().lo() {
                        alt
                    } else {
                        best
                    }
                })
                .expect("choose-plan has at least two alternatives");
            decisions.push(StartupDecision {
                choose_plan: id,
                chosen_index,
                alternatives: children.len(),
                chosen_cost: estimate.cost.total().lo(),
            });
            estimate
        } else {
            // Every operator with a cost function over its inputs takes at
            // most two.
            let mut child_stats = [NO_INPUT; 2];
            let mut cost = Cost::ZERO;
            for (slot, c) in child_stats.iter_mut().zip(children) {
                let child = &estimates[c.index()];
                *slot = child.stats;
                cost += child.cost;
            }
            let child_stats = &child_stats[..children.len()];
            let preds = plan.join_preds(id);
            let mut stats = recompute_stats(node, preds, child_stats, &model, catalog);
            if let Some(Some(card)) = observed.get(id.index()) {
                stats = PlanStats::new(Interval::point(*card), stats.row_bytes);
            }
            let self_cost = model.op_cost(&node.op, preds, child_stats, &stats);
            cost += self_cost;
            NodeEstimate { stats, self_cost, cost }
        };
        estimates.push(estimate);
    }
    let resolved = plan.compact(
        plan.root(),
        |choose_plan, alt| chosen_alternative(&decisions, choose_plan) == Some(alt),
        |id, _| {
            let estimate = &estimates[id.index()];
            (estimate.stats, estimate.self_cost)
        },
    );
    let cost = estimates.last().expect("a plan has a root").cost;
    StartupResult {
        resolved: Arc::new(resolved),
        predicted_run_seconds: cost.total().lo(),
        decisions,
        evaluated_nodes: plan.len(),
        estimates,
        startup_cpu_seconds: plan.len() as f64 * catalog.config.choose_plan_overhead,
    }
}

/// The observations that concern this plan, by node id, propagated across
/// choose-plan equivalence classes: if a choose-plan or any of its
/// alternatives is observed, the observation holds for the choose-plan and
/// all alternatives. Swept to a fixpoint (nested choose-plans chain).
/// Nothing observed — every start-up decision outside mid-query
/// re-optimization — is an empty table and no sweep.
fn expand_observations(plan: &Plan, observations: &Observations) -> Vec<Option<f64>> {
    if observations.is_empty() {
        return Vec::new();
    }
    let mut expanded = vec![None; plan.len()];
    for (id, card) in observations {
        if let Some(slot) = expanded.get_mut(id.index()) {
            *slot = Some(*card);
        }
    }
    loop {
        let mut changed = false;
        for (id, node) in plan.iter() {
            if !node.is_choose_plan() {
                continue;
            }
            // The class: the choose-plan plus its direct children.
            let alternatives = plan.children(id);
            let class_value = expanded[id.index()]
                .or_else(|| alternatives.iter().find_map(|c| expanded[c.index()]));
            if class_value.is_some() {
                for member in std::iter::once(&id).chain(alternatives) {
                    if expanded[member.index()] != class_value {
                        expanded[member.index()] = class_value;
                        changed = true;
                    }
                }
            }
        }
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

/// Recomputes output stream statistics under the bound environment.
/// Row widths are schema-determined and reused from compile-time.
fn recompute_stats(
    node: &PlanNode,
    preds: &[JoinPred],
    children: &[PlanStats],
    model: &CostModel<'_>,
    catalog: &Catalog,
) -> PlanStats {
    use dqep_algebra::PhysicalOp::*;
    let env = model.env();
    let sel_model = model.selectivity();
    let base_card =
        |rel: RelationId| Interval::point(catalog.relation(rel).stats.cardinality as f64);
    let card = match &node.op {
        FileScan { relation } | BtreeScan { relation, .. } => base_card(*relation),
        FilterBtreeScan {
            relation,
            predicate,
            ..
        } => base_card(*relation) * sel_model.selection(predicate, env),
        Filter { predicate } => children[0].card * sel_model.selection(predicate, env),
        HashJoin | MergeJoin => sel_model.join_output(children[0].card, children[1].card, preds),
        IndexJoin {
            inner, residual, ..
        } => {
            let mut card = sel_model.join_output(children[0].card, base_card(*inner), preds);
            if let Some(residual) = residual {
                card = card * sel_model.selection(residual, env);
            }
            card
        }
        Sort { .. } => children[0].card,
        ChoosePlan => unreachable!("choose-plan picks among its alternatives' estimates"),
    };
    PlanStats::new(card, node.stats.row_bytes)
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
    fn figure1_plan(cat: &Catalog, env: &Environment) -> Plan {
        let rel = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(rel.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let model = CostModel::new(cat, env);
        let sel = model.selectivity().selection(&pred, env);
        let scan_stats = PlanStats::new(Interval::point(1000.0), 512.0);
        let out_stats = PlanStats::new(Interval::point(1000.0) * sel, 512.0);

        let mut p = Plan::new();
        let scan_op = PhysicalOp::FileScan { relation: rel.id };
        let scan_cost = model.op_cost(&scan_op, &[], &[], &scan_stats);
        let scan = p.push(scan_op, &[], &[], scan_stats, scan_cost);

        let filter_op = PhysicalOp::Filter { predicate: pred };
        let filter_cost = model.op_cost(&filter_op, &[], &[scan_stats], &out_stats);
        let file_plan = p.push(filter_op, &[scan], &[], out_stats, filter_cost);

        let idx_op = PhysicalOp::FilterBtreeScan {
            relation: rel.id,
            index: idx,
            predicate: pred,
        };
        let idx_cost = model.op_cost(&idx_op, &[], &[], &out_stats);
        let index_plan = p.push(idx_op, &[], &[], out_stats, idx_cost);

        p.choose_plan(&[file_plan, index_plan], model.choose_plan_cost(2));
        p
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
            result.resolved.root_node().op,
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
        assert!(matches!(result.resolved.root_node().op, PhysicalOp::Filter { .. }));
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
                .children(plan.root())
                .iter()
                .map(|alt| {
                    evaluate_startup(&plan.rooted_at(*alt), &cat, &env, &bindings)
                        .predicted_run_seconds
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
        let compile_interval = plan.root_node().total_cost.total();
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
        let cost = model.op_cost(&op, &[], &[], &stats);
        let mut plan = Plan::new();
        plan.push(op, &[], &[], stats, cost);

        let result = evaluate_startup(&plan, &cat, &env, &Bindings::new());
        assert!(result.decisions.is_empty());
        assert!((result.predicted_run_seconds - 0.35).abs() < 1e-9);
    }
}
