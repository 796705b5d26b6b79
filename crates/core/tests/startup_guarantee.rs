//! The paper's guarantee, and the start-up evaluator against a naive
//! reference, over randomized chains, bindings and observations.
//!
//! * `g_i = d_i`: "a dynamic plan is guaranteed to include all potentially
//!   optimal plans for all run-time bindings" — so the cost the start-up
//!   decision resolves from the dynamic plan equals the cost of the plan a
//!   run-time optimizer (point mode, actual bindings) finds.
//! * The forward loop over the plan table in `dqep-plan` takes the same
//!   decisions and computes the same estimates as [`reference`], a
//!   recursive `HashMap` evaluator written for clarity, not speed, and kept
//!   only here — and the plan it resolves is the one the reference's
//!   decisions spell out.
//! * A choose-plan operator may read every alternative's predicted cost
//!   off the whole-plan estimates: they are, to the bit, what a private
//!   evaluation of the alternative computes.

use std::collections::HashMap;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Cost, CostModel, Environment, PlanStats};
use dqep_interval::Interval;
use dqep_plan::{
    evaluate_startup, evaluate_startup_observed, NodeId, Observations, Plan, PlanNode,
    StartupDecision,
};
use proptest::prelude::*;

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
    let mut query = selected(0);
    for i in 1..rels.len() {
        let left = rels[i - 1].attr_id(JOIN_RIGHT_ATTR).unwrap();
        let right = rels[i].attr_id(JOIN_LEFT_ATTR).unwrap();
        query = query.join(selected(i), vec![JoinPred::new(left, right)]);
    }
    query
}

/// Binds variable `i` to the value selecting share `shares[i]` of `Ri.a`.
fn bindings(catalog: &Catalog, shares: &[f64], memory: Option<f64>) -> Bindings {
    let mut b = Bindings::new();
    for (i, rel) in catalog.relations().iter().enumerate() {
        let attr = rel.attr_id(SELECTION_ATTR).unwrap();
        let domain = catalog.attribute(attr).domain_size;
        b = b.with_value(HostVar(i as u32), (shares[i] * domain).floor() as i64);
    }
    match memory {
        Some(pages) => b.with_memory(pages),
        None => b,
    }
}

/// The start-up decision procedure, the obvious way: hash maps keyed by
/// node id, one recursive cost pass from the root. Returns what the real
/// evaluator is compared on.
mod reference {
    use super::*;

    pub struct Outcome {
        pub decisions: Vec<StartupDecision>,
        pub predicted_run_seconds: f64,
        pub estimates: HashMap<NodeId, Interval>,
    }

    pub fn evaluate(
        plan: &Plan,
        catalog: &Catalog,
        base_env: &Environment,
        bindings: &Bindings,
        observations: &Observations,
    ) -> Outcome {
        let observations = expand(plan, observations);
        let env = base_env.bind(bindings);
        let mut eval = Eval {
            plan,
            model: CostModel::new(catalog, &env),
            catalog,
            observations: &observations,
            costs: HashMap::new(),
            decisions: Vec::new(),
        };
        let (_, cost) = eval.cost_pass(plan.root());
        Outcome {
            decisions: eval.decisions,
            predicted_run_seconds: cost.total().lo(),
            estimates: eval
                .costs
                .iter()
                .map(|(id, (stats, _))| (*id, stats.card))
                .collect(),
        }
    }

    /// An observation of a choose-plan or of any alternative holds for the
    /// whole class; iterated to a fixpoint.
    fn expand(plan: &Plan, observations: &Observations) -> Observations {
        let mut expanded = observations.clone();
        loop {
            let mut changed = false;
            for (id, node) in plan.iter() {
                if !node.is_choose_plan() {
                    continue;
                }
                let children = plan.children(id);
                let class: Vec<NodeId> =
                    std::iter::once(id).chain(children.iter().copied()).collect();
                let value = expanded
                    .get(&id)
                    .copied()
                    .or_else(|| children.iter().find_map(|c| expanded.get(c).copied()));
                if let Some(v) = value {
                    for id in class {
                        changed |= expanded.insert(id, v) != Some(v);
                    }
                }
            }
            if !changed {
                return expanded;
            }
        }
    }

    struct Eval<'a> {
        plan: &'a Plan,
        model: CostModel<'a>,
        catalog: &'a Catalog,
        observations: &'a Observations,
        costs: HashMap<NodeId, (PlanStats, Cost)>,
        decisions: Vec<StartupDecision>,
    }

    impl Eval<'_> {
        fn cost_pass(&mut self, id: NodeId) -> (PlanStats, Cost) {
            if let Some(hit) = self.costs.get(&id) {
                return *hit;
            }
            let (node, children) = (&self.plan[id], self.plan.children(id));
            let result = if node.is_choose_plan() {
                let mut best: Option<(PlanStats, Cost, usize)> = None;
                for (i, alt) in children.iter().enumerate() {
                    let (stats, cost) = self.cost_pass(*alt);
                    if best.is_none_or(|(_, c, _)| cost.total().lo() < c.total().lo()) {
                        best = Some((stats, cost, i));
                    }
                }
                let (stats, cost, idx) = best.unwrap();
                self.decisions.push(StartupDecision {
                    choose_plan: id,
                    chosen_index: idx,
                    alternatives: children.len(),
                    chosen_cost: cost.total().lo(),
                });
                (stats, cost)
            } else {
                let mut child_stats = Vec::new();
                let mut cost = Cost::ZERO;
                for c in children {
                    let (s, child_cost) = self.cost_pass(*c);
                    child_stats.push(s);
                    cost += child_cost;
                }
                let preds = self.plan.join_preds(id);
                let mut stats = self.recompute_stats(node, preds, &child_stats);
                if let Some(&card) = self.observations.get(&id) {
                    stats = PlanStats::new(Interval::point(card), stats.row_bytes);
                }
                cost += self.model.op_cost(&node.op, preds, &child_stats, &stats);
                (stats, cost)
            };
            self.costs.insert(id, result);
            result
        }

        fn recompute_stats(
            &self,
            node: &PlanNode,
            preds: &[JoinPred],
            children: &[PlanStats],
        ) -> PlanStats {
            let env = self.model.env();
            let sel = self.model.selectivity();
            let base = |rel| Interval::point(self.catalog.relation(rel).stats.cardinality as f64);
            let card = match &node.op {
                PhysicalOp::FileScan { relation } | PhysicalOp::BtreeScan { relation, .. } => {
                    base(*relation)
                }
                PhysicalOp::FilterBtreeScan {
                    relation,
                    predicate,
                    ..
                } => base(*relation) * sel.selection(predicate, env),
                PhysicalOp::Filter { predicate } => {
                    children[0].card * sel.selection(predicate, env)
                }
                PhysicalOp::HashJoin | PhysicalOp::MergeJoin => {
                    sel.join_output(children[0].card, children[1].card, preds)
                }
                PhysicalOp::IndexJoin {
                    inner, residual, ..
                } => {
                    let mut card = sel.join_output(children[0].card, base(*inner), preds);
                    if let Some(residual) = residual {
                        card = card * sel.selection(residual, env);
                    }
                    card
                }
                PhysicalOp::Sort { .. } => children[0].card,
                PhysicalOp::ChoosePlan => unreachable!("handled by cost_pass"),
            };
            PlanStats::new(card, node.stats.row_bytes)
        }
    }
}

fn case_strategy() -> impl Strategy<Value = (usize, u64, Vec<f64>, Option<f64>)> {
    (
        2usize..=5,
        0u64..1_000,
        proptest::collection::vec(0.0f64..=1.0, 5),
        prop_oneof![Just(None), (16.0f64..=112.0).prop_map(Some)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `g_i = d_i`: start-up resolution of the dynamic plan costs what
    /// run-time optimization with the same bindings finds.
    #[test]
    fn resolved_dynamic_cost_equals_runtime_optimization(
        (k, seed, shares, memory) in case_strategy(),
        uncertain_memory in any::<bool>(),
    ) {
        let cat = make_chain_catalog(&SyntheticSpec::paper(k, seed), SystemConfig::paper_1994());
        let query = chain(&cat);
        // A memory grant may only vary where the plan was compiled for it.
        let (env, memory) = if uncertain_memory {
            (Environment::dynamic_uncertain_memory(&cat.config), memory)
        } else {
            (Environment::dynamic_compile_time(&cat.config), None)
        };
        let b = bindings(&cat, &shares, memory);
        let dynamic = Optimizer::new(&cat, &env).optimize(&query).unwrap().plan;
        let g = evaluate_startup(&dynamic, &cat, &env, &b).predicted_run_seconds;

        let bound = env.bind(&b);
        let at_run_time = Optimizer::new(&cat, &bound).optimize(&query).unwrap().plan;
        let d = evaluate_startup(&at_run_time, &cat, &bound, &b).predicted_run_seconds;
        prop_assert!(
            (g - d).abs() < 1e-9,
            "k={k} seed={seed}: dynamic plan resolves to {g}, run-time optimization finds {d}"
        );
    }

    /// The forward loop agrees with the naive evaluator on decisions,
    /// predicted cost and per-node estimates, under random observations —
    /// and resolves to the plan the naive decisions spell out.
    #[test]
    fn startup_agrees_with_the_naive_evaluator(
        (k, seed, shares, memory) in case_strategy(),
        observed in proptest::collection::vec((0usize..10_000, 0.0f64..5_000.0), 0..6),
    ) {
        let cat = make_chain_catalog(&SyntheticSpec::paper(k, seed), SystemConfig::paper_1994());
        let env = Environment::dynamic_uncertain_memory(&cat.config);
        let b = bindings(&cat, &shares, memory);
        let plan = Optimizer::new(&cat, &env).optimize(&chain(&cat)).unwrap().plan;
        let observations: Observations = observed
            .iter()
            .map(|(at, card)| (NodeId((at % plan.len()) as u32), card.round()))
            .collect();

        let got = evaluate_startup_observed(&plan, &cat, &env, &b, &observations);
        let mut want = reference::evaluate(&plan, &cat, &env, &b, &observations);
        // The reference decides in the order its recursion returns; the
        // table decides in table order.
        want.decisions.sort_by_key(|d| d.choose_plan);
        prop_assert_eq!(&got.decisions, &want.decisions);
        prop_assert_eq!(
            got.predicted_run_seconds.to_bits(),
            want.predicted_run_seconds.to_bits()
        );
        prop_assert_eq!(got.evaluated_nodes, want.estimates.len());
        prop_assert_eq!(got.estimates.len(), want.estimates.len());
        for (id, estimate) in got.estimates.iter().enumerate() {
            prop_assert_eq!(
                Some(&estimate.stats.card),
                want.estimates.get(&NodeId(id as u32))
            );
        }

        // Structure: the resolved plan, read as a tree of (operator,
        // bind-time cardinality), is the original plan followed through the
        // reference's decisions; it shares what the original shares; and no
        // choose-plan is left in it.
        let chosen: HashMap<NodeId, usize> =
            want.decisions.iter().map(|d| (d.choose_plan, d.chosen_index)).collect();
        let mut kept = std::collections::HashSet::new();
        let expected = resolved_by_hand(&plan, plan.root(), &chosen, &want.estimates, &mut kept);
        let resolved = &got.resolved;
        prop_assert_eq!(as_tree(resolved, resolved.root()), expected);
        prop_assert_eq!(resolved.len(), kept.len());
        prop_assert!(!resolved.is_dynamic());
        prop_assert!(resolved.check_invariants().is_ok());
        let total = resolved.root_node().total_cost.total();
        prop_assert!((total.lo() - got.predicted_run_seconds).abs() <= 1e-9 * total.lo().abs());
    }

    /// Why a choose-plan operator needs no evaluation of its own: the
    /// whole-plan estimates hold, for every (choose-plan, alternative)
    /// pair, bit for bit the predicted seconds a private evaluation of the
    /// alternative's subplan computes, and the choose-plan's own private
    /// evaluation picks the alternative the whole-plan decision lists. So
    /// neither a preferred alternative nor an attempt order can move.
    #[test]
    fn whole_plan_estimates_are_each_alternatives_private_evaluation(
        (k, seed, shares, memory) in case_strategy(),
    ) {
        let cat = make_chain_catalog(&SyntheticSpec::paper(k, seed), SystemConfig::paper_1994());
        let env = Environment::dynamic_uncertain_memory(&cat.config);
        let b = bindings(&cat, &shares, memory);
        let plan = Optimizer::new(&cat, &env).optimize(&chain(&cat)).unwrap().plan;
        let whole = evaluate_startup(&plan, &cat, &env, &b);
        for decision in &whole.decisions {
            let choose_plan = decision.choose_plan;
            let private = evaluate_startup(&plan.rooted_at(choose_plan), &cat, &env, &b);
            prop_assert_eq!(
                private.decisions.last().map(|d| d.chosen_index),
                Some(decision.chosen_index)
            );
            for alt in plan.children(choose_plan) {
                let private = evaluate_startup(&plan.rooted_at(*alt), &cat, &env, &b);
                prop_assert_eq!(
                    whole.estimates[alt.index()].cost.total().lo().to_bits(),
                    private.predicted_run_seconds.to_bits(),
                    "{} under {}", alt, choose_plan
                );
            }
        }
    }
}

/// A plan read as a tree: `op{card}(children…)`, shared nodes expanded.
fn as_tree(plan: &Plan, id: NodeId) -> String {
    let node: &PlanNode = &plan[id];
    let children: Vec<String> = plan.children(id).iter().map(|c| as_tree(plan, *c)).collect();
    format!("{}{{{}}}({})", plan.label(id), node.stats.card, children.join(", "))
}

/// [`as_tree`] of what resolving `plan` must produce, written from the
/// reference's outputs alone: every choose-plan replaced by the alternative
/// `chosen` names, every operator at its reference estimate. `kept`
/// collects the distinct original operators on the way.
fn resolved_by_hand(
    plan: &Plan,
    id: NodeId,
    chosen: &HashMap<NodeId, usize>,
    estimates: &HashMap<NodeId, Interval>,
    kept: &mut std::collections::HashSet<NodeId>,
) -> String {
    let children = plan.children(id);
    if plan[id].is_choose_plan() {
        return resolved_by_hand(plan, children[chosen[&id]], chosen, estimates, kept);
    }
    kept.insert(id);
    let children: Vec<String> = children
        .iter()
        .map(|c| resolved_by_hand(plan, *c, chosen, estimates, kept))
        .collect();
    format!("{}{{{}}}({})", plan.label(id), estimates[&id], children.join(", "))
}
