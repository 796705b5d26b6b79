//! The paper's guarantee, and the start-up evaluator against a naive
//! reference, over randomized chains, bindings and observations.
//!
//! * `g_i = d_i`: "a dynamic plan is guaranteed to include all potentially
//!   optimal plans for all run-time bindings" — so the cost the start-up
//!   decision resolves from the dynamic plan equals the cost of the plan a
//!   run-time optimizer (point mode, actual bindings) finds.
//! * The id-indexed evaluator in `dqep-plan` takes the same decisions and
//!   computes the same estimates as [`reference`], a `HashMap` evaluator
//!   written for clarity, not speed, and kept only here.

use std::collections::HashMap;
use std::sync::Arc;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Cost, CostModel, Environment, PlanStats};
use dqep_interval::Interval;
use dqep_plan::{
    dag, evaluate_startup, evaluate_startup_observed, NodeId, Observations, PlanNode,
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
/// node id, one recursive cost pass. Returns what the real evaluator is
/// compared on.
mod reference {
    use super::*;

    pub struct Outcome {
        pub decisions: Vec<StartupDecision>,
        pub predicted_run_seconds: f64,
        pub estimates: HashMap<NodeId, Interval>,
    }

    pub fn evaluate(
        root: &Arc<PlanNode>,
        catalog: &Catalog,
        base_env: &Environment,
        bindings: &Bindings,
        observations: &Observations,
    ) -> Outcome {
        let observations = expand(root, observations);
        let env = base_env.bind(bindings);
        let mut eval = Eval {
            model: CostModel::new(catalog, &env),
            catalog,
            observations: &observations,
            costs: HashMap::new(),
            decisions: Vec::new(),
        };
        let (_, cost) = eval.cost_pass(root);
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
    fn expand(root: &Arc<PlanNode>, observations: &Observations) -> Observations {
        let mut expanded = observations.clone();
        loop {
            let mut changed = false;
            for node in dag::topological_order(root) {
                if !node.is_choose_plan() {
                    continue;
                }
                let class: Vec<NodeId> = std::iter::once(node.id)
                    .chain(node.children.iter().map(|c| c.id))
                    .collect();
                let value = expanded.get(&node.id).copied().or_else(|| {
                    node.children
                        .iter()
                        .find_map(|c| expanded.get(&c.id).copied())
                });
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
        model: CostModel<'a>,
        catalog: &'a Catalog,
        observations: &'a Observations,
        costs: HashMap<NodeId, (PlanStats, Cost)>,
        decisions: Vec<StartupDecision>,
    }

    impl Eval<'_> {
        fn cost_pass(&mut self, node: &Arc<PlanNode>) -> (PlanStats, Cost) {
            if let Some(hit) = self.costs.get(&node.id) {
                return *hit;
            }
            let result = if node.is_choose_plan() {
                let mut best: Option<(PlanStats, Cost, usize)> = None;
                for (i, alt) in node.children.iter().enumerate() {
                    let (stats, cost) = self.cost_pass(alt);
                    if best.is_none_or(|(_, c, _)| cost.total().lo() < c.total().lo()) {
                        best = Some((stats, cost, i));
                    }
                }
                let (stats, cost, idx) = best.unwrap();
                self.decisions.push(StartupDecision {
                    choose_plan: node.id,
                    chosen_index: idx,
                    alternatives: node.children.len(),
                    chosen_cost: cost.total().lo(),
                });
                (stats, cost)
            } else {
                let mut child_stats = Vec::new();
                let mut cost = Cost::ZERO;
                for c in &node.children {
                    let (s, child_cost) = self.cost_pass(c);
                    child_stats.push(s);
                    cost += child_cost;
                }
                let mut stats = self.recompute_stats(node, &child_stats);
                if let Some(&card) = self.observations.get(&node.id) {
                    stats = PlanStats::new(Interval::point(card), stats.row_bytes);
                }
                cost += self.model.op_cost(&node.op, &child_stats, &stats);
                (stats, cost)
            };
            self.costs.insert(node.id, result);
            result
        }

        fn recompute_stats(&self, node: &PlanNode, children: &[PlanStats]) -> PlanStats {
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
                PhysicalOp::HashJoin { predicates } | PhysicalOp::MergeJoin { predicates } => {
                    sel.join_output(children[0].card, children[1].card, predicates)
                }
                PhysicalOp::IndexJoin {
                    predicates,
                    inner,
                    residual,
                    ..
                } => {
                    let mut card = sel.join_output(children[0].card, base(*inner), predicates);
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

    /// The id-indexed evaluator agrees with the naive one on decisions,
    /// predicted cost and per-node estimates, under random observations.
    #[test]
    fn startup_agrees_with_the_naive_evaluator(
        (k, seed, shares, memory) in case_strategy(),
        observed in proptest::collection::vec((0usize..10_000, 0.0f64..5_000.0), 0..6),
    ) {
        let cat = make_chain_catalog(&SyntheticSpec::paper(k, seed), SystemConfig::paper_1994());
        let env = Environment::dynamic_uncertain_memory(&cat.config);
        let b = bindings(&cat, &shares, memory);
        let plan = Optimizer::new(&cat, &env).optimize(&chain(&cat)).unwrap().plan;
        let nodes = dag::topological_order(&plan);
        let observations: Observations = observed
            .iter()
            .map(|(at, card)| (nodes[at % nodes.len()].id, card.round()))
            .collect();

        let got = evaluate_startup_observed(&plan, &cat, &env, &b, &observations);
        let want = reference::evaluate(&plan, &cat, &env, &b, &observations);
        prop_assert_eq!(&got.decisions, &want.decisions);
        prop_assert_eq!(
            got.predicted_run_seconds.to_bits(),
            want.predicted_run_seconds.to_bits()
        );
        prop_assert_eq!(got.evaluated_nodes, want.estimates.len());
        prop_assert_eq!(got.estimates.len(), want.estimates.len());
        for (id, estimate) in got.estimates.iter() {
            prop_assert_eq!(Some(&estimate.stats.card), want.estimates.get(&id));
        }
    }
}
