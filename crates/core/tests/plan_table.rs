//! The plan table's own properties, on optimizer output and on a
//! hand-built plan holding one of each operator of the paper's Table 1:
//!
//! * an access module is the table: `decode(encode(p)) == p` field for
//!   field, ids included (ids are positions);
//! * the one rewriter keeps relative order and child order — as `finish`
//!   after a search, as `rooted_at` for any subplan;
//! * *shrink* is that rewriter under a usage filter: with every
//!   alternative used it is the identity, with exactly one start-up
//!   decision's alternatives used it has the structure *resolve* produces
//!   for that decision.

use std::sync::Arc;

use dqep_algebra::{
    CompareOp, HostVar, JoinPred, LogicalExpr, PhysProps, PhysicalOp, SelectPred,
};
use dqep_catalog::{
    make_chain_catalog, AttrId, Catalog, IndexId, RelationId, SyntheticSpec, SystemConfig,
    JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR, SELECTION_ATTR,
};
use dqep_core::Optimizer;
use dqep_cost::{Cost, Environment, ParamSpace, PlanStats};
use dqep_interval::Interval;
use dqep_plan::shrink::{shrink_plan, UsageStats};
use dqep_plan::{evaluate_startup, AccessModule, NodeId, Plan, StartupDecision};

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

/// Optimizer output: the k-relation chain, dynamic, any order or sorted on
/// `R1.a`; point mode for the static shape.
fn optimized() -> Vec<(Catalog, Environment, Arc<Plan>)> {
    let mut out = Vec::new();
    for k in [1, 3, 5] {
        let catalog = make_chain_catalog(&SyntheticSpec::paper(k, 7), SystemConfig::paper_1994());
        let sorted = PhysProps::sorted(catalog.relations()[0].attr_id(SELECTION_ATTR).unwrap());
        let query = chain(&catalog);
        for (env, props) in [
            (Environment::dynamic_compile_time(&catalog.config), PhysProps::ANY),
            (Environment::dynamic_uncertain_memory(&catalog.config), sorted),
            (Environment::static_compile_time(&catalog.config), PhysProps::ANY),
        ] {
            let plan = Optimizer::new(&catalog, &env)
                .optimize_with_props(&query, props)
                .unwrap()
                .plan;
            out.push((catalog.clone(), env, plan));
        }
    }
    out
}

/// One of each operator of the paper's Table 1 (`table1.rs` lists them),
/// with a shared subplan, a nested choose-plan, and joins on one and on two
/// predicates.
fn one_of_each() -> Plan {
    fn join(
        p: &mut Plan,
        op: PhysicalOp,
        children: &[NodeId],
        preds: &[JoinPred],
        (lo, hi): (f64, f64),
    ) -> NodeId {
        let stats = PlanStats::new(Interval::new(lo, hi), 512.0 * (1 + children.len()) as f64);
        let cost = Cost::new(Interval::new(lo / 100.0, hi / 50.0), Interval::new(lo / 10.0, hi));
        p.push(op, children, preds, stats, cost)
    }
    fn push(p: &mut Plan, op: PhysicalOp, children: &[NodeId], lo: f64, hi: f64) -> NodeId {
        join(p, op, children, &[], (lo, hi))
    }
    let attr = |relation: u32, index: u32| AttrId { relation: RelationId(relation), index };
    let (r0, r1) = (RelationId(0), RelationId(1));
    let pred = SelectPred::unbound(attr(0, 0), CompareOp::Lt, HostVar(0));
    let on = [JoinPred::new(attr(0, 1), attr(1, 1)), JoinPred::new(attr(0, 2), attr(1, 2))];
    let p = &mut Plan::new();
    let scan = push(p, PhysicalOp::FileScan { relation: r0 }, &[], 1000.0, 1000.0);
    let filter = push(p, PhysicalOp::Filter { predicate: pred }, &[scan], 0.0, 1000.0);
    let range =
        PhysicalOp::FilterBtreeScan { relation: r0, index: IndexId(0), predicate: pred };
    let range = push(p, range, &[], 0.0, 1000.0);
    let r = p.choose_plan(&[filter, range], Cost::point(0.001, 0.0));
    let s = push(p, PhysicalOp::FileScan { relation: r1 }, &[], 800.0, 800.0);
    let hash = join(p, PhysicalOp::HashJoin, &[r, s], &on, (0.0, 1600.0));
    let ordered = PhysicalOp::BtreeScan { relation: r1, index: IndexId(1), key_attr: attr(1, 1) };
    let ordered = push(p, ordered, &[], 800.0, 800.0);
    let sort = push(p, PhysicalOp::Sort { attr: attr(0, 1) }, &[r], 0.0, 1000.0);
    let merge = join(p, PhysicalOp::MergeJoin, &[sort, ordered], &on[..1], (0.0, 1600.0));
    let index = PhysicalOp::IndexJoin {
        inner: r1,
        index: IndexId(1),
        residual: Some(SelectPred::bound(attr(1, 0), CompareOp::Ge, 7)),
    };
    let index = join(p, index, &[r], &on, (0.0, 1600.0));
    p.choose_plan(&[hash, merge, index], Cost::point(0.002, 0.0));
    std::mem::take(p)
}

#[test]
fn a_decoded_module_is_the_plan_that_was_encoded() {
    let hand_built = Arc::new(one_of_each());
    hand_built.check_invariants().unwrap();
    let plans = optimized().into_iter().map(|(_, _, plan)| plan).chain([hand_built]);
    for plan in plans {
        let image = AccessModule::new(Arc::clone(&plan)).serialize();
        let back = AccessModule::deserialize(image.clone()).unwrap();
        assert_eq!(back.plan(), &plan, "field for field, ids included");
        assert_eq!(back.serialize(), image);
    }
}

#[test]
fn subplans_keep_relative_order_and_child_order() {
    let hand_built = Arc::new(one_of_each());
    let plans = optimized().into_iter().map(|(_, _, plan)| plan).chain([hand_built]);
    for plan in plans {
        assert_eq!(plan.rooted_at(plan.root()), *plan, "a whole plan is its own root's subplan");
        assert_eq!(Plan::clone(&plan).finish(plan.root()), *plan, "and finishing it changes nothing");
        // Every subplan, or a spread of forty of them.
        for id in (0..plan.len()).step_by(plan.len().div_ceil(40)) {
            let id = NodeId(id as u32);
            let sub = plan.rooted_at(id);
            sub.check_invariants().unwrap();
            // Which original node each node of the subplan is: reachable
            // from `id`, in ascending id order.
            let mut reachable = vec![false; plan.len()];
            reachable[id.index()] = true;
            for (node, _) in plan.iter().rev() {
                if reachable[node.index()] {
                    plan.children(node).iter().for_each(|c| reachable[c.index()] = true);
                }
            }
            let originals: Vec<NodeId> =
                plan.iter().map(|(node, _)| node).filter(|n| reachable[n.index()]).collect();
            assert_eq!(sub.len(), originals.len());
            for ((new, copy), old) in sub.iter().zip(&originals) {
                let original = &plan[*old];
                assert_eq!(copy.op, original.op);
                assert_eq!(sub.join_preds(new), plan.join_preds(*old));
                assert_eq!((copy.stats, copy.self_cost), (original.stats, original.self_cost));
                assert_eq!(
                    (copy.total_cost, copy.exec, copy.order),
                    (original.total_cost, original.exec, original.order)
                );
                let children: Vec<NodeId> =
                    sub.children(new).iter().map(|c| originals[c.index()]).collect();
                assert_eq!(children, plan.children(*old), "child order of {old}");
            }
        }
    }
}

/// `(operator, join predicates, children)` of every node: what two plans
/// share when they differ only in the statistics and costs written on their
/// operators.
fn structure(plan: &Plan) -> Vec<(PhysicalOp, Vec<JoinPred>, Vec<NodeId>)> {
    plan.iter()
        .map(|(id, node)| (node.op, plan.join_preds(id).to_vec(), plan.children(id).to_vec()))
        .collect()
}

#[test]
fn shrinking_is_the_identity_when_everything_was_used_and_resolution_when_one_decision_was() {
    for (catalog, env, plan) in optimized() {
        // Every alternative of every choose-plan used once.
        let mut everything = UsageStats::new();
        for (id, node) in plan.iter().filter(|(_, node)| node.is_choose_plan()) {
            let alternatives = plan.children(id).len();
            for chosen_index in 0..alternatives {
                everything.record(&[StartupDecision {
                    choose_plan: id,
                    chosen_index,
                    alternatives,
                    chosen_cost: node.total_cost.total().lo(),
                }]);
            }
        }
        assert_eq!(shrink_plan(&plan, &everything), *plan);
        assert_eq!(shrink_plan(&plan, &UsageStats::new()), *plan, "nothing recorded: keep all");

        // One invocation recorded: what is left is what that invocation ran.
        let space = ParamSpace::new(&chain(&catalog), &catalog);
        for share in [0.02, 0.5, 0.97] {
            let bindings = space.bindings(&catalog, std::iter::repeat(share));
            let startup = evaluate_startup(&plan, &catalog, &env, &bindings);
            let mut usage = UsageStats::new();
            usage.record(&startup.decisions);
            let shrunk = shrink_plan(&plan, &usage);
            assert_eq!(structure(&shrunk), structure(&startup.resolved), "share {share}");
            assert!(!shrunk.is_dynamic());
            shrunk.check_invariants().unwrap();
        }
    }
}
