//! Analytics over plan DAGs: node counts, contained plans, sharing.
//!
//! Everything here is one walk: [`fold_dag`] computes a value per
//! *distinct* node from its children's values, memoized in a table indexed
//! by [`NodeId`]; the counts below are closures over it.

use std::sync::Arc;

use crate::node::{NodeId, PlanNode};
use crate::table::{DenseId, IdTable};

/// Bottom-up fold over the DAG: `f` is called once per distinct node,
/// children before parents (post-order), with the table of values computed
/// so far — which holds a value for every child of the node. Returns the
/// table (the root's value is at `root.id`).
pub fn fold_dag<T>(
    root: &Arc<PlanNode>,
    f: &mut impl FnMut(&Arc<PlanNode>, &IdTable<NodeId, T>) -> T,
) -> IdTable<NodeId, T> {
    fn go<T>(
        node: &Arc<PlanNode>,
        done: &mut IdTable<NodeId, T>,
        f: &mut impl FnMut(&Arc<PlanNode>, &IdTable<NodeId, T>) -> T,
    ) {
        if done.contains(node.id) {
            return;
        }
        for c in &node.children {
            go(c, done, f);
        }
        let value = f(node, done);
        done.insert(node.id, value);
    }
    // A parent is built after its children, so no id below the root
    // exceeds the root's; plans stitched from several builders grow the
    // table on demand.
    let mut done = IdTable::with_capacity(root.id.index() + 1);
    go(root, &mut done, f);
    done
}

/// Visits each *distinct* node of the DAG exactly once, children before
/// parents (post-order).
pub fn walk_dag(root: &Arc<PlanNode>, f: &mut impl FnMut(&Arc<PlanNode>)) {
    fold_dag(root, &mut |node, _| f(node));
}

/// The values `fold_dag` computed for `node`'s children, in child order.
fn child_values<'a, T: Copy>(
    node: &'a PlanNode,
    done: &'a IdTable<NodeId, T>,
) -> impl Iterator<Item = T> + 'a {
    node.children
        .iter()
        .map(|c| *done.get(c.id).expect("children are folded before parents"))
}

/// The size figures of a plan DAG, from one walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagSummary {
    /// Distinct operator nodes — the plan-size metric of the paper's
    /// Figure 6 ("a count of operator nodes in the directed acyclic graph,
    /// i.e., in the physical representation of the plan").
    pub nodes: usize,
    /// Choose-plan operators among them.
    pub choose_plans: usize,
    /// Complete *static* plans contained in the dynamic plan: a
    /// choose-plan adds up its alternatives' counts, ordinary operators
    /// multiply their children's. This is the quantity that grows
    /// exponentially with query complexity while the node count does not
    /// (paper Section 3).
    pub contained_plans: f64,
}

/// Node count, choose-plan count and contained-plan count together.
#[must_use]
pub fn summarize(root: &Arc<PlanNode>) -> DagSummary {
    let mut choose_plans = 0;
    let contained = fold_dag(root, &mut |node, done| {
        if node.is_choose_plan() {
            choose_plans += 1;
            child_values(node, done).sum::<f64>()
        } else {
            child_values(node, done).product::<f64>()
        }
    });
    DagSummary {
        nodes: contained.len(),
        choose_plans,
        contained_plans: *contained.get(root.id).expect("the root is folded last"),
    }
}

/// Number of distinct operator nodes in the DAG (see [`DagSummary::nodes`]).
#[must_use]
pub fn node_count(root: &Arc<PlanNode>) -> usize {
    summarize(root).nodes
}

/// Number of choose-plan operators in the DAG.
#[must_use]
pub fn choose_plan_count(root: &Arc<PlanNode>) -> usize {
    summarize(root).choose_plans
}

/// Number of complete *static* plans contained in the dynamic plan (see
/// [`DagSummary::contained_plans`]).
#[must_use]
pub fn contained_plan_count(root: &Arc<PlanNode>) -> f64 {
    summarize(root).contained_plans
}

/// Number of nodes the plan would have as a *tree* (shared subexpressions
/// expanded). Contrasted with [`node_count`] this quantifies how much DAG
/// sharing saves.
#[must_use]
pub fn tree_node_count(root: &Arc<PlanNode>) -> f64 {
    let sizes = fold_dag(root, &mut |node, done| {
        1.0 + child_values(node, done).sum::<f64>()
    });
    *sizes.get(root.id).expect("the root is folded last")
}

/// Longest root-to-leaf path length (in nodes).
#[must_use]
pub fn depth(root: &Arc<PlanNode>) -> usize {
    let depths = fold_dag(root, &mut |node, done| {
        1 + child_values(node, done).max().unwrap_or(0)
    });
    *depths.get(root.id).expect("the root is folded last")
}

/// All distinct nodes in post-order (children before parents). The order
/// is deterministic for a given DAG.
#[must_use]
pub fn topological_order(root: &Arc<PlanNode>) -> Vec<Arc<PlanNode>> {
    let mut out = Vec::new();
    walk_dag(root, &mut |n| out.push(Arc::clone(n)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PlanNodeBuilder;
    use dqep_algebra::PhysicalOp;
    use dqep_catalog::RelationId;
    use dqep_cost::{Cost, PlanStats};
    use dqep_interval::Interval;

    fn scan(b: &mut PlanNodeBuilder, rel: u32) -> Arc<PlanNode> {
        b.node(
            PhysicalOp::FileScan { relation: RelationId(rel) },
            vec![],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.0, 1.0),
        )
    }

    /// A diamond: choose-plan over two filters sharing one scan.
    fn diamond() -> (Arc<PlanNode>, Arc<PlanNode>) {
        let mut b = PlanNodeBuilder::new();
        let shared = scan(&mut b, 0);
        let f1 = b.node(
            PhysicalOp::Sort {
                attr: dqep_catalog::AttrId { relation: RelationId(0), index: 0 },
            },
            vec![shared.clone()],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.1, 0.0),
        );
        let f2 = b.node(
            PhysicalOp::Sort {
                attr: dqep_catalog::AttrId { relation: RelationId(0), index: 1 },
            },
            vec![shared.clone()],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.2, 0.0),
        );
        let cp = b.choose_plan(vec![f1, f2], Cost::point(0.01, 0.0));
        (cp, shared)
    }

    #[test]
    fn node_count_deduplicates_shared() {
        let (root, _) = diamond();
        assert_eq!(node_count(&root), 4); // scan + 2 sorts + choose-plan
        assert_eq!(tree_node_count(&root), 5.0); // scan counted twice in a tree
    }

    #[test]
    fn walk_visits_post_order_once() {
        let (root, shared) = diamond();
        let order = topological_order(&root);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0].id, shared.id, "children come before parents");
        assert_eq!(order[3].id, root.id);
    }

    #[test]
    fn counts() {
        let (root, _) = diamond();
        assert_eq!(choose_plan_count(&root), 1);
        assert_eq!(contained_plan_count(&root), 2.0);
        assert_eq!(depth(&root), 3);
    }

    #[test]
    fn contained_plans_multiply_across_independent_choices() {
        // Join of two choose-plans, each with 2 alternatives: 4 static plans.
        let mut b = PlanNodeBuilder::new();
        let cp1 = {
            let s1 = scan(&mut b, 0);
            let s2 = scan(&mut b, 0);
            b.choose_plan(vec![s1, s2], Cost::ZERO)
        };
        let cp2 = {
            let s1 = scan(&mut b, 1);
            let s2 = scan(&mut b, 1);
            b.choose_plan(vec![s1, s2], Cost::ZERO)
        };
        let join = b.node(
            PhysicalOp::HashJoin { predicates: vec![] },
            vec![cp1, cp2],
            PlanStats::new(Interval::point(1.0), 1024.0),
            Cost::ZERO,
        );
        assert_eq!(contained_plan_count(&join), 4.0);
        assert_eq!(choose_plan_count(&join), 2);
        assert_eq!(node_count(&join), 7);
    }

    #[test]
    fn single_node_plan() {
        let mut b = PlanNodeBuilder::new();
        let s = scan(&mut b, 0);
        assert_eq!(node_count(&s), 1);
        assert_eq!(contained_plan_count(&s), 1.0);
        assert_eq!(depth(&s), 1);
        assert_eq!(choose_plan_count(&s), 0);
    }
}
