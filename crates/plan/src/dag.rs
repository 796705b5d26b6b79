//! Analytics over plan DAGs: node counts, contained plans, sharing.
//!
//! A [`Plan`] lists children before parents, so each figure is one loop
//! over the table filling a vector indexed by node id.

use crate::plan::Plan;

/// One value per node, each computed from the node's kind and its
/// children's values; returns the root's.
fn fold<T: Copy>(plan: &Plan, f: impl Fn(bool, &mut dyn Iterator<Item = T>) -> T) -> T {
    let mut values: Vec<T> = Vec::with_capacity(plan.len());
    for (id, node) in plan.iter() {
        let value = f(
            node.is_choose_plan(),
            &mut plan.children(id).iter().map(|c| values[c.index()]),
        );
        values.push(value);
    }
    *values.last().expect("a plan has a root")
}

/// Number of distinct operator nodes in the DAG — the plan-size metric of
/// the paper's Figure 6 ("a count of operator nodes in the directed
/// acyclic graph, i.e., in the physical representation of the plan").
#[must_use]
pub fn node_count(plan: &Plan) -> usize {
    plan.len()
}

/// Number of choose-plan operators in the DAG.
#[must_use]
pub fn choose_plan_count(plan: &Plan) -> usize {
    plan.choose_plan_count()
}

/// Number of complete *static* plans contained in the dynamic plan: a
/// choose-plan adds up its alternatives' counts, ordinary operators
/// multiply their children's. This is the quantity that grows
/// exponentially with query complexity while the node count does not
/// (paper Section 3). One pass over the plan; the optimizer does not
/// count it — whoever prints it does.
#[must_use]
pub fn contained_plan_count(plan: &Plan) -> f64 {
    fold(plan, |choose_plan, contained| {
        if choose_plan {
            contained.sum::<f64>()
        } else {
            contained.product::<f64>()
        }
    })
}

/// Number of nodes the plan would have as a *tree* (shared subexpressions
/// expanded). Contrasted with [`node_count`] this quantifies how much DAG
/// sharing saves.
#[must_use]
pub fn tree_node_count(plan: &Plan) -> f64 {
    fold(plan, |_, sizes| 1.0 + sizes.sum::<f64>())
}

/// Longest root-to-leaf path length (in nodes).
#[must_use]
pub fn depth(plan: &Plan) -> usize {
    fold(plan, |_, depths| 1 + depths.max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NodeId;
    use dqep_algebra::PhysicalOp;
    use dqep_catalog::RelationId;
    use dqep_cost::{Cost, PlanStats};
    use dqep_interval::Interval;

    fn scan(p: &mut Plan, rel: u32) -> NodeId {
        p.push(
            PhysicalOp::FileScan { relation: RelationId(rel) },
            &[],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.0, 1.0),
        )
    }

    /// A diamond: choose-plan over two sorts sharing one scan.
    fn diamond() -> Plan {
        let mut p = Plan::new();
        let shared = scan(&mut p, 0);
        let f1 = p.push(
            PhysicalOp::Sort {
                attr: dqep_catalog::AttrId { relation: RelationId(0), index: 0 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.1, 0.0),
        );
        let f2 = p.push(
            PhysicalOp::Sort {
                attr: dqep_catalog::AttrId { relation: RelationId(0), index: 1 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.2, 0.0),
        );
        p.choose_plan(&[f1, f2], Cost::point(0.01, 0.0));
        p
    }

    #[test]
    fn node_count_deduplicates_shared() {
        let plan = diamond();
        assert_eq!(node_count(&plan), 4); // scan + 2 sorts + choose-plan
        assert_eq!(tree_node_count(&plan), 5.0); // scan counted twice in a tree
    }

    #[test]
    fn counts() {
        let plan = diamond();
        assert_eq!(choose_plan_count(&plan), 1);
        assert_eq!(contained_plan_count(&plan), 2.0);
        assert_eq!(depth(&plan), 3);
    }

    #[test]
    fn contained_plans_multiply_across_independent_choices() {
        // Join of two choose-plans, each with 2 alternatives: 4 static plans.
        let mut p = Plan::new();
        let cp1 = {
            let s1 = scan(&mut p, 0);
            let s2 = scan(&mut p, 0);
            p.choose_plan(&[s1, s2], Cost::ZERO)
        };
        let cp2 = {
            let s1 = scan(&mut p, 1);
            let s2 = scan(&mut p, 1);
            p.choose_plan(&[s1, s2], Cost::ZERO)
        };
        p.push(
            PhysicalOp::HashJoin,
            &[cp1, cp2],
            &[],
            PlanStats::new(Interval::point(1.0), 1024.0),
            Cost::ZERO,
        );
        assert_eq!(contained_plan_count(&p), 4.0);
        assert_eq!(choose_plan_count(&p), 2);
        assert_eq!(node_count(&p), 7);
    }

    #[test]
    fn single_node_plan() {
        let mut p = Plan::new();
        scan(&mut p, 0);
        assert_eq!(node_count(&p), 1);
        assert_eq!(contained_plan_count(&p), 1.0);
        assert_eq!(depth(&p), 1);
        assert_eq!(choose_plan_count(&p), 0);
    }
}
