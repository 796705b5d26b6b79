//! Plan nodes: physical operators in a shared DAG.

use std::fmt;
use std::sync::Arc;

use dqep_algebra::{PhysicalOp, SortOrder};
use dqep_cost::{Cost, PlanStats};

use crate::table::DenseId;

/// Unique identifier of a plan node within one optimizer run.
///
/// Node identity (not structural equality) defines DAG sharing: two `Arc`s
/// to the same node are one node; the start-up evaluator costs each
/// distinct id exactly once, and Figure 6's plan size is the number of
/// distinct ids reachable from the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl DenseId for NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> NodeId {
        NodeId(index as u64)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operator of a (possibly dynamic) query evaluation plan.
///
/// Children are shared via [`Arc`]: alternative plans under a choose-plan
/// operator typically share large common subexpressions, which is what
/// keeps dynamic plans tractable ("all plans and alternative plans must be
/// represented as directed acyclic graphs with common subexpressions, not
/// as trees", paper Section 3).
#[derive(Debug)]
pub struct PlanNode {
    /// Unique id within the optimizer run that produced this plan.
    pub id: NodeId,
    /// The physical algorithm and its arguments.
    pub op: PhysicalOp,
    /// Child plans (see [`PhysicalOp::arity`]; choose-plan has ≥ 2).
    pub children: Vec<Arc<PlanNode>>,
    /// Output stream statistics under the *compile-time* environment
    /// (interval-valued for dynamic plans).
    pub stats: PlanStats,
    /// Cost of this operator alone, compile-time view.
    pub self_cost: Cost,
    /// Total cost of the subtree rooted here (self + children; for a
    /// choose-plan, the pointwise minimum over alternatives plus decision
    /// overhead), compile-time view.
    pub total_cost: Cost,
    /// The sort order this subplan delivers.
    pub order: SortOrder,
}

impl PlanNode {
    /// Whether this node is a choose-plan operator.
    #[must_use]
    pub fn is_choose_plan(&self) -> bool {
        matches!(self.op, PhysicalOp::ChoosePlan)
    }

    /// Whether the subtree contains any choose-plan operator, i.e. whether
    /// this is a *dynamic* plan (as opposed to a fully determined static
    /// plan).
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.is_choose_plan() || self.children.iter().any(|c| c.is_dynamic())
    }

    /// Validates structural invariants (arity, choose-plan fan-in ≥ 2)
    /// over the whole DAG; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(arity) = self.op.arity() {
            if self.children.len() != arity {
                return Err(format!(
                    "{} ({}) has {} children, expected {arity}",
                    self.id,
                    self.op.name(),
                    self.children.len()
                ));
            }
        } else if self.children.len() < 2 {
            return Err(format!(
                "{} (Choose-Plan) has {} children, expected >= 2",
                self.id,
                self.children.len()
            ));
        }
        for c in &self.children {
            c.check_invariants()?;
        }
        Ok(())
    }
}

/// Builder assigning fresh [`NodeId`]s; one per optimizer run.
///
/// Also the hand-construction entry point used by tests and examples that
/// build plans without the optimizer.
#[derive(Debug, Default)]
pub struct PlanNodeBuilder {
    next: u64,
}

impl PlanNodeBuilder {
    /// Creates a builder whose first node gets id 0.
    #[must_use]
    pub fn new() -> PlanNodeBuilder {
        PlanNodeBuilder::default()
    }

    /// Number of ids issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.next
    }

    /// Creates a node with a fresh id.
    pub fn node(
        &mut self,
        op: PhysicalOp,
        children: Vec<Arc<PlanNode>>,
        stats: PlanStats,
        self_cost: Cost,
    ) -> Arc<PlanNode> {
        let id = NodeId(self.next);
        self.next += 1;
        let order = op.delivered_order(children.iter().map(|c| c.order));
        let total_cost = match op {
            PhysicalOp::ChoosePlan => {
                let combined = children
                    .iter()
                    .map(|c| c.total_cost)
                    .reduce(|a, b| a.choose_min(b))
                    .unwrap_or(Cost::ZERO);
                combined + self_cost
            }
            _ => children
                .iter()
                .fold(self_cost, |acc, c| acc + c.total_cost),
        };
        Arc::new(PlanNode {
            id,
            op,
            children,
            stats,
            self_cost,
            total_cost,
            order,
        })
    }

    /// Creates a choose-plan node over `alternatives`.
    ///
    /// # Panics
    /// Panics if fewer than two alternatives are supplied.
    pub fn choose_plan(
        &mut self,
        alternatives: Vec<Arc<PlanNode>>,
        decision_cost: Cost,
    ) -> Arc<PlanNode> {
        assert!(
            alternatives.len() >= 2,
            "choose-plan needs at least two alternatives"
        );
        // All alternatives compute the same logical result; the stream
        // statistics are the interval hull over alternatives (they can
        // differ only through estimation granularity, not semantics).
        let stats = alternatives
            .iter()
            .map(|a| a.stats)
            .reduce(|a, b| PlanStats::new(a.card.hull(b.card), a.row_bytes))
            .expect("non-empty");
        self.node(PhysicalOp::ChoosePlan, alternatives, stats, decision_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::RelationId;
    use dqep_interval::Interval;

    fn scan(b: &mut PlanNodeBuilder, rel: u32, cost: f64) -> Arc<PlanNode> {
        b.node(
            PhysicalOp::FileScan {
                relation: RelationId(rel),
            },
            vec![],
            PlanStats::new(Interval::point(100.0), 512.0),
            Cost::point(0.0, cost),
        )
    }

    #[test]
    fn ids_are_fresh_and_sequential() {
        let mut b = PlanNodeBuilder::new();
        let a = scan(&mut b, 0, 1.0);
        let c = scan(&mut b, 1, 1.0);
        assert_eq!(a.id, NodeId(0));
        assert_eq!(c.id, NodeId(1));
        assert_eq!(b.issued(), 2);
    }

    #[test]
    fn total_cost_sums_children() {
        let mut b = PlanNodeBuilder::new();
        let s1 = scan(&mut b, 0, 1.0);
        let s2 = scan(&mut b, 1, 2.0);
        let join = b.node(
            PhysicalOp::HashJoin { predicates: vec![] },
            vec![s1, s2],
            PlanStats::new(Interval::point(10.0), 1024.0),
            Cost::point(0.5, 0.0),
        );
        assert_eq!(join.total_cost.total(), Interval::point(3.5));
        assert!(!join.is_dynamic());
        join.check_invariants().unwrap();
    }

    #[test]
    fn choose_plan_cost_is_min_plus_overhead() {
        let mut b = PlanNodeBuilder::new();
        let cheap_sometimes = b.node(
            PhysicalOp::FileScan { relation: RelationId(0) },
            vec![],
            PlanStats::new(Interval::new(0.0, 100.0), 512.0),
            Cost::cpu_only(Interval::new(0.0, 10.0)),
        );
        let steady = b.node(
            PhysicalOp::FileScan { relation: RelationId(0) },
            vec![],
            PlanStats::new(Interval::new(0.0, 100.0), 512.0),
            Cost::cpu_only(Interval::new(1.0, 1.0)),
        );
        let cp = b.choose_plan(
            vec![cheap_sometimes, steady],
            Cost::cpu_only(Interval::point(0.01)),
        );
        // Paper Section 5: [0,10] vs [1,1] + [0.01] => [0.01, 1.01].
        assert_eq!(cp.total_cost.total(), Interval::new(0.01, 1.01));
        assert!(cp.is_dynamic());
        assert!(cp.is_choose_plan());
        cp.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn choose_plan_rejects_single_alternative() {
        let mut b = PlanNodeBuilder::new();
        let s = scan(&mut b, 0, 1.0);
        let _ = b.choose_plan(vec![s], Cost::ZERO);
    }

    #[test]
    fn invariant_check_catches_bad_arity() {
        let mut b = PlanNodeBuilder::new();
        let s = scan(&mut b, 0, 1.0);
        let bad = b.node(
            PhysicalOp::HashJoin { predicates: vec![] },
            vec![s], // needs 2
            PlanStats::new(Interval::point(1.0), 512.0),
            Cost::ZERO,
        );
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn dynamic_detection_sees_nested_choose_plan() {
        let mut b = PlanNodeBuilder::new();
        let s1 = scan(&mut b, 0, 1.0);
        let s2 = scan(&mut b, 1, 2.0);
        let cp = b.choose_plan(vec![s1, s2.clone()], Cost::ZERO);
        let top = b.node(
            PhysicalOp::HashJoin { predicates: vec![] },
            vec![cp, s2],
            PlanStats::new(Interval::point(5.0), 1024.0),
            Cost::ZERO,
        );
        assert!(top.is_dynamic());
        assert!(!top.is_choose_plan());
    }
}
