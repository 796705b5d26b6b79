//! The physical algebra: the algorithms of the execution engine.

use std::fmt;

use dqep_catalog::{AttrId, IndexId, RelationId};

use crate::predicate::{JoinPred, SelectPred};
use crate::properties::SortOrder;

/// A physical operator: an algorithm plus its compile-time arguments.
///
/// Children are *not* stored here — plan trees/DAGs (in `dqep-plan`) pair a
/// `PhysicalOp` with child links. This keeps the algebra crate free of plan
/// representation concerns, as in the Volcano optimizer generator where the
/// physical algebra is a model-provided module.
///
/// Conventions:
/// * `HashJoin` **builds on its left** input and probes with the right; the
///   join-commutativity transformation generates the swapped variant, which
///   is how the optimizer considers both build sides (paper Figure 2).
/// * The join predicates of `HashJoin`, `MergeJoin` and `IndexJoin` are
///   not stored here either: a plan keeps them in one list beside its child
///   list (`dqep_plan::Plan::join_preds`), which is what lets the operator
///   be `Copy` — a plan node owns no heap memory.
/// * `MergeJoin` requires both inputs sorted on the attributes of its
///   first predicate; that predicate's `left` belongs to the left child.
/// * `IndexJoin` has one child (the outer); the inner relation is accessed
///   through the named index for each outer record, with the first
///   predicate as the indexed one (its `right` is the inner, indexed
///   attribute), remaining predicates and `residual` applied after the
///   fetch.
/// * `ChoosePlan` has two or more children, all computing the same result;
///   at start-up-time its decision procedure re-evaluates the alternatives'
///   cost functions under the actual bindings and runs the cheapest child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhysicalOp {
    /// Sequential scan of a stored relation.
    FileScan {
        /// Relation to scan.
        relation: RelationId,
    },
    /// Full scan through a B-tree, delivering key order. For an
    /// unclustered index every record costs a random fetch, so this is only
    /// attractive when an interesting order is requested.
    BtreeScan {
        /// Relation to scan.
        relation: RelationId,
        /// Index to traverse.
        index: IndexId,
        /// The index key (cached to avoid catalog lookups).
        key_attr: AttrId,
    },
    /// Predicate evaluation over any input.
    Filter {
        /// The predicate (possibly unbound until start-up-time).
        predicate: SelectPred,
    },
    /// Combined retrieval + selection through a B-tree range probe:
    /// descends to the predicate's boundary and scans only qualifying keys.
    FilterBtreeScan {
        /// Relation to access.
        relation: RelationId,
        /// Index to probe; must be on `predicate.attr`.
        index: IndexId,
        /// The (possibly unbound) range/equality predicate.
        predicate: SelectPred,
    },
    /// Hash join on conjunctive equi-join predicates; builds an in-memory
    /// (or partitioned) table on the LEFT input, probes with the right.
    HashJoin,
    /// Merge join over inputs sorted on the first predicate.
    MergeJoin,
    /// Index nested-loop join: for each outer (child) record, probe the
    /// inner relation's index with the first predicate.
    IndexJoin {
        /// The inner relation.
        inner: RelationId,
        /// Index on the inner join attribute.
        index: IndexId,
        /// The inner relation's selection predicate, applied to fetched
        /// records (present when the logical inner was `Select(Get(S))`).
        residual: Option<SelectPred>,
    },
    /// Sort enforcer: sorts its input ascending on one attribute.
    Sort {
        /// Sort key.
        attr: AttrId,
    },
    /// Choose-plan enforcer ("plan robustness", paper Table 1): delays the
    /// choice among equivalent alternative subplans to start-up-time.
    ChoosePlan,
}

impl PhysicalOp {
    /// Number of plan children the operator takes; `None` for the variadic
    /// choose-plan.
    #[must_use]
    pub fn arity(&self) -> Option<usize> {
        match self {
            PhysicalOp::FileScan { .. }
            | PhysicalOp::BtreeScan { .. }
            | PhysicalOp::FilterBtreeScan { .. } => Some(0),
            PhysicalOp::Filter { .. } | PhysicalOp::Sort { .. } | PhysicalOp::IndexJoin { .. } => {
                Some(1)
            }
            PhysicalOp::HashJoin | PhysicalOp::MergeJoin => Some(2),
            PhysicalOp::ChoosePlan => None,
        }
    }

    /// Whether this is an enforcer (an algorithm with no logical
    /// counterpart, associated instead with the property it enforces).
    #[must_use]
    pub fn is_enforcer(&self) -> bool {
        matches!(self, PhysicalOp::Sort { .. } | PhysicalOp::ChoosePlan)
    }

    /// Whether this operator reads a base relation.
    #[must_use]
    pub fn is_scan(&self) -> bool {
        matches!(
            self,
            PhysicalOp::FileScan { .. }
                | PhysicalOp::BtreeScan { .. }
                | PhysicalOp::FilterBtreeScan { .. }
        )
    }

    /// The sort order this operator delivers, given its children's
    /// delivered orders (one entry per child, in order) and its join
    /// predicates. Taken as an iterator so a plan builder can answer from
    /// its child links without collecting them first.
    #[must_use]
    pub fn delivered_order(
        &self,
        child_orders: impl IntoIterator<Item = SortOrder>,
        preds: &[JoinPred],
    ) -> SortOrder {
        let mut child_orders = child_orders.into_iter();
        match self {
            PhysicalOp::FileScan { .. } => SortOrder::None,
            PhysicalOp::BtreeScan { key_attr, .. } => SortOrder::Asc(*key_attr),
            PhysicalOp::FilterBtreeScan { predicate, .. } => SortOrder::Asc(predicate.attr),
            PhysicalOp::Filter { .. } => child_orders.next().unwrap_or_default(),
            PhysicalOp::HashJoin => SortOrder::None,
            PhysicalOp::MergeJoin => preds
                .first()
                .map(|p| SortOrder::Asc(p.left))
                .unwrap_or_default(),
            // The outer's order is preserved by an index nested-loop join.
            PhysicalOp::IndexJoin { .. } => child_orders.next().unwrap_or_default(),
            PhysicalOp::Sort { attr } => SortOrder::Asc(*attr),
            // A choose-plan only guarantees an order all alternatives share.
            PhysicalOp::ChoosePlan => match child_orders.next() {
                Some(first) if child_orders.all(|o| o == first) => first,
                _ => SortOrder::None,
            },
        }
    }

    /// Short algorithm name as used in plan displays and the paper's
    /// figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::FileScan { .. } => "File-Scan",
            PhysicalOp::BtreeScan { .. } => "B-tree-Scan",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::FilterBtreeScan { .. } => "Filter-B-tree-Scan",
            PhysicalOp::HashJoin => "Hash-Join",
            PhysicalOp::MergeJoin => "Merge-Join",
            PhysicalOp::IndexJoin { .. } => "Index-Join",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::ChoosePlan => "Choose-Plan",
        }
    }

    /// The selection predicate evaluated by this operator, if any.
    #[must_use]
    pub fn select_predicate(&self) -> Option<&SelectPred> {
        match self {
            PhysicalOp::Filter { predicate } | PhysicalOp::FilterBtreeScan { predicate, .. } => {
                Some(predicate)
            }
            PhysicalOp::IndexJoin { residual, .. } => residual.as_ref(),
            _ => None,
        }
    }

    /// The operator with its arguments as plan displays show it, `preds`
    /// being the join predicates its plan holds for it (empty for any other
    /// operator).
    #[must_use]
    pub fn label<'a>(&'a self, preds: &'a [JoinPred]) -> OpLabel<'a> {
        OpLabel { op: self, preds }
    }
}

/// A [`PhysicalOp`] with its join predicates, displayable: what
/// [`PhysicalOp::label`] returns.
#[derive(Debug, Clone, Copy)]
pub struct OpLabel<'a> {
    op: &'a PhysicalOp,
    preds: &'a [JoinPred],
}

impl fmt::Display for OpLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            PhysicalOp::FileScan { relation } => write!(f, "File-Scan {relation}"),
            PhysicalOp::BtreeScan { relation, key_attr, .. } => {
                write!(f, "B-tree-Scan {relation} on {key_attr}")
            }
            PhysicalOp::Filter { predicate } => write!(f, "Filter[{predicate}]"),
            PhysicalOp::FilterBtreeScan { relation, predicate, .. } => {
                write!(f, "Filter-B-tree-Scan {relation}[{predicate}]")
            }
            PhysicalOp::HashJoin => write!(f, "Hash-Join[{}]", preds(self.preds)),
            PhysicalOp::MergeJoin => write!(f, "Merge-Join[{}]", preds(self.preds)),
            PhysicalOp::IndexJoin { inner, .. } => {
                write!(f, "Index-Join[{}] into {inner}", preds(self.preds))
            }
            PhysicalOp::Sort { attr } => write!(f, "Sort on {attr}"),
            PhysicalOp::ChoosePlan => f.write_str("Choose-Plan"),
        }
    }
}

fn preds(ps: &[JoinPred]) -> String {
    ps.iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(" and ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CompareOp, HostVar};

    fn attr(rel: u32, idx: u32) -> AttrId {
        AttrId {
            relation: RelationId(rel),
            index: idx,
        }
    }

    fn join_pred() -> JoinPred {
        JoinPred::new(attr(0, 1), attr(1, 1))
    }

    #[test]
    fn arity() {
        assert_eq!(PhysicalOp::FileScan { relation: RelationId(0) }.arity(), Some(0));
        assert_eq!(
            PhysicalOp::Filter {
                predicate: SelectPred::bound(attr(0, 0), CompareOp::Lt, 1)
            }
            .arity(),
            Some(1)
        );
        assert_eq!(PhysicalOp::HashJoin.arity(), Some(2));
        assert_eq!(PhysicalOp::ChoosePlan.arity(), None);
        assert_eq!(
            PhysicalOp::IndexJoin {
                inner: RelationId(1),
                index: IndexId(0),
                residual: None,
            }
            .arity(),
            Some(1)
        );
    }

    #[test]
    fn enforcers() {
        assert!(PhysicalOp::Sort { attr: attr(0, 0) }.is_enforcer());
        assert!(PhysicalOp::ChoosePlan.is_enforcer());
        assert!(!PhysicalOp::FileScan { relation: RelationId(0) }.is_enforcer());
    }

    #[test]
    fn delivered_orders() {
        let a = attr(0, 0);
        assert_eq!(
            PhysicalOp::FileScan { relation: RelationId(0) }.delivered_order([], &[]),
            SortOrder::None
        );
        assert_eq!(
            PhysicalOp::Sort { attr: a }.delivered_order([SortOrder::None], &[]),
            SortOrder::Asc(a)
        );
        assert_eq!(
            PhysicalOp::BtreeScan {
                relation: RelationId(0),
                index: IndexId(0),
                key_attr: a
            }
            .delivered_order([], &[]),
            SortOrder::Asc(a)
        );
        // Filter passes order through.
        let filt = PhysicalOp::Filter {
            predicate: SelectPred::unbound(a, CompareOp::Lt, HostVar(0)),
        };
        assert_eq!(filt.delivered_order([SortOrder::Asc(a)], &[]), SortOrder::Asc(a));
        // Merge join delivers its first predicate's left attribute's order.
        let sorted = [SortOrder::Asc(attr(0, 1)), SortOrder::Asc(attr(1, 1))];
        let second = JoinPred::new(attr(0, 2), attr(1, 2));
        assert_eq!(
            PhysicalOp::MergeJoin.delivered_order(sorted, &[join_pred(), second]),
            SortOrder::Asc(attr(0, 1))
        );
        // Hash join destroys order.
        let both = [SortOrder::Asc(a), SortOrder::Asc(a)];
        assert_eq!(PhysicalOp::HashJoin.delivered_order(both, &[join_pred()]), SortOrder::None);
    }

    #[test]
    fn choose_plan_order_is_common_order() {
        let a = attr(0, 0);
        let cp = PhysicalOp::ChoosePlan;
        assert_eq!(
            cp.delivered_order([SortOrder::Asc(a), SortOrder::Asc(a)], &[]),
            SortOrder::Asc(a)
        );
        assert_eq!(
            cp.delivered_order([SortOrder::Asc(a), SortOrder::None], &[]),
            SortOrder::None
        );
        assert_eq!(cp.delivered_order([], &[]), SortOrder::None);
    }

    #[test]
    fn predicate_accessors() {
        let p = SelectPred::unbound(attr(0, 0), CompareOp::Lt, HostVar(0));
        let f = PhysicalOp::Filter { predicate: p };
        assert_eq!(f.select_predicate(), Some(&p));
        assert!(PhysicalOp::HashJoin.select_predicate().is_none());
    }

    #[test]
    fn labels_list_the_join_predicates_a_plan_holds() {
        let second = JoinPred::new(attr(0, 2), attr(1, 2));
        let on = [join_pred(), second];
        assert_eq!(
            PhysicalOp::HashJoin.label(&on).to_string(),
            "Hash-Join[R0.#1 = R1.#1 and R0.#2 = R1.#2]"
        );
        assert_eq!(PhysicalOp::MergeJoin.label(&on[..1]).to_string(), "Merge-Join[R0.#1 = R1.#1]");
        let index = PhysicalOp::IndexJoin {
            inner: RelationId(1),
            index: IndexId(0),
            residual: None,
        };
        assert_eq!(index.label(&on[1..]).to_string(), "Index-Join[R0.#2 = R1.#2] into R1");
        assert_eq!(PhysicalOp::Sort { attr: attr(0, 0) }.label(&[]).to_string(), "Sort on R0.#0");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PhysicalOp::ChoosePlan.name(), "Choose-Plan");
        assert_eq!(
            PhysicalOp::FileScan { relation: RelationId(0) }.name(),
            "File-Scan"
        );
        assert_eq!(
            PhysicalOp::FilterBtreeScan {
                relation: RelationId(0),
                index: IndexId(0),
                predicate: SelectPred::bound(attr(0, 0), CompareOp::Lt, 1)
            }
            .name(),
            "Filter-B-tree-Scan"
        );
    }
}
