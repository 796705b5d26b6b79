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
/// * `MergeJoin` requires both inputs sorted on the attributes of
///   `predicates[0]`; `predicates[0].left` belongs to the left child.
/// * `IndexJoin` has one child (the outer); the inner relation is accessed
///   through the named index for each outer record, with `predicates[0]`
///   as the indexed predicate (`predicates[0].right` is the inner, indexed
///   attribute), remaining predicates and `residual` applied after the
///   fetch.
/// * `ChoosePlan` has two or more children, all computing the same result;
///   at start-up-time its decision procedure re-evaluates the alternatives'
///   cost functions under the actual bindings and runs the cheapest child.
#[derive(Debug, Clone, PartialEq)]
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
    /// Hash join; builds an in-memory (or partitioned) table on the LEFT
    /// input, probes with the right.
    HashJoin {
        /// Conjunctive equi-join predicates.
        predicates: Vec<JoinPred>,
    },
    /// Merge join over inputs sorted on `predicates[0]`.
    MergeJoin {
        /// Conjunctive equi-join predicates.
        predicates: Vec<JoinPred>,
    },
    /// Index nested-loop join: for each outer (child) record, probe the
    /// inner relation's index.
    IndexJoin {
        /// Join predicates; `predicates[0].right` is the indexed inner
        /// attribute.
        predicates: Vec<JoinPred>,
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
            PhysicalOp::HashJoin { .. } | PhysicalOp::MergeJoin { .. } => Some(2),
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
    /// delivered orders (one entry per child, in order). Taken as an
    /// iterator so a plan builder can answer from its child links without
    /// collecting them first.
    #[must_use]
    pub fn delivered_order(&self, child_orders: impl IntoIterator<Item = SortOrder>) -> SortOrder {
        let mut child_orders = child_orders.into_iter();
        match self {
            PhysicalOp::FileScan { .. } => SortOrder::None,
            PhysicalOp::BtreeScan { key_attr, .. } => SortOrder::Asc(*key_attr),
            PhysicalOp::FilterBtreeScan { predicate, .. } => SortOrder::Asc(predicate.attr),
            PhysicalOp::Filter { .. } => child_orders.next().unwrap_or_default(),
            PhysicalOp::HashJoin { .. } => SortOrder::None,
            PhysicalOp::MergeJoin { predicates } => predicates
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
            PhysicalOp::HashJoin { .. } => "Hash-Join",
            PhysicalOp::MergeJoin { .. } => "Merge-Join",
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

    /// The join predicates evaluated by this operator, if any.
    #[must_use]
    pub fn join_predicates(&self) -> Option<&[JoinPred]> {
        match self {
            PhysicalOp::HashJoin { predicates }
            | PhysicalOp::MergeJoin { predicates }
            | PhysicalOp::IndexJoin { predicates, .. } => Some(predicates),
            _ => None,
        }
    }
}

impl fmt::Display for PhysicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalOp::FileScan { relation } => write!(f, "File-Scan {relation}"),
            PhysicalOp::BtreeScan { relation, key_attr, .. } => {
                write!(f, "B-tree-Scan {relation} on {key_attr}")
            }
            PhysicalOp::Filter { predicate } => write!(f, "Filter[{predicate}]"),
            PhysicalOp::FilterBtreeScan { relation, predicate, .. } => {
                write!(f, "Filter-B-tree-Scan {relation}[{predicate}]")
            }
            PhysicalOp::HashJoin { predicates } => {
                write!(f, "Hash-Join[{}]", preds(predicates))
            }
            PhysicalOp::MergeJoin { predicates } => {
                write!(f, "Merge-Join[{}]", preds(predicates))
            }
            PhysicalOp::IndexJoin { predicates, inner, .. } => {
                write!(f, "Index-Join[{}] into {inner}", preds(predicates))
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
        assert_eq!(PhysicalOp::HashJoin { predicates: vec![join_pred()] }.arity(), Some(2));
        assert_eq!(PhysicalOp::ChoosePlan.arity(), None);
        assert_eq!(
            PhysicalOp::IndexJoin {
                predicates: vec![join_pred()],
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
            PhysicalOp::FileScan { relation: RelationId(0) }.delivered_order([]),
            SortOrder::None
        );
        assert_eq!(
            PhysicalOp::Sort { attr: a }.delivered_order([SortOrder::None]),
            SortOrder::Asc(a)
        );
        assert_eq!(
            PhysicalOp::BtreeScan {
                relation: RelationId(0),
                index: IndexId(0),
                key_attr: a
            }
            .delivered_order([]),
            SortOrder::Asc(a)
        );
        // Filter passes order through.
        let filt = PhysicalOp::Filter {
            predicate: SelectPred::unbound(a, CompareOp::Lt, HostVar(0)),
        };
        assert_eq!(filt.delivered_order([SortOrder::Asc(a)]), SortOrder::Asc(a));
        // Merge join delivers the left predicate attribute's order.
        let mj = PhysicalOp::MergeJoin { predicates: vec![join_pred()] };
        assert_eq!(
            mj.delivered_order([SortOrder::Asc(attr(0, 1)), SortOrder::Asc(attr(1, 1))]),
            SortOrder::Asc(attr(0, 1))
        );
        // Hash join destroys order.
        let hj = PhysicalOp::HashJoin { predicates: vec![join_pred()] };
        assert_eq!(
            hj.delivered_order([SortOrder::Asc(a), SortOrder::Asc(a)]),
            SortOrder::None
        );
    }

    #[test]
    fn choose_plan_order_is_common_order() {
        let a = attr(0, 0);
        let cp = PhysicalOp::ChoosePlan;
        assert_eq!(
            cp.delivered_order([SortOrder::Asc(a), SortOrder::Asc(a)]),
            SortOrder::Asc(a)
        );
        assert_eq!(
            cp.delivered_order([SortOrder::Asc(a), SortOrder::None]),
            SortOrder::None
        );
        assert_eq!(cp.delivered_order([]), SortOrder::None);
    }

    #[test]
    fn predicate_accessors() {
        let p = SelectPred::unbound(attr(0, 0), CompareOp::Lt, HostVar(0));
        let f = PhysicalOp::Filter { predicate: p };
        assert_eq!(f.select_predicate(), Some(&p));
        assert!(f.join_predicates().is_none());
        let hj = PhysicalOp::HashJoin { predicates: vec![join_pred()] };
        assert_eq!(hj.join_predicates().unwrap().len(), 1);
        assert!(hj.select_predicate().is_none());
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
