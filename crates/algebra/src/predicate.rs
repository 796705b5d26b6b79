//! Selection and join predicates.

use std::fmt;

use dqep_catalog::AttrId;

use crate::types::{CompareOp, HostVar};

/// The right-hand side of a selection predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// A literal integer constant known at compile-time.
    Const(i64),
    /// A host variable bound at start-up-time. Predicates over host
    /// variables are *unbound*: their selectivity is unknown at
    /// compile-time (interval `[0, 1]`).
    Host(HostVar),
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Host(h) => write!(f, "{h}"),
        }
    }
}

/// A single-attribute selection predicate `attr OP rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectPred {
    /// The attribute being restricted.
    pub attr: AttrId,
    /// The comparison operator.
    pub op: CompareOp,
    /// Constant or host variable.
    pub rhs: Scalar,
}

impl SelectPred {
    /// `attr OP constant` — bound at compile-time.
    #[must_use]
    pub fn bound(attr: AttrId, op: CompareOp, value: i64) -> SelectPred {
        SelectPred {
            attr,
            op,
            rhs: Scalar::Const(value),
        }
    }

    /// `attr OP :hostvar` — unbound until start-up-time.
    #[must_use]
    pub fn unbound(attr: AttrId, op: CompareOp, var: HostVar) -> SelectPred {
        SelectPred {
            attr,
            op,
            rhs: Scalar::Host(var),
        }
    }

    /// Whether the predicate references a host variable.
    #[must_use]
    pub fn is_unbound(&self) -> bool {
        matches!(self.rhs, Scalar::Host(_))
    }

    /// The host variable, if unbound.
    #[must_use]
    pub fn host_var(&self) -> Option<HostVar> {
        match self.rhs {
            Scalar::Host(h) => Some(h),
            Scalar::Const(_) => None,
        }
    }
}

impl fmt::Display for SelectPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.rhs)
    }
}

/// An equi-join predicate `left = right` between attributes of two
/// different relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinPred {
    /// Attribute of one side.
    pub left: AttrId,
    /// Attribute of the other side.
    pub right: AttrId,
}

impl JoinPred {
    /// Creates a join predicate.
    ///
    /// # Panics
    /// Panics if both attributes belong to the same relation.
    #[must_use]
    pub fn new(left: AttrId, right: AttrId) -> JoinPred {
        assert_ne!(
            left.relation, right.relation,
            "join predicate must span two relations"
        );
        JoinPred { left, right }
    }

    /// The same predicate with sides swapped (equi-joins are symmetric).
    #[must_use]
    pub fn flipped(self) -> JoinPred {
        JoinPred {
            left: self.right,
            right: self.left,
        }
    }
}

impl fmt::Display for JoinPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::RelationId;

    fn attr(rel: u32, idx: u32) -> AttrId {
        AttrId {
            relation: RelationId(rel),
            index: idx,
        }
    }

    #[test]
    fn bound_and_unbound() {
        let b = SelectPred::bound(attr(0, 0), CompareOp::Lt, 10);
        assert!(!b.is_unbound());
        assert_eq!(b.host_var(), None);

        let u = SelectPred::unbound(attr(0, 0), CompareOp::Lt, HostVar(3));
        assert!(u.is_unbound());
        assert_eq!(u.host_var(), Some(HostVar(3)));
    }

    #[test]
    fn join_pred_sides() {
        let p = JoinPred::new(attr(0, 1), attr(1, 2));
        assert_eq!(p.flipped().left, attr(1, 2));
        assert_eq!(p.flipped().flipped(), p);
    }

    #[test]
    #[should_panic(expected = "span two relations")]
    fn self_join_pred_rejected() {
        let _ = JoinPred::new(attr(0, 0), attr(0, 1));
    }

    #[test]
    fn display() {
        let u = SelectPred::unbound(attr(0, 0), CompareOp::Lt, HostVar(1));
        assert_eq!(u.to_string(), "R0.#0 < :v1");
        let j = JoinPred::new(attr(0, 1), attr(1, 0));
        assert_eq!(j.to_string(), "R0.#1 = R1.#0");
    }
}
