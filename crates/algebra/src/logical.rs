//! The logical algebra: Get-Set, Select, Join.

use std::fmt;

use dqep_catalog::{Catalog, RelationId};

use crate::predicate::{JoinPred, SelectPred};
use crate::properties::RelSet;

/// A logical algebra expression — the optimizer's input.
///
/// Mirrors the paper's logical algebra (Table 1): `Get-Set` retrieves a
/// stored relation, `Select` applies a predicate, `Join` is a binary
/// equi-join. Projections are implicit (every operator passes all columns
/// through); the paper's experiments likewise use selections and joins
/// only.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalExpr {
    /// Retrieve all records of a stored relation.
    Get {
        /// The relation to read.
        relation: RelationId,
    },
    /// Restrict the input by a predicate.
    Select {
        /// Input expression.
        input: Box<LogicalExpr>,
        /// The (possibly unbound) predicate.
        predicate: SelectPred,
    },
    /// Join two inputs on zero or more equi-join predicates.
    Join {
        /// Left input.
        left: Box<LogicalExpr>,
        /// Right input.
        right: Box<LogicalExpr>,
        /// Conjunctive equi-join predicates; must span the two inputs.
        predicates: Vec<JoinPred>,
    },
}

/// Validation errors for logical expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalError {
    /// A referenced relation id is not in the catalog.
    UnknownRelation(RelationId),
    /// A predicate references an attribute of a relation not available at
    /// that point in the expression.
    AttributeOutOfScope(String),
    /// The same base relation appears twice (self-joins need aliasing,
    /// which the prototype — like the paper's — does not model).
    DuplicateRelation(RelationId),
    /// A join predicate does not span the two join inputs.
    PredicateDoesNotSpan(String),
}

impl fmt::Display for LogicalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            LogicalError::AttributeOutOfScope(s) => write!(f, "attribute out of scope: {s}"),
            LogicalError::DuplicateRelation(r) => write!(f, "relation {r} appears twice"),
            LogicalError::PredicateDoesNotSpan(s) => {
                write!(f, "join predicate does not span inputs: {s}")
            }
        }
    }
}

impl std::error::Error for LogicalError {}

impl LogicalExpr {
    /// Convenience constructor for `Get`.
    #[must_use]
    pub fn get(relation: RelationId) -> LogicalExpr {
        LogicalExpr::Get { relation }
    }

    /// Convenience constructor wrapping `self` in a `Select`.
    #[must_use]
    pub fn select(self, predicate: SelectPred) -> LogicalExpr {
        LogicalExpr::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Convenience constructor joining `self` with `right`.
    #[must_use]
    pub fn join(self, right: LogicalExpr, predicates: Vec<JoinPred>) -> LogicalExpr {
        LogicalExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
            predicates,
        }
    }

    /// The set of base relations referenced.
    #[must_use]
    pub fn relations(&self) -> RelSet {
        match self {
            LogicalExpr::Get { relation } => RelSet::singleton(*relation),
            LogicalExpr::Select { input, .. } => input.relations(),
            LogicalExpr::Join { left, right, .. } => left.relations().union(right.relations()),
        }
    }

    /// All selection predicates, in depth-first order.
    #[must_use]
    pub fn select_predicates(&self) -> Vec<SelectPred> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let LogicalExpr::Select { predicate, .. } = e {
                out.push(*predicate);
            }
        });
        out
    }

    /// All join predicates, in depth-first order.
    #[must_use]
    pub fn join_predicates(&self) -> Vec<JoinPred> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let LogicalExpr::Join { predicates, .. } = e {
                out.extend(predicates.iter().copied());
            }
        });
        out
    }

    /// Number of operators in the expression tree.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Whether the expression is a bare `Get`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn walk(&self, f: &mut impl FnMut(&LogicalExpr)) {
        f(self);
        match self {
            LogicalExpr::Get { .. } => {}
            LogicalExpr::Select { input, .. } => input.walk(f),
            LogicalExpr::Join { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
        }
    }

    /// Validates the expression against a catalog: all relations exist, no
    /// base relation occurs twice, every predicate is in scope, and join
    /// predicates span their join's inputs.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), LogicalError> {
        let mut seen = RelSet::EMPTY;
        self.validate_inner(catalog, &mut seen)?;
        Ok(())
    }

    fn validate_inner(
        &self,
        catalog: &Catalog,
        seen: &mut RelSet,
    ) -> Result<RelSet, LogicalError> {
        match self {
            LogicalExpr::Get { relation } => {
                if relation.0 as usize >= catalog.relations().len() {
                    return Err(LogicalError::UnknownRelation(*relation));
                }
                if seen.contains(*relation) {
                    return Err(LogicalError::DuplicateRelation(*relation));
                }
                *seen = seen.union(RelSet::singleton(*relation));
                Ok(RelSet::singleton(*relation))
            }
            LogicalExpr::Select { input, predicate } => {
                let scope = input.validate_inner(catalog, seen)?;
                if !scope.contains(predicate.attr.relation) {
                    return Err(LogicalError::AttributeOutOfScope(predicate.to_string()));
                }
                let rel = catalog.relation(predicate.attr.relation);
                if predicate.attr.index as usize >= rel.attributes.len() {
                    return Err(LogicalError::AttributeOutOfScope(predicate.to_string()));
                }
                Ok(scope)
            }
            LogicalExpr::Join {
                left,
                right,
                predicates,
            } => {
                let ls = left.validate_inner(catalog, seen)?;
                let rs = right.validate_inner(catalog, seen)?;
                for p in predicates {
                    let spans = (ls.contains(p.left.relation) && rs.contains(p.right.relation))
                        || (rs.contains(p.left.relation) && ls.contains(p.right.relation));
                    if !spans {
                        return Err(LogicalError::PredicateDoesNotSpan(p.to_string()));
                    }
                }
                Ok(ls.union(rs))
            }
        }
    }
}

impl fmt::Display for LogicalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalExpr::Get { relation } => write!(f, "Get({relation})"),
            LogicalExpr::Select { input, predicate } => {
                write!(f, "Select[{predicate}]({input})")
            }
            LogicalExpr::Join {
                left,
                right,
                predicates,
            } => {
                write!(f, "Join[")?;
                for (i, p) in predicates.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]({left}, {right})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CompareOp, HostVar};
    use dqep_catalog::{AttrId, CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 100, 512, |r| r.attr("a", 100.0).attr("j", 50.0))
            .relation("s", 200, 512, |r| r.attr("a", 200.0).attr("j", 80.0))
            .build()
            .unwrap()
    }

    fn attr(cat: &Catalog, rel: &str, name: &str) -> AttrId {
        cat.relation_by_name(rel).unwrap().attr_id(name).unwrap()
    }

    fn two_way(cat: &Catalog) -> LogicalExpr {
        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        let sel_r = SelectPred::unbound(attr(cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let sel_s = SelectPred::unbound(attr(cat, "s", "a"), CompareOp::Lt, HostVar(1));
        LogicalExpr::get(r)
            .select(sel_r)
            .join(
                LogicalExpr::get(s).select(sel_s),
                vec![JoinPred::new(attr(cat, "r", "j"), attr(cat, "s", "j"))],
            )
    }

    #[test]
    fn relations_and_predicates() {
        let cat = catalog();
        let q = two_way(&cat);
        assert_eq!(q.relations().len(), 2);
        assert_eq!(q.select_predicates().len(), 2);
        assert_eq!(q.join_predicates().len(), 1);
        assert_eq!(q.len(), 5); // join + 2 selects + 2 gets
    }

    #[test]
    fn validate_accepts_well_formed() {
        let cat = catalog();
        two_way(&cat).validate(&cat).unwrap();
    }

    #[test]
    fn validate_rejects_unknown_relation() {
        let cat = catalog();
        let q = LogicalExpr::get(RelationId(9));
        assert_eq!(
            q.validate(&cat).unwrap_err(),
            LogicalError::UnknownRelation(RelationId(9))
        );
    }

    #[test]
    fn validate_rejects_duplicate_relation() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let q = LogicalExpr::get(r).join(
            LogicalExpr::get(r),
            vec![],
        );
        assert_eq!(q.validate(&cat).unwrap_err(), LogicalError::DuplicateRelation(r));
    }

    #[test]
    fn validate_rejects_out_of_scope_predicate() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        // Select on s.a over a scan of r.
        let bad = SelectPred::bound(attr(&cat, "s", "a"), CompareOp::Eq, 1);
        let q = LogicalExpr::get(r).select(bad);
        assert!(matches!(
            q.validate(&cat).unwrap_err(),
            LogicalError::AttributeOutOfScope(_)
        ));
    }

    #[test]
    fn validate_rejects_non_spanning_join_pred() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        // Predicate relating r to a third relation that is not an input.
        let foreign = AttrId {
            relation: RelationId(7),
            index: 0,
        };
        let q = LogicalExpr::get(r).join(
            LogicalExpr::get(s),
            vec![JoinPred::new(attr(&cat, "r", "j"), foreign)],
        );
        assert!(matches!(
            q.validate(&cat).unwrap_err(),
            LogicalError::PredicateDoesNotSpan(_)
        ));
    }

    #[test]
    fn display_round_trips_structure() {
        let cat = catalog();
        let text = two_way(&cat).to_string();
        assert!(text.starts_with("Join["));
        assert!(text.contains("Select["));
        assert!(text.contains("Get(R0)"));
    }
}
