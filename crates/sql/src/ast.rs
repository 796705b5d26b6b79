//! The parsed query and its host-variable interface.

use std::collections::BTreeMap;

use dqep_algebra::{HostVar, JoinPred, LogicalExpr, PhysProps, SelectPred};
use dqep_catalog::AttrId;
use dqep_cost::Bindings;

/// A predicate as written in the query text (for diagnostics and tooling).
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedPredicate {
    /// An equi-join predicate between two relations.
    Join(JoinPred),
    /// A single-relation selection predicate.
    Select(SelectPred),
}

/// A parsed embedded query: the logical expression plus the mapping from
/// host-variable *names* (as written, `:x`) to the positional [`HostVar`]
/// ids the algebra uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The logical algebra expression, ready for the optimizer.
    pub expr: LogicalExpr,
    /// name → id, in order of first occurrence in the query text.
    pub host_vars: BTreeMap<String, HostVar>,
    /// All predicates, in source order.
    pub predicates: Vec<ParsedPredicate>,
    /// `ORDER BY rel.attr` (ascending), when present.
    pub order_by: Option<AttrId>,
}

impl Query {
    /// Host-variable names in id order (the order of first occurrence).
    #[must_use]
    pub fn host_var_names(&self) -> Vec<&str> {
        let mut pairs: Vec<(&str, HostVar)> = self
            .host_vars
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        pairs.sort_by_key(|(_, v)| *v);
        pairs.into_iter().map(|(n, _)| n).collect()
    }

    /// The id for a host-variable name.
    #[must_use]
    pub fn host_var(&self, name: &str) -> Option<HostVar> {
        self.host_vars.get(name).copied()
    }

    /// The physical properties to optimize for: sorted on the `ORDER BY`
    /// attribute, or no requirement. Pass to
    /// `Optimizer::optimize_with_props`.
    #[must_use]
    pub fn required_props(&self) -> PhysProps {
        match self.order_by {
            Some(attr) => PhysProps::sorted(attr),
            None => PhysProps::ANY,
        }
    }

    /// Builds [`Bindings`] from `(name, value)` pairs; fails on unknown
    /// names so typos surface early. Memory can be added afterwards with
    /// [`Bindings::with_memory`].
    pub fn bindings(&self, values: &[(&str, i64)]) -> Result<Bindings, String> {
        let mut b = Bindings::new();
        for (name, value) in values {
            let var = self
                .host_var(name)
                .ok_or_else(|| format!("unknown host variable :{name}"))?;
            b = b.with_value(var, *value);
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, RelSet};
    use dqep_catalog::{AttrId, RelationId};

    fn sample() -> Query {
        let attr = AttrId {
            relation: RelationId(0),
            index: 0,
        };
        let mut host_vars = BTreeMap::new();
        host_vars.insert("zeta".to_string(), HostVar(0));
        host_vars.insert("alpha".to_string(), HostVar(1));
        Query {
            expr: LogicalExpr::get(RelationId(0)),
            host_vars,
            predicates: vec![ParsedPredicate::Select(SelectPred::unbound(
                attr,
                CompareOp::Lt,
                HostVar(0),
            ))],
            order_by: None,
        }
    }

    #[test]
    fn required_props_follow_order_by() {
        let mut q = sample();
        assert_eq!(q.required_props(), PhysProps::ANY);
        let attr = AttrId {
            relation: RelationId(0),
            index: 0,
        };
        q.order_by = Some(attr);
        assert_eq!(q.required_props(), PhysProps::sorted(attr));
    }

    #[test]
    fn names_come_back_in_id_order() {
        let q = sample();
        // `zeta` was first in the text (id 0) even though `alpha` sorts
        // first alphabetically.
        assert_eq!(q.host_var_names(), vec!["zeta", "alpha"]);
        assert_eq!(q.host_var("alpha"), Some(HostVar(1)));
        assert_eq!(q.host_var("nope"), None);
    }

    #[test]
    fn bindings_by_name() {
        let q = sample();
        let b = q.bindings(&[("zeta", 10), ("alpha", 20)]).unwrap();
        assert_eq!(b.value(HostVar(0)), Some(10));
        assert_eq!(b.value(HostVar(1)), Some(20));
        assert!(q.bindings(&[("typo", 1)]).is_err());
        assert_eq!(q.expr.relations(), RelSet::singleton(RelationId(0)));
    }
}
