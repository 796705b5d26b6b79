//! Query context: the normalized form of an input expression.

use std::collections::BTreeMap;

use dqep_algebra::{HostVar, JoinPred, LogicalExpr, RelSet, SelectPred};
use dqep_catalog::{AttrId, Catalog, RelationId};

use crate::error::OptimizerError;

/// The optimizer's normalized view of one query.
///
/// The memo fingerprints groups by the *set of base relations* they cover,
/// which requires the query's selections and join predicates in a
/// relation-indexed form:
///
/// * selections are attached to the relation they restrict (the queries of
///   the paper place each selection directly above its Get, and the
///   context preserves any stack of selections per relation);
/// * join predicates form a join *graph* over relations, consulted when
///   transformation rules propose new joins (no cross products unless the
///   original query contains them).
#[derive(Debug, Clone)]
pub struct QueryContext {
    /// All base relations referenced, in first-appearance order.
    pub relations: Vec<RelationId>,
    /// The set form of `relations`.
    pub all_rels: RelSet,
    /// Selection predicates per relation (conjunctive; usually 0 or 1).
    pub selects: BTreeMap<RelationId, Vec<SelectPred>>,
    /// All equi-join predicates of the query.
    pub join_preds: Vec<JoinPred>,
    /// Host variable → the attribute its predicate restricts (used by
    /// multi-point probing to map sampled selectivities to values).
    pub host_attrs: BTreeMap<HostVar, AttrId>,
    /// The join graph as adjacency sets, indexed by relation id: the
    /// relations each relation shares a join predicate with.
    adjacent: Vec<RelSet>,
}

impl QueryContext {
    /// Builds a context from a validated expression.
    pub fn build(query: &LogicalExpr, catalog: &Catalog) -> Result<QueryContext, OptimizerError> {
        query.validate(catalog)?;
        let all_rels = query.relations();
        let n = all_rels.len() as usize;
        if n > 64 {
            return Err(OptimizerError::TooManyRelations(n));
        }
        let relations: Vec<RelationId> = all_rels.iter().collect();
        let mut selects: BTreeMap<RelationId, Vec<SelectPred>> = BTreeMap::new();
        let mut host_attrs = BTreeMap::new();
        for p in query.select_predicates() {
            selects.entry(p.attr.relation).or_default().push(p);
            if let Some(h) = p.host_var() {
                host_attrs.entry(h).or_insert(p.attr);
            }
        }
        let join_preds = query.join_predicates();
        let mut adjacent = vec![RelSet::EMPTY; relations.last().map_or(0, |r| r.0 as usize + 1)];
        for p in &join_preds {
            let (l, r) = (p.left.relation, p.right.relation);
            adjacent[l.0 as usize] = adjacent[l.0 as usize].union(RelSet::singleton(r));
            adjacent[r.0 as usize] = adjacent[r.0 as usize].union(RelSet::singleton(l));
        }
        Ok(QueryContext {
            relations,
            all_rels,
            selects,
            join_preds,
            host_attrs,
            adjacent,
        })
    }

    /// The join predicates connecting two disjoint relation sets, oriented
    /// so the `left` attribute belongs to `left_set`.
    pub fn preds_between(
        &self,
        left_set: RelSet,
        right_set: RelSet,
    ) -> impl Iterator<Item = JoinPred> + Clone + '_ {
        self.join_preds.iter().filter_map(move |p| {
            let (l, r) = (p.left.relation, p.right.relation);
            if left_set.contains(l) && right_set.contains(r) {
                Some(*p)
            } else if left_set.contains(r) && right_set.contains(l) {
                Some(p.flipped())
            } else {
                None
            }
        })
    }

    /// Every relation joined by a predicate to some member of `set`
    /// (members of `set` included when they join each other).
    #[must_use]
    pub fn neighbors(&self, set: RelSet) -> RelSet {
        set.iter()
            .filter_map(|r| self.adjacent.get(r.0 as usize))
            .fold(RelSet::EMPTY, |acc, adj| acc.union(*adj))
    }

    /// Whether two relation sets are connected by at least one join
    /// predicate.
    #[must_use]
    pub fn connected(&self, a: RelSet, b: RelSet) -> bool {
        !self.neighbors(a).is_disjoint(b)
    }

    /// The join predicates fully *internal* to a relation set.
    pub fn preds_within(&self, set: RelSet) -> impl Iterator<Item = &JoinPred> + '_ {
        self.join_preds
            .iter()
            .filter(move |p| set.contains(p.left.relation) && set.contains(p.right.relation))
    }

    /// Selection predicates on one relation (empty slice if none).
    #[must_use]
    pub fn selects_on(&self, rel: RelationId) -> &[SelectPred] {
        self.selects.get(&rel).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of uncertain (host-variable) selection predicates.
    #[must_use]
    pub fn uncertain_predicates(&self) -> usize {
        self.host_attrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, HostVar};
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn fixture() -> (Catalog, LogicalExpr) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 100, 512, |r| r.attr("a", 100.0).attr("j", 50.0))
            .relation("s", 200, 512, |r| r.attr("a", 200.0).attr("j", 60.0))
            .relation("t", 300, 512, |r| r.attr("a", 300.0).attr("j", 70.0))
            .build()
            .unwrap();
        let ids: Vec<RelationId> = cat.relations().iter().map(|r| r.id).collect();
        let a = |i: usize, name: &str| cat.relations()[i].attr_id(name).unwrap();
        // (select(r) join select(s)) join t, chain r-s, s-t.
        let q = LogicalExpr::get(ids[0])
            .select(SelectPred::unbound(a(0, "a"), CompareOp::Lt, HostVar(0)))
            .join(
                LogicalExpr::get(ids[1])
                    .select(SelectPred::unbound(a(1, "a"), CompareOp::Lt, HostVar(1))),
                vec![JoinPred::new(a(0, "j"), a(1, "j"))],
            )
            .join(
                LogicalExpr::get(ids[2]),
                vec![JoinPred::new(a(1, "j"), a(2, "j"))],
            );
        (cat, q)
    }

    #[test]
    fn builds_context() {
        let (cat, q) = fixture();
        let ctx = QueryContext::build(&q, &cat).unwrap();
        assert_eq!(ctx.relations.len(), 3);
        assert_eq!(ctx.join_preds.len(), 2);
        assert_eq!(ctx.uncertain_predicates(), 2);
        assert_eq!(ctx.selects_on(ctx.relations[0]).len(), 1);
        assert_eq!(ctx.selects_on(ctx.relations[2]).len(), 0);
    }

    #[test]
    fn preds_between_orients_predicates() {
        let (cat, q) = fixture();
        let ctx = QueryContext::build(&q, &cat).unwrap();
        let r = RelSet::singleton(ctx.relations[0]);
        let s = RelSet::singleton(ctx.relations[1]);
        let t = RelSet::singleton(ctx.relations[2]);

        let rs: Vec<JoinPred> = ctx.preds_between(r, s).collect();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].left.relation, ctx.relations[0]);

        // Flipped orientation.
        let sr = ctx.preds_between(s, r).next().unwrap();
        assert_eq!(sr.left.relation, ctx.relations[1]);

        // r and t are not directly connected in the chain.
        assert!(!ctx.connected(r, t));
        assert!(ctx.connected(r.union(s), t));
    }

    #[test]
    fn preds_within_counts_internal_edges() {
        let (cat, q) = fixture();
        let ctx = QueryContext::build(&q, &cat).unwrap();
        assert_eq!(ctx.preds_within(ctx.all_rels).count(), 2);
        let rs = RelSet::from_iter([ctx.relations[0], ctx.relations[1]]);
        assert_eq!(ctx.preds_within(rs).count(), 1);
        assert_eq!(ctx.preds_within(RelSet::singleton(ctx.relations[0])).count(), 0);
    }

    #[test]
    fn invalid_query_is_reported() {
        let (cat, _) = fixture();
        let bogus = LogicalExpr::get(RelationId(42));
        assert!(matches!(
            QueryContext::build(&bogus, &cat),
            Err(OptimizerError::InvalidQuery(_))
        ));
    }
}
