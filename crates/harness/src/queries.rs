//! The paper's five experimental queries.

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep_catalog::{JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR, SELECTION_ATTR};
use dqep_cost::ParamSpace;

use crate::params::QUERY_RELATIONS;

/// A query together with the catalog it runs against.
#[derive(Debug)]
pub struct Workload {
    /// The synthetic catalog (relations of 100–1,000 records, unclustered
    /// B-trees on selection and join attributes).
    pub catalog: Catalog,
    /// The chain query with one unbound selection per relation.
    pub query: LogicalExpr,
    /// The query's parameter space: one selectivity per host variable
    /// (sampled selectivities become values through it) and the memory
    /// range.
    pub space: ParamSpace,
    /// Which of the paper's queries this is (1–5), when applicable.
    pub query_number: Option<usize>,
}

impl Workload {
    /// Number of uncertain selection predicates.
    #[must_use]
    pub fn uncertain_vars(&self) -> usize {
        self.space.vars().count()
    }
}

/// Builds an `n`-relation chain query over a fresh synthetic catalog:
/// `σ(R1) ⋈ σ(R2) ⋈ … ⋈ σ(Rn)` with join predicates
/// `Ri.jr = R(i+1).jl` and one unbound selection `Ri.a < :vi` per
/// relation. Deterministic in `seed`.
#[must_use]
pub fn chain_query(n: usize, seed: u64) -> Workload {
    let catalog = make_chain_catalog(&SyntheticSpec::paper(n, seed), SystemConfig::paper_1994());
    build_over(catalog, n, None)
}

/// The paper's query `k` (1–5): 1, 2, 4, 6, or 10 relations.
///
/// # Panics
/// Panics unless `1 <= k <= 5`.
#[must_use]
pub fn paper_query(k: usize, seed: u64) -> Workload {
    assert!((1..=5).contains(&k), "paper queries are numbered 1..=5");
    let n = QUERY_RELATIONS[k - 1];
    let catalog = make_chain_catalog(&SyntheticSpec::paper(n, seed), SystemConfig::paper_1994());
    build_over(catalog, n, Some(k))
}

fn build_over(catalog: Catalog, n: usize, query_number: Option<usize>) -> Workload {
    let rels = catalog.relations();
    let selected = |i: usize| {
        let attr = rels[i].attr_id(SELECTION_ATTR).expect("chain schema");
        let var = HostVar(i as u32);
        LogicalExpr::get(rels[i].id).select(SelectPred::unbound(attr, CompareOp::Lt, var))
    };
    let mut query = selected(0);
    for i in 1..n {
        let left_attr = rels[i - 1].attr_id(JOIN_RIGHT_ATTR).expect("chain schema");
        let right_attr = rels[i].attr_id(JOIN_LEFT_ATTR).expect("chain schema");
        query = query.join(selected(i), vec![JoinPred::new(left_attr, right_attr)]);
    }
    let space = ParamSpace::new(&query, &catalog);
    Workload {
        catalog,
        query,
        space,
        query_number,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_queries_have_documented_sizes() {
        for (k, &n) in QUERY_RELATIONS.iter().enumerate() {
            let w = paper_query(k + 1, 7);
            assert_eq!(w.catalog.relations().len(), n);
            assert_eq!(w.uncertain_vars(), n, "one unbound predicate per relation");
            assert_eq!(w.query.join_predicates().len(), n.saturating_sub(1));
            assert_eq!(w.query_number, Some(k + 1));
            w.query.validate(&w.catalog).unwrap();
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = paper_query(3, 11);
        let b = paper_query(3, 11);
        assert_eq!(format!("{}", a.query), format!("{}", b.query));
        assert_eq!(
            a.catalog.relations()[0].stats.cardinality,
            b.catalog.relations()[0].stats.cardinality
        );
    }

    #[test]
    #[should_panic(expected = "numbered 1..=5")]
    fn query_number_bounds() {
        let _ = paper_query(6, 0);
    }

    #[test]
    fn chain_query_arbitrary_size() {
        let w = chain_query(3, 5);
        assert_eq!(w.catalog.relations().len(), 3);
        assert_eq!(w.query_number, None);
        w.query.validate(&w.catalog).unwrap();
    }
}
