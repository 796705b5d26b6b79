//! Bind-time decision caching: binding regions and the cached arbitration
//! outcome per region.
//!
//! The start-up decision procedure is cheap but not free — one cost
//! function evaluation per DAG node. A serving workload binds the same
//! statement thousands of times, and nearby bindings almost always select
//! the same alternative (the paper's Figure 3 regions are wide). The
//! decision cache exploits that: each binding is mapped to a coarse
//! **region key** (one bucket per host-variable selectivity, read through
//! the cost model's one value-to-selectivity map, plus a memory bucket),
//! and the resolved plan chosen for a region is replayed for every later
//! binding landing in the same region.

use std::sync::Arc;

use dqep_algebra::Scalar;
use dqep_catalog::Catalog;
use dqep_cost::{Bindings, SelectivityModel};
use dqep_plan::Plan;
use dqep_sql::{ParsedPredicate, Query};

/// A coarse equivalence class of bindings: one bucket index per unbound
/// selection predicate (in source order) plus a trailing memory bucket.
/// Bindings with equal keys get the same cached start-up decision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegionKey(Vec<u32>);

/// How many pages one memory bucket spans.
const MEMORY_BUCKET_PAGES: f64 = 16.0;

/// Computes the region key for `bindings` against `query`.
///
/// Each host-variable selection `rel.attr OP :v` is bucketed by the bound
/// value's selectivity — [`SelectivityModel::value_selectivity`], the map
/// the start-up cost functions read it through — into `buckets`
/// equal-width buckets of `[0, 1]`. Unbound variables map to a sentinel
/// bucket so they never alias a bound region. The memory grant is
/// bucketed in `MEMORY_BUCKET_PAGES`-page steps.
#[must_use]
pub fn region_key(
    query: &Query,
    catalog: &Catalog,
    bindings: &Bindings,
    buckets: u32,
    memory_pages: f64,
) -> RegionKey {
    let buckets = buckets.max(1);
    let model = SelectivityModel::new(catalog);
    let mut key = Vec::new();
    for pred in &query.predicates {
        let ParsedPredicate::Select(sel) = pred else {
            continue;
        };
        let Scalar::Host(var) = sel.rhs else {
            continue;
        };
        let bucket = match bindings.value(var) {
            Some(v) => {
                let s = model.value_selectivity(sel, v);
                ((s * buckets as f64) as u32).min(buckets - 1)
            }
            None => u32::MAX,
        };
        key.push(bucket);
    }
    key.push((memory_pages.max(0.0) / MEMORY_BUCKET_PAGES) as u32);
    RegionKey(key)
}

/// One memoized start-up arbitration: the alternative chosen for a binding
/// region, ready to execute without re-evaluating any cost function.
#[derive(Debug, Clone)]
pub struct CachedDecision {
    /// The resolved (choose-plan-free) plan the decision procedure picked.
    pub resolved: Arc<Plan>,
    /// Its predicted run time under the bindings that created the entry.
    pub predicted_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, Histogram, SystemConfig};
    use dqep_sql::parse_query;

    fn fixture() -> (Catalog, Query) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap();
        let q = parse_query("SELECT * FROM r WHERE r.a < :x", &cat).unwrap();
        (cat, q)
    }

    #[test]
    fn nearby_bindings_share_a_region() {
        let (cat, q) = fixture();
        let k1 = region_key(&q, &cat, &q.bindings(&[("x", 100)]).unwrap(), 10, 64.0);
        let k2 = region_key(&q, &cat, &q.bindings(&[("x", 150)]).unwrap(), 10, 64.0);
        let k3 = region_key(&q, &cat, &q.bindings(&[("x", 900)]).unwrap(), 10, 64.0);
        assert_eq!(k1, k2, "values in the same decile share a region");
        assert_ne!(k1, k3, "distant values do not");
    }

    #[test]
    fn memory_and_unbound_vars_split_regions() {
        let (cat, q) = fixture();
        let b = q.bindings(&[("x", 100)]).unwrap();
        let small = region_key(&q, &cat, &b, 10, 16.0);
        let large = region_key(&q, &cat, &b, 10, 512.0);
        assert_ne!(small, large, "memory grant is part of the region");
        let unbound = region_key(&q, &cat, &Bindings::new(), 10, 16.0);
        assert_ne!(unbound, small, "unbound variables get a sentinel bucket");
    }

    /// The key the decision cache used before it read selectivities
    /// through the one map: the value's share of the attribute's domain.
    fn value_share_key(q: &Query, cat: &Catalog, v: i64, buckets: u32, memory: f64) -> RegionKey {
        let mut key = Vec::new();
        for pred in &q.predicates {
            if let ParsedPredicate::Select(sel) = pred {
                let frac = (v as f64 / cat.attribute(sel.attr).domain_size).clamp(0.0, 1.0);
                key.push(((frac * buckets as f64) as u32).min(buckets - 1));
            }
        }
        key.push((memory / MEMORY_BUCKET_PAGES) as u32);
        RegionKey(key)
    }

    #[test]
    fn uniform_keys_equal_the_value_share_keys() {
        let (cat, q) = fixture();
        for buckets in [1, 7, 10, 16] {
            for v in (-20..1_030).step_by(3) {
                let b = q.bindings(&[("x", v)]).unwrap();
                assert_eq!(
                    region_key(&q, &cat, &b, buckets, 64.0),
                    value_share_key(&q, &cat, v, buckets, 64.0),
                    "v = {v}, {buckets} buckets"
                );
            }
        }
    }

    #[test]
    fn histogram_keys_bucket_selectivity_not_value() {
        let (mut cat, q) = fixture();
        // 900 of 1 000 values below 100, the rest spread over 100..1000.
        let values = (0..900).map(|i| i % 100).chain((0..100).map(|i| 100 + i * 9));
        let attr = cat.relation_by_name("r").unwrap().attr_id("a").unwrap();
        cat.set_histogram(attr, Histogram::build(values, 20).unwrap());
        let key = |v| region_key(&q, &cat, &q.bindings(&[("x", v)]).unwrap(), 10, 64.0);
        // 300 and 800 are deciles 3 and 8 of the domain, but both select
        // over 90 % of the rows: one selectivity bucket.
        assert_ne!(value_share_key(&q, &cat, 300, 10, 64.0), value_share_key(&q, &cat, 800, 10, 64.0));
        assert_eq!(key(300), key(800));
        // 20 and 80 share the first value decile, yet select 18 % and
        // 72 %: different buckets.
        assert_eq!(value_share_key(&q, &cat, 20, 10, 64.0), value_share_key(&q, &cat, 80, 10, 64.0));
        assert_ne!(key(20), key(80));
    }

    #[test]
    fn extreme_values_clamp_into_edge_buckets() {
        let (cat, q) = fixture();
        let lo = region_key(&q, &cat, &q.bindings(&[("x", -50)]).unwrap(), 8, 64.0);
        let lo2 = region_key(&q, &cat, &q.bindings(&[("x", 0)]).unwrap(), 8, 64.0);
        let hi = region_key(&q, &cat, &q.bindings(&[("x", 10_000)]).unwrap(), 8, 64.0);
        let hi2 = region_key(&q, &cat, &q.bindings(&[("x", 999)]).unwrap(), 8, 64.0);
        assert_eq!(lo, lo2);
        assert_eq!(hi, hi2);
        assert_ne!(lo, hi);
    }
}
