//! Bind-time decision caching: binding regions and the cached arbitration
//! outcome per region.
//!
//! The start-up decision procedure is cheap but not free — one cost
//! function evaluation per DAG node. A serving workload binds the same
//! statement thousands of times, and nearby bindings almost always select
//! the same alternative (the paper's Figure 3 regions are wide). The
//! decision cache exploits that: each binding is mapped to a coarse
//! **region key** (one bucket per host-variable selectivity plus a memory
//! bucket), and the resolved plan chosen for a region is replayed for
//! every later binding landing in the same region.

use std::sync::Arc;

use dqep_algebra::Scalar;
use dqep_catalog::Catalog;
use dqep_cost::Bindings;
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
/// Each host-variable selection `rel.attr < :v` is bucketed by the bound
/// value's position in the attribute's domain (`buckets` equal-width
/// buckets — the same uniform-domain model the cost functions use).
/// Unbound variables map to a sentinel bucket so they never alias a bound
/// region. The memory grant is bucketed in `MEMORY_BUCKET_PAGES`-page
/// steps.
#[must_use]
pub fn region_key(
    query: &Query,
    catalog: &Catalog,
    bindings: &Bindings,
    buckets: u32,
    memory_pages: f64,
) -> RegionKey {
    let buckets = buckets.max(1);
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
                let domain = catalog.attribute(sel.attr).domain_size;
                let frac = (v as f64 / domain).clamp(0.0, 1.0);
                ((frac * buckets as f64) as u32).min(buckets - 1)
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
    use dqep_catalog::{CatalogBuilder, SystemConfig};
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
