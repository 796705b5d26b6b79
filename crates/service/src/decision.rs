//! Bind-time decision caching: the start-up decision, memoized per exact
//! binding.
//!
//! The start-up decision procedure is cheap but not free — one cost
//! function evaluation per DAG node. A serving workload binds the same
//! statement thousands of times, mostly to a handful of bindings. The
//! decision cache memoizes the procedure: each binding is mapped to its
//! [`BindingKey`] — the value of every host variable of the statement and
//! the memory grant's bits — and the resolved plan chosen for a key is
//! replayed for every later binding with the same key. Equal keys are
//! equal bindings, so a replayed decision is the one the procedure would
//! make again (the paper's `g_i = d_i`): a hit needs no proof.

use std::sync::Arc;

use dqep_catalog::Catalog;
use dqep_cost::Bindings;
use dqep_plan::Plan;
use dqep_sql::Query;

/// One exact binding of a statement: the value bound to each of its host
/// variables (`None`: unbound), in the order of the statement's variable
/// names, plus the bits of the memory grant in pages. Bindings with equal
/// keys get the same cached start-up decision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BindingKey {
    values: Vec<Option<i64>>,
    memory_bits: u64,
}

/// Computes the key of `bindings` under a `memory_pages` grant for
/// `query`: two keys are equal exactly when the statement's host
/// variables are bound to the same values (each variable keyed by name, so
/// binding `x` and leaving `y` unbound never collides with the reverse)
/// and the grants are equal bit for bit.
// Compat shim for the frozen `benchmark/`: `_catalog` and `_buckets` keep the signature it calls and are unread; the next `[benchmark]` PR deletes them (ROADMAP).
#[must_use]
pub fn region_key(
    query: &Query,
    _catalog: &Catalog,
    bindings: &Bindings,
    _buckets: u32,
    memory_pages: f64,
) -> BindingKey {
    BindingKey {
        values: query.host_vars.values().map(|&var| bindings.value(var)).collect(),
        memory_bits: memory_pages.to_bits(),
    }
}

/// One memoized start-up decision: the alternative chosen at one exact
/// binding, ready to execute without re-evaluating any cost function.
#[derive(Debug, Clone)]
pub struct CachedDecision {
    /// The resolved (choose-plan-free) plan the decision procedure picked.
    pub resolved: Arc<Plan>,
    /// Its predicted run time at the binding the entry is keyed by.
    pub predicted_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_sql::parse_query;

    fn fixture(sql: &str) -> (Catalog, Query) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).attr("b", 1000.0))
            .build()
            .unwrap();
        let q = parse_query(sql, &cat).unwrap();
        (cat, q)
    }

    fn key(q: &Query, cat: &Catalog, binds: &[(&str, i64)], memory: f64) -> BindingKey {
        region_key(q, cat, &q.bindings(binds).unwrap(), 16, memory)
    }

    #[test]
    fn keys_are_equal_exactly_when_the_bindings_are() {
        let (cat, q) = fixture("SELECT * FROM r WHERE r.a < :x AND r.b < :y");
        let bindings = [
            vec![],
            vec![("x", 100)],
            vec![("x", 101)],
            vec![("y", 100)],
            vec![("x", 100), ("y", 100)],
            vec![("x", 100), ("y", 101)],
            vec![("x", -5), ("y", 10_000)],
        ];
        for (i, a) in bindings.iter().enumerate() {
            for (j, b) in bindings.iter().enumerate() {
                let equal = key(&q, &cat, a, 64.0) == key(&q, &cat, b, 64.0);
                assert_eq!(equal, i == j, "{a:?} / {b:?}");
            }
        }
        // Neither the bucket count nor the order of the binds matters.
        let b = q.bindings(&[("y", 7), ("x", 3)]).unwrap();
        assert_eq!(region_key(&q, &cat, &b, 1, 64.0), key(&q, &cat, &[("x", 3), ("y", 7)], 64.0));
    }

    #[test]
    fn a_bound_and_an_unbound_variable_do_not_swap() {
        let (cat, q) = fixture("SELECT * FROM r WHERE r.a < :x AND r.b < :y");
        assert_ne!(key(&q, &cat, &[("y", 5)], 64.0), key(&q, &cat, &[("x", 5)], 64.0));
    }

    #[test]
    fn the_memory_grant_is_keyed_by_its_bits() {
        let (cat, q) = fixture("SELECT * FROM r WHERE r.a < :x");
        let at = |memory| key(&q, &cat, &[("x", 100)], memory);
        assert_eq!(at(64.0), at(64.0));
        assert_ne!(at(64.0), at(65.0), "one page apart");
        assert_ne!(at(64.0), at(64.0 + 64.0 * f64::EPSILON), "one ulp apart");
    }
}
