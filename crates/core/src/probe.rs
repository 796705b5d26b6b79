//! Multi-point probing: the heuristic comparison of Section 3.
//!
//! "A more realistic, though heuristic, approach is to evaluate the cost
//! function for a number of possible parameter values and to surmise that
//! if one plan is estimated more expensive than the other for all these
//! parameter values, it is always the more expensive plan and therefore can
//! be dropped from further consideration."
//!
//! Probing maps sampled selectivities to host-variable values (via the
//! predicate attribute's domain) and sampled memory grants, then evaluates
//! both plans' cost functions at each sample with the ordinary start-up
//! machinery. It is *heuristic*: two plans that cross between samples can
//! be mis-ordered, which is why the paper's prototype (and this crate's
//! default) leaves it off.

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{evaluate_startup, NodeId, Plan};

use crate::context::QueryContext;

/// A set of sampled parameter points for heuristic plan comparison.
#[derive(Debug, Clone)]
pub struct ProbePoints {
    /// Sampled selectivities in `(0, 1)`, applied to every host variable.
    pub selectivities: Vec<f64>,
    /// Sampled memory grants in pages (paired cyclically with
    /// selectivities).
    pub memories: Vec<f64>,
}

impl ProbePoints {
    /// `k` evenly spaced selectivity quantiles and memory grants across the
    /// catalog's uncertain ranges.
    #[must_use]
    pub fn standard(k: usize, catalog: &Catalog) -> ProbePoints {
        let k = k.max(1);
        let cfg = &catalog.config;
        let sel = (1..=k).map(|i| i as f64 / (k as f64 + 1.0)).collect();
        let mem = (1..=k)
            .map(|i| {
                cfg.memory_min_pages
                    + (cfg.memory_max_pages - cfg.memory_min_pages) * i as f64 / (k as f64 + 1.0)
            })
            .collect();
        ProbePoints {
            selectivities: sel,
            memories: mem,
        }
    }

    /// The bindings of sample `i`: every host variable set to the value
    /// whose predicate selectivity is `selectivities[i]`, memory to
    /// `memories[i]`.
    #[must_use]
    pub fn bindings(&self, i: usize, ctx: &QueryContext, catalog: &Catalog) -> Bindings {
        let s = self.selectivities[i % self.selectivities.len()];
        let m = self.memories[i % self.memories.len()];
        let mut b = Bindings::new().with_memory(m);
        for (&var, &attr) in &ctx.host_attrs {
            let domain = catalog.attribute(attr).domain_size;
            b = b.with_value(var, (s * domain).floor() as i64);
        }
        b
    }

    /// Whether the subplan at `a` of the search's plan table is at least
    /// as cheap as the one at `b` at **every** sample — the heuristic
    /// domination test.
    #[must_use]
    pub fn dominates(
        &self,
        plans: &Plan,
        (a, b): (NodeId, NodeId),
        ctx: &QueryContext,
        catalog: &Catalog,
        env: &Environment,
    ) -> bool {
        let (a, b) = (plans.rooted_at(a), plans.rooted_at(b));
        let n = self.selectivities.len().max(self.memories.len());
        for i in 0..n {
            let bindings = self.bindings(i, ctx, catalog);
            let ca = evaluate_startup(&a, catalog, env, &bindings).predicted_run_seconds;
            let cb = evaluate_startup(&b, catalog, env, &bindings).predicted_run_seconds;
            if ca > cb {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap()
    }

    #[test]
    fn standard_points_span_ranges() {
        let cat = catalog();
        let p = ProbePoints::standard(3, &cat);
        assert_eq!(p.selectivities, vec![0.25, 0.5, 0.75]);
        assert_eq!(p.memories.len(), 3);
        assert!(p.memories.iter().all(|&m| (16.0..=112.0).contains(&m)));
        // k = 0 clamps to one point.
        assert_eq!(ProbePoints::standard(0, &cat).selectivities.len(), 1);
    }

    #[test]
    fn bindings_map_selectivity_to_values() {
        use dqep_algebra::{CompareOp, HostVar, LogicalExpr, SelectPred};
        let cat = catalog();
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        let ctx = QueryContext::build(&q, &cat).unwrap();
        let p = ProbePoints::standard(3, &cat);
        let b = p.bindings(1, &ctx, &cat);
        // selectivity 0.5 over domain 1000 → value 500.
        assert_eq!(b.value(HostVar(0)), Some(500));
        assert!(b.memory_pages.is_some());
    }
}
