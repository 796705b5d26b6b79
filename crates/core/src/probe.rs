//! Multi-point probing: the heuristic comparison of Section 3.
//!
//! "A more realistic, though heuristic, approach is to evaluate the cost
//! function for a number of possible parameter values and to surmise that
//! if one plan is estimated more expensive than the other for all these
//! parameter values, it is always the more expensive plan and therefore can
//! be dropped from further consideration."
//!
//! Probing samples points of the statement's [`ParamSpace`] — one
//! selectivity, applied to every host variable, and a memory grant — binds
//! each through the space's map from selectivities to values, then
//! evaluates both plans' cost functions at each sample with the ordinary
//! start-up machinery. It is *heuristic*: two plans that cross between
//! samples can be mis-ordered, which is why the paper's prototype (and
//! this crate's default) leaves it off.

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment, ParamSpace};
use dqep_plan::{evaluate_startup, NodeId, Plan};

/// A set of sampled parameter points for heuristic plan comparison.
#[derive(Debug, Clone)]
pub struct ProbePoints {
    /// Sampled selectivities in `(0, 1)`, applied to every host variable.
    pub selectivities: Vec<f64>,
    /// Sampled memory grants in pages (paired cyclically with
    /// selectivities).
    pub memories: Vec<f64>,
    /// The statement's parameter space the samples are points of.
    space: ParamSpace,
}

impl ProbePoints {
    /// `k` evenly spaced selectivity quantiles and memory grants across
    /// `space`'s uncertain ranges.
    #[must_use]
    pub fn standard(k: usize, space: ParamSpace) -> ProbePoints {
        let k = k.max(1);
        let memory = space.memory();
        let sel = (1..=k).map(|i| i as f64 / (k as f64 + 1.0)).collect();
        let mem = (1..=k)
            .map(|i| memory.lo() + (memory.hi() - memory.lo()) * i as f64 / (k as f64 + 1.0))
            .collect();
        ProbePoints {
            selectivities: sel,
            memories: mem,
            space,
        }
    }

    /// The bindings of sample `i`: every host variable set to the value
    /// whose predicate selectivity is `selectivities[i]`, memory to
    /// `memories[i]`.
    #[must_use]
    pub fn bindings(&self, i: usize, catalog: &Catalog) -> Bindings {
        let s = self.selectivities[i % self.selectivities.len()];
        let m = self.memories[i % self.memories.len()];
        self.space.bindings(catalog, std::iter::repeat(s)).with_memory(m)
    }

    /// Whether the subplan at `a` of the search's plan table is at least
    /// as cheap as the one at `b` at **every** sample — the heuristic
    /// domination test.
    #[must_use]
    pub fn dominates(
        &self,
        plans: &Plan,
        (a, b): (NodeId, NodeId),
        catalog: &Catalog,
        env: &Environment,
    ) -> bool {
        let (a, b) = (plans.rooted_at(a), plans.rooted_at(b));
        let n = self.selectivities.len().max(self.memories.len());
        for i in 0..n {
            let bindings = self.bindings(i, catalog);
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
    use dqep_algebra::{CompareOp, HostVar, LogicalExpr, SelectPred};
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
        let p = ProbePoints::standard(3, space(&cat));
        assert_eq!(p.selectivities, vec![0.25, 0.5, 0.75]);
        assert_eq!(p.memories.len(), 3);
        assert!(p.memories.iter().all(|&m| (16.0..=112.0).contains(&m)));
        // k = 0 clamps to one point.
        assert_eq!(ProbePoints::standard(0, space(&cat)).selectivities.len(), 1);
    }

    /// The space of `r.a < :v0`.
    fn space(cat: &Catalog) -> ParamSpace {
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        ParamSpace::new(&q, cat)
    }

    #[test]
    fn bindings_map_selectivity_to_values() {
        let cat = catalog();
        let p = ProbePoints::standard(3, space(&cat));
        let b = p.bindings(1, &cat);
        // selectivity 0.5 over domain 1000 → value 500.
        assert_eq!(b.value(HostVar(0)), Some(500));
        assert!(b.memory_pages.is_some());
    }
}
