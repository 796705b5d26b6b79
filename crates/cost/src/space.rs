//! The parameter space of a statement.
//!
//! A statement's uncertain parameters are the selectivity of each unbound
//! selection predicate, each in `[0, 1]`, and the memory grant (paper
//! Sections 3–4 and 6). The cost functions are monotone in these
//! coordinates, not in the host-variable values behind them, so every
//! place that draws, probes or buckets bindings works in selectivities and
//! crosses to values through one pair of maps:
//! [`SelectivityModel::value_selectivity`] forward and
//! [`SelectivityModel::value_at`] back.

use dqep_algebra::{HostVar, LogicalExpr, SelectPred};
use dqep_catalog::Catalog;
use dqep_interval::Interval;

use crate::env::Bindings;
use crate::selectivity::SelectivityModel;

/// The coordinates of one statement's parameter space: one selectivity
/// per host variable, in [`HostVar`] id order, plus the memory range.
///
/// A host variable's coordinate is the selectivity of the first predicate
/// (in depth-first order) that compares against it.
#[derive(Debug, Clone)]
pub struct ParamSpace {
    /// Each host variable's first predicate, in variable id order.
    coords: Vec<SelectPred>,
    /// The memory grant's range in pages, from the catalog's
    /// [`dqep_catalog::SystemConfig`].
    memory: Interval,
}

impl ParamSpace {
    /// The parameter space of `query` against `catalog`.
    #[must_use]
    pub fn new(query: &LogicalExpr, catalog: &Catalog) -> ParamSpace {
        let mut coords: Vec<SelectPred> = Vec::new();
        for pred in query.select_predicates() {
            let Some(var) = pred.host_var() else { continue };
            if coords.iter().all(|c| c.host_var() != Some(var)) {
                coords.push(pred);
            }
        }
        coords.sort_by_key(SelectPred::host_var);
        let config = &catalog.config;
        ParamSpace {
            coords,
            memory: Interval::new(config.memory_min_pages, config.memory_max_pages),
        }
    }

    /// The host variables, one per selectivity coordinate, in id order.
    pub fn vars(&self) -> impl Iterator<Item = HostVar> + '_ {
        self.coords.iter().filter_map(SelectPred::host_var)
    }

    /// The range of the memory grant, in pages.
    #[must_use]
    pub fn memory(&self) -> Interval {
        self.memory
    }

    /// The bindings at a point of the space: the `i`-th selectivity of
    /// `point` binds the `i`-th host variable to the value
    /// [`SelectivityModel::value_at`] maps it to. The point is read one
    /// selectivity per coordinate, no further; a shorter point leaves the
    /// remaining variables unbound. Memory is left to the caller.
    #[must_use]
    pub fn bindings(&self, catalog: &Catalog, point: impl IntoIterator<Item = f64>) -> Bindings {
        let model = SelectivityModel::new(catalog);
        self.coords
            .iter()
            .zip(point)
            .fold(Bindings::new(), |b, (pred, s)| {
                let var = pred.host_var().expect("a coordinate is an unbound predicate");
                b.with_value(var, model.value_at(pred, s))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, JoinPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).attr("j", 100.0))
            .relation("s", 400, 512, |r| r.attr("a", 400.0).attr("j", 100.0))
            .build()
            .unwrap()
    }

    #[test]
    fn one_coordinate_per_variable_in_id_order() {
        let cat = catalog();
        let (r, s) = (cat.relation_by_name("r").unwrap(), cat.relation_by_name("s").unwrap());
        let (ra, sa) = (r.attr_id("a").unwrap(), s.attr_id("a").unwrap());
        // :v1 on r first, then :v0 on s, then :v1 again on s.
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(ra, CompareOp::Lt, HostVar(1)))
            .join(
                LogicalExpr::get(s.id)
                    .select(SelectPred::unbound(sa, CompareOp::Lt, HostVar(0)))
                    .select(SelectPred::unbound(sa, CompareOp::Ge, HostVar(1))),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        let space = ParamSpace::new(&q, &cat);
        assert_eq!(space.vars().collect::<Vec<_>>(), vec![HostVar(0), HostVar(1)]);
        assert_eq!(space.memory(), Interval::new(16.0, 112.0));
        // :v0 reads s.a's domain (400), :v1 its first predicate, r.a < :v1.
        let b = space.bindings(&cat, [0.5, 0.25]);
        assert_eq!(b.value(HostVar(0)), Some(200));
        assert_eq!(b.value(HostVar(1)), Some(250));
        assert_eq!(b.memory_pages, None);
        // A shorter point binds only the leading coordinates.
        assert_eq!(space.bindings(&cat, [0.5]).values.len(), 1);
    }
}
