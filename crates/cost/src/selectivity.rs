//! Selectivity and cardinality estimation.

use std::borrow::Borrow;

use dqep_algebra::{CompareOp, JoinPred, Scalar, SelectPred};
use dqep_catalog::Catalog;
use dqep_interval::Interval;

use crate::env::{Environment, PlanningMode};

/// Selectivity estimation over uniform attribute domains.
///
/// Attribute values are modeled as uniform over `[0, domain_size)`
/// integers, so the selectivity of `attr < c` is `c / domain_size`
/// (clamped to `[0, 1]`), of `attr = c` is `1 / domain_size`, etc.
///
/// * **Bound predicates** (constant right-hand side) have point
///   selectivities in every mode.
/// * **Unbound predicates** (host-variable right-hand side) have point
///   selectivity once the variable is bound in the environment; otherwise
///   the expected default (0.05) in point mode or the full `[0, 1]`
///   interval in interval mode — the paper's experimental setup.
/// * **Join selectivity** is `1 / max(domain(left), domain(right))` per
///   equi-join predicate (paper Section 6), a point value.
pub struct SelectivityModel<'a> {
    catalog: &'a Catalog,
}

impl<'a> SelectivityModel<'a> {
    /// Creates a model reading statistics from `catalog`.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> SelectivityModel<'a> {
        SelectivityModel { catalog }
    }

    /// Selectivity of a selection predicate under `env`.
    ///
    /// Bound values use the attribute's [`dqep_catalog::Histogram`] when
    /// one is installed (repairing estimates on skewed data — the
    /// selectivity-estimation-error problem of the paper's final section)
    /// and the uniform-domain model otherwise.
    #[must_use]
    pub fn selection(&self, pred: &SelectPred, env: &Environment) -> Interval {
        match pred.rhs {
            Scalar::Const(c) => Interval::point(self.value_selectivity(pred, c)),
            Scalar::Host(var) => match env.bindings.value(var) {
                Some(v) => Interval::point(self.value_selectivity(pred, v)),
                None => match env.mode {
                    PlanningMode::Point => Interval::point(env.default_selectivity),
                    PlanningMode::Interval => Interval::new(0.0, 1.0),
                },
            },
        }
    }

    /// Point selectivity of `pred.attr OP v`: histogram-based when
    /// available, uniform-domain otherwise.
    #[must_use]
    pub fn value_selectivity(&self, pred: &SelectPred, v: i64) -> f64 {
        if let Some(h) = self.catalog.histogram(pred.attr) {
            let frac = match pred.op {
                CompareOp::Lt => h.fraction_below(v),
                CompareOp::Le => h.fraction_leq(v),
                CompareOp::Eq => h.fraction_eq(v),
                CompareOp::Ge => 1.0 - h.fraction_below(v),
                CompareOp::Gt => 1.0 - h.fraction_leq(v),
            };
            return frac.clamp(0.0, 1.0);
        }
        let domain = self.catalog.attribute(pred.attr).domain_size;
        point_selectivity(pred.op, v, domain)
    }

    /// Combined selectivity of a conjunction of join predicates
    /// (independence assumed): product over predicates of
    /// `1 / max(domain(left), domain(right))`.
    ///
    /// Takes any sequence of predicates, owned or borrowed, so callers can
    /// pass a filtered view of the query's join graph without collecting
    /// it; the product is taken in sequence order.
    #[must_use]
    pub fn join<P: Borrow<JoinPred>>(&self, preds: impl IntoIterator<Item = P>) -> f64 {
        preds
            .into_iter()
            .map(|p| {
                let p = p.borrow();
                let dl = self.catalog.attribute(p.left).domain_size;
                let dr = self.catalog.attribute(p.right).domain_size;
                1.0 / dl.max(dr).max(1.0)
            })
            .product()
    }

    /// Output cardinality of a join of `left_card` × `right_card` under
    /// `preds`.
    #[must_use]
    pub fn join_output(
        &self,
        left_card: Interval,
        right_card: Interval,
        preds: &[JoinPred],
    ) -> Interval {
        (left_card * right_card).scale(self.join(preds))
    }
}

/// Fraction of a uniform integer domain `[0, domain)` satisfying
/// `x OP c`, clamped to `[0, 1]`.
fn point_selectivity(op: CompareOp, c: i64, domain: f64) -> f64 {
    let d = domain.max(1.0);
    let c = c as f64;
    let frac = match op {
        CompareOp::Lt => c / d,
        CompareOp::Le => (c + 1.0) / d,
        CompareOp::Eq => 1.0 / d,
        CompareOp::Ge => (d - c) / d,
        CompareOp::Gt => (d - c - 1.0) / d,
    };
    frac.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::HostVar;
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn fixture() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).attr("j", 500.0))
            .relation("s", 800, 512, |r| r.attr("a", 800.0).attr("j", 200.0))
            .build()
            .unwrap()
    }

    fn attr(cat: &Catalog, rel: &str, name: &str) -> dqep_catalog::AttrId {
        cat.relation_by_name(rel).unwrap().attr_id(name).unwrap()
    }

    #[test]
    fn bound_predicate_is_point_in_all_modes() {
        let cat = fixture();
        let cfg = cat.config;
        let m = SelectivityModel::new(&cat);
        let pred = SelectPred::bound(attr(&cat, "r", "a"), CompareOp::Lt, 250);
        for env in [
            Environment::static_compile_time(&cfg),
            Environment::dynamic_compile_time(&cfg),
        ] {
            assert_eq!(m.selection(&pred, &env), Interval::point(0.25));
        }
    }

    #[test]
    fn unbound_predicate_depends_on_mode() {
        let cat = fixture();
        let cfg = cat.config;
        let m = SelectivityModel::new(&cat);
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));

        let stat = Environment::static_compile_time(&cfg);
        assert_eq!(m.selection(&pred, &stat), Interval::point(0.05));

        let dyn_env = Environment::dynamic_compile_time(&cfg);
        assert_eq!(m.selection(&pred, &dyn_env), Interval::new(0.0, 1.0));
    }

    #[test]
    fn binding_resolves_unbound_predicate() {
        let cat = fixture();
        let cfg = cat.config;
        let m = SelectivityModel::new(&cat);
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let env = Environment::dynamic_compile_time(&cfg)
            .bind(&crate::Bindings::new().with_value(HostVar(0), 700));
        assert_eq!(m.selection(&pred, &env), Interval::point(0.7));
    }

    #[test]
    fn operator_fractions() {
        assert_eq!(point_selectivity(CompareOp::Lt, 100, 1000.0), 0.1);
        assert_eq!(point_selectivity(CompareOp::Le, 99, 1000.0), 0.1);
        assert_eq!(point_selectivity(CompareOp::Eq, 5, 1000.0), 0.001);
        assert_eq!(point_selectivity(CompareOp::Ge, 900, 1000.0), 0.1);
        assert_eq!(point_selectivity(CompareOp::Gt, 899, 1000.0), 0.1);
        // Clamping.
        assert_eq!(point_selectivity(CompareOp::Lt, -5, 1000.0), 0.0);
        assert_eq!(point_selectivity(CompareOp::Lt, 2000, 1000.0), 1.0);
    }

    #[test]
    fn join_selectivity_uses_larger_domain() {
        let cat = fixture();
        let m = SelectivityModel::new(&cat);
        let p = JoinPred::new(attr(&cat, "r", "j"), attr(&cat, "s", "j"));
        // max(500, 200) = 500.
        assert!((m.join([p]) - 1.0 / 500.0).abs() < 1e-12);
        // Two predicates multiply.
        let p2 = JoinPred::new(attr(&cat, "r", "a"), attr(&cat, "s", "a"));
        assert!((m.join([p, p2]) - (1.0 / 500.0) * (1.0 / 1000.0)).abs() < 1e-15);
        // Empty conjunction = cross product.
        assert_eq!(m.join(std::iter::empty::<JoinPred>()), 1.0);
    }

    #[test]
    fn cardinality_propagation() {
        let cat = fixture();
        let cfg = cat.config;
        let m = SelectivityModel::new(&cat);
        let env = Environment::dynamic_compile_time(&cfg);
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let out = Interval::point(1000.0) * m.selection(&pred, &env);
        assert_eq!(out, Interval::new(0.0, 1000.0));

        let p = JoinPred::new(attr(&cat, "r", "j"), attr(&cat, "s", "j"));
        let j = m.join_output(out, Interval::point(800.0), &[p]);
        assert_eq!(j.lo(), 0.0);
        assert!((j.hi() - 1000.0 * 800.0 / 500.0).abs() < 1e-9);
    }
}
