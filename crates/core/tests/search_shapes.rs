//! Three cheap properties of the search, over chain catalogs of 2 to 6
//! relations and bindings that include the ends of every domain:
//!
//! * the point optimum does not depend on the initial join tree the
//!   search starts from — forward, reverse or bushy (1e-9 relative);
//! * neither does the dynamic plan's root execution interval;
//! * the point optimum never rises with the memory grant.
//!
//! They guard against regressions: a join order the search never
//! generates would be missing from every shape alike, which only an
//! independent enumerator can find.

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment, ParamSpace};
use dqep_interval::Interval;

/// The initial join trees the search is started from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `((R1 ⋈ R2) ⋈ R3) ⋈ …`
    Forward,
    /// `((Rk ⋈ Rk-1) ⋈ Rk-2) ⋈ …`
    Reverse,
    /// Halves joined recursively.
    Bushy,
}

/// `σ(Ri)`: relation `i` with its host-variable selection.
fn selected(catalog: &Catalog, i: usize) -> LogicalExpr {
    let rel = &catalog.relations()[i];
    let attr = rel.attr_id(SELECTION_ATTR).unwrap();
    LogicalExpr::get(rel.id).select(SelectPred::unbound(attr, CompareOp::Lt, HostVar(i as u32)))
}

/// The chain predicate between relations `i` and `i + 1`.
fn link(catalog: &Catalog, i: usize) -> JoinPred {
    let rels = catalog.relations();
    JoinPred::new(
        rels[i].attr_id(JOIN_RIGHT_ATTR).unwrap(),
        rels[i + 1].attr_id(JOIN_LEFT_ATTR).unwrap(),
    )
}

/// `σ(R1) ⋈ … ⋈ σ(Rk)` as the initial tree `shape`.
fn chain(catalog: &Catalog, shape: Shape) -> LogicalExpr {
    let k = catalog.relations().len();
    match shape {
        Shape::Forward => (1..k).fold(selected(catalog, 0), |tree, i| {
            tree.join(selected(catalog, i), vec![link(catalog, i - 1)])
        }),
        Shape::Reverse => (0..k - 1).rev().fold(selected(catalog, k - 1), |tree, i| {
            tree.join(selected(catalog, i), vec![link(catalog, i)])
        }),
        Shape::Bushy => bushy(catalog, 0, k),
    }
}

/// Relations `lo..hi` as two halves joined on the predicate between them.
fn bushy(catalog: &Catalog, lo: usize, hi: usize) -> LogicalExpr {
    if hi - lo == 1 {
        return selected(catalog, lo);
    }
    let mid = (lo + hi) / 2;
    bushy(catalog, lo, mid).join(bushy(catalog, mid, hi), vec![link(catalog, mid - 1)])
}

/// Bindings selecting these shares of each relation's domain: both ends
/// (nothing, everything) and inside.
fn bindings(catalog: &Catalog) -> Vec<Bindings> {
    let space = ParamSpace::new(&chain(catalog, Shape::Forward), catalog);
    let k = catalog.relations().len();
    let patterns: [&dyn Fn(usize) -> f64; 5] = [
        &|_| 0.0,
        &|_| 1.0,
        &|i| if i % 2 == 0 { 0.0 } else { 1.0 },
        &|i| 0.05 + 0.2 * i as f64,
        &|i| 0.9 - 0.15 * i as f64,
    ];
    patterns
        .iter()
        .map(|share| space.bindings(catalog, (0..k).map(|i| share(i).clamp(0.0, 1.0))))
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn same(a: Interval, b: Interval) -> bool {
    close(a.lo(), b.lo()) && close(a.hi(), b.hi())
}

/// The root execution interval of the plan optimized from `query` under
/// `env`.
fn root_exec(catalog: &Catalog, env: &Environment, query: &LogicalExpr) -> Interval {
    Optimizer::new(catalog, env).optimize(query).unwrap().plan.root_node().exec.total()
}

const SHAPES: [Shape; 3] = [Shape::Forward, Shape::Reverse, Shape::Bushy];

#[test]
fn the_initial_tree_changes_no_optimum_and_memory_never_raises_one() {
    for k in 2..=6 {
        let catalog = make_chain_catalog(&SyntheticSpec::paper(k, 7), SystemConfig::paper_1994());
        let dynamic = Environment::dynamic_compile_time(&catalog.config);
        let roots: Vec<Interval> =
            SHAPES.iter().map(|&s| root_exec(&catalog, &dynamic, &chain(&catalog, s))).collect();
        for (shape, root) in SHAPES.iter().zip(&roots) {
            assert!(same(*root, roots[0]), "k={k} {shape:?}: dynamic root {root} != {}", roots[0]);
        }

        for b in bindings(&catalog) {
            let point = dynamic.bind(&b);
            let optima: Vec<Interval> =
                SHAPES.iter().map(|&s| root_exec(&catalog, &point, &chain(&catalog, s))).collect();
            for (shape, optimum) in SHAPES.iter().zip(&optima) {
                assert!(
                    same(*optimum, optima[0]),
                    "k={k} {shape:?} at {b:?}: point optimum {optimum} != {}",
                    optima[0]
                );
            }

            let query = chain(&catalog, Shape::Forward);
            let mut previous = f64::INFINITY;
            for pages in [16.0, 24.0, 32.0, 48.0, 64.0, 80.0, 96.0, 112.0] {
                let grant = dynamic.bind(&b.clone().with_memory(pages));
                let cost = root_exec(&catalog, &grant, &query).hi();
                assert!(
                    cost <= previous * (1.0 + 1e-9),
                    "k={k} at {b:?}: {cost} at {pages} pages, {previous} with fewer"
                );
                previous = cost;
            }
        }
    }
}
