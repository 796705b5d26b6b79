//! The random chain workload the root suites draw their cases from, and
//! the two helpers they compare outcomes with.
//!
//! Relation `t{i}` of a chain has `a` (domain: its cardinality) and `j`
//! (domain: the cardinality times a drawn factor), both indexed; the
//! chain joins `t{i-1}.j = t{i}.j`, and a selected relation carries the
//! unbound `t{i}.a < :v{i}` (host variable `i`). A suite picks the
//! [`Shape`] it draws; the strategy is composed the same way for every
//! shape, and what a shape fixes draws nothing, so a suite's cases
//! depend only on its shape and its test names.

use std::ops::{Range, RangeInclusive};

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::ParamSpace;
use dqep::executor::{ExecError, Resource, Tuple};
use dqep::sql::parse_query;
use proptest::prelude::*;

/// What a suite draws.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Relations in the chain.
    pub relations: RangeInclusive<usize>,
    /// Cardinality of each relation.
    pub cards: Range<u64>,
    /// Whether each relation draws whether it carries a selection (at
    /// least one does); if not, only the first does.
    pub selections: bool,
    /// Whether the SQL form draws an `ORDER BY t0.a`.
    pub order_by: bool,
}

impl Shape {
    /// The parity suites' shape: 1–3 relations of 40–399 rows (every case
    /// generates and executes stored data), selections drawn, no order.
    pub const PARITY: Shape = Shape {
        relations: 1..=3,
        cards: 40..400,
        selections: true,
        order_by: false,
    };
}

/// One drawn workload.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    pub cards: Vec<u64>,
    pub domain_factors: Vec<f64>,
    pub selected: Vec<bool>,
    pub order_by: bool,
}

pub fn workload_strategy(shape: Shape) -> impl Strategy<Value = RandomWorkload> {
    let Shape { relations, cards, selections, order_by } = shape;
    relations.prop_flat_map(move |n| {
        let selected = if selections {
            proptest::collection::vec(any::<bool>(), n).boxed()
        } else {
            Just((0..n).map(|i| i == 0).collect()).boxed()
        };
        let order_by = if order_by { any::<bool>().boxed() } else { Just(false).boxed() };
        (
            proptest::collection::vec(cards.clone(), n),
            proptest::collection::vec(0.2f64..1.25, n),
            selected,
            order_by,
        )
            .prop_map(|(cards, domain_factors, mut selected, order_by)| {
                // At least one unbound predicate so dynamic plans can arise.
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload { cards, domain_factors, selected, order_by }
            })
    })
}

fn catalog(w: &RandomWorkload) -> Catalog {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, (&card, &f)) in w.cards.iter().zip(&w.domain_factors).enumerate() {
        let name = format!("t{i}");
        let jdomain = (card as f64 * f).max(1.0).round();
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        });
    }
    builder.build().expect("valid random catalog")
}

/// The catalog, the chain query and its parameter space (one selectivity
/// per selected relation's host variable).
pub fn build(w: &RandomWorkload) -> (Catalog, LogicalExpr, ParamSpace) {
    let catalog = catalog(w);
    let rels: Vec<_> = catalog.relations().to_vec();
    let leaf = |i: usize| {
        let mut e = LogicalExpr::get(rels[i].id);
        if w.selected[i] {
            let attr = rels[i].attr_id("a").expect("attr");
            e = e.select(SelectPred::unbound(attr, CompareOp::Lt, HostVar(i as u32)));
        }
        e
    };
    let mut q = leaf(0);
    for i in 1..w.cards.len() {
        q = q.join(
            leaf(i),
            vec![JoinPred::new(
                rels[i - 1].attr_id("j").expect("attr"),
                rels[i].attr_id("j").expect("attr"),
            )],
        );
    }
    let space = ParamSpace::new(&q, &catalog);
    (catalog, q, space)
}

/// The catalog and the chain query as SQL text, each `:v{i}` bound at
/// selectivity `sel`.
pub fn build_sql(w: &RandomWorkload, sel: f64) -> (Catalog, String, Vec<(String, i64)>) {
    let catalog = catalog(w);
    let from: Vec<String> = (0..w.cards.len()).map(|i| format!("t{i}")).collect();
    let mut preds: Vec<String> = (1..w.cards.len())
        .map(|i| format!("t{}.j = t{i}.j", i - 1))
        .collect();
    for (i, &selected) in w.selected.iter().enumerate() {
        if selected {
            preds.push(format!("t{i}.a < :v{i}"));
        }
    }
    let mut sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
    if w.order_by {
        sql.push_str(" ORDER BY t0.a");
    }
    let binds = named_binds(&catalog, &sql, sel);
    (catalog, sql, binds)
}

/// Every host variable of `sql`, by name, bound at selectivity `sel`
/// through the statement's parameter space.
pub fn named_binds(catalog: &Catalog, sql: &str, sel: f64) -> Vec<(String, i64)> {
    let query = parse_query(sql, catalog).expect("valid SQL");
    let bindings = ParamSpace::new(&query.expr, catalog).bindings(catalog, std::iter::repeat(sel));
    query
        .host_var_names()
        .into_iter()
        .map(|name| {
            let var = query.host_var(name).expect("named variable");
            (name.to_string(), bindings.value(var).expect("every variable is bound"))
        })
        .collect()
}

/// Rows in a canonical order, for multiset comparison.
pub fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

/// Coarse error class: variant (and resource kind) only — payloads may
/// differ (a parallel worker reports the reservation *it* was refused).
pub fn classify(e: &ExecError) -> String {
    match e {
        ExecError::Storage(_) => "storage".into(),
        ExecError::ResourceExhausted(r) => {
            let kind = match r {
                Resource::Memory { .. } => "memory",
                Resource::Rows { .. } => "rows",
                Resource::Io { .. } => "io",
                Resource::WallClock { .. } => "wall-clock",
            };
            format!("resource:{kind}")
        }
        other => format!("{other:?}"),
    }
}
