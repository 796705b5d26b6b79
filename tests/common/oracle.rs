//! An independent reference evaluator for the parity suites.
//!
//! Deliberately naive — nested loops over `Vec<Vec<i64>>`, no plans, no
//! operators, no indexes — and deliberately isolated: it reads the stored
//! data through `StoredDatabase::export_rows` and the query as a
//! `LogicalExpr`, and imports nothing from `dqep::executor`. The parity
//! suites compare every execution configuration against *this*, so they
//! are no longer the engine checked against itself.
//!
//! Results are canonical: columns in ascending `AttrId` order (the engine
//! may emit a commuted join's columns in another order), rows sorted.

use std::collections::HashMap;

use dqep::algebra::{CompareOp, JoinPred, LogicalExpr, Scalar, SelectPred};
use dqep::catalog::{AttrId, Catalog, RelationId};
use dqep::cost::Bindings;
use dqep::storage::StoredDatabase;

/// An intermediate result: one `AttrId` per column, and the rows.
struct Table {
    attrs: Vec<AttrId>,
    rows: Vec<Vec<i64>>,
}

impl Table {
    fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }
}

fn compare(op: CompareOp, lhs: i64, rhs: i64) -> bool {
    match op {
        CompareOp::Lt => lhs < rhs,
        CompareOp::Le => lhs <= rhs,
        CompareOp::Eq => lhs == rhs,
        CompareOp::Ge => lhs >= rhs,
        CompareOp::Gt => lhs > rhs,
    }
}

fn select(input: Table, pred: &SelectPred, bindings: &Bindings) -> Table {
    let pos = input.position(pred.attr).expect("selection attribute in scope");
    let value = match pred.rhs {
        Scalar::Const(v) => v,
        Scalar::Host(h) => bindings.value(h).expect("host variable bound"),
    };
    Table {
        rows: input
            .rows
            .into_iter()
            .filter(|row| compare(pred.op, row[pos], value))
            .collect(),
        attrs: input.attrs,
    }
}

fn join(left: Table, right: Table, preds: &[JoinPred]) -> Table {
    // Each predicate as (left position, right position), whichever way
    // round it was written.
    let keys: Vec<(usize, usize)> = preds
        .iter()
        .map(|p| match (left.position(p.left), right.position(p.right)) {
            (Some(l), Some(r)) => (l, r),
            _ => (
                left.position(p.right).expect("join predicate spans the inputs"),
                right.position(p.left).expect("join predicate spans the inputs"),
            ),
        })
        .collect();
    let mut rows = Vec::new();
    for l in &left.rows {
        for r in &right.rows {
            if keys.iter().all(|&(lp, rp)| l[lp] == r[rp]) {
                rows.push(l.iter().chain(r).copied().collect());
            }
        }
    }
    let mut attrs = left.attrs;
    attrs.extend(right.attrs);
    Table { attrs, rows }
}

/// The attributes `expr` produces, in the order [`eval`] lays them out.
fn attrs_of(expr: &LogicalExpr, catalog: &Catalog) -> Vec<AttrId> {
    match expr {
        LogicalExpr::Get { relation } => (0..catalog.relation(*relation).attributes.len() as u32)
            .map(|index| AttrId { relation: *relation, index })
            .collect(),
        LogicalExpr::Select { input, .. } => attrs_of(input, catalog),
        LogicalExpr::Join { left, right, .. } => {
            let mut attrs = attrs_of(left, catalog);
            attrs.extend(attrs_of(right, catalog));
            attrs
        }
    }
}

fn eval(
    expr: &LogicalExpr,
    catalog: &Catalog,
    stored: &HashMap<RelationId, Vec<Vec<i64>>>,
    bindings: &Bindings,
) -> Table {
    match expr {
        LogicalExpr::Get { relation } => Table {
            attrs: attrs_of(expr, catalog),
            rows: stored[relation].clone(),
        },
        LogicalExpr::Select { input, predicate } => {
            select(eval(input, catalog, stored, bindings), predicate, bindings)
        }
        LogicalExpr::Join { left, right, predicates } => join(
            eval(left, catalog, stored, bindings),
            eval(right, catalog, stored, bindings),
            predicates,
        ),
    }
}

/// Projects `rows` to the columns at `positions` and sorts them: the
/// canonical multiset form both sides of a comparison are brought into.
pub fn canonical(rows: &[Vec<i64>], positions: &[usize]) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = rows
        .iter()
        .map(|row| positions.iter().map(|&p| row[p]).collect())
        .collect();
    out.sort_unstable();
    out
}

/// Every attribute `expr` produces, ascending — the canonical column
/// order.
pub fn output_attrs(expr: &LogicalExpr, catalog: &Catalog) -> Vec<AttrId> {
    let mut attrs = attrs_of(expr, catalog);
    attrs.sort_unstable();
    attrs
}

/// The query's answer over the stored data, in canonical form.
pub fn evaluate(
    expr: &LogicalExpr,
    catalog: &Catalog,
    db: &StoredDatabase,
    bindings: &Bindings,
) -> Vec<Vec<i64>> {
    let result = eval(expr, catalog, &db.export_rows(), bindings);
    let positions: Vec<usize> = output_attrs(expr, catalog)
        .iter()
        .map(|&a| result.position(a).expect("output attribute present"))
        .collect();
    canonical(&result.rows, &positions)
}
