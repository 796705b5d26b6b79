//! The independent oracle: a naive evaluator over exported rows.
//!
//! It shares nothing with the system under test but the stored values
//! (`StoredDatabase::export_rows`) and the catalog's attribute names: no
//! SQL parser, no optimizer, no operator. A query is evaluated left to
//! right over its `FROM` list — filter each relation, hash the running
//! result on the first connecting join column, check the others — which is
//! exactly the answer any correct plan must produce.

use std::collections::HashMap;

use dqep::catalog::Catalog;
use dqep::storage::StoredDatabase;

use crate::workloads::{Plan, QuerySpec};

/// What a request must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub rows: u64,
    /// Order-independent checksum of the result multiset, columns in
    /// `FROM` order (the sharded service's canonical layout).
    pub checksum: u64,
}

/// Order-independent multiset checksum: the wrapping sum of one hash per
/// row. Kept below 2^53 so it survives a JSON number.
pub fn checksum<'a>(rows: impl Iterator<Item = &'a [i64]>) -> u64 {
    let mut sum = 0u64;
    for row in rows {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &v in row {
            h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
            h ^= h >> 29;
        }
        sum = sum.wrapping_add(h);
    }
    sum & ((1 << 53) - 1)
}

/// Expected answers of every class of `plan`, from freshly generated data.
pub fn expected(plan: &Plan) -> Vec<Expected> {
    let db = StoredDatabase::generate(&plan.catalog, plan.data_seed);
    let mut tables: HashMap<String, Vec<Vec<i64>>> = HashMap::new();
    for (rel, rows) in db.export_rows() {
        tables.insert(plan.catalog.relation(rel).name.clone(), rows);
    }
    plan.classes
        .iter()
        .map(|q| evaluate(&plan.catalog, &tables, q))
        .collect()
}

fn column(catalog: &Catalog, rel: &str, attr: &str) -> usize {
    catalog
        .relation_by_name(rel)
        .ok()
        .and_then(|r| r.attr_index(attr))
        .unwrap_or_else(|| panic!("oracle: no attribute {rel}.{attr}")) as usize
}

fn evaluate(catalog: &Catalog, tables: &HashMap<String, Vec<Vec<i64>>>, q: &QuerySpec) -> Expected {
    // Column offset of each FROM relation inside the concatenated row.
    let mut offsets = Vec::with_capacity(q.from.len());
    let mut result: Vec<Vec<i64>> = vec![Vec::new()];
    let mut width = 0;
    for (i, name) in q.from.iter().enumerate() {
        let filters: Vec<(usize, i64)> = q
            .filters
            .iter()
            .filter(|f| f.rel == i)
            .map(|f| (column(catalog, name, f.attr), f.value))
            .collect();
        let rows: Vec<&Vec<i64>> = tables[name]
            .iter()
            .filter(|row| filters.iter().all(|&(c, v)| row[c] < v))
            .collect();
        // Join columns connecting relation `i` to the relations before it,
        // as (position in the running row, column of this relation).
        let keys: Vec<(usize, usize)> = q
            .joins
            .iter()
            .filter_map(|&((lr, la), (rr, ra))| {
                let (old, new) = if rr == i && lr < i {
                    ((lr, la), ra)
                } else if lr == i && rr < i {
                    ((rr, ra), la)
                } else {
                    return None;
                };
                Some((
                    offsets[old.0] + column(catalog, &q.from[old.0], old.1),
                    column(catalog, name, new),
                ))
            })
            .collect();
        let mut next = Vec::new();
        match keys.split_first() {
            // No connecting predicate: the first relation, or a cross product.
            None => {
                for left in &result {
                    for right in &rows {
                        next.push([left.as_slice(), right.as_slice()].concat());
                    }
                }
            }
            Some((&(lpos, rcol), residual)) => {
                let mut by_key: HashMap<i64, Vec<&Vec<i64>>> = HashMap::new();
                for right in &rows {
                    by_key.entry(right[rcol]).or_default().push(right);
                }
                for left in &result {
                    for right in by_key.get(&left[lpos]).map_or(&[][..], Vec::as_slice) {
                        if residual.iter().all(|&(lp, rc)| left[lp] == right[rc]) {
                            next.push([left.as_slice(), right.as_slice()].concat());
                        }
                    }
                }
            }
        }
        offsets.push(width);
        width += catalog
            .relation_by_name(name)
            .map_or(0, |r| r.attributes.len());
        result = next;
    }
    Expected {
        rows: result.len() as u64,
        checksum: checksum(result.iter().map(Vec::as_slice)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Filter;

    #[test]
    fn checksum_ignores_order_and_sees_content() {
        let (a, b, c) = (vec![1i64, 2, 3], vec![4i64, 5, 6], vec![4i64, 5, 7]);
        let one = checksum([a.as_slice(), b.as_slice()].into_iter());
        let two = checksum([b.as_slice(), a.as_slice()].into_iter());
        let other = checksum([a.as_slice(), c.as_slice()].into_iter());
        assert_eq!(one, two);
        assert_ne!(one, other);
        assert_ne!(
            one,
            checksum([a.as_slice(), b.as_slice(), b.as_slice()].into_iter())
        );
    }

    #[test]
    fn join_matches_a_nested_loop_count() {
        let catalog = dqep::catalog::CatalogBuilder::new(dqep::catalog::SystemConfig::paper_1994())
            .relation("r", 3, 64, |r| r.attr("a", 10.0).attr("j", 10.0))
            .relation("s", 3, 64, |r| r.attr("j", 10.0))
            .build()
            .unwrap();
        let mut tables = HashMap::new();
        tables.insert("r".to_string(), vec![vec![1, 7], vec![5, 7], vec![2, 8]]);
        tables.insert("s".to_string(), vec![vec![7], vec![7], vec![9]]);
        let q = QuerySpec {
            from: vec!["r".into(), "s".into()],
            joins: vec![((0, "j"), (1, "j"))],
            filters: vec![Filter {
                rel: 0,
                attr: "a",
                var: "x".into(),
                value: 5,
            }],
            order_by: None,
        };
        // r.a < 5 keeps (1,7) and (2,8); only (1,7) joins, twice.
        let got = evaluate(&catalog, &tables, &q);
        assert_eq!(got.rows, 2);
        assert_eq!(
            got.checksum,
            checksum([[1i64, 7, 7].as_slice(), [1i64, 7, 7].as_slice()].into_iter())
        );
    }
}
