//! Table 1: logical and physical algebra operators.
//!
//! Regenerates the paper's operator/algorithm matrix from the actually
//! implemented algebra, so the table cannot drift from the code.

use crate::report::Table;

/// Renders Table 1.
#[must_use]
pub fn table() -> Table {
    let mut t = Table::new(
        "Table 1: logical and physical algebra operators",
        &["operator type", "logical operator / property", "physical algorithm"],
    );
    for (ty, logical, physical) in entries() {
        t.row(vec![ty.into(), logical.into(), physical.into()]);
    }
    t
}

/// The matrix entries, derived from the implemented algebra.
#[must_use]
pub fn entries() -> Vec<(&'static str, &'static str, &'static str)> {
    use dqep_algebra::PhysicalOp;
    use dqep_catalog::{AttrId, IndexId, RelationId};

    // Instantiate one operator of each kind so the names come from the
    // implementation, not from a string list that could go stale.
    let attr = AttrId {
        relation: RelationId(0),
        index: 0,
    };
    let pred = dqep_algebra::SelectPred::bound(attr, dqep_algebra::CompareOp::Lt, 0);
    let file_scan = PhysicalOp::FileScan { relation: RelationId(0) };
    let btree_scan = PhysicalOp::BtreeScan {
        relation: RelationId(0),
        index: IndexId(0),
        key_attr: attr,
    };
    let filter = PhysicalOp::Filter { predicate: pred };
    let fbs = PhysicalOp::FilterBtreeScan {
        relation: RelationId(0),
        index: IndexId(0),
        predicate: pred,
    };
    let hj = PhysicalOp::HashJoin;
    let mj = PhysicalOp::MergeJoin;
    let ij = PhysicalOp::IndexJoin {
        inner: RelationId(0),
        index: IndexId(0),
        residual: None,
    };
    let sort = PhysicalOp::Sort { attr };
    let cp = PhysicalOp::ChoosePlan;

    vec![
        ("Data retrieval", "Get-Set", file_scan.name()),
        ("Data retrieval", "Get-Set", btree_scan.name()),
        ("Select, project", "Select", filter.name()),
        ("Select, project", "Select", fbs.name()),
        ("Join", "Join", hj.name()),
        ("Join", "Join", mj.name()),
        ("Join", "Join", ij.name()),
        ("Enforcer", "Sort order", sort.name()),
        ("Enforcer", "Plan robustness", cp.name()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table1() {
        let e = entries();
        assert_eq!(e.len(), 9);
        let physical: Vec<&str> = e.iter().map(|(_, _, p)| *p).collect();
        for expected in [
            "File-Scan",
            "B-tree-Scan",
            "Filter",
            "Filter-B-tree-Scan",
            "Hash-Join",
            "Merge-Join",
            "Index-Join",
            "Sort",
            "Choose-Plan",
        ] {
            assert!(physical.contains(&expected), "missing {expected}");
        }
        assert!(table().render().contains("Plan robustness"));
    }
}
