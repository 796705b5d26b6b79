//! Human-readable plan rendering.

use std::fmt::Write as _;

use crate::plan::{NodeId, Plan};

/// Renders a plan DAG as an indented tree. Nodes reached more than once
/// (shared subexpressions) are expanded the first time and referenced as
/// `^n<id>` afterwards, making DAG sharing visible:
///
/// ```text
/// Choose-Plan  cost=[0.0100, 1.0100]
/// ├── Filter[R0.#0 < :v0]  cost=...
/// │   └── File-Scan R0  cost=...
/// └── Filter-B-tree-Scan R0[R0.#0 < :v0]  cost=...
/// ```
#[must_use]
pub fn render_plan(plan: &Plan) -> String {
    let mut out = String::new();
    let mut seen = vec![false; plan.len()];
    render(plan, plan.root(), "", "", &mut seen, &mut out);
    out
}

fn render(
    plan: &Plan,
    id: NodeId,
    prefix: &str,
    child_prefix: &str,
    seen: &mut [bool],
    out: &mut String,
) {
    let node = &plan[id];
    if std::mem::replace(&mut seen[id.index()], true) {
        let _ = writeln!(out, "{prefix}^{id} (shared {})", node.op.name());
        return;
    }
    let _ = writeln!(
        out,
        "{prefix}{}  card={} cost={}",
        plan.label(id),
        node.stats.card,
        node.total_cost.total()
    );
    let children = plan.children(id);
    for (i, c) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        let (branch, cont) = if last {
            ("└── ", "    ")
        } else {
            ("├── ", "│   ")
        };
        render(
            plan,
            *c,
            &format!("{child_prefix}{branch}"),
            &format!("{child_prefix}{cont}"),
            seen,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::PhysicalOp;
    use dqep_catalog::{AttrId, RelationId};
    use dqep_cost::{Cost, PlanStats};
    use dqep_interval::Interval;

    #[test]
    fn renders_tree_with_sharing_markers() {
        let mut p = Plan::new();
        let shared = p.push(
            PhysicalOp::FileScan { relation: RelationId(0) },
            &[],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.0, 0.1),
        );
        let s1 = p.push(
            PhysicalOp::Sort {
                attr: AttrId { relation: RelationId(0), index: 0 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.1, 0.0),
        );
        let s2 = p.push(
            PhysicalOp::Sort {
                attr: AttrId { relation: RelationId(0), index: 1 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.2, 0.0),
        );
        p.choose_plan(&[s1, s2], Cost::point(0.01, 0.0));
        let text = render_plan(&p);
        assert!(text.contains("Choose-Plan"));
        assert!(text.contains("File-Scan R0"));
        assert!(text.contains("^n0 (shared File-Scan)"), "text was:\n{text}");
        assert_eq!(text.matches("Sort").count(), 2);
        // The shared scan is expanded exactly once.
        assert_eq!(text.matches("File-Scan R0  card").count(), 1);
    }

    #[test]
    fn renders_single_node() {
        let mut p = Plan::new();
        p.push(
            PhysicalOp::FileScan { relation: RelationId(2) },
            &[],
            &[],
            PlanStats::new(Interval::point(5.0), 512.0),
            Cost::point(0.0, 0.2),
        );
        let text = render_plan(&p);
        assert!(text.starts_with("File-Scan R2"));
        assert!(text.contains("cost=[0.2000]"));
    }
}
