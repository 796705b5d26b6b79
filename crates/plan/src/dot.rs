//! Graphviz (DOT) export of plan DAGs.
//!
//! Dynamic plans are DAGs with shared subexpressions, which indented text
//! rendering ([`crate::render_plan`]) can only hint at; DOT makes the
//! sharing visible. Choose-plan nodes render as diamonds, scans as boxes,
//! other operators as ellipses; edges from a choose-plan carry the
//! alternative index.
//!
//! ```text
//! dot -Tsvg plan.dot -o plan.svg
//! ```

use std::fmt::Write as _;

use dqep_algebra::PhysicalOp;

use crate::plan::Plan;

/// Renders the DAG as a Graphviz digraph.
#[must_use]
pub fn to_dot(plan: &Plan) -> String {
    let mut out = String::from("digraph plan {\n  rankdir=BT;\n  node [fontsize=10];\n");
    for (id, node) in plan.iter() {
        let shape = match node.op {
            PhysicalOp::ChoosePlan => "diamond",
            PhysicalOp::FileScan { .. }
            | PhysicalOp::BtreeScan { .. }
            | PhysicalOp::FilterBtreeScan { .. } => "box",
            _ => "ellipse",
        };
        let label = format!(
            "{}\\ncard={}\\ncost={}",
            escape(&plan.label(id).to_string()),
            node.stats.card,
            node.total_cost.total()
        );
        let _ = writeln!(out, "  {} [shape={shape}, label=\"{label}\"];", id.0);
        for (i, child) in plan.children(id).iter().enumerate() {
            if node.is_choose_plan() {
                let _ = writeln!(out, "  {} -> {} [label=\"alt {i}\"];", child.0, id.0);
            } else {
                let _ = writeln!(out, "  {} -> {};", child.0, id.0);
            }
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::RelationId;
    use dqep_cost::{Cost, PlanStats};
    use dqep_interval::Interval;

    #[test]
    fn emits_nodes_edges_and_shapes() {
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
                attr: dqep_catalog::AttrId { relation: RelationId(0), index: 0 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.1, 0.0),
        );
        let s2 = p.push(
            PhysicalOp::Sort {
                attr: dqep_catalog::AttrId { relation: RelationId(0), index: 1 },
            },
            &[shared],
            &[],
            PlanStats::new(Interval::point(10.0), 512.0),
            Cost::point(0.2, 0.0),
        );
        p.choose_plan(&[s1, s2], Cost::point(0.01, 0.0));
        let dot = to_dot(&p);
        assert!(dot.starts_with("digraph plan {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("shape=diamond"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("alt 0"));
        assert!(dot.contains("alt 1"));
        // Shared scan: exactly one node line for it, two outgoing edges.
        let scan_node_lines = dot
            .lines()
            .filter(|l| l.contains("File-Scan") && l.contains("shape=box"))
            .count();
        assert_eq!(scan_node_lines, 1);
        let scan_edges = dot
            .lines()
            .filter(|l| l.trim_start().starts_with("0 -> "))
            .count();
        assert_eq!(scan_edges, 2, "shared node has two parents:\n{dot}");
    }

    #[test]
    fn dot_is_deterministic() {
        let mut p = Plan::new();
        p.push(
            PhysicalOp::FileScan { relation: RelationId(1) },
            &[],
            &[],
            PlanStats::new(Interval::point(1.0), 512.0),
            Cost::ZERO,
        );
        assert_eq!(to_dot(&p), to_dot(&p));
    }
}
