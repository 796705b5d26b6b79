//! Figure 6: plan sizes for static and dynamic plans.
//!
//! "For query 5, which has 11 uncertain variables (10 simple predicates
//! and the size of memory), the difference in plan size is 14,090 versus
//! 21 operator nodes." — and adding memory uncertainty "only barely
//! increases the sizes of the dynamic plans".

use std::sync::Arc;

use dqep_plan::{dag, AccessModule};

use crate::report::Table;

use super::QueryResults;

/// Paper-reported plan sizes for query 5 with memory uncertainty.
pub const PAPER_Q5_STATIC_NODES: usize = 21;
/// See [`PAPER_Q5_STATIC_NODES`].
pub const PAPER_Q5_DYNAMIC_NODES: usize = 14_090;

/// One data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Query number.
    pub query: usize,
    /// Uncertain variables.
    pub uncertain_vars: usize,
    /// Static plan nodes.
    pub static_nodes: usize,
    /// Dynamic plan DAG nodes (selectivities).
    pub dynamic_nodes: usize,
    /// Dynamic plan DAG nodes (selectivities + memory).
    pub dynamic_nodes_mem: Option<usize>,
    /// Choose-plan operators in the dynamic plan.
    pub choose_plans: usize,
    /// Complete static plans contained in the dynamic plan, counted here
    /// from the plan: the optimizer does not count them on its own path.
    pub contained_plans: f64,
}

/// Extracts data points.
#[must_use]
pub fn rows(results: &[QueryResults]) -> Vec<Fig6Row> {
    results
        .iter()
        .map(|r| Fig6Row {
            query: r.query,
            uncertain_vars: r.uncertain_vars,
            static_nodes: r.static_sel.plan_nodes,
            dynamic_nodes: r.dynamic_sel.plan_nodes,
            dynamic_nodes_mem: r.dynamic_mem.as_ref().map(|s| s.plan_nodes),
            choose_plans: r.dynamic_sel.choose_plans,
            contained_plans: r
                .dynamic_sel
                .plan
                .as_deref()
                .map_or(0.0, dag::contained_plan_count),
        })
        .collect()
}

/// Renders the figure as a table.
#[must_use]
pub fn table(results: &[QueryResults]) -> Table {
    let mut t = Table::new(
        "Figure 6: plan sizes (DAG operator nodes) for static and dynamic plans \
         (paper query 5 with memory: 21 vs 14,090)",
        &[
            "query",
            "#vars",
            "static nodes",
            "dynamic nodes",
            "+mem nodes",
            "choose-plans",
            "contained plans",
        ],
    );
    for row in rows(results) {
        t.row(vec![
            row.query.to_string(),
            row.uncertain_vars.to_string(),
            row.static_nodes.to_string(),
            row.dynamic_nodes.to_string(),
            row.dynamic_nodes_mem
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            row.choose_plans.to_string(),
            format!("{:.3e}", row.contained_plans),
        ]);
    }
    t
}

/// The stored size of each dynamic plan: its DAG nodes and the bytes of
/// its serialized access module (the encoding `AccessModule::serialize`
/// writes, not the modeled 128 bytes a node).
#[must_use]
pub fn module_table(results: &[QueryResults]) -> Table {
    let mut t = Table::new(
        "Access modules: serialized size of the dynamic plans of Figure 6",
        &["query", "dynamic nodes", "module bytes"],
    );
    for r in results {
        let bytes = r.dynamic_sel.plan.as_ref().map_or(0, |plan| {
            AccessModule::new(Arc::clone(plan)).serialize().len()
        });
        t.row(vec![
            r.query.to_string(),
            r.dynamic_sel.plan_nodes.to_string(),
            bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_query;
    use crate::params::ExperimentParams;

    #[test]
    fn dynamic_plans_are_much_larger_and_memory_adds_little() {
        let params = ExperimentParams {
            invocations: 3,
            ..ExperimentParams::paper()
        };
        let results = vec![run_query(2, &params)];
        let r = &rows(&results)[0];
        assert!(r.dynamic_nodes > 2 * r.static_nodes);
        assert!(r.contained_plans >= 2.0);
        let with_mem = r.dynamic_nodes_mem.unwrap();
        // "Barely increases": allow growth but not another blow-up.
        assert!(with_mem >= r.dynamic_nodes);
        assert!(with_mem <= r.dynamic_nodes * 3);
        assert!(table(&results).render().contains("Figure 6"));
        assert!(module_table(&results).render().contains("module bytes"));
    }
}
