//! Figure 7: start-up CPU times for dynamic plans.
//!
//! "The increase in start-up CPU time introduced by dynamic plans almost
//! exactly parallels the increase in plan size. … for the most complex
//! dynamic plan the CPU effort at start-up-time is 5.8 sec, in spite of
//! the fact that a cost function must be evaluated for each node in the
//! dynamic plan."

use crate::report::{fmt_secs, Table};

use super::QueryResults;

/// Paper-reported start-up CPU for query 5 (seconds, 1994 hardware).
pub const PAPER_Q5_STARTUP_CPU: f64 = 5.8;

/// One data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Query number.
    pub query: usize,
    /// Uncertain variables.
    pub uncertain_vars: usize,
    /// Plan DAG nodes (each costed once at start-up).
    pub plan_nodes: usize,
    /// Modeled start-up CPU seconds (nodes × per-evaluation constant).
    pub modeled_cpu: f64,
    /// Measured start-up CPU seconds on the host (avg per invocation).
    pub measured_cpu: f64,
    /// Same figures with memory uncertainty, when run.
    pub modeled_cpu_mem: Option<f64>,
}

/// Extracts data points.
#[must_use]
pub fn rows(results: &[QueryResults]) -> Vec<Fig7Row> {
    results
        .iter()
        .map(|r| Fig7Row {
            query: r.query,
            uncertain_vars: r.uncertain_vars,
            plan_nodes: r.dynamic_sel.plan_nodes,
            modeled_cpu: r.dynamic_sel.modeled_startup_cpu,
            measured_cpu: r.dynamic_sel.measured_startup_cpu,
            modeled_cpu_mem: r.dynamic_mem.as_ref().map(|s| s.modeled_startup_cpu),
        })
        .collect()
}

/// Renders the figure as a table.
#[must_use]
pub fn table(results: &[QueryResults]) -> Table {
    let mut t = Table::new(
        "Figure 7: start-up CPU time of dynamic plans \
         (paper query 5: 5.8 s for 14,090 nodes)",
        &[
            "query",
            "#vars",
            "plan nodes",
            "modeled cpu",
            "measured cpu",
            "+mem modeled",
        ],
    );
    for row in rows(results) {
        t.row(vec![
            row.query.to_string(),
            row.uncertain_vars.to_string(),
            row.plan_nodes.to_string(),
            fmt_secs(row.modeled_cpu),
            fmt_secs(row.measured_cpu),
            row.modeled_cpu_mem.map(fmt_secs).unwrap_or_else(|| "-".into()),
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
    fn startup_cpu_parallels_plan_size() {
        let params = ExperimentParams {
            invocations: 5,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        };
        let results = vec![run_query(1, &params), run_query(3, &params)];
        let rs = rows(&results);
        assert!(rs[1].plan_nodes > rs[0].plan_nodes);
        assert!(rs[1].modeled_cpu > rs[0].modeled_cpu);
        // Modeled CPU = one cost-function evaluation per plan node, exactly.
        let cfg = &results[0].workload.catalog.config;
        assert_eq!(rs[0].modeled_cpu, cfg.decision_time(rs[0].plan_nodes));
        assert!(rs[1].measured_cpu > 0.0);
        assert!(table(&results).render().contains("Figure 7"));
    }
}
