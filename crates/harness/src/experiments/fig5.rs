//! Figure 5: optimization time for static and dynamic plans.
//!
//! "For any query, the worst increase in optimization times is less than a
//! factor of 3, 27.1 sec versus 80.6 sec for query 5. This difference is
//! primarily due to the reduced effectiveness of branch-and-bound pruning."

use crate::report::{fmt_ratio, fmt_secs, Table};

use super::QueryResults;

/// Paper-reported optimization times for query 5 (seconds, 1994 hardware).
pub const PAPER_Q5_STATIC: f64 = 27.1;
/// See [`PAPER_Q5_STATIC`].
pub const PAPER_Q5_DYNAMIC: f64 = 80.6;

/// One data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Query number.
    pub query: usize,
    /// Uncertain variables.
    pub uncertain_vars: usize,
    /// Measured static optimization seconds.
    pub static_opt: f64,
    /// Measured dynamic optimization seconds (selectivities).
    pub dynamic_opt: f64,
    /// Measured dynamic optimization seconds (selectivities + memory).
    pub dynamic_opt_mem: Option<f64>,
    /// The part of `dynamic_opt` spent exploring the memo (validation,
    /// seeding, transformation rules).
    pub dynamic_explore: f64,
    /// The rest of `dynamic_opt`: the property-driven search.
    pub dynamic_search: f64,
    /// Branch-and-bound prunes during static optimization.
    pub static_pruned: usize,
    /// Branch-and-bound prunes during dynamic optimization — the paper's
    /// explanation for the slowdown is that this collapses.
    pub dynamic_pruned: usize,
}

/// Extracts data points.
#[must_use]
pub fn rows(results: &[QueryResults]) -> Vec<Fig5Row> {
    results
        .iter()
        .map(|r| Fig5Row {
            query: r.query,
            uncertain_vars: r.uncertain_vars,
            static_opt: r.static_sel.optimize_seconds,
            dynamic_opt: r.dynamic_sel.optimize_seconds,
            dynamic_opt_mem: r.dynamic_mem.as_ref().map(|s| s.optimize_seconds),
            dynamic_explore: r.dynamic_sel.opt_stats.explore_seconds,
            dynamic_search: r.dynamic_sel.opt_stats.search_seconds,
            static_pruned: r.static_sel.opt_stats.pruned_by_bound,
            dynamic_pruned: r.dynamic_sel.opt_stats.pruned_by_bound,
        })
        .collect()
}

/// Renders the figure as a table.
#[must_use]
pub fn table(results: &[QueryResults]) -> Table {
    let mut t = Table::new(
        "Figure 5: optimization time for static and dynamic plans \
         (paper query 5: 27.1 s vs 80.6 s, < 3x)",
        &[
            "query",
            "#vars",
            "static opt",
            "dynamic opt",
            "ratio",
            "dyn explore",
            "dyn search",
            "+mem opt",
            "static prunes",
            "dynamic prunes",
        ],
    );
    for row in rows(results) {
        t.row(vec![
            row.query.to_string(),
            row.uncertain_vars.to_string(),
            fmt_secs(row.static_opt),
            fmt_secs(row.dynamic_opt),
            fmt_ratio(row.dynamic_opt / row.static_opt),
            fmt_secs(row.dynamic_explore),
            fmt_secs(row.dynamic_search),
            row.dynamic_opt_mem.map(fmt_secs).unwrap_or_else(|| "-".into()),
            row.static_pruned.to_string(),
            row.dynamic_pruned.to_string(),
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
    fn pruning_collapses_in_dynamic_mode() {
        let params = ExperimentParams {
            invocations: 3,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        };
        let results = vec![run_query(3, &params)];
        let rows = rows(&results);
        assert!(
            rows[0].static_pruned > rows[0].dynamic_pruned,
            "static prunes {} should exceed dynamic prunes {}",
            rows[0].static_pruned,
            rows[0].dynamic_pruned
        );
        assert!(rows[0].static_opt > 0.0 && rows[0].dynamic_opt > 0.0);
        assert!(table(&results).render().contains("Figure 5"));
    }
}
