//! Figure 3: the three optimization scenarios, as measured timelines.
//!
//! The paper's Figure 3 is a schematic of when work happens in each
//! scenario. This module renders the measured/modeled values of the
//! schematic's symbols for one query: `a, b, c̄` (static), `a, d̄`
//! (run-time optimization), `e, f, ḡ` (dynamic plans), plus the total
//! effort over `N` invocations.

use crate::report::{fmt_secs, Table};

use super::QueryResults;

/// Renders the scenario comparison for one query's results.
#[must_use]
pub fn table(r: &QueryResults) -> Table {
    let n = r.static_sel.exec_seconds.len();
    let mut t = Table::new(
        format!(
            "Figure 3: optimization scenarios for query {} over N={} invocations",
            r.query, n
        ),
        &[
            "scenario",
            "compile-opt",
            "per-inv opt",
            "activate/inv",
            "avg exec",
            "total effort",
        ],
    );
    let total_static = r.static_sel.optimize_seconds + r.static_sel.runtime_effort();
    t.row(vec![
        "static".into(),
        fmt_secs(r.static_sel.optimize_seconds),
        "0".into(),
        fmt_secs(r.static_sel.activation_seconds),
        fmt_secs(r.static_sel.avg_exec()),
        fmt_secs(total_static),
    ]);
    t.row(vec![
        "run-time opt".into(),
        "0".into(),
        fmt_secs(r.runtime_sel.optimize_seconds),
        "0".into(),
        fmt_secs(r.runtime_sel.avg_exec()),
        fmt_secs(r.runtime_sel.runtime_effort()),
    ]);
    let total_dynamic = r.dynamic_sel.optimize_seconds + r.dynamic_sel.runtime_effort();
    t.row(vec![
        "dynamic".into(),
        fmt_secs(r.dynamic_sel.optimize_seconds),
        "0".into(),
        fmt_secs(r.dynamic_sel.activation_seconds),
        fmt_secs(r.dynamic_sel.avg_exec()),
        fmt_secs(total_dynamic),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_query;
    use crate::params::ExperimentParams;

    #[test]
    fn dynamic_total_effort_wins_over_both() {
        // The paper's claim: over many invocations,
        // e + N·f + Σg < a + N·b + Σc and e + N·f + Σg < N·a + Σd.
        let params = ExperimentParams {
            invocations: 25,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        };
        let r = run_query(2, &params);
        let total_static = r.static_sel.optimize_seconds + r.static_sel.runtime_effort();
        let total_dynamic = r.dynamic_sel.optimize_seconds + r.dynamic_sel.runtime_effort();
        assert!(
            total_dynamic < total_static,
            "dynamic {total_dynamic} vs static {total_static}"
        );
        // vs run-time optimization the executions cancel (ḡ = d̄: the same
        // plans are chosen), leaving e + N·f_cpu < N·a. All three are
        // sub-millisecond wall-clock readings here, so compare them as the
        // work they time (see the fig8 measurement note): candidates and
        // expressions per optimization, cost-function evaluations per
        // start-up decision.
        assert!(
            (r.dynamic_sel.avg_exec() - r.runtime_sel.avg_exec()).abs() < 1e-9,
            "g {} vs d {}",
            r.dynamic_sel.avg_exec(),
            r.runtime_sel.avg_exec()
        );
        let n = 25;
        let dynamic_work =
            r.dynamic_sel.optimizer_evaluations() + n * r.dynamic_sel.startup_evaluations;
        let runtime_work = n * r.runtime_sel.optimizer_evaluations();
        assert!(
            dynamic_work < runtime_work,
            "dynamic effort {dynamic_work} vs run-time opt {runtime_work} (evaluations)"
        );
        let t = table(&r);
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("run-time opt"));
    }
}
