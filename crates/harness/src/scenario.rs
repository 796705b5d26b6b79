//! The three optimization scenarios of paper Figure 3.
//!
//! * **Static**: optimize once at compile-time with expected-value
//!   parameters (`a`), then per invocation activate (`b`) and execute
//!   (`c_i`).
//! * **Run-time optimization**: optimize anew per invocation with the
//!   actual bindings (`a`), execute (`d_i`); no activation (the plan is
//!   passed directly to the execution engine).
//! * **Dynamic plans**: optimize once into a dynamic plan (`e`), then per
//!   invocation activate + decide (`f`) and execute (`g_i`).
//!
//! Execution times are optimizer-predicted costs under the true bindings
//! (paper footnote 4); optimization times and start-up CPU times are truly
//! measured on the host.

use std::sync::Arc;
use std::time::Instant;

use dqep_core::{Optimizer, OptimizerStats, SearchOptions};
use dqep_cost::{Bindings, Environment};
use dqep_plan::{evaluate_startup, Plan};

use crate::queries::Workload;

/// Outcome of running one scenario over a set of invocations.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Scenario label ("static", "run-time opt", "dynamic").
    pub scenario: &'static str,
    /// Compile-time optimization seconds: `a` (static), `e` (dynamic), or
    /// the *average per-invocation* optimization seconds (run-time opt).
    pub optimize_seconds: f64,
    /// Modeled per-invocation activation seconds: catalog validation +
    /// access-module read + (dynamic only) modeled choose-plan CPU.
    /// Zero for run-time optimization.
    pub activation_seconds: f64,
    /// Measured average start-up CPU seconds per invocation (the wall time
    /// of the decision procedure on the host machine; dynamic only).
    pub measured_startup_cpu: f64,
    /// Modeled start-up CPU seconds per invocation (one cost-function
    /// evaluation per DAG node, `SystemConfig::decision_time`; dynamic
    /// only).
    pub modeled_startup_cpu: f64,
    /// Cost-function evaluations of one start-up decision: the distinct
    /// DAG nodes it costs (dynamic only). Exact for a given plan, unlike
    /// the wall-clock reading of the same work in `measured_startup_cpu`.
    pub startup_evaluations: usize,
    /// Predicted execution seconds per invocation
    /// (`c_i` / `d_i` / `g_i`).
    pub exec_seconds: Vec<f64>,
    /// Plan size in DAG operator nodes (Figure 6 metric).
    pub plan_nodes: usize,
    /// Choose-plan operators in the plan.
    pub choose_plans: usize,
    /// Optimizer statistics of the (first) optimization.
    pub opt_stats: OptimizerStats,
    /// The plan (for static/dynamic scenarios; the last plan for run-time
    /// optimization).
    pub plan: Option<Arc<Plan>>,
    /// The compile-time environment the plan was produced under.
    pub env: Environment,
}

impl ScenarioResult {
    /// Mean predicted execution time.
    #[must_use]
    pub fn avg_exec(&self) -> f64 {
        if self.exec_seconds.is_empty() {
            return 0.0;
        }
        self.exec_seconds.iter().sum::<f64>() / self.exec_seconds.len() as f64
    }

    /// The size of one optimization in the units a start-up decision is
    /// counted in: physical candidates considered (a cost-function
    /// evaluation each, unless the bound cut it short) plus the logical
    /// expressions the rules produced. Exact for a given query and
    /// environment.
    #[must_use]
    pub fn optimizer_evaluations(&self) -> usize {
        self.opt_stats.physical_considered + self.opt_stats.logical_exprs
    }

    /// Total run-time effort over all invocations, in the paper's terms:
    /// `N × b + Σ c_i` (static), `N × a + Σ d_i` (run-time opt),
    /// `N × f + Σ g_i` (dynamic). Compile-time optimization of the
    /// once-optimized scenarios is *not* included (it is the `e`/`a` term
    /// of the break-even analysis).
    #[must_use]
    pub fn runtime_effort(&self) -> f64 {
        let n = self.exec_seconds.len() as f64;
        let per_invocation = if self.scenario == "run-time opt" {
            self.optimize_seconds
        } else {
            self.activation_seconds
        };
        n * per_invocation + self.exec_seconds.iter().sum::<f64>()
    }
}

/// Optimizes a workload three times and reports the fastest run — the
/// first run pays one-time cache warm-up that would otherwise distort the
/// microsecond-scale optimization times of the small queries.
fn measured_optimize(
    workload: &Workload,
    env: &Environment,
    options: SearchOptions,
) -> (dqep_core::OptimizeResult, f64) {
    let mut best: Option<(dqep_core::OptimizeResult, f64)> = None;
    for _ in 0..3 {
        let started = Instant::now();
        let result = Optimizer::with_options(&workload.catalog, env, options)
            .optimize(&workload.query)
            .expect("paper workloads always optimize");
        let elapsed = started.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, t)| elapsed < *t) {
            best = Some((result, elapsed));
        }
    }
    best.expect("three runs happened")
}

/// Runs the **static** scenario.
#[must_use]
pub fn run_static(workload: &Workload, bindings: &[Bindings]) -> ScenarioResult {
    run_static_with(workload, bindings, SearchOptions::paper())
}

/// Static scenario with explicit search options (ablations).
#[must_use]
pub fn run_static_with(
    workload: &Workload,
    bindings: &[Bindings],
    options: SearchOptions,
) -> ScenarioResult {
    let env = Environment::static_compile_time(&workload.catalog.config);
    let (result, optimize_seconds) = measured_optimize(workload, &env, options);
    let nodes = result.plan.len();
    let activation_seconds =
        workload.catalog.config.activation_base + workload.catalog.config.module_read_time(nodes);
    let exec_seconds = bindings
        .iter()
        .map(|b| evaluate_startup(&result.plan, &workload.catalog, &env, b).predicted_run_seconds)
        .collect();
    ScenarioResult {
        scenario: "static",
        optimize_seconds,
        activation_seconds,
        measured_startup_cpu: 0.0,
        modeled_startup_cpu: 0.0,
        startup_evaluations: 0,
        exec_seconds,
        plan_nodes: nodes,
        choose_plans: 0,
        opt_stats: result.stats,
        plan: Some(result.plan),
        env,
    }
}

/// Runs the **dynamic-plan** scenario. `uncertain_memory` selects between
/// the paper's ○-curves (selectivities only) and □-curves (selectivities
/// and memory).
#[must_use]
pub fn run_dynamic(
    workload: &Workload,
    bindings: &[Bindings],
    uncertain_memory: bool,
) -> ScenarioResult {
    run_dynamic_with(workload, bindings, uncertain_memory, SearchOptions::paper())
}

/// Dynamic scenario with explicit search options (ablations).
#[must_use]
pub fn run_dynamic_with(
    workload: &Workload,
    bindings: &[Bindings],
    uncertain_memory: bool,
    options: SearchOptions,
) -> ScenarioResult {
    let cfg = &workload.catalog.config;
    let env = if uncertain_memory {
        Environment::dynamic_uncertain_memory(cfg)
    } else {
        Environment::dynamic_compile_time(cfg)
    };
    let (result, optimize_seconds) = measured_optimize(workload, &env, options);
    let nodes = result.plan.len();

    let mut exec_seconds = Vec::with_capacity(bindings.len());
    let mut modeled_cpu = 0.0;
    let mut measured_cpu = 0.0;
    let mut startup_evaluations = 0;
    for b in bindings {
        let t = Instant::now();
        let startup = evaluate_startup(&result.plan, &workload.catalog, &env, b);
        measured_cpu += t.elapsed().as_secs_f64();
        modeled_cpu = startup.startup_cpu_seconds;
        startup_evaluations = startup.evaluated_nodes;
        exec_seconds.push(startup.predicted_run_seconds);
    }
    let n = bindings.len().max(1) as f64;
    let activation_seconds = cfg.activation_base + cfg.module_read_time(nodes) + modeled_cpu;
    ScenarioResult {
        scenario: "dynamic",
        optimize_seconds,
        activation_seconds,
        measured_startup_cpu: measured_cpu / n,
        modeled_startup_cpu: modeled_cpu,
        startup_evaluations,
        exec_seconds,
        plan_nodes: nodes,
        choose_plans: result.plan.choose_plan_count(),
        opt_stats: result.stats,
        plan: Some(result.plan),
        env,
    }
}

/// Runs the **run-time optimization** scenario: one full optimization per
/// invocation, with the actual bindings as point parameters.
#[must_use]
pub fn run_runtime_opt(workload: &Workload, bindings: &[Bindings]) -> ScenarioResult {
    let base = Environment::dynamic_compile_time(&workload.catalog.config);
    let mut exec_seconds = Vec::with_capacity(bindings.len());
    let mut total_opt = 0.0;
    let mut last = None;
    let mut stats = OptimizerStats::default();
    for b in bindings {
        let env = base.bind(b);
        let started = Instant::now();
        let result = Optimizer::new(&workload.catalog, &env)
            .optimize(&workload.query)
            .expect("paper workloads always optimize");
        total_opt += started.elapsed().as_secs_f64();
        let cost = evaluate_startup(&result.plan, &workload.catalog, &env, b).predicted_run_seconds;
        exec_seconds.push(cost);
        stats = result.stats;
        last = Some(result.plan);
    }
    let n = bindings.len().max(1) as f64;
    ScenarioResult {
        scenario: "run-time opt",
        optimize_seconds: total_opt / n,
        activation_seconds: 0.0,
        measured_startup_cpu: 0.0,
        modeled_startup_cpu: 0.0,
        startup_evaluations: 0,
        exec_seconds,
        plan_nodes: last.as_ref().map_or(0, |plan| plan.len()),
        choose_plans: 0,
        opt_stats: stats,
        plan: last,
        env: base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::BindingSampler;
    use crate::queries::paper_query;

    fn setup(k: usize, mem: bool) -> (Workload, Vec<Bindings>) {
        let w = paper_query(k, 21);
        let bindings = BindingSampler::new(33, mem).sample_n(&w, 20);
        (w, bindings)
    }

    #[test]
    fn static_plans_are_static() {
        let (w, b) = setup(2, false);
        let r = run_static(&w, &b);
        assert_eq!(r.choose_plans, 0);
        assert_eq!(r.exec_seconds.len(), 20);
        assert!(r.optimize_seconds > 0.0);
        assert!(r.activation_seconds >= w.catalog.config.activation_base);
    }

    #[test]
    fn dynamic_beats_static_on_average() {
        // Figure 4's headline: dynamic plans are far more robust.
        let (w, b) = setup(2, false);
        let st = run_static(&w, &b);
        let dy = run_dynamic(&w, &b, false);
        assert!(
            dy.avg_exec() < st.avg_exec(),
            "dynamic {} >= static {}",
            dy.avg_exec(),
            st.avg_exec()
        );
        assert!(dy.choose_plans > 0);
        assert!(dy.plan_nodes > st.plan_nodes);
    }

    #[test]
    fn dynamic_equals_runtime_optimization_costs() {
        // g_i = d_i (paper's optimality guarantee), checked per binding.
        let (w, b) = setup(2, false);
        let dy = run_dynamic(&w, &b, false);
        let rt = run_runtime_opt(&w, &b);
        for (i, (g, d)) in dy.exec_seconds.iter().zip(&rt.exec_seconds).enumerate() {
            assert!(
                (g - d).abs() < 1e-6,
                "invocation {i}: dynamic {g} vs run-time opt {d}"
            );
        }
    }

    #[test]
    fn dynamic_per_invocation_effort_below_runtime_opt() {
        // f < a: starting a dynamic plan is cheaper than re-optimizing.
        // Wall-clock comparison on the larger query (a bigger gap): each
        // side's least time over the repetitions, since interference from
        // the rest of the host can only add time. The count form of the
        // same claim is `experiments::fig8`'s
        // `startup_is_cheaper_than_reoptimization`.
        let (w, b) = setup(5, false);
        let (mut startup, mut reoptimize) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            startup = startup.min(run_dynamic(&w, &b, false).measured_startup_cpu);
            reoptimize = reoptimize.min(run_runtime_opt(&w, &b).optimize_seconds);
        }
        assert!(
            reoptimize / startup > 1.0,
            "least re-optimization {reoptimize} s should exceed least start-up {startup} s"
        );
    }

    #[test]
    fn memory_uncertainty_included_in_bindings() {
        let (w, b) = setup(1, true);
        assert!(b.iter().all(|x| x.memory_pages.is_some()));
        let dy = run_dynamic(&w, &b, true);
        assert!(dy.avg_exec() > 0.0);
    }

    #[test]
    fn runtime_effort_accounting() {
        let (w, b) = setup(1, false);
        let st = run_static(&w, &b);
        let expected = 20.0 * st.activation_seconds + st.exec_seconds.iter().sum::<f64>();
        assert!((st.runtime_effort() - expected).abs() < 1e-12);

        let rt = run_runtime_opt(&w, &b);
        let expected_rt = 20.0 * rt.optimize_seconds + rt.exec_seconds.iter().sum::<f64>();
        assert!((rt.runtime_effort() - expected_rt).abs() < 1e-9);
    }
}
