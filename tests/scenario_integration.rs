//! Integration tests of the Figure 3 scenario accounting and the shrinking
//! access module on optimizer-produced plans.

use dqep::cost::Environment;
use dqep::harness::{paper_query, run_dynamic, run_runtime_opt, run_static, BindingSampler};
use dqep::optimizer::Optimizer;
use dqep::plan::shrink::ShrinkingModule;
use dqep::plan::dag;

/// Figure 3 / Figure 4 end-to-end: dynamic plans dominate static plans in
/// total effort, and match run-time optimization invocation by invocation.
#[test]
fn scenario_relationships_hold_at_n50() {
    let w = paper_query(2, 77);
    let bindings = BindingSampler::new(5, false).sample_n(&w, 50);

    let st = run_static(&w, &bindings);
    let dy = run_dynamic(&w, &bindings, false);
    let rt = run_runtime_opt(&w, &bindings);

    // Robustness: every invocation.
    for (i, (c, g)) in st.exec_seconds.iter().zip(&dy.exec_seconds).enumerate() {
        assert!(g <= &(c + 1e-9), "invocation {i}: dynamic {g} > static {c}");
    }
    // Optimality: g_i = d_i.
    for (g, d) in dy.exec_seconds.iter().zip(&rt.exec_seconds) {
        assert!((g - d).abs() < 1e-6);
    }
    // Totals, as reported in Figure 3.
    let total_static = st.optimize_seconds + st.runtime_effort();
    let total_dynamic = dy.optimize_seconds + dy.runtime_effort();
    assert!(total_dynamic < total_static);
}

/// The break-even point against static plans is 1 in the paper and stays
/// tiny here: dynamic plans pay off from the first invocation.
#[test]
fn dynamic_pays_off_immediately() {
    let w = paper_query(3, 78);
    let bindings = BindingSampler::new(6, false).sample_n(&w, 30);
    let st = run_static(&w, &bindings);
    let dy = run_dynamic(&w, &bindings, false);
    let per_inv_static = st.activation_seconds + st.avg_exec();
    let per_inv_dynamic = dy.activation_seconds + dy.avg_exec();
    assert!(per_inv_dynamic < per_inv_static);
    let n_break = ((dy.optimize_seconds - st.optimize_seconds)
        / (per_inv_static - per_inv_dynamic))
        .ceil()
        .max(1.0);
    assert!(n_break <= 2.0, "break-even {n_break}");
}

/// The shrinking module reduces activation effort after skewed usage and
/// keeps producing correct (if possibly suboptimal) plans afterwards.
#[test]
fn shrinking_module_on_optimized_plan() {
    let w = paper_query(2, 79);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    let nodes_before = dag::node_count(&plan);

    let mut module = ShrinkingModule::new(plan, 20);
    // Skewed: always-low selectivities.
    for i in 0..20 {
        let b = w.space.bindings(&w.catalog, std::iter::repeat((i % 5) as f64 / 50.0));
        let r = module.invoke(&w.catalog, &env, &b);
        assert!(r.predicted_run_seconds >= 0.0);
    }
    assert!(module.has_shrunk());
    let nodes_after = dag::node_count(module.plan());
    assert!(
        nodes_after < nodes_before,
        "shrink did not reduce plan size ({nodes_before} -> {nodes_after})"
    );

    // Later invocations still work, even outside the observed range.
    let hot = w.space.bindings(&w.catalog, std::iter::repeat(0.9));
    let r = module.invoke(&w.catalog, &env, &hot);
    assert!(r.predicted_run_seconds > 0.0);
}

/// Scenario runners agree with the raw optimizer statistics they embed.
#[test]
fn scenario_results_are_internally_consistent() {
    let w = paper_query(1, 80);
    let bindings = BindingSampler::new(7, true).sample_n(&w, 10);
    let dy = run_dynamic(&w, &bindings, true);
    assert_eq!(dy.exec_seconds.len(), 10);
    assert_eq!(dy.plan_nodes, dy.opt_stats.plan_nodes);
    assert!(dy.choose_plans > 0);
    assert!(dy.modeled_startup_cpu > 0.0);
    assert!(dy.activation_seconds > dy.modeled_startup_cpu);
    let plan = dy.plan.as_ref().expect("plan kept");
    assert_eq!(dag::choose_plan_count(plan), dy.choose_plans);
}
