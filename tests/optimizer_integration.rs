//! Cross-crate integration tests: optimizer guarantees on the paper's
//! workloads.

use dqep::cost::{Bindings, Environment};
use dqep::harness::{paper_query, BindingSampler};
use dqep::optimizer::{Optimizer, SearchOptions};
use dqep::plan::{dag, evaluate_startup, AccessModule};

/// The robustness guarantee (paper Section 3): for *every* binding, the
/// dynamic plan's chosen cost is no higher than the static plan's cost.
#[test]
fn dynamic_never_worse_than_static_over_many_bindings() {
    for k in 1..=3 {
        let w = paper_query(k, 1000 + k as u64);
        let static_env = Environment::static_compile_time(&w.catalog.config);
        let dynamic_env = Environment::dynamic_compile_time(&w.catalog.config);
        let static_plan = Optimizer::new(&w.catalog, &static_env)
            .optimize(&w.query)
            .unwrap()
            .plan;
        let dynamic_plan = Optimizer::new(&w.catalog, &dynamic_env)
            .optimize(&w.query)
            .unwrap()
            .plan;
        let mut sampler = BindingSampler::new(77, false);
        for (i, b) in sampler.sample_n(&w, 50).iter().enumerate() {
            let st = evaluate_startup(&static_plan, &w.catalog, &static_env, b);
            let dy = evaluate_startup(&dynamic_plan, &w.catalog, &dynamic_env, b);
            assert!(
                dy.predicted_run_seconds <= st.predicted_run_seconds + 1e-9,
                "query {k}, binding {i}: dynamic {} > static {}",
                dy.predicted_run_seconds,
                st.predicted_run_seconds
            );
        }
    }
}

/// The optimality guarantee (paper Section 3, `g_i = d_i`): the dynamic
/// plan's start-up choice always matches what a full run-time optimization
/// with the same bindings would produce.
#[test]
fn dynamic_equals_runtime_optimization_over_many_bindings() {
    for k in 1..=3 {
        let w = paper_query(k, 2000 + k as u64);
        let dynamic_env = Environment::dynamic_compile_time(&w.catalog.config);
        let dynamic_plan = Optimizer::new(&w.catalog, &dynamic_env)
            .optimize(&w.query)
            .unwrap()
            .plan;
        let mut sampler = BindingSampler::new(78, false);
        for (i, b) in sampler.sample_n(&w, 25).iter().enumerate() {
            let dy = evaluate_startup(&dynamic_plan, &w.catalog, &dynamic_env, b);
            let rt_env = dynamic_env.bind(b);
            let rt_plan = Optimizer::new(&w.catalog, &rt_env)
                .optimize(&w.query)
                .unwrap()
                .plan;
            let rt = evaluate_startup(&rt_plan, &w.catalog, &rt_env, b);
            assert!(
                (dy.predicted_run_seconds - rt.predicted_run_seconds).abs() < 1e-6,
                "query {k}, binding {i}: dynamic {} vs run-time opt {}",
                dy.predicted_run_seconds,
                rt.predicted_run_seconds
            );
        }
    }
}

/// With uncertain memory, the guarantee extends over the memory dimension.
#[test]
fn memory_uncertainty_preserves_guarantees() {
    let w = paper_query(2, 3000);
    let env = Environment::dynamic_uncertain_memory(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    let mut sampler = BindingSampler::new(79, true);
    for b in sampler.sample_n(&w, 25) {
        let dy = evaluate_startup(&plan, &w.catalog, &env, &b);
        let rt_env = env.bind(&b);
        let rt_plan = Optimizer::new(&w.catalog, &rt_env)
            .optimize(&w.query)
            .unwrap()
            .plan;
        let rt = evaluate_startup(&rt_plan, &w.catalog, &rt_env, &b);
        assert!((dy.predicted_run_seconds - rt.predicted_run_seconds).abs() < 1e-6);
    }
}

/// The compile-time execution interval of the dynamic plan encloses the
/// actual resolved cost at any binding (soundness of interval costs).
#[test]
fn compile_time_interval_encloses_startup_costs() {
    let w = paper_query(2, 4000);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let result = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap();
    let interval = result.plan.root_node().exec.total();
    let mut sampler = BindingSampler::new(80, false);
    for b in sampler.sample_n(&w, 50) {
        let dy = evaluate_startup(&result.plan, &w.catalog, &env, &b);
        assert!(
            dy.predicted_run_seconds >= interval.lo() * (1.0 - 1e-9),
            "cost {} below interval {interval}",
            dy.predicted_run_seconds
        );
        assert!(
            dy.predicted_run_seconds <= interval.hi() * (1.0 + 1e-9),
            "cost {} above interval {interval}",
            dy.predicted_run_seconds
        );
    }
}

/// Optimized plans satisfy structural invariants and survive access-module
/// round trips with identical shape and cost.
#[test]
fn plans_roundtrip_through_access_modules() {
    for k in 1..=4 {
        let w = paper_query(k, 5000 + k as u64);
        for env in [
            Environment::static_compile_time(&w.catalog.config),
            Environment::dynamic_compile_time(&w.catalog.config),
        ] {
            let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
            plan.check_invariants().unwrap();
            let module = AccessModule::new(plan.clone());
            let back = AccessModule::deserialize(module.serialize()).unwrap();
            assert_eq!(dag::node_count(back.plan()), dag::node_count(&plan));
            assert_eq!(
                back.plan().root_node().total_cost.total(),
                plan.root_node().total_cost.total(),
                "query {k}: cost changed through serialization"
            );
            assert_eq!(
                back.plan().root_node().exec,
                plan.root_node().exec,
                "query {k}: execution cost changed through serialization"
            );
            back.plan().check_invariants().unwrap();

            // The deserialized module makes identical start-up decisions.
            let b = BindingSampler::new(42, false).sample(&w);
            let a = evaluate_startup(&plan, &w.catalog, &env, &b);
            let c = evaluate_startup(back.plan(), &w.catalog, &env, &b);
            assert_eq!(a.predicted_run_seconds, c.predicted_run_seconds);
        }
    }
}

/// Search options that only restrict *representation* (pruning, sharing)
/// never change plan quality; options that restrict the *search space*
/// (left-deep) can only make plans worse or equal.
#[test]
fn option_semantics() {
    let w = paper_query(3, 6000);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let base = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap();
    let mut sampler = BindingSampler::new(81, false);
    let bindings = sampler.sample_n(&w, 10);

    let no_pruning = Optimizer::with_options(
        &w.catalog,
        &env,
        SearchOptions { enable_pruning: false, ..SearchOptions::paper() },
    )
    .optimize(&w.query)
    .unwrap();
    assert_eq!(
        no_pruning.plan.root_node().total_cost.total(),
        base.plan.root_node().total_cost.total()
    );

    let left_deep = Optimizer::with_options(
        &w.catalog,
        &env,
        SearchOptions { bushy: false, ..SearchOptions::paper() },
    )
    .optimize(&w.query)
    .unwrap();
    for b in &bindings {
        let full = evaluate_startup(&base.plan, &w.catalog, &env, b).predicted_run_seconds;
        let ld = evaluate_startup(&left_deep.plan, &w.catalog, &env, b).predicted_run_seconds;
        assert!(
            ld >= full - 1e-9,
            "left-deep restriction cannot beat the full space"
        );
    }

    // An unbound binding set: startup evaluation still functions, using
    // expected values for unbound parameters.
    let neutral = evaluate_startup(&base.plan, &w.catalog, &env, &Bindings::new());
    assert!(neutral.predicted_run_seconds > 0.0);
}
