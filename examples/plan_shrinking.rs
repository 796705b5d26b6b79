//! The self-shrinking access module of paper Section 4.
//!
//! "During each invocation, the access module keeps statistics indicating
//! which components of the dynamic plan were actually used. After a number
//! of invocations, say 100, the access module … replaces itself with a
//! dynamic-plan access module that contains only those components that
//! have been used before."
//!
//! This example runs 100 invocations whose bindings are *skewed* to low
//! selectivities, lets the module shrink, shows the activation-time
//! saving — and then demonstrates the heuristic's documented risk by
//! issuing a high-selectivity binding the shrunk plan no longer handles
//! optimally.
//!
//! Run with `cargo run --release --example plan_shrinking`.

use dqep::catalog::SystemConfig;
use dqep::harness::paper_query;
use dqep::optimizer::Optimizer;
use dqep::plan::shrink::ShrinkingModule;
use dqep::plan::{dag, evaluate_startup, AccessModule};
use dqep_cost::Environment;

fn main() {
    let workload = paper_query(3, 21); // 4-way join
    let catalog = &workload.catalog;
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(catalog, &env)
        .optimize(&workload.query)
        .expect("optimize")
        .plan;

    let before = AccessModule::new(plan.clone()).stats(&catalog.config);
    println!(
        "dynamic plan: {} nodes, module {} bytes (modeled), activation {:.4}s",
        before.nodes, before.modeled_bytes, before.activation_seconds
    );

    // 100 invocations, all with low selectivities (values in the bottom 10%
    // of each domain).
    let mut module = ShrinkingModule::new(plan.clone(), 100);
    let mut skewed = Vec::new();
    for i in 0..100u64 {
        let share = (i % 10) as f64 / 100.0;
        skewed.push(workload.space.bindings(catalog, std::iter::repeat(share)));
    }
    for b in &skewed {
        let _ = module.invoke(catalog, &env, b);
    }
    assert!(module.has_shrunk());

    let after = AccessModule::new(module.plan().clone()).stats(&catalog.config);
    println!(
        "after 100 skewed invocations: {} nodes, module {} bytes, activation {:.4}s \
         ({}x smaller, {} choose-plans left)",
        after.nodes,
        after.modeled_bytes,
        after.activation_seconds,
        before.nodes / after.nodes.max(1),
        dag::choose_plan_count(module.plan()),
    );

    // The risk: a binding outside the observed distribution.
    let hot = workload.space.bindings(catalog, std::iter::repeat(0.95));
    let full = evaluate_startup(&plan, catalog, &env, &hot).predicted_run_seconds;
    let lean = evaluate_startup(module.plan(), catalog, &env, &hot).predicted_run_seconds;
    println!(
        "\nhigh-selectivity binding after shrinking: full plan {full:.3}s, \
         shrunk plan {lean:.3}s ({:.1}x regression — the documented risk of the heuristic)",
        lean / full
    );

    let _ = SystemConfig::paper_1994();
}
