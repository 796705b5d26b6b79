//! The paper's Figure 2: a dynamic plan that switches scan methods *and*
//! join build sides — here driven by uncertain memory as well as an
//! uncertain selectivity.
//!
//! A hash join performs much better when the smaller input is the build
//! input, and it avoids partitioning I/O only when the build input fits
//! the memory grant. With the selection on R unbound and memory unknown in
//! `[16, 112]` pages, the optimizer keeps alternatives for both decisions
//! and the start-up-time choose-plan adapts.
//!
//! Run with `cargo run --release --example memory_adaptive`.

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::optimizer::Optimizer;
use dqep::plan::{evaluate_startup, render_plan};

fn main() {
    // R is large and filtered by an unbound predicate; S is mid-sized.
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 1_000, 512, |r| {
            r.attr("a", 1_000.0).attr("j", 400.0).btree("a", false).btree("j", false)
        })
        .relation("s", 300, 512, |r| r.attr("j", 400.0).btree("j", false))
        .build()
        .expect("catalog");
    let r = catalog.relation_by_name("r").expect("r");
    let s = catalog.relation_by_name("s").expect("s");

    let query = LogicalExpr::get(r.id)
        .select(SelectPred::unbound(
            r.attr_id("a").expect("attr"),
            CompareOp::Lt,
            HostVar(0),
        ))
        .join(
            LogicalExpr::get(s.id),
            vec![JoinPred::new(r.attr_id("j").expect("attr"), s.attr_id("j").expect("attr"))],
        );

    // Selectivity AND memory unknown at compile-time.
    let env = Environment::dynamic_uncertain_memory(&catalog.config);
    let result = Optimizer::new(&catalog, &env).optimize(&query).expect("optimize");
    println!(
        "dynamic plan: {} DAG nodes, {} choose-plans, {} contained static plans\n",
        result.stats.plan_nodes,
        result.plan.choose_plan_count(),
        result.stats.contained_plans
    );

    let scenarios = [
        ("tiny R side, ample memory", 20i64, 112.0),
        ("tiny R side, scarce memory", 20, 16.0),
        ("large R side, ample memory", 950, 112.0),
        ("large R side, scarce memory", 950, 16.0),
    ];
    for (label, x, mem) in scenarios {
        let bindings = Bindings::new().with_value(HostVar(0), x).with_memory(mem);
        let startup = evaluate_startup(&result.plan, &catalog, &env, &bindings);
        let joins: Vec<String> = startup
            .resolved
            .iter()
            .filter(|(_, n)| {
                matches!(
                    n.op,
                    PhysicalOp::HashJoin | PhysicalOp::MergeJoin | PhysicalOp::IndexJoin { .. }
                )
            })
            .map(|(id, _)| startup.resolved.label(id).to_string())
            .collect();
        println!("== {label} (:x={x}, mem={mem} pages) ==");
        println!("  join method(s): {}", joins.join("; "));
        println!("  predicted cost: {:.4}s", startup.predicted_run_seconds);
        println!("  chosen plan:\n{}", indent(&render_plan(&startup.resolved)));
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
