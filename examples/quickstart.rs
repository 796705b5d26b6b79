//! Quickstart: the paper's Figure 1, end to end.
//!
//! An embedded query `SELECT * FROM orders WHERE amount < :x` cannot be
//! costed at compile-time — the selectivity of `:x` is unknown, so the
//! file-scan plan and the B-tree plan have *incomparable* costs. The
//! optimizer keeps both under a choose-plan operator; at start-up-time the
//! decision procedure re-evaluates their cost functions with `:x` bound
//! and runs the cheaper plan.
//!
//! Run with `cargo run --example quickstart`.

use dqep::algebra::{CompareOp, HostVar, LogicalExpr, SelectPred};
use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{run, ExecContext, RootSink, SharedCounters};
use dqep::optimizer::Optimizer;
use dqep::plan::{render_plan, evaluate_startup};
use dqep::storage::StoredDatabase;

fn main() {
    // A 1,000-record relation with an unclustered B-tree on `amount`.
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("orders", 1_000, 512, |r| {
            r.attr("amount", 1_000.0).attr("customer", 400.0).btree("amount", false)
        })
        .build()
        .expect("catalog");
    let orders = catalog.relation_by_name("orders").expect("relation");

    // SELECT * FROM orders WHERE amount < :x
    let query = LogicalExpr::get(orders.id).select(SelectPred::unbound(
        orders.attr_id("amount").expect("attr"),
        CompareOp::Lt,
        HostVar(0),
    ));

    // Compile-time: one optimization, producing a dynamic plan.
    let env = Environment::dynamic_compile_time(&catalog.config);
    let result = Optimizer::new(&catalog, &env).optimize(&query).expect("optimize");
    println!("== Dynamic plan (compile-time) ==\n{}", render_plan(&result.plan));
    println!(
        "plan nodes: {}, contained static plans: {}\n",
        result.stats.plan_nodes, result.stats.contained_plans
    );

    // Start-up-time: bind :x and let the choose-plan decide.
    let db = StoredDatabase::generate(&catalog, 42);
    for (label, x) in [("selective (:x = 10)", 10i64), ("unselective (:x = 900)", 900)] {
        let bindings = Bindings::new().with_value(HostVar(0), x);
        let startup = evaluate_startup(&result.plan, &catalog, &env, &bindings);
        let ctx = ExecContext::new(SharedCounters::new());
        let summary = run(&result.plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard)
            .expect("execute");
        println!("== {label} ==");
        println!("chosen plan:\n{}", render_plan(&startup.resolved));
        println!(
            "predicted {:.4}s | executed (simulated) {:.4}s | {} rows\n",
            startup.predicted_run_seconds,
            summary.simulated_seconds(&catalog.config),
            summary.rows
        );
    }
}
