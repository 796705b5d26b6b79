//! An embedded-SQL "session": parse a query with named host variables,
//! prepare it ONCE into a dynamic plan, then execute it repeatedly with
//! different parameter values — the application-program workflow the paper
//! targets.
//!
//! Run with `cargo run --release --example sql_session`.

use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{run, ExecContext, RootSink, SharedCounters};
use dqep::optimizer::Optimizer;
use dqep::plan::{dag, evaluate_startup};
use dqep::sql::parse_query;
use dqep::storage::StoredDatabase;

fn main() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("orders", 1_000, 512, |r| {
            r.attr("amount", 1_000.0)
                .attr("customer", 400.0)
                .btree("amount", false)
                .btree("customer", false)
        })
        .relation("customers", 400, 512, |r| {
            r.attr("id", 400.0).attr("region", 8.0).btree("id", false)
        })
        .build()
        .expect("catalog");
    let db = StoredDatabase::generate(&catalog, 2024);

    let sql = "SELECT * FROM orders, customers \
               WHERE orders.customer = customers.id \
               AND orders.amount < :max_amount \
               AND customers.region = :region";
    println!("PREPARE: {sql}\n");

    let query = parse_query(sql, &catalog).expect("parse");
    println!(
        "host variables: {:?}\nlogical plan: {}\n",
        query.host_var_names(),
        query.expr
    );

    // Prepared once, with both parameters unknown.
    let env = Environment::dynamic_compile_time(&catalog.config);
    let prepared = Optimizer::new(&catalog, &env)
        .optimize(&query.expr)
        .expect("optimize");
    println!(
        "prepared dynamic plan: {} nodes, {} contained static plans\n",
        prepared.stats.plan_nodes, dag::contained_plan_count(&prepared.plan)
    );

    // EXECUTE with different parameters — each invocation picks its own
    // plan at start-up-time.
    for (max_amount, region) in [(25i64, 3i64), (900, 3), (500, 7)] {
        let bindings = query
            .bindings(&[("max_amount", max_amount), ("region", region)])
            .expect("bind");
        let ctx = ExecContext::new(SharedCounters::new());
        let startup = evaluate_startup(&prepared.plan, &catalog, &env, &bindings);
        let summary = run(&prepared.plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard)
            .expect("execute");
        println!(
            "EXECUTE (:max_amount={max_amount}, :region={region}) -> {} rows, \
             {:.4}s simulated, root operator: {}",
            summary.rows,
            summary.simulated_seconds(&catalog.config),
            startup.resolved.root_node().op.name()
        );
    }
}
