//! A standing query whose dynamic plan is re-decided as writes move the
//! statistics.
//!
//! `SELECT * FROM r WHERE r.a < :v` is optimized once into a dynamic plan
//! and decided at start-up for `:v = 10`: over 1 000 rows the B-tree
//! alternative wins. Twenty commits of thirty rows each land under the
//! filter. After every commit the catalog is refreshed from storage and
//! the view is re-run through `run` under the decision in force. When the
//! observed row count leaves the decision's root interval widened ×2, the
//! decision is made again with that count pinned at the root — the same
//! choose-plan operators, costed on the new statistics — until it switches
//! alternative. The view's rows are checked against the stored data after
//! every commit.
//!
//! Run with `cargo run --release --example live_views` (`-- --quick`
//! stops after the commit that switched the decision).

use std::sync::Arc;

use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{escapes_interval, run, ExecContext, RootSink, SharedCounters};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{evaluate_startup_observed, Observations, StartupResult};
use dqep::sql::parse_query;
use dqep::storage::{refresh_histograms, StoredDatabase};

/// Re-decide only when the observed cardinality leaves the decision's
/// root interval widened by this factor (`[lo / t, hi * t]`).
const DRIFT: f64 = 2.0;
const BOUND: i64 = 10;

fn chosen(startup: &StartupResult) -> Vec<usize> {
    startup.decisions.iter().map(|d| d.chosen_index).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 1000, 512, |r| r.attr("a", 1000.0).attr("j", 64.0).btree("a", false))
        .build()
        .expect("catalog");
    let mut db = StoredDatabase::generate(&catalog, 13);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let r = catalog.relation_by_name("r").expect("relation").id;

    // Compile time: one dynamic plan for every binding and every state of
    // the table.
    let query = parse_query("SELECT * FROM r WHERE r.a < :v", &catalog).expect("parses");
    let plan = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .expect("optimizes")
        .plan;
    let bindings = query.bindings(&[("v", BOUND)]).expect("binds");
    assert!(plan.is_dynamic(), "the view needs a choose-plan to re-decide");

    // Start-up: the decision in force, and the root interval it was
    // priced on.
    let mut decision = Arc::new(evaluate_startup_observed(
        &plan,
        &catalog,
        &env,
        &bindings,
        &Observations::new(),
    ));
    let first = chosen(&decision);
    println!(
        "registered: decisions {first:?}, root {} (est. {})",
        decision.resolved.root_node().op.name(),
        decision.resolved.root_node().stats.card,
    );

    let mut switches = 0;
    for commit in 0..20 {
        for i in 0..30 {
            let row = [(commit * 30 + i) % 9, i % 64];
            db.insert(&catalog, r, &row).expect("insert");
        }
        db.refresh_stats(&mut catalog);
        refresh_histograms(&db, &mut catalog, 16);

        let ctx = ExecContext::new(SharedCounters::new()).with_decision(Arc::clone(&decision));
        let summary =
            run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard).expect("runs");
        let truth = db.export_rows()[&r].iter().filter(|row| row[0] < BOUND).count();
        assert_eq!(summary.rows, truth as u64, "commit {commit}: the view lost a row");

        let actual = summary.rows as f64;
        let card = decision.resolved.root_node().stats.card;
        let band = Interval::new(card.lo() / DRIFT, card.hi() * DRIFT);
        let mut note = String::new();
        if escapes_interval(actual, band) {
            let mut observed = Observations::new();
            observed.insert(plan.root(), actual);
            let redecided =
                Arc::new(evaluate_startup_observed(&plan, &catalog, &env, &bindings, &observed));
            note = if chosen(&redecided) == chosen(&decision) {
                " drift: same alternative".to_string()
            } else {
                switches += 1;
                format!(
                    " drift: switched to {:?}, root {}",
                    chosen(&redecided),
                    redecided.resolved.root_node().op.name()
                )
            };
            decision = redecided;
        }
        println!(
            "commit {:2}: {:4} stored, {:3} in view, band {band}{note}",
            commit + 1,
            catalog.relation(r).stats.cardinality,
            summary.rows,
        );
        if quick && switches > 0 {
            break;
        }
    }
    assert!(switches > 0, "600 in-filter inserts must switch the decision");
    assert_ne!(chosen(&decision), first);
    println!("{switches} switch(es); decisions {first:?} -> {:?}", chosen(&decision));
}
