//! Selectivity-estimation errors and histogram repair — the extension the
//! paper's final section motivates ("errors in selectivity estimation
//! [IoC91]" as the remaining source of uncertainty).
//!
//! On Zipf-skewed data the uniform-domain model mis-estimates bound
//! predicates by an order of magnitude; equi-width histograms built from
//! the stored data repair the estimate, and with it the start-up-time
//! choose-plan decision.

use dqep::algebra::{CompareOp, HostVar, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment, SelectivityModel};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup;
use dqep::storage::{install_histograms, StoredDatabase, ValueDistribution};

#[path = "common/exec.rs"]
mod exec;
use exec::execute;

fn skewed_fixture() -> (Catalog, StoredDatabase) {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 1_000, 512, |r| r.attr("a", 1_000.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate_with(&catalog, 7, ValueDistribution::Zipf { exponent: 1.0 });
    (catalog, db)
}

fn true_fraction(cat: &Catalog, db: &StoredDatabase, v: i64) -> f64 {
    let rel = cat.relation_by_name("r").unwrap();
    let t = db.table(rel.id);
    let below = t.heap.scan().filter(|row| row.as_ref().unwrap()[0] < v).count();
    below as f64 / t.heap.record_count() as f64
}

#[test]
fn histograms_repair_skewed_estimates() {
    let (mut catalog, db) = skewed_fixture();
    let rel = catalog.relation_by_name("r").unwrap();
    let attr = rel.attr_id("a").unwrap();
    let pred = SelectPred::bound(attr, CompareOp::Lt, 50);

    // Uniform model: 50 / 1000 = 5%.
    let uniform_est = {
        let m = SelectivityModel::new(&catalog);
        m.value_selectivity(&pred, 50)
    };
    let truth = true_fraction(&catalog, &db, 50);
    assert!(truth > 0.5, "zipf(1.0) concentrates mass at small values: {truth}");
    assert!(
        (uniform_est - truth).abs() > 0.4,
        "uniform estimate {uniform_est} should be far from truth {truth}"
    );

    // Histogram model: close to the truth.
    install_histograms(&db, &mut catalog, 32).expect("histograms");
    let hist_est = {
        let m = SelectivityModel::new(&catalog);
        m.value_selectivity(&pred, 50)
    };
    assert!(
        (hist_est - truth).abs() < 0.1,
        "histogram estimate {hist_est} vs truth {truth}"
    );
}

#[test]
fn histograms_fix_startup_decisions_on_skewed_data() {
    let (mut catalog, db) = skewed_fixture();
    let rel = catalog.relation_by_name("r").unwrap();
    let query = LogicalExpr::get(rel.id).select(SelectPred::unbound(
        rel.attr_id("a").unwrap(),
        CompareOp::Lt,
        HostVar(0),
    ));
    // A binding that looks selective under the uniform model (est. 3%)
    // but actually matches the majority of a Zipf-skewed relation.
    let bindings = Bindings::new().with_value(HostVar(0), 30);
    let truth = true_fraction(&catalog, &db, 30);
    assert!(truth > 0.5);

    // Without histograms: the start-up decision believes the index plan
    // is cheap and picks it.
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
    let naive = evaluate_startup(&plan, &catalog, &env, &bindings);
    let naive_exec = execute(&plan, &db, &catalog, &env, &bindings);

    // With histograms: the decision sees the real fraction and switches.
    install_histograms(&db, &mut catalog, 32).expect("histograms");
    let informed_plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
    let informed = evaluate_startup(&informed_plan, &catalog, &env, &bindings);
    let informed_exec = execute(&informed_plan, &db, &catalog, &env, &bindings);

    assert_eq!(naive_exec.rows, informed_exec.rows, "same logical result");
    let cfg = &catalog.config;
    assert!(
        informed_exec.simulated_seconds(cfg) < naive_exec.simulated_seconds(cfg),
        "histogram-informed choice ({:.4}s) should beat the naive choice ({:.4}s)",
        informed_exec.simulated_seconds(cfg),
        naive_exec.simulated_seconds(cfg)
    );
    // And the chosen operators should differ (index scan vs file scan).
    assert_ne!(
        naive.resolved.root_node().op.name(),
        informed.resolved.root_node().op.name(),
        "the decision should change with better statistics"
    );
}

#[test]
fn histograms_are_neutral_on_uniform_data() {
    // On uniform data the histogram and the uniform model agree, so
    // decisions are unchanged — installing statistics is safe.
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 1_000, 512, |r| r.attr("a", 1_000.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 11);
    let mut with_stats = catalog.clone();
    install_histograms(&db, &mut with_stats, 32).expect("histograms");

    let rel = catalog.relation_by_name("r").unwrap();
    let attr = rel.attr_id("a").unwrap();
    for v in [50i64, 300, 700] {
        let pred = SelectPred::bound(attr, CompareOp::Lt, v);
        let uniform = SelectivityModel::new(&catalog).value_selectivity(&pred, v);
        let hist = SelectivityModel::new(&with_stats).value_selectivity(&pred, v);
        assert!(
            (uniform - hist).abs() < 0.06,
            "v={v}: uniform {uniform} vs histogram {hist}"
        );
    }
}
