//! The choose-plan fixture of the observability suites: a two-relation
//! join with an unbound selection, which the dynamic optimizer compiles
//! with choose-plan nodes.

use std::sync::Arc;

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::Environment;
use dqep::optimizer::Optimizer;
use dqep::plan::Plan;
use dqep::sql::{parse_query, Query};
use dqep::storage::StoredDatabase;

pub fn choose_plan_fixture() -> (Catalog, StoredDatabase, Query, Arc<Plan>) {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 200, 512, |r| {
            r.attr("a", 200.0).attr("j", 60.0).btree("a", false).btree("j", false)
        })
        .relation("s", 150, 512, |r| {
            r.attr("a", 150.0).attr("j", 60.0).btree("a", false).btree("j", false)
        })
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 77);
    let query = parse_query("SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x", &catalog).unwrap();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .unwrap()
        .plan;
    assert!(plan.is_dynamic(), "fixture must exercise choose-plan");
    (catalog, db, query, plan)
}
