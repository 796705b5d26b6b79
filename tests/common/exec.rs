//! The run most suites want of a plan: ungoverned, under a fresh context,
//! rows discarded, the summary back.

use dqep::catalog::Catalog;
use dqep::cost::{Bindings, Environment};
use dqep::executor::{run, ExecContext, ExecSummary, RootSink, SharedCounters};
use dqep::plan::Plan;
use dqep::storage::StoredDatabase;

pub fn execute(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
) -> ExecSummary {
    let ctx = ExecContext::new(SharedCounters::new());
    run(plan, db, catalog, env, bindings, &ctx, RootSink::Discard).expect("the plan runs")
}
