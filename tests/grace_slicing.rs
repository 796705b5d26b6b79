//! A Grace hash join hands out the same rows in the same order whatever
//! the size of the requests its consumer pulls them with.
//!
//! Each case is a hash join over file scans whose build side exceeds the
//! memory grant, so both inputs are dealt into partitions on disk and the
//! partition pairs are joined one at a time. It is drained with requests
//! of 1, 7 and 1 024 rows and with one unbounded request, at grants of 16
//! and 64 pages: every drain must return exactly the rows of the first, in
//! its order, no batch larger than its request, and their multiset must
//! be the independent oracle's.

use dqep::algebra::{CompareOp, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Cost, PlanStats};
use dqep::executor::{compile_plan, ExecContext, RowBatch, SharedCounters, BATCH_CAPACITY};
use dqep::interval::Interval;
use dqep::plan::{NodeId, Plan};
use dqep::storage::StoredDatabase;

#[path = "common/oracle.rs"]
mod oracle;

const REQUESTS: [usize; 4] = [1, 7, BATCH_CAPACITY, usize::MAX];

const GRANTS: [usize; 2] = [16, 64];

/// `build` (2 000 rows) and `probe` (3 000 rows) of 256 bytes join on `j`,
/// 400 values: some 15 000 matches, keys repeating on both sides.
fn fixture() -> (Catalog, StoredDatabase) {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("build", 2_000, 256, |r| r.attr("a", 2_000.0).attr("j", 400.0))
        .relation("probe", 3_000, 256, |r| r.attr("a", 3_000.0).attr("j", 400.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 57);
    (catalog, db)
}

fn node(plan: &mut Plan, op: PhysicalOp, children: &[NodeId], preds: &[JoinPred]) -> NodeId {
    plan.push(op, children, preds, PlanStats::new(Interval::point(0.0), 512.0), Cost::ZERO)
}

/// Drains `plan` under a grant of `pages` with requests of `max_rows`:
/// its rows in the order they came, and the pages it wrote.
fn drain(plan: &Plan, catalog: &Catalog, db: &StoredDatabase, pages: usize, max_rows: usize) -> (Vec<Vec<i64>>, u64) {
    let ctx = ExecContext::new(SharedCounters::new());
    let before = db.disk.stats();
    let mut op = compile_plan(plan, db, catalog, &Bindings::new(), pages * 2048, &ctx).unwrap();
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch(max_rows).unwrap() {
        assert!(batch.len() <= max_rows, "{} rows for a request of {max_rows}", batch.len());
        rows.extend(RowBatch::iter(&batch));
    }
    op.close();
    (rows, db.disk.stats().since(&before).writes)
}

#[test]
fn a_grace_join_returns_the_same_rows_in_the_same_order_at_every_request_size() {
    let (catalog, db) = fixture();
    let (build, probe) = (&catalog.relations()[0], &catalog.relations()[1]);
    let on_j = JoinPred::new(build.attr_id("j").unwrap(), probe.attr_id("j").unwrap());
    // The probe side filtered to a third: its batches carry selection
    // vectors into the partitioning, and some partition pairs join few rows.
    let sparse = SelectPred::bound(probe.attr_id("a").unwrap(), CompareOp::Lt, 1_000);

    for filtered in [false, true] {
        let mut plan = Plan::new();
        let left = node(&mut plan, PhysicalOp::FileScan { relation: build.id }, &[], &[]);
        let mut right = node(&mut plan, PhysicalOp::FileScan { relation: probe.id }, &[], &[]);
        let mut probe_query = LogicalExpr::get(probe.id);
        if filtered {
            right = node(&mut plan, PhysicalOp::Filter { predicate: sparse }, &[right], &[]);
            probe_query = probe_query.select(sparse);
        }
        node(&mut plan, PhysicalOp::HashJoin, &[left, right], &[on_j]);
        let query = LogicalExpr::get(build.id).join(probe_query, vec![on_j]);
        let truth = oracle::evaluate(&query, &catalog, &db, &Bindings::new());
        assert!(truth.len() > 2 * BATCH_CAPACITY, "the join outgrows a request: {} rows", truth.len());
        let positions: Vec<usize> = (0..4).collect();

        for pages in GRANTS {
            let case = format!("{} join at {pages} pages", if filtered { "filtered" } else { "plain" });
            let (first, writes) = drain(&plan, &catalog, &db, pages, REQUESTS[0]);
            assert!(writes > 0, "{case}: the build side spills");
            assert_eq!(oracle::canonical(&first, &positions), truth, "{case}: rows differ from the oracle");
            for max_rows in &REQUESTS[1..] {
                let (rows, _) = drain(&plan, &catalog, &db, pages, *max_rows);
                assert!(rows == first, "{case}: requests of {max_rows} return other rows or another order");
            }
        }
    }
}
