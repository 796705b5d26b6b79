//! Unit and property tests of individual executor operators against
//! reference (nested-loop / in-memory) implementations.

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    compile_plan, ExecContext, RootSink, SharedCounters, Tuple, BATCH_CAPACITY,
};
use dqep_plan::{NodeId, Plan};
use dqep_cost::{Cost, PlanStats};
use dqep_interval::Interval;
use dqep_storage::StoredDatabase;
use proptest::prelude::*;

/// Catalog with two joinable relations; `r.a` indexed for selections,
/// `j` indexed on both sides for joins.
fn fixture(card_r: u64, card_s: u64, jdomain: f64) -> (Catalog, StoredDatabase) {
    let cat = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", card_r, 512, |r| {
            r.attr("a", card_r as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        })
        .relation("s", card_s, 512, |r| {
            r.attr("a", card_s as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        })
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&cat, 1234);
    (cat, db)
}

fn rows_of(cat: &Catalog, db: &StoredDatabase, name: &str) -> Vec<Tuple> {
    let rel = cat.relation_by_name(name).unwrap();
    let t = db.table(rel.id);
    t.heap.scan().map(|rec| t.decode(&rec.unwrap())).collect()
}

/// Builds a raw physical plan node (no optimizer involved).
fn node(b: &mut Plan, op: PhysicalOp, children: &[NodeId]) -> NodeId {
    join(b, op, children, &[])
}

/// [`node`] for a join on `preds`.
fn join(b: &mut Plan, op: PhysicalOp, children: &[NodeId], preds: &[JoinPred]) -> NodeId {
    b.push(
        op,
        children,
        preds,
        PlanStats::new(Interval::point(0.0), 512.0),
        Cost::ZERO,
    )
}

/// Runs the subplan at `root` of `plans`.
fn run(
    (plans, root): (&Plan, NodeId),
    db: &StoredDatabase,
    cat: &Catalog,
    bindings: &Bindings,
    mem: usize,
) -> Vec<Tuple> {
    let plan = plans.rooted_at(root);
    let ctx = ExecContext::new(SharedCounters::new());
    let mut op = compile_plan(&plan, db, cat, bindings, mem, &ctx).unwrap();
    op.open().unwrap();
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch(BATCH_CAPACITY).unwrap() {
        out.extend(batch.iter());
    }
    op.close();
    out
}

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// Hash join, merge join (with sorts), and index join all produce exactly
/// the nested-loop reference result.
#[test]
fn all_join_algorithms_agree_with_nested_loop() {
    let (cat, db) = fixture(200, 150, 60.0);
    let r = cat.relation_by_name("r").unwrap();
    let s = cat.relation_by_name("s").unwrap();
    let rj = r.attr_id("j").unwrap();
    let sj = s.attr_id("j").unwrap();
    let pred = JoinPred::new(rj, sj);

    // Reference: nested loops.
    let r_rows = rows_of(&cat, &db, "r");
    let s_rows = rows_of(&cat, &db, "s");
    let mut reference = Vec::new();
    for a in &r_rows {
        for b in &s_rows {
            if a[1] == b[1] {
                let mut t = a.clone();
                t.extend_from_slice(b);
                reference.push(t);
            }
        }
    }
    let reference = sorted(reference);

    let bindings = Bindings::new();
    let mem = 64 * 2048;

    // Hash join (in-memory).
    let mut b = Plan::new();
    let scan_r = node(&mut b, PhysicalOp::FileScan { relation: r.id }, &[]);
    let scan_s = node(&mut b, PhysicalOp::FileScan { relation: s.id }, &[]);
    let hj = join(&mut b, PhysicalOp::HashJoin, &[scan_r, scan_s], &[pred]);
    assert_eq!(sorted(run((&b, hj), &db, &cat, &bindings, mem)), reference);

    // Hash join forced to partition (tiny memory budget).
    assert_eq!(sorted(run((&b, hj), &db, &cat, &bindings, 2048)), reference);

    // Merge join over explicit sorts.
    let sort_r = node(&mut b, PhysicalOp::Sort { attr: rj }, &[scan_r]);
    let sort_s = node(&mut b, PhysicalOp::Sort { attr: sj }, &[scan_s]);
    let mj = join(&mut b, PhysicalOp::MergeJoin, &[sort_r, sort_s], &[pred]);
    assert_eq!(sorted(run((&b, mj), &db, &cat, &bindings, mem)), reference);

    // Merge join with spilling sorts.
    assert_eq!(sorted(run((&b, mj), &db, &cat, &bindings, 4 * 2048)), reference);

    // Index join (inner s through its j index).
    let (idx, _) = cat.index_on_attr(sj).unwrap();
    let ij = join(
        &mut b,
        PhysicalOp::IndexJoin {
            inner: s.id,
            index: idx,
            residual: None,
        },
        &[scan_r],
        &[pred],
    );
    assert_eq!(sorted(run((&b, ij), &db, &cat, &bindings, mem)), reference);
}

/// External sort output is sorted and a permutation of its input, for
/// memory budgets spanning in-memory and multi-run spills.
#[test]
fn sort_is_correct_across_memory_budgets() {
    let (cat, db) = fixture(500, 10, 100.0);
    let r = cat.relation_by_name("r").unwrap();
    let ra = r.attr_id("a").unwrap();
    let reference = sorted(rows_of(&cat, &db, "r"));

    for mem in [2048, 8 * 2048, 64 * 2048, 1024 * 2048] {
        let mut b = Plan::new();
        let scan = node(&mut b, PhysicalOp::FileScan { relation: r.id }, &[]);
        let sort = node(&mut b, PhysicalOp::Sort { attr: ra }, &[scan]);
        let out = run((&b, sort), &db, &cat, &Bindings::new(), mem);
        assert!(
            out.windows(2).all(|w| w[0][0] <= w[1][0]),
            "not sorted at mem={mem}"
        );
        assert_eq!(sorted(out), reference, "lost/duplicated rows at mem={mem}");
    }
}

/// Filter-B-tree-Scan agrees with Filter over File-Scan for all operators.
#[test]
fn index_scan_agrees_with_filter_scan_for_all_operators() {
    let (cat, db) = fixture(300, 10, 50.0);
    let r = cat.relation_by_name("r").unwrap();
    let ra = r.attr_id("a").unwrap();
    let (idx, _) = cat.index_on_attr(ra).unwrap();

    for op in [CompareOp::Lt, CompareOp::Le, CompareOp::Eq, CompareOp::Ge, CompareOp::Gt] {
        for v in [0i64, 1, 150, 299, 400] {
            let pred = SelectPred::bound(ra, op, v);
            let mut b = Plan::new();
            let scan = node(&mut b, PhysicalOp::FileScan { relation: r.id }, &[]);
            let filter = node(&mut b, PhysicalOp::Filter { predicate: pred }, &[scan]);
            let via_filter = sorted(run((&b, filter), &db, &cat, &Bindings::new(), 64 * 2048));

            let fbs = node(
                &mut b,
                PhysicalOp::FilterBtreeScan { relation: r.id, index: idx, predicate: pred },
                &[],
            );
            let via_index = sorted(run((&b, fbs), &db, &cat, &Bindings::new(), 64 * 2048));
            assert_eq!(via_filter, via_index, "op {op}, value {v}");
        }
    }
}

/// B-tree-Scan delivers key order and the full relation.
#[test]
fn btree_scan_delivers_order() {
    let (cat, db) = fixture(250, 10, 50.0);
    let r = cat.relation_by_name("r").unwrap();
    let (idx, _) = cat.index_on_attr(r.attr_id("a").unwrap()).unwrap();
    let mut b = Plan::new();
    let scan = node(
        &mut b,
        PhysicalOp::BtreeScan {
            relation: r.id,
            index: idx,
            key_attr: r.attr_id("a").unwrap(),
        },
        &[],
    );
    let out = run((&b, scan), &db, &cat, &Bindings::new(), 64 * 2048);
    assert_eq!(out.len(), 250);
    assert!(out.windows(2).all(|w| w[0][0] <= w[1][0]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random bindings, the optimizer-produced plan (whatever shape it
    /// takes) returns exactly the reference result of the logical query.
    #[test]
    fn optimized_plans_compute_the_logical_result(sel_v in 0i64..200, mem in 16u64..112) {
        let (cat, db) = fixture(200, 150, 60.0);
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        let env = Environment::dynamic_uncertain_memory(&cat.config);
        let plan = dqep_core::Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), sel_v).with_memory(mem as f64);
        let ctx = ExecContext::new(SharedCounters::new());
        let summary = dqep_executor::run(&plan, &db, &cat, &env, &bindings, &ctx, RootSink::Discard)
            .unwrap();

        let r_rows = rows_of(&cat, &db, "r");
        let s_rows = rows_of(&cat, &db, "s");
        let expected: u64 = r_rows
            .iter()
            .filter(|t| t[0] < sel_v)
            .map(|t| s_rows.iter().filter(|u| u[1] == t[1]).count() as u64)
            .sum();
        prop_assert_eq!(summary.rows, expected);
    }
}
