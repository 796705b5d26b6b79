//! End-to-end validation: executed (simulated) behaviour agrees with the
//! optimizer's decisions and predictions.

use dqep::algebra::{CompareOp, HostVar, JoinPred, PhysicalOp, SelectPred};
use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, CostModel, Environment, PlanStats};
use dqep::executor::{
    compile_plan, drain_root, ExecContext, ExecSummary, RootSink, SharedCounters, BATCH_CAPACITY,
};
use dqep::harness::{paper_query, BindingSampler};
use dqep::optimizer::Optimizer;
use dqep::interval::Interval;
use dqep::plan::{evaluate_startup, NodeId, Plan};
use dqep::storage::StoredDatabase;

#[path = "common/exec.rs"]
mod exec;
use exec::execute;

fn drain_rows(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &dqep::catalog::Catalog,
    bindings: &Bindings,
) -> (u64, f64) {
    let summary = drain_summary(plan, db, catalog, bindings);
    (summary.rows, summary.simulated_seconds(&catalog.config))
}

fn drain_summary(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &dqep::catalog::Catalog,
    bindings: &Bindings,
) -> ExecSummary {
    let ctx = ExecContext::new(SharedCounters::new());
    let before = db.disk.stats();
    let mut op = compile_plan(plan, db, catalog, bindings, 64 * 2048, &ctx).unwrap();
    let rows = drain_root(op.as_mut(), None, RootSink::Discard).unwrap();
    let io = db.disk.stats().since(&before);
    ExecSummary {
        rows,
        cpu: ctx.counters.snapshot(),
        io,
        ..ExecSummary::default()
    }
}

/// All alternatives under the root choose-plan compute the same result set
/// size, and the start-up choice is (near-)optimal in executed simulated
/// time.
#[test]
fn startup_choice_is_execution_optimal_for_selection_query() {
    let w = paper_query(1, 42);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    assert!(plan.root_node().is_choose_plan());
    let db = StoredDatabase::generate(&w.catalog, 7);

    let mut sampler = BindingSampler::new(3, false);
    for b in sampler.sample_n(&w, 12) {
        let startup = evaluate_startup(&plan, &w.catalog, &env, &b);
        let mut rows_seen = Vec::new();
        let mut times = Vec::new();
        for alt in plan.children(plan.root()) {
            let (rows, secs) = drain_rows(&plan.rooted_at(*alt), &db, &w.catalog, &b);
            rows_seen.push(rows);
            times.push(secs);
        }
        assert!(
            rows_seen.windows(2).all(|w| w[0] == w[1]),
            "alternatives disagree on results: {rows_seen:?}"
        );
        let chosen = startup.decisions[0].chosen_index;
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        // The cost model is a model; allow a modest factor of slack.
        assert!(
            times[chosen] <= best * 1.5 + 1e-6,
            "chose {chosen} at {:.4}s, best was {best:.4}s ({times:?})",
            times[chosen]
        );
    }
}

/// The dynamic plan's executed time is never much worse than the static
/// plan's on the same binding, and usually much better — the executed
/// counterpart of Figure 4.
#[test]
fn executed_dynamic_beats_executed_static_on_average() {
    let w = paper_query(2, 43);
    let static_env = Environment::static_compile_time(&w.catalog.config);
    let dynamic_env = Environment::dynamic_compile_time(&w.catalog.config);
    let static_plan = Optimizer::new(&w.catalog, &static_env)
        .optimize(&w.query)
        .unwrap()
        .plan;
    let dynamic_plan = Optimizer::new(&w.catalog, &dynamic_env)
        .optimize(&w.query)
        .unwrap()
        .plan;
    let db = StoredDatabase::generate(&w.catalog, 8);

    let mut sampler = BindingSampler::new(4, false);
    let (mut static_total, mut dynamic_total) = (0.0, 0.0);
    for b in sampler.sample_n(&w, 15) {
        let st = execute(&static_plan, &db, &w.catalog, &static_env, &b);
        let dy = execute(&dynamic_plan, &db, &w.catalog, &dynamic_env, &b);
        assert_eq!(st.rows, dy.rows, "plans must agree on results");
        static_total += st.simulated_seconds(&w.catalog.config);
        dynamic_total += dy.simulated_seconds(&w.catalog.config);
    }
    assert!(
        dynamic_total < static_total,
        "dynamic executed {dynamic_total:.2}s vs static {static_total:.2}s"
    );
}

/// Predicted and executed costs agree in *ranking* across bindings: when
/// the model says one binding is much more expensive than another, the
/// simulator agrees.
#[test]
fn predicted_and_executed_costs_correlate() {
    let w = paper_query(1, 44);
    let env = Environment::static_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    let db = StoredDatabase::generate(&w.catalog, 9);

    let mut points = Vec::new();
    for sel in [0.02f64, 0.2, 0.5, 0.9] {
        let b = w.space.bindings(&w.catalog, [sel]);
        let predicted = evaluate_startup(&plan, &w.catalog, &env, &b).predicted_run_seconds;
        let summary = execute(&plan, &db, &w.catalog, &env, &b);
        points.push((predicted, summary.simulated_seconds(&w.catalog.config)));
    }
    for pair in points.windows(2) {
        assert!(
            pair[0].0 < pair[1].0 && pair[0].1 < pair[1].1,
            "both model and simulator must be monotone in selectivity: {points:?}"
        );
    }
    // Absolute agreement within a factor of two (same constants, modelled
    // formulas vs actual access patterns).
    for (predicted, executed) in &points {
        let ratio = executed / predicted;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "predicted {predicted:.4}s vs executed {executed:.4}s"
        );
    }
}

/// Executing a 4-way join produces the same row count through whichever
/// path the choose-plans select, across memory grants.
#[test]
fn join_results_invariant_across_memory_grants() {
    let w = paper_query(3, 45);
    let env = Environment::dynamic_uncertain_memory(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    let db = StoredDatabase::generate(&w.catalog, 10);

    let base = w.space.bindings(&w.catalog, std::iter::repeat(0.4));
    let mut rows_by_memory = Vec::new();
    for mem in [16.0f64, 64.0, 112.0] {
        let b = base.clone().with_memory(mem);
        let summary = execute(&plan, &db, &w.catalog, &env, &b);
        rows_by_memory.push(summary.rows);
    }
    assert!(
        rows_by_memory.windows(2).all(|w| w[0] == w[1]),
        "row counts varied with memory: {rows_by_memory:?}"
    );
}

/// A plan node costed by the model from its children's statistics, as
/// the optimizer would cost it.
fn costed(
    b: &mut Plan,
    model: &CostModel<'_>,
    op: PhysicalOp,
    children: &[NodeId],
    preds: &[JoinPred],
    stats: PlanStats,
) -> NodeId {
    let inputs: Vec<PlanStats> = children.iter().map(|c| b[*c].stats).collect();
    let cost = model.op_cost(&op, preds, &inputs, &stats);
    b.push(op, children, preds, stats, cost)
}

/// A merge join pulls its inputs by batch and stops pulling its right
/// input the moment its left input ends — so the right input is charged
/// for up to a request of rows the join never consumed, whatever operator
/// it is. The paper's soundness condition must survive that: the realized
/// simulated cost stays inside the plan's compile-time cost interval, and
/// the overshoot is bounded by one batch.
#[test]
fn early_terminating_merge_join_stays_inside_its_compile_time_interval() {
    // `l` is small with small join keys; `s` and `r` spread their keys
    // over wider domains, so a merge with `l` ends after a sliver of them.
    // `s` fits the 64-page grant (its sort stays in memory); `r` is large
    // enough that one batch of read-ahead is a fraction of it. 500-byte
    // records pack four to a slotted page, which is also what the model
    // assumes (512-byte ones pack three: a page-count drift that has
    // nothing to do with what this test pins).
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("l", 40, 500, |r| r.attr("a", 40.0).attr("j", 50.0).btree("j", false))
        .relation("s", 240, 500, |r| r.attr("a", 240.0).attr("j", 240.0))
        .relation("r", 3000, 500, |r| r.attr("a", 3000.0).attr("j", 3000.0).btree("j", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 17);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let model = CostModel::new(&catalog, &env);
    let rel = |name: &str| catalog.relation_by_name(name).unwrap();
    let lj = rel("l").attr_id("j").unwrap();
    let (l_idx, _) = catalog.index_on_attr(lj).unwrap();
    let base = |name: &str| PlanStats::new(Interval::point(rel(name).stats.cardinality as f64), 500.0);

    // MergeJoin(BtreeScan l, `right`): a sort or a filter over `right`
    // carries the unbound `a < :v` (selectivity [0, 1] at compile time,
    // one half at run time) that makes the compile-time costs intervals;
    // the bare index scan has a point cost.
    #[derive(Clone, Copy, PartialEq)]
    enum Right {
        Sorted,
        FilteredIndex,
        Index,
    }
    let merge_over = |name: &str, shape: Right| {
        let right = rel(name);
        let (rj, ra) = (right.attr_id("j").unwrap(), right.attr_id("a").unwrap());
        let card = right.stats.cardinality as f64;
        let pred = SelectPred::unbound(ra, CompareOp::Lt, HostVar(0));
        let join_pred = JoinPred::new(lj, rj);
        let filtered = PlanStats::new(Interval::new(0.0, card), 500.0);
        let matches = 40.0 * card * model.selectivity().join([join_pred]);
        let lowest = if shape == Right::Index { matches } else { 0.0 };
        let joined = PlanStats::new(Interval::new(lowest, matches), 1000.0);
        let b = &mut Plan::new();
        let left = costed(
            b,
            &model,
            PhysicalOp::BtreeScan { relation: rel("l").id, index: l_idx, key_attr: lj },
            &[],
            &[],
            base("l"),
        );
        let right_input = if shape == Right::Sorted {
            let scan =
                costed(b, &model, PhysicalOp::FileScan { relation: right.id }, &[], &[], base(name));
            let filter =
                costed(b, &model, PhysicalOp::Filter { predicate: pred }, &[scan], &[], filtered);
            costed(b, &model, PhysicalOp::Sort { attr: rj }, &[filter], &[], filtered)
        } else {
            let (index, _) = catalog.index_on_attr(rj).unwrap();
            let ordered = costed(
                b,
                &model,
                PhysicalOp::BtreeScan { relation: right.id, index, key_attr: rj },
                &[],
                &[],
                base(name),
            );
            match shape {
                Right::Index => ordered,
                _ => costed(b, &model, PhysicalOp::Filter { predicate: pred }, &[ordered], &[], filtered),
            }
        };
        costed(b, &model, PhysicalOp::MergeJoin, &[left, right_input], &[join_pred], joined);
        let plan = &*b;
        let bindings = Bindings::new().with_value(HostVar(0), card as i64 / 2);
        let summary = drain_summary(plan, &db, &catalog, &bindings);
        assert!(summary.rows > 0, "{name}: the join must produce rows");
        (plan.root_node().exec.total(), summary)
    };

    // Right input Sort(Filter(FileScan s)): every operator that does I/O
    // consumes its whole input whatever the join does; the read-ahead only
    // charges the sort for emitting rows the join never asked for. The
    // realized cost must land inside the interval on both sides.
    let (interval, summary) = merge_over("s", Right::Sorted);
    let realized = summary.simulated_seconds(&catalog.config);
    assert!(
        interval.lo() <= realized && realized <= interval.hi(),
        "realized {realized:.4}s outside compile-time interval [{:.4}, {:.4}]",
        interval.lo(),
        interval.hi()
    );

    // Right input Filter(BtreeScan r), then the bare BtreeScan r, in key
    // order: each row costs a random fetch, the join's last request had
    // the scan fetch up to a batch of them ahead, and the join then stops.
    // The overshoot is at most one batch, and the realized cost does not
    // exceed the interval's upper end. (Its lower end assumes the whole
    // index scan, which an early-terminating merge never performs — with
    // or without read-ahead.)
    // Right rows the index scan must fetch for the join: keys below the
    // left's domain bound, plus the one that ends the merge.
    let table = db.table(rel("r").id);
    let needed = table
        .heap
        .scan()
        .filter(|row| row.as_ref().unwrap()[1] < 50)
        .count() as u64
        + 1;
    for shape in [Right::FilteredIndex, Right::Index] {
        let (interval, summary) = merge_over("r", shape);
        let realized = summary.simulated_seconds(&catalog.config);
        assert!(
            realized <= interval.hi(),
            "realized {realized:.4}s above the compile-time upper bound {:.4}",
            interval.hi()
        );
        let reads = summary.io.total();
        assert!(reads < 3000, "the merge join must end early: {reads} reads over 3000 right rows");
        let index_pages = 64; // generous: both B-trees' leaves and descents
        assert!(
            reads <= 40 + needed + BATCH_CAPACITY as u64 + index_pages,
            "read-ahead overshoot exceeds one batch: {reads} reads, {needed} right rows needed"
        );
    }
}
