//! Batch execution parity: whatever sizes a plan's rows travel in, and
//! whatever goes wrong on the way, the engine's answer is the oracle's and
//! its hazards trip where their definitions say.
//!
//! This suite used to hold a row-at-a-time root interface against the
//! batch one. There is one pull method now, so each comparison became the
//! absolute statement it implied: result rows are the independent
//! nested-loop evaluator's (`common/oracle.rs`) at DOP 1, 2 and 4 and
//! under requests of any size; a row budget trips at its cumulative count;
//! fault ordinal *n* fails the *n*-th accounted read and nothing else; a
//! refused memory grant falls back once and leaks nothing; a read fault
//! that lands mid-batch is delivered after the rows that preceded it.


use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    compile_dynamic_plan, drain, run, ExecContext, ExecError, ExecSummary, Resource,
    ResourceLimits, RootSink, SharedCounters, BATCH_CAPACITY,
};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{NodeId, Plan};
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

#[path = "common/oracle.rs"]
mod oracle;

/// Coarse error class: variant (and resource kind) only.
fn classify(e: &ExecError) -> String {
    match e {
        ExecError::Storage(_) => "storage".into(),
        ExecError::ResourceExhausted(r) => {
            let kind = match r {
                dqep::executor::Resource::Memory { .. } => "memory",
                dqep::executor::Resource::Rows { .. } => "rows",
                dqep::executor::Resource::Io { .. } => "io",
                dqep::executor::Resource::WallClock { .. } => "wall-clock",
            };
            format!("resource:{kind}")
        }
        other => format!("{other:?}"),
    }
}

/// [`run`] under `limits`, rows discarded.
fn run_under(
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    limits: ResourceLimits,
) -> Result<ExecSummary, ExecError> {
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
    run(plan, db, catalog, env, bindings, &ctx, RootSink::Discard)
}

/// A randomized 1–3 relation chain workload (mirrors `proptests.rs`,
/// with smaller cardinalities since every case also generates and
/// executes against stored data).
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
    selected: Vec<bool>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=3).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..400, n),
            proptest::collection::vec(0.2f64..1.25, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(cards, domain_factors, mut selected)| {
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload {
                    cards,
                    domain_factors,
                    selected,
                }
            })
    })
}

fn build(w: &RandomWorkload) -> (Catalog, LogicalExpr, Vec<(HostVar, f64)>) {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, (&card, &f)) in w.cards.iter().zip(&w.domain_factors).enumerate() {
        let name = format!("t{i}");
        let jdomain = (card as f64 * f).max(1.0).round();
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid random catalog");
    let rels: Vec<_> = catalog.relations().to_vec();
    let mut hosts = Vec::new();
    let leaf = |i: usize, hosts: &mut Vec<(HostVar, f64)>| {
        let mut e = LogicalExpr::get(rels[i].id);
        if w.selected[i] {
            let var = HostVar(i as u32);
            hosts.push((var, rels[i].attributes[0].domain_size));
            e = e.select(SelectPred::unbound(
                rels[i].attr_id("a").expect("attr"),
                CompareOp::Lt,
                var,
            ));
        }
        e
    };
    let mut q = leaf(0, &mut hosts);
    for i in 1..w.cards.len() {
        q = q.join(
            leaf(i, &mut hosts),
            vec![JoinPred::new(
                rels[i - 1].attr_id("j").expect("attr"),
                rels[i].attr_id("j").expect("attr"),
            )],
        );
    }
    (catalog, q, hosts)
}

fn node(b: &mut Plan, op: PhysicalOp, children: &[NodeId]) -> NodeId {
    join_node(b, op, children, &[])
}

/// [`node`] for a join on `preds`.
fn join_node(b: &mut Plan, op: PhysicalOp, children: &[NodeId], preds: &[JoinPred]) -> NodeId {
    b.push(
        op,
        children,
        preds,
        PlanStats::new(Interval::point(0.0), 512.0),
        Cost::ZERO,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random optimized plans over random data, executed under one of
    /// three hazards — none, injected storage faults, or a tight memory
    /// limit. A run that succeeds returned the oracle's rows, however many
    /// fallbacks it took to get there; a run that fails fails with the
    /// class of its hazard; and the same hazard again gives the same
    /// summary, counter for counter (`set_fault_plan` restarts the fault
    /// ordinals and `reset_stats` the disk's read position, so both runs
    /// see the same fault sequence from the same start).
    #[test]
    fn random_plans_execute_identically_in_both_modes(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        prob in 0.0f64..0.05,
        nth in 1u64..60,
        mem_kb in 1u64..64,
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
        let limits = ResourceLimits {
            memory_bytes: (hazard == 2).then_some(mem_kb * 1024),
            ..ResourceLimits::unlimited()
        };
        let fault = if hazard == 1 {
            let mut f = FaultPlan::probabilistic(prob, seed);
            f.fail_nth_reads.push(nth);
            f
        } else {
            FaultPlan::none()
        };

        db.disk.set_fault_plan(fault.clone());
        db.disk.reset_stats();
        let first = run_under(&plan, &db, &catalog, &env, &bindings, limits);
        db.disk.set_fault_plan(fault);
        db.disk.reset_stats();
        let again = run_under(&plan, &db, &catalog, &env, &bindings, limits);
        db.disk.set_fault_plan(FaultPlan::none());
        let truth = oracle::evaluate(&query, &catalog, &db, &bindings);

        match (first, again) {
            (Ok(summary), Ok(repeat)) => {
                prop_assert_eq!(summary.rows, truth.len() as u64, "row count differs from the oracle");
                if hazard == 0 {
                    prop_assert_eq!(summary.fallbacks, 0, "nothing to fall back from");
                }
                prop_assert_eq!(summary.fallbacks, repeat.fallbacks);
                prop_assert_eq!(summary.cpu, repeat.cpu, "CPU counter totals are not reproducible");
                prop_assert_eq!(summary.io, repeat.io, "accounted I/O is not reproducible");
            }
            (Err(e), Err(repeat)) => {
                prop_assert_eq!(classify(&e), classify(&repeat));
                let expected = ["", "storage", "resource:memory"][hazard as usize];
                prop_assert_eq!(classify(&e), expected, "a failure must be its hazard's: {:?}", e);
            }
            (first, again) => prop_assert!(
                false,
                "one run succeeded while its repeat failed: {:?} / {:?}",
                first.map(|s| s.rows), again.map(|s| s.rows)
            ),
        }
    }

    /// The rows a compiled plan hands out do not depend on the sizes they
    /// are asked for in — the same tuples in the same order through
    /// requests of 1, 7 and a full batch, none larger than its request —
    /// and at every DOP they are the oracle's.
    #[test]
    fn drained_tuples_are_identical(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
        let memory = 64 * 2048;

        let mut by_request = Vec::new();
        for max_rows in [1usize, 7, BATCH_CAPACITY] {
            let ctx = ExecContext::new(SharedCounters::new());
            let mut op =
                compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx).unwrap();
            op.open().unwrap();
            let mut rows = Vec::new();
            while let Some(batch) = op.next_batch(max_rows).unwrap() {
                prop_assert!(batch.len() <= max_rows, "{} rows for a request of {}", batch.len(), max_rows);
                rows.extend(batch.iter());
            }
            op.close();
            by_request.push(rows);
        }
        prop_assert_eq!(&by_request[0], &by_request[2], "requests of 1 and of a batch diverged");
        prop_assert_eq!(&by_request[1], &by_request[2], "requests of 7 and of a batch diverged");

        // Every DOP against the independent oracle, as multisets over
        // columns in ascending `AttrId` order.
        let truth = oracle::evaluate(&query, &catalog, &db, &bindings);
        let attrs = oracle::output_attrs(&query, &catalog);
        for dop in [1usize, 2, 4] {
            let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
            let mut op =
                compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx).unwrap();
            let positions: Vec<usize> =
                attrs.iter().map(|&a| op.layout().require(a)).collect();
            let rows = drain(op.as_mut()).unwrap();
            prop_assert_eq!(
                oracle::canonical(&rows, &positions), truth.clone(),
                "dop {} differs from the oracle", dop
            );
        }
    }
}

/// A choose-plan whose preferred alternative is refused its memory grant
/// falls back exactly once — to the alternative that needs no grant —
/// and returns that alternative's rows: the whole relation in key order,
/// one record charged per row, no reservation leaked.
#[test]
fn memory_refusal_fallback_is_mode_independent() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 400, 512, |r| r.attr("a", 400.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 7);
    let rel = catalog.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let (idx, _) = catalog.index_on_attr(ra).unwrap();

    // Alternative 0: Sort(FileScan) — needs a grant the governor refuses.
    // Alternative 1: BtreeScan — streams in key order, grant-free.
    let mut choose = Plan::new();
    let scan = node(&mut choose, PhysicalOp::FileScan { relation: rel.id }, &[]);
    let sorted = node(&mut choose, PhysicalOp::Sort { attr: ra }, &[scan]);
    let btree = node(
        &mut choose,
        PhysicalOp::BtreeScan { relation: rel.id, index: idx, key_attr: ra },
        &[],
    );
    node(&mut choose, PhysicalOp::ChoosePlan, &[sorted, btree]);

    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new();
    let limits = ResourceLimits {
        memory_bytes: Some(512),
        ..ResourceLimits::unlimited()
    };

    let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
    let mut op =
        compile_dynamic_plan(&choose, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
    let rows = drain(op.as_mut()).unwrap();
    assert_eq!(ctx.counters.fallbacks(), 1, "expected one fallback");
    assert_eq!(ctx.governor.memory_used(), 0, "leaked reservation");
    assert_eq!(rows.len(), 400);
    assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]), "the B-tree alternative's order");
    let mut stored = db.export_rows()[&rel.id].clone();
    let mut got = rows;
    stored.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, stored, "the fallback returns the relation");
    // The refused sort asked its scan for one row past what the limit
    // still covered — two — before the refusal; the scan that answered was
    // charged for every row.
    assert_eq!(ctx.counters.snapshot().records, 2 + 400);
}

/// Columnar selection-vector semantics on [`RowBatch`] itself: an
/// absent selection, a fully-selected vector, and a sparse vector must
/// agree on live-row accessors, and the physical columns must stay
/// untouched underneath.
#[test]
fn selection_vector_dense_sparse_and_empty_semantics() {
    let rows: Vec<Vec<i64>> = (0..8).map(|i| vec![i, 10 * i]).collect();
    let mut dense = dqep::executor::RowBatch::with_capacity(2, rows.len());
    for row in &rows {
        dense.push_row(row);
    }

    // No selection: every physical row is live.
    assert_eq!(dense.rows(), 8);
    assert_eq!(dense.len(), 8);
    assert_eq!(dense.to_tuples(), rows);
    assert_eq!(dense.selected_indices().collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());

    // Fully-selected vector: identical live view, selection now present.
    let mut full = dense.clone();
    full.set_selection((0..8).collect());
    assert_eq!(full.len(), 8);
    assert_eq!(full.to_tuples(), dense.to_tuples());
    assert!(full.selection().is_some());

    // Sparse vector: live accessors shrink, physical accessors do not.
    let mut sparse = dense.clone();
    sparse.set_selection(vec![1, 4, 6]);
    assert_eq!(sparse.rows(), 8, "selection must not drop physical rows");
    assert_eq!(sparse.len(), 3);
    assert_eq!(sparse.to_tuples(), vec![rows[1].clone(), rows[4].clone(), rows[6].clone()]);
    assert_eq!(sparse.selected_indices().collect::<Vec<_>>(), vec![1, 4, 6]);
    assert_eq!(sparse.column(0), dense.column(0), "columns are physical");
    assert_eq!(sparse.row_vec(4), rows[4], "row_vec indexes physical rows");

    // Empty vector: no live rows, still width-2 and 8 physical rows.
    let mut empty = dense.clone();
    empty.set_selection(Vec::new());
    assert!(empty.is_empty());
    assert_eq!(empty.rows(), 8);
    assert!(empty.to_tuples().is_empty());
    assert_eq!(empty.width(), 2);
}

/// Filter selectivities that produce empty, sparse, and fully-selected
/// batches feeding a hash-join probe: the selection-aware batch kernels
/// must return the oracle's rows at each density, with the charges the
/// operators' definitions give — a compare per probe-side row filtered, a
/// hash per build row and per row that survives the filter.
#[test]
fn filtered_probe_batches_join_identically_at_every_density() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("dim", 60, 512, |r| r.attr("k", 60.0).attr("v", 40.0))
        .relation("fact", 300, 512, |r| r.attr("fk", 60.0).attr("m", 300.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 13);
    let dim = catalog.relation_by_name("dim").unwrap();
    let fact = catalog.relation_by_name("fact").unwrap();
    let fm = fact.attr_id("m").unwrap();
    let on_key = JoinPred::new(dim.attr_id("k").unwrap(), fact.attr_id("fk").unwrap());

    // m < 0 -> every probe batch carries an empty selection; m < 20 ->
    // sparse selections; m < 1000 -> fully selected batches.
    for cutoff in [0i64, 20, 1000] {
        let pred = SelectPred::bound(fm, CompareOp::Lt, cutoff);
        let mut join = Plan::new();
        let build = node(&mut join, PhysicalOp::FileScan { relation: dim.id }, &[]);
        let probe_scan = node(&mut join, PhysicalOp::FileScan { relation: fact.id }, &[]);
        let probe = node(&mut join, PhysicalOp::Filter { predicate: pred }, &[probe_scan]);
        join_node(&mut join, PhysicalOp::HashJoin, &[build, probe], &[on_key]);
        let query = LogicalExpr::get(dim.id)
            .join(LogicalExpr::get(fact.id).select(pred), vec![on_key]);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let bindings = Bindings::new();

        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            compile_dynamic_plan(&join, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let attrs = oracle::output_attrs(&query, &catalog);
        let positions: Vec<usize> = attrs.iter().map(|&a| op.layout().require(a)).collect();
        let rows = drain(op.as_mut()).unwrap();
        let truth = oracle::evaluate(&query, &catalog, &db, &bindings);
        assert_eq!(oracle::canonical(&rows, &positions), truth, "cutoff {cutoff}: rows diverged");
        assert_eq!(rows.is_empty(), cutoff == 0, "cutoff {cutoff}");

        let survivors = db.export_rows()[&fact.id].iter().filter(|row| row[1] < cutoff).count();
        let cpu = ctx.counters.snapshot();
        assert_eq!(cpu.compares, 300, "cutoff {cutoff}: one compare per fact row");
        assert_eq!(cpu.hashes, 60 + survivors as u64, "cutoff {cutoff}: build rows + survivors");
    }
}

/// A read fault landing mid-batch defers: the scan delivers the rows it
/// decoded before the fault — the first page's, in heap order — and the
/// *next* call raises the error. The same holds for the rows of a B-tree
/// scan fetched before a faulted fetch.
#[test]
fn mid_batch_fault_is_deferred_to_the_next_call() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 600, 512, |r| r.attr("a", 600.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 3);
    let rel = catalog.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let (index, _) = catalog.index_on_attr(ra).unwrap();
    let (mut file_scan, mut index_scan) = (Plan::new(), Plan::new());
    node(&mut file_scan, PhysicalOp::FileScan { relation: rel.id }, &[]);
    node(&mut index_scan, PhysicalOp::BtreeScan { relation: rel.id, index, key_attr: ra }, &[]);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new();
    let stored = db.export_rows()[&rel.id].clone();
    let per_page = stored.len().div_ceil(db.table(rel.id).heap.page_count());

    // The file scan's second read is its second page; the index scan's
    // `leaves + 3`-rd is its third fetch (the descent and the leaf chain
    // are read at `open`). A huge max_rows spans the faulting page, so the
    // first call returns what preceded it and stashes the error.
    let leaves = {
        let before = db.disk.stats().total();
        db.table(rel.id).indexes[&index].scan_all(|_, _| {}).unwrap();
        db.disk.stats().total() - before
    };
    for (plan, nth, delivered) in [(&file_scan, 2, per_page), (&index_scan, leaves + 3, 2)] {
        db.disk.set_fault_plan(FaultPlan::parse(&format!("nth-read={nth}")).unwrap());
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            compile_dynamic_plan(plan, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
        op.open().unwrap();
        let first = op
            .next_batch(10_000)
            .expect("first batch precedes the fault")
            .expect("first batch is non-empty");
        let err = op.next_batch(10_000).expect_err("deferred fault surfaces on the next call");
        op.close();
        db.disk.set_fault_plan(FaultPlan::none());

        assert_eq!(first.len(), delivered, "rows read before read {nth}");
        assert_eq!(ctx.counters.snapshot().records, delivered as u64, "delivered rows are charged");
        if std::ptr::eq(plan, &file_scan) {
            assert_eq!(first.to_tuples(), stored[..per_page], "page 1 in heap order");
        }
        assert_eq!(classify(&err), "storage");
    }
}

/// Row-budget refusals at batch boundaries: a budget that exactly covers
/// the result admits it, and the summary reports every row and the whole
/// relation's page reads; a budget one row short refuses with the rows
/// class — the budget is checked per batch at the cumulative count, never
/// overshooting past a boundary — and so does a budget of one.
#[test]
fn row_budget_refusals_are_mode_independent_at_batch_boundaries() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 500, 512, |r| r.attr("a", 500.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 9);
    let rel = catalog.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new();
    let pages = db.table(rel.id).heap.page_count() as u64;

    for (max_rows, should_pass) in [(500u64, true), (499, false), (1, false)] {
        let limits = ResourceLimits {
            max_rows: Some(max_rows),
            ..ResourceLimits::unlimited()
        };
        match run_under(&plan, &db, &catalog, &env, &bindings, limits) {
            Ok(s) => {
                assert!(should_pass, "budget {max_rows} should refuse");
                assert_eq!((s.rows, s.io.total(), s.cpu.records), (500, pages, 500));
            }
            Err(e) => {
                assert!(!should_pass, "budget {max_rows} should admit: {e:?}");
                assert_eq!(e, ExecError::ResourceExhausted(Resource::Rows { limit: max_rows }));
            }
        }
    }
}

/// Fault ordinal *n* fails the *n*-th accounted read: a scan of a relation
/// of `pages` pages reads them in order, so every ordinal up to `pages`
/// fails the query with a storage error, after exactly that many reads,
/// and the first ordinal past the scan's last read leaves it untouched.
#[test]
fn fault_ordinals_trip_identically_in_both_modes() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 600, 512, |r| r.attr("a", 600.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 21);
    let rel = catalog.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id).select(SelectPred::bound(
        rel.attr_id("a").unwrap(),
        CompareOp::Lt,
        300,
    ));
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new();
    let pages = db.table(rel.id).heap.page_count() as u64;
    let truth = oracle::evaluate(&q, &catalog, &db, &bindings).len() as u64;

    for nth in [1u64, 2, 3, pages, pages + 1] {
        db.disk.set_fault_plan(FaultPlan::parse(&format!("nth-read={nth}")).unwrap());
        let before = db.disk.stats();
        let result = run_under(&plan, &db, &catalog, &env, &bindings, ResourceLimits::unlimited());
        let reads = db.disk.stats().since(&before).total();
        db.disk.set_fault_plan(FaultPlan::none());
        match result {
            Ok(s) => {
                assert!(nth > pages, "read {nth} of {pages} was injected and must fail");
                assert_eq!((s.rows, reads), (truth, pages));
            }
            Err(e) => {
                assert_eq!(classify(&e), "storage", "nth-read={nth}");
                assert_eq!(reads, nth, "the query stops at the read that failed");
            }
        }
    }
}
