//! Fault-injection integration tests: the execution pipeline under
//! storage faults and resource pressure.
//!
//! Three invariants:
//! 1. injected storage faults surface as `Err(ExecError::Storage)` — the
//!    pipeline never panics and never fabricates rows;
//! 2. when a choose-plan's preferred alternative cannot get its memory
//!    grant, execution degrades to the next alternative and still produces
//!    exactly the rows that alternative produces when run directly;
//! 3. under *random* fault plans, draining any optimized plan either
//!    succeeds with the correct result or fails cleanly — never panics.

use std::sync::Arc;

use dqep::algebra::{CompareOp, HostVar, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{make_chain_catalog, Catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    compile_dynamic_plan, drain, run, ExecContext, ExecError, ExecSummary, ReoptConfig,
    ReoptState, Resource, ResourceLimits, RootSink, SharedCounters, BATCH_CAPACITY,
};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{NodeId, Plan};
use dqep::service::{QueryService, Request, ServiceConfig, ServiceError};
use dqep::storage::{FaultPlan, StorageError, StoredDatabase, DEFAULT_MORSEL_PAGES};
use proptest::prelude::*;

#[path = "common/workload.rs"]
#[allow(dead_code)]
mod workload;

use workload::named_binds;

fn fixture() -> (Catalog, StoredDatabase, LogicalExpr) {
    let cat = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 400, 512, |r| r.attr("a", 400.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&cat, 99);
    let rel = cat.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
        rel.attr_id("a").unwrap(),
        CompareOp::Lt,
        HostVar(0),
    ));
    (cat, db, q)
}

/// One ungoverned serial run of `plan`, rows discarded.
fn execute(
    plan: &Plan,
    db: &StoredDatabase,
    cat: &Catalog,
    env: &Environment,
    bindings: &Bindings,
) -> Result<ExecSummary, ExecError> {
    let ctx = ExecContext::new(SharedCounters::new());
    run(plan, db, cat, env, bindings, &ctx, RootSink::Discard)
}

/// Ground truth computed with faults disabled, through the unaccounted
/// (fault-exempt) load path.
fn expected_rows(cat: &Catalog, db: &StoredDatabase, v: i64) -> u64 {
    let table = db.table(cat.relation_by_name("r").unwrap().id);
    table
        .heap
        .scan()
        .map(Result::unwrap)
        .filter(|rec| table.decode(rec)[0] < v)
        .count() as u64
}

/// Every accounted read failing: execution reports a storage error — it
/// does not panic, and the error is classified retryable.
#[test]
fn total_read_failure_is_an_error_not_a_panic() {
    let (cat, db, q) = fixture();
    let env = Environment::dynamic_compile_time(&cat.config);
    let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new().with_value(HostVar(0), 200);

    db.disk.set_fault_plan(FaultPlan::probabilistic(1.0, 1));
    let result = execute(&plan, &db, &cat, &env, &bindings);
    db.disk.set_fault_plan(FaultPlan::none());

    let err = result.expect_err("all reads fail: execution cannot succeed");
    assert!(matches!(err, ExecError::Storage(_)), "got {err:?}");
    assert!(err.is_retryable());

    // The same query succeeds once the faults are gone.
    let summary = execute(&plan, &db, &cat, &env, &bindings).unwrap();
    assert_eq!(summary.rows, expected_rows(&cat, &db, 200));
}

/// A write fault during a forced sort spill surfaces as an error too —
/// the write path is as governed as the read path.
#[test]
fn spill_write_failure_is_an_error_not_a_panic() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let mut sort = Plan::new();
    let scan = node(&mut sort, PhysicalOp::FileScan { relation: rel.id }, &[]);
    node(&mut sort, PhysicalOp::Sort { attr: ra }, &[scan]);

    let ctx = ExecContext::new(SharedCounters::new());
    // One page of memory forces external runs; the first spill write dies.
    let mut op =
        dqep::executor::compile_plan(&sort, &db, &cat, &Bindings::new(), 2048, &ctx).unwrap();
    db.disk.set_fault_plan(FaultPlan::parse("nth-write=1").unwrap());
    let result = drain(op.as_mut());
    db.disk.set_fault_plan(FaultPlan::none());
    assert!(
        matches!(result, Err(ExecError::Storage(_))),
        "got {result:?}"
    );
    // The failed query released its memory reservations on close.
    assert_eq!(ctx.governor.memory_used(), 0);
}

/// A file scan pulled again after a faulted page read re-reads that
/// page: it neither skips the page's rows nor delivers any row twice,
/// whether the fault was returned at once or deferred behind a partial
/// batch — wherever in a run of pages the fault falls. The 134 pages hold
/// three rows each (one on the last), so a request of 100 rows is a run of
/// 34 pages whose last page becomes the tail, and a request of 2 rows
/// makes every page a tail.
#[test]
fn file_scan_pulled_after_a_fault_rereads_the_faulted_page() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let mut scan = Plan::new();
    node(&mut scan, PhysicalOp::FileScan { relation: rel.id }, &[]);
    let ctx = ExecContext::new(SharedCounters::new());
    let pages = db.table(rel.id).heap.page_count() as u64;
    let pull_all = |max_rows: usize, nth: Option<u64>| {
        let mut op =
            dqep::executor::compile_plan(&scan, &db, &cat, &Bindings::new(), 2048, &ctx).unwrap();
        op.open().unwrap();
        db.disk.reset_stats();
        db.disk.set_fault_plan(nth.map_or(FaultPlan::none(), FaultPlan::nth_read));
        // The `a` column as delivered, and the rows delivered before each error.
        let (mut rows, mut faults) = (Vec::new(), Vec::new());
        loop {
            match op.next_batch(max_rows) {
                Ok(Some(batch)) => {
                    assert!(batch.len() <= max_rows);
                    rows.extend(batch.iter().map(|row| row[0]));
                }
                Ok(None) => break,
                Err(e) => {
                    assert!(matches!(e, ExecError::Storage(_)), "got {e:?}");
                    faults.push(rows.len());
                }
            }
        }
        db.disk.set_fault_plan(FaultPlan::none());
        op.close();
        (rows, faults, db.disk.stats())
    };
    let (truth, _, clean) = pull_all(BATCH_CAPACITY, None);
    assert_eq!((truth.len() as u64, clean.total()), (expected_rows(&cat, &db, i64::MAX), pages));
    // (request, faulted read, rows delivered before the error). A fault
    // is immediate when the batch it interrupts is still empty, and then
    // the rows before it are whole batches.
    let cases = [
        (BATCH_CAPACITY, 1, 0),    // first page of the only run: immediate
        (BATCH_CAPACITY, 67, 198), // a middle page
        (BATCH_CAPACITY, 134, 399), // the last page of the run and of the file
        (100, 1, 0),
        (100, 17, 48),
        (100, 34, 99),   // the page that would have become the tail: deferred
        (100, 35, 102),  // first page of the second run, behind the tail's rows
        (100, 68, 201),  // the second run's tail page
        (2, 2, 3),       // a tail page behind the previous tail's row
        (2, 3, 6),       // a tail page read into an empty batch: immediate
        (2, 134, 399),
    ];
    for (max_rows, nth, before) in cases {
        let what = format!("request {max_rows}, read {nth}");
        let (rows, faults, io) = pull_all(max_rows, Some(nth));
        assert_eq!(faults, [before], "{what}: one fault, behind the rows of the pages before it");
        assert_eq!(rows, truth, "{what}: no row lost, none twice");
        assert_eq!(io.total(), pages + 1, "{what}: the faulted page, and only it, was read again");
        assert_eq!(io.since(&clean).random_reads, 1, "{what}: the retry is the one extra random read");
    }
}

/// An I/O budget of `k` pages lets a serial scan read exactly `k` pages,
/// whichever side of a batch boundary page `k + 1` lies on (a request of
/// 100 rows ends its first run with page 34): the refused page is charged
/// but not read, the rows of the pages before it are delivered first, and
/// the refusal repeats on every further pull.
#[test]
fn io_budget_trips_on_the_page_that_exceeds_it() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let mut scan = Plan::new();
    node(&mut scan, PhysicalOp::FileScan { relation: rel.id }, &[]);
    for k in [0, 1, 33, 34, 35, 133] {
        let limits = ResourceLimits { max_io: Some(k), ..ResourceLimits::unlimited() };
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
        let mut op =
            dqep::executor::compile_plan(&scan, &db, &cat, &Bindings::new(), 2048, &ctx).unwrap();
        op.open().unwrap();
        db.disk.reset_stats();
        let mut rows = 0;
        let refusal = loop {
            match op.next_batch(100) {
                Ok(Some(batch)) => rows += batch.len() as u64,
                Ok(None) => panic!("budget {k}: the scan completed"),
                Err(e) => break e,
            }
        };
        let exhausted = ExecError::ResourceExhausted(Resource::Io { limit: k });
        assert_eq!(refusal, exhausted, "budget {k}");
        assert_eq!((db.disk.stats().total(), rows), (k, 3 * k), "budget {k}: pages read, rows delivered");
        assert_eq!(op.next_batch(100).unwrap_err(), exhausted, "budget {k}: pulled again");
        assert_eq!(db.disk.stats().total(), k, "budget {k}: still nothing read past it");
        op.close();
    }
}

/// A completed scan is charged the same at every DOP — pages read, the
/// governor's I/O total (a budget of exactly the page count admits it, one
/// page less refuses it), CPU counters — and where workers share the disk
/// no run of pages under one latch is longer than a morsel.
#[test]
fn a_completed_scan_charges_the_same_at_every_dop() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let mut scan = Plan::new();
    node(&mut scan, PhysicalOp::FileScan { relation: rel.id }, &[]);
    let env = Environment::dynamic_compile_time(&cat.config);
    let pages = db.table(rel.id).heap.page_count() as u64;
    let scan_at = |dop: usize, max_io: Option<u64>| {
        let limits = ResourceLimits { max_io, ..ResourceLimits::unlimited() };
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_dop(dop);
        db.disk.reset_stats();
        let summary = run(&scan, &db, &cat, &env, &Bindings::new(), &ctx, RootSink::Discard);
        (summary, db.disk.longest_run())
    };
    let (serial, longest) = scan_at(1, None);
    let serial = serial.unwrap();
    assert_eq!((serial.rows, serial.io.total(), longest as u64), (400, pages, pages), "one run at DOP 1");
    for dop in [1, 2, 4] {
        let (admitted, longest) = scan_at(dop, Some(pages));
        let admitted = admitted.unwrap();
        assert_eq!(
            (admitted.rows, admitted.io.total(), admitted.cpu),
            (serial.rows, pages, serial.cpu),
            "dop {dop}"
        );
        if dop == 1 {
            assert_eq!(admitted.io, serial.io, "a budget that holds changes nothing");
        } else {
            assert!((1..=DEFAULT_MORSEL_PAGES).contains(&longest), "dop {dop}: a run of {longest} pages");
        }
        assert_eq!(
            scan_at(dop, Some(pages - 1)).0.unwrap_err(),
            ExecError::ResourceExhausted(Resource::Io { limit: pages - 1 }),
            "dop {dop}: one page short"
        );
    }
}

fn node(b: &mut Plan, op: PhysicalOp, children: &[NodeId]) -> NodeId {
    b.push(
        op,
        children,
        &[],
        PlanStats::new(Interval::point(0.0), 512.0),
        Cost::ZERO,
    )
}

/// A choose-plan whose memory-hungry alternative is refused its grant by
/// the governor falls back to the grant-free alternative — and produces
/// exactly the rows that alternative produces when run directly.
#[test]
fn memory_exhausted_alternative_falls_back_to_the_same_rows() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let (idx, _) = cat.index_on_attr(ra).unwrap();

    // Alternative 0: Sort(FileScan) — buffers rows, needs the grant.
    // Alternative 1: BtreeScan — streams in key order, no grant needed.
    let mut choose = Plan::new();
    let scan = node(&mut choose, PhysicalOp::FileScan { relation: rel.id }, &[]);
    let sorted = node(&mut choose, PhysicalOp::Sort { attr: ra }, &[scan]);
    let btree = node(
        &mut choose,
        PhysicalOp::BtreeScan { relation: rel.id, index: idx, key_attr: ra },
        &[],
    );
    node(&mut choose, PhysicalOp::ChoosePlan, &[sorted, btree]);
    let btree = choose.rooted_at(btree);

    let env = Environment::dynamic_compile_time(&cat.config);
    let bindings = Bindings::new();

    // Direct run of the fallback alternative, ungoverned.
    let ctx = ExecContext::new(SharedCounters::new());
    let mut direct = dqep::executor::compile_plan(&btree, &db, &cat, &bindings, 2048, &ctx).unwrap();
    let direct_rows = drain(direct.as_mut()).unwrap();

    // Governed run: the sort alternative cannot reserve even one page.
    let limits = ResourceLimits {
        memory_bytes: Some(512),
        ..ResourceLimits::unlimited()
    };
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
    let mut op =
        compile_dynamic_plan(&choose, &db, &cat, &env, &bindings, 64 * 2048, &ctx).unwrap();
    let rows = drain(op.as_mut()).unwrap();

    assert_eq!(rows, direct_rows, "fallback must deliver the fallback plan's rows");
    assert_eq!(rows.len(), 400);
    assert!(
        ctx.counters.fallbacks() >= 1,
        "memory-refused alternative must be recorded as a fallback"
    );
    assert_eq!(ctx.governor.memory_used(), 0, "failed attempt leaked its reservation");
}

/// Joined rows of four or more 512-byte relations are wider than a 2 KB
/// page. When such rows reach a Grace or sort spill the storage layer
/// must refuse the record with a typed, retryable error — so choose-plan
/// can fall back to a non-spilling alternative — instead of panicking the
/// session, which costs the service the replica it ran on (and, once the
/// last is gone, answers every later request `ServiceError::Shutdown`).
#[test]
fn oversized_spill_record_is_a_typed_error_and_the_worker_survives() {
    const RELATIONS: usize = 5;
    const SEED: u64 = 23;
    let catalog =
        make_chain_catalog(&SyntheticSpec::paper(RELATIONS, SEED), SystemConfig::paper_1994());
    let from: Vec<String> = (1..=RELATIONS).map(|i| format!("R{i}")).collect();
    let mut preds: Vec<String> =
        (1..RELATIONS).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
    preds.extend((1..=RELATIONS).map(|i| format!("R{i}.a < :v{i}")));
    let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
    let request = |selectivity: f64| {
        let binds = named_binds(&catalog, &sql, selectivity);
        let mut request = Request { sql: sql.clone(), binds, ..Request::default() };
        request.memory_pages = Some(64.0);
        request
    };
    let svc = QueryService::new(
        catalog.clone(),
        ServiceConfig { workers: 1, data_seed: SEED, ..ServiceConfig::default() },
    );

    let mut answered = 0;
    for selectivity in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        match svc.execute(request(selectivity)) {
            Ok(session) => {
                assert!(session.summary.rows > 0, "selectivity {selectivity}: empty answer");
                answered += 1;
            }
            Err(ServiceError::Exec(ExecError::Storage(StorageError::RecordTooLarge {
                len,
                max,
            }))) => assert!(len > max, "selectivity {selectivity}: {len} <= {max}"),
            Err(e) => panic!("selectivity {selectivity}: untyped failure: {e}"),
        }
    }
    assert!(answered > 0, "no wide binding was answered at all");
    // The worker is still alive: a narrow request on the same service
    // succeeds.
    svc.execute(request(0.01)).expect("the worker survived the wide spills");
}

// ---- temp-page lifecycle ------------------------------------------------
//
// A statement that spills (Grace partitions, sort runs) gives every temp
// page back on every way out — finished, faulted, refused, cancelled —
// so a long-lived replica neither grows nor drifts: request k allocates
// the page ids request 1 did and is charged the same I/O.

/// The `exec_scale` relations at a quarter of their benchmark size: under
/// the 64-page grant the join still partitions and the sort still forms
/// runs.
fn star() -> (Catalog, StoredDatabase) {
    let cat = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", 3000, 256, |r| {
            r.attr("a", 3000.0).attr("j", 1500.0).btree("a", false)
        })
        .relation("dim", 1500, 256, |r| {
            r.attr("a", 1500.0).attr("j", 1500.0).btree("j", false)
        })
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&cat, 7);
    (cat, db)
}

/// The three `exec_scale` shapes: join, sort, doubly filtered join.
const STAR_SQL: [&str; 3] = [
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x",
    "SELECT * FROM fact WHERE fact.a < :x ORDER BY fact.j",
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x AND dim.a < :y",
];

/// A prepared `exec_scale` statement bound at 70 % selectivity under the
/// 64-page grant.
struct Spilling<'a> {
    cat: &'a Catalog,
    db: &'a StoredDatabase,
    env: Environment,
    plan: Arc<Plan>,
    bindings: Bindings,
    /// `disk.page_count()` after loading: where every request must end.
    loaded: usize,
}

impl<'a> Spilling<'a> {
    fn new(cat: &'a Catalog, db: &'a StoredDatabase, sql: &str) -> Self {
        let query = dqep::sql::parse_query(sql, cat).unwrap();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(cat, &env)
            .optimize_with_props(&query.expr, query.required_props())
            .unwrap()
            .plan;
        let binds: Vec<(&str, i64)> =
            [("x", 2100), ("y", 1050)].into_iter().filter(|(v, _)| sql.contains(&format!(":{v}"))).collect();
        let bindings = query.bindings(&binds).unwrap().with_memory(64.0);
        Spilling { cat, db, env, plan, bindings, loaded: db.disk.page_count() }
    }

    fn run(&self, limits: ResourceLimits, dop: usize) -> Result<ExecSummary, ExecError> {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_dop(dop);
        run(&self.plan, self.db, self.cat, &self.env, &self.bindings, &ctx, RootSink::Discard)
    }

    /// Nothing of the last request is left on the disk.
    fn assert_reclaimed(&self, what: &str) {
        assert_eq!(self.db.disk.page_count(), self.loaded, "{what}: page count");
        assert_eq!(self.db.disk.temp_pages().live, 0, "{what}: live temp pages");
    }

    /// A clean serial run, which must be exactly `first` again.
    fn assert_unchanged(&self, first: &ExecSummary, what: &str) {
        let again = self.run(ResourceLimits::unlimited(), 1).unwrap();
        self.assert_reclaimed(what);
        let seconds = |s: &ExecSummary| s.simulated_seconds(&self.cat.config);
        assert_eq!(
            (again.rows, again.io, again.temp_pages_peak, seconds(&again)),
            (first.rows, first.io, first.temp_pages_peak, seconds(first)),
            "{what}: the request after it"
        );
    }
}

/// Fifty requests per shape on one replica, then ten more at DOP 2 and 4:
/// after every one the disk is back at its post-load size and the request
/// cost what the first one cost.
#[test]
fn repeated_spilling_requests_neither_grow_the_disk_nor_drift() {
    let (cat, db) = star();
    for sql in STAR_SQL {
        let stmt = Spilling::new(&cat, &db, sql);
        let first = stmt.run(ResourceLimits::unlimited(), 1).unwrap();
        stmt.assert_reclaimed(sql);
        assert!(first.temp_pages_peak > 0 && first.io.writes > 0, "{sql}: did not spill");
        for k in 2..=50 {
            stmt.assert_unchanged(&first, &format!("{sql}, request {k}"));
        }
        for dop in [2, 4] {
            for k in 1..=10 {
                // Parallel run-page reads may reorder, moving reads between
                // the sequential and random columns; the totals may not.
                let s = stmt.run(ResourceLimits::unlimited(), dop).unwrap();
                stmt.assert_reclaimed(&format!("{sql}, dop {dop}, request {k}"));
                assert_eq!(
                    (s.rows, s.io.total(), s.io.writes, s.temp_pages_peak),
                    (first.rows, first.io.total(), first.io.writes, first.temp_pages_peak),
                    "{sql}, dop {dop}, request {k}"
                );
            }
        }
        stmt.assert_unchanged(&first, &format!("{sql}, after the parallel runs"));
    }
}

/// Every way out of a spilling statement reclaims: a write fault in the
/// middle of the spill (absorbed by a fallback or surfaced), a governor
/// that refuses the build side its memory, the re-optimization driver's
/// breaker materialization, and a cancellation while partitions are on
/// disk.
#[test]
fn every_exit_path_of_a_spilling_statement_reclaims() {
    let (cat, db) = star();
    for sql in STAR_SQL {
        let stmt = Spilling::new(&cat, &db, sql);
        let first = stmt.run(ResourceLimits::unlimited(), 1).unwrap();

        for dop in [1, 2, 4] {
            for nth in [1, first.io.writes / 2, first.io.writes] {
                db.disk.set_fault_plan(FaultPlan::parse(&format!("nth-write={nth}")).unwrap());
                let result = stmt.run(ResourceLimits::unlimited(), dop);
                db.disk.set_fault_plan(FaultPlan::none());
                let what = format!("{sql}, dop {dop}, write fault {nth}");
                match result {
                    Ok(s) => assert!(s.fallbacks > 0 && s.rows == first.rows, "{what}: {s:?}"),
                    Err(e) => assert!(matches!(e, ExecError::Storage(_)), "{what}: {e:?}"),
                }
                stmt.assert_reclaimed(&what);
            }
        }
        stmt.assert_unchanged(&first, &format!("{sql}, after the write faults"));

        // The governor holds the statement to the 64 pages it was planned
        // for. The hash join buffers its whole build side before it
        // partitions, so the joins are refused and fall back to an
        // alternative that spills sort runs instead; the sort fits.
        let tight = ResourceLimits { memory_bytes: Some(64 * 2048), ..ResourceLimits::unlimited() };
        let refused = stmt.run(tight, 1).unwrap();
        assert_eq!(refused.rows, first.rows, "{sql}: refused grant");
        assert_eq!(refused.fallbacks > 0, sql.contains("dim"), "{sql}: {refused:?}");
        assert!(refused.temp_pages_peak > 0, "{sql}: the fallback did not spill");
        stmt.assert_reclaimed(&format!("{sql}, refused grant"));

        let reopt = run(
            &stmt.plan,
            &db,
            &cat,
            &stmt.env,
            &stmt.bindings,
            &ExecContext::new(SharedCounters::new())
                .with_reopt(Arc::new(ReoptState::new(ReoptConfig::default()))),
            RootSink::Discard,
        )
        .unwrap();
        assert_eq!(reopt.rows, first.rows, "{sql}: reopt");
        stmt.assert_reclaimed(&format!("{sql}, reopt"));

        // Cancel once temp pages exist. Pacing keeps the statement on the
        // disk long enough for the cancellation to land mid-flight.
        let ctx = ExecContext::new(SharedCounters::new());
        db.disk.set_io_latency_micros(50);
        let result = std::thread::scope(|scope| {
            let run = scope.spawn(|| {
                let mut op = compile_dynamic_plan(
                    &stmt.plan, &db, &cat, &stmt.env, &stmt.bindings, 64 * 2048, &ctx,
                )?;
                drain(op.as_mut())
            });
            while db.disk.temp_pages().live == 0 && !run.is_finished() {
                std::thread::yield_now();
            }
            ctx.governor.cancel();
            run.join().unwrap()
        });
        db.disk.set_io_latency_micros(0);
        assert!(matches!(result, Err(ExecError::Cancelled)), "{sql}: {:?}", result.map(|r| r.len()));
        stmt.assert_reclaimed(&format!("{sql}, cancelled"));
        assert_eq!(ctx.governor.memory_used(), 0, "{sql}: cancelled run kept its reservation");

        stmt.assert_unchanged(&first, &format!("{sql}, after every exit path"));
    }
}

/// A read fault while Grace partitions or sort runs are being read back —
/// every temp page fails, then the first, a middle and the last page of
/// the read-back by ordinal — reclaims like every other way out, at every
/// DOP, where the read-back is cut into morsel-long runs.
#[test]
fn a_read_fault_during_read_back_reclaims() {
    let (cat, db) = star();
    for sql in STAR_SQL {
        let stmt = Spilling::new(&cat, &db, sql);
        let first = stmt.run(ResourceLimits::unlimited(), 1).unwrap();
        // Every spilled page is read back once, after everything else.
        let reads = first.io.total() - first.io.writes;
        let temp_pages = FaultPlan::page_range(stmt.loaded as u32, u32::MAX - 1);
        let nth = [reads - first.io.writes + 1, reads - first.io.writes / 2, reads].map(FaultPlan::nth_read);
        for dop in [1, 2, 4] {
            for (i, plan) in std::iter::once(&temp_pages).chain(&nth).enumerate() {
                db.disk.reset_stats();
                db.disk.set_fault_plan(plan.clone());
                let result = stmt.run(ResourceLimits::unlimited(), dop);
                db.disk.set_fault_plan(FaultPlan::none());
                let what = format!("{sql}, dop {dop}, read fault {i}");
                match result {
                    Ok(s) => assert!(s.fallbacks > 0 && s.rows == first.rows, "{what}: {s:?}"),
                    Err(e) => assert!(matches!(e, ExecError::Storage(_)), "{what}: {e:?}"),
                }
                stmt.assert_reclaimed(&what);
                if dop > 1 {
                    let longest = db.disk.longest_run();
                    assert!(longest <= DEFAULT_MORSEL_PAGES, "{what}: a run of {longest} pages");
                }
            }
        }
        stmt.assert_unchanged(&first, &format!("{sql}, after the read faults"));
    }
}

/// The I/O budget counts every accounted page — base-table and index
/// reads, spill writes and their read-backs — so `max_io = N` means what
/// it says for exactly the statements that need it: a budget of the run's
/// own total admits it unchanged, and one page less refuses it, at every
/// DOP.
#[test]
fn io_budget_counts_spill_and_index_pages() {
    let (cat, db) = star();
    for sql in STAR_SQL {
        let stmt = Spilling::new(&cat, &db, sql);
        let first = stmt.run(ResourceLimits::unlimited(), 1).unwrap();
        assert!(first.io.writes > 0, "{sql}: did not spill");
        let budget = |pages| ResourceLimits { max_io: Some(pages), ..ResourceLimits::unlimited() };
        let total = first.io.total();
        for dop in [1, 2, 4] {
            let admitted = stmt.run(budget(total), dop).unwrap();
            assert_eq!(
                (admitted.rows, admitted.io.total(), admitted.io.writes),
                (first.rows, total, first.io.writes),
                "{sql}, dop {dop}"
            );
            if dop == 1 {
                assert_eq!(admitted.io, first.io, "{sql}: a budget that holds changes nothing");
            }
            assert_eq!(
                stmt.run(budget(total - 1), dop).unwrap_err(),
                ExecError::ResourceExhausted(Resource::Io { limit: total - 1 }),
                "{sql}, dop {dop}: one page short"
            );
            stmt.assert_reclaimed(&format!("{sql}, dop {dop}, refused budget"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary fault plans, execution never panics: it either
    /// completes with the correct answer or returns a clean error.
    #[test]
    fn drain_never_panics_under_random_fault_plans(
        v in 0i64..400,
        prob in 0.0f64..0.3,
        seed in 0u64..1000,
        nth in 1u64..40,
    ) {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), v);
        let truth = expected_rows(&cat, &db, v);

        let mut fault = FaultPlan::probabilistic(prob, seed);
        fault.fail_nth_reads.push(nth);
        db.disk.set_fault_plan(fault);
        let result = execute(&plan, &db, &cat, &env, &bindings);
        db.disk.set_fault_plan(FaultPlan::none());

        match result {
            Ok(summary) => prop_assert_eq!(summary.rows, truth),
            Err(e) => prop_assert!(
                matches!(e, ExecError::Storage(_)),
                "only storage faults are injected, got {:?}", e
            ),
        }
    }
}
