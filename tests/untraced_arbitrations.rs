//! An untraced run records what it decided, exactly as a traced one does,
//! under an id of its own.
//!
//! Every run draws a trace id from the counter tracers draw from — a
//! traced one adopts its tracer's — so the events a run journals can be
//! told from those of any run beside it, traced or not.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    journal, run, EventKind, ExecContext, JournalEvent, ReoptConfig, ReoptEventKind, ReoptState,
    ResourceLimits, RootSink, RunEvent, SharedCounters, Tracer, NO_ID,
};
use dqep::optimizer::Optimizer;
use dqep::service::{ShardConfig, ShardedService};
use dqep::storage::{FaultPlan, StoredDatabase, ValueDistribution};

#[path = "common/choose.rs"]
mod choose;

/// `(kind, trace, node, winner)` of each journal event.
type Event = (EventKind, u64, u64, u64);

fn arbitrations(winners: &[(u64, usize)], trace: u64) -> Vec<Event> {
    winners.iter().map(|&(n, w)| (EventKind::ArbitrationWinner, trace, n, w as u64)).collect()
}

/// The `ArbitrationWinner` events journaled under `trace` since `cursor`.
fn winners_of(trace: u64, cursor: u64) -> Vec<Event> {
    journal()
        .events_since(cursor)
        .iter()
        .filter(|e| e.kind == EventKind::ArbitrationWinner && e.trace == trace)
        .map(|e| (e.kind, e.trace, e.node, e.a))
        .collect()
}

/// One plan through `run` untraced and traced leaves the same
/// `(node, winner)` list in its counters and one `ArbitrationWinner`
/// journal event per winner, in order, under the run's trace id — its own
/// untraced, its tracer's traced; the traced run adds the spans and the
/// audits, whose winners are that list, and the rows, CPU counters and I/O
/// of the two are equal.
#[test]
fn an_untraced_run_records_its_arbitrations() {
    let (catalog, _, query, plan) = choose::choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = query.bindings(&[("x", 60)]).unwrap().with_memory(48.0);
    // Each run on its own replica, as in the observability suite's
    // `tracing_changes_nothing_observable`.
    let run_with = |tracer: Option<&Arc<Tracer>>| {
        let db = StoredDatabase::generate(&catalog, 77);
        let mut ctx = ExecContext::new(SharedCounters::new());
        if let Some(t) = tracer {
            ctx = ctx.with_tracer(Arc::clone(t));
        }
        let mut rows = Vec::new();
        let cursor = journal().cursor();
        let summary = run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Rows(&mut rows))
            .unwrap();
        let events = winners_of(ctx.trace_id(), cursor);
        ((rows, summary.cpu, summary.io), ctx.counters.winners(), events, ctx.trace_id())
    };

    let (untraced, winners, events, untraced_id) = run_with(None);
    let tracer = Arc::new(Tracer::new());
    let (traced, traced_winners, traced_events, traced_id) = run_with(Some(&tracer));
    assert!(!untraced.0.is_empty(), "the fixture must return rows");
    assert_eq!(untraced, traced, "a tracer changed rows, CPU or I/O");
    assert_eq!(traced_id, tracer.trace_id(), "a traced run adopts its tracer's id");
    assert!(untraced_id != 0 && untraced_id != traced_id, "an untraced run has an id of its own");

    let report = tracer.report();
    assert!(!report.spans.is_empty());
    let audited: Vec<(u64, usize)> = report
        .outcomes()
        .iter()
        .map(|(a, outcome)| (a.node, outcome.and_then(|(winner, _)| winner).expect("resolved")))
        .collect();
    assert!(!audited.is_empty(), "the fixture must arbitrate");
    assert_eq!(traced_winners, audited);
    assert_eq!(winners, traced_winners, "the untraced run's winners");
    assert_eq!(events, arbitrations(&winners, untraced_id), "the untraced run's journal");
    assert_eq!(traced_events, arbitrations(&audited, traced_id), "the traced run's journal");
}

/// Two untraced runs at once, each at its own binding and so on a path of
/// its own: each finds exactly its own arbitrations under its id, however
/// the two interleave in the journal.
#[test]
fn concurrent_untraced_runs_each_find_their_own_arbitrations() {
    let (catalog, _, query, plan) = choose::choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let start = Barrier::new(2);
    let cursor = journal().cursor();
    let runs: Vec<(u64, Vec<(u64, usize)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = [5, 190]
            .into_iter()
            .map(|x| {
                let (catalog, env, query, plan, start) = (&catalog, &env, &query, &plan, &start);
                scope.spawn(move || {
                    let db = StoredDatabase::generate(catalog, 77);
                    let bindings = query.bindings(&[("x", x)]).unwrap().with_memory(48.0);
                    let ctx = ExecContext::new(SharedCounters::new());
                    start.wait();
                    run(plan, &db, catalog, env, &bindings, &ctx, RootSink::Discard).unwrap();
                    (ctx.trace_id(), ctx.counters.winners())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_ne!(runs[0].0, runs[1].0, "two runs, two ids");
    for (trace, winners) in &runs {
        assert!(!winners.is_empty(), "the fixture must arbitrate");
        assert_eq!(winners_of(*trace, cursor), arbitrations(winners, *trace));
    }
}

/// An untraced sharded query: every shard runs under its coordinator's id,
/// so one id — none of the runs beside it — holds every shard's
/// arbitrations.
#[test]
fn the_shards_of_an_untraced_query_journal_under_one_id() {
    let (catalog, _, _, _) = choose::choose_plan_fixture();
    let service = ShardedService::new(catalog, ShardConfig { shards: 2, ..ShardConfig::default() });
    let cursor = journal().cursor();
    let sql = "SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x";
    let outcome = service.execute(sql, &[("x", 60)]).unwrap();
    let mut want: Vec<(u64, usize)> = outcome.winners.concat();
    assert!(outcome.winners.iter().all(|w| !w.is_empty()), "every shard must arbitrate");
    want.sort_unstable();
    let mut by_id: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    for e in journal().events_since(cursor) {
        if e.kind == EventKind::ArbitrationWinner {
            by_id.entry(e.trace).or_default().push((e.node, e.a as usize));
        }
    }
    let matching: Vec<u64> = by_id
        .into_iter()
        .filter_map(|(id, mut got)| {
            got.sort_unstable();
            (got == want).then_some(id)
        })
        .collect();
    assert_eq!(matching.len(), 1, "one id holds both shards' arbitrations: {matching:?}");
    assert_ne!(matching[0], 0);
}

/// `(kind, node, a, b)` of a journal event a run writes.
type Step = (EventKind, u64, u64, u64);

/// What the journal must hold of `trail`, in order: each arbitration
/// (winner, fallbacks), interval escape (observed rows, interval's upper
/// end), adopted re-plan and degradation step (how many of its kind so
/// far).
fn journaled(trail: &[RunEvent]) -> Vec<Step> {
    let (mut replans, mut degradations) = (0, 0);
    trail
        .iter()
        .filter_map(|event| match event {
            RunEvent::Arbitration { node, winner, fallbacks } => Some((
                EventKind::ArbitrationWinner,
                *node,
                winner.map_or(NO_ID, |w| w as u64),
                *fallbacks,
            )),
            RunEvent::Reopt(step) => {
                let node = u64::from(step.node?.0);
                match step.kind {
                    ReoptEventKind::Escape => Some((
                        EventKind::IntervalEscape,
                        node,
                        step.observed? as u64,
                        step.estimate?.1 as u64,
                    )),
                    ReoptEventKind::Replan => {
                        replans += 1;
                        Some((EventKind::Replan, node, replans, NO_ID))
                    }
                    ReoptEventKind::MemoryDegrade => {
                        degradations += 1;
                        Some((EventKind::DegradationStep, node, degradations, NO_ID))
                    }
                    _ => None,
                }
            }
            _ => None,
        })
        .collect()
}

/// The steps `window` journaled under `trace`, in order: the run facts,
/// not the events that belong to no run (refusals, link faults, shard
/// divergence).
fn steps_of(window: &[JournalEvent], trace: u64) -> Vec<Step> {
    use EventKind::{ArbitrationWinner, DegradationStep, IntervalEscape, Replan};
    let of_a_run =
        |kind| matches!(kind, ArbitrationWinner | IntervalEscape | Replan | DegradationStep);
    window
        .iter()
        .filter(|e| e.trace == trace && of_a_run(e.kind))
        .map(|e| (e.kind, e.node, e.a, e.b))
        .collect()
}

/// A run of the journal window: its trace id, its trail, and the winners
/// and fallbacks it returned.
struct Served {
    trace: u64,
    trail: Vec<RunEvent>,
    winners: Vec<(u64, usize)>,
    fallbacks: u64,
}

fn count(steps: &[Step], kind: EventKind) -> u64 {
    steps.iter().filter(|s| s.0 == kind).count() as u64
}

/// One journal window over a mixed set of runs, traced and untraced — a
/// dynamic plan at dop 1 and dop 4, a choose-plan fallback under a fault
/// plan, re-optimizing runs with escapes, adopted re-plans and a degraded
/// grant, and a 2-shard query — holds, under each run's trace id and in
/// order, exactly that run's trail: its arbitrations, escapes, re-plans
/// and degradation steps. And the trail is what the run returned: its
/// winners, fallbacks and re-optimization counters, and, traced, what its
/// tracer was handed.
#[test]
fn the_journal_rebuilds_every_runs_trail() {
    let cursor = journal().cursor();
    let mut runs: Vec<Served> = Vec::new();
    let mut reopt_counters = Vec::new();

    // A dynamic plan at dop 1 untraced, at dop 4 traced, and under a
    // fault plan that fails the preferred alternative's first read.
    let (catalog, _, query, plan) = choose::choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let cases = [(60, 1, false, false), (60, 4, true, false), (5, 1, true, true)];
    for (x, dop, traced, faults) in cases {
        let db = StoredDatabase::generate(&catalog, 77);
        let bindings = query.bindings(&[("x", x)]).unwrap().with_memory(48.0);
        let tracer = traced.then(|| Arc::new(Tracer::new()));
        let mut ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        if let Some(t) = &tracer {
            ctx = ctx.with_tracer(Arc::clone(t));
        }
        if faults {
            db.disk.set_fault_plan(FaultPlan::nth_read(1));
        }
        let summary = run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard).unwrap();
        db.disk.set_fault_plan(FaultPlan::none());
        assert_eq!(faults, summary.fallbacks > 0, "x={x} dop={dop}: {}", summary.fallbacks);
        let trail = ctx.counters.trail();
        if let Some(t) = tracer {
            assert_eq!(t.report().trail, trail, "the tracer holds the run's trail");
        }
        let (trace, winners) = (ctx.trace_id(), ctx.counters.winners());
        runs.push(Served { trace, trail, winners, fallbacks: summary.fallbacks });
    }

    // Re-optimizing runs over skewed data: the first checkpoint escapes
    // and a re-plan is adopted; under a 256 KiB cap the retention is
    // refused, the planning grant degrades, and the run still fails — it
    // journaled what it did all the same.
    let skewed = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 800, 512, |r| {
            r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
        })
        .relation("s", 3000, 512, |r| r.attr("a", 3000.0).attr("j", 200.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate_with(&skewed, 3, ValueDistribution::Zipf { exponent: 1.1 });
    let (r, s) = (&skewed.relations()[0], &skewed.relations()[1]);
    let join = LogicalExpr::get(r.id)
        .select(SelectPred::unbound(r.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0)))
        .join(
            LogicalExpr::get(s.id),
            vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
        );
    let env = Environment::dynamic_compile_time(&skewed.config);
    let plan = Optimizer::new(&skewed, &env).optimize(&join).unwrap().plan;
    let bindings = Bindings::new().with_value(HostVar(0), 30).with_memory(400.0);
    for (traced, memory_bytes) in [(true, None), (false, Some(256 * 1024))] {
        let state = Arc::new(ReoptState::new(ReoptConfig::default()));
        let limits = ResourceLimits { memory_bytes, ..ResourceLimits::default() };
        let tracer = traced.then(|| Arc::new(Tracer::new()));
        let mut ctx = ExecContext::with_limits(SharedCounters::new(), limits)
            .with_reopt(Arc::clone(&state));
        if let Some(t) = &tracer {
            ctx = ctx.with_tracer(Arc::clone(t));
        }
        let result = run(&plan, &db, &skewed, &env, &bindings, &ctx, RootSink::Discard);
        assert_eq!(result.is_ok(), memory_bytes.is_none(), "{result:?}");
        let trail = ctx.counters.trail();
        if let Some(t) = tracer {
            assert_eq!(t.report().trail, trail, "the tracer holds the run's trail");
            assert_eq!(t.report().reopt().counters, state.counters());
        }
        reopt_counters.push((ctx.trace_id(), state.counters()));
        let fallbacks = result.map_or_else(|_| ctx.counters.fallbacks(), |s| s.fallbacks);
        let (trace, winners) = (ctx.trace_id(), ctx.counters.winners());
        runs.push(Served { trace, trail, winners, fallbacks });
    }
    let c = &reopt_counters[0].1;
    assert!(c.escapes >= 1 && c.replans_adopted >= 1, "{c:?}");
    let c = &reopt_counters[1].1;
    assert!(c.memory_degradations >= 1, "{c:?}");

    // A traced 2-shard query: both shards journal under its one id, each
    // in its own order, so the shards' steps are compared as a multiset.
    let service = ShardedService::new(
        choose::choose_plan_fixture().0,
        ShardConfig { shards: 2, trace: true, ..ShardConfig::default() },
    );
    let sql = "SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x";
    let outcome = service.execute(sql, &[("x", 60)]).unwrap();
    let trace = outcome.trace.as_ref().expect("traced");

    let window = journal().events_since(cursor);
    assert!(window.first().is_some_and(|e| e.seq == cursor), "the window must not wrap");
    for Served { trace: trace_id, trail, winners, fallbacks } in &runs {
        let steps = steps_of(&window, *trace_id);
        assert!(!steps.is_empty(), "every run arbitrates");
        assert_eq!(steps, journaled(trail), "run {trace_id}");
        let journaled_winners: Vec<(u64, usize)> = steps
            .iter()
            .filter(|s| s.0 == EventKind::ArbitrationWinner && s.2 != NO_ID)
            .map(|s| (s.1, s.2 as usize))
            .collect();
        assert_eq!(&journaled_winners, winners, "run {trace_id}");
        let absorbed: u64 =
            steps.iter().filter(|s| s.0 == EventKind::ArbitrationWinner).map(|s| s.3).sum();
        // Fallbacks outside a choose-plan are not journaled: a prepared
        // statement's retry through its dynamic plan, or a revert of the
        // re-optimization driver.
        assert!(absorbed <= *fallbacks, "run {trace_id}: {absorbed} > {fallbacks}");
    }
    for (trace_id, c) in &reopt_counters {
        let steps = steps_of(&window, *trace_id);
        assert_eq!(count(&steps, EventKind::IntervalEscape), c.escapes);
        assert_eq!(count(&steps, EventKind::Replan), c.replans_adopted);
        assert_eq!(count(&steps, EventKind::DegradationStep), c.memory_degradations);
    }
    let mut steps = steps_of(&window, trace.trace_id);
    let mut want = journaled(&trace.trail);
    let key = |&(kind, node, a, b): &Step| (kind as usize, node, a, b);
    steps.sort_unstable_by_key(key);
    want.sort_unstable_by_key(key);
    assert_eq!(steps, want, "the shards' steps");
    let mut winners = outcome.winners.concat();
    let mut journaled_winners: Vec<(u64, usize)> =
        steps.iter().map(|s| (s.1, s.2 as usize)).collect();
    winners.sort_unstable();
    journaled_winners.sort_unstable();
    assert_eq!(journaled_winners, winners);
    assert_eq!(outcome.fallbacks, steps.iter().map(|s| s.3).sum::<u64>());
}
