//! An untraced run records what it decided, exactly as a traced one does,
//! under an id of its own.
//!
//! Every run draws a trace id from the counter tracers draw from — a
//! traced one adopts its tracer's — so the events a run journals can be
//! told from those of any run beside it, traced or not.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use dqep::cost::Environment;
use dqep::executor::{journal, run, EventKind, ExecContext, RootSink, SharedCounters, Tracer};
use dqep::service::{ShardConfig, ShardedService};
use dqep::storage::StoredDatabase;

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
    let audited: Vec<(u64, usize)> =
        report.audits.iter().map(|a| (a.node, a.winner.expect("resolved"))).collect();
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
