//! An untraced run records what it decided, exactly as a traced one does.
//!
//! The event journal is process-wide and untraced events all carry trace
//! id 0, so this check has a test binary of its own: every event
//! journaled while a run executes is that run's, and a run's journal
//! window must equal its arbitrations exactly.

use std::sync::Arc;

use dqep::cost::Environment;
use dqep::executor::{journal, run, EventKind, ExecContext, RootSink, SharedCounters, Tracer};
use dqep::storage::StoredDatabase;

#[path = "common/choose.rs"]
mod choose;

/// One plan through `run` untraced and traced leaves the same
/// `(node, winner)` list in its counters and one `ArbitrationWinner`
/// journal event per winner, in order, under the run's trace id (0
/// untraced); the traced run adds the spans and the audits, whose winners
/// are that list, and the rows, CPU counters and I/O of the two are equal.
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
        let events: Vec<_> = journal()
            .events_since(cursor)
            .iter()
            .map(|e| (e.kind, e.trace, e.node, e.a))
            .collect();
        ((rows, summary.cpu, summary.io), ctx.counters.winners(), events)
    };
    let arbitrations = |winners: &[(u64, usize)], trace: u64| -> Vec<_> {
        winners.iter().map(|&(n, w)| (EventKind::ArbitrationWinner, trace, n, w as u64)).collect()
    };

    let (untraced, winners, events) = run_with(None);
    let tracer = Arc::new(Tracer::new());
    let (traced, traced_winners, traced_events) = run_with(Some(&tracer));
    assert!(!untraced.0.is_empty(), "the fixture must return rows");
    assert_eq!(untraced, traced, "a tracer changed rows, CPU or I/O");

    let report = tracer.report();
    assert!(!report.spans.is_empty());
    let audited: Vec<(u64, usize)> =
        report.audits.iter().map(|a| (a.node, a.winner.expect("resolved"))).collect();
    assert!(!audited.is_empty(), "the fixture must arbitrate");
    assert_eq!(traced_winners, audited);
    assert_eq!(winners, traced_winners, "the untraced run's winners");
    assert_eq!(events, arbitrations(&winners, 0), "the untraced run's journal");
    assert_eq!(traced_events, arbitrations(&audited, tracer.trace_id()), "the traced run's journal");
}
