//! Prepared-query service integration tests.
//!
//! The load-bearing invariant: a session executed **through the service**
//! — concurrent workers, cached plans, memoized decisions, admission
//! control — produces exactly the rows the same statement produces when
//! executed alone through the single-query pipeline. Caching and
//! concurrency are allowed to change *how fast* an answer arrives, never
//! *which* answer.

use dqep::catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{ExecError, ExecSummary};
use dqep::optimizer::Optimizer;
use dqep::service::{Metric, QueryService, Request, ServiceConfig, ServiceError};
use dqep::sql::parse_query;
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

#[path = "common/exec.rs"]
mod exec;
use exec::execute;

fn chain_sql(relations: usize) -> String {
    let from: Vec<String> = (1..=relations).map(|i| format!("R{i}")).collect();
    let mut preds: Vec<String> = (1..relations)
        .map(|i| format!("R{i}.jr = R{}.jl", i + 1))
        .collect();
    preds.extend((1..=relations).map(|i| format!("R{i}.a < :v{i}")));
    format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
}

fn chain_catalog(relations: usize, seed: u64) -> Catalog {
    make_chain_catalog(&SyntheticSpec::paper(relations, seed), SystemConfig::paper_1994())
}

/// Ground truth: the same statement executed alone through the
/// single-query pipeline, against a fresh replica of the same data.
fn sequential(catalog: &Catalog, db: &StoredDatabase, sql: &str, binds: &[(&str, i64)]) -> ExecSummary {
    let query = parse_query(sql, catalog).unwrap();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .unwrap()
        .plan;
    let bindings = query.bindings(binds).unwrap();
    execute(&plan, db, catalog, &env, &bindings)
}

fn sequential_rows(catalog: &Catalog, db: &StoredDatabase, sql: &str, binds: &[(&str, i64)]) -> u64 {
    sequential(catalog, db, sql, binds).rows
}

const SEED: u64 = 23;

fn service(workers: usize, relations: usize) -> QueryService {
    QueryService::new(
        chain_catalog(relations, SEED),
        ServiceConfig {
            workers,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Concurrent sessions over one prepared statement: every session's
    /// row count equals the sequential single-query answer for its
    /// bindings, whatever worker ran it and whatever was cached.
    #[test]
    fn concurrent_sessions_match_sequential_execution(
        values in proptest::collection::vec((0i64..1100, 0i64..1100), 4..10),
    ) {
        let relations = 2;
        let catalog = chain_catalog(relations, SEED);
        let db = StoredDatabase::generate(&catalog, SEED);
        let sql = chain_sql(relations);
        let svc = service(4, relations);

        let requests: Vec<Request> = values
            .iter()
            .map(|&(x, y)| Request::new(&sql, &[("v1", x), ("v2", y)]))
            .collect();
        let results = svc.run_batch(requests);

        for (&(x, y), result) in values.iter().zip(&results) {
            let session = result.as_ref().expect("fault-free session");
            let truth = sequential_rows(&catalog, &db, &sql, &[("v1", x), ("v2", y)]);
            prop_assert_eq!(
                session.summary.rows, truth,
                "bindings ({}, {}) diverged from sequential execution", x, y
            );
            prop_assert_eq!(session.summary.fallbacks, 0);
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.completed, values.len() as u64);
        prop_assert_eq!(stats.failed, 0);
    }

    /// With storage faults injected into some sessions, every session
    /// still either matches the sequential answer (clean, or recovered
    /// via fallback) or fails with the injected storage class — and the
    /// fault never contaminates other sessions in the same batch.
    #[test]
    fn faulted_sessions_fail_clean_or_match_truth(
        v in 0i64..1100,
        nth in 1u64..30,
        faulted_mask in 0u8..15,
    ) {
        let relations = 2;
        let catalog = chain_catalog(relations, SEED);
        let db = StoredDatabase::generate(&catalog, SEED);
        let sql = chain_sql(relations);
        let svc = service(2, relations);
        let binds: Vec<(&str, i64)> = vec![("v1", v), ("v2", 600)];
        let truth = sequential_rows(&catalog, &db, &sql, &binds);

        let requests: Vec<Request> = (0..4u8)
            .map(|i| {
                let mut r = Request::new(&sql, &binds);
                if faulted_mask & (1 << i) != 0 {
                    r.fault_plan = Some(FaultPlan::nth_read(nth));
                }
                r
            })
            .collect();
        let faulted: Vec<bool> = (0..4u8).map(|i| faulted_mask & (1 << i) != 0).collect();

        for (result, injected) in svc.run_batch(requests).into_iter().zip(faulted) {
            match result {
                Ok(session) => prop_assert_eq!(session.summary.rows, truth),
                Err(ServiceError::Exec(e)) => {
                    prop_assert!(injected, "clean session failed: {}", e);
                    prop_assert!(
                        matches!(e, ExecError::Storage(_)),
                        "only storage faults were injected, got {:?}", e
                    );
                }
                Err(e) => prop_assert!(false, "unexpected service error: {}", e),
            }
        }
    }
}

/// A cached resolved plan that hits a storage fault is retried through
/// the full dynamic plan: the session recovers, reports the degradation
/// as a fallback, and the memoized decision is dropped.
#[test]
fn cached_plan_fault_retries_through_full_arbitration() {
    let relations = 2;
    let catalog = chain_catalog(relations, SEED);
    let db = StoredDatabase::generate(&catalog, SEED);
    let sql = chain_sql(relations);
    let svc = service(1, relations);
    let binds: Vec<(&str, i64)> = vec![("v1", 500), ("v2", 500)];
    let truth = sequential_rows(&catalog, &db, &sql, &binds);

    // First execution caches the statement and the region's decision.
    let clean = svc.execute(Request::new(&sql, &binds)).unwrap();
    assert_eq!(clean.summary.rows, truth);

    // Second execution replays the cached plan into a faulted first read;
    // the fault consumes its ordinal during the failed attempt, so the
    // full-arbitration retry runs clean.
    let mut faulted = Request::new(&sql, &binds);
    faulted.fault_plan = Some(FaultPlan::nth_read(1));
    let recovered = svc.execute(faulted).unwrap();
    assert_eq!(recovered.summary.rows, truth, "retry must produce the correct rows");
    assert!(recovered.summary.fallbacks >= 1, "degradation must be visible as a fallback");
    assert_eq!(recovered.summary.plan_cache.decision_hit, Some(true), "the *cached* path failed");

    let stats = svc.stats();
    assert_eq!(stats.cached_plan_retries, 1);
    assert_eq!(stats.failed, 0);
}

/// Skewed data against uniform estimates: the first execution's observed
/// cardinality leaves the estimate interval, invalidating the statement's
/// decision cache; the re-arbitration pins the observation so a stable
/// workload does not thrash.
#[test]
fn feedback_invalidates_and_then_stabilizes() {
    let svc = QueryService::new(
        chain_catalog(1, SEED),
        ServiceConfig {
            workers: 1,
            data_seed: SEED,
            skew: Some(1.3),
            feedback_tolerance: 2.0,
            ..ServiceConfig::default()
        },
    );
    // Constant predicate: the optimizer estimates ~1% selectivity from
    // the uniform-domain model; Zipf-distributed values concentrate far
    // more mass there.
    let request = Request::new("SELECT * FROM R1 WHERE R1.a < 12", &[]);

    let first = svc.execute(request.clone()).unwrap();
    let after_first = svc.stats();
    assert_eq!(
        after_first.feedback_invalidations, 1,
        "observed {} rows must breach the uniform estimate",
        first.summary.rows
    );

    // The invalidation cleared the decision cache: the next execution
    // re-arbitrates (decision miss) against the pinned observation...
    let second = svc.execute(request.clone()).unwrap();
    assert_eq!(second.summary.plan_cache.statement_hit, Some(true));
    assert_eq!(second.summary.plan_cache.decision_hit, Some(false));
    assert_eq!(second.summary.rows, first.summary.rows);
    // ...and the same observation is now inside the pinned interval: no
    // second invalidation, and the refreshed decision is replayed.
    let third = svc.execute(request).unwrap();
    assert_eq!(third.summary.plan_cache.decision_hit, Some(true));
    assert_eq!(svc.stats().feedback_invalidations, 1, "stable workload must not thrash");
}

/// The registry is LRU-bounded: statements past capacity are evicted and
/// re-prepared on their next use.
#[test]
fn registry_eviction_reprepares_cold_statements() {
    let svc = QueryService::new(
        chain_catalog(1, SEED),
        ServiceConfig {
            workers: 1,
            registry_capacity: 2,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    );
    let a = "SELECT * FROM R1 WHERE R1.a < :x";
    let b = "SELECT * FROM R1 WHERE R1.a > :x";
    let c = "SELECT * FROM R1 WHERE R1.a = :x";
    svc.execute(Request::new(a, &[("x", 100)])).unwrap();
    svc.execute(Request::new(b, &[("x", 100)])).unwrap();
    svc.execute(Request::new(c, &[("x", 100)])).unwrap(); // evicts `a`
    let again = svc.execute(Request::new(a, &[("x", 100)])).unwrap();
    assert_eq!(again.summary.plan_cache.statement_hit, Some(false), "evicted: re-prepared");
    assert!(svc.stats().registry.evictions >= 1);
}

/// Admission control: a session whose grant can never fit fails fast;
/// one that merely has to wait behind a full pool times out at the queue
/// deadline without disturbing the session holding the pool.
#[test]
fn admission_rejects_oversized_and_times_out_queued_grants() {
    let page = SystemConfig::paper_1994().page_size as u64;
    let svc = QueryService::new(
        chain_catalog(2, SEED),
        ServiceConfig {
            workers: 2,
            global_memory_bytes: 64 * page,
            queue_timeout_ms: 150,
            io_latency_micros: 2_000,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    );
    let sql = chain_sql(2);

    let mut oversized = Request::new(&sql, &[("v1", 500), ("v2", 500)]);
    oversized.memory_pages = Some(65.0);
    assert!(matches!(
        svc.execute(oversized).unwrap_err(),
        ServiceError::GrantTooLarge { .. }
    ));

    // Two sessions each demanding the whole pool: the slower one queues
    // behind the first (I/O pacing keeps it running) and times out.
    let mut full = Request::new(&sql, &[("v1", 900), ("v2", 900)]);
    full.memory_pages = Some(64.0);
    let results = svc.run_batch(vec![full.clone(), full]);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let timed_out = results
        .iter()
        .filter(|r| matches!(r, Err(ServiceError::AdmissionTimeout { .. })))
        .count();
    assert_eq!((ok, timed_out), (1, 1), "results: {results:?}");
}

/// Cooperative cancellation through the session handle.
#[test]
fn cancelled_session_reports_cancellation() {
    let svc = QueryService::new(
        chain_catalog(2, SEED),
        ServiceConfig {
            workers: 1,
            io_latency_micros: 3_000,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    );
    let handle = svc.submit(Request::new(&chain_sql(2), &[("v1", 1000), ("v2", 1000)]));
    handle.cancel();
    match handle.wait() {
        Err(ServiceError::Exec(ExecError::Cancelled)) => {}
        other => panic!("expected cancellation, got {other:?}"),
    }
}

/// Per-session counters never bleed across concurrent sessions: each
/// session's CPU and I/O accounting equals its own sequential run.
#[test]
fn concurrent_accounting_matches_sequential_per_session() {
    let relations = 2;
    let catalog = chain_catalog(relations, SEED);
    let db = StoredDatabase::generate(&catalog, SEED);
    // Two statements of very different sizes, run concurrently: if
    // counters bled between sessions, the small one would absorb the big
    // one's work.
    let big = chain_sql(relations);
    let small = "SELECT * FROM R1 WHERE R1.a < :v1";
    let truth_big = sequential(&catalog, &db, &big, &[("v1", 900), ("v2", 900)]);
    let truth_small = sequential(&catalog, &db, small, &[("v1", 40)]);

    let svc = service(2, relations);
    let results = svc.run_batch(vec![
        Request::new(&big, &[("v1", 900), ("v2", 900)]),
        Request::new(small, &[("v1", 40)]),
    ]);
    let got_big = results[0].as_ref().unwrap();
    let got_small = results[1].as_ref().unwrap();

    assert_eq!(got_big.summary.rows, truth_big.rows);
    assert_eq!(got_big.summary.cpu, truth_big.cpu);
    assert_eq!(got_big.summary.io, truth_big.io);
    assert_eq!(got_small.summary.rows, truth_small.rows);
    assert_eq!(got_small.summary.cpu, truth_small.cpu);
    assert_eq!(got_small.summary.io, truth_small.io);

    // Service totals are exactly the sum of the per-session summaries.
    let stats = svc.stats();
    assert_eq!(stats.totals.rows, truth_big.rows + truth_small.rows);
    assert_eq!(stats.totals.io_pages, truth_big.io.total() + truth_small.io.total());
}

/// The queue deadline covers the queue: the wait for a replica counts
/// against `queue_timeout_ms`, and counts from the moment a session
/// starts waiting — a batch request is not waiting until a batch thread
/// has drawn it.
#[test]
fn queue_deadline_covers_the_wait_for_a_replica() {
    let timeout_ms = 20;
    let svc = QueryService::new(
        chain_catalog(2, SEED),
        ServiceConfig {
            workers: 1,
            queue_timeout_ms: timeout_ms,
            io_latency_micros: 1_000,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    );
    // A full scan: some 330 paced page reads, well over 0.1 s.
    let slow = Request::new("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 1100)]);

    // Two sessions, one replica: whichever draws it holds it (paced I/O)
    // far longer than the other may wait.
    let handles = [svc.submit(slow.clone()), svc.submit(slow.clone())];
    let results = handles.map(|h| h.wait());
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let timed_out = results
        .iter()
        .filter(|r| matches!(r, Err(ServiceError::AdmissionTimeout { .. })))
        .count();
    assert_eq!((ok, timed_out), (1, 1), "results: {results:?}");
    assert_eq!(svc.metrics().get(Metric::RefusedAdmissionTimeout), 1);

    // The same sessions as a batch run one after the other on the one
    // replica: the last is drawn long after the call began, and is fine.
    let started = std::time::Instant::now();
    let results = svc.run_batch(vec![slow.clone(), slow.clone(), slow]);
    assert!(started.elapsed().as_millis() as u64 > 2 * timeout_ms);
    for result in &results {
        let session = result.as_ref().expect("a drawn request never waited");
        assert!(session.queue_wait.as_millis() as u64 <= timeout_ms);
    }
}

/// The concurrency lattice in one place: `execute` from many threads, a
/// `run_batch` and a cancelled `submit`, all at once over two replicas.
/// Whatever the interleaving, no session runs on a replica another
/// session is running on — its I/O delta would absorb the other's pages.
#[test]
fn every_entry_point_at_once_keeps_sessions_on_private_replicas() {
    let relations = 2;
    let catalog = chain_catalog(relations, SEED);
    let db = StoredDatabase::generate(&catalog, SEED);
    let big = (chain_sql(relations), vec![("v1", 900), ("v2", 900)]);
    let small = ("SELECT * FROM R1 WHERE R1.a < :v1".to_string(), vec![("v1", 40)]);
    let truth = [&big, &small].map(|(sql, binds)| sequential(&catalog, &db, sql, binds));
    // Session `i` of any caller runs statement `i % 2`.
    let request = |i: usize| {
        let (sql, binds) = [&big, &small][i % 2];
        Request::new(sql, binds)
    };

    let svc = service(2, relations);
    let (executed, batch, cancelled) = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| (0..40).map(|i| svc.execute(request(i))).collect::<Vec<_>>()))
            .collect();
        let batch = scope.spawn(|| svc.run_batch((0..20).map(request).collect()));
        let handle = svc.submit(Request::new(&big.0, &[("v1", 1100), ("v2", 1100)]));
        handle.cancel();
        let executed: Vec<_> = callers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        (executed, batch.join().unwrap(), handle.wait())
    });

    assert!(
        matches!(cancelled, Err(ServiceError::Exec(ExecError::Cancelled))),
        "expected cancellation, got {cancelled:?}"
    );
    assert_eq!((executed.len(), batch.len()), (320, 20));
    let (mut rows, mut io_pages) = (0, 0);
    for (i, result) in (0..40).cycle().zip(&executed).chain((0..20).zip(&batch)) {
        let session = result.as_ref().expect("fault-free session");
        let truth = &truth[i % 2];
        assert!(session.worker < 2, "replica {} of 2", session.worker);
        assert_eq!(session.summary.rows, truth.rows);
        assert_eq!(session.summary.cpu, truth.cpu);
        assert_eq!(session.summary.io, truth.io);
        rows += session.summary.rows;
        io_pages += session.summary.io.total();
    }

    // Service totals are exactly the sum of the per-session summaries,
    // and two slots never became three replicas.
    let stats = svc.stats();
    assert_eq!((stats.completed, stats.failed), (340, 1));
    assert_eq!(stats.totals.rows, rows);
    assert_eq!(stats.totals.io_pages, io_pages);
    let replicas = svc.metrics().get(Metric::ReplicasResident);
    assert!((1..=2).contains(&replicas), "{replicas} replicas for 2 slots");
}
