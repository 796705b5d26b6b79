//! Prepared-query service integration tests.
//!
//! The load-bearing invariant: a session executed **through the service**
//! — concurrent workers, cached plans, memoized decisions, admission
//! control — produces exactly the rows and pages the same statement
//! produces when executed alone through the single-query pipeline, and
//! predicts the cost the start-up decision predicts at its binding.
//! Caching and concurrency are allowed to change *how fast* an answer
//! arrives, never *which* answer.

use dqep::catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep::cost::{Bindings, Environment, ParamSpace};
use dqep::executor::{ExecError, ExecSummary, ReoptConfig};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup;
use dqep::service::{Metric, QueryService, Request, ServiceConfig, ServiceError};
use dqep::sql::{parse_query, Query};
use dqep::storage::{install_histograms, FaultPlan, IoStats, StoredDatabase, ValueDistribution};
use proptest::prelude::*;

#[path = "common/exec.rs"]
mod exec;
use exec::execute;

#[path = "common/workload.rs"]
#[allow(dead_code)]
mod workload;
use workload::{build_sql, workload_strategy, Shape};

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

/// `bindings` as the named binds of a request for `query`.
fn request(sql: &str, query: &Query, bindings: &Bindings) -> Request {
    let binds = query
        .host_var_names()
        .into_iter()
        .filter_map(|name| Some((name.to_string(), bindings.value(query.host_var(name)?)?)))
        .collect();
    Request { sql: sql.to_string(), binds, ..Request::default() }
}

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

/// Runs `sql` once at each point — selectivities in the statement's
/// parameter space, divided by its relation count so that no join's
/// result grows past what a test should execute, and an optional memory
/// grant — each time as a new text, made new by a true constant predicate
/// on `{first}.a` of its own, as ad-hoc requests are. So every session
/// optimizes at run time. Without a memory grant a session decides as the
/// dynamic plan compiled at the expected grant decides at its binding: the
/// same predicted cost bit for bit, the same rows and the same pages read
/// and written. Under a grant run-time optimization knows the grant the
/// dynamic plan was compiled without, so it may only find a cheaper plan
/// (`d_i ≤ g_i`), never a costlier one; its rows stay the lone run's. No
/// dynamic plan is compiled.
fn first_visits_decide_as_the_dynamic_plan(
    mut catalog: Catalog,
    sql: &str,
    first: &str,
    histograms: bool,
    points: &[(Vec<f64>, Option<f64>)],
) {
    let skew = histograms.then_some(1.1);
    let distribution =
        skew.map_or(ValueDistribution::Uniform, |exponent| ValueDistribution::Zipf { exponent });
    let db = StoredDatabase::generate_with(&catalog, SEED, distribution);
    if histograms {
        install_histograms(&db, &mut catalog, 16).expect("histograms");
    }
    let svc = QueryService::new(
        catalog.clone(),
        ServiceConfig { workers: 1, data_seed: SEED, skew, ..ServiceConfig::default() },
    );
    let env = Environment::dynamic_compile_time(&catalog.config);
    let relations = catalog.relations().len() as f64;
    let pages = |io: IoStats| (io.seq_reads + io.random_reads, io.writes);
    for (i, (point, grant)) in points.iter().enumerate() {
        let text = format!("{sql} AND {first}.a >= -{i}");
        let query = parse_query(&text, &catalog).unwrap();
        let plan = Optimizer::new(&catalog, &env)
            .optimize_with_props(&query.expr, query.required_props())
            .unwrap()
            .plan;
        let selectivities = point.iter().map(|s| s / relations);
        let mut bindings = ParamSpace::new(&query.expr, &catalog).bindings(&catalog, selectivities);
        let mut req = request(&text, &query, &bindings);
        if let Some(pages) = *grant {
            bindings = bindings.with_memory(pages);
            req.memory_pages = Some(pages);
        }
        let session = svc.execute(req).expect("fault-free session");
        let cache = session.summary.plan_cache;
        assert_eq!((cache.statement_hit, cache.decision_hit), (Some(false), Some(false)));
        let lone = execute(&plan, &db, &catalog, &env, &bindings);
        assert_eq!(session.summary.rows, lone.rows, "{text} at {bindings:?}");
        let decided = evaluate_startup(&plan, &catalog, &env, &bindings).predicted_run_seconds;
        let predicted = session.predicted_seconds.expect("a decision in force");
        if grant.is_none() {
            assert_eq!(predicted.to_bits(), decided.to_bits(), "{text} at {bindings:?}");
            assert_eq!(pages(session.summary.io), pages(lone.io), "{text} at {bindings:?}");
        } else {
            assert!(
                predicted <= decided * (1.0 + 1e-9),
                "{text} at {bindings:?}: run-time optimization predicts {predicted}, \
                 the dynamic plan {decided}"
            );
        }
    }
    let stats = svc.stats();
    assert_eq!((stats.completed, stats.failed), (points.len() as u64, 0));
    assert_eq!(stats.dynamic_plan_compiles, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Concurrent sessions over one prepared statement: every session's
    /// rows and pages equal the statement's lone execution at its binding,
    /// and the cost it predicts is the start-up decision's at that very
    /// binding, bit for bit — whatever worker ran it and whatever was
    /// cached. The statement is the paper's 2-chain or a random chain,
    /// on uniform data or on skewed data whose histograms the catalog
    /// holds. Bindings come in pairs inside one 1/16-selectivity cell (the
    /// grid a decision was once replayed across), then the first of each
    /// pair again. The service runs at its default configuration: nothing
    /// one session observes changes another session's decision.
    #[test]
    fn concurrent_sessions_match_sequential_execution(
        random in prop_oneof![Just(None), workload_strategy(Shape::PARITY).prop_map(Some)],
        histograms in any::<bool>(),
        pairs in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0.1f64..0.9, 0.1f64..0.9), 3),
            4..10,
        ),
    ) {
        let (mut catalog, sql) = match &random {
            Some(w) => {
                let (catalog, sql, _) = build_sql(w, 0.5);
                (catalog, sql)
            }
            None => (chain_catalog(2, SEED), chain_sql(2)),
        };
        let skew = histograms.then_some(1.1);
        let distribution =
            skew.map_or(ValueDistribution::Uniform, |exponent| ValueDistribution::Zipf { exponent });
        let db = StoredDatabase::generate_with(&catalog, SEED, distribution);
        if histograms {
            install_histograms(&db, &mut catalog, 16).expect("histograms");
        }
        let query = parse_query(&sql, &catalog).unwrap();
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env)
            .optimize_with_props(&query.expr, query.required_props())
            .unwrap()
            .plan;
        let space = ParamSpace::new(&query.expr, &catalog);
        let at = |pair: &Vec<(u32, f64, f64)>, second: bool| {
            let coordinate = |&(cell, a, b): &(u32, f64, f64)| {
                (f64::from(cell) + if second { b } else { a }) / 16.0
            };
            space.bindings(&catalog, pair.iter().map(coordinate))
        };
        let firsts = pairs.iter().map(|pair| at(pair, false));
        let seconds = pairs.iter().map(|pair| at(pair, true));
        let bindings: Vec<Bindings> = firsts.clone().chain(seconds).chain(firsts).collect();

        let svc = QueryService::new(
            catalog.clone(),
            ServiceConfig {
                workers: 4,
                data_seed: SEED,
                skew,
                ..ServiceConfig::default()
            },
        );
        let results = svc.run_batch(bindings.iter().map(|b| request(&sql, &query, b)).collect());

        for (b, result) in bindings.iter().zip(&results) {
            let session = result.as_ref().expect("fault-free session");
            let lone = execute(&plan, &db, &catalog, &env, b);
            let decided = evaluate_startup(&plan, &catalog, &env, b).predicted_run_seconds;
            prop_assert_eq!(session.summary.rows, lone.rows, "{} at {:?}", sql, b.values);
            // Pages read and written; whether a session's first read is
            // sequential depends on what its replica's disk read last.
            let pages = |io: IoStats| (io.seq_reads + io.random_reads, io.writes);
            prop_assert_eq!(pages(session.summary.io), pages(lone.io), "{} at {:?}", sql, b.values);
            prop_assert_eq!(
                session.predicted_seconds.map(f64::to_bits),
                Some(decided.to_bits()),
                "{} at {:?}: predicted {:?}, decided {}, decision hit {:?}",
                sql, b.values, session.predicted_seconds, decided, session.summary.plan_cache.decision_hit
            );
            prop_assert_eq!(session.summary.fallbacks, 0);
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.completed, bindings.len() as u64);
        prop_assert_eq!(stats.failed, 0);
    }

    /// Every binding a first visit: a session decides as the statement's
    /// dynamic plan would (`first_visits_decide_as_the_dynamic_plan`), for a
    /// random chain on uniform data or on skewed data whose histograms the
    /// catalog holds, and for paper chain query 2–5 on uniform data.
    #[test]
    fn a_first_visit_decides_as_the_dynamic_plan_would(
        w in workload_strategy(Shape::PARITY),
        histograms in any::<bool>(),
        paper in 2usize..=5,
        points in proptest::collection::vec(
            (
                proptest::collection::vec(0.02f64..0.98, 10),
                prop_oneof![Just(None), (16.0f64..112.0).prop_map(Some)],
            ),
            3..6,
        ),
    ) {
        let (catalog, sql, _) = build_sql(&w, 0.5);
        first_visits_decide_as_the_dynamic_plan(catalog, &sql, "t0", histograms, &points);
        // Skew on every join attribute of a long chain grows its result
        // past what a test should execute: the paper's chains run uniform.
        let relations = [1, 2, 4, 6, 10][paper - 1];
        let catalog = chain_catalog(relations, 21);
        let sql = chain_sql(relations);
        first_visits_decide_as_the_dynamic_plan(catalog, &sql, "R1", false, &points);
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
/// the full dynamic plan: the session recovers and reports the
/// degradation as a fallback. The memoized decision depends on the binding
/// alone, so it stays, and the next clean session replays it.
#[test]
fn cached_plan_fault_retries_through_full_arbitration() {
    let relations = 2;
    let catalog = chain_catalog(relations, SEED);
    let db = StoredDatabase::generate(&catalog, SEED);
    let sql = chain_sql(relations);
    let svc = service(1, relations);
    let binds: Vec<(&str, i64)> = vec![("v1", 500), ("v2", 500)];
    let truth = sequential_rows(&catalog, &db, &sql, &binds);

    // First execution caches the statement and the binding's decision.
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

    let replayed = svc.execute(Request::new(&sql, &binds)).unwrap();
    assert_eq!(replayed.summary.rows, truth);
    assert_eq!(replayed.summary.plan_cache.decision_hit, Some(true), "the decision stays");
    assert_eq!(replayed.summary.fallbacks, 0);

    let stats = svc.stats();
    assert_eq!(stats.cached_plan_retries, 1);
    assert_eq!(stats.failed, 0);
}

/// A statement's dynamic plan is compiled once, when it is needed: a
/// first visit optimizes at run time, the same binding again replays that
/// decision, and the first other binding compiles the dynamic plan — which
/// every later binding decides over, the first binding's memo kept. A
/// re-optimizing run needs the dynamic plan on its first visit; a first
/// visit whose plan fails retryably retries through it.
#[test]
fn a_dynamic_plan_is_compiled_at_the_second_binding() {
    let relations = 2;
    let catalog = chain_catalog(relations, SEED);
    let db = StoredDatabase::generate(&catalog, SEED);
    let sql = chain_sql(relations);
    let svc = service(1, relations);
    let at = |v1: i64, v2: i64| svc.execute(Request::new(&sql, &[("v1", v1), ("v2", v2)])).unwrap();
    let visits = [
        ((500, 500), (false, false), 0),
        ((500, 500), (true, true), 0),
        ((300, 700), (true, false), 1),
        ((900, 100), (true, false), 1),
        ((300, 700), (true, true), 1),
        ((500, 500), (true, true), 1),
    ];
    for ((v1, v2), (statement_hit, decision_hit), compiles) in visits {
        let session = at(v1, v2);
        let cache = session.summary.plan_cache;
        assert_eq!(
            (cache.statement_hit, cache.decision_hit),
            (Some(statement_hit), Some(decision_hit)),
            "({v1}, {v2})"
        );
        assert_eq!(svc.stats().dynamic_plan_compiles, compiles, "({v1}, {v2})");
        let truth = sequential_rows(&catalog, &db, &sql, &[("v1", v1), ("v2", v2)]);
        assert_eq!(session.summary.rows, truth, "({v1}, {v2})");
    }
    assert_eq!(svc.stats().registry.resident, 1, "compiled in place");

    let reopt = QueryService::new(
        chain_catalog(relations, SEED),
        ServiceConfig {
            workers: 1,
            data_seed: SEED,
            reopt: Some(ReoptConfig::default()),
            ..ServiceConfig::default()
        },
    );
    let first = reopt.execute(Request::new(&sql, &[("v1", 500), ("v2", 500)])).unwrap();
    assert_eq!(first.summary.plan_cache.statement_hit, Some(false));
    assert_eq!(reopt.stats().dynamic_plan_compiles, 1, "a re-optimizing run needs it");
    reopt.execute(Request::new(&sql, &[("v1", 300), ("v2", 700)])).unwrap();
    assert_eq!(reopt.stats().dynamic_plan_compiles, 1);

    let retried = service(1, relations);
    let binds = [("v1", 500), ("v2", 500)];
    let mut faulted = Request::new(&sql, &binds);
    faulted.fault_plan = Some(FaultPlan::nth_read(1));
    let recovered = retried.execute(faulted).unwrap();
    assert_eq!(recovered.summary.plan_cache.decision_hit, Some(false));
    assert_eq!(recovered.summary.fallbacks, 1);
    assert_eq!(recovered.summary.rows, sequential_rows(&catalog, &db, &sql, &binds));
    let stats = retried.stats();
    assert_eq!((stats.cached_plan_retries, stats.dynamic_plan_compiles), (1, 1));
}

/// Sessions racing a statement's second bindings compile its dynamic plan
/// exactly once, in place. Per trial, a new text of the 6-chain (made new
/// by a true constant predicate on `R1.a`) is visited at one binding, then
/// at four other bindings at once through `run_batch` on four workers:
/// the one statement compiles one dynamic plan, stays the one resident
/// statement of its text, and holds every decision its sessions made —
/// each of the five bindings replays as a memo hit with a lone run's rows.
#[test]
fn racing_second_bindings_compile_one_dynamic_plan() {
    const TRIALS: usize = 200;
    let relations = 6;
    let catalog = chain_catalog(relations, SEED);
    let db = StoredDatabase::generate(&catalog, SEED);
    let sql = chain_sql(relations);
    let svc = QueryService::new(
        chain_catalog(relations, SEED),
        ServiceConfig {
            workers: 4,
            registry_capacity: TRIALS,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    );
    let bindings: [[i64; 6]; 5] = [
        [300, 300, 300, 300, 300, 300],
        [100, 500, 100, 500, 100, 500],
        [500, 100, 500, 100, 500, 100],
        [200, 200, 400, 400, 600, 600],
        [600, 600, 400, 400, 200, 200],
    ];
    let names: Vec<String> = (1..=relations).map(|i| format!("v{i}")).collect();
    let binds = |values: &[i64; 6]| -> Vec<(&str, i64)> {
        names.iter().map(String::as_str).zip(values.iter().copied()).collect()
    };
    let lone: Vec<u64> =
        bindings.iter().map(|b| sequential_rows(&catalog, &db, &sql, &binds(b))).collect();

    let mut other_than_once = Vec::new();
    for trial in 0..TRIALS {
        let text = format!("{sql} AND R1.a >= -{trial}");
        let compiled_before = svc.stats().dynamic_plan_compiles;
        let first = svc.execute(Request::new(&text, &binds(&bindings[0]))).unwrap();
        assert_eq!(first.summary.plan_cache.statement_hit, Some(false), "trial {trial}");
        let racing = bindings[1..].iter().map(|b| Request::new(&text, &binds(b))).collect();
        for (session, rows) in svc.run_batch(racing).into_iter().zip(&lone[1..]) {
            let session = session.unwrap();
            assert_eq!(session.summary.plan_cache.decision_hit, Some(false), "trial {trial}");
            assert_eq!(session.summary.rows, *rows, "trial {trial}");
        }
        let compiles = svc.stats().dynamic_plan_compiles - compiled_before;
        if compiles != 1 {
            other_than_once.push((trial, compiles));
        }
        assert_eq!(svc.stats().registry.resident, trial + 1, "trial {trial}");
        for (b, rows) in bindings.iter().zip(&lone) {
            let replay = svc.execute(Request::new(&text, &binds(b))).unwrap();
            assert_eq!(replay.summary.plan_cache.decision_hit, Some(true), "trial {trial} at {b:?}");
            assert_eq!(replay.summary.rows, *rows, "trial {trial} at {b:?}");
        }
    }
    assert!(
        other_than_once.is_empty(),
        "{} of {TRIALS} trials compiled other than one dynamic plan (trial, compiles): \
         {other_than_once:?}",
        other_than_once.len()
    );
    let stats = svc.stats();
    assert_eq!((stats.dynamic_plan_compiles, stats.registry.misses), (TRIALS as u64, TRIALS as u64));
    assert_eq!(stats.failed, 0);
}

/// A request on a new text that fails to bind — an unknown host variable,
/// a memory grant that is not a number — is refused before its statement
/// is optimized or entered, so it evicts no live statement.
#[test]
fn a_refused_request_on_a_new_text_evicts_nothing() {
    let svc = QueryService::new(
        chain_catalog(2, SEED),
        ServiceConfig {
            workers: 1,
            registry_capacity: 1,
            data_seed: SEED,
            ..ServiceConfig::default()
        },
    );
    let a = chain_sql(2);
    let b = "SELECT * FROM R1 WHERE R1.a < :x";
    svc.execute(Request::new(&a, &[("v1", 500), ("v2", 500)])).unwrap();
    let unknown = svc.execute(Request::new(b, &[("nope", 10)]));
    assert!(matches!(unknown, Err(ServiceError::Bind(_))), "{unknown:?}");
    let mut nan = Request::new(b, &[("x", 10)]);
    nan.memory_pages = Some(f64::NAN);
    let nan = svc.execute(nan);
    assert!(matches!(nan, Err(ServiceError::Bind(_))), "{nan:?}");
    let again = svc.execute(Request::new(&a, &[("v1", 500), ("v2", 500)])).unwrap();
    assert_eq!(again.summary.plan_cache.statement_hit, Some(true), "{:?}", svc.stats().registry);
    assert_eq!(svc.stats().registry.evictions, 0);
}

/// A session reports the predicted cost of the decision in force at its
/// own binding: a miss the fresh start-up decision's, a hit — which
/// replays the decision memoized at this very binding — the same bits.
#[test]
fn a_session_predicts_only_the_decision_it_made() {
    let relations = 2;
    let catalog = chain_catalog(relations, SEED);
    let sql = chain_sql(relations);
    let svc = service(1, relations);
    let query = parse_query(&sql, &catalog).unwrap();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .unwrap()
        .plan;
    let decided = |binds: &[(&str, i64)]| {
        let fresh = evaluate_startup(&plan, &catalog, &env, &query.bindings(binds).unwrap());
        Some(fresh.predicted_run_seconds.to_bits())
    };

    let binds: Vec<(&str, i64)> = vec![("v1", 500), ("v2", 500)];
    let miss = svc.execute(Request::new(&sql, &binds)).unwrap();
    assert_eq!(miss.summary.plan_cache.decision_hit, Some(false));
    assert_eq!(miss.predicted_seconds.map(f64::to_bits), decided(&binds));

    let hit = svc.execute(Request::new(&sql, &binds)).unwrap();
    assert_eq!(hit.summary.plan_cache.decision_hit, Some(true));
    assert_eq!(hit.predicted_seconds.map(f64::to_bits), decided(&binds));

    let nearby: Vec<(&str, i64)> = vec![("v1", 510), ("v2", 505)];
    let other = svc.execute(Request::new(&sql, &nearby)).unwrap();
    assert_eq!(other.summary.plan_cache.decision_hit, Some(false), "another binding decides afresh");
    assert_eq!(other.predicted_seconds.map(f64::to_bits), decided(&nearby));
}

/// A memory grant that is not a finite, positive number of pages fails
/// its session with a binding error before admission, and the service —
/// one worker, one replica — keeps answering.
#[test]
fn a_refused_memory_grant_fails_its_session_not_the_service() {
    let svc = service(1, 2);
    let sql = chain_sql(2);
    let binds = [("v1", 500), ("v2", 500)];
    for pages in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
        let mut refused = Request::new(&sql, &binds);
        refused.memory_pages = Some(pages);
        let answer = svc.submit(refused).wait();
        assert!(matches!(answer, Err(ServiceError::Bind(_))), "{pages} pages: {answer:?}");
        let next = svc.submit(Request::new(&sql, &binds)).wait();
        assert!(next.is_ok(), "after {pages} pages: {next:?}");
    }
    let stats = svc.stats();
    assert_eq!((stats.completed, stats.failed), (4, 4));
}

/// Skewed data against uniform estimates: the statement's observed
/// cardinality lies far outside its estimate interval, and still the
/// statement decides once. The first execution misses, every later one
/// replays that decision, reads the first one's pages and predicts the
/// start-up decision's cost at the binding, bit for bit.
#[test]
fn a_skewed_constant_statement_decides_once() {
    let catalog = chain_catalog(1, SEED);
    let svc = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            workers: 1,
            data_seed: SEED,
            skew: Some(1.3),
            ..ServiceConfig::default()
        },
    );
    // Constant predicate: the optimizer estimates ~1% selectivity from
    // the uniform-domain model; Zipf-distributed values concentrate far
    // more mass there.
    let sql = "SELECT * FROM R1 WHERE R1.a < 12";
    let query = parse_query(sql, &catalog).unwrap();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .unwrap()
        .plan;
    let decided = evaluate_startup(&plan, &catalog, &env, &query.bindings(&[]).unwrap());
    let estimate = plan.root_node().stats.card;

    let pages = |io: IoStats| (io.seq_reads + io.random_reads, io.writes);
    let first = svc.execute(Request::new(sql, &[])).unwrap();
    assert_eq!(first.summary.plan_cache.decision_hit, Some(false));
    assert!(
        first.summary.rows as f64 > 2.0 * estimate.hi(),
        "{} rows must lie far above the estimate {estimate:?}",
        first.summary.rows
    );
    assert_eq!(
        first.predicted_seconds.map(f64::to_bits),
        Some(decided.predicted_run_seconds.to_bits())
    );
    for _ in 0..3 {
        let again = svc.execute(Request::new(sql, &[])).unwrap();
        assert_eq!(again.summary.plan_cache.statement_hit, Some(true));
        assert_eq!(again.summary.plan_cache.decision_hit, Some(true));
        assert_eq!(again.summary.rows, first.summary.rows);
        assert_eq!(pages(again.summary.io), pages(first.summary.io));
        assert_eq!(
            again.predicted_seconds.map(f64::to_bits),
            Some(decided.predicted_run_seconds.to_bits())
        );
    }
    let stats = svc.stats();
    assert_eq!((stats.decision_hits, stats.decision_misses), (3, 1));
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
