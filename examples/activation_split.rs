//! Where a prepared request's time goes, untraced.
//!
//! The paper bills an invocation `f + g_i`: activate the access module and
//! decide, then run the chosen plan. This program measures that bill for
//! the hot case — statement and decision caches hit, a dozen rows out —
//! twice over the same requests: through `QueryService::execute`, and as
//! the session's steps called one by one on this thread, each under its
//! own clock (a clock reading is about 25 ns; `run` is the plan, the rest
//! is activation). What `execute` costs beyond the steps is what
//! the service adds around the session: the replica checkout, the metrics
//! — and, while a worker thread ran the session, the hand-off.
//!
//! Run pinned, it is a hot loop on one thread:
//! `taskset -c 1 cargo run --release --example activation_split`
//! (`-- --quick` makes 20 passes instead of 2 000: the CI run, which puts
//! the `run` line of a prepared request on record per commit).

use std::sync::Arc;
use std::time::{Duration, Instant};

use dqep::catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{run, ExecContext, ResourceLimits, RootSink, SharedCounters};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup;
use dqep::service::{
    normalize_sql, region_key, CachedDecision, MemoryPool, PreparedRegistry, PreparedStatement,
    QueryService, Request, ServiceConfig,
};
use dqep::sql::parse_query;
use dqep::storage::StoredDatabase;

const SEED: u64 = 7;
const STEPS: [&str; 7] = [
    "prepare (normalize + registry)",
    "bind",
    "admission (memory grant)",
    "region key + decision",
    "context",
    "run",
    "give back (grant, bindings, ...)",
];

/// The shape of the benchmark's `prepared_hot`: chains of 2, 3 and 4
/// relations, six binding tuples each, selectivities spread over a range
/// and crossed so that a tuple never binds every relation wide.
fn requests(catalog: &Catalog) -> Vec<Request> {
    const TUPLES: usize = 6;
    let mut out = Vec::new();
    for (relations, widest) in [(2, 1.0), (3, 0.5), (4, 0.3)] {
        let from: Vec<String> = (1..=relations).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> =
            (1..relations).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
        preds.extend((1..=relations).map(|i| format!("R{i}.a < :v{i}")));
        let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
        for t in 0..TUPLES {
            let binds = (0..relations)
                .map(|i| {
                    let diagonal = if i % 2 == 0 { t + i } else { 2 * TUPLES - 1 - t + i };
                    let share = widest * ((diagonal % TUPLES) as f64 + 0.5) / TUPLES as f64;
                    // The benchmark's `bound_for`, rounding and all, not
                    // the parameter space's map: these are its requests.
                    let domain = catalog.relations()[i].attributes[0].domain_size;
                    (format!("v{}", i + 1), (share * domain).round() as i64)
                })
                .collect();
            out.push(Request { sql: sql.clone(), binds, ..Request::default() });
        }
    }
    out
}

fn main() {
    let passes = if std::env::args().any(|a| a == "--quick") { 20 } else { 2_000 };
    let catalog = make_chain_catalog(&SyntheticSpec::paper(4, SEED), SystemConfig::paper_1994());
    let config = ServiceConfig { workers: 1, data_seed: SEED, ..ServiceConfig::default() };
    let requests = requests(&catalog);

    // The two ways take turns, a pass each, so a host that changes speed
    // changes it for both. The first pass of each prepares and decides.
    let service = QueryService::new(catalog.clone(), config.clone());
    let db = StoredDatabase::generate(&catalog, SEED);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let registry = PreparedRegistry::new(config.registry_capacity);
    let pool = MemoryPool::new(config.global_memory_bytes);
    let (mut rows, mut through_service) = (0, Duration::ZERO);
    let mut spent = [Duration::ZERO; STEPS.len()];
    for pass in 0..=passes {
        // 1. Through the service. The caller's copy of a request is the
        // caller's: made off the clock.
        let copies = requests.clone();
        let started = Instant::now();
        for request in copies {
            rows += service.execute(request).expect("fault-free request").summary.rows;
        }
        through_service += started.elapsed();

        // 2. The session's steps, one by one, over a registry, a memory
        // pool and a replica of this loop's own.
        for request in &requests {
            let mut clock = Instant::now();
            let mut lap = |step: usize| {
                let now = Instant::now();
                spent[step] += now - std::mem::replace(&mut clock, now);
            };
            let normalized = normalize_sql(&request.sql);
            let stmt = registry.get(&normalized).unwrap_or_else(|| {
                let query = parse_query(&normalized, &catalog).expect("parses");
                let plan = Optimizer::new(&catalog, &env)
                    .optimize_with_props(&query.expr, query.required_props())
                    .expect("optimizes")
                    .plan;
                let stmt = PreparedStatement::new(normalized.clone(), query, plan);
                registry.insert(normalized, Arc::new(stmt))
            });
            lap(0);
            let binds: Vec<(&str, i64)> = request.binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let bindings = stmt.query.bindings(&binds).expect("binds");
            let memory_pages = env.memory.expected();
            let memory_bytes = (memory_pages * f64::from(catalog.config.page_size)) as u64;
            lap(1);
            let deadline = Instant::now() + Duration::from_millis(config.queue_timeout_ms);
            let grant = pool.acquire_retry(memory_bytes, deadline, Duration::ZERO).expect("admitted");
            lap(2);
            let key = region_key(&stmt.query, &catalog, &bindings, config.decision_buckets, memory_pages);
            let decision = stmt.decision(&key).unwrap_or_else(|| {
                let startup = evaluate_startup(&stmt.plan, &catalog, &env, &bindings);
                let fresh = CachedDecision {
                    resolved: startup.resolved,
                    predicted_seconds: startup.predicted_run_seconds,
                };
                stmt.store_decision(key.clone(), fresh.clone());
                fresh
            });
            lap(3);
            let ctx = ExecContext::with_limits(SharedCounters::new(), ResourceLimits::unlimited());
            lap(4);
            run(&decision.resolved, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard)
                .expect("runs");
            lap(5);
            drop((grant, ctx, decision, key, bindings, binds, stmt));
            lap(6);
        }
        if pass == 0 {
            (rows, through_service) = (0, Duration::ZERO);
            spent = [Duration::ZERO; STEPS.len()];
        }
    }

    let calls = (passes * requests.len()) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / calls;
    println!("{} requests a pass, {:.1} rows a request, {passes} passes\n", requests.len(), rows as f64 / calls);
    println!("{:<34} {:>8.2} us", "QueryService::execute", us(through_service));
    let steps: Duration = spent.iter().sum();
    println!("{:<34} {:>8.2} us", "the session's steps, this thread", us(steps));
    for (name, d) in STEPS.iter().zip(spent) {
        println!("  {name:<32} {:>8.2} us", us(d));
    }
    println!("{:<34} {:>8.2} us", "execute beyond the steps", us(through_service) - us(steps));
}
