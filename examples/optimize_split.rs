//! Where an ad-hoc request's time goes, untraced.
//!
//! The paper bills a compiled query `e` once and `f + g_i` per invocation;
//! an ad-hoc statement pays all three every time. This program measures
//! that bill the way the benchmark's `adhoc_optimize` drives it — chains of
//! 4, 6, 8 and 10 relations, a host-variable selection on every relation,
//! every text new to the statement registry, so every request parses,
//! optimizes, evicts the least recently used statement, decides and runs —
//! twice over the same requests: through `QueryService::execute`, and as
//! the session's steps called one by one on this thread, each under its
//! own clock. The optimizer's phases are read off the clocks it keeps
//! itself (`OptimizerStats::{explore,search,finish}_seconds`); the
//! registry insert includes dropping the statement it evicts, which no
//! benchmark span covers.
//!
//! Run pinned, it is a hot loop on one thread:
//! `taskset -c 1 cargo run --release --example optimize_split`
//! (`-- --quick` makes 5 passes instead of 200: the CI run).
//! `examples/sample_profile.rs` samples the same loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dqep::catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{run, ExecContext, ResourceLimits, RootSink, SharedCounters};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup_observed;
use dqep::service::{
    normalize_sql, PreparedRegistry, PreparedStatement, QueryService, Request, ServiceConfig,
};
use dqep::sql::parse_query;
use dqep::storage::StoredDatabase;

/// The benchmark's frozen chain catalog: shape seed 7, data seed 1989.
const SHAPE_SEED: u64 = 7;
const DATA_SEED: u64 = 1989;
const STEPS: [&str; 8] = [
    "normalize + parse",
    "optimize: explore",
    "optimize: search",
    "optimize: finish",
    "optimize: teardown + the rest",
    "registry insert + evicted drop",
    "start-up",
    "run",
];

/// `adhoc_optimize`'s shapes: chains of 4, 6, 8 and 10 relations, each
/// selection bound inside 2–15 % of its domain, `TUPLES` binding tuples a
/// chain crossed as in the benchmark (a Latin-square pairing of strata).
fn shapes(catalog: &Catalog) -> Vec<(String, Vec<(String, i64)>)> {
    const TUPLES: usize = 4;
    let (lo, hi) = (0.02, 0.15);
    let mut out = Vec::new();
    for relations in [4, 6, 8, 10] {
        let from: Vec<String> = (1..=relations).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> = (1..relations)
            .map(|i| format!("R{i}.jr = R{}.jl", i + 1))
            .collect();
        preds.extend((1..=relations).map(|i| format!("R{i}.a < :v{i}")));
        let sql = format!(
            "SELECT * FROM {} WHERE {}",
            from.join(", "),
            preds.join(" AND ")
        );
        for t in 0..TUPLES {
            let binds = (0..relations)
                .map(|i| {
                    let diagonal = if i % 2 == 0 {
                        t + i
                    } else {
                        2 * TUPLES - 1 - t + i
                    };
                    let stratum = (diagonal % TUPLES) as f64;
                    let share = lo + (stratum + 0.5) / TUPLES as f64 * (hi - lo);
                    // The benchmark's `bound_for`, rounding and all, not
                    // the parameter space's map: these are its requests.
                    let domain = catalog.relations()[i].attributes[0].domain_size;
                    (format!("v{}", i + 1), (share * domain).round() as i64)
                })
                .collect();
            out.push((sql.clone(), binds));
        }
    }
    out
}

/// The requests of one pass of one way: every shape, each text made new by
/// a literal unique to the pass and the way (`R1.jl >= -n` holds for every
/// row, so the answer does not change).
fn requests(shapes: &[(String, Vec<(String, i64)>)], pass: usize, way: usize) -> Vec<Request> {
    shapes
        .iter()
        .enumerate()
        .map(|(position, (sql, binds))| {
            let unique = 1 + (pass * 2 + way) * shapes.len() + position;
            Request {
                sql: format!("{sql} AND R1.jl >= -{unique}"),
                binds: binds.clone(),
                ..Request::default()
            }
        })
        .collect()
}

/// What the timed passes measured, summed over their requests.
pub struct Split {
    passes: usize,
    statements: usize,
    requests: usize,
    rows: u64,
    through_service: Duration,
    spent: [Duration; STEPS.len()],
}

/// Runs the loop: warm-up passes that fill each registry, then `passes`
/// timed passes.
pub fn split(passes: usize) -> Split {
    let catalog = make_chain_catalog(
        &SyntheticSpec::paper(10, SHAPE_SEED),
        SystemConfig::paper_1994(),
    );
    let config = ServiceConfig {
        workers: 1,
        registry_capacity: 64,
        data_seed: DATA_SEED,
        ..ServiceConfig::default()
    };
    let shapes = shapes(&catalog);

    // The two ways take turns, a pass each, so a host that changes speed
    // changes it for both. The first passes fill each registry, so that
    // every later insert evicts.
    let service = QueryService::new(catalog.clone(), config.clone());
    let db = StoredDatabase::generate(&catalog, DATA_SEED);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let registry = PreparedRegistry::new(config.registry_capacity);
    let warmup = config.registry_capacity.div_ceil(shapes.len());
    let (mut rows, mut through_service) = (0, Duration::ZERO);
    let mut spent = [Duration::ZERO; STEPS.len()];
    let mut requests_timed = 0;
    for pass in 0..warmup + passes {
        if pass == warmup {
            (rows, through_service, requests_timed) = (0, Duration::ZERO, 0);
            spent = [Duration::ZERO; STEPS.len()];
        }
        // 1. Through the service.
        let started = Instant::now();
        for request in requests(&shapes, pass, 0) {
            rows += service
                .execute(request)
                .expect("fault-free request")
                .summary
                .rows;
        }
        through_service += started.elapsed();

        // 2. The session's steps, one by one, over a registry and a
        // replica of this loop's own.
        for request in requests(&shapes, pass, 1) {
            let mut clock = Instant::now();
            let mut lap = || {
                let now = Instant::now();
                now - std::mem::replace(&mut clock, now)
            };
            let normalized = normalize_sql(&request.sql);
            let query = parse_query(&normalized, &catalog).expect("parses");
            spent[0] += lap();
            let optimized = Optimizer::new(&catalog, &env)
                .optimize_with_props(&query.expr, query.required_props())
                .expect("optimizes");
            let optimize = lap();
            let phases = optimized.stats;
            let secs = Duration::from_secs_f64;
            spent[1] += secs(phases.explore_seconds);
            spent[2] += secs(phases.search_seconds - phases.finish_seconds);
            spent[3] += secs(phases.finish_seconds);
            spent[4] += optimize.saturating_sub(secs(phases.optimization_seconds));
            let stmt = PreparedStatement::new(normalized.clone(), query, optimized.plan);
            let stmt = registry.insert(normalized, Arc::new(stmt));
            spent[5] += lap();
            let binds: Vec<(&str, i64)> = request
                .binds
                .iter()
                .map(|(n, v)| (n.as_str(), *v))
                .collect();
            let bindings = stmt.query.bindings(&binds).expect("binds");
            let startup = evaluate_startup_observed(
                &stmt.plan,
                &catalog,
                &env,
                &bindings,
                &stmt.observations(),
            );
            spent[6] += lap();
            let ctx = ExecContext::with_limits(SharedCounters::new(), ResourceLimits::unlimited());
            let resolved = &startup.resolved;
            let summary = run(
                resolved,
                &db,
                &catalog,
                &env,
                &bindings,
                &ctx,
                RootSink::Discard,
            )
            .expect("runs");
            spent[7] += lap();
            std::hint::black_box(summary);
        }
        requests_timed += shapes.len();
    }
    Split {
        passes,
        statements: shapes.len() / 4,
        requests: requests_timed,
        rows,
        through_service,
        spent,
    }
}

impl Split {
    /// Prints µs a request: through the service, the steps one by one,
    /// and the difference.
    pub fn print(&self) {
        let calls = self.requests as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / calls;
        println!(
            "{} requests a pass ({} statements of 4-10 relations), {:.1} rows a request, {} passes\n",
            self.requests / self.passes.max(1),
            self.statements,
            self.rows as f64 / calls,
            self.passes
        );
        println!(
            "{:<34} {:>8.2} us",
            "QueryService::execute",
            us(self.through_service)
        );
        let steps: Duration = self.spent.iter().sum();
        println!(
            "{:<34} {:>8.2} us",
            "the session's steps, this thread",
            us(steps)
        );
        for (name, d) in STEPS.iter().zip(self.spent) {
            println!("  {name:<32} {:>8.2} us", us(d));
        }
        println!(
            "{:<34} {:>8.2} us",
            "execute beyond the steps",
            us(self.through_service) - us(steps)
        );
    }
}

fn main() {
    let passes = if std::env::args().any(|a| a == "--quick") {
        5
    } else {
        200
    };
    split(passes).print();
}
