//! One timed segment: a fresh process that sets the system up, warms it
//! and executes the workload's request list once, closed loop, one client.
//!
//! Tracing is off here. Everything is measured from outside: wall time
//! around each call into the service, the process CPU clock around the
//! pass, and the counters the service publishes. Between requests the
//! machine-speed reference runs (see `reference.rs`); its time is taken
//! out of every number reported here.

use std::time::Instant;

use dqep::service::{
    QueryService, Request as ServiceRequest, ServiceConfig, ServiceError, ShardConfig,
    ShardedService,
};

use crate::json::Record;
use crate::oracle::checksum;
use crate::reference::Meter;
use crate::sys;
use crate::workloads::{bind_refs, Plan, Workload};

/// Exit code of a segment whose service worker died.
pub const EXIT_DEAD_WORKER: i32 = 3;

/// The service a segment drives.
enum Service {
    Query(Box<QueryService>),
    Sharded(Box<ShardedService>),
}

/// One answer, reduced to what the parent verifies and aggregates.
struct Answer {
    latency_ns: u64,
    rows: u64,
    checksum: u64,
    sim_cost_s: f64,
    queue_wait_ns: u64,
}

/// The query service every non-sharded workload runs on: one worker, so
/// one client never queues, and the default 64-statement registry.
pub fn query_config(plan: &Plan) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        registry_capacity: 64,
        data_seed: plan.data_seed,
        ..ServiceConfig::default()
    }
}

/// The sharded service: two shards, hash routing, no link or I/O latency.
pub fn shard_config(plan: &Plan) -> ShardConfig {
    ShardConfig {
        shards: 2,
        data_seed: plan.data_seed,
        ..ShardConfig::default()
    }
}

impl Service {
    fn start(plan: &Plan) -> Service {
        let catalog = plan.catalog.clone();
        if plan.workload.sharded() {
            Service::Sharded(Box::new(ShardedService::new(catalog, shard_config(plan))))
        } else {
            Service::Query(Box::new(QueryService::new(catalog, query_config(plan))))
        }
    }

    /// Executes one request and waits for its reply. Client-side work
    /// (checksumming the rows, reading counters) stays outside the latency.
    fn execute(&self, sql: String, binds: Vec<(String, i64)>) -> Result<Answer, ServiceError> {
        match self {
            Service::Query(svc) => {
                let request = ServiceRequest {
                    sql,
                    binds,
                    ..ServiceRequest::default()
                };
                let started = Instant::now();
                let result = svc.execute(request);
                let latency_ns = started.elapsed().as_nanos() as u64;
                let result = result?;
                Ok(Answer {
                    latency_ns,
                    rows: result.summary.rows,
                    checksum: 0,
                    sim_cost_s: result.summary.simulated_seconds(&svc.catalog().config),
                    queue_wait_ns: result.queue_wait.as_nanos() as u64,
                })
            }
            Service::Sharded(svc) => {
                let binds = bind_refs(&binds);
                let io_before: Vec<_> = svc.shards().iter().map(|s| s.db.disk.stats()).collect();
                let started = Instant::now();
                let result = svc.execute(&sql, &binds);
                let latency_ns = started.elapsed().as_nanos() as u64;
                let outcome = result?;
                let config = &svc.catalog().config;
                let sim_cost_s = svc
                    .shards()
                    .iter()
                    .zip(&io_before)
                    .map(|(s, before)| s.db.disk.stats().since(before).seconds(config))
                    .sum();
                Ok(Answer {
                    latency_ns,
                    rows: outcome.rows.len() as u64,
                    checksum: checksum(outcome.rows.iter().map(Vec::as_slice)),
                    sim_cost_s,
                    queue_wait_ns: 0,
                })
            }
        }
    }
}

/// Runs the segment and returns its record, or the exit code and message
/// of a run that must not be reported.
pub fn run(
    workload: Workload,
    seed: u64,
    round: usize,
    quick: bool,
) -> Result<Record, (i32, String)> {
    // One client and one worker take turns and never run together. The
    // two shard threads could, but on two virtual CPUs waking the other
    // one costs more than it saves: unpinned, `shard_join` ran 1.24x
    // slower and spread twice as wide.
    sys::pin_to_one_cpu();
    let mut meter = Meter::new();
    let spin_ms = meter.spin();
    // The load generator's own work — drawing inputs and rendering texts —
    // is not the system's set-up.
    let plan = Plan::new(workload, seed, quick);
    let warmup: Vec<_> = (0..plan.warmup_len())
        .map(|p| plan.request(p, round, true))
        .collect();
    let timed: Vec<_> = (0..plan.list.len())
        .map(|p| plan.request(p, round, false))
        .collect();

    let dead = |pass: &str, position: usize, sql: &str| {
        (
            EXIT_DEAD_WORKER,
            format!(
                "{}: service worker died (ServiceError::Shutdown) at {pass} request {position}: {sql}",
                workload.name()
            ),
        )
    };

    // Set-up: data generation, service start, statement preparation and
    // the warm-up pass, until the last warm-up answer is back.
    let setup_started = Instant::now();
    let service = Service::start(&plan);
    for (position, request) in warmup.into_iter().enumerate() {
        let sql = request.sql.clone();
        match service.execute(request.sql, request.binds) {
            Err(ServiceError::Shutdown) => return Err(dead("warm-up", position, &sql)),
            Err(e) => {
                return Err((
                    1,
                    format!(
                        "{}: warm-up request {position} failed: {e}",
                        workload.name()
                    ),
                ))
            }
            Ok(answer) => meter.after_request(answer.latency_ns),
        }
    }
    let setup_wall_s = setup_started.elapsed().as_secs_f64();
    let (setup_slowdown, setup_reference_s) = meter.finish();

    let n = timed.len();
    let (mut lat_ns, mut rows, mut sums, mut sim_s) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut queue_wait_ns = 0u64;
    let (allocs_before, bytes_before) = sys::alloc_counts();
    let faults_before = sys::minor_faults();
    let cpu_before = sys::process_cpu_seconds();
    let pass_started = Instant::now();
    for (position, request) in timed.into_iter().enumerate() {
        let sql = request.sql.clone();
        match service.execute(request.sql, request.binds) {
            Ok(answer) => {
                lat_ns.push(answer.latency_ns as f64);
                rows.push(answer.rows as f64);
                sums.push(answer.checksum as f64);
                sim_s.push(answer.sim_cost_s);
                queue_wait_ns += answer.queue_wait_ns;
                meter.after_request(answer.latency_ns);
            }
            Err(ServiceError::Shutdown) => return Err(dead("timed", position, &sql)),
            // A failed request answers -1 rows, which no oracle count
            // equals: the parent counts it as failed.
            Err(e) => {
                eprintln!("{}: request {position} failed: {e}", workload.name());
                lat_ns.push(0.0);
                rows.push(-1.0);
                sums.push(0.0);
                sim_s.push(0.0);
            }
        }
    }
    let wall_s = pass_started.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_seconds() - cpu_before;
    let (allocs, bytes) = sys::alloc_counts();
    // The reference runs on this thread and is never blocked, so its wall
    // time is also its CPU time.
    let (slowdown, reference_s) = meter.finish();

    let mut record = Record::default();
    record.set("requests", n as f64);
    record.set("spin_ms", spin_ms);
    record.set("setup_s", setup_wall_s - setup_reference_s);
    record.set("setup_slowdown", setup_slowdown);
    record.set("wall_s", wall_s - reference_s);
    record.set("cpu_s", cpu_s - reference_s);
    record.set("slowdown", slowdown);
    record.set("sim_cost_s", sim_s.iter().sum());
    record.set("queue_wait_ns", queue_wait_ns as f64);
    record.set("allocs", (allocs - allocs_before) as f64);
    record.set("alloc_bytes", (bytes - bytes_before) as f64);
    record.set("minor_faults", (sys::minor_faults() - faults_before) as f64);
    if let Service::Query(svc) = &service {
        let stats = svc.stats();
        record.set("statement_hit_rate", stats.registry.hit_rate());
        record.set("decision_hit_rate", stats.decision_hit_rate());
        record.set("registry_evictions", stats.registry.evictions as f64);
    }
    drop(service);
    record.set(
        "peak_rss_kib",
        (sys::peak_rss_kib() - meter.resident_kib()) as f64,
    );
    record.arrays.insert("lat_ns".into(), lat_ns);
    record.arrays.insert("rows".into(), rows);
    record.arrays.insert("sim_s".into(), sim_s);
    if workload.sharded() {
        record.arrays.insert("sums".into(), sums);
    }
    Ok(record)
}
