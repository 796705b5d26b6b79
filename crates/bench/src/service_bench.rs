//! Concurrent-throughput benchmark for the prepared-query service.
//!
//! Measures end-to-end sessions/second on a repeated-statement workload
//! (the paper's chain query bound at varying selectivities) at several
//! replica-pool sizes, plus the plan-cache hit rates the workload achieves.
//! The database replicas are given a nonzero simulated device
//! latency, so concurrency wins come from **overlapping I/O waits** —
//! exactly the resource a serving layer multiplexes — rather than from
//! CPU parallelism (CI machines may have a single core).

use std::fmt::Write as _;
use std::time::Instant;

use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};
use dqep_service::{QueryService, Request, ServiceConfig, ServiceStats};

/// Workload shape shared by every worker-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct ServiceBenchConfig {
    /// Chain-query length (relations in the statement).
    pub relations: usize,
    /// Timed sessions per measurement.
    pub sessions: usize,
    /// Simulated device latency per page I/O, microseconds.
    pub io_latency_micros: u64,
    /// Catalog + data seed.
    pub seed: u64,
}

impl ServiceBenchConfig {
    /// The standard workload: the paper's 4-relation chain (query 3).
    #[must_use]
    pub fn standard(quick: bool) -> ServiceBenchConfig {
        ServiceBenchConfig {
            relations: 4,
            sessions: if quick { 24 } else { 96 },
            io_latency_micros: 250,
            seed: 11,
        }
    }
}

/// One worker-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Worker threads used.
    pub workers: usize,
    /// Timed sessions completed per wall-clock second.
    pub qps: f64,
    /// Wall-clock seconds for the timed batch.
    pub wall_seconds: f64,
    /// Service stats after the run (includes the warm-up sessions).
    pub stats: ServiceStats,
}

/// The chain-catalog statement with one host variable per relation:
/// `SELECT * FROM R1..Rn WHERE Ri.jr = R(i+1).jl AND Ri.a < :vi`.
#[must_use]
pub fn chain_sql(relations: usize) -> String {
    let from: Vec<String> = (1..=relations).map(|i| format!("R{i}")).collect();
    let mut preds: Vec<String> = (1..relations)
        .map(|i| format!("R{i}.jr = R{}.jl", i + 1))
        .collect();
    preds.extend((1..=relations).map(|i| format!("R{i}.a < :v{i}")));
    format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
}

/// The repeated-statement workload: one prepared statement, bindings
/// cycling through a few mid-range selectivities (nearby values land in
/// the same decision-cache region; the cycle still exercises re-binding).
#[must_use]
pub fn workload(cfg: &ServiceBenchConfig) -> Vec<Request> {
    let sql = chain_sql(cfg.relations);
    (0..cfg.sessions)
        .map(|i| {
            let value = 420 + 10 * (i as i64 % 4);
            let binds: Vec<(String, i64)> = (1..=cfg.relations)
                .map(|v| (format!("v{v}"), value + v as i64))
                .collect();
            Request {
                sql: sql.clone(),
                binds,
                ..Request::default()
            }
        })
        .collect()
}

/// Measures sessions/second at `workers` concurrent sessions.
///
/// A warm-up batch (one session per worker) is run untimed first, so
/// replica generation and the one-off parse + optimize are excluded from
/// the throughput window — the steady state a serving layer runs in.
///
/// # Panics
/// Panics if any session fails: the benchmark workload is fault-free, so
/// failure is a bug.
#[must_use]
pub fn throughput(cfg: &ServiceBenchConfig, workers: usize) -> ThroughputPoint {
    let catalog = make_chain_catalog(
        &SyntheticSpec::paper(cfg.relations, cfg.seed),
        SystemConfig::paper_1994(),
    );
    let service = QueryService::new(
        catalog,
        ServiceConfig {
            workers,
            io_latency_micros: cfg.io_latency_micros,
            data_seed: cfg.seed,
            ..ServiceConfig::default()
        },
    );

    let warmup: Vec<Request> = workload(cfg).into_iter().take(workers.max(1)).collect();
    for result in service.run_batch(warmup) {
        result.expect("warm-up session failed");
    }

    let sessions = workload(cfg);
    let timed = sessions.len();
    let started = Instant::now();
    for result in service.run_batch(sessions) {
        result.expect("benchmark session failed");
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    ThroughputPoint {
        workers,
        qps: timed as f64 / wall_seconds.max(1e-9),
        wall_seconds,
        stats: service.stats(),
    }
}

/// Renders measurements as the `BENCH_service.json` document.
#[must_use]
pub fn render_json(cfg: &ServiceBenchConfig, points: &[ThroughputPoint]) -> String {
    let baseline = points.first().map_or(1.0, |p| p.qps);
    let four = points
        .iter()
        .find(|p| p.workers == 4)
        .map_or(0.0, |p| p.qps / baseline.max(1e-9));
    let cache = points.last().map_or_else(ServiceStats::default, |p| p.stats);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"chain_q{}_repeated\",", cfg.relations);
    let _ = writeln!(json, "  \"sessions\": {},", cfg.sessions);
    let _ = writeln!(json, "  \"io_latency_micros\": {},", cfg.io_latency_micros);
    json.push_str("  \"throughput\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"qps\": {:.2}, \"wall_seconds\": {:.4}}}",
            p.workers, p.qps, p.wall_seconds
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup_4_vs_1\": {four:.3},");
    let _ = writeln!(
        json,
        "  \"plan_cache\": {{\"statement_hit_rate\": {:.4}, \"decision_hit_rate\": {:.4}, \
         \"feedback_invalidations\": {}}}",
        cache.registry.hit_rate(),
        cache.decision_hit_rate(),
        cache.feedback_invalidations
    );
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_repeated_statement() {
        let cfg = ServiceBenchConfig {
            relations: 2,
            sessions: 8,
            io_latency_micros: 0,
            seed: 3,
        };
        let reqs = workload(&cfg);
        assert_eq!(reqs.len(), 8);
        assert!(reqs.iter().all(|r| r.sql == reqs[0].sql), "one prepared statement");
        assert_eq!(reqs[0].binds.len(), 2);
    }

    #[test]
    fn throughput_point_reports_cache_hits() {
        let cfg = ServiceBenchConfig {
            relations: 2,
            sessions: 12,
            io_latency_micros: 0,
            seed: 3,
        };
        let point = throughput(&cfg, 2);
        assert_eq!(point.stats.failed, 0);
        assert!(point.qps > 0.0);
        // 14 sessions total (2 warm-up), one statement: at most a couple
        // of misses from the initial worker race.
        assert!(
            point.stats.registry.hit_rate() > 0.8,
            "hit rate {:.2} too low",
            point.stats.registry.hit_rate()
        );
        let json = render_json(&cfg, &[point]);
        assert!(json.contains("\"throughput\""));
        assert!(json.contains("\"statement_hit_rate\""));
    }
}
