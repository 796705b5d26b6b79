//! `--serve FILE`: a workload file run through the prepared-query service.

use dqep::DqepError;
use dqep_executor::ExecSummary;
use dqep_service::{QueryService, Request, ServiceConfig};

use crate::{with_sampler, write_metric_outputs, Args};

/// Parses a workload file: one statement per line, optional
/// `@ name=value,...` binding suffix (`memory=PAGES` sets the grant),
/// `#` comments and blank lines skipped.
fn parse_workload(text: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (sql, binds) = match line.rsplit_once('@') {
            Some((s, b)) => (s.trim(), b.trim()),
            None => (line, ""),
        };
        let mut req = Request::new(sql, &[]);
        for pair in binds.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("line {}: binding `{pair}` is not NAME=VALUE", idx + 1))?;
            let (name, v) = (name.trim(), v.trim());
            if name == "memory" {
                req.memory_pages =
                    Some(v.parse().map_err(|e| format!("line {}: memory: {e}", idx + 1))?);
            } else {
                req.binds.push((
                    name.to_string(),
                    v.parse().map_err(|e| format!("line {}: {name}: {e}", idx + 1))?,
                ));
            }
        }
        out.push(req);
    }
    Ok(out)
}

/// Runs a workload file through the prepared-query service and prints
/// per-session results plus the service's cache and throughput summary.
pub(crate) fn serve(args: &Args) -> Result<(), DqepError> {
    let path = args.serve.as_ref().expect("checked by run()");
    let text = std::fs::read_to_string(path)?;
    let workload = parse_workload(&text).map_err(DqepError::Usage)?;
    if workload.is_empty() {
        return Err(DqepError::Usage(format!("{path}: no statements")));
    }

    // Histograms are harvested from a throwaway replica; the service
    // regenerates identical data from the same seed.
    let (catalog, _) = args.database(false, args.histograms)?;

    let config = ServiceConfig {
        workers: args.workers.max(1),
        global_memory_bytes: args.service_memory,
        queue_timeout_ms: args.queue_timeout_ms,
        session_limits: args.limits(),
        data_seed: args.seed,
        skew: args.skew,
        io_latency_micros: args.io_latency_us,
        dop: args.dop,
        reopt: args.reopt.then(|| args.reopt()),
        ..ServiceConfig::default()
    };
    let service = QueryService::new(catalog, config);
    let system = service.catalog().config;
    let config = &system;

    let sessions: Vec<Request> = std::iter::repeat_with(|| workload.clone())
        .take(args.repeat.max(1))
        .flatten()
        .collect();
    let total = sessions.len();
    println!(
        "-- serving {total} session(s) ({} statement(s) x {} repeat(s)) on {} worker(s)",
        workload.len(),
        args.repeat.max(1),
        service.workers()
    );
    let started = std::time::Instant::now();
    let snapshot = || service.metrics();
    let results = with_sampler(args, &snapshot, || service.run_batch(sessions));
    let wall = started.elapsed();

    let mut failed = 0usize;
    let mut first_error: Option<DqepError> = None;
    let mut totals = ExecSummary::default();
    for (i, result) in results.iter().enumerate() {
        match result {
            // Same ExecSummary::describe renderer as the --run path.
            Ok(s) => {
                println!(
                    "[{i:>4}] {}, worker {}",
                    s.summary.describe(config),
                    s.worker
                );
                totals.accumulate(&s.summary);
            }
            Err(e) => {
                failed += 1;
                if first_error.is_none() {
                    first_error = Some(e.clone().into());
                }
                println!("[{i:>4}] FAILED: {e}");
            }
        }
    }

    let stats = service.stats();
    println!(
        "\n-- {} ok, {failed} failed in {:.3}s wall ({:.1} sessions/s)",
        stats.completed,
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!(
        "-- plan cache: statement {:.1}% hit ({} hit / {} miss, {} evicted), \
         decision {:.1}% hit ({} hit / {} miss)",
        stats.registry.hit_rate() * 100.0,
        stats.registry.hits,
        stats.registry.misses,
        stats.registry.evictions,
        stats.decision_hit_rate() * 100.0,
        stats.decision_hits,
        stats.decision_misses,
    );
    println!(
        "-- feedback: {} invalidation(s), {} cached-plan retr{}, totals: {} rows, {:.4}s simulated",
        stats.feedback_invalidations,
        stats.cached_plan_retries,
        if stats.cached_plan_retries == 1 { "y" } else { "ies" },
        totals.rows,
        totals.simulated_seconds(config),
    );

    // Shutdown metrics snapshot: latency/queue-wait histograms, refusal
    // counters, cache rates. Printed by default; the flags redirect it.
    if args.metrics_json.is_none() && args.metrics_prom.is_none() {
        println!(
            "\n-- metrics (shutdown snapshot):\n{}",
            service.metrics().to_json()
        );
    } else {
        write_metric_outputs(args, &service.metrics())?;
    }

    match first_error {
        // Partial failure is reported per session but the service ran:
        // only a fully failed workload fails the process.
        Some(e) if failed == total => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workload_files() {
        let reqs = parse_workload(
            "# demo\n\nSELECT * FROM R1 WHERE R1.a < :v @ v=50, memory=48\nSELECT * FROM R2\n",
        )
        .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].sql, "SELECT * FROM R1 WHERE R1.a < :v");
        assert_eq!(reqs[0].binds, vec![("v".to_string(), 50)]);
        assert_eq!(reqs[0].memory_pages, Some(48.0));
        assert!(reqs[1].binds.is_empty() && reqs[1].memory_pages.is_none());
        assert!(parse_workload("q @ novalue").unwrap_err().contains("line 1"));
        assert!(parse_workload("q @ v=x").unwrap_err().contains("v:"));
    }
}
