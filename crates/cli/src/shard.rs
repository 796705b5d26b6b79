//! `--shards N`: one query across partitioned replicas.

use dqep::DqepError;

use crate::{print_explain, with_sampler, write_metric_outputs, Args};

/// `--shards N`: execute the query across N partitioned replicas with
/// repartitioning network exchange and per-shard dynamic-plan
/// arbitration, then report winners, divergence, and wire traffic.
pub(crate) fn run_sharded(args: &Args) -> Result<(), DqepError> {
    let (catalog, _) = args.database(false, None)?;
    let link_faults = match &args.link_fault {
        Some(spec) => dqep_executor::LinkFaultPlan::parse(spec)
            .map_err(|e| DqepError::Usage(format!("--link-fault: {e}")))?,
        None => dqep_executor::LinkFaultPlan::none(),
    };
    let config = dqep_service::ShardConfig {
        shards: args.shards.unwrap_or(1),
        net: dqep_executor::NetConfig {
            latency_micros: args.net_latency_us,
            bytes_per_second: args.net_bandwidth,
            jitter_micros: args.net_jitter_us,
            seed: args.seed,
        },
        link_faults,
        routing: if args.routing == "range" {
            dqep_service::ShardRouting::Range { attr: 0 }
        } else {
            dqep_service::ShardRouting::Hash { attr: 0 }
        },
        histogram_buckets: args.histograms.unwrap_or(16),
        dop: args.dop,
        limits: args.limits(),
        io_latency_micros: args.io_latency_us,
        data_seed: args.seed,
        skew: args.skew,
        memory_pages: args.memory,
        reopt: args.reopt.then(|| args.reopt()),
        force_uniform_winner: args.force_uniform,
        trace: args.explain_analyze,
    };
    let shards = config.shards;
    let system = catalog.config;
    // With --json, stdout carries only the JSON document.
    let narrate = !args.json;
    if narrate {
        println!(
            "-- sharded execution: {shards} shard(s), {} routing{}",
            args.routing,
            if args.force_uniform { ", forced uniform winner" } else { "" },
        );
    }

    let service = dqep_service::ShardedService::new(catalog, config);
    let binds: Vec<(&str, i64)> = args.binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let started = std::time::Instant::now();
    let snapshot = || service.metrics();
    let result = with_sampler(args, &snapshot, || service.execute(&args.sql, &binds));
    let wall = started.elapsed();

    let out = match result {
        Ok(out) => out,
        Err(e) => {
            // The metrics snapshot reflects the query whatever its outcome.
            write_metric_outputs(args, &service.metrics())?;
            return Err(DqepError::Service(e));
        }
    };
    if narrate {
        println!(
            "-- {} row(s) in {:.3}s wall; per-shard rows: {:?}",
            out.rows.len(),
            wall.as_secs_f64(),
            out.per_shard_rows,
        );
        for (s, audits) in out.audits.iter().enumerate() {
            let winners: Vec<String> = audits
                .iter()
                .map(|a| match a.winner {
                    Some(w) => format!("node {} -> alt {w}", a.node),
                    None => format!("node {} -> unresolved", a.node),
                })
                .collect();
            println!("-- shard {s}: {}", if winners.is_empty() {
                "no arbitration (resolved plan)".to_string()
            } else {
                winners.join(", ")
            });
        }
        if out.divergent_nodes.is_empty() {
            println!("-- winners agree on every choose node");
        } else {
            println!(
                "-- divergent winners on choose node(s) {:?} (local statistics disagree)",
                out.divergent_nodes
            );
        }
        println!(
            "-- network: {} frame(s), {} byte(s), {} retransmit(s), {} credit stall(s); \
             {} fallback(s)",
            out.net.frames, out.net.bytes, out.net.retransmits, out.net.credit_stalls,
            out.fallbacks,
        );
        // Per-link deltas for this query: each entry is one directed
        // channel's traffic, so the wire totals above decompose exactly.
        for l in &out.links {
            println!(
                "-- link {}->{}: {} frame(s), {} byte(s), {} retransmit(s), \
                 {} credit stall(s) ({:.3}ms waiting)",
                l.from,
                l.to,
                l.stats.frames,
                l.stats.bytes,
                l.stats.retransmits,
                l.stats.credit_stalls,
                l.stats.credit_wait_ns as f64 / 1e6,
            );
        }
    }
    if let Some(report) = &out.trace {
        print_explain(args, report, &system);
    }
    write_metric_outputs(args, &service.metrics())
}

#[cfg(test)]
mod tests {
    use crate::parse_argv;
    use crate::tests::argv;

    #[test]
    fn parses_shard_flags() {
        let a = parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "4", "--routing", "range",
            "--force-uniform", "--net-latency-us", "20", "--net-bandwidth",
            "1000000", "--net-jitter-us", "5", "--link-fault",
            "nth-frame=3,max-retransmit=2", "--metrics-json", "m.json",
        ]))
        .unwrap();
        assert_eq!(a.shards, Some(4));
        assert_eq!(a.routing, "range");
        assert!(a.force_uniform);
        assert_eq!(a.net_latency_us, 20);
        assert_eq!(a.net_bandwidth, 1_000_000);
        assert_eq!(a.net_jitter_us, 5);
        assert_eq!(a.link_fault.as_deref(), Some("nth-frame=3,max-retransmit=2"));
        assert_eq!(a.metrics_json.as_deref(), Some("m.json"));
    }

    #[test]
    fn shards_require_sql_and_run() {
        assert!(parse_argv(&argv(&["--sql", "q", "--shards", "2"]))
            .unwrap_err()
            .contains("--run"));
        assert!(parse_argv(&argv(&["--serve", "w.sql", "--shards", "2"]))
            .unwrap_err()
            .contains("mutually exclusive")
            || parse_argv(&argv(&["--serve", "w.sql", "--shards", "2"]))
                .unwrap_err()
                .contains("--sql"));
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--shards", "0"]))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn net_flags_require_shards() {
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--net-latency-us", "9"]))
            .unwrap_err()
            .contains("--shards"));
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--force-uniform"]))
            .unwrap_err()
            .contains("--shards"));
        assert!(parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "2", "--routing", "zigzag"
        ]))
        .unwrap_err()
        .contains("--routing"));
    }

    #[test]
    fn shards_allow_explain_analyze_but_not_adaptive() {
        let a =
            parse_argv(&argv(&["--sql", "q", "--shards", "2", "--explain-analyze", "--json"]))
                .unwrap();
        assert_eq!(a.shards, Some(2));
        assert!(a.explain_analyze && a.run && a.json);
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--shards", "2", "--adaptive"]))
            .unwrap_err()
            .contains("--adaptive"));
    }

    #[test]
    fn shard_mode_allows_metrics_json_and_reopt() {
        let a = parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "2", "--metrics-json", "-", "--reopt",
        ]))
        .unwrap();
        assert_eq!(a.shards, Some(2));
        assert!(a.reopt);
    }
}
