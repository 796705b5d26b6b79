//! The metric names, units and directions — the vocabulary every later
//! change reports in. `BENCHMARK.json` at the repository root lists the
//! same names; a test keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

/// An end-to-end metric: what a caller of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Reported for every workload. `failed_share` is the eighth: it is 0 on
/// a healthy system, so it travels as the `failed`/`attempted` counts of
/// the result line instead of as a bounded metric.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cost_s_per_query",
        unit: "s",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

/// A per-layer metric; the layer is the prefix of the name.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Times are means per request of the timed list unless the name says
/// otherwise; `core.*` counts and `plan.module_*` are per statement
/// optimized, `plan.startup_nodes` per start-up decision taken.
pub const PER_LAYER: [PerLayer; 63] = [
    layer("sql.normalize_us", "us", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("core.optimize_ms", "ms", Lower),
    layer("core.groups", "count", Lower),
    layer("core.physical_considered", "count", Lower),
    layer("core.pruned_by_bound", "count", Higher),
    layer("core.plan_nodes", "count", Lower),
    layer("core.choose_plans", "count", Lower),
    layer("plan.startup_us", "us", Lower),
    layer("plan.startup_nodes", "count", Lower),
    layer("plan.module_bytes", "bytes", Lower),
    layer("plan.module_encode_us", "us", Lower),
    layer("plan.module_decode_us", "us", Lower),
    layer("plan.regret_share", "ratio", Lower),
    layer("service.self_us", "us", Lower),
    layer("service.region_key_us", "us", Lower),
    layer("service.queue_wait_us", "us", Lower),
    layer("service.statement_hit_rate", "ratio", Higher),
    layer("service.decision_hit_rate", "ratio", Higher),
    layer("service.registry_evictions", "count", Lower),
    layer("service.shard.execute_ms", "ms", Lower),
    layer("service.shard.overhead_ratio", "ratio", Lower),
    layer("service.shard.row_imbalance", "ratio", Lower),
    layer("service.shard.divergent_nodes", "count", Lower),
    layer("service.shard.fallbacks", "count", Lower),
    layer("executor.compile_us", "us", Lower),
    layer("executor.open_ms", "ms", Lower),
    layer("executor.drain_ms", "ms", Lower),
    layer("executor.close_us", "us", Lower),
    layer("executor.rows_per_query", "count", Lower),
    layer("executor.batches_per_query", "count", Lower),
    layer("executor.cpu.records", "count", Lower),
    layer("executor.cpu.compares", "count", Lower),
    layer("executor.cpu.hashes", "count", Lower),
    layer("executor.op.file_scan_ms", "ms", Lower),
    layer("executor.op.btree_scan_ms", "ms", Lower),
    layer("executor.op.filter_ms", "ms", Lower),
    layer("executor.op.filter_btree_scan_ms", "ms", Lower),
    layer("executor.op.hash_join_ms", "ms", Lower),
    layer("executor.op.merge_join_ms", "ms", Lower),
    layer("executor.op.index_join_ms", "ms", Lower),
    layer("executor.op.sort_ms", "ms", Lower),
    layer("executor.op.choose_plan_ms", "ms", Lower),
    layer("executor.net.bytes_per_query", "bytes", Lower),
    layer("executor.net.frames_per_query", "count", Lower),
    layer("executor.net.retransmits", "count", Lower),
    layer("executor.net.send_ms", "ms", Lower),
    layer("executor.net.recv_ms", "ms", Lower),
    layer("executor.net.encode_ns_per_row", "ns", Lower),
    layer("executor.net.decode_ns_per_row", "ns", Lower),
    layer("executor.net.scatter_ns_per_row", "ns", Lower),
    layer("storage.pages_read_per_query", "count", Lower),
    layer("storage.pages_written_per_query", "count", Lower),
    layer("storage.pages_allocated_per_query", "count", Lower),
    layer("storage.generate_ms", "ms", Lower),
    layer("storage.histograms_ms", "ms", Lower),
    layer("process.allocs_per_query", "count", Lower),
    layer("process.alloc_kib_per_query", "KiB", Lower),
    layer("process.minor_faults_per_query", "count", Lower),
    layer("process.spin_ms", "ms", Lower),
    layer("process.slowdown", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.self_time_coverage", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use dqep::executor::{parse_json, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the program must name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads present")
            .iter()
            .map(|w| {
                let field = |k: &str| {
                    w.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        assert_eq!(
            workloads,
            Workload::ALL.map(|w| (w.name().to_string(), w.why().to_string()))
        );

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&doc, "end_to_end"), ours);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(JsonValue::as_num).unwrap())
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&doc, "per_layer"), ours);
    }
}
