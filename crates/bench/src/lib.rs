//! Shared helpers for the benchmark suite and the `reproduce` binary.

pub mod executor_bench;
pub mod observability_bench;
pub mod parallel_bench;
pub mod reopt_bench;
pub mod service_bench;
pub mod shard_bench;

use std::sync::OnceLock;

use dqep_harness::experiments::{run_all, QueryResults};
use dqep_harness::params::ExperimentParams;
use dqep_harness::run_all_parallel;

/// Runs the full experimental protocol once per process and caches the
/// results, so every bench/figure can render its table without re-running
/// the five queries × three scenarios.
pub fn full_results() -> &'static [QueryResults] {
    static CACHE: OnceLock<Vec<QueryResults>> = OnceLock::new();
    CACHE.get_or_init(|| run_all(&ExperimentParams::paper()))
}

/// A reduced protocol (fewer invocations, no memory variants) for smoke
/// runs.
pub fn quick_results() -> &'static [QueryResults] {
    static CACHE: OnceLock<Vec<QueryResults>> = OnceLock::new();
    CACHE.get_or_init(|| {
        // Quick tables do not report measured times, so the parallel
        // runner's timing distortion is acceptable.
        run_all_parallel(&ExperimentParams {
            invocations: 10,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        })
    })
}
