//! Shared helpers for the figure benches.

use std::sync::OnceLock;

use dqep_harness::experiments::{run_all, QueryResults};
use dqep_harness::params::ExperimentParams;

/// A reduced protocol (fewer invocations, no memory variants), run once
/// per process and cached, so every figure bench renders its table from
/// the same five queries × three scenarios.
pub fn quick_results() -> &'static [QueryResults] {
    static CACHE: OnceLock<Vec<QueryResults>> = OnceLock::new();
    CACHE.get_or_init(|| {
        run_all(&ExperimentParams {
            invocations: 10,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        })
    })
}
