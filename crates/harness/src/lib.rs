//! Experiment harness reproducing the paper's evaluation.
//!
//! The paper's Section 6 optimizes five queries of increasing complexity
//! under three scenarios (Figure 3) and reports execution time (Figure 4),
//! optimization time (Figure 5), plan size (Figure 6), start-up CPU time
//! (Figure 7), the comparison with run-time optimization (Figure 8), and
//! break-even invocation counts. This crate builds those workloads,
//! samples run-time bindings exactly as described (uniform selectivities
//! in `[0, 1]`, memory in `[16, 112]` pages, `N = 100` invocations), runs
//! the scenarios, and renders the result tables.
//!
//! Like the paper (its footnote 4), **execution times are the optimizer's
//! predicted costs under the true bindings** — this isolates the search
//! strategy from selectivity-estimation noise and from host hardware —
//! while optimization and start-up times are truly measured. The
//! `dqep-executor` crate additionally runs resolved plans against synthetic
//! data to validate that start-up choices are the actually-faster plans.

#![warn(missing_docs)]

pub mod bindings;
pub mod experiments;
pub mod params;
pub mod queries;
pub mod report;
pub mod scenario;

pub use bindings::BindingSampler;
pub use params::ExperimentParams;
pub use queries::{paper_query, Workload};
pub use scenario::{run_dynamic, run_runtime_opt, run_static, ScenarioResult};
