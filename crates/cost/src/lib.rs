//! The interval cost model of the dynamic-plan optimizer.
//!
//! The paper's prototype "extends plan cost from traditional point data to
//! interval data and defines costs to be incomparable if these intervals
//! overlap" (Section 7). This crate supplies:
//!
//! * [`Cost`] — the abstract cost data type: CPU and I/O time components,
//!   each an [`dqep_interval::Interval`], compared on their total.
//! * [`Environment`] — the optimization-time view of uncertain parameters
//!   (host-variable bindings, available memory) plus the
//!   [`PlanningMode`] that selects between traditional point optimization
//!   (expected values) and dynamic-plan interval optimization (full
//!   domains).
//! * [`SelectivityModel`] — selectivity and cardinality estimation:
//!   bound predicates from uniform-domain statistics, unbound predicates as
//!   `[0, 1]` (expected 0.05), join selectivity as
//!   `1 / max(domain(left), domain(right))` (paper Section 6). Its
//!   `value_selectivity` / `value_at` pair is the one map between a bound
//!   value and its selectivity.
//! * [`ParamSpace`] — a statement's uncertain parameters as coordinates:
//!   one selectivity per host variable plus the memory range; a point of
//!   it becomes [`Bindings`] through that map.
//! * [`CostModel`] — per-algorithm cost functions, monotone in their
//!   uncertain arguments so that evaluating them at interval endpoints
//!   yields exact lower/upper cost bounds.
//!
//! The same functions serve all three optimization scenarios of paper
//! Figure 3: static optimization (point mode, expected values), run-time
//! optimization (point mode, actual bindings), dynamic plans (interval
//! mode at compile-time; point re-evaluation at start-up-time).

#![warn(missing_docs)]

mod cost;
mod env;
mod formulas;
mod model;
mod selectivity;
mod space;

pub use cost::Cost;
pub use env::{Bindings, Environment, PlanningMode};
pub use formulas::{cardenas_pages, hash_join_io_seconds, hash_partition_levels, sort_cpu_seconds, sort_io_seconds, sort_passes};
pub use model::{CostModel, PlanStats};
pub use selectivity::SelectivityModel;
pub use space::ParamSpace;
