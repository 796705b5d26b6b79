//! The dynamic-plan query optimizer — the paper's primary contribution.
//!
//! This crate implements a Volcano-style optimizer (memo, transformation
//! rules, implementation rules, enforcers, top-down memoizing search)
//! extended for **cost incomparability**:
//!
//! * Costs are intervals; overlapping costs are *incomparable* and induce a
//!   **partial order** on plans.
//! * Per (group, required physical properties), the search keeps a
//!   **frontier** of mutually non-dominated plans instead of a single best
//!   plan. A plan is pruned only when another plan is provably never more
//!   expensive (paper Section 3: "it is impossible to prune all but one of
//!   them, as is the assumption and foundation of most database query
//!   optimizers").
//! * Frontiers with two or more plans are linked under a **choose-plan**
//!   operator (the *plan robustness* enforcer of Table 1); parents
//!   reference the group's combined choose-plan node, so alternatives
//!   share common subexpressions and the result is a **DAG**, not a tree
//!   (paper Section 3, "Techniques to Reduce the Search Effort").
//! * Branch-and-bound pruning is interval-aware: only a candidate whose
//!   *lower* bound exceeds the group's best *upper* bound can be discarded
//!   — exactly the weakened pruning the paper identifies as the main cost
//!   of dynamic-plan optimization (Sections 3 and 5).
//!
//! The same search engine runs all three scenarios of paper Figure 3:
//! *static* optimization (point environment with expected values),
//! *run-time* optimization (point environment with actual bindings), and
//! *dynamic-plan* optimization (interval environment).
//!
//! # Example
//!
//! ```
//! use dqep_algebra::{CompareOp, HostVar, LogicalExpr, SelectPred};
//! use dqep_catalog::{CatalogBuilder, SystemConfig};
//! use dqep_core::Optimizer;
//! use dqep_cost::Environment;
//!
//! let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
//!     .relation("r", 1_000, 512, |r| r.attr("a", 1_000.0).btree("a", false))
//!     .build()
//!     .unwrap();
//! let rel = catalog.relation_by_name("r").unwrap();
//! // SELECT * FROM r WHERE r.a < :v0  — selectivity unknown until start-up.
//! let query = LogicalExpr::get(rel.id).select(SelectPred::unbound(
//!     rel.attr_id("a").unwrap(),
//!     CompareOp::Lt,
//!     HostVar(0),
//! ));
//!
//! let env = Environment::dynamic_compile_time(&catalog.config);
//! let result = Optimizer::new(&catalog, &env).optimize(&query).unwrap();
//! assert!(result.plan.is_dynamic(), "incomparable costs induce a choose-plan");
//! ```

#![warn(missing_docs)]

mod context;
mod error;
mod frontier;
mod memo;
mod options;
mod probe;
mod rules;
mod search;
mod stats;

pub use context::QueryContext;
pub use error::OptimizerError;
pub use memo::{GroupId, GroupKey, LogicalMExpr, LogicalOp, Memo};
pub use options::SearchOptions;
pub use probe::ProbePoints;
pub use search::{OptimizeResult, Optimizer};
pub use stats::OptimizerStats;
