//! Dynamic query evaluation plans: DAG representation, access modules,
//! and start-up-time evaluation.
//!
//! A **dynamic plan** (Graefe & Ward, SIGMOD 1989) is a query evaluation
//! plan, generated entirely at compile-time, that contains *alternative
//! subplans* linked by **choose-plan** operators. At start-up-time, when
//! host variables are bound and actual resource availability is known, each
//! choose-plan decides among its alternatives by re-evaluating their cost
//! functions — and the plan adapts without re-optimization.
//!
//! This crate provides:
//!
//! * [`PlanNode`] — a physical plan operator in a shared DAG
//!   (alternatives share common subexpressions; the number of *contained*
//!   static plans grows multiplicatively while the DAG stays small).
//! * [`dag`] — DAG analytics: node counts (the paper's Figure 6 metric),
//!   contained-plan counts, choose-plan counts.
//! * [`AccessModule`] — the stored form of a plan: a compact serialized
//!   artifact plus the activation-time model (module read I/O at
//!   `plan_node_bytes / module_read_bandwidth`, catalog-validation base).
//! * [`startup`] — the start-up-time decision procedure: one
//!   cost-function evaluation per DAG node (shared nodes costed once),
//!   choose-plan picks its cheapest input, and the dynamic plan resolves
//!   to a static plan ready for execution.
//! * [`shrink`] — the paper's Section 4 self-shrinking heuristic: after a
//!   number of invocations the access module replaces itself with one
//!   containing only the alternatives actually used.

#![warn(missing_docs)]

pub mod dag;
mod dot;
mod module;
mod node;
mod pretty;
mod remaining;
pub mod shrink;
pub mod startup;
mod table;

pub use module::{AccessModule, ModuleError, ModuleStats};
pub use node::{NodeId, PlanNode, PlanNodeBuilder};
pub use dot::to_dot;
pub use pretty::render_plan;
pub use remaining::{chosen_map, next_blocking_input};
pub use startup::{
    evaluate_startup, evaluate_startup_observed, NodeEstimate, Observations, StartupDecision,
    StartupResult,
};
pub use table::{DenseId, IdTable};
