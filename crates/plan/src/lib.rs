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
//! * [`Plan`] — a plan as **one table**: physical operators in
//!   children-before-parents order, the root last, a node's id its
//!   position, children held as ids (alternatives share common
//!   subexpressions; the number of *contained* static plans grows
//!   multiplicatively while the table stays small). The optimizer appends
//!   into it while it searches, the access module is the table written
//!   field by field, and every consumer below is a loop over it. One
//!   function rewrites a plan — a compaction that keeps relative order —
//!   and ending a search, resolving, shrinking and cutting out a subplan
//!   are that function under different filters.
//! * [`dag`] — DAG analytics: node counts (the paper's Figure 6 metric),
//!   contained-plan counts, choose-plan counts.
//! * [`AccessModule`] — the stored form of a plan: the table as bytes,
//!   validated while it is read back, plus the activation-time model
//!   (module read I/O at `plan_node_bytes / module_read_bandwidth`,
//!   catalog-validation base).
//! * [`startup`] — the start-up-time decision procedure: one forward loop
//!   over the table, one cost-function evaluation per node (shared nodes
//!   costed once), choose-plan picks its cheapest input, and the dynamic
//!   plan resolves to a static plan ready for execution.
//! * [`shrink`] — the paper's Section 4 self-shrinking heuristic: after a
//!   number of invocations the access module replaces itself with one
//!   containing only the alternatives actually used.

#![warn(missing_docs)]

pub mod dag;
mod dot;
mod module;
mod plan;
mod pretty;
mod remaining;
pub mod shrink;
pub mod startup;

pub use dot::to_dot;
pub use module::{AccessModule, ModuleError, ModuleStats};
pub use plan::{NodeId, Plan, PlanNode};
pub use pretty::render_plan;
pub use remaining::next_blocking_input;
pub use startup::{
    chosen_alternative, evaluate_startup, evaluate_startup_observed, NodeEstimate, Observations,
    StartupDecision, StartupResult,
};
