//! # dqep — Dynamic Query Evaluation Plans
//!
//! A from-scratch Rust implementation of **dynamic query evaluation
//! plans**: query plans, generated entirely at compile-time, that contain
//! alternative subplans linked by **choose-plan** operators and adapt at
//! start-up-time to the actual host-variable bindings and resource
//! availability.
//!
//! The system reproduces the line of work of *Dynamic Query Evaluation
//! Plans* (Graefe & Ward, SIGMOD 1989), which introduced the choose-plan
//! run-time primitive, and *Optimization of Dynamic Query Evaluation
//! Plans* (Cole & Graefe, SIGMOD 1994), which contributed the compile-time
//! optimizer — interval costs, cost incomparability, partially ordered
//! dynamic programming — and whose evaluation (Figures 3–8) the bundled
//! experiment harness regenerates.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`interval`] | `dqep-interval` | Interval arithmetic, 4-valued cost comparison |
//! | [`catalog`] | `dqep-catalog` | Schemas, statistics, indexes, system constants |
//! | [`algebra`] | `dqep-algebra` | Logical & physical algebra (paper Table 1) |
//! | [`cost`] | `dqep-cost` | Interval cost model & per-algorithm cost functions |
//! | [`optimizer`] | `dqep-core` | The dynamic-plan optimizer (memo, rules, frontiers) |
//! | [`plan`] | `dqep-plan` | The plan table, access modules, start-up evaluation, shrinking |
//! | [`storage`] | `dqep-storage` | Simulated disk, heap files, B-trees, buffer pool |
//! | [`executor`] | `dqep-executor` | Volcano iterators incl. run-time choose-plan; one start-up decision per run |
//! | [`harness`] | `dqep-harness` | The paper's five queries & figure experiments |
//! | [`sql`] | `dqep-sql` | Embedded-SQL parser (`SELECT … WHERE a < :x`) |
//! | [`service`] | `dqep-service` | Prepared-statement registry, decision cache, concurrent sessions |
//!
//! ## Quickstart
//!
//! ```
//! use dqep::algebra::{CompareOp, HostVar, LogicalExpr, SelectPred};
//! use dqep::catalog::{CatalogBuilder, SystemConfig};
//! use dqep::cost::{Bindings, Environment};
//! use dqep::optimizer::Optimizer;
//! use dqep::plan::evaluate_startup;
//!
//! // A relation with an unclustered B-tree on `a`.
//! let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
//!     .relation("orders", 1_000, 512, |r| r.attr("a", 1_000.0).btree("a", false))
//!     .build()
//!     .unwrap();
//! let orders = catalog.relation_by_name("orders").unwrap();
//!
//! // SELECT * FROM orders WHERE a < :x — selectivity unknown at compile-time.
//! let query = LogicalExpr::get(orders.id).select(SelectPred::unbound(
//!     orders.attr_id("a").unwrap(),
//!     CompareOp::Lt,
//!     HostVar(0),
//! ));
//!
//! // Compile-time: optimize once into a dynamic plan.
//! let env = Environment::dynamic_compile_time(&catalog.config);
//! let dynamic_plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
//! assert!(dynamic_plan.is_dynamic());
//!
//! // Start-up-time: bind :x, evaluate every node's cost function once,
//! // pick a plan.
//! let bindings = Bindings::new().with_value(HostVar(0), 5); // selective
//! let chosen = evaluate_startup(&dynamic_plan, &catalog, &env, &bindings);
//! assert_eq!(chosen.evaluated_nodes, dynamic_plan.len());
//! assert!(!chosen.resolved.is_dynamic());
//!
//! // The stored form of a plan is the plan: an access module round-trips
//! // the table field for field.
//! use dqep::plan::AccessModule;
//! let image = AccessModule::new(dynamic_plan.clone()).serialize();
//! assert_eq!(AccessModule::deserialize(image).unwrap().plan(), &dynamic_plan);
//! ```

#![warn(missing_docs)]

pub mod error;

pub use error::DqepError;

/// Interval arithmetic and partial cost ordering (re-export of
/// `dqep-interval`).
pub mod interval {
    pub use dqep_interval::*;
}

/// Catalog, statistics, and system configuration (re-export of
/// `dqep-catalog`).
pub mod catalog {
    pub use dqep_catalog::*;
}

/// Logical and physical algebra (re-export of `dqep-algebra`).
pub mod algebra {
    pub use dqep_algebra::*;
}

/// The interval cost model (re-export of `dqep-cost`).
pub mod cost {
    pub use dqep_cost::*;
}

/// The dynamic-plan optimizer (re-export of `dqep-core`).
pub mod optimizer {
    pub use dqep_core::*;
}

/// The plan table, access modules, and start-up evaluation (re-export of
/// `dqep-plan`).
pub mod plan {
    pub use dqep_plan::*;
}

/// Storage substrate (re-export of `dqep-storage`).
pub mod storage {
    pub use dqep_storage::*;
}

/// Execution engine (re-export of `dqep-executor`).
pub mod executor {
    pub use dqep_executor::*;
}

/// Experiment harness (re-export of `dqep-harness`).
pub mod harness {
    pub use dqep_harness::*;
}

/// Embedded-SQL front end (re-export of `dqep-sql`).
pub mod sql {
    pub use dqep_sql::*;
}

/// Prepared-query serving layer: statement registry, bind-time decision
/// cache, concurrent sessions with admission control (re-export of
/// `dqep-service`).
pub mod service {
    pub use dqep_service::*;
}
