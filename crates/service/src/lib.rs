//! Prepared-query serving layer: compile once, execute many, concurrently.
//!
//! The paper's economics only pay off when a dynamic plan is optimized
//! **once** and executed many times, each start-up paying only the cheap
//! choose-plan decision. This crate supplies the serving layer that
//! realizes those economics under concurrent load:
//!
//! * [`PreparedRegistry`] — statements are parsed and optimized once into
//!   a dynamic plan, keyed by normalized text, LRU-bounded, with hit/miss
//!   accounting.
//! * **Bind-time arbitration with a decision cache** — each execution maps
//!   its host-variable bindings to a coarse [`decision::RegionKey`]; the
//!   start-up decision procedure runs only on a region's first visit, and
//!   hot parameter ranges replay the memoized resolved plan with zero
//!   cost-function evaluations.
//! * [`QueryService`] — activation is a procedure call: a session runs on
//!   the thread that asks for it, against a deterministic replica of the
//!   stored database checked out of a bounded pool for the session's
//!   duration (so I/O accounting never bleeds between sessions; replicas
//!   are generated on first use). Admission control is layered on the
//!   per-session [`dqep_executor::ResourceGovernor`]: the wait for a
//!   replica is the queue, a global [`MemoryPool`] bounds the sum of
//!   memory grants, and one deadline covers both.
//! * **Cardinality feedback** — every completed execution reports its
//!   observed result cardinality back to its statement; an observation
//!   outside the plan's estimate interval invalidates the decision cache
//!   and later arbitrations re-optimize through
//!   [`dqep_plan::evaluate_startup_observed`].

#![warn(missing_docs)]
// Serving-layer code must propagate errors, not panic: unwrap/expect are
// reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::perf)]

pub mod admission;
pub mod decision;
mod error;
mod metrics;
pub mod registry;
mod service;
pub mod shard;

pub use admission::{MemoryGrant, MemoryPool};
pub use decision::{region_key, CachedDecision, RegionKey};
pub use error::ServiceError;
pub use metrics::{
    lint_prometheus, validate_metrics_json, Hist, Histogram, HistogramSnapshot, Metric,
    MetricsRegistry, MetricsReport, SHARD_WINNER_SLOTS,
};
pub use registry::{normalize_sql, PreparedRegistry, PreparedStatement, RegistryStats};
pub use service::{
    QueryService, Request, ServiceConfig, ServiceStats, SessionHandle, SessionResult,
    SessionTotals,
};
pub use shard::{LinkTraffic, Shard, ShardConfig, ShardOutcome, ShardRouting, ShardedService};
