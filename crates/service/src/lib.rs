//! Prepared-query serving layer: compile at most once, execute many,
//! concurrently.
//!
//! The paper's economics only pay off when a dynamic plan is optimized
//! **once** and executed many times, each start-up paying only the cheap
//! choose-plan decision — and a dynamic plan costs about 2.3 run-time
//! optimizations, so it pays only from a statement's second binding on.
//! This crate supplies the serving layer that realizes those economics
//! under concurrent load:
//!
//! * [`PreparedRegistry`] — statements are parsed once and keyed by
//!   normalized text, LRU-bounded, with hit/miss accounting. A statement's
//!   first binding is optimized at run time; its dynamic plan is compiled
//!   once, when a second binding, a re-optimizing run or a retry needs it.
//! * **Bind-time arbitration with a decision cache** — each execution maps
//!   its exact binding (host-variable values and memory grant) to a
//!   [`decision::BindingKey`]; the start-up decision procedure runs on a
//!   binding's first visit, and a repeated binding replays the memoized
//!   resolved plan — the decision the procedure would make again — with
//!   zero cost-function evaluations.
//! * [`QueryService`] — activation is a procedure call: a session runs on
//!   the thread that asks for it, against a deterministic replica of the
//!   stored database checked out of a bounded pool for the session's
//!   duration (so I/O accounting never bleeds between sessions; replicas
//!   are generated on first use). Admission control is layered on the
//!   per-session [`dqep_executor::ResourceGovernor`]: the wait for a
//!   replica is the queue, a global [`MemoryPool`] bounds the sum of
//!   memory grants, and one deadline covers both.
//!
//! A session's start-up decision and the cost it reports depend on its
//! statement and its binding alone: no execution's observations are kept
//! on the statement. Observed cardinalities steer only the run that made
//! them, under mid-query re-optimization ([`ServiceConfig::reopt`]).

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

pub use admission::{memory_grant_pages, MemoryGrant, MemoryPool};
pub use decision::{region_key, BindingKey, CachedDecision};
pub use error::ServiceError;
pub use metrics::{
    lint_prometheus, validate_metrics_json, Hist, Histogram, HistogramSnapshot, Metric,
    MetricsRegistry, MetricsReport, SHARD_WINNER_SLOTS,
};
pub use registry::{normalize_sql, PreparedRegistry, PreparedStatement, RegistryStats};
pub use service::{
    QueryService, Request, ServiceConfig, ServiceStats, SessionHandle, SessionResult, SessionTotals,
};
pub use shard::{LinkTraffic, Shard, ShardConfig, ShardOutcome, ShardRouting, ShardedService};
