//! Volcano-style iterator execution engine.
//!
//! Executes (resolved) physical plans against a [`dqep_storage`] database:
//! file scans, B-tree scans and range probes, filters, in-memory and
//! partitioned (Grace) hash joins, merge joins, index nested-loop joins,
//! and external sort — every algorithm of the paper's physical algebra
//! (Table 1). There is **one way in**, in every mode: [`run`] compiles a
//! plan — static, dynamic or already resolved — under the caller's
//! [`ExecContext`] and drains it into the caller's [`RootSink`]. For a dynamic plan it makes
//! the Section 4 start-up decision first — **once, for the whole plan**,
//! every node's cost function evaluated once with the actual bindings —
//! and compiles along it: a choose-plan node becomes a [`ChoosePlanExec`],
//! which opens the alternative that decision picked and is the point
//! where execution falls back should it fail
//! ([`ExecSummary::startup_nodes`] counts the evaluations). A context that
//! carries a [`ReoptState`] makes the same call the checkpointing
//! re-optimization driver — blocking inputs (and the Section 7 pilot, if
//! the state names one) materialized, observed and retained before the
//! plan runs over them, one decision in force throughout.
//!
//! Execution is *simulated-time measured*: every page access is accounted
//! by the simulated disk and every record/comparison/hash by CPU counters,
//! and [`ExecSummary::simulated_seconds`] converts both with the same
//! constants the cost model uses. The end-to-end validation tests rely on
//! this: the alternative the choose-plan operator picks at start-up must
//! also be the faster one when actually executed.
//!
//! The pipeline is **fallible end to end**: `open`/`next_batch` return
//! `Result`, storage faults surface as [`ExecError::Storage`], and every
//! query runs under a [`ResourceGovernor`] enforcing its memory grant plus
//! optional row / I/O / wall-clock budgets with cooperative cancellation
//! ([`ExecContext::with_limits`]). A choose-plan whose chosen alternative fails
//! *retryably* at `open` falls back to the next alternative in cost order,
//! recording the fallback in [`ExecSummary::fallbacks`].
//!
//! There is **one execution engine and one pull method**. Operators
//! exchange [`RowBatch`]es — columns plus an optional selection vector —
//! through [`Operator::next_batch`], each asking its inputs for no more
//! rows than it was asked for; rows as owned tuples exist only at a sink
//! ([`RootSink::Rows`], which is what [`drain`] fills).

#![warn(missing_docs)]
// Runtime executor code must propagate errors, not panic: unwrap/expect
// are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// The executor is the hot path; keep the perf lint group clean.
#![deny(clippy::perf)]

mod batch;
mod choose;
mod compile;
mod error;
mod exchange;
mod exec;
mod explain;
mod filter;
mod governor;
mod hash_join;
mod index_join;
mod journal;
mod json;
mod merge_join;
mod metrics;
mod netexchange;
mod reopt;
mod scan;
mod sort;
mod trace;
mod tuple;

pub use batch::{RowBatch, RowBatchIter, BATCH_CAPACITY};
pub use choose::{compile_dynamic_plan, ChoosePlanExec};
pub use compile::{compile_plan, execute_plan_dop, run};
pub use error::{ExecError, Resource};
pub use exchange::{parallel_scan, ExchangeExec};
pub use exec::{drain, drain_root, BoxedOperator, Operator, RootSink};
pub use explain::{card_drift, cost_drift, explain_json, render_explain, validate_explain_json};
pub use governor::{ExecContext, ExecMode, ResourceGovernor, ResourceLimits};
pub use hash_join::{fold_hash_column, hash_key, join_batches, mix, HASH_SEED};
pub use json::{parse_json, At, JsonValue, JsonWriter, Kind, Scalar};
pub use journal::{
    journal, monotonic_ns, validate_journal_json, EventKind, Journal, JournalEvent,
    JOURNAL_CAPACITY, NO_ID,
};
pub use metrics::{CpuCounters, ExecSummary, PlanCacheInfo, SharedCounters};
pub use netexchange::{
    credit_frames, decode_frame, decode_frame_traced, encode_frame, encode_frame_dense,
    encode_frame_traced,
    frame_encoded_len, presized_batch, scatter_by_shard, shard_route, FrameTrace, LinkFaultPlan,
    NetChannel, NetConfig, NetStats, SimNet, FRAME_HEADER_BYTES,
};
pub use reopt::{
    escapes_interval, pick_pilot, MaterializedScanExec, ReoptConfig, ReoptCounters, ReoptEvent,
    ReoptEventKind, ReoptReport, ReoptState,
};
pub use sort::{kway_merge, sort_batches, SortExec};
pub use trace::{
    merge_distributed, AltAudit, AttemptAudit, ChooseAudit, NetSpanStats, NodeEstimate, SpanId,
    SpanRecord, SpanStats, TraceReport, TracedExec, Tracer,
};
pub use tuple::{Tuple, TupleLayout};
