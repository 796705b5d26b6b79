//! Per-query resource governance and cooperative cancellation.
//!
//! A [`ResourceGovernor`] is shared (cheaply cloned) by every operator of
//! one query. It enforces the query's memory grant — buffering operators
//! *reserve* bytes before holding rows and abort with
//! [`ExecError::ResourceExhausted`] instead of silently exceeding the
//! grant — plus optional row, I/O and wall-clock budgets, and carries a
//! cancellation flag that operators check once per produced batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{ExecError, Resource};
use crate::metrics::SharedCounters;

/// Budgets a query must stay within. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceLimits {
    /// Cap on bytes simultaneously reserved by buffering operators
    /// (sort buffers, hash tables). This is the *enforced* side of the
    /// memory grant the optimizer planned with.
    pub memory_bytes: Option<u64>,
    /// Cap on result rows produced by the query root.
    pub max_rows: Option<u64>,
    /// Cap on accounted page I/Os performed by the query.
    pub max_io: Option<u64>,
    /// Wall-clock deadline in milliseconds, measured from governor
    /// creation.
    pub wall_clock_ms: Option<u64>,
}

impl ResourceLimits {
    /// No budgets at all.
    #[must_use]
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }
}

#[derive(Debug)]
struct GovernorInner {
    limits: ResourceLimits,
    memory_used: AtomicU64,
    memory_peak: AtomicU64,
    rows: AtomicU64,
    io: AtomicU64,
    cancelled: AtomicBool,
    started: Instant,
    /// Ticks since the wall clock was last consulted; `check_batch` only
    /// calls `Instant::now` every [`CLOCK_STRIDE`] ticks.
    clock_ticks: AtomicU64,
}

/// How many rows' worth of checks elapse between wall-clock reads.
const CLOCK_STRIDE: u64 = 64;

/// Shared enforcement of one query's [`ResourceLimits`].
///
/// Clones share state; hand one clone to every operator of a query.
#[derive(Debug, Clone)]
pub struct ResourceGovernor {
    inner: Arc<GovernorInner>,
}

impl ResourceGovernor {
    /// A governor enforcing `limits`, with its wall clock starting now.
    #[must_use]
    pub fn new(limits: ResourceLimits) -> ResourceGovernor {
        ResourceGovernor {
            inner: Arc::new(GovernorInner {
                limits,
                memory_used: AtomicU64::new(0),
                memory_peak: AtomicU64::new(0),
                rows: AtomicU64::new(0),
                io: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                started: Instant::now(),
                clock_ticks: AtomicU64::new(0),
            }),
        }
    }

    /// A governor with no budgets.
    #[must_use]
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor::new(ResourceLimits::unlimited())
    }

    /// Reserves `bytes` of working memory for a buffering operator.
    ///
    /// # Errors
    /// [`ExecError::ResourceExhausted`] with [`Resource::Memory`] if the
    /// reservation would push usage past the memory limit. Nothing is
    /// reserved on failure.
    pub fn try_reserve_memory(&self, bytes: u64) -> Result<(), ExecError> {
        let used = self.inner.memory_used.fetch_add(bytes, Ordering::SeqCst) + bytes;
        if let Some(limit) = self.inner.limits.memory_bytes {
            if used > limit {
                self.inner.memory_used.fetch_sub(bytes, Ordering::SeqCst);
                return Err(ExecError::ResourceExhausted(Resource::Memory {
                    requested: bytes,
                    limit,
                }));
            }
        }
        self.inner.memory_peak.fetch_max(used, Ordering::SeqCst);
        Ok(())
    }

    /// Returns `bytes` previously reserved with [`Self::try_reserve_memory`].
    pub fn release_memory(&self, bytes: u64) {
        let prev = self.inner.memory_used.fetch_sub(bytes, Ordering::SeqCst);
        debug_assert!(prev >= bytes, "released more memory than reserved");
    }

    /// Bytes currently reserved.
    #[must_use]
    pub fn memory_used(&self) -> u64 {
        self.inner.memory_used.load(Ordering::SeqCst)
    }

    /// High-water mark of reserved bytes.
    #[must_use]
    pub fn memory_peak(&self) -> u64 {
        self.inner.memory_peak.load(Ordering::SeqCst)
    }

    /// Bytes still reservable before the limit refuses a grant, or `None`
    /// when memory is unlimited.
    #[must_use]
    pub fn memory_remaining(&self) -> Option<u64> {
        self.inner
            .limits
            .memory_bytes
            .map(|limit| limit.saturating_sub(self.inner.memory_used.load(Ordering::SeqCst)))
    }

    /// How many rows of `row_bytes` each a buffering operator should
    /// request per ingest batch: at most one row past what the memory
    /// limit can still cover (so a refused reservation trips at exactly
    /// the input row a per-row reservation would be refused for — the
    /// producer never over-produces past the first refusable row), capped
    /// at [`crate::BATCH_CAPACITY`].
    #[must_use]
    pub fn ingest_batch_rows(&self, row_bytes: usize) -> usize {
        match self.memory_remaining() {
            Some(remaining) => (remaining as usize / row_bytes.max(1))
                .saturating_add(1)
                .min(crate::batch::BATCH_CAPACITY),
            None => crate::batch::BATCH_CAPACITY,
        }
    }

    /// Charges `n` result rows against the row budget.
    ///
    /// # Errors
    /// [`ExecError::ResourceExhausted`] with [`Resource::Rows`] once the
    /// budget is exceeded.
    pub fn charge_rows(&self, n: u64) -> Result<(), ExecError> {
        let rows = self.inner.rows.fetch_add(n, Ordering::SeqCst) + n;
        if let Some(limit) = self.inner.limits.max_rows {
            if rows > limit {
                return Err(ExecError::ResourceExhausted(Resource::Rows { limit }));
            }
        }
        Ok(())
    }

    /// Charges `n` page I/Os against the I/O budget.
    ///
    /// # Errors
    /// [`ExecError::ResourceExhausted`] with [`Resource::Io`] once the
    /// budget is exceeded.
    pub fn charge_io(&self, n: u64) -> Result<(), ExecError> {
        let io = self.inner.io.fetch_add(n, Ordering::SeqCst) + n;
        if let Some(limit) = self.inner.limits.max_io {
            if io > limit {
                return Err(ExecError::ResourceExhausted(Resource::Io { limit }));
            }
        }
        Ok(())
    }

    /// Requests cooperative cancellation; operators notice at their next
    /// [`Self::check_batch`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Cancellation and deadline check for a batch of `n` rows: one
    /// cancellation read and one tick update for the whole batch. The
    /// cancellation flag is read every time; the wall clock only when the
    /// `n` ticks cross a [`CLOCK_STRIDE`] boundary, so deadline detection
    /// is as frequent *per row processed* whatever the batch size.
    ///
    /// # Errors
    /// [`ExecError::Cancelled`] after [`Self::cancel`];
    /// [`ExecError::ResourceExhausted`] with [`Resource::WallClock`] past
    /// the deadline.
    pub fn check_batch(&self, n: u64) -> Result<(), ExecError> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(ExecError::Cancelled);
        }
        if n == 0 {
            return Ok(());
        }
        if let Some(limit_ms) = self.inner.limits.wall_clock_ms {
            let start = self.inner.clock_ticks.fetch_add(n, Ordering::Relaxed);
            // Read the clock iff the window [start, start+n) contains a
            // stride boundary (tick 0 counts: the first check always reads).
            let crosses =
                start.is_multiple_of(CLOCK_STRIDE) || start % CLOCK_STRIDE + n > CLOCK_STRIDE;
            if crosses && self.inner.started.elapsed().as_millis() as u64 > limit_ms {
                return Err(ExecError::ResourceExhausted(Resource::WallClock { limit_ms }));
            }
        }
        Ok(())
    }
}

// Compat shim for the frozen `benchmark/`, no reader in the workspace; the next `[benchmark]` PR deletes it (ROADMAP).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Batch,
}

/// Everything a compiled operator needs from its query: CPU accounting
/// and resource governance (shared by clones), the degree of parallelism,
/// and the tracing and re-optimization hooks. It is also everything a
/// caller of [`crate::run`] has to say about how a plan runs.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Simulated-CPU and fallback counters for the query.
    pub counters: SharedCounters,
    /// The query's resource governor.
    pub governor: ResourceGovernor,
    /// Degree of intra-query parallelism: how many worker threads an
    /// exchange-parallel operator (morsel scan, partitioned hash join,
    /// parallel sort) may use. `1` (the default) compiles the classic
    /// serial operators; parallel workers always run their own subtrees
    /// with `dop = 1`.
    pub dop: usize,
    /// Per-operator span collector, `None` (the default) when tracing is
    /// disabled. With a tracer, [`crate::compile_plan`] opens a span per
    /// plan node and wraps its operator in a [`crate::TracedExec`]; the
    /// untraced compile path is unchanged.
    pub tracer: Option<Arc<crate::trace::Tracer>>,
    /// The span the next compiled node nests under ([`None`] at the plan
    /// root). Maintained by the compiler, not by callers.
    pub span_parent: Option<crate::trace::SpanId>,
    /// Mid-query re-optimization state, `None` (the default) when
    /// re-optimization is disabled. With state, [`crate::run`] is the
    /// checkpointing driver, [`crate::compile_plan`] substitutes retained
    /// intermediates for their plan nodes and attaches checkpoint probes
    /// to pipeline breakers, and choose-plan operators arbitrate with the
    /// checkpoint observations applied.
    pub reopt: Option<Arc<crate::reopt::ReoptState>>,
    /// The start-up decision of the plan being run — made once for the
    /// whole plan, read by every choose-plan operator compiled under this
    /// context. `None` (the default) until [`crate::run`] makes it, unless
    /// the caller hands in the one it already made
    /// ([`ExecContext::with_decision`]). Under re-optimization the
    /// decision in force lives on [`ExecContext::reopt`] instead.
    pub decision: Option<Arc<dqep_plan::StartupResult>>,
}

impl ExecContext {
    /// A context around `counters` with an unlimited governor.
    #[must_use]
    pub fn new(counters: SharedCounters) -> ExecContext {
        ExecContext::with_limits(counters, ResourceLimits::unlimited())
    }

    /// A context around `counters` enforcing `limits`.
    #[must_use]
    pub fn with_limits(counters: SharedCounters, limits: ResourceLimits) -> ExecContext {
        ExecContext {
            counters,
            governor: ResourceGovernor::new(limits),
            dop: 1,
            tracer: None,
            span_parent: None,
            reopt: None,
            decision: None,
        }
    }

    /// The same context with per-operator tracing enabled into `tracer`.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<crate::trace::Tracer>) -> ExecContext {
        self.tracer = Some(tracer);
        self
    }

    /// The same context with mid-query re-optimization enabled:
    /// [`crate::run`] checkpoints and re-arbitrates (a fresh state per
    /// run), compiled plans substitute retained intermediates, pipeline
    /// breakers fire checkpoint probes, and arbitrations apply checkpoint
    /// observations. The caller keeps its `Arc` to read the audit trail
    /// afterwards.
    #[must_use]
    pub fn with_reopt(mut self, reopt: Arc<crate::reopt::ReoptState>) -> ExecContext {
        self.reopt = Some(reopt);
        self
    }

    /// The same context carrying a start-up decision the caller already
    /// made for the plan it is about to run (the value
    /// [`dqep_plan::evaluate_startup`] returned for that same plan): the
    /// run follows it and evaluates nothing.
    #[must_use]
    pub fn with_decision(mut self, decision: Arc<dqep_plan::StartupResult>) -> ExecContext {
        self.decision = Some(decision);
        self
    }

    /// The same context with the initial span parent overridden, so a
    /// compiled subtree nests under an externally opened span (e.g. a
    /// shard's root span in a distributed trace).
    #[must_use]
    pub fn with_span_parent(mut self, parent: crate::trace::SpanId) -> ExecContext {
        self.span_parent = Some(parent);
        self
    }

    // Compat shim for the frozen `benchmark/`, no reader in the workspace; the next `[benchmark]` PR deletes it (ROADMAP).
    #[doc(hidden)]
    #[must_use]
    pub fn with_mode(self, _mode: ExecMode) -> ExecContext {
        self
    }

    /// The same context with the degree of parallelism overridden (clamped
    /// to at least 1).
    #[must_use]
    pub fn with_dop(mut self, dop: usize) -> ExecContext {
        self.dop = dop.max(1);
        self
    }

    /// A clone of this context for one exchange worker: fresh private
    /// counters (merged back by the coordinator when the worker finishes),
    /// the *shared* governor (all workers draw on the one query grant and
    /// see the same cancellation flag), and `dop = 1` so a worker's subtree
    /// never fans out again. The tracer (and span parent)
    /// carry over so a worker's subtree keeps recording spans.
    #[must_use]
    pub fn worker(&self) -> ExecContext {
        ExecContext { counters: SharedCounters::new(), dop: 1, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_reservations_enforce_the_grant() {
        let gov = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(100),
            ..ResourceLimits::default()
        });
        gov.try_reserve_memory(60).unwrap();
        gov.try_reserve_memory(40).unwrap();
        let err = gov.try_reserve_memory(1).unwrap_err();
        assert_eq!(
            err,
            ExecError::ResourceExhausted(Resource::Memory { requested: 1, limit: 100 })
        );
        assert_eq!(gov.memory_used(), 100, "failed reservation not charged");
        gov.release_memory(60);
        gov.try_reserve_memory(30).unwrap();
        assert_eq!(gov.memory_peak(), 100);
    }

    #[test]
    fn row_and_io_budgets() {
        let gov = ResourceGovernor::new(ResourceLimits {
            max_rows: Some(3),
            max_io: Some(2),
            ..ResourceLimits::default()
        });
        for _ in 0..3 {
            gov.charge_rows(1).unwrap();
        }
        assert_eq!(
            gov.charge_rows(1).unwrap_err(),
            ExecError::ResourceExhausted(Resource::Rows { limit: 3 })
        );
        gov.charge_io(2).unwrap();
        assert_eq!(
            gov.charge_io(1).unwrap_err(),
            ExecError::ResourceExhausted(Resource::Io { limit: 2 })
        );
    }

    #[test]
    fn cancellation_is_seen_by_clones() {
        let gov = ResourceGovernor::unlimited();
        let clone = gov.clone();
        assert!(clone.check_batch(1).is_ok());
        gov.cancel();
        assert!(gov.is_cancelled());
        assert_eq!(clone.check_batch(1).unwrap_err(), ExecError::Cancelled);
    }

    #[test]
    fn zero_wall_clock_deadline_trips_first_check() {
        let gov = ResourceGovernor::new(ResourceLimits {
            wall_clock_ms: Some(0),
            ..ResourceLimits::default()
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Tick 0 always reads the clock, so the very first check trips.
        assert_eq!(
            gov.check_batch(1).unwrap_err(),
            ExecError::ResourceExhausted(Resource::WallClock { limit_ms: 0 })
        );
    }

    #[test]
    fn unlimited_governor_never_objects() {
        let gov = ResourceGovernor::unlimited();
        gov.try_reserve_memory(u64::MAX / 2).unwrap();
        gov.charge_rows(1_000_000).unwrap();
        gov.charge_io(1_000_000).unwrap();
        for _ in 0..200 {
            gov.check_batch(1).unwrap();
        }
    }
}
