//! The [`QueryService`]: session lifecycle from request to result.
//!
//! Activation is a procedure call: a session runs on the thread that asks
//! for it. What bounds concurrency is a pool of database **replicas** —
//! `workers` slots, each generated deterministically from the same
//! catalog and seed by the first session that draws it. A session checks
//! one replica out for its whole duration, so replicas are bit-identical,
//! every session's I/O is accounted on a disk no other running session
//! touches, and per-session [`dqep_executor::SharedCounters`] snapshots
//! are merged into service totals only at completion — concurrent queries
//! never bleed work into each other's accounting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dqep_catalog::Catalog;
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    run, ExecContext, ExecMode, ExecSummary, PlanCacheInfo, ReoptConfig, ReoptState,
    ResourceLimits, RootSink, SharedCounters,
};
use dqep_plan::evaluate_startup_observed;
use dqep_sql::parse_query;
use dqep_storage::{FaultPlan, StoredDatabase, ValueDistribution};

use crate::admission::{MemoryPool, Slot, SlotPool};
use crate::decision::{region_key, CachedDecision};
use crate::error::ServiceError;
use crate::metrics::{hit_rate, Hist, Metric, MetricsRegistry, MetricsReport};
use crate::registry::{normalized, PreparedRegistry, PreparedStatement, RegistryStats};

/// Service-wide tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most sessions running at once: the number of database replicas
    /// the service may hold (each generated on first use). Minimum 1.
    pub workers: usize,
    /// Prepared-statement registry capacity (LRU-evicted past this).
    pub registry_capacity: usize,
    /// Buckets per host variable in the decision-cache region key.
    pub decision_buckets: u32,
    /// Feedback tolerance: an observed root cardinality outside the
    /// estimate interval widened by this factor invalidates the
    /// statement's cached decisions.
    pub feedback_tolerance: f64,
    /// Global memory-grant pool shared by all sessions, in bytes.
    pub global_memory_bytes: u64,
    /// How long a session may wait for admission (a free replica, then
    /// its memory grant) before failing with
    /// [`ServiceError::AdmissionTimeout`].
    pub queue_timeout_ms: u64,
    /// Default per-session resource budgets (a [`Request`] may override).
    pub session_limits: ResourceLimits,
    // Compat shim for the frozen `benchmark/`, no reader in the workspace; the next `[benchmark]` PR deletes it (ROADMAP).
    #[doc(hidden)]
    pub exec_mode: ExecMode,
    /// Seed for the deterministic database replicas.
    pub data_seed: u64,
    /// Zipf exponent for stored values (`None`: uniform).
    pub skew: Option<f64>,
    /// Simulated per-page-I/O device latency, in microseconds, applied to
    /// every replica's disk. Zero disables pacing.
    pub io_latency_micros: u64,
    /// Requested intra-query parallelism per session. The DOP a session
    /// actually runs with is bounded by its admitted memory grant — see
    /// [`ServiceConfig::effective_dop`].
    pub dop: usize,
    /// Mid-query re-optimization budget. `Some`: every session runs under
    /// a [`dqep_executor::ReoptState`] — checkpoints at the pipeline
    /// breakers, bounded re-planning on cardinality escape, every start-up
    /// decision made by the run's one driver (not looked up in the
    /// decision cache) — and its escape observations feed the
    /// statement's decision cache. `None` (the default): sessions run the
    /// cached-decision fast path.
    pub reopt: Option<ReoptConfig>,
}

impl ServiceConfig {
    /// The degree of intra-query parallelism a session admitted with
    /// `memory_bytes` of grant may use: the configured `dop`, but never
    /// more than one worker thread per 16 pages of admitted grant. Tying
    /// DOP to the admission-controlled memory pool keeps `sessions × dop`
    /// from oversubscribing what admission handed out — a session that
    /// squeezed in with a tiny grant does not also get to fan out.
    #[must_use]
    pub fn effective_dop(&self, memory_bytes: u64) -> usize {
        let bytes_per_worker = 16 * dqep_storage::PAGE_SIZE as u64;
        self.dop
            .max(1)
            .min((memory_bytes / bytes_per_worker).max(1) as usize)
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            registry_capacity: 64,
            decision_buckets: 16,
            feedback_tolerance: 2.0,
            global_memory_bytes: 64 << 20,
            queue_timeout_ms: 10_000,
            session_limits: ResourceLimits::unlimited(),
            exec_mode: ExecMode::default(),
            data_seed: 42,
            skew: None,
            io_latency_micros: 0,
            dop: 1,
            reopt: None,
        }
    }
}

/// One query submission: statement text plus per-execution parameters.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// The SQL text (normalized internally for registry keying).
    pub sql: String,
    /// Host-variable bindings by name.
    pub binds: Vec<(String, i64)>,
    /// Memory grant in pages (`None`: the environment's expected grant).
    pub memory_pages: Option<f64>,
    /// Per-session budget override (`None`: the service default).
    pub limits: Option<ResourceLimits>,
    /// Storage faults to inject on this session's replica disk for the
    /// duration of the execution (testing and chaos drills).
    pub fault_plan: Option<FaultPlan>,
}

impl Request {
    /// A request with bindings and all other parameters defaulted.
    #[must_use]
    pub fn new(sql: &str, binds: &[(&str, i64)]) -> Request {
        Request {
            sql: sql.to_string(),
            binds: binds.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            ..Request::default()
        }
    }
}

/// What one completed session reports back.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Execution accounting, including plan-cache provenance.
    pub summary: ExecSummary,
    /// Predicted run time, in seconds, of the plan this session's
    /// arbitration chose: `None` when no arbitration ran in this session
    /// (a decision-cache hit replays a plan chosen for another binding).
    pub predicted_seconds: Option<f64>,
    /// Time the session waited for a replica.
    pub queue_wait: Duration,
    /// Index of the replica the session ran on (below `workers`).
    pub worker: usize,
}

/// What the successful sessions of a service added up to — the work the
/// metrics registry keeps service-wide. (A session's CPU counters and the
/// sequential/random split of its I/O stay in its own
/// [`SessionResult::summary`].)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Result rows produced.
    pub rows: u64,
    /// Pages read or written on the replicas' simulated disks.
    pub io_pages: u64,
    /// Retryable failures absorbed by fallback.
    pub fallbacks: u64,
    /// Most temp pages any one session held on disk at once.
    pub temp_pages_peak: u64,
}

/// Service-level accounting: totals across all completed sessions plus
/// cache and feedback counters — a typed view of a [`MetricsReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Accumulated work of successful sessions.
    pub totals: SessionTotals,
    /// Sessions completed successfully.
    pub completed: u64,
    /// Sessions that failed (any [`ServiceError`]).
    pub failed: u64,
    /// Executions whose start-up decision was served from the cache.
    pub decision_hits: u64,
    /// Executions that ran the full start-up decision procedure.
    pub decision_misses: u64,
    /// Cached resolved plans that failed retryably and were re-arbitrated
    /// through the full choose-plan path.
    pub cached_plan_retries: u64,
    /// Decision-cache invalidations triggered by cardinality feedback.
    pub feedback_invalidations: u64,
    /// Prepared-statement registry accounting.
    pub registry: RegistryStats,
}

impl ServiceStats {
    /// Decision-cache hits over all arbitrations, in `[0, 1]`; 1.0 when
    /// nothing was arbitrated yet.
    #[must_use]
    pub fn decision_hit_rate(&self) -> f64 {
        hit_rate(self.decision_hits, self.decision_misses)
    }
}

impl From<&MetricsReport> for ServiceStats {
    fn from(m: &MetricsReport) -> ServiceStats {
        ServiceStats {
            totals: SessionTotals {
                rows: m.get(Metric::Rows),
                io_pages: m.get(Metric::SimulatedIoPages),
                fallbacks: m.get(Metric::Fallbacks),
                temp_pages_peak: m.get(Metric::TempPagesHighWater),
            },
            completed: m.get(Metric::Completed),
            failed: m.get(Metric::Failed),
            decision_hits: m.get(Metric::DecisionHits),
            decision_misses: m.get(Metric::DecisionMisses),
            cached_plan_retries: m.get(Metric::CachedPlanRetries),
            feedback_invalidations: m.get(Metric::FeedbackInvalidations),
            registry: RegistryStats {
                hits: m.get(Metric::StatementHits),
                misses: m.get(Metric::StatementMisses),
                evictions: m.get(Metric::StatementEvictions),
                resident: m.get(Metric::StatementResident) as usize,
            },
        }
    }
}

/// A submitted session: await its result, or cancel it cooperatively.
#[derive(Debug)]
pub struct SessionHandle {
    thread: JoinHandle<Result<SessionResult, ServiceError>>,
    ctx: ExecContext,
}

impl SessionHandle {
    /// Requests cooperative cancellation; the session fails with
    /// [`dqep_executor::ExecError::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.ctx.governor.cancel();
    }

    /// Blocks until the session completes.
    ///
    /// # Errors
    /// The session's [`ServiceError`], or [`ServiceError::Shutdown`] if
    /// the session's thread died without answering.
    pub fn wait(self) -> Result<SessionResult, ServiceError> {
        self.thread.join().unwrap_or(Err(ServiceError::Shutdown))
    }
}

/// Everything a session needs of the service, shared with the thread a
/// [`QueryService::submit`] spawns.
struct Shared {
    catalog: Catalog,
    config: ServiceConfig,
    env: Environment,
    registry: PreparedRegistry,
    memory: Arc<MemoryPool>,
    metrics: MetricsRegistry,
    /// The database replicas, `workers` slots: identical (same catalog,
    /// seed, distribution), each generated by the first session to draw
    /// its slot.
    replicas: SlotPool<StoredDatabase>,
}

/// The prepared-query service. See the crate docs for the architecture.
///
/// The service owns no thread. Dropping it with [`SessionHandle`]s
/// outstanding lets those sessions finish: each holds the shared state
/// alive until it has answered.
pub struct QueryService {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("workers", &self.workers())
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl QueryService {
    /// Starts a service over `catalog`. Nothing is generated yet: each of
    /// the `workers` replica slots is filled by the first session that
    /// draws it.
    #[must_use]
    pub fn new(catalog: Catalog, config: ServiceConfig) -> QueryService {
        let shared = Shared {
            env: Environment::dynamic_compile_time(&catalog.config),
            registry: PreparedRegistry::new(config.registry_capacity),
            memory: MemoryPool::new(config.global_memory_bytes),
            metrics: MetricsRegistry::new(),
            replicas: SlotPool::new(config.workers.max(1)),
            catalog,
            config,
        };
        QueryService {
            shared: Arc::new(shared),
        }
    }

    /// The catalog the service serves.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// The configured bound on sessions running at once (replica slots).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.replicas.capacity()
    }

    /// Starts a session on a thread of its own and returns a handle to
    /// await or cancel it. The admission clock starts now: the wait for a
    /// replica counts against the configured queue timeout, and any
    /// wall-clock budget in the session's [`ResourceLimits`] covers that
    /// wait plus execution (a submission-to-completion latency bound).
    pub fn submit(&self, request: Request) -> SessionHandle {
        let (ctx, submitted) = self.shared.start(&request);
        let shared = Arc::clone(&self.shared);
        let session_ctx = ctx.clone();
        let thread = std::thread::spawn(move || shared.run(&request, &session_ctx, submitted));
        SessionHandle { thread, ctx }
    }

    /// Runs a session on the calling thread.
    ///
    /// # Errors
    /// The session's [`ServiceError`].
    pub fn execute(&self, request: Request) -> Result<SessionResult, ServiceError> {
        self.shared.execute(&request)
    }

    /// Runs the requests on `min(workers, n)` threads, each drawing the
    /// next request when it has finished its last, and returns the
    /// results in request order. A request's clock starts when it is
    /// drawn. A session that panics answers [`ServiceError::Shutdown`].
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Result<SessionResult, ServiceError>> {
        let shared = &*self.shared;
        let next = AtomicUsize::new(0);
        let answers: Vec<OnceLock<_>> = requests.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers().min(requests.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(i) else { break };
                    let answer = catch_unwind(AssertUnwindSafe(|| shared.execute(request)));
                    let _ = answers[i].set(answer.unwrap_or(Err(ServiceError::Shutdown)));
                });
            }
        });
        answers
            .into_iter()
            .map(|answer| answer.into_inner().unwrap_or(Err(ServiceError::Shutdown)))
            .collect()
    }

    /// Accounting snapshot across all sessions so far.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::from(&self.metrics())
    }

    /// Metrics snapshot: every counter and histogram of the service's
    /// registry, with the prepared-statement registry's own counters and
    /// the replica pool's size read in at this moment.
    #[must_use]
    pub fn metrics(&self) -> MetricsReport {
        let mut report = self.shared.metrics.report();
        let statements = self.shared.registry.stats();
        report.set(Metric::StatementHits, statements.hits);
        report.set(Metric::StatementMisses, statements.misses);
        report.set(Metric::StatementEvictions, statements.evictions);
        report.set(Metric::StatementResident, statements.resident as u64);
        report.set(Metric::ReplicasResident, self.shared.replicas.resident() as u64);
        report
    }
}

impl Shared {
    /// A session's execution context and the start of its clock.
    fn start(&self, request: &Request) -> (ExecContext, Instant) {
        let limits = request.limits.unwrap_or(self.config.session_limits);
        (ExecContext::with_limits(SharedCounters::new(), limits), Instant::now())
    }

    fn execute(&self, request: &Request) -> Result<SessionResult, ServiceError> {
        let (ctx, submitted) = self.start(request);
        self.run(request, &ctx, submitted)
    }

    /// A database replica, as every slot of the pool holds it.
    fn generate(&self) -> StoredDatabase {
        let dist = match self.config.skew {
            Some(exponent) => ValueDistribution::Zipf { exponent },
            None => ValueDistribution::Uniform,
        };
        let db = StoredDatabase::generate_with(&self.catalog, self.config.data_seed, dist);
        db.disk.set_io_latency_micros(self.config.io_latency_micros);
        db
    }

    /// The one way a session runs: on the calling thread, on a replica
    /// checked out for its duration, its outcome recorded in the metrics.
    fn run(
        &self,
        request: &Request,
        ctx: &ExecContext,
        submitted: Instant,
    ) -> Result<SessionResult, ServiceError> {
        let deadline = submitted + Duration::from_millis(self.config.queue_timeout_ms);
        let result = self
            .replicas
            .checkout(deadline)
            .and_then(|replica| self.session(&replica, request, ctx, deadline, submitted.elapsed()));
        let outcome = result
            .as_ref()
            .map(|r| (r.summary.rows, r.summary.fallbacks));
        self.metrics.record_query(outcome, submitted.elapsed());
        if let Ok(r) = &result {
            self.metrics
                .add(Metric::SimulatedIoPages, r.summary.io.total());
            self.metrics
                .max(Metric::TempPagesHighWater, r.summary.temp_pages_peak);
            self.metrics.observe(Hist::QueueWait, r.queue_wait);
        }
        result
    }

    fn session(
        &self,
        replica: &Slot<'_, StoredDatabase>,
        request: &Request,
        ctx: &ExecContext,
        deadline: Instant,
        queue_wait: Duration,
    ) -> Result<SessionResult, ServiceError> {
        let env = &self.env;
        let (stmt, statement_hit) = self.prepare(&request.sql)?;

        let binds: Vec<(&str, i64)> = request
            .binds
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let mut bindings = stmt.query.bindings(&binds).map_err(ServiceError::Bind)?;
        if let Some(pages) = request.memory_pages {
            bindings = bindings.with_memory(pages);
        }
        let memory_pages = bindings.memory_pages.unwrap_or_else(|| env.memory.expected());
        let memory_bytes = (memory_pages * self.catalog.config.page_size as f64) as u64;

        // Admission: the grant is held for the whole execution and
        // returned on drop (including every error path below). A
        // transient timeout gets one jittered retry, bounded by a tenth
        // of the queue timeout.
        let retry_extension = Duration::from_millis(self.config.queue_timeout_ms / 10);
        let (_grant, retried) =
            self.memory.acquire_retry(memory_bytes, deadline, retry_extension)?;
        if retried {
            self.metrics.add(Metric::AdmissionRetries, 1);
        }
        // Intra-query parallelism is rationed by the admitted grant:
        // the execution context shares the handle's counters and
        // governor (cancellation still works), only the DOP differs.
        let ctx = ctx
            .clone()
            .with_dop(self.config.effective_dop(memory_bytes));

        let db = replica.get_or_init(|| self.generate());
        if let Some(faults) = &request.fault_plan {
            db.disk.set_fault_plan(faults.clone());
        }
        let outcome = match self.config.reopt {
            // Under re-optimization the decision cache is *fed*, not
            // consulted: the run gathers its own checkpoint observations,
            // and every escape is pinned back onto the statement —
            // clearing its cached decisions so later fast-path sessions
            // arbitrate against the observed cardinalities.
            Some(reopt_config) => {
                let state = Arc::new(ReoptState::new(reopt_config));
                let ctx = ctx.with_reopt(Arc::clone(&state));
                run(&stmt.plan, db, &self.catalog, env, &bindings, &ctx, RootSink::Discard)
                    .map_err(ServiceError::Exec)
                    .map(|summary| {
                        let report = state.report();
                        self.metrics.record_reopt(&report.counters);
                        let escaped = report.escaped_observations();
                        for (node, cardinality) in &escaped {
                            stmt.observe(*node, *cardinality);
                        }
                        if !escaped.is_empty() {
                            self.metrics.add(Metric::FeedbackInvalidations, 1);
                        }
                        let predicted = state.in_force().map(|d| d.predicted_run_seconds);
                        (summary, predicted, false)
                    })
            }
            None => {
                let key = region_key(
                    &stmt.query,
                    &self.catalog,
                    &bindings,
                    self.config.decision_buckets,
                    memory_pages,
                );
                let (decision, decision_hit) = match stmt.decision(&key) {
                    Some(cached) => (cached, true),
                    None => {
                        let startup = evaluate_startup_observed(
                            &stmt.plan,
                            &self.catalog,
                            env,
                            &bindings,
                            &stmt.observations(),
                        );
                        let fresh = CachedDecision {
                            resolved: startup.resolved,
                            predicted_seconds: startup.predicted_run_seconds,
                        };
                        stmt.store_decision(key.clone(), fresh.clone());
                        (fresh, false)
                    }
                };
                let predicted = (!decision_hit).then_some(decision.predicted_seconds);
                self.execute_arbitrated(db, &ctx, &stmt, &key, &decision, &bindings)
                    .map(|summary| (summary, predicted, decision_hit))
            }
        };
        if request.fault_plan.is_some() {
            db.disk.set_fault_plan(FaultPlan::none());
        }
        let (summary, predicted_seconds, decision_hit) = outcome?;

        if stmt.record_feedback(summary.rows, self.config.feedback_tolerance) {
            self.metrics.add(Metric::FeedbackInvalidations, 1);
        }
        let decision = if decision_hit {
            Metric::DecisionHits
        } else {
            Metric::DecisionMisses
        };
        self.metrics.add(decision, 1);

        Ok(SessionResult {
            summary: ExecSummary {
                plan_cache: PlanCacheInfo {
                    statement_hit: Some(statement_hit),
                    decision_hit: Some(decision_hit),
                },
                ..summary
            },
            predicted_seconds,
            queue_wait,
            worker: replica.index(),
        })
    }

    /// Registry lookup, or parse + optimize on a miss. The double-checked
    /// insert keeps one canonical [`PreparedStatement`] per text even when
    /// two sessions prepare the same statement concurrently.
    fn prepare(&self, sql: &str) -> Result<(Arc<PreparedStatement>, bool), ServiceError> {
        let normalized = normalized(sql);
        if let Some(stmt) = self.registry.get(&normalized) {
            return Ok((stmt, true));
        }
        let query = parse_query(&normalized, &self.catalog)
            .map_err(|e| ServiceError::Sql(e.to_string()))?;
        let props = query.required_props();
        let plan = Optimizer::new(&self.catalog, &self.env)
            .optimize_with_props(&query.expr, props)
            .map_err(|e| ServiceError::Optimizer(e.to_string()))?
            .plan;
        let normalized = normalized.into_owned();
        let stmt = Arc::new(PreparedStatement::new(normalized.clone(), query, plan));
        Ok((self.registry.insert(normalized, stmt), false))
    }

    /// Runs the arbitrated resolved plan. If a *cached* plan fails
    /// retryably (a storage fault, a refused memory reservation), the
    /// memoized decision is dropped and the session re-arbitrates through
    /// the full dynamic plan — whose choose-plan operators can then fall
    /// back alternative by alternative. The retry is accounted as one
    /// fallback: a preferred plan failed and execution degraded. Both
    /// runs share the session's context, so the summary of the second
    /// carries the CPU work and fallbacks of both; its I/O and temp-page
    /// high-water are the retry's own.
    fn execute_arbitrated(
        &self,
        db: &StoredDatabase,
        ctx: &ExecContext,
        stmt: &PreparedStatement,
        key: &crate::decision::RegionKey,
        decision: &CachedDecision,
        bindings: &Bindings,
    ) -> Result<ExecSummary, ServiceError> {
        let execute = |plan| run(plan, db, &self.catalog, &self.env, bindings, ctx, RootSink::Discard);
        match execute(&decision.resolved) {
            Ok(summary) => Ok(summary),
            Err(e) if e.is_retryable() => {
                stmt.invalidate_decision(key);
                self.metrics.add(Metric::CachedPlanRetries, 1);
                ctx.counters.add_fallbacks(1);
                execute(&stmt.plan).map_err(ServiceError::Exec)
            }
            Err(e) => Err(ServiceError::Exec(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};

    fn chain_sql(n: usize) -> String {
        let from: Vec<String> = (1..=n).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> =
            (1..n).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
        preds.extend((1..=n).map(|i| format!("R{i}.a < :v{i}")));
        format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
    }

    fn service(workers: usize) -> QueryService {
        let catalog =
            make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        QueryService::new(
            catalog,
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn repeated_statement_hits_both_caches() {
        let svc = service(1);
        let sql = chain_sql(2);
        let first = svc.execute(Request::new(&sql, &[("v1", 500), ("v2", 500)])).unwrap();
        assert_eq!(first.summary.plan_cache.statement_hit, Some(false));
        assert_eq!(first.summary.plan_cache.decision_hit, Some(false));
        let second = svc.execute(Request::new(&sql, &[("v1", 510), ("v2", 505)])).unwrap();
        assert_eq!(second.summary.plan_cache.statement_hit, Some(true));
        assert_eq!(second.summary.plan_cache.decision_hit, Some(true), "nearby binding region");
        assert_eq!(first.summary.rows, svc.execute(Request::new(&sql, &[("v1", 500), ("v2", 500)])).unwrap().summary.rows);
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.registry.misses, 1);
        assert_eq!(stats.registry.hits, 2);
    }

    #[test]
    fn distant_bindings_rerun_arbitration() {
        let svc = service(1);
        let sql = chain_sql(2);
        svc.execute(Request::new(&sql, &[("v1", 50), ("v2", 50)])).unwrap();
        let far = svc.execute(Request::new(&sql, &[("v1", 950), ("v2", 950)])).unwrap();
        assert_eq!(far.summary.plan_cache.statement_hit, Some(true));
        assert_eq!(far.summary.plan_cache.decision_hit, Some(false), "different region");
    }

    #[test]
    fn parse_errors_fail_the_session_only() {
        let svc = service(1);
        let err = svc.execute(Request::new("SELECT * FROM nosuch", &[])).unwrap_err();
        assert!(matches!(err, ServiceError::Sql(_)));
        let ok = svc.execute(Request::new(&chain_sql(2), &[("v1", 100), ("v2", 100)]));
        assert!(ok.is_ok(), "service still serves after a failed session");
        let stats = svc.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn oversized_grant_is_rejected_not_queued() {
        let catalog =
            make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let svc = QueryService::new(
            catalog,
            ServiceConfig {
                workers: 1,
                global_memory_bytes: 4096,
                ..ServiceConfig::default()
            },
        );
        let mut request = Request::new(&chain_sql(2), &[("v1", 100), ("v2", 100)]);
        request.memory_pages = Some(1024.0);
        let err = svc.execute(request).unwrap_err();
        assert!(matches!(err, ServiceError::GrantTooLarge { .. }));
    }

    #[test]
    fn effective_dop_is_bounded_by_the_admitted_grant() {
        let config = ServiceConfig {
            dop: 8,
            ..ServiceConfig::default()
        };
        let page = dqep_storage::PAGE_SIZE as u64;
        assert_eq!(config.effective_dop(1024 * page), 8, "big grant: full dop");
        assert_eq!(config.effective_dop(32 * page), 2, "32 pages admit 2 workers");
        assert_eq!(config.effective_dop(page), 1, "tiny grant runs serial");
        let serial = ServiceConfig::default();
        assert_eq!(serial.effective_dop(1024 * page), 1, "dop off by default");
    }

    #[test]
    fn parallel_sessions_match_serial_results_and_accounting() {
        let sql = chain_sql(2);
        let binds = [("v1", 500i64), ("v2", 500i64)];
        let serial = service(1).execute(Request::new(&sql, &binds)).unwrap();
        let catalog =
            make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let svc = QueryService::new(
            catalog,
            ServiceConfig {
                workers: 2,
                dop: 4,
                ..ServiceConfig::default()
            },
        );
        let par = svc.execute(Request::new(&sql, &binds)).unwrap();
        assert_eq!(par.summary.rows, serial.summary.rows);
        assert_eq!(
            par.summary.cpu.records, serial.summary.cpu.records,
            "worker counters merge to the serial totals"
        );
        assert_eq!(par.summary.io.total(), serial.summary.io.total());
    }

    #[test]
    fn reopt_sessions_match_the_fast_path_and_export_counters() {
        let sql = chain_sql(2);
        let binds = [("v1", 100i64), ("v2", 900i64)];
        let mk = |reopt| {
            let catalog =
                make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
            QueryService::new(
                catalog,
                ServiceConfig {
                    workers: 1,
                    skew: Some(1.1),
                    reopt,
                    ..ServiceConfig::default()
                },
            )
        };
        let plain = mk(None).execute(Request::new(&sql, &binds)).unwrap();
        let svc = mk(Some(ReoptConfig::default()));
        let first = svc.execute(Request::new(&sql, &binds)).unwrap();
        assert_eq!(first.summary.rows, plain.summary.rows, "reopt preserves results");
        let second = svc.execute(Request::new(&sql, &binds)).unwrap();
        assert_eq!(second.summary.rows, plain.summary.rows);
        let report = svc.metrics();
        assert!(
            report.get(Metric::ReoptCheckpoints) >= 2,
            "each session observes its checkpoints: {report:?}"
        );
        let doc = dqep_executor::parse_json(&report.to_json()).unwrap();
        assert!(
            doc.get("reopt").and_then(|r| r.get("checkpoints")).is_some(),
            "reopt counters are exported"
        );
    }

    #[test]
    fn drop_drains_submitted_sessions() {
        let svc = service(2);
        let sql = chain_sql(2);
        let handles: Vec<SessionHandle> = (0..6)
            .map(|i| svc.submit(Request::new(&sql, &[("v1", 300 + i), ("v2", 400)])))
            .collect();
        drop(svc);
        for handle in handles {
            assert!(handle.wait().is_ok(), "queued sessions complete during shutdown");
        }
    }
}
