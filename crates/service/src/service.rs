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
    run, ExecContext, ExecMode, ExecSummary, FallbackCause, Phases, PlanCacheInfo, ReoptConfig,
    ReoptState, ResourceLimits, RootSink, RunEvent, SharedCounters, Tracer,
};
use dqep_plan::{evaluate_startup, Plan};
use dqep_sql::{parse_query, Query};
use dqep_storage::{FaultPlan, StoredDatabase, ValueDistribution};

use crate::admission::{memory_grant_pages, MemoryPool, Slot, SlotPool};
use crate::decision::{region_key, BindingKey, CachedDecision};
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
    // Compat shim for the frozen `benchmark/`, no reader in the workspace: the benchmark hands it to `region_key`, which ignores it; the next `[benchmark]` PR deletes it (ROADMAP).
    #[doc(hidden)]
    pub decision_buckets: u32,
    // Compat shim for the frozen `benchmark/`, which hands it to `record_feedback`; unread, the next `[benchmark]` PR deletes it (ROADMAP).
    #[doc(hidden)]
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
    /// decision made by the run's one driver, from the run's own
    /// observations, and neither looked up in nor stored into the
    /// decision cache. `None` (the default): sessions run the
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
        self.dop.max(1).min((memory_bytes / bytes_per_worker).max(1) as usize)
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
    /// A grant that is not finite and positive fails the session with
    /// [`ServiceError::Bind`] ([`crate::memory_grant_pages`]).
    pub memory_pages: Option<f64>,
    /// Per-session budget override (`None`: the service default).
    pub limits: Option<ResourceLimits>,
    /// Storage faults to inject on this session's replica disk for the
    /// duration of the execution (testing and chaos drills).
    pub fault_plan: Option<FaultPlan>,
    /// Trace the session into this tracer (`None`: untraced): a `Session`
    /// span, its phases end to end under it, the plan's operator spans
    /// under its `Execute` phase (DESIGN §10), and the choose-plan audits.
    pub tracer: Option<Arc<Tracer>>,
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
    /// Predicted run time, in seconds, of the plan the start-up decision
    /// chose at this session's binding — made fresh on a decision-cache
    /// miss, memoized at this very binding on a hit. `None` only under
    /// re-optimization, when the run ended with no decision in force.
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
/// cache counters — a typed view of a [`MetricsReport`].
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
    /// Dynamic plans compiled. A statement's first binding is optimized
    /// at run time; its dynamic plan is compiled when a second binding, a
    /// re-optimizing run or a retry needs it.
    pub dynamic_plan_compiles: u64,
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
            dynamic_plan_compiles: m.get(Metric::DynamicPlanCompiles),
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

/// A request's statement before it is bound: resident in the registry, or
/// parsed just now.
enum Statement {
    Resident(Arc<PreparedStatement>),
    New(Query),
}

impl Statement {
    fn query(&self) -> &Query {
        match self {
            Statement::Resident(stmt) => &stmt.query,
            Statement::New(query) => query,
        }
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
        QueryService { shared: Arc::new(shared) }
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
    /// A session's execution context — traced into the request's tracer,
    /// if it has one, under its trace id — and the start of its clock.
    fn start(&self, request: &Request) -> (ExecContext, Instant) {
        let limits = request.limits.unwrap_or(self.config.session_limits);
        let mut ctx = ExecContext::with_limits(SharedCounters::new(), limits);
        if let Some(tracer) = &request.tracer {
            ctx = ctx.with_tracer(Arc::clone(tracer));
        }
        (ctx, Instant::now())
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
        let mut phases = Phases::start(request.tracer.as_ref(), "Session");
        phases.next("Admission");
        phases.note(|| "replica".to_string());
        let result = self.replicas.checkout(deadline).and_then(|replica| {
            let queue_wait = submitted.elapsed();
            self.session(&replica, request, ctx, deadline, queue_wait, &mut phases)
        });
        let outcome = result.as_ref().map(|r| (r.summary.rows, r.summary.fallbacks));
        self.metrics.record_query(outcome, submitted.elapsed(), ctx.trace_id());
        if let Ok(r) = &result {
            self.metrics.add(Metric::SimulatedIoPages, r.summary.io.total());
            self.metrics.max(Metric::TempPagesHighWater, r.summary.temp_pages_peak);
            self.metrics.observe(Hist::QueueWait, r.queue_wait);
        }
        phases.finish();
        result
    }

    fn session(
        &self,
        replica: &Slot<'_, StoredDatabase>,
        request: &Request,
        ctx: &ExecContext,
        deadline: Instant,
        queue_wait: Duration,
        phases: &mut Phases,
    ) -> Result<SessionResult, ServiceError> {
        let env = &self.env;
        // A statement the registry does not hold is parsed here and
        // optimized only once it is bound, so a request that fails to bind
        // costs no optimization and evicts nothing.
        phases.next("Parse");
        let normalized = normalized(&request.sql);
        let statement = match self.registry.get(&normalized) {
            Some(stmt) => Statement::Resident(stmt),
            None => Statement::New(
                parse_query(&normalized, &self.catalog)
                    .map_err(|e| ServiceError::Sql(e.to_string()))?,
            ),
        };
        let statement_hit = matches!(statement, Statement::Resident(_));
        phases.note(|| if statement_hit { "registry hit" } else { "registry miss" }.to_string());
        let query = statement.query();

        phases.next("Bind");
        let binds: Vec<(&str, i64)> = request.binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let mut bindings = query.bindings(&binds).map_err(ServiceError::Bind)?;
        if let Some(pages) = request.memory_pages {
            bindings = bindings.with_memory(memory_grant_pages(pages).map_err(ServiceError::Bind)?);
        }
        let memory_pages = bindings.memory_pages.unwrap_or_else(|| env.memory.expected());
        let memory_bytes = (memory_pages * self.catalog.config.page_size as f64) as u64;
        let key = region_key(query, &self.catalog, &bindings, 0, memory_pages);

        // The statement, and on a first visit the decision made for it.
        let (stmt, first_decision) = match statement {
            Statement::Resident(stmt) => (stmt, None),
            Statement::New(query) if self.config.reopt.is_none() => {
                let (stmt, decision) = self.optimize_at(
                    normalized.into_owned(),
                    query,
                    key.clone(),
                    &bindings,
                    phases,
                )?;
                (stmt, Some(decision))
            }
            Statement::New(query) => {
                let plan = self.compile_dynamic(&query, phases)?;
                phases.next("Registry");
                phases.note(|| "insert".to_string());
                let normalized = normalized.into_owned();
                let stmt = PreparedStatement::new(normalized.clone(), query, plan);
                (self.registry.insert(normalized, Arc::new(stmt)), None)
            }
        };

        // Admission: the grant is held for the whole execution and
        // returned on drop (including every error path below). A
        // transient timeout gets one jittered retry, bounded by a tenth
        // of the queue timeout.
        phases.next("Admission");
        phases.note(|| format!("memory grant, {memory_pages} pages"));
        let retry_extension = Duration::from_millis(self.config.queue_timeout_ms / 10);
        let (_grant, retried) =
            self.memory.acquire_retry(memory_bytes, deadline, retry_extension)?;
        if retried {
            self.metrics.add(Metric::AdmissionRetries, 1);
        }
        // Intra-query parallelism is rationed by the admitted grant:
        // the execution context shares the handle's counters and
        // governor (cancellation still works), only the DOP differs.
        let mut ctx = ctx.clone().with_dop(self.config.effective_dop(memory_bytes));

        let db = replica.get_or_init(|| self.generate());
        if let Some(faults) = &request.fault_plan {
            db.disk.set_fault_plan(faults.clone());
        }
        let outcome = match self.config.reopt {
            // Under re-optimization the decision cache is bypassed: the
            // run decides from its own checkpoint observations, which
            // belong to this run alone.
            Some(reopt_config) => {
                stmt.dynamic_plan(|query| self.compile_dynamic(query, phases)).and_then(|plan| {
                    let state = Arc::new(ReoptState::new(reopt_config));
                    let mut ctx = ctx.with_reopt(Arc::clone(&state));
                    executing(phases, "re-optimizing", &mut ctx);
                    run(&plan, db, &self.catalog, env, &bindings, &ctx, RootSink::Discard)
                        .map_err(ServiceError::Exec)
                        .map(|summary| {
                            self.metrics.record_reopt(&state.counters());
                            let predicted = state.in_force().map(|d| d.predicted_run_seconds);
                            (summary, predicted, false)
                        })
                })
            }
            None => {
                let decided = match first_decision {
                    Some(fresh) => Ok((fresh, false)),
                    None => self.decide(&stmt, key, &bindings, phases),
                };
                decided.and_then(|(decision, decision_hit)| {
                    self.execute_arbitrated(db, &mut ctx, &stmt, &decision, &bindings, phases)
                        .map(|summary| (summary, Some(decision.predicted_seconds), decision_hit))
                })
            }
        };
        if request.fault_plan.is_some() {
            db.disk.set_fault_plan(FaultPlan::none());
        }
        let (summary, predicted_seconds, decision_hit) = outcome?;
        let decision = if decision_hit { Metric::DecisionHits } else { Metric::DecisionMisses };
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

    /// The decision at a binding of a resident statement, and whether the
    /// memo held it: memoized, or made by the start-up decision procedure
    /// over the statement's dynamic plan — and then memoized.
    fn decide(
        &self,
        stmt: &PreparedStatement,
        key: BindingKey,
        bindings: &Bindings,
        phases: &mut Phases,
    ) -> Result<(CachedDecision, bool), ServiceError> {
        phases.next("Decide");
        if let Some(cached) = stmt.decision(&key) {
            phases.note(|| "memo hit".to_string());
            return Ok((cached, true));
        }
        phases.note(|| "memo miss".to_string());
        let mut compiled = false;
        let plan = stmt.dynamic_plan(|query| {
            compiled = true;
            self.compile_dynamic(query, phases)
        })?;
        // A compile's `Optimize` phase interrupts this one.
        if compiled {
            phases.next("Decide");
        }
        let fresh = self.startup_decision(&plan, bindings, "memo miss", phases);
        stmt.store_decision(key, fresh.clone());
        Ok((fresh, false))
    }

    /// The start-up decision over `plan` at a binding: the resolved plan
    /// and its predicted cost. The open phase is labelled `why` and the
    /// number of plan nodes evaluated.
    fn startup_decision(
        &self,
        plan: &Plan,
        bindings: &Bindings,
        why: &str,
        phases: &Phases,
    ) -> CachedDecision {
        let startup = evaluate_startup(plan, &self.catalog, &self.env, bindings);
        phases.note(|| format!("{why}, {} nodes evaluated", startup.evaluated_nodes));
        CachedDecision {
            resolved: startup.resolved,
            predicted_seconds: startup.predicted_run_seconds,
        }
    }

    /// A statement's first visit: run-time optimization at the binding
    /// (the same optimizer, in point mode under `env.bind`), its plan's
    /// start-up cost as the decision, and the statement entered into the
    /// registry with that one decision memoized. If another session
    /// entered the statement first, the incumbent is kept and this
    /// decision is memoized on it.
    fn optimize_at(
        &self,
        normalized: String,
        query: Query,
        key: BindingKey,
        bindings: &Bindings,
        phases: &mut Phases,
    ) -> Result<(Arc<PreparedStatement>, CachedDecision), ServiceError> {
        phases.next("Optimize");
        let bound = self.env.bind(bindings);
        let plan = optimize(&self.catalog, &bound, &query, "point", phases)?;
        phases.next("Decide");
        let decision = self.startup_decision(&plan, bindings, "first visit", phases);
        phases.next("Registry");
        phases.note(|| "insert".to_string());
        let ours = Arc::new(PreparedStatement::at_binding(
            normalized.clone(),
            query,
            key.clone(),
            decision.clone(),
        ));
        let stmt = self.registry.insert(normalized, Arc::clone(&ours));
        if !Arc::ptr_eq(&stmt, &ours) {
            stmt.store_decision(key, decision.clone());
        }
        Ok((stmt, decision))
    }

    /// Compiles a statement's dynamic plan, at the expected memory grant,
    /// in an `Optimize` phase of its own.
    fn compile_dynamic(
        &self,
        query: &Query,
        phases: &mut Phases,
    ) -> Result<Arc<Plan>, ServiceError> {
        self.metrics.add(Metric::DynamicPlanCompiles, 1);
        phases.next("Optimize");
        optimize(&self.catalog, &self.env, query, "dynamic", phases)
    }

    /// Runs the arbitrated resolved plan. If it fails retryably (a
    /// storage fault, a refused memory reservation), the session
    /// re-arbitrates through the full dynamic plan — compiled now if the
    /// statement was seen at one binding only — whose choose-plan
    /// operators can then fall back alternative by alternative. The
    /// memoized decision stays: it depends on the binding alone, and the
    /// failure was the run's, not the decision's. The retry is accounted
    /// as one fallback: a preferred plan failed and execution degraded. Both
    /// runs share the session's context, so the summary of the second
    /// carries the CPU work and fallbacks of both; its I/O and temp-page
    /// high-water are the retry's own.
    fn execute_arbitrated(
        &self,
        db: &StoredDatabase,
        ctx: &mut ExecContext,
        stmt: &PreparedStatement,
        decision: &CachedDecision,
        bindings: &Bindings,
        phases: &mut Phases,
    ) -> Result<ExecSummary, ServiceError> {
        let execute = |plan, ctx: &ExecContext| {
            run(plan, db, &self.catalog, &self.env, bindings, ctx, RootSink::Discard)
        };
        executing(phases, "resolved", ctx);
        match execute(&decision.resolved, ctx) {
            Ok(summary) => Ok(summary),
            Err(e) if e.is_retryable() => {
                self.metrics.add(Metric::CachedPlanRetries, 1);
                ctx.record(RunEvent::Fallback(FallbackCause::ResolvedPlanRetry));
                let plan = stmt.dynamic_plan(|query| self.compile_dynamic(query, phases))?;
                executing(phases, "retry", ctx);
                execute(&plan, ctx).map_err(ServiceError::Exec)
            }
            Err(e) => Err(ServiceError::Exec(e)),
        }
    }
}

/// Optimizes `query` under `env` — at a binding (`point`) or over the
/// parameter space (`dynamic`) — in the open phase, whose children are the
/// optimizer's own explore, search and finish clocks.
fn optimize(
    catalog: &Catalog,
    env: &Environment,
    query: &Query,
    mode: &'static str,
    phases: &Phases,
) -> Result<Arc<Plan>, ServiceError> {
    let optimized = Optimizer::new(catalog, env)
        .optimize_with_props(&query.expr, query.required_props())
        .map_err(|e| ServiceError::Optimizer(e.to_string()))?;
    let s = optimized.stats;
    phases.note(|| format!("{mode}, {} plan nodes", s.plan_nodes));
    phases.parts(|| {
        [
            ("Explore", s.explore_seconds),
            ("Search", s.search_seconds - s.finish_seconds),
            ("Finish", s.finish_seconds),
        ]
    });
    Ok(optimized.plan)
}

/// Opens an `Execute` phase (labelled `what`), under which `ctx` then
/// compiles the plan's operator spans.
fn executing(phases: &mut Phases, what: &'static str, ctx: &mut ExecContext) {
    if let Some(span) = phases.next("Execute") {
        phases.note(|| what.to_string());
        ctx.span_parent = Some(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};

    fn chain_sql(n: usize) -> String {
        let from: Vec<String> = (1..=n).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> = (1..n).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
        preds.extend((1..=n).map(|i| format!("R{i}.a < :v{i}")));
        format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
    }

    /// A statement naming a relation past the 64 a query can span is a
    /// SQL error, and the service goes on serving.
    #[test]
    fn a_relation_past_the_limit_is_refused_and_the_service_serves_on() {
        let catalog = (0..65)
            .fold(dqep_catalog::CatalogBuilder::new(SystemConfig::paper_1994()), |b, i| {
                b.relation(&format!("t{i}"), 10, 64, |r| r.attr("a", 10.0))
            })
            .build()
            .unwrap();
        let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        let svc = QueryService::new(catalog, config);
        let refused = svc.execute(Request::new("SELECT * FROM t64 WHERE t64.a < :x", &[("x", 5)]));
        assert!(
            matches!(&refused, Err(ServiceError::Sql(e)) if e.contains("at most 64 relations")),
            "{refused:?}"
        );
        let served = svc.execute(Request::new("SELECT * FROM t0 WHERE t0.a < :x", &[("x", 5)]));
        assert!(served.is_ok(), "{served:?}");
    }

    fn service(workers: usize) -> QueryService {
        let catalog = make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        QueryService::new(catalog, ServiceConfig { workers, ..ServiceConfig::default() })
    }

    #[test]
    fn the_same_binding_hits_and_any_other_misses() {
        let svc = service(1);
        let sql = chain_sql(2);
        let at = |v1, v2, memory: Option<f64>| {
            let mut request = Request::new(&sql, &[("v1", v1), ("v2", v2)]);
            request.memory_pages = memory;
            svc.execute(request).unwrap()
        };
        let first = at(500, 500, None);
        assert_eq!(first.summary.plan_cache.statement_hit, Some(false));
        assert_eq!(first.summary.plan_cache.decision_hit, Some(false));
        let again = at(500, 500, None);
        assert_eq!(again.summary.plan_cache.statement_hit, Some(true));
        assert_eq!(again.summary.plan_cache.decision_hit, Some(true), "the same binding");
        assert_eq!(again.summary.rows, first.summary.rows);
        let others = [(501, 500, None), (500, 499, None), (950, 950, None), (500, 500, Some(65.0))];
        for (v1, v2, memory) in others {
            let other = at(v1, v2, memory);
            assert_eq!(other.summary.plan_cache.statement_hit, Some(true));
            assert_eq!(
                other.summary.plan_cache.decision_hit,
                Some(false),
                "({v1}, {v2}) at {memory:?} pages is another binding"
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 6);
        assert_eq!((stats.decision_hits, stats.decision_misses), (1, 5));
        assert_eq!(stats.registry.misses, 1);
        assert_eq!(stats.registry.hits, 5);
    }

    #[test]
    fn the_decision_memo_stays_bounded_and_every_answer_stays_exact() {
        use crate::registry::DECISION_MEMO_CAPACITY;
        let svc = service(1);
        let sql = chain_sql(2);
        let at = |i: usize| {
            let v1 = 13 * i as i64;
            svc.execute(Request::new(&sql, &[("v1", v1), ("v2", 700)])).unwrap()
        };
        let bindings = DECISION_MEMO_CAPACITY + 8;
        let firsts: Vec<SessionResult> = (0..bindings).map(at).collect();
        let stmt = svc.shared.registry.get(&sql).unwrap();
        assert!(stmt.decisions_memoized() <= DECISION_MEMO_CAPACITY);
        // Every binding answers as its first session did, whether its
        // decision is still memoized (the last ones, a hit each) or was
        // cleared with a full memo (a miss that decides again).
        for (i, first) in firsts.iter().enumerate().rev() {
            let answer = at(i);
            assert_eq!(answer.summary.rows, first.summary.rows, "binding {i}");
            assert_eq!(answer.summary.io, first.summary.io, "binding {i}");
            assert_eq!(
                answer.predicted_seconds.map(f64::to_bits),
                first.predicted_seconds.map(f64::to_bits),
                "binding {i}"
            );
            assert!(stmt.decisions_memoized() <= DECISION_MEMO_CAPACITY);
        }
        let stats = svc.stats();
        assert_eq!(stats.decision_hits, 8, "the memo's last eight bindings");
        assert_eq!(stats.decision_misses, 2 * bindings as u64 - 8);
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
        let catalog = make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let svc = QueryService::new(
            catalog,
            ServiceConfig { workers: 1, global_memory_bytes: 4096, ..ServiceConfig::default() },
        );
        let mut request = Request::new(&chain_sql(2), &[("v1", 100), ("v2", 100)]);
        request.memory_pages = Some(1024.0);
        let err = svc.execute(request).unwrap_err();
        assert!(matches!(err, ServiceError::GrantTooLarge { .. }));
    }

    #[test]
    fn effective_dop_is_bounded_by_the_admitted_grant() {
        let config = ServiceConfig { dop: 8, ..ServiceConfig::default() };
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
        let catalog = make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let svc = QueryService::new(
            catalog,
            ServiceConfig { workers: 2, dop: 4, ..ServiceConfig::default() },
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
                ServiceConfig { workers: 1, skew: Some(1.1), reopt, ..ServiceConfig::default() },
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
