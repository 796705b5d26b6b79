//! Mid-query adaptive re-optimization: runtime checkpoints, bounded
//! re-planning, and graceful degradation under drift and memory pressure.
//!
//! Start-up-time arbitration (the paper's choose-plan decision) is only
//! as good as its compile-time intervals. When the data is skewed or the
//! estimates drift, a running query discovers the truth at its **pipeline
//! breakers** — the build side of a hash join, the input of a sort, an
//! exchange's worker join — where an entire intermediate result is
//! materialized and its actual cardinality is known exactly.
//!
//! [`crate::run`] under a context that carries a [`ReoptState`]
//! ([`ExecContext::with_reopt`]) closes the loop the EXPLAIN ANALYZE drift
//! detector only observes:
//!
//! 1. **Checkpoints.** Blocking inputs along the arbitrated path are
//!    materialized deepest-first ([`dqep_plan::next_blocking_input`]).
//!    Each materialization is a checkpoint: the observed cardinality is
//!    compared against the bind-time interval (with the same slack the
//!    drift detector uses). The paper's Section 7 pilot — "evaluating
//!    subplans as part of choose-plan decision procedures" — is the same
//!    loop told which subplan to observe first
//!    ([`ReoptState::observing_first`], [`pick_pilot`]).
//! 2. **Bounded re-planning.** On escape, the *remaining* plan is
//!    re-arbitrated via [`dqep_plan::evaluate_startup_observed`] with the
//!    observation applied — under a per-query re-optimization budget (max
//!    re-plans, a wall-clock cap) enforced with the [`ResourceGovernor`],
//!    so recovery can never cost more than the misestimate it fixes.
//! 3. **No repeated work.** Retained intermediates are substituted into
//!    the re-planned execution as [`MaterializedScanExec`] leaves, keyed
//!    by original plan-node id — the build table that triggered the
//!    re-plan is never recomputed (verifiable by I/O counters).
//! 4. **Graceful degradation.** A governor refusal to retain an
//!    intermediate degrades the memory grant the re-arbitration plans
//!    with (steering toward the cheapest-memory alternatives) instead of
//!    failing the query; a retryable failure *during* a checkpoint or of
//!    a re-planned run falls back to continuing the original plan
//!    (observations suppressed); only then does a governed failure
//!    surface. The ladder: re-plan → cheaper alternative → original plan
//!    → governed failure.
//!
//! Every step is recorded as a [`ReoptEvent`] in the [`ReoptReport`],
//! rendered by EXPLAIN ANALYZE and exported by the service metrics. The
//! state is the switch and the output, as a [`crate::Tracer`] is: the
//! caller keeps the `Arc` it attached and reads [`ReoptState::report`],
//! [`ReoptState::in_force`] and [`ReoptState::checkpoint_cost`] off it once
//! `run` has returned.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_interval::Interval;
use dqep_plan::{next_blocking_input, NodeId, Observations, Plan, StartupResult};
use dqep_storage::StoredDatabase;
use parking_lot::Mutex;

use crate::batch::{BatchCursor, RowBatch};
use crate::compile::run_once;
use crate::error::ExecError;
use crate::exec::{drain_root, Operator, RootSink};
use crate::governor::{ExecContext, ResourceGovernor};
use crate::metrics::ExecSummary;
use crate::tuple::TupleLayout;

/// The per-query re-optimization budget.
#[derive(Debug, Clone, Copy)]
pub struct ReoptConfig {
    /// Maximum re-plans adopted per query.
    pub max_replans: u32,
    /// Wall-clock cap on the whole re-optimization machinery, measured
    /// from query start: past this, re-plan requests are denied and the
    /// current plan runs to completion.
    pub wall_clock_ms: u64,
}

impl Default for ReoptConfig {
    fn default() -> ReoptConfig {
        ReoptConfig {
            max_replans: 2,
            wall_clock_ms: 10_000,
        }
    }
}

/// What happened at one step of the re-optimization machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptEventKind {
    /// A pipeline breaker completed and its cardinality was observed.
    Checkpoint,
    /// A checkpoint observation escaped its compile-time interval.
    Escape,
    /// The remaining plan was re-arbitrated with observations applied.
    Replan,
    /// A re-plan request was denied by the budget.
    ReplanDenied,
    /// A checkpoint or re-plan failed; the original plan continues.
    ReplanFailed,
    /// The governor refused to retain an intermediate; the memory grant
    /// the re-arbitration plans with was degraded instead.
    MemoryDegrade,
    /// A choose-plan operator arbitrated with checkpoint observations.
    Arbitration,
    /// A re-planned run failed and execution reverted to the original
    /// arbitration.
    Fallback,
}

impl ReoptEventKind {
    /// Stable lowercase label (JSON key and rendering).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReoptEventKind::Checkpoint => "checkpoint",
            ReoptEventKind::Escape => "escape",
            ReoptEventKind::Replan => "replan",
            ReoptEventKind::ReplanDenied => "replan-denied",
            ReoptEventKind::ReplanFailed => "replan-failed",
            ReoptEventKind::MemoryDegrade => "memory-degrade",
            ReoptEventKind::Arbitration => "arbitration",
            ReoptEventKind::Fallback => "fallback",
        }
    }
}

/// One audit-trail entry of the re-optimization machinery.
#[derive(Debug, Clone)]
pub struct ReoptEvent {
    /// What happened.
    pub kind: ReoptEventKind,
    /// The plan node concerned, when the event is node-specific.
    pub node: Option<NodeId>,
    /// The compile-time cardinality interval, for checkpoint/escape
    /// events.
    pub estimate: Option<(f64, f64)>,
    /// The observed cardinality, for checkpoint/escape events.
    pub observed: Option<f64>,
    /// Human-readable context.
    pub detail: String,
}

/// Counter totals across one query's re-optimization machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReoptCounters {
    /// Pipeline-breaker checkpoints observed.
    pub checkpoints: u64,
    /// Checkpoint observations that escaped their interval.
    pub escapes: u64,
    /// Re-plans requested (granted or not).
    pub replans_attempted: u64,
    /// Re-plans granted and adopted.
    pub replans_adopted: u64,
    /// Re-plan requests denied by the budget.
    pub replans_denied: u64,
    /// Checkpoints or re-plans that failed retryably (original plan
    /// continued).
    pub replan_failures: u64,
    /// Governor refusals absorbed by degrading the planning memory grant.
    pub memory_degradations: u64,
    /// Choose-plan arbitrations that applied checkpoint observations.
    pub observed_arbitrations: u64,
    /// Re-planned runs that reverted to the original arbitration.
    pub fallbacks: u64,
}

/// The re-optimization audit trail of one query: every event plus the
/// counter totals. Attached to [`TraceReport`] and rendered by EXPLAIN
/// ANALYZE.
#[derive(Debug, Clone, Default)]
pub struct ReoptReport {
    /// Events in occurrence order.
    pub events: Vec<ReoptEvent>,
    /// Counter totals.
    pub counters: ReoptCounters,
}

impl ReoptReport {
    /// The escape observations as `(node, observed)` pairs — the feed for
    /// the service decision cache. Empty when execution fell back to the
    /// original arbitration: a reverted run proved nothing about which
    /// alternative the observations should steer future sessions toward.
    #[must_use]
    pub fn escaped_observations(&self) -> Vec<(NodeId, f64)> {
        if self.counters.fallbacks > 0 {
            return Vec::new();
        }
        self.events
            .iter()
            .filter(|e| e.kind == ReoptEventKind::Escape)
            .filter_map(|e| Some((e.node?, e.observed?)))
            .collect()
    }
}

#[derive(Debug, Default)]
struct ReoptInner {
    events: Vec<ReoptEvent>,
    counters: ReoptCounters,
    /// Re-plans granted so far (budget consumption).
    attempts: u32,
    observations: Observations,
    /// Set when execution reverted to the original plan: the getter then
    /// serves no observations, so arbitrations reproduce the original
    /// decisions.
    suppressed: bool,
    materialized: Vec<(NodeId, TupleLayout, Arc<Vec<RowBatch>>)>,
    reserved_bytes: u64,
    /// Bumped whenever the observations in force change (a checkpoint
    /// observed, the observations suppressed).
    version: u64,
    /// The start-up decision in force and the `version` it was made at.
    decision: Option<(u64, Arc<StartupResult>)>,
    /// The subplan to observe before any blocking input, if the caller
    /// named one; taken by the run this state drives.
    first_target: Option<NodeId>,
    /// Set by the run this state drives: a state holds one query's
    /// observations and budget and is not reused for a second.
    driven: bool,
    /// What the checkpoint materializations cost (rows, CPU, I/O).
    checkpoint_cost: ExecSummary,
}

impl ReoptInner {
    fn decide(
        &mut self,
        evaluate: impl FnOnce(&Observations) -> StartupResult,
    ) -> Arc<StartupResult> {
        let decision = Arc::new(if self.suppressed {
            evaluate(&Observations::new())
        } else {
            evaluate(&self.observations)
        });
        self.decision = Some((self.version, Arc::clone(&decision)));
        decision
    }

    /// Appends an audit-trail entry that carries no estimate.
    fn log(&mut self, kind: ReoptEventKind, node: Option<NodeId>, detail: String) {
        self.events.push(ReoptEvent { kind, node, estimate: None, observed: None, detail });
    }
}

/// Records a node-level step in the flight-recorder journal.
fn journal(kind: crate::journal::EventKind, node: NodeId, a: u64, b: u64) {
    crate::journal::journal().record(kind, 0, crate::journal::NO_ID, u64::from(node.0), a, b);
}

/// Shared state of one query's re-optimization machinery: checkpoint
/// observations, retained intermediates, the re-plan budget, the start-up
/// decision in force, and the audit trail. Carried on
/// [`ExecContext::reopt`] and shared by the driver, the compiler hooks,
/// the choose-plan operators and the operator probes.
#[derive(Debug)]
pub struct ReoptState {
    config: ReoptConfig,
    started: Instant,
    inner: Mutex<ReoptInner>,
}

/// Whether an observed cardinality falls outside a bind-time interval —
/// the trigger of mid-query re-optimization. Same escape semantics as the EXPLAIN ANALYZE
/// cardinality drift check: absolute slack of half a row (rounding) plus
/// a hair of relative slack.
#[must_use]
pub fn escapes_interval(actual: f64, card: Interval) -> bool {
    let slack = 0.5 + 1e-9 * card.hi().abs().max(1.0);
    actual < card.lo() - slack || actual > card.hi() + slack
}

impl ReoptState {
    /// Fresh state under `config`, with the wall clock starting now.
    #[must_use]
    pub fn new(config: ReoptConfig) -> ReoptState {
        ReoptState {
            config,
            started: Instant::now(),
            inner: Mutex::new(ReoptInner::default()),
        }
    }

    /// The same state told which subplan to observe first: the run
    /// materializes `target` — whatever kind of node it is — before the
    /// first blocking input, observes it and retains it like any other
    /// checkpoint, and goes on from there. `None` changes nothing.
    /// [`pick_pilot`] picks the paper's Section 7 pilot.
    #[must_use]
    pub fn observing_first(mut self, target: Option<NodeId>) -> ReoptState {
        self.inner.get_mut().first_target = target;
        self
    }

    /// Claims the state for the run it drives and hands out the first
    /// target. A second claim is refused: the observations, retained
    /// intermediates and spent budget of one query must not leak into
    /// another.
    fn begin(&self) -> Result<Option<NodeId>, ExecError> {
        let mut inner = self.inner.lock();
        if std::mem::replace(&mut inner.driven, true) {
            return Err(ExecError::Internal(
                "a re-optimization state drives one run; this one already has".into(),
            ));
        }
        Ok(inner.first_target.take())
    }

    /// Makes the start-up decision anew — `evaluate` runs the decision
    /// procedure for the whole plan under the observations in force — and
    /// puts it in force for every run launched from here on. The driver's
    /// arbitration.
    pub(crate) fn decide(
        &self,
        evaluate: impl FnOnce(&Observations) -> StartupResult,
    ) -> Arc<StartupResult> {
        self.inner.lock().decide(evaluate)
    }

    /// The start-up decision in force, for the choose-plan operator of
    /// `node` being opened: the one last made, unless a probe has recorded
    /// a newer observation since — then it is re-made, once, and shared by
    /// every later `open` (at most one evaluation per observation). An
    /// arbitration that has observations to apply is put on the audit
    /// trail.
    pub(crate) fn decision(
        &self,
        node: NodeId,
        evaluate: impl FnOnce(&Observations) -> StartupResult,
    ) -> Arc<StartupResult> {
        let mut inner = self.inner.lock();
        let observed = if inner.suppressed { 0 } else { inner.observations.len() };
        if observed > 0 {
            inner.counters.observed_arbitrations += 1;
            let detail = format!("arbitrated with {observed} checkpoint observation(s)");
            inner.log(ReoptEventKind::Arbitration, Some(node), detail);
        }
        match &inner.decision {
            Some((version, decision)) if *version == inner.version => Arc::clone(decision),
            _ => inner.decide(evaluate),
        }
    }

    /// The start-up decision last put in force, whatever has been observed
    /// since — after a run, the arbitration it completed under (the
    /// original one if the query fell back). `None` before a run.
    #[must_use]
    pub fn in_force(&self) -> Option<Arc<StartupResult>> {
        self.inner.lock().decision.as_ref().map(|(_, decision)| Arc::clone(decision))
    }

    /// Records a checkpoint: `actual` rows observed at `node`, whose
    /// compile-time estimate was `card`. Returns whether the observation
    /// escaped the interval (an [`ReoptEventKind::Escape`] event).
    pub fn observe_checkpoint(
        &self,
        node: NodeId,
        label: &str,
        card: Interval,
        actual: u64,
    ) -> bool {
        let escaped = escapes_interval(actual as f64, card);
        let event = |kind, detail| ReoptEvent {
            kind,
            node: Some(node),
            estimate: Some((card.lo(), card.hi())),
            observed: Some(actual as f64),
            detail,
        };
        let mut inner = self.inner.lock();
        inner.counters.checkpoints += 1;
        inner.events.push(event(ReoptEventKind::Checkpoint, label.to_string()));
        inner.observations.insert(node, actual as f64);
        inner.version += 1;
        if escaped {
            inner.counters.escapes += 1;
            let (lo, hi) = (card.lo(), card.hi());
            let detail = format!("{label}: observed {actual} outside [{lo:.0}, {hi:.0}]");
            inner.events.push(event(ReoptEventKind::Escape, detail));
            journal(crate::journal::EventKind::IntervalEscape, node, actual, hi as u64);
        }
        escaped
    }

    /// Requests one re-plan against the budget. Grants consume an attempt;
    /// denials (budget exhausted, wall cap passed, or the governor
    /// objecting) record a [`ReoptEventKind::ReplanDenied`] event.
    pub fn request_replan(&self, governor: &ResourceGovernor) -> bool {
        let mut inner = self.inner.lock();
        inner.counters.replans_attempted += 1;
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let denied = if inner.attempts >= self.config.max_replans {
            Some(format!(
                "re-plan budget exhausted ({} of {})",
                inner.attempts, self.config.max_replans
            ))
        } else if elapsed_ms > self.config.wall_clock_ms {
            Some(format!(
                "wall-clock cap passed ({elapsed_ms}ms > {}ms)",
                self.config.wall_clock_ms
            ))
        } else {
            // The governor has the last word: a cancelled query or a spent
            // wall-clock budget must not buy more planning.
            governor.check_batch(64).err().map(|e| format!("governor refused: {e}"))
        };
        if let Some(reason) = denied {
            inner.counters.replans_denied += 1;
            inner.log(ReoptEventKind::ReplanDenied, None, reason);
            return false;
        }
        inner.attempts += 1;
        true
    }

    /// Records an adopted re-plan.
    pub fn record_replan(&self, node: NodeId, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.replans_adopted += 1;
        inner.log(ReoptEventKind::Replan, Some(node), detail.to_string());
        let adopted = inner.counters.replans_adopted;
        journal(crate::journal::EventKind::Replan, node, adopted, crate::journal::NO_ID);
    }

    /// Records a retryably failed checkpoint or re-plan (the original
    /// plan continues).
    pub fn record_replan_failure(&self, node: Option<NodeId>, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.replan_failures += 1;
        inner.log(ReoptEventKind::ReplanFailed, node, detail.to_string());
    }

    /// Records a governor refusal absorbed by degrading the planning
    /// memory grant.
    pub fn record_memory_degrade(&self, node: NodeId, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.memory_degradations += 1;
        inner.log(ReoptEventKind::MemoryDegrade, Some(node), detail.to_string());
        let steps = inner.counters.memory_degradations;
        journal(crate::journal::EventKind::DegradationStep, node, steps, crate::journal::NO_ID);
    }

    /// Reverts to the original plan: records a fallback and suppresses
    /// the observations so subsequent arbitrations reproduce the original
    /// decisions. Retained intermediates stay substitutable — they are
    /// the original plan's own subtree results.
    pub fn record_fallback(&self, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.fallbacks += 1;
        inner.suppressed = true;
        inner.version += 1;
        inner.log(ReoptEventKind::Fallback, None, detail.to_string());
    }

    /// Retains a materialized intermediate — the batches its drain
    /// produced, as they are — for reuse, reserving its live rows' bytes
    /// with the governor. Returns `false` (and retains nothing) when the
    /// governor refuses — the caller degrades instead of failing.
    pub fn try_retain(
        &self,
        governor: &ResourceGovernor,
        node: NodeId,
        layout: TupleLayout,
        batches: Vec<RowBatch>,
    ) -> bool {
        let rows: usize = batches.iter().map(RowBatch::len).sum();
        let bytes = (rows * layout.row_bytes) as u64;
        if governor.try_reserve_memory(bytes).is_err() {
            return false;
        }
        let mut inner = self.inner.lock();
        inner.reserved_bytes += bytes;
        inner.materialized.push((node, layout, Arc::new(batches)));
        true
    }

    /// The retained intermediate for `node`, if any — shared, so a plan
    /// that references the node twice serves the same batches twice.
    #[must_use]
    pub fn materialized(&self, node: NodeId) -> Option<(TupleLayout, Arc<Vec<RowBatch>>)> {
        self.inner
            .lock()
            .materialized
            .iter()
            .find(|(id, _, _)| *id == node)
            .map(|(_, layout, rows)| (layout.clone(), Arc::clone(rows)))
    }

    /// Returns every retention reservation to the governor (the rows stay
    /// available). Called once before the final run: operators consuming a
    /// [`MaterializedScanExec`] re-reserve as they buffer, and holding the
    /// retention reservation across that would double-charge the grant.
    pub fn release_reservations(&self, governor: &ResourceGovernor) {
        let mut inner = self.inner.lock();
        let bytes = std::mem::take(&mut inner.reserved_bytes);
        drop(inner);
        if bytes > 0 {
            governor.release_memory(bytes);
        }
    }

    /// Counter totals so far.
    #[must_use]
    pub fn counters(&self) -> ReoptCounters {
        self.inner.lock().counters
    }

    /// What the checkpoint materializations of the run cost — rows
    /// materialized, CPU and I/O — all of it included in the run's own
    /// [`ExecSummary`]. The rest of that summary is the execution proper,
    /// which served every retained intermediate instead of computing it.
    #[must_use]
    pub fn checkpoint_cost(&self) -> ExecSummary {
        self.inner.lock().checkpoint_cost
    }

    /// The full audit trail.
    #[must_use]
    pub fn report(&self) -> ReoptReport {
        let inner = self.inner.lock();
        ReoptReport {
            events: inner.events.clone(),
            counters: inner.counters,
        }
    }
}

/// A checkpoint probe attached to a pipeline breaker (hash-join build,
/// sort ingest, exchange worker join). Fired once per `open` with the
/// actual cardinality the breaker materialized.
#[derive(Debug, Clone)]
pub(crate) struct ReoptProbe {
    pub(crate) state: Arc<ReoptState>,
    /// The breaker's input: its id, operator name and estimate.
    pub(crate) node: NodeId,
    pub(crate) label: &'static str,
    pub(crate) card: Interval,
}

impl ReoptProbe {
    /// Records the checkpoint observation.
    pub(crate) fn observe(&self, actual: u64) {
        self.state.observe_checkpoint(self.node, self.label, self.card, actual);
    }
}

/// Serves a retained intermediate result as an ordinary [`Operator`]:
/// the executor's leaf form of "already-materialized work". Like the
/// exchange's output this is pure transport — the rows were charged
/// (CPU and I/O) when they were first produced, so serving them again
/// charges nothing, keeping counter totals identical to a one-pass run.
pub struct MaterializedScanExec {
    batches: Arc<Vec<RowBatch>>,
    layout: TupleLayout,
    ctx: ExecContext,
    served: BatchCursor,
}

impl MaterializedScanExec {
    /// An operator serving `batches` with `layout`.
    #[must_use]
    pub fn new(batches: Arc<Vec<RowBatch>>, layout: TupleLayout, ctx: ExecContext) -> Self {
        MaterializedScanExec { batches, layout, ctx, served: BatchCursor::default() }
    }
}

impl Operator for MaterializedScanExec {
    fn open(&mut self) -> Result<(), ExecError> {
        self.served = BatchCursor::default();
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let Some(batch) = self.served.next_slice(&self.batches, max_rows) else {
            return Ok(None);
        };
        self.ctx.governor.check_batch(batch.rows() as u64)?;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.served = BatchCursor::default();
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        Some(self.served.remaining(&self.batches) as u64)
    }
}

/// Picks the pilot subplan of the paper's Section 7 ("evaluating subplans
/// as part of choose-plan decision procedures"): the largest (deepest)
/// subplan that (a) appears in every alternative of the root choose-plan
/// and (b) has an uncertain compile-time cardinality — what a run should
/// observe first ([`ReoptState::observing_first`]) so that its temporary
/// result's cardinality contributes to the decision. The pilot may itself
/// contain choose-plans. Returns `None` when the plan has no root
/// choose-plan or no eligible shared subplan.
#[must_use]
pub fn pick_pilot(plan: &Plan) -> Option<NodeId> {
    if !plan.root_node().is_choose_plan() {
        return None;
    }
    // In how many alternatives each node appears: one descending sweep
    // per alternative (a node's parents come after it).
    let alternatives = plan.children(plan.root());
    let mut appearances = vec![0usize; plan.len()];
    let mut reached = vec![false; plan.len()];
    for alt in alternatives {
        reached.fill(false);
        reached[alt.index()] = true;
        for (id, _) in plan.iter().rev() {
            if reached[id.index()] {
                appearances[id.index()] += 1;
                for c in plan.children(id) {
                    reached[c.index()] = true;
                }
            }
        }
    }
    // Among the nodes every alternative shares, the deepest eligible one;
    // of equals, the first.
    let mut depth = vec![0usize; plan.len()];
    let mut best: Option<(usize, NodeId)> = None;
    for (id, node) in plan.iter() {
        let below = plan.children(id).iter().map(|c| depth[c.index()]).max();
        depth[id.index()] = 1 + below.unwrap_or(0);
        let eligible = appearances[id.index()] == alternatives.len() && !node.stats.card.is_point();
        if eligible && best.is_none_or(|(d, _)| depth[id.index()] > d) {
            best = Some((depth[id.index()], id));
        }
    }
    best.map(|(_, id)| id)
}

/// What [`crate::run`] does under a context that carries `state` (see the
/// module docs): observe the state's first target if it names one, then
/// checkpoint the blocking inputs, re-arbitrate the remainder on escape
/// within the [`ReoptConfig`] budget, reuse every retained intermediate,
/// degrade gracefully under memory pressure, and fall back to the original
/// plan when re-planning itself fails. The result rows of the final run go
/// to `sink`; the summary covers checkpoints and final run alike; with a
/// tracer, its report carries the audit trail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    state: &ReoptState,
    plan: &Plan,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    mut sink: RootSink<'_>,
) -> Result<ExecSummary, ExecError> {
    let mut first = state.begin()?;
    if first.is_some_and(|target| target.index() >= plan.len()) {
        return Err(ExecError::Internal("the first target is not a node of this plan".into()));
    }
    let io_before = db.disk.stats();
    let cpu_before = ctx.counters.snapshot();
    db.disk.reset_temp_high_water();

    // The start-up decision under the observations gathered so far: the
    // driver's arbitration is the decision every run it launches uses.
    let arbitrate = |bindings: &Bindings| {
        state.decide(|observed| {
            crate::choose::decide(plan, catalog, env, bindings, observed, &ctx.counters)
        })
    };
    let mut exec_bindings = bindings.clone();
    let mut startup = arbitrate(&exec_bindings);
    let mut done: HashSet<NodeId> = HashSet::new();
    let mut replanned = false;
    let mut checkpoint_rows = 0;

    // Checkpoint loop: the first target, then the blocking inputs along
    // the chosen path deepest-first, observing each and re-arbitrating on
    // escape.
    while let Some(target) =
        first.take().or_else(|| next_blocking_input(plan, &startup.decisions, &done))
    {
        done.insert(target);
        let node = &plan[target];
        // Materialize the checkpoint subtree into the batches that will be
        // retained. Compiled dynamically: the target may itself contain
        // choose-plan operators, which follow the arbitration in force.
        let mut batches = Vec::new();
        let compiler = crate::compile::Compiler {
            plan,
            db,
            catalog,
            env: Some(env),
            bindings: &exec_bindings,
            memory_bytes: crate::compile::grant_bytes(&exec_bindings, env, catalog),
        };
        let materialized = compiler
            .node(target, ctx)
            .and_then(|mut op| drain_root(op.as_mut(), None, RootSink::Batches(&mut batches)));
        let actual = match materialized {
            Ok(rows) => rows,
            Err(e) if e.is_retryable() => {
                // A faulted checkpoint is abandoned, not fatal: the final
                // run recomputes the subtree on the original plan.
                state.record_replan_failure(
                    Some(target),
                    &format!("checkpoint failed ({e}); continuing original plan"),
                );
                break;
            }
            Err(e) => return Err(e),
        };
        checkpoint_rows += actual;
        // Escape against the *bind-time* estimate: host variables are
        // bound and prior observations applied, so this interval is what
        // the in-force arbitration actually believed. The compile-time
        // interval on the node is kept deliberately wide for unbound
        // parameters and would mask real drift.
        let estimate = startup.estimates[target.index()].stats.card;
        let escaped = state.observe_checkpoint(target, node.op.name(), estimate, actual);
        let layout = crate::choose::layout_of(plan, target, catalog);
        if !state.try_retain(&ctx.governor, target, layout, batches) {
            // Memory pressure: drop the intermediate and re-arbitrate
            // with a halved planning grant, steering the remaining
            // decisions toward the cheapest-memory alternatives.
            let pages = exec_bindings
                .memory_pages
                .unwrap_or_else(|| env.memory.expected());
            let degraded = (pages / 2.0).max(1.0);
            state.record_memory_degrade(
                target,
                &format!(
                    "governor refused to retain {actual} rows; planning grant {pages:.0} -> \
                     {degraded:.0} pages"
                ),
            );
            exec_bindings = exec_bindings.with_memory(degraded);
            startup = arbitrate(&exec_bindings);
            continue;
        }
        if escaped {
            if state.request_replan(&ctx.governor) {
                startup = arbitrate(&exec_bindings);
                state.record_replan(
                    target,
                    "re-arbitrated remaining plan with checkpoint observation",
                );
                replanned = true;
            } else {
                break;
            }
        }
    }
    state.inner.lock().checkpoint_cost = ExecSummary {
        rows: checkpoint_rows,
        cpu: ctx.counters.snapshot().since(&cpu_before),
        io: db.disk.stats().since(&io_before),
        ..ExecSummary::default()
    };

    // Final run over the original dynamic plan: choose-plan operators
    // follow the arbitration in force (refreshed if a probe observes
    // something newer on the way) and the compiler serves retained
    // intermediates in place of their subtrees. A run restarts the
    // temp-page high-water, so the checkpoints' is read off first.
    state.release_reservations(&ctx.governor);
    let mut temp_pages_peak = db.disk.temp_pages().high_water;
    let mark = sink.mark();
    let last = match run_once(plan, db, catalog, env, &exec_bindings, ctx, sink.reborrow()) {
        Ok(last) => last,
        Err(e) if e.is_retryable() && replanned => {
            // Last rung before governed failure: suppress the
            // observations and continue the original plan, from a sink
            // that holds no row of the failed attempt.
            state.record_fallback(&format!(
                "re-planned run failed ({e}); reverting to original arbitration"
            ));
            ctx.counters.add_fallbacks(1);
            sink.truncate(mark);
            temp_pages_peak = temp_pages_peak.max(db.disk.temp_pages().high_water);
            arbitrate(bindings);
            run_once(plan, db, catalog, env, bindings, ctx, sink)?
        }
        Err(e) => return Err(e),
    };

    // The whole execution's I/O, failed attempt and checkpoints included.
    if let Some(tracer) = &ctx.tracer {
        tracer.set_reopt(state.report());
    }
    Ok(ExecSummary {
        io: db.disk.stats().since(&io_before),
        temp_pages_peak: temp_pages_peak.max(last.temp_pages_peak),
        ..last
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::grant_bytes;
    use crate::exec::drain;
    use crate::governor::ResourceLimits;
    use crate::metrics::SharedCounters;
    use crate::tuple::Tuple;
    use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_storage::{FaultPlan, ValueDistribution};

    /// A join whose uncertain input is Zipf-skewed: uniform estimates are
    /// badly wrong about `a < :0`, so the plain start-up decision misfires
    /// while a decision that has observed the input does not.
    fn skewed_join() -> (Catalog, StoredDatabase, LogicalExpr) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 800, 512, |r| {
                r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
            })
            .relation("s", 400, 512, |r| {
                r.attr("a", 400.0).attr("j", 200.0).btree("j", false)
            })
            .build()
            .unwrap();
        let db =
            StoredDatabase::generate_with(&cat, 3, ValueDistribution::Zipf { exponent: 1.1 });
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        (cat, db, q)
    }

    /// [`skewed_join`] optimized, with a binding that looks selective
    /// (30/800 ≈ 4%) but matches most of the relation: the first
    /// checkpoint escapes its interval.
    fn skewed_fixture() -> (Catalog, StoredDatabase, Arc<Plan>, Environment, Bindings) {
        let (cat, db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 30);
        (cat, db, plan, env, bindings)
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    /// What a re-optimizing run leaves behind: the summary [`crate::run`]
    /// returned, and the decision in force and the audit trail read off
    /// the state the caller kept.
    struct Outcome {
        summary: ExecSummary,
        startup: Arc<StartupResult>,
        report: ReoptReport,
        state: Arc<ReoptState>,
    }

    /// [`crate::run`] under a fresh re-optimization state that observes
    /// `first` first.
    #[allow(clippy::too_many_arguments)]
    fn reopt_run(
        plan: &Plan,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
        first: Option<NodeId>,
        ctx: ExecContext,
        sink: RootSink<'_>,
    ) -> Result<Outcome, ExecError> {
        let state = Arc::new(ReoptState::new(ReoptConfig::default()).observing_first(first));
        let ctx = ctx.with_reopt(Arc::clone(&state));
        let summary = crate::run(plan, db, cat, env, bindings, &ctx, sink)?;
        let startup = state.in_force().expect("a run leaves its decision in force");
        Ok(Outcome { summary, startup, report: state.report(), state })
    }

    /// A re-optimizing run under `limits`, its rows collected.
    fn reopt_rows(
        plan: &Plan,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
        limits: ResourceLimits,
    ) -> (Outcome, Vec<Tuple>) {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
        let mut rows = Vec::new();
        let sink = RootSink::Rows(&mut rows);
        let outcome = reopt_run(plan, db, cat, env, bindings, None, ctx, sink).unwrap();
        assert_eq!(outcome.summary.rows, rows.len() as u64);
        (outcome, rows)
    }

    /// The same run with the Section 7 pilot as its first target, and what
    /// its main execution — everything but the checkpoints — cost.
    fn piloted(
        plan: &Plan,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
    ) -> (Outcome, ExecSummary) {
        let ctx = ExecContext::new(SharedCounters::new());
        let first = pick_pilot(plan);
        let outcome =
            reopt_run(plan, db, cat, env, bindings, first, ctx, RootSink::Discard).unwrap();
        let pilot = outcome.state.checkpoint_cost();
        let main = ExecSummary {
            cpu: outcome.summary.cpu.since(&pilot.cpu),
            io: outcome.summary.io.since(&pilot.io),
            ..outcome.summary
        };
        (outcome, main)
    }

    /// Baseline result and I/O of the plain dynamic execution.
    fn baseline(
        plan: &Plan,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
    ) -> Vec<Tuple> {
        let grant = grant_bytes(bindings, env, cat);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            crate::choose::compile_dynamic_plan(plan, db, cat, env, bindings, grant, &ctx)
                .unwrap();
        drain(op.as_mut()).unwrap()
    }

    #[test]
    fn escape_replans_and_reuses_the_intermediate() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let grant = grant_bytes(&bindings, &env, &cat);
        let base_rows = baseline(&plan, &db, &cat, &env, &bindings);

        // The checkpoint subtree's own I/O, measured standalone.
        let startup = dqep_plan::evaluate_startup(&plan, &cat, &env, &bindings);
        let target = next_blocking_input(&plan, &startup.decisions, &HashSet::new())
            .expect("the join fixture has a blocking input");
        let before = db.disk.stats();
        baseline(&plan.rooted_at(target), &db, &cat, &env, &bindings);
        let subtree_io = db.disk.stats().since(&before);
        assert!(subtree_io.total() > 0, "the build side reads its relation");

        let before = db.disk.stats();
        let (outcome, rows) =
            reopt_rows(&plan, &db, &cat, &env, &bindings, ResourceLimits::unlimited());
        assert_eq!(
            sorted(rows.clone()),
            sorted(base_rows),
            "re-optimization must preserve the result multiset"
        );
        let c = outcome.report.counters;
        assert!(c.checkpoints >= 1, "blocking input must checkpoint: {c:?}");
        assert!(c.escapes >= 1, "zipf skew must escape the uniform interval: {c:?}");
        assert!(c.replans_adopted >= 1, "escape within budget must re-plan: {c:?}");

        // Intermediate reuse, verified by I/O counters: the adopted plan
        // run from scratch repeats the build side's reads; the reopt run
        // must not (no duplicate build-side reads).
        let reopt_io = db.disk.stats().since(&before);
        let before = db.disk.stats();
        let ctx = ExecContext::new(SharedCounters::new());
        let mut scratch = crate::compile::compile_plan(
            &outcome.startup.resolved,
            &db,
            &cat,
            &bindings,
            grant,
            &ctx,
        )
        .unwrap();
        let scratch_rows = drain(scratch.as_mut()).unwrap().len();
        let scratch_io = db.disk.stats().since(&before);
        assert_eq!(scratch_rows, rows.len(), "same adopted plan");
        assert!(
            reopt_io.total() < subtree_io.total() + scratch_io.total(),
            "substituting the retained build side must not repeat its reads: \
             reopt {reopt_io:?} vs subtree {subtree_io:?} + scratch {scratch_io:?}"
        );
        assert_eq!(outcome.summary.io.total(), reopt_io.total(), "summary reports query I/O");
    }

    #[test]
    fn faulted_checkpoint_continues_the_original_plan() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let base_rows = baseline(&plan, &db, &cat, &env, &bindings);

        // Fail the first read of *every* checkpoint alternative (the
        // choose-plan target has two), so the checkpoint itself dies
        // retryably; the final run's reads start past the schedule and
        // succeed on the original plan.
        db.disk.set_fault_plan(FaultPlan {
            fail_nth_reads: vec![1, 2],
            ..FaultPlan::default()
        });
        let (outcome, rows) =
            reopt_rows(&plan, &db, &cat, &env, &bindings, ResourceLimits::unlimited());
        db.disk.set_fault_plan(FaultPlan::none());
        assert_eq!(
            sorted(rows.clone()),
            sorted(base_rows),
            "a failed checkpoint must not change the answer"
        );
        let c = outcome.report.counters;
        assert!(
            c.replan_failures >= 1,
            "the faulted checkpoint must be recorded: {c:?}"
        );
        assert_eq!(c.replans_adopted, 0, "no observation, no re-plan: {c:?}");
        assert!(outcome
            .report
            .events
            .iter()
            .any(|e| e.kind == ReoptEventKind::ReplanFailed));
    }

    #[test]
    fn memory_pressure_degrades_the_grant_instead_of_failing() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let base_rows = baseline(&plan, &db, &cat, &env, &bindings);

        // A memory ceiling too small to retain the materialized build side
        // (hundreds of 512-byte rows): retention is refused, the planning
        // grant degrades, and the query still answers.
        let limits = ResourceLimits {
            memory_bytes: Some(64 * 1024),
            ..ResourceLimits::default()
        };
        let (outcome, rows) = reopt_rows(&plan, &db, &cat, &env, &bindings, limits);
        assert_eq!(
            sorted(rows.clone()),
            sorted(base_rows),
            "degradation must not change the answer"
        );
        let c = outcome.report.counters;
        assert!(
            c.memory_degradations >= 1,
            "the refused retention must degrade, not fail: {c:?}"
        );
    }

    #[test]
    fn escape_check_uses_drift_slack() {
        let card = Interval::new(10.0, 20.0);
        assert!(!escapes_interval(10.0, card));
        assert!(!escapes_interval(20.4, card), "within half-row slack");
        assert!(escapes_interval(21.0, card));
        assert!(escapes_interval(8.0, card));
        assert!(!escapes_interval(30.0, Interval::new(0.0, 30.0)));
    }

    #[test]
    fn budget_denies_past_max_replans_and_counts() {
        let state = ReoptState::new(ReoptConfig {
            max_replans: 1,
            wall_clock_ms: u64::MAX,
        });
        let gov = ResourceGovernor::unlimited();
        assert!(state.request_replan(&gov));
        assert!(!state.request_replan(&gov), "budget of 1 exhausted");
        let counters = state.counters();
        assert_eq!(counters.replans_attempted, 2);
        assert_eq!(counters.replans_denied, 1);
        assert!(state
            .report()
            .events
            .iter()
            .any(|e| e.kind == ReoptEventKind::ReplanDenied));
    }

    #[test]
    fn wall_cap_and_cancellation_deny_replans() {
        let state = ReoptState::new(ReoptConfig {
            max_replans: 10,
            wall_clock_ms: 0,
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(!state.request_replan(&ResourceGovernor::unlimited()));

        let state = ReoptState::new(ReoptConfig {
            max_replans: 10,
            wall_clock_ms: u64::MAX,
        });
        let gov = ResourceGovernor::unlimited();
        gov.cancel();
        assert!(!state.request_replan(&gov), "governor has the last word");
    }

    #[test]
    fn retention_is_governed_and_released() {
        let layout = TupleLayout::for_tests(1, 100);
        let gov = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(250),
            ..ResourceLimits::default()
        });
        let state = ReoptState::new(ReoptConfig::default());
        let batch = |rows: &[i64]| {
            let mut b = RowBatch::new(1);
            rows.iter().for_each(|&v| b.push_row(&[v]));
            b
        };
        // Reserved by live rows: a selection vector's dead rows are free.
        let mut three = batch(&[1, 2, 9]);
        three.set_selection(vec![0, 1]);
        assert!(state.try_retain(&gov, NodeId(1), layout.clone(), vec![three]));
        assert_eq!(gov.memory_used(), 200);
        assert!(
            !state.try_retain(&gov, NodeId(2), layout.clone(), vec![batch(&[3])]),
            "second retention exceeds the grant"
        );
        assert_eq!(gov.memory_used(), 200, "refused retention reserves nothing");
        assert!(state.materialized(NodeId(1)).is_some());
        assert!(state.materialized(NodeId(2)).is_none());
        state.release_reservations(&gov);
        assert_eq!(gov.memory_used(), 0);
        assert!(
            state.materialized(NodeId(1)).is_some(),
            "rows stay available after the reservation returns"
        );
    }

    #[test]
    fn fallback_suppresses_observations() {
        let (cat, _db, plan, env, bindings) = skewed_fixture();
        // How many observations an arbitration is served.
        let served = |state: &ReoptState| {
            let mut served = usize::MAX;
            state.decide(|observed| {
                served = observed.len();
                dqep_plan::evaluate_startup_observed(&plan, &cat, &env, &bindings, observed)
            });
            served
        };
        let state = ReoptState::new(ReoptConfig::default());
        state.observe_checkpoint(NodeId(7), "Sort", Interval::new(0.0, 5.0), 100);
        assert_eq!(served(&state), 1);
        assert_eq!(state.report().escaped_observations(), vec![(NodeId(7), 100.0)]);
        state.record_fallback("test");
        assert_eq!(served(&state), 0);
        assert_eq!(state.counters().fallbacks, 1);
    }

    #[test]
    fn the_decision_in_force_is_remade_once_per_observation() {
        let (cat, _db, plan, env, bindings) = skewed_fixture();
        let evaluations = std::cell::Cell::new(0);
        // A choose-plan operator being opened.
        let open = |state: &ReoptState| {
            state.decision(plan.root(), |observed| {
                evaluations.set(evaluations.get() + 1);
                dqep_plan::evaluate_startup_observed(&plan, &cat, &env, &bindings, observed)
            })
        };
        let state = ReoptState::new(ReoptConfig::default());
        let first = open(&state);
        assert!(Arc::ptr_eq(&first, &open(&state)), "nothing observed: the same decision");
        assert_eq!(evaluations.get(), 1);
        state.observe_checkpoint(NodeId(0), "File-Scan", Interval::new(0.0, 5.0), 3);
        let second = open(&state);
        assert!(!Arc::ptr_eq(&first, &second), "a newer observation: decided again");
        assert!(Arc::ptr_eq(&second, &open(&state)), "once, for every later open");
        assert_eq!(evaluations.get(), 2);
        assert_eq!(state.counters().observed_arbitrations, 2);
        state.record_fallback("test");
        open(&state);
        open(&state);
        assert_eq!(evaluations.get(), 3, "suppressing the observations is news too");
        assert!(Arc::ptr_eq(&state.in_force().unwrap(), &open(&state)));
    }

    #[test]
    fn materialized_scan_serves_live_rows_and_reopens() {
        let layout = TupleLayout::for_tests(1, 16);
        let mut batch = RowBatch::new(1);
        (0..5).for_each(|v| batch.push_row(&[v]));
        batch.set_selection(vec![1, 2, 4]);
        let batches = Arc::new(vec![batch]);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op = MaterializedScanExec::new(batches, layout, ctx);
        assert_eq!(op.estimated_rows(), Some(3));
        assert_eq!(drain(&mut op).unwrap(), vec![vec![1i64], vec![2], vec![4]]);
        // Re-open serves again from the start.
        assert_eq!(drain(&mut op).unwrap().len(), 3);
    }

    #[test]
    fn pilot_is_a_shared_uncertain_subplan() {
        let (cat, _db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        // Query-1-shaped plans have a root choose-plan over scan variants.
        if let Some(pilot) = pick_pilot(&plan) {
            assert!(!plan[pilot].stats.card.is_point());
        }
        // A static plan never yields a pilot.
        let senv = Environment::static_compile_time(&cat.config);
        let splan = Optimizer::new(&cat, &senv).optimize(&q).unwrap().plan;
        assert!(pick_pilot(&splan).is_none());
    }

    #[test]
    fn observation_corrects_skew_blind_decisions() {
        let (cat, db, plan, env, bindings) = skewed_fixture();

        // Plain start-up execution (estimation-blind).
        let ctx = ExecContext::new(SharedCounters::new());
        let blind_exec =
            crate::run(&plan, &db, &cat, &env, &bindings, &ctx, RootSink::Discard).unwrap();

        // The same plan with the pilot observed first.
        let (adaptive, main) = piloted(&plan, &db, &cat, &env, &bindings);
        assert_eq!(adaptive.summary.rows, blind_exec.rows, "same logical result");

        let pilot = pick_pilot(&plan).expect("join fixture has a pilot");
        let first = &adaptive.report.events[0];
        assert_eq!((first.kind, first.node), (ReoptEventKind::Checkpoint, Some(pilot)));
        // The observation must be the true pilot cardinality, far from
        // the uniform estimate.
        let rows = first.observed.unwrap();
        assert!(rows > 100.0, "zipf: most rows qualify, got {rows}");
        let cfg = &cat.config;
        // The adaptive MAIN execution is no slower than the blind one
        // (it may equal it when the blind decision was already right).
        assert!(
            main.simulated_seconds(cfg) <= blind_exec.simulated_seconds(cfg) + 1e-9,
            "adaptive main {:.4}s vs blind {:.4}s",
            main.simulated_seconds(cfg),
            blind_exec.simulated_seconds(cfg)
        );
    }

    #[test]
    fn pilot_rows_are_reused_not_recomputed() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let (adaptive, main) = piloted(&plan, &db, &cat, &env, &bindings);
        let pilot = adaptive.state.checkpoint_cost();
        assert!(pilot.io.total() > 0, "pilot reads its base relation");

        // What the same chosen plan costs when executed from scratch.
        let ctx = ExecContext::new(SharedCounters::new());
        let before = db.disk.stats();
        let grant = grant_bytes(&bindings, &env, &cat);
        let mut op =
            crate::compile::compile_plan(&adaptive.startup.resolved, &db, &cat, &bindings, grant, &ctx)
                .unwrap();
        let rows = drain_root(op.as_mut(), None, RootSink::Discard).unwrap();
        let scratch_io = db.disk.stats().since(&before);

        assert_eq!(rows, main.rows, "same logical result");
        assert!(
            main.io.total() < scratch_io.total(),
            "serving the retained pilot rows must save the pilot subtree's \
             I/O: main {:?} vs from-scratch {:?}",
            main.io,
            scratch_io
        );
    }

    #[test]
    fn adaptive_on_uniform_data_changes_nothing() {
        // With accurate estimates the observation agrees with the
        // estimate and the same plan is chosen.
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 500, 512, |r| r.attr("a", 500.0).btree("a", false))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 5);
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);

        let blind = dqep_plan::evaluate_startup(&plan, &cat, &env, &bindings);
        let (adaptive, _) = piloted(&plan, &db, &cat, &env, &bindings);
        assert_eq!(
            adaptive.startup.resolved.root_node().op.name(),
            blind.resolved.root_node().op.name(),
            "accurate estimates: observation should not change the choice"
        );
        assert!(adaptive.summary.simulated_seconds(&cat.config) > 0.0);
    }

    #[test]
    fn the_callers_context_governs_the_pilot_path() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let first = pick_pilot(&plan);
        assert!(first.is_some(), "join fixture has a pilot");
        let run = |ctx| {
            reopt_run(&plan, &db, &cat, &env, &bindings, first, ctx, RootSink::Discard)
                .map(|outcome| outcome.summary.rows)
        };

        let one_row = ResourceLimits { max_rows: Some(1), ..ResourceLimits::default() };
        assert_eq!(
            run(ExecContext::with_limits(SharedCounters::new(), one_row)).unwrap_err(),
            ExecError::ResourceExhausted(crate::error::Resource::Rows { limit: 1 })
        );

        let ctx = ExecContext::new(SharedCounters::new());
        ctx.governor.cancel();
        assert_eq!(run(ctx).unwrap_err(), ExecError::Cancelled);

        // Parallelism reaches it too, and changes nothing.
        let serial = run(ExecContext::new(SharedCounters::new())).unwrap();
        assert_eq!(run(ExecContext::new(SharedCounters::new()).with_dop(4)).unwrap(), serial);
    }

    #[test]
    fn a_state_that_drove_a_run_is_refused_for_a_second() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let state = Arc::new(ReoptState::new(ReoptConfig::default()));
        let ctx = ExecContext::new(SharedCounters::new()).with_reopt(Arc::clone(&state));
        let run = || crate::run(&plan, &db, &cat, &env, &bindings, &ctx, RootSink::Discard);
        let first = run().unwrap();
        let report = state.report();
        assert!(report.counters.checkpoints >= 1);
        assert!(matches!(run(), Err(ExecError::Internal(_))), "not silently reused");
        assert_eq!(state.report().counters, report.counters, "and not touched");
        assert!(first.rows > 0);
    }
}
