//! Per-operator execution tracing.
//!
//! A traced run keeps one record: the trail of its [`SharedCounters`].
//! What the run decides is on it, traced or not ([`ExecContext::record`]);
//! a traced run adds what only a trace knows — each span as it opens and
//! as it ends ([`RunEvent::SpanOpen`], [`RunEvent::SpanEnd`]) and each
//! arbitration's [`ChooseAudit`] right after the arbitration
//! ([`RunEvent::Audit`]). A [`Tracer`] holds none of it: it is a trace id,
//! the one counter span ids are drawn from, and the runs attached to it
//! ([`ExecContext::with_tracer`]). [`Tracer::report`] reads their trails
//! in attach order and folds them into a [`TraceReport`]; a plan node's
//! label is rendered only then, from the operator and join predicates its
//! open carries. A sharded query attaches its coordinator's run and every
//! shard's to one tracer, so its spans form one tree with one set of ids.
//!
//! The compiler ([`crate::compile_plan`]) opens a span for every plan node
//! when the [`ExecContext`] carries a tracer and wraps the produced
//! operator in a [`TracedExec`] decorator; with no tracer the compiled
//! tree is byte-identical to the untraced one — no wrapper, no span, no
//! per-row work — so the disabled path costs one branch per plan node at
//! compile time and nothing at run time.
//!
//! Span statistics accumulate *locally* inside each wrapper (plain field
//! updates, no locking on the hot path) and end the span exactly once, on
//! `close`. Exchange workers share a single span: each worker's wrapper
//! ends it on the worker's own trail, which merges into the query's with
//! the worker's counters ([`SharedCounters::merge_from`]), and the report
//! merges the ends with [`SpanStats::merge_from`] — merge-order
//! independent, as all fields are sums except the memory and temp-page
//! high-waters, which merge with `max`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use dqep_algebra::{JoinPred, PhysicalOp};
use dqep_interval::Interval;
use dqep_plan::{NodeId, Plan, PlanNode};
use dqep_storage::{IoStats, SimDisk};
use parking_lot::Mutex;

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::exec::{BoxedOperator, Operator};
use crate::governor::ExecContext;
use crate::journal::monotonic_ns;
use crate::metrics::{CpuCounters, RunEvent, SharedCounters};
use crate::netexchange::NetStats;
use crate::reopt::ReoptReport;
use crate::tuple::TupleLayout;

/// Process-wide trace-id allocator: every [`Tracer`] created with
/// [`Tracer::new`] and every run's [`ExecContext`] gets a distinct non-zero
/// id, so journal events and frame headers from concurrent queries never
/// collide, traced or not. Zero is the "no trace" sentinel on the wire and
/// in the journal.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh trace id: what a query that is not traced joins its parts
/// under (a sharded coordinator's shards, say).
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A span's id: drawn from its [`Tracer`]'s one counter as the span
/// opens, and its index in the tracer's report. Parents always have
/// smaller ids than their children, because a span opens before any span
/// nested under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub usize);

/// The optimizer's compile-time interval estimate for one plan node,
/// captured when the node is compiled so EXPLAIN ANALYZE can diff it
/// against actuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEstimate {
    /// Output cardinality interval (rows).
    pub card: Interval,
    /// Execution (subtree-inclusive) cost interval, simulated seconds: no
    /// decision overhead, which is never executed.
    pub cost: Interval,
}

impl NodeEstimate {
    /// The estimate carried by `node`: its cardinality interval and the
    /// total of its execution cost ([`PlanNode::exec`]).
    #[must_use]
    pub fn of(node: &PlanNode) -> NodeEstimate {
        NodeEstimate { card: node.stats.card, cost: node.exec.total() }
    }
}

/// Measured totals for one span. All fields are *inclusive* of the
/// operator's subtree, mirroring `total_cost` semantics, because the
/// wrapper's windows around `open`/`next` contain the children's work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Rows delivered to the parent (live rows for batches).
    pub rows: u64,
    /// Batches delivered to the parent.
    pub batches: u64,
    /// `open` calls observed (a choose-plan may open alternatives that
    /// never deliver rows; exchange workers each count their own).
    pub opens: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Wall-clock nanoseconds spent inside `open`.
    pub open_wall_ns: u64,
    /// Wall-clock nanoseconds spent inside `next`/`next_batch`.
    pub next_wall_ns: u64,
    /// CPU counter delta observed across this span's calls.
    pub cpu: CpuCounters,
    /// Accounted I/O delta observed across this span's calls.
    pub io: IoStats,
    /// Governor memory high-water (bytes) sampled while the span ran.
    pub mem_peak: u64,
    /// The disk's temp-page high-water (sort runs, Grace partitions)
    /// sampled while the span ran — like `mem_peak`, the statement's
    /// shared high-water so far, not this operator's own files.
    pub temp_pages_peak: u64,
}

impl SpanStats {
    /// Merges another worker's totals into this span: counts, times, CPU
    /// and I/O sum; the memory and temp-page high-waters take the max
    /// (each is a shared peak, not a per-worker quantity). Commutative and
    /// associative, so merge order never matters — the property
    /// `tests/observability.rs` exercises over worker span ends merged
    /// into a run concurrently.
    pub fn merge_from(&mut self, other: &SpanStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.opens += other.opens;
        self.errors += other.errors;
        self.open_wall_ns += other.open_wall_ns;
        self.next_wall_ns += other.next_wall_ns;
        self.cpu += other.cpu;
        self.io += other.io;
        self.mem_peak = self.mem_peak.max(other.mem_peak);
        self.temp_pages_peak = self.temp_pages_peak.max(other.temp_pages_peak);
    }

    /// Simulated seconds of the span's accounted work under `config`.
    #[must_use]
    pub fn simulated_seconds(&self, config: &dqep_catalog::SystemConfig) -> f64 {
        self.cpu.seconds(config) + self.io.seconds(config)
    }
}

/// Wire accounting attached to a network-exchange span: one side of one
/// simulated link. The send side carries the channel's own [`NetStats`],
/// so the send spans of a query sum to its `ShardOutcome::net` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSpanStats {
    /// Sending node id (shards `0..n`, coordinator `n`).
    pub from: u32,
    /// Receiving node id.
    pub to: u32,
    /// `true` for the sending side of the link (which carries the byte
    /// accounting), `false` for the receiving side (which carries the
    /// propagated remote span id, and zero traffic — so totals never
    /// double count).
    pub sent: bool,
    /// The link's traffic: bytes (retransmissions and frames burnt by an
    /// exhausted retransmission budget included), frames and retransmits.
    /// Zero on the receive side.
    pub stats: NetStats,
    /// The peer's span id recovered from the frame header (receive side
    /// only): proof the trace context propagated across the wire. Both
    /// sides draw their ids from the query's one tracer, so it names the
    /// send span in the report as it stands.
    pub remote_span: Option<u64>,
}

/// One traced operator: identity, estimate, and measured totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id (its index in the report).
    pub id: SpanId,
    /// Enclosing span, `None` for the plan root.
    pub parent: Option<SpanId>,
    /// Detailed operator label (`Filter[R0.#0 < :v0]`).
    pub label: String,
    /// Operator kind (`File-Scan`, `Choose-Plan`, …), or a synthetic kind
    /// for spans without a plan node (exchange workers).
    pub kind: &'static str,
    /// The plan node's id, when the span maps to one.
    pub node: Option<u64>,
    /// Compile-time interval estimate, when the span maps to a plan node.
    pub estimate: Option<NodeEstimate>,
    /// Degree of parallelism the span ran at (worker spans report the
    /// exchange's worker count; everything else reports the session DOP).
    pub dop: usize,
    /// Measured totals, merged across workers where applicable.
    pub stats: SpanStats,
    /// Monotonic nanoseconds (process-wide epoch, shared with the event
    /// journal) at which the span was opened.
    pub start_ns: u64,
    /// Wire accounting, present only on network-exchange spans.
    pub net: Option<NetSpanStats>,
}

/// One choose-plan arbitration alternative as considered at bind time.
#[derive(Debug, Clone, PartialEq)]
pub struct AltAudit {
    /// Index among the choose-plan's children.
    pub index: usize,
    /// Operator label of the alternative's root.
    pub label: String,
    /// Predicted run seconds under the bound parameter values.
    pub predicted_seconds: f64,
}

/// One open attempt during a choose-plan's run-time arbitration.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptAudit {
    /// Alternative index attempted.
    pub index: usize,
    /// `"opened"`, or the error that forced a fallback.
    pub outcome: String,
}

/// What a trace alone knows of one choose-plan arbitration: what was
/// considered, under which bindings, and the attempts in order. Its
/// outcome is the run's trail's ([`TraceReport::outcomes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChooseAudit {
    /// The choose-plan node's id.
    pub node: u64,
    /// Bind-time host-variable values (`:v0` rendered as `v0`).
    pub bind_values: Vec<(String, i64)>,
    /// Bind-time memory grant in pages, when bound.
    pub memory_pages: Option<f64>,
    /// Every alternative with its bind-time cost prediction.
    pub alternatives: Vec<AltAudit>,
    /// Index the start-up evaluation preferred.
    pub preferred: usize,
    /// Open attempts in order, including failed ones.
    pub attempts: Vec<AttemptAudit>,
}

/// An arbitration's outcome as the run's trail records it: the
/// alternative that opened (`None`: every attempt failed) and the
/// retryable failures absorbed on the way.
pub type ArbitrationOutcome = (Option<usize>, u64);

/// A span as it opens on a run's trail ([`RunEvent::SpanOpen`]): its
/// record with nothing measured yet and, for a plan node, the operator and
/// join predicates its label is rendered from when a report is read.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanOpen {
    /// The record as it opens. A plan node's has no label text, and an
    /// empty label reads as the span's kind.
    pub record: SpanRecord,
    /// The plan node's operator and join predicates.
    pub op: Option<(PhysicalOp, Vec<JoinPred>)>,
}

impl SpanOpen {
    /// The record with its label rendered.
    fn rendered(&self) -> SpanRecord {
        let label = match &self.op {
            Some((op, preds)) => op.label(preds).to_string(),
            None if self.record.label.is_empty() => self.record.kind.to_string(),
            None => self.record.label.clone(),
        };
        SpanRecord { label, ..self.record.clone() }
    }
}

/// A span's end on a run's trail ([`RunEvent::SpanEnd`]). A span may end
/// more than once — once for each exchange worker that shares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEnd {
    /// The span that ends.
    pub id: SpanId,
    /// Totals merged into the span's ([`SpanStats::merge_from`]).
    pub stats: SpanStats,
    /// Wire accounting, for a network-exchange span.
    pub net: Option<NetSpanStats>,
    /// A label replacing the span's own.
    pub label: Option<String>,
}

impl ExecContext {
    /// Opens a span of `kind` under `parent` on the run's trail, started at
    /// `at` (now when `None`), and returns its id; untraced, it opens
    /// nothing and reads no clock. A plan node's span (`node`) carries the
    /// node's id and estimate, and its label is rendered from its operator
    /// when a report is read; any other span is labelled `label()`, or its
    /// kind when that is empty.
    pub fn open_span(
        &self,
        kind: &'static str,
        node: Option<(&Plan, NodeId)>,
        label: impl FnOnce() -> String,
        parent: Option<SpanId>,
        at: Option<u64>,
    ) -> Option<SpanId> {
        let tracer = self.tracer.as_ref()?;
        let id = SpanId(tracer.next_span.fetch_add(1, Ordering::Relaxed));
        let record = SpanRecord {
            id,
            parent,
            label: label(),
            kind,
            node: node.map(|(_, n)| u64::from(n.0)),
            estimate: node.map(|(plan, n)| NodeEstimate::of(&plan[n])),
            dop: self.dop,
            stats: SpanStats::default(),
            start_ns: at.unwrap_or_else(monotonic_ns),
            net: None,
        };
        let op = node.map(|(plan, n)| (plan[n].op, plan.join_preds(n).to_vec()));
        self.record(RunEvent::SpanOpen(Box::new(SpanOpen { record, op })));
        Some(id)
    }

    /// Ends span `id` on the run's trail: `stats` merge into its totals,
    /// `net` is its wire accounting and `label` replaces its label.
    pub fn end_span(
        &self,
        id: SpanId,
        stats: SpanStats,
        net: Option<NetSpanStats>,
        label: Option<String>,
    ) {
        self.record(RunEvent::SpanEnd(Box::new(SpanEnd { id, stats, net, label })));
    }
}

/// A read handle over traced runs: a trace id, the one counter the runs'
/// span ids are drawn from, and the runs attached to it
/// ([`ExecContext::with_tracer`]). It holds no span, audit or trail of its
/// own; [`Tracer::report`] reads the runs' trails.
#[derive(Debug)]
pub struct Tracer {
    trace_id: u64,
    next_span: AtomicUsize,
    runs: Mutex<Vec<SharedCounters>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer with no run attached and a new process-unique trace
    /// id.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer { trace_id: next_trace_id(), next_span: AtomicUsize::new(0), runs: Mutex::default() }
    }

    /// The trace id of every run attached to this tracer.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Attaches the run that keeps its trail in `counters`.
    pub(crate) fn attach(&self, counters: &SharedCounters) {
        self.runs.lock().push(counters.clone());
    }

    /// The trace as the attached runs' trails stand: the trails in attach
    /// order, the spans they opened in id order with their ends merged and
    /// their labels rendered, and the audits on them.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        let trail: Vec<RunEvent> =
            self.runs.lock().iter().flat_map(SharedCounters::trail).collect();
        let (mut spans, mut audits) = (Vec::<SpanRecord>::new(), Vec::new());
        for event in &trail {
            match event {
                RunEvent::SpanOpen(open) => spans.push(open.rendered()),
                RunEvent::Audit(audit) => audits.push((**audit).clone()),
                _ => {}
            }
        }
        spans.sort_by_key(|span| span.id);
        for event in &trail {
            let RunEvent::SpanEnd(end) = event else { continue };
            let Ok(at) = spans.binary_search_by_key(&end.id, |span| span.id) else { continue };
            let span = &mut spans[at];
            span.stats.merge_from(&end.stats);
            span.net = end.net.or(span.net);
            if let Some(label) = &end.label {
                span.label.clone_from(label);
            }
        }
        TraceReport { trace_id: self.trace_id, spans, audits, trail }
    }
}

/// An immutable snapshot of a [`Tracer`]: the span tree, the choose-plan
/// audits in arbitration order, and the trails they were read from.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// The distributed trace id shared by every span (0 for a default
    /// report that never saw a tracer).
    pub trace_id: u64,
    /// All spans; a span's id is its index.
    pub spans: Vec<SpanRecord>,
    /// Choose-plan audits, in arbitration order.
    pub audits: Vec<ChooseAudit>,
    /// The trails of the traced runs, in the order they were attached.
    pub trail: Vec<RunEvent>,
}

impl TraceReport {
    /// Each audit on the trail with the outcome of its arbitration, the
    /// last one before it (`None` if there is none).
    #[must_use]
    pub fn outcomes(&self) -> Vec<(&ChooseAudit, Option<ArbitrationOutcome>)> {
        let mut arbitration = None;
        let paired = self.trail.iter().filter_map(|e| match e {
            RunEvent::Arbitration { winner, fallbacks, .. } => {
                arbitration = Some((*winner, *fallbacks));
                None
            }
            RunEvent::Audit(audit) => Some((&**audit, arbitration.take())),
            _ => None,
        });
        paired.collect()
    }

    /// The mid-query re-optimization report: the re-optimization steps on
    /// the trail, empty unless the run was under a [`crate::ReoptState`].
    #[must_use]
    pub fn reopt(&self) -> ReoptReport {
        ReoptReport::of(&self.trail)
    }

    /// Spans with no parent (normally exactly one: the plan root).
    #[must_use]
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of `id`, in creation order.
    #[must_use]
    pub fn children_of(&self, id: SpanId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }
}

/// The phases of one traced request, timed as consecutive laps of one
/// clock ([`crate::monotonic_ns`]): [`Phases::next`] ends the open phase
/// at a reading and opens the next, a child of the root, at the same
/// reading; the first starts where the root does, and
/// [`Phases::finish`] ends the last and the root together. A wall (a
/// span's `open_wall_ns`) is the difference of two readings, so the
/// phases are contiguous and sum to the root to the nanosecond. Every
/// phase opens and ends on the trail of the run it times. Untraced a
/// `Phases` is `None`: every call is one branch and reads no clock, as
/// [`crate::compile_plan`] takes one branch a plan node.
#[derive(Debug, Default)]
pub struct Phases(Option<PhaseClock>);

#[derive(Debug)]
struct PhaseClock {
    /// The run whose trail the phases go on.
    ctx: ExecContext,
    /// The root span and its kind.
    root: (SpanId, &'static str),
    /// The open phase and its kind, once there is one.
    open: Option<(SpanId, &'static str)>,
    /// The reading the root started at.
    root_ns: u64,
    /// The reading the open phase started at.
    lap_ns: u64,
}

impl PhaseClock {
    /// Ends the open phase now; returns the reading the next one starts at.
    fn lap(&mut self) -> u64 {
        if let Some((open, _)) = self.open.take() {
            let now = monotonic_ns();
            self.end(open, now - self.lap_ns);
            self.lap_ns = now;
        }
        self.lap_ns
    }

    /// The open phase, or the root before the first.
    fn current(&self) -> (SpanId, &'static str) {
        self.open.unwrap_or(self.root)
    }

    /// Opens a phase `kind` under `parent`, started at `at`.
    fn phase(&self, kind: &'static str, parent: SpanId, at: u64) -> Option<SpanId> {
        self.ctx.open_span(kind, None, String::new, Some(parent), Some(at))
    }

    /// Ends `span` after `wall` ns.
    fn end(&self, span: SpanId, wall: u64) {
        let stats = SpanStats { open_wall_ns: wall, ..SpanStats::default() };
        self.ctx.end_span(span, stats, None, None);
    }
}

impl Phases {
    /// Opens the root span `kind` of a request that runs under `ctx`.
    #[must_use]
    pub fn start(ctx: &ExecContext, kind: &'static str) -> Phases {
        let now = ctx.tracer.as_ref().map(|_| monotonic_ns());
        Phases(now.and_then(|now| {
            let root = (ctx.open_span(kind, None, String::new, None, Some(now))?, kind);
            Some(PhaseClock { ctx: ctx.clone(), root, open: None, root_ns: now, lap_ns: now })
        }))
    }

    /// The root span, when traced.
    #[must_use]
    pub fn root(&self) -> Option<SpanId> {
        self.0.as_ref().map(|clock| clock.root.0)
    }

    /// Ends the open phase and opens phase `kind`; returns its span.
    pub fn next(&mut self, kind: &'static str) -> Option<SpanId> {
        let clock = self.0.as_mut()?;
        let start = clock.lap();
        clock.open = clock.phase(kind, clock.root.0, start).map(|span| (span, kind));
        clock.open.map(|(span, _)| span)
    }

    /// Labels the open phase (the root, before the first) `Kind [detail]`.
    pub fn note(&self, detail: impl FnOnce() -> String) {
        if let Some(clock) = &self.0 {
            let (span, kind) = clock.current();
            let label = format!("{kind} [{}]", detail());
            clock.ctx.end_span(span, SpanStats::default(), None, Some(label));
        }
    }

    /// Records the parts of the open phase (the root, before the first)
    /// that the code it timed measured itself, `(kind, seconds)`, as its
    /// children, end to end from its start.
    pub fn parts<const N: usize>(&self, parts: impl FnOnce() -> [(&'static str, f64); N]) {
        if let Some(clock) = &self.0 {
            let mut at = clock.lap_ns;
            for (kind, seconds) in parts() {
                let wall = (seconds.max(0.0) * 1e9).round() as u64;
                if let Some(part) = clock.phase(kind, clock.current().0, at) {
                    clock.end(part, wall);
                }
                at += wall;
            }
        }
    }

    /// Ends the open phase and the root, both now.
    pub fn finish(&mut self) {
        if let Some(mut clock) = self.0.take() {
            let wall = clock.lap() - clock.root_ns;
            clock.end(clock.root.0, wall);
        }
    }
}

/// Decorator recording a [`SpanStats`] for the wrapped operator. Deltas
/// are measured inclusively (the window around a call contains the whole
/// subtree's work, like `total_cost`). The accumulated totals end the
/// span once, on `close` (or on drop as a backstop), on the trail of the
/// context it wraps; exchange worker wrappers share one span id, so their
/// ends merge.
pub struct TracedExec<'a> {
    inner: BoxedOperator<'a>,
    span: SpanId,
    ctx: ExecContext,
    /// The disk whose counters this span may read. `None` for exchange
    /// worker spans: concurrent workers' windows over the shared disk
    /// overlap, so per-worker deltas would double-count — the enclosing
    /// exchange node's span accounts the I/O exactly instead.
    disk: Option<SimDisk>,
    local: SpanStats,
    flushed: bool,
}

impl<'a> TracedExec<'a> {
    /// Wraps `inner`, accumulating into `span` what `ctx`'s counters and
    /// governor and `disk` see, and ending it on `ctx`'s trail.
    #[must_use]
    pub fn new(
        inner: BoxedOperator<'a>,
        span: SpanId,
        ctx: ExecContext,
        disk: Option<SimDisk>,
    ) -> TracedExec<'a> {
        TracedExec { inner, span, ctx, disk, local: SpanStats::default(), flushed: false }
    }

    fn measured<T>(
        &mut self,
        is_open: bool,
        call: impl FnOnce(&mut BoxedOperator<'a>) -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        let cpu_before = self.ctx.counters.snapshot();
        let io_before = self.disk.as_ref().map(SimDisk::stats);
        let started = Instant::now();
        let result = call(&mut self.inner);
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if is_open {
            self.local.opens += 1;
            self.local.open_wall_ns += wall;
        } else {
            self.local.next_wall_ns += wall;
        }
        self.local.cpu += self.ctx.counters.snapshot().since(&cpu_before);
        if let (Some(disk), Some(before)) = (self.disk.as_ref(), io_before) {
            self.local.io += disk.stats().since(&before);
            self.local.temp_pages_peak =
                self.local.temp_pages_peak.max(disk.temp_pages().high_water);
        }
        self.local.mem_peak = self.local.mem_peak.max(self.ctx.governor.memory_peak());
        if result.is_err() {
            self.local.errors += 1;
        }
        result
    }

    fn flush(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.ctx.end_span(self.span, self.local, None, None);
        }
    }
}

impl Operator for TracedExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.measured(true, |op| op.open())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        let result = self.measured(false, |op| op.next_batch(max_rows));
        if let Ok(Some(batch)) = &result {
            self.local.rows += batch.len() as u64;
            self.local.batches += 1;
        }
        result
    }

    fn close(&mut self) {
        self.inner.close();
        self.flush();
    }

    fn layout(&self) -> &TupleLayout {
        self.inner.layout()
    }

    fn estimated_rows(&self) -> Option<u64> {
        self.inner.estimated_rows()
    }
}

impl Drop for TracedExec<'_> {
    fn drop(&mut self) {
        // Backstop for operators abandoned without close (e.g. a failed
        // choose-plan attempt whose caller forgot teardown): the span
        // still records the work done. `flushed` makes this idempotent.
        self.flush();
    }
}

/// Builds an operator of `kind` — plan node `node`'s, when it is one —
/// with `compile`. When `ctx` traces, the operator opens a span under
/// `ctx`'s span parent, `compile` runs under a context whose span parent is
/// that span (so its inputs' spans nest), and the operator is wrapped in
/// a [`TracedExec`] that reads `disk`. Untraced, the compile path pays one
/// branch and allocates nothing.
///
/// # Errors
/// The error of `compile`.
pub fn traced_operator<'a>(
    ctx: &ExecContext,
    kind: &'static str,
    node: Option<(&Plan, NodeId)>,
    disk: &SimDisk,
    compile: impl FnOnce(&ExecContext) -> Result<BoxedOperator<'a>, ExecError>,
) -> Result<BoxedOperator<'a>, ExecError> {
    let Some(span) = ctx.open_span(kind, node, String::new, ctx.span_parent, None) else {
        return compile(ctx);
    };
    let mut child = ctx.clone();
    child.span_parent = Some(span);
    let op = compile(&child)?;
    Ok(Box::new(TracedExec::new(op, span, child, Some(disk.clone()))))
}
