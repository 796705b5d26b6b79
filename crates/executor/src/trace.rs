//! Per-operator execution tracing.
//!
//! A [`Tracer`] collects one [`SpanRecord`] per compiled operator. The
//! compiler ([`crate::compile_plan`]) opens a span for every plan node
//! when the [`ExecContext`] carries a tracer and wraps the produced
//! operator in a [`TracedExec`] decorator; with no tracer the compiled
//! tree is byte-identical to the untraced one — no wrapper, no span, no
//! per-row work — so the disabled path costs one branch per plan node at
//! compile time and nothing at run time.
//!
//! Span statistics accumulate *locally* inside each wrapper (plain field
//! updates, no locking on the hot path) and flush into the tracer exactly
//! once, on `close`. Exchange workers share a single span: each worker's
//! wrapper flushes its private [`SpanStats`] and the tracer merges them
//! with [`SpanStats::merge_from`] — the same shape as
//! [`SharedCounters::merge_from`], and merge-order independent by the
//! same argument (all fields are sums, except the memory high-water which
//! merges with `max`).
//!
//! A tracer only traces. What a run decides is recorded once, traced or
//! not, on the run's trail ([`ExecContext::record`]). A tracer adds what
//! only a trace knows — spans, each arbitration's [`ChooseAudit`] — and
//! its id, which the journal events of a traced run carry. The run hands
//! its trail to its tracer once, at its end ([`crate::run`]): audit
//! outcomes and the re-optimization report are read off it
//! ([`TraceReport::outcomes`], [`TraceReport::reopt`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dqep_interval::Interval;
use dqep_plan::{NodeId, Plan, PlanNode};
use dqep_storage::{IoStats, SimDisk};
use parking_lot::Mutex;

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::exec::{BoxedOperator, Operator};
use crate::governor::{ExecContext, ResourceGovernor};
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

/// Index of a span inside its [`Tracer`]. Stable for the tracer's
/// lifetime; parents always have smaller ids than their children because
/// the compiler opens spans top-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub usize);

/// The optimizer's compile-time interval estimate for one plan node,
/// captured when the node is compiled so EXPLAIN ANALYZE can diff it
/// against actuals.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone, Copy, Default)]
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
    /// `tests/observability.rs` exercises under concurrent flushes.
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
    /// only): proof the trace context propagated across the wire. Remapped
    /// into merged-report coordinates by [`merge_distributed`].
    pub remote_span: Option<u64>,
}

/// One traced operator: identity, estimate, and measured totals.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct AltAudit {
    /// Index among the choose-plan's children.
    pub index: usize,
    /// Operator label of the alternative's root.
    pub label: String,
    /// Predicted run seconds under the bound parameter values.
    pub predicted_seconds: f64,
}

/// One open attempt during a choose-plan's run-time arbitration.
#[derive(Debug, Clone)]
pub struct AttemptAudit {
    /// Alternative index attempted.
    pub index: usize,
    /// `"opened"`, or the error that forced a fallback.
    pub outcome: String,
}

/// What a trace alone knows of one choose-plan arbitration: what was
/// considered, under which bindings, and the attempts in order. Its
/// outcome is the run's trail's ([`TraceReport::outcomes`]).
#[derive(Debug, Clone)]
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

#[derive(Debug, Default)]
struct TracerInner {
    spans: Vec<SpanRecord>,
    audits: Vec<ChooseAudit>,
    trail: Vec<RunEvent>,
}

/// Collector for one traced execution. Cheap to share (`Arc`); wrappers
/// only take its lock twice per operator (span creation and the single
/// flush on close), never per row.
#[derive(Debug)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
    trace_id: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, empty tracer with a new process-unique trace id.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::with_trace_id(next_trace_id())
    }

    /// A tracer participating in an existing distributed trace: spans it
    /// records carry `trace_id`, so per-shard reports can be merged into
    /// one connected timeline and frame headers stamp the shared id.
    #[must_use]
    pub fn with_trace_id(trace_id: u64) -> Tracer {
        Tracer { inner: Mutex::default(), trace_id }
    }

    /// The distributed trace id all this tracer's spans belong to.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Registers a new span and returns its id.
    pub fn span(
        &self,
        label: String,
        kind: &'static str,
        node: Option<u64>,
        estimate: Option<NodeEstimate>,
        parent: Option<SpanId>,
        dop: usize,
    ) -> SpanId {
        let start_ns = crate::journal::monotonic_ns();
        let mut inner = self.inner.lock();
        let id = SpanId(inner.spans.len());
        inner.spans.push(SpanRecord {
            id,
            parent,
            label,
            kind,
            node,
            estimate,
            dop,
            stats: SpanStats::default(),
            start_ns,
            net: None,
        });
        id
    }

    /// A span of no plan node, labelled `kind`, from `start` (ns) for
    /// `wall` ns (its `open_wall_ns`).
    fn phase(&self, kind: &'static str, parent: Option<SpanId>, start: u64, wall: u64) -> SpanId {
        let id = self.span(kind.to_string(), kind, None, None, parent, 1);
        self.edit(id, |r| (r.start_ns, r.stats.open_wall_ns) = (start, wall));
        id
    }

    /// Applies `edit` to `id`'s record.
    fn edit(&self, id: SpanId, edit: impl FnOnce(&mut SpanRecord)) {
        if let Some(record) = self.inner.lock().spans.get_mut(id.0) {
            edit(record);
        }
    }

    /// Attaches wire accounting to a network-exchange span.
    pub fn set_net(&self, id: SpanId, net: NetSpanStats) {
        self.edit(id, |record| record.net = Some(net));
    }

    /// Merges a wrapper's locally accumulated totals into `id`'s record.
    /// Safe to call concurrently from exchange workers sharing a span.
    pub fn merge_span(&self, id: SpanId, stats: &SpanStats) {
        self.edit(id, |record| record.stats.merge_from(stats));
    }

    /// Appends a choose-plan audit trail.
    pub fn audit(&self, audit: ChooseAudit) {
        self.inner.lock().audits.push(audit);
    }

    /// Takes the trail of the run being traced, as it stood at the run's
    /// end.
    pub(crate) fn set_trail(&self, trail: Vec<RunEvent>) {
        self.inner.lock().trail = trail;
    }

    /// Snapshot of everything recorded so far.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        let inner = self.inner.lock();
        TraceReport {
            trace_id: self.trace_id,
            spans: inner.spans.clone(),
            audits: inner.audits.clone(),
            trail: inner.trail.clone(),
        }
    }
}

/// An immutable snapshot of a [`Tracer`]: the span tree, the choose-plan
/// audits in creation order (top-down), and the run's trail.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// The distributed trace id shared by every span (0 for a default
    /// report that never saw a tracer).
    pub trace_id: u64,
    /// All spans; a span's id is its index.
    pub spans: Vec<SpanRecord>,
    /// Choose-plan audits, in arbitration order.
    pub audits: Vec<ChooseAudit>,
    /// The trail of the traced run, handed over at its end (empty before).
    pub trail: Vec<RunEvent>,
}

impl TraceReport {
    /// Each audit with its arbitration's outcome off the trail (`None`
    /// past the trail's end): a traced run writes both at every
    /// arbitration, and a merged report concatenates both in one order, so
    /// the k-th audit is the k-th arbitration.
    #[must_use]
    pub fn outcomes(&self) -> Vec<(&ChooseAudit, Option<ArbitrationOutcome>)> {
        let mut arbitrations = self.trail.iter().filter_map(|e| match e {
            RunEvent::Arbitration { winner, fallbacks, .. } => Some((*winner, *fallbacks)),
            _ => None,
        });
        self.audits.iter().map(|audit| (audit, arbitrations.next())).collect()
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
/// phases are contiguous and sum to the root to the nanosecond. Without a
/// tracer a `Phases` is `None`: every call is one branch and reads no
/// clock, as [`crate::compile_plan`] takes one branch a plan node.
#[derive(Debug, Default)]
pub struct Phases(Option<PhaseClock>);

#[derive(Debug)]
struct PhaseClock {
    tracer: Arc<Tracer>,
    root: SpanId,
    /// The open phase, once there is one.
    open: Option<SpanId>,
    /// The reading the root started at.
    root_ns: u64,
    /// The reading the open phase started at.
    lap_ns: u64,
}

impl PhaseClock {
    /// Ends the open phase now; returns the reading the next one starts at.
    fn lap(&mut self) -> u64 {
        if let Some(open) = self.open.take() {
            let now = crate::journal::monotonic_ns();
            let wall = now - self.lap_ns;
            self.tracer.edit(open, |r| r.stats.open_wall_ns = wall);
            self.lap_ns = now;
        }
        self.lap_ns
    }
}

impl Phases {
    /// Opens the root span `kind` of a request traced into `tracer`.
    #[must_use]
    pub fn start(tracer: Option<&Arc<Tracer>>, kind: &'static str) -> Phases {
        Phases(tracer.map(|tracer| {
            let now = crate::journal::monotonic_ns();
            let root = tracer.phase(kind, None, now, 0);
            PhaseClock { tracer: Arc::clone(tracer), root, open: None, root_ns: now, lap_ns: now }
        }))
    }

    /// Ends the open phase and opens phase `kind`; returns its span.
    pub fn next(&mut self, kind: &'static str) -> Option<SpanId> {
        let clock = self.0.as_mut()?;
        let start = clock.lap();
        clock.open = Some(clock.tracer.phase(kind, Some(clock.root), start, 0));
        clock.open
    }

    /// Labels the open phase (the root, before the first) `Kind [detail]`.
    pub fn note(&self, detail: impl FnOnce() -> String) {
        if let Some(clock) = &self.0 {
            let detail = detail();
            let open = clock.open.unwrap_or(clock.root);
            clock.tracer.edit(open, |r| r.label = format!("{} [{detail}]", r.kind));
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
                clock.tracer.phase(kind, clock.open.or(Some(clock.root)), at, wall);
                at += wall;
            }
        }
    }

    /// Ends the open phase and the root, both now.
    pub fn finish(&mut self) {
        if let Some(clock) = &mut self.0 {
            let wall = clock.lap() - clock.root_ns;
            clock.tracer.edit(clock.root, |r| r.stats.open_wall_ns = wall);
        }
    }
}

/// Merges a distributed execution's per-shard trace reports into the
/// coordinator's report, producing one connected span tree.
///
/// The coordinator's spans keep their ids (its root — span 0 — becomes
/// the merged root). Each shard's spans are appended in shard order with
/// their ids and parents shifted by that shard's offset; a shard-local
/// root (parent `None`) is re-parented onto the coordinator root, so the
/// merged report has exactly one root. Receive-side network spans carry
/// the sender's *local* span id recovered from the frame header; those
/// are remapped through the sender's offset (`net.from` names the sending
/// shard), which keeps the cross-wire link pointing at the right span in
/// merged coordinates. The invariants the JSON schema validator enforces
/// — `id == index`, `parent < id` — are preserved by construction.
///
/// Audits and trails concatenate in the same order (coordinator first),
/// so each audit still meets its own arbitration.
#[must_use]
pub fn merge_distributed(coord: &TraceReport, shards: &[TraceReport]) -> TraceReport {
    // Where each shard's spans start in the merged report.
    let offsets: Vec<usize> = shards
        .iter()
        .scan(coord.spans.len(), |at, shard| Some(std::mem::replace(at, *at + shard.spans.len())))
        .collect();
    let coord_root = (!coord.spans.is_empty()).then_some(SpanId(0));
    let mut merged = coord.clone();
    for (shard, &offset) in shards.iter().zip(&offsets) {
        merged.spans.extend(shard.spans.iter().map(|span| SpanRecord {
            id: SpanId(span.id.0 + offset),
            parent: span.parent.map(|p| SpanId(p.0 + offset)).or(coord_root),
            ..span.clone()
        }));
        merged.audits.extend(shard.audits.iter().cloned());
        merged.trail.extend(shard.trail.iter().cloned());
    }
    // A propagated remote span id is local to its sender (`net.from`):
    // its shard's offset shifts it; a sender outside the shard range (the
    // coordinator never sends) leaves it untouched.
    for net in merged.spans.iter_mut().filter_map(|span| span.net.as_mut()) {
        if let (Some(remote), Some(&offset)) = (net.remote_span, offsets.get(net.from as usize)) {
            net.remote_span = Some(remote + offset as u64);
        }
    }
    merged
}

/// Decorator recording a [`SpanStats`] for the wrapped operator. Deltas
/// are measured inclusively (the window around a call contains the whole
/// subtree's work, like `total_cost`). The accumulated totals flush into
/// the tracer once, on `close` (or on drop as a backstop); exchange
/// worker wrappers share one span id, so their flushes merge.
pub struct TracedExec<'a> {
    inner: BoxedOperator<'a>,
    tracer: Arc<Tracer>,
    span: SpanId,
    counters: SharedCounters,
    /// The disk whose counters this span may read. `None` for exchange
    /// worker spans: concurrent workers' windows over the shared disk
    /// overlap, so per-worker deltas would double-count — the enclosing
    /// exchange node's span accounts the I/O exactly instead.
    disk: Option<SimDisk>,
    governor: ResourceGovernor,
    local: SpanStats,
    flushed: bool,
}

impl<'a> TracedExec<'a> {
    /// Wraps `inner`, accumulating into `span` of `tracer` what `ctx`'s
    /// counters and governor and `disk` see.
    #[must_use]
    pub fn new(
        inner: BoxedOperator<'a>,
        tracer: Arc<Tracer>,
        span: SpanId,
        ctx: &ExecContext,
        disk: Option<SimDisk>,
    ) -> TracedExec<'a> {
        let (counters, governor) = (ctx.counters.clone(), ctx.governor.clone());
        let local = SpanStats::default();
        TracedExec { inner, tracer, span, counters, disk, governor, local, flushed: false }
    }

    fn measured<T>(
        &mut self,
        is_open: bool,
        call: impl FnOnce(&mut BoxedOperator<'a>) -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        let cpu_before = self.counters.snapshot();
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
        self.local.cpu += self.counters.snapshot().since(&cpu_before);
        if let (Some(disk), Some(before)) = (self.disk.as_ref(), io_before) {
            self.local.io += disk.stats().since(&before);
            self.local.temp_pages_peak =
                self.local.temp_pages_peak.max(disk.temp_pages().high_water);
        }
        self.local.mem_peak = self.local.mem_peak.max(self.governor.memory_peak());
        if result.is_err() {
            self.local.errors += 1;
        }
        result
    }

    fn flush(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.tracer.merge_span(self.span, &self.local);
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

/// Compiles the plan's node `id` with `compile`. When `ctx` traces, the
/// node gets a span, `compile` runs under a context whose span parent is
/// that span (so its inputs' spans nest), and the operator is wrapped in
/// a [`TracedExec`] that reads `disk`. Untraced, the compile path pays one
/// branch and allocates nothing.
pub(crate) fn traced_node<'a>(
    ctx: &ExecContext,
    plan: &Plan,
    id: NodeId,
    disk: &SimDisk,
    compile: impl FnOnce(&ExecContext) -> Result<BoxedOperator<'a>, ExecError>,
) -> Result<BoxedOperator<'a>, ExecError> {
    let Some(tracer) = &ctx.tracer else { return compile(ctx) };
    let node = &plan[id];
    let (label, estimate) = (plan.label(id).to_string(), Some(NodeEstimate::of(node)));
    let (node_id, parent) = (Some(u64::from(id.0)), ctx.span_parent);
    let span = tracer.span(label, node.op.name(), node_id, estimate, parent, ctx.dop);
    let mut child = ctx.clone();
    child.span_parent = Some(span);
    let op = compile(&child)?;
    Ok(Box::new(TracedExec::new(op, Arc::clone(tracer), span, &child, Some(disk.clone()))))
}
