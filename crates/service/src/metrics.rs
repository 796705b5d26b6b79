//! Service metrics: one registry of counters and latency histograms, one
//! table that says how each of them is exported, and three loops over that
//! table — the JSON document, the Prometheus exposition and the JSON
//! validator — so the exporters cannot disagree about what exists.
//! Adding a signal is a row in [`metric_table!`] and a call site.
//!
//! Histograms use power-of-two nanosecond buckets: `record` is two atomic
//! adds and a `fetch_max` — safe from every session's thread with no lock —
//! and quantiles are read from the bucket boundaries, so p50/p95/p99 are
//! upper bounds with at most one octave of error. That is the standard
//! trade for fixed-memory, lock-free latency tracking; the mean and max
//! are exact.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dqep_executor::Kind::{NonNeg, Optional};
use dqep_executor::{
    journal, json_block, parse_json, At, EventKind, ExecError, JsonValue, JsonWriter,
    ReoptCounters, Resource, NO_ID,
};

use crate::error::ServiceError;

/// Power-of-two buckets from 1 ns up: bucket `i` covers
/// `[2^i, 2^(i+1))` ns, the last bucket everything above (~3.2 hours).
const BUCKETS: usize = 44;

/// A lock-free fixed-bucket log-scale histogram of durations.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// The upper bound of bucket `i`, in seconds.
fn bucket_upper_seconds(i: usize) -> f64 {
    2u64.saturating_pow(i as u32 + 1) as f64 / 1e9
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// The `q`-quantile (`0 < q <= 1`) in seconds, as the containing
    /// bucket's upper bound clamped to the observed maximum; `0.0` when
    /// nothing was recorded.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let max_seconds = self.max_ns.load(Ordering::Relaxed) as f64 / 1e9;
        for (i, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper_seconds(i).min(max_seconds);
            }
        }
        max_seconds
    }

    /// A point-in-time summary of the histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            mean_seconds: if count == 0 {
                0.0
            } else {
                total_ns as f64 / count as f64 / 1e9
            },
            p50_seconds: self.quantile(0.50),
            p95_seconds: self.quantile(0.95),
            p99_seconds: self.quantile(0.99),
            max_seconds: self.max_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Summary statistics read from a [`Histogram`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact mean, seconds.
    pub mean_seconds: f64,
    /// Median upper bound, seconds.
    pub p50_seconds: f64,
    /// 95th-percentile upper bound, seconds.
    pub p95_seconds: f64,
    /// 99th-percentile upper bound, seconds.
    pub p99_seconds: f64,
    /// Exact maximum, seconds.
    pub max_seconds: f64,
}

/// One row of the metric table: where a metric lives in the JSON
/// document, and its family, type (`counter` | `gauge`) and help text in
/// the Prometheus exposition.
struct Row {
    metric: Metric,
    kind: &'static str,
    section: &'static str,
    key: &'static str,
    family: &'static str,
    help: &'static str,
}

/// Declares [`Metric`] and its table from one list, so a metric cannot
/// exist without a row (or a row without a metric) and the table is in
/// discriminant order. A row: variant, Prometheus type, JSON section and
/// key, Prometheus family, help text (also the variant's documentation).
macro_rules! metric_table {
    ($($variant:ident $kind:ident $section:literal $key:literal $family:literal $help:literal;)*) => {
        /// Everything the registry counts. Each metric is one cell, except
        /// the last, [`Metric::ShardWinner`]: a run of [`SHARD_WINNER_SLOTS`]
        /// cells, one per choose-plan alternative index — a JSON array, a
        /// Prometheus family labelled `alternative`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $variant,)*
        }

        const TABLE: &[Row] = &[$(Row {
            metric: Metric::$variant,
            kind: stringify!($kind),
            section: $section,
            key: $key,
            family: $family,
            help: $help,
        },)*];
    };
}

metric_table! {
    Completed counter "sessions" "completed" "dqep_sessions_completed_total"
        "Sessions completed successfully.";
    Failed counter "sessions" "failed" "dqep_sessions_failed_total" "Sessions that failed.";
    RefusedAdmissionTimeout counter "sessions" "refused_admission_timeout"
        "dqep_refused_admission_timeout_total" "Sessions refused by admission timeout.";
    RefusedGrantTooLarge counter "sessions" "refused_grant_too_large"
        "dqep_refused_grant_too_large_total"
        "Sessions refused for requesting more memory than the pool holds.";
    RefusedLinkFault counter "sessions" "refused_link_fault" "dqep_refused_link_fault_total"
        "Queries failed by an exhausted link retransmission budget.";
    RefusedMemoryExhausted counter "sessions" "refused_memory_exhausted"
        "dqep_refused_memory_exhausted_total"
        "Queries failed by an unservable memory reservation.";
    AdmissionRetries counter "sessions" "admission_retries" "dqep_admission_retries_total"
        "Admissions granted only on a retry rung.";
    Fallbacks counter "sessions" "fallbacks" "dqep_fallbacks_total"
        "Retryable failures absorbed by fallback.";
    Rows counter "sessions" "rows" "dqep_rows_total" "Result rows of successful sessions.";
    SimulatedIoPages counter "sessions" "simulated_io_pages" "dqep_simulated_io_pages_total"
        "Pages read or written on the simulated disks by successful sessions.";
    TempPagesHighWater gauge "sessions" "temp_pages_high_water" "dqep_temp_pages_high_water"
        "Most temp pages one session held on disk at once.";
    ReplicasResident gauge "sessions" "replicas_resident" "dqep_replicas_resident"
        "Database replicas generated so far (at most the configured workers).";
    StatementHits counter "plan_cache" "statement_hits" "dqep_statement_hits_total"
        "Statement lookups served from the prepared-statement registry.";
    StatementMisses counter "plan_cache" "statement_misses" "dqep_statement_misses_total"
        "Statement lookups that had to parse and optimize.";
    StatementEvictions counter "plan_cache" "statement_evictions"
        "dqep_statement_evictions_total" "Prepared statements evicted by the LRU policy.";
    StatementResident gauge "plan_cache" "statement_resident" "dqep_statement_resident"
        "Prepared statements currently resident.";
    DecisionHits counter "plan_cache" "decision_hits" "dqep_decision_hits_total"
        "Executions whose start-up decision came from the decision cache.";
    DecisionMisses counter "plan_cache" "decision_misses" "dqep_decision_misses_total"
        "Executions that ran the full start-up decision procedure.";
    CachedPlanRetries counter "plan_cache" "cached_plan_retries"
        "dqep_cached_plan_retries_total"
        "Cached resolved plans that failed retryably and were re-arbitrated.";
    FeedbackInvalidations counter "plan_cache" "feedback_invalidations"
        "dqep_feedback_invalidations_total"
        "Decision-cache invalidations triggered by cardinality feedback.";
    ReoptCheckpoints counter "reopt" "checkpoints" "dqep_reopt_checkpoints_total"
        "Pipeline-breaker checkpoints observed.";
    ReoptEscapes counter "reopt" "escapes" "dqep_reopt_escapes_total"
        "Checkpoint observations outside their estimate interval.";
    ReoptReplans counter "reopt" "replans" "dqep_reopt_replans_total"
        "Mid-query re-plans adopted.";
    ReoptFallbacks counter "reopt" "fallbacks" "dqep_reopt_fallbacks_total"
        "Re-planned runs reverted to the original arbitration.";
    ShardQueries counter "shard" "queries" "dqep_shard_queries_total" "Sharded queries executed.";
    NetBytes counter "shard" "net_bytes" "dqep_net_bytes_total"
        "Cross-shard bytes on the wire (retransmissions included).";
    NetFrames counter "shard" "net_frames" "dqep_net_frames_total"
        "Cross-shard frames delivered.";
    NetRetransmits counter "shard" "net_retransmits" "dqep_net_retransmits_total"
        "Transmissions dropped by link faults and re-sent.";
    NetCreditStalls counter "shard" "net_credit_stalls" "dqep_net_credit_stalls_total"
        "Sends blocked on credit backpressure.";
    ShardDivergentNodes counter "shard" "divergent_nodes" "dqep_shard_divergent_nodes_total"
        "Choose nodes whose winner diverged across shards.";
    ShardWinner counter "shard" "winner_counts" "dqep_shard_winner_total"
        "Per-shard arbitration wins by alternative index.";
}

/// Tracked choose-plan alternative indices in the per-winner counters;
/// higher indices fold into the last slot. Real dynamic plans carry a
/// handful of alternatives per choose node, so 8 slots lose nothing.
pub const SHARD_WINNER_SLOTS: usize = 8;

/// Cells in a registry: one per metric, the vector (last) taking a run.
const CELLS: usize = Metric::ShardWinner as usize + SHARD_WINNER_SLOTS;
const _: () = assert!(TABLE.len() == Metric::ShardWinner as usize + 1);

/// The sections of the JSON document, in the order they are written.
const SECTIONS: [&str; 4] = ["sessions", "plan_cache", "reopt", "shard"];

/// Values the JSON document derives from two counters: section, key, and
/// the hit and miss counters whose [`hit_rate`] it is. Prometheus leaves
/// rates to the query side.
const RATES: [(&str, &str, Metric, Metric); 2] = [
    (
        "plan_cache",
        "statement_hit_rate",
        Metric::StatementHits,
        Metric::StatementMisses,
    ),
    (
        "plan_cache",
        "decision_hit_rate",
        Metric::DecisionHits,
        Metric::DecisionMisses,
    ),
];

/// Hits over all lookups, in `[0, 1]`; 1.0 when nothing was looked up.
pub(crate) fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 1.0,
        total => hits as f64 / total as f64,
    }
}

/// The registry's latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Submission-to-completion latency of successful sessions.
    Latency,
    /// Time successful sessions spent waiting for a database replica
    /// (the service's queue).
    QueueWait,
    /// Credit-wait of network-exchange sends that actually stalled
    /// (unstalled sends are not recorded — the histogram reads as "when
    /// backpressure bit, how hard").
    NetQueueWait,
}

/// The histogram table, in [`Hist`] order: JSON key (the Prometheus
/// family is the key behind `dqep_`) and help text.
const HISTS: [(&str, &str); 3] = [
    (
        "latency_seconds",
        "Submission-to-completion latency of successful sessions.",
    ),
    (
        "queue_wait_seconds",
        "Wait of successful sessions for a database replica.",
    ),
    (
        "net_queue_wait_seconds",
        "Credit-wait of stalled network sends.",
    ),
];

// A histogram summary in the JSON document; values are in seconds.
json_block! {
    SUMMARY, fn write_summary(w, h: &HistogramSnapshot) {
        "count": NonNeg => h.count,
        "mean": NonNeg => h.mean_seconds,
        "p50": NonNeg => h.p50_seconds,
        "p95": NonNeg => h.p95_seconds,
        "p99": NonNeg => h.p99_seconds,
        "max": NonNeg => h.max_seconds,
    }
}

/// The one stats store of a service: every counter and histogram its
/// sessions, caches and exchange links record into.
/// Lock-free; shared by `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    cells: [AtomicU64; CELLS],
    hists: [Histogram; HISTS.len()],
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl MetricsRegistry {
    /// A fresh registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, metric: Metric, n: u64) {
        self.cells[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one per-shard choose-plan arbitration won by alternative
    /// `index` (indices past the tracked slots fold into the last).
    pub fn add_winner(&self, index: usize) {
        let slot = index.min(SHARD_WINNER_SLOTS - 1);
        self.cells[Metric::ShardWinner as usize + slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Raises a high-water gauge to at least `value`.
    pub fn max(&self, metric: Metric, value: u64) {
        self.cells[metric as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// The current value of a metric (slot 0 of the vector).
    #[must_use]
    pub fn get(&self, metric: Metric) -> u64 {
        self.cells[metric as usize].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, hist: Hist, duration: Duration) {
        self.hists[hist as usize].record(duration);
    }

    /// Records one finished query, whichever service ran it: a success
    /// with its `(rows, fallbacks)` and submission-to-completion latency,
    /// a failure with its refusal class.
    pub fn record_query(&self, outcome: Result<(u64, u64), &ServiceError>, latency: Duration) {
        match outcome {
            Ok((rows, fallbacks)) => {
                self.add(Metric::Completed, 1);
                self.add(Metric::Rows, rows);
                self.add(Metric::Fallbacks, fallbacks);
                self.observe(Hist::Latency, latency);
            }
            Err(e) => {
                self.add(Metric::Failed, 1);
                self.classify_failure(e);
            }
        }
    }

    /// Classifies one failed query into the refusal counters: admission
    /// timeouts and oversized grants keep their dedicated buckets, a
    /// network error (retransmission budget exhausted on a link fault)
    /// counts as a link-fault refusal, and a refused memory reservation
    /// (the shard-join degradation ladder running dry included) counts as
    /// a memory-exhaustion refusal. Each classified refusal also lands an
    /// [`EventKind::AdmissionRefusal`] event in the flight recorder.
    fn classify_failure(&self, error: &ServiceError) {
        let bucket = match error {
            ServiceError::AdmissionTimeout { .. } => Metric::RefusedAdmissionTimeout,
            ServiceError::GrantTooLarge { .. } => Metric::RefusedGrantTooLarge,
            ServiceError::Exec(ExecError::Network(_)) => Metric::RefusedLinkFault,
            ServiceError::Exec(ExecError::ResourceExhausted(Resource::Memory { .. })) => {
                Metric::RefusedMemoryExhausted
            }
            _ => return,
        };
        let total = self.cells[bucket as usize].fetch_add(1, Ordering::Relaxed) + 1;
        journal().record(EventKind::AdmissionRefusal, 0, NO_ID, NO_ID, total, NO_ID);
    }

    /// Folds one session's re-optimization counters into the service
    /// totals: checkpoints observed, interval escapes, re-plans adopted,
    /// and reverts to the original arbitration.
    pub fn record_reopt(&self, counters: &ReoptCounters) {
        self.add(Metric::ReoptCheckpoints, counters.checkpoints);
        self.add(Metric::ReoptEscapes, counters.escapes);
        self.add(Metric::ReoptReplans, counters.replans_adopted);
        self.add(Metric::ReoptFallbacks, counters.fallbacks);
    }

    /// A point-in-time copy of every counter and histogram summary.
    #[must_use]
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            cells: std::array::from_fn(|i| self.cells[i].load(Ordering::Relaxed)),
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// Everything a service exports on shutdown (and on demand): a snapshot
/// of a [`MetricsRegistry`], written out by loops over the metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricsReport {
    cells: [u64; CELLS],
    hists: [HistogramSnapshot; HISTS.len()],
}

impl MetricsReport {
    /// The value of a metric (slot 0 of the vector).
    #[must_use]
    pub fn get(&self, metric: Metric) -> u64 {
        self.cells[metric as usize]
    }

    /// Overwrites a metric a service reads from elsewhere at snapshot
    /// time (the prepared-statement registry keeps its own counters).
    pub fn set(&mut self, metric: Metric, value: u64) {
        self.cells[metric as usize] = value;
    }

    /// Per-alternative-index winner counts across per-shard arbitrations.
    #[must_use]
    pub fn winners(&self) -> &[u64] {
        &self.cells[Metric::ShardWinner as usize..]
    }

    /// The summary of a histogram.
    #[must_use]
    pub fn hist(&self, hist: Hist) -> &HistogramSnapshot {
        &self.hists[hist as usize]
    }

    /// Writes the report as one JSON object: a member per section holding
    /// its table rows (and derived rates), a member per histogram holding
    /// its summary in seconds.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            for section in SECTIONS {
                w.key(section).obj(|w| {
                    for row in TABLE.iter().filter(|row| row.section == section) {
                        if row.metric == Metric::ShardWinner {
                            w.key(row.key).arr(self.winners(), |w, wins| w.val(*wins));
                        } else {
                            w.key(row.key).val(self.get(row.metric));
                        }
                    }
                    for (_, key, hits, misses) in RATES.iter().filter(|r| r.0 == section) {
                        w.key(key).val(hit_rate(self.get(*hits), self.get(*misses)));
                    }
                });
            }
            for ((key, _), h) in HISTS.iter().zip(&self.hists) {
                w.key(key).obj(|w| write_summary(w, h));
            }
        });
    }

    /// The report as a JSON document (one line: also the unit of the
    /// append-only JSON-lines time-series export).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// The report as a Prometheus text exposition: `# HELP`/`# TYPE`
    /// metadata, one family per table row, and histogram summaries with
    /// `quantile` labels plus `_sum`/`_count` series.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for row in TABLE {
            let Row { family, help, kind, .. } = row;
            let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} {kind}");
            if row.metric == Metric::ShardWinner {
                for (i, wins) in self.winners().iter().enumerate() {
                    let _ = writeln!(out, "{family}{{alternative=\"{i}\"}} {wins}");
                }
            } else {
                let _ = writeln!(out, "{family} {}", self.get(row.metric));
            }
        }
        for ((key, help), h) in HISTS.iter().zip(&self.hists) {
            let _ = writeln!(out, "# HELP dqep_{key} {help}\n# TYPE dqep_{key} summary");
            for (q, v) in [
                ("0.5", h.p50_seconds),
                ("0.95", h.p95_seconds),
                ("0.99", h.p99_seconds),
            ] {
                let _ = writeln!(out, "dqep_{key}{{quantile=\"{q}\"}} {}", pnum(v));
            }
            let _ = writeln!(
                out,
                "dqep_{key}_sum {}",
                pnum(h.mean_seconds * h.count as f64)
            );
            let _ = writeln!(out, "dqep_{key}_count {}", h.count);
        }
        out
    }
}

/// Checks one metrics object (a [`MetricsReport::write_json`] document)
/// against the metric table.
fn check_report(doc: &At) -> Result<(), String> {
    for section in SECTIONS {
        let obj = doc.obj(section)?;
        for row in TABLE.iter().filter(|row| row.section == section) {
            if row.metric == Metric::ShardWinner {
                let slots = obj.arr(row.key)?;
                if slots.len() != SHARD_WINNER_SLOTS {
                    return obj.expected(row.key, &format!("{SHARD_WINNER_SLOTS} slots"));
                }
                slots.into_iter().try_for_each(|slot| slot.is(NonNeg))?;
            } else {
                obj.check(row.key, NonNeg)?;
            }
        }
        for (_, key, ..) in RATES.iter().filter(|r| r.0 == section) {
            obj.check(key, NonNeg)?;
            if obj.num(key) > Some(1.0) {
                return obj.expected(key, "a rate in [0, 1]");
            }
        }
    }
    HISTS
        .iter()
        .try_for_each(|(key, _)| doc.obj(key)?.fields(SUMMARY))
}

/// Validates what `--metrics-json` writes: either one
/// [`MetricsReport::to_json`] document, or the JSON-lines series the
/// sampler appends — `{"window": k | "final", "elapsed_ms"?, "metrics":
/// {…}}` per line, window numbers strictly increasing and `"final"` last.
/// Every metrics object is checked against the metric table.
///
/// # Errors
/// The first violation found, with the line (in a series) and the path
/// it was found at.
pub fn validate_metrics_json(text: &str) -> Result<(), String> {
    if let Ok(doc) = parse_json(text) {
        if doc.get("window").is_none() {
            return check_report(&At::root(&doc));
        }
    }
    let mut last_window = 0.0;
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .peekable();
    if lines.peek().is_none() {
        return Err("expected a metrics document or a series of windows".into());
    }
    while let Some((i, line)) = lines.next() {
        let is_last = lines.peek().is_none();
        let mut check_line = || {
            let entry = parse_json(line)?;
            match entry.get("window") {
                Some(JsonValue::Num(k)) if *k > last_window => last_window = *k,
                Some(JsonValue::Num(k)) => {
                    return Err(format!("window: {k} does not follow {last_window}"));
                }
                Some(JsonValue::Str(s)) if s == "final" && is_last => {}
                _ => return Err("window: expected a number, or \"final\" on the last line".into()),
            }
            let entry = At::root(&entry);
            entry.check("elapsed_ms", Optional(&NonNeg))?;
            check_report(&entry.obj("metrics")?)
        };
        check_line().map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(())
}

/// A Prometheus sample value: finite floats print plainly, non-finite
/// ones as `NaN` (the exposition format's spelling).
fn pnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".into()
    }
}

/// Lints a Prometheus text exposition: every non-comment line must be a
/// `name[{labels}] value` sample whose metric family was declared by a
/// preceding `# TYPE` line with a known type, sample values must parse as
/// floats, and `_sum`/`_count` series must belong to a declared summary.
///
/// # Errors
/// A description of the first malformed line.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    let mut families: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let valid_name =
        |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    for (no, line) in text.lines().enumerate() {
        let n = no + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| format!("line {n}: TYPE without a name"))?;
            let kind = it.next().ok_or_else(|| format!("line {n}: TYPE without a type"))?;
            if !valid_name(name) {
                return Err(format!("line {n}: invalid metric name `{name}`"));
            }
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                return Err(format!("line {n}: unknown metric type `{kind}`"));
            }
            families.insert(name, kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and free comments
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let name = name_part.split('{').next().unwrap_or(name_part);
        if name_part.contains('{') && !name_part.ends_with('}') {
            return Err(format!("line {n}: unterminated label set"));
        }
        if !valid_name(name) {
            return Err(format!("line {n}: invalid sample name `{name}`"));
        }
        if value_part != "NaN" && value_part.parse::<f64>().is_err() {
            return Err(format!("line {n}: unparseable sample value `{value_part}`"));
        }
        let family = families.get(name).copied().or_else(|| {
            name.strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .and_then(|base| families.get(base).copied().filter(|k| *k == "summary" || *k == "histogram"))
        });
        if family.is_none() {
            return Err(format!("line {n}: sample `{name}` has no preceding # TYPE"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for ms in [1u64, 2, 4, 100] {
            h.record(Duration::from_millis(ms));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        // p50 must cover the 2 ms observation but not reach the max.
        assert!(snap.p50_seconds >= 0.002 && snap.p50_seconds < 0.1, "{snap:?}");
        // The top quantiles clamp to the exact max.
        assert!((snap.p99_seconds - 0.1).abs() < 0.03, "{snap:?}");
        assert!((snap.max_seconds - 0.1).abs() < 1e-6);
        assert!((snap.mean_seconds - 0.026_75).abs() < 1e-3);
        // Quantiles are monotone in q.
        assert!(snap.p50_seconds <= snap.p95_seconds);
        assert!(snap.p95_seconds <= snap.p99_seconds);
    }

    #[test]
    fn buckets_are_log_spaced_and_saturating() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "saturates at the top");
        assert_eq!(bucket_of(0), 0, "zero maps to the first bucket");
    }

    /// A registry in which every cell and histogram holds a distinct
    /// non-zero value: metric `i` holds `100 + i`, winner slot `j` holds
    /// `j + 1`, histogram `k` holds `k + 1` observations.
    fn distinct_registry() -> MetricsRegistry {
        let m = MetricsRegistry::new();
        for (i, row) in TABLE.iter().enumerate() {
            if row.metric != Metric::ShardWinner {
                m.add(row.metric, 100 + i as u64);
            }
        }
        for slot in 0..SHARD_WINNER_SLOTS {
            (0..=slot).for_each(|_| m.add_winner(slot));
        }
        for k in 0..HISTS.len() {
            (0..=k).for_each(|_| m.hists[k].record(Duration::from_millis(3)));
        }
        m
    }

    /// The exporters agree by construction: every table row is in the
    /// JSON document under its section and key, in the Prometheus
    /// exposition under its family and type, and is demanded by the
    /// validator — each with the value the registry holds.
    #[test]
    fn every_table_row_is_exported_three_ways() {
        let report = distinct_registry().report();
        let json = report.to_json();
        let prom = report.to_prometheus();
        validate_metrics_json(&json).expect("the document validates");
        lint_prometheus(&prom).expect("the exposition lints clean");
        let doc = parse_json(&json).expect("valid JSON");
        for (i, row) in TABLE.iter().enumerate() {
            assert_eq!(row.metric as usize, i, "table order is discriminant order");
            assert!(row.family.starts_with("dqep_"));
            assert_eq!(
                row.kind == "counter",
                row.family.ends_with("_total"),
                "{}",
                row.family
            );
            let member = doc.get(row.section).and_then(|s| s.get(row.key));
            let kind = row.kind;
            assert!(
                prom.contains(&format!("# TYPE {} {kind}\n", row.family)),
                "{}",
                row.family
            );
            // Dropping the member from the document must fail validation.
            let without = json.replacen(&format!("\"{}\":", row.key), "\"renamed\":", 1);
            assert!(
                validate_metrics_json(&without).is_err(),
                "{} is not validated",
                row.key
            );
            if row.metric == Metric::ShardWinner {
                let slots: Vec<f64> = member
                    .and_then(JsonValue::as_arr)
                    .expect("vector rows are arrays")
                    .iter()
                    .filter_map(JsonValue::as_num)
                    .collect();
                assert_eq!(slots, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
                for (slot, wins) in slots.iter().enumerate() {
                    let sample = format!("{}{{alternative=\"{slot}\"}} {wins}\n", row.family);
                    assert!(prom.contains(&sample), "{sample}");
                }
            } else {
                let value = 100 + i as u64;
                assert_eq!(report.get(row.metric), value);
                assert_eq!(
                    member.and_then(JsonValue::as_num),
                    Some(value as f64),
                    "{}",
                    row.key
                );
                assert!(
                    prom.contains(&format!("\n{} {value}\n", row.family)),
                    "{}",
                    row.family
                );
            }
        }
        for (k, (key, _)) in HISTS.iter().enumerate() {
            let count = doc
                .get(key)
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_num);
            assert_eq!(count, Some(k as f64 + 1.0), "{key}");
            assert!(prom.contains(&format!("# TYPE dqep_{key} summary\n")));
            assert!(prom.contains(&format!("dqep_{key}_count {}\n", k + 1)));
            assert!(prom.contains(&format!("dqep_{key}{{quantile=\"0.95\"}} 0.003\n")));
            let without = json.replacen(&format!("\"{key}\":"), "\"renamed\":", 1);
            assert!(
                validate_metrics_json(&without).is_err(),
                "{key} is not validated"
            );
        }
        // Keys are unique within a section, families across the table.
        for (i, a) in TABLE.iter().enumerate() {
            for b in &TABLE[i + 1..] {
                assert!(a.family != b.family && (a.section, a.key) != (b.section, b.key));
            }
        }
        for (section, key, hits, misses) in RATES {
            let rate = doc
                .get(section)
                .and_then(|s| s.get(key))
                .and_then(JsonValue::as_num);
            assert_eq!(
                rate,
                Some(hit_rate(report.get(hits), report.get(misses))),
                "{key}"
            );
            let without = json.replacen(&format!("\"{key}\":"), "\"renamed\":", 1);
            assert!(
                validate_metrics_json(&without).is_err(),
                "{key} is not validated"
            );
        }
    }

    #[test]
    fn queries_and_refusals_are_classified() {
        let m = MetricsRegistry::new();
        m.record_query(Ok((7, 2)), Duration::from_millis(5));
        for error in [
            ServiceError::AdmissionTimeout { waited_ms: 5 },
            ServiceError::GrantTooLarge {
                requested: 10,
                capacity: 1,
            },
            ServiceError::Exec(ExecError::Network("link 0->1 exhausted".into())),
            ServiceError::Exec(ExecError::ResourceExhausted(Resource::Memory {
                requested: 10,
                limit: 1,
            })),
            ServiceError::Sql("nope".into()), // unclassified: no bucket
            ServiceError::Shutdown,
        ] {
            m.record_query(Err(&error), Duration::from_millis(1));
        }
        m.record_reopt(&ReoptCounters {
            checkpoints: 3,
            escapes: 2,
            replans_adopted: 1,
            fallbacks: 1,
            ..Default::default()
        });
        m.max(Metric::TempPagesHighWater, 9);
        m.max(Metric::TempPagesHighWater, 4);
        m.add_winner(99); // folds into the last slot
        let report = m.report();
        let expect = [
            (Metric::Completed, 1),
            (Metric::Failed, 6),
            (Metric::Rows, 7),
            (Metric::Fallbacks, 2),
            (Metric::RefusedAdmissionTimeout, 1),
            (Metric::RefusedGrantTooLarge, 1),
            (Metric::RefusedLinkFault, 1),
            (Metric::RefusedMemoryExhausted, 1),
            (Metric::ReoptCheckpoints, 3),
            (Metric::ReoptEscapes, 2),
            (Metric::ReoptReplans, 1),
            (Metric::ReoptFallbacks, 1),
            (Metric::TempPagesHighWater, 9),
        ];
        for (metric, value) in expect {
            assert_eq!(report.get(metric), value, "{metric:?}");
            assert_eq!(m.get(metric), value, "{metric:?}");
        }
        assert_eq!(report.winners()[SHARD_WINNER_SLOTS - 1], 1);
        assert_eq!(
            report.hist(Hist::Latency).count,
            1,
            "failures record no latency"
        );
    }

    #[test]
    fn metrics_validator_accepts_documents_and_series_and_rejects_the_rest() {
        let json = MetricsRegistry::new().report().to_json();
        assert!(
            !json.contains('\n'),
            "one line: the unit of the JSON-lines export"
        );
        validate_metrics_json(&json).unwrap();
        validate_metrics_json(&format!("\n  {json}\n")).unwrap();
        let window =
            |w: &str| format!("{{\"window\": {w}, \"elapsed_ms\": 50, \"metrics\": {json}}}");
        let final_line = format!("{{\"window\": \"final\", \"metrics\": {json}}}");
        validate_metrics_json(&final_line).unwrap();
        validate_metrics_json(&[window("1"), window("2"), final_line.clone()].join("\n")).unwrap();
        validate_metrics_json(&format!("{}\n\n{}\n", window("1"), window("4"))).unwrap();
        let rejected = [
            (String::new(), "expected a metrics document"),
            ("{}".into(), "sessions: expected an object"),
            (
                json.replace("\"completed\":0", "\"completed\":-1"),
                "sessions.completed: expected a non-negative",
            ),
            (
                json.replace("\"p95\":0", "\"p95\":null"),
                "latency_seconds.p95: expected a non-negative",
            ),
            (
                json.replace("[0,0,0,0,0,0,0,0]", "[0,0,0]"),
                "shard.winner_counts: expected 8 slots",
            ),
            (
                json.replace("[0,0,0,0,0,0,0,0]", "[0,0,0,\"x\",0,0,0,0]"),
                "shard.winner_counts[3]: expected",
            ),
            (
                json.replace("\"decision_hit_rate\":1", "\"decision_hit_rate\":1.5"),
                "expected a rate in [0, 1]",
            ),
            (
                [window("2"), window("2")].join("\n"),
                "line 2: window: 2 does not follow 2",
            ),
            (
                [final_line.clone(), window("1")].join("\n"),
                "line 1: window: expected a number",
            ),
            (
                [window("1"), "{\"window\": 2}".into()].join("\n"),
                "line 2: metrics: expected an object",
            ),
            ([window("1"), "{".into()].join("\n"), "line 2: "),
            (
                window("1").replace("50", "-50"),
                "line 1: elapsed_ms: expected a non-negative",
            ),
            (
                final_line.replace("\"failed\":0", "\"failed\":\"no\""),
                "line 1: metrics.sessions.failed: expected",
            ),
        ];
        for (text, reason) in rejected {
            let err = validate_metrics_json(&text).expect_err(reason);
            assert!(err.contains(reason), "{err:?} should mention {reason:?}");
        }
    }

    #[test]
    fn prometheus_lint_rejects_malformed_text() {
        assert!(lint_prometheus("dqep_orphan_total 1\n").is_err(), "sample without TYPE");
        assert!(
            lint_prometheus("# TYPE x widget\nx 1\n").is_err(),
            "unknown metric type"
        );
        assert!(
            lint_prometheus("# TYPE x counter\nx notanumber\n").is_err(),
            "unparseable value"
        );
        assert!(
            lint_prometheus("# TYPE x counter\nx_sum 1\n").is_err(),
            "_sum on a counter family"
        );
        assert!(lint_prometheus("# TYPE x summary\nx_sum 1\nx_count 2\n").is_ok());
    }
}
