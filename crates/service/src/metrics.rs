//! Service metrics: fixed log-scale latency histograms plus refusal
//! counters, snapshotable (together with the cache and session counters
//! the service already keeps) as a JSON document.
//!
//! Histograms use power-of-two nanosecond buckets: `record` is two atomic
//! adds and a `fetch_max` — safe from every worker thread with no lock —
//! and quantiles are read from the bucket boundaries, so p50/p95/p99 are
//! upper bounds with at most one octave of error. That is the standard
//! trade for fixed-memory, lock-free latency tracking; the mean and max
//! are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dqep_executor::{journal, EventKind, ExecError, Resource, NO_ID};

use crate::error::ServiceError;
use crate::service::{ServiceStats, SessionResult};

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

/// The service's metrics collectors: latency and admission-queue-wait
/// histograms plus refusal classification. Session, fallback, and cache
/// counters live in [`ServiceStats`]; [`MetricsReport`] combines both.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Submission-to-completion latency of successful sessions.
    pub latency: Histogram,
    /// Time successful sessions spent queued before a worker picked them
    /// up (admission wait).
    pub queue_wait: Histogram,
    /// Per-commit incremental refresh latency across all live views.
    pub live_refresh: Histogram,
    /// Credit-wait of network-exchange sends that actually stalled
    /// (unstalled sends are not recorded — the histogram reads as "when
    /// backpressure bit, how hard").
    pub net_queue_wait: Histogram,
    refused_admission_timeout: AtomicU64,
    refused_grant_too_large: AtomicU64,
    refused_link_fault: AtomicU64,
    refused_memory_exhausted: AtomicU64,
    admission_retries: AtomicU64,
    temp_pages_high_water: AtomicU64,
    reopt_checkpoints: AtomicU64,
    reopt_escapes: AtomicU64,
    reopt_replans: AtomicU64,
    reopt_fallbacks: AtomicU64,
    live_views_registered: AtomicU64,
    live_delta_batches: AtomicU64,
    live_rows_propagated: AtomicU64,
    live_rearbitrations: AtomicU64,
    net_bytes: AtomicU64,
    net_frames: AtomicU64,
    net_retransmits: AtomicU64,
    net_credit_stalls: AtomicU64,
    shard_queries: AtomicU64,
    shard_winners: [AtomicU64; SHARD_WINNER_SLOTS],
    shard_divergent_nodes: AtomicU64,
}

/// Tracked choose-plan alternative indices in the per-winner counters;
/// higher indices fold into the last slot. Real dynamic plans carry a
/// handful of alternatives per choose node, so 8 slots lose nothing.
pub const SHARD_WINNER_SLOTS: usize = 8;

impl MetricsRegistry {
    /// A fresh registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one finished session: latencies for successes, refusal
    /// classification for admission failures. Other failures are counted
    /// by the service's session stats.
    pub fn record_outcome(
        &self,
        outcome: &Result<SessionResult, ServiceError>,
        total_latency: Duration,
    ) {
        match outcome {
            Ok(result) => {
                self.latency.record(total_latency);
                self.queue_wait.record(result.queue_wait);
                self.temp_pages_high_water
                    .fetch_max(result.summary.temp_pages_peak, Ordering::Relaxed);
            }
            Err(e) => self.classify_failure(e),
        }
    }

    /// Classifies one failed query into the refusal counters: admission
    /// timeouts and oversized grants keep their dedicated buckets, a
    /// network error (retransmission budget exhausted on a link fault)
    /// counts as a link-fault refusal, and a refused memory reservation
    /// (the shard-join degradation ladder running dry included) counts as
    /// a memory-exhaustion refusal. Each classified refusal also lands an
    /// [`EventKind::AdmissionRefusal`] event in the flight recorder.
    pub fn classify_failure(&self, error: &ServiceError) {
        let bucket = match error {
            ServiceError::AdmissionTimeout { .. } => Some(&self.refused_admission_timeout),
            ServiceError::GrantTooLarge { .. } => Some(&self.refused_grant_too_large),
            ServiceError::Exec(ExecError::Network(_)) => Some(&self.refused_link_fault),
            ServiceError::Exec(ExecError::ResourceExhausted(Resource::Memory { .. })) => {
                Some(&self.refused_memory_exhausted)
            }
            _ => None,
        };
        if let Some(counter) = bucket {
            let total = counter.fetch_add(1, Ordering::Relaxed) + 1;
            journal().record(EventKind::AdmissionRefusal, 0, NO_ID, NO_ID, total, NO_ID);
        }
    }

    /// Sessions refused because admission timed out waiting for a grant.
    #[must_use]
    pub fn refused_admission_timeout(&self) -> u64 {
        self.refused_admission_timeout.load(Ordering::Relaxed)
    }

    /// Sessions refused because the requested grant exceeds the pool.
    #[must_use]
    pub fn refused_grant_too_large(&self) -> u64 {
        self.refused_grant_too_large.load(Ordering::Relaxed)
    }

    /// Queries failed by a link fault exhausting its retransmission
    /// budget.
    #[must_use]
    pub fn refused_link_fault(&self) -> u64 {
        self.refused_link_fault.load(Ordering::Relaxed)
    }

    /// Queries failed by an unservable memory reservation (every rung of
    /// a degradation ladder refused).
    #[must_use]
    pub fn refused_memory_exhausted(&self) -> u64 {
        self.refused_memory_exhausted.load(Ordering::Relaxed)
    }

    /// Most temp pages (sort runs, Grace partitions) any one successful
    /// session held on a replica's disk at once. Statements give their
    /// temp pages back, so this settles at the largest spill; a value
    /// that keeps climbing under a steady workload is a leak.
    #[must_use]
    pub fn temp_pages_high_water(&self) -> u64 {
        self.temp_pages_high_water.load(Ordering::Relaxed)
    }

    /// Counts one admission that was granted only on its retry rung.
    pub fn record_admission_retry(&self) {
        self.admission_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Admissions that succeeded only after a backoff-and-retry.
    #[must_use]
    pub fn admission_retries(&self) -> u64 {
        self.admission_retries.load(Ordering::Relaxed)
    }

    /// Folds one session's re-optimization counters into the service
    /// totals: checkpoints observed, interval escapes, re-plans adopted,
    /// and reverts to the original arbitration.
    pub fn record_reopt(&self, counters: &dqep_executor::ReoptCounters) {
        self.reopt_checkpoints.fetch_add(counters.checkpoints, Ordering::Relaxed);
        self.reopt_escapes.fetch_add(counters.escapes, Ordering::Relaxed);
        self.reopt_replans.fetch_add(counters.replans_adopted, Ordering::Relaxed);
        self.reopt_fallbacks.fetch_add(counters.fallbacks, Ordering::Relaxed);
    }

    /// Pipeline-breaker checkpoints observed across all sessions.
    #[must_use]
    pub fn reopt_checkpoints(&self) -> u64 {
        self.reopt_checkpoints.load(Ordering::Relaxed)
    }

    /// Checkpoint observations that escaped their estimate interval.
    #[must_use]
    pub fn reopt_escapes(&self) -> u64 {
        self.reopt_escapes.load(Ordering::Relaxed)
    }

    /// Mid-query re-plans adopted across all sessions.
    #[must_use]
    pub fn reopt_replans(&self) -> u64 {
        self.reopt_replans.load(Ordering::Relaxed)
    }

    /// Re-planned runs that reverted to the original arbitration.
    #[must_use]
    pub fn reopt_fallbacks(&self) -> u64 {
        self.reopt_fallbacks.load(Ordering::Relaxed)
    }

    /// Counts one live view registered (and materialized).
    pub fn record_live_view(&self) {
        self.live_views_registered.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one committed write batch propagated through a live view,
    /// with the delta rows it produced at the view's root.
    pub fn record_live_batch(&self, rows_propagated: u64) {
        self.live_delta_batches.fetch_add(1, Ordering::Relaxed);
        self.live_rows_propagated.fetch_add(rows_propagated, Ordering::Relaxed);
    }

    /// Counts one drift-triggered choose-plan re-arbitration of a live
    /// view.
    pub fn record_live_rearbitration(&self) {
        self.live_rearbitrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Live views registered.
    #[must_use]
    pub fn live_views_registered(&self) -> u64 {
        self.live_views_registered.load(Ordering::Relaxed)
    }

    /// Delta batches applied to live views.
    #[must_use]
    pub fn live_delta_batches(&self) -> u64 {
        self.live_delta_batches.load(Ordering::Relaxed)
    }

    /// Delta rows emitted at live-view roots.
    #[must_use]
    pub fn live_rows_propagated(&self) -> u64 {
        self.live_rows_propagated.load(Ordering::Relaxed)
    }

    /// Drift-triggered re-arbitrations fired by live views.
    #[must_use]
    pub fn live_rearbitrations(&self) -> u64 {
        self.live_rearbitrations.load(Ordering::Relaxed)
    }

    /// Folds the wire-traffic delta of one sharded query into the
    /// cross-shard totals. Pass the *difference* of two
    /// [`dqep_executor::NetStats`] snapshots, not a running total.
    pub fn record_net(&self, delta: &dqep_executor::NetStats) {
        self.net_bytes.fetch_add(delta.bytes, Ordering::Relaxed);
        self.net_frames.fetch_add(delta.frames, Ordering::Relaxed);
        self.net_retransmits.fetch_add(delta.retransmits, Ordering::Relaxed);
        self.net_credit_stalls.fetch_add(delta.credit_stalls, Ordering::Relaxed);
    }

    /// Counts one per-shard choose-plan arbitration won by alternative
    /// `index` (indices past the tracked slots fold into the last).
    pub fn record_shard_winner(&self, index: usize) {
        self.shard_winners[index.min(SHARD_WINNER_SLOTS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed sharded query with how many of its choose
    /// nodes resolved to *different* winners on different shards.
    pub fn record_shard_query(&self, divergent_nodes: u64) {
        self.shard_queries.fetch_add(1, Ordering::Relaxed);
        self.shard_divergent_nodes.fetch_add(divergent_nodes, Ordering::Relaxed);
    }

    /// Cross-shard bytes put on the wire (retransmissions included).
    #[must_use]
    pub fn net_bytes(&self) -> u64 {
        self.net_bytes.load(Ordering::Relaxed)
    }

    /// Cross-shard frames delivered.
    #[must_use]
    pub fn net_frames(&self) -> u64 {
        self.net_frames.load(Ordering::Relaxed)
    }

    /// Transmissions dropped by link faults and re-sent.
    #[must_use]
    pub fn net_retransmits(&self) -> u64 {
        self.net_retransmits.load(Ordering::Relaxed)
    }

    /// Sends that blocked on credit backpressure.
    #[must_use]
    pub fn net_credit_stalls(&self) -> u64 {
        self.net_credit_stalls.load(Ordering::Relaxed)
    }

    /// Per-alternative-index winner counts across all per-shard
    /// arbitrations.
    #[must_use]
    pub fn shard_winners(&self) -> [u64; SHARD_WINNER_SLOTS] {
        std::array::from_fn(|i| self.shard_winners[i].load(Ordering::Relaxed))
    }

    /// Sharded queries executed.
    #[must_use]
    pub fn shard_queries(&self) -> u64 {
        self.shard_queries.load(Ordering::Relaxed)
    }

    /// Choose nodes whose winner diverged across shards, summed over all
    /// sharded queries.
    #[must_use]
    pub fn shard_divergent_nodes(&self) -> u64 {
        self.shard_divergent_nodes.load(Ordering::Relaxed)
    }

    /// A full [`MetricsReport`] combining this registry's collectors with
    /// the given session/cache accounting.
    #[must_use]
    pub fn report(&self, service: ServiceStats) -> MetricsReport {
        MetricsReport {
            latency: self.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            refused_admission_timeout: self.refused_admission_timeout(),
            refused_grant_too_large: self.refused_grant_too_large(),
            refused_link_fault: self.refused_link_fault(),
            refused_memory_exhausted: self.refused_memory_exhausted(),
            admission_retries: self.admission_retries(),
            temp_pages_high_water: self.temp_pages_high_water(),
            reopt_checkpoints: self.reopt_checkpoints(),
            reopt_escapes: self.reopt_escapes(),
            reopt_replans: self.reopt_replans(),
            reopt_fallbacks: self.reopt_fallbacks(),
            live_views_registered: self.live_views_registered(),
            live_delta_batches: self.live_delta_batches(),
            live_rows_propagated: self.live_rows_propagated(),
            live_rearbitrations: self.live_rearbitrations(),
            live_refresh: self.live_refresh.snapshot(),
            net_bytes: self.net_bytes(),
            net_frames: self.net_frames(),
            net_retransmits: self.net_retransmits(),
            net_credit_stalls: self.net_credit_stalls(),
            net_queue_wait: self.net_queue_wait.snapshot(),
            shard_queries: self.shard_queries(),
            shard_winners: self.shard_winners(),
            shard_divergent_nodes: self.shard_divergent_nodes(),
            service,
        }
    }
}

/// Everything the service exports on shutdown (and on demand): histogram
/// summaries, refusal counters, and the session/cache accounting.
#[derive(Debug, Clone, Copy)]
pub struct MetricsReport {
    /// Submission-to-completion latency of successful sessions.
    pub latency: HistogramSnapshot,
    /// Admission-queue wait of successful sessions.
    pub queue_wait: HistogramSnapshot,
    /// Sessions refused by admission timeout.
    pub refused_admission_timeout: u64,
    /// Sessions refused for requesting more than the pool holds.
    pub refused_grant_too_large: u64,
    /// Queries failed by a link fault exhausting its retransmission
    /// budget.
    pub refused_link_fault: u64,
    /// Queries failed by an unservable memory reservation.
    pub refused_memory_exhausted: u64,
    /// Admissions that succeeded only after a backoff-and-retry.
    pub admission_retries: u64,
    /// Most temp pages any one successful session held on disk at once.
    pub temp_pages_high_water: u64,
    /// Pipeline-breaker checkpoints observed across all sessions.
    pub reopt_checkpoints: u64,
    /// Checkpoint observations that escaped their estimate interval.
    pub reopt_escapes: u64,
    /// Mid-query re-plans adopted across all sessions.
    pub reopt_replans: u64,
    /// Re-planned runs that reverted to the original arbitration.
    pub reopt_fallbacks: u64,
    /// Live views registered.
    pub live_views_registered: u64,
    /// Delta batches applied to live views.
    pub live_delta_batches: u64,
    /// Delta rows emitted at live-view roots.
    pub live_rows_propagated: u64,
    /// Drift-triggered re-arbitrations fired by live views.
    pub live_rearbitrations: u64,
    /// Per-commit incremental refresh latency across live views.
    pub live_refresh: HistogramSnapshot,
    /// Cross-shard bytes on the wire (retransmissions included).
    pub net_bytes: u64,
    /// Cross-shard frames delivered.
    pub net_frames: u64,
    /// Transmissions dropped by link faults and re-sent.
    pub net_retransmits: u64,
    /// Sends that blocked on credit backpressure.
    pub net_credit_stalls: u64,
    /// Credit-wait of stalled network sends.
    pub net_queue_wait: HistogramSnapshot,
    /// Sharded queries executed.
    pub shard_queries: u64,
    /// Per-alternative-index winner counts across per-shard arbitrations.
    pub shard_winners: [u64; SHARD_WINNER_SLOTS],
    /// Choose nodes whose winner diverged across shards (all queries).
    pub shard_divergent_nodes: u64,
    /// Session totals and cache counters.
    pub service: ServiceStats,
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn histogram_json(out: &mut String, key: &str, h: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "  \"{key}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        h.count,
        jnum(h.mean_seconds),
        jnum(h.p50_seconds),
        jnum(h.p95_seconds),
        jnum(h.p99_seconds),
        jnum(h.max_seconds),
    );
}

impl MetricsReport {
    /// Serializes the report as a JSON document (hand-rolled — this build
    /// has no JSON crate). Histogram values are in seconds.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.service;
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"sessions\": {{\"completed\": {}, \"failed\": {}, \
             \"refused_admission_timeout\": {}, \"refused_grant_too_large\": {}, \
             \"refused_link_fault\": {}, \"refused_memory_exhausted\": {}, \
             \"admission_retries\": {}, \"fallbacks\": {}, \"rows\": {}, \
             \"simulated_io_pages\": {}, \"temp_pages_high_water\": {}}},",
            s.completed,
            s.failed,
            self.refused_admission_timeout,
            self.refused_grant_too_large,
            self.refused_link_fault,
            self.refused_memory_exhausted,
            self.admission_retries,
            s.totals.fallbacks,
            s.totals.rows,
            s.totals.io.total(),
            self.temp_pages_high_water,
        );
        histogram_json(&mut out, "latency_seconds", &self.latency);
        out.push_str(",\n");
        histogram_json(&mut out, "queue_wait_seconds", &self.queue_wait);
        out.push_str(",\n");
        let _ = writeln!(
            out,
            "  \"plan_cache\": {{\"statement_hits\": {}, \"statement_misses\": {}, \
             \"statement_evictions\": {}, \"statement_resident\": {}, \
             \"statement_hit_rate\": {}, \"decision_hits\": {}, \"decision_misses\": {}, \
             \"decision_hit_rate\": {}, \"cached_plan_retries\": {}, \
             \"feedback_invalidations\": {}}}",
            s.registry.hits,
            s.registry.misses,
            s.registry.evictions,
            s.registry.resident,
            jnum(s.registry.hit_rate()),
            s.decision_hits,
            s.decision_misses,
            jnum(s.decision_hit_rate()),
            s.cached_plan_retries,
            s.feedback_invalidations,
        );
        out.push_str(",\n");
        let _ = writeln!(
            out,
            "  \"reopt\": {{\"checkpoints\": {}, \"escapes\": {}, \"replans\": {}, \
             \"fallbacks\": {}}},",
            self.reopt_checkpoints, self.reopt_escapes, self.reopt_replans, self.reopt_fallbacks,
        );
        let _ = writeln!(
            out,
            "  \"live\": {{\"views_registered\": {}, \"delta_batches\": {}, \
             \"rows_propagated\": {}, \"rearbitrations\": {}}},",
            self.live_views_registered,
            self.live_delta_batches,
            self.live_rows_propagated,
            self.live_rearbitrations,
        );
        histogram_json(&mut out, "live_refresh_seconds", &self.live_refresh);
        out.push_str(",\n");
        let winners: Vec<String> =
            self.shard_winners.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "  \"shard\": {{\"queries\": {}, \"net_bytes\": {}, \"net_frames\": {}, \
             \"net_retransmits\": {}, \"net_credit_stalls\": {}, \
             \"winner_counts\": [{}], \"divergent_nodes\": {}}},",
            self.shard_queries,
            self.net_bytes,
            self.net_frames,
            self.net_retransmits,
            self.net_credit_stalls,
            winners.join(", "),
            self.shard_divergent_nodes,
        );
        histogram_json(&mut out, "net_queue_wait_seconds", &self.net_queue_wait);
        out.push('\n');
        out.push('}');
        out
    }

    /// The report as one line of JSON (same schema as [`Self::to_json`],
    /// newlines collapsed) — the unit of the append-only JSON-lines
    /// time-series export.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.to_json().replace('\n', "")
    }

    /// The report as a Prometheus text exposition: `# HELP`/`# TYPE`
    /// metadata, `dqep_`-prefixed counters, and histogram summaries with
    /// `quantile` labels plus `_sum`/`_count` series.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        let s = &self.service;
        counter("dqep_sessions_completed_total", "Sessions completed successfully.", s.completed);
        counter("dqep_sessions_failed_total", "Sessions that failed.", s.failed);
        counter(
            "dqep_refused_admission_timeout_total",
            "Sessions refused by admission timeout.",
            self.refused_admission_timeout,
        );
        counter(
            "dqep_refused_grant_too_large_total",
            "Sessions refused for requesting more memory than the pool holds.",
            self.refused_grant_too_large,
        );
        counter(
            "dqep_refused_link_fault_total",
            "Queries failed by an exhausted link retransmission budget.",
            self.refused_link_fault,
        );
        counter(
            "dqep_refused_memory_exhausted_total",
            "Queries failed by an unservable memory reservation.",
            self.refused_memory_exhausted,
        );
        counter(
            "dqep_admission_retries_total",
            "Admissions granted only on a retry rung.",
            self.admission_retries,
        );
        counter("dqep_fallbacks_total", "Retryable failures absorbed by fallback.", s.totals.fallbacks);
        counter(
            "dqep_reopt_checkpoints_total",
            "Pipeline-breaker checkpoints observed.",
            self.reopt_checkpoints,
        );
        counter(
            "dqep_reopt_escapes_total",
            "Checkpoint observations outside their estimate interval.",
            self.reopt_escapes,
        );
        counter("dqep_reopt_replans_total", "Mid-query re-plans adopted.", self.reopt_replans);
        counter(
            "dqep_reopt_fallbacks_total",
            "Re-planned runs reverted to the original arbitration.",
            self.reopt_fallbacks,
        );
        counter(
            "dqep_live_views_registered_total",
            "Live views registered.",
            self.live_views_registered,
        );
        counter(
            "dqep_live_delta_batches_total",
            "Committed write batches propagated through live views.",
            self.live_delta_batches,
        );
        counter(
            "dqep_live_rearbitrations_total",
            "Drift-triggered live-view re-arbitrations.",
            self.live_rearbitrations,
        );
        counter("dqep_shard_queries_total", "Sharded queries executed.", self.shard_queries);
        counter(
            "dqep_shard_divergent_nodes_total",
            "Choose nodes whose winner diverged across shards.",
            self.shard_divergent_nodes,
        );
        counter("dqep_net_bytes_total", "Cross-shard bytes on the wire.", self.net_bytes);
        counter("dqep_net_frames_total", "Cross-shard frames delivered.", self.net_frames);
        counter(
            "dqep_net_retransmits_total",
            "Transmissions dropped by link faults and re-sent.",
            self.net_retransmits,
        );
        counter(
            "dqep_net_credit_stalls_total",
            "Sends blocked on credit backpressure.",
            self.net_credit_stalls,
        );
        let _ = writeln!(
            out,
            "# HELP dqep_temp_pages_high_water Most temp pages one session held on disk at once."
        );
        let _ = writeln!(out, "# TYPE dqep_temp_pages_high_water gauge");
        let _ = writeln!(out, "dqep_temp_pages_high_water {}", self.temp_pages_high_water);
        let _ = writeln!(out, "# HELP dqep_shard_winner_total Per-shard arbitration wins by alternative index.");
        let _ = writeln!(out, "# TYPE dqep_shard_winner_total counter");
        for (i, &wins) in self.shard_winners.iter().enumerate() {
            let _ = writeln!(out, "dqep_shard_winner_total{{alternative=\"{i}\"}} {wins}");
        }
        let mut summary = |name: &str, help: &str, h: &HistogramSnapshot| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} summary");
            let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", pnum(h.p50_seconds));
            let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", pnum(h.p95_seconds));
            let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", pnum(h.p99_seconds));
            let _ = writeln!(out, "{name}_sum {}", pnum(h.mean_seconds * h.count as f64));
            let _ = writeln!(out, "{name}_count {}", h.count);
        };
        summary(
            "dqep_latency_seconds",
            "Submission-to-completion latency of successful sessions.",
            &self.latency,
        );
        summary("dqep_queue_wait_seconds", "Admission-queue wait of successful sessions.", &self.queue_wait);
        summary(
            "dqep_live_refresh_seconds",
            "Per-commit incremental refresh latency of live views.",
            &self.live_refresh,
        );
        summary(
            "dqep_net_queue_wait_seconds",
            "Credit-wait of stalled network sends.",
            &self.net_queue_wait,
        );
        out
    }
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

    #[test]
    fn refusals_are_classified() {
        let m = MetricsRegistry::new();
        m.record_outcome(
            &Err(ServiceError::AdmissionTimeout { waited_ms: 5 }),
            Duration::from_millis(5),
        );
        m.record_outcome(
            &Err(ServiceError::GrantTooLarge {
                requested: 10,
                capacity: 1,
            }),
            Duration::ZERO,
        );
        m.record_outcome(
            &Err(ServiceError::Sql("nope".into())),
            Duration::ZERO,
        );
        assert_eq!(m.refused_admission_timeout(), 1);
        assert_eq!(m.refused_grant_too_large(), 1);
        assert_eq!(m.latency.snapshot().count, 0, "failures record no latency");
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let m = MetricsRegistry::new();
        m.record_outcome(
            &Err(ServiceError::AdmissionTimeout { waited_ms: 1 }),
            Duration::from_millis(1),
        );
        m.record_admission_retry();
        m.record_reopt(&dqep_executor::ReoptCounters {
            checkpoints: 3,
            escapes: 2,
            replans_adopted: 1,
            fallbacks: 1,
            ..Default::default()
        });
        m.record_live_view();
        m.record_live_batch(7);
        m.record_live_rearbitration();
        m.live_refresh.record(Duration::from_micros(40));
        let report = m.report(ServiceStats::default());
        let json = report.to_json();
        let doc = dqep_executor::parse_json(&json).expect("valid JSON");
        assert_eq!(
            doc.get("sessions").and_then(|s| s.get("refused_admission_timeout")).and_then(dqep_executor::JsonValue::as_num),
            Some(1.0)
        );
        assert_eq!(
            doc.get("sessions").and_then(|s| s.get("admission_retries")).and_then(dqep_executor::JsonValue::as_num),
            Some(1.0)
        );
        assert_eq!(
            doc.get("reopt").and_then(|r| r.get("checkpoints")).and_then(dqep_executor::JsonValue::as_num),
            Some(3.0)
        );
        assert_eq!(
            doc.get("reopt").and_then(|r| r.get("escapes")).and_then(dqep_executor::JsonValue::as_num),
            Some(2.0)
        );
        assert!(doc.get("latency_seconds").is_some());
        assert!(doc.get("plan_cache").is_some());
    }

    #[test]
    fn shard_counters_are_exported() {
        let m = MetricsRegistry::new();
        m.record_net(&dqep_executor::NetStats {
            frames: 5,
            bytes: 4096,
            retransmits: 1,
            credit_stalls: 2,
            credit_wait_ns: 1_000,
        });
        m.record_shard_winner(0);
        m.record_shard_winner(2);
        m.record_shard_winner(99); // folds into the last slot
        m.record_shard_query(1);
        m.net_queue_wait.record(Duration::from_micros(3));
        assert_eq!(m.net_bytes(), 4096);
        assert_eq!(m.net_frames(), 5);
        assert_eq!(m.shard_winners()[0], 1);
        assert_eq!(m.shard_winners()[2], 1);
        assert_eq!(m.shard_winners()[SHARD_WINNER_SLOTS - 1], 1);
        let json = m.report(ServiceStats::default()).to_json();
        let doc = dqep_executor::parse_json(&json).expect("valid JSON");
        let shard = doc.get("shard").expect("shard section");
        assert_eq!(
            shard.get("net_bytes").and_then(dqep_executor::JsonValue::as_num),
            Some(4096.0)
        );
        assert_eq!(
            shard.get("divergent_nodes").and_then(dqep_executor::JsonValue::as_num),
            Some(1.0)
        );
        assert!(doc.get("net_queue_wait_seconds").is_some());
    }

    #[test]
    fn classify_failure_buckets_refusals() {
        let m = MetricsRegistry::new();
        m.classify_failure(&crate::ServiceError::Exec(ExecError::Network(
            "link 0->1 exhausted".into(),
        )));
        m.classify_failure(&crate::ServiceError::Exec(ExecError::ResourceExhausted(
            Resource::Memory { requested: 10, limit: 1 },
        )));
        m.classify_failure(&crate::ServiceError::AdmissionTimeout { waited_ms: 5 });
        m.classify_failure(&crate::ServiceError::Shutdown); // unclassified: no bucket
        assert_eq!(m.refused_link_fault(), 1);
        assert_eq!(m.refused_memory_exhausted(), 1);
        let report = m.report(ServiceStats::default());
        assert_eq!(report.refused_link_fault, 1);
        assert_eq!(report.refused_memory_exhausted, 1);
        assert_eq!(report.refused_admission_timeout, 1);
        let doc = dqep_executor::parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("sessions")
                .and_then(|s| s.get("refused_link_fault"))
                .and_then(dqep_executor::JsonValue::as_num),
            Some(1.0)
        );
    }

    #[test]
    fn prometheus_exposition_passes_lint() {
        let m = MetricsRegistry::new();
        m.latency.record(Duration::from_millis(3));
        m.record_shard_winner(1);
        m.record_net(&dqep_executor::NetStats {
            frames: 2,
            bytes: 128,
            retransmits: 0,
            credit_stalls: 0,
            credit_wait_ns: 0,
        });
        let text = m.report(ServiceStats::default()).to_prometheus();
        lint_prometheus(&text).expect("exposition lints clean");
        assert!(text.contains("# TYPE dqep_latency_seconds summary"));
        assert!(text.contains("dqep_latency_seconds{quantile=\"0.95\"}"));
        assert!(text.contains("dqep_latency_seconds_count 1"));
        assert!(text.contains("dqep_net_bytes_total 128"));
        assert!(text.contains("# TYPE dqep_temp_pages_high_water gauge\ndqep_temp_pages_high_water 0"));
        assert!(text.contains("dqep_shard_winner_total{alternative=\"1\"} 1"));
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

    #[test]
    fn json_line_is_single_line_and_parses() {
        let m = MetricsRegistry::new();
        let line = m.report(ServiceStats::default()).to_json_line();
        assert!(!line.contains('\n'));
        assert!(dqep_executor::parse_json(&line).is_ok());
    }
}
