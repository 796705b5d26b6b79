//! Execution accounting: CPU counters, fallback counts, and the combined
//! summary.

use std::sync::Arc;

use dqep_catalog::SystemConfig;
use dqep_storage::IoStats;
use parking_lot::Mutex;

/// CPU work counters, charged at the cost model's constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCounters {
    /// Records produced/consumed through operator pipelines.
    pub records: u64,
    /// Key comparisons (filters, merges, sorting).
    pub compares: u64,
    /// Records hashed (hash join build and probe).
    pub hashes: u64,
}

impl CpuCounters {
    /// Simulated CPU seconds under `config`.
    #[must_use]
    pub fn seconds(&self, config: &SystemConfig) -> f64 {
        self.records as f64 * config.cpu_per_record
            + self.compares as f64 * config.cpu_per_compare
            + self.hashes as f64 * config.cpu_per_hash
    }

    /// Counter difference (`self` later than `earlier`).
    #[must_use]
    pub fn since(&self, earlier: &CpuCounters) -> CpuCounters {
        CpuCounters {
            records: self.records - earlier.records,
            compares: self.compares - earlier.compares,
            hashes: self.hashes - earlier.hashes,
        }
    }
}

/// Merging per-session counters into service-level totals. Each session
/// owns a private [`SharedCounters`]; a serving layer snapshots them at
/// completion and accumulates the snapshots, so concurrent queries never
/// bleed work into each other's accounting.
impl std::ops::AddAssign for CpuCounters {
    fn add_assign(&mut self, rhs: CpuCounters) {
        self.records += rhs.records;
        self.compares += rhs.compares;
        self.hashes += rhs.hashes;
    }
}

/// How an execution interacted with a prepared-query service's caches.
/// `None` in both fields means the query ran outside a service (the CLI's
/// single-shot path, the experiment harness, direct embedding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheInfo {
    /// Whether the statement was found in the prepared-statement registry
    /// (`Some(true)`: parse + optimize were skipped entirely).
    pub statement_hit: Option<bool>,
    /// Whether the bind-time choose-plan arbitration was served from the
    /// decision cache (`Some(true)`: no cost functions were re-evaluated).
    pub decision_hit: Option<bool>,
}

impl PlanCacheInfo {
    /// Renders `hit`/`miss`/`-` per cache, for summary lines.
    #[must_use]
    pub fn describe(&self) -> String {
        let word = |o: Option<bool>| match o {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "-",
        };
        format!(
            "statement {}, decision {}",
            word(self.statement_hit),
            word(self.decision_hit)
        )
    }
}

#[derive(Debug, Default)]
struct CountersInner {
    cpu: CpuCounters,
    fallbacks: u64,
    startup_nodes: u64,
}

/// Shared, thread-safe counters cloned into every operator of one query.
#[derive(Debug, Clone, Default)]
pub struct SharedCounters {
    inner: Arc<Mutex<CountersInner>>,
}

impl SharedCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> SharedCounters {
        SharedCounters::default()
    }

    /// Adds produced records.
    pub fn add_records(&self, n: u64) {
        self.inner.lock().cpu.records += n;
    }

    /// Adds comparisons.
    pub fn add_compares(&self, n: u64) {
        self.inner.lock().cpu.compares += n;
    }

    /// Adds hash operations.
    pub fn add_hashes(&self, n: u64) {
        self.inner.lock().cpu.hashes += n;
    }

    /// Records choose-plan fallbacks (an alternative failed retryably and
    /// a different one was tried).
    pub fn add_fallbacks(&self, n: u64) {
        self.inner.lock().fallbacks += n;
    }

    /// Fallbacks recorded so far.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.inner.lock().fallbacks
    }

    /// Records `n` cost-function evaluations made on behalf of this
    /// query: one per plan node per start-up decision.
    pub fn add_startup_nodes(&self, n: u64) {
        self.inner.lock().startup_nodes += n;
    }

    /// Cost functions evaluated so far (see [`ExecSummary::startup_nodes`]).
    #[must_use]
    pub fn startup_nodes(&self) -> u64 {
        self.inner.lock().startup_nodes
    }

    /// Snapshot of the CPU counters.
    #[must_use]
    pub fn snapshot(&self) -> CpuCounters {
        self.inner.lock().cpu
    }

    /// Folds another counter set into this one — how an exchange
    /// coordinator merges its workers' private counters back into the
    /// query's counters after the parallel phase, so [`ExecSummary`]
    /// totals are exact regardless of the degree of parallelism.
    pub fn merge_from(&self, other: &SharedCounters) {
        let (cpu, fallbacks, startup_nodes) = {
            let o = other.inner.lock();
            (o.cpu, o.fallbacks, o.startup_nodes)
        };
        let mut inner = self.inner.lock();
        inner.cpu += cpu;
        inner.fallbacks += fallbacks;
        inner.startup_nodes += startup_nodes;
    }
}

/// The result of executing one plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecSummary {
    /// Result rows produced.
    pub rows: u64,
    /// CPU counters accumulated.
    pub cpu: CpuCounters,
    /// I/O performed (query only; excludes load).
    pub io: IoStats,
    /// Choose-plan fallbacks taken (0 when the preferred alternative ran).
    pub fallbacks: u64,
    /// Most temp pages (sort runs, Grace partitions) the statement held
    /// on disk at once; all of them are given back by the time it ends.
    pub temp_pages_peak: u64,
    /// Cost functions evaluated on behalf of this run: the plan's node
    /// count per start-up decision made for it — one decision for a
    /// dynamic plan, none for a resolved one or for a decision the caller
    /// handed in, one more per refresh under re-optimization.
    pub startup_nodes: u64,
    /// Plan-cache provenance when executed through a prepared-query
    /// service (defaults to "not via a service").
    pub plan_cache: PlanCacheInfo,
}

impl ExecSummary {
    /// Total simulated seconds (CPU + I/O) under `config` — directly
    /// comparable to the optimizer's predicted cost.
    #[must_use]
    pub fn simulated_seconds(&self, config: &SystemConfig) -> f64 {
        self.cpu.seconds(config) + self.io.seconds(config)
    }

    /// Folds another summary's work into this one (rows, CPU, I/O,
    /// fallbacks, start-up evaluations; the temp-page high-water takes the max). Cache
    /// provenance is per-execution and not merged.
    pub fn accumulate(&mut self, other: &ExecSummary) {
        self.rows += other.rows;
        self.cpu += other.cpu;
        self.io += other.io;
        self.fallbacks += other.fallbacks;
        self.startup_nodes += other.startup_nodes;
        self.temp_pages_peak = self.temp_pages_peak.max(other.temp_pages_peak);
    }

    /// The one summary line: rows, simulated time, I/O breakdown, the
    /// temp-page high-water (only when the statement spilled), fallbacks
    /// (only when any were taken), and plan-cache provenance.
    /// Both CLI paths (`--run` and `--serve`) print executions through
    /// this renderer, so the formats cannot drift apart again.
    #[must_use]
    pub fn describe(&self, config: &SystemConfig) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "{} rows, {:.4}s simulated ({} seq + {} random reads, {} writes)",
            self.rows,
            self.simulated_seconds(config),
            self.io.seq_reads,
            self.io.random_reads,
            self.io.writes,
        );
        if self.temp_pages_peak > 0 {
            let _ = write!(line, ", {} temp pages peak", self.temp_pages_peak);
        }
        if self.fallbacks > 0 {
            let _ = write!(line, ", {} fallback(s)", self.fallbacks);
        }
        let _ = write!(line, ", plan cache: {}", self.plan_cache.describe());
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_convert() {
        let shared = SharedCounters::new();
        shared.add_records(100);
        shared.add_compares(50);
        shared.add_hashes(10);
        shared.add_records(1);
        let snap = shared.snapshot();
        assert_eq!(snap.records, 101);
        let cfg = SystemConfig::paper_1994();
        let expected = 101.0 * cfg.cpu_per_record + 50.0 * cfg.cpu_per_compare + 10.0 * cfg.cpu_per_hash;
        assert!((snap.seconds(&cfg) - expected).abs() < 1e-15);
    }

    #[test]
    fn fallbacks_tracked_separately() {
        let shared = SharedCounters::new();
        assert_eq!(shared.fallbacks(), 0);
        shared.add_fallbacks(1);
        shared.add_fallbacks(2);
        assert_eq!(shared.fallbacks(), 3);
        assert_eq!(shared.snapshot(), CpuCounters::default());
    }

    #[test]
    fn summary_combines_cpu_and_io() {
        let cfg = SystemConfig::paper_1994();
        let s = ExecSummary {
            rows: 5,
            cpu: CpuCounters { records: 10, compares: 0, hashes: 0 },
            io: IoStats { seq_reads: 100, random_reads: 0, writes: 0 },
            ..ExecSummary::default()
        };
        let expected = 10.0 * cfg.cpu_per_record + 100.0 * cfg.seq_page_io;
        assert!((s.simulated_seconds(&cfg) - expected).abs() < 1e-15);
    }

    #[test]
    fn summaries_accumulate_without_merging_provenance() {
        let mut total = ExecSummary::default();
        let a = ExecSummary {
            rows: 5,
            cpu: CpuCounters { records: 10, compares: 2, hashes: 1 },
            io: IoStats { seq_reads: 3, random_reads: 1, writes: 0 },
            fallbacks: 1,
            temp_pages_peak: 7,
            startup_nodes: 4,
            plan_cache: PlanCacheInfo { statement_hit: Some(true), decision_hit: Some(false) },
        };
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(total.rows, 10);
        assert_eq!(total.cpu, CpuCounters { records: 20, compares: 4, hashes: 2 });
        assert_eq!(total.io.total(), 8);
        assert_eq!(total.fallbacks, 2);
        assert_eq!(total.startup_nodes, 8);
        assert_eq!(total.temp_pages_peak, 7, "a high-water is not summed");
        assert!(a.describe(&SystemConfig::paper_1994()).contains(", 7 temp pages peak, 1 fallback(s)"));
        assert_eq!(total.plan_cache, PlanCacheInfo::default(), "provenance not merged");
    }

    #[test]
    fn plan_cache_info_describes_states() {
        assert_eq!(PlanCacheInfo::default().describe(), "statement -, decision -");
        let info = PlanCacheInfo { statement_hit: Some(true), decision_hit: Some(false) };
        assert_eq!(info.describe(), "statement hit, decision miss");
    }
}
