//! The parent side of a run: spawn segments, hold their answers against
//! the oracle, and reduce rounds to metrics.

use std::process::{Command, Stdio};

use crate::json::Record;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{self, Expected};
use crate::segment::EXIT_DEAD_WORKER;
use crate::stats::{self, median};
use crate::workloads::{Plan, Workload};

/// Rounds of a full run; `--quick` runs two.
pub const ROUNDS: usize = 16;
/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1989;

/// One workload's inputs, expected answers and verified rounds.
pub struct Measured {
    pub plan: Plan,
    expected: Vec<Expected>,
    pub rounds: Vec<Record>,
    pub failed: u64,
    pub attempted: u64,
}

impl Measured {
    /// Generates the workload and runs the oracle over every class —
    /// before any round, untimed.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Measured {
        let plan = Plan::new(workload, seed, quick);
        let expected = oracle::expected(&plan);
        Measured {
            plan,
            expected,
            rounds: Vec::new(),
            failed: 0,
            attempted: 0,
        }
    }

    /// Runs round `round` in a fresh process and checks every answer.
    pub fn run_round(&mut self, round: usize, quick: bool) -> Result<(), String> {
        let record = spawn("segment", self.plan.workload, self.plan.seed, round, quick)?;
        self.accept(round, record)
    }

    /// Holds a segment's answers against the oracle and keeps the record.
    /// A mismatch counts as a failed request.
    pub fn accept(&mut self, round: usize, record: Record) -> Result<(), String> {
        let w = self.plan.workload;
        let (rows, sums) = (record.array("rows"), record.array("sums"));
        if rows.len() != self.plan.list.len() {
            return Err(format!(
                "{}: segment answered {} of {} requests",
                w.name(),
                rows.len(),
                self.plan.list.len()
            ));
        }
        for (position, &class) in self.plan.list.iter().enumerate() {
            let want = self.expected[class];
            let checksum_ok = sums
                .get(position)
                .is_none_or(|&s| s == want.checksum as f64);
            if rows[position] != want.rows as f64 || !checksum_ok {
                eprintln!(
                    "{}: round {round} request {position} returned {} rows, the oracle says {}{}",
                    w.name(),
                    rows[position],
                    want.rows,
                    if checksum_ok {
                        ""
                    } else {
                        " (checksum differs)"
                    },
                );
                self.failed += 1;
            }
        }
        self.attempted += rows.len() as u64;
        self.rounds.push(record);
        Ok(())
    }

    /// The end-to-end metrics: `(value, inter-quartile range over rounds as
    /// a share of the median)` in the order of [`END_TO_END`]. Every time
    /// is first divided by its segment's slow-down — what the machine-speed
    /// reference, run between the requests, read in those same seconds
    /// (see `reference.rs`).
    pub fn end_to_end(&self, quick: bool) -> Vec<(f64, f64)> {
        let per_round =
            |f: &dyn Fn(&Record) -> f64| -> Vec<f64> { self.rounds.iter().map(f).collect() };
        let over_rounds = |values: Vec<f64>| (median(&values), stats::iqr_share(&values));
        // A request's latency is the median over rounds of its list
        // position's latency; the percentiles run over positions.
        let latencies: Vec<Vec<f64>> = self
            .rounds
            .iter()
            .map(|r| {
                let slowdown = r.num("slowdown");
                r.array("lat_ns").iter().map(|ns| ns / slowdown).collect()
            })
            .collect();
        let by_position = stats::position_medians(&latencies);
        let latency_ms = |p: f64| {
            let value = match stats::percentile(&by_position, p) {
                Some(v) => v,
                None if quick => stats::percentile_unchecked(&by_position, p),
                None => panic!("list too short for p{}", p * 100.0),
            };
            let of_rounds: Vec<f64> = latencies
                .iter()
                .map(|round| stats::percentile_unchecked(round, p))
                .collect();
            (value / 1e6, stats::iqr_share(&of_rounds))
        };
        END_TO_END
            .iter()
            .map(|m| match m.name {
                "setup_s" => {
                    over_rounds(per_round(&|r| r.num("setup_s") / r.num("setup_slowdown")))
                }
                "throughput_qps" => over_rounds(per_round(&|r| {
                    r.num("requests") * r.num("slowdown") / r.num("wall_s")
                })),
                "latency_p50_ms" => latency_ms(0.5),
                "latency_p90_ms" => latency_ms(0.9),
                "cpu_ms_per_query" => over_rounds(per_round(&|r| {
                    r.num("cpu_s") * 1e3 / r.num("slowdown") / r.num("requests")
                })),
                "sim_cost_s_per_query" => {
                    over_rounds(per_round(&|r| r.num("sim_cost_s") / r.num("requests")))
                }
                "peak_rss_mb" => over_rounds(per_round(&|r| r.num("peak_rss_kib") / 1024.0)),
                other => unreachable!("no estimator for {other}"),
            })
            .collect()
    }

    /// Runs the traced pass in a fresh process and joins it with the
    /// untraced rounds: the per-layer metrics in the order of
    /// [`PER_LAYER`], plus the replay's own record. A replay whose
    /// simulated cost differs from the service's on any request is an
    /// error: the trace would describe another execution.
    pub fn per_layer(&self, quick: bool) -> Result<(Vec<f64>, Record), String> {
        let w = self.plan.workload;
        let replay = spawn("replay", w, self.plan.seed, self.rounds.len(), quick)?;
        let service_sim = self.rounds[0].array("sim_s");
        for (position, (ours, theirs)) in replay.array("sim_s").iter().zip(service_sim).enumerate()
        {
            if (ours - theirs).abs() > 1e-9 * theirs.abs().max(1e-9) {
                return Err(format!(
                    "{}: request {position} cost {theirs} simulated seconds in the service and {ours} in the replay",
                    w.name()
                ));
            }
        }
        // The query path is also replayed bare (same calls, no tracing), in a
        // process of its own so both replays start from the same heap. The
        // sharded service cannot be replayed from outside; its traced pass
        // is compared with the untraced segments instead.
        let bare = if w.sharded() {
            Record::default()
        } else {
            spawn("replay-bare", w, self.plan.seed, self.rounds.len(), quick)?
        };
        let (bare, replayed) = (bare.array("bare_ns"), replay.array("replay_ns"));
        // One pass is compared with one round at a time, then the median
        // over rounds is taken: a per-position median over rounds would be
        // cleaner than any single pass and bias the difference.
        let against_rounds = |f: &dyn Fn(&[f64]) -> f64| {
            median(
                &self
                    .rounds
                    .iter()
                    .map(|r| f(r.array("lat_ns")))
                    .collect::<Vec<_>>(),
            )
        };
        let total = |ns: &[f64]| ns.iter().sum::<f64>();
        let over_rounds =
            |f: &dyn Fn(&Record) -> f64| median(&self.rounds.iter().map(f).collect::<Vec<_>>());
        let per_query = |key: &str| over_rounds(&|r| r.num(key) / r.num("requests"));
        let optional = |key: &str| over_rounds(&|r| r.nums.get(key).copied().unwrap_or(0.0));
        let values = PER_LAYER
            .iter()
            .map(|m| match m.name {
                // What the service adds to the bare calls: thread hand-off,
                // admission, stats locks.
                "service.self_us" if !w.sharded() => against_rounds(&|service| {
                    let gaps: Vec<f64> = service.iter().zip(bare).map(|(s, b)| s - b).collect();
                    median(&gaps) / 1e3
                }),
                "service.queue_wait_us" => per_query("queue_wait_ns") / 1e3,
                "service.statement_hit_rate" => optional("statement_hit_rate"),
                "service.decision_hit_rate" => optional("decision_hit_rate"),
                "service.registry_evictions" => optional("registry_evictions"),
                "process.allocs_per_query" => per_query("allocs"),
                "process.alloc_kib_per_query" => per_query("alloc_bytes") / 1024.0,
                "process.minor_faults_per_query" => per_query("minor_faults"),
                "process.spin_ms" => over_rounds(&|r| r.num("spin_ms")),
                "process.slowdown" => over_rounds(&|r| r.num("slowdown")),
                "trace.overhead_ratio" if w.sharded() => {
                    against_rounds(&|service| total(replayed) / total(service))
                }
                "trace.overhead_ratio" => total(replayed) / total(bare),
                name => replay.nums.get(name).copied().unwrap_or(0.0),
            })
            .collect();
        Ok((values, replay))
    }
}

/// Runs `mode` of this binary in a fresh process and parses the record it
/// prints as its last line. The child inherits stderr, so its messages
/// (a failed request, a dead worker) reach the user as they happen.
fn spawn(
    mode: &str,
    workload: Workload,
    seed: u64,
    round: usize,
    quick: bool,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            mode,
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--round",
            &round.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {mode}: {e}"))?;
    if !output.status.success() {
        let what = match output.status.code() {
            Some(EXIT_DEAD_WORKER) => "a service worker died".to_string(),
            Some(code) => format!("exit code {code}"),
            None => "killed by a signal".to_string(),
        };
        return Err(format!(
            "{} {mode} of round {round} failed: {what}",
            workload.name()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{mode} printed nothing"))?;
    Record::from_json(line).map_err(|e| format!("{mode} printed an unreadable record: {e}"))
}
