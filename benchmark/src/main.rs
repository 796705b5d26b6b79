//! The dqep benchmark: four workloads, end-to-end metrics from fresh
//! interleaved segment processes, per-layer metrics from a traced replay.
//! See `README.md` beside this package for definitions and usage.

mod json;
mod metrics;
mod oracle;
mod reference;
mod replay;
mod runner;
mod segment;
mod stats;
mod sys;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;

use json::{number, Record};
use metrics::{END_TO_END, PER_LAYER};
use runner::{Measured, DEFAULT_SEED, ROUNDS};
use workloads::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Untraced rounds a `--trace 1` run takes for the latencies the traced
/// pass is compared with.
const TRACE_RUN_ROUNDS: usize = 3;

const USAGE: &str = "usage:
  dqep-benchmark run [--seed S] [--quick]           all workloads, all metrics, trace files
  dqep-benchmark aa [--sets 2] [--runs 5] [--seed S] [--quick] [--out FILE]
  dqep-benchmark verify [--seed S] [--quick]        oracle against the system, nothing timed
  dqep-benchmark --workload NAME --seed S --seconds N --trace 0|1   one workload, one result line";

/// Where trace files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    command: Option<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = std::env::args().skip(1).peekable();
        let command = args.next_if(|a| !a.starts_with("--"));
        let mut flags = HashMap::new();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if key == "quick" {
                String::new()
            } else {
                args.next()
                    .ok_or_else(|| format!("--{key} needs a value"))?
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Args { command, flags })
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} takes a whole number, not `{v}`")),
        }
    }

    fn quick(&self) -> bool {
        self.flags.contains_key("quick")
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("no workload `{name}`"))
    }
}

fn main() {
    let outcome = Args::parse().and_then(|args| match args.command.as_deref() {
        None if args.flags.contains_key("workload") => driver(&args),
        Some("run") => run(&args),
        Some("aa") => aa(&args),
        Some("verify") => verify(args.number("seed", DEFAULT_SEED)?, args.quick()),
        Some(mode @ ("segment" | "replay" | "replay-bare")) => child(&args, mode),
        _ => Err(USAGE.to_string()),
    });
    if let Err(message) = outcome {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

/// A segment or replay process: prints its record as the last line.
fn child(args: &Args, mode: &str) -> Result<(), String> {
    let (workload, seed, quick) = (
        args.workload()?,
        args.number("seed", DEFAULT_SEED)?,
        args.quick(),
    );
    let round = args.number("round", 0)? as usize;
    let record = match mode {
        "replay" => replay::run(workload, seed, round, quick, &out_dir())?,
        "replay-bare" => replay::run_bare(workload, seed, round, quick)?,
        _ => match segment::run(workload, seed, round, quick) {
            Ok(record) => record,
            Err((code, message)) => {
                eprintln!("{message}");
                std::process::exit(code);
            }
        },
    };
    println!("{}", record.to_json());
    Ok(())
}

/// The contract's entry point: one workload, one JSON result line.
/// Request counts are fixed, so `--seconds` sets the number of rounds:
/// segments are sized to about a second.
fn driver(args: &Args) -> Result<(), String> {
    let (workload, seed, quick) = (
        args.workload()?,
        args.number("seed", DEFAULT_SEED)?,
        args.quick(),
    );
    let traced = args.number("trace", 0)? != 0;
    let rounds = if traced {
        TRACE_RUN_ROUNDS
    } else {
        args.number("seconds", ROUNDS as u64)?.clamp(2, 60) as usize
    };
    let mut measured = Measured::new(workload, seed, quick);
    for round in 0..rounds {
        measured.run_round(round, quick)?;
    }
    let metrics: Vec<String> = if traced {
        let (values, _) = measured.per_layer(quick)?;
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, v)| metric_json(m.name, v, m.unit))
            .collect()
    } else {
        let values = measured.end_to_end(quick);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (v, _))| metric_json(m.name, v, m.unit))
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        measured.failed == 0,
        measured.attempted,
        measured.failed,
        metrics.join(",")
    );
    if measured.failed > 0 {
        return Err(format!(
            "{}: {} of {} requests failed or disagreed with the oracle",
            workload.name(),
            measured.failed,
            measured.attempted
        ));
    }
    Ok(())
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        number(value)
    )
}

/// Measures all workloads with their segments interleaved round by round
/// (`A B C D A B C D …`), so a disturbance of some seconds touches a few
/// segments of every workload instead of one workload's whole window.
fn measure_all(seed: u64, quick: bool) -> Result<Vec<Measured>, String> {
    let mut all: Vec<Measured> = Workload::ALL
        .iter()
        .map(|&w| Measured::new(w, seed, quick))
        .collect();
    for round in 0..if quick { 2 } else { ROUNDS } {
        for measured in &mut all {
            measured.run_round(round, quick)?;
        }
    }
    Ok(all)
}

/// `run`: every metric of every workload by name, with unit and spread.
fn run(args: &Args) -> Result<(), String> {
    let (seed, quick) = (args.number("seed", DEFAULT_SEED)?, args.quick());
    let all = measure_all(seed, quick)?;
    let mut failed = 0;
    for measured in &all {
        let w = measured.plan.workload;
        println!(
            "\n== {} (seed {seed}, {} requests x {} rounds) — {}",
            w.name(),
            measured.plan.list.len(),
            measured.rounds.len(),
            w.why()
        );
        for (m, (value, spread)) in END_TO_END.iter().zip(measured.end_to_end(quick)) {
            println!(
                "  {:<28} {:>14.6} {:<6} iqr {:>5.2} %   bound {:>4.1} %",
                m.name,
                value,
                m.unit,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        println!(
            "  {:<28} {:>14.6} {:<6} ({} of {})",
            "failed_share",
            measured.failed as f64 / measured.attempted as f64,
            "ratio",
            measured.failed,
            measured.attempted
        );
        failed += measured.failed;

        let (values, replay) = measured.per_layer(quick)?;
        // Where a request's time goes: self time of each layer's spans in
        // the traced replay, plus what the service adds around the bare
        // calls. On `shard_join` the shard threads' times are summed.
        let hand_off = PER_LAYER
            .iter()
            .zip(&values)
            .find(|(m, _)| m.name == "service.self_us");
        let mut parts = vec![(
            "service hand-off".to_string(),
            hand_off.map_or(0.0, |(_, v)| (v * 1e3).max(0.0)),
        )];
        parts.extend(replay.nums.iter().filter_map(|(k, v)| {
            k.strip_prefix("self_ns.")
                .map(|layer| (layer.to_string(), *v))
        }));
        let whole: f64 = parts.iter().map(|(_, ns)| ns).sum();
        let shares: Vec<String> = parts
            .iter()
            .map(|(layer, ns)| format!("{layer} {:.1} %", ns / whole * 100.0))
            .collect();
        println!(
            "  self time by layer, share of request time: {}",
            shares.join(", ")
        );
        for (m, value) in PER_LAYER.iter().zip(values) {
            println!(
                "    {:<36} {:>16.4} {:<6} ({} is better)",
                m.name,
                value,
                m.unit,
                m.better.word()
            );
        }
        println!(
            "  trace: {}",
            out_dir().join(format!("trace-{}.json", w.name())).display()
        );
    }
    if failed > 0 {
        return Err(format!(
            "{failed} requests failed or disagreed with the oracle"
        ));
    }
    Ok(())
}

/// `verify`: every workload's answers against the oracle, one pass each,
/// in this process. Nothing is timed or reported.
fn verify(seed: u64, quick: bool) -> Result<(), String> {
    for w in Workload::ALL {
        let mut measured = Measured::new(w, seed, quick);
        let record = segment::run(w, seed, 0, quick).map_err(|(_, message)| message)?;
        measured.accept(0, record)?;
        if measured.failed > 0 {
            return Err(format!(
                "{}: {} of {} answers disagree with the oracle",
                w.name(),
                measured.failed,
                measured.attempted
            ));
        }
        println!(
            "{}: {} answers agree with the oracle (seed {seed})",
            w.name(),
            measured.attempted
        );
    }
    Ok(())
}

/// `aa`: the same code measured in alternating sets, the way an acceptance
/// check does it — run `k` of every set uses seed `seed + k` — and per
/// metric and workload the spread inside each set and the difference of
/// the sets' medians next to the bound.
fn aa(args: &Args) -> Result<(), String> {
    let (seed, quick) = (args.number("seed", DEFAULT_SEED)?, args.quick());
    let (sets, runs) = (
        args.number("sets", 2)?.max(2) as usize,
        args.number("runs", 5)?.max(1) as usize,
    );
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; sets];
    for k in 0..runs {
        for set in values.iter_mut() {
            for (w, measured) in measure_all(seed + k as u64, quick)?.iter().enumerate() {
                if measured.failed > 0 {
                    return Err(format!(
                        "{}: {} requests failed",
                        measured.plan.workload.name(),
                        measured.failed
                    ));
                }
                for (m, (value, _)) in measured.end_to_end(quick).into_iter().enumerate() {
                    set[w][m].push(value);
                }
            }
        }
        eprintln!("aa: run {} of {runs} done in every set", k + 1);
    }
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread", "bound"
    );
    let mut record = Record::default();
    let mut unresolved = 0;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[sets - 1][w][m]);
            let worse = stats::worsening(a, b, metric.better);
            let spread = stats::iqr_share(a).max(stats::iqr_share(b));
            let ok = worse.abs() <= metric.bound && spread <= metric.bound;
            unresolved += usize::from(!ok);
            println!(
                "{:<16} {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                workload.name(),
                metric.name,
                stats::median(a),
                stats::median(b),
                worse * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                if ok { "within bound" } else { "UNRESOLVED" }
            );
            let key = format!("{}.{}", workload.name(), metric.name);
            record.set(&format!("{key}.worsening"), worse);
            record.set(&format!("{key}.spread"), spread);
            record.set(&format!("{key}.bound"), metric.bound);
            for (s, set) in values.iter().enumerate() {
                record
                    .arrays
                    .insert(format!("{key}.set{s}"), set[w][m].clone());
            }
        }
    }
    record.set("seed", seed as f64);
    record.set("runs_per_set", runs as f64);
    if let Some(path) = args.flags.get("out") {
        std::fs::write(path, record.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    if unresolved > 0 {
        return Err(format!(
            "{unresolved} metric x workload pairs are outside their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    /// The oracle and the system agree on every answer of every workload,
    /// on three seeds (a tenth of each list, as `--quick` runs it).
    #[test]
    fn verify_passes_on_three_seeds() {
        for seed in [1, 1989, 65_537] {
            super::verify(seed, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
