//! Executor benchmark runner: measures the execution engine over the
//! standard cases and writes `BENCH_executor.json`.
//!
//! Usage: `bench_executor [--quick] [OUT_PATH]`
//!
//! `--quick` shrinks the tables and iteration count for CI smoke runs;
//! `OUT_PATH` defaults to `BENCH_executor.json` in the current
//! directory. The JSON is one object per benchmark with rows/sec and
//! ns/row.

use std::fmt::Write as _;

use dqep_bench::executor_bench::{standard_cases, Measurement};

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_executor.json");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let (scale, iters) = if quick { (10_000, 2) } else { (100_000, 5) };

    println!("executor benchmark: scale={scale} rows, {iters} iterations\n");
    println!("{:<12} {:>10} {:>14} {:>12}", "benchmark", "rows", "rows/s", "ns/row");

    let mut entries: Vec<(String, Measurement)> = Vec::new();
    for case in standard_cases(scale, 11) {
        // paper_q3 is a fixed-size ~2 ms workload regardless of `scale`;
        // at the standard iteration count it is dominated by scheduler
        // noise, so it gets a deeper sample.
        let case_iters = if case.name == "paper_q3" { iters * 20 } else { iters };
        let m = case.measure(case_iters);
        println!(
            "{:<12} {:>10} {:>14.0} {:>12.1}",
            case.name, m.rows, m.rows_per_sec, m.ns_per_row
        );
        entries.push((case.name.to_string(), m));
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, (name, m)) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"benchmark\": \"{name}\", \"rows\": {}, \"rows_per_sec\": {:.0}, \
             \"ns_per_row\": {:.2}}}",
            m.rows, m.rows_per_sec, m.ns_per_row,
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"scale\": {scale},\n  \"iterations\": {iters},\n  \"unit_note\": \
         \"ns_per_row normalizes wall time by result rows\"\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");
}
