//! `check-explain` — validates observability artifacts against their
//! schemas: EXPLAIN ANALYZE JSON documents (produced by `dqep-cli
//! --explain-analyze --json`), event-journal dumps (`--journal-json`),
//! metrics snapshots and windowed JSON-lines series (`--metrics-json`,
//! with or without `--metrics-interval-ms`), and Prometheus text
//! expositions (`--metrics-prom`).
//!
//! ```text
//! check-explain [--mode explain|journal|metrics|prom] FILE...
//! ```
//!
//! The default mode is `explain`. Exits 0 when every file conforms, 1 on
//! the first violation (with the reason on stderr), 2 on usage or I/O
//! errors. CI runs this over the artifacts of the observability, shard
//! and trace smoke jobs, so schema regressions fail the build
//! instead of silently breaking downstream consumers.

use std::process::ExitCode;

use dqep_executor::{validate_explain_json, validate_journal_json};
use dqep_service::{lint_prometheus, validate_metrics_json};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = "explain".to_string();
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--mode" {
            match args.get(i + 1) {
                Some(m) => mode = m.clone(),
                None => {
                    eprintln!("check-explain: --mode needs a value");
                    return ExitCode::from(2);
                }
            }
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    let validate: fn(&str) -> Result<(), String> = match mode.as_str() {
        "explain" => validate_explain_json,
        "journal" => validate_journal_json,
        "metrics" => validate_metrics_json,
        "prom" => lint_prometheus,
        other => {
            eprintln!("check-explain: unknown mode `{other}` (explain|journal|metrics|prom)");
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("usage: check-explain [--mode explain|journal|metrics|prom] FILE...");
        return ExitCode::from(2);
    }
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("check-explain: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(reason) = validate(&text) {
            eprintln!("check-explain: {path}: schema violation ({mode}): {reason}");
            return ExitCode::from(1);
        }
        println!("{path}: ok ({mode})");
    }
    ExitCode::SUCCESS
}
