//! `dqep` — explain and run embedded-SQL queries against a synthetic
//! database, through the dynamic-plan optimizer.
//!
//! ```text
//! dqep --sql "SELECT * FROM R1 WHERE R1.a < :x" --bind x=50 --run
//!
//! Options:
//!   --sql TEXT          the query (relations R1..Rn: attrs a, jl, jr)
//!   --relations N       chain-catalog size (default 3)
//!   --seed S            catalog + data seed (default 42)
//!   --skew Z            zipf exponent for stored values (default: uniform)
//!   --histograms B      build B-bucket histograms before optimizing
//!   --mode M            dynamic (default) | static
//!   --bind NAME=VALUE   host-variable binding (repeatable)
//!   --memory PAGES      memory grant at start-up
//!   --explain           print the compile-time plan (default)
//!   --run               execute on generated data and report simulated time
//!   --explain-analyze   execute with per-operator tracing and print the
//!                       plan annotated with interval estimates vs actuals
//!                       (drift flags) and the choose-plan audit trail
//!                       (with --serve: each session's trace, its phases
//!                       and their operator spans, after its result line)
//!   --json              with --explain-analyze: print only the JSON
//!                       document (machine-readable, schema-stable; with
//!                       --serve one a session, a line each, and the
//!                       result lines on stderr)
//!   --reopt             run with mid-query re-optimization: checkpoint the
//!                       pipeline breakers, re-arbitrate the remainder when
//!                       an observed cardinality escapes its estimate
//!                       (also applies to --serve sessions; not to
//!                       --shards, whose access stages have nothing to
//!                       checkpoint)
//!   --adaptive          the same run, told to observe the §7 pilot first:
//!                       the uncertain subplan every alternative shares
//!                       (not with --shards)
//!   --reopt-budget N    max re-plans per query: how many times an escape
//!                       may re-make the start-up decision (default 2;
//!                       requires --reopt)
//!   --dop N             intra-query parallelism: N morsel workers for
//!                       each file scan (default 1), on threads only on
//!                       a paced disk (--serve or --shards with
//!                       --io-latency-us); the results and the simulated
//!                       cost are the same at every N
//!   --dot PATH          write the plan DAG as Graphviz
//!
//! Robustness (with --run):
//!   --fault-plan SPEC   inject storage faults, e.g. nth-read=5,read-prob=0.01
//!   --memory-limit B    enforce a B-byte memory grant (governor)
//!   --max-rows N        abort after N result rows
//!   --max-io N          abort after N accounted page I/Os
//!   --timeout-ms MS     wall-clock deadline
//!
//! Serving (instead of --sql):
//!   --serve FILE        run a workload file through the prepared-query
//!                       service: one `SQL @ var=value,...` per line
//!                       (`memory=PAGES` sets the grant; `#` comments)
//!   --workers N         most sessions at once; replicas are generated
//!                       on demand (default 4)
//!   --repeat N          run the workload file N times (default 1)
//!   --service-memory B  global admission memory pool in bytes
//!   --queue-timeout-ms  admission timeout per session
//!   --io-latency-us U   simulated device latency per page I/O (with
//!                       --serve or --shards only: exit 2 otherwise)
//!   --dop N             per-session parallelism cap (bounded by each
//!                       session's admitted memory grant)
//!   --metrics-json PATH write the service metrics snapshot (latency
//!                       histograms, cache rates, refusal counters) as
//!                       JSON on shutdown; `-` prints it to stdout
//! ```
//!
//! Sharded execution (with --sql --run):
//!   --shards N          partition the data across N shard replicas and
//!                       execute with repartitioning network exchange;
//!                       choose-plan arbitration runs per shard against
//!                       shard-local statistics (prints per-shard winners,
//!                       divergent nodes, and wire traffic)
//!   --routing R         base-data placement: hash (default) | range
//!   --force-uniform     resolve the plan once against global statistics
//!                       and broadcast it (the single-node-winner baseline)
//!   --link-fault SPEC   drop frames, e.g. nth-frame=3,max-retransmit=2
//!                       (the network's one setting: links are unpaced,
//!                       every byte is counted on the query's channels)
//!                       (--metrics-json writes the shard metrics
//!                       snapshot; --io-latency-us paces each replica;
//!                       --explain-analyze prints the merged distributed
//!                       trace: coordinator, per-shard subtrees, and
//!                       network send/receive spans with wire accounting)
//!
//! Observability (any mode):
//!   --journal-json PATH dump the always-on structured event journal
//!                       (arbitration winners, interval escapes, re-plans,
//!                       degradation steps, shard divergence, link
//!                       faults, admission refusals) as JSON on exit,
//!                       fatal-error exits included; `-` prints to stdout
//!   --metrics-prom PATH write the metrics snapshot in Prometheus text
//!                       exposition format (requires --serve/--shards)
//!   --metrics-interval-ms MS
//!                       sample metrics every MS milliseconds while the
//!                       workload runs: appends one JSON-lines window per
//!                       tick to the --metrics-json file and rewrites the
//!                       --metrics-prom file each tick
//!
//! Exit codes distinguish failure classes — see [`dqep::DqepError`].
//!
//! This file holds the flag table and the single-shot path; `--serve`
//! runs in `serve.rs`, `--shards` in `shard.rs`.

mod serve;
mod shard;

use std::process::ExitCode;
use std::sync::Arc;

use dqep::DqepError;
use dqep_catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::Environment;
use dqep_executor::{
    explain_json, pick_pilot, render_explain, ExecContext, JsonWriter, ReoptConfig, ReoptState,
    ResourceLimits, RootSink, Scalar, SharedCounters, TraceReport, Tracer,
};
use dqep_plan::{dag, evaluate_startup, render_plan, to_dot};
use dqep_service::{memory_grant_pages, MetricsReport};
use dqep_sql::parse_query;
use dqep_storage::{install_histograms, FaultPlan, StoredDatabase, ValueDistribution};

#[derive(Debug, Default)]
struct Args {
    sql: String,
    relations: usize,
    seed: u64,
    skew: Option<f64>,
    histograms: Option<usize>,
    mode: String,
    binds: Vec<(String, i64)>,
    memory: Option<f64>,
    run: bool,
    explain_analyze: bool,
    json: bool,
    adaptive: bool,
    reopt: bool,
    reopt_budget: Option<u32>,
    dot: Option<String>,
    fault_plan: Option<String>,
    memory_limit: Option<u64>,
    max_rows: Option<u64>,
    max_io: Option<u64>,
    timeout_ms: Option<u64>,
    serve: Option<String>,
    dop: usize,
    workers: usize,
    repeat: usize,
    service_memory: u64,
    queue_timeout_ms: u64,
    io_latency_us: u64,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
    metrics_interval_ms: Option<u64>,
    journal_json: Option<String>,
    shards: Option<usize>,
    routing: String,
    force_uniform: bool,
    link_fault: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_argv(&argv)
}

impl Args {
    /// The resource budgets the robustness flags ask for.
    fn limits(&self) -> ResourceLimits {
        ResourceLimits {
            memory_bytes: self.memory_limit,
            max_rows: self.max_rows,
            max_io: self.max_io,
            wall_clock_ms: self.timeout_ms,
        }
    }

    /// The re-optimization budget `--reopt-budget` asks for.
    fn reopt(&self) -> ReoptConfig {
        let default = ReoptConfig::default();
        ReoptConfig { max_replans: self.reopt_budget.unwrap_or(default.max_replans) }
    }

    /// The compile-time environment of `--mode`.
    fn env(&self, config: &SystemConfig) -> Environment {
        if self.mode == "static" {
            Environment::static_compile_time(config)
        } else {
            Environment::dynamic_compile_time(config)
        }
    }

    /// The chain catalog of `--relations`/`--seed` and — when asked to
    /// `generate` it, or when histograms need it — its data under
    /// `--skew`, with `buckets`-bucket histograms harvested from it.
    fn database(
        &self,
        generate: bool,
        buckets: Option<usize>,
    ) -> Result<(Catalog, Option<StoredDatabase>), DqepError> {
        let mut catalog = make_chain_catalog(
            &SyntheticSpec::paper(self.relations, self.seed),
            SystemConfig::paper_1994(),
        );
        let dist = match self.skew {
            Some(z) => ValueDistribution::Zipf { exponent: z },
            None => ValueDistribution::Uniform,
        };
        let db = (generate || buckets.is_some())
            .then(|| StoredDatabase::generate_with(&catalog, self.seed, dist));
        if let (Some(buckets), Some(db)) = (buckets, &db) {
            install_histograms(db, &mut catalog, buckets)?;
            eprintln!("built {buckets}-bucket histograms over all attributes");
        }
        Ok((catalog, db))
    }
}

/// What a flag does with its value (`""` for a flag that takes none).
type Setter = fn(&mut Args, &str) -> Result<(), String>;

/// `value` as a number, the parser's complaint if it is not one.
fn num<T: std::str::FromStr>(value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// `value` as a number of at least 1.
fn at_least_one<T: std::str::FromStr + Default + PartialEq>(value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match num::<T>(value)? {
        n if n == T::default() => Err("must be at least 1".to_string()),
        n => Ok(n),
    }
}

/// Stores a flag's checked value.
fn set<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// Every flag: its name, whether it takes a value, and what it sets. An
/// error a setter returns is reported behind the flag's name.
const FLAGS: &[(&str, bool, Setter)] = &[
    ("--sql", true, |a, v| set(&mut a.sql, Ok(v.to_string()))),
    ("--relations", true, |a, v| set(&mut a.relations, num(v))),
    ("--seed", true, |a, v| set(&mut a.seed, num(v))),
    ("--skew", true, |a, v| set(&mut a.skew, num(v).map(Some))),
    ("--histograms", true, |a, v| set(&mut a.histograms, num(v).map(Some))),
    ("--mode", true, |a, v| set(&mut a.mode, Ok(v.to_string()))),
    ("--bind", true, |a, v| {
        let (name, value) =
            v.split_once('=').ok_or_else(|| format!("expects NAME=VALUE, got `{v}`"))?;
        a.binds.push((name.to_string(), num(value).map_err(|e| format!("{name}: {e}"))?));
        Ok(())
    }),
    ("--memory", true, |a, v| set(&mut a.memory, num(v).and_then(memory_grant_pages).map(Some))),
    ("--explain", false, |_, _| Ok(())),
    ("--run", false, |a, _| set(&mut a.run, Ok(true))),
    ("--explain-analyze", false, |a, _| {
        a.run = true;
        set(&mut a.explain_analyze, Ok(true))
    }),
    ("--json", false, |a, _| set(&mut a.json, Ok(true))),
    ("--adaptive", false, |a, _| {
        a.run = true;
        set(&mut a.adaptive, Ok(true))
    }),
    ("--reopt", false, |a, _| {
        a.run = true;
        set(&mut a.reopt, Ok(true))
    }),
    ("--reopt-budget", true, |a, v| set(&mut a.reopt_budget, num(v).map(Some))),
    ("--dot", true, |a, v| set(&mut a.dot, Ok(Some(v.to_string())))),
    ("--fault-plan", true, |a, v| set(&mut a.fault_plan, Ok(Some(v.to_string())))),
    ("--memory-limit", true, |a, v| set(&mut a.memory_limit, num(v).map(Some))),
    ("--max-rows", true, |a, v| set(&mut a.max_rows, num(v).map(Some))),
    ("--max-io", true, |a, v| set(&mut a.max_io, num(v).map(Some))),
    ("--timeout-ms", true, |a, v| set(&mut a.timeout_ms, num(v).map(Some))),
    ("--serve", true, |a, v| set(&mut a.serve, Ok(Some(v.to_string())))),
    ("--dop", true, |a, v| set(&mut a.dop, at_least_one(v))),
    ("--workers", true, |a, v| set(&mut a.workers, num(v))),
    ("--repeat", true, |a, v| set(&mut a.repeat, num(v))),
    ("--service-memory", true, |a, v| set(&mut a.service_memory, num(v))),
    ("--queue-timeout-ms", true, |a, v| set(&mut a.queue_timeout_ms, num(v))),
    ("--io-latency-us", true, |a, v| set(&mut a.io_latency_us, num(v))),
    ("--metrics-json", true, |a, v| set(&mut a.metrics_json, Ok(Some(v.to_string())))),
    ("--metrics-prom", true, |a, v| set(&mut a.metrics_prom, Ok(Some(v.to_string())))),
    ("--metrics-interval-ms", true, |a, v| {
        set(&mut a.metrics_interval_ms, at_least_one(v).map(Some))
    }),
    ("--journal-json", true, |a, v| set(&mut a.journal_json, Ok(Some(v.to_string())))),
    ("--shards", true, |a, v| set(&mut a.shards, at_least_one(v).map(Some))),
    ("--routing", true, |a, v| set(&mut a.routing, Ok(v.to_string()))),
    ("--force-uniform", false, |a, _| set(&mut a.force_uniform, Ok(true))),
    ("--link-fault", true, |a, v| set(&mut a.link_fault, Ok(Some(v.to_string())))),
    ("--help", false, |_, _| Err("usage: see `dqep` module docs (or the README)".to_string())),
];

fn parse_argv(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        relations: 3,
        seed: 42,
        mode: "dynamic".to_string(),
        dop: 1,
        workers: 4,
        repeat: 1,
        service_memory: 64 << 20,
        queue_timeout_ms: 10_000,
        routing: "hash".to_string(),
        ..Args::default()
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let name = if flag == "-h" { "--help" } else { flag.as_str() };
        let (_, takes_value, set) = FLAGS
            .iter()
            .find(|(known, ..)| *known == name)
            .ok_or_else(|| format!("unknown flag `{flag}`"))?;
        let value = match takes_value {
            true => argv.next().ok_or_else(|| format!("{flag} needs a value"))?,
            false => "",
        };
        set(&mut args, value).map_err(|e| format!("{flag}: {e}"))?;
    }
    if args.sql.is_empty() && args.serve.is_none() {
        return Err("--sql (or --serve FILE) is required".to_string());
    }
    if !args.sql.is_empty() && args.serve.is_some() {
        return Err("--sql and --serve are mutually exclusive".to_string());
    }
    if args.mode != "dynamic" && args.mode != "static" {
        return Err(format!("--mode must be dynamic or static, got `{}`", args.mode));
    }
    let governed = args.fault_plan.is_some()
        || args.memory_limit.is_some()
        || args.max_rows.is_some()
        || args.max_io.is_some()
        || args.timeout_ms.is_some();
    if governed && !args.run {
        return Err("--fault-plan and resource limits require --run".to_string());
    }
    if args.reopt && args.adaptive {
        return Err("--reopt and --adaptive are mutually exclusive".to_string());
    }
    if args.reopt_budget.is_some() && !args.reopt {
        return Err("--reopt-budget requires --reopt".to_string());
    }
    if args.json && !args.explain_analyze {
        return Err("--json requires --explain-analyze".to_string());
    }
    let workload_mode = args.serve.is_some() || args.shards.is_some();
    if args.metrics_json.is_some() && !workload_mode {
        return Err("--metrics-json requires --serve or --shards".to_string());
    }
    if args.metrics_prom.is_some() && !workload_mode {
        return Err("--metrics-prom requires --serve or --shards".to_string());
    }
    // Only a service's replicas and a sharded query's shards pace their
    // disks; a single-shot run would ignore the latency.
    if args.io_latency_us > 0 && !workload_mode {
        return Err("--io-latency-us requires --serve or --shards".to_string());
    }
    if args.metrics_interval_ms.is_some()
        && args.metrics_json.is_none()
        && args.metrics_prom.is_none()
    {
        return Err("--metrics-interval-ms requires --metrics-json or --metrics-prom".to_string());
    }
    if args.shards.is_some() {
        if args.sql.is_empty() || !args.run {
            return Err("--shards requires --sql and --run".to_string());
        }
        if args.reopt || args.adaptive {
            return Err(
                "--shards supports --run/--explain-analyze, not --reopt/--adaptive".to_string()
            );
        }
        if args.routing != "hash" && args.routing != "range" {
            return Err(format!("--routing must be hash or range, got `{}`", args.routing));
        }
    } else {
        if args.link_fault.is_some() || args.force_uniform {
            return Err("--link-fault/--force-uniform require --shards".to_string());
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let e = DqepError::Usage(e);
            eprintln!("dqep: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let result = run(&args);
    // The flight recorder is flushed on every exit path — fatal errors
    // included — so post-mortem debugging always has the event journal.
    if let Err(e) = dump_journal(&args) {
        eprintln!("dqep: journal dump failed: {e}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dqep: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Prints an EXPLAIN ANALYZE report: the JSON document alone under
/// `--json`, the rendered tree otherwise.
fn print_explain(args: &Args, report: &TraceReport, config: &SystemConfig) {
    if args.json {
        println!("{}", explain_json(report, config));
    } else {
        print!("\n{}", render_explain(report, config));
    }
}

/// Writes the structured event journal to the `--journal-json`
/// destination (`-` = stdout). A no-op without the flag.
fn dump_journal(args: &Args) -> Result<(), DqepError> {
    let Some(dest) = args.journal_json.as_deref() else {
        return Ok(());
    };
    let json = dqep_executor::journal().to_json();
    match dest {
        "-" => println!("{json}"),
        path => {
            std::fs::write(path, &json)?;
            eprintln!("wrote event journal to {path}");
        }
    }
    Ok(())
}

/// Writes the shutdown metrics snapshot to the `--metrics-json` and
/// `--metrics-prom` destinations. With `--metrics-interval-ms` the JSON
/// file is an append-only time series, so the final snapshot appends one
/// last line instead of replacing the windows sampled during the run.
fn write_metric_outputs(args: &Args, report: &MetricsReport) -> Result<(), DqepError> {
    match args.metrics_json.as_deref() {
        None => {}
        Some("-") => println!("\n-- metrics (shutdown snapshot):\n{}", report.to_json()),
        Some(path) if args.metrics_interval_ms.is_some() => {
            append_line(path, &window_line("final".into(), None, report))?;
            eprintln!("appended final metrics window to {path}");
        }
        Some(path) => {
            std::fs::write(path, report.to_json())?;
            eprintln!("wrote metrics snapshot to {path}");
        }
    }
    match args.metrics_prom.as_deref() {
        None => {}
        Some("-") => print!("\n{}", report.to_prometheus()),
        Some(path) => {
            std::fs::write(path, report.to_prometheus())?;
            eprintln!("wrote Prometheus exposition to {path}");
        }
    }
    Ok(())
}

/// One line of the `--metrics-json` time series: the window (a number,
/// or `"final"` for the shutdown snapshot), the milliseconds elapsed when
/// it was sampled, and the metrics document.
fn window_line(window: Scalar<'_>, elapsed_ms: Option<u64>, report: &MetricsReport) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("window").val(window);
        if let Some(ms) = elapsed_ms {
            w.key("elapsed_ms").val(ms);
        }
        report.write_json(w.key("metrics"));
    });
    w.finish()
}

/// Appends one line to `path`, creating the file if needed.
fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// Runs `body` under a background metrics sampler: every
/// `--metrics-interval-ms` window it appends one JSON-lines snapshot to
/// the `--metrics-json` file and rewrites the `--metrics-prom` file, so
/// the exports are a live time series rather than a shutdown-only dump.
/// Without the flag it is exactly `body()`.
fn with_sampler<T>(
    args: &Args,
    snapshot: &(dyn Fn() -> MetricsReport + Sync),
    body: impl FnOnce() -> T,
) -> T {
    let Some(interval) = args.metrics_interval_ms else {
        return body();
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = AtomicBool::new(false);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let jsonl = args.metrics_json.as_deref().filter(|p| *p != "-");
            let prom = args.metrics_prom.as_deref().filter(|p| *p != "-");
            let period = std::time::Duration::from_millis(interval);
            let nap = std::time::Duration::from_millis(interval.clamp(1, 5));
            let mut window = 0u64;
            loop {
                let deadline = std::time::Instant::now() + period;
                while std::time::Instant::now() < deadline {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(nap);
                }
                window += 1;
                let report = snapshot();
                if let Some(path) = jsonl {
                    let elapsed_ms = started.elapsed().as_millis() as u64;
                    let line = window_line(window.into(), Some(elapsed_ms), &report);
                    if append_line(path, &line).is_err() {
                        return; // an unwritable path will not get better
                    }
                }
                if let Some(path) = prom {
                    if std::fs::write(path, report.to_prometheus()).is_err() {
                        return;
                    }
                }
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        let _ = sampler.join();
        out
    })
}

fn run(args: &Args) -> Result<(), DqepError> {
    if args.serve.is_some() {
        return serve::serve(args);
    }
    if args.shards.is_some() {
        return shard::run_sharded(args);
    }
    // Data is generated when statistics or execution are requested.
    let (catalog, db) = args.database(args.run, args.histograms)?;
    if let (Some(spec), Some(db)) = (&args.fault_plan, &db) {
        let plan = FaultPlan::parse(spec)
            .map_err(|e| DqepError::Usage(format!("--fault-plan: {e}")))?;
        db.disk.set_fault_plan(plan);
        eprintln!("fault plan armed: {spec}");
    }

    let query = parse_query(&args.sql, &catalog)?;
    let env = args.env(&catalog.config);
    let result = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())?;

    // With --json, stdout carries only the JSON document (clean for
    // redirection); narration stays on stderr or is dropped.
    if !args.json {
        println!("-- {} plan ({} nodes, {} choose-plans, {:.3e} contained static plans)",
            args.mode,
            result.stats.plan_nodes,
            result.stats.choose_plans,
            dag::contained_plan_count(&result.plan),
        );
        print!("{}", render_plan(&result.plan));
    }

    if let Some(path) = &args.dot {
        std::fs::write(path, to_dot(&result.plan))?;
        eprintln!("wrote {path}");
    }

    let binds: Vec<(&str, i64)> = args.binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut bindings = query.bindings(&binds).map_err(DqepError::Usage)?;
    if let Some(m) = args.memory {
        bindings = bindings.with_memory(m);
    }

    let missing: Vec<&str> = query
        .host_var_names()
        .into_iter()
        .filter(|n| !args.binds.iter().any(|(b, _)| b == n))
        .collect();
    if !args.binds.is_empty() || query.host_vars.is_empty() {
        if !missing.is_empty() {
            return Err(DqepError::Usage(format!(
                "missing --bind for: {}",
                missing.join(", ")
            )));
        }
        // The decision printed is the decision run: `--run` hands it to the
        // executor instead of having it made again.
        let startup = (!args.json)
            .then(|| Arc::new(evaluate_startup(&result.plan, &catalog, &env, &bindings)));
        if let Some(startup) = &startup {
            println!(
                "\n-- start-up decision ({} nodes costed, {} decisions, predicted {:.4}s)",
                startup.evaluated_nodes,
                startup.decisions.len(),
                startup.predicted_run_seconds
            );
            print!("{}", render_plan(&startup.resolved));
        }

        if args.run {
            let db = db.as_ref().expect("generated above");
            // One context says how the plan runs — limits, parallelism,
            // tracing, re-optimization — and one call runs it. The tracer
            // and the re-optimization state kept here are where EXPLAIN
            // ANALYZE and the report below read what happened.
            let mut ctx =
                ExecContext::with_limits(SharedCounters::new(), args.limits()).with_dop(args.dop);
            let tracer = args.explain_analyze.then(|| Arc::new(Tracer::new()));
            if let Some(tracer) = &tracer {
                ctx = ctx.with_tracer(Arc::clone(tracer));
            }
            // --adaptive is --reopt told to observe the §7 pilot first.
            let reopt = (args.reopt || args.adaptive).then(|| {
                let pilot = args.adaptive.then(|| pick_pilot(&result.plan)).flatten();
                Arc::new(ReoptState::new(args.reopt()).observing_first(pilot))
            });
            match (&reopt, startup) {
                (Some(state), _) => ctx = ctx.with_reopt(Arc::clone(state)),
                (None, Some(startup)) => ctx = ctx.with_decision(startup),
                (None, None) => {}
            }
            let plan = &result.plan;
            let summary =
                dqep_executor::run(plan, db, &catalog, &env, &bindings, &ctx, RootSink::Discard)?;
            if let (Some(state), false) = (&reopt, args.json) {
                let c = state.counters();
                println!(
                    "\n-- re-optimizing execution: {} checkpoint(s) costing {:.4}s, {} escape(s), \
                     {}/{} replan(s) adopted, {} memory degradation(s), {} fallback(s)",
                    c.checkpoints,
                    state.checkpoint_cost().simulated_seconds(&catalog.config),
                    c.escapes,
                    c.replans_adopted,
                    c.replans_attempted,
                    c.memory_degradations,
                    c.fallbacks,
                );
            }
            if let Some(tracer) = &tracer {
                print_explain(args, &tracer.report(), &catalog.config);
            }
            if !args.json {
                if args.dop > 1 {
                    println!("\n-- parallel execution at dop {}", args.dop);
                }
                // Both CLI paths (--run and --serve) share the
                // ExecSummary::describe renderer, so the formats
                // cannot drift apart. Single-shot runs bypass the
                // prepared-query service, so both caches report "-".
                println!("\n-- executed: {}", summary.describe(&catalog.config));
                if summary.fallbacks > 0 {
                    println!(
                        "-- {} choose-plan fallback(s): a preferred alternative failed \
                         retryably and execution degraded to the next-best plan",
                        summary.fallbacks
                    );
                }
            }
        }
    } else if args.run {
        return Err(DqepError::Usage(
            "--run needs --bind for every host variable".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_argv(&argv(&[
            "--sql", "SELECT * FROM R1", "--relations", "5", "--seed", "7",
            "--skew", "1.1", "--histograms", "16", "--mode", "static",
            "--bind", "x=40", "--bind", "y=-3", "--memory", "96",
            "--run", "--dot", "/tmp/p.dot",
        ]))
        .unwrap();
        assert_eq!(a.sql, "SELECT * FROM R1");
        assert_eq!(a.relations, 5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.skew, Some(1.1));
        assert_eq!(a.histograms, Some(16));
        assert_eq!(a.mode, "static");
        assert_eq!(a.binds, vec![("x".to_string(), 40), ("y".to_string(), -3)]);
        assert_eq!(a.memory, Some(96.0));
        assert!(a.run);
        for grant in ["NaN", "-1", "0", "inf"] {
            let refused = parse_argv(&argv(&["--sql", "q", "--memory", grant])).unwrap_err();
            assert!(refused.contains("memory grant"), "{grant}: {refused}");
        }
        assert!(!a.adaptive);
        assert_eq!(a.dot.as_deref(), Some("/tmp/p.dot"));
    }

    #[test]
    fn adaptive_implies_run() {
        let a = parse_argv(&argv(&["--sql", "q", "--adaptive"])).unwrap();
        assert!(a.adaptive && a.run);
    }

    #[test]
    fn reopt_implies_run_and_parses_budget() {
        let a = parse_argv(&argv(&["--sql", "q", "--reopt"])).unwrap();
        assert!(a.reopt && a.run);
        assert_eq!(a.reopt_budget, None, "budget defaults at the execution site");
        let a = parse_argv(&argv(&["--sql", "q", "--reopt", "--reopt-budget", "5"])).unwrap();
        assert_eq!(a.reopt_budget, Some(5));
        assert!(parse_argv(&argv(&["--sql", "q", "--reopt", "--reopt-budget", "x"]))
            .unwrap_err()
            .contains("--reopt-budget"));
    }

    #[test]
    fn adaptive_runs_under_the_callers_limits_dop_and_tracer() {
        let line = |extra: &[&str]| {
            let mut parts = vec![
                "--sql", "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v1 AND R2.a < :v2",
                "--relations", "2", "--bind", "v1=500", "--bind", "v2=500", "--adaptive",
            ];
            parts.extend(extra);
            parse_argv(&argv(&parts)).unwrap()
        };
        run(&line(&[])).unwrap();
        // Exit 5, as `--run` and `--reopt` answer the same line.
        let refused = run(&line(&["--max-rows", "1", "--dop", "4"])).unwrap_err();
        assert_eq!(refused.exit_code(), 5, "{refused}");
        run(&line(&["--explain-analyze", "--json", "--dop", "4"])).unwrap();
    }

    #[test]
    fn reopt_budget_requires_reopt() {
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--reopt-budget", "3"]))
            .unwrap_err()
            .contains("--reopt"));
    }

    #[test]
    fn reopt_and_adaptive_are_mutually_exclusive() {
        assert!(parse_argv(&argv(&["--sql", "q", "--reopt", "--adaptive"]))
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn parses_observability_flags() {
        let a = parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "2", "--journal-json", "j.json",
            "--metrics-prom", "m.prom", "--metrics-json", "m.jsonl",
            "--metrics-interval-ms", "50",
        ]))
        .unwrap();
        assert_eq!(a.journal_json.as_deref(), Some("j.json"));
        assert_eq!(a.metrics_prom.as_deref(), Some("m.prom"));
        assert_eq!(a.metrics_interval_ms, Some(50));
        // The journal is always on, so the dump flag works in any mode.
        let a = parse_argv(&argv(&["--sql", "q", "--journal-json", "-"])).unwrap();
        assert_eq!(a.journal_json.as_deref(), Some("-"));
        // The exports require a workload mode, and the sampler an export.
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--metrics-prom", "m"]))
            .unwrap_err()
            .contains("--metrics-prom requires"));
        assert!(parse_argv(&argv(&["--serve", "w", "--metrics-interval-ms", "10"]))
            .unwrap_err()
            .contains("--metrics-interval-ms requires"));
        assert!(parse_argv(&argv(&[
            "--serve", "w", "--metrics-json", "m", "--metrics-interval-ms", "0"
        ]))
        .unwrap_err()
        .contains("at least 1"));
    }

    #[test]
    fn io_latency_requires_a_workload_mode() {
        for mode in [&["--serve", "w"][..], &["--sql", "q", "--run", "--shards", "2"]] {
            let a = parse_argv(&argv(&[mode, &["--io-latency-us", "200"]].concat())).unwrap();
            assert_eq!(a.io_latency_us, 200);
        }
        for single in [&["--sql", "q", "--run"][..], &["--sql", "q", "--run", "--dop", "4"], &["--sql", "q"]] {
            let refused = parse_argv(&argv(&[single, &["--io-latency-us", "100"]].concat())).unwrap_err();
            assert!(refused.contains("--io-latency-us requires"), "{refused}");
        }
    }

    #[test]
    fn reopt_works_with_explain_analyze_and_serve() {
        let a = parse_argv(&argv(&["--sql", "q", "--reopt", "--explain-analyze"])).unwrap();
        assert!(a.reopt && a.explain_analyze);
        let a = parse_argv(&argv(&["--serve", "w.sql", "--reopt"])).unwrap();
        assert!(a.reopt && a.serve.is_some());
        // A served session is traced like a --run: its trace, as text or JSON.
        let a = parse_argv(&argv(&["--serve", "w.sql", "--explain-analyze", "--json"])).unwrap();
        assert!(a.explain_analyze && a.json && a.serve.is_some());
    }

    #[test]
    fn parses_dop() {
        let a = parse_argv(&argv(&["--sql", "q", "--run", "--dop", "4"])).unwrap();
        assert_eq!(a.dop, 4);
        let a = parse_argv(&argv(&["--sql", "q"])).unwrap();
        assert_eq!(a.dop, 1, "serial by default");
        assert!(parse_argv(&argv(&["--sql", "q", "--dop", "0"]))
            .unwrap_err()
            .contains("--dop"));
        assert!(parse_argv(&argv(&["--sql", "q", "--dop", "x"]))
            .unwrap_err()
            .contains("--dop"));
    }

    #[test]
    fn defaults() {
        let a = parse_argv(&argv(&["--sql", "q"])).unwrap();
        assert_eq!(a.relations, 3);
        assert_eq!(a.mode, "dynamic");
        assert!(a.binds.is_empty());
        assert!(!a.run);
    }

    #[test]
    fn parses_robustness_flags() {
        let a = parse_argv(&argv(&[
            "--sql", "q", "--run", "--fault-plan", "nth-read=5,read-prob=0.01,seed=7",
            "--memory-limit", "65536", "--max-rows", "100", "--max-io", "2000",
            "--timeout-ms", "5000",
        ]))
        .unwrap();
        assert_eq!(a.fault_plan.as_deref(), Some("nth-read=5,read-prob=0.01,seed=7"));
        assert_eq!(a.memory_limit, Some(65536));
        assert_eq!(a.max_rows, Some(100));
        assert_eq!(a.max_io, Some(2000));
        assert_eq!(a.timeout_ms, Some(5000));
    }

    #[test]
    fn governance_flags_require_run() {
        for flags in [
            vec!["--sql", "q", "--fault-plan", "nth-read=1"],
            vec!["--sql", "q", "--max-rows", "5"],
            vec!["--sql", "q", "--timeout-ms", "10"],
        ] {
            assert!(parse_argv(&argv(&flags)).unwrap_err().contains("--run"));
        }
    }

    #[test]
    fn sql_and_serve_are_mutually_exclusive() {
        assert!(parse_argv(&argv(&["--sql", "q", "--serve", "w"]))
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn errors() {
        assert!(parse_argv(&argv(&[])).unwrap_err().contains("--sql"));
        assert!(parse_argv(&argv(&["--sql", "q", "--mode", "bogus"]))
            .unwrap_err()
            .contains("--mode"));
        assert!(parse_argv(&argv(&["--sql", "q", "--bind", "novalue"]))
            .unwrap_err()
            .contains("NAME=VALUE"));
        assert!(parse_argv(&argv(&["--sql"])).unwrap_err().contains("needs a value"));
        assert!(parse_argv(&argv(&["--wat"])).unwrap_err().contains("unknown flag"));
        assert!(parse_argv(&argv(&["--sql", "q", "--relations", "x"]))
            .unwrap_err()
            .contains("--relations"));
    }
}
