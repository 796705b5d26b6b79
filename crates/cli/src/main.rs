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
//!   --json              with --explain-analyze: print only the JSON
//!                       document (machine-readable, schema-stable)
//!   --reopt             run with mid-query re-optimization: checkpoint the
//!                       pipeline breakers, re-arbitrate the remainder when
//!                       an observed cardinality escapes its estimate
//!                       (also applies to --serve sessions)
//!   --adaptive          the same run, told to observe the §7 pilot first:
//!                       the uncertain subplan every alternative shares
//!   --reopt-budget N    max re-plans per query (default 2; requires --reopt)
//!   --dop N             intra-query parallelism: N worker threads for the
//!                       parallel scan / hash join / sort (default 1)
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
//!   --io-latency-us U   simulated device latency per page I/O
//!   --dop N             per-session parallelism cap (bounded by each
//!                       session's admitted memory grant)
//!   --metrics-json PATH write the service metrics snapshot (latency
//!                       histograms, cache rates, refusal counters) as
//!                       JSON on shutdown; `-` prints it to stdout
//!
//! Live views (instead of --sql / --serve):
//!   --live FILE         run a live workload: register views, interleave
//!                       insert/delete batches with reads, and keep every
//!                       view incrementally consistent (drift re-fires
//!                       choose-plan arbitration). Lines:
//!                         view NAME = SQL [@ v1=40,...]
//!                         insert REL v1 v2 ...  /  delete REL v1 v2 ...
//!                         commit  /  read NAME
//!   --explain-json PATH write the EXPLAIN ANALYZE JSON of the most
//!                       recently registered view's materialization;
//!                       `-` prints it to stdout
//!                       (--metrics-json and the robustness flags apply
//!                       to --live as well)
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
//!   --net-latency-us U  per-frame link latency, microseconds
//!   --net-bandwidth B   link bandwidth in bytes/second (0 = unpaced)
//!   --net-jitter-us U   deterministic per-frame jitter bound
//!   --link-fault SPEC   drop frames, e.g. nth-frame=3,max-retransmit=2
//!                       (--metrics-json writes the shard metrics
//!                       snapshot; --io-latency-us paces each replica;
//!                       --explain-analyze prints the merged distributed
//!                       trace: coordinator, per-shard subtrees, and
//!                       network send/receive spans with wire accounting)
//!
//! Observability (any mode):
//!   --journal-json PATH dump the always-on structured event journal
//!                       (arbitration winners, interval escapes, re-plans,
//!                       degradation steps, live drift, shard divergence,
//!                       link faults, admission refusals) as JSON on exit,
//!                       fatal-error exits included; `-` prints to stdout
//!   --metrics-prom PATH write the metrics snapshot in Prometheus text
//!                       exposition format (requires --serve/--live/--shards)
//!   --metrics-interval-ms MS
//!                       sample metrics every MS milliseconds while the
//!                       workload runs: appends one JSON-lines window per
//!                       tick to the --metrics-json file and rewrites the
//!                       --metrics-prom file each tick
//!
//! Exit codes distinguish failure classes — see [`dqep::DqepError`].

use std::process::ExitCode;
use std::sync::Arc;

use dqep::DqepError;
use dqep_catalog::{make_chain_catalog, Catalog, SyntheticSpec, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    explain_json, pick_pilot, render_explain, ExecContext, ExecSummary, JsonWriter, ReoptConfig,
    ReoptState, ResourceLimits, RootSink, Scalar, SharedCounters, TraceReport, Tracer,
};
use dqep_plan::{evaluate_startup, render_plan, to_dot};
use dqep_service::{
    LiveConfig, LiveViewRegistry, Metric, MetricsRegistry, MetricsReport, QueryService, Request,
    ServiceConfig, WriteOp,
};
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
    live: Option<String>,
    explain_json_path: Option<String>,
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
    net_latency_us: u64,
    net_bandwidth: u64,
    net_jitter_us: u64,
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
        ReoptConfig { max_replans: self.reopt_budget.unwrap_or(2), ..ReoptConfig::default() }
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
    ("--memory", true, |a, v| set(&mut a.memory, num(v).map(Some))),
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
    ("--live", true, |a, v| set(&mut a.live, Ok(Some(v.to_string())))),
    ("--explain-json", true, |a, v| set(&mut a.explain_json_path, Ok(Some(v.to_string())))),
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
    ("--net-latency-us", true, |a, v| set(&mut a.net_latency_us, num(v))),
    ("--net-bandwidth", true, |a, v| set(&mut a.net_bandwidth, num(v))),
    ("--net-jitter-us", true, |a, v| set(&mut a.net_jitter_us, num(v))),
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
    if args.sql.is_empty() && args.serve.is_none() && args.live.is_none() {
        return Err("--sql (or --serve FILE, or --live FILE) is required".to_string());
    }
    let modes =
        [!args.sql.is_empty(), args.serve.is_some(), args.live.is_some()].iter().filter(|&&m| m).count();
    if modes > 1 {
        return Err("--sql, --serve, and --live are mutually exclusive".to_string());
    }
    if args.mode != "dynamic" && args.mode != "static" {
        return Err(format!("--mode must be dynamic or static, got `{}`", args.mode));
    }
    let governed = args.fault_plan.is_some()
        || args.memory_limit.is_some()
        || args.max_rows.is_some()
        || args.max_io.is_some()
        || args.timeout_ms.is_some();
    if governed && !args.run && args.live.is_none() {
        return Err("--fault-plan and resource limits require --run (or --live)".to_string());
    }
    if args.reopt && args.adaptive {
        return Err("--reopt and --adaptive are mutually exclusive".to_string());
    }
    if args.reopt_budget.is_some() && !args.reopt {
        return Err("--reopt-budget requires --reopt".to_string());
    }
    if args.explain_analyze && args.serve.is_some() {
        return Err("--explain-analyze requires --sql".to_string());
    }
    if args.json && !args.explain_analyze {
        return Err("--json requires --explain-analyze".to_string());
    }
    let workload_mode = args.serve.is_some() || args.live.is_some() || args.shards.is_some();
    if args.metrics_json.is_some() && !workload_mode {
        return Err("--metrics-json requires --serve, --live, or --shards".to_string());
    }
    if args.metrics_prom.is_some() && !workload_mode {
        return Err("--metrics-prom requires --serve, --live, or --shards".to_string());
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
        if args.adaptive {
            return Err(
                "--shards supports --run/--reopt/--explain-analyze, not --adaptive".to_string()
            );
        }
        if args.routing != "hash" && args.routing != "range" {
            return Err(format!("--routing must be hash or range, got `{}`", args.routing));
        }
    } else {
        let net_flags = args.net_latency_us > 0
            || args.net_bandwidth > 0
            || args.net_jitter_us > 0
            || args.link_fault.is_some()
            || args.force_uniform;
        if net_flags {
            return Err(
                "--net-*/--link-fault/--force-uniform require --shards".to_string()
            );
        }
    }
    if args.explain_json_path.is_some() && args.live.is_none() {
        return Err("--explain-json requires --live".to_string());
    }
    if args.live.is_some() && (args.explain_analyze || args.adaptive || args.reopt) {
        return Err("--live has its own execution mode; drop --explain-analyze/--adaptive/--reopt"
            .to_string());
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
        return serve(args);
    }
    if args.live.is_some() {
        return run_live(args);
    }
    if args.shards.is_some() {
        return run_sharded(args);
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
            result.stats.contained_plans,
        );
        print!("{}", render_plan(&result.plan));
    }

    if let Some(path) = &args.dot {
        std::fs::write(path, to_dot(&result.plan))?;
        eprintln!("wrote {path}");
    }

    // Bindings.
    let mut bindings = Bindings::new();
    for (name, v) in &args.binds {
        let var = query
            .host_var(name)
            .ok_or_else(|| DqepError::Usage(format!("unknown host variable :{name}")))?;
        bindings = bindings.with_value(var, *v);
    }
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


/// One line of a `--live` workload file.
#[derive(Debug, Clone, PartialEq)]
enum LiveCmd {
    /// `view NAME = SQL [@ name=value,...]`
    View {
        name: String,
        sql: String,
        binds: Vec<(String, i64)>,
    },
    /// `insert REL v1 v2 ...` / `delete REL v1 v2 ...`
    Write {
        delete: bool,
        relation: String,
        values: Vec<i64>,
    },
    /// `commit` — apply the pending write batch to storage and views.
    Commit,
    /// `read NAME` — print the view's current cardinality.
    Read { name: String },
}

/// Parses a `--live` workload file: `view`/`insert`/`delete`/`commit`/
/// `read` lines, `#` comments and blanks skipped.
fn parse_live(text: &str) -> Result<Vec<LiveCmd>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: String| format!("line {}: {m}", idx + 1);
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match word {
            "view" => {
                let (name, stmt) = rest
                    .split_once('=')
                    .ok_or_else(|| err("view expects `view NAME = SQL`".into()))?;
                let (sql, bind_text) = match stmt.rsplit_once('@') {
                    Some((sql, b)) => (sql.trim(), b.trim()),
                    None => (stmt.trim(), ""),
                };
                let mut binds = Vec::new();
                for pair in bind_text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                    let (n, v) = pair
                        .split_once('=')
                        .ok_or_else(|| err(format!("binding `{pair}` is not NAME=VALUE")))?;
                    binds.push((
                        n.trim().to_string(),
                        v.trim().parse().map_err(|e| err(format!("{n}: {e}")))?,
                    ));
                }
                out.push(LiveCmd::View {
                    name: name.trim().to_string(),
                    sql: sql.to_string(),
                    binds,
                });
            }
            "insert" | "delete" => {
                let mut parts = rest.split_whitespace();
                let relation = parts
                    .next()
                    .ok_or_else(|| err(format!("{word} expects `{word} REL v1 v2 ...`")))?
                    .to_string();
                let values: Vec<i64> = parts
                    .map(|v| v.parse().map_err(|e| err(format!("{v}: {e}"))))
                    .collect::<Result<_, _>>()?;
                if values.is_empty() {
                    return Err(err(format!("{word} {relation}: no values")));
                }
                out.push(LiveCmd::Write {
                    delete: word == "delete",
                    relation,
                    values,
                });
            }
            "commit" => out.push(LiveCmd::Commit),
            "read" => {
                if rest.is_empty() {
                    return Err(err("read expects a view name".into()));
                }
                out.push(LiveCmd::Read { name: rest.to_string() });
            }
            other => return Err(err(format!("unknown live command `{other}`"))),
        }
    }
    Ok(out)
}

/// Runs a `--live` workload: registers views against an owned mutable
/// database, applies interleaved write batches through the storage write
/// path, keeps every view incrementally consistent, and reports drift
/// re-arbitrations.
fn run_live(args: &Args) -> Result<(), DqepError> {
    let path = args.live.as_ref().expect("checked by run()");
    let text = std::fs::read_to_string(path)?;
    let cmds = parse_live(&text).map_err(DqepError::Usage)?;
    if cmds.is_empty() {
        return Err(DqepError::Usage(format!("{path}: no commands")));
    }

    let buckets = args.histograms.unwrap_or(16);
    let (catalog, db) = args.database(true, Some(buckets))?;
    let db = db.expect("asked for");
    let env = args.env(&catalog.config);
    let metrics = std::sync::Arc::new(MetricsRegistry::new());
    let config = LiveConfig {
        limits: args.limits(),
        dop: args.dop,
        histogram_buckets: buckets,
    };
    let mut registry =
        LiveViewRegistry::new(catalog, db, env, config, std::sync::Arc::clone(&metrics));
    if let Some(spec) = &args.fault_plan {
        let plan =
            FaultPlan::parse(spec).map_err(|e| DqepError::Usage(format!("--fault-plan: {e}")))?;
        registry.database_mut().disk.set_fault_plan(plan);
        eprintln!("fault plan armed: {spec}");
    }

    let mut pending: Vec<WriteOp> = Vec::new();
    let flush = |registry: &mut LiveViewRegistry,
                     pending: &mut Vec<WriteOp>|
     -> Result<(), DqepError> {
        if pending.is_empty() {
            return Ok(());
        }
        let outcome = registry.commit(pending)?;
        println!(
            "-- commit: {}/{} op(s) applied, {} delta row(s) propagated, \
             {} re-arbitration(s), {} plan switch(es), {} fallback(s){}",
            outcome.applied,
            outcome.attempted,
            outcome.rows_propagated,
            outcome.rearbitrations,
            outcome.plan_switches,
            outcome.fallbacks,
            match &outcome.storage_error {
                Some(e) => format!(" — batch cut short by storage fault: {e}"),
                None => String::new(),
            },
        );
        pending.clear();
        Ok(())
    };

    // The workload runs under the live sampler; the metrics snapshot is
    // written afterwards whatever the outcome, so a failing commit still
    // leaves a usable post-mortem export.
    let snapshot = || metrics.report();
    let result = with_sampler(args, &snapshot, || -> Result<(), DqepError> {
        for cmd in &cmds {
            match cmd {
                LiveCmd::View { name, sql, binds } => {
                    // Writes before a registration must be visible to it.
                    flush(&mut registry, &mut pending)?;
                    let binds: Vec<(&str, i64)> =
                        binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    registry.register(name, sql, &binds)?;
                    let rows = registry.snapshot(name).map(|r| r.len()).unwrap_or(0);
                    println!("-- view {name}: registered, {rows} row(s) materialized");
                }
                LiveCmd::Write { delete, relation, values } => {
                    let rel = registry
                        .catalog()
                        .relation_by_name(relation)
                        .map_err(|e| DqepError::Usage(e.to_string()))?
                        .id;
                    pending.push(if *delete {
                        WriteOp::Delete { relation: rel, values: values.clone() }
                    } else {
                        WriteOp::Insert { relation: rel, values: values.clone() }
                    });
                }
                LiveCmd::Commit => flush(&mut registry, &mut pending)?,
                LiveCmd::Read { name } => match registry.snapshot(name) {
                    Some(rows) => println!("-- read {name}: {} row(s)", rows.len()),
                    None => return Err(DqepError::Usage(format!("unknown view `{name}`"))),
                },
            }
        }
        // A trailing uncommitted batch is committed, not dropped.
        flush(&mut registry, &mut pending)?;

        let views = registry.views();
        println!(
            "\n-- {} view(s), {} delta batch(es), {} row(s) propagated, {} re-arbitration(s)",
            metrics.get(Metric::LiveViewsRegistered),
            metrics.get(Metric::LiveDeltaBatches),
            metrics.get(Metric::LiveRowsPropagated),
            metrics.get(Metric::LiveRearbitrations),
        );
        for v in &views {
            println!(
                "--   {}: {} row(s), decisions {:?}, {} re-arbitration(s), {} fallback(s)",
                v.name, v.rows, v.decisions, v.rearbitrations, v.fallbacks
            );
        }

        if let Some(dest) = args.explain_json_path.as_deref() {
            let last = views
                .last()
                .ok_or_else(|| DqepError::Usage("no view registered for --explain-json".into()))?;
            let doc = registry
                .explain_json(&last.name)
                .expect("registered views have a materialization trace");
            match dest {
                "-" => println!("{doc}"),
                path => {
                    std::fs::write(path, doc)?;
                    eprintln!("wrote EXPLAIN ANALYZE JSON of view `{}` to {path}", last.name);
                }
            }
        }
        Ok(())
    });
    write_metric_outputs(args, &metrics.report())?;
    result
}

/// Parses a workload file: one statement per line, optional
/// `@ name=value,...` binding suffix (`memory=PAGES` sets the grant),
/// `#` comments and blank lines skipped.
fn parse_workload(text: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (sql, binds) = match line.rsplit_once('@') {
            Some((s, b)) => (s.trim(), b.trim()),
            None => (line, ""),
        };
        let mut req = Request::new(sql, &[]);
        for pair in binds.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("line {}: binding `{pair}` is not NAME=VALUE", idx + 1))?;
            let (name, v) = (name.trim(), v.trim());
            if name == "memory" {
                req.memory_pages =
                    Some(v.parse().map_err(|e| format!("line {}: memory: {e}", idx + 1))?);
            } else {
                req.binds.push((
                    name.to_string(),
                    v.parse().map_err(|e| format!("line {}: {name}: {e}", idx + 1))?,
                ));
            }
        }
        out.push(req);
    }
    Ok(out)
}

/// Runs a workload file through the prepared-query service and prints
/// per-session results plus the service's cache and throughput summary.
/// `--shards N`: execute the query across N partitioned replicas with
/// repartitioning network exchange and per-shard dynamic-plan
/// arbitration, then report winners, divergence, and wire traffic.
fn run_sharded(args: &Args) -> Result<(), DqepError> {
    let (catalog, _) = args.database(false, None)?;
    let link_faults = match &args.link_fault {
        Some(spec) => dqep_executor::LinkFaultPlan::parse(spec)
            .map_err(|e| DqepError::Usage(format!("--link-fault: {e}")))?,
        None => dqep_executor::LinkFaultPlan::none(),
    };
    let config = dqep_service::ShardConfig {
        shards: args.shards.unwrap_or(1),
        net: dqep_executor::NetConfig {
            latency_micros: args.net_latency_us,
            bytes_per_second: args.net_bandwidth,
            jitter_micros: args.net_jitter_us,
            seed: args.seed,
        },
        link_faults,
        routing: if args.routing == "range" {
            dqep_service::ShardRouting::Range { attr: 0 }
        } else {
            dqep_service::ShardRouting::Hash { attr: 0 }
        },
        histogram_buckets: args.histograms.unwrap_or(16),
        dop: args.dop,
        limits: args.limits(),
        io_latency_micros: args.io_latency_us,
        data_seed: args.seed,
        skew: args.skew,
        memory_pages: args.memory,
        reopt: args.reopt.then(|| args.reopt()),
        force_uniform_winner: args.force_uniform,
        trace: args.explain_analyze,
    };
    let shards = config.shards;
    let system = catalog.config;
    // With --json, stdout carries only the JSON document.
    let narrate = !args.json;
    if narrate {
        println!(
            "-- sharded execution: {shards} shard(s), {} routing{}",
            args.routing,
            if args.force_uniform { ", forced uniform winner" } else { "" },
        );
    }

    let service = dqep_service::ShardedService::new(catalog, config);
    let binds: Vec<(&str, i64)> = args.binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let started = std::time::Instant::now();
    let snapshot = || service.metrics();
    let result = with_sampler(args, &snapshot, || service.execute(&args.sql, &binds));
    let wall = started.elapsed();

    let out = match result {
        Ok(out) => out,
        Err(e) => {
            // The metrics snapshot reflects the query whatever its outcome.
            write_metric_outputs(args, &service.metrics())?;
            return Err(DqepError::Service(e));
        }
    };
    if narrate {
        println!(
            "-- {} row(s) in {:.3}s wall; per-shard rows: {:?}",
            out.rows.len(),
            wall.as_secs_f64(),
            out.per_shard_rows,
        );
        for (s, audits) in out.audits.iter().enumerate() {
            let winners: Vec<String> = audits
                .iter()
                .map(|a| match a.winner {
                    Some(w) => format!("node {} -> alt {w}", a.node),
                    None => format!("node {} -> unresolved", a.node),
                })
                .collect();
            println!("-- shard {s}: {}", if winners.is_empty() {
                "no arbitration (resolved plan)".to_string()
            } else {
                winners.join(", ")
            });
        }
        if out.divergent_nodes.is_empty() {
            println!("-- winners agree on every choose node");
        } else {
            println!(
                "-- divergent winners on choose node(s) {:?} (local statistics disagree)",
                out.divergent_nodes
            );
        }
        println!(
            "-- network: {} frame(s), {} byte(s), {} retransmit(s), {} credit stall(s); \
             {} fallback(s)",
            out.net.frames, out.net.bytes, out.net.retransmits, out.net.credit_stalls,
            out.fallbacks,
        );
        // Per-link deltas for this query: each entry is one directed
        // channel's traffic, so the wire totals above decompose exactly.
        for l in &out.links {
            println!(
                "-- link {}->{}: {} frame(s), {} byte(s), {} retransmit(s), \
                 {} credit stall(s) ({:.3}ms waiting)",
                l.from,
                l.to,
                l.stats.frames,
                l.stats.bytes,
                l.stats.retransmits,
                l.stats.credit_stalls,
                l.stats.credit_wait_ns as f64 / 1e6,
            );
        }
    }
    if let Some(report) = &out.trace {
        print_explain(args, report, &system);
    }
    write_metric_outputs(args, &service.metrics())
}

fn serve(args: &Args) -> Result<(), DqepError> {
    let path = args.serve.as_ref().expect("checked by run()");
    let text = std::fs::read_to_string(path)?;
    let workload = parse_workload(&text).map_err(DqepError::Usage)?;
    if workload.is_empty() {
        return Err(DqepError::Usage(format!("{path}: no statements")));
    }

    // Histograms are harvested from a throwaway replica; the service
    // regenerates identical data from the same seed.
    let (catalog, _) = args.database(false, args.histograms)?;

    let config = ServiceConfig {
        workers: args.workers.max(1),
        global_memory_bytes: args.service_memory,
        queue_timeout_ms: args.queue_timeout_ms,
        session_limits: args.limits(),
        data_seed: args.seed,
        skew: args.skew,
        io_latency_micros: args.io_latency_us,
        dop: args.dop,
        reopt: args.reopt.then(|| args.reopt()),
        ..ServiceConfig::default()
    };
    let service = QueryService::new(catalog, config);
    let system = service.catalog().config;
    let config = &system;

    let sessions: Vec<Request> = std::iter::repeat_with(|| workload.clone())
        .take(args.repeat.max(1))
        .flatten()
        .collect();
    let total = sessions.len();
    println!(
        "-- serving {total} session(s) ({} statement(s) x {} repeat(s)) on {} worker(s)",
        workload.len(),
        args.repeat.max(1),
        service.workers()
    );
    let started = std::time::Instant::now();
    let snapshot = || service.metrics();
    let results = with_sampler(args, &snapshot, || service.run_batch(sessions));
    let wall = started.elapsed();

    let mut failed = 0usize;
    let mut first_error: Option<DqepError> = None;
    let mut totals = ExecSummary::default();
    for (i, result) in results.iter().enumerate() {
        match result {
            // Same ExecSummary::describe renderer as the --run path.
            Ok(s) => {
                println!(
                    "[{i:>4}] {}, worker {}",
                    s.summary.describe(config),
                    s.worker
                );
                totals.accumulate(&s.summary);
            }
            Err(e) => {
                failed += 1;
                if first_error.is_none() {
                    first_error = Some(e.clone().into());
                }
                println!("[{i:>4}] FAILED: {e}");
            }
        }
    }

    let stats = service.stats();
    println!(
        "\n-- {} ok, {failed} failed in {:.3}s wall ({:.1} sessions/s)",
        stats.completed,
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!(
        "-- plan cache: statement {:.1}% hit ({} hit / {} miss, {} evicted), \
         decision {:.1}% hit ({} hit / {} miss)",
        stats.registry.hit_rate() * 100.0,
        stats.registry.hits,
        stats.registry.misses,
        stats.registry.evictions,
        stats.decision_hit_rate() * 100.0,
        stats.decision_hits,
        stats.decision_misses,
    );
    println!(
        "-- feedback: {} invalidation(s), {} cached-plan retr{}, totals: {} rows, {:.4}s simulated",
        stats.feedback_invalidations,
        stats.cached_plan_retries,
        if stats.cached_plan_retries == 1 { "y" } else { "ies" },
        totals.rows,
        totals.simulated_seconds(config),
    );

    // Shutdown metrics snapshot: latency/queue-wait histograms, refusal
    // counters, cache rates. Printed by default; the flags redirect it.
    if args.metrics_json.is_none() && args.metrics_prom.is_none() {
        println!(
            "\n-- metrics (shutdown snapshot):\n{}",
            service.metrics().to_json()
        );
    } else {
        write_metric_outputs(args, &service.metrics())?;
    }

    match first_error {
        // Partial failure is reported per session but the service ran:
        // only a fully failed workload fails the process.
        Some(e) if failed == total => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
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
    fn parses_shard_flags() {
        let a = parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "4", "--routing", "range",
            "--force-uniform", "--net-latency-us", "20", "--net-bandwidth",
            "1000000", "--net-jitter-us", "5", "--link-fault",
            "nth-frame=3,max-retransmit=2", "--metrics-json", "m.json",
        ]))
        .unwrap();
        assert_eq!(a.shards, Some(4));
        assert_eq!(a.routing, "range");
        assert!(a.force_uniform);
        assert_eq!(a.net_latency_us, 20);
        assert_eq!(a.net_bandwidth, 1_000_000);
        assert_eq!(a.net_jitter_us, 5);
        assert_eq!(a.link_fault.as_deref(), Some("nth-frame=3,max-retransmit=2"));
        assert_eq!(a.metrics_json.as_deref(), Some("m.json"));
    }

    #[test]
    fn shards_require_sql_and_run() {
        assert!(parse_argv(&argv(&["--sql", "q", "--shards", "2"]))
            .unwrap_err()
            .contains("--run"));
        assert!(parse_argv(&argv(&["--serve", "w.sql", "--shards", "2"]))
            .unwrap_err()
            .contains("mutually exclusive")
            || parse_argv(&argv(&["--serve", "w.sql", "--shards", "2"]))
                .unwrap_err()
                .contains("--sql"));
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--shards", "0"]))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn net_flags_require_shards() {
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--net-latency-us", "9"]))
            .unwrap_err()
            .contains("--shards"));
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--force-uniform"]))
            .unwrap_err()
            .contains("--shards"));
        assert!(parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "2", "--routing", "zigzag"
        ]))
        .unwrap_err()
        .contains("--routing"));
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
    fn shards_allow_explain_analyze_but_not_adaptive() {
        let a =
            parse_argv(&argv(&["--sql", "q", "--shards", "2", "--explain-analyze", "--json"]))
                .unwrap();
        assert_eq!(a.shards, Some(2));
        assert!(a.explain_analyze && a.run && a.json);
        assert!(parse_argv(&argv(&["--sql", "q", "--run", "--shards", "2", "--adaptive"]))
            .unwrap_err()
            .contains("--adaptive"));
    }

    #[test]
    fn shard_mode_allows_metrics_json_and_reopt() {
        let a = parse_argv(&argv(&[
            "--sql", "q", "--run", "--shards", "2", "--metrics-json", "-", "--reopt",
        ]))
        .unwrap();
        assert_eq!(a.shards, Some(2));
        assert!(a.reopt);
    }

    #[test]
    fn reopt_works_with_explain_analyze_and_serve() {
        let a = parse_argv(&argv(&["--sql", "q", "--reopt", "--explain-analyze"])).unwrap();
        assert!(a.reopt && a.explain_analyze);
        let a = parse_argv(&argv(&["--serve", "w.sql", "--reopt"])).unwrap();
        assert!(a.reopt && a.serve.is_some());
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
    fn parses_live_flags() {
        let a = parse_argv(&argv(&[
            "--live", "w.live", "--relations", "2", "--fault-plan", "nth-write=3",
            "--metrics-json", "m.json", "--explain-json", "e.json",
        ]))
        .unwrap();
        assert_eq!(a.live.as_deref(), Some("w.live"));
        assert_eq!(a.explain_json_path.as_deref(), Some("e.json"));
        assert_eq!(a.metrics_json.as_deref(), Some("m.json"));
        // Mode exclusivity and flag dependencies.
        assert!(parse_argv(&argv(&["--sql", "q", "--live", "w"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse_argv(&argv(&["--serve", "s", "--live", "w"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse_argv(&argv(&["--sql", "q", "--explain-json", "e"]))
            .unwrap_err()
            .contains("--live"));
        assert!(parse_argv(&argv(&["--live", "w", "--reopt"]))
            .unwrap_err()
            .contains("--live"));
    }

    #[test]
    fn parses_live_workload_files() {
        let cmds = parse_live(
            "# demo\n             view hot = SELECT * FROM R1 WHERE R1.a < :v @ v=50\n             insert R1 1 2 3\n             delete R1 1 2 3\n             commit\n             read hot\n",
        )
        .unwrap();
        assert_eq!(cmds.len(), 5);
        assert_eq!(
            cmds[0],
            LiveCmd::View {
                name: "hot".into(),
                sql: "SELECT * FROM R1 WHERE R1.a < :v".into(),
                binds: vec![("v".into(), 50)],
            }
        );
        assert_eq!(
            cmds[1],
            LiveCmd::Write { delete: false, relation: "R1".into(), values: vec![1, 2, 3] }
        );
        assert_eq!(
            cmds[2],
            LiveCmd::Write { delete: true, relation: "R1".into(), values: vec![1, 2, 3] }
        );
        assert_eq!(cmds[3], LiveCmd::Commit);
        assert_eq!(cmds[4], LiveCmd::Read { name: "hot".into() });
        assert!(parse_live("view broken").unwrap_err().contains("NAME = SQL"));
        assert!(parse_live("insert R1").unwrap_err().contains("no values"));
        assert!(parse_live("frobnicate").unwrap_err().contains("unknown live command"));
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
