//! The traced pass: one extra round in which the benchmark owns catalog
//! and database and replays the request list single-threaded through the
//! public functions, in the order `Worker::session` calls them, with a
//! span around every call.
//!
//! Spans are recorded here, in the benchmark's own files; the program has
//! none of its own on this path. Operator times come from the program's
//! existing public tracer (`ExecContext::with_tracer`, and
//! `ShardConfig { trace: true }` for the sharded service) and are grafted
//! under the span of the call that ran them. The timed rounds run with
//! all of this off; `trace.overhead_ratio` says what it costs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqep::catalog::Catalog;
use dqep::cost::Environment;
use dqep::executor::{
    compile_plan, decode_frame, encode_frame, execute_plan_dop, monotonic_ns, scatter_by_shard,
    CpuCounters, ExecContext, ExecMode, NetConfig, ResourceLimits, RowBatch, SharedCounters,
    SimNet, TraceReport, Tracer, BATCH_CAPACITY,
};
use dqep::optimizer::{Optimizer, OptimizerStats};
use dqep::plan::{evaluate_startup, evaluate_startup_observed, AccessModule};
use dqep::service::{
    normalize_sql, region_key, CachedDecision, MemoryPool, PreparedRegistry, PreparedStatement,
    ShardConfig, ShardedService,
};
use dqep::sql::parse_query;
use dqep::storage::{install_histograms, IoStats, StoredDatabase};

use crate::json::Record;
use crate::oracle;
use crate::segment::{query_config, shard_config};
use crate::stats::{self, Interval};
use crate::sys;
use crate::workloads::{bind_refs, Plan, Request, Workload};

/// One recorded span. `request` is the list position; spans of one
/// request share it.
struct Span {
    request: u32,
    parent: Option<usize>,
    name: &'static str,
    start: u64,
    end: u64,
}

/// In-memory span store on the process-wide monotonic clock the program's
/// own tracer uses, so grafted spans share its epoch.
struct Recorder {
    /// Off for the untraced replay: no span is kept and no clock is read.
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, request: u32, parent: Option<usize>, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            request,
            parent,
            name,
            start: monotonic_ns(),
            end: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = monotonic_ns();
        }
    }

    fn timed<T>(
        &mut self,
        request: u32,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    fn graft(
        &mut self,
        request: u32,
        parent: usize,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            request,
            parent: Some(parent),
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Grafts the program's own trace of one execution under `parent`.
    /// The tracer records durations (time inside `open` plus time inside
    /// `next`, children included) but not when they happened, so children
    /// are laid out back to back from their parent's start — which keeps
    /// "span minus children" exact. Spans without a duration of their own
    /// (coordinator, shard, network) take their children's: the longest
    /// for the coordinator, whose shards run in parallel, else the sum.
    fn graft_trace(&mut self, request: u32, parent: usize, report: &TraceReport, start: u64) {
        let n = report.spans.len();
        let mut duration: Vec<u64> = report
            .spans
            .iter()
            .map(|s| s.stats.open_wall_ns + s.stats.next_wall_ns)
            .collect();
        let mut from_children = vec![0u64; n];
        for (i, span) in report.spans.iter().enumerate().rev() {
            if duration[i] == 0 {
                duration[i] = from_children[i];
            }
            if let Some(p) = span.parent {
                from_children[p.0] = if report.spans[p.0].kind == "Coordinator" {
                    from_children[p.0].max(duration[i])
                } else {
                    from_children[p.0] + duration[i]
                };
            }
        }
        // (index in the recorder, where the next child starts)
        let mut placed: Vec<(usize, u64)> = Vec::with_capacity(n);
        let mut top = start;
        for (i, span) in report.spans.iter().enumerate() {
            let (under, begin) = match span.parent {
                None => {
                    let begin = top;
                    top += duration[i];
                    (parent, begin)
                }
                Some(p) => {
                    let (under, cursor) = &mut placed[p.0];
                    let begin = *cursor;
                    if report.spans[p.0].kind != "Coordinator" {
                        *cursor += duration[i];
                    }
                    (*under, begin)
                }
            };
            let id = self.graft(
                request,
                under,
                span_name(span.kind),
                begin,
                begin + duration[i],
            );
            placed.push((id, begin));
        }
    }

    /// Total self time per span name, in nanoseconds.
    fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let intervals: Vec<Interval> = self
            .spans
            .iter()
            .map(|s| Interval {
                parent: s.parent,
                start: s.start,
                end: s.end.max(s.start),
            })
            .collect();
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(stats::self_times(&intervals)) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// Total duration per span name, in nanoseconds.
    fn time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for span in &self.spans {
            *by_name.entry(span.name).or_insert(0) += span.end.saturating_sub(span.start);
        }
        by_name
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"request\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.request, s.name, s.start, s.end
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// The span name of a tracer span kind.
fn span_name(kind: &str) -> &'static str {
    match kind {
        "File-Scan" => "executor.op.file_scan",
        "B-tree-Scan" => "executor.op.btree_scan",
        "Filter" => "executor.op.filter",
        "Filter-B-tree-Scan" => "executor.op.filter_btree_scan",
        "Hash-Join" => "executor.op.hash_join",
        "Merge-Join" => "executor.op.merge_join",
        "Index-Join" => "executor.op.index_join",
        "Sort" => "executor.op.sort",
        "Choose-Plan" => "executor.op.choose_plan",
        "Coordinator" => "service.shard.coordinator",
        "Shard" => "service.shard.worker",
        "Net-Send" => "executor.net.send",
        "Net-Recv" => "executor.net.recv",
        _ => "executor.op.other",
    }
}

/// Counts the replay accumulates over the timed pass.
#[derive(Default)]
struct Totals {
    rows: u64,
    batches: u64,
    cpu: CpuCounters,
    io: IoStats,
    pages_allocated: u64,
    open_ns: u64,
    drain_ns: u64,
}

/// What the replay hands to the parent process.
struct Pass {
    recorder: Recorder,
    totals: Totals,
    /// Per list position.
    latency_ns: Vec<f64>,
    rows: Vec<f64>,
    /// Result checksums (sharded pass only: the query service returns counts).
    sums: Vec<f64>,
    sim_s: Vec<f64>,
    /// Metrics only this workload's path can fill.
    extra: Vec<(&'static str, f64)>,
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced replay of a `QueryService` workload: the same calls as the
/// traced pass with no span kept and the program's tracer off, in a process
/// of its own so that both passes start from the same heap. Its latencies
/// are what tracing overhead and the service's own cost are measured from.
pub fn run_bare(
    workload: Workload,
    seed: u64,
    round: usize,
    quick: bool,
) -> Result<Record, String> {
    sys::pin_to_one_cpu();
    let plan = Plan::new(workload, seed, quick);
    let pass = replay_query(&plan, round, false)?;
    let mut record = Record::default();
    record.arrays.insert("bare_ns".into(), pass.latency_ns);
    Ok(record)
}

/// Runs the traced pass, writes the trace file into `out_dir`, and returns
/// the per-layer numbers it can compute alone plus, per list position, the
/// replayed latency, row count and simulated cost for the parent to hold
/// against the untraced rounds.
pub fn run(
    workload: Workload,
    seed: u64,
    round: usize,
    quick: bool,
    out_dir: &std::path::Path,
) -> Result<Record, String> {
    // On one CPU, like the segments the replay is held against.
    sys::pin_to_one_cpu();
    let plan = Plan::new(workload, seed, quick);
    let expected = oracle::expected(&plan);

    let started = Instant::now();
    let db = StoredDatabase::generate(&plan.catalog, plan.data_seed);
    let generate_ms = millis(started.elapsed());
    let mut with_histograms = plan.catalog.clone();
    let started = Instant::now();
    install_histograms(
        &db,
        &mut with_histograms,
        ShardConfig::default().histogram_buckets,
    )
    .map_err(|e| format!("histograms: {e}"))?;
    let histograms_ms = millis(started.elapsed());

    let pass = if workload.sharded() {
        replay_sharded(&plan, round, &db, &with_histograms)?
    } else {
        let mut traced = replay_query(&plan, round, true)?;
        let env = Environment::dynamic_compile_time(&plan.catalog.config);
        traced.extra.extend(plan_quality(&plan, &env)?);
        traced
    };
    for (position, &rows) in pass.rows.iter().enumerate() {
        let want = expected[plan.list[position]];
        if rows != want.rows as f64
            || pass
                .sums
                .get(position)
                .is_some_and(|&s| s != want.checksum as f64)
        {
            return Err(format!(
                "replay of request {position} disagrees with the oracle ({rows} rows, expected {})",
                want.rows
            ));
        }
    }

    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    pass.recorder
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let n = plan.list.len() as f64;
    let total = pass.recorder.time_by_name();
    let own = pass.recorder.self_time_by_name();
    let per_query = |map: &BTreeMap<&'static str, u64>, name: &str, unit_ns: f64| {
        map.get(name).copied().unwrap_or(0) as f64 / unit_ns / n
    };
    let mut record = Record::default();
    record.set("sql.normalize_us", per_query(&total, "sql.normalize", 1e3));
    record.set("sql.parse_us", per_query(&total, "sql.parse", 1e3));
    record.set("core.optimize_ms", per_query(&total, "core.optimize", 1e6));
    record.set("plan.startup_us", per_query(&total, "plan.startup", 1e3));
    record.set(
        "service.region_key_us",
        per_query(&total, "service.region_key", 1e3),
    );
    record.set(
        "service.shard.execute_ms",
        per_query(&total, "service.shard.execute", 1e6),
    );
    record.set(
        "executor.compile_us",
        per_query(&total, "executor.compile", 1e3),
    );
    record.set(
        "executor.close_us",
        per_query(&total, "executor.close", 1e3),
    );
    record.set("executor.open_ms", pass.totals.open_ns as f64 / 1e6 / n);
    record.set("executor.drain_ms", pass.totals.drain_ns as f64 / 1e6 / n);
    for kind in [
        "file_scan",
        "btree_scan",
        "filter",
        "filter_btree_scan",
        "hash_join",
        "merge_join",
        "index_join",
        "sort",
        "choose_plan",
    ] {
        let span = format!("executor.op.{kind}");
        record.set(&format!("{span}_ms"), per_query(&own, &span, 1e6));
    }
    record.set("executor.rows_per_query", pass.totals.rows as f64 / n);
    record.set("executor.batches_per_query", pass.totals.batches as f64 / n);
    record.set("executor.cpu.records", pass.totals.cpu.records as f64 / n);
    record.set("executor.cpu.compares", pass.totals.cpu.compares as f64 / n);
    record.set("executor.cpu.hashes", pass.totals.cpu.hashes as f64 / n);
    let io = pass.totals.io;
    record.set(
        "storage.pages_read_per_query",
        (io.seq_reads + io.random_reads) as f64 / n,
    );
    record.set("storage.pages_written_per_query", io.writes as f64 / n);
    record.set(
        "storage.pages_allocated_per_query",
        pass.totals.pages_allocated as f64 / n,
    );
    record.set("storage.generate_ms", generate_ms);
    record.set("storage.histograms_ms", histograms_ms);
    let request_ns = total.get("request").copied().unwrap_or(0) as f64;
    let unattributed = own.get("request").copied().unwrap_or(0) as f64;
    record.set(
        "trace.self_time_coverage",
        if request_ns > 0.0 {
            1.0 - unattributed / request_ns
        } else {
            0.0
        },
    );
    for (name, value) in pass.extra {
        record.set(name, value);
    }
    // Self time under each layer's spans, per request: what the parent
    // turns into shares of the request.
    for layer in ["sql", "core", "plan", "service", "executor"] {
        let ns: u64 = own
            .iter()
            .filter(|(k, _)| k.starts_with(layer))
            .map(|(_, v)| *v)
            .sum();
        record.set(&format!("self_ns.{layer}"), ns as f64 / n);
    }
    record.set("self_ns.unattributed", unattributed / n);
    record.arrays.insert("replay_ns".into(), pass.latency_ns);
    record.arrays.insert("sim_s".into(), pass.sim_s);
    Ok(record)
}

/// Everything `Worker::session` holds for its lifetime.
struct Session<'a> {
    catalog: &'a Catalog,
    db: &'a StoredDatabase,
    env: Environment,
    config: dqep::service::ServiceConfig,
    registry: PreparedRegistry,
    pool: Arc<MemoryPool>,
    optimized: Vec<OptimizerStats>,
    startups: u64,
    startup_nodes: u64,
}

impl Session<'_> {
    /// One request, call for call what `Worker::session` does on its
    /// default (non-reoptimizing) path. Returns `(rows, simulated s,
    /// latency ns)`. With the recorder off no span is kept and the
    /// program's tracer stays off too: that is the untraced replay.
    fn serve(
        &mut self,
        rec: &mut Recorder,
        id: u32,
        request: &Request,
        totals: &mut Totals,
    ) -> Result<(u64, f64, u64), String> {
        let catalog = self.catalog;
        let started = monotonic_ns();
        let root = rec.open(id, None, "request");
        let normalized = rec.timed(id, root, "sql.normalize", || normalize_sql(&request.sql));
        let found = rec.timed(id, root, "service.registry_get", || {
            self.registry.get(&normalized)
        });
        let stmt = match found {
            Some(stmt) => stmt,
            None => {
                let query = rec
                    .timed(id, root, "sql.parse", || parse_query(&normalized, catalog))
                    .map_err(|e| e.to_string())?;
                let props = query.required_props();
                let optimized = rec
                    .timed(id, root, "core.optimize", || {
                        Optimizer::new(catalog, &self.env).optimize_with_props(&query.expr, props)
                    })
                    .map_err(|e| e.to_string())?;
                self.optimized.push(optimized.stats);
                rec.timed(id, root, "service.registry_insert", || {
                    let stmt = Arc::new(PreparedStatement::new(
                        normalized.clone(),
                        query,
                        optimized.plan,
                    ));
                    self.registry.insert(normalized.clone(), stmt)
                })
            }
        };
        let binds = bind_refs(&request.binds);
        let bindings = rec.timed(id, root, "sql.bind", || stmt.query.bindings(&binds))?;
        let memory_pages = bindings
            .memory_pages
            .unwrap_or_else(|| self.env.memory.expected());
        let memory_bytes = (memory_pages * f64::from(catalog.config.page_size)) as u64;
        let deadline = Instant::now() + Duration::from_millis(self.config.queue_timeout_ms);
        let grant = rec
            .timed(id, root, "service.admission", || {
                self.pool.acquire_retry(
                    memory_bytes,
                    deadline,
                    Duration::from_millis(self.config.queue_timeout_ms / 10),
                )
            })
            .map_err(|e| e.to_string())?;
        let key = rec.timed(id, root, "service.region_key", || {
            region_key(
                &stmt.query,
                catalog,
                &bindings,
                self.config.decision_buckets,
                memory_pages,
            )
        });
        let cached = rec.timed(id, root, "service.decision_get", || stmt.decision(&key));
        let decision = match cached {
            Some(decision) => decision,
            None => {
                let startup = rec.timed(id, root, "plan.startup", || {
                    evaluate_startup_observed(
                        &stmt.plan,
                        catalog,
                        &self.env,
                        &bindings,
                        &stmt.observations(),
                    )
                });
                self.startups += 1;
                self.startup_nodes += startup.evaluated_nodes as u64;
                let fresh = CachedDecision {
                    resolved: startup.resolved,
                    predicted_seconds: startup.predicted_run_seconds,
                };
                rec.timed(id, root, "service.decision_store", || {
                    stmt.store_decision(key, fresh.clone())
                });
                fresh
            }
        };

        let tracer = rec.enabled.then(|| Arc::new(Tracer::new()));
        let mut ctx = ExecContext::with_limits(SharedCounters::new(), self.config.session_limits)
            .with_mode(self.config.exec_mode)
            .with_dop(1);
        if let Some(tracer) = &tracer {
            ctx = ctx.with_tracer(Arc::clone(tracer));
        }
        let io_before = self.db.disk.stats();
        let pages_before = self.db.disk.page_count();
        let run = rec.open(id, Some(root), "executor.run");
        let mut op = rec
            .timed(id, run, "executor.compile", || {
                compile_plan(
                    &decision.resolved,
                    self.db,
                    catalog,
                    &bindings,
                    memory_bytes as usize,
                    &ctx,
                )
            })
            .map_err(|e| e.to_string())?;
        let pipeline_started = monotonic_ns();
        let (mut rows, mut batches) = (0u64, 0u64);
        op.open().map_err(|e| e.to_string())?;
        while let Some(batch) = op.next_batch(BATCH_CAPACITY).map_err(|e| e.to_string())? {
            ctx.governor
                .charge_rows(batch.len() as u64)
                .map_err(|e| e.to_string())?;
            rows += batch.len() as u64;
            batches += 1;
        }
        rec.timed(id, run, "executor.close", || op.close());
        drop(op);
        rec.close(run);
        let io = self.db.disk.stats().since(&io_before);
        rec.timed(id, root, "service.feedback", || {
            stmt.record_feedback(rows, self.config.feedback_tolerance)
        });
        drop(grant);
        rec.close(root);
        let latency_ns = monotonic_ns() - started;

        // Off the request's clock from here on.
        if let Some(tracer) = tracer {
            let report = tracer.report();
            if let Some(top) = report.spans.first() {
                totals.open_ns += top.stats.open_wall_ns;
                totals.drain_ns += top.stats.next_wall_ns;
            }
            rec.graft_trace(id, run, &report, pipeline_started);
        }
        let cpu = ctx.counters.snapshot();
        totals.rows += rows;
        totals.batches += batches;
        totals.cpu += cpu;
        totals.io += io;
        totals.pages_allocated += (self.db.disk.page_count() - pages_before) as u64;
        Ok((
            rows,
            cpu.seconds(&catalog.config) + io.seconds(&catalog.config),
            latency_ns,
        ))
    }
}

/// What the plans themselves say, off every clock: each class optimized
/// once more, its dynamic plan held against a full optimization with the
/// bindings known, and its access module encoded and decoded.
///
/// `plan.regret_share` is the share of classes whose resolved dynamic plan
/// is predicted to cost more than the run-time-optimized plan; the paper's
/// claim is 0. Access modules are not on the serving path today; their
/// size and codec times are reported so that wiring them in shows as a
/// cost.
fn plan_quality(plan: &Plan, env: &Environment) -> Result<Vec<(&'static str, f64)>, String> {
    let catalog = &plan.catalog;
    let mut regrets = 0usize;
    let (mut bytes, mut encode, mut decode) = (0usize, Duration::ZERO, Duration::ZERO);
    for class in &plan.classes {
        let query = parse_query(&class.sql(None), catalog).map_err(|e| e.to_string())?;
        let binds = class.binds();
        let binds = bind_refs(&binds);
        let bindings = query.bindings(&binds)?;
        let props = query.required_props();
        let dynamic = Optimizer::new(catalog, env)
            .optimize_with_props(&query.expr, props)
            .map_err(|e| e.to_string())?;
        let bound_env = env.bind(&bindings);
        let at_run_time = Optimizer::new(catalog, &bound_env)
            .optimize_with_props(&query.expr, props)
            .map_err(|e| e.to_string())?;
        let ours = evaluate_startup(&dynamic.plan, catalog, env, &bindings).predicted_run_seconds;
        let best = evaluate_startup(&at_run_time.plan, catalog, &bound_env, &bindings)
            .predicted_run_seconds;
        if ours > best * (1.0 + 1e-9) {
            regrets += 1;
        }

        let module = AccessModule::new(dynamic.plan);
        let started = Instant::now();
        let image = module.serialize();
        encode += started.elapsed();
        bytes += image.len();
        let started = Instant::now();
        let back = AccessModule::deserialize(image)
            .map_err(|e| format!("access module does not decode: {e}"))?;
        decode += started.elapsed();
        std::hint::black_box(back);
    }
    let classes = plan.classes.len() as f64;
    Ok(vec![
        ("plan.regret_share", regrets as f64 / classes),
        ("plan.module_bytes", bytes as f64 / classes),
        (
            "plan.module_encode_us",
            encode.as_secs_f64() * 1e6 / classes,
        ),
        (
            "plan.module_decode_us",
            decode.as_secs_f64() * 1e6 / classes,
        ),
    ])
}

/// Replays the list through the query path on a database of its own.
/// `traced` records spans and runs the program's tracer; without it the
/// same calls run bare, which gives the latency tracing is compared with.
fn replay_query(plan: &Plan, round: usize, traced: bool) -> Result<Pass, String> {
    let config = query_config(plan);
    let db = StoredDatabase::generate(&plan.catalog, plan.data_seed);
    let mut session = Session {
        catalog: &plan.catalog,
        db: &db,
        env: Environment::dynamic_compile_time(&plan.catalog.config),
        registry: PreparedRegistry::new(config.registry_capacity),
        pool: MemoryPool::new(config.global_memory_bytes),
        config,
        optimized: Vec::new(),
        startups: 0,
        startup_nodes: 0,
    };
    // The warm-up pass leaves registry, decision caches and temp pages in
    // the state the service's timed pass starts from; its spans are dropped.
    let mut recorder = Recorder::new(traced);
    for position in 0..plan.warmup_len() {
        session.serve(
            &mut recorder,
            0,
            &plan.request(position, round, true),
            &mut Totals::default(),
        )?;
    }
    recorder.spans.clear();
    let (startups_before, nodes_before) = (session.startups, session.startup_nodes);

    let mut pass = Pass {
        recorder,
        totals: Totals::default(),
        latency_ns: Vec::with_capacity(plan.list.len()),
        rows: Vec::with_capacity(plan.list.len()),
        sums: Vec::new(),
        sim_s: Vec::with_capacity(plan.list.len()),
        extra: Vec::new(),
    };
    for position in 0..plan.list.len() {
        let request = plan.request(position, round, false);
        let (rows, sim_s, latency_ns) = session.serve(
            &mut pass.recorder,
            position as u32,
            &request,
            &mut pass.totals,
        )?;
        pass.latency_ns.push(latency_ns as f64);
        pass.rows.push(rows as f64);
        pass.sim_s.push(sim_s);
    }

    // Per statement optimized (warm-up included: that is where prepared
    // statements are compiled), exact for a given seed.
    let statements = session.optimized.len().max(1) as f64;
    let mean = |f: &dyn Fn(&OptimizerStats) -> usize| {
        session.optimized.iter().map(|s| f(s) as f64).sum::<f64>() / statements
    };
    let startups = (session.startups - startups_before).max(1) as f64;
    pass.extra = vec![
        ("core.groups", mean(&|s| s.groups)),
        ("core.physical_considered", mean(&|s| s.physical_considered)),
        ("core.pruned_by_bound", mean(&|s| s.pruned_by_bound)),
        ("core.plan_nodes", mean(&|s| s.plan_nodes)),
        ("core.choose_plans", mean(&|s| s.choose_plans)),
        (
            "plan.startup_nodes",
            (session.startup_nodes - nodes_before) as f64 / startups,
        ),
    ];
    Ok(pass)
}

/// The traced pass of the sharded workload: the service itself runs with
/// its distributed tracer on, and the benchmark adds what only it can —
/// the single-node time of the same query, and the wire kernels timed on
/// the query's own result batches.
fn replay_sharded(
    plan: &Plan,
    round: usize,
    db: &StoredDatabase,
    single_catalog: &Catalog,
) -> Result<Pass, String> {
    let service = ShardedService::new(
        plan.catalog.clone(),
        ShardConfig {
            trace: true,
            ..shard_config(plan)
        },
    );
    for position in 0..plan.warmup_len() {
        let request = plan.request(position, round, true);
        let binds = bind_refs(&request.binds);
        service
            .execute(&request.sql, &binds)
            .map_err(|e| e.to_string())?;
    }

    let env = Environment::dynamic_compile_time(&single_catalog.config);
    let config = &plan.catalog.config;
    let mut pass = Pass {
        recorder: Recorder::new(true),
        totals: Totals::default(),
        latency_ns: Vec::new(),
        rows: Vec::new(),
        sums: Vec::new(),
        sim_s: Vec::new(),
        extra: Vec::new(),
    };
    let (mut sharded_ns, mut single_ns) = (0u64, 0u64);
    let (mut imbalance, mut divergent, mut fallbacks) = (0.0, 0u64, 0u64);
    let (mut bytes, mut frames, mut retransmits) = (0u64, 0u64, 0u64);
    let (mut encode_ns, mut decode_ns, mut scatter_ns, mut send_ns, mut recv_ns, mut wire_rows) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for position in 0..plan.list.len() {
        let request = plan.request(position, round, false);
        let binds = bind_refs(&request.binds);
        let id = position as u32;
        let before: Vec<(IoStats, usize)> = service
            .shards()
            .iter()
            .map(|s| (s.db.disk.stats(), s.db.disk.page_count()))
            .collect();
        let root = pass.recorder.open(id, None, "request");
        let call = pass.recorder.open(id, Some(root), "service.shard.execute");
        let outcome = service.execute(&request.sql, &binds);
        pass.recorder.close(call);
        pass.recorder.close(root);
        let outcome = outcome.map_err(|e| format!("request {position}: {e}"))?;

        let (start, end) = (
            pass.recorder.spans[root].start,
            pass.recorder.spans[root].end,
        );
        sharded_ns += end - start;
        pass.latency_ns.push((end - start) as f64);
        pass.rows.push(outcome.rows.len() as f64);
        pass.sums
            .push(oracle::checksum(outcome.rows.iter().map(Vec::as_slice)) as f64);
        let mut io = IoStats::default();
        for (shard, (io_before, pages_before)) in service.shards().iter().zip(&before) {
            io += shard.db.disk.stats().since(io_before);
            pass.totals.pages_allocated += (shard.db.disk.page_count() - pages_before) as u64;
        }
        pass.sim_s.push(io.seconds(config));
        pass.totals.io += io;
        pass.totals.rows += outcome.rows.len() as u64;
        if let Some(report) = &outcome.trace {
            // Top-level operators of each shard: the access plans.
            for span in &report.spans {
                let under_shard = span
                    .parent
                    .is_some_and(|p| report.spans[p.0].kind == "Shard");
                if under_shard && span.node.is_some() {
                    pass.totals.open_ns += span.stats.open_wall_ns;
                    pass.totals.drain_ns += span.stats.next_wall_ns;
                    pass.totals.batches += span.stats.batches;
                    pass.totals.cpu += span.stats.cpu;
                }
            }
            pass.recorder
                .graft_trace(id, call, report, pass.recorder.spans[call].start);
        }
        let mean_rows =
            outcome.per_shard_rows.iter().sum::<u64>() as f64 / outcome.per_shard_rows.len() as f64;
        let max_rows = outcome.per_shard_rows.iter().copied().max().unwrap_or(0) as f64;
        imbalance += if mean_rows > 0.0 {
            max_rows / mean_rows
        } else {
            1.0
        };
        divergent += outcome.divergent_nodes.len() as u64;
        fallbacks += outcome.fallbacks;
        bytes += outcome.net.bytes;
        frames += outcome.net.frames;
        retransmits += outcome.net.retransmits;

        // The same query on one node, planned and run the single-node way.
        let started = Instant::now();
        let query = parse_query(&request.sql, single_catalog).map_err(|e| e.to_string())?;
        let bindings = query.bindings(&binds)?;
        let optimized = Optimizer::new(single_catalog, &env)
            .optimize_with_props(&query.expr, query.required_props())
            .map_err(|e| e.to_string())?;
        let (summary, _) = execute_plan_dop(
            &optimized.plan,
            db,
            single_catalog,
            &env,
            &bindings,
            ResourceLimits::unlimited(),
            ExecMode::Batch,
            1,
        )
        .map_err(|e| e.to_string())?;
        single_ns += started.elapsed().as_nanos() as u64;
        if summary.rows != outcome.rows.len() as u64 {
            return Err(format!(
                "request {position}: {} rows sharded, {} on one node",
                outcome.rows.len(),
                summary.rows
            ));
        }

        // The wire kernels on this query's result, batch by batch.
        let width = outcome.layout.width();
        let batches: Vec<RowBatch> = outcome
            .rows
            .chunks(BATCH_CAPACITY)
            .map(|chunk| {
                let mut batch = RowBatch::with_capacity(width, chunk.len());
                chunk.iter().for_each(|row| batch.push_row(row));
                batch
            })
            .collect();
        wire_rows += outcome.rows.len() as u64;
        let started = Instant::now();
        let encoded: Vec<Vec<u8>> = batches.iter().map(encode_frame).collect();
        encode_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        for frame in &encoded {
            std::hint::black_box(decode_frame(frame).map_err(|e| e.to_string())?);
        }
        decode_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let mut outs: Vec<RowBatch> = (0..2)
            .map(|_| RowBatch::with_capacity(width, outcome.rows.len() / 2 + 1))
            .collect();
        let (mut hashes, mut dests) = (Vec::new(), Vec::new());
        for batch in &batches {
            scatter_by_shard(batch, &[0], &mut outs, &mut hashes, &mut dests);
        }
        scatter_ns += started.elapsed().as_nanos() as u64;
        std::hint::black_box(outs);
        let channel = SimNet::new(NetConfig::default()).channel(0, 1, encoded.len().max(1));
        let started = Instant::now();
        for frame in encoded {
            channel.send(frame).map_err(|e| e.to_string())?;
        }
        channel.close();
        send_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        while let Some(frame) = channel.recv() {
            std::hint::black_box(frame);
        }
        recv_ns += started.elapsed().as_nanos() as u64;
    }

    let n = plan.list.len() as f64;
    let per_row = |ns: u64| {
        if wire_rows > 0 {
            ns as f64 / wire_rows as f64
        } else {
            0.0
        }
    };
    pass.extra = vec![
        (
            "service.shard.overhead_ratio",
            sharded_ns as f64 / single_ns.max(1) as f64,
        ),
        ("service.shard.row_imbalance", imbalance / n),
        ("service.shard.divergent_nodes", divergent as f64 / n),
        ("service.shard.fallbacks", fallbacks as f64),
        ("executor.net.bytes_per_query", bytes as f64 / n),
        ("executor.net.frames_per_query", frames as f64 / n),
        ("executor.net.retransmits", retransmits as f64),
        ("executor.net.send_ms", send_ns as f64 / 1e6 / n),
        ("executor.net.recv_ms", recv_ns as f64 / 1e6 / n),
        ("executor.net.encode_ns_per_row", per_row(encode_ns)),
        ("executor.net.decode_ns_per_row", per_row(decode_ns)),
        ("executor.net.scatter_ns_per_row", per_row(scatter_ns)),
    ];
    Ok(pass)
}
