//! Observability-layer integration tests: span merging is merge-order
//! independent (like `SharedCounters::merge_from`), tracing is
//! observationally invisible (byte-identical results and counters with
//! tracing on or off, at any DOP, under storage faults, through every
//! entry point of the service; an audit-only tracer keeps the audits and
//! records no span), a traced session times itself in contiguous phases,
//! EXPLAIN ANALYZE reports interval-vs-actual drift plus the choose-plan
//! audit trail, and the drift flag follows the cardinality observations a
//! decision applies.

use std::sync::Arc;

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    card_drift, compile_dynamic_plan, drain, explain_json, parse_json, render_explain, run,
    validate_explain_json, CpuCounters, ExecContext, ExecError, ExecSummary, JsonValue,
    ReoptConfig, RootSink, SharedCounters, SpanRecord, SpanStats, TraceReport, Tracer,
};
use dqep::optimizer::Optimizer;
use dqep::plan::{evaluate_startup_observed, NodeId, Observations};
use dqep::service::{QueryService, Request, ServiceConfig};
use dqep::sql::parse_query;
use dqep::storage::{FaultPlan, IoStats, StoredDatabase};
use proptest::prelude::*;

#[path = "common/workload.rs"]
#[allow(dead_code)]
mod workload;

use workload::{build, build_sql, classify, named_binds, workload_strategy, Shape};

/// A 1–2 relation chain of 40–249 rows, only the first relation selected:
/// smaller than the parity suites' shape, since every case executes up to
/// four times.
const OBSERVED: Shape = Shape {
    relations: 1..=2,
    cards: 40..250,
    selections: false,
    order_by: false,
};

/// Field-by-field equality for [`SpanStats`] (wall-clock fields included:
/// merging is pure arithmetic, so even those must agree exactly).
fn stats_eq(a: &SpanStats, b: &SpanStats) -> bool {
    a.rows == b.rows
        && a.batches == b.batches
        && a.opens == b.opens
        && a.errors == b.errors
        && a.open_wall_ns == b.open_wall_ns
        && a.next_wall_ns == b.next_wall_ns
        && a.cpu == b.cpu
        && a.io == b.io
        && a.mem_peak == b.mem_peak
        && a.temp_pages_peak == b.temp_pages_peak
}

fn span_stats_strategy() -> impl Strategy<Value = SpanStats> {
    (
        (0u64..1000, 0u64..100, 0u64..5, 0u64..3),
        (0u64..1_000_000, 0u64..1_000_000),
        (0u64..1000, 0u64..1000, 0u64..1000),
        (0u64..500, 0u64..500, 0u64..500),
        0u64..1_000_000,
    )
        .prop_map(
            |((rows, batches, opens, errors), (ow, nw), (rec, cmp, hsh), (sr, rr, wr), mem)| {
                SpanStats {
                    rows,
                    batches,
                    opens,
                    errors,
                    open_wall_ns: ow,
                    next_wall_ns: nw,
                    cpu: CpuCounters { records: rec, compares: cmp, hashes: hsh },
                    io: IoStats { seq_reads: sr, random_reads: rr, writes: wr },
                    mem_peak: mem,
                    temp_pages_peak: mem % 4096,
                }
            },
        )
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        idx.swap(i, (state >> 33) as usize % (i + 1));
    }
    idx
}

/// [`run`] at `dop` with a tracer attached, and what the tracer saw.
fn run_traced(
    plan: &Arc<dqep::plan::Plan>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    dop: usize,
) -> Result<(ExecSummary, TraceReport), ExecError> {
    let tracer = Arc::new(Tracer::new());
    let ctx = ExecContext::new(SharedCounters::new())
        .with_dop(dop)
        .with_tracer(Arc::clone(&tracer));
    run(plan, db, catalog, env, bindings, &ctx, RootSink::Discard).map(|s| (s, tracer.report()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: merged span totals equal the per-worker sums regardless
    /// of merge order — sequentially in any permutation, and under
    /// concurrent flushes into one shared span id (the exchange-worker
    /// path), including workers that recorded errors (the `pending_err`
    /// deferred-failure path leaves `errors > 0` in a worker's stats).
    #[test]
    fn span_merging_is_order_independent(
        stats in proptest::collection::vec(span_stats_strategy(), 1..8),
        seed in any::<u64>(),
    ) {
        let mut forward = SpanStats::default();
        for s in &stats {
            forward.merge_from(s);
        }
        let mut shuffled = SpanStats::default();
        for &i in &permutation(stats.len(), seed) {
            shuffled.merge_from(&stats[i]);
        }
        prop_assert!(stats_eq(&forward, &shuffled), "{forward:?} != {shuffled:?}");

        // The merged totals are the exact sums (max for the high-water).
        prop_assert_eq!(forward.rows, stats.iter().map(|s| s.rows).sum::<u64>());
        prop_assert_eq!(forward.errors, stats.iter().map(|s| s.errors).sum::<u64>());
        prop_assert_eq!(
            forward.mem_peak,
            stats.iter().map(|s| s.mem_peak).max().unwrap_or(0)
        );

        // Concurrent flushes into one tracer span, as exchange workers do.
        let tracer = Tracer::new();
        let span = tracer.span("workers".into(), "Morsel-Scan", None, None, None, stats.len());
        std::thread::scope(|scope| {
            for s in &stats {
                let tracer = &tracer;
                scope.spawn(move || tracer.merge_span(span, s));
            }
        });
        let merged = tracer.report().spans[0].stats;
        prop_assert!(stats_eq(&merged, &forward), "{merged:?} != {forward:?}");
    }

    /// Satellite: `SharedCounters::merge_from` is merge-order independent
    /// too, sequentially and when workers merge concurrently.
    #[test]
    fn counter_merging_is_order_independent(
        parts in proptest::collection::vec(
            (0u64..1000, 0u64..1000, 0u64..1000, 0u64..5),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let worker = |&(r, c, h, f): &(u64, u64, u64, u64)| {
            let w = SharedCounters::new();
            w.add_records(r);
            w.add_compares(c);
            w.add_hashes(h);
            w.add_fallbacks(f);
            w
        };
        let forward = SharedCounters::new();
        for p in &parts {
            forward.merge_from(&worker(p));
        }
        let shuffled = SharedCounters::new();
        for &i in &permutation(parts.len(), seed) {
            shuffled.merge_from(&worker(&parts[i]));
        }
        let concurrent = SharedCounters::new();
        std::thread::scope(|scope| {
            for p in &parts {
                let concurrent = &concurrent;
                scope.spawn(move || concurrent.merge_from(&worker(p)));
            }
        });
        for other in [&shuffled, &concurrent] {
            prop_assert_eq!(forward.snapshot(), other.snapshot());
            prop_assert_eq!(forward.fallbacks(), other.fallbacks());
        }
        prop_assert_eq!(
            forward.snapshot().records,
            parts.iter().map(|p| p.0).sum::<u64>()
        );
    }
}

/// What a service session shows its caller: rows, accounted I/O, the
/// predicted cost's bits and where its statement and decision came from;
/// or the error it failed with.
type Seen = Result<(u64, IoStats, Option<u64>, Option<bool>, Option<bool>), String>;

/// Serves `sql` at `binds` through every entry point of a session — a
/// first visit, a memo hit, a second binding (the dynamic plan's compile
/// and promotion), a memo miss, a memo hit whose plan meets a storage
/// fault and is retried, and a re-optimizing service's first visit and
/// second binding — each on a fresh one-worker service, `traced` or not.
/// Returns what every session showed and how many dynamic plans each
/// service compiled.
fn serve_entry_points(
    catalog: &Catalog,
    sql: &str,
    binds: &[(String, i64)],
    seed: u64,
    traced: bool,
) -> (Vec<Seen>, Vec<u64>) {
    let request = |shift: i64, fault_plan: Option<FaultPlan>| Request {
        sql: sql.to_string(),
        binds: binds.iter().map(|(name, v)| (name.clone(), v + shift)).collect(),
        fault_plan,
        tracer: traced.then(|| Arc::new(Tracer::new())),
        ..Request::default()
    };
    let service = |reopt| {
        let config =
            ServiceConfig { workers: 1, data_seed: seed, reopt, ..ServiceConfig::default() };
        QueryService::new(catalog.clone(), config)
    };
    let seen = |svc: &QueryService, request: Request| -> Seen {
        svc.execute(request)
            .map(|s| {
                let cache = s.summary.plan_cache;
                let predicted = s.predicted_seconds.map(f64::to_bits);
                (s.summary.rows, s.summary.io, predicted, cache.statement_hit, cache.decision_hit)
            })
            .map_err(|e| e.to_string())
    };
    let fast = service(None);
    let mut sessions: Vec<Seen> = [
        request(0, None),
        request(0, None),
        request(1, None),
        request(2, None),
        request(0, Some(FaultPlan::nth_read(1))),
    ]
    .into_iter()
    .map(|r| seen(&fast, r))
    .collect();
    let reopt = service(Some(ReoptConfig::default()));
    sessions.extend([request(0, None), request(1, None)].into_iter().map(|r| seen(&reopt, r)));
    let compiles = [&fast, &reopt].map(|svc| svc.stats().dynamic_plan_compiles).to_vec();
    (sessions, compiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance: tracing is observationally invisible. The same dynamic
    /// plan drained with and without a tracer produces byte-identical
    /// result tuples, identical CPU counters, fallbacks, and accounted
    /// I/O — and the traced run additionally yields a well-formed span
    /// tree whose root row count equals the result size. The same holds
    /// for a session at every entry point of the service: rows, I/O,
    /// predicted cost bits, cache provenance and dynamic-plan compiles.
    #[test]
    fn tracing_changes_nothing_observable(
        w in workload_strategy(OBSERVED),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        mem_kb in 4u64..64,
    ) {
        let (catalog, query, space) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let bindings = space.bindings(&catalog, std::iter::repeat(sel));
        let memory = (mem_kb * 1024) as usize;

        // Each variant runs on its own bit-identical replica (same catalog
        // and seed): spill allocations from a previous run on a shared
        // disk would shift the sequential/random classification of later
        // accesses, which is run-order state, not a tracing effect.
        let run = |tracer: Option<Arc<Tracer>>| {
            let db = StoredDatabase::generate(&catalog, seed);
            let mut ctx = ExecContext::new(SharedCounters::new());
            if let Some(t) = &tracer {
                ctx = ctx.with_tracer(Arc::clone(t));
            }
            let io_before = db.disk.stats();
            let mut op =
                compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx)
                    .unwrap();
            let rows = drain(op.as_mut()).unwrap();
            drop(op);
            let io = db.disk.stats().since(&io_before);
            (rows, ctx.counters.snapshot(), ctx.counters.fallbacks(), io)
        };

        let (plain_rows, plain_cpu, plain_fb, plain_io) = run(None);
        let tracer = Arc::new(Tracer::new());
        let (traced_rows, traced_cpu, traced_fb, traced_io) = run(Some(Arc::clone(&tracer)));

        prop_assert_eq!(&plain_rows, &traced_rows, "result tuples diverged");
        prop_assert_eq!(plain_cpu, traced_cpu, "CPU counters diverged");
        prop_assert_eq!(plain_fb, traced_fb, "fallback counts diverged");
        prop_assert_eq!(plain_io, traced_io, "accounted I/O diverged");

        let report = tracer.report();
        prop_assert!(!report.spans.is_empty());
        let roots = report.roots();
        prop_assert_eq!(roots.len(), 1, "exactly one root span");
        prop_assert_eq!(roots[0].stats.rows, plain_rows.len() as u64);
        for span in &report.spans {
            if let Some(parent) = span.parent {
                prop_assert!(parent.0 < span.id.0, "parents precede children");
            }
        }

        let (catalog, sql, binds) = build_sql(&w, sel);
        let plain = serve_entry_points(&catalog, &sql, &binds, seed, false);
        let traced = serve_entry_points(&catalog, &sql, &binds, seed, true);
        prop_assert_eq!(&plain.1, &vec![1, 1], "one compile a service: every entry point ran");
        prop_assert_eq!(plain, traced, "{} at {:?}", sql, binds);
    }

    /// Acceptance, parallel + fault path: `run` under a context with a
    /// tracer agrees with `run` without on rows, counters, I/O, and
    /// fallbacks at every DOP, and on the error class when storage faults kill both
    /// runs (exchange workers' deferred `pending_err` delivery included).
    #[test]
    fn traced_execution_matches_untraced_at_any_dop(
        w in workload_strategy(OBSERVED),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        dop in 1usize..=3,
        faulty in any::<bool>(),
        nth in 1u64..80,
    ) {
        let (catalog, query, space) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let bindings = space.bindings(&catalog, std::iter::repeat(sel));
        // Bit-identical replicas with identical fault sequences: each run
        // sees a fresh disk, so neither spill-allocation state nor fault
        // ordinals leak between the two runs. A read *ordinal* is only
        // well defined at DOP 1 (parallel workers race for ordinals), so
        // above it the same draw names a page *identity* instead, as in
        // `parallel_parity.rs`.
        let db = StoredDatabase::generate(&catalog, seed);
        let fault = if !faulty {
            FaultPlan::none()
        } else if dop == 1 {
            let mut f = FaultPlan::none();
            f.fail_nth_reads.push(nth);
            f
        } else {
            let page = (nth % db.disk.page_count() as u64) as u32;
            FaultPlan::page_range(page, page)
        };
        db.disk.set_fault_plan(fault.clone());
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        let plain = run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Discard);
        let db = StoredDatabase::generate(&catalog, seed);
        db.disk.set_fault_plan(fault);
        let traced = run_traced(&plan, &db, &catalog, &env, &bindings, dop);

        match (plain, traced) {
            (Ok(p), Ok((t, report))) => {
                prop_assert_eq!(p.rows, t.rows, "row counts diverged");
                prop_assert_eq!(p.cpu, t.cpu, "CPU counters diverged");
                if dop == 1 {
                    prop_assert_eq!(p.io, t.io, "accounted I/O diverged");
                } else {
                    // Parallel workers interleave on the shared disk, so
                    // the sequential/random split is timing-dependent;
                    // the totals are exact (as in `parallel_parity.rs`).
                    prop_assert_eq!(p.io.total(), t.io.total(), "I/O totals diverged");
                    prop_assert_eq!(p.io.writes, t.io.writes, "writes diverged");
                }
                prop_assert_eq!(p.fallbacks, t.fallbacks, "fallbacks diverged");
                prop_assert!(!report.spans.is_empty());
                prop_assert_eq!(report.roots()[0].stats.rows, t.rows);
            }
            (Err(pe), Err(te)) => prop_assert_eq!(
                classify(&pe), classify(&te),
                "error classes diverged: plain={:?} traced={:?}", pe, te
            ),
            (p, t) => prop_assert!(
                false,
                "tracing changed the outcome: plain={:?} traced={:?}",
                p.map(|s| s.rows),
                t.map(|(s, _)| s.rows)
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole acceptance: a traced 4-shard × dop-2 query yields ONE
    /// connected distributed trace — every span's parent exists and
    /// precedes it, the network send spans' wire accounting reconciles
    /// exactly against the query's `NetStats` (which in turn
    /// decomposes into the per-link counters), every receive span's remote
    /// reference resolves to the matching send span, and the event
    /// journal's entries for this trace fall inside the trace's lifetime
    /// window with shard-divergence verdicts after the per-shard
    /// arbitrations they summarize.
    #[test]
    fn sharded_trace_is_connected_and_reconciles_wire_bytes(
        sel in 0.1f64..=1.0,
        seed in 0u64..500,
    ) {
        use dqep::catalog::{make_chain_catalog, SyntheticSpec};
        use dqep::executor::{journal, monotonic_ns, EventKind};
        use dqep::service::{ShardConfig, ShardedService};

        let catalog = make_chain_catalog(
            &SyntheticSpec::paper(3, seed),
            SystemConfig::paper_1994(),
        );
        let sql = "SELECT * FROM R1, R2, R3 \
                   WHERE R1.jr = R2.jl AND R2.jr = R3.jl AND R1.a < :x";
        let binds = named_binds(&catalog, sql, sel);
        let config = ShardConfig {
            shards: 4,
            dop: 2,
            data_seed: seed,
            trace: true,
            ..ShardConfig::default()
        };
        let service = ShardedService::new(catalog, config);
        let cursor = journal().cursor();
        let out = service
            .execute(sql, &[("x", binds[0].1)])
            .expect("traced sharded execution");
        let report = out.trace.as_ref().expect("tracing was requested");
        let tid = report.trace_id;

        // One connected tree: unique ids, a single root, and every parent
        // present and topologically earlier than its child.
        let ids: std::collections::HashSet<usize> =
            report.spans.iter().map(|s| s.id.0).collect();
        prop_assert_eq!(ids.len(), report.spans.len(), "span ids are unique");
        let roots: Vec<_> = report.spans.iter().filter(|s| s.parent.is_none()).collect();
        prop_assert_eq!(roots.len(), 1, "exactly one root");
        for span in &report.spans {
            if let Some(p) = span.parent {
                prop_assert!(ids.contains(&p.0), "parent of span {} exists", span.id.0);
                prop_assert!(p.0 < span.id.0, "parents precede children");
            }
        }
        // All four shard subtrees made it into the merged timeline.
        let shard_roots = report.spans.iter().filter(|s| s.kind == "Shard").count();
        prop_assert_eq!(shard_roots, 4, "one subtree per shard");

        // Byte-exact wire reconciliation: every frame is sent through a
        // span-owning path, so the send spans sum to the query's NetStats.
        let sends: Vec<_> = report
            .spans
            .iter()
            .filter_map(|s| s.net.as_ref().filter(|n| n.sent))
            .collect();
        prop_assert_eq!(sends.iter().map(|n| n.stats.bytes).sum::<u64>(), out.net.bytes);
        prop_assert_eq!(sends.iter().map(|n| n.stats.frames).sum::<u64>(), out.net.frames);
        prop_assert_eq!(
            sends.iter().map(|n| n.stats.retransmits).sum::<u64>(),
            out.net.retransmits
        );
        // The same totals decompose into the per-link deltas.
        prop_assert_eq!(
            out.links.iter().map(|l| l.stats.bytes).sum::<u64>(),
            out.net.bytes
        );
        prop_assert_eq!(
            out.links.iter().map(|l| l.stats.frames).sum::<u64>(),
            out.net.frames
        );

        // Every receive span's remote reference resolves to a send span
        // on the same directed link.
        for span in &report.spans {
            let Some(net) = &span.net else { continue };
            if net.sent {
                continue;
            }
            let Some(remote) = net.remote_span else { continue };
            let peer = report.spans.iter().find(|s| s.id.0 as u64 == remote);
            prop_assert!(peer.is_some(), "remote span {} exists", remote);
            let peer_net = peer
                .and_then(|p| p.net.as_ref())
                .expect("remote reference points at a network span");
            prop_assert!(peer_net.sent, "remote reference points at a send span");
            prop_assert_eq!((peer_net.from, peer_net.to), (net.from, net.to));
        }

        // Journal consistency: this trace's events carry timestamps from
        // the same monotonic epoch as span start times, so they must fall
        // between the coordinator root opening and now — and divergence
        // verdicts (recorded after gather) cannot precede the per-shard
        // arbitration events they summarize.
        let root_start = roots[0].start_ns;
        let now = monotonic_ns();
        let events: Vec<_> = journal()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.trace == tid)
            .collect();
        let arbitrations =
            events.iter().filter(|e| e.kind == EventKind::ArbitrationWinner).count();
        prop_assert_eq!(arbitrations, 4, "one arbitration event per shard");
        for e in &events {
            prop_assert!(
                e.ts_ns >= root_start && e.ts_ns <= now,
                "event {:?} at {} outside trace window [{root_start}, {now}]",
                e.kind,
                e.ts_ns
            );
        }
        let last_arbitration = events
            .iter()
            .filter(|e| e.kind == EventKind::ArbitrationWinner)
            .map(|e| e.ts_ns)
            .max()
            .unwrap_or(0);
        for e in &events {
            if e.kind == EventKind::ShardDivergence {
                prop_assert!(e.ts_ns >= last_arbitration);
            }
        }
    }
}

/// Fixture for the deterministic tests below: a two-relation join with an
/// unbound selection, which the dynamic optimizer compiles with
/// choose-plan nodes.
fn choose_plan_fixture() -> (Catalog, StoredDatabase, dqep::sql::Query, Arc<dqep::plan::Plan>) {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 200, 512, |r| {
            r.attr("a", 200.0).attr("j", 60.0).btree("a", false).btree("j", false)
        })
        .relation("s", 150, 512, |r| {
            r.attr("a", 150.0).attr("j", 60.0).btree("a", false).btree("j", false)
        })
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 77);
    let query = parse_query("SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x", &catalog).unwrap();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .unwrap()
        .plan;
    assert!(plan.is_dynamic(), "fixture must exercise choose-plan");
    (catalog, db, query, plan)
}

/// EXPLAIN ANALYZE on a choose-plan query reports, for every node, the
/// interval estimate next to actuals with a drift flag, plus the
/// choose-plan audit trail; the JSON rendering passes the schema checker.
#[test]
fn explain_analyze_reports_estimates_actuals_and_audit() {
    let (catalog, db, query, plan) = choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = query.bindings(&[("x", 60)]).unwrap().with_memory(48.0);
    let (summary, report) = run_traced(&plan, &db, &catalog, &env, &bindings, 1).unwrap();

    // Every span carries an estimate (all map to plan nodes here), and
    // the root's actuals agree with the summary.
    assert!(!report.spans.is_empty());
    assert!(report.spans.iter().all(|s| s.estimate.is_some()));
    let root = report.roots()[0];
    assert_eq!(root.stats.rows, summary.rows);
    assert_eq!(root.stats.io, summary.io);

    // Each estimate is its node's execution interval: a choose-plan span's
    // holds no decision overhead, which no operator executes.
    let node_of = |span: &SpanRecord| &plan[NodeId(span.node.unwrap() as u32)];
    assert!(report.spans.iter().any(|s| node_of(s).is_choose_plan()), "a choose-plan span");
    for span in &report.spans {
        assert_eq!(span.estimate.unwrap().cost, node_of(span).exec.total(), "{}", span.label);
    }

    // The audit trail names the bindings, the alternatives with their
    // bind-time predictions, and the winner.
    assert!(!report.audits.is_empty(), "choose-plan must leave an audit");
    let audit = &report.audits[0];
    assert!(audit.bind_values.iter().any(|(n, v)| n == ":v0" && *v == 60));
    assert_eq!(audit.memory_pages, Some(48.0));
    assert!(audit.alternatives.len() >= 2);
    assert!(audit.alternatives.iter().all(|a| a.predicted_seconds >= 0.0));
    assert_eq!(audit.winner, Some(audit.preferred), "no faults: preferred wins");
    assert_eq!(audit.fallbacks, 0);

    // Human rendering: estimates, actuals, flags, audit.
    let text = render_explain(&report, &catalog.config);
    for marker in [
        "EXPLAIN ANALYZE",
        "est: card=[",
        "act: rows=",
        "choose-plan audit:",
        ":v0=60",
        "winner: alt",
    ] {
        assert!(text.contains(marker), "missing `{marker}` in:\n{text}");
    }

    // JSON rendering conforms to the schema the CI checker enforces.
    let json = explain_json(&report, &catalog.config);
    validate_explain_json(&json).expect("schema-valid JSON");
}

/// The untraced paths record no span. One plan through `run` three ways —
/// untraced, under an audit-only tracer (what the sharded service keeps on
/// every shard) and traced: the audit-only tracer holds no span but every
/// choose-plan audit the traced run holds, and the rows, CPU counters and
/// I/O of the three are equal.
#[test]
fn an_audit_only_tracer_records_audits_and_no_spans() {
    let (catalog, _, query, plan) = choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = query.bindings(&[("x", 60)]).unwrap().with_memory(48.0);
    // Each run on its own replica, as in `tracing_changes_nothing_observable`.
    let run_with = |tracer: Option<&Arc<Tracer>>| {
        let db = StoredDatabase::generate(&catalog, 77);
        let mut ctx = ExecContext::new(SharedCounters::new());
        if let Some(t) = tracer {
            ctx = ctx.with_tracer(Arc::clone(t));
        }
        let mut rows = Vec::new();
        let summary = run(&plan, &db, &catalog, &env, &bindings, &ctx, RootSink::Rows(&mut rows))
            .unwrap();
        (rows, summary.cpu, summary.io)
    };

    let untraced = run_with(None);
    let audit_only = Arc::new(Tracer::audit_only());
    let audited = run_with(Some(&audit_only));
    let tracer = Arc::new(Tracer::new());
    let traced = run_with(Some(&tracer));
    assert!(!untraced.0.is_empty());
    assert_eq!(untraced, audited, "an audit-only tracer changed rows, CPU or I/O");
    assert_eq!(untraced, traced, "a tracer changed rows, CPU or I/O");

    let (audit_only, traced) = (audit_only.report(), tracer.report());
    assert!(audit_only.spans.is_empty(), "an audit-only tracer recorded spans");
    assert!(!traced.spans.is_empty());
    assert!(!traced.audits.is_empty(), "the fixture must arbitrate");
    assert_eq!(format!("{:?}", audit_only.audits), format!("{:?}", traced.audits));
}

fn wall(span: &SpanRecord) -> u64 {
    span.stats.open_wall_ns + span.stats.next_wall_ns
}

/// Checks that `report` has one root and that the root's children of a
/// kind other than `Shard` are its phases, of `kinds` in order, end to
/// end from the root's start, their walls summing to the root's exactly;
/// returns the phases.
fn phases<'a>(report: &'a TraceReport, kinds: &[&str]) -> Vec<&'a SpanRecord> {
    let roots = report.roots();
    assert_eq!(roots.len(), 1, "exactly one root");
    let root = roots[0];
    let phases: Vec<_> =
        report.children_of(root.id).into_iter().filter(|s| s.kind != "Shard").collect();
    let seen: Vec<&str> = phases.iter().map(|s| s.kind).collect();
    assert_eq!(seen, kinds, "the phases of {}", root.label);
    let mut at = root.start_ns;
    for phase in &phases {
        assert_eq!(phase.start_ns, at, "{} starts where the last phase ended", phase.label);
        at += wall(phase);
    }
    assert_eq!(phases.iter().map(|s| wall(s)).sum::<u64>(), wall(root), "phases sum to the root");
    phases
}

/// A traced session times itself: one `Session` root whose phases are
/// consecutive laps of one clock — contiguous, their walls summing to the
/// session's to the nanosecond — with the optimizer's explore, search and
/// finish under `Optimize` and every operator span under an `Execute`
/// phase; at a first visit, a memo hit and a second binding (which
/// compiles and promotes the dynamic plan). A traced sharded query has
/// parse, bind, distribute and execute phases under its coordinator root,
/// next to the shard subtrees.
#[test]
fn a_traced_session_times_itself_in_contiguous_phases() {
    use dqep::catalog::{make_chain_catalog, SyntheticSpec};
    use dqep::service::{ShardConfig, ShardedService};

    let catalog = make_chain_catalog(&SyntheticSpec::paper(3, 7), SystemConfig::paper_1994());
    let sql = "SELECT * FROM R1, R2, R3 WHERE R1.jr = R2.jl AND R2.jr = R3.jl AND R1.a < :x";
    let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
    let svc = QueryService::new(catalog.clone(), config);
    let traced = |x: i64| {
        let tracer = Arc::new(Tracer::new());
        let request =
            Request { tracer: Some(Arc::clone(&tracer)), ..Request::new(sql, &[("x", x)]) };
        let session = svc.execute(request).expect("fault-free session");
        (session, tracer.report())
    };
    // Every session first waits for a replica, parses and binds.
    let head = ["Admission", "Parse", "Bind"];
    let visits: [(i64, &[&str]); 3] = [
        (60, &["Optimize", "Decide", "Registry", "Admission", "Execute"]),
        (60, &["Admission", "Decide", "Execute"]),
        (90, &["Admission", "Decide", "Optimize", "Registry", "Decide", "Execute"]),
    ];
    for (x, tail) in visits {
        let (session, report) = traced(x);
        assert_eq!(report.roots()[0].kind, "Session");
        let phases = phases(&report, &[&head[..], tail].concat());
        for optimize in phases.iter().filter(|p| p.kind == "Optimize") {
            let parts: Vec<&str> = report.children_of(optimize.id).iter().map(|s| s.kind).collect();
            assert_eq!(parts, ["Explore", "Search", "Finish"]);
        }
        // Every operator span descends from the one `Execute` phase, and
        // the plan's root is its only child.
        let execute = phases.last().expect("an Execute phase");
        let operators: Vec<_> = report.spans.iter().filter(|s| s.node.is_some()).collect();
        assert!(!operators.is_empty());
        for op in &operators {
            let mut up = op.parent;
            while let Some(parent) = up.filter(|p| report.spans[p.0].node.is_some()) {
                up = report.spans[parent.0].parent;
            }
            assert_eq!(up, Some(execute.id), "{} hangs under Execute", op.label);
        }
        let top = report.children_of(execute.id);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].stats.rows, session.summary.rows);
    }

    let config = ShardConfig { trace: true, ..ShardConfig::default() };
    let sharded = ShardedService::new(catalog, config);
    let out = sharded.execute(sql, &[("x", 60)]).expect("traced sharded execution");
    let report = out.trace.expect("tracing was requested");
    assert_eq!(report.roots()[0].kind, "Coordinator");
    phases(&report, &["Parse", "Bind", "Distribute", "Execute"]);
    let root = report.roots()[0].id;
    let shards = report.children_of(root).iter().filter(|s| s.kind == "Shard").count();
    assert_eq!(shards, 2, "the shard subtrees sit next to the phases");
}

/// A pinned-wrong cardinality observation — what a re-optimizing run's
/// checkpoint hands `evaluate_startup_observed` — puts the actual row
/// count outside the resolved plan's interval (EXPLAIN ANALYZE flags
/// drift); pinning the observed value instead puts the actual inside and
/// the flag clears.
#[test]
fn drift_flag_follows_cardinality_feedback() {
    let (catalog, db, query, plan) = choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = query.bindings(&[("x", 60)]).unwrap().with_memory(48.0);

    let run_resolved = |observations: &Observations| {
        let startup = evaluate_startup_observed(&plan, &catalog, &env, &bindings, observations);
        let tracer = Arc::new(Tracer::new());
        let ctx = ExecContext::new(SharedCounters::new()).with_tracer(Arc::clone(&tracer));
        let mut op = compile_dynamic_plan(
            &startup.resolved,
            &db,
            &catalog,
            &env,
            &bindings,
            64 * 2048,
            &ctx,
        )
        .unwrap();
        let rows = drain(op.as_mut()).unwrap();
        drop(op);
        (rows.len() as u64, tracer.report())
    };
    let pinned = |cardinality: f64| Observations::from([(plan.root(), cardinality)]);

    // Baseline sanity: how many rows the query actually produces.
    let (actual_rows, _) = run_resolved(&Observations::new());
    assert!(actual_rows > 0, "fixture query must produce rows");

    // Pin a badly wrong observation: the resolved plan's root interval
    // collapses to a point far from the actual — EXPLAIN ANALYZE must
    // flag cardinality drift.
    let (rows_wrong, report_wrong) = run_resolved(&pinned(1.0));
    assert_eq!(rows_wrong, actual_rows, "observations must not change results");
    let root = report_wrong.roots()[0];
    assert_eq!(
        card_drift(root),
        Some(true),
        "actual {actual_rows} rows vs pinned estimate {:?}",
        root.estimate.map(|e| e.card)
    );
    assert!(render_explain(&report_wrong, &catalog.config).contains("DRIFT(card)"));

    // Pin the actual instead: the root's interval is the observed value,
    // and the actual falls inside it.
    let (rows_fixed, report_fixed) = run_resolved(&pinned(actual_rows as f64));
    assert_eq!(rows_fixed, actual_rows);
    let root = report_fixed.roots()[0];
    assert_eq!(
        card_drift(root),
        Some(false),
        "actual {actual_rows} rows vs observed estimate {:?}",
        root.estimate.map(|e| e.card)
    );
    // Only the root's interval is pinned; inner operators keep their own
    // estimates, so assert the root flag specifically, not the whole
    // rendering.
    let rendered = render_explain(&report_fixed, &catalog.config);
    let root_actual_line = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("act:"))
        .expect("root actual line");
    assert!(
        !root_actual_line.contains("DRIFT(card)"),
        "root must not flag card drift once the observation is pinned: {root_actual_line}"
    );
}

/// Every member path of a JSON document: `a.b` for an object member,
/// `a[].b` below an array. Interior paths are kept, so a nullable object
/// (`estimate`, `net`) pins the same path whether or not it is null.
fn key_paths(value: &JsonValue, path: &str, out: &mut std::collections::BTreeSet<String>) {
    match value {
        JsonValue::Obj(members) => {
            for (key, member) in members {
                let p = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                key_paths(member, &p, out);
                out.insert(p);
            }
        }
        JsonValue::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

/// The documents the schema pin records, built through the library:
/// a single-node re-optimizing EXPLAIN ANALYZE (skewed data, so the
/// checkpoint escapes and `reopt.events` is populated), a merged
/// 4-shard x dop-2 trace, the journal both leave behind, and the
/// metrics of a query service and a sharded service — JSON documents by
/// section name, then the Prometheus expositions.
fn schema_documents() -> (Vec<(&'static str, Vec<String>)>, Vec<String>) {
    use dqep::catalog::{make_chain_catalog, SyntheticSpec};
    use dqep::executor::{journal, ReoptConfig, ReoptState};
    use dqep::service::{QueryService, Request, ServiceConfig, ShardConfig, ShardedService};
    use dqep::storage::ValueDistribution;

    let chain = |n| make_chain_catalog(&SyntheticSpec::paper(n, 42), SystemConfig::paper_1994());
    let join2 = "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v";

    let catalog = chain(2);
    let db = StoredDatabase::generate_with(&catalog, 42, ValueDistribution::Zipf { exponent: 1.1 });
    let env = Environment::dynamic_compile_time(&catalog.config);
    let query = parse_query(join2, &catalog).unwrap();
    let plan = Optimizer::new(&catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .unwrap()
        .plan;
    let tracer = Arc::new(Tracer::new());
    run(
        &plan,
        &db,
        &catalog,
        &env,
        &query.bindings(&[("v", 100)]).unwrap(),
        &ExecContext::new(SharedCounters::new())
            .with_tracer(Arc::clone(&tracer))
            .with_reopt(Arc::new(ReoptState::new(ReoptConfig::default()))),
        RootSink::Discard,
    )
    .unwrap();
    let report = tracer.report();
    assert!(
        !report.reopt.events.is_empty(),
        "the pin needs a populated re-opt section"
    );
    let explain = explain_json(&report, &catalog.config);

    let sharded = ShardedService::new(
        chain(3),
        ShardConfig {
            shards: 4,
            dop: 2,
            data_seed: 42,
            trace: true,
            ..ShardConfig::default()
        },
    );
    let out = sharded
        .execute(
            "SELECT * FROM R1, R2, R3 WHERE R1.jr = R2.jl AND R2.jr = R3.jl AND R1.a < :x",
            &[("x", 60)],
        )
        .unwrap();
    let system = sharded.catalog().config;
    let trace = explain_json(out.trace.as_ref().expect("tracing was requested"), &system);

    let service = QueryService::new(
        chain(2),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    service.execute(Request::new(join2, &[("v", 100)])).unwrap();

    let reports = [service.metrics(), sharded.metrics()];
    let documents = vec![
        ("explain_analyze", vec![explain]),
        ("shard_trace", vec![trace]),
        ("journal", vec![journal().to_json()]),
        ("metrics", reports.iter().map(|r| r.to_json()).collect()),
    ];
    (documents, reports.iter().map(|r| r.to_prometheus()).collect())
}

/// Schema pin: the key paths of every JSON document and the Prometheus
/// families with their types, as recorded in
/// `tests/golden/observability_schema.txt` before the emitters moved onto
/// the shared writer. JSON path sets must be identical; the Prometheus
/// set may only grow. A mismatch prints the lists this run produced.
#[test]
fn documents_keep_their_recorded_key_paths_and_families() {
    let (documents, expositions) = schema_documents();
    let mut recorded = String::new();
    for (name, jsons) in documents {
        let mut paths = std::collections::BTreeSet::new();
        for json in &jsons {
            key_paths(&parse_json(json).expect("valid JSON"), "", &mut paths);
        }
        recorded.push_str(&format!("[{name}]\n"));
        for path in paths {
            recorded.push_str(&path);
            recorded.push('\n');
        }
    }
    let prom: std::collections::BTreeSet<&str> = expositions
        .iter()
        .flat_map(|text| text.lines())
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .collect();
    let golden = include_str!("golden/observability_schema.txt");
    let (golden_json, golden_prom) = golden
        .split_once("[prometheus]\n")
        .expect("golden file has a [prometheus] section");
    let missing: Vec<&str> = golden_prom.lines().filter(|l| !prom.contains(l)).collect();
    let prom: Vec<&str> = prom.into_iter().collect();
    assert!(
        recorded == golden_json && missing.is_empty(),
        "schema moved (Prometheus families lost: {missing:?}); this run recorded:\n\
         {recorded}[prometheus]\n{}\n",
        prom.join("\n"),
    );
}
