//! Observability-layer integration tests: span merging is merge-order
//! independent (like `SharedCounters::merge_from`), tracing is
//! observationally invisible (byte-identical results and counters with
//! tracing on or off, at any DOP, under storage faults), EXPLAIN ANALYZE
//! reports interval-vs-actual drift plus the choose-plan audit trail, and
//! the drift flag follows cardinality feedback.

use std::sync::Arc;

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    card_drift, compile_dynamic_plan, drain, explain_json, parse_json, render_explain, run,
    validate_explain_json, CpuCounters, ExecContext, ExecError, ExecSummary, JsonValue,
    RootSink, SharedCounters, SpanStats, TraceReport, Tracer,
};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup_observed;
use dqep::service::PreparedStatement;
use dqep::sql::parse_query;
use dqep::storage::{FaultPlan, IoStats, StoredDatabase};
use proptest::prelude::*;

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

/// Coarse error class, as in `tests/batch_parity.rs`: variant (and
/// resource kind) only.
fn classify(e: &ExecError) -> String {
    match e {
        ExecError::Storage(_) => "storage".into(),
        ExecError::ResourceExhausted(r) => {
            let kind = match r {
                dqep::executor::Resource::Memory { .. } => "memory",
                dqep::executor::Resource::Rows { .. } => "rows",
                dqep::executor::Resource::Io { .. } => "io",
                dqep::executor::Resource::WallClock { .. } => "wall-clock",
            };
            format!("resource:{kind}")
        }
        other => format!("{other:?}"),
    }
}

/// A randomized 1–2 relation chain workload (smaller than
/// `batch_parity.rs`: every case executes up to four times).
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=2).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..250, n),
            proptest::collection::vec(0.2f64..1.25, n),
        )
            .prop_map(|(cards, domain_factors)| RandomWorkload { cards, domain_factors })
    })
}

fn build(w: &RandomWorkload) -> (Catalog, LogicalExpr, Vec<(HostVar, f64)>) {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, (&card, &f)) in w.cards.iter().zip(&w.domain_factors).enumerate() {
        let name = format!("t{i}");
        let jdomain = (card as f64 * f).max(1.0).round();
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid random catalog");
    let rels: Vec<_> = catalog.relations().to_vec();
    let var = HostVar(0);
    let hosts = vec![(var, rels[0].attributes[0].domain_size)];
    let mut q = LogicalExpr::get(rels[0].id).select(SelectPred::unbound(
        rels[0].attr_id("a").expect("attr"),
        CompareOp::Lt,
        var,
    ));
    for i in 1..w.cards.len() {
        q = q.join(
            LogicalExpr::get(rels[i].id),
            vec![JoinPred::new(
                rels[i - 1].attr_id("j").expect("attr"),
                rels[i].attr_id("j").expect("attr"),
            )],
        );
    }
    (catalog, q, hosts)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance: tracing is observationally invisible. The same dynamic
    /// plan drained with and without a tracer produces byte-identical
    /// result tuples, identical CPU counters, fallbacks, and accounted
    /// I/O — and the traced run additionally yields a well-formed span
    /// tree whose root row count equals the result size.
    #[test]
    fn tracing_changes_nothing_observable(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        mem_kb in 4u64..64,
    ) {
        let (catalog, query, hosts) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
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
    }

    /// Acceptance, parallel + fault path: `run` under a context with a
    /// tracer agrees with `run` without on rows, counters, I/O, and
    /// fallbacks at every DOP, and on the error class when storage faults kill both
    /// runs (exchange workers' deferred `pending_err` delivery included).
    #[test]
    fn traced_execution_matches_untraced_at_any_dop(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        dop in 1usize..=3,
        faulty in any::<bool>(),
        nth in 1u64..80,
    ) {
        let (catalog, query, hosts) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
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
    /// exactly against the query's `NetStats` delta (which in turn
    /// decomposes into the per-link deltas), every receive span's remote
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
        let domain = catalog.relations()[0].attributes[0].domain_size;
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
            .execute(
                "SELECT * FROM R1, R2, R3 \
                 WHERE R1.jr = R2.jl AND R2.jr = R3.jl AND R1.a < :x",
                &[("x", (sel * domain) as i64)],
            )
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
        // span-owning path, so the send spans sum to the NetStats delta.
        let sends: Vec<_> = report
            .spans
            .iter()
            .filter_map(|s| s.net.as_ref().filter(|n| n.sent))
            .collect();
        prop_assert_eq!(sends.iter().map(|n| n.bytes).sum::<u64>(), out.net.bytes);
        prop_assert_eq!(sends.iter().map(|n| n.frames).sum::<u64>(), out.net.frames);
        prop_assert_eq!(
            sends.iter().map(|n| n.retransmits).sum::<u64>(),
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

/// Satellite: a pinned-wrong cardinality observation puts the actual row
/// count outside the resolved plan's interval (EXPLAIN ANALYZE flags
/// drift); after `record_feedback` re-optimizes with the observed value,
/// the actual falls inside and the flag clears.
#[test]
fn drift_flag_follows_cardinality_feedback() {
    let (catalog, db, query, plan) = choose_plan_fixture();
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = query.bindings(&[("x", 60)]).unwrap().with_memory(48.0);
    let stmt = PreparedStatement::new("q".into(), query, Arc::clone(&plan));

    let run_resolved = |stmt: &PreparedStatement| {
        let startup =
            evaluate_startup_observed(&stmt.plan, &catalog, &env, &bindings, &stmt.observations());
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

    // Baseline sanity: how many rows the query actually produces.
    let (actual_rows, _) = run_resolved(&stmt);
    assert!(actual_rows > 0, "fixture query must produce rows");

    // Pin a badly wrong observation: the resolved plan's root interval
    // collapses to a point far from the actual — EXPLAIN ANALYZE must
    // flag cardinality drift.
    stmt.observe(plan.root(), 1.0);
    let (rows_wrong, report_wrong) = run_resolved(&stmt);
    assert_eq!(rows_wrong, actual_rows, "observations must not change results");
    let root = report_wrong.roots()[0];
    assert_eq!(
        card_drift(root),
        Some(true),
        "actual {actual_rows} rows vs pinned estimate {:?}",
        root.estimate.map(|e| e.card)
    );
    assert!(render_explain(&report_wrong, &catalog.config).contains("DRIFT(card)"));

    // Feed the actual back: the observation leaves the pinned interval,
    // invalidates, and re-optimization pins the observed value — the
    // actual now falls inside its interval.
    assert!(
        stmt.record_feedback(actual_rows, 2.0),
        "feedback outside tolerance must invalidate"
    );
    let (rows_fixed, report_fixed) = run_resolved(&stmt);
    assert_eq!(rows_fixed, actual_rows);
    let root = report_fixed.roots()[0];
    assert_eq!(
        card_drift(root),
        Some(false),
        "actual {actual_rows} rows vs fed-back estimate {:?}",
        root.estimate.map(|e| e.card)
    );
    // Only the root's interval is fed back; inner operators keep their
    // own estimates, so assert the root flag specifically, not the whole
    // rendering.
    let rendered = render_explain(&report_fixed, &catalog.config);
    let root_actual_line = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("act:"))
        .expect("root actual line");
    assert!(
        !root_actual_line.contains("DRIFT(card)"),
        "root must not flag card drift after feedback: {root_actual_line}"
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
