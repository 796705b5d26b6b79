//! Sharded query execution: partitioned replicas, repartitioning network
//! exchange, and **per-shard** dynamic-plan arbitration.
//!
//! A [`ShardedService`] loads every relation across `N` shard replicas:
//! one generation pass routes each row, as it is drawn, to its shard
//! (hash or range routing on attribute 0), and no global copy of
//! the data is ever built. Each shard owns its own [`StoredDatabase`], its own
//! **local catalog statistics** (cardinalities refreshed and histograms
//! rebuilt from its partition alone), its own resource governor, and its
//! own counters. The coordinator optimizes each query **once** into
//! dynamic per-relation access plans and broadcasts them; every shard
//! then resolves its *own* winner at bind time, because choose-plan
//! arbitration runs against the shard-local catalog. On skewed
//! partitions the shards legitimately disagree — a shard holding three
//! rows of a relation picks the index plan while a shard holding the
//! bulk scans — which is the paper's start-up-time decision procedure
//! applied per data partition. `force_uniform_winner` disables exactly
//! this: the coordinator resolves the plans against its *global*
//! statistics and broadcasts the already-resolved (choose-free) plans,
//! the baseline the shard benchmark beats. Every choose-plan operator a
//! shard opens records its arbitration on that shard's trail, traced or
//! not; [`ShardOutcome::winners`], [`ShardOutcome::divergent_nodes`] and
//! [`ShardOutcome::fallbacks`] are read off the shards' trails.
//!
//! Joins run as hash-repartitioning exchange stages: both sides are
//! routed with the batched multiply-xor kernel
//! ([`dqep_executor::shard_route`]) on the join key, so co-partitioning
//! is guaranteed by construction and the union of shard-local joins is
//! exactly the global join. Batches travel as length-prefixed columnar
//! frames over a simulated network ([`SimNet`]) with deterministic fault
//! injection; every byte is accounted on the query's own channels. A
//! link is an unbounded mailbox, so each shard runs its whole query on
//! one thread: a repartition sends its partitions, closes its out-links
//! and then drains its in-links. A join stage needs all of its input
//! before it joins, so a bound on in-flight frames would bound no memory
//! the stage does not hold anyway. The final gather merges
//! order-preservingly (k-way merge by the `ORDER BY` column) or
//! deterministically concatenates in shard order.
//!
//! **Batches end to end.** [`RowBatch`] is the only currency of the data
//! path: access plans hand back the batches their operators produced,
//! exchanges scatter column-wise and keep decoded frames as batches, the
//! local join is the executor's radix join ([`join_batches`]), residual
//! predicates are selection vectors, `ORDER BY` is an argsort plus column
//! gathers, and the gather merge walks `(batch, row)` cursors. Rows exist
//! in exactly one place: [`ShardOutcome::rows`], built once by the
//! coordinator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{LogicalExpr, LogicalNode};
use dqep_catalog::{AttrId, Catalog, Relation, RelationId};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    decode_frame_traced, encode_frame_dense, hash_key, join_batches, journal, kway_merge,
    merge_distributed, next_trace_id, presized_batch, scatter_by_shard, sort_batches, EventKind,
    ExecContext, ExecError, FrameTrace, NetChannel, NetConfig, NetSpanStats, NetStats, Phases,
    Resource, ResourceLimits, RootSink, RowBatch, SharedCounters, SimNet, SpanId, SpanStats,
    TraceReport, Tracer, Tuple, TupleLayout, BATCH_CAPACITY, NO_ID,
};
use dqep_plan::{evaluate_startup, Plan};
use dqep_sql::{parse_query, ParsedPredicate};
use dqep_storage::{
    install_histograms, install_union_histograms, StoredDatabase, ValueDistribution,
};

use crate::admission::memory_grant_pages;
use crate::error::ServiceError;
use crate::metrics::{Metric, MetricsRegistry, MetricsReport};

/// How base rows are placed on shards at load time, by attribute 0 (the
/// selection attribute [`ShardConfig::skew`] skews). Repartitioning
/// exchanges always hash on the *join key* regardless — this only decides
/// the initial layout, and with it how skewed the per-shard statistics
/// come out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRouting {
    /// Hash attribute 0 through the batched multiply-xor kernel:
    /// near-uniform placement whatever the value distribution.
    Hash,
    /// Contiguous ranges of attribute 0's domain: shard
    /// `⌊value · N / domain⌋`. Under a skewed value distribution this
    /// deliberately produces *unequal* partitions — the setting where
    /// per-shard arbitration diverges from the global winner.
    Range,
}

impl ShardRouting {
    /// The shard of `shards` a row of `rel` is loaded on. Hash routing is
    /// [`dqep_executor::shard_route`]'s rule for one key column, `hash %
    /// shards`; range routing slices attribute 0's domain into `shards`
    /// contiguous stripes.
    fn shard_of(self, rel: &Relation, row: &[i64], shards: usize) -> usize {
        match self {
            ShardRouting::Hash => (hash_key(&[(0, 0)], row, true) % shards as u64) as usize,
            ShardRouting::Range => {
                let domain = rel.attributes[0].domain_size.max(1.0);
                ((row[0].max(0) as f64 * shards as f64 / domain) as usize).min(shards - 1)
            }
        }
    }
}

/// Tuning knobs of a [`ShardedService`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard replicas (minimum 1).
    pub shards: usize,
    /// The simulated network every inter-shard link runs on: its
    /// deterministic link faults.
    pub net: NetConfig,
    /// Base-data placement policy.
    pub routing: ShardRouting,
    /// Buckets of the per-shard histograms (and the coordinator's).
    pub histogram_buckets: usize,
    /// Intra-shard degree of parallelism for local access plans.
    pub dop: usize,
    /// Resource budgets. Memory, I/O and wall clock are per shard (each
    /// shard gets its own governor); `max_rows` is per query: it bounds
    /// the rows the coordinator gathers, and a query over it fails with
    /// [`Resource::Rows`]. Access and join stages are intermediate
    /// results and are not charged.
    pub limits: ResourceLimits,
    /// Simulated per-page I/O latency on every shard's disk, µs.
    pub io_latency_micros: u64,
    /// Seed of the deterministic data generation the shards are loaded
    /// from (the rows `StoredDatabase::generate_profiled` draws).
    pub data_seed: u64,
    /// Zipf exponent applied to the *selection* attribute (index 0) of
    /// every relation; join attributes stay uniform. `None`: uniform.
    pub skew: Option<f64>,
    /// Memory grant in pages for bind-time arbitration (`None`: the
    /// environment's expected grant). Each shard arbitrates and executes
    /// under this grant independently — a shard is its own node.
    pub memory_pages: Option<f64>,
    /// Resolve every choose-plan at the coordinator against the global
    /// statistics and broadcast the resolved plan — the "single-node
    /// winner everywhere" baseline. Default `false`: per-shard winners.
    pub force_uniform_winner: bool,
    /// Record a full distributed trace: coordinator and shard operator
    /// spans plus network-exchange spans, merged into one connected
    /// timeline in [`ShardOutcome::trace`]. Default `false`: shards run
    /// untraced (their winners are still counted, and no operator pays a
    /// wrapper).
    pub trace: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 2,
            net: NetConfig::default(),
            routing: ShardRouting::Hash,
            histogram_buckets: 16,
            dop: 1,
            limits: ResourceLimits::unlimited(),
            io_latency_micros: 0,
            data_seed: 42,
            skew: None,
            memory_pages: None,
            force_uniform_winner: false,
            trace: false,
        }
    }
}

/// One shard replica: its partition of the data plus its local view of
/// the statistics.
#[derive(Debug)]
pub struct Shard {
    /// The shard's partition, with all catalog indexes built.
    pub db: StoredDatabase,
    /// The shard-local catalog: global schema, **local** cardinalities
    /// and histograms. This is what makes per-shard arbitration differ —
    /// the same dynamic plan costed against different statistics.
    pub catalog: Catalog,
}

/// What one sharded query returns.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The merged result rows, in [`ShardOutcome::layout`] order.
    pub rows: Vec<Tuple>,
    /// Column layout of the result: the query's relations concatenated
    /// in `FROM` order (the canonical layout parity tests remap to).
    pub layout: TupleLayout,
    /// Result rows contributed by each shard.
    pub per_shard_rows: Vec<u64>,
    /// Each shard's choose-plan winners, `(node, alternative)` in the
    /// order its operators opened. A plan node has the same id on every
    /// shard, so winners are comparable across shards.
    pub winners: Vec<Vec<(u64, usize)>>,
    /// Plan nodes whose winning alternative differed between shards.
    pub divergent_nodes: Vec<u64>,
    /// Wire traffic of this query alone (cross-shard + gather frames):
    /// the sum of [`ShardOutcome::links`].
    pub net: NetStats,
    /// Per-link wire traffic of this query, in deterministic link order
    /// (stage by stage, then the gather links). Only links that carried
    /// at least one transmission appear.
    pub links: Vec<LinkTraffic>,
    /// Retryable failures absorbed across all shards (choose-plan
    /// fallbacks plus chunked-join degradations).
    pub fallbacks: u64,
    /// The merged distributed trace (coordinator + every shard + network
    /// exchange spans), present when [`ShardConfig::trace`] was set.
    pub trace: Option<TraceReport>,
}

/// One link's wire traffic for one query. Channels are created fresh per
/// query, so the channel counters *are* the query's per-link delta.
#[derive(Debug, Clone, Copy)]
pub struct LinkTraffic {
    /// Sending node (shards `0..n`; the coordinator is node `n`).
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// The link's traffic counters.
    pub stats: NetStats,
}

impl ShardOutcome {
    /// How often each alternative index won a per-shard arbitration.
    #[must_use]
    pub fn winner_counts(&self) -> BTreeMap<usize, u64> {
        let mut counts = BTreeMap::new();
        for &(_, w) in self.winners.iter().flatten() {
            *counts.entry(w).or_insert(0) += 1;
        }
        counts
    }

    /// Whether at least one choose node resolved differently on
    /// different shards.
    #[must_use]
    pub fn divergent(&self) -> bool {
        !self.divergent_nodes.is_empty()
    }
}

/// The distributed form of one parsed query: per-relation dynamic access
/// plans plus the repartitioning join chain gluing them together.
struct DistPlan {
    rels: Vec<RelationId>,
    access: Vec<Arc<Plan>>,
    joins: Vec<JoinStage>,
    order_by: Option<AttrId>,
}

/// One repartitioning join stage: the accumulated left side joins
/// `rels[index + 1]` on `left_attr = right_attr`; any further equi-join
/// predicates between the two sides apply as residual filters.
struct JoinStage {
    left_attr: AttrId,
    right_attr: AttrId,
    residual: Vec<(AttrId, AttrId)>,
}

/// Per-stage channel fan-out/fan-in of one shard. `None` marks the
/// shard's own slot (self-partitions never touch the wire).
struct StageWires {
    left_out: Vec<Option<NetChannel>>,
    left_in: Vec<Option<NetChannel>>,
    right_out: Vec<Option<NetChannel>>,
    right_in: Vec<Option<NetChannel>>,
}

struct ShardWires {
    stages: Vec<StageWires>,
    gather: NetChannel,
}

/// Accumulates the receive side of one link so a single receive span can
/// be recorded once the link drains: row/batch totals plus the first
/// propagated remote span id recovered from the frame headers.
#[derive(Default)]
struct RecvTrace {
    rows: u64,
    batches: u64,
    remote: Option<u64>,
}

impl RecvTrace {
    fn observe(&mut self, batch: &RowBatch, ft: FrameTrace) {
        self.rows += batch.len() as u64;
        self.batches += 1;
        if self.remote.is_none() {
            self.remote = ft.span;
        }
    }

    /// Records the receive span under `parent` when any frame arrived.
    /// Receive spans carry no byte accounting (the send side owns it, so
    /// totals never double count) — just the delivered rows and the
    /// propagated remote span.
    fn flush(&self, tracer: &Tracer, parent: Option<SpanId>, ch: &NetChannel) {
        if self.batches == 0 {
            return;
        }
        let span = tracer.span(
            format!("Net-Recv {}<-{}", ch.to_node(), ch.from_node()),
            "Net-Recv",
            None,
            None,
            parent,
            1,
        );
        tracer.merge_span(
            span,
            &SpanStats { rows: self.rows, batches: self.batches, ..SpanStats::default() },
        );
        tracer.set_net(
            span,
            NetSpanStats {
                from: ch.from_node(),
                to: ch.to_node(),
                sent: false,
                remote_span: self.remote,
                ..NetSpanStats::default()
            },
        );
    }
}

/// A sharded query service: `N` partitioned replicas joined by a
/// simulated repartitioning network, with per-shard bind-time
/// arbitration. See the module docs for the architecture.
pub struct ShardedService {
    catalog: Catalog,
    env: Environment,
    config: ShardConfig,
    shards: Vec<Shard>,
    net: SimNet,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ShardedService {
    /// Builds the service: generates every relation deterministically
    /// and loads each row, as it is drawn, onto the shard the routing
    /// names, with all indexes. The coordinator's statistics are
    /// histograms over the union of the shards' rows; each shard's catalog
    /// starts as a copy of them and then has its cardinalities *and*
    /// histograms refreshed from its partition alone.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size (misconfiguration, same contract as database generation).
    #[must_use]
    pub fn new(mut catalog: Catalog, config: ShardConfig) -> ShardedService {
        let shards = config.shards.max(1);
        let dist = config.skew.map_or(ValueDistribution::Uniform, |exponent| {
            ValueDistribution::Zipf { exponent }
        });
        // Skew only the selection attribute; join columns stay uniform so
        // estimation error is localized where the routing can see it.
        let profile = |_, ai| if ai == 0 { dist } else { ValueDistribution::Uniform };
        let dbs = StoredDatabase::generate_routed(
            &catalog,
            config.data_seed,
            profile,
            shards,
            |rel, row| config.routing.shard_of(rel, row, shards),
        );
        // Before the shard catalogs are cloned from it: a shard with no
        // rows of a relation keeps the coordinator's histogram.
        install_union_histograms(&dbs, &mut catalog, config.histogram_buckets)
            .unwrap_or_else(|e| unreachable!("fresh disk cannot fault: {e}"));
        let shards: Vec<Shard> = dbs
            .into_iter()
            .map(|db| {
                let mut local = catalog.clone();
                db.refresh_stats(&mut local);
                // Before the pacing: the histogram scan's reads are
                // accounted, so a paced disk would sleep through them.
                install_histograms(&db, &mut local, config.histogram_buckets)
                    .unwrap_or_else(|e| unreachable!("fresh disk cannot fault: {e}"));
                db.disk.set_io_latency_micros(config.io_latency_micros);
                Shard { db, catalog: local }
            })
            .collect();

        let net = SimNet::new(config.net.clone());
        let env = Environment::dynamic_compile_time(&catalog.config);
        ShardedService {
            catalog,
            env,
            config,
            shards,
            net,
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The coordinator's (global-statistics) catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shard replicas, for inspection in tests and benchmarks.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The metrics snapshot — the same schema the serving layer exports:
    /// sharded queries are sessions (completions, failures, latency, rows,
    /// fallbacks), and the `shard` section carries cross-shard traffic,
    /// winner counts and divergence.
    #[must_use]
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Parses, distributes, and executes one query across all shards.
    ///
    /// # Errors
    /// [`ServiceError::Sql`] / [`ServiceError::Optimizer`] /
    /// [`ServiceError::Bind`] for coordinator-side failures (an unknown
    /// host variable, a memory grant [`memory_grant_pages`] refuses);
    /// [`ServiceError::Exec`] when any shard fails (network faults past
    /// the retransmission budget included).
    pub fn execute(&self, sql: &str, binds: &[(&str, i64)]) -> Result<ShardOutcome, ServiceError> {
        let submitted = Instant::now();
        // The coordinator owns the query's trace id, traced or not; with
        // tracing on, its root span holds the query's phases and every
        // shard's subtree.
        let coord_tracer = self.config.trace.then(|| Arc::new(Tracer::new()));
        let trace_id = coord_tracer.as_ref().map_or_else(next_trace_id, |t| t.trace_id());
        let mut phases = Phases::start(coord_tracer.as_ref(), "Coordinator");
        phases.note(|| format!("x{}", self.shards.len()));
        phases.next("Parse");
        let query = parse_query(sql, &self.catalog).map_err(|e| ServiceError::Sql(e.to_string()))?;
        phases.next("Bind");
        let mut bindings = query.bindings(binds).map_err(ServiceError::Bind)?;
        if let Some(pages) = self.config.memory_pages {
            bindings = bindings.with_memory(memory_grant_pages(pages).map_err(ServiceError::Bind)?);
        }

        phases.next("Distribute");
        let plan = self.distribute(&query.expr, &query.predicates, query.order_by, &bindings)?;
        let outcome = self.run(&plan, &bindings, trace_id, coord_tracer.as_ref(), phases);
        let m = &self.metrics;
        m.add(Metric::ShardQueries, 1);
        m.record_query(
            outcome
                .as_ref()
                .map(|ok| (ok.rows.len() as u64, ok.fallbacks)),
            submitted.elapsed(),
            trace_id,
        );
        if let Ok(ok) = &outcome {
            for &(_, w) in ok.winners.iter().flatten() {
                m.add_winner(w);
            }
            m.add(Metric::ShardDivergentNodes, ok.divergent_nodes.len() as u64);
            m.add(Metric::NetBytes, ok.net.bytes);
            m.add(Metric::NetFrames, ok.net.frames);
            m.add(Metric::NetRetransmits, ok.net.retransmits);
        }
        outcome
    }

    /// Splits the query into per-relation dynamic access plans (optimized
    /// once, at the coordinator) and the join chain between them.
    fn distribute(
        &self,
        expr: &LogicalExpr,
        predicates: &[ParsedPredicate],
        order_by: Option<AttrId>,
        bindings: &Bindings,
    ) -> Result<DistPlan, ServiceError> {
        // The relations left to right: the order their `Get`s sit in the
        // table.
        let rels: Vec<RelationId> = expr
            .iter()
            .filter_map(|(_, node)| match node {
                LogicalNode::Get { relation } => Some(relation),
                _ => None,
            })
            .collect();

        let optimizer = Optimizer::new(&self.catalog, &self.env);
        let mut access = Vec::with_capacity(rels.len());
        for &rel in &rels {
            let mut node = LogicalExpr::get(rel);
            for pred in predicates {
                if let ParsedPredicate::Select(sp) = pred {
                    if sp.attr.relation == rel {
                        node = node.select(*sp);
                    }
                }
            }
            let mut plan = optimizer
                .optimize(&node)
                .map_err(|e| ServiceError::Optimizer(e.to_string()))?
                .plan;
            if self.config.force_uniform_winner {
                // The baseline: one global arbitration, broadcast resolved.
                plan = evaluate_startup(&plan, &self.catalog, &self.env, bindings).resolved;
            }
            access.push(plan);
        }

        let mut joins = Vec::with_capacity(rels.len().saturating_sub(1));
        for i in 1..rels.len() {
            let joined = &rels[..i];
            let next = rels[i];
            let mut applicable: Vec<(AttrId, AttrId)> = Vec::new();
            for pred in predicates {
                if let ParsedPredicate::Join(jp) = pred {
                    if joined.contains(&jp.left.relation) && jp.right.relation == next {
                        applicable.push((jp.left, jp.right));
                    } else if joined.contains(&jp.right.relation) && jp.left.relation == next {
                        applicable.push((jp.right, jp.left));
                    }
                }
            }
            let Some(&(left_attr, right_attr)) = applicable.first() else {
                return Err(ServiceError::Sql(format!(
                    "sharded execution needs an equi-join predicate connecting relation {next} \
                     to the preceding FROM relations (cross products are not distributed)"
                )));
            };
            joins.push(JoinStage {
                left_attr,
                right_attr,
                residual: applicable[1..].to_vec(),
            });
        }
        Ok(DistPlan { rels, access, joins, order_by })
    }

    /// Runs the distributed plan: one worker thread per shard, the
    /// coordinator draining the gather links on the current thread, in an
    /// `Execute` phase of the coordinator's trace. Every shard runs under
    /// the query's `trace_id`.
    fn run(
        &self,
        plan: &DistPlan,
        bindings: &Bindings,
        trace_id: u64,
        coord_tracer: Option<&Arc<Tracer>>,
        mut phases: Phases,
    ) -> Result<ShardOutcome, ServiceError> {
        let n = self.shards.len();
        let gather_span = phases.next("Execute");
        let (mut wires, gather_rx, link_handles) = self.wire_up(plan, n);
        let layout = canonical_layout(&self.catalog, &plan.rels);
        let width = layout.width();
        // Each shard's run: its own counters — CPU work and the trail of
        // what it decided, read here once the shards are done — under the
        // query's trace id. Traced, its tracer joins the coordinator's
        // trace, and everything it does — operators, sends, receives —
        // nests under one per-shard root span, which the merge re-parents
        // under the coordinator's root; untraced, it has no tracer at all.
        let runs: Vec<ExecContext> = (0..n)
            .map(|s| {
                let ctx = ExecContext::with_limits(SharedCounters::new(), self.config.limits)
                    .with_dop(self.config.dop)
                    .with_trace_id(trace_id);
                if coord_tracer.is_none() {
                    return ctx;
                }
                let tracer = Arc::new(Tracer::with_trace_id(trace_id));
                let span = tracer.span(format!("Shard {s}"), "Shard", None, None, None, ctx.dop);
                ctx.with_tracer(tracer).with_span_parent(span)
            })
            .collect();

        let (rows_out, per_shard) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for ((s, shard), ctx) in self.shards.iter().enumerate().zip(&runs) {
                let shard_wires = wires.remove(0);
                let env = &self.env;
                handles.push(scope.spawn(move || {
                    let result = run_shard(s, shard, plan, &shard_wires, env, bindings, ctx);
                    // Whatever happened, close every link of this shard
                    // (idempotent): closed out-links end its peers'
                    // receives, and closed in-links make its peers' sends
                    // to a dead shard fail fast.
                    for stage in &shard_wires.stages {
                        for ch in stage
                            .left_out
                            .iter()
                            .chain(&stage.left_in)
                            .chain(&stage.right_out)
                            .chain(&stage.right_in)
                            .flatten()
                        {
                            ch.close();
                        }
                    }
                    shard_wires.gather.close();
                    result
                }));
            }

            // The coordinator gathers while the shards run; draining one
            // link fully before the next keeps the merge deterministic.
            let mut per_shard: Vec<Result<Vec<RowBatch>, ExecError>> = Vec::with_capacity(n);
            for rx in &gather_rx {
                let mut batches = Vec::new();
                let drained =
                    drain_link(rx, width, &mut batches, coord_tracer.map(Arc::as_ref), gather_span);
                per_shard.push(drained.map(|()| batches));
            }
            let rows_out: Vec<Result<u64, ExecError>> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(ExecError::Network("shard worker panicked".into())))
                })
                .collect();
            (rows_out, per_shard)
        });

        let mut shard_rows = Vec::with_capacity(n);
        let mut gathered: Vec<Vec<RowBatch>> = Vec::with_capacity(n);
        for (s, (rows_out, batches)) in rows_out.into_iter().zip(per_shard).enumerate() {
            let rows_out = rows_out.map_err(ServiceError::Exec)?;
            let batches = batches.map_err(ServiceError::Exec)?;
            let rows = live_rows(&batches);
            check_gathered(s, rows, rows_out).map_err(ServiceError::Exec)?;
            shard_rows.push(rows);
            gathered.push(batches);
        }
        let winners: Vec<Vec<(u64, usize)>> = runs.iter().map(|r| r.counters.winners()).collect();
        let fallbacks = runs.iter().map(|r| r.counters.fallbacks()).sum();
        // The row budget is the query's: access stages and join stages are
        // intermediate results, so only the gathered total is charged.
        if let Some(limit) = self.config.limits.max_rows {
            if shard_rows.iter().sum::<u64>() > limit {
                return Err(ServiceError::Exec(ExecError::ResourceExhausted(Resource::Rows {
                    limit,
                })));
            }
        }
        let rows = materialize(&gathered, plan.order_by.map(|attr| layout.require(attr)));

        let mut winners_by_node: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        for &(node, w) in winners.iter().flatten() {
            winners_by_node.entry(node).or_default().insert(w);
        }
        let mut divergent_nodes = Vec::new();
        for (node, winners) in winners_by_node.into_iter().filter(|(_, w)| w.len() > 1) {
            let distinct = winners.len() as u64;
            journal().record(EventKind::ShardDivergence, trace_id, NO_ID, node, distinct, NO_ID);
            divergent_nodes.push(node);
        }

        // The one ledger: channels are created fresh per query, so each
        // channel's own counters are exactly this query's traffic on that
        // link, and the query's wire total is their sum.
        let links: Vec<LinkTraffic> = link_handles
            .iter()
            .map(|ch| LinkTraffic { from: ch.from_node(), to: ch.to_node(), stats: ch.stats() })
            .filter(|l| l.stats.frames > 0 || l.stats.bytes > 0)
            .collect();
        let net = links.iter().map(|l| l.stats).sum();

        // The merged timeline: the coordinator's spans (root, phases,
        // gather receives) plus every shard's report, re-parented under
        // the coordinator root.
        phases.finish();
        let trace = coord_tracer.map(|coord| {
            let shard_reports: Vec<TraceReport> =
                runs.iter().filter_map(|r| r.tracer.as_ref()).map(|t| t.report()).collect();
            merge_distributed(&coord.report(), &shard_reports)
        });

        Ok(ShardOutcome {
            rows,
            layout,
            per_shard_rows: shard_rows,
            winners,
            divergent_nodes,
            net,
            links,
            fallbacks,
            trace,
        })
    }

    /// Creates the full channel matrix: per join stage, a left-side and a
    /// right-side link for every ordered shard pair, plus one gather link
    /// per shard to the coordinator (node `n`).
    fn wire_up(
        &self,
        plan: &DistPlan,
        n: usize,
    ) -> (Vec<ShardWires>, Vec<NetChannel>, Vec<NetChannel>) {
        let mut wires: Vec<ShardWires> = (0..n)
            .map(|s| ShardWires {
                stages: (0..plan.joins.len())
                    .map(|_| StageWires {
                        left_out: (0..n).map(|_| None).collect(),
                        left_in: (0..n).map(|_| None).collect(),
                        right_out: (0..n).map(|_| None).collect(),
                        right_in: (0..n).map(|_| None).collect(),
                    })
                    .collect(),
                gather: self.net.channel(s, n, 0),
            })
            .collect();
        let gather_rx: Vec<NetChannel> = wires.iter().map(|w| w.gather.clone()).collect();
        // Keep a clone of every channel in deterministic order so the
        // coordinator can read per-link deltas after the query finishes.
        let mut links: Vec<NetChannel> = Vec::new();
        for j in 0..plan.joins.len() {
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        continue;
                    }
                    let left = self.net.channel(from, to, 0);
                    links.push(left.clone());
                    wires[to].stages[j].left_in[from] = Some(left.clone());
                    wires[from].stages[j].left_out[to] = Some(left);
                    let right = self.net.channel(from, to, 0);
                    links.push(right.clone());
                    wires[to].stages[j].right_in[from] = Some(right.clone());
                    wires[from].stages[j].right_out[to] = Some(right);
                }
            }
        }
        links.extend(gather_rx.iter().cloned());
        (wires, gather_rx, links)
    }
}

/// The result layout: the query's relations concatenated in `FROM`
/// order. The distributed join chain produces exactly this order on
/// every shard.
fn canonical_layout(catalog: &Catalog, rels: &[RelationId]) -> TupleLayout {
    let mut layout = TupleLayout::base(catalog, rels[0]);
    for &rel in &rels[1..] {
        layout = layout.concat(&TupleLayout::base(catalog, rel));
    }
    layout
}

/// Live rows across a set of batches.
fn live_rows(batches: &[RowBatch]) -> u64 {
    batches.iter().map(|b| b.len() as u64).sum()
}

/// A shard's gather link must deliver exactly the rows its worker
/// reported sending; anything else means frames were lost or duplicated
/// between a worker and the coordinator, and the result cannot be trusted.
fn check_gathered(shard: usize, gathered: u64, reported: u64) -> Result<(), ExecError> {
    if gathered == reported {
        return Ok(());
    }
    Err(ExecError::Network(format!(
        "gather lost frames: shard {shard} reported {reported} rows, {gathered} arrived"
    )))
}

/// The **one** place the sharded path turns columns into rows: builds
/// [`ShardOutcome::rows`] from the gathered batches, pre-sized from their
/// row count, one `row_vec` per result row — the per-shard runs k-way
/// merged on `order_key` when the query is ordered (ties resolve by shard
/// index, so the merge is fully deterministic), else concatenated in
/// shard order.
fn materialize(gathered: &[Vec<RowBatch>], order_key: Option<usize>) -> Vec<Tuple> {
    let total: u64 = gathered.iter().map(|run| live_rows(run)).sum();
    let mut rows = Vec::with_capacity(total as usize);
    match order_key {
        Some(key) => {
            let runs: Vec<&[RowBatch]> = gathered.iter().map(Vec::as_slice).collect();
            kway_merge(&runs, key, |_, batch, i| rows.push(batch.row_vec(i)));
        }
        None => {
            for batch in gathered.iter().flatten() {
                rows.extend(batch.iter());
            }
        }
    }
    rows
}

/// The body of one shard worker, run under the shard's `ctx`: local
/// access stages with shard-local arbitration, repartitioning joins,
/// optional local sort, gather. Returns the rows it gathered.
fn run_shard(
    s: usize,
    shard: &Shard,
    plan: &DistPlan,
    wires: &ShardWires,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
) -> Result<u64, ExecError> {
    let mut current = run_access(shard, &plan.access[0], env, bindings, ctx)?;
    let mut layout = TupleLayout::base(&shard.catalog, plan.rels[0]);

    for (j, stage) in plan.joins.iter().enumerate() {
        let right_rel = plan.rels[j + 1];
        let right_batches =
            run_access(shard, &plan.access[j + 1], env, bindings, ctx)?;
        let right_layout = TupleLayout::base(&shard.catalog, right_rel);
        let lkey = layout.require(stage.left_attr);
        let rkey = right_layout.require(stage.right_attr);

        let stage_wires = &wires.stages[j];
        let left_mine = repartition(
            s,
            current,
            layout.width(),
            lkey,
            &stage_wires.left_out,
            &stage_wires.left_in,
            ctx,
        )?;
        let right_mine = repartition(
            s,
            right_batches,
            right_layout.width(),
            rkey,
            &stage_wires.right_out,
            &stage_wires.right_in,
            ctx,
        )?;
        let mut joined = join_batches(
            (&left_mine, layout.width()),
            (&right_mine, right_layout.width()),
            &[(lkey, rkey)],
            ctx,
        )?;
        layout = layout.concat(&right_layout);
        if !stage.residual.is_empty() {
            // Further equi-predicates between the two sides qualify rows
            // through the selection vector; nothing is copied.
            let residual: Vec<(&[i64], &[i64])> = stage
                .residual
                .iter()
                .map(|&(la, ra)| {
                    (joined.column(layout.require(la)), joined.column(layout.require(ra)))
                })
                .collect();
            let keep = (0..joined.rows())
                .filter(|&i| residual.iter().all(|(l, r)| l[i] == r[i]))
                .map(|i| i as u32)
                .collect();
            joined.set_selection(keep);
        }
        current = vec![joined];
    }

    if let Some(attr) = plan.order_by {
        // The shard-local `ORDER BY`: the sort's in-memory kernel.
        current = vec![sort_batches(&current, layout.width(), layout.require(attr))];
    }

    let mut gather = FrameSender::new(&wires.gather, ctx);
    for batch in &current {
        gather.send(batch)?;
    }
    Ok(live_rows(&current))
}

/// Runs one per-relation access plan locally and hands back the batches
/// its root operator produced, selection vectors included. The plan still
/// carries its choose operators (unless the coordinator pre-resolved
/// them), so running it against the *shard's* catalog is what turns
/// bind-time arbitration into a per-shard decision — every choose-plan
/// operator that opens records its arbitration on the shard's trail. An access
/// stage is an intermediate result: a batch sink is not charged to the
/// row budget. It is a single-relation plan optimized without required
/// properties, so it has no blocking input a re-optimizing run could
/// checkpoint: access stages are not re-optimized.
fn run_access(
    shard: &Shard,
    plan: &Plan,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
) -> Result<Vec<RowBatch>, ExecError> {
    let mut batches = Vec::new();
    let sink = RootSink::Batches(&mut batches);
    dqep_executor::run(plan, &shard.db, &shard.catalog, env, bindings, ctx, sink)?;
    Ok(batches)
}

/// One repartitioning exchange: hash-scatters `batches` on column `key`
/// across all shards, sending cross-shard partitions as dense columnar
/// frames and keeping the self-partition resident. Returns this shard's
/// share — the frames its peers sent, in link order, then its own
/// partition — as batches. A send never waits for its receiver, so the
/// shard sends everything, closes its out-links (whether or not the sends
/// succeeded, so no peer waits on them), and only then receives: every
/// peer does the same, so every in-link closes. A shard without remote
/// peers owns every row already: no scatter. Frames carry `ctx`'s trace
/// id; traced, sends and receives nest under its span parent.
fn repartition(
    s: usize,
    batches: Vec<RowBatch>,
    width: usize,
    key: usize,
    outs: &[Option<NetChannel>],
    ins: &[Option<NetChannel>],
    ctx: &ExecContext,
) -> Result<Vec<RowBatch>, ExecError> {
    if outs.iter().all(Option::is_none) {
        return Ok(batches);
    }
    let sent = send_partitions(s, &batches, width, key, outs, ctx);
    for ch in outs.iter().flatten() {
        ch.close();
    }
    let local = sent?;
    let mut mine: Vec<RowBatch> = Vec::new();
    for ch in ins.iter().flatten() {
        drain_link(ch, width, &mut mine, ctx.tracer.as_deref(), ctx.span_parent)?;
    }
    mine.push(local);
    Ok(mine)
}

/// Receives one link until it closes, decoding each frame onto `into`.
/// Stops at the first frame that does not decode or whose width is not
/// the stage layout's `width` (the header is input: a narrower frame
/// would index out of range in the key column).
fn drain_link(
    ch: &NetChannel,
    width: usize,
    into: &mut Vec<RowBatch>,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<(), ExecError> {
    let mut recv = RecvTrace::default();
    let drained = loop {
        let Some(frame) = ch.recv() else { break Ok(()) };
        match decode_frame_traced(&frame) {
            Ok((batch, _)) if batch.width() != width => {
                break Err(ExecError::Network(format!(
                    "frame width mismatch on link {}->{}: {} columns, stage layout has {width}",
                    ch.from_node(),
                    ch.to_node(),
                    batch.width(),
                )));
            }
            Ok((batch, ft)) => {
                recv.observe(&batch, ft);
                into.push(batch);
            }
            Err(e) => break Err(e),
        }
    };
    if let Some(tracer) = tracer {
        recv.flush(tracer, parent, ch);
    }
    drained
}

/// Scatter-and-send half of [`repartition`]: routes each input batch with
/// the multiply-xor kernel straight into the per-destination batches,
/// flushes a remote destination as frames once it holds a frame's worth,
/// and returns the self-partition, which never leaves its batch.
/// Destination batches are pre-sized from the expected per-shard share.
fn send_partitions(
    s: usize,
    batches: &[RowBatch],
    width: usize,
    key: usize,
    outs: &[Option<NetChannel>],
    ctx: &ExecContext,
) -> Result<RowBatch, ExecError> {
    let shards = outs.len();
    let per_shard = (live_rows(batches) / shards.max(1) as u64).max(1);
    let mut dest: Vec<RowBatch> = (0..shards)
        .map(|t| {
            if t == s {
                RowBatch::with_capacity(width, per_shard as usize)
            } else {
                presized_batch(width, Some(per_shard))
            }
        })
        .collect();
    let mut senders: Vec<Option<FrameSender<'_>>> = outs
        .iter()
        .map(|out| out.as_ref().map(|ch| FrameSender::new(ch, ctx)))
        .collect();
    let (mut hashes, mut dests) = (Vec::new(), Vec::new());
    for batch in batches {
        scatter_by_shard(batch, &[key], &mut dest, &mut hashes, &mut dests);
        for (sender, out) in senders.iter_mut().zip(&mut dest) {
            if let Some(sender) = sender {
                if out.rows() >= BATCH_CAPACITY {
                    sender.send(out)?;
                    out.clear();
                }
            }
        }
    }
    for (sender, out) in senders.iter_mut().zip(&dest) {
        if let Some(sender) = sender {
            sender.send(out)?;
        }
    }
    Ok(std::mem::take(&mut dest[s]))
}

/// The send half of one link: turns batches into dense frames stamped
/// with the run's trace id, traced under one lazily opened `Net-Send`
/// span.
struct FrameSender<'a> {
    ch: &'a NetChannel,
    trace_id: u64,
    tracer: Option<&'a Tracer>,
    parent: Option<SpanId>,
    /// Opened at the first frame, so the span id can ride in every frame
    /// header and an idle link records nothing.
    span: Option<SpanId>,
}

impl<'a> FrameSender<'a> {
    /// A sender for `ctx`'s run: its trace id, its tracer and its span
    /// parent.
    fn new(ch: &'a NetChannel, ctx: &'a ExecContext) -> FrameSender<'a> {
        let (trace_id, tracer, parent) = (ctx.trace_id(), ctx.tracer.as_deref(), ctx.span_parent);
        FrameSender { ch, trace_id, tracer, parent, span: None }
    }

    /// Sends the live rows of `batch`. Frames are dense — a selection
    /// vector is compacted away by the encoder, so a filtered batch does
    /// not inflate wire bytes — and hold [`BATCH_CAPACITY`] rows each,
    /// the last one taking the remainder (under two frames' worth), so a
    /// frame's size is bounded however large the batch and no link
    /// carries a runt.
    fn send(&mut self, batch: &RowBatch) -> Result<(), ExecError> {
        let live = batch.len();
        let mut lo = 0;
        while lo < live {
            let hi = if live - lo < 2 * BATCH_CAPACITY { live } else { lo + BATCH_CAPACITY };
            let span = self.tracer.map(|tracer| {
                *self.span.get_or_insert_with(|| {
                    tracer.span(
                        format!("Net-Send {}->{}", self.ch.from_node(), self.ch.to_node()),
                        "Net-Send",
                        None,
                        None,
                        self.parent,
                        1,
                    )
                })
            });
            let trace = FrameTrace {
                trace_id: self.trace_id,
                span: span.map(|sp| sp.0 as u64),
            };
            self.ch.send(encode_frame_dense(batch, lo..hi, trace))?;
            lo = hi;
        }
        Ok(())
    }
}

impl Drop for FrameSender<'_> {
    /// Whatever happened — including a send that exhausted its
    /// retransmission budget — the opened span carries the channel's own
    /// counters: each channel has exactly one sender and lives for one
    /// query, so its counters are the span's traffic.
    fn drop(&mut self) {
        if let (Some(tracer), Some(span)) = (self.tracer, self.span) {
            let net = NetSpanStats {
                from: self.ch.from_node(),
                to: self.ch.to_node(),
                sent: true,
                stats: self.ch.stats(),
                remote_span: None,
            };
            tracer.set_net(span, net);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Hist;
    use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};
    use dqep_executor::LinkFaultPlan;
    use dqep_storage::IoStats;

    fn chain_sql(n: usize) -> String {
        let from: Vec<String> = (1..=n).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> =
            (1..n).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
        preds.extend((1..=n).map(|i| format!("R{i}.a < :v{i}")));
        format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
    }

    fn catalog(relations: usize) -> Catalog {
        make_chain_catalog(&SyntheticSpec::paper(relations, 7), SystemConfig::paper_1994())
    }

    fn single_node_rows(relations: usize, binds: &[(&str, i64)], sql: &str) -> Vec<Tuple> {
        // The single-node baseline: one shard holds every row the
        // service generates.
        let svc = ShardedService::new(
            catalog(relations),
            ShardConfig { shards: 1, ..ShardConfig::default() },
        );
        svc.execute(sql, binds).expect("single shard executes").rows
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn partitions_cover_the_data_exactly() {
        let shards = 4;
        for routing in [ShardRouting::Hash, ShardRouting::Range] {
            let config = ShardConfig { shards, routing, ..ShardConfig::default() };
            let svc = ShardedService::new(catalog(2), config);
            for rel in svc.catalog().relations() {
                let total: u64 = svc
                    .shards()
                    .iter()
                    .map(|s| s.db.table(rel.id).heap.record_count())
                    .sum();
                assert_eq!(total, rel.stats.cardinality, "{routing:?} {}", rel.name);
                let domain = rel.attributes[0].domain_size.max(1.0);
                for (d, shard) in svc.shards().iter().enumerate() {
                    // Shard-local catalogs hold the partition's
                    // cardinality, and histograms over its own rows.
                    let rows = shard.db.table(rel.id).heap.record_count();
                    assert!(rows > 0, "{routing:?} {} shard {d} is empty", rel.name);
                    assert_eq!(shard.catalog.relation(rel.id).stats.cardinality, rows);
                    for index in 0..rel.attributes.len() as u32 {
                        let attr = AttrId { relation: rel.id, index };
                        let h = shard.catalog.histogram(attr).expect("installed");
                        let what = format!("{routing:?} {} shard {d} attr {index}", rel.name);
                        assert_eq!(h.total(), rows, "{what}");
                        if let (ShardRouting::Range, 0) = (routing, index) {
                            // Routing is monotone in the value: both ends
                            // of the range in the stripe put all of it there.
                            let stripe = |v: i64| {
                                ((v.max(0) as f64 * shards as f64 / domain) as usize).min(shards - 1)
                            };
                            let (lo, hi) = h.range();
                            assert_eq!((stripe(lo), stripe(hi)), (d, d), "{what}: [{lo}, {hi}]");
                        }
                    }
                }
            }
        }
    }

    /// The shards are loaded, not copied: under hash and range routing,
    /// on a power-of-two shard count (the mask) and on three (the divide),
    /// each shard holds, per relation and in generation order, exactly
    /// the rows of the one generated database that route to it; the
    /// coordinator's histograms are the ones that database yields; and no
    /// shard's disk has counted any I/O before its first query.
    #[test]
    fn shards_hold_the_generated_rows_that_route_to_them() {
        let catalog = catalog(2);
        for routing in [ShardRouting::Hash, ShardRouting::Range] {
            for shards in [1usize, 3, 4] {
                let config = ShardConfig {
                    shards,
                    routing,
                    skew: Some(1.2),
                    ..ShardConfig::default()
                };
                let buckets = config.histogram_buckets;
                let svc = ShardedService::new(catalog.clone(), config.clone());
                let zipf = ValueDistribution::Zipf { exponent: 1.2 };
                let db = StoredDatabase::generate_profiled(&catalog, config.data_seed, |_, ai| {
                    if ai == 0 {
                        zipf
                    } else {
                        ValueDistribution::Uniform
                    }
                });
                let mut global = catalog.clone();
                install_histograms(&db, &mut global, buckets).expect("histograms");
                let rows = db.export_rows();
                let exported: Vec<_> = svc.shards().iter().map(|s| s.db.export_rows()).collect();
                for rel in catalog.relations() {
                    let what = format!("{routing:?} {shards} shards {}", rel.name);
                    // Routed independently of the load: the exchange's
                    // batched kernel, or the range stripes.
                    let mut batch = RowBatch::with_capacity(rel.attributes.len(), 1);
                    rows[&rel.id].iter().for_each(|row| batch.push_row(row));
                    let dests: Vec<usize> = match routing {
                        ShardRouting::Hash => {
                            let (mut hashes, mut dests) = (Vec::new(), Vec::new());
                            dqep_executor::shard_route(
                                &batch,
                                &[0],
                                shards,
                                &mut hashes,
                                &mut dests,
                            );
                            dests.into_iter().map(|d| d as usize).collect()
                        }
                        ShardRouting::Range => {
                            let domain = rel.attributes[0].domain_size;
                            batch
                                .column(0)
                                .iter()
                                .map(|&v| {
                                    ((v as f64 * shards as f64 / domain) as usize).min(shards - 1)
                                })
                                .collect()
                        }
                    };
                    for (d, shard) in exported.iter().enumerate() {
                        let expect: Vec<&Vec<i64>> = rows[&rel.id]
                            .iter()
                            .zip(&dests)
                            .filter_map(|(row, &to)| (to == d).then_some(row))
                            .collect();
                        let got: Vec<&Vec<i64>> = shard[&rel.id].iter().collect();
                        assert_eq!(got, expect, "{what}: shard {d}");
                    }
                    for index in 0..rel.attributes.len() as u32 {
                        let attr = AttrId {
                            relation: rel.id,
                            index,
                        };
                        assert_eq!(
                            svc.catalog().histogram(attr),
                            global.histogram(attr),
                            "{what}: attr {index}"
                        );
                    }
                }
                for (d, shard) in svc.shards().iter().enumerate() {
                    assert_eq!(
                        shard.db.disk.stats(),
                        IoStats::default(),
                        "{routing:?} shard {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_join_matches_single_node_multiset() {
        let sql = chain_sql(2);
        let binds = [("v1", 600i64), ("v2", 600i64)];
        let baseline = single_node_rows(2, &binds, &sql);
        for shards in [2usize, 4] {
            let svc = ShardedService::new(
                catalog(2),
                ShardConfig { shards, ..ShardConfig::default() },
            );
            let out = svc.execute(&sql, &binds).expect("sharded run");
            assert_eq!(
                sorted(out.rows.clone()),
                sorted(baseline.clone()),
                "{shards} shards"
            );
            assert_eq!(out.per_shard_rows.len(), shards);
            if shards > 1 {
                assert!(out.net.frames > 0, "joins repartition over the wire");
                assert!(out.net.bytes > 0);
            }
        }
    }

    /// `max_rows` bounds what the coordinator gathers: one row under the
    /// result refuses the query (exit 5 on the command line), the result
    /// itself fits.
    #[test]
    fn row_budget_is_charged_to_the_gathered_result() {
        let sql = chain_sql(2);
        let binds = [("v1", 500i64), ("v2", 500i64)];
        let run = |max_rows| {
            let limits = ResourceLimits { max_rows, ..ResourceLimits::unlimited() };
            ShardedService::new(catalog(2), ShardConfig { limits, ..ShardConfig::default() })
                .execute(&sql, &binds)
        };
        let rows = run(None).expect("unlimited").rows.len() as u64;
        assert!(rows > 1, "the budget needs a result to bite on");
        let limit = rows - 1;
        assert_eq!(
            run(Some(limit)).expect_err("one row over the budget"),
            ServiceError::Exec(ExecError::ResourceExhausted(Resource::Rows { limit }))
        );
        assert_eq!(run(Some(rows)).expect("the result fits").rows.len() as u64, rows);
    }

    #[test]
    fn order_by_merges_order_preservingly() {
        let sql = format!("{} ORDER BY R1.a", chain_sql(2));
        let binds = [("v1", 500i64), ("v2", 500i64)];
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig { shards: 3, ..ShardConfig::default() },
        );
        let out = svc.execute(&sql, &binds).expect("sorted run");
        let key = out.layout.require(
            svc.catalog().relation_by_name("R1").expect("R1").attr_id("a").expect("a"),
        );
        assert!(out.rows.windows(2).all(|w| w[0][key] <= w[1][key]), "globally ordered");
        assert_eq!(
            sorted(out.rows.clone()),
            sorted(single_node_rows(2, &binds, &sql))
        );
    }

    #[test]
    fn per_shard_winners_are_recorded() {
        let svc = ShardedService::new(
            catalog(1),
            ShardConfig { shards: 2, ..ShardConfig::default() },
        );
        let sql = "SELECT * FROM R1 WHERE R1.a < :v1";
        let out = svc.execute(sql, &[("v1", 30)]).expect("runs");
        assert_eq!(out.winners.len(), 2);
        assert!(out.winners.iter().all(|w| !w.is_empty()), "every shard arbitrated");
        assert!(!out.winner_counts().is_empty(), "winners counted");
        // Tracing adds the audits; the winners were recorded without it.
        let traced = ShardedService::new(
            catalog(1),
            ShardConfig { shards: 2, trace: true, ..ShardConfig::default() },
        )
        .execute(sql, &[("v1", 30)])
        .expect("runs");
        assert_eq!(traced.winners, out.winners);
        let trace = traced.trace.expect("traced");
        let audited: Vec<(u64, usize)> = trace
            .outcomes()
            .iter()
            .map(|(a, outcome)| (a.node, outcome.and_then(|(w, _)| w).expect("resolved")))
            .collect();
        assert_eq!(audited, out.winners.concat());
    }

    #[test]
    fn link_faults_within_budget_preserve_results() {
        let sql = chain_sql(2);
        let binds = [("v1", 700i64), ("v2", 700i64)];
        let baseline = single_node_rows(2, &binds, &sql);
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                net: NetConfig {
                    link_faults: LinkFaultPlan {
                        fail_nth_frames: vec![1, 2],
                        max_retransmits: 4,
                    },
                },
                ..ShardConfig::default()
            },
        );
        let out = svc.execute(&sql, &binds).expect("faults absorbed");
        assert_eq!(sorted(out.rows.clone()), sorted(baseline));
        assert!(out.net.retransmits > 0, "drops were retransmitted");
    }

    /// A dropped frame is journaled under the trace id its own header
    /// carries, so the journal joins each link fault to the query that
    /// sent the frame: one event per retransmission.
    #[test]
    fn link_faults_are_journaled_under_the_query_that_sent_them() {
        let link_faults = LinkFaultPlan::parse("nth-frame=1").expect("plan");
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                net: NetConfig { link_faults },
                trace: true,
                ..ShardConfig::default()
            },
        );
        let cursor = journal().cursor();
        let out = svc.execute(&chain_sql(2), &[("v1", 700), ("v2", 700)]).expect("faults absorbed");
        let trace_id = out.trace.as_ref().expect("traced").trace_id;
        let faults = journal()
            .events_since(cursor)
            .iter()
            .filter(|e| e.kind == EventKind::LinkFault && e.trace == trace_id)
            .count() as u64;
        assert!(out.net.retransmits > 0, "every link dropped its first frame");
        assert_eq!(faults, out.net.retransmits);
    }

    #[test]
    fn exhausted_retransmission_budget_fails_the_query() {
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                net: NetConfig {
                    link_faults: LinkFaultPlan {
                        fail_nth_frames: vec![1, 1, 1],
                        max_retransmits: 1,
                    },
                },
                ..ShardConfig::default()
            },
        );
        let err = svc
            .execute(&chain_sql(2), &[("v1", 900), ("v2", 900)])
            .expect_err("budget exhausted");
        assert!(
            matches!(err, ServiceError::Exec(ExecError::Network(_))),
            "{err:?}"
        );
    }

    #[test]
    fn range_routing_with_skew_diverges_winners() {
        let svc = ShardedService::new(
            catalog(1),
            ShardConfig {
                shards: 4,
                routing: ShardRouting::Range,
                skew: Some(1.2),
                ..ShardConfig::default()
            },
        );
        // A selective predicate: shards with almost no matching rows
        // favour the index path, the bulk shard favours the scan.
        let out = svc
            .execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 40)])
            .expect("runs");
        assert!(
            out.divergent(),
            "skewed range partitions should disagree: {:?}",
            out.winner_counts()
        );
        // Forcing the global winner removes the divergence.
        let forced = ShardedService::new(
            catalog(1),
            ShardConfig {
                shards: 4,
                routing: ShardRouting::Range,
                skew: Some(1.2),
                force_uniform_winner: true,
                ..ShardConfig::default()
            },
        );
        let fout = forced
            .execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 40)])
            .expect("runs");
        assert!(!fout.divergent(), "resolved broadcast cannot diverge");
        assert_eq!(sorted(out.rows), sorted(fout.rows), "same result either way");
    }

    /// Sharded queries are sessions: each records its latency, rows and
    /// absorbed fallbacks into the registry beside the `shard` counters; a
    /// failed one counts as failed and nothing else; a statement that does
    /// not parse never became a query.
    #[test]
    fn sharded_queries_record_session_and_shard_metrics() {
        let limits = ResourceLimits {
            memory_bytes: Some(2000),
            ..ResourceLimits::unlimited()
        };
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                limits,
                ..ShardConfig::default()
            },
        );
        let outcomes: Vec<ShardOutcome> = [300, 500, 900]
            .iter()
            .map(|&v| {
                svc.execute(&chain_sql(2), &[("v1", v), ("v2", 900)])
                    .expect("runs")
            })
            .collect();
        assert!(matches!(
            svc.execute("SELECT * FROM nosuch", &[]),
            Err(ServiceError::Sql(_))
        ));
        let m = svc.metrics();
        assert_eq!(m.get(Metric::ShardQueries), 3);
        assert_eq!((m.get(Metric::Completed), m.get(Metric::Failed)), (3, 0));
        assert_eq!(m.hist(Hist::Latency).count, 3);
        assert!(m.hist(Hist::Latency).max_seconds > 0.0);
        assert_eq!(
            m.get(Metric::Rows),
            outcomes.iter().map(|o| o.rows.len() as u64).sum::<u64>()
        );
        let fallbacks: u64 = outcomes.iter().map(|o| o.fallbacks).sum();
        assert!(
            fallbacks > 0,
            "the 2000-byte grant must force the chunked build somewhere"
        );
        assert_eq!(m.get(Metric::Fallbacks), fallbacks);
        assert_eq!(
            m.get(Metric::NetBytes),
            outcomes.iter().map(|o| o.net.bytes).sum::<u64>()
        );
        assert!(m.get(Metric::NetFrames) > 0);
        assert!(m.winners().iter().sum::<u64>() > 0);

        // Link faults are configured once, with the network: the failing
        // half runs on a second service whose every link drops its first
        // frame with no retransmission budget.
        let link_faults = LinkFaultPlan::parse("nth-frame=1,max-retransmit=0").expect("plan");
        let faulty = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                limits,
                net: NetConfig { link_faults },
                ..ShardConfig::default()
            },
        );
        assert!(faulty
            .execute(&chain_sql(2), &[("v1", 500), ("v2", 500)])
            .is_err());
        let m = faulty.metrics();
        assert_eq!(m.get(Metric::ShardQueries), 1);
        assert_eq!((m.get(Metric::Completed), m.get(Metric::Failed)), (0, 1));
        assert_eq!(m.get(Metric::RefusedLinkFault), 1);
        assert_eq!(m.hist(Hist::Latency).count, 0, "failures record no latency");
        assert_eq!(m.get(Metric::NetBytes), 0, "a failed query adds no traffic");
    }

    /// A query's wire traffic is what its own channels carried, however
    /// many queries share the service: two threads released together run
    /// the same join twenty times each, and every outcome reports the
    /// bytes, frames and retransmits of its own links — the same as a run
    /// with the service to itself. The metrics add exactly those.
    #[test]
    fn concurrent_queries_count_only_their_own_wire_traffic() {
        let sql = chain_sql(2);
        let binds = [("v1", 900i64), ("v2", 900i64)];
        let wire = |n: &NetStats| (n.bytes, n.frames, n.retransmits);
        let alone = ShardedService::new(catalog(2), ShardConfig::default())
            .execute(&sql, &binds)
            .expect("runs");
        let svc = ShardedService::new(catalog(2), ShardConfig::default());
        let barrier = std::sync::Barrier::new(2);
        let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..20)
                            .map(|_| {
                                barrier.wait();
                                svc.execute(&sql, &binds).expect("runs")
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client")).collect()
        });
        assert_eq!(outcomes.len(), 40);
        for (i, out) in outcomes.iter().enumerate() {
            let links = out.links.iter().fold((0, 0, 0), |(b, f, r), l| {
                (b + l.stats.bytes, f + l.stats.frames, r + l.stats.retransmits)
            });
            assert_eq!(wire(&out.net), links, "outcome {i}: its own links");
            assert_eq!(wire(&out.net), wire(&alone.net), "outcome {i}: a run alone");
        }
        assert_eq!(
            svc.metrics().get(Metric::NetBytes),
            outcomes.iter().map(|o| o.net.bytes).sum::<u64>()
        );
    }

    fn batch_of(width: usize, rows: &[&[i64]]) -> RowBatch {
        let mut batch = RowBatch::with_capacity(width, rows.len());
        rows.iter().for_each(|row| batch.push_row(row));
        batch
    }

    #[test]
    fn materialize_merges_ordered_gathers_and_concatenates_the_rest() {
        let mut filtered = batch_of(2, &[&[0, 99], &[1, 10], &[3, 98]]);
        filtered.set_selection(vec![1]);
        let gathered = vec![
            vec![filtered, batch_of(2, &[&[4, 11]])],
            vec![batch_of(2, &[&[2, 20]])],
            vec![],
            vec![batch_of(2, &[]), batch_of(2, &[&[2, 30], &[9, 31]])],
        ];
        // Ordered: merged on the key, ties by shard index.
        assert_eq!(
            materialize(&gathered, Some(0)),
            vec![vec![1, 10], vec![2, 20], vec![2, 30], vec![4, 11], vec![9, 31]]
        );
        // Unordered gathers concatenate in shard order, live rows only.
        let concat: Vec<i64> = materialize(&gathered, None).iter().map(|r| r[1]).collect();
        assert_eq!(concat, vec![10, 11, 20, 30, 31]);
    }

    #[test]
    fn a_gather_that_lost_rows_is_a_network_error() {
        assert!(check_gathered(0, 10, 10).is_ok());
        for (gathered, reported) in [(9, 10), (11, 10), (0, 1)] {
            let err = check_gathered(1, gathered, reported).expect_err("mismatch");
            assert!(
                matches!(&err, ExecError::Network(m) if m.contains("gather lost frames")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_frame_narrower_than_the_stage_layout_is_rejected() {
        let net = SimNet::new(NetConfig::default());
        let ch = net.channel(1, 0, 0);
        // A hand-built frame: header says one column, the stage has two.
        let mut narrow = Vec::new();
        for word in [1u32, 2, u32::MAX] {
            narrow.extend_from_slice(&word.to_le_bytes());
        }
        narrow.extend_from_slice(&0u64.to_le_bytes());
        narrow.extend_from_slice(&u32::MAX.to_le_bytes());
        for v in [7i64, 8] {
            narrow.extend_from_slice(&v.to_le_bytes());
        }
        let good = batch_of(2, &[&[1, 2]]);
        ch.send(encode_frame_dense(&good, 0..1, FrameTrace::default())).expect("send");
        ch.send(narrow).expect("send");
        ch.send(encode_frame_dense(&good, 0..1, FrameTrace::default())).expect("send");
        ch.close();

        let mut into = Vec::new();
        let err = drain_link(&ch, 2, &mut into, None, None).expect_err("the narrow frame is refused");
        assert!(
            matches!(&err, ExecError::Network(m) if m.contains("frame width mismatch")),
            "{err:?}"
        );
        assert_eq!(into.len(), 1, "frames before the bad one were kept, later ones dropped");
    }

    #[test]
    fn frames_are_dense_and_cut_without_runts() {
        let net = SimNet::new(NetConfig::default());
        let (ch, ctx) = (net.channel(0, 1, 0), ExecContext::new(SharedCounters::new()));
        let rows = 3 * BATCH_CAPACITY + 10;
        let mut batch = RowBatch::with_capacity(2, rows);
        (0..rows as i64).for_each(|v| batch.push_row(&[v, -v]));
        // Every other row is dead: only live rows may reach the wire.
        batch.set_selection((0..rows as u32).step_by(2).collect());
        let live = batch.len();
        FrameSender::new(&ch, &ctx).send(&batch).expect("send");
        ch.close();
        let mut got = Vec::new();
        drain_link(&ch, 2, &mut got, None, None).expect("drained");
        assert_eq!(got.len(), 1, "under two frames' worth of live rows is one frame");
        assert_eq!(live_rows(&got), live as u64);
        assert_eq!(
            ch.stats().bytes as usize,
            dqep_executor::FRAME_HEADER_BYTES + live * 2 * 8,
            "header plus live rows only"
        );

        // A large dense batch is cut into capacity-sized frames, the
        // last one taking the remainder.
        let ch = net.channel(0, 1, 0);
        batch.clear();
        (0..rows as i64).for_each(|v| batch.push_row(&[v, -v]));
        FrameSender::new(&ch, &ctx).send(&batch).expect("send");
        ch.close();
        let mut got = Vec::new();
        drain_link(&ch, 2, &mut got, None, None).expect("drained");
        let sizes: Vec<usize> = got.iter().map(RowBatch::rows).collect();
        assert_eq!(sizes, vec![BATCH_CAPACITY, BATCH_CAPACITY, BATCH_CAPACITY + 10]);
        let firsts: Vec<i64> = got.iter().map(|b| b.column(0)[0]).collect();
        assert_eq!(firsts, vec![0, BATCH_CAPACITY as i64, 2 * BATCH_CAPACITY as i64]);
    }

    /// Two shards repartition 70 000 rows each at once, each on its own
    /// thread over `SimNet` links: every cross link carries more than 32
    /// frames, and each shard sends all of them before it receives. Both
    /// finish, and every row arrives exactly once, on the shard its key
    /// routes to.
    #[test]
    fn repartition_on_two_threads_delivers_every_row_to_its_shard() {
        const ROWS: i64 = 70_000;
        let net = SimNet::new(NetConfig::default());
        // links[from][to]: `None` on the diagonal, as in `wire_up`.
        let links: Vec<Vec<Option<NetChannel>>> = (0..2)
            .map(|from| (0..2).map(|to| (from != to).then(|| net.channel(from, to, 0))).collect())
            .collect();
        let shares: Vec<Vec<RowBatch>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2usize)
                .map(|s| {
                    let outs = links[s].clone();
                    let ins: Vec<Option<NetChannel>> =
                        links.iter().map(|row| row[s].clone()).collect();
                    scope.spawn(move || {
                        // One batch, as a join stage hands on its result.
                        // Column 0 is the key, column 1 the row's identity.
                        let mut batch = RowBatch::with_capacity(2, ROWS as usize);
                        for i in 0..ROWS {
                            batch.push_row(&[i * 7 % 1_000, s as i64 * ROWS + i]);
                        }
                        let ctx = ExecContext::new(SharedCounters::new());
                        repartition(s, vec![batch], 2, 0, &outs, &ins, &ctx)
                            .expect("repartition")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("shard")).collect()
        });
        for from in 0..2 {
            let link = links[from][1 - from].as_ref().expect("cross link");
            assert!(link.stats().frames > 32, "{from}->{}: {:?}", 1 - from, link.stats());
        }
        let mut seen = vec![0u8; 2 * ROWS as usize];
        let (mut hashes, mut dests) = (Vec::new(), Vec::new());
        for (s, share) in shares.iter().enumerate() {
            for batch in share {
                dqep_executor::shard_route(batch, &[0], 2, &mut hashes, &mut dests);
                assert!(dests.iter().all(|&d| d as usize == s), "a row on the wrong shard");
                for phys in batch.selected_indices() {
                    seen[batch.column(1)[phys] as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "every row exactly once");
    }
}
