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
//! **One trace.** A traced query ([`ShardConfig::trace`]) has one tracer,
//! and the coordinator's run and every shard's are attached to it. Each
//! run keeps its spans on its own trail, with ids drawn from the tracer's
//! one counter: the coordinator's root holds the query's phases, each
//! shard's `Shard` span opens under that root, and everything a shard does
//! nests under its `Shard` span. Frame headers carry the send span's id,
//! so a receive span names its send span as it stands. The spans form one
//! tree as they are recorded; [`ShardOutcome::trace`] is the tracer's
//! report of it, and nothing is merged or renumbered.
//!
//! Joins run as hash-repartitioning exchange stages: both sides are
//! routed with the batched multiply-xor kernel
//! ([`dqep_executor::shard_route`]) on the join key, so co-partitioning
//! is guaranteed by construction and the union of shard-local joins is
//! exactly the global join. Batches travel as columnar frames over a
//! simulated network ([`SimNet`]) with deterministic fault injection;
//! every byte is accounted on the query's own channels. A link is a plain
//! queue and a join needs all of its input, so a query runs in steps on
//! the calling thread, each on every shard before the next: every shard
//! sends both sides of a stage, then every shard joins what its in-links
//! hold. The query stops at its first failed step with that step's first
//! error in shard order. Only the sleeps of disks that pace I/O are
//! overlapped, on a thread per shard and step. The gather merges
//! order-preservingly (k-way merge by the `ORDER BY` column) or
//! concatenates in shard order.
//!
//! **Batches end to end.** [`RowBatch`] is the only currency of the data
//! path, and both ends of a link are engine parts: a [`LinkSink`] cuts the
//! batches a shard sends into frames by one rule that depends only on the
//! rows, and a [`LinkScanExec`] leaf hands out the frames of a shard's
//! in-links, then the rows it kept. Every step drains an operator tree
//! with [`drain_root`]: an access plan; a [`HashJoinExec`] over two link
//! leaves, every equi-predicate of the stage a key; in the gather step the
//! last join under `ORDER BY`'s [`SortExec`] — each with the memory grant
//! a single node's would have. Rows exist in exactly one place:
//! [`ShardOutcome::rows`], built once by the coordinator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{LogicalExpr, LogicalNode};
use dqep_catalog::{AttrId, Catalog, Relation, RelationId};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    drain_root, hash_key, journal, kway_merge, next_trace_id, run_parallel, scatter_by_shard,
    traced_operator, BoxedOperator, CpuCounters, EventKind, ExecContext, ExecError, HashJoinExec,
    LinkScanExec, LinkSink, NetChannel, NetConfig, NetStats, Phases, Resource, ResourceLimits,
    RootSink, RowBatch, SharedCounters, SimNet, SortExec, TraceReport, Tracer, Tuple, TupleLayout,
    BATCH_CAPACITY, NO_ID,
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
    /// Intra-shard degree of parallelism for local access plans: morsel
    /// workers for each file scan, on threads only when
    /// `io_latency_micros` paces the shard's disk.
    pub dop: usize,
    /// Resource budgets. Memory, I/O and wall clock are per shard (each
    /// shard gets its own governor). The memory limit is a hard cap: a
    /// shard's join build or sort it refuses fails the query with
    /// [`Resource::Memory`], as a single node's does. `max_rows` is per
    /// query: it bounds the rows the coordinator gathers, and a query over
    /// it fails with [`Resource::Rows`]. Access and join stages are
    /// intermediate results and are not charged.
    pub limits: ResourceLimits,
    /// Simulated per-page I/O latency on every shard's disk, µs. Above 0,
    /// the shards take each step of a query on threads of their own, so
    /// that their sleeps overlap; the query does the same work, and fails
    /// with the same error, either way.
    pub io_latency_micros: u64,
    /// Seed of the deterministic data generation the shards are loaded
    /// from (the rows `StoredDatabase::generate_profiled` draws).
    pub data_seed: u64,
    /// Zipf exponent applied to the *selection* attribute (index 0) of
    /// every relation; join attributes stay uniform. `None`: uniform.
    pub skew: Option<f64>,
    /// Memory grant in pages for bind-time arbitration and for each
    /// shard's join and sort. Each shard arbitrates and executes under
    /// this grant independently — a shard is its own node: a join whose
    /// build exceeds it partitions to temp pages (Grace), and a sort past
    /// it spills runs, as a single node's do at that grant. `None`: the
    /// environment's expected grant for arbitration, and an unbounded
    /// join and sort.
    pub memory_pages: Option<f64>,
    /// Resolve every choose-plan at the coordinator against the global
    /// statistics and broadcast the resolved plan — the "single-node
    /// winner everywhere" baseline. Default `false`: per-shard winners.
    pub force_uniform_winner: bool,
    /// Record a full distributed trace: coordinator and shard operator
    /// spans plus network-exchange spans, one connected timeline in
    /// [`ShardOutcome::trace`]. Default `false`: shards run untraced
    /// (their winners are still counted, and no operator pays a wrapper).
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
    /// Retryable failures absorbed across all shards: choose-plan
    /// fallbacks.
    pub fallbacks: u64,
    /// The CPU work of every shard, summed.
    pub cpu: CpuCounters,
    /// The distributed trace (coordinator + every shard + network
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
    access: Vec<Arc<Plan>>,
    joins: Vec<JoinStage>,
    /// The result layout: the query's relations concatenated in `FROM`
    /// order.
    layout: TupleLayout,
    /// The layout of a shard's rows once the chain is joined, the same on
    /// every shard: each stage's join puts the relation it adds (its build
    /// side) before the rows it had.
    shard_layout: TupleLayout,
    /// Where `layout`'s columns are in `shard_layout`: result column `i`
    /// is `shard_layout`'s column `columns[i]`.
    columns: Vec<usize>,
    /// The `ORDER BY` column of `shard_layout`.
    order_key: Option<usize>,
    /// The working memory of a shard's join and sort, in bytes: the
    /// binding's grant, or unbounded without one.
    memory_bytes: usize,
}

/// One repartitioning join stage: the rows the chain has reached (`left`,
/// the probe side) join the next relation's access stage (`right`, which
/// builds) on every equi-join predicate between the two, as `(right
/// column, left column)` pairs; the first pair is the repartition key.
struct JoinStage {
    left: TupleLayout,
    right: TupleLayout,
    keys: Vec<(usize, usize)>,
}

/// One join stage side's links, indexed `[from][to]`: a shard's
/// out-links are its row and its in-links its column. The diagonal is
/// `None`: a shard's own partition never touches the wire.
type Links = Vec<Vec<Option<NetChannel>>>;

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
        let dist = config
            .skew
            .map_or(ValueDistribution::Uniform, |exponent| ValueDistribution::Zipf { exponent });
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
        // The coordinator owns the query's trace id, traced or not. Traced,
        // its run is the first attached to the query's one tracer, and its
        // root span holds the query's phases and every shard's subtree.
        let coord = self
            .config
            .trace
            .then(|| ExecContext::new(SharedCounters::new()).with_tracer(Arc::new(Tracer::new())));
        let trace_id = coord.as_ref().map_or_else(next_trace_id, ExecContext::trace_id);
        let mut phases =
            coord.as_ref().map_or_else(Phases::default, |c| Phases::start(c, "Coordinator"));
        phases.note(|| format!("x{}", self.shards.len()));
        phases.next("Parse");
        let query =
            parse_query(sql, &self.catalog).map_err(|e| ServiceError::Sql(e.to_string()))?;
        phases.next("Bind");
        let mut bindings = query.bindings(binds).map_err(ServiceError::Bind)?;
        if let Some(pages) = self.config.memory_pages {
            bindings = bindings.with_memory(memory_grant_pages(pages).map_err(ServiceError::Bind)?);
        }

        phases.next("Distribute");
        let plan = self.distribute(&query.expr, &query.predicates, query.order_by, &bindings)?;
        let outcome = self.run(&plan, &bindings, trace_id, coord.as_ref(), phases);
        let m = &self.metrics;
        m.add(Metric::ShardQueries, 1);
        m.record_query(
            outcome.as_ref().map(|ok| (ok.rows.len() as u64, ok.fallbacks)),
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
            let mut plan =
                optimizer.optimize(&node).map_err(|e| ServiceError::Optimizer(e.to_string()))?.plan;
            if self.config.force_uniform_winner {
                // The baseline: one global arbitration, broadcast resolved.
                plan = evaluate_startup(&plan, &self.catalog, &self.env, bindings).resolved;
            }
            access.push(plan);
        }

        let mut joins = Vec::with_capacity(rels.len().saturating_sub(1));
        let mut shard_layout = TupleLayout::base(&self.catalog, rels[0]);
        let mut layout = shard_layout.clone();
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
            if applicable.is_empty() {
                return Err(ServiceError::Sql(format!(
                    "sharded execution needs an equi-join predicate connecting relation {next} \
                     to the preceding FROM relations (cross products are not distributed)"
                )));
            }
            let right = TupleLayout::base(&self.catalog, next);
            let left = shard_layout;
            let keys =
                applicable.iter().map(|&(l, r)| (right.require(r), left.require(l))).collect();
            layout = layout.concat(&right);
            shard_layout = right.concat(&left);
            joins.push(JoinStage { left, right, keys });
        }
        let width = shard_layout.width();
        let columns = layout.projection_from(&shard_layout).unwrap_or_else(|| (0..width).collect());
        let order_key = order_by.map(|attr| shard_layout.require(attr));
        let page_bytes = f64::from(self.catalog.config.page_size);
        let memory_bytes =
            bindings.memory_pages.map_or(usize::MAX, |pages| (pages * page_bytes) as usize);
        Ok(DistPlan { access, joins, layout, shard_layout, columns, order_key, memory_bytes })
    }

    /// Runs the distributed plan in an `Execute` phase of the coordinator's
    /// trace, a step at a time on every shard ([`each_shard`]): the first
    /// access stage, per join stage a send step and (but for the last, whose
    /// join the gather step drains under the sort) a join step. The query
    /// stops at the first step that fails; then the coordinator reads the
    /// gather links in shard order. Every shard runs under the query's
    /// `trace_id`; traced, under the coordinator's (`coord`) tracer.
    fn run(
        &self,
        plan: &DistPlan,
        bindings: &Bindings,
        trace_id: u64,
        coord: Option<&ExecContext>,
        mut phases: Phases,
    ) -> Result<ShardOutcome, ServiceError> {
        let gather_span = phases.next("Execute");
        let (stages, gather) = self.wire_up(plan);
        // Each shard's run: its own counters — CPU work and the trail of
        // what it decided, read here once the shards are done — under the
        // query's trace id. Traced, it is attached to the coordinator's
        // tracer, and everything it does — operators, sends, receives —
        // nests under its `Shard` span, opened under the coordinator's
        // root; untraced, it has no tracer at all.
        let tracer = coord.and_then(|c| c.tracer.as_ref());
        let mut runs: Vec<ShardRun<'_>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let mut ctx = ExecContext::with_limits(SharedCounters::new(), self.config.limits)
                    .with_dop(self.config.dop)
                    .with_trace_id(trace_id);
                if let Some(tracer) = tracer {
                    ctx = ctx.with_tracer(Arc::clone(tracer));
                    let label = || format!("Shard {s}");
                    ctx.span_parent = ctx.open_span("Shard", None, label, phases.root(), None);
                }
                ShardRun { s, shard, ctx, left: Vec::new(), right: Vec::new(), sent: 0 }
            })
            .collect();

        let env = &self.env;
        each_shard(&mut runs, |run| {
            run.left = run_access(run.shard, &plan.access[0], env, bindings, &run.ctx)?;
            Ok(())
        })?;
        for (j, (stage, [left, right])) in plan.joins.iter().zip(&stages).enumerate() {
            // The send step: both sides scattered and sent on the out-links.
            each_shard(&mut runs, |run| {
                run.right = run_access(run.shard, &plan.access[j + 1], env, bindings, &run.ctx)?;
                let ((rkey, lkey), s) = (stage.keys[0], run.s);
                send_partitions(&mut run.left, lkey, &left[s], &run.ctx)?;
                send_partitions(&mut run.right, rkey, &right[s], &run.ctx)
            })?;
            if j + 1 < plan.joins.len() {
                each_shard(&mut runs, |run| {
                    let mut join =
                        run.join(&run.ctx.clone(), stage, &stages[j], plan.memory_bytes)?;
                    drain_root(&mut *join, None, RootSink::Batches(&mut run.left)).map(drop)
                })?;
            }
        }
        let last = plan.joins.last().zip(stages.last());
        each_shard(&mut runs, |run| run.gather(plan, last, &gather[run.s]))?;

        // The coordinator reads each gather link through the link leaf.
        let mut receiver =
            coord.cloned().unwrap_or_else(|| ExecContext::new(SharedCounters::new()));
        receiver.span_parent = gather_span;
        let receive = |(run, link): (&ShardRun<'_>, &NetChannel)| {
            let (layout, mut batches) = (&plan.shard_layout, Vec::new());
            let mut leaf = LinkScanExec::new([link], Vec::new(), layout, receiver.clone());
            drain_root(&mut leaf, None, RootSink::Batches(&mut batches))?;
            check_gathered(run.s, live_rows(&batches), run.sent)?;
            Ok(batches)
        };
        let gathered: Vec<Vec<RowBatch>> =
            runs.iter().zip(&gather).map(receive).collect::<Result<_, ExecError>>()?;
        let shard_rows: Vec<u64> = gathered.iter().map(|batches| live_rows(batches)).collect();
        let winners: Vec<Vec<(u64, usize)>> =
            runs.iter().map(|r| r.ctx.counters.winners()).collect();
        let fallbacks = runs.iter().map(|r| r.ctx.counters.fallbacks()).sum();
        let mut cpu = CpuCounters::default();
        runs.iter().for_each(|r| cpu += r.ctx.counters.snapshot());
        // The row budget is the query's: access stages and join stages are
        // intermediate results, so only the gathered total is charged.
        if let Some(limit) = self.config.limits.max_rows {
            if shard_rows.iter().sum::<u64>() > limit {
                return Err(ServiceError::Exec(ExecError::ResourceExhausted(Resource::Rows {
                    limit,
                })));
            }
        }
        let rows = materialize(&gathered, plan.order_key, &plan.columns);

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
        // Stage by stage, each ordered shard pair's left link then its
        // right one; the gather links last.
        let cross = stages
            .iter()
            .flat_map(|[left, right]| left.iter().zip(right))
            .flat_map(|(left, right)| left.iter().zip(right))
            .flat_map(|(left, right)| [left, right])
            .flatten();
        let links: Vec<LinkTraffic> = cross
            .chain(&gather)
            .map(|ch| LinkTraffic { from: ch.from_node(), to: ch.to_node(), stats: ch.stats() })
            .filter(|l| l.stats.frames > 0 || l.stats.bytes > 0)
            .collect();
        let net = links.iter().map(|l| l.stats).sum();

        // One timeline: the coordinator's trail (root, phases, gather
        // receives) and every shard's, read by the query's one tracer.
        phases.finish();
        let trace = tracer.map(|tracer| tracer.report());

        Ok(ShardOutcome {
            rows,
            layout: plan.layout.clone(),
            per_shard_rows: shard_rows,
            winners,
            divergent_nodes,
            net,
            links,
            fallbacks,
            cpu,
            trace,
        })
    }

    /// Creates the query's links: per join stage, one [`Links`] matrix
    /// for the left side and one for the right, plus one gather link per
    /// shard to the coordinator (node `n`).
    fn wire_up(&self, plan: &DistPlan) -> (Vec<[Links; 2]>, Vec<NetChannel>) {
        let n = self.shards.len();
        let matrix = || -> Links {
            (0..n)
                .map(|from| {
                    (0..n).map(|to| (from != to).then(|| self.net.channel(from, to, 0))).collect()
                })
                .collect()
        };
        let stages = plan.joins.iter().map(|_| [matrix(), matrix()]).collect();
        (stages, (0..n).map(|s| self.net.channel(s, n, 0)).collect())
    }
}

/// Live rows across a set of batches.
fn live_rows(batches: &[RowBatch]) -> u64 {
    batches.iter().map(|b| b.len() as u64).sum()
}

/// A shard's gather link must deliver exactly the rows the shard
/// reported sending; anything else means frames were lost or duplicated
/// on the way to the coordinator, and the result cannot be trusted.
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
/// row count, one tuple per result row gathered from the batch's
/// `columns` in order (the result's `FROM` order) — the per-shard runs
/// k-way merged on `order_key` when the query is ordered (ties resolve by
/// shard index, so the merge is fully deterministic), else concatenated in
/// shard order.
fn materialize<'g>(
    gathered: &'g [Vec<RowBatch>],
    order_key: Option<usize>,
    columns: &[usize],
) -> Vec<Tuple> {
    let total: u64 = gathered.iter().map(|run| live_rows(run)).sum();
    let mut rows = Vec::with_capacity(total as usize);
    // Per shard, the batch its last row came from and the result's columns
    // of it.
    let mut from: Vec<(*const RowBatch, Vec<&[i64]>)> =
        vec![(std::ptr::null(), Vec::new()); gathered.len()];
    let mut push = |s: usize, batch: &'g RowBatch, i: usize| {
        let (at, cols) = &mut from[s];
        if !std::ptr::eq(batch, *at) {
            *at = batch;
            cols.clear();
            cols.extend(columns.iter().map(|&c| batch.column(c)));
        }
        rows.push(cols.iter().map(|col| col[i]).collect());
    };
    match order_key {
        Some(key) => {
            let runs: Vec<&[RowBatch]> = gathered.iter().map(Vec::as_slice).collect();
            kway_merge(&runs, key, &mut push);
        }
        None => {
            for (s, run) in gathered.iter().enumerate() {
                for batch in run {
                    batch.selected_indices().for_each(|i| push(s, batch, i));
                }
            }
        }
    }
    rows
}

/// One shard's part of a running query between the driver's steps.
struct ShardRun<'a> {
    s: usize,
    shard: &'a Shard,
    ctx: ExecContext,
    /// The rows the chain has reached (the first access stage, then each
    /// join step's result) and a stage's right side; after a send step,
    /// the part of each the shard kept.
    left: Vec<RowBatch>,
    right: Vec<RowBatch>,
    /// The rows the shard sent on its gather link.
    sent: u64,
}

/// Takes one step of the query on every shard ([`run_parallel`]: in shard
/// order on the calling thread, or on a thread a shard when the disks pace
/// I/O, so that their sleeps overlap), and returns the first error in
/// shard order: the query stops there, and no step runs after it. Within
/// a step no shard sees another's, so every shard does the same work
/// either way, and the first error in shard order is the same one. A
/// service has at least one shard, and every shard's disk is paced alike
/// (one `io_latency_micros`), so the first one's speaks for all.
fn each_shard<'a>(
    runs: &mut [ShardRun<'a>],
    step: impl Fn(&mut ShardRun<'a>) -> Result<(), ExecError> + Sync,
) -> Result<(), ExecError> {
    let disk = runs[0].shard.db.disk.clone();
    let step = &step;
    run_parallel(&disk, runs.iter_mut().map(|run| move || step(run)).collect())
        .into_iter()
        .collect()
}

impl ShardRun<'_> {
    /// A join stage's join under `ctx`'s span parent: a [`HashJoinExec`]
    /// building on the right side, on every key of the stage, within
    /// `memory_bytes`, over a [`LinkScanExec`] a side that reads the shard's
    /// in-links (its column of the side's matrix), then the part it kept.
    fn join<'l>(
        &mut self,
        ctx: &ExecContext,
        stage: &'l JoinStage,
        [left, right]: &'l [Links; 2],
        memory_bytes: usize,
    ) -> Result<BoxedOperator<'l>, ExecError> {
        let (s, run) = (self.s, &self.ctx);
        let leaf = |links: &'l Links, layout: &'l TupleLayout, kept| -> BoxedOperator<'l> {
            let in_links = links.iter().filter_map(move |row| row[s].as_ref());
            Box::new(LinkScanExec::new(in_links, kept, layout, run.clone()))
        };
        let build = leaf(right, &stage.right, std::mem::take(&mut self.right));
        let probe = leaf(left, &stage.left, std::mem::take(&mut self.left));
        let (keys, disk) = (stage.keys.clone(), self.shard.db.disk.clone());
        traced_operator(ctx, "Hash-Join", None, &self.shard.db.disk, |ctx| {
            Ok(Box::new(HashJoinExec::new(build, probe, keys, ctx.clone(), disk, memory_bytes)))
        })
    }

    /// The gather step: the shard's result — the last stage's join, or a
    /// leaf of the one relation's access stage — under the `ORDER BY`'s
    /// [`SortExec`] within the plan's memory, drained and sent to the
    /// coordinator on `link`.
    fn gather<'l>(
        &mut self,
        plan: &'l DistPlan,
        last: Option<(&'l JoinStage, &'l [Links; 2])>,
        link: &NetChannel,
    ) -> Result<(), ExecError> {
        let (ctx, disk, memory) = (self.ctx.clone(), self.shard.db.disk.clone(), plan.memory_bytes);
        let mut input = |ctx: &ExecContext| -> Result<BoxedOperator<'l>, ExecError> {
            let Some((stage, links)) = last else {
                let kept = std::mem::take(&mut self.left);
                return Ok(Box::new(LinkScanExec::new([], kept, &plan.shard_layout, ctx.clone())));
            };
            self.join(ctx, stage, links, memory)
        };
        let mut root = match plan.order_key {
            Some(key) => traced_operator(&ctx, "Sort", None, &disk, |ctx| {
                Ok(Box::new(SortExec::new(input(ctx)?, key, ctx.clone(), disk.clone(), memory)))
            })?,
            None => input(&ctx)?,
        };
        let (mut sink, mut out) = (LinkSink::new(link, &ctx), Vec::new());
        drain_root(&mut *root, None, RootSink::Batches(&mut out))?;
        for batch in out {
            self.sent += batch.len() as u64;
            sink.push(batch)?;
        }
        sink.finish()
    }
}

/// Runs one per-relation access plan locally into the batches its root
/// operator produced, selection vectors included: an intermediate result,
/// not charged to the row budget. The plan still carries its choose
/// operators (unless the coordinator pre-resolved them), so running it
/// against the *shard's* catalog makes bind-time arbitration a per-shard
/// decision, recorded on the shard's trail. A single-relation plan has no
/// blocking input a re-optimizing run could checkpoint: access stages are
/// not re-optimized.
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

/// The send half of a repartition: every batch of `side` scattered on
/// column `key` ([`scatter_by_shard`]), a peer's share pushed into its
/// out-link's [`LinkSink`] batch by batch, and `side` left holding the
/// shard's own share, a batch taking the rows of several while they fit.
/// Frames carry `ctx`'s trace id; traced, sends nest under its span parent.
fn send_partitions(
    side: &mut Vec<RowBatch>,
    key: usize,
    outs: &[Option<NetChannel>],
    ctx: &ExecContext,
) -> Result<(), ExecError> {
    if outs.iter().all(Option::is_none) {
        return Ok(());
    }
    let mut sinks: Vec<Option<LinkSink<'_>>> =
        outs.iter().map(|out| out.as_ref().map(|ch| LinkSink::new(ch, ctx))).collect();
    let mut shares = vec![RowBatch::default(); outs.len()];
    let (mut hashes, mut dests) = (Vec::new(), Vec::new());
    for batch in std::mem::take(side) {
        let own = sinks.iter().zip(&mut shares).filter(|(sink, _)| sink.is_none());
        for (_, kept) in own.filter(|(_, kept)| kept.len() + batch.len() > BATCH_CAPACITY) {
            side.push(std::mem::take(kept));
        }
        for share in shares.iter_mut().filter(|share| share.width() != batch.width()) {
            *share = RowBatch::with_capacity(batch.width(), 0);
        }
        scatter_by_shard(&batch, &[key], &mut shares, &mut hashes, &mut dests);
        for (sink, share) in sinks.iter_mut().zip(&mut shares) {
            if let Some(sink) = sink {
                sink.push(std::mem::take(share))?;
            }
        }
    }
    let kept =
        shares.into_iter().zip(&sinks).filter(|(kept, sink)| sink.is_none() && !kept.is_empty());
    side.extend(kept.map(|(kept, _)| kept));
    sinks.into_iter().flatten().try_for_each(LinkSink::finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Hist;
    use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};
    use dqep_executor::{
        encode_frame_dense, FrameTrace, LinkFaultPlan, NetSpanStats, Operator, SpanRecord,
    };
    use dqep_storage::{FaultPlan, IoStats};

    fn chain_sql(n: usize) -> String {
        let from: Vec<String> = (1..=n).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> = (1..n).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
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
                let total: u64 =
                    svc.shards().iter().map(|s| s.db.table(rel.id).heap.record_count()).sum();
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
                                ((v.max(0) as f64 * shards as f64 / domain) as usize)
                                    .min(shards - 1)
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
                let config =
                    ShardConfig { shards, routing, skew: Some(1.2), ..ShardConfig::default() };
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
                        let attr = AttrId { relation: rel.id, index };
                        assert_eq!(
                            svc.catalog().histogram(attr),
                            global.histogram(attr),
                            "{what}: attr {index}"
                        );
                    }
                }
                for (d, shard) in svc.shards().iter().enumerate() {
                    assert_eq!(shard.db.disk.stats(), IoStats::default(), "{routing:?} shard {d}");
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
            let svc =
                ShardedService::new(catalog(2), ShardConfig { shards, ..ShardConfig::default() });
            let out = svc.execute(&sql, &binds).expect("sharded run");
            assert_eq!(sorted(out.rows.clone()), sorted(baseline.clone()), "{shards} shards");
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
        let svc =
            ShardedService::new(catalog(2), ShardConfig { shards: 3, ..ShardConfig::default() });
        let out = svc.execute(&sql, &binds).expect("sorted run");
        let key = out
            .layout
            .require(svc.catalog().relation_by_name("R1").expect("R1").attr_id("a").expect("a"));
        assert!(out.rows.windows(2).all(|w| w[0][key] <= w[1][key]), "globally ordered");
        assert_eq!(sorted(out.rows.clone()), sorted(single_node_rows(2, &binds, &sql)));
    }

    #[test]
    fn per_shard_winners_are_recorded() {
        let svc =
            ShardedService::new(catalog(1), ShardConfig { shards: 2, ..ShardConfig::default() });
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
                    link_faults: LinkFaultPlan { fail_nth_frames: vec![1, 2], max_retransmits: 4 },
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
        let err =
            svc.execute(&chain_sql(2), &[("v1", 900), ("v2", 900)]).expect_err("budget exhausted");
        assert!(matches!(err, ServiceError::Exec(ExecError::Network(_))), "{err:?}");
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
        let out = svc.execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 40)]).expect("runs");
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
        let fout =
            forced.execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 40)]).expect("runs");
        assert!(!fout.divergent(), "resolved broadcast cannot diverge");
        assert_eq!(sorted(out.rows), sorted(fout.rows), "same result either way");
    }

    /// Sharded queries are sessions: each records its latency, rows and
    /// absorbed fallbacks into the registry beside the `shard` counters; a
    /// failed one counts as failed and nothing else; a statement that does
    /// not parse never became a query.
    #[test]
    fn sharded_queries_record_session_and_shard_metrics() {
        let svc =
            ShardedService::new(catalog(2), ShardConfig { shards: 2, ..ShardConfig::default() });
        // Shard 0's first read fails: the index scan its first arbitration
        // opens falls back to another alternative.
        svc.shards()[0].db.disk.set_fault_plan(FaultPlan::nth_read(1));
        let outcomes: Vec<ShardOutcome> = [10, 500, 900]
            .iter()
            .map(|&v| svc.execute(&chain_sql(2), &[("v1", v), ("v2", 900)]).expect("runs"))
            .collect();
        assert!(matches!(svc.execute("SELECT * FROM nosuch", &[]), Err(ServiceError::Sql(_))));
        let m = svc.metrics();
        assert_eq!(m.get(Metric::ShardQueries), 3);
        assert_eq!((m.get(Metric::Completed), m.get(Metric::Failed)), (3, 0));
        assert_eq!(m.hist(Hist::Latency).count, 3);
        assert!(m.hist(Hist::Latency).max_seconds > 0.0);
        assert_eq!(m.get(Metric::Rows), outcomes.iter().map(|o| o.rows.len() as u64).sum::<u64>());
        let fallbacks: u64 = outcomes.iter().map(|o| o.fallbacks).sum();
        assert!(fallbacks > 0, "the read fault must force a fallback");
        assert_eq!(m.get(Metric::Fallbacks), fallbacks);
        assert_eq!(m.get(Metric::NetBytes), outcomes.iter().map(|o| o.net.bytes).sum::<u64>());
        assert!(m.get(Metric::NetFrames) > 0);
        assert!(m.winners().iter().sum::<u64>() > 0);

        // Link faults are configured once, with the network: the failing
        // half runs on a second service whose every link drops its first
        // frame with no retransmission budget.
        let link_faults = LinkFaultPlan::parse("nth-frame=1,max-retransmit=0").expect("plan");
        let faulty = ShardedService::new(
            catalog(2),
            ShardConfig { shards: 2, net: NetConfig { link_faults }, ..ShardConfig::default() },
        );
        assert!(faulty.execute(&chain_sql(2), &[("v1", 500), ("v2", 500)]).is_err());
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
        let client = || {
            let run = |_| {
                barrier.wait();
                svc.execute(&sql, &binds).expect("runs")
            };
            (0..20).map(run).collect::<Vec<_>>()
        };
        let outcomes: Vec<ShardOutcome> = std::thread::scope(|s| {
            let clients = [s.spawn(client), s.spawn(client)];
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

    /// The two ways of taking a query's steps — one after another on the
    /// calling thread, or on a thread a shard when the disks pace I/O — do
    /// the same work: the same rows in the same order, the same winners,
    /// the same traffic on every link and the same reads on every disk.
    #[test]
    fn paced_and_unpaced_steps_do_the_same_work() {
        let chain = chain_sql(3);
        let binds = [("v1", 600i64), ("v2", 600), ("v3", 600)];
        let residual = "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.jl = R2.jr AND R1.a < :v1";
        let queries = [
            (chain.clone(), &binds[..]),
            (format!("{chain} ORDER BY R1.a"), &binds[..]),
            (residual.to_string(), &binds[..1]),
        ];
        let link = |l: &LinkTraffic| (l.from, l.to, l.stats);
        for routing in [ShardRouting::Hash, ShardRouting::Range] {
            for shards in [2usize, 3] {
                let run = |io_latency_micros| {
                    let skew = Some(1.2);
                    let config = ShardConfig {
                        shards,
                        routing,
                        io_latency_micros,
                        skew,
                        ..ShardConfig::default()
                    };
                    let svc = ShardedService::new(catalog(3), config);
                    let run_one = |(sql, binds): &(String, &[(&str, i64)])| {
                        let out = svc.execute(sql, binds).expect("runs");
                        let io: Vec<IoStats> =
                            svc.shards().iter().map(|s| s.db.disk.stats()).collect();
                        (out, io)
                    };
                    queries.iter().map(run_one).collect::<Vec<_>>()
                };
                let (unpaced, paced) = (run(0), run(1));
                for (((a, a_io), (b, b_io)), (sql, _)) in unpaced.iter().zip(&paced).zip(&queries) {
                    let what = format!("{routing:?} {shards} shards: {sql}");
                    assert!(!a.rows.is_empty(), "{what}: nothing to compare");
                    assert_eq!(a.rows, b.rows, "{what}");
                    assert_eq!(a.per_shard_rows, b.per_shard_rows, "{what}");
                    assert_eq!(a.winners, b.winners, "{what}");
                    assert_eq!(a.divergent_nodes, b.divergent_nodes, "{what}");
                    assert_eq!(a.net, b.net, "{what}");
                    let links = |o: &ShardOutcome| o.links.iter().map(link).collect::<Vec<_>>();
                    assert_eq!(links(a), links(b), "{what}");
                    assert_eq!(a_io, b_io, "{what}: disk I/O");
                }
            }
        }
    }

    /// A traced query whose shards take their steps on threads of their
    /// own (a paced disk) is one tree: every shard draws its span ids from
    /// the query's one tracer as it goes, so the ids interleave between
    /// shards, yet every parent precedes its child, the send spans carry
    /// the query's wire traffic, and every propagated remote span names a
    /// send span on its own link.
    #[test]
    fn a_paced_traced_query_is_one_tree() {
        let config =
            ShardConfig { shards: 3, io_latency_micros: 1, trace: true, ..ShardConfig::default() };
        let svc = ShardedService::new(catalog(3), config);
        let binds = [("v1", 600i64), ("v2", 600), ("v3", 600)];
        let out = svc.execute(&chain_sql(3), &binds).expect("runs");
        let trace = out.trace.as_ref().expect("traced");

        let ids: BTreeSet<usize> = trace.spans.iter().map(|s| s.id.0).collect();
        assert_eq!(ids.len(), trace.spans.len(), "span ids are unique");
        let roots = trace.roots();
        assert_eq!(roots.iter().map(|s| s.kind).collect::<Vec<_>>(), ["Coordinator"]);
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                assert!(ids.contains(&parent.0), "the parent of span {} exists", span.id.0);
                assert!(parent < span.id, "span {} opens after its parent", span.id.0);
            }
        }
        assert_eq!(trace.spans.iter().filter(|s| s.kind == "Shard").count(), 3);

        let nets: Vec<&NetSpanStats> = trace.spans.iter().filter_map(|s| s.net.as_ref()).collect();
        let sent: NetStats = nets.iter().filter(|n| n.sent).map(|n| n.stats).sum();
        assert_eq!(sent, out.net, "the send spans carry the query's traffic");
        let received: Vec<_> = nets.iter().filter(|n| !n.sent).collect();
        assert!(!received.is_empty(), "the join repartitions over the wire");
        for net in received {
            let remote = net.remote_span.expect("a frame header names its send span");
            let peer = trace.spans.iter().find(|s| s.id.0 as u64 == remote);
            let peer = peer.and_then(|s| s.net).expect("the remote span is a network span");
            assert!(peer.sent, "span {remote} is a send span");
            assert_eq!((peer.from, peer.to), (net.from, net.to), "span {remote} is on the link");
        }
    }

    /// A traced shard's join and sort are operators of its run: each opens
    /// a span, a join span a stage, and a span's rows are the rows the
    /// shard joined or sorted — for the last join and the sort, the rows
    /// the shard sent to the coordinator. The sort's span opens under the
    /// shard's `Shard` span, and the last join's under the sort's, as a
    /// plan node's input does.
    #[test]
    fn a_traced_shards_join_and_sort_are_spans_under_its_shard() {
        let config = ShardConfig { shards: 3, trace: true, ..ShardConfig::default() };
        let svc = ShardedService::new(catalog(3), config);
        let binds = [("v1", 600i64), ("v2", 600), ("v3", 600)];
        let out = svc.execute(&format!("{} ORDER BY R1.a", chain_sql(3)), &binds).expect("runs");
        let trace = out.trace.as_ref().expect("traced");
        let shards: Vec<_> = trace.spans.iter().filter(|s| s.kind == "Shard").collect();
        assert_eq!(shards.len(), 3);
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(shard.label, format!("Shard {s}"));
            let under = |parent, kind| -> Vec<&SpanRecord> {
                trace
                    .spans
                    .iter()
                    .filter(|sp| sp.parent == Some(parent) && sp.kind == kind)
                    .collect()
            };
            let sorts = under(shard.id, "Sort");
            let mut joins = under(shard.id, "Hash-Join");
            joins.extend(sorts.iter().flat_map(|sort| under(sort.id, "Hash-Join")));
            assert_eq!((joins.len(), sorts.len()), (2, 1), "shard {s}");
            assert!(
                joins[0].id < sorts[0].id && sorts[0].id < joins[1].id,
                "shard {s}: in step order, the last join under the sort"
            );
            assert!(
                joins.iter().all(|j| j.stats.opens == 1 && j.stats.cpu.hashes > 0),
                "shard {s}"
            );
            assert_eq!(joins[1].stats.rows, out.per_shard_rows[s], "shard {s}: the last join");
            assert_eq!(sorts[0].stats.rows, out.per_shard_rows[s], "shard {s}: the sort");
        }
        assert!(out.per_shard_rows.iter().all(|&n| n > 0), "every shard joins something");
    }

    /// A failing query fails the same way every time, whichever way its
    /// steps are taken: every link of three shards drops its first frame
    /// with no retransmission budget, and each of 20 calls, unpaced and
    /// paced, returns the same network error. The calls run behind a
    /// watchdog, so one that hangs fails the test instead of hanging it.
    #[test]
    fn a_failing_query_fails_alike_every_time() {
        let (done, finished) = std::sync::mpsc::channel();
        let calls = std::thread::spawn(move || {
            let mut errors = Vec::new();
            for io_latency_micros in [0, 1] {
                let link_faults = LinkFaultPlan { fail_nth_frames: vec![1], max_retransmits: 0 };
                let net = NetConfig { link_faults };
                let config =
                    ShardConfig { shards: 3, io_latency_micros, net, ..ShardConfig::default() };
                let svc = ShardedService::new(catalog(2), config);
                for _ in 0..20 {
                    let binds = [("v1", 700), ("v2", 700)];
                    errors.push(svc.execute(&chain_sql(2), &binds).expect_err("every call fails"));
                }
            }
            done.send(errors)
        });
        let errors = finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("every call returned in time");
        calls.join().expect("calls").expect("the watchdog was listening");
        assert_eq!(errors.len(), 40);
        assert!(matches!(&errors[0], ServiceError::Exec(ExecError::Network(_))), "{:?}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    /// A query stops at its first failed step and returns that step's
    /// own error: of three hash-routed shards over skewed data, one runs
    /// out of its I/O budget, and the query fails with that error, unpaced
    /// and paced, not with a peer's network error on a link to it.
    #[test]
    fn a_failed_shard_reports_its_own_error() {
        for io_latency_micros in [0, 1] {
            let limits = ResourceLimits { max_io: Some(20), ..ResourceLimits::unlimited() };
            let config = ShardConfig {
                shards: 3,
                skew: Some(1.2),
                limits,
                io_latency_micros,
                ..ShardConfig::default()
            };
            let svc = ShardedService::new(catalog(2), config);
            let err = svc.execute(&chain_sql(2), &[("v1", 900), ("v2", 900)]).expect_err("fails");
            assert_eq!(
                err,
                ServiceError::Exec(ExecError::ResourceExhausted(Resource::Io { limit: 20 })),
                "io_latency_micros {io_latency_micros}"
            );
        }
    }

    /// The layout of a two-column relation: what the link tests' frames
    /// carry.
    fn pair_layout() -> TupleLayout {
        let catalog = dqep_catalog::CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("pair", 10, 16, |r| r.attr("k", 10.0).attr("v", 10.0))
            .build()
            .expect("valid catalog");
        TupleLayout::base(&catalog, catalog.relation_by_name("pair").expect("pair").id)
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
            materialize(&gathered, Some(0), &[0, 1]),
            vec![vec![1, 10], vec![2, 20], vec![2, 30], vec![4, 11], vec![9, 31]]
        );
        // Unordered gathers concatenate in shard order, live rows only.
        let concat: Vec<i64> = materialize(&gathered, None, &[0, 1]).iter().map(|r| r[1]).collect();
        assert_eq!(concat, vec![10, 11, 20, 30, 31]);
        // Each row is gathered in the result's column order.
        assert_eq!(materialize(&gathered, Some(0), &[1, 0])[0], vec![10, 1]);
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
        ch.send(encode_frame_dense([(&good, 0..1)], FrameTrace::default())).expect("send");
        ch.send(narrow).expect("send");
        ch.send(encode_frame_dense([(&good, 0..1)], FrameTrace::default())).expect("send");

        let ctx = ExecContext::new(SharedCounters::new());
        let layout = pair_layout();
        let mut leaf = LinkScanExec::new([&ch], Vec::new(), &layout, ctx);
        let mut into = Vec::new();
        let err = drain_root(&mut leaf, None, RootSink::Batches(&mut into))
            .expect_err("the narrow frame is refused");
        assert!(
            matches!(&err, ExecError::Network(m) if m.contains("frame width mismatch")),
            "{err:?}"
        );
        assert_eq!(into.len(), 1, "frames before the bad one were kept, later ones dropped");
    }

    /// Sends `batch` on `ch` through the link's one sink, and closes it.
    fn send(ch: &NetChannel, ctx: &ExecContext, batch: RowBatch) {
        let mut sink = LinkSink::new(ch, ctx);
        sink.push(batch).expect("send");
        sink.finish().expect("send");
    }

    /// The frames `ch` holds, each as the one batch the receiving leaf
    /// hands out for it under an unbounded request.
    fn frames(ch: &NetChannel) -> Vec<RowBatch> {
        let (ctx, layout) = (ExecContext::new(SharedCounters::new()), pair_layout());
        let mut leaf = LinkScanExec::new([ch], Vec::new(), &layout, ctx);
        let got: Result<Vec<_>, _> =
            std::iter::from_fn(|| leaf.next_batch(usize::MAX).transpose()).collect();
        leaf.close();
        got.expect("received")
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
        send(&ch, &ctx, batch.clone());
        let got = frames(&ch);
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
        send(&ch, &ctx, batch);
        let got = frames(&ch);
        let sizes: Vec<usize> = got.iter().map(RowBatch::rows).collect();
        assert_eq!(sizes, vec![BATCH_CAPACITY, BATCH_CAPACITY, BATCH_CAPACITY + 10]);
        let firsts: Vec<i64> = got.iter().map(|b| b.column(0)[0]).collect();
        assert_eq!(firsts, vec![0, BATCH_CAPACITY as i64, 2 * BATCH_CAPACITY as i64]);
    }

    /// The frame rule is the link's alone: the same live rows, sent through
    /// the send half of a repartition in random batch splits — batches of
    /// any size, some under selection vectors over dead rows — put the
    /// same frames on the wire byte for byte, ⌊n / 1 024⌋ of them for the
    /// `n` rows the link carries (one when 0 < n < 1 024), and keep the
    /// same rows on the sending shard.
    #[test]
    fn a_links_frames_depend_only_on_its_rows() {
        let mut state = 0x5eed_u64;
        let mut next = |bound: usize| {
            state = dqep_executor::mix(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            (state % bound as u64) as usize
        };
        let net = SimNet::new(NetConfig::default());
        let ctx = ExecContext::new(SharedCounters::new());
        for case in 0..48 {
            let n = match case {
                0 => 0,
                1 => BATCH_CAPACITY,
                2 => 5 * BATCH_CAPACITY,
                _ => next(5 * BATCH_CAPACITY + 1),
            };
            let live: Vec<[i64; 2]> = (0..n as i64).map(|i| [next(1 << 20) as i64, i]).collect();
            let mut reference: Option<(Vec<Vec<u8>>, Vec<Tuple>)> = None;
            for split in 0..4 {
                // The live rows cut into batches of 1 to 3 000 rows; every
                // other batch, at random, carries dead rows between them.
                let mut side = Vec::new();
                let mut at = 0;
                while at < n {
                    let take = (1 + next(3_000)).min(n - at);
                    let mut batch = RowBatch::with_capacity(2, 2 * take);
                    let mut selection = Vec::with_capacity(take);
                    let filtered = split > 0 && next(2) == 0;
                    for row in &live[at..at + take] {
                        if filtered && next(2) == 0 {
                            batch.push_row(&[-1, -1]);
                        }
                        selection.push(batch.rows() as u32);
                        batch.push_row(row);
                    }
                    if filtered {
                        batch.set_selection(selection);
                    }
                    side.push(batch);
                    at += take;
                }
                let link = net.channel(0, 1, 0);
                let outs = [None, Some(link)];
                send_partitions(&mut side, 0, &outs, &ctx).expect("send");
                let link = outs[1].as_ref().expect("the link");
                let frames: Vec<Vec<u8>> = std::iter::from_fn(|| link.recv()).collect();
                let kept: Vec<Tuple> = side.iter().flat_map(RowBatch::to_tuples).collect();
                match &reference {
                    None => {
                        let sent: usize = frames
                            .iter()
                            .map(|f| dqep_executor::decode_frame(f).expect("a frame").rows())
                            .sum();
                        assert_eq!(sent + kept.len(), n, "case {case}: every row once");
                        let expect = if sent == 0 { 0 } else { (sent / BATCH_CAPACITY).max(1) };
                        assert_eq!(frames.len(), expect, "case {case}: {sent} rows on the link");
                        reference = Some((frames, kept));
                    }
                    Some((want, want_kept)) => {
                        assert!(frames == *want, "case {case} split {split}: other frames");
                        assert_eq!(kept, *want_kept, "case {case} split {split}: other rows kept");
                    }
                }
            }
        }
    }

    /// Two shards repartition 70 000 rows each in stages, on one thread,
    /// over `SimNet` links: each sends all of its frames — more than 32 a
    /// cross link — before either receives. Every
    /// row arrives exactly once, on the shard its key routes to.
    #[test]
    fn a_staged_repartition_delivers_every_row_to_its_shard() {
        const ROWS: i64 = 70_000;
        let net = SimNet::new(NetConfig::default());
        // links[from][to]: `None` on the diagonal, as in `wire_up`.
        let links: Vec<Vec<Option<NetChannel>>> = (0..2)
            .map(|from| (0..2).map(|to| (from != to).then(|| net.channel(from, to, 0))).collect())
            .collect();
        let ctx = ExecContext::new(SharedCounters::new());
        let kept: Vec<Vec<RowBatch>> = (0..2usize)
            .map(|s| {
                // One batch, as a join stage hands on its result. Column 0
                // is the key, column 1 the row's identity.
                let mut batch = RowBatch::with_capacity(2, ROWS as usize);
                for i in 0..ROWS {
                    batch.push_row(&[i * 7 % 1_000, s as i64 * ROWS + i]);
                }
                let mut side = vec![batch];
                send_partitions(&mut side, 0, &links[s], &ctx).expect("send");
                side
            })
            .collect();
        let shares: Vec<Vec<RowBatch>> = kept
            .into_iter()
            .enumerate()
            .map(|(s, side)| {
                let in_links = links.iter().filter_map(|row| row[s].as_ref());
                let layout = pair_layout();
                let mut leaf = LinkScanExec::new(in_links, side, &layout, ctx.clone());
                let mut share = Vec::new();
                drain_root(&mut leaf, None, RootSink::Batches(&mut share)).expect("receive");
                share
            })
            .collect();
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
