//! Live views: registered statements kept incrementally consistent with a
//! mutating stored database, re-arbitrated when drift escapes the
//! bind-time interval.
//!
//! A [`LiveViewRegistry`] owns a catalog and stored database with a write
//! path. Each registered view is a prepared statement materialized once
//! through the ordinary dynamic-plan machinery (compile-time choose-plan
//! alternatives, start-up arbitration under the actual bindings) and then
//! maintained by a [`dqep_executor::DeltaPipeline`]: every committed
//! write batch is applied to storage, folded into the catalog statistics,
//! and propagated through each view's delta operators — work proportional
//! to the delta, not the data.
//!
//! The dynamic-plans twist: arbitration chose a winner for the
//! cardinalities *at registration time*. As writes accumulate, the view's
//! observed cardinality can leave the interval the decision was priced
//! on — detected with the same escape test mid-query re-optimization uses
//! ([`dqep_executor::escapes_interval`]). When it fires, the registry
//! re-runs start-up arbitration against the refreshed catalog with the
//! observed cardinality pinned; if a *different* alternative now wins,
//! the pipeline and its retained state are rebuilt from the new winner
//! under the existing degradation ladder (a retryable rebuild failure
//! keeps the old consistent state and counts a fallback).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dqep_catalog::{Catalog, RelationId};
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    compile_delta_plan, escapes_interval, explain_json, run, BaseDeltas, Delta, DeltaPipeline,
    ExecContext, ExecError, ResourceLimits, RootSink, SharedCounters, Tracer,
};
use dqep_interval::Interval;
use dqep_plan::{evaluate_startup_observed, Observations, Plan};
use dqep_sql::parse_query;
use dqep_storage::{refresh_histograms, StorageError, StoredDatabase};

use crate::error::ServiceError;
use crate::metrics::{Hist, Metric, MetricsRegistry};
use crate::registry::normalize_sql;

use dqep_core::Optimizer;

/// Tuning knobs for a [`LiveViewRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Resource budgets for delta propagation and (re)materialization.
    pub limits: ResourceLimits,
    /// Degree of parallelism of the materialization runs.
    pub dop: usize,
    /// Equi-width histogram buckets maintained per attribute on refresh.
    pub histogram_buckets: usize,
}

/// Drift tolerance: re-arbitration fires only when the observed view
/// cardinality leaves the bind-time interval widened by this factor
/// (`[lo/t, hi*t]`). Damps re-fires on tight (point) estimates so a
/// stable workload stays on the incremental path.
const DRIFT_TOLERANCE: f64 = 2.0;

/// Histogram refresh threshold: histograms are rebuilt (an O(data) scan)
/// only once the mutations since the last rebuild exceed this fraction of
/// the stored cardinality. Heap-exact cardinalities are refreshed on
/// *every* commit regardless — only the distribution estimate is allowed
/// to lag, the analyze-threshold trade every statistics subsystem makes.
const STATS_REFRESH_FRACTION: f64 = 0.1;

/// Retryable registration attempts before giving up.
const MAX_RETRIES: usize = 3;

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            limits: ResourceLimits::default(),
            dop: 1,
            histogram_buckets: 16,
        }
    }
}

/// One mutation of a base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert a row with the given attribute values.
    Insert {
        /// Target relation.
        relation: RelationId,
        /// Attribute values, in schema order.
        values: Vec<i64>,
    },
    /// Delete one row matching the given attribute values (a no-op when
    /// no such row exists).
    Delete {
        /// Target relation.
        relation: RelationId,
        /// Attribute values, in schema order.
        values: Vec<i64>,
    },
}

impl WriteOp {
    fn relation(&self) -> RelationId {
        match self {
            WriteOp::Insert { relation, .. } | WriteOp::Delete { relation, .. } => *relation,
        }
    }
}

/// What one [`LiveViewRegistry::commit`] did.
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// Write operations durably applied to storage (a prefix of the
    /// batch: on a storage fault the remainder is not attempted, and the
    /// views stay consistent with exactly the applied prefix).
    pub applied: usize,
    /// Operations submitted.
    pub attempted: usize,
    /// The storage fault that cut the batch short, if any.
    pub storage_error: Option<StorageError>,
    /// Output delta rows propagated into views by this commit.
    pub rows_propagated: u64,
    /// Drift-triggered re-arbitrations fired by this commit.
    pub rearbitrations: u64,
    /// Re-arbitrations that switched the winning alternative and rebuilt
    /// the view's operator state.
    pub plan_switches: u64,
    /// Retryable rebuild failures absorbed by keeping the old state.
    pub fallbacks: u64,
}

/// A registered live view and its maintenance state.
#[derive(Debug)]
struct LiveView {
    name: String,
    sql: String,
    bindings: Bindings,
    /// The compile-time dynamic plan (choose-plan nodes included) — the
    /// arbiter every re-arbitration goes back to.
    plan: Arc<Plan>,
    /// Chosen alternative per choose-plan node of the current winner.
    decisions: Vec<usize>,
    /// Root cardinality interval the current winner was priced on.
    bind_interval: Interval,
    /// The delta pipeline maintaining the view.
    pipeline: DeltaPipeline,
    /// View contents as a multiset (row → multiplicity > 0).
    content: HashMap<Vec<i64>, i64>,
    /// EXPLAIN ANALYZE JSON of the most recent full materialization.
    explain: String,
    rearbitrations: u64,
    fallbacks: u64,
}

impl LiveView {
    fn rows(&self) -> u64 {
        self.content.values().map(|&c| c as u64).sum()
    }

    fn merge(&mut self, out: &Delta) {
        for row in out.inserts.iter() {
            *self.content.entry(row).or_insert(0) += 1;
        }
        for row in out.deletes.iter() {
            if let Some(count) = self.content.get_mut(&row) {
                *count -= 1;
                if *count <= 0 {
                    self.content.remove(&row);
                }
            }
        }
    }
}

/// Point-in-time description of one live view, for status output.
#[derive(Debug, Clone)]
pub struct LiveViewInfo {
    /// View name.
    pub name: String,
    /// Normalized statement text.
    pub sql: String,
    /// Current result rows.
    pub rows: u64,
    /// Chosen alternative per choose-plan node of the current winner.
    pub decisions: Vec<usize>,
    /// Drift-triggered re-arbitrations fired so far.
    pub rearbitrations: u64,
    /// Retryable rebuild failures absorbed so far.
    pub fallbacks: u64,
}

/// A registry of live views over an owned, mutable stored database.
///
/// Single-writer by construction: the registry owns the database, so
/// commits are serialized and every view observes the same write order.
#[derive(Debug)]
pub struct LiveViewRegistry {
    catalog: Catalog,
    db: StoredDatabase,
    env: Environment,
    config: LiveConfig,
    metrics: Arc<MetricsRegistry>,
    /// One long-lived context: retained-state reservations of all views
    /// are held against this governor across commits.
    ctx: ExecContext,
    views: Vec<LiveView>,
    /// Mutation epoch of the last histogram rebuild.
    hist_epoch: u64,
}

impl LiveViewRegistry {
    /// A registry over `db` (described by `catalog`), arbitrating under
    /// `env`.
    #[must_use]
    pub fn new(
        catalog: Catalog,
        db: StoredDatabase,
        env: Environment,
        config: LiveConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> LiveViewRegistry {
        let ctx = ExecContext::with_limits(SharedCounters::new(), config.limits)
            .with_dop(config.dop);
        LiveViewRegistry {
            catalog,
            db,
            env,
            config,
            metrics,
            ctx,
            views: Vec::new(),
            hist_epoch: 0,
        }
    }

    /// The catalog (kept consistent with the mutated database).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The stored database.
    #[must_use]
    pub fn database(&self) -> &StoredDatabase {
        &self.db
    }

    /// Mutable access to the stored database (fault-plan installation).
    pub fn database_mut(&mut self) -> &mut StoredDatabase {
        &mut self.db
    }

    /// Registered views, in registration order.
    #[must_use]
    pub fn views(&self) -> Vec<LiveViewInfo> {
        self.views
            .iter()
            .map(|v| LiveViewInfo {
                name: v.name.clone(),
                sql: v.sql.clone(),
                rows: v.rows(),
                decisions: v.decisions.clone(),
                rearbitrations: v.rearbitrations,
                fallbacks: v.fallbacks,
            })
            .collect()
    }

    /// Registers `sql` under `name` with the given host-variable
    /// bindings, materializing it once through the normal dynamic plan
    /// (choose-plan arbitration included) and compiling its delta
    /// pipeline. Retryable materialization failures (storage faults,
    /// refused memory) are retried up to the configured ladder depth.
    ///
    /// # Errors
    /// Parse/optimizer/binding errors; execution errors that exhaust the
    /// retry ladder.
    pub fn register(
        &mut self,
        name: &str,
        sql: &str,
        binds: &[(&str, i64)],
    ) -> Result<(), ServiceError> {
        let normalized = normalize_sql(sql);
        let query =
            parse_query(&normalized, &self.catalog).map_err(|e| ServiceError::Sql(e.to_string()))?;
        let props = query.required_props();
        let plan = Optimizer::new(&self.catalog, &self.env)
            .optimize_with_props(&query.expr, props)
            .map_err(|e| ServiceError::Optimizer(e.to_string()))?
            .plan;
        let bindings = query.bindings(binds).map_err(ServiceError::Bind)?;

        let mut attempt = 0;
        let view = loop {
            match self.materialize(name, &normalized, &plan, &bindings, &Observations::new()) {
                Ok(view) => break view,
                Err(e) if e.is_retryable() && attempt + 1 < MAX_RETRIES => {
                    attempt += 1;
                }
                Err(e) => return Err(ServiceError::Exec(e)),
            }
        };
        self.views.push(view);
        self.metrics.add(Metric::LiveViewsRegistered, 1);
        Ok(())
    }

    /// Builds a fresh, fully materialized [`LiveView`]: arbitrates the
    /// dynamic plan under `observations`, compiles the winner's delta
    /// pipeline, seeds its retained state with a full-table delta (whose
    /// output is the initial view content), and records the traced
    /// materialization for EXPLAIN ANALYZE. Used by both registration and
    /// drift rebuilds.
    fn materialize(
        &self,
        name: &str,
        sql: &str,
        plan: &Arc<Plan>,
        bindings: &Bindings,
        observations: &Observations,
    ) -> Result<LiveView, ExecError> {
        let startup =
            evaluate_startup_observed(plan, &self.catalog, &self.env, bindings, observations);
        // The root cardinality the arbitration priced its winner on: what
        // the drift check compares observed cardinality against.
        let bind_interval = startup.resolved.root_node().stats.card;
        let decisions: Vec<usize> = startup.decisions.iter().map(|d| d.chosen_index).collect();

        let mut pipeline = compile_delta_plan(&startup.resolved, &self.catalog, bindings)?;
        let init = match self.full_deltas(&pipeline).and_then(|base| {
            pipeline.apply(&base, &self.ctx)
        }) {
            Ok(init) => init,
            Err(e) => {
                // Unwind any partial reservation before reporting.
                pipeline.release(&self.ctx.governor);
                return Err(e);
            }
        };
        let mut content: HashMap<Vec<i64>, i64> = HashMap::new();
        for row in init.inserts.iter() {
            *content.entry(row).or_insert(0) += 1;
        }

        // The official materialization run: same dynamic plan, ordinary
        // executor, traced for EXPLAIN ANALYZE. Cross-checks the delta
        // seeding (cardinalities must agree) and produces the span tree.
        let tracer = Arc::new(Tracer::new());
        let traced = ExecContext::with_limits(SharedCounters::new(), self.config.limits)
            .with_dop(self.config.dop)
            .with_tracer(Arc::clone(&tracer));
        let run = run(plan, &self.db, &self.catalog, &self.env, bindings, &traced, RootSink::Discard);
        let summary = match run {
            Ok(summary) => summary,
            Err(e) => {
                pipeline.release(&self.ctx.governor);
                return Err(e);
            }
        };
        debug_assert_eq!(
            summary.rows as usize,
            content.values().map(|&c| c as usize).sum::<usize>(),
            "delta seeding and executor disagree on the view contents"
        );
        let explain = explain_json(&tracer.report(), &self.catalog.config);

        Ok(LiveView {
            name: name.to_string(),
            sql: sql.to_string(),
            bindings: bindings.clone(),
            plan: Arc::clone(plan),
            decisions,
            bind_interval,
            pipeline,
            content,
            explain,
            rearbitrations: 0,
            fallbacks: 0,
        })
    }

    /// A full-table delta (every stored row as an insert) for each base
    /// relation the pipeline consumes. Reads are accounted: seeding a
    /// view is query-time work and participates in fault injection.
    fn full_deltas(&self, pipeline: &DeltaPipeline) -> Result<BaseDeltas, ExecError> {
        let mut out = BaseDeltas::new();
        for rel in pipeline.relations() {
            let table = self.db.table(rel);
            let width = self.catalog.relation(rel).attributes.len();
            let delta = out.entry(rel).or_insert_with(|| Delta::new(width));
            for record in table.heap.scan() {
                let record = record?;
                delta.inserts.push_row(&table.decode(&record));
            }
        }
        Ok(out)
    }

    /// Applies one write batch: storage first (heap + indexes, accounted
    /// and fault-injectable), then catalog statistics and histograms,
    /// then delta propagation into every view, then the drift check. A
    /// storage fault cuts the batch to the applied prefix — views are
    /// refreshed for exactly that prefix, so incremental contents remain
    /// equal to a full re-run over the stored data.
    ///
    /// # Errors
    /// Non-retryable propagation failures. Storage faults are reported in
    /// the outcome, not as an error; retryable rebuild failures degrade
    /// to keeping the previous state.
    pub fn commit(&mut self, ops: &[WriteOp]) -> Result<CommitOutcome, ServiceError> {
        let mut outcome = CommitOutcome {
            applied: 0,
            attempted: ops.len(),
            storage_error: None,
            rows_propagated: 0,
            rearbitrations: 0,
            plan_switches: 0,
            fallbacks: 0,
        };

        // Phase 1: the write path. First failure stops the batch; the
        // applied prefix stays durable.
        let mut base = BaseDeltas::new();
        for op in ops {
            let rel = op.relation();
            let width = self.catalog.relation(rel).attributes.len();
            let result = match op {
                WriteOp::Insert { relation, values } => {
                    match self.db.insert(&self.catalog, *relation, values) {
                        Ok(_) => Ok(Some(values)),
                        Err(e) => Err(e),
                    }
                }
                WriteOp::Delete { relation, values } => {
                    match self.db.delete(&self.catalog, *relation, values) {
                        Ok(Some(_)) => Ok(Some(values)),
                        Ok(None) => Ok(None),
                        Err(e) => Err(e),
                    }
                }
            };
            match result {
                Ok(Some(values)) => {
                    let delta = base.entry(rel).or_insert_with(|| Delta::new(width));
                    match op {
                        WriteOp::Insert { .. } => delta.inserts.push_row(values),
                        WriteOp::Delete { .. } => delta.deletes.push_row(values),
                    }
                    outcome.applied += 1;
                }
                Ok(None) => {
                    // Deleting a non-existent row: counted as applied (it
                    // is durable — the row is absent), propagates nothing.
                    outcome.applied += 1;
                }
                Err(e) => {
                    outcome.storage_error = Some(e);
                    break;
                }
            }
        }

        // Phase 2: keep the catalog honest. Heap-exact cardinalities are
        // free and refresh every commit; the histogram rebuild is an
        // O(data) scan and waits for the analyze threshold. Without this
        // hook, re-arbitration would price alternatives on stale
        // statistics.
        let epoch = self.db.refresh_stats(&mut self.catalog);
        let stored: u64 = self
            .catalog
            .relations()
            .iter()
            .map(|r| r.stats.cardinality)
            .sum();
        let threshold = ((STATS_REFRESH_FRACTION * stored as f64) as u64).max(1);
        if epoch - self.hist_epoch >= threshold {
            refresh_histograms(&self.db, &mut self.catalog, self.config.histogram_buckets);
            self.hist_epoch = epoch;
        }

        // Phase 3: propagate into every view and check for drift.
        for i in 0..self.views.len() {
            let started = Instant::now();
            let out = {
                let view = &mut self.views[i];
                view.pipeline.apply(&base, &self.ctx).map_err(ServiceError::Exec)?
            };
            let view = &mut self.views[i];
            view.merge(&out);
            outcome.rows_propagated += out.rows() as u64;
            self.metrics.add(Metric::LiveDeltaBatches, 1);
            self.metrics
                .add(Metric::LiveRowsPropagated, out.rows() as u64);
            self.metrics.observe(Hist::LiveRefresh, started.elapsed());

            let actual = view.rows() as f64;
            let band = Interval::new(
                view.bind_interval.lo() / DRIFT_TOLERANCE,
                view.bind_interval.hi() * DRIFT_TOLERANCE,
            );
            if escapes_interval(actual, band) {
                outcome.rearbitrations += 1;
                self.rearbitrate(i, actual, &mut outcome)?;
            }
        }
        Ok(outcome)
    }

    /// Re-fires start-up arbitration for view `i` with the observed
    /// cardinality pinned at the dynamic plan root (expanded across the
    /// choose-plan equivalence classes) against the refreshed catalog.
    /// If the winning alternatives changed, rebuilds the pipeline and
    /// contents from the new winner; the old state is swapped out only on
    /// success, and a retryable rebuild failure keeps it (one fallback).
    fn rearbitrate(
        &mut self,
        i: usize,
        actual: f64,
        outcome: &mut CommitOutcome,
    ) -> Result<(), ServiceError> {
        self.metrics.add(Metric::LiveRearbitrations, 1);
        self.views[i].rearbitrations += 1;
        dqep_executor::journal().record(
            dqep_executor::EventKind::LiveDrift,
            0,
            dqep_executor::NO_ID,
            u64::from(self.views[i].plan.root().0),
            actual as u64,
            self.views[i].rearbitrations,
        );

        let mut observations = Observations::new();
        observations.insert(self.views[i].plan.root(), actual);
        let plan = Arc::clone(&self.views[i].plan);
        let bindings = self.views[i].bindings.clone();
        let startup =
            evaluate_startup_observed(&plan, &self.catalog, &self.env, &bindings, &observations);
        let decisions: Vec<usize> = startup.decisions.iter().map(|d| d.chosen_index).collect();

        if decisions == self.views[i].decisions {
            // Same winner: just widen the drift reference to the freshly
            // priced interval so a stable workload does not re-fire.
            self.views[i].bind_interval = startup.resolved.root_node().stats.card;
            return Ok(());
        }

        let (name, sql) = (self.views[i].name.clone(), self.views[i].sql.clone());
        match self.materialize(&name, &sql, &plan, &bindings, &observations) {
            Ok(mut rebuilt) => {
                rebuilt.rearbitrations = self.views[i].rearbitrations;
                rebuilt.fallbacks = self.views[i].fallbacks;
                let old = std::mem::replace(&mut self.views[i], rebuilt);
                let mut old = old;
                old.pipeline.release(&self.ctx.governor);
                outcome.plan_switches += 1;
                Ok(())
            }
            Err(e) if e.is_retryable() => {
                // Degradation ladder: the old pipeline and contents are
                // still consistent — keep serving them.
                self.views[i].fallbacks += 1;
                outcome.fallbacks += 1;
                Ok(())
            }
            Err(e) => Err(ServiceError::Exec(e)),
        }
    }

    /// The view's current contents: in the maintained sort order when the
    /// plan ends in a sort, lexicographic otherwise. `None` for an
    /// unknown view.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> Option<Vec<Vec<i64>>> {
        let view = self.views.iter().find(|v| v.name == name)?;
        if let Some(ordered) = view.pipeline.ordered_snapshot() {
            return Some(ordered);
        }
        let mut rows = Vec::new();
        for (row, &count) in &view.content {
            for _ in 0..count {
                rows.push(row.clone());
            }
        }
        rows.sort_unstable();
        Some(rows)
    }

    /// EXPLAIN ANALYZE JSON of the view's most recent full
    /// materialization (registration, or the latest drift rebuild).
    #[must_use]
    pub fn explain_json(&self, name: &str) -> Option<&str> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.explain.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{make_chain_catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
    use dqep_executor::{compile_plan, drain};
    use dqep_plan::evaluate_startup;
    use dqep_storage::FaultPlan;

    const CHAIN_SQL: &str =
        "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v1 AND R2.a < :v2";

    fn chain_registry() -> LiveViewRegistry {
        let catalog = make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let db = StoredDatabase::generate(&catalog, 7);
        let env = Environment::dynamic_compile_time(&catalog.config);
        LiveViewRegistry::new(
            catalog,
            db,
            env,
            LiveConfig::default(),
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// Ground truth: parse, optimize, arbitrate, and execute `sql` fresh
    /// over the registry's *current* stored data.
    fn executed(reg: &LiveViewRegistry, sql: &str, binds: &[(&str, i64)]) -> Vec<Vec<i64>> {
        let cat = reg.catalog();
        let env = Environment::dynamic_compile_time(&cat.config);
        let query = parse_query(&normalize_sql(sql), cat).unwrap();
        let plan = Optimizer::new(cat, &env)
            .optimize_with_props(&query.expr, query.required_props())
            .unwrap()
            .plan;
        let bindings = query.bindings(binds).unwrap();
        let startup = evaluate_startup(&plan, cat, &env, &bindings);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            compile_plan(&startup.resolved, reg.database(), cat, &bindings, 1 << 22, &ctx)
                .unwrap();
        let mut rows = drain(op.as_mut()).unwrap();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn registered_view_tracks_interleaved_writes() {
        let mut reg = chain_registry();
        let binds = [("v1", 400), ("v2", 400)];
        reg.register("joined", CHAIN_SQL, &binds).unwrap();
        assert_eq!(
            reg.snapshot("joined").unwrap(),
            executed(&reg, CHAIN_SQL, &binds),
            "registration materializes the current contents"
        );
        let r1 = reg.catalog().relation_by_name("R1").unwrap().id;
        let r2 = reg.catalog().relation_by_name("R2").unwrap().id;
        // Matching and non-matching inserts, then delete one of them.
        let outcome = reg
            .commit(&[
                WriteOp::Insert { relation: r1, values: vec![10, 1, 99] },
                WriteOp::Insert { relation: r2, values: vec![20, 99, 1] },
                WriteOp::Insert { relation: r1, values: vec![9999, 1, 98] },
            ])
            .unwrap();
        assert_eq!(outcome.applied, 3);
        assert!(outcome.storage_error.is_none());
        assert_eq!(reg.snapshot("joined").unwrap(), executed(&reg, CHAIN_SQL, &binds));
        let outcome = reg
            .commit(&[WriteOp::Delete { relation: r2, values: vec![20, 99, 1] }])
            .unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(reg.snapshot("joined").unwrap(), executed(&reg, CHAIN_SQL, &binds));
        let views = reg.views();
        assert_eq!(views.len(), 1);
        assert!(views[0].rows > 0);
        // The explain of the materialization validates against the schema.
        let explain = reg.explain_json("joined").unwrap();
        assert!(dqep_executor::validate_explain_json(explain).is_ok(), "{explain}");
    }

    #[test]
    fn storage_fault_cuts_commit_to_consistent_prefix() {
        let mut reg = chain_registry();
        let binds = [("v1", 500), ("v2", 500)];
        reg.register("joined", CHAIN_SQL, &binds).unwrap();
        let r1 = reg.catalog().relation_by_name("R1").unwrap().id;
        reg.database_mut().disk.set_fault_plan(FaultPlan {
            fail_nth_writes: vec![2],
            ..FaultPlan::none()
        });
        let outcome = reg
            .commit(&[
                WriteOp::Insert { relation: r1, values: vec![5, 1, 1] },
                WriteOp::Insert { relation: r1, values: vec![6, 1, 1] },
                WriteOp::Insert { relation: r1, values: vec![7, 1, 1] },
            ])
            .unwrap();
        reg.database_mut().disk.set_fault_plan(FaultPlan::none());
        assert_eq!(outcome.applied, 1, "second write faulted");
        assert!(outcome.storage_error.is_some());
        // The view reflects exactly the applied prefix.
        assert_eq!(reg.snapshot("joined").unwrap(), executed(&reg, CHAIN_SQL, &binds));
    }

    #[test]
    fn drift_rearbitrates_and_switches_the_winner() {
        // Figure 1 economics: 1000 rows, `a < 10` → the index alternative
        // wins at registration. Bulk inserts of matching rows push the
        // view's cardinality far outside the bind-time interval; the
        // refreshed statistics make the file-scan alternative the winner.
        let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&catalog, 3);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let metrics = Arc::new(MetricsRegistry::new());
        let mut reg =
            LiveViewRegistry::new(catalog, db, env, LiveConfig::default(), Arc::clone(&metrics));

        let sql = "SELECT * FROM r WHERE r.a < :v";
        reg.register("small", sql, &[("v", 10)]).unwrap();
        let before = reg.views()[0].decisions.clone();
        assert!(!before.is_empty(), "dynamic plan has a choose-plan decision");

        let r = reg.catalog().relation_by_name("r").unwrap().id;
        let ops: Vec<WriteOp> = (0..600)
            .map(|i| WriteOp::Insert { relation: r, values: vec![i % 9] })
            .collect();
        let outcome = reg.commit(&ops).unwrap();
        assert!(outcome.rearbitrations > 0, "drift fired: {outcome:?}");
        assert!(outcome.plan_switches > 0, "the winner changed: {outcome:?}");
        let after = reg.views()[0].decisions.clone();
        assert_ne!(before, after, "a different alternative won");
        assert_eq!(
            metrics.get(Metric::LiveRearbitrations),
            outcome.rearbitrations
        );

        // Parity survives the rebuild.
        assert_eq!(reg.snapshot("small").unwrap(), executed(&reg, sql, &[("v", 10)]));

        // A further small write does not re-fire on a stable workload.
        let quiet = reg
            .commit(&[WriteOp::Insert { relation: r, values: vec![500] }])
            .unwrap();
        assert_eq!(quiet.rearbitrations, 0, "{quiet:?}");
        assert_eq!(reg.snapshot("small").unwrap(), executed(&reg, sql, &[("v", 10)]));
    }
}
