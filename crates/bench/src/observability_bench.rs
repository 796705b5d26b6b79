//! Tracing-overhead benchmark fixture: the same plan executed with
//! tracing disabled and enabled.
//!
//! Shared by the `bench_observability` binary that emits
//! `BENCH_observability.json`. The disabled path compiles **zero**
//! wrappers — `compile_plan` pays one branch per plan node and nothing at
//! run time — so the honest way to bound "disabled overhead" is an A/A
//! comparison: two interleaved disabled series whose relative difference
//! measures the noise floor any true overhead would have to exceed. The
//! enabled-vs-disabled delta is reported too, as the (informational)
//! price of turning tracing on.

use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{make_chain_catalog, Catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
use dqep_cost::{Bindings, Environment};
use dqep_core::Optimizer;
use dqep_executor::{run, ExecContext, RootSink, SharedCounters, Tracer};
use dqep_plan::Plan;
use dqep_storage::StoredDatabase;

/// A stored database and an optimized dynamic plan to run repeatedly.
pub struct ObservabilityBenchCase {
    catalog: Catalog,
    db: StoredDatabase,
    plan: Arc<Plan>,
    env: Environment,
    bindings: Bindings,
}

/// One timed execution: result rows, wall-clock milliseconds, and the
/// number of spans recorded (0 when tracing was disabled).
#[derive(Debug, Clone, Copy)]
pub struct ObsMeasurement {
    /// Result rows produced.
    pub rows: u64,
    /// Wall-clock milliseconds for the execution.
    pub millis: f64,
    /// Spans recorded (0 with tracing disabled).
    pub spans: usize,
}

/// Builds the benchmark case: a two-relation join with an unbound
/// selection (so the optimizer emits choose-plan nodes and the traced run
/// exercises the audit path too), `scale` rows in the outer relation.
#[must_use]
pub fn observability_case(scale: u64, seed: u64) -> ObservabilityBenchCase {
    let inner = (scale * 3).max(1);
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", scale, 512, |r| {
            r.attr("a", scale as f64)
                .attr("j", (scale / 4).max(1) as f64)
                .btree("a", false)
                .btree("j", false)
        })
        .relation("s", inner, 512, |r| {
            r.attr("a", inner as f64)
                .attr("j", (scale / 4).max(1) as f64)
                .btree("a", false)
                .btree("j", false)
        })
        .build()
        .expect("valid bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let r = catalog.relation_by_name("r").expect("r");
    let s = catalog.relation_by_name("s").expect("s");
    let query = LogicalExpr::get(r.id)
        .select(SelectPred::unbound(
            r.attr_id("a").expect("attr"),
            CompareOp::Lt,
            HostVar(0),
        ))
        .join(
            LogicalExpr::get(s.id),
            vec![JoinPred::new(
                r.attr_id("j").expect("attr"),
                s.attr_id("j").expect("attr"),
            )],
        );
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env)
        .optimize(&query)
        .expect("bench plan optimizes")
        .plan;
    let bindings = Bindings::new()
        .with_value(HostVar(0), (scale / 2) as i64)
        .with_memory(96.0);
    ObservabilityBenchCase { catalog, db, plan, env, bindings }
}

impl ObservabilityBenchCase {
    /// Executes once, traced into `tracer` if there is one.
    fn run_with(&self, tracer: Option<&Arc<Tracer>>) -> ObsMeasurement {
        let started = Instant::now();
        let mut ctx = ExecContext::new(SharedCounters::new());
        if let Some(tracer) = tracer {
            ctx = ctx.with_tracer(Arc::clone(tracer));
        }
        let summary =
            run(&self.plan, &self.db, &self.catalog, &self.env, &self.bindings, &ctx, RootSink::Discard)
                .expect("bench execution");
        // Reading the trace back is part of what tracing costs.
        let spans = tracer.map_or(0, |t| t.report().spans.len());
        ObsMeasurement {
            rows: summary.rows,
            millis: started.elapsed().as_secs_f64() * 1e3,
            spans,
        }
    }

    /// Executes once with tracing disabled.
    ///
    /// # Panics
    /// Panics if execution fails — benchmark plans run ungoverned against
    /// fault-free storage, so failure is a bug.
    #[must_use]
    pub fn run_untraced(&self) -> ObsMeasurement {
        self.run_with(None)
    }

    /// Executes once with tracing enabled.
    ///
    /// # Panics
    /// Panics if execution fails — benchmark plans run ungoverned against
    /// fault-free storage, so failure is a bug.
    #[must_use]
    pub fn run_traced(&self) -> ObsMeasurement {
        self.run_with(Some(&Arc::new(Tracer::new())))
    }
}

/// Distributed-tracing overhead fixture: the same join executed through
/// two identical 2-shard services, one with cross-shard trace propagation
/// off (the default — shard tracers audit only) and one with it on
/// (frame headers carry trace context, send/receive spans record wire
/// accounting, the coordinator merges the per-shard timelines).
pub struct ShardedObsCase {
    untraced: dqep_service::ShardedService,
    traced: dqep_service::ShardedService,
    sql: String,
    bind: i64,
}

/// Builds the sharded fixture: a 2-relation chain catalog with `scale`
/// rows per relation — large enough that per-query work dominates the
/// shard-thread spawn jitter the A/A bound has to see through.
#[must_use]
pub fn sharded_observability_case(scale: u64, seed: u64) -> ShardedObsCase {
    let spec = SyntheticSpec {
        n_relations: 2,
        min_cardinality: scale,
        max_cardinality: scale + scale / 4,
        record_len: 128,
        domain_factor_min: 0.2,
        domain_factor_max: 1.25,
        seed,
    };
    let service = |trace: bool| {
        let catalog = make_chain_catalog(&spec, SystemConfig::paper_1994());
        let config = dqep_service::ShardConfig {
            shards: 2,
            dop: 2,
            data_seed: seed,
            trace,
            ..dqep_service::ShardConfig::default()
        };
        dqep_service::ShardedService::new(catalog, config)
    };
    ShardedObsCase {
        untraced: service(false),
        traced: service(true),
        sql: "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :x".to_string(),
        bind: (scale / 2) as i64,
    }
}

impl ShardedObsCase {
    /// Executes the query once on the untraced (`traced = false`) or
    /// traced service, reporting wall time and recorded spans.
    ///
    /// # Panics
    /// Panics if execution fails — the fixture runs fault-free.
    #[must_use]
    pub fn run(&self, traced: bool) -> ObsMeasurement {
        let service = if traced { &self.traced } else { &self.untraced };
        let started = Instant::now();
        let out = service
            .execute(&self.sql, &[("x", self.bind)])
            .expect("sharded bench execution");
        ObsMeasurement {
            rows: out.rows.len() as u64,
            millis: started.elapsed().as_secs_f64() * 1e3,
            spans: out.trace.as_ref().map_or(0, |t| t.spans.len()),
        }
    }
}
