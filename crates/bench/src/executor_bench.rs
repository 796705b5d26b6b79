//! Executor micro-benchmark fixtures: wall-clock cost of the execution
//! engine over fixed physical plans.
//!
//! Shared by the criterion bench (`benches/executor_batch.rs`) and the
//! `bench_executor` binary that emits `BENCH_executor.json`. Each case
//! holds a generated database plus a physical plan; measurements report
//! wall-clock rows/sec and ns/row.

use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{CompareOp, JoinPred, PhysicalOp, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Cost, Environment, PlanStats};
use dqep_executor::{run, ExecContext, RootSink, SharedCounters};
use dqep_harness::{paper_query, BindingSampler};
use dqep_interval::Interval;
use dqep_plan::{NodeId, Plan};
use dqep_storage::StoredDatabase;

/// One executor benchmark: a stored database and a plan over it.
pub struct ExecBenchCase {
    /// Benchmark name, stable across runs (used as the JSON key).
    pub name: &'static str,
    catalog: Catalog,
    db: StoredDatabase,
    plan: Arc<Plan>,
    env: Environment,
    bindings: Bindings,
}

/// Wall-clock measurement of one case.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Result rows per execution.
    pub rows: u64,
    /// Mean wall-clock nanoseconds per result row.
    pub ns_per_row: f64,
    /// Result rows per second.
    pub rows_per_sec: f64,
}

impl ExecBenchCase {
    /// Executes the case once, returning the result row count.
    ///
    /// # Panics
    /// Panics if execution fails — benchmark plans run ungoverned against
    /// fault-free storage, so failure is a bug.
    pub fn run(&self) -> u64 {
        let ctx = ExecContext::new(SharedCounters::new());
        run(&self.plan, &self.db, &self.catalog, &self.env, &self.bindings, &ctx, RootSink::Discard)
            .expect("benchmark plan must execute")
            .rows
    }

    /// Times `iters` executions and averages.
    ///
    /// # Panics
    /// As [`Self::run`]; also panics if the case returns zero rows (the
    /// normalization would be meaningless).
    pub fn measure(&self, iters: u32) -> Measurement {
        // One warm-up run, untimed.
        let rows = self.run();
        assert!(rows > 0, "benchmark case {} produced no rows", self.name);
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            std::hint::black_box(self.run());
        }
        let nanos = start.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
        Measurement {
            rows,
            ns_per_row: nanos / rows as f64,
            rows_per_sec: rows as f64 * 1e9 / nanos,
        }
    }
}

fn node(
    b: &mut Plan,
    op: PhysicalOp,
    children: &[NodeId],
    preds: &[JoinPred],
    rows: f64,
) -> NodeId {
    b.push(op, children, preds, PlanStats::new(Interval::point(rows), 512.0), Cost::ZERO)
}

/// Full sequential scan of `rows` base rows.
fn scan_case(rows: u64, seed: u64) -> ExecBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 16, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let rel = catalog.relation_by_name("big").expect("relation");
    let mut b = Plan::new();
    let root = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, &[], &[], rows as f64);
    let plan = Arc::new(b.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    ExecBenchCase { name: "scan", catalog, db, plan, env, bindings: Bindings::new() }
}

/// Filter over a sequential scan, ~50% selectivity — the headline
/// vectorization case: the predicate is evaluated into a selection
/// vector without copying rows.
fn scan_filter_case(rows: u64, seed: u64) -> ExecBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 16, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let rel = catalog.relation_by_name("big").expect("relation");
    let ra = rel.attr_id("a").expect("attr");
    let mut b = Plan::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, &[], &[], rows as f64);
    let root = node(
        &mut b,
        PhysicalOp::Filter { predicate: SelectPred::bound(ra, CompareOp::Lt, (rows / 2) as i64) },
        &[scan], &[],
        rows as f64 / 2.0,
    );
    let plan = Arc::new(b.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    ExecBenchCase { name: "scan_filter", catalog, db, plan, env, bindings: Bindings::new() }
}

/// In-memory hash join: build on the smaller left input, probe with the
/// larger right (~1 match per probe row).
fn hash_join_case(rows: u64, seed: u64) -> ExecBenchCase {
    let build_rows = (rows / 8).max(1);
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("dim", build_rows, 16, |r| {
            r.attr("k", build_rows as f64).attr("v", 64.0)
        })
        .relation("fact", rows, 16, |r| r.attr("fk", build_rows as f64).attr("m", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let dim = catalog.relation_by_name("dim").expect("relation");
    let fact = catalog.relation_by_name("fact").expect("relation");
    let mut b = Plan::new();
    let dim_scan = PhysicalOp::FileScan { relation: dim.id };
    let build = node(&mut b, dim_scan, &[], &[], build_rows as f64);
    let probe = node(&mut b, PhysicalOp::FileScan { relation: fact.id }, &[], &[], rows as f64);
    let root = node(
        &mut b,
        PhysicalOp::HashJoin,
        &[build, probe],
        &[JoinPred::new(
            dim.attr_id("k").expect("attr"),
            fact.attr_id("fk").expect("attr"),
        )],
        rows as f64,
    );
    let plan = Arc::new(b.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    // Grant enough memory to keep the build in memory: this benchmark
    // targets the vectorized probe loop, not Grace partitioning.
    let bindings = Bindings::new().with_memory((build_rows as f64 / 4.0).max(64.0));
    ExecBenchCase { name: "hash_join", catalog, db, plan, env, bindings }
}

/// External sort over a sequential scan on a non-key attribute, with a
/// memory grant large enough to sort in memory — batched ingest, sorted
/// output streamed in batches.
fn sort_case(rows: u64, seed: u64) -> ExecBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 16, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let rel = catalog.relation_by_name("big").expect("relation");
    let rb = rel.attr_id("b").expect("attr");
    let mut b = Plan::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, &[], &[], rows as f64);
    let root = node(&mut b, PhysicalOp::Sort { attr: rb }, &[scan], &[], rows as f64);
    let plan = Arc::new(b.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    // Grant enough memory to keep the sort in-memory: this benchmark
    // targets the fill/emit loops, not external-merge I/O.
    let bindings = Bindings::new().with_memory((rows as f64).max(64.0));
    ExecBenchCase { name: "sort", catalog, db, plan, env, bindings }
}

/// The paper's query 3 (4-relation chain) through the optimizer, at
/// mid-range selectivities — end-to-end interpretation overhead on a
/// realistic dynamic plan.
fn paper_query_case(seed: u64) -> ExecBenchCase {
    let w = paper_query(3, seed);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env)
        .optimize(&w.query)
        .expect("paper query optimizes")
        .plan;
    let db = StoredDatabase::generate(&w.catalog, seed);
    let bindings = BindingSampler::new(seed, false).sample(&w);
    ExecBenchCase { name: "paper_q3", catalog: w.catalog, db, plan, env, bindings }
}

/// The standard suite: scan, scan+filter, hash join, sort, paper query 3.
/// `scale` is the large-table row count (the hash-join probe side).
#[must_use]
pub fn standard_cases(scale: u64, seed: u64) -> Vec<ExecBenchCase> {
    vec![
        scan_case(scale, seed),
        scan_filter_case(scale, seed),
        hash_join_case(scale, seed),
        sort_case(scale, seed),
        paper_query_case(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every case executes and produces rows.
    #[test]
    fn cases_execute() {
        for case in standard_cases(2_000, 5) {
            assert!(case.run() > 0, "{}: no rows", case.name);
        }
    }
}
