//! Intra-query parallelism benchmark fixtures: the same physical plan
//! executed at DOP 1, 2, and 4.
//!
//! Shared by the `bench_parallel` binary that emits `BENCH_parallel.json`.
//! Every case paces its simulated disk with a per-page I/O latency
//! ([`dqep_storage::SimDisk::set_io_latency_micros`]), so the wall-clock
//! shape of a query resembles a device with real latency: exchange
//! workers overlap their I/O stalls, which is where partition parallelism
//! pays off. Because the stalls are sleeps, the speedup is observable
//! even on a single-core runner — what is measured is I/O overlap, not
//! CPU scheduling. Simulated-cost accounting is identical at every DOP
//! (the parallel-parity tests pin that down); the benchmark measures the
//! wall-clock difference that remains.

use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{JoinPred, PhysicalOp};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_cost::{Bindings, Cost, Environment, PlanStats};
use dqep_executor::{run, ExecContext, RootSink, SharedCounters};
use dqep_interval::Interval;
use dqep_plan::{NodeId, Plan};
use dqep_storage::StoredDatabase;

/// The degrees of parallelism every case is measured at.
pub const DOPS: [usize; 3] = [1, 2, 4];

/// One parallelism benchmark: a stored database (with a paced disk) and a
/// plan over it.
pub struct ParallelBenchCase {
    /// Benchmark name, stable across runs (used as the JSON key).
    pub name: &'static str,
    catalog: Catalog,
    db: StoredDatabase,
    plan: Arc<Plan>,
    env: Environment,
    bindings: Bindings,
}

/// Wall-clock measurement of one case at one DOP.
#[derive(Debug, Clone, Copy)]
pub struct DopMeasurement {
    /// Degree of parallelism executed at.
    pub dop: usize,
    /// Result rows per execution.
    pub rows: u64,
    /// Mean wall-clock milliseconds per execution.
    pub millis: f64,
}

impl ParallelBenchCase {
    /// Executes the case once at `dop`, returning the result row count.
    ///
    /// # Panics
    /// Panics if execution fails — benchmark plans run ungoverned against
    /// fault-free storage, so failure is a bug.
    pub fn run(&self, dop: usize) -> u64 {
        let ctx = ExecContext::new(SharedCounters::new()).with_dop(dop);
        run(&self.plan, &self.db, &self.catalog, &self.env, &self.bindings, &ctx, RootSink::Discard)
            .expect("benchmark plan must execute")
            .rows
    }

    /// Times `iters` executions at `dop` and averages.
    ///
    /// # Panics
    /// As [`Self::run`]; also panics if the case returns zero rows.
    pub fn measure(&self, dop: usize, iters: u32) -> DopMeasurement {
        // One warm-up run, untimed.
        let rows = self.run(dop);
        assert!(rows > 0, "benchmark case {} produced no rows", self.name);
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            std::hint::black_box(self.run(dop));
        }
        DopMeasurement {
            dop,
            rows,
            millis: start.elapsed().as_secs_f64() * 1e3 / f64::from(iters.max(1)),
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

/// Full sequential scan of `rows` base rows: pure partition-parallel I/O.
fn scan_case(rows: u64, seed: u64, latency_us: u64) -> ParallelBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 256, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    db.disk.set_io_latency_micros(latency_us);
    let rel = catalog.relation_by_name("big").expect("relation");
    let mut b = Plan::new();
    let root = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, &[], &[], rows as f64);
    let plan = Arc::new(b.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    ParallelBenchCase { name: "scan", catalog, db, plan, env, bindings: Bindings::new() }
}

/// In-memory hash join, build on the smaller input: both scans fan out
/// into morsel workers and the partition build + probe runs per-partition
/// on worker threads. The acceptance gate case.
fn hash_join_case(rows: u64, seed: u64, latency_us: u64) -> ParallelBenchCase {
    let build_rows = (rows / 8).max(1);
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("dim", build_rows, 256, |r| {
            r.attr("k", build_rows as f64).attr("v", 64.0)
        })
        .relation("fact", rows, 256, |r| r.attr("fk", build_rows as f64).attr("m", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    db.disk.set_io_latency_micros(latency_us);
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
    // Keep the build resident: the parallel in-memory strategy is the
    // measured path (Grace adds spill I/O that the serial path also pays).
    let bindings = Bindings::new().with_memory(1024.0);
    ParallelBenchCase { name: "hash_join", catalog, db, plan, env, bindings }
}

/// External-ish sort over a parallel scan: run generation splits each
/// chunk across workers, and the feeding scan is morsel-parallel.
fn sort_case(rows: u64, seed: u64, latency_us: u64) -> ParallelBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 256, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    db.disk.set_io_latency_micros(latency_us);
    let rel = catalog.relation_by_name("big").expect("relation");
    let ra = rel.attr_id("a").expect("attr");
    let mut b = Plan::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, &[], &[], rows as f64);
    let root = node(&mut b, PhysicalOp::Sort { attr: ra }, &[scan], &[], rows as f64);
    let plan = Arc::new(b.finish(root));
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new().with_memory(1024.0);
    ParallelBenchCase { name: "sort", catalog, db, plan, env, bindings }
}

/// The standard parallel suite: scan, hash join, sort, all over a disk
/// paced at `latency_us` per page.
#[must_use]
pub fn parallel_cases(scale: u64, seed: u64, latency_us: u64) -> Vec<ParallelBenchCase> {
    vec![
        scan_case(scale, seed, latency_us),
        hash_join_case(scale, seed, latency_us),
        sort_case(scale, seed, latency_us),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every case produces the same row count at every DOP (unpaced, so
    /// the test is fast).
    #[test]
    fn cases_agree_across_dops() {
        for case in parallel_cases(2_000, 5, 0) {
            let serial = case.run(1);
            assert!(serial > 0, "{}: no rows", case.name);
            for dop in [2usize, 4] {
                assert_eq!(case.run(dop), serial, "{} at dop {dop}", case.name);
            }
        }
    }
}
