//! Microbenchmarks of the optimizer's building blocks: interval
//! comparisons, frontier insertion, memo exploration, and cost-function
//! evaluation — the operations whose counts explain Figures 5 and 7.

use criterion::{criterion_group, criterion_main, Criterion};
use dqep_algebra::PhysicalOp;
use dqep_catalog::{CatalogBuilder, RelationId, SystemConfig};
use dqep_cost::{Bindings, CostModel, Environment, PlanStats};
use dqep_interval::Interval;
use dqep_plan::evaluate_startup;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer_micro");

    // Interval comparison: the innermost search operation.
    let a = Interval::new(0.1, 4.2);
    let b = Interval::new(3.9, 9.0);
    group.bench_function("interval_compare", |bch| b_iter_cmp(bch, a, b));

    // Cost-function evaluation (the unit of Figure 7's start-up effort).
    let cat = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
        .build()
        .unwrap();
    let env = Environment::dynamic_compile_time(&cat.config);
    let model = CostModel::new(&cat, &env);
    let op = PhysicalOp::FileScan {
        relation: RelationId(0),
    };
    let stats = PlanStats::new(Interval::point(1000.0), 512.0);
    group.bench_function("cost_function_eval", |bch| {
        bch.iter(|| model.op_cost(&op, &[], &[], &stats).total().hi())
    });

    // The 10-way chain (logical plan space of ~2.5M trees held in ~55
    // groups), phase by phase: exploration alone, whole static and dynamic
    // optimization, and the start-up decision over the dynamic plan.
    let w = dqep_harness::paper_query(5, 11);
    let senv = Environment::static_compile_time(&w.catalog.config);
    let denv = Environment::dynamic_compile_time(&w.catalog.config);
    group.bench_function("explore_10way", |bch| {
        bch.iter(|| {
            dqep_core::Optimizer::new(&w.catalog, &denv)
                .explore(&w.query)
                .unwrap()
                .0
                .expr_count()
        })
    });
    group.bench_function("optimize_10way_static", |bch| {
        bch.iter(|| {
            dqep_core::Optimizer::new(&w.catalog, &senv)
                .optimize(&w.query)
                .unwrap()
                .stats
                .groups
        })
    });
    group.bench_function("optimize_10way_dynamic", |bch| {
        bch.iter(|| {
            dqep_core::Optimizer::new(&w.catalog, &denv)
                .optimize(&w.query)
                .unwrap()
                .stats
                .plan_nodes
        })
    });
    let dynamic = dqep_core::Optimizer::new(&w.catalog, &denv)
        .optimize(&w.query)
        .unwrap()
        .plan;
    let bindings = w
        .host_vars
        .iter()
        .fold(Bindings::new(), |b, (var, _)| b.with_value(*var, 40));
    group.bench_function("startup_10way_dynamic", |bch| {
        bch.iter(|| evaluate_startup(&dynamic, &w.catalog, &denv, &bindings).evaluated_nodes)
    });
    group.finish();
}

fn b_iter_cmp(bch: &mut criterion::Bencher, a: Interval, b: Interval) {
    bch.iter(|| (a.compare(b), a.dominates(b), a.min(b)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
