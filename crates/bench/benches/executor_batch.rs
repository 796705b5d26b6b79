//! Executor bench: the execution engine over the standard plans.
//!
//! Five cases — sequential scan, scan+filter, in-memory hash join,
//! in-memory sort, and the paper's query 3. The `bench_executor` binary
//! runs the same cases and writes `BENCH_executor.json`; this bench
//! exists so `cargo bench` exercises them too.

use criterion::{criterion_group, criterion_main, Criterion};
use dqep_bench::executor_bench::standard_cases;

/// Scale is modest here: the criterion shim runs a fixed iteration
/// count and every sample executes the full query.
const SCALE: u64 = 20_000;

fn bench(c: &mut Criterion) {
    let cases = standard_cases(SCALE, 11);
    let mut group = c.benchmark_group("executor_batch");
    for case in &cases {
        group.bench_function(case.name, |b| {
            b.iter(|| case.run());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
