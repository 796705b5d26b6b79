//! Extension experiment: selectivity-estimation error and its remedies.
//!
//! Not part of the paper's evaluation — this exercises the *future work*
//! its final section motivates: on skewed data the uniform selectivity
//! model misleads even the start-up-time decision (the binding is known,
//! but the fraction it selects is not). Two remedies are measured against
//! the estimation-blind baseline, on actually-executed (simulated-time)
//! queries:
//!
//! * **histograms** — equi-width statistics repair the bound estimate at
//!   optimization/start-up time;
//! * **adaptive** — one pilot-execution round observes the uncertain
//!   subplan's true cardinality before deciding (Section 7's "evaluating
//!   subplans as part of choose-plan decision procedures").

use std::sync::Arc;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_cost::{Bindings, Environment};
use dqep_core::Optimizer;
use dqep_executor::{pick_pilot, ExecContext, ReoptConfig, ReoptState, RootSink, SharedCounters};
use dqep_storage::{install_histograms, StoredDatabase, ValueDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{fmt_ratio, fmt_secs, Table};

/// One data point: a skew level and the three strategies' average
/// executed times.
#[derive(Debug, Clone, Copy)]
pub struct ExtensionRow {
    /// Zipf exponent of the stored data (0 = uniform).
    pub skew: f64,
    /// Estimation-blind dynamic plan, average executed (simulated) secs.
    pub blind: f64,
    /// With histograms installed.
    pub histogram: f64,
    /// Adaptive (pilot + main), including the pilot's cost.
    pub adaptive: f64,
    /// Adaptive main execution only (the decision-quality component).
    pub adaptive_main: f64,
}

fn workload(skew: f64, seed: u64) -> (Catalog, StoredDatabase, LogicalExpr) {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 800, 512, |r| {
            r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
        })
        .relation("s", 400, 512, |r| {
            r.attr("a", 400.0).attr("j", 200.0).btree("j", false)
        })
        .build()
        .expect("catalog");
    let dist = if skew == 0.0 {
        ValueDistribution::Uniform
    } else {
        ValueDistribution::Zipf { exponent: skew }
    };
    let db = StoredDatabase::generate_with(&catalog, seed, dist);
    let r = catalog.relation_by_name("r").expect("r");
    let s = catalog.relation_by_name("s").expect("s");
    let q = LogicalExpr::get(r.id)
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
    (catalog, db, q)
}

/// Runs the experiment across skew levels.
#[must_use]
pub fn run(invocations: usize, seed: u64) -> Vec<ExtensionRow> {
    [0.0f64, 0.6, 1.0, 1.4]
        .into_iter()
        .map(|skew| run_one(skew, invocations, seed))
        .collect()
}

fn run_one(skew: f64, invocations: usize, seed: u64) -> ExtensionRow {
    let (catalog, db, query) = workload(skew, seed);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let blind_plan = Optimizer::new(&catalog, &env)
        .optimize(&query)
        .expect("optimize")
        .plan;

    let mut hist_catalog = catalog.clone();
    install_histograms(&db, &mut hist_catalog, 32).expect("histograms");
    let hist_plan = Optimizer::new(&hist_catalog, &env)
        .optimize(&query)
        .expect("optimize")
        .plan;

    let cfg = &catalog.config;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE77);
    let (mut blind, mut histogram, mut adaptive, mut adaptive_main) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..invocations {
        // Bindings target the head of the domain — the values Zipf piles
        // its mass on and real applications query most. This is the regime
        // where the uniform estimate ("v/domain is tiny") and the truth
        // ("most rows qualify") diverge hardest.
        let v = rng.gen_range(1..120);
        let b = Bindings::new().with_value(HostVar(0), v);

        let seconds = |plan, catalog, ctx: ExecContext| {
            let summary = dqep_executor::run(plan, &db, catalog, &env, &b, &ctx, RootSink::Discard)
                .expect("exec");
            summary.simulated_seconds(cfg)
        };
        let plain = || ExecContext::new(SharedCounters::new());
        blind += seconds(&blind_plan, &catalog, plain());
        histogram += seconds(&hist_plan, &hist_catalog, plain());

        // The same run told to observe the pilot first; what its
        // checkpoints cost is read off the state afterwards.
        let state = Arc::new(
            ReoptState::new(ReoptConfig::default()).observing_first(pick_pilot(&blind_plan)),
        );
        let total = seconds(&blind_plan, &catalog, plain().with_reopt(Arc::clone(&state)));
        adaptive += total;
        adaptive_main += total - state.checkpoint_cost().simulated_seconds(cfg);
    }
    let n = invocations.max(1) as f64;
    ExtensionRow {
        skew,
        blind: blind / n,
        histogram: histogram / n,
        adaptive: adaptive / n,
        adaptive_main: adaptive_main / n,
    }
}

/// Renders the extension table.
#[must_use]
pub fn table(rows: &[ExtensionRow]) -> Table {
    let mut t = Table::new(
        "Extension: estimation error on skewed data — executed (simulated) time per invocation \
         (blind vs histogram statistics vs one-round adaptive execution)",
        &[
            "zipf skew",
            "blind",
            "histogram",
            "adaptive (incl pilot)",
            "adaptive main",
            "hist gain",
            "adaptive gain",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.1}", r.skew),
            fmt_secs(r.blind),
            fmt_secs(r.histogram),
            fmt_secs(r.adaptive),
            fmt_secs(r.adaptive_main),
            fmt_ratio(r.blind / r.histogram),
            fmt_ratio(r.blind / r.adaptive_main),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remedies_win_under_heavy_skew() {
        let rows = run(12, 5);
        let uniform = &rows[0];
        let heavy = rows.last().expect("rows");
        // On uniform data all strategies are close (within 20%).
        assert!((uniform.blind / uniform.histogram - 1.0).abs() < 0.2);
        // Under heavy skew the remedies must deliver a real gain.
        assert!(
            heavy.blind / heavy.histogram > 1.3,
            "expected a histogram gain, got {} vs {}",
            heavy.blind,
            heavy.histogram
        );
        // Under heavy skew, better estimates must not lose, and the main
        // execution of the adaptive strategy tracks the histogram one.
        assert!(
            heavy.histogram <= heavy.blind * 1.05,
            "histogram {} vs blind {}",
            heavy.histogram,
            heavy.blind
        );
        assert!(
            heavy.adaptive_main <= heavy.blind * 1.05,
            "adaptive main {} vs blind {}",
            heavy.adaptive_main,
            heavy.blind
        );
        assert!(table(&rows).render().contains("Extension"));
    }
}
