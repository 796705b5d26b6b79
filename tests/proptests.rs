//! Property-based tests over randomized catalogs, queries, and bindings.

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::optimizer::Optimizer;
use dqep::plan::{dag, evaluate_startup, AccessModule};
use proptest::prelude::*;

/// A randomized 1–3 relation chain workload: random cardinalities, domain
/// factors, and a choice of which relations carry unbound selections.
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
    selected: Vec<bool>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=3).prop_flat_map(|n| {
        (
            proptest::collection::vec(50u64..1500, n),
            proptest::collection::vec(0.2f64..1.25, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(cards, domain_factors, mut selected)| {
                // At least one unbound predicate so dynamic plans can arise.
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload {
                    cards,
                    domain_factors,
                    selected,
                }
            })
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
    let mut hosts = Vec::new();
    let leaf = |i: usize, hosts: &mut Vec<(HostVar, f64)>| {
        let mut e = LogicalExpr::get(rels[i].id);
        if w.selected[i] {
            let var = HostVar(i as u32);
            hosts.push((var, rels[i].attributes[0].domain_size));
            e = e.select(SelectPred::unbound(
                rels[i].attr_id("a").expect("attr"),
                CompareOp::Lt,
                var,
            ));
        }
        e
    };
    let mut q = leaf(0, &mut hosts);
    for i in 1..w.cards.len() {
        q = q.join(
            leaf(i, &mut hosts),
            vec![JoinPred::new(
                rels[i - 1].attr_id("j").expect("attr"),
                rels[i].attr_id("j").expect("attr"),
            )],
        );
    }
    (catalog, q, hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every optimized plan satisfies structural invariants, in all modes.
    #[test]
    fn optimized_plans_are_well_formed(w in workload_strategy()) {
        let (catalog, query, _) = build(&w);
        for env in [
            Environment::static_compile_time(&catalog.config),
            Environment::dynamic_compile_time(&catalog.config),
            Environment::dynamic_uncertain_memory(&catalog.config),
        ] {
            let result = Optimizer::new(&catalog, &env).optimize(&query).unwrap();
            prop_assert!(result.plan.check_invariants().is_ok());
            prop_assert!(result.stats.plan_nodes >= 1);
            // Static mode always produces a single static plan.
            if !env.has_uncertainty() {
                prop_assert!(!result.plan.is_dynamic());
            }
        }
    }

    /// The dynamic plan is never more expensive than the static plan at
    /// any sampled binding (robustness), and its compile-time interval
    /// encloses every resolved cost (soundness).
    #[test]
    fn robustness_and_soundness(w in workload_strategy(), sels in proptest::collection::vec(0.0f64..=1.0, 3)) {
        let (catalog, query, hosts) = build(&w);
        let static_env = Environment::static_compile_time(&catalog.config);
        let dynamic_env = Environment::dynamic_compile_time(&catalog.config);
        let sp = Optimizer::new(&catalog, &static_env).optimize(&query).unwrap().plan;
        let dp = Optimizer::new(&catalog, &dynamic_env).optimize(&query).unwrap().plan;
        let interval = dp.root_node().total_cost.total();
        let slack = dag::node_count(&dp) as f64 * catalog.config.choose_plan_overhead * 4.0;

        for (i, &sel) in sels.iter().enumerate() {
            let mut b = Bindings::new();
            for (j, &(var, domain)) in hosts.iter().enumerate() {
                let s = sels[(i + j) % sels.len()].min(sel.max(0.0));
                b = b.with_value(var, (s * domain) as i64);
            }
            let st = evaluate_startup(&sp, &catalog, &static_env, &b);
            let dy = evaluate_startup(&dp, &catalog, &dynamic_env, &b);
            prop_assert!(
                dy.predicted_run_seconds <= st.predicted_run_seconds + 1e-9,
                "dynamic {} > static {}", dy.predicted_run_seconds, st.predicted_run_seconds
            );
            prop_assert!(dy.predicted_run_seconds >= interval.lo() - slack - 1e-9);
            prop_assert!(dy.predicted_run_seconds <= interval.hi() + 1e-9);
        }
    }

    /// Access modules round-trip any optimized plan.
    #[test]
    fn module_roundtrip(w in workload_strategy()) {
        let (catalog, query, _) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let back = AccessModule::deserialize(AccessModule::new(plan.clone()).serialize()).unwrap();
        prop_assert_eq!(dag::node_count(back.plan()), dag::node_count(&plan));
        prop_assert_eq!(back.plan().root_node().total_cost.total(), plan.root_node().total_cost.total());
        prop_assert_eq!(
            dag::contained_plan_count(back.plan()),
            dag::contained_plan_count(&plan)
        );
    }

    /// Start-up decisions are deterministic in the bindings.
    #[test]
    fn startup_is_deterministic(w in workload_strategy(), sel in 0.0f64..=1.0) {
        let (catalog, query, hosts) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut b = Bindings::new();
        for &(var, domain) in &hosts {
            b = b.with_value(var, (sel * domain) as i64);
        }
        let a = evaluate_startup(&plan, &catalog, &env, &b);
        let c = evaluate_startup(&plan, &catalog, &env, &b);
        prop_assert_eq!(a.predicted_run_seconds, c.predicted_run_seconds);
        prop_assert_eq!(a.decisions.len(), c.decisions.len());
        for (x, y) in a.decisions.iter().zip(&c.decisions) {
            prop_assert_eq!(x.chosen_index, y.chosen_index);
        }
    }
}
