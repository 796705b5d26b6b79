//! Property-based tests over randomized catalogs, queries, and bindings.

use dqep::cost::Environment;
use dqep::optimizer::Optimizer;
use dqep::plan::{dag, evaluate_startup, AccessModule};
use proptest::prelude::*;

#[path = "common/workload.rs"]
#[allow(dead_code)]
mod workload;

use workload::{build, workload_strategy, Shape};

/// The parity suites' shape with cardinalities up to 1 499: nothing here
/// generates data.
const WIDE: Shape = Shape { cards: 50..1500, ..Shape::PARITY };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every optimized plan satisfies structural invariants, in all modes.
    #[test]
    fn optimized_plans_are_well_formed(w in workload_strategy(WIDE)) {
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
    fn robustness_and_soundness(w in workload_strategy(WIDE), sels in proptest::collection::vec(0.0f64..=1.0, 3)) {
        let (catalog, query, space) = build(&w);
        let static_env = Environment::static_compile_time(&catalog.config);
        let dynamic_env = Environment::dynamic_compile_time(&catalog.config);
        let sp = Optimizer::new(&catalog, &static_env).optimize(&query).unwrap().plan;
        let dp = Optimizer::new(&catalog, &dynamic_env).optimize(&query).unwrap().plan;
        let interval = dp.root_node().exec.total();

        for (i, &sel) in sels.iter().enumerate() {
            let point = (0..).map(|j| sels[(i + j) % sels.len()].min(sel.max(0.0)));
            let b = space.bindings(&catalog, point);
            let st = evaluate_startup(&sp, &catalog, &static_env, &b);
            let dy = evaluate_startup(&dp, &catalog, &dynamic_env, &b);
            prop_assert!(
                dy.predicted_run_seconds <= st.predicted_run_seconds + 1e-9,
                "dynamic {} > static {}", dy.predicted_run_seconds, st.predicted_run_seconds
            );
            prop_assert!(dy.predicted_run_seconds >= interval.lo() * (1.0 - 1e-9));
            prop_assert!(dy.predicted_run_seconds <= interval.hi() * (1.0 + 1e-9));
        }
    }

    /// Access modules round-trip any optimized plan.
    #[test]
    fn module_roundtrip(w in workload_strategy(WIDE)) {
        let (catalog, query, _) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let back = AccessModule::deserialize(AccessModule::new(plan.clone()).serialize()).unwrap();
        prop_assert_eq!(dag::node_count(back.plan()), dag::node_count(&plan));
        prop_assert_eq!(back.plan().root_node().total_cost.total(), plan.root_node().total_cost.total());
        prop_assert_eq!(back.plan(), &plan, "field for field: exec is derived again");
        prop_assert_eq!(
            dag::contained_plan_count(back.plan()),
            dag::contained_plan_count(&plan)
        );
    }

    /// Start-up decisions are deterministic in the bindings.
    #[test]
    fn startup_is_deterministic(w in workload_strategy(WIDE), sel in 0.0f64..=1.0) {
        let (catalog, query, space) = build(&w);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let b = space.bindings(&catalog, std::iter::repeat(sel));
        let a = evaluate_startup(&plan, &catalog, &env, &b);
        let c = evaluate_startup(&plan, &catalog, &env, &b);
        prop_assert_eq!(a.predicted_run_seconds, c.predicted_run_seconds);
        prop_assert_eq!(a.decisions.len(), c.decisions.len());
        for (x, y) in a.decisions.iter().zip(&c.decisions) {
            prop_assert_eq!(x.chosen_index, y.chosen_index);
        }
    }
}
