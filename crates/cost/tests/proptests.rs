//! Property tests of the interval cost model: soundness (interval costs
//! enclose every bound point cost) and monotonicity.

use dqep_algebra::{CompareOp, HostVar, JoinPred, PhysicalOp, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_cost::{Bindings, CostModel, Environment, PlanStats};
use dqep_interval::Interval;
use proptest::prelude::*;

fn catalog(card_r: u64, card_s: u64) -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", card_r, 512, |r| {
            r.attr("a", card_r as f64).attr("j", 100.0).btree("a", false).btree("j", false)
        })
        .relation("s", card_s, 512, |r| {
            r.attr("a", card_s as f64).attr("j", 100.0).btree("j", false)
        })
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: for every operator and every binding, the point cost
    /// computed under the bound environment lies inside the interval cost
    /// computed at compile time.
    #[test]
    fn interval_costs_enclose_bound_costs(
        card_r in 100u64..1500,
        card_s in 100u64..1500,
        value in 0i64..1500,
        memory in 16.0f64..112.0,
    ) {
        let cat = catalog(card_r, card_s);
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let pred = SelectPred::unbound(r.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0));
        let jp = JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap());
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();

        let wide_env = Environment::dynamic_uncertain_memory(&cat.config);
        let bound_env = wide_env.bind(
            &Bindings::new().with_value(HostVar(0), value).with_memory(memory),
        );

        let ops: Vec<PhysicalOp> = vec![
            PhysicalOp::FileScan { relation: r.id },
            PhysicalOp::FilterBtreeScan { relation: r.id, index: idx, predicate: pred },
            PhysicalOp::HashJoin,
            PhysicalOp::MergeJoin,
            PhysicalOp::Sort { attr: r.attr_id("a").unwrap() },
        ];
        for op in &ops {
            let wide = CostModel::new(&cat, &wide_env);
            let bound = CostModel::new(&cat, &bound_env);

            // Stream statistics per environment.
            let sel_wide = wide.selectivity().selection(&pred, &wide_env);
            let sel_bound = bound.selectivity().selection(&pred, &bound_env);
            let r_card = Interval::point(card_r as f64);
            let s_card = Interval::point(card_s as f64);
            let filtered_wide = PlanStats::new(r_card * sel_wide, 512.0);
            let filtered_bound = PlanStats::new(r_card * sel_bound, 512.0);
            let jsel = wide.selectivity().join([jp]);
            let (inputs_wide, inputs_bound, out_wide, out_bound): (
                Vec<PlanStats>, Vec<PlanStats>, PlanStats, PlanStats,
            ) = match op {
                PhysicalOp::FileScan { .. } => (
                    vec![],
                    vec![],
                    PlanStats::new(r_card, 512.0),
                    PlanStats::new(r_card, 512.0),
                ),
                PhysicalOp::FilterBtreeScan { .. } => {
                    (vec![], vec![], filtered_wide, filtered_bound)
                }
                PhysicalOp::HashJoin | PhysicalOp::MergeJoin => (
                    vec![filtered_wide, PlanStats::new(s_card, 512.0)],
                    vec![filtered_bound, PlanStats::new(s_card, 512.0)],
                    PlanStats::new((filtered_wide.card * s_card).scale(jsel), 1024.0),
                    PlanStats::new((filtered_bound.card * s_card).scale(jsel), 1024.0),
                ),
                PhysicalOp::Sort { .. } => (
                    vec![filtered_wide],
                    vec![filtered_bound],
                    filtered_wide,
                    filtered_bound,
                ),
                _ => unreachable!(),
            };
            let wide_cost = wide.op_cost(op, &[jp], &inputs_wide, &out_wide).total();
            let bound_cost = bound.op_cost(op, &[jp], &inputs_bound, &out_bound).total();
            prop_assert!(bound_cost.is_point());
            prop_assert!(
                wide_cost.lo() <= bound_cost.lo() + 1e-9
                    && bound_cost.hi() <= wide_cost.hi() + 1e-9,
                "{}: bound {} outside wide {}",
                op.name(),
                bound_cost,
                wide_cost
            );
            // Costs are never negative.
            prop_assert!(wide_cost.lo() >= 0.0);
        }
    }

    /// Monotonicity: the bound cost of a selectivity-dependent plan is
    /// non-decreasing in the bound value (higher selectivity, more work).
    #[test]
    fn bound_costs_monotone_in_selectivity(card in 200u64..1200) {
        let cat = catalog(card, 100);
        let r = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(r.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let op = PhysicalOp::FilterBtreeScan { relation: r.id, index: idx, predicate: pred };
        let base = Environment::dynamic_compile_time(&cat.config);
        let mut prev = -1.0;
        for step in 0..=10 {
            let v = (card as i64) * step / 10;
            let env = base.bind(&Bindings::new().with_value(HostVar(0), v));
            let model = CostModel::new(&cat, &env);
            let sel = model.selectivity().selection(&pred, &env);
            let out = PlanStats::new(Interval::point(card as f64) * sel, 512.0);
            let cost = model.op_cost(&op, &[], &[], &out).total().lo();
            prop_assert!(cost >= prev - 1e-12, "cost not monotone at v={v}");
            prev = cost;
        }
    }

    /// Hash-join cost is non-increasing in memory (more memory can only
    /// help).
    #[test]
    fn hash_join_monotone_in_memory(build in 100u64..1500, probe in 100u64..1500) {
        let cat = catalog(build, probe);
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let jp = JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap());
        let op = PhysicalOp::HashJoin;
        let base = Environment::dynamic_uncertain_memory(&cat.config);
        let inputs = [
            PlanStats::new(Interval::point(build as f64), 512.0),
            PlanStats::new(Interval::point(probe as f64), 512.0),
        ];
        let out = PlanStats::new(Interval::point(10.0), 1024.0);
        let mut prev = f64::INFINITY;
        for mem in [16.0f64, 32.0, 64.0, 96.0, 112.0] {
            let env = base.bind(&Bindings::new().with_memory(mem));
            let cost = CostModel::new(&cat, &env).op_cost(&op, &[jp], &inputs, &out).total().lo();
            prop_assert!(cost <= prev + 1e-12, "cost rose with memory at {mem}");
            prev = cost;
        }
    }
}
