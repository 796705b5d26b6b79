//! Property tests of the interval cost model: soundness (interval costs
//! enclose every bound point cost), monotonicity of every operator in
//! every uncertain parameter, and the round trip of the one map between a
//! bound value and its selectivity.

use dqep_algebra::{CompareOp, HostVar, JoinPred, PhysicalOp, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, Histogram, SystemConfig};
use dqep_cost::{Bindings, CostModel, Environment, PlanStats, SelectivityModel};
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

    /// Monotonicity, the premise of evaluating cost functions at interval
    /// endpoints: every operator's bound cost is non-decreasing in the
    /// selectivity of the selection `σ(r) = r.a < :v0` feeding it, at every
    /// memory grant, and non-increasing in memory, at every selectivity.
    /// The selectivity is bound as a value through the parameter space's
    /// map. The sweeps are eleven selectivity steps and the memory grants
    /// 16, 32, 64, 96 and 112 pages, each with one drawn point added.
    #[test]
    fn every_operator_is_monotone_in_every_parameter(
        card_r in 100u64..1500,
        card_s in 100u64..1500,
        drawn_selectivity in 0.0f64..=1.0,
        drawn_memory in 16.0f64..=112.0,
    ) {
        let cat = catalog(card_r, card_s);
        let mut selectivities: Vec<f64> = (0..=10).map(|step| f64::from(step) / 10.0).collect();
        selectivities.push(drawn_selectivity);
        selectivities.sort_by(f64::total_cmp);
        let mut memories = vec![16.0, 32.0, 64.0, 96.0, 112.0, drawn_memory];
        memories.sort_by(f64::total_cmp);

        for (op, selected_right) in operators(&cat) {
            let cost = |sel: f64, mem: f64| bound_cost(&cat, &op, selected_right, sel, mem);
            for &mem in &memories {
                let mut prev = f64::NEG_INFINITY;
                for &sel in &selectivities {
                    let c = cost(sel, mem);
                    prop_assert!(
                        c >= prev - 1e-12,
                        "{} (selected input right: {selected_right}): cost fell from {prev} to {c} \
                         as selectivity rose to {sel} at {mem} pages",
                        op.name()
                    );
                    prev = c;
                }
            }
            for &sel in &selectivities {
                let mut prev = f64::INFINITY;
                for &mem in &memories {
                    let c = cost(sel, mem);
                    prop_assert!(
                        c <= prev + 1e-12,
                        "{} (selected input right: {selected_right}): cost rose from {prev} to {c} \
                         as memory rose to {mem} pages at selectivity {sel}",
                        op.name()
                    );
                    prev = c;
                }
            }
        }
    }

    /// The one map round-trips: `value_at(s)` selects at most `s`, and the
    /// next value, in the direction where selectivity rises, selects more
    /// than `s` (nothing selects more than everything, so not at `s = 1`).
    /// Checked for `<`, `<=`, `>` and `>=` on a uniform attribute and on
    /// the same attribute under a histogram of drawn, optionally skewed,
    /// values.
    #[test]
    fn value_at_inverts_value_selectivity(
        card in 50u64..1500,
        raw in proptest::collection::vec(0u64..1500, 1..300),
        skewed in any::<bool>(),
        buckets in 1usize..40,
        drawn in proptest::collection::vec(0.0f64..=1.0, 8),
    ) {
        let uniform = catalog(card, 100);
        let attr = uniform.relation_by_name("r").unwrap().attr_id("a").unwrap();
        let values = raw.iter().map(|&x| {
            let x = x % card;
            (if skewed { x * x / card } else { x }) as i64
        });
        let mut with_histogram = uniform.clone();
        with_histogram.set_histogram(attr, Histogram::build(values, buckets).unwrap());

        let mut shares = drawn;
        shares.extend([0.0, 1.0]);
        for cat in [&uniform, &with_histogram] {
            let model = SelectivityModel::new(cat);
            for op in [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge] {
                let pred = SelectPred::unbound(attr, op, HostVar(0));
                let rising = if matches!(op, CompareOp::Lt | CompareOp::Le) { 1 } else { -1 };
                for &s in &shares {
                    let v = model.value_at(&pred, s);
                    let at = model.value_selectivity(&pred, v);
                    // One rounding of `s * domain` separates the uniform
                    // closed form from the exact inverse.
                    prop_assert!(at <= s + 1e-12, "{op:?}: value_at({s}) = {v} selects {at}");
                    if s < 1.0 {
                        let next = model.value_selectivity(&pred, v + rising);
                        prop_assert!(
                            next > s - 1e-12,
                            "{op:?}: value_at({s}) = {v}, but {} selects only {next}",
                            v + rising
                        );
                    }
                }
            }
        }
    }
}

/// Every physical operator but choose-plan, each paired with whether the
/// selected stream `σ(r)` is its right input (joins are checked with it
/// on either side).
fn operators(cat: &Catalog) -> Vec<(PhysicalOp, bool)> {
    let r = cat.relation_by_name("r").unwrap();
    let s = cat.relation_by_name("s").unwrap();
    let ra = r.attr_id("a").unwrap();
    let (r_index, _) = cat.index_on_attr(ra).unwrap();
    let (s_index, _) = cat.index_on_attr(s.attr_id("j").unwrap()).unwrap();
    let predicate = selection(cat);
    vec![
        (PhysicalOp::FileScan { relation: r.id }, false),
        (PhysicalOp::BtreeScan { relation: r.id, index: r_index, key_attr: ra }, false),
        (PhysicalOp::Filter { predicate }, false),
        (PhysicalOp::FilterBtreeScan { relation: r.id, index: r_index, predicate }, false),
        (PhysicalOp::HashJoin, false),
        (PhysicalOp::HashJoin, true),
        (PhysicalOp::MergeJoin, false),
        (PhysicalOp::MergeJoin, true),
        (PhysicalOp::IndexJoin { inner: s.id, index: s_index, residual: None }, false),
        (PhysicalOp::Sort { attr: ra }, false),
    ]
}

/// `r.a < :v0`.
fn selection(cat: &Catalog) -> SelectPred {
    let ra = cat.relation_by_name("r").unwrap().attr_id("a").unwrap();
    SelectPred::unbound(ra, CompareOp::Lt, HostVar(0))
}

/// The cost of `op` with `:v0` bound at selectivity `sel` and a grant of
/// `mem` pages, on the streams the operator reads and writes: `σ(r)`,
/// whole `r` (the input of a filter), and `s`, joined on `r.j = s.j`.
fn bound_cost(cat: &Catalog, op: &PhysicalOp, selected_right: bool, sel: f64, mem: f64) -> f64 {
    let r = cat.relation_by_name("r").unwrap();
    let s = cat.relation_by_name("s").unwrap();
    let pred = selection(cat);
    let jp = JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap());
    let v = SelectivityModel::new(cat).value_at(&pred, sel);
    let env = Environment::dynamic_uncertain_memory(&cat.config)
        .bind(&Bindings::new().with_value(HostVar(0), v).with_memory(mem));
    let model = CostModel::new(cat, &env);

    let base = |card: u64| PlanStats::new(Interval::point(card as f64), 512.0);
    let (whole_r, whole_s) = (base(r.stats.cardinality), base(s.stats.cardinality));
    let selected = PlanStats::new(whole_r.card * model.selectivity().selection(&pred, &env), 512.0);
    let joined = PlanStats::new(
        (selected.card * whole_s.card).scale(model.selectivity().join([jp])),
        1024.0,
    );
    let (inputs, output) = match op {
        PhysicalOp::FileScan { .. } | PhysicalOp::BtreeScan { .. } => (vec![], whole_r),
        PhysicalOp::FilterBtreeScan { .. } => (vec![], selected),
        PhysicalOp::Filter { .. } => (vec![whole_r], selected),
        PhysicalOp::Sort { .. } => (vec![selected], selected),
        PhysicalOp::IndexJoin { .. } => (vec![selected], joined),
        PhysicalOp::HashJoin | PhysicalOp::MergeJoin if selected_right => {
            (vec![whole_s, selected], joined)
        }
        PhysicalOp::HashJoin | PhysicalOp::MergeJoin => (vec![selected, whole_s], joined),
        PhysicalOp::ChoosePlan => unreachable!("choose-plan is costed by its alternatives"),
    };
    let cost = model.op_cost(op, &[jp], &inputs, &output).total();
    assert!(cost.is_point(), "every parameter is bound");
    cost.lo()
}
