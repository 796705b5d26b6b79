//! Per-algorithm interval cost functions.

use std::borrow::Borrow;

use dqep_algebra::{JoinPred, PhysicalOp};
use dqep_catalog::{Catalog, RelationId};
use dqep_interval::{Interval, Monotonicity};

use crate::cost::Cost;
use crate::env::Environment;
use crate::formulas::{hash_join_io_seconds, sort_cpu_seconds, sort_io_seconds};
use crate::selectivity::SelectivityModel;

/// Cardinality and width of a data stream flowing between plan operators.
///
/// `card` is an interval because it may depend on unbound selectivities;
/// `row_bytes` is determined by the schema (the sum of the constituent base
/// relations' record lengths) and is always known at compile-time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Number of records, possibly uncertain.
    pub card: Interval,
    /// Bytes per record.
    pub row_bytes: f64,
}

impl PlanStats {
    /// Creates stream statistics.
    #[must_use]
    pub fn new(card: Interval, row_bytes: f64) -> PlanStats {
        PlanStats { card, row_bytes }
    }

    /// Pages this stream occupies when materialized under `page_size`.
    #[must_use]
    pub fn pages(&self, page_size: u32) -> Interval {
        let per_page = (page_size as f64 / self.row_bytes).floor().max(1.0);
        self.card.map_monotone(|c| (c / per_page).ceil())
    }
}

/// The cost model: evaluates each physical algorithm's cost function under
/// an [`Environment`].
///
/// The identical functions are used at compile-time (with intervals) and at
/// start-up-time (with points after binding): "a much simpler approach is
/// to re-evaluate the cost functions associated with the participating
/// alternative plans" (paper Section 4). No inverse cost functions are
/// ever needed.
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    env: &'a Environment,
    selectivity: SelectivityModel<'a>,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model over `catalog` in environment `env`.
    #[must_use]
    pub fn new(catalog: &'a Catalog, env: &'a Environment) -> CostModel<'a> {
        CostModel {
            catalog,
            env,
            selectivity: SelectivityModel::new(catalog),
        }
    }

    /// The selectivity model (shared statistics view).
    #[must_use]
    pub fn selectivity(&self) -> &SelectivityModel<'a> {
        &self.selectivity
    }

    /// The environment this model evaluates under.
    #[must_use]
    pub fn env(&self) -> &Environment {
        self.env
    }

    /// Cost of one operator given its join predicates (`preds`, empty for
    /// an operator that joins nothing), its input streams (`inputs`, one
    /// entry per plan child, in order) and its output stream.
    ///
    /// `ChoosePlan` is costed by [`CostModel::choose_plan_cost`] instead,
    /// because its cost depends on the number of alternatives rather than
    /// on data volumes.
    ///
    /// # Panics
    /// Panics if `inputs` does not match the operator's arity.
    #[must_use]
    pub fn op_cost(
        &self,
        op: &PhysicalOp,
        preds: &[JoinPred],
        inputs: &[PlanStats],
        output: &PlanStats,
    ) -> Cost {
        let cfg = &self.catalog.config;
        match op {
            PhysicalOp::FileScan { relation } => {
                let rel = self.catalog.relation(*relation);
                let pages = rel.stats.pages(cfg);
                let card = rel.stats.cardinality as f64;
                Cost::new(
                    Interval::point(card * cfg.cpu_per_record),
                    Interval::point(pages * cfg.seq_page_io),
                )
            }
            PhysicalOp::BtreeScan { relation, index, .. } => {
                let rel = self.catalog.relation(*relation);
                let card = rel.stats.cardinality as f64;
                let height = rel.stats.btree_height(cfg);
                let io = if self.catalog.index(*index).clustered {
                    height * cfg.random_page_io + rel.stats.pages(cfg) * cfg.seq_page_io
                } else {
                    // One random fetch per record: the conservative
                    // unclustered model of the era.
                    (height + card) * cfg.random_page_io
                };
                Cost::new(
                    Interval::point(card * cfg.cpu_per_record),
                    Interval::point(io),
                )
            }
            PhysicalOp::Filter { .. } => {
                let input = only(inputs, 1)[0];
                let cpu = input.card.scale(cfg.cpu_per_compare)
                    + output.card.scale(cfg.cpu_per_record);
                Cost::cpu_only(cpu)
            }
            PhysicalOp::FilterBtreeScan { relation, index, .. } => {
                let rel = self.catalog.relation(*relation);
                let height = rel.stats.btree_height(cfg);
                let io = if self.catalog.index(*index).clustered {
                    let out_pages = output.pages(cfg.page_size);
                    out_pages.scale(cfg.seq_page_io) + height * cfg.random_page_io
                } else {
                    output
                        .card
                        .map_monotone(|c| (height + c) * cfg.random_page_io)
                };
                Cost::new(output.card.scale(cfg.cpu_per_record), io)
            }
            PhysicalOp::HashJoin => {
                let ins = only(inputs, 2);
                self.hash_join_cost(&ins[0], &ins[1], output)
            }
            PhysicalOp::MergeJoin => {
                let ins = only(inputs, 2);
                self.merge_join_cost(&ins[0], &ins[1], output)
            }
            PhysicalOp::IndexJoin { inner, .. } => {
                self.index_join_cost(&only(inputs, 1)[0], *inner, preds, output)
            }
            PhysicalOp::Sort { .. } => {
                let input = only(inputs, 1)[0];
                let pages = input.pages(cfg.page_size);
                let mem = self.env.memory_interval();
                let io = Interval::combine2(
                    pages,
                    mem,
                    Monotonicity::Increasing,
                    Monotonicity::Decreasing,
                    |p, m| sort_io_seconds(p, m, cfg.seq_page_io),
                );
                let cpu = input
                    .card
                    .map_monotone(|c| sort_cpu_seconds(c, cfg.cpu_per_compare))
                    + input.card.scale(cfg.cpu_per_record);
                Cost::new(cpu, io)
            }
            PhysicalOp::ChoosePlan => self.choose_plan_cost(2),
        }
    }

    /// Cost of a hash join building on `build` and probing with `probe`.
    ///
    /// The three join cost functions are callable on their own so the
    /// search can cost a join candidate from borrowed inputs, before it
    /// builds a plan node for it.
    #[must_use]
    pub fn hash_join_cost(&self, build: &PlanStats, probe: &PlanStats, output: &PlanStats) -> Cost {
        let cfg = &self.catalog.config;
        let build_pages = build.pages(cfg.page_size);
        let probe_pages = probe.pages(cfg.page_size);
        let mem = self.env.memory_interval();
        let io = Interval::combine3(
            build_pages,
            probe_pages,
            mem,
            Monotonicity::Increasing,
            Monotonicity::Increasing,
            Monotonicity::Decreasing,
            |b, p, m| hash_join_io_seconds(b, p, m, cfg.seq_page_io),
        );
        let cpu = (build.card + probe.card).scale(cfg.cpu_per_hash)
            + output.card.scale(cfg.cpu_per_record);
        Cost::new(cpu, io)
    }

    /// Cost of a merge join over two sorted inputs.
    #[must_use]
    pub fn merge_join_cost(&self, left: &PlanStats, right: &PlanStats, output: &PlanStats) -> Cost {
        let cfg = &self.catalog.config;
        let cpu = (left.card + right.card).scale(cfg.cpu_per_compare)
            + output.card.scale(cfg.cpu_per_record);
        Cost::cpu_only(cpu)
    }

    /// Cost of an index nested-loop join of `outer` against the index on
    /// `inner`'s join attribute.
    #[must_use]
    pub fn index_join_cost<P: Borrow<JoinPred>>(
        &self,
        outer: &PlanStats,
        inner: RelationId,
        predicates: impl IntoIterator<Item = P>,
        output: &PlanStats,
    ) -> Cost {
        let cfg = &self.catalog.config;
        let inner_card = self.catalog.relation(inner).stats.cardinality as f64;
        // Matching inner records per outer record, before residual.
        let fan = inner_card * self.selectivity.join(predicates);
        // One leaf I/O per probe, one random fetch per match
        // (unclustered inner index).
        let io = outer
            .card
            .map_monotone(|c| c * (1.0 + fan) * cfg.random_page_io);
        let cpu =
            outer.card.scale(fan * cfg.cpu_per_compare) + output.card.scale(cfg.cpu_per_record);
        Cost::new(cpu, io)
    }

    /// Decision-procedure overhead of one choose-plan operator with
    /// `alternatives` inputs: a per-alternative cost-function evaluation at
    /// start-up-time ([`SystemConfig::decision_time`]).
    ///
    /// [`SystemConfig::decision_time`]: dqep_catalog::SystemConfig::decision_time
    #[must_use]
    pub fn choose_plan_cost(&self, alternatives: usize) -> Cost {
        let seconds = self.catalog.config.decision_time(alternatives.max(2));
        Cost::cpu_only(Interval::point(seconds))
    }
}

fn only(inputs: &[PlanStats], n: usize) -> &[PlanStats] {
    assert_eq!(inputs.len(), n, "operator expects {n} input(s), got {}", inputs.len());
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Bindings;
    use dqep_algebra::{CompareOp, HostVar, JoinPred, SelectPred};
    use dqep_catalog::{AttrId, CatalogBuilder, SystemConfig};

    fn fixture() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| {
                r.attr("a", 1000.0).attr("j", 500.0).btree("a", false).btree("j", false)
            })
            .relation("s", 800, 512, |r| {
                r.attr("a", 800.0).attr("j", 500.0).btree("a", false).btree("j", false)
            })
            .build()
            .unwrap()
    }

    fn attr(cat: &Catalog, rel: &str, name: &str) -> AttrId {
        cat.relation_by_name(rel).unwrap().attr_id(name).unwrap()
    }

    fn stats(card: f64) -> PlanStats {
        PlanStats::new(Interval::point(card), 512.0)
    }

    #[test]
    fn plan_stats_pages() {
        let cfg = SystemConfig::paper_1994();
        let s = stats(1000.0);
        assert_eq!(s.pages(cfg.page_size), Interval::point(250.0));
        // Wide rows: fewer per page.
        let wide = PlanStats::new(Interval::point(100.0), 4096.0);
        assert_eq!(wide.pages(cfg.page_size), Interval::point(100.0));
    }

    #[test]
    fn file_scan_cost_is_point() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let r = cat.relation_by_name("r").unwrap().id;
        let c = m.op_cost(&PhysicalOp::FileScan { relation: r }, &[], &[], &stats(1000.0));
        assert!(c.total().is_point(), "file scan cost does not depend on bindings");
        // 250 pages * 1 ms + 1000 records * 0.1 ms = 0.25 + 0.1 s.
        assert!((c.total().lo() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn filter_btree_scan_cost_tracks_selectivity() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let r = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let op = PhysicalOp::FilterBtreeScan {
            relation: r.id,
            index: idx,
            predicate: pred,
        };
        // Unbound: output anywhere in [0, 1000].
        let out = PlanStats::new(Interval::new(0.0, 1000.0), 512.0);
        let c = m.op_cost(&op, &[], &[], &out);
        assert!(c.total().lo() < 0.05, "nearly free at selectivity 0");
        assert!(c.total().hi() > 3.0, "expensive at selectivity 1 (one fetch per record)");
    }

    #[test]
    fn index_beats_file_scan_at_expected_selectivity() {
        // The calibration the experiments rely on: at the default expected
        // selectivity (0.05) the unclustered index plan must be cheaper
        // than the file scan, so a static optimizer picks it — and suffers
        // at high actual selectivities (paper's motivating example).
        let cat = fixture();
        let env = Environment::static_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let r = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();

        let out = stats(50.0); // 1000 * 0.05
        let index_cost = m.op_cost(
            &PhysicalOp::FilterBtreeScan { relation: r.id, index: idx, predicate: pred },
            &[],
            &[],
            &out,
        );
        let scan_cost = m.op_cost(&PhysicalOp::FileScan { relation: r.id }, &[], &[], &stats(1000.0));
        let filter = PhysicalOp::Filter { predicate: pred };
        let filter_cost = m.op_cost(&filter, &[], &[stats(1000.0)], &out);
        let file_plan = scan_cost + filter_cost;
        assert!(
            index_cost.total().hi() < file_plan.total().lo(),
            "index plan ({}) must beat file scan plan ({}) at selectivity 0.05",
            index_cost.total(),
            file_plan.total()
        );
    }

    #[test]
    fn file_scan_beats_index_at_high_selectivity() {
        let cat = fixture();
        let bound_env = Environment::dynamic_compile_time(&cat.config)
            .bind(&Bindings::new().with_value(HostVar(0), 900));
        let m = CostModel::new(&cat, &bound_env);
        let r = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let out = stats(900.0);
        let index_cost = m.op_cost(
            &PhysicalOp::FilterBtreeScan { relation: r.id, index: idx, predicate: pred },
            &[],
            &[],
            &out,
        );
        let filter = PhysicalOp::Filter { predicate: pred };
        let file_plan = m.op_cost(&PhysicalOp::FileScan { relation: r.id }, &[], &[], &stats(1000.0))
            + m.op_cost(&filter, &[], &[stats(1000.0)], &out);
        assert!(file_plan.total().hi() < index_cost.total().lo());
    }

    #[test]
    fn hash_join_spills_with_small_memory() {
        let cat = fixture();
        let cfg = cat.config;
        let env_small = Environment {
            mode: crate::PlanningMode::Point,
            memory: dqep_interval::ParamValue::Known(16.0),
            bindings: Bindings::new(),
            default_selectivity: cfg.default_selectivity,
        };
        let env_big = Environment::static_compile_time(&cfg);
        let op = PhysicalOp::HashJoin;
        let build = stats(1000.0); // 250 pages > 16
        let probe = stats(800.0);
        let out = stats(1600.0);
        let small = CostModel::new(&cat, &env_small).op_cost(&op, &[], &[build, probe], &out);
        let big = CostModel::new(&cat, &env_big).op_cost(&op, &[], &[build, probe], &out);
        assert!(small.io.lo() > 0.0, "must partition when memory is small");
        assert!(small.total().lo() > big.total().lo());
    }

    #[test]
    fn hash_join_uncertain_memory_gives_io_interval() {
        let cat = fixture();
        let env = Environment::dynamic_uncertain_memory(&cat.config);
        let m = CostModel::new(&cat, &env);
        let op = PhysicalOp::HashJoin;
        // Build of 100 pages: fits in 112 pages, spills at 16.
        let build = PlanStats::new(Interval::point(400.0), 512.0);
        let probe = stats(800.0);
        let c = m.op_cost(&op, &[], &[build, probe], &stats(640.0));
        assert_eq!(c.io.lo(), 0.0, "best case: in-memory");
        assert!(c.io.hi() > 0.0, "worst case: partitioning I/O");
    }

    #[test]
    fn smaller_build_side_is_cheaper_when_spilling() {
        // Rationale for the paper's Figure 2: hash joins perform better
        // with the smaller input as build side.
        let cat = fixture();
        let env = Environment {
            mode: crate::PlanningMode::Point,
            memory: dqep_interval::ParamValue::Known(16.0),
            bindings: Bindings::new(),
            default_selectivity: 0.05,
        };
        let m = CostModel::new(&cat, &env);
        let op = PhysicalOp::HashJoin;
        let small = stats(100.0);
        let large = stats(1000.0);
        let out = stats(200.0);
        let small_build = m.op_cost(&op, &[], &[small, large], &out);
        let large_build = m.op_cost(&op, &[], &[large, small], &out);
        assert!(small_build.total().hi() <= large_build.total().hi());
    }

    #[test]
    fn sort_cost_depends_on_memory() {
        let cat = fixture();
        let env = Environment::dynamic_uncertain_memory(&cat.config);
        let m = CostModel::new(&cat, &env);
        let a = attr(&cat, "r", "a");
        let c = m.op_cost(&PhysicalOp::Sort { attr: a }, &[], &[stats(1000.0)], &stats(1000.0));
        // 250 pages: spills at 16 pages of memory, fits... 250 > 112, so
        // always spills, but more memory means no extra passes.
        assert!(c.io.lo() > 0.0);
        assert!(c.io.hi() >= c.io.lo());
        assert!(c.cpu.lo() > 0.0);
    }

    #[test]
    fn merge_join_is_cpu_only() {
        let cat = fixture();
        let env = Environment::static_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let op = PhysicalOp::MergeJoin;
        let c = m.op_cost(&op, &[], &[stats(1000.0), stats(800.0)], &stats(1600.0));
        assert_eq!(c.io, Interval::ZERO);
        assert!(c.cpu.lo() > 0.0);
    }

    #[test]
    fn index_join_cost_scales_with_outer() {
        let cat = fixture();
        let env = Environment::static_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let s = cat.relation_by_name("s").unwrap();
        let jp = JoinPred::new(attr(&cat, "r", "j"), attr(&cat, "s", "j"));
        let (idx, _) = cat.index_on_attr(attr(&cat, "s", "j")).unwrap();
        let op = PhysicalOp::IndexJoin {
            inner: s.id,
            index: idx,
            residual: None,
        };
        let small = m.op_cost(&op, &[jp], &[stats(10.0)], &stats(16.0));
        let large = m.op_cost(&op, &[jp], &[stats(1000.0)], &stats(1600.0));
        assert!(large.total().lo() > small.total().lo() * 50.0);
    }

    #[test]
    fn choose_plan_overhead_scales_with_alternatives() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let two = m.choose_plan_cost(2);
        let five = m.choose_plan_cost(5);
        assert!(five.total().lo() > two.total().lo());
        assert_eq!(two.total(), Interval::point(cat.config.decision_time(2)));
        assert_eq!(m.choose_plan_cost(1), two, "a choose-plan compares at least two");
        assert_eq!(two.io, Interval::ZERO);
    }

    #[test]
    fn interval_cost_encloses_bound_cost() {
        // Soundness: for any actual binding, the point cost computed after
        // binding lies within the compile-time interval cost.
        let cat = fixture();
        let dyn_env = Environment::dynamic_compile_time(&cat.config);
        let r = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(attr(&cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let op = PhysicalOp::FilterBtreeScan { relation: r.id, index: idx, predicate: pred };

        let m = CostModel::new(&cat, &dyn_env);
        let sel = m.selectivity().selection(&pred, &dyn_env);
        let out = PlanStats::new(Interval::point(1000.0) * sel, 512.0);
        let wide = m.op_cost(&op, &[], &[], &out);

        for v in [0i64, 100, 500, 999] {
            let bound = dyn_env.bind(&Bindings::new().with_value(HostVar(0), v));
            let mb = CostModel::new(&cat, &bound);
            let sel_b = mb.selectivity().selection(&pred, &bound);
            let out_b = PlanStats::new(Interval::point(1000.0) * sel_b, 512.0);
            let c = mb.op_cost(&op, &[], &[], &out_b);
            assert!(
                wide.total().contains_interval(c.total()),
                "binding {v}: point cost {} outside interval {}",
                c.total(),
                wide.total()
            );
        }
    }

    #[test]
    fn clustered_index_scan_is_cheap_at_high_selectivity() {
        // A clustered index reads qualifying records sequentially, so even
        // at selectivity ~1 it costs about a file scan — unlike the
        // unclustered fetch-per-record model.
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("c", 1000, 512, |r| r.attr("a", 1000.0).btree("a", true))
            .relation("u", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap();
        let env = Environment::static_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let out = stats(900.0);
        let mut costs = std::collections::HashMap::new();
        for name in ["c", "u"] {
            let rel = cat.relation_by_name(name).unwrap();
            let pred = SelectPred::bound(rel.attr_id("a").unwrap(), CompareOp::Lt, 900);
            let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
            let op = PhysicalOp::FilterBtreeScan { relation: rel.id, index: idx, predicate: pred };
            costs.insert(name, m.op_cost(&op, &[], &[], &out).total().hi());
        }
        assert!(
            costs["c"] * 5.0 < costs["u"],
            "clustered {} should be far below unclustered {}",
            costs["c"],
            costs["u"]
        );
    }

    #[test]
    fn clustered_full_btree_scan_is_sequential() {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("c", 1000, 512, |r| r.attr("a", 1000.0).btree("a", true))
            .build()
            .unwrap();
        let env = Environment::static_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let rel = cat.relation_by_name("c").unwrap();
        let (idx, info) = cat.index_on_attr(rel.attr_id("a").unwrap()).unwrap();
        assert!(info.clustered);
        let op = PhysicalOp::BtreeScan {
            relation: rel.id,
            index: idx,
            key_attr: rel.attr_id("a").unwrap(),
        };
        let c = m.op_cost(&op, &[], &[], &stats(1000.0)).total().hi();
        // Sequential pages + descent, nowhere near 1000 random fetches.
        assert!(c < 1.0, "clustered full scan cost {c}");
    }

    #[test]
    #[should_panic(expected = "expects 2 input")]
    fn arity_mismatch_panics() {
        let cat = fixture();
        let env = Environment::static_compile_time(&cat.config);
        let m = CostModel::new(&cat, &env);
        let op = PhysicalOp::HashJoin;
        let _ = m.op_cost(&op, &[], &[stats(1.0)], &stats(1.0));
    }
}
