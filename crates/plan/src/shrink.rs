//! The self-shrinking access-module heuristic (paper Section 4).
//!
//! "During each invocation, the access module keeps statistics indicating
//! which components of the dynamic plan were actually used. After a number
//! of invocations, say 100, the access module analyses which components
//! have been used and replaces itself with a dynamic-plan access module
//! that contains only those components that have been used before."
//!
//! This is a heuristic: an alternative never chosen during the observation
//! window is dropped even though a later binding might have wanted it; the
//! shrunk plan then falls back to its best remaining alternative. The
//! benefit is a smaller module, i.e. less activation I/O and fewer
//! start-up cost evaluations.

use std::collections::HashMap;
use std::sync::Arc;

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};

use crate::plan::{NodeId, Plan};
use crate::startup::{evaluate_startup, StartupDecision, StartupResult};

/// Per-choose-plan usage counters accumulated across invocations.
#[derive(Debug, Clone, Default)]
pub struct UsageStats {
    /// choose-plan node → per-alternative selection counts.
    counts: HashMap<NodeId, Vec<u64>>,
    invocations: u64,
}

impl UsageStats {
    /// Empty statistics.
    #[must_use]
    pub fn new() -> UsageStats {
        UsageStats::default()
    }

    /// Records the decisions of one invocation.
    pub fn record(&mut self, decisions: &[StartupDecision]) {
        self.invocations += 1;
        for d in decisions {
            let counts = self
                .counts
                .entry(d.choose_plan)
                .or_insert_with(|| vec![0; d.alternatives]);
            if counts.len() < d.alternatives {
                counts.resize(d.alternatives, 0);
            }
            counts[d.chosen_index] += 1;
        }
    }

    /// Number of invocations recorded.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Selection counts for a choose-plan node, if it ever decided.
    #[must_use]
    pub fn counts(&self, node: NodeId) -> Option<&[u64]> {
        self.counts.get(&node).map(Vec::as_slice)
    }
}

/// Rewrites a dynamic plan keeping only the alternatives that were actually
/// chosen according to `usage`. Choose-plans left with a single alternative
/// collapse into it; choose-plans with no recorded decisions (they sit
/// inside alternatives that were themselves never chosen) keep all their
/// alternatives, conservatively.
///
/// This is the plan compaction with a usage filter: relative order and DAG
/// sharing are preserved, and with every alternative used the result is
/// the plan itself.
#[must_use]
pub fn shrink_plan(plan: &Plan, usage: &UsageStats) -> Plan {
    plan.compact(
        plan.root(),
        |choose_plan, alt| match usage.counts(choose_plan) {
            Some(counts) if counts.iter().any(|&n| n > 0) => {
                counts.get(alt).is_some_and(|&n| n > 0)
            }
            // Never decided: keep everything.
            _ => true,
        },
        crate::plan::keep_estimates,
    )
}

/// A self-shrinking access module: evaluates invocations, tracks usage,
/// and replaces its plan after `threshold` invocations — the paper's
/// proposed self-replacement, with the re-optimization replaced by a plan
/// rewrite whose effort is "comparable to the cost analysis at
/// start-up-time".
#[derive(Debug)]
pub struct ShrinkingModule {
    plan: Arc<Plan>,
    usage: UsageStats,
    threshold: u64,
    shrunk: bool,
}

impl ShrinkingModule {
    /// Wraps a dynamic plan; the module shrinks after `threshold`
    /// invocations (the paper suggests 100).
    #[must_use]
    pub fn new(plan: Arc<Plan>, threshold: u64) -> ShrinkingModule {
        ShrinkingModule {
            plan,
            usage: UsageStats::new(),
            threshold,
            shrunk: false,
        }
    }

    /// The current plan (pre- or post-shrink).
    #[must_use]
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Whether self-replacement has happened.
    #[must_use]
    pub fn has_shrunk(&self) -> bool {
        self.shrunk
    }

    /// Usage statistics accumulated so far.
    #[must_use]
    pub fn usage(&self) -> &UsageStats {
        &self.usage
    }

    /// Runs one invocation: start-up evaluation against `bindings`,
    /// records usage, and self-replaces once the threshold is reached.
    pub fn invoke(
        &mut self,
        catalog: &Catalog,
        env: &Environment,
        bindings: &Bindings,
    ) -> StartupResult {
        let result = evaluate_startup(&self.plan, catalog, env, bindings);
        self.usage.record(&result.decisions);
        if !self.shrunk && self.usage.invocations() >= self.threshold {
            self.plan = Arc::new(shrink_plan(&self.plan, &self.usage));
            self.usage = UsageStats::new();
            self.shrunk = true;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag;
    use dqep_algebra::{CompareOp, HostVar, PhysicalOp, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_cost::{CostModel, PlanStats};
    use dqep_interval::Interval;

    fn fixture() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap()
    }

    fn figure1_plan(cat: &Catalog, env: &Environment) -> Arc<Plan> {
        let rel = cat.relation_by_name("r").unwrap();
        let pred = SelectPred::unbound(rel.attr_id("a").unwrap(), CompareOp::Lt, HostVar(0));
        let (idx, _) = cat.index_on_attr(pred.attr).unwrap();
        let model = CostModel::new(cat, env);
        let sel = model.selectivity().selection(&pred, env);
        let scan_stats = PlanStats::new(Interval::point(1000.0), 512.0);
        let out_stats = PlanStats::new(Interval::point(1000.0) * sel, 512.0);
        let mut p = Plan::new();
        let scan_op = PhysicalOp::FileScan { relation: rel.id };
        let scan_cost = model.op_cost(&scan_op, &[], &[], &scan_stats);
        let scan = p.push(scan_op, &[], &[], scan_stats, scan_cost);
        let filter_op = PhysicalOp::Filter { predicate: pred };
        let filter_cost = model.op_cost(&filter_op, &[], &[scan_stats], &out_stats);
        let file_plan = p.push(filter_op, &[scan], &[], out_stats, filter_cost);
        let idx_op = PhysicalOp::FilterBtreeScan {
            relation: rel.id,
            index: idx,
            predicate: pred,
        };
        let idx_cost = model.op_cost(&idx_op, &[], &[], &out_stats);
        let index_plan = p.push(idx_op, &[], &[], out_stats, idx_cost);
        p.choose_plan(&[file_plan, index_plan], model.choose_plan_cost(2));
        Arc::new(p)
    }

    #[test]
    fn usage_stats_accumulate() {
        let mut u = UsageStats::new();
        u.record(&[StartupDecision {
            choose_plan: NodeId(7),
            chosen_index: 1,
            alternatives: 2,
            chosen_cost: 0.1,
        }]);
        u.record(&[StartupDecision {
            choose_plan: NodeId(7),
            chosen_index: 1,
            alternatives: 2,
            chosen_cost: 0.2,
        }]);
        assert_eq!(u.invocations(), 2);
        assert_eq!(u.counts(NodeId(7)), Some(&[0u64, 2][..]));
        assert_eq!(u.counts(NodeId(8)), None);
    }

    #[test]
    fn shrink_collapses_single_used_alternative() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let before = dag::node_count(&plan);

        // Only low-selectivity bindings: index plan always chosen.
        let mut usage = UsageStats::new();
        for v in [1i64, 5, 10, 20] {
            let r = evaluate_startup(&plan, &cat, &env, &Bindings::new().with_value(HostVar(0), v));
            usage.record(&r.decisions);
        }
        let shrunk = shrink_plan(&plan, &usage);
        assert!(!shrunk.is_dynamic(), "one surviving alternative collapses");
        assert!(dag::node_count(&shrunk) < before);
        assert!(matches!(shrunk.root_node().op, PhysicalOp::FilterBtreeScan { .. }));
        shrunk.check_invariants().unwrap();
    }

    #[test]
    fn shrink_keeps_both_when_both_used() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let mut usage = UsageStats::new();
        for v in [1i64, 950] {
            let r = evaluate_startup(&plan, &cat, &env, &Bindings::new().with_value(HostVar(0), v));
            usage.record(&r.decisions);
        }
        let shrunk = shrink_plan(&plan, &usage);
        assert!(shrunk.is_dynamic());
        assert_eq!(dag::node_count(&shrunk), dag::node_count(&plan));
    }

    #[test]
    fn shrink_without_usage_is_conservative() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let shrunk = shrink_plan(&plan, &UsageStats::new());
        assert_eq!(dag::node_count(&shrunk), dag::node_count(&plan));
        assert!(shrunk.is_dynamic());
    }

    #[test]
    fn shrinking_module_replaces_itself_at_threshold() {
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let mut module = ShrinkingModule::new(plan, 3);
        for v in [1i64, 5, 9] {
            let _ = module.invoke(&cat, &env, &Bindings::new().with_value(HostVar(0), v));
        }
        assert!(module.has_shrunk());
        assert!(!module.plan().is_dynamic());
        // Post-shrink invocations still work (fallback to the kept plan).
        let r = module.invoke(&cat, &env, &Bindings::new().with_value(HostVar(0), 990));
        assert!(r.decisions.is_empty());
        assert!(r.predicted_run_seconds > 0.0);
    }

    #[test]
    fn shrunk_plan_may_be_suboptimal_later() {
        // The heuristic's documented risk: after observing only low
        // selectivities, a high-selectivity binding pays the index price.
        let cat = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = figure1_plan(&cat, &env);
        let mut usage = UsageStats::new();
        for v in [1i64, 2, 3] {
            let r = evaluate_startup(&plan, &cat, &env, &Bindings::new().with_value(HostVar(0), v));
            usage.record(&r.decisions);
        }
        let shrunk = shrink_plan(&plan, &usage);
        let hot = Bindings::new().with_value(HostVar(0), 990);
        let full = evaluate_startup(&plan, &cat, &env, &hot).predicted_run_seconds;
        let lean = evaluate_startup(&shrunk, &cat, &env, &hot).predicted_run_seconds;
        assert!(lean > full, "shrunk plan lost the good alternative");
    }
}
