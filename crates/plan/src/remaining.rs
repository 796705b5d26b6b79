//! Remaining-plan extraction for mid-query re-optimization.
//!
//! A running query reaches *pipeline breakers* — the build side of a hash
//! join, the input of a sort — where a whole intermediate result is
//! materialized before anything flows downstream. Those are the natural
//! re-optimization checkpoints: the materialized subtree's true
//! cardinality is known, the work spent on it is retained, and the
//! *remaining* plan (everything not yet executed) can be re-arbitrated
//! with the observation applied.
//!
//! This module extracts the checkpoint schedule from a plan.
//! Re-stitching is implicit: the executor re-arbitrates the original
//! dynamic plan with [`crate::evaluate_startup_observed`] (observations
//! keyed by original [`NodeId`]s) and substitutes a materialized scan for
//! any node whose rows were retained — so a re-plan never repeats
//! finished work, it only re-decides the unfinished remainder.

use std::collections::HashSet;

use dqep_algebra::PhysicalOp;

use crate::plan::{NodeId, Plan};
use crate::startup::{chosen_alternative, StartupDecision};

/// Finds the next checkpoint target: the deepest *blocking input* — the
/// build side of a hash join or the input of a sort — along the currently
/// chosen path that has not been materialized yet (`exclude`). The target
/// may itself contain choose-plan operators (they follow the arbitration
/// in force when the checkpoint subtree runs).
///
/// Choose-plan nodes are traversed through the alternative the most recent
/// arbitration picked (`decisions`, in table order as
/// [`crate::StartupResult::decisions`] lists them; a choose-plan it does
/// not list defaults to its first alternative — the optimizer's preference
/// order); alternatives that arbitration rejected are not charged
/// checkpoints. Returns `None` once every blocking input on the chosen
/// path is materialized: execution proper can start.
#[must_use]
pub fn next_blocking_input(
    plan: &Plan,
    decisions: &[StartupDecision],
    exclude: &HashSet<NodeId>,
) -> Option<NodeId> {
    blocking_input_under(plan, plan.root(), decisions, exclude)
}

fn blocking_input_under(
    plan: &Plan,
    id: NodeId,
    decisions: &[StartupDecision],
    exclude: &HashSet<NodeId>,
) -> Option<NodeId> {
    let children = plan.children(id);
    if plan[id].is_choose_plan() {
        let idx = chosen_alternative(decisions, id)
            .unwrap_or(0)
            .min(children.len().saturating_sub(1));
        return blocking_input_under(plan, children[idx], decisions, exclude);
    }
    // Deepest first: a child's blocking input completes before this
    // node's own build phase can begin.
    for child in children {
        if let Some(hit) = blocking_input_under(plan, *child, decisions, exclude) {
            return Some(hit);
        }
    }
    if matches!(
        plan[id].op,
        PhysicalOp::HashJoin | PhysicalOp::Sort { .. }
    ) {
        let input = children[0];
        if !exclude.contains(&input) {
            return Some(input);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{AttrId, RelationId};
    use dqep_cost::{Cost, PlanStats};
    use dqep_interval::Interval;

    fn scan(p: &mut Plan, rel: u32) -> NodeId {
        p.push(
            PhysicalOp::FileScan { relation: RelationId(rel) },
            &[],
            &[],
            PlanStats::new(Interval::new(5.0, 20.0), 512.0),
            Cost::point(0.0, 1.0),
        )
    }

    fn join(p: &mut Plan, build: NodeId, probe: NodeId) -> NodeId {
        p.push(
            PhysicalOp::HashJoin,
            &[build, probe],
            &[],
            PlanStats::new(Interval::new(5.0, 20.0), 1024.0),
            Cost::ZERO,
        )
    }

    #[test]
    fn blocking_inputs_come_deepest_first_and_exclude_materialized() {
        // sort(join(scan0, scan1)) — two breakers: the join's build side
        // (scan0, deeper) then the sort's input (the join itself).
        let mut p = Plan::new();
        let s0 = scan(&mut p, 0);
        let s1 = scan(&mut p, 1);
        let j = join(&mut p, s0, s1);
        p.push(
            PhysicalOp::Sort {
                attr: AttrId { relation: RelationId(0), index: 0 },
            },
            &[j],
            &[],
            PlanStats::new(Interval::new(5.0, 20.0), 1024.0),
            Cost::ZERO,
        );
        let mut done = HashSet::new();
        let first = next_blocking_input(&p, &[], &done).unwrap();
        assert_eq!(first, s0, "join build side is deepest");
        done.insert(first);
        let second = next_blocking_input(&p, &[], &done).unwrap();
        assert_eq!(second, j, "sort input comes once the join's build is done");
        done.insert(second);
        assert!(next_blocking_input(&p, &[], &done).is_none());
    }

    #[test]
    fn choose_plans_follow_the_chosen_alternative() {
        let mut p = Plan::new();
        let s0 = scan(&mut p, 0);
        let s1 = scan(&mut p, 1);
        let probe_a = scan(&mut p, 2);
        let probe_b = scan(&mut p, 2);
        let alt0 = join(&mut p, s0, probe_a);
        let alt1 = join(&mut p, s1, probe_b);
        let cp = p.choose_plan(&[alt0, alt1], Cost::ZERO);
        let done = HashSet::new();
        let preferred = next_blocking_input(&p, &[], &done).unwrap();
        assert_eq!(preferred, s0, "default follows the first alternative");
        let chosen = [StartupDecision {
            choose_plan: cp,
            chosen_index: 1,
            alternatives: 2,
            chosen_cost: 0.0,
        }];
        let other = next_blocking_input(&p, &chosen, &done).unwrap();
        assert_eq!(other, s1, "the decision redirects the walk");
    }

    #[test]
    fn dynamic_blocking_inputs_are_checkpoint_targets() {
        // A join whose build side is itself a choose-plan is still a
        // checkpoint target — the walk returns the choose node itself
        // (observations and retained rows then key on its id, shared by
        // every alternative that references it).
        let mut p = Plan::new();
        let s0 = scan(&mut p, 0);
        let s1 = scan(&mut p, 0);
        let inner = p.choose_plan(&[s0, s1], Cost::ZERO);
        let probe = scan(&mut p, 1);
        join(&mut p, inner, probe);
        let mut done = HashSet::new();
        let hit = next_blocking_input(&p, &[], &done).unwrap();
        assert_eq!(hit, inner, "the choose-plan input is the target");
        done.insert(hit);
        assert!(next_blocking_input(&p, &[], &done).is_none());
    }
}
