//! Plan frontiers: sets of mutually non-dominated alternatives.

use dqep_interval::{Interval, PartialCmp};
use dqep_plan::NodeId;

/// The optimization result for one (group, required-properties) pair: all
/// plans that are not *dominated* by another plan of the same pair, each
/// held as its node in the search's plan table with its total cost.
///
/// In point mode (traditional optimization) all costs are comparable and
/// the frontier holds exactly one plan. In interval mode overlapping costs
/// are incomparable, and every plan that might be cheapest for *some*
/// run-time binding survives ("a dynamic plan is guaranteed to include all
/// potentially optimal plans for all run-time bindings", paper Section 3).
#[derive(Debug)]
pub struct Frontier {
    plans: Vec<(NodeId, Interval)>,
    /// Cached [`Frontier::best_upper`], maintained on every change.
    best_upper: f64,
    /// The node parents reference: the single plan, or a choose-plan over
    /// all of them. Set by the search once insertion finishes.
    pub combined: Option<NodeId>,
}

impl Default for Frontier {
    fn default() -> Frontier {
        Frontier {
            plans: Vec::new(),
            best_upper: f64::INFINITY,
            combined: None,
        }
    }
}

impl Frontier {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> Frontier {
        Frontier::default()
    }

    /// The retained plans, in insertion order.
    pub fn plans(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.plans.iter().map(|(id, _)| *id)
    }

    /// Number of retained plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether no plan was retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The cheapest *upper* cost bound over retained plans (`+inf` when
    /// empty). This is the only bound interval branch-and-bound may prune
    /// against: a candidate whose *lower* bound exceeds it is dominated
    /// (paper Section 5).
    #[must_use]
    pub fn best_upper(&self) -> f64 {
        self.best_upper
    }

    fn recompute_best_upper(&mut self) {
        self.best_upper = self
            .plans
            .iter()
            .map(|(_, cost)| cost.hi())
            .fold(f64::INFINITY, f64::min);
    }

    /// Whether [`Frontier::insert`] would retain a candidate of total cost
    /// `cost` — asked before the candidate's node is built:
    ///
    /// * no, if an existing plan dominates it (never more expensive);
    /// * no, if `tie_break` and an existing plan's cost is exactly equal
    ///   (the arbitrary-decision rule of Section 3).
    #[must_use]
    pub fn admits(&self, cost: Interval, tie_break: bool) -> bool {
        !self.plans.iter().any(|(_, existing)| {
            existing.dominates(cost)
                || (tie_break && existing.compare(cost) == PartialCmp::Equal)
        })
    }

    /// Inserts a candidate, maintaining the Pareto property: dropped
    /// unless the frontier [admits](Frontier::admits) its cost, otherwise
    /// [pushed](Frontier::push).
    ///
    /// Returns `true` when the candidate was retained.
    pub fn insert(&mut self, candidate: NodeId, cost: Interval, tie_break: bool) -> bool {
        let admitted = self.admits(cost, tie_break);
        if admitted {
            self.push(candidate, cost);
        }
        admitted
    }

    /// Adds a candidate whose cost the frontier [admits](Frontier::admits),
    /// evicting every existing plan it dominates.
    pub fn push(&mut self, candidate: NodeId, cost: Interval) {
        // An evicted plan's upper bound is at least the candidate's (it is
        // dominated), so the cached minimum only ever moves to the
        // candidate's.
        self.plans.retain(|(_, existing)| !cost.dominates(*existing));
        self.insert_unconditional(candidate, cost);
    }

    /// Inserts without any pruning — used by the exhaustive-plan mode of
    /// Section 3, where every cost comparison is declared incomparable.
    pub fn insert_unconditional(&mut self, candidate: NodeId, cost: Interval) {
        self.best_upper = self.best_upper.min(cost.hi());
        self.plans.push((candidate, cost));
    }

    /// Applies a caller-supplied domination test (e.g. multi-point probing)
    /// pairwise, removing plans found dominated. `dominates(a, b)` must
    /// mean "a is never more expensive than b".
    pub fn prune_with(&mut self, dominates: impl Fn(NodeId, NodeId) -> bool) {
        let mut keep = vec![true; self.plans.len()];
        for i in 0..self.plans.len() {
            if !keep[i] {
                continue;
            }
            for (j, kj) in keep.iter_mut().enumerate() {
                if i == j || !*kj {
                    continue;
                }
                if dominates(self.plans[i].0, self.plans[j].0) {
                    *kj = false;
                }
            }
        }
        let mut it = keep.iter();
        self.plans.retain(|_| *it.next().expect("keep mask aligned"));
        self.recompute_best_upper();
    }

    /// Truncates to the `cap` plans with the lowest cost lower bounds
    /// (cheapest-possible first). A cap below the frontier size sacrifices
    /// the optimality guarantee; used only by ablations.
    pub fn enforce_cap(&mut self, cap: usize) {
        if self.plans.len() <= cap {
            return;
        }
        self.plans.sort_by(|a, b| a.1.lo().total_cmp(&b.1.lo()));
        self.plans.truncate(cap.max(1));
        self.recompute_best_upper();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts plan `id` with cost `[lo, hi]`.
    fn insert(f: &mut Frontier, id: u32, lo: f64, hi: f64, tie_break: bool) -> bool {
        f.insert(NodeId(id), Interval::new(lo, hi), tie_break)
    }

    #[test]
    fn keeps_incomparable_drops_dominated() {
        let mut f = Frontier::new();
        assert!(insert(&mut f, 0, 0.0, 10.0, false));
        assert!(insert(&mut f, 1, 1.0, 2.0, false), "overlapping: kept");
        assert_eq!(f.len(), 2);
        // Dominated by [1,2] (lo 3 > hi 2): dropped.
        assert!(!insert(&mut f, 2, 3.0, 4.0, false));
        assert_eq!(f.len(), 2);
        assert_eq!(f.best_upper(), 2.0);
    }

    #[test]
    fn new_plan_evicts_dominated_incumbents() {
        let mut f = Frontier::new();
        insert(&mut f, 0, 5.0, 6.0, false);
        insert(&mut f, 1, 4.0, 9.0, false);
        // [0, 1] dominates both.
        assert!(insert(&mut f, 2, 0.0, 1.0, false));
        assert_eq!(f.len(), 1);
        assert_eq!(f.best_upper(), 1.0);
    }

    #[test]
    fn point_mode_with_tie_break_keeps_single_plan() {
        let mut f = Frontier::new();
        assert!(insert(&mut f, 0, 2.0, 2.0, true));
        assert!(!insert(&mut f, 1, 2.0, 2.0, true), "equal cost: tie-broken");
        assert!(!insert(&mut f, 2, 3.0, 3.0, true));
        assert!(insert(&mut f, 3, 1.0, 1.0, true));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn conservative_mode_keeps_equal_cost_plans() {
        let mut f = Frontier::new();
        assert!(insert(&mut f, 0, 2.0, 2.0, false));
        assert!(insert(&mut f, 1, 2.0, 2.0, false), "paper's naive policy");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn prune_with_external_test() {
        let mut f = Frontier::new();
        insert(&mut f, 0, 0.0, 10.0, false);
        insert(&mut f, 1, 1.0, 2.0, false);
        // External knowledge says plan 1 always beats plan 0.
        f.prune_with(|x, y| x == NodeId(1) && y == NodeId(0));
        assert_eq!(f.plans().collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(f.best_upper(), 2.0);
    }

    #[test]
    fn cap_keeps_lowest_lower_bounds() {
        let mut f = Frontier::new();
        insert(&mut f, 0, 3.0, 100.0, false);
        insert(&mut f, 1, 0.5, 100.0, false);
        insert(&mut f, 2, 2.0, 100.0, false);
        f.enforce_cap(2);
        assert_eq!(f.plans().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_frontier_bound_is_infinite() {
        let f = Frontier::new();
        assert!(f.is_empty());
        assert_eq!(f.best_upper(), f64::INFINITY);
    }
}
