//! Plan frontiers: sets of mutually non-dominated alternatives.
//!
//! The optimization result for one (group, required-properties) pair is
//! all plans that are not *dominated* by another plan of the same pair,
//! each held as its node in the search's plan table with its total cost.
//! In point mode (traditional optimization) all costs are comparable and
//! the frontier holds exactly one plan. In interval mode overlapping costs
//! are incomparable, and every plan that might be cheapest for *some*
//! run-time binding survives ("a dynamic plan is guaranteed to include all
//! potentially optimal plans for all run-time bindings", paper Section 3).
//!
//! The search optimizes a pair by recursing into the pairs its candidates
//! are built over, and a pair's frontier takes a candidate only once those
//! have returned: the frontiers being built nest exactly like the
//! recursion. So they are one stack — each *open* frontier is a segment of
//! one candidate list, the innermost on top, and every candidate goes to
//! the top one. Closing a frontier pops its segment; what stays is a
//! [`Frontier`] row, a few words appended to the list of finished ones and
//! chained to its group's earlier rows. No frontier owns a list.

use dqep_algebra::PhysProps;
use dqep_interval::{Interval, PartialCmp};
use dqep_plan::NodeId;

use crate::memo::GroupId;

/// A finished frontier: what the search keeps of a (group, properties)
/// pair once it is optimized.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frontier {
    /// The required properties the group was optimized for.
    pub props: PhysProps,
    /// Number of plans retained.
    pub len: usize,
    /// The node parents reference: the single plan, or a choose-plan over
    /// all of them.
    pub combined: NodeId,
    /// The group's frontier finished before this one.
    previous: Option<u32>,
}

/// A frontier being built: its pair, where its segment of the candidate
/// list starts, and its cheapest upper cost bound.
#[derive(Debug, Clone, Copy)]
struct Open {
    group: GroupId,
    props: PhysProps,
    start: usize,
    best_upper: f64,
}

/// Marks a plan [`Frontiers::prune_with`] found dominated: no node of a
/// plan table has this id.
const EVICTED: NodeId = NodeId(u32::MAX);

/// Every frontier of one search run, open and finished.
#[derive(Debug)]
pub(crate) struct Frontiers {
    /// The open frontiers' plans with their total costs, each frontier a
    /// segment, the innermost last.
    candidates: Vec<(NodeId, Interval)>,
    /// The open frontiers, innermost last — the recursion stack, kept also
    /// to detect a cyclic optimization.
    open: Vec<Open>,
    /// The finished frontiers, in completion order.
    finished: Vec<Frontier>,
    /// Per group, its most recently finished frontier.
    latest: Vec<Option<u32>>,
}

impl Frontiers {
    /// No frontier yet, for a memo of `groups` groups over `n = relations`
    /// relations. A pair's inputs cover fewer relations than it does (or
    /// are the bare relation below a selection), and a pair nests at most
    /// one more pair of its own group (the Sort enforcer's order-free one):
    /// at most `2n + 2` frontiers are ever open at once.
    pub fn new(groups: usize, relations: usize) -> Frontiers {
        let depth = 2 * relations + 2;
        Frontiers {
            candidates: Vec::with_capacity(depth * CANDIDATES_PER_OPEN),
            open: Vec::with_capacity(depth),
            finished: Vec::with_capacity(groups * FINISHED_PER_GROUP),
            latest: vec![None; groups],
        }
    }

    /// The finished frontier of (`gid`, `props`), if the search has
    /// produced it: a walk over the group's few finished frontiers.
    pub fn find(&self, gid: GroupId, props: PhysProps) -> Option<&Frontier> {
        let mut at = self.latest[gid.index()];
        while let Some(i) = at {
            let f = &self.finished[i as usize];
            if f.props == props {
                return Some(f);
            }
            at = f.previous;
        }
        None
    }

    /// The finished frontiers, in completion order.
    pub fn finished(&self) -> &[Frontier] {
        &self.finished
    }

    /// Opens the frontier of (`gid`, `props`) above the open ones: it takes
    /// every candidate until it is closed.
    ///
    /// # Panics
    /// Panics if the pair is open already — a cyclic optimization.
    pub fn open(&mut self, gid: GroupId, props: PhysProps) {
        assert!(
            !self.open.iter().any(|o| o.group == gid && o.props == props),
            "cyclic optimization of {gid} {props}"
        );
        self.open.push(Open {
            group: gid,
            props,
            start: self.candidates.len(),
            best_upper: f64::INFINITY,
        });
    }

    /// Closes the innermost open frontier, recording it as finished with
    /// `combined`, the node its parents reference — or recording nothing,
    /// when it kept no plan, so that asking for the pair again searches it
    /// again.
    pub fn close(&mut self, combined: Option<NodeId>) {
        let open = self.open.pop().expect("a frontier is open");
        let len = self.candidates.len() - open.start;
        self.candidates.truncate(open.start);
        if let Some(combined) = combined {
            let latest = &mut self.latest[open.group.index()];
            self.finished.push(Frontier {
                props: open.props,
                len,
                combined,
                previous: latest.replace(self.finished.len() as u32),
            });
        }
    }

    fn top(&self) -> &Open {
        self.open.last().expect("a frontier is open")
    }

    /// The innermost open frontier's plans with their costs.
    fn top_plans(&self) -> &[(NodeId, Interval)] {
        &self.candidates[self.top().start..]
    }

    /// The innermost open frontier's plans, in insertion order.
    pub fn plans(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.top_plans().iter().map(|(id, _)| *id)
    }

    /// Number of plans the innermost open frontier retains.
    pub fn len(&self) -> usize {
        self.top_plans().len()
    }

    /// The cheapest *upper* cost bound over the innermost open frontier's
    /// plans (`+inf` when empty). This is the only bound interval
    /// branch-and-bound may prune against: a candidate whose *lower* bound
    /// exceeds it is dominated (paper Section 5).
    pub fn best_upper(&self) -> f64 {
        self.top().best_upper
    }

    fn recompute_best_upper(&mut self) {
        let best = self
            .top_plans()
            .iter()
            .map(|(_, cost)| cost.hi())
            .fold(f64::INFINITY, f64::min);
        self.open.last_mut().expect("a frontier is open").best_upper = best;
    }

    /// Whether the innermost open frontier would retain a candidate of
    /// total cost `cost` — asked before the candidate's node is built:
    ///
    /// * no, if an existing plan dominates it (never more expensive);
    /// * no, if `tie_break` and an existing plan's cost is exactly equal
    ///   (the arbitrary-decision rule of Section 3).
    pub fn admits(&self, cost: Interval, tie_break: bool) -> bool {
        !self.top_plans().iter().any(|(_, existing)| {
            existing.dominates(cost)
                || (tie_break && existing.compare(cost) == PartialCmp::Equal)
        })
    }

    /// Adds a candidate the innermost open frontier
    /// [admits](Frontiers::admits), evicting every plan it dominates.
    pub fn push(&mut self, candidate: NodeId, cost: Interval) {
        // An evicted plan's upper bound is at least the candidate's (it is
        // dominated), so the cached minimum only ever moves to the
        // candidate's.
        self.retain(|_, existing| !cost.dominates(existing));
        self.insert_unconditional(candidate, cost);
    }

    /// Adds a candidate to the innermost open frontier without any pruning
    /// — used by the exhaustive-plan mode of Section 3, where every cost
    /// comparison is declared incomparable.
    pub fn insert_unconditional(&mut self, candidate: NodeId, cost: Interval) {
        let top = self.open.last_mut().expect("a frontier is open");
        top.best_upper = top.best_upper.min(cost.hi());
        self.candidates.push((candidate, cost));
    }

    /// Keeps the innermost open frontier's plans that `keep` accepts, in
    /// order, compacting its segment in place.
    fn retain(&mut self, mut keep: impl FnMut(NodeId, Interval) -> bool) {
        let start = self.top().start;
        let mut kept = start;
        for at in start..self.candidates.len() {
            let (id, cost) = self.candidates[at];
            if keep(id, cost) {
                self.candidates[kept] = (id, cost);
                kept += 1;
            }
        }
        self.candidates.truncate(kept);
    }

    /// Applies a caller-supplied domination test (e.g. multi-point probing)
    /// pairwise to the innermost open frontier, removing plans found
    /// dominated. `dominates(a, b)` must mean "a is never more expensive
    /// than b"; a plan found dominated dominates nothing after.
    pub fn prune_with(&mut self, dominates: impl Fn(NodeId, NodeId) -> bool) {
        let start = self.top().start;
        let plans = &mut self.candidates[start..];
        for i in 0..plans.len() {
            let a = plans[i].0;
            if a == EVICTED {
                continue;
            }
            for (j, (b, _)) in plans.iter_mut().enumerate() {
                if i != j && *b != EVICTED && dominates(a, *b) {
                    *b = EVICTED;
                }
            }
        }
        self.retain(|id, _| id != EVICTED);
        self.recompute_best_upper();
    }

    /// Truncates the innermost open frontier to the `cap` plans with the
    /// lowest cost lower bounds (cheapest-possible first). A cap below the
    /// frontier size sacrifices the optimality guarantee; used only by
    /// ablations.
    pub fn enforce_cap(&mut self, cap: usize) {
        let start = self.top().start;
        if self.candidates.len() - start <= cap {
            return;
        }
        self.candidates[start..].sort_by(|a, b| a.1.lo().total_cmp(&b.1.lo()));
        self.candidates.truncate(start + cap.max(1));
        self.recompute_best_upper();
    }
}

/// Finished frontiers reserved per memo group: a group is optimized for
/// its order-free plans and for the few orders merge joins and index
/// joins ask of it (2.3 and 2.7 measured on the benchmark's chains of 4
/// and 10 relations).
const FINISHED_PER_GROUP: usize = 3;

/// Candidate slots reserved per frontier that may be open at once: the
/// open frontiers of a 10-relation chain's dynamic-plan search hold 64
/// plans at most, 3 a frontier.
const CANDIDATES_PER_OPEN: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId(0);

    /// One open frontier, on top of the plan `(99, [0, 0])` of an outer one
    /// (which none of its operations may touch).
    fn frontiers() -> Frontiers {
        let mut f = Frontiers::new(2, 1);
        f.open(GroupId(1), PhysProps::ANY);
        f.push(NodeId(99), Interval::new(0.0, 0.0));
        f.open(G, PhysProps::ANY);
        f
    }

    /// Inserts plan `id` with cost `[lo, hi]` the way the search does.
    fn insert(f: &mut Frontiers, id: u32, lo: f64, hi: f64, tie_break: bool) -> bool {
        let cost = Interval::new(lo, hi);
        let admitted = f.admits(cost, tie_break);
        if admitted {
            f.push(NodeId(id), cost);
        }
        admitted
    }

    fn plans(f: &Frontiers) -> Vec<NodeId> {
        f.plans().collect()
    }

    #[test]
    fn keeps_incomparable_drops_dominated() {
        let mut f = frontiers();
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
        let mut f = frontiers();
        insert(&mut f, 0, 5.0, 6.0, false);
        insert(&mut f, 1, 4.0, 9.0, false);
        // [0, 1] dominates both.
        assert!(insert(&mut f, 2, 0.0, 1.0, false));
        assert_eq!(plans(&f), vec![NodeId(2)]);
        assert_eq!(f.best_upper(), 1.0);
    }

    #[test]
    fn point_mode_with_tie_break_keeps_single_plan() {
        let mut f = frontiers();
        assert!(insert(&mut f, 0, 2.0, 2.0, true));
        assert!(!insert(&mut f, 1, 2.0, 2.0, true), "equal cost: tie-broken");
        assert!(!insert(&mut f, 2, 3.0, 3.0, true));
        assert!(insert(&mut f, 3, 1.0, 1.0, true));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn conservative_mode_keeps_equal_cost_plans() {
        let mut f = frontiers();
        assert!(insert(&mut f, 0, 2.0, 2.0, false));
        assert!(insert(&mut f, 1, 2.0, 2.0, false), "paper's naive policy");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn prune_with_external_test() {
        let mut f = frontiers();
        insert(&mut f, 0, 0.0, 10.0, false);
        insert(&mut f, 1, 1.0, 2.0, false);
        // External knowledge says plan 1 always beats plan 0.
        f.prune_with(|x, y| x == NodeId(1) && y == NodeId(0));
        assert_eq!(plans(&f), vec![NodeId(1)]);
        assert_eq!(f.best_upper(), 2.0);
    }

    #[test]
    fn prune_with_skips_plans_already_evicted() {
        let mut f = frontiers();
        insert(&mut f, 0, 0.0, 10.0, false);
        insert(&mut f, 1, 1.0, 2.0, false);
        insert(&mut f, 2, 1.5, 3.0, false);
        // External knowledge says plan 0 always beats plan 1 and plan 1
        // beats plan 2 — but plan 1 is gone by the time it is asked.
        f.prune_with(|x, y| {
            (x, y) == (NodeId(0), NodeId(1)) || (x, y) == (NodeId(1), NodeId(2))
        });
        assert_eq!(plans(&f), vec![NodeId(0), NodeId(2)]);
        assert_eq!(f.best_upper(), 3.0);
    }

    #[test]
    fn cap_keeps_lowest_lower_bounds() {
        let mut f = frontiers();
        insert(&mut f, 0, 3.0, 100.0, false);
        insert(&mut f, 1, 0.5, 100.0, false);
        insert(&mut f, 2, 2.0, 100.0, false);
        f.enforce_cap(2);
        assert_eq!(plans(&f), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_frontier_bound_is_infinite() {
        let f = frontiers();
        assert_eq!(f.len(), 0);
        assert_eq!(f.best_upper(), f64::INFINITY);
    }

    #[test]
    fn closing_pops_the_top_segment_and_records_the_pair() {
        let mut f = frontiers();
        insert(&mut f, 0, 0.0, 10.0, false);
        insert(&mut f, 1, 1.0, 2.0, false);
        f.close(Some(NodeId(7)));
        // The outer frontier is on top again, as it was.
        assert_eq!(plans(&f), vec![NodeId(99)]);
        assert_eq!(f.best_upper(), 0.0);
        let done = f.find(G, PhysProps::ANY).expect("finished");
        assert_eq!((done.len, done.combined), (2, NodeId(7)));

        // A pair that kept nothing is not recorded; the group's other
        // pairs are found through its chain.
        let sorted = PhysProps::sorted(dqep_catalog::AttrId {
            relation: dqep_catalog::RelationId(0),
            index: 0,
        });
        f.open(G, sorted);
        f.close(None);
        assert!(f.find(G, sorted).is_none());
        f.open(G, sorted);
        insert(&mut f, 3, 1.0, 1.0, false);
        f.close(Some(NodeId(3)));
        assert_eq!(f.find(G, sorted).map(|d| d.combined), Some(NodeId(3)));
        assert_eq!(f.find(G, PhysProps::ANY).map(|d| d.combined), Some(NodeId(7)));
        assert_eq!(f.finished().len(), 2);
    }

    #[test]
    #[should_panic(expected = "cyclic optimization")]
    fn reopening_an_open_pair_is_a_cycle() {
        let mut f = frontiers();
        f.open(G, PhysProps::ANY);
    }
}
