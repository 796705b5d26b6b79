//! The memo: groups of logically equivalent expressions.
//!
//! The Volcano optimizer generator's search engine "uses a top-down,
//! memoizing variant of dynamic programming" (paper Section 2). The memo
//! holds one **group** per logically distinct sub-result; each group holds
//! the deduplicated **logical expressions** that produce it, and (during
//! search) the optimized physical **frontiers** per required physical
//! property.
//!
//! Group identity ("fingerprint") is the set of base relations covered,
//! with selections always applied: `Get(R)` and `Select(Get(R))` are kept
//! as distinct leaf groups, and every multi-relation group covers fully
//! selected inputs.
//!
//! Group ids are issued 0, 1, 2, … in creation order, so everything keyed
//! by a group is a vector indexed by its id; a group's frontiers — at most
//! a handful of required properties each — are a short list searched
//! linearly; and the fingerprint index is two slots per relation for the
//! leaves plus a list of join groups sorted by relation set.

use dqep_algebra::{PhysProps, RelSet};
use dqep_catalog::RelationId;
use crate::frontier::Frontier;

/// Index of a group within the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The id as a vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Logical fingerprint of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// A bare base relation (`Get(R)`).
    Get(RelationId),
    /// A base relation with all its selections applied.
    SelectedLeaf(RelationId),
    /// A join result covering the given relations (all selections applied).
    Join(RelSet),
}

impl GroupKey {
    /// The relations covered by the group.
    #[must_use]
    pub fn rels(self) -> RelSet {
        match self {
            GroupKey::Get(r) | GroupKey::SelectedLeaf(r) => RelSet::singleton(r),
            GroupKey::Join(s) => s,
        }
    }
}

/// The logical operator of a memo expression. Children are group
/// references, making expressions cheap to deduplicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Retrieve a base relation. Leaf; no children.
    Get(RelationId),
    /// Apply the relation's selections to its `Get` group.
    Select {
        /// The relation being selected (predicates live in the
        /// [`crate::QueryContext`]).
        relation: RelationId,
    },
    /// Join two groups (predicates derived from the query's join graph).
    Join {
        /// Left input group.
        left: GroupId,
        /// Right input group.
        right: GroupId,
    },
}

/// A deduplicated logical expression within a group.
#[derive(Debug, Clone)]
pub struct LogicalMExpr {
    /// The operator.
    pub op: LogicalOp,
    /// Exploration state (see [`crate::rules`]): whether commutativity has
    /// been applied to this expression.
    pub(crate) commuted: bool,
    /// Exploration state: how many of the left input group's expressions
    /// associativity has already been fired against.
    pub(crate) associated: usize,
}

/// One memo group.
#[derive(Debug)]
pub struct Group {
    /// Fingerprint.
    pub key: GroupKey,
    /// Deduplicated logical expressions.
    pub exprs: Vec<LogicalMExpr>,
    /// Whether exploration reached a fixpoint for this group.
    pub explored: bool,
    /// Optimized physical frontiers per required property, filled during
    /// search, in completion order.
    pub plans: Vec<(PhysProps, Frontier)>,
}

impl Group {
    /// The finished frontier for `props`, if the search has produced it.
    #[must_use]
    pub fn frontier(&self, props: PhysProps) -> Option<&Frontier> {
        self.plans.iter().find(|(p, _)| *p == props).map(|(_, f)| f)
    }
}

/// The two leaf groups a relation can have.
#[derive(Debug, Clone, Copy, Default)]
struct LeafGroups {
    get: Option<GroupId>,
    selected: Option<GroupId>,
}

/// The memo.
#[derive(Debug, Default)]
pub struct Memo {
    groups: Vec<Group>,
    /// Leaf groups, indexed by relation id.
    leaves: Vec<LeafGroups>,
    /// Join groups, sorted by relation set.
    joins: Vec<(RelSet, GroupId)>,
}

impl Memo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Memo {
        Memo::default()
    }

    /// The group for `key`, creating it if necessary.
    pub fn group_for(&mut self, key: GroupKey) -> GroupId {
        if let Some(gid) = self.find(key) {
            return gid;
        }
        let gid = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            key,
            exprs: Vec::new(),
            explored: false,
            plans: Vec::new(),
        });
        match key {
            GroupKey::Get(r) => self.leaf_mut(r).get = Some(gid),
            GroupKey::SelectedLeaf(r) => self.leaf_mut(r).selected = Some(gid),
            GroupKey::Join(rels) => {
                let at = self.joins.partition_point(|(s, _)| *s < rels);
                self.joins.insert(at, (rels, gid));
            }
        }
        gid
    }

    fn leaf_mut(&mut self, rel: RelationId) -> &mut LeafGroups {
        let index = rel.0 as usize;
        if index >= self.leaves.len() {
            self.leaves.resize(index + 1, LeafGroups::default());
        }
        &mut self.leaves[index]
    }

    /// Looks up an existing group.
    #[must_use]
    pub fn find(&self, key: GroupKey) -> Option<GroupId> {
        match key {
            GroupKey::Get(r) => self.leaves.get(r.0 as usize)?.get,
            GroupKey::SelectedLeaf(r) => self.leaves.get(r.0 as usize)?.selected,
            GroupKey::Join(rels) => self
                .joins
                .binary_search_by_key(&rels, |(s, _)| *s)
                .ok()
                .map(|at| self.joins[at].1),
        }
    }

    /// Adds `op` to `gid` unless an identical expression is already
    /// present. Returns whether it was new.
    pub fn add_expr(&mut self, gid: GroupId, op: LogicalOp) -> bool {
        let group = &mut self.groups[gid.0 as usize];
        if group.exprs.iter().any(|e| e.op == op) {
            return false;
        }
        group.exprs.push(LogicalMExpr {
            op,
            commuted: false,
            associated: 0,
        });
        true
    }

    /// Immutable group access.
    ///
    /// # Panics
    /// Panics for ids not issued by this memo.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> &Group {
        &self.groups[gid.0 as usize]
    }

    /// Mutable group access.
    ///
    /// # Panics
    /// Panics for ids not issued by this memo.
    pub fn group_mut(&mut self, gid: GroupId) -> &mut Group {
        &mut self.groups[gid.0 as usize]
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total number of logical expressions across groups.
    #[must_use]
    pub fn expr_count(&self) -> usize {
        self.groups.iter().map(|g| g.exprs.len()).sum()
    }

    /// Number of complete logical expression *trees* rooted at `gid` — the
    /// "logical alternative plans considered by the search engine" metric
    /// reported with the paper's query definitions. Computed as
    /// `trees(g) = Σ_expr Π_child trees(child)` with memoization; leaves
    /// count 1.
    #[must_use]
    pub fn logical_tree_count(&self, gid: GroupId) -> f64 {
        self.trees(gid, &mut vec![None; self.groups.len()])
    }

    fn trees(&self, gid: GroupId, memo: &mut [Option<f64>]) -> f64 {
        if let Some(v) = memo[gid.index()] {
            return v;
        }
        // Groups form a DAG by construction (children cover strictly
        // smaller relation sets), so recursion terminates.
        let mut total = 0.0;
        for e in &self.group(gid).exprs {
            total += match e.op {
                LogicalOp::Get(_) => 1.0,
                LogicalOp::Select { relation } => {
                    let child = self
                        .find(GroupKey::Get(relation))
                        .expect("select's child group exists");
                    self.trees(child, memo)
                }
                LogicalOp::Join { left, right } => {
                    self.trees(left, memo) * self.trees(right, memo)
                }
            };
        }
        let total = total.max(1.0);
        memo[gid.index()] = Some(total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(i: u32) -> RelationId {
        RelationId(i)
    }

    #[test]
    fn group_creation_is_idempotent() {
        let mut m = Memo::new();
        let a = m.group_for(GroupKey::Get(rel(0)));
        let b = m.group_for(GroupKey::Get(rel(0)));
        assert_eq!(a, b);
        assert_eq!(m.group_count(), 1);
        let c = m.group_for(GroupKey::SelectedLeaf(rel(0)));
        assert_ne!(a, c);
        assert_eq!(m.find(GroupKey::SelectedLeaf(rel(0))), Some(c));
        assert_eq!(m.find(GroupKey::Join(RelSet::singleton(rel(1)))), None);
    }

    #[test]
    fn expression_dedup() {
        let mut m = Memo::new();
        let g = m.group_for(GroupKey::Get(rel(0)));
        assert!(m.add_expr(g, LogicalOp::Get(rel(0))));
        assert!(!m.add_expr(g, LogicalOp::Get(rel(0))));
        assert_eq!(m.group(g).exprs.len(), 1);
        assert_eq!(m.expr_count(), 1);
    }

    #[test]
    fn logical_tree_count_multiplies_joins() {
        let mut m = Memo::new();
        let g0 = m.group_for(GroupKey::Get(rel(0)));
        m.add_expr(g0, LogicalOp::Get(rel(0)));
        let g1 = m.group_for(GroupKey::Get(rel(1)));
        m.add_expr(g1, LogicalOp::Get(rel(1)));
        let j = m.group_for(GroupKey::Join(RelSet::from_iter([rel(0), rel(1)])));
        // Two commuted join expressions: two logical trees.
        m.add_expr(j, LogicalOp::Join { left: g0, right: g1 });
        m.add_expr(j, LogicalOp::Join { left: g1, right: g0 });
        assert_eq!(m.logical_tree_count(j), 2.0);
        assert_eq!(m.logical_tree_count(g0), 1.0);
    }

    #[test]
    fn select_counts_child_trees() {
        let mut m = Memo::new();
        let g = m.group_for(GroupKey::Get(rel(3)));
        m.add_expr(g, LogicalOp::Get(rel(3)));
        let s = m.group_for(GroupKey::SelectedLeaf(rel(3)));
        m.add_expr(s, LogicalOp::Select { relation: rel(3) });
        assert_eq!(m.logical_tree_count(s), 1.0);
    }

    #[test]
    fn group_key_rels() {
        assert_eq!(GroupKey::Get(rel(2)).rels(), RelSet::singleton(rel(2)));
        let set = RelSet::from_iter([rel(0), rel(5)]);
        assert_eq!(GroupKey::Join(set).rels(), set);
    }
}
