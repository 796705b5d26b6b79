//! The memo: groups of logically equivalent expressions.
//!
//! The Volcano optimizer generator's search engine "uses a top-down,
//! memoizing variant of dynamic programming" (paper Section 2). The memo
//! holds one **group** per logically distinct sub-result; each group holds
//! the deduplicated **logical expressions** that produce it.
//!
//! Group identity ("fingerprint") is the set of base relations covered,
//! with selections always applied: `Get(R)` and `Select(Get(R))` are kept
//! as distinct leaf groups, and every multi-relation group covers fully
//! selected inputs.
//!
//! The memo is a few tables. Groups are rows of one list, issued ids 0, 1,
//! 2, … in creation order, so everything keyed by a group is a vector
//! indexed by its id. Expressions are rows of one list in creation order,
//! each group's chained first to last through its rows. When exploration
//! ends, every join expression gets its join predicates — oriented so the
//! left attribute belongs to its left input — as a range of one predicate
//! list, computed once, so the search reads a slice where it would filter
//! the query's join graph per candidate. The fingerprint index is two slots
//! per relation for the leaves plus a list of join groups sorted by
//! relation set; join expressions are deduplicated on their inputs in one
//! hash set. None of the rows owns heap memory.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use dqep_algebra::{JoinPred, RelSet};
use dqep_catalog::RelationId;

use crate::context::QueryContext;

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

/// Index of an expression within the memo: its rank in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExprId(u32);

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A deduplicated logical expression: one row of the memo's expression
/// list.
#[derive(Debug, Clone, Copy)]
pub struct LogicalMExpr {
    /// The operator.
    pub op: LogicalOp,
    /// The group's next expression, in creation order.
    pub(crate) next: Option<ExprId>,
    /// A join's predicates: a range of the memo's predicate list, set when
    /// exploration ends (empty before, and for every other operator).
    preds: (u32, u32),
    /// Exploration state (see [`crate::rules`]): whether commutativity has
    /// been applied to this expression.
    pub(crate) commuted: bool,
    /// Exploration state: the last expression of the left input group
    /// associativity has been fired against.
    pub(crate) associated: Option<ExprId>,
}

/// One memo group.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    /// Fingerprint.
    pub key: GroupKey,
    /// Whether exploration reached a fixpoint for this group.
    pub explored: bool,
    /// The group's first and last expressions: the ends of its chain.
    pub(crate) first: Option<ExprId>,
    pub(crate) last: Option<ExprId>,
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
    /// Every expression, in creation order.
    exprs: Vec<LogicalMExpr>,
    /// The join expressions' predicates, each expression's a range.
    preds: Vec<JoinPred>,
    /// Leaf groups, indexed by relation id.
    leaves: Vec<LeafGroups>,
    /// Join groups, sorted by relation set.
    joins: Vec<(RelSet, GroupId)>,
    /// The join expressions' inputs, `left` and `right` packed into a word:
    /// the pair identifies a join expression (its group covers their
    /// union), so a join is deduplicated without a walk over its group.
    join_inputs: HashSet<u64, BuildHasherDefault<InputsHasher>>,
}

/// Hashes a packed pair of join inputs with one multiplication (Fibonacci
/// hashing): the keys are small, distinct integers chosen by no adversary.
#[derive(Debug, Default)]
struct InputsHasher(u64);

impl Hasher for InputsHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("join inputs are hashed as one u64")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Memo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Memo {
        Memo::default()
    }

    /// An empty memo with room for what exploring `ctx`'s query creates at
    /// the least: for `n` relations, two leaf groups each and the
    /// `n(n-1)/2` join groups and `(n³-n)/3` join expressions of a chain —
    /// the connected join graph with the fewest connected subsets.
    #[must_use]
    pub fn for_query(ctx: &QueryContext) -> Memo {
        let n = ctx.relations.len();
        let join_groups = n * n.saturating_sub(1) / 2;
        let join_exprs = (n * n * n - n) / 3;
        Memo {
            groups: Vec::with_capacity(2 * n + join_groups),
            exprs: Vec::with_capacity(2 * n + join_exprs),
            preds: Vec::new(),
            leaves: Vec::with_capacity(ctx.relations.last().map_or(0, |r| r.0 as usize + 1)),
            joins: Vec::with_capacity(join_groups),
            join_inputs: HashSet::with_capacity_and_hasher(
                join_exprs,
                BuildHasherDefault::default(),
            ),
        }
    }

    /// The group for `key`, creating it if necessary.
    pub fn group_for(&mut self, key: GroupKey) -> GroupId {
        if let Some(gid) = self.find(key) {
            return gid;
        }
        let gid = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            key,
            explored: false,
            first: None,
            last: None,
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
        let new = match op {
            LogicalOp::Join { left, right } => {
                self.join_inputs.insert(u64::from(left.0) << 32 | u64::from(right.0))
            }
            // A leaf group holds its one expression.
            LogicalOp::Get(_) | LogicalOp::Select { .. } => !self.exprs(gid).any(|e| e.op == op),
        };
        if !new {
            return false;
        }
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(LogicalMExpr {
            op,
            next: None,
            preds: (0, 0),
            commuted: false,
            associated: None,
        });
        let group = &mut self.groups[gid.index()];
        match group.last.replace(id) {
            Some(last) => self.exprs[last.0 as usize].next = Some(id),
            None => group.first = Some(id),
        }
        true
    }

    /// Immutable group access.
    ///
    /// # Panics
    /// Panics for ids not issued by this memo.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> &Group {
        &self.groups[gid.index()]
    }

    /// One expression.
    pub(crate) fn expr(&self, id: ExprId) -> &LogicalMExpr {
        &self.exprs[id.0 as usize]
    }

    pub(crate) fn expr_mut(&mut self, id: ExprId) -> &mut LogicalMExpr {
        &mut self.exprs[id.0 as usize]
    }

    /// The expression of `gid` added right after `after` (its first when
    /// `after` is `None`).
    pub(crate) fn successor(&self, gid: GroupId, after: Option<ExprId>) -> Option<ExprId> {
        match after {
            Some(id) => self.expr(id).next,
            None => self.group(gid).first,
        }
    }

    /// A group's expressions, in the order they were added.
    pub fn exprs(&self, gid: GroupId) -> impl Iterator<Item = &LogicalMExpr> + '_ {
        let mut at = self.group(gid).first;
        std::iter::from_fn(move || {
            let expr = self.expr(at?);
            at = expr.next;
            Some(expr)
        })
    }

    /// A join expression's predicates, oriented so each `left` attribute
    /// belongs to its left input, in the order of the query's join graph —
    /// `ctx.preds_between(left rels, right rels)`, computed when
    /// exploration ended. Empty for every other operator.
    #[must_use]
    pub fn join_preds(&self, expr: &LogicalMExpr) -> &[JoinPred] {
        &self.preds[expr.preds.0 as usize..expr.preds.1 as usize]
    }

    /// Ends exploration: marks every group explored and gives every join
    /// expression its predicates — what `ctx.preds_between` yields for its
    /// inputs, found without filtering the whole join graph per
    /// expression: the predicates between two disjoint groups are the ones
    /// with an end in each, so a bitset per group of the predicates with an
    /// end in it, built once, gives them as the intersection of two.
    pub(crate) fn finish_exploration(&mut self, ctx: &QueryContext) {
        for group in &mut self.groups {
            group.explored = true;
        }
        let words = ctx.join_preds.len().div_ceil(64);
        let mut touching = vec![0u64; self.groups.len() * words];
        for (group, bits) in self.groups.iter().zip(touching.chunks_exact_mut(words.max(1))) {
            let rels = group.key.rels();
            for (i, p) in ctx.join_preds.iter().enumerate() {
                let touches = rels.contains(p.left.relation) || rels.contains(p.right.relation);
                bits[i / 64] |= u64::from(touches) << (i % 64);
            }
        }
        self.preds.clear();
        self.preds.reserve(self.join_inputs.len());
        for expr in &mut self.exprs {
            let LogicalOp::Join { left, right } = expr.op else {
                continue;
            };
            let start = self.preds.len() as u32;
            let left_rels = self.groups[left.index()].key.rels();
            let (l, r) = (left.index() * words, right.index() * words);
            for w in 0..words {
                let mut both = touching[l + w] & touching[r + w];
                while both != 0 {
                    let p = ctx.join_preds[w * 64 + both.trailing_zeros() as usize];
                    both &= both - 1;
                    // Oriented as `preds_between` orients it.
                    self.preds.push(if left_rels.contains(p.left.relation) {
                        p
                    } else {
                        p.flipped()
                    });
                }
            }
            expr.preds = (start, self.preds.len() as u32);
        }
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total number of logical expressions across groups.
    #[must_use]
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Number of complete logical expression *trees* rooted at `gid` — the
    /// "logical alternative plans considered by the search engine" metric
    /// reported with the paper's query definitions. Computed as
    /// `trees(g) = Σ_expr Π_child trees(child)` with memoization; leaves
    /// count 1. Counted on demand, over [`crate::Optimizer::explore`]'s
    /// memo: optimization does not count them.
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
        for e in self.exprs(gid) {
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

    // A group owns no heap memory: copying one is a `memcpy`.
    const _: fn() = || {
        fn copy<T: Copy>() {}
        copy::<Group>();
    };

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
        assert_eq!(m.exprs(g).count(), 1);
        assert_eq!(m.expr_count(), 1);
    }

    #[test]
    fn join_expressions_are_deduplicated_on_their_inputs() {
        let mut m = Memo::new();
        let leaves: Vec<GroupId> = (0..12).map(|i| m.group_for(GroupKey::Get(rel(i)))).collect();
        let j = m.group_for(GroupKey::Join(RelSet::from_iter((0..12).map(rel))));
        let pairs = || {
            leaves
                .iter()
                .flat_map(|&l| leaves.iter().map(move |&r| (l, r)))
                .filter(|(l, r)| l != r)
        };
        assert!(pairs().all(|(left, right)| m.add_expr(j, LogicalOp::Join { left, right })));
        assert!(!pairs().any(|(left, right)| m.add_expr(j, LogicalOp::Join { left, right })));
        assert_eq!(m.exprs(j).count(), 132);
    }

    #[test]
    fn a_group_lists_its_expressions_in_the_order_they_were_added() {
        let mut m = Memo::new();
        let g0 = m.group_for(GroupKey::Get(rel(0)));
        let g1 = m.group_for(GroupKey::Get(rel(1)));
        let j = m.group_for(GroupKey::Join(RelSet::from_iter([rel(0), rel(1)])));
        // Interleaved with another group's rows: the chain skips them.
        m.add_expr(j, LogicalOp::Join { left: g0, right: g1 });
        m.add_expr(g0, LogicalOp::Get(rel(0)));
        m.add_expr(j, LogicalOp::Join { left: g1, right: g0 });
        m.add_expr(g1, LogicalOp::Get(rel(1)));
        let ops: Vec<LogicalOp> = m.exprs(j).map(|e| e.op).collect();
        assert_eq!(
            ops,
            [
                LogicalOp::Join { left: g0, right: g1 },
                LogicalOp::Join { left: g1, right: g0 }
            ]
        );
        assert_eq!(m.exprs(g0).count(), 1);
        assert_eq!(m.expr_count(), 4);
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
