//! The plan table: physical operators in topological order.

use std::borrow::Cow;
use std::fmt;
use std::ops::Index;

use dqep_algebra::{JoinPred, OpLabel, PhysicalOp, SortOrder};
use dqep_cost::{Cost, PlanStats};

/// A node of a [`Plan`]: its position in the table.
///
/// Node identity (not structural equality) defines DAG sharing: two child
/// links holding the same id are one node; the start-up evaluator costs
/// each id exactly once, and Figure 6's plan size is the number of ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operator of a (possibly dynamic) query evaluation plan. Its
/// children are a range of the owning [`Plan`]'s child list
/// ([`Plan::children`]), its join predicates a range of the plan's
/// predicate list ([`Plan::join_preds`]): a node owns no heap memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanNode {
    /// The physical algorithm and its arguments.
    pub op: PhysicalOp,
    /// Where this node's child ids sit in the plan's child list.
    children: (u32, u32),
    /// Where this node's join predicates start in the plan's predicate
    /// list. Nodes append their predicates in table order, so the range
    /// ends where the next node's begins; holding the end as well would
    /// make a node 200 bytes, not 192.
    preds: u32,
    /// Output stream statistics under the *compile-time* environment
    /// (interval-valued for dynamic plans).
    pub stats: PlanStats,
    /// Cost of this operator alone, compile-time view.
    pub self_cost: Cost,
    /// Total cost of the subtree rooted here (self + children; for a
    /// choose-plan, the pointwise minimum over alternatives plus decision
    /// overhead), compile-time view: what the search compares, since the
    /// paper prices a choose-plan's decision in. Derived when the node is
    /// pushed.
    pub total_cost: Cost,
    /// Execution cost of the subtree rooted here: [`PlanNode::total_cost`]
    /// without any decision overhead (self + children's `exec`; for a
    /// choose-plan, the pointwise minimum of its alternatives' `exec`).
    /// Every start-up estimate of the node lies inside it — the interval
    /// guarantee — and it is what EXPLAIN ANALYZE compares a span with.
    /// Equal to `total_cost` on a subtree without a choose-plan. Derived
    /// when the node is pushed; never encoded.
    pub exec: Cost,
    /// The sort order this subplan delivers. Derived when the node is
    /// pushed.
    pub order: SortOrder,
}

impl PlanNode {
    /// Whether this node is a choose-plan operator.
    #[must_use]
    pub fn is_choose_plan(&self) -> bool {
        matches!(self.op, PhysicalOp::ChoosePlan)
    }
}

/// A query evaluation plan — static or dynamic — as one table: nodes in
/// children-before-parents order, the root last, a node's [`NodeId`] *is*
/// its position. Alternatives under a choose-plan share common
/// subexpressions by holding the same id ("all plans and alternative plans
/// must be represented as directed acyclic graphs with common
/// subexpressions, not as trees", paper Section 3), and position is
/// creation order — which orders the alternatives under every choose-plan
/// and so breaks ties at start-up.
///
/// Three lists hold it all: the nodes, the child ids and the join
/// predicates, the last two appended node by node as the nodes are pushed.
/// The same table is the optimizer's arena while it searches (nodes are
/// only ever appended; [`Plan::finish`] drops what no longer hangs off the
/// root), the stored access module (written field by field), and what the
/// start-up decision and every analysis loop over. In a *whole* plan —
/// what `finish`, [`Plan::rooted_at`], start-up resolution and module
/// decoding produce, and [`Plan::check_invariants`] checks — every node is
/// reachable from the root.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    nodes: Vec<PlanNode>,
    children: Vec<NodeId>,
    preds: Vec<JoinPred>,
    choose_plans: usize,
}

impl Plan {
    /// An empty table.
    #[must_use]
    pub fn new() -> Plan {
        Plan::default()
    }

    /// An empty table with room for `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Plan {
        Plan {
            nodes: Vec::with_capacity(nodes),
            children: Vec::with_capacity(nodes),
            preds: Vec::new(),
            choose_plans: 0,
        }
    }

    /// Number of nodes — for a whole plan, the plan-size metric of the
    /// paper's Figure 6.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table holds no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root: the last node.
    ///
    /// # Panics
    /// Panics on an empty table.
    #[must_use]
    pub fn root(&self) -> NodeId {
        assert!(!self.nodes.is_empty(), "an empty plan has no root");
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// The root's node.
    ///
    /// # Panics
    /// Panics on an empty table.
    #[must_use]
    pub fn root_node(&self) -> &PlanNode {
        &self[self.root()]
    }

    /// The child ids of `id`, in child order (see [`PhysicalOp::arity`];
    /// a choose-plan has ≥ 2).
    #[must_use]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let (start, end) = self.nodes[id.index()].children;
        &self.children[start as usize..end as usize]
    }

    /// The join predicates of `id`, in the order it was pushed with —
    /// empty for an operator that joins nothing. A merge join is sorted on
    /// the first; an index join probes its index with the first.
    #[must_use]
    pub fn join_preds(&self, id: NodeId) -> &[JoinPred] {
        let start = self.nodes[id.index()].preds as usize;
        let end = self
            .nodes
            .get(id.index() + 1)
            .map_or(self.preds.len(), |next| next.preds as usize);
        &self.preds[start..end]
    }

    /// The operator of `id` with its arguments, as EXPLAIN, traces and DOT
    /// show it (`Hash-Join[R1.#2 = R2.#1]`).
    #[must_use]
    pub fn label(&self, id: NodeId) -> OpLabel<'_> {
        self[id].op.label(self.join_preds(id))
    }

    /// Every node with its id, in table order — a topological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (NodeId, &PlanNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (NodeId(i as u32), node))
    }

    /// Number of choose-plan operators in the table.
    #[must_use]
    pub fn choose_plan_count(&self) -> usize {
        self.choose_plans
    }

    /// Whether the plan contains any choose-plan operator, i.e. whether it
    /// is a *dynamic* plan (as opposed to a fully determined static plan).
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.choose_plans > 0
    }

    /// Appends a node over already-pushed `children`, with its join
    /// predicates (`&[]` for an operator that joins nothing), and returns
    /// its id. Total cost and delivered order are derived from the
    /// children's.
    ///
    /// # Panics
    /// Panics if a child id is not in the table yet.
    pub fn push(
        &mut self,
        op: PhysicalOp,
        children: &[NodeId],
        preds: &[JoinPred],
        stats: PlanStats,
        self_cost: Cost,
    ) -> NodeId {
        self.put(self.end(), op, children, preds, stats, self_cost)
    }

    /// Where the next node pushed goes.
    fn end(&self) -> Cursor {
        Cursor {
            node: self.nodes.len(),
            child: self.children.len(),
            pred: self.preds.len(),
        }
    }

    /// Writes a node at `at` — the end of the table for [`Plan::push`], a
    /// position already copied out for an in-place [`compact`] — over
    /// `children` already in the table below it.
    fn put(
        &mut self,
        at: Cursor,
        op: PhysicalOp,
        children: &[NodeId],
        preds: &[JoinPred],
        stats: PlanStats,
        self_cost: Cost,
    ) -> NodeId {
        let id = NodeId(at.node as u32);
        assert!(
            children.iter().all(|c| c.0 < id.0),
            "children are pushed before their parents"
        );
        let child = |c: &NodeId| &self.nodes[c.index()];
        let order = op.delivered_order(children.iter().map(|c| child(c).order), preds);
        let (total_cost, exec) = match op {
            PhysicalOp::ChoosePlan => {
                self.choose_plans += 1;
                let (total, exec) = children
                    .iter()
                    .map(|c| (child(c).total_cost, child(c).exec))
                    .reduce(|(t, e), (ct, ce)| (t.choose_min(ct), e.choose_min(ce)))
                    .unwrap_or_default();
                (total + self_cost, exec)
            }
            _ => children.iter().fold((self_cost, self_cost), |(t, e), c| {
                (t + child(c).total_cost, e + child(c).exec)
            }),
        };
        write_at(&mut self.children, at.child, children);
        write_at(&mut self.preds, at.pred, preds);
        let node = PlanNode {
            op,
            children: (at.child as u32, (at.child + children.len()) as u32),
            preds: at.pred as u32,
            stats,
            self_cost,
            total_cost,
            exec,
            order,
        };
        write_at(&mut self.nodes, at.node, &[node]);
        id
    }

    /// Appends a choose-plan node over `alternatives`.
    ///
    /// # Panics
    /// Panics if fewer than two alternatives are supplied.
    pub fn choose_plan(&mut self, alternatives: &[NodeId], decision_cost: Cost) -> NodeId {
        self.put_choose_plan(self.end(), alternatives, decision_cost)
    }

    /// [`Plan::choose_plan`] at `at`, as [`Plan::put`] is [`Plan::push`].
    fn put_choose_plan(&mut self, at: Cursor, alternatives: &[NodeId], decision_cost: Cost) -> NodeId {
        assert!(
            alternatives.len() >= 2,
            "choose-plan needs at least two alternatives"
        );
        // All alternatives compute the same logical result; the stream
        // statistics are the interval hull over alternatives (they can
        // differ only through estimation granularity, not semantics).
        let stats = alternatives
            .iter()
            .map(|a| self[*a].stats)
            .reduce(|a, b| PlanStats::new(a.card.hull(b.card), a.row_bytes))
            .expect("non-empty");
        self.put(at, PhysicalOp::ChoosePlan, alternatives, &[], stats, decision_cost)
    }

    /// Validates the invariants of a whole plan — arity, choose-plan
    /// fan-in ≥ 2, every node reachable from the root — in one pass over
    /// the table.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("the plan has no nodes".into());
        }
        for (id, node) in self.iter() {
            let children = self.children(id).len();
            match node.op.arity() {
                Some(arity) if children != arity => {
                    return Err(format!(
                        "{id} ({}) has {children} children, expected {arity}",
                        node.op.name()
                    ));
                }
                None if children < 2 => {
                    return Err(format!(
                        "{id} (Choose-Plan) has {children} children, expected >= 2"
                    ));
                }
                _ => {}
            }
        }
        match self.unreachable_node() {
            Some(id) => Err(format!("{id} ({}) is not reachable from the root", self[id].op.name())),
            None => Ok(()),
        }
    }

    /// The last node no parent references, other than the root. Children
    /// precede parents, so the highest unreachable node is referenced by
    /// nobody at all: none exists exactly when every node is reachable.
    pub(crate) fn unreachable_node(&self) -> Option<NodeId> {
        let mut referenced = vec![false; self.nodes.len()];
        for c in &self.children {
            referenced[c.index()] = true;
        }
        let below_root = self.nodes.len().saturating_sub(1);
        referenced[..below_root]
            .iter()
            .rposition(|r| !r)
            .map(|i| NodeId(i as u32))
    }

    /// Ends a search that used this table as its arena: keeps what hangs
    /// off `root`, in creation order, and drops every candidate a frontier
    /// built and then evicted. The survivors are compacted into the arena's
    /// own lists; a list left at least half empty is trimmed to its
    /// length. (A search that reserved its arena close to what it builds
    /// leaves nothing worth trimming: shrinking a large table in place
    /// would give back less than the next arena asks for, and glibc's
    /// dynamic mmap threshold then maps — and faults in — every large
    /// arena afresh.)
    #[must_use]
    pub fn finish(self, root: NodeId) -> Plan {
        compact(Cow::Owned(self), root, |_, _| true, keep_estimates)
    }

    /// The subplan rooted at `id` as a whole plan of its own (relative
    /// order and child order kept).
    #[must_use]
    pub fn rooted_at(&self, id: NodeId) -> Plan {
        self.compact(id, |_, _| true, keep_estimates)
    }

    /// [`compact`] over a borrowed table.
    pub(crate) fn compact(
        &self,
        root: NodeId,
        keep: impl Fn(NodeId, usize) -> bool,
        estimate: impl FnMut(NodeId, &PlanNode) -> (PlanStats, Cost),
    ) -> Plan {
        compact(Cow::Borrowed(self), root, keep, estimate)
    }
}

impl Index<NodeId> for Plan {
    type Output = PlanNode;

    fn index(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.index()]
    }
}

/// Where the next node, child id and join predicate of a table go.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    node: usize,
    child: usize,
    pred: usize,
}

/// Writes `items` into `list` from `at` on: over what is there when the
/// table is being compacted in place (a write never passes the read
/// position), as an append when `at` is the length.
fn write_at<T: Copy>(list: &mut Vec<T>, at: usize, items: &[T]) {
    if at == list.len() {
        list.extend(items.iter().copied());
    } else {
        list[at..at + items.len()].copy_from_slice(items);
    }
}

/// Gives back a list's spare capacity once it is at least half the list.
fn trim<T>(list: &mut Vec<T>) {
    if list.capacity() >= 2 * list.len() {
        list.shrink_to_fit();
    }
}

/// The children of `table`'s node `id` that [`compact`] keeps.
fn kept_children<'t>(
    table: &'t Plan,
    id: usize,
    keep: &'t impl Fn(NodeId, usize) -> bool,
) -> impl Iterator<Item = NodeId> + 't {
    let choose = table.nodes[id].is_choose_plan();
    table
        .children(NodeId(id as u32))
        .iter()
        .enumerate()
        .filter(move |(i, _)| !choose || keep(NodeId(id as u32), *i))
        .map(|(_, c)| *c)
}

/// The `estimate` of a compaction that changes no node.
pub(crate) fn keep_estimates(_: NodeId, node: &PlanNode) -> (PlanStats, Cost) {
    (node.stats, node.self_cost)
}

/// The one plan rewriter: copies what hangs off `root` in the relative
/// order it had — so creation rank survives as position, child order
/// survives as child order, and shared nodes stay shared.
///
/// `keep(choose_plan, alternative_index)` filters the alternatives under
/// each choose-plan — it must keep at least one of each; what only dropped
/// alternatives reach is dropped with them, and a choose-plan left with a
/// single alternative collapses into it (its parents link to the
/// alternative). `estimate(id, node)` supplies the output statistics and
/// own cost each kept operator is written with; total cost and delivered
/// order are derived again from the new children.
///
/// Two sweeps, no recursion: a node's children precede it, so liveness
/// flows root-to-leaves in one descending pass and new ids leaves-to-root
/// in one ascending pass. A borrowed table is copied into a new one sized
/// to what survives. An owned one is compacted into its own lists: a node
/// keeps no more child links or predicates than it had, so the write
/// position of each list never passes its read position, and what a node
/// is written over has already been read. Its lists are then cut to what
/// was written, and trimmed when at least half of one is spare.
fn compact(
    table: Cow<'_, Plan>,
    root: NodeId,
    keep: impl Fn(NodeId, usize) -> bool,
    mut estimate: impl FnMut(NodeId, &PlanNode) -> (PlanStats, Cost),
) -> Plan {
    const DEAD: u32 = u32::MAX;
    const LIVE: u32 = u32::MAX - 1;
    // New id by old id; DEAD or LIVE until the node is copied.
    let mut map = vec![DEAD; root.index() + 1];
    map[root.index()] = LIVE;
    let mut live = Cursor::default();
    for id in (0..map.len()).rev() {
        if map[id] == LIVE {
            live.node += 1;
            live.pred += table.join_preds(NodeId(id as u32)).len();
            for c in kept_children(&table, id, &keep) {
                map[c.index()] = LIVE;
                live.child += 1;
            }
        }
    }

    // The source is read from and the output written to in one table when
    // the table is owned.
    let (source, mut out) = match table {
        Cow::Borrowed(source) => (
            Some(source),
            Plan {
                nodes: Vec::with_capacity(live.node),
                children: Vec::with_capacity(live.child),
                preds: Vec::with_capacity(live.pred),
                choose_plans: 0,
            },
        ),
        Cow::Owned(table) => (None, Plan { choose_plans: 0, ..table }),
    };
    let mut at = Cursor::default();
    let (mut links, mut preds): (Vec<NodeId>, Vec<JoinPred>) = (Vec::new(), Vec::new());
    for id in 0..map.len() {
        if map[id] != LIVE {
            continue;
        }
        let table = source.unwrap_or(&out);
        let node = table.nodes[id];
        links.clear();
        links.extend(kept_children(table, id, &keep).map(|c| NodeId(map[c.index()])));
        preds.clear();
        preds.extend_from_slice(table.join_preds(NodeId(id as u32)));
        map[id] = match links.as_slice() {
            &[only] if node.is_choose_plan() => only.0,
            _ => {
                let new = if node.is_choose_plan() {
                    out.put_choose_plan(at, &links, node.self_cost)
                } else {
                    let (stats, self_cost) = estimate(NodeId(id as u32), &node);
                    out.put(at, node.op, &links, &preds, stats, self_cost)
                };
                at = Cursor {
                    node: at.node + 1,
                    child: at.child + links.len(),
                    pred: at.pred + preds.len(),
                };
                new.0
            }
        };
    }
    out.nodes.truncate(at.node);
    out.children.truncate(at.child);
    out.preds.truncate(at.pred);
    if source.is_none() {
        trim(&mut out.nodes);
        trim(&mut out.children);
        trim(&mut out.preds);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{AttrId, RelationId};
    use dqep_interval::Interval;

    fn scan(p: &mut Plan, rel: u32, cost: f64) -> NodeId {
        p.push(
            PhysicalOp::FileScan {
                relation: RelationId(rel),
            },
            &[],
            &[],
            PlanStats::new(Interval::point(100.0), 512.0),
            Cost::point(0.0, cost),
        )
    }

    fn sort(p: &mut Plan, input: NodeId, attr: u32) -> NodeId {
        p.push(
            PhysicalOp::Sort {
                attr: AttrId { relation: RelationId(0), index: attr },
            },
            &[input],
            &[],
            PlanStats::new(Interval::point(100.0), 512.0),
            Cost::point(0.1, 0.0),
        )
    }

    #[test]
    fn ids_are_positions() {
        let mut p = Plan::new();
        let a = scan(&mut p, 0, 1.0);
        let c = scan(&mut p, 1, 1.0);
        assert_eq!(a, NodeId(0));
        assert_eq!(c, NodeId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.root(), c);
    }

    #[test]
    fn total_cost_sums_children() {
        let mut p = Plan::new();
        let s1 = scan(&mut p, 0, 1.0);
        let s2 = scan(&mut p, 1, 2.0);
        let join = p.push(
            PhysicalOp::HashJoin,
            &[s1, s2],
            &[],
            PlanStats::new(Interval::point(10.0), 1024.0),
            Cost::point(0.5, 0.0),
        );
        assert_eq!(p[join].total_cost.total(), Interval::point(3.5));
        assert_eq!(p.children(join), &[s1, s2]);
        assert!(!p.is_dynamic());
        p.check_invariants().unwrap();
    }

    #[test]
    fn choose_plan_cost_is_min_plus_overhead() {
        let mut p = Plan::new();
        let cheap_sometimes = p.push(
            PhysicalOp::FileScan { relation: RelationId(0) },
            &[],
            &[],
            PlanStats::new(Interval::new(0.0, 100.0), 512.0),
            Cost::cpu_only(Interval::new(0.0, 10.0)),
        );
        let steady = p.push(
            PhysicalOp::FileScan { relation: RelationId(0) },
            &[],
            &[],
            PlanStats::new(Interval::new(0.0, 100.0), 512.0),
            Cost::cpu_only(Interval::new(1.0, 1.0)),
        );
        let cp = p.choose_plan(
            &[cheap_sometimes, steady],
            Cost::cpu_only(Interval::point(0.01)),
        );
        // Paper Section 5: [0,10] vs [1,1] + [0.01] => [0.01, 1.01].
        assert_eq!(p[cp].total_cost.total(), Interval::new(0.01, 1.01));
        // Executing the choice costs what the chosen alternative costs.
        assert_eq!(p[cp].exec.total(), Interval::new(0.0, 1.0));
        assert_eq!(p[steady].exec, p[steady].total_cost, "no choose-plan below: equal");
        assert!(p.is_dynamic());
        assert!(p.root_node().is_choose_plan());
        p.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn choose_plan_rejects_single_alternative() {
        let mut p = Plan::new();
        let s = scan(&mut p, 0, 1.0);
        let _ = p.choose_plan(&[s], Cost::ZERO);
    }

    #[test]
    fn invariant_check_catches_bad_arity() {
        let mut p = Plan::new();
        let s = scan(&mut p, 0, 1.0);
        p.push(
            PhysicalOp::HashJoin,
            &[s], &[], // needs 2
            PlanStats::new(Interval::point(1.0), 512.0),
            Cost::ZERO,
        );
        assert!(p.check_invariants().is_err());
    }

    #[test]
    fn invariant_check_catches_unreachable_nodes() {
        let mut p = Plan::new();
        let s = scan(&mut p, 0, 1.0);
        let orphan = sort(&mut p, s, 0);
        sort(&mut p, s, 1);
        let err = p.check_invariants().unwrap_err();
        assert!(err.contains(&orphan.to_string()), "{err}");
        assert!(Plan::new().check_invariants().is_err());
    }

    #[test]
    fn dynamic_detection_sees_nested_choose_plan() {
        let mut p = Plan::new();
        let s1 = scan(&mut p, 0, 1.0);
        let s2 = scan(&mut p, 1, 2.0);
        let cp = p.choose_plan(&[s1, s2], Cost::ZERO);
        p.push(
            PhysicalOp::HashJoin,
            &[cp, s2],
            &[],
            PlanStats::new(Interval::point(5.0), 1024.0),
            Cost::ZERO,
        );
        assert!(p.is_dynamic());
        assert_eq!(p.choose_plan_count(), 1);
        assert!(!p.root_node().is_choose_plan());
    }

    /// An arena with garbage between the kept nodes: a shared scan, an
    /// evicted candidate, two sorts, another evicted candidate, a
    /// choose-plan over the sorts (second one first).
    fn arena() -> (Plan, NodeId) {
        let mut p = Plan::new();
        let shared = scan(&mut p, 0, 1.0);
        scan(&mut p, 9, 9.0);
        let s1 = sort(&mut p, shared, 0);
        let s2 = sort(&mut p, shared, 1);
        sort(&mut p, s1, 2);
        let cp = p.choose_plan(&[s2, s1], Cost::point(0.01, 0.0));
        scan(&mut p, 8, 8.0);
        (p, cp)
    }

    #[test]
    fn finish_keeps_relative_order_child_order_and_sharing() {
        let (arena, cp) = arena();
        let before = arena.clone();
        let plan = arena.finish(cp);
        plan.check_invariants().unwrap();
        assert_eq!(plan.len(), 4);
        // Old ids 0, 2, 3, 5 become 0, 1, 2, 3: rank is position.
        let kept = [NodeId(0), NodeId(2), NodeId(3), cp];
        for (new, old) in kept.iter().enumerate() {
            let (new, old) = (&plan[NodeId(new as u32)], &before[*old]);
            assert_eq!((&new.op, new.stats, new.self_cost), (&old.op, old.stats, old.self_cost));
            assert_eq!(
                (new.total_cost, new.exec, new.order),
                (old.total_cost, old.exec, old.order)
            );
        }
        assert_eq!(plan.children(plan.root()), &[NodeId(2), NodeId(1)], "child order kept");
        assert_eq!(plan.children(NodeId(1)), plan.children(NodeId(2)), "the scan stays shared");
        assert_eq!(plan.clone().finish(plan.root()), plan, "a whole plan is a fixpoint");
    }

    #[test]
    fn rooted_at_makes_a_whole_plan_of_a_subtree() {
        let (arena, cp) = arena();
        let plan = arena.finish(cp);
        let alt = plan.children(plan.root())[0];
        let sub = plan.rooted_at(alt);
        sub.check_invariants().unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.root_node().op, plan[alt].op);
        assert_eq!(sub.root_node().total_cost, plan[alt].total_cost);
        assert_eq!(sub.root_node().exec, plan[alt].exec);
        assert_eq!(plan.rooted_at(plan.root()), plan);
    }

    #[test]
    fn a_choose_plan_left_with_one_alternative_collapses() {
        let (arena, cp) = arena();
        let plan = arena.finish(cp);
        let parent = {
            let mut p = plan.clone();
            let cp = p.root();
            sort(&mut p, cp, 5);
            p
        };
        let first_only = parent.compact(parent.root(), |_, i| i == 0, keep_estimates);
        first_only.check_invariants().unwrap();
        assert!(!first_only.is_dynamic());
        // scan <- sort(attr 1) <- sort(attr 5): the parent links to the
        // surviving alternative.
        assert_eq!(first_only.len(), 3);
        assert_eq!(first_only.children(first_only.root()), &[NodeId(1)]);
        assert_eq!(first_only[NodeId(1)].op, plan[NodeId(2)].op);
    }
}
