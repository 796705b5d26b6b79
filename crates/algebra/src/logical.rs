//! The logical algebra: Get-Set, Select, Join.

use std::fmt;

use dqep_catalog::{Catalog, RelationId};

use crate::predicate::{JoinPred, SelectPred};
use crate::properties::RelSet;

/// An operator of a [`LogicalExpr`]: its position in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalId(pub u32);

impl LogicalId {
    /// The id as a table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One operator of a [`LogicalExpr`]. Its inputs are earlier positions of
/// the same table; a join's predicates are a range of the expression's
/// predicate list ([`LogicalExpr::join_preds`]), so an operator owns no
/// heap memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LogicalNode {
    /// Retrieve all records of a stored relation.
    Get {
        /// The relation to read.
        relation: RelationId,
    },
    /// Restrict the input by a predicate.
    Select {
        /// Input expression.
        input: LogicalId,
        /// The (possibly unbound) predicate.
        predicate: SelectPred,
    },
    /// Join two inputs on zero or more equi-join predicates (which must
    /// span the two inputs).
    Join {
        /// Left input.
        left: LogicalId,
        /// Right input.
        right: LogicalId,
    },
}

/// A node and where its join predicates start in the predicate list; they
/// end where the next node's start.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    node: LogicalNode,
    preds: u32,
}

/// A logical algebra expression — the optimizer's input.
///
/// Mirrors the paper's logical algebra (Table 1): `Get-Set` retrieves a
/// stored relation, `Select` applies a predicate, `Join` is a binary
/// equi-join. Projections are implicit (every operator passes all columns
/// through); the paper's experiments likewise use selections and joins
/// only.
///
/// The expression is one table, as a plan (`dqep_plan::Plan`) is:
/// operators in children-before-parents order — a left input's whole
/// subtree before the right input's — the root last, a [`LogicalId`] *is*
/// a position. Two lists hold it all, the operators and the join
/// predicates, the latter appended join by join as the joins are pushed.
/// So an expression is two blocks to build and two to free at any size.
/// In a *whole* expression — what the constructors ([`LogicalExpr::get`],
/// [`LogicalExpr::select`], [`LogicalExpr::join`]) produce and
/// [`LogicalExpr::validate`] accepts — every operator is the input of
/// exactly one later operator, except the root.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalExpr {
    nodes: Vec<Entry>,
    preds: Vec<JoinPred>,
}

/// Validation errors for logical expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalError {
    /// A referenced relation id is not in the catalog.
    UnknownRelation(RelationId),
    /// A predicate references an attribute of a relation not available at
    /// that point in the expression.
    AttributeOutOfScope(String),
    /// The same base relation appears twice (self-joins need aliasing,
    /// which the prototype — like the paper's — does not model).
    DuplicateRelation(RelationId),
    /// A join predicate does not span the two join inputs.
    PredicateDoesNotSpan(String),
    /// The table holds operators the root does not reach (or none at all).
    Unreachable {
        /// Operators in the table.
        operators: usize,
        /// Operators reached from the root.
        reached: usize,
    },
}

impl fmt::Display for LogicalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            LogicalError::AttributeOutOfScope(s) => write!(f, "attribute out of scope: {s}"),
            LogicalError::DuplicateRelation(r) => write!(f, "relation {r} appears twice"),
            LogicalError::PredicateDoesNotSpan(s) => {
                write!(f, "join predicate does not span inputs: {s}")
            }
            LogicalError::Unreachable { operators, reached } => {
                write!(f, "the root reaches {reached} of {operators} operators")
            }
        }
    }
}

impl std::error::Error for LogicalError {}

impl LogicalExpr {
    /// An empty table with room for `nodes` operators and `preds` join
    /// predicates, to [`push`](LogicalExpr::push) an expression into.
    #[must_use]
    pub fn with_capacity(nodes: usize, preds: usize) -> LogicalExpr {
        LogicalExpr {
            nodes: Vec::with_capacity(nodes),
            preds: Vec::with_capacity(preds),
        }
    }

    /// Appends an operator over inputs already in the table, with its join
    /// predicates (none for a `Get` or a `Select`), and returns its id.
    /// Push a left input's subtree, then the right input's, then the join,
    /// as the constructors do.
    ///
    /// # Panics
    /// Panics if an input is not in the table yet, or if an operator other
    /// than a join is given predicates.
    pub fn push(
        &mut self,
        node: LogicalNode,
        preds: impl IntoIterator<Item = JoinPred>,
    ) -> LogicalId {
        let id = LogicalId(self.nodes.len() as u32);
        let start = self.preds.len();
        self.preds.extend(preds);
        match node {
            LogicalNode::Get { .. } => {}
            LogicalNode::Select { input, .. } => assert!(input < id, "input {input:?} not pushed"),
            LogicalNode::Join { left, right } => {
                assert!(left < id && right < id, "inputs {left:?}, {right:?} not pushed");
            }
        }
        assert!(
            matches!(node, LogicalNode::Join { .. }) || self.preds.len() == start,
            "only a join has predicates"
        );
        self.nodes.push(Entry { node, preds: start as u32 });
        id
    }

    /// Convenience constructor for `Get`.
    #[must_use]
    pub fn get(relation: RelationId) -> LogicalExpr {
        let mut e = LogicalExpr::with_capacity(1, 0);
        e.push(LogicalNode::Get { relation }, []);
        e
    }

    /// Convenience constructor wrapping `self` in a `Select`.
    #[must_use]
    pub fn select(mut self, predicate: SelectPred) -> LogicalExpr {
        let input = self.root();
        self.push(LogicalNode::Select { input, predicate }, []);
        self
    }

    /// Convenience constructor joining `self` with `right`: `right`'s table
    /// is appended to this one's, then the join.
    #[must_use]
    pub fn join(mut self, right: LogicalExpr, predicates: Vec<JoinPred>) -> LogicalExpr {
        let left = self.root();
        let (shift, pred_shift) = (self.nodes.len() as u32, self.preds.len() as u32);
        let moved = |id: LogicalId| LogicalId(id.0 + shift);
        self.nodes.extend(right.nodes.iter().map(|e| Entry {
            node: match e.node {
                get @ LogicalNode::Get { .. } => get,
                LogicalNode::Select { input, predicate } => LogicalNode::Select {
                    input: moved(input),
                    predicate,
                },
                LogicalNode::Join { left, right } => LogicalNode::Join {
                    left: moved(left),
                    right: moved(right),
                },
            },
            preds: e.preds + pred_shift,
        }));
        self.preds.extend_from_slice(&right.preds);
        let right = self.root();
        self.push(LogicalNode::Join { left, right }, predicates);
        self
    }

    /// The root: the last operator.
    ///
    /// # Panics
    /// Panics on an empty table.
    #[must_use]
    pub fn root(&self) -> LogicalId {
        assert!(!self.nodes.is_empty(), "an empty expression has no root");
        LogicalId(self.nodes.len() as u32 - 1)
    }

    /// The operator at `id`.
    #[must_use]
    pub fn node(&self, id: LogicalId) -> LogicalNode {
        self.nodes[id.index()].node
    }

    /// The join predicates of `id`, in the order it was pushed with —
    /// empty for an operator that joins nothing.
    #[must_use]
    pub fn join_preds(&self, id: LogicalId) -> &[JoinPred] {
        let start = self.nodes[id.index()].preds as usize;
        let end = self
            .nodes
            .get(id.index() + 1)
            .map_or(self.preds.len(), |next| next.preds as usize);
        &self.preds[start..end]
    }

    /// Every operator with its id, in table order: children before
    /// parents, a left subtree before the right one.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (LogicalId, LogicalNode)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, e)| (LogicalId(i as u32), e.node))
    }

    /// The set of base relations referenced.
    #[must_use]
    pub fn relations(&self) -> RelSet {
        self.iter().fold(RelSet::EMPTY, |set, (_, node)| match node {
            LogicalNode::Get { relation } => set.union(RelSet::singleton(relation)),
            _ => set,
        })
    }

    /// All selection predicates, in depth-first order (an operator before
    /// its inputs, a left input before the right).
    #[must_use]
    pub fn select_predicates(&self) -> Vec<SelectPred> {
        let mut out = Vec::new();
        self.walk(&mut |id| {
            if let LogicalNode::Select { predicate, .. } = self.node(id) {
                out.push(predicate);
            }
        });
        out
    }

    /// All join predicates, in depth-first order.
    #[must_use]
    pub fn join_predicates(&self) -> Vec<JoinPred> {
        let mut out = Vec::with_capacity(self.preds.len());
        self.walk(&mut |id| out.extend_from_slice(self.join_preds(id)));
        out
    }

    /// Number of operators in the expression.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table holds no operator.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Calls `f` on every operator the root reaches, depth first.
    fn walk(&self, f: &mut impl FnMut(LogicalId)) {
        fn visit(e: &LogicalExpr, id: LogicalId, f: &mut impl FnMut(LogicalId)) {
            f(id);
            match e.node(id) {
                LogicalNode::Get { .. } => {}
                LogicalNode::Select { input, .. } => visit(e, input, f),
                LogicalNode::Join { left, right } => {
                    visit(e, left, f);
                    visit(e, right, f);
                }
            }
        }
        if !self.is_empty() {
            visit(self, self.root(), f);
        }
    }

    /// Validates the expression against a catalog: the root reaches every
    /// operator, all relations exist, no base relation occurs twice, every
    /// predicate is in scope, and join predicates span their join's
    /// inputs.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), LogicalError> {
        let unreachable = |reached| LogicalError::Unreachable {
            operators: self.len(),
            reached,
        };
        if self.is_empty() {
            return Err(unreachable(0));
        }
        let mut seen = RelSet::EMPTY;
        let mut reached = 0;
        self.scope(self.root(), catalog, &mut seen, &mut reached)?;
        if reached != self.len() {
            return Err(unreachable(reached));
        }
        Ok(())
    }

    /// The relations under `id`, validated; `seen` collects every relation
    /// met so far and `reached` counts the operators visited.
    fn scope(
        &self,
        id: LogicalId,
        catalog: &Catalog,
        seen: &mut RelSet,
        reached: &mut usize,
    ) -> Result<RelSet, LogicalError> {
        *reached += 1;
        match self.node(id) {
            LogicalNode::Get { relation } => {
                if relation.0 as usize >= catalog.relations().len() {
                    return Err(LogicalError::UnknownRelation(relation));
                }
                if seen.contains(relation) {
                    return Err(LogicalError::DuplicateRelation(relation));
                }
                *seen = seen.union(RelSet::singleton(relation));
                Ok(RelSet::singleton(relation))
            }
            LogicalNode::Select { input, predicate } => {
                let scope = self.scope(input, catalog, seen, reached)?;
                if !scope.contains(predicate.attr.relation) {
                    return Err(LogicalError::AttributeOutOfScope(predicate.to_string()));
                }
                let rel = catalog.relation(predicate.attr.relation);
                if predicate.attr.index as usize >= rel.attributes.len() {
                    return Err(LogicalError::AttributeOutOfScope(predicate.to_string()));
                }
                Ok(scope)
            }
            LogicalNode::Join { left, right } => {
                let ls = self.scope(left, catalog, seen, reached)?;
                let rs = self.scope(right, catalog, seen, reached)?;
                for p in self.join_preds(id) {
                    let spans = (ls.contains(p.left.relation) && rs.contains(p.right.relation))
                        || (rs.contains(p.left.relation) && ls.contains(p.right.relation));
                    if !spans {
                        return Err(LogicalError::PredicateDoesNotSpan(p.to_string()));
                    }
                }
                Ok(ls.union(rs))
            }
        }
    }

    fn fmt_node(&self, id: LogicalId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node(id) {
            LogicalNode::Get { relation } => write!(f, "Get({relation})"),
            LogicalNode::Select { input, predicate } => {
                write!(f, "Select[{predicate}](")?;
                self.fmt_node(input, f)?;
                write!(f, ")")
            }
            LogicalNode::Join { left, right } => {
                write!(f, "Join[")?;
                for (i, p) in self.join_preds(id).iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "](")?;
                self.fmt_node(left, f)?;
                write!(f, ", ")?;
                self.fmt_node(right, f)?;
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for LogicalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return Ok(());
        }
        self.fmt_node(self.root(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CompareOp, HostVar};
    use dqep_catalog::{AttrId, CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 100, 512, |r| r.attr("a", 100.0).attr("j", 50.0))
            .relation("s", 200, 512, |r| r.attr("a", 200.0).attr("j", 80.0))
            .build()
            .unwrap()
    }

    fn attr(cat: &Catalog, rel: &str, name: &str) -> AttrId {
        cat.relation_by_name(rel).unwrap().attr_id(name).unwrap()
    }

    fn two_way(cat: &Catalog) -> LogicalExpr {
        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        let sel_r = SelectPred::unbound(attr(cat, "r", "a"), CompareOp::Lt, HostVar(0));
        let sel_s = SelectPred::unbound(attr(cat, "s", "a"), CompareOp::Lt, HostVar(1));
        LogicalExpr::get(r)
            .select(sel_r)
            .join(
                LogicalExpr::get(s).select(sel_s),
                vec![JoinPred::new(attr(cat, "r", "j"), attr(cat, "s", "j"))],
            )
    }

    #[test]
    fn relations_and_predicates() {
        let cat = catalog();
        let q = two_way(&cat);
        assert_eq!(q.relations().len(), 2);
        assert_eq!(q.select_predicates().len(), 2);
        assert_eq!(q.join_predicates().len(), 1);
        assert_eq!(q.len(), 5); // join + 2 selects + 2 gets
    }

    #[test]
    fn validate_accepts_well_formed() {
        let cat = catalog();
        two_way(&cat).validate(&cat).unwrap();
    }

    #[test]
    fn validate_rejects_unknown_relation() {
        let cat = catalog();
        let q = LogicalExpr::get(RelationId(9));
        assert_eq!(
            q.validate(&cat).unwrap_err(),
            LogicalError::UnknownRelation(RelationId(9))
        );
    }

    #[test]
    fn validate_rejects_duplicate_relation() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let q = LogicalExpr::get(r).join(
            LogicalExpr::get(r),
            vec![],
        );
        assert_eq!(q.validate(&cat).unwrap_err(), LogicalError::DuplicateRelation(r));
    }

    #[test]
    fn validate_rejects_out_of_scope_predicate() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        // Select on s.a over a scan of r.
        let bad = SelectPred::bound(attr(&cat, "s", "a"), CompareOp::Eq, 1);
        let q = LogicalExpr::get(r).select(bad);
        assert!(matches!(
            q.validate(&cat).unwrap_err(),
            LogicalError::AttributeOutOfScope(_)
        ));
    }

    #[test]
    fn validate_rejects_non_spanning_join_pred() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        // Predicate relating r to a third relation that is not an input.
        let foreign = AttrId {
            relation: RelationId(7),
            index: 0,
        };
        let q = LogicalExpr::get(r).join(
            LogicalExpr::get(s),
            vec![JoinPred::new(attr(&cat, "r", "j"), foreign)],
        );
        assert!(matches!(
            q.validate(&cat).unwrap_err(),
            LogicalError::PredicateDoesNotSpan(_)
        ));
    }

    #[test]
    fn display_round_trips_structure() {
        let cat = catalog();
        let text = two_way(&cat).to_string();
        assert!(text.starts_with("Join["));
        assert!(text.contains("Select["));
        assert!(text.contains("Get(R0)"));
    }

    #[test]
    fn constructors_lay_the_table_out_children_first_root_last() {
        let cat = catalog();
        let q = two_way(&cat);
        let kinds: Vec<&str> = q
            .iter()
            .map(|(_, n)| match n {
                LogicalNode::Get { .. } => "get",
                LogicalNode::Select { .. } => "select",
                LogicalNode::Join { .. } => "join",
            })
            .collect();
        assert_eq!(kinds, ["get", "select", "get", "select", "join"]);
        assert_eq!(
            q.node(q.root()),
            LogicalNode::Join {
                left: LogicalId(1),
                right: LogicalId(3)
            }
        );
        assert_eq!(q.join_preds(q.root()).len(), 1);
        assert!(q.join_preds(LogicalId(1)).is_empty());

        // Pushing the same operators in the same order builds the same
        // table.
        let mut pushed = LogicalExpr::with_capacity(5, 1);
        for (id, node) in q.iter() {
            assert_eq!(pushed.push(node, q.join_preds(id).iter().copied()), id);
        }
        assert_eq!(pushed, q);
    }

    #[test]
    fn walks_are_depth_first_from_the_root() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        let p = |v| SelectPred::bound(attr(&cat, "r", "a"), CompareOp::Lt, v);
        let j1 = JoinPred::new(attr(&cat, "r", "j"), attr(&cat, "s", "j"));
        let j2 = JoinPred::new(attr(&cat, "r", "a"), attr(&cat, "s", "a"));
        // The outer selection and the outer join's predicates come first,
        // although the table holds them last.
        let q = LogicalExpr::get(r)
            .select(p(1))
            .join(LogicalExpr::get(s), vec![j1, j2])
            .select(p(2));
        assert_eq!(q.select_predicates(), vec![p(2), p(1)]);
        assert_eq!(q.join_predicates(), vec![j1, j2]);
        assert_eq!(q.to_string(), format!("Select[{}](Join[{j1} and {j2}](Select[{}](Get(R0)), Get(R1)))", p(2), p(1)));
        q.validate(&cat).unwrap();
    }

    #[test]
    fn validate_rejects_empty_and_unreached_operators() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let s = cat.relation_by_name("s").unwrap().id;
        let empty = LogicalExpr::with_capacity(0, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.relations(), RelSet::EMPTY);
        assert_eq!(
            empty.validate(&cat).unwrap_err(),
            LogicalError::Unreachable { operators: 0, reached: 0 }
        );
        let mut detached = LogicalExpr::with_capacity(2, 0);
        detached.push(LogicalNode::Get { relation: r }, []);
        detached.push(LogicalNode::Get { relation: s }, []);
        assert_eq!(
            detached.validate(&cat).unwrap_err(),
            LogicalError::Unreachable { operators: 2, reached: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "only a join has predicates")]
    fn only_a_join_takes_predicates() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap().id;
        let mut e = LogicalExpr::with_capacity(1, 1);
        e.push(
            LogicalNode::Get { relation: r },
            [JoinPred::new(attr(&cat, "r", "j"), attr(&cat, "s", "j"))],
        );
    }
}
