//! A join expression's predicates are the join graph's.
//!
//! When exploration ends, every join expression of the memo carries its
//! join predicates as a slice, and the search reads that slice where it
//! once filtered the query's join graph per candidate. Over random
//! connected join graphs — chains, stars and cycles of 2 to 6 relations,
//! one or two predicates per edge, each written in either orientation —
//! the slice must be what `QueryContext::preds_between` yields for the
//! expression's inputs: the same predicates, in the same order, oriented
//! the same way.

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::{GroupId, LogicalOp, Optimizer, QueryContext};
use dqep_cost::Environment;
use proptest::prelude::*;

const ATTRS: [&str; 3] = [JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR, SELECTION_ATTR];

/// The edges of a join graph over `n` relations, each `(earlier, later)`.
fn edges(shape: usize, n: usize) -> Vec<(usize, usize)> {
    match shape {
        // Chain: R1 - R2 - … - Rn.
        0 => (1..n).map(|i| (i - 1, i)).collect(),
        // Star: R1 joined to every other relation.
        1 => (1..n).map(|i| (0, i)).collect(),
        // Cycle: the chain closed by an edge from Rn back to R1.
        _ => {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            if n > 2 {
                edges.push((0, n - 1));
            }
            edges
        }
    }
}

/// `R1 ⋈ … ⋈ Rn` joined left-deep in relation order, each relation on the
/// predicates of its edges to the relations before it. `choices` supplies,
/// per edge, whether it has a second predicate, which attributes each side
/// uses and which side is written left.
fn query(catalog: &Catalog, shape: usize, choices: &[(bool, usize, usize, bool)]) -> LogicalExpr {
    let rels = catalog.relations();
    let n = rels.len();
    let attr = |i: usize, a: usize| rels[i].attr_id(ATTRS[a % ATTRS.len()]).unwrap();
    // A relation is selected as the flag of its slot says (`choices` has
    // more slots than there are relations).
    let leaf = |i: usize| {
        let get = LogicalExpr::get(rels[i].id);
        if choices[i].3 {
            get.select(SelectPred::unbound(
                attr(i, 2),
                CompareOp::Lt,
                HostVar(i as u32),
            ))
        } else {
            get
        }
    };
    let graph = edges(shape, n);
    let mut slots = choices.iter().cycle();
    let mut query = leaf(0);
    for later in 1..n {
        let mut preds = Vec::new();
        for &(earlier, _) in graph.iter().filter(|(_, l)| *l == later) {
            let (second, a, b, flip) = *slots.next().unwrap();
            for k in 0..1 + usize::from(second) {
                let (x, y) = (attr(earlier, a + k), attr(later, b + 2 * k));
                preds.push(if flip ^ (k == 1) {
                    JoinPred::new(y, x)
                } else {
                    JoinPred::new(x, y)
                });
            }
        }
        query = query.join(leaf(later), preds);
    }
    query
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_join_expression_carries_preds_between_its_inputs(
        (shape, n, seed) in (0usize..3, 2usize..=6, 0u64..1_000),
        choices in proptest::collection::vec(
            (any::<bool>(), 0usize..3, 0usize..3, any::<bool>()),
            8,
        ),
    ) {
        let cat = make_chain_catalog(&SyntheticSpec::paper(n, seed), SystemConfig::paper_1994());
        let query = query(&cat, shape, &choices);
        let env = Environment::dynamic_compile_time(&cat.config);
        let (memo, _) = Optimizer::new(&cat, &env).explore(&query).unwrap();
        let ctx = QueryContext::build(&query, &cat).unwrap();

        let mut joins = 0;
        for g in 0..memo.group_count() {
            for expr in memo.exprs(GroupId(g as u32)) {
                let stored = memo.join_preds(expr);
                let LogicalOp::Join { left, right } = expr.op else {
                    prop_assert!(stored.is_empty(), "{:?} carries {stored:?}", expr.op);
                    continue;
                };
                joins += 1;
                let (l, r) = (memo.group(left).key.rels(), memo.group(right).key.rels());
                let between: Vec<JoinPred> = ctx.preds_between(l, r).collect();
                prop_assert_eq!(stored, &between[..], "g{} {:?}", g, expr.op);
                // Connected graph, no cross products: every join has one.
                prop_assert!(!stored.is_empty());
                for p in stored {
                    prop_assert!(l.contains(p.left.relation) && r.contains(p.right.relation));
                }
            }
        }
        prop_assert!(joins >= 2 * (n - 1), "{joins} join expressions for {n} relations");
    }
}
