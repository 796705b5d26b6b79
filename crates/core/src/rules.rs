//! Transformation rules: join commutativity and associativity.
//!
//! Rules operate on memo expressions and insert their results back into the
//! memo with duplicate detection — the standard Volcano discipline. Join
//! commutativity plus (left) associativity, applied to a fixpoint,
//! enumerate **all bushy trees** over connected relation subsets ("the
//! transformation rules permit generation of all bushy trees, not only the
//! left-deep trees of traditional optimizers", paper Section 5).
//!
//! # The worklist
//!
//! A rule application is a pair: commutativity pairs with one expression,
//! associativity with one *(parent expression, expression of the parent's
//! left input group)*. Each pair is fired exactly once. The pending pairs
//! are not queued; they are implied by two marks on every memo expression
//! ([`LogicalMExpr`](crate::LogicalMExpr)): `commuted`, and `associated` —
//! the last expression of its left input group it has been fired against.
//! An expression is pending while `!commuted` or while its left group's
//! last expression is not `associated`; a group that gains an expression
//! late thereby re-opens exactly the (parent, new expression) pairs the
//! addition creates, and nothing else. Firing a pair twice would be a
//! no-op (results are deduplicated on insert), so skipping fired pairs
//! generates exactly the expressions an exhaustive re-application would.
//!
//! Pending pairs are drained by sweeping the memo in (group, expression)
//! order until a sweep finds none. The sweep order is part of the
//! contract, not an accident: it decides the order of expressions within a
//! group, hence the order in which the search builds candidates, hence
//! plan node ids and the order of alternatives under every choose-plan —
//! which is what breaks cost ties at start-up. A sweep costs one
//! comparison per expression; the rule work is proportional to the pairs.

use crate::context::QueryContext;
use crate::memo::{ExprId, GroupId, GroupKey, LogicalOp, Memo};

/// Explores the memo to a fixpoint: applies commutativity and
/// associativity to every join expression (including those the rules
/// generate) until no pair is pending. Returns the number of expressions
/// generated.
pub fn explore(memo: &mut Memo, ctx: &QueryContext) -> usize {
    let mut generated_total = 0;
    loop {
        let mut generated = 0;
        let mut g = 0;
        // Groups and expressions created during the sweep are visited in
        // the same sweep (the group count and each expression's successor
        // are re-read after every expression).
        while g < memo.group_count() {
            let gid = GroupId(g as u32);
            let mut at = memo.group(gid).first;
            while let Some(id) = at {
                let expr = *memo.expr(id);
                if let LogicalOp::Join { left, right } = expr.op {
                    if !expr.commuted {
                        memo.expr_mut(id).commuted = true;
                        generated += apply_commute(memo, gid, left, right);
                    }
                    // Neither rule adds to the left group while firing
                    // against it (its results cover other relation sets),
                    // so its last expression now is the mark to record.
                    let last = memo.group(left).last;
                    if expr.associated != last {
                        memo.expr_mut(id).associated = last;
                        generated +=
                            apply_associate(memo, gid, left, right, expr.associated, ctx);
                    }
                }
                at = memo.expr(id).next;
            }
            g += 1;
        }
        if generated == 0 {
            break;
        }
        generated_total += generated;
    }
    memo.finish_exploration(ctx);
    generated_total
}

/// `Join(L, R) → Join(R, L)`. With the hash-join build convention (build
/// on the left input), commutativity is also what lets the optimizer
/// consider both build sides of a hash join (paper Figure 2).
fn apply_commute(memo: &mut Memo, gid: GroupId, left: GroupId, right: GroupId) -> usize {
    usize::from(memo.add_expr(
        gid,
        LogicalOp::Join {
            left: right,
            right: left,
        },
    ))
}

/// `Join(Join(A, B), C) → Join(A, Join(B, C))` for the expressions
/// `Join(A, B)` of the left group added after `fired` (all of them when
/// `None`), creating the `Join(B, C)` group on demand. Only fires when
/// `B ⋈ C` is connected by a join predicate: cross-product intermediate
/// results cannot be optimal for the connected queries considered here
/// (joins present in the *input* expression are always admitted).
fn apply_associate(
    memo: &mut Memo,
    gid: GroupId,
    left: GroupId,
    right: GroupId,
    fired: Option<ExprId>,
    ctx: &QueryContext,
) -> usize {
    let mut generated = 0;
    let right_rels = memo.group(right).key.rels();
    let joinable = ctx.neighbors(right_rels);
    // The left group does not grow while this runs, so its chain can be
    // followed past the insertions into other groups.
    let mut at = memo.successor(left, fired);
    while let Some(id) = at {
        let expr = *memo.expr(id);
        at = expr.next;
        let LogicalOp::Join { left: a, right: b } = expr.op else {
            continue;
        };
        let b_rels = memo.group(b).key.rels();
        if joinable.is_disjoint(b_rels) {
            continue;
        }
        let bc = memo.group_for(GroupKey::Join(b_rels.union(right_rels)));
        if memo.add_expr(bc, LogicalOp::Join { left: b, right }) {
            generated += 1;
        }
        if memo.add_expr(gid, LogicalOp::Join { left: a, right: bc }) {
            generated += 1;
        }
    }
    generated
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{JoinPred, LogicalExpr, RelSet};
    use dqep_catalog::{Catalog, CatalogBuilder, RelationId, SystemConfig};

    /// Builds an n-relation chain query catalog + context + seeded memo,
    /// returning the root group.
    fn chain(n: usize) -> (Catalog, QueryContext, Memo, GroupId) {
        let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
        for i in 0..n {
            let name = format!("r{i}");
            builder = builder.relation(&name, 100, 512, |r| r.attr("a", 100.0).attr("j", 50.0));
        }
        let cat = builder.build().unwrap();
        let ids: Vec<RelationId> = cat.relations().iter().map(|r| r.id).collect();
        let attr = |i: usize, name: &str| cat.relations()[i].attr_id(name).unwrap();
        let mut q = LogicalExpr::get(ids[0]);
        for (i, &id) in ids.iter().enumerate().skip(1) {
            q = q.join(
                LogicalExpr::get(id),
                vec![JoinPred::new(attr(i - 1, "j"), attr(i, "j"))],
            );
        }
        let ctx = QueryContext::build(&q, &cat).unwrap();

        // Seed the memo the way the search driver does: leaf groups plus
        // the left-deep spine of the input expression.
        let mut memo = Memo::new();
        let mut leaf_groups = Vec::new();
        for &r in &ids {
            let g = memo.group_for(GroupKey::Get(r));
            memo.add_expr(g, LogicalOp::Get(r));
            leaf_groups.push(g);
        }
        let mut current = leaf_groups[0];
        let mut current_rels = RelSet::singleton(ids[0]);
        for (i, &leaf) in leaf_groups.iter().enumerate().skip(1) {
            current_rels = current_rels.union(RelSet::singleton(ids[i]));
            let g = memo.group_for(GroupKey::Join(current_rels));
            memo.add_expr(
                g,
                LogicalOp::Join {
                    left: current,
                    right: leaf,
                },
            );
            current = g;
        }
        (cat, ctx, memo, current)
    }

    #[test]
    fn chain_exploration_counts_all_bushy_trees() {
        // Known counts of bushy no-cross-product join trees for chain
        // queries, commuted variants included: 2^(n-1) · Catalan(n-1):
        // n=2 → 2, n=3 → 8, n=4 → 40.
        for (n, expected) in [(2usize, 2.0f64), (3, 8.0), (4, 40.0)] {
            let (_cat, ctx, mut memo, root) = chain(n);
            explore(&mut memo, &ctx);
            assert_eq!(
                memo.logical_tree_count(root),
                expected,
                "chain of {n} relations"
            );
        }
    }

    #[test]
    fn ten_way_chain_explores_quickly_via_sharing() {
        // 2^9 · Catalan(9) = 512 · 4862 = 2,489,344 logical trees, held in
        // a memo of ~55 join groups — the sharing argument of Section 3.
        let (_cat, ctx, mut memo, root) = chain(10);
        explore(&mut memo, &ctx);
        assert_eq!(memo.logical_tree_count(root), 2_489_344.0);
        // Join groups = contiguous ranges of length >= 2: 9+8+...+1 = 45,
        // plus 10 Get leaves.
        assert_eq!(memo.group_count(), 55);
    }

    #[test]
    fn exploration_is_idempotent() {
        let (_cat, ctx, mut memo, root) = chain(3);
        explore(&mut memo, &ctx);
        let exprs = memo.expr_count();
        let trees = memo.logical_tree_count(root);
        let more = explore(&mut memo, &ctx);
        assert_eq!(more, 0, "fixpoint reached");
        assert_eq!(memo.expr_count(), exprs);
        assert_eq!(memo.logical_tree_count(root), trees);
    }

    #[test]
    fn no_cross_product_groups_for_chains() {
        let (_cat, ctx, mut memo, _root) = chain(4);
        explore(&mut memo, &ctx);
        // Every join group must cover a contiguous range of the chain:
        // non-contiguous sets would require a cross product.
        for i in 0..memo.group_count() {
            let key = memo.group(GroupId(i as u32)).key;
            if let GroupKey::Join(rels) = key {
                let ids: Vec<u32> = rels.iter().map(|r| r.0).collect();
                for w in ids.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "group {key:?} is not contiguous");
                }
            }
        }
    }

    #[test]
    fn commute_doubles_two_way_join() {
        let (_cat, ctx, mut memo, root) = chain(2);
        assert_eq!(memo.exprs(root).count(), 1);
        explore(&mut memo, &ctx);
        assert_eq!(memo.exprs(root).count(), 2, "original + commuted");
    }

    #[test]
    fn all_partitions_present_in_root_group() {
        // For a 4-chain r0-r1-r2-r3, the root group must contain every
        // (connected L, connected R) partition: {r0}{r1r2r3}, {r0r1}{r2r3},
        // {r0r1r2}{r3} and their commuted forms: 6 expressions.
        let (_cat, ctx, mut memo, root) = chain(4);
        explore(&mut memo, &ctx);
        let joins = memo
            .exprs(root)
            .filter(|e| matches!(e.op, LogicalOp::Join { .. }))
            .count();
        assert_eq!(joins, 6);
    }
}
