//! Golden values of the search: what the optimizer explores, considers,
//! prunes and builds for a fixed set of statements.
//!
//! The values were recorded at the commit *before* the dense-table /
//! worklist rewrite of `search.rs`, `memo.rs` and `rules.rs` and must not
//! change: the rewrite does the same work on different data structures.
//! The DAG fingerprint covers node creation order and child order, so the
//! order in which candidates are built and the order of alternatives under
//! every choose-plan (which decides ties at start-up) are pinned too.
//!
//! A chain joins each pair of relations on one predicate, so the order and
//! orientation of a join's predicates cannot show in it. The join-graph
//! rows (star, 4-cycle, two predicates between one pair) were recorded at
//! the commit before the memo's join expressions began to carry their
//! predicates, and add a fingerprint of every node's predicate list.

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysProps, SelectPred};
use dqep_catalog::{
    make_chain_catalog, Catalog, SyntheticSpec, SystemConfig, JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR,
    SELECTION_ATTR,
};
use dqep_core::{OptimizeResult, Optimizer};
use dqep_cost::Environment;
use dqep_plan::{NodeId, Plan};

fn catalog() -> Catalog {
    make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994())
}

/// `σ(R1) ⋈ … ⋈ σ(Rk)` over the first `k` relations, one host-variable
/// selection per relation; `literal` adds a second, bound selection on R1
/// the way the benchmark's ad-hoc texts do.
fn chain(catalog: &Catalog, k: usize, literal: Option<i64>) -> LogicalExpr {
    let rels = catalog.relations();
    let selected = |i: usize| {
        let attr = rels[i].attr_id(SELECTION_ATTR).unwrap();
        LogicalExpr::get(rels[i].id).select(SelectPred::unbound(
            attr,
            CompareOp::Lt,
            HostVar(i as u32),
        ))
    };
    let mut query = selected(0);
    if let Some(v) = literal {
        let attr = rels[0].attr_id(SELECTION_ATTR).unwrap();
        query = query.select(SelectPred::bound(attr, CompareOp::Gt, v));
    }
    for i in 1..k {
        let left = rels[i - 1].attr_id(JOIN_RIGHT_ATTR).unwrap();
        let right = rels[i].attr_id(JOIN_LEFT_ATTR).unwrap();
        query = query.join(selected(i), vec![JoinPred::new(left, right)]);
    }
    query
}

/// One predicate of a join graph: `R{a+1}.x = R{b+1}.y` as `(a, x, b, y)`.
type Edge = (usize, &'static str, usize, &'static str);

/// `σ(R1) ⋈ σ(R2) ⋈ …`, one host-variable selection per relation, where
/// `joins[i]` holds the predicates joining `R{i+2}` to the relations before
/// it — each written in the orientation given, so a graph can join a
/// relation on either side of a predicate.
fn graph(catalog: &Catalog, joins: &[&[Edge]]) -> LogicalExpr {
    let rels = catalog.relations();
    let selected = |i: usize| {
        let attr = rels[i].attr_id(SELECTION_ATTR).unwrap();
        LogicalExpr::get(rels[i].id).select(SelectPred::unbound(
            attr,
            CompareOp::Lt,
            HostVar(i as u32),
        ))
    };
    let attr = |i: usize, name: &str| rels[i].attr_id(name).unwrap();
    joins.iter().enumerate().fold(selected(0), |query, (i, edges)| {
        let preds = edges
            .iter()
            .map(|&(a, x, b, y)| JoinPred::new(attr(a, x), attr(b, y)))
            .collect();
        query.join(selected(i + 1), preds)
    })
}

/// A hub joined to four spokes, the hub on either side of a predicate.
const STAR: &[&[Edge]] = &[
    &[(0, JOIN_RIGHT_ATTR, 1, JOIN_LEFT_ATTR)],
    &[(2, JOIN_RIGHT_ATTR, 0, JOIN_LEFT_ATTR)],
    &[(0, JOIN_LEFT_ATTR, 3, JOIN_LEFT_ATTR)],
    &[(4, JOIN_RIGHT_ATTR, 0, JOIN_RIGHT_ATTR)],
];

/// R1 - R2 - R3 - R4 - R1: the last join closes the cycle on two predicates.
const CYCLE: &[&[Edge]] = &[
    &[(0, JOIN_RIGHT_ATTR, 1, JOIN_LEFT_ATTR)],
    &[(1, JOIN_RIGHT_ATTR, 2, JOIN_LEFT_ATTR)],
    &[
        (2, JOIN_RIGHT_ATTR, 3, JOIN_LEFT_ATTR),
        (3, JOIN_RIGHT_ATTR, 0, JOIN_LEFT_ATTR),
    ],
];

/// Two predicates between R1 and R2, then R3 on one.
const PAIR: &[&[Edge]] = &[
    &[
        (0, JOIN_RIGHT_ATTR, 1, JOIN_LEFT_ATTR),
        (0, JOIN_LEFT_ATTR, 1, JOIN_RIGHT_ATTR),
    ],
    &[(1, JOIN_RIGHT_ATTR, 2, JOIN_LEFT_ATTR)],
];

/// FNV-1a over every node's join predicates, in table order and in the
/// order and orientation the node lists them — what the DAG fingerprint,
/// which reads operator names only, cannot see.
fn preds_fingerprint(plan: &Plan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, _) in plan.iter() {
        for p in plan.join_preds(id) {
            for a in [p.left, p.right] {
                for b in [a.relation.0, a.index] {
                    for byte in b.to_le_bytes() {
                        h ^= u64::from(byte);
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the depth-first post-order (each node once, at its first
/// visit) of `(rank, op name, child ranks)`, a node's rank being its
/// creation rank among the nodes of the plan — which is its position in
/// the table: the search appends nodes as it builds them and the final
/// compaction keeps their relative order. The rank keeps what matters, the
/// relative creation order of the nodes that survive (it orders the
/// alternatives under a choose-plan).
fn fingerprint(plan: &Plan) -> u64 {
    fn post_order(plan: &Plan, id: NodeId, seen: &mut [bool], out: &mut Vec<NodeId>) {
        if std::mem::replace(&mut seen[id.index()], true) {
            return;
        }
        for c in plan.children(id) {
            post_order(plan, *c, seen, out);
        }
        out.push(id);
    }
    let mut order = Vec::with_capacity(plan.len());
    post_order(plan, plan.root(), &mut vec![false; plan.len()], &mut order);
    assert_eq!(order.len(), plan.len(), "every node hangs off the root");

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in order {
        eat(&u64::from(id.0).to_le_bytes());
        eat(plan[id].op.name().as_bytes());
        eat(&(plan.children(id).len() as u64).to_le_bytes());
        for c in plan.children(id) {
            eat(&u64::from(c.0).to_le_bytes());
        }
    }
    h
}

/// Everything pinned about one run, in one comparable line. `trees` is the
/// number of logical trees the explored memo represents, counted here: the
/// optimizer does not count them on its own path.
fn summary(r: &OptimizeResult, trees: f64) -> String {
    let s = &r.stats;
    let total = r.plan.root_node().total_cost.total();
    format!(
        "groups={} exprs={} trees={} considered={} pruned={} nodes={} choose={} contained={} \
         frontier={} max_frontier={} cost=[{:016x},{:016x}] dag={:016x}",
        s.groups,
        s.logical_exprs,
        trees,
        s.physical_considered,
        s.pruned_by_bound,
        s.plan_nodes,
        s.choose_plans,
        s.contained_plans,
        s.frontier_plans,
        s.max_frontier,
        total.lo().to_bits(),
        total.hi().to_bits(),
        fingerprint(&r.plan),
    )
}

/// The logical trees the optimizer's memo for `query` represents.
fn trees(env: &Environment, cat: &Catalog, query: &LogicalExpr) -> f64 {
    let (memo, root) = Optimizer::new(cat, env).explore(query).unwrap();
    memo.logical_tree_count(root)
}

fn run(env: &Environment, cat: &Catalog, query: &LogicalExpr, props: PhysProps) -> String {
    let result = Optimizer::new(cat, env)
        .optimize_with_props(query, props)
        .unwrap();
    // Linear in the table: the 1 123-node `dynamic k=10` plan is
    // 1.7 × 10¹⁰ nodes as a tree (the 309-node `k=6` plan 1.1 M).
    result.plan.check_invariants().unwrap();
    summary(&result, trees(env, cat, query))
}

/// [`run`] for a join graph: the summary and the predicate fingerprint.
fn run_graph(env: &Environment, cat: &Catalog, joins: &[&[Edge]]) -> String {
    let query = graph(cat, joins);
    let result = Optimizer::new(cat, env).optimize(&query).unwrap();
    result.plan.check_invariants().unwrap();
    format!(
        "{} preds={:016x}",
        summary(&result, trees(env, cat, &query)),
        preds_fingerprint(&result.plan)
    )
}

/// `(case, summary)` as recorded at the parent commit.
const GOLDEN: &[(&str, &str)] = &[
    ("dynamic k=4", "groups=14 exprs=28 trees=40 considered=112 pruned=12 nodes=116 choose=22 contained=19686 frontier=94 max_frontier=14 cost=[3f989374bc6a7efa,3fe3613d809cd2fd] dag=4bb0c6abab12600e"),
    ("dynamic k=6", "groups=27 exprs=82 trees=1344 considered=286 pruned=18 nodes=309 choose=51 contained=21008730 frontier=258 max_frontier=22 cost=[3fa1eb851eb851ec,400de927c209a8ad] dag=cb9c45c0a1d10da2"),
    ("dynamic k=8", "groups=44 exprs=184 trees=54912 considered=580 pruned=24 nodes=634 choose=92 contained=27208430886 frontier=542 max_frontier=30 cost=[3fa4fdf3b645a1cc,4013cb7a82c4eb34] dag=053afa981b34e8b7"),
    ("dynamic k=10", "groups=65 exprs=350 trees=2489344 considered=1026 pruned=30 nodes=1123 choose=145 contained=39076050126090 frontier=978 max_frontier=38 cost=[3fa810624dd2f1ac,401fd0dca60dc332] dag=94cb2ba9575e64cb"),
    ("dynamic+literal k=4", "groups=14 exprs=28 trees=40 considered=108 pruned=13 nodes=112 choose=20 contained=17572 frontier=89 max_frontier=13 cost=[3f970a3d70a3d70a,3fe400f7c5a79f08] dag=851623b44d28d0f1"),
    ("dynamic+literal k=6", "groups=27 exprs=82 trees=1344 considered=278 pruned=19 nodes=299 choose=47 contained=18667420 frontier=249 max_frontier=21 cost=[3fa1a9fbe76c8b45,400e1116534c5bb0] dag=e61945b6e923dcd5"),
    ("dynamic+literal k=8", "groups=44 exprs=184 trees=54912 considered=568 pruned=25 nodes=618 choose=86 contained=24134904100 frontier=529 max_frontier=29 cost=[3fa4bc6a7ef9db24,4013df71cb6644b6] dag=c894459380f55e31"),
    ("dynamic+literal k=10", "groups=65 exprs=350 trees=2489344 considered=1010 pruned=31 nodes=1101 choose=137 contained=34630779101548 frontier=961 max_frontier=37 cost=[3fa7ced916872b04,401fe4d3eeaf1cb3] dag=cca1099fd5bb0688"),
    ("uncertain-memory k=6", "groups=27 exprs=82 trees=1344 considered=286 pruned=18 nodes=309 choose=51 contained=21008730 frontier=258 max_frontier=22 cost=[3fa1eb851eb851ec,401910e5230d8ca4] dag=cb9c45c0a1d10da2"),
    ("point k=8", "groups=44 exprs=184 trees=54912 considered=580 pruned=347 nodes=9 choose=0 contained=1 frontier=114 max_frontier=1 cost=[3fb8e02fea53db4a,3fb8e02fea53db4a] dag=b3988f7f482ac7e0"),
    ("sorted(R3.a) k=6", "groups=27 exprs=82 trees=1344 considered=319 pruned=18 nodes=353 choose=63 contained=22335862 frontier=290 max_frontier=22 cost=[3f8fbe76c8b43958,4018ebce15b83ecd] dag=16b299ac61f40869"),
    ("dynamic star", "groups=25 exprs=74 trees=384 considered=296 pruned=15 nodes=323 choose=48 contained=1297440 frontier=275 max_frontier=20 cost=[3fa1a9fbe76c8b44,3ffa5ece144c962f] dag=6d5a0a74fadef0fa preds=e9dfd69ed7d8d7e8"),
    ("dynamic 4-cycle", "groups=17 exprs=44 trees=80 considered=176 pruned=12 nodes=189 choose=33 contained=42156 frontier=156 max_frontier=32 cost=[3fa0e5604189374c,3fe2546d56971226] dag=09f5ac6ae8bcf158 preds=07bd9d323ed3a582"),
    ("dynamic pair", "groups=9 exprs=14 trees=8 considered=64 pruned=9 nodes=63 choose=12 contained=788 frontier=51 max_frontier=11 cost=[3f91eb851eb851ec,3fc93509f4884e24] dag=79d8fc3cf0cd17b6 preds=79b9a9c9a4d5de98"),
    ("point star", "groups=25 exprs=74 trees=384 considered=296 pruned=169 nodes=6 choose=0 contained=1 frontier=59 max_frontier=1 cost=[3fb8643da0b8cd5e,3fb8643da0b8cd5e] dag=ab47c804e620b997 preds=f9bea6c0734aa60b"),
];

/// The cases: the chain statements k = 4, 6, 8, 10 under
/// `dynamic_compile_time`, bare and with the benchmark's ad-hoc shape (a
/// second, bound selection on R1 — plan sizes 112/299/618/1101), plus
/// uncertain memory, point mode and a required sort order; then three join
/// graphs that are not chains of one predicate per join — a star, a
/// 4-cycle and a pair of relations joined on two predicates — under
/// `dynamic_compile_time`, and the star in point mode.
fn cases() -> Vec<(String, String)> {
    let cat = catalog();
    let dynamic = Environment::dynamic_compile_time(&cat.config);
    let mut out = Vec::new();
    for k in [4, 6, 8, 10] {
        let q = chain(&cat, k, None);
        out.push((
            format!("dynamic k={k}"),
            run(&dynamic, &cat, &q, PhysProps::ANY),
        ));
    }
    for k in [4, 6, 8, 10] {
        let q = chain(&cat, k, Some(-17));
        out.push((
            format!("dynamic+literal k={k}"),
            run(&dynamic, &cat, &q, PhysProps::ANY),
        ));
    }
    let memory = Environment::dynamic_uncertain_memory(&cat.config);
    out.push((
        "uncertain-memory k=6".into(),
        run(&memory, &cat, &chain(&cat, 6, None), PhysProps::ANY),
    ));
    let point = Environment::static_compile_time(&cat.config);
    out.push((
        "point k=8".into(),
        run(&point, &cat, &chain(&cat, 8, None), PhysProps::ANY),
    ));
    let attr = cat.relations()[2].attr_id(SELECTION_ATTR).unwrap();
    out.push((
        "sorted(R3.a) k=6".into(),
        run(
            &dynamic,
            &cat,
            &chain(&cat, 6, None),
            PhysProps::sorted(attr),
        ),
    ));
    for (name, joins) in [("star", STAR), ("4-cycle", CYCLE), ("pair", PAIR)] {
        out.push((format!("dynamic {name}"), run_graph(&dynamic, &cat, joins)));
    }
    out.push(("point star".into(), run_graph(&point, &cat, STAR)));
    out
}

#[test]
fn search_is_unchanged() {
    let actual = cases();
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((case, got), (name, want))| case == name && got == want);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(case, got)| format!("    ({case:?}, {got:?}),\n"))
            .collect();
        panic!("search golden values changed; this run produced:\n{table}");
    }
}
