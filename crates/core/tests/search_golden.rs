//! Golden values of the search: what the optimizer explores, considers,
//! prunes and builds for a fixed set of statements.
//!
//! The values were recorded at the commit *before* the dense-table /
//! worklist rewrite of `search.rs`, `memo.rs` and `rules.rs` and must not
//! change: the rewrite does the same work on different data structures.
//! The DAG fingerprint covers node creation order and child order, so the
//! order in which candidates are built and the order of alternatives under
//! every choose-plan (which decides ties at start-up) are pinned too.

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

/// Everything pinned about one run, in one comparable line.
fn summary(r: &OptimizeResult) -> String {
    let s = &r.stats;
    let total = r.plan.root_node().total_cost.total();
    format!(
        "groups={} exprs={} trees={} considered={} pruned={} nodes={} choose={} contained={} \
         frontier={} max_frontier={} cost=[{:016x},{:016x}] dag={:016x}",
        s.groups,
        s.logical_exprs,
        s.logical_trees,
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

fn run(env: &Environment, cat: &Catalog, query: &LogicalExpr, props: PhysProps) -> String {
    let result = Optimizer::new(cat, env)
        .optimize_with_props(query, props)
        .unwrap();
    // Linear in the table: the 1 123-node `dynamic k=10` plan is
    // 1.7 × 10¹⁰ nodes as a tree (the 309-node `k=6` plan 1.1 M).
    result.plan.check_invariants().unwrap();
    summary(&result)
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
];

/// The cases: the chain statements k = 4, 6, 8, 10 under
/// `dynamic_compile_time`, bare and with the benchmark's ad-hoc shape (a
/// second, bound selection on R1 — plan sizes 112/299/618/1101), plus
/// uncertain memory, point mode and a required sort order.
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
