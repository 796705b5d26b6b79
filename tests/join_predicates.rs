//! Joins on more than one predicate, end to end.
//!
//! Every benchmark and golden statement joins each pair of relations on one
//! predicate, so a join node's range in the plan's predicate list is one
//! entry long there. Here two statements make it longer — two equi-joins
//! between the same pair of relations, and a triangle join graph whose
//! third edge meets the output of the first join — and each goes through
//! optimize → access module → start-up → `run`, checked against the
//! independent oracle (`common/oracle.rs`). Along the way:
//!
//! * an index join lists its indexed predicate first;
//! * a merge join delivers the order of its first predicate;
//! * a hash join's EXPLAIN label lists its predicates as it always did;
//! * the access module's bytes are the ones the same plan encoded to while
//!   every join node owned its predicate list (digests recorded at that
//!   commit, b94c11e).

use std::sync::Arc;

use dqep::algebra::{PhysicalOp, SortOrder};
use dqep::catalog::{AttrId, Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    compile_dynamic_plan, render_explain, run, ExecContext, RootSink, SharedCounters, Tracer,
};
use dqep::optimizer::Optimizer;
use dqep::plan::{evaluate_startup, AccessModule, NodeId, Plan};
use dqep::sql::{parse_query, Query};
use dqep::storage::StoredDatabase;

#[path = "common/oracle.rs"]
mod oracle;

/// Three relations, each with a selection attribute and two join
/// attributes, every attribute behind an unclustered B-tree — so an index
/// join can probe on either predicate and a merge join can read either
/// order.
fn catalog() -> Catalog {
    let relation = |r: dqep::catalog::RelationBuilder, card: f64, j: f64| {
        r.attr("a", card)
            .attr("j", j)
            .attr("k", 18.0)
            .btree("a", false)
            .btree("j", false)
            .btree("k", false)
    };
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 600, 512, |r| relation(r, 600.0, 24.0))
        .relation("s", 400, 512, |r| relation(r, 400.0, 24.0))
        .relation("t", 300, 512, |r| relation(r, 300.0, 18.0))
        .build()
        .unwrap()
}

/// The statements, with the length and FNV-1a digest of their access
/// modules as b94c11e encoded them.
const STATEMENTS: [(&str, usize, u64); 2] = [
    (
        "SELECT * FROM r, s WHERE r.j = s.j AND r.k = s.k AND r.a < :v AND s.a < :w",
        2_127,
        0x482f_7e68_eb0d_d6be,
    ),
    (
        "SELECT * FROM r, s, t WHERE r.j = s.j AND s.k = t.k AND t.j = r.k AND r.a < :v AND s.a < :w",
        5_997,
        0x6ef3_b3c0_48f9_b384,
    ),
];

/// `(v, w)`: narrow, middling and wide selections on `r` and `s`.
const BINDINGS: [(i64, i64); 3] = [(30, 20), (300, 200), (590, 390)];

fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What `run` produces for the subplan at `id`, in the oracle's canonical
/// form, and its rows in the order they came as the values of `ordered_on`.
fn run_canonical(
    plan: &Plan,
    id: NodeId,
    (query, bindings): (&Query, &Bindings),
    (catalog, db): (&Catalog, &StoredDatabase),
    ordered_on: Option<AttrId>,
) -> (Vec<Vec<i64>>, Vec<i64>) {
    let sub = plan.rooted_at(id);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let ctx = ExecContext::new(SharedCounters::new());
    let layout = compile_dynamic_plan(&sub, db, catalog, &env, bindings, 1 << 20, &ctx)
        .unwrap()
        .layout()
        .clone();
    let mut rows = Vec::new();
    run(
        &sub,
        db,
        catalog,
        &env,
        bindings,
        &ctx,
        RootSink::Rows(&mut rows),
    )
    .unwrap();
    let positions: Vec<usize> = oracle::output_attrs(&query.expr, catalog)
        .iter()
        .map(|&a| layout.require(a))
        .collect();
    let order = ordered_on.map_or_else(Vec::new, |attr| {
        let at = layout.require(attr);
        rows.iter().map(|row| row[at]).collect()
    });
    (oracle::canonical(&rows, &positions), order)
}

#[test]
fn multi_predicate_joins_plan_encode_and_run_like_single_predicate_ones() {
    let catalog = catalog();
    let db = StoredDatabase::generate(&catalog, 25);
    let env = Environment::dynamic_compile_time(&catalog.config);
    for (sql, module_len, module_digest) in STATEMENTS {
        let query = parse_query(sql, &catalog).unwrap();
        let optimized = Optimizer::new(&catalog, &env)
            .optimize_with_props(&query.expr, query.required_props())
            .unwrap()
            .plan;

        // The module is the table, predicates where the operator always
        // had them: same bytes as before, and it decodes to the plan.
        let image = AccessModule::new(Arc::clone(&optimized)).serialize();
        assert_eq!(
            (image.len(), digest(&image)),
            (module_len, module_digest),
            "{sql}"
        );
        let module = AccessModule::deserialize(image).unwrap();
        let plan: &Plan = module.plan();
        assert_eq!(plan, &*optimized, "{sql}");

        let mut longer = [0usize; 3];
        for (id, node) in plan.iter() {
            let preds = plan.join_preds(id);
            match node.op {
                PhysicalOp::IndexJoin { inner, index, .. } => {
                    longer[0] += usize::from(preds.len() > 1);
                    let indexed = catalog.index(index).attr;
                    assert_eq!(
                        preds[0].right,
                        indexed,
                        "{id} {} probes {indexed}",
                        plan.label(id)
                    );
                    assert_eq!(indexed.relation, inner);
                }
                PhysicalOp::MergeJoin => {
                    longer[1] += usize::from(preds.len() > 1);
                    assert_eq!(node.order, SortOrder::Asc(preds[0].left), "{id}");
                }
                PhysicalOp::HashJoin => {
                    longer[2] += usize::from(preds.len() > 1);
                    let listed: Vec<String> = preds.iter().map(ToString::to_string).collect();
                    let label = format!("Hash-Join[{}]", listed.join(" and "));
                    assert_eq!(plan.label(id).to_string(), label);
                }
                _ => assert!(preds.is_empty(), "{id} {} joins nothing", node.op.name()),
            }
        }
        assert!(
            longer.iter().all(|&n| n >= 2),
            "{sql}: index, merge, hash joins on 2+ predicates: {longer:?}"
        );

        // Start-up and `run`, the whole statement and every alternative at
        // its root, against the oracle; a merge join's rows ascend on its
        // first predicate's left attribute.
        let root_alternatives: Vec<NodeId> = match plan.root_node().op {
            PhysicalOp::ChoosePlan => plan.children(plan.root()).to_vec(),
            _ => vec![plan.root()],
        };
        for (v, w) in BINDINGS {
            let bindings = query.bindings(&[("v", v), ("w", w)]).unwrap();
            let truth = oracle::evaluate(&query.expr, &catalog, &db, &bindings);
            assert!(!truth.is_empty(), "{sql} at ({v}, {w}) must join something");
            let startup = evaluate_startup(plan, &catalog, &env, &bindings);
            let resolved = &startup.resolved;
            let (rows, _) = run_canonical(
                resolved,
                resolved.root(),
                (&query, &bindings),
                (&catalog, &db),
                None,
            );
            assert_eq!(rows, truth, "{sql} at ({v}, {w})");
            for &alt in &root_alternatives {
                let ordered_on = match plan[alt].op {
                    PhysicalOp::MergeJoin => Some(plan.join_preds(alt)[0].left),
                    _ => None,
                };
                let (rows, order) =
                    run_canonical(plan, alt, (&query, &bindings), (&catalog, &db), ordered_on);
                assert_eq!(
                    rows,
                    truth,
                    "{sql} at ({v}, {w}) through {alt} {}",
                    plan.label(alt)
                );
                assert!(
                    order.windows(2).all(|w| w[0] <= w[1]),
                    "{alt} {} out of order",
                    plan.label(alt)
                );
            }
        }
    }
}

/// EXPLAIN ANALYZE names a hash join on two predicates exactly as it named
/// it while the operator owned its predicate list.
#[test]
fn explain_labels_a_two_predicate_hash_join_as_before() {
    let catalog = catalog();
    let db = StoredDatabase::generate(&catalog, 25);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let query = parse_query(STATEMENTS[0].0, &catalog).unwrap();
    let plan = Optimizer::new(&catalog, &env)
        .optimize(&query.expr)
        .unwrap()
        .plan;
    let (hash_join, _) = plan
        .iter()
        .find(|(_, node)| matches!(node.op, PhysicalOp::HashJoin))
        .expect("a hash join alternative");
    let label = "Hash-Join[R0.#1 = R1.#1 and R0.#2 = R1.#2]";
    assert_eq!(plan.label(hash_join).to_string(), label);

    let bindings = query.bindings(&[("v", 300), ("w", 200)]).unwrap();
    let tracer = Arc::new(Tracer::new());
    let ctx = ExecContext::new(SharedCounters::new()).with_tracer(Arc::clone(&tracer));
    let sub = plan.rooted_at(hash_join);
    run(
        &sub,
        &db,
        &catalog,
        &env,
        &bindings,
        &ctx,
        RootSink::Discard,
    )
    .unwrap();
    let explain = render_explain(&tracer.report(), &catalog.config);
    assert!(explain.contains(label), "{explain}");
}
