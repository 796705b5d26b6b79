//! The four index operators — B-tree scan, filter-B-tree scan, index join,
//! merge join — pulled through `next_batch` with small, odd and full-size
//! requests, against the independent oracle and against golden counters.
//!
//! The golden charges were recorded by running this file at the commit
//! *before* the operators got column bodies, when they produced rows
//! through `next()` and `next_batch` was the trait's loop over it. They pin
//! contract (iii) of `Operator`: the same events are charged — a record per
//! row produced, a compare per row examined, a page per fetch, pool miss
//! and index node — whatever the size of the requests the rows travel in.
//! Reads are pinned as a sum: a join that pulls its inputs by batch fetches
//! `max_rows` rows of one input before it turns to the other, so which of
//! those reads happen to follow the page before them (and count as
//! sequential) moves with the request size by design. Hash counts are not
//! recorded: none of the four hashes.
//!
//! One difference is listed, and has a test of its own
//! ([`merge_join_whose_left_ends_first_reads_its_right_ahead_by_less_than_a_request`]):
//! a merge join stops pulling its right input when its left input ends,
//! and an input pulled by batch has by then produced up to
//! `max_rows - 1` rows nobody consumes. At the recording commit a B-tree
//! scan under the join was exact (that is what its golden row holds) while
//! a filter under it was read ahead by a whole 1 024-row cursor batch
//! whatever the request, so that commit fails the filtered half of that one
//! test and passes everything else in this file.


use dqep::algebra::{CompareOp, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{AttrId, Catalog, CatalogBuilder, Relation, SystemConfig};
use dqep::cost::{Bindings, Cost, PlanStats};
use dqep::executor::{compile_plan, ExecContext, RowBatch, SharedCounters, BATCH_CAPACITY};
use dqep::interval::Interval;
use dqep::plan::{NodeId, Plan};
use dqep::storage::StoredDatabase;

#[path = "common/oracle.rs"]
mod oracle;

const REQUESTS: [usize; 3] = [1, 7, BATCH_CAPACITY];

/// `r` and `s` join on `j` (12 values: every key repeats some 20 times on
/// both sides) and on `k`; `few` and `big` join on a two-valued `j`, so a
/// key group of `big` is longer than any request.
fn fixture() -> (Catalog, StoredDatabase) {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 300, 512, |r| {
            r.attr("a", 300.0).attr("j", 12.0).attr("k", 4.0).btree("a", false).btree("j", false)
        })
        .relation("s", 260, 512, |r| {
            r.attr("a", 260.0).attr("j", 12.0).attr("k", 4.0).btree("a", false).btree("j", false)
        })
        .relation("few", 30, 512, |r| r.attr("a", 30.0).attr("j", 2.0).btree("j", false))
        .relation("big", 2600, 512, |r| r.attr("a", 2600.0).attr("j", 2.0).btree("j", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 4242);
    (catalog, db)
}

/// Hand-builds plan nodes (the optimizer is not under test) into one
/// table; a case's plan is the subplan at its root ([`Plans::plan`]).
struct Plans<'a> {
    catalog: &'a Catalog,
    b: Plan,
}

impl<'a> Plans<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Plans { catalog, b: Plan::new() }
    }

    fn node(&mut self, op: PhysicalOp, children: &[NodeId]) -> NodeId {
        self.join(op, children, &[])
    }

    fn join(&mut self, op: PhysicalOp, children: &[NodeId], preds: &[JoinPred]) -> NodeId {
        self.b.push(op, children, preds, PlanStats::new(Interval::point(0.0), 512.0), Cost::ZERO)
    }

    fn plan(&self, root: NodeId) -> Plan {
        self.b.rooted_at(root)
    }

    fn rel(&self, name: &str) -> &'a Relation {
        self.catalog.relation_by_name(name).unwrap()
    }

    fn attr(&self, rel: &str, attr: &str) -> AttrId {
        self.rel(rel).attr_id(attr).unwrap()
    }

    fn file_scan(&mut self, rel: &str) -> NodeId {
        let relation = self.rel(rel).id;
        self.node(PhysicalOp::FileScan { relation }, &[])
    }

    fn btree_scan(&mut self, rel: &str, key: &str) -> NodeId {
        let key_attr = self.attr(rel, key);
        let (index, _) = self.catalog.index_on_attr(key_attr).unwrap();
        let relation = self.rel(rel).id;
        self.node(PhysicalOp::BtreeScan { relation, index, key_attr }, &[])
    }

    fn range_scan(&mut self, rel: &str, key: &str, op: CompareOp, v: i64) -> NodeId {
        let predicate = SelectPred::bound(self.attr(rel, key), op, v);
        let (index, _) = self.catalog.index_on_attr(predicate.attr).unwrap();
        let relation = self.rel(rel).id;
        self.node(PhysicalOp::FilterBtreeScan { relation, index, predicate }, &[])
    }

    fn filter(&mut self, input: NodeId, pred: SelectPred) -> NodeId {
        self.node(PhysicalOp::Filter { predicate: pred }, &[input])
    }
}

/// What one run charged: records, compares, page reads, page writes.
type Charges = [u64; 4];

/// Opens `plan`, pulls it with `max_rows` until it is exhausted and
/// closes it. Returns the rows, the columns of `attrs` within them, and
/// the charges; checks that no batch exceeds the request.
fn pull(
    plan: &Plan,
    catalog: &Catalog,
    db: &StoredDatabase,
    max_rows: usize,
    attrs: &[AttrId],
) -> (Vec<Vec<i64>>, Vec<usize>, Charges) {
    let ctx = ExecContext::new(SharedCounters::new());
    let before = db.disk.stats();
    let mut op = compile_plan(plan, db, catalog, &Bindings::new(), 64 * 2048, &ctx).unwrap();
    let positions = attrs.iter().map(|&a| op.layout().require(a)).collect();
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch(max_rows).unwrap() {
        assert!(batch.len() <= max_rows, "{} rows for a request of {max_rows}", batch.len());
        rows.extend(RowBatch::iter(&batch));
    }
    op.close();
    let io = db.disk.stats().since(&before);
    let cpu = ctx.counters.snapshot();
    assert_eq!(cpu.hashes, 0, "no index operator hashes");
    (rows, positions, [cpu.records, cpu.compares, io.seq_reads + io.random_reads, io.writes])
}

/// One plan and the query it answers.
struct Case {
    name: &'static str,
    plan: Plan,
    query: LogicalExpr,
    /// The attribute the output is promised to ascend on, if any.
    ordered_on: Option<AttrId>,
}

/// Runs every case at every request size: rows against the oracle, order
/// where promised, charges against `golden`. A mismatch prints the table
/// this run produced.
fn check(cases: &[Case], golden: &[(&str, Charges)], catalog: &Catalog, db: &StoredDatabase) {
    let mut table = String::new();
    let mut wrong = Vec::new();
    for case in cases {
        let truth = oracle::evaluate(&case.query, catalog, db, &Bindings::new());
        let attrs = oracle::output_attrs(&case.query, catalog);
        for max_rows in REQUESTS {
            let (rows, positions, charges) = pull(&case.plan, catalog, db, max_rows, &attrs);
            assert_eq!(
                oracle::canonical(&rows, &positions),
                truth,
                "{} at {max_rows}: rows differ from the oracle",
                case.name
            );
            if let Some(attr) = case.ordered_on {
                let p = positions[attrs.iter().position(|&a| a == attr).unwrap()];
                assert!(
                    rows.windows(2).all(|w| w[0][p] <= w[1][p]),
                    "{} at {max_rows}: output not ascending on its key",
                    case.name
                );
            }
            if max_rows == REQUESTS[0] {
                table.push_str(&format!("    ({:?}, {charges:?}),\n", case.name));
            }
            let expected = golden.iter().find(|(name, _)| *name == case.name).map(|(_, c)| *c);
            if expected != Some(charges) {
                wrong.push(format!("{} at {max_rows}: {charges:?}, golden {expected:?}", case.name));
            }
        }
    }
    assert!(wrong.is_empty(), "charges moved:\n{}\nthis run:\n{table}", wrong.join("\n"));
}

#[test]
fn btree_scans_match_the_oracle_and_the_recorded_charges() {
    let (catalog, db) = fixture();
    let mut p = Plans::new(&catalog);
    let (r, ra) = (p.rel("r").id, p.attr("r", "a"));
    let scan = p.btree_scan("r", "a");
    let mut cases = vec![Case {
        name: "btree-scan",
        plan: p.plan(scan),
        query: LogicalExpr::get(r),
        ordered_on: Some(ra),
    }];
    // Half-open ranges from either end, a closed (one-key) range, an
    // empty range and one covering the whole domain.
    for (name, op, v) in [
        ("range-lt", CompareOp::Lt, 100),
        ("range-gt", CompareOp::Gt, 220),
        ("range-le", CompareOp::Le, 41),
        ("range-eq", CompareOp::Eq, 57),
        ("range-empty", CompareOp::Lt, 0),
        ("range-whole", CompareOp::Ge, 0),
    ] {
        let scan = p.range_scan("r", "a", op, v);
        cases.push(Case {
            name,
            plan: p.plan(scan),
            query: LogicalExpr::get(r).select(SelectPred::bound(ra, op, v)),
            ordered_on: Some(ra),
        });
    }
    check(&cases, BTREE_GOLDEN, &catalog, &db);
}

const BTREE_GOLDEN: &[(&str, Charges)] = &[
    ("btree-scan", [300, 0, 304, 0]),
    ("range-lt", [94, 0, 96, 0]),
    ("range-gt", [102, 0, 105, 0]),
    ("range-le", [38, 0, 40, 0]),
    ("range-eq", [2, 0, 4, 0]),
    ("range-empty", [0, 0, 2, 0]),
    ("range-whole", [300, 0, 304, 0]),
];

/// Index joins of `r` (dense from a file scan, or behind a filter's
/// selection vector) into `s` through its index on `j`: duplicate outer
/// keys throughout, with and without a residual selection on the inner
/// and a second join predicate.
#[test]
fn index_joins_match_the_oracle_and_the_recorded_charges() {
    let (catalog, db) = fixture();
    let mut p = Plans::new(&catalog);
    let (r, s) = (p.rel("r").id, p.rel("s").id);
    let on_j = JoinPred::new(p.attr("r", "j"), p.attr("s", "j"));
    let on_k = JoinPred::new(p.attr("r", "k"), p.attr("s", "k"));
    let outer_pred = SelectPred::bound(p.attr("r", "a"), CompareOp::Lt, 140);
    let inner_pred = SelectPred::bound(p.attr("s", "a"), CompareOp::Ge, 90);
    let (index, _) = catalog.index_on_attr(on_j.right).unwrap();

    let mut cases = Vec::new();
    for (variant, sparse) in [("dense", false), ("sparse", true)] {
        for (shape, residual, extra) in [
            ("plain", false, false),
            ("residual", true, false),
            ("extra", false, true),
            ("both", true, true),
        ] {
            let mut outer = p.file_scan("r");
            let mut outer_query = LogicalExpr::get(r);
            if sparse {
                outer = p.filter(outer, outer_pred);
                outer_query = outer_query.select(outer_pred);
            }
            let mut inner_query = LogicalExpr::get(s);
            if residual {
                inner_query = inner_query.select(inner_pred);
            }
            let mut predicates = vec![on_j];
            if extra {
                predicates.push(on_k);
            }
            let plan = p.join(
                PhysicalOp::IndexJoin {
                    inner: s,
                    index,
                    residual: residual.then_some(inner_pred),
                },
                &[outer],
                &predicates,
            );
            cases.push(Case {
                name: leak(format!("index-join/{shape}/{variant}")),
                plan: p.plan(plan),
                query: outer_query.join(inner_query, predicates),
                ordered_on: None,
            });
        }
    }
    check(&cases, INDEX_JOIN_GOLDEN, &catalog, &db);

    // The join keeps its outer's order: the outer halves of the output,
    // runs of one outer row collapsed, are the outer input in heap order.
    let outer_rows: Vec<Vec<i64>> = db.export_rows()[&r].clone();
    let attrs = oracle::output_attrs(&cases[0].query, &catalog);
    for max_rows in REQUESTS {
        let (rows, _, _) = pull(&cases[0].plan, &catalog, &db, max_rows, &attrs);
        let mut seen = outer_rows.iter();
        let mut last: Option<&[i64]> = None;
        for row in &rows {
            let outer = &row[..3];
            if last != Some(outer) {
                assert!(seen.any(|o| o == outer), "outer order lost at {max_rows}");
                last = Some(outer);
            }
        }
    }
}

const INDEX_JOIN_GOLDEN: &[(&str, Charges)] = &[
    ("index-join/plain/dense", [6853, 6553, 2690, 0]),
    ("index-join/residual/dense", [4565, 6553, 2690, 0]),
    ("index-join/extra/dense", [1952, 6553, 2690, 0]),
    ("index-join/both/dense", [1372, 6553, 2690, 0]),
    ("index-join/plain/sparse", [2981, 2862, 1159, 0]),
    ("index-join/residual/sparse", [2093, 2862, 1159, 0]),
    ("index-join/extra/sparse", [1055, 2862, 1159, 0]),
    ("index-join/both/sparse", [826, 2862, 1159, 0]),
];

fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// A merge-join input on `rel.j`: the whole relation through its index
/// (`below: None`) or the keys under a bound, each either as the scan
/// produces it or behind a filter on `a` that qualifies about half the
/// rows through a selection vector.
fn merge_input(
    p: &mut Plans<'_>,
    rel: &str,
    below: Option<i64>,
    sparse: bool,
) -> (NodeId, LogicalExpr) {
    let relation = p.rel(rel);
    let mut query = LogicalExpr::get(relation.id);
    let mut plan = match below {
        None => p.btree_scan(rel, "j"),
        Some(v) => {
            query = query.select(SelectPred::bound(p.attr(rel, "j"), CompareOp::Lt, v));
            p.range_scan(rel, "j", CompareOp::Lt, v)
        }
    };
    if sparse {
        let half = relation.stats.cardinality as i64 / 2;
        let pred = SelectPred::bound(p.attr(rel, "a"), CompareOp::Lt, half);
        plan = p.filter(plan, pred);
        query = query.select(pred);
    }
    (plan, query)
}

fn merge_case(
    p: &mut Plans<'_>,
    name: String,
    (left, left_below): (&str, Option<i64>),
    (right, right_below): (&str, Option<i64>),
    residual_on_k: bool,
    sparse: bool,
) -> Case {
    let (left_plan, left_query) = merge_input(p, left, left_below, sparse);
    let (right_plan, right_query) = merge_input(p, right, right_below, sparse);
    let mut predicates = vec![JoinPred::new(p.attr(left, "j"), p.attr(right, "j"))];
    if residual_on_k {
        predicates.push(JoinPred::new(p.attr(left, "k"), p.attr(right, "k")));
    }
    let merge = p.join(PhysicalOp::MergeJoin, &[left_plan, right_plan], &predicates);
    Case {
        name: leak(name),
        plan: p.plan(merge),
        query: left_query.join(right_query, predicates),
        ordered_on: Some(p.attr(left, "j")),
    }
}

/// Merge joins whose inputs both run out together or whose *right* input
/// runs out first — the join then drains its left input, so nothing is
/// read ahead and every charge is the recorded one: duplicate key groups
/// on both sides, a group longer than any request (and spanning right
/// batches), a residual predicate, an empty side.
#[test]
fn merge_joins_match_the_oracle_and_the_recorded_charges() {
    let (catalog, db) = fixture();
    let mut p = Plans::new(&catalog);
    let mut cases = Vec::new();
    for (variant, sparse) in [("dense", false), ("sparse", true)] {
        let mut case = |shape: &str, left, right, residual| {
            merge_case(&mut p, format!("merge-join/{shape}/{variant}"), left, right, residual, sparse)
        };
        cases.push(case("groups", ("r", None), ("s", None), false));
        cases.push(case("residual", ("r", None), ("s", None), true));
        cases.push(case("long-group", ("few", None), ("big", None), false));
        cases.push(case("right-ends-first", ("r", None), ("s", Some(5)), false));
        cases.push(case("empty-left", ("r", Some(0)), ("s", Some(5)), false));
        cases.push(case("empty-right", ("r", None), ("s", Some(0)), false));
    }
    check(&cases, MERGE_JOIN_GOLDEN, &catalog, &db);
}

const MERGE_JOIN_GOLDEN: &[(&str, Charges)] = &[
    ("merge-join/groups/dense", [7113, 271, 567, 0]),
    ("merge-join/residual/dense", [2212, 271, 567, 0]),
    ("merge-join/long-group/dense", [41828, 2601, 2666, 0]),
    ("merge-join/right-ends-first/dense", [3377, 109, 411, 0]),
    ("merge-join/empty-left/dense", [0, 0, 4, 0]),
    ("merge-join/empty-right/dense", [300, 0, 306, 0]),
    ("merge-join/groups/sparse", [2281, 704, 567, 0]),
    ("merge-join/residual/sparse", [1198, 704, 567, 0]),
    ("merge-join/long-group/sparse", [17298, 3951, 2666, 0]),
    ("merge-join/right-ends-first/sparse", [1159, 457, 411, 0]),
    ("merge-join/empty-left/sparse", [0, 0, 4, 0]),
    ("merge-join/empty-right/sparse", [431, 300, 306, 0]),
];

/// The listed difference. The left input ends at key 4 while the right
/// goes on to 11: the join stops there, and a right input pulled by batch
/// has produced up to `max_rows - 1` rows past the one that ended the last
/// key group. `EXACT` is what a row-at-a-time right input is charged (the
/// dense row is the recording commit's own; the sparse row is this file's
/// at `max_rows = 1`, where a batch is a row); every overshot right row
/// costs one random fetch and one record, and behind the filter one
/// compare, and no more than one of every two makes it a second record.
#[test]
fn merge_join_whose_left_ends_first_reads_its_right_ahead_by_less_than_a_request() {
    let (catalog, db) = fixture();
    let mut p = Plans::new(&catalog);
    for (variant, sparse) in [("dense", false), ("sparse", true)] {
        let name = format!("merge-join/left-ends-first/{variant}");
        let case = merge_case(&mut p, name, ("r", Some(5)), ("s", None), false, sparse);
        let exact = EXACT.iter().find(|(name, _)| *name == case.name).map(|(_, c)| *c);
        let truth = oracle::evaluate(&case.query, &catalog, &db, &Bindings::new());
        let attrs = oracle::output_attrs(&case.query, &catalog);
        for max_rows in REQUESTS {
            let (rows, positions, charges) = pull(&case.plan, &catalog, &db, max_rows, &attrs);
            assert_eq!(oracle::canonical(&rows, &positions), truth, "{} at {max_rows}", case.name);
            let Some(exact) = exact else {
                panic!("no golden row; this run: ({:?}, {charges:?})", case.name);
            };
            // Rows of the right relation fetched beyond the exact run.
            let ahead = charges[2] - exact[2];
            assert!(
                ahead < max_rows as u64,
                "{} at {max_rows}: right input read {ahead} rows ahead",
                case.name
            );
            let per_row = if sparse { [2, 1] } else { [1, 0] };
            assert!(
                (exact[0]..=exact[0] + per_row[0] * ahead).contains(&charges[0])
                    && (exact[1]..=exact[1] + per_row[1] * ahead).contains(&charges[1])
                    && charges[3] == exact[3],
                "{} at {max_rows}: {charges:?} is not {exact:?} plus {ahead} rows read ahead",
                case.name
            );
        }
    }
}

const EXACT: &[(&str, Charges)] = &[
    ("merge-join/left-ends-first/dense", [3216, 110, 250, 0]),
    ("merge-join/left-ends-first/sparse", [926, 297, 250, 0]),
];
