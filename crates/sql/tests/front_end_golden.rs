//! The front end's output, pinned: every statement text of the SQL
//! integration suite, the statement shapes of the four benchmark
//! workloads, variants of them (keyword case, spacing, seed reordering,
//! stacked selections, cycles, extreme literals) and malformed texts, each
//! with what `parse_query` made of it — the query's logical expression,
//! its walks, host variables, predicates and order, or the error's `Debug`
//! and `Display` (byte offsets included).
//!
//! A mismatch prints the whole table this run produced; paste it into
//! `tests/golden/front_end.txt` only if the change is *meant* to alter
//! what the front end returns.

use std::fmt::Write as _;

use dqep_catalog::{make_chain_catalog, Catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
use dqep_sql::parse_query;

const RECORDED: &str = include_str!("golden/front_end.txt");

/// The SQL integration suite's catalog.
fn orders_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("orders", 600, 512, |r| {
            r.attr("amount", 600.0)
                .attr("customer", 150.0)
                .btree("amount", false)
                .btree("customer", false)
        })
        .relation("customers", 300, 512, |r| {
            r.attr("id", 150.0).attr("region", 8.0).btree("id", false)
        })
        .build()
        .unwrap()
}

/// The benchmark's chain catalog: `R1..R10`, attributes `a`, `jl`, `jr`.
fn chain_catalog() -> Catalog {
    make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994())
}

/// The benchmark's `fact`/`dim` catalog.
fn star_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", 12_000, 256, |r| {
            r.attr("a", 12_000.0).attr("j", 6_000.0).btree("a", false)
        })
        .relation("dim", 6_000, 256, |r| {
            r.attr("a", 6_000.0).attr("j", 6_000.0).btree("j", false)
        })
        .build()
        .unwrap()
}

/// A benchmark chain statement over `R1..Rk`, with the ad-hoc workload's
/// literal when given.
fn chain_text(k: usize, literal: Option<i64>) -> String {
    let from: Vec<String> = (1..=k).map(|i| format!("R{i}")).collect();
    let mut preds: Vec<String> = (1..k).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
    preds.extend((1..=k).map(|i| format!("R{i}.a < :v{i}")));
    if let Some(lit) = literal {
        preds.push(format!("R1.jl >= {lit}"));
    }
    format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
}

const ORDERS_TEXTS: &[&str] = &[
    "SELECT * FROM orders WHERE orders.amount < :x",
    "SELECT * FROM orders WHERE orders.amount < 400",
    "SELECT * FROM orders, customers \
     WHERE orders.customer = customers.id AND orders.amount < :x",
    "SELECT * FROM orders, customers \
     WHERE orders.customer = customers.id \
     AND orders.amount < :x AND customers.region = :r",
    "SELECT * FROM customers, orders \
     WHERE customers.id = orders.customer ORDER BY customers.region",
];

const STAR_TEXTS: &[&str] = &[
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x",
    "SELECT * FROM fact WHERE fact.a < :x ORDER BY fact.j",
    "SELECT * FROM fact WHERE fact.a < :x",
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x AND dim.a < :y",
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x AND dim.a < :y \
     ORDER BY fact.a",
];

/// Well-formed variants and malformed texts over the chain catalog.
const CHAIN_TEXTS: &[&str] = &[
    // Well-formed variants.
    "select * from R1 where R1.a<:x1",
    "  SeLeCt\t*\nFROM   R1 ,R2\r\nwHeRe R2.jl=R1.jr  AnD R1.a <= 5 ORDER by R2.a  ",
    "SELECT * FROM R1, R3, R2 WHERE R1.jr = R2.jl AND R2.jr = R3.jl",
    "SELECT * FROM R1, R3",
    "SELECT * FROM R1, R2, R3 WHERE R1.jr = R2.jl AND R2.jr = R3.jl AND R3.jr = R1.jl",
    "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.jl = R2.jr AND R2.a > -3",
    "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :hi AND R2.a >= :lo AND R1.jl <= :hi",
    "SELECT * FROM R1 WHERE R1.a < :x AND R1.a < :x AND R1.jl = 7 AND R1.jr > :y",
    "SELECT * FROM R1 WHERE R1.a < 9223372036854775807 AND R1.jl > -9223372036854775808",
    "SELECT * FROM R2, R1, R4, R3 WHERE R3.jl = R2.jr AND R4.jl = R3.jr AND R1.jr = R2.jl",
    "SELECT * FROM R1 WHERE R1.a < :_ AND R1.jl < :x_1 AND R1.jr < :9",
    // Malformed.
    "",
    "SELECT",
    "SELECT *",
    "SELECT * FROM",
    "SELECT * FROM R1,",
    "SELECT * FROM R11",
    "SELECT * FROM r1",
    "SELECT * FROM R1, R1",
    "SELECT * FROM R1 WHERE",
    "SELECT * FROM R1 WHERE R1.zz < 1",
    "SELECT * FROM R1 WHERE R1.A < 1",
    "SELECT * FROM R1 WHERE R2.a < 1",
    "SELECT * FROM R1, R2 WHERE R1.jr < R2.jl",
    "SELECT * FROM R1, R2 WHERE R1.jr = R3.jl",
    "SELECT * FROM R1, R2 WHERE R1.jr = R2.zz",
    "SELECT * FROM R1 WHERE R1.a = R1.jl",
    "SELECT r FROM R1",
    "SELECT * FROM R1 extra",
    "SELECT * FROM R1 WHERE R1.a ! 3",
    "SELECT * FROM R1 WHERE R1.a < :",
    "SELECT * FROM R1 WHERE R1.a < 99999999999999999999",
    "SELECT * FROM R1 WHERE R1.a < 9223372036854775808",
    "SELECT * FROM R1 WHERE R1.a < - 3",
    "SELECT * FROM R1 WHERE R1.a < --3",
    "SELECT * FROM R1 WHERE R1.a < R2",
    "SELECT * FROM R1 WHERE R1.a < R1 AND",
    "SELECT * FROM R1 WHERE a < 1",
    "SELECT * FROM R1 WHERE R1. < 1",
    "SELECT * FROM R1 WHERE R1.a 1",
    "SELECT * FROM R1 WHERE R1.a < ,",
    "SELECT * FROM R1 WHERE R1.a < 1 AND",
    "SELECT * FROM R1 WHERE R1.a < 5 R1.a",
    "SELECT * FROM R1 ORDER R1.a",
    "SELECT * FROM R1 ORDER BY a",
    "SELECT * FROM R1 ORDER BY R2.a",
    "SELECT * FROM R1 ORDER BY R1.a extra",
    "SELECT * FROM R1;",
    "SELECT r FROM R1 ?",
    "SELECT * FROM nope WHERE nope.a < :",
    "SELECT * FROM R1 WHERE R1.a < 5 \u{e9}",
    "SELECT * FROM R1 WHERE R1.a < 5 \u{2026} AND",
    ":",
    "-",
    "*",
    "FROM R1",
];

/// What `parse_query` made of `text`, as lines.
fn render(out: &mut String, catalog: &Catalog, text: &str) {
    writeln!(out, "text: {text:?}").unwrap();
    match parse_query(text, catalog) {
        Ok(q) => {
            writeln!(out, "  expr: {}", q.expr).unwrap();
            let selects: Vec<String> =
                q.expr.select_predicates().iter().map(ToString::to_string).collect();
            writeln!(out, "  select predicates: [{}]", selects.join("; ")).unwrap();
            let joins: Vec<String> =
                q.expr.join_predicates().iter().map(ToString::to_string).collect();
            writeln!(out, "  join predicates: [{}]", joins.join("; ")).unwrap();
            writeln!(out, "  relations: {} ({} operators)", q.expr.relations(), q.expr.len())
                .unwrap();
            writeln!(out, "  host variables: {:?}", q.host_var_names()).unwrap();
            writeln!(out, "  predicates: {:?}", q.predicates).unwrap();
            writeln!(out, "  order by: {:?}", q.order_by).unwrap();
        }
        Err(e) => {
            writeln!(out, "  error: {e}").unwrap();
            writeln!(out, "  debug: {e:?}").unwrap();
        }
    }
}

#[test]
fn every_corpus_text_parses_or_fails_as_recorded() {
    let (orders, chain, star) = (orders_catalog(), chain_catalog(), star_catalog());
    let mut table = String::new();
    for text in ORDERS_TEXTS {
        render(&mut table, &orders, text);
    }
    for k in [2, 3, 4] {
        render(&mut table, &chain, &chain_text(k, None));
    }
    for k in [4, 6, 8, 10] {
        render(&mut table, &chain, &chain_text(k, Some(-1_000_017)));
    }
    for text in STAR_TEXTS {
        render(&mut table, &star, text);
    }
    for text in CHAIN_TEXTS {
        render(&mut table, &chain, text);
    }
    assert!(
        table == RECORDED,
        "the front end's output moved; this run's table:\n{table}"
    );
}
