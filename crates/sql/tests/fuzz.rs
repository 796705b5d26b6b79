//! The front end under arbitrary input.
//!
//! **Never a panic, every offset in bounds**: token soup from the grammar's
//! own vocabulary, random text (control characters and multi-byte UTF-8
//! included), lone `:` and `-`, integers past `i64` and the empty text —
//! `parse_query` returns a query or an error, and every byte offset an
//! error names lies on a character boundary inside the input.
//!
//! **Round trip**: a generated well-formed statement (any `FROM` order,
//! join and selection predicates, constants at the ends of `i64`, shared
//! host variables, `ORDER BY`, any keyword case and spacing) parses to the
//! predicates it was written with; rendered back to SQL from the parsed
//! query and parsed again, it gives back the same query.

use dqep_algebra::{CompareOp, Scalar};
use dqep_catalog::{make_chain_catalog, AttrId, Catalog, SyntheticSpec, SystemConfig};
use dqep_sql::{parse_query, LexError, ParseError, ParsedPredicate, Query};
use proptest::prelude::*;

fn catalog() -> Catalog {
    make_chain_catalog(&SyntheticSpec::paper(6, 7), SystemConfig::paper_1994())
}

/// The byte offset an error names, if any.
fn offset(e: &ParseError) -> Option<usize> {
    match e {
        ParseError::Lex(
            LexError::UnexpectedChar { offset, .. }
            | LexError::EmptyHostVar { offset }
            | LexError::IntOutOfRange { offset },
        ) => Some(*offset),
        ParseError::Unexpected { offset, .. } => *offset,
        ParseError::TooManyRelations { offset, .. } => Some(*offset),
        _ => None,
    }
}

fn check_never_panics(catalog: &Catalog, text: &str) {
    if let Err(e) = parse_query(text, catalog) {
        if let Some(at) = offset(&e) {
            assert!(at < text.len(), "{e} names byte {at} of {text:?}");
            assert!(text.is_char_boundary(at), "{e} names byte {at} of {text:?}");
        }
        // Display works on every error.
        assert!(!e.to_string().is_empty());
    }
}

const VOCABULARY: &[&str] = &[
    "SELECT", "select", "*", "FROM", "from", "WHERE", "AND", "and", "ORDER", "BY", "by", ",",
    ".", "<", "<=", "=", ">=", ">", "R1", "R2", "R3", "R6", "R7", "r1", "a", "jl", "jr", "zz",
    ":x", ":v1", ":_", ":9", ":", "-", "--", "42", "-7", "0", "9223372036854775807",
    "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999999", "\u{e9}", "\u{2026}", "\u{1f980}", "?", ";", "!", "R1.a",
    "R1.jr = R2.jl", "R1.a < :x",
];

const SEPARATORS: &[&str] = &["", " ", "  ", "\t", "\n", "\r\n", "\u{b}", "\u{a0}"];

/// Characters random text is drawn from: ASCII, controls, and two-,
/// three- and four-byte UTF-8.
const CHARS: &[char] = &[
    'S', 'E', 'L', 'C', 'T', 'R', '1', '2', 'a', 'j', 'l', 'r', '_', '9', '0', '-', ':', '.',
    ',', '*', '<', '>', '=', ' ', '\t', '\n', '\u{0}', '\u{7f}', '\u{85}', '\u{a0}', '\u{e9}',
    '\u{3b1}', '\u{2026}', '\u{3000}', '\u{feff}', '\u{1f980}', '\u{10ffff}',
];

fn soup() -> impl Strategy<Value = String> {
    collection::vec((0..VOCABULARY.len(), 0..SEPARATORS.len()), 0..40).prop_map(|parts| {
        parts
            .into_iter()
            .fold(String::new(), |mut text, (word, sep)| {
                text.push_str(VOCABULARY[word]);
                text.push_str(SEPARATORS[sep]);
                text
            })
    })
}

fn random_text() -> impl Strategy<Value = String> {
    collection::vec(0..CHARS.len(), 0..60).prop_map(|cs| cs.into_iter().map(|c| CHARS[c]).collect())
}

/// A valid prefix with random text spliced in at a random byte.
fn spliced() -> impl Strategy<Value = String> {
    (random_text(), 0usize..=1000).prop_map(|(noise, at)| {
        let base = "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :x ORDER BY R2.a";
        let mut at = at % (base.len() + 1);
        while !base.is_char_boundary(at) {
            at -= 1;
        }
        format!("{}{noise}{}", &base[..at], &base[at..])
    })
}

/// One comparison operator.
fn op(i: usize) -> CompareOp {
    [CompareOp::Lt, CompareOp::Le, CompareOp::Eq, CompareOp::Ge, CompareOp::Gt][i % 5]
}

/// A statement as generated: the `FROM` relations (indexes into the
/// catalog), predicates written over them, an optional `ORDER BY`.
#[derive(Debug)]
struct Spec {
    from: Vec<usize>,
    /// `(from position, attribute, op, right)`.
    preds: Vec<(usize, u32, CompareOp, Rhs)>,
    order_by: Option<(usize, u32)>,
}

#[derive(Debug, Clone, Copy)]
enum Rhs {
    Const(i64),
    Host(usize),
    /// An equi-join with another `FROM` position's attribute (never its
    /// own: the front end refuses self-joins).
    Attr(usize, u32),
}

fn spec() -> impl Strategy<Value = Spec> {
    (1usize..=6, any::<u64>()).prop_flat_map(|(n, order_seed)| {
        let pred = (
            (0..n, 0u32..3, 0usize..5, 0usize..4),
            (any::<i64>(), 0usize..3, 1..n.max(2), 0u32..3),
        );
        (collection::vec(pred, 0..8), (0..n, 0u32..3, any::<bool>())).prop_map(
            move |(preds, (order_rel, order_attr, ordered))| {
                // A permutation of the first `n` relations.
                let mut from: Vec<usize> = (0..n).collect();
                let mut s = order_seed;
                for i in (1..n).rev() {
                    s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    from.swap(i, (s >> 33) as usize % (i + 1));
                }
                let preds = preds
                    .into_iter()
                    .map(|((rel, attr, o, kind), (value, var, shift, other_attr))| {
                        let rhs = match kind {
                            0 => Rhs::Const(value),
                            1 => Rhs::Const([i64::MIN, i64::MAX, 0, -1][(value as usize) % 4]),
                            2 => Rhs::Host(var),
                            _ if n > 1 => Rhs::Attr((rel + shift) % n, other_attr),
                            _ => Rhs::Host(var),
                        };
                        let o = if matches!(rhs, Rhs::Attr(..)) {
                            CompareOp::Eq
                        } else {
                            op(o)
                        };
                        (rel, attr, o, rhs)
                    })
                    .collect();
                Spec {
                    from,
                    preds,
                    order_by: ordered.then_some((order_rel, order_attr)),
                }
            },
        )
    })
}

/// `word` in the case `bits` picks, letter by letter.
fn cased(word: &str, bits: u64) -> String {
    word.chars()
        .enumerate()
        .map(|(i, c)| {
            if bits >> (i % 64) & 1 == 1 {
                c.to_ascii_lowercase()
            } else {
                c
            }
        })
        .collect()
}

const ATTRS: [&str; 3] = ["a", "jl", "jr"];

fn render_spec(spec: &Spec, bits: u64) -> String {
    let rel = |pos: usize| format!("R{}", spec.from[pos] + 1);
    let space = if bits & 1 == 1 { "  " } else { " " };
    let mut text = format!(
        "{}{space}*{space}{}",
        cased("SELECT", bits),
        cased("FROM", bits >> 7)
    );
    let from: Vec<String> = (0..spec.from.len()).map(rel).collect();
    text.push(' ');
    text.push_str(&from.join(if bits & 2 == 2 { "," } else { ", " }));
    for (i, (pos, attr, op, rhs)) in spec.preds.iter().enumerate() {
        let word = if i == 0 {
            cased("WHERE", bits >> 13)
        } else {
            cased("AND", bits >> 19)
        };
        let rhs = match *rhs {
            Rhs::Const(v) => v.to_string(),
            Rhs::Host(v) => format!(":h{v}"),
            Rhs::Attr(p, a) => format!("{}.{}", rel(p), ATTRS[a as usize]),
        };
        let pad = if bits & 4 == 4 { "" } else { " " };
        text.push_str(&format!(
            " {word} {}.{}{pad}{op}{pad}{rhs}",
            rel(*pos),
            ATTRS[*attr as usize]
        ));
    }
    if let Some((pos, attr)) = spec.order_by {
        text.push_str(&format!(
            " {} {} {}.{}",
            cased("ORDER", bits >> 23),
            cased("BY", bits >> 29),
            rel(pos),
            ATTRS[attr as usize]
        ));
    }
    text
}

/// The SQL text of a parsed query: its relations in the order the
/// expression joins them, its predicates in source order.
fn render_query(q: &Query, catalog: &Catalog) -> String {
    let attr = |a: AttrId| {
        format!(
            "{}.{}",
            catalog.relation(a.relation).name,
            catalog.attribute(a).name
        )
    };
    let from: Vec<&str> = q
        .expr
        .iter()
        .filter_map(|(_, node)| match node {
            dqep_algebra::LogicalNode::Get { relation } => {
                Some(catalog.relation(relation).name.as_str())
            }
            _ => None,
        })
        .collect();
    let preds: Vec<String> = q
        .predicates
        .iter()
        .map(|p| match p {
            ParsedPredicate::Join(j) => format!("{} = {}", attr(j.left), attr(j.right)),
            ParsedPredicate::Select(s) => {
                let rhs = match s.rhs {
                    Scalar::Const(v) => v.to_string(),
                    Scalar::Host(var) => {
                        let name = q.host_vars.iter().find(|(_, v)| **v == var).unwrap().0;
                        format!(":{name}")
                    }
                };
                format!("{} {} {rhs}", attr(s.attr), s.op)
            }
        })
        .collect();
    let mut text = format!("SELECT * FROM {}", from.join(", "));
    if !preds.is_empty() {
        text.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    if let Some(a) = q.order_by {
        text.push_str(&format!(" ORDER BY {}", attr(a)));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_text_never_panics_and_errors_point_inside_it(
        (kind, text, soup_text, spliced_text) in (0usize..3, random_text(), soup(), spliced()),
    ) {
        let catalog = catalog();
        let text = [text, soup_text, spliced_text][kind].clone();
        check_never_panics(&catalog, &text);
    }
}

#[test]
fn edge_texts_never_panic() {
    let catalog = catalog();
    for text in [
        "",
        " ",
        ":",
        "-",
        "- 1",
        ":-",
        "::x",
        "\u{e9}",
        "SELECT * FROM R1 WHERE R1.a < :",
        "SELECT * FROM R1 WHERE R1.a < -",
        "SELECT * FROM R1 WHERE R1.a < 9223372036854775808",
        "SELECT * FROM R1 WHERE R1.a < -9223372036854775809",
        "SELECT * FROM R1 WHERE R1.a < \u{1f980}",
        "SELECT * FROM R1, R2, R3, R4, R5, R6",
    ] {
        check_never_panics(&catalog, text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn well_formed_statements_parse_to_what_was_written_and_round_trip(
        spec in spec(),
        bits in any::<u64>(),
    ) {
        let catalog = catalog();
        let text = render_spec(&spec, bits);
        let attr = |pos: usize, a: u32| catalog.relations()[spec.from[pos]].attr_id(ATTRS[a as usize]).unwrap();
        let q = parse_query(&text, &catalog).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(q.predicates.len(), spec.preds.len());
        for (parsed, (pos, a, op, rhs)) in q.predicates.iter().zip(&spec.preds) {
            match (parsed, rhs) {
                (ParsedPredicate::Join(j), Rhs::Attr(p, b)) => {
                    prop_assert_eq!((j.left, j.right), (attr(*pos, *a), attr(*p, *b)));
                }
                (ParsedPredicate::Select(s), Rhs::Const(v)) => {
                    prop_assert_eq!((s.attr, s.op, s.rhs), (attr(*pos, *a), *op, Scalar::Const(*v)));
                }
                (ParsedPredicate::Select(s), Rhs::Host(v)) => {
                    prop_assert_eq!((s.attr, s.op), (attr(*pos, *a), *op));
                    let var = s.host_var().unwrap();
                    prop_assert_eq!(q.host_var(&format!("h{v}")), Some(var));
                }
                _ => prop_assert!(false, "{text}: {parsed:?} for {rhs:?}"),
            }
        }
        prop_assert_eq!(q.order_by, spec.order_by.map(|(pos, a)| attr(pos, a)));
        prop_assert_eq!(q.expr.relations().len() as usize, spec.from.len());

        let again = render_query(&q, &catalog);
        let back = parse_query(&again, &catalog).unwrap_or_else(|e| panic!("{again}: {e}"));
        prop_assert_eq!(&back, &q, "{} rendered as {}", text, again);
    }
}
