//! Recursive-descent parser and logical-plan builder.

use std::collections::BTreeMap;
use std::fmt;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, LogicalNode, RelSet, SelectPred};
use dqep_catalog::{AttrId, Catalog, RelationId};

use crate::ast::{ParsedPredicate, Query};
use crate::lexer::{LexError, Lexer, Token, TokenKind};

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// A token other than the expected one appeared.
    Unexpected {
        /// What the parser needed.
        expected: String,
        /// What it found (rendered), or "end of input".
        found: String,
        /// Byte offset, when known.
        offset: Option<usize>,
    },
    /// `FROM` names a relation not in the catalog.
    UnknownRelation(String),
    /// A predicate references `rel.attr` where `attr` is not an attribute
    /// of `rel`.
    UnknownAttribute(String, String),
    /// A predicate references a relation not listed in `FROM`.
    RelationNotInFrom(String),
    /// The same relation appears twice in `FROM` (aliases are not
    /// supported, matching the prototype's no-self-join model).
    DuplicateRelation(String),
    /// A `rel.attr = rel.attr` predicate with both sides on one relation.
    SelfJoin(String),
    /// A join predicate uses a non-equality operator.
    NonEquiJoin(String),
    /// `FROM` names a relation whose id is past what a query can span
    /// ([`RelSet::CAPACITY`]).
    TooManyRelations {
        /// The relation's name.
        name: String,
        /// Byte offset of the name.
        offset: usize,
    },
    /// The built expression failed algebra validation.
    Validation(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { expected, found, offset } => match offset {
                Some(o) => write!(f, "expected {expected}, found {found} at byte {o}"),
                None => write!(f, "expected {expected}, found {found}"),
            },
            ParseError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ParseError::UnknownAttribute(r, a) => {
                write!(f, "relation `{r}` has no attribute `{a}`")
            }
            ParseError::RelationNotInFrom(r) => {
                write!(f, "relation `{r}` is not listed in FROM")
            }
            ParseError::DuplicateRelation(r) => {
                write!(f, "relation `{r}` appears twice in FROM (aliases unsupported)")
            }
            ParseError::SelfJoin(p) => write!(f, "self-join predicate not supported: {p}"),
            ParseError::NonEquiJoin(p) => {
                write!(f, "join predicates must use `=`: {p}")
            }
            ParseError::TooManyRelations { name, offset } => write!(
                f,
                "relation `{name}` at byte {offset} has id {} or more: a query spans at most {} \
                 relations",
                RelSet::CAPACITY,
                RelSet::CAPACITY
            ),
            ParseError::Validation(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Lex(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses an embedded-SQL query against `catalog` and builds its logical
/// plan. See the crate docs for the accepted grammar.
///
/// The text is lexed as it is parsed, into tokens that borrow from it, so
/// parsing allocates only what the returned [`Query`] owns (and a list of
/// the `FROM` relations). A lexical error anywhere in the text is the
/// error returned, ahead of any syntax or name error before it.
pub fn parse_query(input: &str, catalog: &Catalog) -> Result<Query, ParseError> {
    let mut p = Parser {
        lexer: Lexer::new(input),
        next: None,
        catalog,
    };
    p.query().map_err(|e| match e {
        ParseError::Lex(_) => e,
        e => p.lexer.first_error().map_or(e, ParseError::Lex),
    })
}

/// A relation named in `FROM`, as written.
type FromEntry<'a> = (&'a str, RelationId);

struct Parser<'a, 'c> {
    lexer: Lexer<'a>,
    /// The lookahead: the next token not yet consumed.
    next: Option<Token<'a>>,
    catalog: &'c Catalog,
}

/// Right-hand side of a parsed comparison.
enum Rhs<'a> {
    Attr(&'a str, &'a str),
    Int(i64),
    Host(&'a str),
}

fn unexpected(token: Option<&Token<'_>>, expected: &str) -> ParseError {
    match token {
        Some(t) => ParseError::Unexpected {
            expected: expected.to_string(),
            found: t.kind.to_string(),
            offset: Some(t.offset),
        },
        None => ParseError::Unexpected {
            expected: expected.to_string(),
            found: "end of input".to_string(),
            offset: None,
        },
    }
}

impl<'a> Parser<'a, '_> {
    fn peek(&self) -> Option<TokenKind<'a>> {
        self.next.map(|t| t.kind)
    }

    /// Consumes the lookahead and lexes the next token.
    fn bump(&mut self) -> Result<(), ParseError> {
        self.next = self.lexer.next_token()?;
        Ok(())
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        unexpected(self.next.as_ref(), expected)
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(kind) {
            self.bump()
        } else {
            Err(self.unexpected(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                self.bump()?;
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.bump()?;
        self.expect(TokenKind::Select, "SELECT")?;
        self.expect(TokenKind::Star, "*")?;
        self.expect(TokenKind::From, "FROM")?;

        // FROM list.
        let mut from: Vec<FromEntry<'a>> = Vec::new();
        loop {
            let offset = self.next.map_or(0, |t| t.offset);
            let name = self.ident("relation name")?;
            let rel = self
                .catalog
                .relation_by_name(name)
                .map_err(|_| ParseError::UnknownRelation(name.to_string()))?;
            if rel.id.0 >= RelSet::CAPACITY {
                return Err(ParseError::TooManyRelations { name: name.to_string(), offset });
            }
            if from.iter().any(|(_, id)| *id == rel.id) {
                return Err(ParseError::DuplicateRelation(name.to_string()));
            }
            from.push((name, rel.id));
            if self.peek() != Some(TokenKind::Comma) {
                break;
            }
            self.bump()?;
        }

        // WHERE clause (optional).
        let mut predicates: Vec<ParsedPredicate> = Vec::new();
        let mut host_vars: BTreeMap<String, HostVar> = BTreeMap::new();
        if self.peek() == Some(TokenKind::Where) {
            self.bump()?;
            loop {
                let pred = self.predicate(&from, &mut host_vars)?;
                predicates.push(pred);
                if self.peek() != Some(TokenKind::And) {
                    break;
                }
                self.bump()?;
            }
        }
        // ORDER BY clause (optional).
        let mut order_by = None;
        if self.peek() == Some(TokenKind::Order) {
            self.bump()?;
            self.expect(TokenKind::By, "BY")?;
            order_by = Some(self.qualified_attr(&from)?);
        }
        if self.next.is_some() {
            return Err(self.unexpected("AND, ORDER BY, or end of query"));
        }

        let expr = build_expr(&mut from, &predicates);
        expr.validate(self.catalog)
            .map_err(|e| ParseError::Validation(e.to_string()))?;
        Ok(Query {
            expr,
            host_vars,
            predicates,
            order_by,
        })
    }

    fn predicate(
        &mut self,
        from: &[FromEntry<'_>],
        host_vars: &mut BTreeMap<String, HostVar>,
    ) -> Result<ParsedPredicate, ParseError> {
        let lhs = self.qualified_attr(from)?;
        let op = match self.peek() {
            Some(TokenKind::Lt) => CompareOp::Lt,
            Some(TokenKind::Le) => CompareOp::Le,
            Some(TokenKind::Eq) => CompareOp::Eq,
            Some(TokenKind::Ge) => CompareOp::Ge,
            Some(TokenKind::Gt) => CompareOp::Gt,
            _ => return Err(self.unexpected("comparison operator")),
        };
        self.bump()?;

        let rhs = match self.peek() {
            Some(TokenKind::Int(v)) => {
                self.bump()?;
                Rhs::Int(v)
            }
            Some(TokenKind::HostVar(name)) => {
                self.bump()?;
                Rhs::Host(name)
            }
            Some(TokenKind::Ident(rel)) => {
                // Reported at the relation when no `.` follows it.
                let at = self.next;
                self.bump()?;
                if self.peek() != Some(TokenKind::Dot) {
                    return Err(unexpected(at.as_ref(), "`rel.attr`, integer, or :hostvar"));
                }
                self.bump()?;
                Rhs::Attr(rel, self.ident("attribute name")?)
            }
            _ => return Err(self.unexpected("integer, :hostvar, or rel.attr")),
        };

        match rhs {
            Rhs::Attr(rrel, rattr) => {
                let right = self.resolve(from, rrel, rattr)?;
                if op != CompareOp::Eq {
                    return Err(ParseError::NonEquiJoin(format!(
                        "{} {op} {rrel}.{rattr}",
                        fmt_attr(from, lhs)
                    )));
                }
                if right.relation == lhs.relation {
                    return Err(ParseError::SelfJoin(format!(
                        "{} = {rrel}.{rattr}",
                        fmt_attr(from, lhs)
                    )));
                }
                Ok(ParsedPredicate::Join(JoinPred::new(lhs, right)))
            }
            Rhs::Int(v) => Ok(ParsedPredicate::Select(SelectPred::bound(lhs, op, v))),
            Rhs::Host(name) => {
                let var = match host_vars.get(name) {
                    Some(&var) => var,
                    None => {
                        let var = HostVar(host_vars.len() as u32);
                        host_vars.insert(name.to_string(), var);
                        var
                    }
                };
                Ok(ParsedPredicate::Select(SelectPred::unbound(lhs, op, var)))
            }
        }
    }

    fn qualified_attr(&mut self, from: &[FromEntry<'_>]) -> Result<AttrId, ParseError> {
        let rel = self.ident("`rel.attr`")?;
        self.expect(TokenKind::Dot, "`.` (attributes must be qualified)")?;
        let attr = self.ident("attribute name")?;
        self.resolve(from, rel, attr)
    }

    fn resolve(&self, from: &[FromEntry<'_>], rel: &str, attr: &str) -> Result<AttrId, ParseError> {
        let (_, rel_id) = from
            .iter()
            .find(|(n, _)| *n == rel)
            .ok_or_else(|| ParseError::RelationNotInFrom(rel.to_string()))?;
        self.catalog
            .relation(*rel_id)
            .attr_id(attr)
            .ok_or_else(|| ParseError::UnknownAttribute(rel.to_string(), attr.to_string()))
    }
}

fn fmt_attr(from: &[FromEntry<'_>], attr: AttrId) -> String {
    let rel = from
        .iter()
        .find(|(_, id)| *id == attr.relation)
        .map_or("?", |(n, _)| n);
    format!("{rel}.#{}", attr.index)
}

/// Builds the seed logical expression: selected leaves joined in a
/// connectivity-respecting order (FROM order, preferring relations already
/// connected to the current prefix so the seed avoids accidental cross
/// products; genuinely disconnected queries fall back to cross joins,
/// which the optimizer handles). `from` is left in join order. The table
/// is reserved at its final size: a leaf is a `Get` and its selections,
/// every join consumes the join predicates that reach its new relation.
fn build_expr(from: &mut [FromEntry<'_>], predicates: &[ParsedPredicate]) -> LogicalExpr {
    let selects = || {
        predicates.iter().filter_map(|p| match p {
            ParsedPredicate::Select(s) => Some(*s),
            ParsedPredicate::Join(_) => None,
        })
    };
    let joins = || {
        predicates.iter().filter_map(|p| match p {
            ParsedPredicate::Join(j) => Some(*j),
            ParsedPredicate::Select(_) => None,
        })
    };
    let connecting = move |set: RelSet, rel: RelationId| {
        joins().filter(move |p| {
            (set.contains(p.left.relation) && p.right.relation == rel)
                || (set.contains(p.right.relation) && p.left.relation == rel)
        })
    };
    let nodes = 2 * from.len() - 1 + selects().count();
    let mut expr = LogicalExpr::with_capacity(nodes, joins().count());
    let leaf = |expr: &mut LogicalExpr, relation: RelationId| {
        let mut input = expr.push(LogicalNode::Get { relation }, []);
        for predicate in selects().filter(|p| p.attr.relation == relation) {
            input = expr.push(LogicalNode::Select { input, predicate }, []);
        }
        input
    };

    let mut root = leaf(&mut expr, from[0].1);
    let mut covered = RelSet::singleton(from[0].1);
    for next in 1..from.len() {
        // Prefer the first remaining relation connected to the prefix.
        let pick = from[next..]
            .iter()
            .position(|&(_, r)| connecting(covered, r).next().is_some())
            .unwrap_or(0);
        from[next..=next + pick].rotate_right(1);
        let rel = from[next].1;
        let right = leaf(&mut expr, rel);
        root = expr.push(LogicalNode::Join { left: root, right }, connecting(covered, rel));
        covered = covered.union(RelSet::singleton(rel));
    }
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 100, 512, |r| r.attr("a", 100.0).attr("j", 50.0))
            .relation("s", 200, 512, |r| r.attr("a", 200.0).attr("j", 50.0).attr("k", 40.0))
            .relation("t", 300, 512, |r| r.attr("a", 300.0).attr("k", 40.0))
            .build()
            .unwrap()
    }

    #[test]
    fn parses_single_relation_query() {
        let cat = catalog();
        let q = parse_query("SELECT * FROM r WHERE r.a < :x", &cat).unwrap();
        assert_eq!(q.host_var_names(), vec!["x"]);
        assert_eq!(q.expr.select_predicates().len(), 1);
        assert!(q.expr.select_predicates()[0].is_unbound());
        q.expr.validate(&cat).unwrap();
    }

    #[test]
    fn parses_multiway_join_with_mixed_predicates() {
        let cat = catalog();
        let q = parse_query(
            "SELECT * FROM r, s, t \
             WHERE r.j = s.j AND s.k = t.k AND r.a < :x AND t.a >= 10",
            &cat,
        )
        .unwrap();
        assert_eq!(q.expr.relations().len(), 3);
        assert_eq!(q.expr.join_predicates().len(), 2);
        assert_eq!(q.expr.select_predicates().len(), 2);
        assert_eq!(q.host_var_names(), vec!["x"]);
        assert_eq!(q.predicates.len(), 4);
        q.expr.validate(&cat).unwrap();
    }

    #[test]
    fn host_vars_are_deduplicated_and_ordered() {
        let cat = catalog();
        let q = parse_query(
            "SELECT * FROM r, s WHERE r.j = s.j AND r.a < :hi AND s.a >= :lo AND s.k <= :hi",
            &cat,
        )
        .unwrap();
        assert_eq!(q.host_var_names(), vec!["hi", "lo"]);
        assert_eq!(q.host_var("hi"), Some(HostVar(0)));
        assert_eq!(q.host_var("lo"), Some(HostVar(1)));
        // :hi appears twice, same id both times.
        let unbound: Vec<HostVar> = q
            .expr
            .select_predicates()
            .iter()
            .filter_map(|p| p.host_var())
            .collect();
        assert_eq!(unbound.iter().filter(|v| **v == HostVar(0)).count(), 2);
    }

    #[test]
    fn from_order_does_not_force_cross_products() {
        // r and t are not directly connected; listing them adjacently must
        // not produce a cross-product seed.
        let cat = catalog();
        let q = parse_query(
            "SELECT * FROM r, t, s WHERE r.j = s.j AND s.k = t.k",
            &cat,
        )
        .unwrap();
        // Every join in the seed expression carries at least one predicate.
        let no_cross = q.expr.iter().all(|(id, node)| {
            !matches!(node, LogicalNode::Join { .. }) || !q.expr.join_preds(id).is_empty()
        });
        assert!(no_cross, "seed contains a cross product: {}", q.expr);
    }

    #[test]
    fn where_clause_is_optional() {
        let cat = catalog();
        let q = parse_query("select * from r", &cat).unwrap();
        assert!(q.predicates.is_empty());
        assert_eq!(q.expr.to_string(), "Get(R0)");
    }

    #[test]
    fn error_cases() {
        let cat = catalog();
        let err = |sql: &str| parse_query(sql, &cat).unwrap_err();

        assert!(matches!(err("SELECT * FROM missing"), ParseError::UnknownRelation(_)));
        assert!(matches!(err("SELECT * FROM r, r"), ParseError::DuplicateRelation(_)));
        assert!(matches!(
            err("SELECT * FROM r WHERE r.zzz < 1"),
            ParseError::UnknownAttribute(_, _)
        ));
        assert!(matches!(
            err("SELECT * FROM r WHERE s.a < 1"),
            ParseError::RelationNotInFrom(_)
        ));
        assert!(matches!(
            err("SELECT * FROM r, s WHERE r.j < s.j"),
            ParseError::NonEquiJoin(_)
        ));
        assert!(matches!(
            err("SELECT * FROM r WHERE r.a = r.j"),
            ParseError::SelfJoin(_)
        ));
        assert!(matches!(err("SELECT r FROM r"), ParseError::Unexpected { .. }));
        assert!(matches!(err("SELECT * FROM r WHERE"), ParseError::Unexpected { .. }));
        assert!(matches!(err("SELECT * FROM r extra"), ParseError::Unexpected { .. }));
        assert!(matches!(err("SELECT * FROM r WHERE r.a ! 3"), ParseError::Lex(_)));
    }

    #[test]
    fn order_by_is_parsed_and_propagated() {
        use dqep_algebra::{PhysProps, SortOrder};
        let cat = catalog();
        let q = parse_query(
            "SELECT * FROM r WHERE r.a < :x ORDER BY r.a",
            &cat,
        )
        .unwrap();
        let attr = cat.relation_by_name("r").unwrap().attr_id("a").unwrap();
        assert_eq!(q.order_by, Some(attr));
        assert_eq!(q.required_props(), PhysProps::sorted(attr));
        // Without the clause: no requirement.
        let q2 = parse_query("SELECT * FROM r", &cat).unwrap();
        assert_eq!(q2.order_by, None);
        // Errors: missing BY, unqualified attribute.
        assert!(matches!(
            parse_query("SELECT * FROM r ORDER r.a", &cat),
            Err(ParseError::Unexpected { .. })
        ));
        let _ = SortOrder::None;
    }

    #[test]
    fn parsed_plans_optimize() {
        use dqep_cost::Environment;
        let cat = catalog();
        let q = parse_query(
            "SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x",
            &cat,
        )
        .unwrap();
        let env = Environment::dynamic_compile_time(&cat.config);
        // No indexes in this catalog: the optimizer still produces a plan
        // (file scans + hash/merge joins).
        let result = dqep_core::Optimizer::new(&cat, &env).optimize(&q.expr);
        assert!(result.is_ok());
    }

    /// A relation past the 64 a query can span is refused at its name:
    /// the parser answers, where the relation set would have panicked.
    #[test]
    fn a_relation_past_the_limit_is_a_parse_error() {
        let cat = (0..65)
            .fold(CatalogBuilder::new(SystemConfig::paper_1994()), |b, i| {
                b.relation(&format!("t{i}"), 10, 64, |r| r.attr("a", 10.0))
            })
            .build()
            .unwrap();
        assert!(parse_query("SELECT * FROM t63 WHERE t63.a < :x", &cat).is_ok());
        let text = "SELECT * FROM t0,  t64 WHERE t64.a < :x";
        let err = parse_query(text, &cat).unwrap_err();
        let at = text.find("t64").unwrap();
        let ParseError::TooManyRelations { name, offset } = &err else {
            panic!("{err:?}");
        };
        assert_eq!((name.as_str(), *offset), ("t64", at));
        assert!(err.to_string().contains("at most 64 relations"), "{err}");
    }
}
