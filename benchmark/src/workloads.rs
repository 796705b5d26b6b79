//! The four workloads: catalogs, statement shapes and request lists.
//!
//! Everything a segment executes is generated here from `--seed`; the
//! system under test only ever sees the generated SQL text and bindings.
//! What is frozen (and therefore equal for every seed) is the *shape*:
//! relation sizes, statement templates, binding sets, and how often each
//! (statement, binding) class occurs in a list, and the stored values of
//! the small chain relations. What the seed draws is every stored value of
//! `fact` and `dim` and the order of every list.

use dqep::catalog::{make_chain_catalog, Catalog, CatalogBuilder, SyntheticSpec, SystemConfig};

/// Seed of the chain catalog's shape (relation cardinalities and join
/// domains). Frozen: relation sizes of 100–1 000 records would otherwise
/// move every metric by integer factors between seeds.
const CHAIN_SHAPE_SEED: u64 = 7;
/// Seed of the chain database's stored values. Frozen for the same
/// reason: redrawing 100–1 000 records per relation moved the executed
/// work of `prepared_hot` by 8 % and its simulated cost by 11 % between
/// seeds in sizing runs, more than any bound this benchmark could hold.
const CHAIN_DATA_SEED: u64 = 1989;
/// Relations in the chain catalog (the paper's largest query joins ten).
const CHAIN_RELATIONS: usize = 10;

/// Rows of `fact` / `dim` in the scan-heavy workloads.
const FACT_ROWS: u64 = 12_000;
const DIM_ROWS: u64 = 6_000;

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three prepared chain statements, every cache hit.
    PreparedHot,
    /// Every request a new statement text: parse, optimize, decide, evict.
    AdhocOptimize,
    /// Scan, join and sort kernels over 12 000- and 6 000-row relations.
    ExecScale,
    /// Two-shard repartition joins and gathers, planned on every call.
    ShardJoin,
}

impl Workload {
    /// All workloads, in the order segments interleave.
    pub const ALL: [Workload; 4] = [
        Workload::PreparedHot,
        Workload::AdhocOptimize,
        Workload::ExecScale,
        Workload::ShardJoin,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PreparedHot => "prepared_hot",
            Workload::AdhocOptimize => "adhoc_optimize",
            Workload::ExecScale => "exec_scale",
            Workload::ShardJoin => "shard_join",
        }
    }

    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PreparedHot => "prepared chain statements on hot caches: per-plan executor cost (compile, open, small drains) and the service hand-off dominate; optimizer work is zero",
            Workload::AdhocOptimize => "every request a new 4-10 relation text: parse, dynamic-plan optimization, start-up decision and registry eviction dominate",
            Workload::ExecScale => "scan, hash join and external sort over 12000- and 6000-row relations under the 64-page grant: per-row executor and storage cost dominates",
            Workload::ShardJoin => "two-shard repartition joins and gathers planned on every call: distribute, frame codec, row-wise local join and k-way merge dominate",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times each class occurs in the frozen request list; the
    /// list length is this times the number of classes. Calibrated once
    /// for segments of about one second on the sizing machine.
    fn repeats(self) -> usize {
        match self {
            Workload::PreparedHot => 1600,
            Workload::AdhocOptimize => 18,
            Workload::ExecScale => 5,
            Workload::ShardJoin => 8,
        }
    }

    /// Share of the list replayed as warm-up at the end of set-up. Raised
    /// from a tenth until set-up is mostly deterministic work at a stable
    /// rate: at 10 % it was 90–150 ms and differed by 8–11 % between runs.
    pub fn warmup_share(self) -> f64 {
        0.20
    }

    /// Whether the workload runs through `ShardedService`.
    pub fn sharded(self) -> bool {
        self == Workload::ShardJoin
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// An attribute as `(index into the FROM list, attribute name)`.
pub type AttrRef = (usize, &'static str);

/// `from[rel].attr < :var`, with `var` bound to `value`.
#[derive(Debug, Clone)]
pub struct Filter {
    pub rel: usize,
    pub attr: &'static str,
    pub var: String,
    pub value: i64,
}

/// One (statement, binding) class in a form both sides can read: the
/// workload renders it to SQL text plus bindings for the system, and the
/// oracle evaluates it directly, sharing no parser and no executor.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub from: Vec<String>,
    /// Equi-joins as `((rel, attr), (rel, attr))` over `from` indexes.
    pub joins: Vec<(AttrRef, AttrRef)>,
    pub filters: Vec<Filter>,
    pub order_by: Option<AttrRef>,
}

impl QuerySpec {
    /// The statement text. `literal` adds the predicate `R1.jl >= literal`
    /// — true for every row when negative — which makes the text new to
    /// the statement registry without changing the answer.
    pub fn sql(&self, literal: Option<i64>) -> String {
        let mut preds: Vec<String> = self
            .joins
            .iter()
            .map(|((lr, la), (rr, ra))| {
                format!("{}.{la} = {}.{ra}", self.from[*lr], self.from[*rr])
            })
            .collect();
        for f in &self.filters {
            preds.push(format!("{}.{} < :{}", self.from[f.rel], f.attr, f.var));
        }
        if let Some(lit) = literal {
            preds.push(format!("{}.jl >= {lit}", self.from[0]));
        }
        let mut sql = format!("SELECT * FROM {}", self.from.join(", "));
        if !preds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&preds.join(" AND "));
        }
        if let Some((rel, attr)) = self.order_by {
            sql.push_str(&format!(" ORDER BY {}.{attr}", self.from[rel]));
        }
        sql
    }

    /// Host-variable bindings by name.
    pub fn binds(&self) -> Vec<(String, i64)> {
        self.filters
            .iter()
            .map(|f| (f.var.clone(), f.value))
            .collect()
    }
}

/// Bindings in the borrowed form `Query::bindings` and
/// `ShardedService::execute` take.
pub fn bind_refs(binds: &[(String, i64)]) -> Vec<(&str, i64)> {
    binds.iter().map(|(n, v)| (n.as_str(), *v)).collect()
}

/// One request as the system receives it.
pub struct Request {
    pub sql: String,
    pub binds: Vec<(String, i64)>,
}

/// A workload instantiated for one seed.
pub struct Plan {
    pub workload: Workload,
    pub catalog: Catalog,
    /// The `--seed` the inputs were made from.
    pub seed: u64,
    /// Seed of every stored value: `seed` for `fact`/`dim`, frozen for
    /// the chain relations.
    pub data_seed: u64,
    /// The distinct (statement, binding) classes.
    pub classes: Vec<QuerySpec>,
    /// Class index per list position.
    pub list: Vec<usize>,
}

impl Plan {
    /// Builds the workload's inputs from `seed`. `quick` keeps the first
    /// tenth of the list.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Plan {
        let mut rng = Rng::new(seed ^ 0xD1CE_5EED);
        let (catalog, data_seed) = match workload {
            Workload::PreparedHot | Workload::AdhocOptimize => (chain_catalog(), CHAIN_DATA_SEED),
            Workload::ExecScale | Workload::ShardJoin => (star_catalog(), seed),
        };
        let classes = match workload {
            Workload::PreparedHot => {
                chain_classes(&catalog, &[(2, 0.0, 1.0), (3, 0.0, 0.5), (4, 0.0, 0.3)], 6)
            }
            Workload::AdhocOptimize => chain_classes(
                &catalog,
                &[
                    (4, 0.02, 0.15),
                    (6, 0.02, 0.15),
                    (8, 0.02, 0.15),
                    (10, 0.02, 0.15),
                ],
                16,
            ),
            Workload::ExecScale => star_classes(&catalog, 8, false),
            Workload::ShardJoin => star_classes(&catalog, 9, true),
        };
        let mut list: Vec<usize> = (0..classes.len() * workload.repeats())
            .map(|i| i % classes.len())
            .collect();
        rng.shuffle(&mut list);
        if quick {
            list.truncate((list.len() / 10).max(classes.len().min(list.len())));
        }
        Plan {
            workload,
            catalog,
            seed,
            data_seed,
            classes,
            list,
        }
    }

    /// Positions replayed as warm-up before the timed pass.
    pub fn warmup_len(&self) -> usize {
        ((self.list.len() as f64 * self.workload.warmup_share()).ceil() as usize).max(1)
    }

    /// The request at `position`. Ad-hoc texts carry a literal unique to
    /// the round, the pass and the position, so no text ever repeats
    /// within a service's lifetime.
    pub fn request(&self, position: usize, round: usize, warmup: bool) -> Request {
        let class = &self.classes[self.list[position]];
        let literal = (self.workload == Workload::AdhocOptimize).then(|| {
            let pass = round as i64 * 2 + i64::from(warmup);
            -(1 + pass * 1_000_000 + position as i64)
        });
        Request {
            sql: class.sql(literal),
            binds: class.binds(),
        }
    }
}

fn chain_catalog() -> Catalog {
    make_chain_catalog(
        &SyntheticSpec::paper(CHAIN_RELATIONS, CHAIN_SHAPE_SEED),
        SystemConfig::paper_1994(),
    )
}

fn star_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", FACT_ROWS, 256, |r| {
            r.attr("a", FACT_ROWS as f64)
                .attr("j", DIM_ROWS as f64)
                .btree("a", false)
        })
        .relation("dim", DIM_ROWS, 256, |r| {
            r.attr("a", DIM_ROWS as f64)
                .attr("j", DIM_ROWS as f64)
                .btree("j", false)
        })
        .build()
        .expect("benchmark catalog is well-formed")
}

/// The value `v` for which `rel.a < v` selects about `share` of a
/// uniform `[0, domain)` column.
fn bound_for(catalog: &Catalog, rel: &str, share: f64) -> i64 {
    let rel = catalog.relation_by_name(rel).expect("relation exists");
    let attr = rel.attr_id("a").expect("selection attribute exists");
    (share * catalog.attribute(attr).domain_size).round() as i64
}

/// The middle of stratum `stratum` of `strata` equal cuts of `[lo, hi]`.
/// Binding sets are frozen: a drawn share would move the executed work by
/// several per cent between seeds.
fn stratum_share(lo: f64, hi: f64, stratum: usize, strata: usize) -> f64 {
    lo + (stratum as f64 + 0.5) / strata as f64 * (hi - lo)
}

/// Chain statements `R1 ⋈ … ⋈ Rk` with one host-variable selection per
/// relation; `shapes` lists `(k, lo, hi)` selectivity ranges and `tuples`
/// the binding tuples per statement. Tuple `t` binds variable `i` at the
/// middle of a fixed stratum of the range (a Latin-square pairing), so
/// every statement sees every part of its range on every variable.
fn chain_classes(catalog: &Catalog, shapes: &[(usize, f64, f64)], tuples: usize) -> Vec<QuerySpec> {
    let mut classes = Vec::new();
    for &(k, lo, hi) in shapes {
        let from: Vec<String> = (1..=k).map(|i| format!("R{i}")).collect();
        let joins = (0..k - 1)
            .map(|i| ((i, "jr"), (i + 1, "jl")))
            .collect::<Vec<_>>();
        for t in 0..tuples {
            let filters = (0..k)
                .map(|i| {
                    let diagonal = if i % 2 == 0 {
                        t + i
                    } else {
                        2 * tuples - 1 - t + i
                    };
                    let stratum = diagonal % tuples;
                    Filter {
                        rel: i,
                        attr: "a",
                        var: format!("v{}", i + 1),
                        value: bound_for(catalog, &from[i], stratum_share(lo, hi, stratum, tuples)),
                    }
                })
                .collect();
            classes.push(QuerySpec {
                from: from.clone(),
                joins: joins.clone(),
                filters,
                order_by: None,
            });
        }
    }
    classes
}

/// The three `fact`/`dim` statements, each bound at `tuples` selectivities
/// spread over 50–90 %. `sharded` swaps the sort for a scan-and-gather and
/// orders the second join, the shapes the sharded coordinator treats
/// differently (concatenating gather against k-way merge).
fn star_classes(catalog: &Catalog, tuples: usize, sharded: bool) -> Vec<QuerySpec> {
    let fact_lt = |stratum: usize| Filter {
        rel: 0,
        attr: "a",
        var: "x".into(),
        value: bound_for(catalog, "fact", stratum_share(0.5, 0.9, stratum, tuples)),
    };
    let both = || vec!["fact".to_string(), "dim".to_string()];
    let on_j = || vec![((0, "j"), (1, "j"))];
    let mut classes = Vec::new();
    for t in 0..tuples {
        // Statement 0: the plain join.
        classes.push(QuerySpec {
            from: both(),
            joins: on_j(),
            filters: vec![fact_lt(t)],
            order_by: None,
        });
        // Statement 1: one relation, sorted (single node) or gathered (sharded).
        classes.push(QuerySpec {
            from: vec!["fact".to_string()],
            joins: Vec::new(),
            filters: vec![fact_lt(t)],
            order_by: (!sharded).then_some((0, "j")),
        });
        // Statement 2: the join filtered on both sides; ordered when sharded.
        let dim_lt = Filter {
            rel: 1,
            attr: "a",
            var: "y".into(),
            value: bound_for(
                catalog,
                "dim",
                stratum_share(0.5, 0.9, tuples - 1 - t, tuples),
            ),
        };
        classes.push(QuerySpec {
            from: both(),
            joins: on_j(),
            filters: vec![fact_lt(t), dim_lt],
            order_by: sharded.then_some((0, "a")),
        });
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        for w in Workload::ALL {
            let (a, b, c) = (
                Plan::new(w, 3, false),
                Plan::new(w, 3, false),
                Plan::new(w, 4, false),
            );
            assert_eq!(a.list, b.list);
            let texts = |p: &Plan| -> Vec<(String, Vec<(String, i64)>)> {
                (0..p.list.len().min(40))
                    .map(|i| {
                        let r = p.request(i, 0, false);
                        (r.sql, r.binds)
                    })
                    .collect()
            };
            assert_eq!(texts(&a), texts(&b), "{}", w.name());
            assert_ne!(texts(&a), texts(&c), "{}", w.name());
            // The class mix is frozen: every class occurs equally often.
            let mut counts = vec![0usize; c.classes.len()];
            c.list.iter().for_each(|&k| counts[k] += 1);
            assert!(counts.iter().all(|&n| n == w.repeats()), "{}", w.name());
        }
    }

    #[test]
    fn adhoc_texts_never_repeat_and_parse() {
        let plan = Plan::new(Workload::AdhocOptimize, 11, true);
        let mut seen = std::collections::HashSet::new();
        for round in 0..2 {
            for warmup in [true, false] {
                for pos in 0..plan.list.len() {
                    let r = plan.request(pos, round, warmup);
                    dqep::sql::parse_query(&r.sql, &plan.catalog).expect("generated SQL parses");
                    assert!(
                        seen.insert(r.sql),
                        "text repeated at {round}/{warmup}/{pos}"
                    );
                }
            }
        }
    }
}
