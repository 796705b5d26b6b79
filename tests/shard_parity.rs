//! Sharded-execution parity: a query distributed across shard replicas
//! with repartitioning exchange and per-shard arbitration must produce
//! the same result **multiset** as plain single-node dynamic execution —
//! across random chain workloads, shard counts {1, 2, 4}, DOP {1, 2},
//! both execution modes, injected link faults (within the retransmission
//! budget), and governed memory. Divergent per-shard winners are a
//! legitimate — and asserted — behaviour, never a correctness excuse.

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    compile_dynamic_plan, drain, ExecContext, ExecError, LinkFaultPlan, ReoptConfig,
    Resource, ResourceLimits, SharedCounters, Tuple, TupleLayout, FRAME_HEADER_BYTES,
};
use dqep::optimizer::Optimizer;
use dqep::service::{ServiceError, ShardConfig, ShardRouting, ShardedService};
use dqep::sql::parse_query;
use dqep::storage::{StoredDatabase, ValueDistribution};
use proptest::prelude::*;

/// The same randomized 1–3 relation chain workload as the other parity
/// suites, expressed through the SQL front end so the sharded service's
/// whole path (parse → distribute → arbitrate → exchange → merge) is
/// under test.
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
    selected: Vec<bool>,
    order_by: bool,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=3).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..400, n),
            proptest::collection::vec(0.2f64..1.25, n),
            proptest::collection::vec(any::<bool>(), n),
            any::<bool>(),
        )
            .prop_map(|(cards, domain_factors, mut selected, order_by)| {
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload {
                    cards,
                    domain_factors,
                    selected,
                    order_by,
                }
            })
    })
}

/// Builds the catalog plus the SQL text and host-variable bindings of
/// the workload's chain query.
fn build(w: &RandomWorkload, sel: f64) -> (Catalog, String, Vec<(String, i64)>) {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, (&card, &f)) in w.cards.iter().zip(&w.domain_factors).enumerate() {
        let name = format!("t{i}");
        let jdomain = (card as f64 * f).max(1.0).round();
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid random catalog");

    let from: Vec<String> = (0..w.cards.len()).map(|i| format!("t{i}")).collect();
    let mut preds: Vec<String> = (1..w.cards.len())
        .map(|i| format!("t{}.j = t{i}.j", i - 1))
        .collect();
    let mut binds = Vec::new();
    for (i, &selected) in w.selected.iter().enumerate() {
        if selected {
            preds.push(format!("t{i}.a < :v{i}"));
            let domain = catalog.relations()[i].attributes[0].domain_size;
            binds.push((format!("v{i}"), (sel * domain) as i64));
        }
    }
    let mut sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
    if w.order_by {
        sql.push_str(" ORDER BY t0.a");
    }
    (catalog, sql, binds)
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

/// Plain single-node execution over a database generated with the exact
/// seed and per-attribute distribution profile the sharded service uses
/// for its global data, remapped to the canonical `FROM`-order layout
/// the sharded result uses.
fn single_node_rows(
    catalog: &Catalog,
    sql: &str,
    binds: &[(&str, i64)],
    config: &ShardConfig,
    canonical: &TupleLayout,
) -> Result<Vec<Tuple>, ExecError> {
    let dist = config.skew.map_or(ValueDistribution::Uniform, |exponent| {
        ValueDistribution::Zipf { exponent }
    });
    let db = StoredDatabase::generate_profiled(catalog, config.data_seed, |_, ai| {
        if ai == 0 {
            dist
        } else {
            ValueDistribution::Uniform
        }
    });
    let env = Environment::dynamic_compile_time(&catalog.config);
    let query = parse_query(sql, catalog).expect("workload SQL parses");
    let mut bindings = Bindings::new();
    for &(name, value) in binds {
        let var = query.host_var(name).expect("known host var");
        bindings = bindings.with_value(var, value);
    }
    let memory = (env.memory.expected() * f64::from(catalog.config.page_size)) as usize;
    let plan = Optimizer::new(catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .expect("workload optimizes")
        .plan;
    let ctx = ExecContext::with_limits(SharedCounters::new(), config.limits).with_dop(config.dop);
    let mut op = compile_dynamic_plan(&plan, &db, catalog, &env, &bindings, memory, &ctx)?;
    let layout = op.layout().clone();
    let rows = drain(op.as_mut())?;
    Ok(match canonical.projection_from(&layout) {
        None => rows,
        Some(proj) => rows
            .iter()
            .map(|row| proj.iter().map(|&i| row[i]).collect())
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random chain queries over shard counts {1, 2, 4} × DOP {1, 2},
    /// optionally under link faults (inside the
    /// retransmission budget) or a governed per-shard memory budget:
    /// identical result multisets whenever both paths succeed. A sharded
    /// failure where single-node succeeds is acceptable **only** as a
    /// governed memory refusal — never as a network or logic error.
    #[test]
    fn sharded_matches_single_node(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        dop in prop_oneof![Just(1usize), Just(2)],
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_frames in proptest::collection::vec(1u64..6, 0..3),
        mem_kb in 8u64..128,
    ) {
        let (catalog, sql, binds) = build(&w, sel);
        let limits = ResourceLimits {
            memory_bytes: (hazard == 2).then_some(mem_kb * 1024),
            ..ResourceLimits::unlimited()
        };
        let link_faults = if hazard == 1 {
            // Every injected drop retransmits within budget: parity must
            // survive the fault plan untouched.
            LinkFaultPlan {
                max_retransmits: fault_frames.len() as u32 + 2,
                fail_nth_frames: fault_frames,
            }
        } else {
            LinkFaultPlan::none()
        };
        let config = ShardConfig {
            shards,
            dop,
            limits,
            link_faults,
            data_seed: seed,
            ..ShardConfig::default()
        };

        let svc = ShardedService::new(catalog.clone(), config.clone());
        let outcome = svc.execute(&sql, &bind_refs(&binds));

        match outcome {
            Ok(out) => {
                let baseline = single_node_rows(
                    &catalog, &sql, &bind_refs(&binds), &config, &out.layout,
                );
                if let Ok(expected) = baseline {
                    prop_assert_eq!(
                        sorted(out.rows.clone()),
                        sorted(expected),
                        "multisets diverged (shards={} dop={} hazard={})",
                        shards, dop, hazard
                    );
                }
                // else: single-node refused under the same governed
                // budget the shards absorbed — graceful degradation.
                if w.order_by {
                    let key = out.layout.require(
                        catalog.relations()[0].attr_id("a").expect("attr a"),
                    );
                    prop_assert!(
                        out.rows.windows(2).all(|p| p[0][key] <= p[1][key]),
                        "ORDER BY violated after gather merge"
                    );
                }
            }
            Err(ServiceError::Exec(ExecError::ResourceExhausted(Resource::Memory { .. })))
                if hazard == 2 => {} // governed refusal under a tight grant
            Err(e) => prop_assert!(
                false,
                "sharded execution failed where it must not \
                 (shards={shards} dop={dop} hazard={hazard}): {e:?}"
            ),
        }
    }

    /// Determinism: the same workload executed twice on identically
    /// configured services reproduces the identical row order, audit
    /// winners, and per-shard row counts.
    #[test]
    fn sharded_execution_is_deterministic(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        shards in prop_oneof![Just(2usize), Just(4)],
    ) {
        let (catalog, sql, binds) = build(&w, sel);
        let config = ShardConfig { shards, data_seed: seed, ..ShardConfig::default() };
        let run = |cat: Catalog| {
            ShardedService::new(cat, config.clone())
                .execute(&sql, &bind_refs(&binds))
                .expect("unhazarded run succeeds")
        };
        let (a, b) = (run(catalog.clone()), run(catalog));
        prop_assert_eq!(a.rows, b.rows, "row order must be reproducible");
        prop_assert_eq!(a.per_shard_rows, b.per_shard_rows);
        let winners = |o: &dqep::service::ShardOutcome| -> Vec<Vec<Option<usize>>> {
            o.audits
                .iter()
                .map(|s| s.iter().map(|audit| audit.winner).collect())
                .collect()
        };
        prop_assert_eq!(winners(&a), winners(&b), "audit trails must be reproducible");
    }
}

fn bind_refs(binds: &[(String, i64)]) -> Vec<(&str, i64)> {
    binds.iter().map(|(n, v)| (n.as_str(), *v)).collect()
}

/// Deterministic divergent-winner scenario: range partitioning over
/// Zipf-skewed data concentrates the matching values on few shards, so
/// bind-time arbitration legitimately resolves differently per shard —
/// asserted through the choose-plan audit trail — while the merged
/// result stays equal to forcing the single-node winner everywhere.
#[test]
fn divergent_winners_are_audited_and_parity_preserving() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("t0", 4_000, 512, |r| {
            r.attr("a", 4_000.0).attr("j", 400.0).btree("a", false).btree("j", false)
        })
        .build()
        .expect("catalog");
    let skewed = |force: bool| ShardConfig {
        shards: 4,
        routing: ShardRouting::Range { attr: 0 },
        skew: Some(1.2),
        force_uniform_winner: force,
        ..ShardConfig::default()
    };
    let sql = "SELECT * FROM t0 WHERE t0.a < :v0";
    let binds = [("v0", 120i64)];

    let per_shard = ShardedService::new(catalog.clone(), skewed(false))
        .execute(sql, &binds)
        .expect("per-shard arbitration runs");
    let forced = ShardedService::new(catalog, skewed(true))
        .execute(sql, &binds)
        .expect("forced-uniform run");

    assert!(
        per_shard.divergent(),
        "skewed range partitions must produce divergent winners, got {:?}",
        per_shard.winner_counts()
    );
    assert!(
        per_shard.winner_counts().len() >= 2,
        "at least two distinct alternatives must win somewhere"
    );
    assert!(
        !forced.divergent(),
        "a coordinator-resolved broadcast has nothing left to diverge"
    );
    assert_eq!(
        sorted(per_shard.rows),
        sorted(forced.rows),
        "winner choice never changes the result multiset"
    );
}

/// The CLI's two-relation chain (`--relations 2`, seed 42) and the
/// statements the two tests below run on it.
fn chain2() -> Catalog {
    use dqep::catalog::{make_chain_catalog, SyntheticSpec};
    make_chain_catalog(&SyntheticSpec::paper(2, 42), SystemConfig::paper_1994())
}
const CHAIN_SCAN: &str = "SELECT * FROM R1 WHERE R1.a < :v1";
const CHAIN_JOIN: &str =
    "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v1 AND R2.a < :v2";

/// Re-optimizing access stages change what a shard may observe on the
/// way, not what the query answers nor how its arbitrations are audited:
/// every choose-plan operator that opens is audited once, by itself, with
/// or without `ShardConfig::reopt` — same audits per shard, same winner
/// counts, same divergent nodes — and the multiset is the single node's.
#[test]
fn reopt_access_stages_answer_and_audit_like_plain_ones() {
    let skewed = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("t0", 4_000, 512, |r| {
            r.attr("a", 4_000.0).attr("j", 400.0).btree("a", false).btree("j", false)
        })
        .build()
        .expect("catalog");
    let divergent = ShardConfig {
        shards: 4,
        routing: ShardRouting::Range { attr: 0 },
        skew: Some(1.2),
        ..ShardConfig::default()
    };
    let check = |catalog: Catalog, sql: &str, binds: &[(&str, i64)], config: ShardConfig| {
        let reopt = ShardConfig { reopt: Some(ReoptConfig::default()), ..config.clone() };
        let plain = ShardedService::new(catalog.clone(), config.clone())
            .execute(sql, binds)
            .expect("plain access stages");
        let service = ShardedService::new(catalog.clone(), reopt);
        let out = service.execute(sql, binds).expect("re-optimizing access stages");

        let audits = |o: &dqep::service::ShardOutcome| -> Vec<usize> {
            o.audits.iter().map(Vec::len).collect()
        };
        assert!(audits(&plain).iter().all(|&n| n >= 1), "{sql}: nothing to compare");
        assert_eq!(audits(&out), audits(&plain), "{sql}: audits per shard");
        assert_eq!(out.winner_counts(), plain.winner_counts(), "{sql}");
        assert_eq!(out.divergent_nodes, plain.divergent_nodes, "{sql}");
        assert_eq!(
            service.metrics().get(dqep::service::Metric::ShardDivergentNodes),
            plain.divergent_nodes.len() as u64,
            "{sql}: the metric inherits the audits"
        );
        let expected = single_node_rows(&catalog, sql, binds, &config, &out.layout)
            .expect("single-node run");
        assert_eq!(sorted(out.rows), sorted(expected), "{sql}");
    };
    check(chain2(), CHAIN_SCAN, &[("v1", 500)], ShardConfig::default());
    check(chain2(), CHAIN_JOIN, &[("v1", 500), ("v2", 500)], ShardConfig::default());
    check(skewed, "SELECT * FROM t0 WHERE t0.a < :v0", &[("v0", 120)], divergent);
}

/// One meaning for the row budget: an access stage is an intermediate
/// result, whichever way it runs. A budget between the result (102 rows)
/// and what an access stage scans admits the query with and without
/// re-optimization.
#[test]
fn row_budget_does_not_count_access_stages_with_or_without_reopt() {
    let binds = [("v1", 500i64), ("v2", 500)];
    let limits = ResourceLimits { max_rows: Some(150), ..ResourceLimits::unlimited() };
    let run = |reopt| {
        let config = ShardConfig { limits, reopt, ..ShardConfig::default() };
        ShardedService::new(chain2(), config).execute(CHAIN_JOIN, &binds)
    };
    let plain = run(None).expect("the result fits");
    let staged = ShardedService::new(chain2(), ShardConfig::default())
        .execute(CHAIN_SCAN, &binds[..1])
        .expect("the first access stage alone");
    assert!(plain.rows.len() < 150 && staged.rows.len() > 150, "the budget must lie between");
    let reopt = run(Some(ReoptConfig::default())).expect("and fits under re-optimization too");
    assert_eq!(sorted(reopt.rows), sorted(plain.rows));
}

/// Relations `t0..tn` of `card` rows with a selection attribute `a`, a
/// join attribute `j` and a second, low-cardinality join attribute `k`.
/// No index on `a`: a predicate on it can only run as a filter over the
/// file scan, so its batches carry selection vectors.
fn two_key_catalog(relations: usize, card: u64) -> Catalog {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for i in 0..relations {
        builder = builder.relation(&format!("t{i}"), card, 64, |r| {
            r.attr("a", card as f64)
                .attr("j", (card / 4) as f64)
                .attr("k", 3.0)
                .btree("j", false)
        });
    }
    builder.build().expect("valid catalog")
}

/// Two relations connected by **two** equi-predicates: the first routes
/// and joins, the second is a residual the sharded path applies as a
/// selection vector — on the last stage (straight into the sort and the
/// gather) and on an inner stage (into the next repartition). Both must
/// match single-node execution, whose join takes both predicates as keys.
#[test]
fn residual_equi_predicates_match_single_node() {
    let catalog = two_key_catalog(3, 600);
    let queries = [
        "SELECT * FROM t0, t1 WHERE t0.j = t1.j AND t0.k = t1.k AND t0.a < :v",
        "SELECT * FROM t0, t1, t2 WHERE t0.j = t1.j AND t0.k = t1.k AND t1.j = t2.j \
         AND t0.a < :v ORDER BY t0.a",
        "SELECT * FROM t0, t1, t2 WHERE t0.j = t1.j AND t1.j = t2.j AND t0.k = t2.k \
         AND t0.a < :v ORDER BY t0.a",
    ];
    let binds = [("v", 400i64)];
    for sql in queries {
        for shards in [2, 4] {
            let config = ShardConfig { shards, ..ShardConfig::default() };
            let out = ShardedService::new(catalog.clone(), config.clone())
                .execute(sql, &binds)
                .expect("sharded run");
            let expected = single_node_rows(&catalog, sql, &binds, &config, &out.layout)
                .expect("single-node run");
            assert!(!expected.is_empty(), "the residual must leave something to compare");
            assert_eq!(sorted(out.rows), sorted(expected), "{shards} shards: {sql}");
        }
    }
}

/// A per-shard memory budget below the join table's full footprint but
/// above an eighth of it: the local join degrades to a chunked build —
/// counted as a fallback on every shard — and still returns the multiset
/// an ungoverned single node does.
#[test]
fn governed_memory_forces_the_chunked_build() {
    let catalog = two_key_catalog(2, 600);
    let sql = "SELECT * FROM t0, t1 WHERE t0.j = t1.j ORDER BY t0.a";
    // Each shard builds on about 300 rows of (3 x 8 + 48) bytes: 21 KiB
    // in full, under 3 KiB at an eighth.
    let config = ShardConfig {
        shards: 2,
        limits: ResourceLimits { memory_bytes: Some(6 * 1024), ..ResourceLimits::unlimited() },
        ..ShardConfig::default()
    };
    let out = ShardedService::new(catalog.clone(), config.clone())
        .execute(sql, &[])
        .expect("the ladder absorbs the refusal");
    assert!(out.fallbacks >= 2, "every shard degraded: {}", out.fallbacks);
    let ungoverned = ShardConfig { limits: ResourceLimits::unlimited(), ..config };
    let expected = single_node_rows(&catalog, sql, &[], &ungoverned, &out.layout)
        .expect("single-node run");
    assert_eq!(sorted(out.rows), sorted(expected));
}

/// Filtered batches are compacted before the wire: a scan-and-gather
/// whose every batch carries a selection vector puts exactly one header
/// per frame plus its *live* rows on the gather links — no dead rows, no
/// selection vectors.
#[test]
fn filtered_gather_puts_only_live_rows_on_the_wire() {
    let catalog = two_key_catalog(1, 3_000);
    let out = ShardedService::new(catalog, ShardConfig { shards: 2, ..ShardConfig::default() })
        .execute("SELECT * FROM t0 WHERE t0.a < :v", &[("v", 1_000)])
        .expect("sharded run");
    assert!(
        (500..2_000).contains(&out.rows.len()),
        "the filter must be partial for this to test anything: {} rows",
        out.rows.len()
    );
    let dense = out.net.frames * FRAME_HEADER_BYTES as u64
        + (out.rows.len() * out.layout.width() * 8) as u64;
    assert_eq!(out.net.bytes, dense, "{:?}", out.net);
}
