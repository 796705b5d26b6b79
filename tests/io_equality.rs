//! The page charges of the benchmark-shaped workloads, pinned.
//!
//! The paper prices execution in page I/Os, and the engine charges exactly
//! those, so how a page lays out its bytes must not show in any of them.
//! The table below was recorded before base pages became column pages and
//! must stay equal byte for byte: the page count of every relation of the
//! chain catalog (`paper(10, 7)`, data seed 1989) and of `fact`/`dim`, and
//! the sequential, random and written pages and the rows of the three
//! single-node `fact`/`dim` statements and of one two-shard join, at data
//! seed 7.

use dqep::catalog::{make_chain_catalog, Catalog, CatalogBuilder, SyntheticSpec, SystemConfig};
use dqep::service::{QueryService, Request, ServiceConfig, ShardConfig, ShardedService};
use dqep::storage::{IoStats, StoredDatabase};

/// The star catalog of the scan-heavy workloads: 12 000 `fact` and 6 000
/// `dim` rows of 256 bytes.
fn star_catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", 12_000, 256, |r| r.attr("a", 12_000.0).attr("j", 6_000.0).btree("a", false))
        .relation("dim", 6_000, 256, |r| r.attr("a", 6_000.0).attr("j", 6_000.0).btree("j", false))
        .build()
        .unwrap()
}

/// `relation=pages` for every relation of `catalog`, in catalog order.
fn page_counts(catalog: &Catalog, data_seed: u64) -> String {
    let db = StoredDatabase::generate(catalog, data_seed);
    let counts: Vec<String> = catalog
        .relations()
        .iter()
        .map(|rel| format!("{}={}", rel.name, db.table(rel.id).heap.page_count()))
        .collect();
    counts.join(" ")
}

fn io(stats: &IoStats) -> String {
    format!("seq={} rand={} writes={}", stats.seq_reads, stats.random_reads, stats.writes)
}

/// The three statements of the single-node scan-heavy workload — the plain
/// join, one relation sorted, the join filtered on both sides — each at
/// the lowest and the highest of its bindings.
const STATEMENTS: [&str; 3] = [
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x",
    "SELECT * FROM fact WHERE fact.a < :x ORDER BY fact.j",
    "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x AND dim.a < :y",
];

fn table() -> Vec<String> {
    let mut lines = vec![
        format!("chain {}", page_counts(&make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994()), 1989)),
        format!("star {}", page_counts(&star_catalog(), 7)),
    ];
    let config = ServiceConfig { workers: 1, registry_capacity: 64, data_seed: 7, ..ServiceConfig::default() };
    let service = QueryService::new(star_catalog(), config);
    for (s, sql) in STATEMENTS.iter().enumerate() {
        for (x, y) in [(6_250, 5_250), (10_750, 3_250)] {
            let binds = vec![("x".to_string(), x), ("y".to_string(), y)];
            let binds = if s == 2 { binds } else { binds[..1].to_vec() };
            let request = Request { sql: (*sql).to_string(), binds, ..Request::default() };
            let summary = service.execute(request).unwrap().summary;
            lines.push(format!("statement {s} x={x}: {} rows={}", io(&summary.io), summary.rows));
        }
    }
    let sharded = ShardedService::new(star_catalog(), ShardConfig { shards: 2, data_seed: 7, ..ShardConfig::default() });
    let before: Vec<IoStats> = sharded.shards().iter().map(|s| s.db.disk.stats()).collect();
    let outcome = sharded.execute(STATEMENTS[0], &[("x", 8_500)]).unwrap();
    for (s, (shard, before)) in sharded.shards().iter().zip(&before).enumerate() {
        lines.push(format!("shard {s} of 2 join x=8500: {}", io(&shard.db.disk.stats().since(before))));
    }
    lines.push(format!("2-shard join x=8500: rows={}", outcome.rows.len()));
    lines
}

const RECORDED: &[&str] = &[
    "chain R1=66 R2=58 R3=82 R4=137 R5=329 R6=217 R7=48 R8=286 R9=230 R10=195",
    "star fact=1715 dim=858",
    "statement 0 x=6250: seq=2392 rand=1939 writes=1758 rows=6298",
    "statement 0 x=10750: seq=2397 rand=2573 writes=2397 rows=10779",
    "statement 1 x=6250: seq=2494 rand=124 writes=903 rows=6247",
    "statement 1 x=10750: seq=3142 rand=124 writes=1551 rows=10736",
    "statement 2 x=6250: seq=2394 rand=1829 writes=1650 rows=5541",
    "statement 2 x=10750: seq=2396 rand=2184 writes=2007 rows=5880",
    "shard 0 of 2 join x=8500: seq=1201 rand=91 writes=0",
    "shard 1 of 2 join x=8500: seq=1189 rand=92 writes=0",
    "2-shard join x=8500: rows=8483",
];

#[test]
fn page_charges_of_the_benchmark_shapes_are_unchanged() {
    let table = table();
    assert!(
        table == RECORDED,
        "the table moved; it reads\n{}",
        table.iter().map(|l| format!("    {l:?},")).collect::<Vec<_>>().join("\n")
    );
}
