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
//!
//! A second table pins what a B-tree is to the disk, recorded while its
//! nodes were pages of bytes: every index's height, node count and lowest
//! and highest node page, and the rows, pages and sequential/random reads
//! of eight fixed key ranges.

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

/// Every key range a B-tree line reads: the whole tree, two points, an
/// empty range, an empty and two non-empty open-ended ranges, and a
/// stretch across the middle of the smaller domains.
const KEY_RANGES: [(Option<i64>, Option<i64>); 8] = [
    (None, None),
    (Some(0), Some(0)),
    (Some(37), Some(37)),
    (Some(60), Some(59)),
    (None, Some(-1)),
    (None, Some(99)),
    (Some(400), None),
    (Some(150), Some(1150)),
];

/// A key range as Rust writes it: `..`, `0..=0`, `400..`.
fn span(lo: Option<i64>, hi: Option<i64>) -> String {
    format!("{}..{}", lo.map_or(String::new(), |v| v.to_string()), hi.map_or(String::new(), |v| format!("={v}")))
}

/// Two lines an index, in catalog order: its height, node count and
/// lowest and highest node page; and, for each of [`KEY_RANGES`] read on
/// its own (the disk's read position reset before it), the rows it
/// returns, the pages it reads and their sequential/random split.
fn btree_lines(name: &str, catalog: &Catalog, data_seed: u64) -> Vec<String> {
    let db = StoredDatabase::generate(catalog, data_seed);
    let mut lines = Vec::new();
    for rel in catalog.relations() {
        for &id in &rel.indexes {
            let tree = &db.table(rel.id).indexes[&id];
            let index = format!("{name} {}.{}", rel.name, rel.attribute(catalog.index(id).attr.index).name);
            let pages: Vec<_> = tree.node_pages().collect();
            let (lowest, highest) = (pages[0], pages[pages.len() - 1]);
            lines.push(format!("{index} height={} nodes={} pages={lowest}..={highest}", tree.height(), pages.len()));
            let mut reads = Vec::new();
            for (lo, hi) in KEY_RANGES {
                db.disk.reset_stats();
                let mut rows = 0;
                let pages = tree.range_scan(lo, hi, |_, _| rows += 1).unwrap();
                let io = db.disk.stats();
                reads.push(format!("{}:{rows}/{pages}/{}/{}", span(lo, hi), io.seq_reads, io.random_reads));
            }
            lines.push(format!("{index} rows/pages/seq/rand {}", reads.join(" ")));
        }
    }
    lines
}

/// Recorded while B-tree nodes were pages of bytes on the disk: the
/// chain catalog (`paper(10, 7)`, data seed 1989) and the star catalog
/// (data seed 8) the work ledger's footprint loads.
const BTREE_RECORDED: &[&str] = &[
    "chain R1.a height=2 nodes=3 pages=p0..=p53",
    "chain R1.a rows/pages/seq/rand ..:198/3/0/3 0..=0:0/2/0/2 37..=37:1/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:97/2/0/2 400..:0/2/0/2 150..=1150:49/2/0/2",
    "chain R1.jl height=2 nodes=3 pages=p1..=p55",
    "chain R1.jl rows/pages/seq/rand ..:198/3/0/3 0..=0:3/2/0/2 37..=37:6/3/0/3 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:198/3/0/3 400..:0/2/0/2 150..=1150:0/2/0/2",
    "chain R1.jr height=2 nodes=3 pages=p2..=p57",
    "chain R1.jr rows/pages/seq/rand ..:198/3/0/3 0..=0:1/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:109/3/0/3 400..:0/2/0/2 150..=1150:42/2/0/2",
    "chain R2.a height=2 nodes=3 pages=p75..=p128",
    "chain R2.a rows/pages/seq/rand ..:173/3/0/3 0..=0:1/2/0/2 37..=37:1/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:93/3/0/3 400..:0/2/0/2 150..=1150:24/2/0/2",
    "chain R2.jl height=2 nodes=3 pages=p76..=p130",
    "chain R2.jl rows/pages/seq/rand ..:173/3/0/3 0..=0:1/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:79/2/0/2 400..:0/2/0/2 150..=1150:57/2/0/2",
    "chain R2.jr height=2 nodes=3 pages=p77..=p132",
    "chain R2.jr rows/pages/seq/rand ..:173/3/0/3 0..=0:2/2/0/2 37..=37:4/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:143/3/0/3 400..:0/2/0/2 150..=1150:0/2/0/2",
    "chain R3.a height=2 nodes=3 pages=p142..=p195",
    "chain R3.a rows/pages/seq/rand ..:244/3/0/3 0..=0:0/2/0/2 37..=37:3/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:98/2/0/2 400..:0/2/0/2 150..=1150:96/2/0/2",
    "chain R3.jl height=2 nodes=3 pages=p143..=p197",
    "chain R3.jl rows/pages/seq/rand ..:244/3/0/3 0..=0:1/2/0/2 37..=37:3/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:181/3/0/3 400..:0/2/0/2 150..=1150:0/2/0/2",
    "chain R3.jr height=2 nodes=3 pages=p144..=p199",
    "chain R3.jr rows/pages/seq/rand ..:244/3/0/3 0..=0:1/2/0/2 37..=37:0/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:93/2/0/2 400..:0/2/0/2 150..=1150:107/2/0/2",
    "chain R4.a height=2 nodes=5 pages=p233..=p343",
    "chain R4.a rows/pages/seq/rand ..:411/5/0/5 0..=0:0/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:95/2/0/2 400..:14/2/0/2 150..=1150:270/4/0/4",
    "chain R4.jl height=2 nodes=5 pages=p234..=p356",
    "chain R4.jl rows/pages/seq/rand ..:411/5/0/5 0..=0:1/2/0/2 37..=37:0/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:313/5/0/5 400..:0/2/0/2 150..=1150:0/2/0/2",
    "chain R4.jr height=2 nodes=5 pages=p235..=p353",
    "chain R4.jr rows/pages/seq/rand ..:411/5/0/5 0..=0:5/2/0/2 37..=37:1/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:266/4/0/4 400..:0/2/0/2 150..=1150:10/2/0/2",
    "chain R5.a height=2 nodes=9 pages=p385..=p648",
    "chain R5.a rows/pages/seq/rand ..:985/9/0/9 0..=0:2/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:110/2/0/2 400..:557/6/0/6 150..=1150:824/8/0/8",
    "chain R5.jl height=2 nodes=9 pages=p386..=p620",
    "chain R5.jl rows/pages/seq/rand ..:985/9/0/9 0..=0:5/2/0/2 37..=37:3/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:323/4/0/4 400..:0/2/0/2 150..=1150:502/5/0/5",
    "chain R5.jr height=2 nodes=10 pages=p387..=p738",
    "chain R5.jr rows/pages/seq/rand ..:985/10/0/10 0..=0:1/2/0/2 37..=37:3/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:129/3/0/3 400..:460/6/0/6 150..=1150:784/9/0/9",
    "chain R6.a height=2 nodes=8 pages=p742..=p978",
    "chain R6.a rows/pages/seq/rand ..:650/8/0/8 0..=0:1/2/0/2 37..=37:0/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:99/2/0/2 400..:237/4/0/4 150..=1150:498/7/0/7",
    "chain R6.jl height=2 nodes=8 pages=p743..=p964",
    "chain R6.jl rows/pages/seq/rand ..:650/8/0/8 0..=0:0/2/0/2 37..=37:1/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:275/5/0/5 400..:0/2/0/2 150..=1150:235/4/0/4",
    "chain R6.jr height=2 nodes=8 pages=p744..=p971",
    "chain R6.jr rows/pages/seq/rand ..:650/8/0/8 0..=0:2/2/0/2 37..=37:4/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:245/4/0/4 400..:0/2/0/2 150..=1150:262/4/0/4",
    "chain R7.a height=1 nodes=1 pages=p983..=p983",
    "chain R7.a rows/pages/seq/rand ..:144/1/0/1 0..=0:3/1/0/1 37..=37:1/1/0/1 60..=59:0/1/0/1 ..=-1:0/1/0/1 ..=99:90/1/0/1 400..:0/1/0/1 150..=1150:0/1/0/1",
    "chain R7.jl height=1 nodes=1 pages=p984..=p984",
    "chain R7.jl rows/pages/seq/rand ..:144/1/0/1 0..=0:0/1/0/1 37..=37:0/1/0/1 60..=59:0/1/0/1 ..=-1:0/1/0/1 ..=99:104/1/0/1 400..:0/1/0/1 150..=1150:0/1/0/1",
    "chain R7.jr height=1 nodes=1 pages=p985..=p985",
    "chain R7.jr rows/pages/seq/rand ..:144/1/0/1 0..=0:1/1/0/1 37..=37:1/1/0/1 60..=59:0/1/0/1 ..=-1:0/1/0/1 ..=99:104/1/0/1 400..:0/1/0/1 150..=1150:0/1/0/1",
    "chain R8.a height=2 nodes=9 pages=p1034..=p1297",
    "chain R8.a rows/pages/seq/rand ..:856/9/0/9 0..=0:1/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:109/3/0/3 400..:443/5/0/5 150..=1150:700/8/0/8",
    "chain R8.jl height=2 nodes=9 pages=p1035..=p1272",
    "chain R8.jl rows/pages/seq/rand ..:856/9/0/9 0..=0:2/2/0/2 37..=37:0/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:84/2/0/2 400..:478/6/0/6 150..=1150:718/8/0/8",
    "chain R8.jr height=2 nodes=9 pages=p1036..=p1266",
    "chain R8.jr rows/pages/seq/rand ..:856/9/0/9 0..=0:1/2/0/2 37..=37:1/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:131/3/0/3 400..:324/5/0/5 150..=1150:655/8/0/8",
    "chain R9.a height=2 nodes=9 pages=p1347..=p1578",
    "chain R9.a rows/pages/seq/rand ..:690/9/0/9 0..=0:1/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:103/3/0/3 400..:305/5/0/5 150..=1150:534/8/0/8",
    "chain R9.jl height=2 nodes=9 pages=p1348..=p1602",
    "chain R9.jl rows/pages/seq/rand ..:690/9/0/9 0..=0:5/2/0/2 37..=37:5/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:495/7/0/7 400..:0/2/0/2 150..=1150:0/2/0/2",
    "chain R9.jr height=2 nodes=8 pages=p1349..=p1551",
    "chain R9.jr rows/pages/seq/rand ..:690/8/0/8 0..=0:3/2/0/2 37..=37:4/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:466/6/0/6 400..:0/2/0/2 150..=1150:0/2/0/2",
    "chain R10.a height=2 nodes=7 pages=p1603..=p1804",
    "chain R10.a rows/pages/seq/rand ..:585/7/0/7 0..=0:1/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:99/2/0/2 400..:180/4/0/4 150..=1150:436/6/0/6",
    "chain R10.jl height=2 nodes=7 pages=p1604..=p1811",
    "chain R10.jl rows/pages/seq/rand ..:585/7/0/7 0..=0:3/2/0/2 37..=37:1/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:163/4/0/4 400..:0/2/0/2 150..=1150:336/5/0/5",
    "chain R10.jr height=2 nodes=8 pages=p1605..=p1818",
    "chain R10.jr rows/pages/seq/rand ..:585/8/0/8 0..=0:2/2/0/2 37..=37:0/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:194/4/0/4 400..:0/2/0/2 150..=1150:292/5/0/5",
    "star fact.a height=2 nodes=122 pages=p0..=p1830",
    "star fact.a rows/pages/seq/rand ..:12000/122/0/122 0..=0:0/2/0/2 37..=37:3/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:105/2/0/2 400..:11611/119/0/119 150..=1150:978/11/0/11",
    "star dim.j height=2 nodes=65 pages=p1837..=p2740",
    "star dim.j rows/pages/seq/rand ..:6000/65/0/65 0..=0:0/2/0/2 37..=37:2/2/0/2 60..=59:0/2/0/2 ..=-1:0/2/0/2 ..=99:104/2/0/2 400..:5593/62/0/62 150..=1150:1041/13/0/13",
];

#[test]
fn btree_shapes_and_reads_of_the_benchmark_databases_are_unchanged() {
    let chain = make_chain_catalog(&SyntheticSpec::paper(10, 7), SystemConfig::paper_1994());
    let mut table = btree_lines("chain", &chain, 1989);
    table.extend(btree_lines("star", &star_catalog(), 8));
    assert!(
        table == BTREE_RECORDED,
        "the B-tree table moved; it reads\n{}",
        table.iter().map(|l| format!("    {l:?},")).collect::<Vec<_>>().join("\n")
    );
}
