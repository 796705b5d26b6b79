//! Allocation ceiling of the sharded data path. Its own test binary,
//! because it installs the counting `#[global_allocator]` of
//! `common/mod.rs`.
//!
//! The sharded path moves `RowBatch`es from access plan to gather and
//! materializes a row exactly once, in `ShardOutcome::rows`. So a
//! repartition join may allocate once per *result* row, plus an amount
//! per frame it moved that does not grow with the rows inside: the frame
//! buffer and its decoded columns, scatter index lists, the scans'
//! batches (a comparable number), and — spread over the frames — the
//! per-query fixed work (parse, optimize, arbitrate, channels).
//! A row path — rows assembled at any stage boundary — costs several
//! allocations per row per boundary and cannot fit: before the batch path
//! this query allocated 31 133 times for its 5 329 result rows.

mod common;

use dqep_catalog::{CatalogBuilder, SystemConfig};
use dqep_service::{ShardConfig, ShardedService};
use parking_lot::Mutex;

use common::{allocations, voluntary_switches};

/// Allocations (and reallocations) allowed per frame on top of one per
/// result row: set at the measurement plus 40 %, when this query measured
/// 57 per frame (457 over 8 frames). It measures 76 (609; 5 938 in all)
/// since a cut of held rows moves its head and copies only the rest; it
/// was 79 (630; 5 963) while a shard's 1 024-row requests copied every
/// row they cut, and 67 (532) while a shard took its join and its sort
/// each in one request. It was 58 (462) while each query spawned a
/// thread per shard, and 288 (2 307) while file scans built a record list
/// per page and carried page-tail rows as tuples.
const PER_FRAME: u64 = 80;

/// The two tests of this binary share its allocation counter: each holds
/// this lock while it runs.
static SERIAL: Mutex<()> = Mutex::new(());

const SQL: &str =
    "SELECT * FROM t0, t1 WHERE t0.j = t1.j AND t0.a < :v0 AND t1.a < :v1 ORDER BY t0.a";
const BINDS: [(&str, i64); 2] = [("v0", 4_000), ("v1", 4_000)];

/// Two 6 000-row relations on two hash-routed, unpaced shards.
fn two_shards() -> ShardedService {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for name in ["t0", "t1"] {
        builder = builder.relation(name, 6_000, 16, |r| {
            r.attr("a", 6_000.0).attr("j", 3_000.0).btree("a", false).btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid catalog");
    ShardedService::new(catalog, ShardConfig { shards: 2, ..ShardConfig::default() })
}

#[test]
fn a_repartition_join_allocates_per_result_row_and_per_frame_not_per_stage() {
    let _alone = SERIAL.lock();
    let service = two_shards();
    // Warm once: lazily initialized state (journal ring, thread-locals)
    // is not the data path's.
    service.execute(SQL, &BINDS).expect("warm-up run");

    let before = allocations();
    let out = service.execute(SQL, &BINDS).expect("measured run");
    let allocs = allocations() - before;

    let rows = out.rows.len() as u64;
    let frames = out.net.frames;
    assert!(rows >= 2_000, "the query must be large enough to tell: {rows} rows");
    assert!(frames > 0, "both sides repartition over the wire");
    let ceiling = rows + PER_FRAME * frames;
    assert!(
        allocs <= ceiling,
        "{allocs} allocations for {rows} result rows and {frames} frames \
         (ceiling {ceiling} = rows + {PER_FRAME} x frames): a row path is back"
    );
}

/// A sharded query is a procedure call: its stages run one after another
/// on the calling thread, so the caller neither waits for a shard thread
/// nor wakes one: no voluntary context switch in 200 calls. While each
/// query spawned a thread per shard and the caller blocked on their
/// gather links, the same calls made 344 to 384.
#[test]
fn a_sharded_join_runs_on_the_calling_thread() {
    const CALLS: u64 = 200;
    let _alone = SERIAL.lock();
    let service = two_shards();
    for _ in 0..3 {
        service.execute(SQL, &BINDS).expect("warm-up run");
    }
    let before = voluntary_switches();
    for _ in 0..CALLS {
        service.execute(SQL, &BINDS).expect("measured run");
    }
    let switches = voluntary_switches() - before;
    assert!(
        switches < 20,
        "{switches} voluntary context switches in {CALLS} calls: the caller waits for another thread"
    );
}
