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
//! per-query fixed work (parse, optimize, arbitrate, threads, channels).
//! A row path — rows assembled at any stage boundary — costs several
//! allocations per row per boundary and cannot fit: before the batch path
//! this query allocated 31 133 times for its 5 329 result rows.

mod common;

use dqep_catalog::{CatalogBuilder, SystemConfig};
use dqep_service::{ShardConfig, ShardedService};

use common::allocations;

/// Allocations (and reallocations) allowed per frame on top of one per
/// result row. Measured for this query: 288 per frame (2 307 over 8
/// frames), of which the access plans' file scans take about 190 (a
/// record list per page, a tuple per page-tail row carried between
/// batches), the fixed per-query work 70, and the exchange, join, sort
/// and merge together under 30.
const PER_FRAME: u64 = 400;

#[test]
fn a_repartition_join_allocates_per_result_row_and_per_frame_not_per_stage() {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for name in ["t0", "t1"] {
        builder = builder.relation(name, 6_000, 16, |r| {
            r.attr("a", 6_000.0).attr("j", 3_000.0).btree("a", false).btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid catalog");
    let service = ShardedService::new(catalog, ShardConfig { shards: 2, ..ShardConfig::default() });
    let sql = "SELECT * FROM t0, t1 WHERE t0.j = t1.j AND t0.a < :v0 AND t1.a < :v1 ORDER BY t0.a";
    let binds = [("v0", 4_000i64), ("v1", 4_000i64)];
    // Warm once: lazily initialized state (journal ring, thread-locals)
    // is not the data path's.
    service.execute(sql, &binds).expect("warm-up run");

    let before = allocations();
    let out = service.execute(sql, &binds).expect("measured run");
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
