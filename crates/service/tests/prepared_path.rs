//! The prepared path is a procedure call. Its own test binary, because it
//! installs the counting `#[global_allocator]` of `common/mod.rs`.
//!
//! A warmed `QueryService::execute` — statement and decision caches hit —
//! runs on the calling thread over a replica checked out of the pool: no
//! hand-off to another thread, so no wake-up and no wait for an answer,
//! and nothing allocated for a queue entry or a reply channel. Both are
//! visible from outside: the calling thread's voluntary context switches
//! (one per call when a worker thread ran the session) and the
//! allocations of a call.

mod common;

use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};
use dqep_service::{QueryService, Request, ServiceConfig};

use common::allocations;

const CALLS: u64 = 1_000;

/// Allocations (and reallocations) one warmed call may make. Measured for
/// this statement and binding: 70 a call, all of them the session's own —
/// the plan's operators and their batches, the bindings, the counters.
/// With a queue entry and a reply channel per request it was 74 (and 952
/// voluntary context switches in 1 000 calls, against none).
const ALLOCS_PER_CALL: u64 = 72;

/// Voluntary context switches of the calling thread so far.
#[cfg(target_os = "linux")]
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("the kernel reports context switches per thread");
    line.trim().parse().expect("a count")
}

#[cfg(not(target_os = "linux"))]
fn voluntary_switches() -> u64 {
    0
}

#[test]
fn a_warmed_execute_neither_changes_thread_nor_allocates_for_a_hand_off() {
    let catalog = make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
    let service = QueryService::new(catalog, ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let request = Request::new(
        "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v1 AND R2.a < :v2",
        &[("v1", 60), ("v2", 500)],
    );
    // Warm: the replica is generated, the statement prepared, the decision
    // cached, and lazily initialized state (journal ring, thread-locals)
    // in place.
    for _ in 0..3 {
        service.execute(request.clone()).expect("warm-up run");
    }

    let requests: Vec<Request> = (0..CALLS).map(|_| request.clone()).collect();
    let switches_before = voluntary_switches();
    let allocs_before = allocations();
    for request in requests {
        let result = service.execute(request).expect("measured run");
        assert_eq!(result.summary.plan_cache.decision_hit, Some(true));
    }
    let allocs = allocations() - allocs_before;
    let switches = voluntary_switches() - switches_before;

    assert!(
        switches < 50,
        "{switches} voluntary context switches in {CALLS} calls: the caller waits for another thread"
    );
    assert!(
        allocs <= ALLOCS_PER_CALL * CALLS,
        "{} allocations a call (ceiling {ALLOCS_PER_CALL})",
        allocs as f64 / CALLS as f64
    );
}
