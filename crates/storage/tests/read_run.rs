//! A run is its reads.
//!
//! `SimDisk::read_run` visits a sequence of pages under one latch
//! acquisition, lending each page instead of handing out a reference. It
//! must be indistinguishable — to the I/O statistics, the fault plan, the
//! caller — from `SimDisk::read` in a loop over the same ids: same
//! sequential/random split, same read ordinals, same failing id and error,
//! the pages before the failure delivered and none after it drawn. What it
//! may differ in is what it is for: no reference count moves, and on a
//! paced disk it still sleeps outside the latch.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use dqep_storage::{FaultPlan, PageId, PageRef, SimDisk, SpillFile, SpillWriter, StorageError, PAGE_SIZE};
use proptest::prelude::*;

const BASE_PAGES: u32 = 6;

/// A disk with every kind of page id on it, built the same way every
/// time: stamped base pages, a live temp file, the dead slots of a dropped
/// one, another live temp file behind them (so the dead slots are not
/// truncated), and nothing beyond. Returns the disk, the files that keep
/// the temp pages alive, and one past the highest id issued.
fn disk_with_every_kind_of_id() -> (SimDisk, Vec<SpillFile>, u32) {
    let disk = SimDisk::new();
    for i in 0..BASE_PAGES {
        let id = disk.allocate();
        disk.write_unaccounted(id, &[i as u8 + 1; PAGE_SIZE]);
    }
    let temp = |rows: i64| {
        let mut writer = SpillWriter::uncharged(disk.clone(), 512);
        (0..rows).for_each(|v| writer.append([v]).unwrap());
        writer.finish().unwrap()
    };
    let (first, freed, last) = (temp(9), temp(9), temp(6));
    drop(freed);
    let issued = disk.page_count() as u32;
    assert_eq!((issued, disk.temp_pages().live), (BASE_PAGES + 3 + 3 + 2, 5));
    disk.reset_stats();
    (disk, vec![first, last], issued)
}

/// Stretches of consecutive ids, ascending or descending, anywhere from
/// page 0 to three ids past the last one issued: live, freed and never
/// allocated, base and temp, repeated and out of order.
fn id_sequences() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    proptest::collection::vec((0u32..BASE_PAGES + 11, 1u32..6, any::<bool>()), 0..6)
}

fn expand(stretches: &[(u32, u32, bool)]) -> Vec<PageId> {
    let mut ids = Vec::new();
    for &(start, len, ascending) in stretches {
        ids.extend((0..len).map(|k| PageId(if ascending { start + k } else { start.saturating_sub(k) })));
    }
    ids
}

/// The three kinds of plan: none, an nth read (possibly one that falls
/// behind the run), a page identity.
fn fault_plan(kind: usize, n: u32) -> FaultPlan {
    match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::nth_read(u64::from(n) + 1),
        _ => FaultPlan::page_range(n, n + 1),
    }
}

/// What a reader saw: the pages delivered (by their first byte — the two
/// disks of a comparison hold different buffers), and how it ended.
type Seen = (Vec<u8>, Result<(), StorageError>);

/// `read` in a loop, stopping at the first failure or after `stop_after`
/// pages.
fn by_reads(disk: &SimDisk, ids: &[PageId], stop_after: usize) -> Seen {
    let mut pages = Vec::new();
    for &id in ids {
        match disk.read(id) {
            Ok(page) => pages.push(page[0]),
            Err(e) => return (pages, Err(e)),
        }
        if pages.len() == stop_after {
            break;
        }
    }
    (pages, Ok(()))
}

/// One run over the same ids; also how many ids it drew.
fn by_run(disk: &SimDisk, ids: &[PageId], stop_after: usize) -> (Seen, usize) {
    let (mut pages, mut drawn) = (Vec::new(), 0);
    let result = disk.read_run(ids.iter().copied().inspect(|_| drawn += 1), |page| {
        pages.push(page[0]);
        if pages.len() == stop_after {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    ((pages, result), drawn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_run_is_a_loop_of_reads(
        stretches in id_sequences(),
        (kind, n) in (0usize..3, 0u32..BASE_PAGES + 9),
        stop_after in 1usize..30,
    ) {
        let ids = expand(&stretches);
        let (reads, _keep_reads, issued) = disk_with_every_kind_of_id();
        let (runs, _keep_runs, _) = disk_with_every_kind_of_id();
        reads.set_fault_plan(fault_plan(kind, n));
        runs.set_fault_plan(fault_plan(kind, n));

        let (want, want_stats) = (by_reads(&reads, &ids, stop_after), reads.stats());
        let ((pages, result), drawn) = by_run(&runs, &ids, stop_after);
        prop_assert_eq!((&pages, &result), (&want.0, &want.1));
        prop_assert_eq!(runs.stats(), want_stats, "counters, the seq/random split included");
        // Nothing behind the page that ended the run was drawn, let alone read.
        let ended_early = result.is_err() || pages.len() == stop_after;
        prop_assert_eq!(drawn, if ended_early { pages.len() + usize::from(result.is_err()) } else { ids.len() });
        prop_assert_eq!(runs.longest_run(), drawn);

        // Ordinals and read position moved alike: whatever comes next — a
        // fault installed for a later read, the classification of the
        // next access — comes alike on both disks.
        for id in (0..issued).map(PageId).chain(ids.last().map(|id| PageId(id.0.wrapping_add(1)))) {
            prop_assert_eq!(runs.read(id).map(|p| p[0]), reads.read(id).map(|p| p[0]), "{} afterwards", id);
            prop_assert_eq!(runs.stats(), reads.stats(), "{} afterwards", id);
        }
    }

    #[test]
    fn a_run_that_keeps_nothing_moves_no_reference_count(stretches in id_sequences()) {
        let ids = expand(&stretches);
        let (disk, _keep, issued) = disk_with_every_kind_of_id();
        // One reference of our own to every live page, to count through.
        let held: Vec<PageRef> = (0..issued).filter_map(|i| disk.read(PageId(i)).ok()).collect();
        let counts = || held.iter().map(Arc::strong_count).collect::<Vec<_>>();
        let before = counts();
        let mut during = Vec::new();
        let _ = disk.read_run(ids.iter().copied(), |page| {
            during.push((Arc::as_ptr(page), Arc::strong_count(page)));
            ControlFlow::Continue(())
        });
        prop_assert_eq!(counts(), before.clone());
        for (ptr, count) in during {
            let at = held.iter().position(|page| Arc::as_ptr(page) == ptr).expect("a live page");
            prop_assert_eq!(count, before[at], "lent, not cloned");
        }
        // The reader that keeps a page says so, and only that one moves.
        if let Some(keep) = ids.iter().find_map(|&id| disk.read(id).ok()) {
            let at = held.iter().position(|page| Arc::ptr_eq(page, &keep)).expect("a live page");
            let mut after = before;
            after[at] += 1;
            prop_assert_eq!(counts(), after);
        }
    }
}

/// A paced disk runs page by page: it sleeps with the latch released, so
/// another thread's `stats()` keeps returning — and sees the run half done
/// — while the run is asleep. Were the sleeps under the latch, the
/// observer would get through once a page at best.
#[test]
fn a_paced_run_does_not_sleep_under_the_latch() {
    const PAGES: u32 = 4;
    let disk = SimDisk::new();
    let ids: Vec<PageId> = (0..PAGES).map(|_| disk.allocate()).collect();
    disk.set_io_latency_micros(40_000);
    let (first_visit, started) = mpsc::channel();
    let done = AtomicBool::new(false);
    let halfway = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut visits = 0;
            disk.read_run(ids.iter().copied(), |_| {
                visits += 1;
                if visits == 1 {
                    first_visit.send(()).unwrap();
                }
                ControlFlow::Continue(())
            })
            .unwrap();
            done.store(true, Ordering::SeqCst);
        });
        // From the first visit on the run has three paced reads to go.
        started.recv().unwrap();
        let mut halfway = 0;
        while !done.load(Ordering::SeqCst) {
            let total = disk.stats().total();
            halfway += usize::from(0 < total && total < u64::from(PAGES));
        }
        halfway
    });
    assert!(halfway > 100, "stats() returned {halfway} times during the run's sleeps");
    assert_eq!((disk.stats().total(), disk.longest_run()), (u64::from(PAGES), 0), "paced: no run held the latch");
}
