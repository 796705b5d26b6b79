//! Properties of base tables.
//!
//! **Three read paths, one table**: the rows `HeapFile::append` stores
//! come back exactly, in order, through the scan kernel — a
//! `SimDisk::read_run` over the file's page ids, and after it each stretch
//! of consecutive pages it read copied out of the file's columns
//! (`HeapFile::rows_of`), at most a request's worth, a page the request
//! leaves unfinished carried over as `(page, slot)` — at every request
//! size and from every tail slot; through a fetch by record id; and
//! through `HeapFile::scan`.
//!
//! **The slotted page's shape**: a page holds `r =
//! records_per_page(record_len)` rows — 7 of 256 bytes, 3 of 512 — so `n`
//! rows take `⌈n / r⌉` pages and keep the record ids, page counts and
//! charges records of that length had. A record no page holds is refused
//! with nothing appended.
//!
//! **Faults**: under `fail_nth_reads` and `fail_page_range`, the scan
//! kernel's read fails on the page a loop of `SimDisk::read` over the
//! file's pages fails on; pulled again, it reads that page first and goes
//! on, and no row is lost or delivered twice.

use std::cell::Cell;
use std::ops::{ControlFlow, Range};

use dqep_storage::{
    records_per_page, FaultPlan, HeapFile, Rid, SimDisk, StorageError, MAX_RECORD, PAGE_SIZE,
};
use proptest::prelude::*;

/// `(width, record_len)`: a record long enough for its values, from
/// narrow (many rows a page) to one row a page.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=8).prop_flat_map(|width| {
        let narrow = 8 * width;
        let len = prop_oneof![
            narrow..=narrow + 40,
            Just(256usize.max(narrow)),
            Just(512usize),
            narrow..=MAX_RECORD,
            Just(MAX_RECORD),
        ];
        (Just(width), len)
    })
}

/// The values of row `i` of a case, `width` of them.
fn row(seed: i64, i: usize, width: usize) -> Vec<i64> {
    (0..width)
        .map(|a| seed.wrapping_mul(i as i64 + 1).rotate_left(a as u32 * 7) ^ (a as i64) << 60)
        .collect()
}

/// A heap file of `n` rows of a case, the rows and their record ids.
fn loaded(
    width: usize,
    record_len: usize,
    n: usize,
    seed: i64,
) -> (HeapFile, Vec<Vec<i64>>, Vec<Rid>) {
    let mut heap = HeapFile::new(SimDisk::new(), record_len, width);
    let rows: Vec<Vec<i64>> = (0..n).map(|i| row(seed, i, width)).collect();
    let rids = rows.iter().map(|values| heap.append(values).unwrap()).collect();
    (heap, rows, rids)
}

/// The scan kernel over a heap file, as a file scan runs it: pages in
/// order, a run of reads a request, the pages it read copied after the
/// run.
struct Kernel<'a> {
    heap: &'a HeapFile,
    width: usize,
    /// Page indexes not yet drawn.
    next: Range<usize>,
    /// The page a request left unfinished, and the slot to go on from.
    tail: Option<(usize, usize)>,
    /// The page whose read failed: read first by the next request.
    retry: Option<usize>,
}

impl<'a> Kernel<'a> {
    fn new(heap: &'a HeapFile, width: usize) -> Kernel<'a> {
        Kernel { heap, width, next: 0..heap.page_count(), tail: None, retry: None }
    }

    /// Up to `max_rows` rows as columns, or the error that stopped the
    /// request with the rows it held before it.
    #[allow(clippy::type_complexity)]
    fn fill(&mut self, max_rows: usize) -> Result<Vec<Vec<i64>>, (Vec<Vec<i64>>, StorageError)> {
        let heap = self.heap;
        let mut cols = vec![Vec::new(); self.width];
        if let Some((k, slot)) = self.tail.take() {
            self.tail = copy(heap, k..k + 1, slot, max_rows, &mut cols);
        }
        let mut exhausted = false;
        while cols[0].len() < max_rows && !exhausted {
            // One run; the pages it reads are consecutive, from `first`.
            let (first, at) = (Cell::new(None), Cell::new(None));
            let (mut read, mut rows) = (0, cols[0].len());
            let ids = std::iter::from_fn(|| {
                let k = self.retry.take().or_else(|| self.next.next());
                exhausted = k.is_none();
                first.set(first.get().or(k));
                at.set(k);
                k.map(|k| heap.pages()[k])
            });
            let result = heap.disk().read_run(ids, |_| {
                read += 1;
                rows += heap.page(at.get().expect("a page read is a page drawn")).rows();
                if rows < max_rows {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
            if let Some(first) = first.get().filter(|_| read > 0) {
                self.tail = copy(heap, first..first + read, 0, max_rows, &mut cols);
            }
            if let Err(e) = result {
                self.retry = at.get();
                return Err((cols, e));
            }
        }
        Ok(cols)
    }
}

/// Copies the rows of pages `pages` from slot `from` of the first on onto
/// `cols`, up to `max_rows` in all; the page and slot to go on from when
/// the last page has rows left over.
fn copy(
    heap: &HeapFile,
    pages: Range<usize>,
    from: usize,
    max_rows: usize,
    cols: &mut [Vec<i64>],
) -> Option<(usize, usize)> {
    let last = pages.end - 1;
    let rows = heap.rows_of(pages).slice(from, usize::MAX);
    let copied = rows.slice(0, max_rows - cols[0].len());
    cols.iter_mut().zip(copied.columns()).for_each(|(col, from)| col.extend_from_slice(from));
    let left = rows.rows() - copied.rows();
    assert!(left <= heap.page(last).rows(), "rows left over on a page before the last");
    (left > 0).then(|| (last, heap.page(last).rows() - left))
}

/// Row-major copies of `cols`.
fn rows_of(cols: &[Vec<i64>]) -> Vec<Vec<i64>> {
    (0..cols[0].len()).map(|i| cols.iter().map(|col| col[i]).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn appended_rows_read_back_three_ways(
        (width, record_len) in shape(),
        share in 0.0f64..=1.0,
        seed in any::<i64>(),
        first in 1usize..=600,
        max_rows in prop_oneof![1usize..=9, 10usize..=1100, Just(usize::MAX)],
    ) {
        let r = records_per_page(record_len);
        let n = (share * (4 * r + 1) as f64) as usize;
        let (heap, rows, rids) = loaded(width, record_len, n, seed);
        let disk = heap.disk().clone();
        prop_assert_eq!(heap.page_count(), n.div_ceil(r));
        prop_assert_eq!(heap.record_count(), n as u64);
        prop_assert_eq!(disk.stats().total(), 0, "loading is unaccounted");
        // Row `i` is slot `i mod r` of page `i / r`.
        for (i, rid) in rids.iter().enumerate() {
            prop_assert_eq!(*rid, Rid { page: heap.pages()[i / r], slot: (i % r) as u16 });
        }

        // The scan kernel: a first request of `first` rows leaves its
        // last page at slot `first mod r`, the tail the next request of
        // `max_rows` rows starts from; every request but the last is full.
        let mut kernel = Kernel::new(&heap, width);
        let mut scanned = Vec::new();
        let mut request = first;
        loop {
            let cols = kernel.fill(request).unwrap();
            let got = cols[0].len();
            prop_assert!(got <= request);
            scanned.extend(rows_of(&cols));
            if got < request {
                prop_assert_eq!(kernel.fill(max_rows).unwrap()[0].len(), 0, "a short request is the last");
                break;
            }
            if request == first && got < n {
                prop_assert_eq!(kernel.tail.map(|(_, slot)| slot), Some(first % r).filter(|&slot| slot > 0));
            }
            request = max_rows;
        }
        prop_assert_eq!(&scanned, &rows);
        prop_assert_eq!(disk.stats().total(), heap.page_count() as u64, "each page read once");

        // By record id, one random read each; and the full scan.
        disk.reset_stats();
        for (rid, values) in rids.iter().zip(&rows) {
            prop_assert_eq!(&heap.fetch(*rid).unwrap(), values);
            let firsts = heap.fetch_with(*rid, |row| (0..width).map(|a| row.value(a)).collect::<Vec<_>>());
            prop_assert_eq!(&firsts.unwrap(), values);
            prop_assert_eq!(&heap.row(*rid).unwrap().to_vec(), values);
        }
        prop_assert_eq!(disk.stats().total(), 2 * n as u64);
        let all: Vec<Vec<i64>> = heap.scan().map(Result::unwrap).collect();
        prop_assert_eq!(&all, &rows);
        if let Some(&last) = heap.pages().last() {
            let past = Rid { page: last, slot: ((n - 1) % r + 1) as u16 };
            prop_assert_eq!(
                heap.fetch(past).unwrap_err(),
                StorageError::RecordNotFound { page: past.page, slot: past.slot }
            );
        }
        // A page of the disk that is not the file's holds none of its rows.
        let other = Rid { page: disk.allocate(), slot: 0 };
        prop_assert_eq!(heap.row(other).unwrap_err(), StorageError::RecordNotFound { page: other.page, slot: 0 });
    }

    #[test]
    fn a_faulted_page_is_the_one_a_read_loop_fails_and_the_scan_resumes_at_it(
        (width, record_len) in shape(),
        seed in any::<i64>(),
        pages in 1usize..=12,
        max_rows in prop_oneof![1usize..=9, 10usize..=1100, Just(usize::MAX)],
        (nth, lo, span) in (1u64..=12, 0u32..12, 0u32..3),
        by_range in any::<bool>(),
    ) {
        let r = records_per_page(record_len);
        let (heap, rows, _) = loaded(width, record_len, pages * r - r / 2, seed);
        let disk = heap.disk().clone();
        let plan = if by_range { FaultPlan::page_range(lo, lo + span) } else { FaultPlan::nth_read(nth) };
        // The page a read loop fails on, if any.
        disk.set_fault_plan(plan.clone());
        let faulted = heap.pages().iter().position(|&pid| disk.read(pid).is_err());
        // The scan reads pages in the same order: the same page fails.
        disk.set_fault_plan(plan);
        disk.reset_stats();
        let mut kernel = Kernel::new(&heap, width);
        let (mut scanned, mut faults) = (Vec::new(), Vec::new());
        loop {
            match kernel.fill(max_rows) {
                Ok(cols) if cols[0].is_empty() => break,
                Ok(cols) => scanned.extend(rows_of(&cols)),
                Err((cols, e)) => {
                    prop_assert!(e.is_injected());
                    scanned.extend(rows_of(&cols));
                    faults.push(kernel.retry.expect("the faulted page is read next"));
                    // Every row before the faulted page, and none after.
                    prop_assert_eq!(scanned.len(), faults[0] * r);
                    disk.set_fault_plan(FaultPlan::none());
                }
            }
        }
        prop_assert_eq!(faults.first().copied(), faulted);
        prop_assert_eq!(faults.len(), usize::from(faulted.is_some()));
        prop_assert_eq!(&scanned, &rows, "no row lost, none twice");
        let reads = (heap.page_count() + faults.len()) as u64;
        prop_assert_eq!(disk.stats().total(), reads, "the faulted page, and only it, is read again");
    }

    #[test]
    fn a_record_no_page_holds_is_refused_with_nothing_appended(
        record_len in MAX_RECORD + 1..=2 * PAGE_SIZE,
        values in (any::<i64>(), any::<i64>()),
    ) {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), record_len, 2);
        prop_assert_eq!(
            heap.append(&[values.0, values.1]).unwrap_err(),
            StorageError::RecordTooLarge { len: record_len, max: MAX_RECORD }
        );
        prop_assert_eq!((heap.record_count(), heap.page_count()), (0, 0));
        prop_assert_eq!((disk.page_count(), disk.stats().total()), (0, 0));
    }
}

#[test]
fn a_page_holds_what_a_slotted_page_of_such_records_held() {
    assert_eq!(records_per_page(256), 7);
    assert_eq!(records_per_page(512), 3);
    assert_eq!(records_per_page(MAX_RECORD), 1);
    assert_eq!(records_per_page(MAX_RECORD + 1), 0);
}
