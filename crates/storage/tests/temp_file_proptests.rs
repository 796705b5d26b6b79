//! Properties of query-lifetime files.
//!
//! **Page lifecycle**: over any interleaving of creating, filling,
//! sealing, reading and dropping temp files beside a permanent one on one
//! disk, a live page id is never handed out twice, every sealed file reads
//! back what was appended to it, and a freed id that has not been issued
//! again is a typed error.
//!
//! **Writer ≡ heap append**: `SpillWriter` deals rows to files; the path
//! it replaced appended each row through `HeapFile::append`, the way a base
//! table is loaded, and charged the writes itself. Both must put every row on
//! the same page under the same page id — page `k`'s rows are the rows
//! `HeapFile::append` puts on page `k` — charge the same writes in the same
//! order, hold the same temp pages, and fail at the same row under the same
//! write fault.
//!
//! **Dealing ≡ appending**: `SpillWriter::deal` hands a batch of rows to
//! several writers at once; to the disk and to the files it must be
//! `append` of each row to its writer in turn, up to a failed charge, and
//! the writers must go on alike after one. That holds for both ways a deal
//! takes its disk steps: all of a batch's under one latch, and — on a
//! paced disk — page by page.

use std::collections::HashSet;

use dqep_storage::{
    check_fits, records_per_page, FaultPlan, HeapFile, IoStats, PageId, SimDisk, SpillFile,
    SpillWriter, StorageError, MAX_RECORD, PAGE_SIZE,
};
use proptest::prelude::*;

/// One step: `(kind, file slot, records)`.
fn steps() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..5, 0usize..4, 1usize..9), 1..60)
}

/// Bytes per stamped row; six of them fill a page.
const STAMP_LEN: usize = 300;
const STAMPS_PER_PAGE: usize = (PAGE_SIZE - 4) / (STAMP_LEN + 4);

fn stamp(file: u64, seq: usize) -> [i64; 2] {
    [file as i64, seq as i64]
}

/// A temp file of the lifecycle property: being written, or sealed.
enum Temp {
    Open(SpillWriter),
    Sealed(SpillFile),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_page_ids_are_never_reissued(steps in steps()) {
        let disk = SimDisk::new();
        let mut base = HeapFile::new(disk.clone(), STAMP_LEN, 2);
        for seq in 0..10 {
            base.append(&stamp(u64::MAX, seq)).unwrap();
        }
        let loaded = disk.page_count();
        // Slot -> (file number, file, rows appended).
        let mut files: Vec<Option<(u64, Temp, usize)>> = (0..4).map(|_| None).collect();
        let mut freed: HashSet<PageId> = HashSet::new();
        let mut next_file = 0u64;
        for (kind, slot, n) in steps {
            match (kind, files[slot].take()) {
                // Drop the file in the slot, sealed or not.
                (0, Some((_, Temp::Sealed(file), _))) => freed.extend(file.pages().iter().copied()),
                (0, Some((_, Temp::Open(_), _))) => {}
                // Seal it and read it back: it reads back exactly what was
                // appended to it, and keeps its pages until it is dropped.
                (1, Some((id, Temp::Open(writer), len))) => {
                    let mut file = writer.finish().unwrap();
                    prop_assert_eq!(file.record_count() as usize, len);
                    let cols = file.read(usize::MAX).unwrap();
                    prop_assert_eq!(&cols[0], &vec![id as i64; len]);
                    prop_assert_eq!(&cols[1], &(0..len as i64).collect::<Vec<_>>());
                    files[slot] = Some((id, Temp::Sealed(file), len));
                }
                (_, Some(sealed @ (_, Temp::Sealed(_), _))) => files[slot] = Some(sealed),
                // Append to it, creating it first if the slot is empty.
                (_, entry) => {
                    let (id, mut writer, mut len) = match entry {
                        Some((id, Temp::Open(writer), len)) => (id, writer, len),
                        _ => {
                            next_file += 1;
                            (next_file, SpillWriter::charged(disk.clone(), STAMP_LEN), 0)
                        }
                    };
                    for _ in 0..n {
                        writer.append(stamp(id, len)).unwrap();
                        len += 1;
                    }
                    files[slot] = Some((id, Temp::Open(writer), len));
                }
            }
            // No page belongs to two sealed files, the permanent one included.
            let mut owned: HashSet<PageId> = base.pages().iter().copied().collect();
            let mut unsealed_pages = 0;
            for (_, file, len) in files.iter().flatten() {
                match file {
                    Temp::Open(_) => unsealed_pages += len.div_ceil(STAMPS_PER_PAGE),
                    Temp::Sealed(file) => {
                        prop_assert_eq!(file.page_count(), len.div_ceil(STAMPS_PER_PAGE));
                        for &pid in file.pages() {
                            prop_assert!(owned.insert(pid), "{pid} is live in two files");
                        }
                    }
                }
            }
            prop_assert_eq!(base.scan().count(), 10);
            // A freed id is dead until it is issued again — to a sealed
            // file this test can see, or to a writer whose ids it cannot:
            // only ids no open writer could hold are checked.
            if unsealed_pages == 0 {
                for &pid in freed.difference(&owned) {
                    prop_assert_eq!(disk.read(pid).unwrap_err(), StorageError::UnallocatedPage(pid));
                }
            }
            prop_assert!(disk.page_count() >= loaded);
            prop_assert_eq!(
                disk.temp_pages().live as usize,
                owned.len() - base.page_count() + unsealed_pages
            );
        }
        files.clear();
        prop_assert_eq!(disk.page_count(), loaded);
    }
}

/// The path the writer replaced, kept as the reference: a file takes
/// [`HeapFile::append`] of each row, allocates a page id when a page's
/// first row arrives, and charges one write when the next row finds the
/// tail full and one for the tail at `finish`. The pages and the ids come
/// from the heap file — the load path, which the old temp path shared —
/// on a disk of its own; a count of the tail page's rows says when it is
/// full, and the charges go to the same disk in the same order.
struct OldTemp {
    heap: HeapFile,
    /// Rows on the last page while it is unsealed.
    tail: Option<usize>,
}

impl OldTemp {
    fn new(disk: &SimDisk, len: usize, width: usize) -> OldTemp {
        OldTemp { heap: HeapFile::new(disk.clone(), len, width), tail: None }
    }

    fn append(&mut self, values: &[i64], len: usize) -> Result<(), StorageError> {
        check_fits(len)?;
        if self.tail == Some(records_per_page(len)) {
            self.tail = None;
            self.heap.disk().note_write()?;
        }
        *self.tail.get_or_insert(0) += 1;
        self.heap.append(values).map(|_| ())
    }

    fn finish(&mut self) -> Result<(), StorageError> {
        match self.tail.take() {
            Some(_) => self.heap.disk().note_write(),
            None => Ok(()),
        }
    }
}

/// Rows of one case: the file each goes to and its (up to eight) values.
type Rows = Vec<(usize, [i64; 8])>;

fn rows() -> impl Strategy<Value = Rows> {
    let values = (any::<i64>(), any::<i64>(), -3i64..3, any::<i64>())
        .prop_map(|(a, b, c, d)| [a, b, c, d, a ^ d, b.wrapping_add(c), i64::MIN, i64::MAX]);
    proptest::collection::vec((0usize..8, values), 0..160)
}

/// A page and its rows, column by column.
type Page = (PageId, Vec<Vec<i64>>);

/// What one run of a path observed: the step (row index, then file index
/// of the seals) and the error it stopped at, if any; page ids and rows
/// per sealed file; the disk's counters. Nothing is freed before a run
/// stops, so the temp high-water is also the pages held at that point.
#[derive(PartialEq)]
struct Observed {
    stopped: Option<(usize, StorageError)>,
    pages: Vec<Vec<Page>>,
    writes: u64,
    reads: u64,
    temp_high_water: u64,
}

/// Page ids, not rows: a failing case stays readable.
impl std::fmt::Debug for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<Vec<PageId>> =
            self.pages.iter().map(|file| file.iter().map(|&(pid, _)| pid).collect()).collect();
        write!(
            f,
            "stopped {:?}, writes {}, reads {}, temp high-water {}, page ids {ids:?} (rows not shown)",
            self.stopped, self.writes, self.reads, self.temp_high_water
        )
    }
}

/// Each page of a sealed file with its rows, read without an access.
fn file_rows(file: &SpillFile) -> Vec<Page> {
    let rows = |k: usize| file.page(k).columns().map(<[i64]>::to_vec).collect();
    file.pages().iter().enumerate().map(|(k, &pid)| (pid, rows(k))).collect()
}

/// Each page of a heap file with its rows, column by column.
fn heap_rows(heap: &HeapFile) -> Vec<Page> {
    let rows = |k: usize| heap.page(k).columns().map(<[i64]>::to_vec).collect();
    heap.pages().iter().enumerate().map(|(k, &pid)| (pid, rows(k))).collect()
}

fn fault_plan(fail_write: Option<u64>) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.fail_nth_writes = fail_write.into_iter().collect();
    plan
}

fn run_writer(rows: &Rows, files: usize, width: usize, len: usize, fail: Option<u64>) -> Observed {
    let disk = SimDisk::new();
    disk.set_fault_plan(fault_plan(fail));
    let mut writers: Vec<SpillWriter> =
        (0..files).map(|_| SpillWriter::charged(disk.clone(), len)).collect();
    let mut stopped = None;
    for (step, (file, values)) in rows.iter().enumerate() {
        if let Err(e) = writers[file % files].append(values[..width].iter().copied()) {
            stopped = Some((step, e));
            break;
        }
    }
    let mut sealed = Vec::new();
    if stopped.is_none() {
        for (f, writer) in writers.drain(..).enumerate() {
            match writer.finish() {
                Ok(file) => sealed.push(file),
                Err(e) => {
                    stopped = Some((rows.len() + f, e));
                    break;
                }
            }
        }
    }
    let observed = Observed {
        pages: sealed.iter().map(file_rows).collect(),
        writes: disk.stats().writes,
        reads: disk.stats().seq_reads + disk.stats().random_reads,
        temp_high_water: disk.temp_pages().high_water,
        stopped,
    };
    if observed.stopped.is_none() {
        assert_eq!(sealed.iter().map(SpillFile::record_count).sum::<u64>(), rows.len() as u64);
    }
    // Whatever happened, dropping the files gives every page back.
    drop((writers, sealed));
    assert_eq!((disk.page_count(), disk.temp_pages().live), (0, 0), "pages leaked");
    observed
}

fn run_old(rows: &Rows, files: usize, width: usize, len: usize, fail: Option<u64>) -> Observed {
    let disk = SimDisk::new();
    disk.set_fault_plan(fault_plan(fail));
    let mut olds: Vec<OldTemp> = (0..files).map(|_| OldTemp::new(&disk, len, width)).collect();
    let mut stopped = None;
    for (step, (file, values)) in rows.iter().enumerate() {
        if let Err(e) = olds[file % files].append(&values[..width], len) {
            stopped = Some((step, e));
            break;
        }
    }
    let mut sealed = 0;
    if stopped.is_none() {
        for (f, old) in olds.iter_mut().enumerate() {
            if let Err(e) = old.finish() {
                stopped = Some((rows.len() + f, e));
                break;
            }
            sealed += 1;
        }
    }
    Observed {
        pages: olds[..sealed].iter().map(|old| heap_rows(&old.heap)).collect(),
        writes: disk.stats().writes,
        reads: disk.stats().seq_reads + disk.stats().random_reads,
        // Nothing is freed while the files are written, so the temp
        // high-water is every page allocated so far.
        temp_high_water: disk.page_count() as u64,
        stopped,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_writer_is_the_append_path_it_replaced(
        rows in rows(),
        shape in (1usize..=8, 1usize..=8, prop_oneof![16usize..=96, 97usize..=700, 701usize..=2040]),
    ) {
        let (files, width, len) = shape;
        let len = len.max(width * 8);
        let clean = run_writer(&rows, files, width, len, None);
        prop_assert_eq!(&clean, &run_old(&rows, files, width, len, None));
        prop_assert!(clean.stopped.is_none());
        // The first, a middle and the last charged write, failed in turn:
        // both paths stop at the same row (or the same seal) with the
        // same error, the same writes charged and the same pages held.
        let charged = clean.writes;
        for k in [1, charged / 2, charged] {
            if k == 0 {
                continue;
            }
            let faulted = run_writer(&rows, files, width, len, Some(k));
            prop_assert_eq!(&faulted, &run_old(&rows, files, width, len, Some(k)));
            let (_, err) = faulted.stopped.as_ref().expect("the k-th charged write fails");
            prop_assert!(err.is_injected());
        }
    }

    #[test]
    fn dealing_rows_is_appending_them_one_by_one(
        rows in rows(),
        shape in (1usize..=8, 1usize..=8, prop_oneof![16usize..=96, 97usize..=700, 701usize..=2040]),
        (chunk, fault) in (1usize..40, 0usize..4),
    ) {
        let (files, width, len) = shape;
        let len = len.max(width * 8);
        let clean = append_then_seal(&rows, files, width, len, None, chunk, false);
        // No fault, then the first, a middle and the last charged write.
        let fail = [None, Some(1), Some(clean.1.writes / 2), Some(clean.1.writes)][fault].filter(|&k| k > 0);
        prop_assert_eq!(
            append_then_seal(&rows, files, width, len, fail, chunk, true),
            append_then_seal(&rows, files, width, len, fail, chunk, false)
        );
        // A paced disk takes a deal's steps page by page; it charges,
        // numbers and fails them as the unpaced appends do.
        prop_assert_eq!(
            append_then_seal_on(PACED, &rows, files, width, len, fail, chunk, true),
            append_then_seal(&rows, files, width, len, fail, chunk, false)
        );
    }

    #[test]
    fn a_row_no_page_can_hold_is_refused_with_nothing_appended_or_charged(
        len in MAX_RECORD + 1..=2 * PAGE_SIZE,
        values in (any::<i64>(), any::<i64>()),
    ) {
        let disk = SimDisk::new();
        for mut writer in [SpillWriter::charged(disk.clone(), len), SpillWriter::uncharged(disk.clone(), len)] {
            prop_assert_eq!(
                writer.append([values.0, values.1]).unwrap_err(),
                StorageError::RecordTooLarge { len, max: MAX_RECORD }
            );
            let sealed = writer.finish().unwrap();
            prop_assert_eq!((sealed.record_count(), sealed.page_count()), (0, 0));
        }
        prop_assert_eq!((disk.page_count(), disk.stats().total()), (0, 0));
        prop_assert_eq!(disk.temp_pages().high_water, 0);
    }
}

/// What [`append_then_seal`] saw: each file's pages with their rows (or
/// the error its seal met), the disk's counters, its temp high-water and
/// the errors the appends met.
type Sealed = (Vec<Result<Vec<Page>, StorageError>>, IoStats, u64, Vec<StorageError>);

/// Microseconds a paced disk sleeps an accounted access.
const PACED: u64 = 1;

/// Appends `rows` in batches of `chunk`, each dealt at once or appended row
/// by row; a batch stops at its first error and the next one goes on. Then
/// seals every writer, so the rows each holds can be seen.
fn append_then_seal(
    rows: &Rows,
    files: usize,
    width: usize,
    len: usize,
    fail: Option<u64>,
    chunk: usize,
    dealt: bool,
) -> Sealed {
    append_then_seal_on(0, rows, files, width, len, fail, chunk, dealt)
}

/// [`append_then_seal`] on a disk paced `latency_micros` an access.
#[allow(clippy::too_many_arguments)]
fn append_then_seal_on(
    latency_micros: u64,
    rows: &Rows,
    files: usize,
    width: usize,
    len: usize,
    fail: Option<u64>,
    chunk: usize,
    dealt: bool,
) -> Sealed {
    let disk = SimDisk::new();
    disk.set_io_latency_micros(latency_micros);
    disk.set_fault_plan(fault_plan(fail));
    let mut writers: Vec<SpillWriter> =
        (0..files).map(|_| SpillWriter::charged(disk.clone(), len)).collect();
    let mut errors = Vec::new();
    for part in rows.chunks(chunk) {
        let appended = if dealt {
            let columns: Vec<Vec<i64>> =
                (0..width).map(|c| part.iter().map(|(_, values)| values[c]).collect()).collect();
            let to = part.iter().enumerate().map(|(row, (file, _))| (row, file % files));
            SpillWriter::deal(&mut writers, &columns, to)
        } else {
            part.iter().try_for_each(|(file, values)| {
                writers[file % files].append(values[..width].iter().copied())
            })
        };
        errors.extend(appended.err());
    }
    let sealed: Vec<_> = writers.into_iter().map(SpillWriter::finish).collect();
    let pages =
        sealed.iter().map(|file| file.as_ref().map(file_rows).map_err(Clone::clone)).collect();
    (pages, disk.stats(), disk.temp_pages().high_water, errors)
}
