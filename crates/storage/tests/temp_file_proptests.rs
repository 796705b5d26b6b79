//! Properties of query-lifetime files.
//!
//! **Page lifecycle**: over any interleaving of creating, filling,
//! sealing, reading and dropping temp files beside a permanent one on one
//! disk, a live page id is never handed out twice, every sealed file reads
//! back what was appended to it, and a freed id that has not been issued
//! again is a typed error.
//!
//! **Writer ≡ append per encoded record**: `SpillWriter` builds its pages
//! in place and moves them to the disk; the path it replaced encoded each
//! row into a record buffer and copied the tail page to the disk on every
//! append. Both must leave the same bytes under the same page ids, charge
//! the same writes in the same order, and fail at the same row under the
//! same write fault.

use std::collections::HashSet;

use dqep_storage::gen::encode_record;
use dqep_storage::{
    FaultPlan, HeapFile, PageId, SimDisk, SlottedPage, SpillFile, SpillWriter, StorageError,
    PAGE_SIZE,
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
        let mut base = HeapFile::new(disk.clone());
        for seq in 0..10 {
            base.append(&encode_record(&stamp(u64::MAX, seq), STAMP_LEN)).unwrap();
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
                // Seal it: from here on it can be read.
                (1, Some((id, Temp::Open(writer), len))) => {
                    files[slot] = Some((id, Temp::Sealed(writer.finish().unwrap()), len));
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
            for (id, file, len) in files.iter().flatten() {
                match file {
                    Temp::Open(_) => unsealed_pages += len.div_ceil(STAMPS_PER_PAGE),
                    Temp::Sealed(file) => {
                        for &pid in file.pages() {
                            prop_assert!(owned.insert(pid), "{pid} is live in two files");
                        }
                        // It reads back exactly what was appended to it.
                        let mut cols = vec![Vec::new(), Vec::new()];
                        for page in file.scan_pages() {
                            dqep_storage::gen::decode_page_columns_into(&page.unwrap(), &mut cols);
                        }
                        prop_assert_eq!(&cols[0], &vec![*id as i64; *len]);
                        prop_assert_eq!(&cols[1], &(0..*len as i64).collect::<Vec<_>>());
                        prop_assert_eq!(file.record_count() as usize, *len);
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
/// `append(&encode_record(values, len))`, allocates a page id when a
/// page's first record arrives, and charges one write when the next
/// record finds the tail full and one for the tail at `finish`. The bytes
/// and the ids come from [`HeapFile::append`] — the load path, which the
/// old temp path shared — on a disk of its own; a mirror of the tail page
/// says when it is full, and the charges go to the same disk in the same
/// order.
struct OldTemp {
    heap: HeapFile,
    mirror: Option<SlottedPage>,
}

impl OldTemp {
    fn new(disk: &SimDisk) -> OldTemp {
        OldTemp { heap: HeapFile::new(disk.clone()), mirror: None }
    }

    fn append(&mut self, values: &[i64], len: usize) -> Result<(), StorageError> {
        let record = encode_record(values, len);
        SlottedPage::check_fits(record.len())?;
        loop {
            let mut tail = self.mirror.take().unwrap_or_default();
            if tail.insert(&record)?.is_some() {
                self.mirror = Some(tail);
                return self.heap.append(&record).map(|_| ());
            }
            self.heap.disk().note_write()?;
        }
    }

    fn finish(&mut self) -> Result<(), StorageError> {
        match self.mirror.take() {
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

/// What one run of a path observed: the step (row index, then file index
/// of the seals) and the error it stopped at, if any; page ids and bytes
/// per sealed file; the disk's counters. Nothing is freed before a run
/// stops, so the temp high-water is also the pages held at that point.
#[derive(PartialEq)]
struct Observed {
    stopped: Option<(usize, StorageError)>,
    pages: Vec<Vec<(PageId, Vec<u8>)>>,
    writes: u64,
    reads: u64,
    temp_high_water: u64,
}

/// Page ids, not page bytes: a failing case stays readable.
impl std::fmt::Debug for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<Vec<PageId>> =
            self.pages.iter().map(|file| file.iter().map(|&(pid, _)| pid).collect()).collect();
        write!(
            f,
            "stopped {:?}, writes {}, reads {}, temp high-water {}, page ids {ids:?} (bytes not shown)",
            self.stopped, self.writes, self.reads, self.temp_high_water
        )
    }
}

fn page_bytes(disk: &SimDisk, pages: &[PageId]) -> Vec<(PageId, Vec<u8>)> {
    pages.iter().map(|&pid| (pid, disk.read_unaccounted(pid).to_vec())).collect()
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
        pages: sealed.iter().map(|file| page_bytes(&disk, file.pages())).collect(),
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
    let mut olds: Vec<OldTemp> = (0..files).map(|_| OldTemp::new(&disk)).collect();
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
        pages: olds[..sealed].iter().map(|old| page_bytes(&disk, old.heap.pages())).collect(),
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
    fn a_row_no_page_can_hold_is_refused_with_nothing_appended_or_charged(
        len in SlottedPage::MAX_RECORD + 1..=2 * PAGE_SIZE,
        values in (any::<i64>(), any::<i64>()),
    ) {
        let disk = SimDisk::new();
        for mut writer in [SpillWriter::charged(disk.clone(), len), SpillWriter::uncharged(disk.clone(), len)] {
            prop_assert_eq!(
                writer.append([values.0, values.1]).unwrap_err(),
                StorageError::RecordTooLarge { len, max: SlottedPage::MAX_RECORD }
            );
            let sealed = writer.finish().unwrap();
            prop_assert_eq!((sealed.record_count(), sealed.page_count()), (0, 0));
        }
        prop_assert_eq!((disk.page_count(), disk.stats().total()), (0, 0));
        prop_assert_eq!(disk.temp_pages().high_water, 0);
    }
}
