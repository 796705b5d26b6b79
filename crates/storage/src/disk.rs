//! The simulated disk: an allocator and accountant of page ids, with I/O
//! accounting and deterministic fault injection. It holds no bytes: a
//! page's contents are its owner's (a heap or spill file's columns, a
//! B-tree's nodes).

use parking_lot::{Mutex, MutexGuard};
use std::ops::ControlFlow;
use std::sync::Arc;

use dqep_catalog::SystemConfig;

use crate::error::StorageError;
use crate::fault::FaultPlan;
use crate::page::PageId;

/// Access counters, classified the way the cost model charges them: a read
/// of the page following the previously read page is *sequential*, any
/// other read is *random*, writes are charged sequentially (the simulator
/// writes whole files and runs in order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Sequential page reads.
    pub seq_reads: u64,
    /// Random page reads.
    pub random_reads: u64,
    /// Page writes.
    pub writes: u64,
}

impl IoStats {
    /// Total pages touched.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.seq_reads + self.random_reads + self.writes
    }

    /// Simulated seconds under the configured per-page constants.
    #[must_use]
    pub fn seconds(&self, config: &SystemConfig) -> f64 {
        (self.seq_reads + self.writes) as f64 * config.seq_page_io
            + self.random_reads as f64 * config.random_page_io
    }

    /// Counter difference (`self` later than `earlier`).
    #[must_use]
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads - earlier.seq_reads,
            random_reads: self.random_reads - earlier.random_reads,
            writes: self.writes - earlier.writes,
        }
    }
}

/// Merging per-session deltas into service-level totals. Only meaningful
/// for *deltas* (from [`IoStats::since`]) measured on disks no other
/// session touches concurrently; a shared disk's raw counters would bleed
/// other sessions' I/O into the sum.
impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.seq_reads += rhs.seq_reads;
        self.random_reads += rhs.random_reads;
        self.writes += rhs.writes;
    }
}

/// Temp pages (sort runs, Grace partitions) currently allocated and the
/// most that were allocated at once since the last
/// [`SimDisk::reset_temp_high_water`]. A `live` count that does not return
/// to zero between statements is a leak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TempPages {
    /// Temp pages allocated and not yet freed.
    pub live: u64,
    /// Largest `live` seen since the last reset.
    pub high_water: u64,
}

#[derive(Debug)]
struct DiskInner {
    /// Whether each page id ever issued and not truncated away is live.
    /// A dead slot is a reclaimed temp page: its id stays dead until the
    /// slot falls off the tail (see [`SimDisk::free`]).
    live: Vec<bool>,
    temp: TempPages,
    stats: IoStats,
    last_read: Option<PageId>,
    faults: FaultPlan,
    /// 1-based ordinal of the next accounted read, for fault matching.
    read_ordinal: u64,
    /// 1-based ordinal of the next accounted write, for fault matching.
    write_ordinal: u64,
    /// Most pages any one [`SimDisk::read_run`] has read under the latch.
    longest_run: usize,
    /// Real-time pacing per accounted access, in microseconds (0 = off).
    latency_micros: u64,
}

/// A shared, thread-safe simulated disk.
///
/// All storage structures ([`crate::HeapFile`], [`crate::SpillFile`],
/// [`crate::BTree`], [`crate::BufferPool`]) allocate page ids and account
/// for their accesses through one `SimDisk`, so a query's total I/O is
/// read off a single [`IoStats`]. The disk keeps which ids are live and
/// how accesses are classified, counted, failed and paced; what a page
/// holds is its owner's.
///
/// # One latch a run
///
/// Every access takes the disk's latch. The bulk paths take it once for
/// many pages: [`SimDisk::read_run`] accounts a run of reads, the write
/// steps of a dealt batch of spilled rows (its temp page ids and write
/// charges, crate-private) and [`SimDisk::note_writes`] a run of writes,
/// each exactly as the one-page calls in a loop would. A paced disk takes
/// every one of those steps on its own, so no sleep is ever under the
/// latch.
///
/// # Fault injection
///
/// A [`FaultPlan`] installed with [`SimDisk::set_fault_plan`] fails
/// matching **accounted** accesses with
/// [`StorageError::InjectedFault`]. Loading allocates ids and accounts
/// for nothing, so a database can always be generated and then queried
/// under faults.
#[derive(Debug, Clone)]
pub struct SimDisk {
    inner: Arc<Mutex<DiskInner>>,
}

impl SimDisk {
    /// An empty disk.
    #[must_use]
    pub fn new() -> SimDisk {
        SimDisk {
            inner: Arc::new(Mutex::new(DiskInner {
                live: Vec::new(),
                temp: TempPages::default(),
                stats: IoStats::default(),
                last_read: None,
                faults: FaultPlan::none(),
                read_ordinal: 0,
                write_ordinal: 0,
                longest_run: 0,
                latency_micros: 0,
            })),
        }
    }

    /// Paces every **accounted** read and write by sleeping `micros`
    /// real-time microseconds (0 disables pacing, the default). Simulated
    /// cost accounting is unchanged — pacing only makes the wall-clock
    /// shape of a query resemble a device with latency, so concurrent
    /// sessions can demonstrably overlap their I/O stalls. The sleep
    /// happens *outside* the disk lock; concurrent accessors of other
    /// disks (or loads) are never serialized behind it.
    pub fn set_io_latency_micros(&self, micros: u64) {
        self.inner.lock().latency_micros = micros;
    }

    /// Whether accesses sleep ([`SimDisk::set_io_latency_micros`] above
    /// 0): the one case in which work over this disk gains from threads,
    /// whose sleeps overlap.
    #[must_use]
    pub fn is_paced(&self) -> bool {
        self.inner.lock().latency_micros > 0
    }

    /// Installs a fault plan and resets the access ordinals it matches
    /// against, so "fail the 3rd read" means the 3rd read *after*
    /// installation.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut inner = self.inner.lock();
        inner.faults = plan;
        inner.read_ordinal = 0;
        inner.write_ordinal = 0;
    }

    /// The currently installed fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        self.inner.lock().faults.clone()
    }

    /// Allocates the id of a page that lives as long as the disk (base
    /// tables, B-trees); not charged as I/O (allocation happens at load
    /// time in the experiments).
    pub fn allocate(&self) -> PageId {
        self.inner.lock().push_page()
    }

    /// Allocates the id of a page of a query-lifetime file, counted in
    /// [`SimDisk::temp_pages`] until its owner gives it back with
    /// [`SimDisk::free`]. Not charged as I/O.
    pub(crate) fn allocate_temp(&self) -> PageId {
        self.inner.lock().push_temp_page()
    }

    /// Gives temp pages back. Each id goes dead at once: an accounted
    /// access to it is [`StorageError::UnallocatedPage`]. Only the
    /// *trailing* run of dead slots is cut off the live flags, so an id is
    /// handed out again only once every page allocated after it is gone
    /// too — a live id is never reissued, and a statement that frees
    /// everything it allocated leaves the next one the same ids, hence the
    /// same sequential/random read classification. Idempotent: ids
    /// already freed or never allocated are skipped (a `Drop` after a
    /// half-failed spill must not panic).
    pub(crate) fn free(&self, ids: &[PageId]) {
        let mut inner = self.inner.lock();
        for id in ids {
            if inner.live.get_mut(id.0 as usize).is_some_and(std::mem::take) {
                inner.temp.live -= 1;
            }
        }
        while inner.live.last() == Some(&false) {
            inner.live.pop();
        }
    }

    /// One past the highest page id in use: live pages plus the dead slots
    /// below the last live one. Never below its value after loading (base
    /// pages are not reclaimed).
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// Live and high-water temp-page counts.
    #[must_use]
    pub fn temp_pages(&self) -> TempPages {
        self.inner.lock().temp
    }

    /// Restarts the temp-page high-water at the current live count — the
    /// start of a statement whose own high-water is to be read off
    /// [`SimDisk::temp_pages`] afterwards.
    pub fn reset_temp_high_water(&self) {
        let mut inner = self.inner.lock();
        inner.temp.high_water = inner.temp.live;
    }

    /// Reads a page, charging sequential or random I/O: the accounting a
    /// reader does before it looks at what its page holds.
    ///
    /// # Errors
    /// [`StorageError::UnallocatedPage`] for an id that was never
    /// allocated or has been freed; [`StorageError::InjectedFault`] when
    /// the installed fault plan fails this read. Failed reads are still
    /// charged — the I/O was attempted — and still advance the read
    /// ordinal.
    pub fn read(&self, id: PageId) -> Result<(), StorageError> {
        let (result, latency) = {
            let mut inner = self.inner.lock();
            (inner.account_read(id), inner.latency_micros)
        };
        Self::pace(latency);
        result
    }

    /// Reads the pages `ids` names, in that order, under **one**
    /// acquisition of the disk latch, handing each id to `visit` once its
    /// read has succeeded: what [`SimDisk::read`] in a loop over the same
    /// ids would classify, count and fail, without a lock round trip per
    /// page. A heap or spill file's reader counts pages and rows in the
    /// visitor and copies the rows from the file after the run; a visitor
    /// that ends the run with [`ControlFlow::Break`] leaves the rest
    /// unread.
    ///
    /// The latch is not re-entrant: **nothing `ids` or `visit` calls may
    /// touch this disk**, which is why they deal in page ids and counts and
    /// nothing that reaches storage. Two rules keep the hold
    /// short: a paced disk ([`SimDisk::set_io_latency_micros`]) runs page
    /// by page, as `read` in a loop, so it never sleeps under the latch;
    /// and readers that may share a disk from threads — the morsel-scan
    /// workers of one parallel query — end a run after
    /// [`crate::DEFAULT_MORSEL_PAGES`]
    /// ([`SimDisk::longest_run`] is the witness).
    ///
    /// # Errors
    /// As [`SimDisk::read`], for the first page that fails: the pages
    /// before it have been visited, it has been charged, and no id after
    /// it has been drawn from `ids`.
    pub fn read_run(
        &self,
        ids: impl IntoIterator<Item = PageId>,
        mut visit: impl FnMut(PageId) -> ControlFlow<()>,
    ) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        if inner.latency_micros > 0 {
            drop(inner);
            for id in ids {
                self.read(id)?;
                if visit(id).is_break() {
                    break;
                }
            }
            return Ok(());
        }
        let mut pages = 0;
        let mut result = Ok(());
        for id in ids {
            pages += 1;
            match inner.account_read(id) {
                Ok(()) => {
                    if visit(id).is_break() {
                        break;
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        inner.longest_run = inner.longest_run.max(pages);
        result
    }

    /// Sleeps for one paced access (the I/O was attempted and charged, so
    /// faulted accesses pace too). Called with the disk lock released.
    fn pace(latency_micros: u64) {
        if latency_micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(latency_micros));
        }
    }

    /// Charges one write without transferring data — the write of a page
    /// of a query-lifetime file, whose rows stay with the file. The only
    /// accounted write: base tables are written once, at load.
    ///
    /// # Errors
    /// [`StorageError::InjectedFault`] when the installed fault plan fails
    /// this (accounted) write.
    pub fn note_write(&self) -> Result<(), StorageError> {
        let (result, latency) = {
            let mut inner = self.inner.lock();
            (inner.charge_write(), inner.latency_micros)
        };
        Self::pace(latency);
        result
    }

    /// Charges `n` writes, as [`SimDisk::note_write`] `n` times would —
    /// the same ordinals, the same write failed — under one acquisition of
    /// the disk latch: a sort run's writes, settled at once. A paced disk
    /// charges them one by one, sleeping outside the latch.
    ///
    /// # Errors
    /// As [`SimDisk::note_write`], for the first write that fails: the
    /// writes before it and it are charged, none after it.
    pub fn note_writes(&self, n: usize) -> Result<(), StorageError> {
        let mut steps = self.write_steps();
        (0..n).try_for_each(|_| steps.note_write())
    }

    /// The steps of writing query-lifetime files — a temp page's id, a
    /// page's write charge — taken under **one** acquisition of the disk
    /// latch, which the returned steps hold until they are dropped: the
    /// write-side twin of [`SimDisk::read_run`]. Each step is what
    /// [`SimDisk::allocate_temp`] or [`SimDisk::note_write`] would do,
    /// without a lock round trip a page. A paced disk
    /// ([`SimDisk::set_io_latency_micros`]) takes the steps one by one, as
    /// those calls do, so it never sleeps under the latch. The latch is
    /// not re-entrant: nothing may touch this disk while the steps live.
    pub(crate) fn write_steps(&self) -> WriteSteps<'_> {
        let inner = self.inner.lock();
        let latched = (inner.latency_micros == 0).then_some(inner);
        WriteSteps { disk: self, latched }
    }

    /// Whether `self` and `other` are handles of one disk.
    pub(crate) fn same(&self, other: &SimDisk) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.inner.lock().stats
    }

    /// The most pages one [`SimDisk::read_run`] has read under a single
    /// latch acquisition since the last [`SimDisk::reset_stats`]: how a
    /// test sees that readers sharing a disk keep their runs short.
    #[must_use]
    pub fn longest_run(&self) -> usize {
        self.inner.lock().longest_run
    }

    /// Resets counters (e.g. between the load phase and a measured query).
    /// Fault-plan ordinals are left alone; use [`SimDisk::set_fault_plan`]
    /// to restart those.
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        inner.stats = IoStats::default();
        inner.last_read = None;
        inner.longest_run = 0;
    }
}

/// Write steps on one disk: see [`SimDisk::write_steps`].
pub(crate) struct WriteSteps<'a> {
    disk: &'a SimDisk,
    /// The held latch; `None` on a paced disk, whose steps lock and sleep
    /// one at a time.
    latched: Option<MutexGuard<'a, DiskInner>>,
}

impl WriteSteps<'_> {
    /// [`SimDisk::allocate_temp`].
    pub(crate) fn allocate_temp(&mut self) -> PageId {
        match &mut self.latched {
            Some(inner) => inner.push_temp_page(),
            None => self.disk.allocate_temp(),
        }
    }

    /// [`SimDisk::note_write`].
    pub(crate) fn note_write(&mut self) -> Result<(), StorageError> {
        match &mut self.latched {
            Some(inner) => inner.charge_write(),
            None => self.disk.note_write(),
        }
    }
}

impl DiskInner {
    fn push_page(&mut self) -> PageId {
        let id = PageId(self.live.len() as u32);
        self.live.push(true);
        id
    }

    /// A page of a query-lifetime file, counted as a live temp page.
    fn push_temp_page(&mut self) -> PageId {
        self.temp.live += 1;
        self.temp.high_water = self.temp.high_water.max(self.temp.live);
        self.push_page()
    }

    /// Accounts one write that transfers no data, failing it if the fault
    /// plan says so.
    fn charge_write(&mut self) -> Result<(), StorageError> {
        self.stats.writes += 1;
        self.write_ordinal += 1;
        if self.faults.write_fails(self.write_ordinal) {
            return Err(StorageError::InjectedFault { page: PageId::INVALID, write: true });
        }
        Ok(())
    }

    /// The accounting of one read, the body [`SimDisk::read`] and every
    /// page of a [`SimDisk::read_run`] share: classify and count it, move
    /// the read position, advance the ordinal, consult the fault plan,
    /// and only then check that the id is live — a failed read is charged.
    fn account_read(&mut self, id: PageId) -> Result<(), StorageError> {
        let sequential = matches!(self.last_read, Some(prev) if prev.0 + 1 == id.0);
        if sequential {
            self.stats.seq_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
        self.last_read = Some(id);
        self.read_ordinal += 1;
        let fails = self.faults.read_fails(id, self.read_ordinal);
        if self.live.get(id.0 as usize) != Some(&true) {
            return Err(StorageError::UnallocatedPage(id));
        }
        if fails {
            return Err(StorageError::InjectedFault { page: id, write: false });
        }
        Ok(())
    }
}

impl Default for SimDisk {
    fn default() -> Self {
        SimDisk::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_vs_random_classification() {
        let disk = SimDisk::new();
        let ids: Vec<PageId> = (0..4).map(|_| disk.allocate()).collect();
        disk.read(ids[0]).unwrap(); // first read: random
        disk.read(ids[1]).unwrap(); // sequential
        disk.read(ids[2]).unwrap(); // sequential
        disk.read(ids[0]).unwrap(); // random (backwards)
        disk.read(ids[3]).unwrap(); // random (skip)
        let s = disk.stats();
        assert_eq!(s.seq_reads, 2);
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn stats_seconds_and_since() {
        let cfg = SystemConfig::paper_1994();
        let s = IoStats { seq_reads: 100, random_reads: 10, writes: 50 };
        let secs = s.seconds(&cfg);
        assert!((secs - (150.0 * 0.001 + 10.0 * 0.004)).abs() < 1e-12);
        assert_eq!(s.total(), 160);

        let earlier = IoStats { seq_reads: 40, random_reads: 4, writes: 20 };
        let d = s.since(&earlier);
        assert_eq!(d, IoStats { seq_reads: 60, random_reads: 6, writes: 30 });
    }

    #[test]
    fn reset_clears_counters_and_position() {
        let disk = SimDisk::new();
        let a = disk.allocate();
        let b = disk.allocate();
        disk.read(a).unwrap();
        disk.reset_stats();
        assert_eq!(disk.stats(), IoStats::default());
        // After reset, even the "next" page counts as random.
        disk.read(b).unwrap();
        assert_eq!(disk.stats().random_reads, 1);
    }

    #[test]
    fn reading_unallocated_page_errors() {
        let disk = SimDisk::new();
        assert_eq!(disk.read(PageId(5)).unwrap_err(), StorageError::UnallocatedPage(PageId(5)));
    }

    #[test]
    fn use_after_free_is_a_typed_error_and_still_charged() {
        let disk = SimDisk::new();
        let base = disk.allocate();
        let temps: Vec<PageId> = (0..3).map(|_| disk.allocate_temp()).collect();
        disk.free(&temps[1..2]);
        // The dead slot sits below a live page, so it is not truncated.
        assert_eq!(disk.page_count(), 4);
        disk.set_fault_plan(FaultPlan::nth_read(2));
        assert_eq!(disk.read(temps[1]).unwrap_err(), StorageError::UnallocatedPage(temps[1]));
        assert!(disk.read(base).unwrap_err().is_injected(), "the dead read advanced the ordinal");
        let s = disk.stats();
        assert_eq!(s.seq_reads + s.random_reads, 2, "failed reads are charged");
        // Its neighbours are untouched.
        assert!(disk.read(temps[0]).is_ok() && disk.read(temps[2]).is_ok());
    }

    #[test]
    fn free_is_idempotent_and_truncates_only_the_dead_tail() {
        let disk = SimDisk::new();
        let base = disk.allocate();
        let t: Vec<PageId> = (0..3).map(|_| disk.allocate_temp()).collect();
        assert_eq!(disk.temp_pages(), TempPages { live: 3, high_water: 3 });
        disk.free(&[t[1]]);
        disk.free(&[t[1], PageId(99), PageId::INVALID]); // twice, past the end: no-ops
        assert_eq!((disk.page_count(), disk.temp_pages().live), (4, 2));
        // Freeing the last page takes the dead slot before it along …
        disk.free(&[t[2]]);
        assert_eq!(disk.page_count(), 2);
        // … so those ids, and only those, are issued again, live.
        let again = disk.allocate_temp();
        assert_eq!(again, t[1]);
        assert!(disk.read(again).is_ok());
        disk.free(&[t[0], again]);
        assert_eq!(disk.page_count(), 1, "never below the permanent pages");
        assert!(disk.read(base).is_ok());
        assert_eq!(disk.temp_pages(), TempPages { live: 0, high_water: 3 });
        disk.reset_temp_high_water();
        assert_eq!(disk.temp_pages(), TempPages::default());
    }

    #[test]
    fn nth_read_fault_fires_once() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        disk.set_fault_plan(FaultPlan::nth_read(2));
        assert!(disk.read(id).is_ok());
        let err = disk.read(id).unwrap_err();
        assert!(err.is_injected());
        assert!(disk.read(id).is_ok(), "fault is one-shot by ordinal");
        // Failed reads are still charged.
        assert_eq!(disk.stats().seq_reads + disk.stats().random_reads, 3);
    }

    #[test]
    fn page_range_fault_spares_allocation() {
        let disk = SimDisk::new();
        let a = disk.allocate();
        let b = disk.allocate();
        disk.set_fault_plan(FaultPlan::page_range(1, 2));
        assert!(disk.read(a).is_ok());
        assert!(disk.read(b).is_err());
        // Loaders bypass the plan entirely: allocation is not an access.
        let c = disk.allocate();
        assert_eq!((c, disk.stats().total()), (PageId(2), 2));
        assert!(disk.read(c).is_err());
    }

    #[test]
    fn write_faults_hit_note_write() {
        let disk = SimDisk::new();
        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![2];
        disk.set_fault_plan(plan);
        assert!(disk.note_write().is_ok());
        let err = disk.note_write().unwrap_err();
        assert_eq!(err, StorageError::InjectedFault { page: PageId::INVALID, write: true });
        assert!(disk.note_write().is_ok());
    }

    #[test]
    fn note_writes_is_note_write_in_a_loop() {
        for latency in [0, 1] {
            let disk = SimDisk::new();
            disk.set_io_latency_micros(latency);
            let mut plan = FaultPlan::none();
            plan.fail_nth_writes = vec![3, 6];
            disk.set_fault_plan(plan);
            disk.note_writes(0).unwrap();
            assert!(disk.note_writes(5).unwrap_err().is_injected(), "paced: {latency}");
            assert_eq!(disk.stats().writes, 3, "none charged after the failed one");
            disk.note_writes(2).unwrap();
            assert!(disk.note_write().unwrap_err().is_injected(), "the ordinals go on");
        }
    }

    #[test]
    fn set_fault_plan_resets_ordinals() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        disk.read(id).unwrap();
        disk.read(id).unwrap();
        disk.set_fault_plan(FaultPlan::nth_read(1));
        assert!(disk.read(id).is_err(), "ordinal restarted at installation");
    }

    #[test]
    fn stats_deltas_merge() {
        let mut total = IoStats::default();
        total += IoStats { seq_reads: 3, random_reads: 1, writes: 2 };
        total += IoStats { seq_reads: 1, random_reads: 4, writes: 0 };
        assert_eq!(total, IoStats { seq_reads: 4, random_reads: 5, writes: 2 });
        assert_eq!(total.total(), 11);
    }

    #[test]
    fn io_pacing_slows_accounted_reads_only() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        assert!(!disk.is_paced(), "unpaced by default");
        disk.set_io_latency_micros(2_000);
        assert!(disk.is_paced());
        let start = std::time::Instant::now();
        disk.read(id).unwrap();
        assert!(start.elapsed().as_micros() >= 2_000, "accounted read paced");
        let start = std::time::Instant::now();
        let _ = disk.allocate();
        assert!(start.elapsed().as_micros() < 2_000, "allocation not paced");
        disk.set_io_latency_micros(0);
        assert!(!disk.is_paced());
        // Accounting is identical with pacing on or off.
        assert_eq!(disk.stats().total(), 1);
    }
}
