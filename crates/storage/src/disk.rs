//! The simulated disk: an in-memory page store with I/O accounting and
//! deterministic fault injection.

use parking_lot::Mutex;
use std::ops::ControlFlow;
use std::sync::Arc;

use dqep_catalog::SystemConfig;

use crate::error::StorageError;
use crate::fault::FaultPlan;
use crate::page::{PageId, PageRef, PAGE_SIZE};

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
    /// One slot per page id ever issued and not truncated away. `None` is
    /// a reclaimed temp page: its buffer is gone, its id stays dead until
    /// the slot falls off the tail (see [`SimDisk::free`]).
    pages: Vec<Option<PageRef>>,
    /// What a page holds between allocation and its first write: every
    /// such slot shares this one buffer (a write never changes a shared
    /// buffer, it replaces the slot's reference).
    zero: PageRef,
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
/// All storage structures ([`crate::HeapFile`], [`crate::BTree`],
/// [`crate::BufferPool`]) allocate and access pages through one `SimDisk`,
/// so a query's total I/O is read off a single [`IoStats`].
///
/// # Fault injection
///
/// A [`FaultPlan`] installed with [`SimDisk::set_fault_plan`] fails
/// matching **accounted** accesses with
/// [`StorageError::InjectedFault`]. Unaccounted (load-time) access is
/// exempt by design, so a database can always be generated and then
/// queried under faults.
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
                pages: Vec::new(),
                zero: Arc::new([0u8; PAGE_SIZE]),
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
    /// disks (or unaccounted loads) are never serialized behind it.
    pub fn set_io_latency_micros(&self, micros: u64) {
        self.inner.lock().latency_micros = micros;
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

    /// Allocates a zeroed page that lives as long as the disk (base
    /// tables, B-trees); not charged as I/O (allocation happens at load
    /// time in the experiments).
    pub fn allocate(&self) -> PageId {
        self.inner.lock().push_page()
    }

    /// Allocates a zeroed page of a query-lifetime file, counted in
    /// [`SimDisk::temp_pages`] until its owner gives it back with
    /// [`SimDisk::free`]. Not charged as I/O.
    pub(crate) fn allocate_temp(&self) -> PageId {
        let mut inner = self.inner.lock();
        inner.temp.live += 1;
        inner.temp.high_water = inner.temp.high_water.max(inner.temp.live);
        inner.push_page()
    }

    /// Takes over a finished page of a query-lifetime file **by move**:
    /// the slot now refers to the writer's buffer, nothing is copied.
    /// When `charged`, one write is accounted exactly as by
    /// [`SimDisk::note_write`] — the page is in place whether or not that
    /// write is failed by the fault plan. An id that is not live is left
    /// alone.
    ///
    /// # Errors
    /// [`StorageError::InjectedFault`] when `charged` and the installed
    /// fault plan fails this write.
    pub(crate) fn seal_temp(
        &self,
        id: PageId,
        page: PageRef,
        charged: bool,
    ) -> Result<(), StorageError> {
        let (result, latency) = {
            let mut inner = self.inner.lock();
            if let Some(slot) = inner.live_page_mut(id) {
                *slot = page;
            }
            if !charged {
                return Ok(());
            }
            (inner.charge_write(), inner.latency_micros)
        };
        Self::pace(latency);
        result
    }

    /// Gives temp pages back. Each buffer is released at once and its id
    /// goes dead: an accounted access to it is
    /// [`StorageError::UnallocatedPage`]. Only the *trailing* run of dead
    /// slots is cut off the page vector, so an id is handed out again only
    /// once every page allocated after it is gone too — a live id is never
    /// reissued, and a statement that frees everything it allocated leaves
    /// the next one the same ids, hence the same sequential/random read
    /// classification. Idempotent: ids already freed or never allocated
    /// are skipped (a `Drop` after a half-failed spill must not panic).
    pub(crate) fn free(&self, ids: &[PageId]) {
        let mut inner = self.inner.lock();
        for id in ids {
            let freed = inner.pages.get_mut(id.0 as usize).and_then(Option::take);
            if freed.is_some() {
                inner.temp.live -= 1;
            }
        }
        while let Some(None) = inner.pages.last() {
            inner.pages.pop();
        }
    }

    /// One past the highest page id in use: live pages plus the dead slots
    /// below the last live one. Never below its value after loading (base
    /// pages are not reclaimed).
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.inner.lock().pages.len()
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

    /// Reads a page, charging sequential or random I/O. The result shares
    /// the disk's buffer: no bytes are copied — a [`SimDisk::read_run`]
    /// of one page whose reader keeps it.
    ///
    /// # Errors
    /// [`StorageError::UnallocatedPage`] for an id that was never
    /// allocated or has been freed; [`StorageError::InjectedFault`] when
    /// the installed fault plan fails this read. Failed reads are still
    /// charged — the I/O was attempted — and still advance the read
    /// ordinal.
    pub fn read(&self, id: PageId) -> Result<PageRef, StorageError> {
        let (result, latency) = {
            let mut inner = self.inner.lock();
            (inner.account_read(id).map(Arc::clone), inner.latency_micros)
        };
        Self::pace(latency);
        result
    }

    /// Reads the pages `ids` names, in that order, under **one**
    /// acquisition of the disk latch, lending each to `visit` where it
    /// lies: what [`SimDisk::read`] in a loop over the same ids would
    /// classify, count and fail, without a lock round trip and a reference
    /// count up and down per page. A visitor that must keep a page (a
    /// scan's unfinished tail) clones the reference it is lent; one that
    /// ends the run with [`ControlFlow::Break`] leaves the rest unread.
    ///
    /// The latch is not re-entrant: **nothing `ids` or `visit` calls may
    /// touch this disk**, which is why they deal in page ids and page
    /// bytes and nothing that reaches storage. Two rules keep the hold
    /// short: a paced disk ([`SimDisk::set_io_latency_micros`]) runs page
    /// by page, as `read` in a loop, so it never sleeps under the latch;
    /// and readers that share a disk — the workers of one parallel query —
    /// end a run after [`crate::DEFAULT_MORSEL_PAGES`]
    /// ([`SimDisk::longest_run`] is the witness).
    ///
    /// # Errors
    /// As [`SimDisk::read`], for the first page that fails: the pages
    /// before it have been visited, it has been charged, and no id after
    /// it has been drawn from `ids`.
    pub fn read_run(
        &self,
        ids: impl IntoIterator<Item = PageId>,
        mut visit: impl FnMut(&PageRef) -> ControlFlow<()>,
    ) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        if inner.latency_micros > 0 {
            drop(inner);
            for id in ids {
                if visit(&self.read(id)?).is_break() {
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
                Ok(page) => {
                    if visit(page).is_break() {
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

    /// Writes a page, charging one write.
    ///
    /// # Errors
    /// [`StorageError::BadPageLength`] unless `data` is exactly one page
    /// (refused before anything is charged);
    /// [`StorageError::UnallocatedPage`] for an id that was never
    /// allocated or has been freed; [`StorageError::InjectedFault`] when
    /// the installed fault plan fails this write. Both are charged and
    /// advance the write ordinal; nothing is stored.
    pub fn write(&self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        let data: &[u8; PAGE_SIZE] = data
            .try_into()
            .map_err(|_| StorageError::BadPageLength { got: data.len(), expected: PAGE_SIZE })?;
        let (result, latency) = {
            let mut inner = self.inner.lock();
            inner.stats.writes += 1;
            inner.write_ordinal += 1;
            let fails = inner.faults.write_fails(inner.write_ordinal);
            let result = match inner.live_page_mut(id) {
                None => Err(StorageError::UnallocatedPage(id)),
                Some(_) if fails => Err(StorageError::InjectedFault { page: id, write: true }),
                Some(page) => {
                    store(page, data);
                    Ok(())
                }
            };
            (result, inner.latency_micros)
        };
        Self::pace(latency);
        result
    }

    /// Reads a page **without** charging I/O — used by loaders (e.g.
    /// B-tree construction) whose effort the experiments do not account.
    /// Exempt from fault plans.
    ///
    /// # Panics
    /// Panics on an unallocated or freed page id: loaders only touch pages
    /// they allocated themselves, so a dead id here is a bug, not a
    /// runtime fault.
    #[must_use]
    pub fn read_unaccounted(&self, id: PageId) -> PageRef {
        match self.inner.lock().live_page(id) {
            Some(page) => Arc::clone(page),
            None => panic!("unaccounted read of unallocated page {id}"),
        }
    }

    /// Writes a page **without** charging I/O — used by loaders building
    /// the initial database, which the experiments do not account.
    /// Exempt from fault plans.
    ///
    /// # Panics
    /// Panics on an unallocated or freed page id or a wrong buffer length
    /// (loader bugs, not runtime faults).
    pub fn write_unaccounted(&self, id: PageId, data: &[u8]) {
        let data: &[u8; PAGE_SIZE] =
            data.try_into().unwrap_or_else(|_| panic!("page writes are whole pages"));
        match self.inner.lock().live_page_mut(id) {
            Some(page) => store(page, data),
            None => panic!("unaccounted write of unallocated page {id}"),
        }
    }

    /// Charges one write without transferring data — used by temp heap
    /// files that buffer a page in memory and account it when sealed.
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

impl DiskInner {
    fn push_page(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        self.pages.push(Some(Arc::clone(&self.zero)));
        id
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
    /// and only then look the page up — a failed read is charged.
    fn account_read(&mut self, id: PageId) -> Result<&PageRef, StorageError> {
        let sequential = matches!(self.last_read, Some(prev) if prev.0 + 1 == id.0);
        if sequential {
            self.stats.seq_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
        self.last_read = Some(id);
        self.read_ordinal += 1;
        let fails = self.faults.read_fails(id, self.read_ordinal);
        match self.live_page(id) {
            None => Err(StorageError::UnallocatedPage(id)),
            Some(_) if fails => Err(StorageError::InjectedFault { page: id, write: false }),
            Some(page) => Ok(page),
        }
    }

    fn live_page(&self, id: PageId) -> Option<&PageRef> {
        self.pages.get(id.0 as usize)?.as_ref()
    }

    fn live_page_mut(&mut self, id: PageId) -> Option<&mut PageRef> {
        self.pages.get_mut(id.0 as usize)?.as_mut()
    }
}

/// The copy-on-write rule for page writes: overwrite the buffer in place
/// when the disk holds the only reference, otherwise leave it to its
/// readers and install a fresh one — a [`PageRef`] handed out by a read
/// never changes under its holder.
fn store(page: &mut PageRef, data: &[u8; PAGE_SIZE]) {
    match Arc::get_mut(page) {
        Some(buf) => *buf = *data,
        None => *page = Arc::new(*data),
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
        let _ = disk.read(ids[0]).unwrap(); // first read: random
        let _ = disk.read(ids[1]).unwrap(); // sequential
        let _ = disk.read(ids[2]).unwrap(); // sequential
        let _ = disk.read(ids[0]).unwrap(); // random (backwards)
        let _ = disk.read(ids[3]).unwrap(); // random (skip)
        let s = disk.stats();
        assert_eq!(s.seq_reads, 2);
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn write_roundtrip_and_accounting() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 42;
        buf[PAGE_SIZE - 1] = 7;
        disk.write(id, &buf).unwrap();
        let back = disk.read(id).unwrap();
        assert_eq!(back[0], 42);
        assert_eq!(back[PAGE_SIZE - 1], 7);
        assert_eq!(disk.stats().writes, 1);

        disk.write_unaccounted(id, &buf);
        assert_eq!(disk.stats().writes, 1, "unaccounted writes do not count");
    }

    #[test]
    fn stats_seconds_and_since() {
        let cfg = SystemConfig::paper_1994();
        let s = IoStats {
            seq_reads: 100,
            random_reads: 10,
            writes: 50,
        };
        let secs = s.seconds(&cfg);
        assert!((secs - (150.0 * 0.001 + 10.0 * 0.004)).abs() < 1e-12);
        assert_eq!(s.total(), 160);

        let earlier = IoStats {
            seq_reads: 40,
            random_reads: 4,
            writes: 20,
        };
        let d = s.since(&earlier);
        assert_eq!(d, IoStats { seq_reads: 60, random_reads: 6, writes: 30 });
    }

    #[test]
    fn reset_clears_counters_and_position() {
        let disk = SimDisk::new();
        let a = disk.allocate();
        let b = disk.allocate();
        let _ = disk.read(a).unwrap();
        disk.reset_stats();
        assert_eq!(disk.stats(), IoStats::default());
        // After reset, even the "next" page counts as random.
        let _ = disk.read(b).unwrap();
        assert_eq!(disk.stats().random_reads, 1);
    }

    #[test]
    fn reading_unallocated_page_errors() {
        let disk = SimDisk::new();
        assert_eq!(
            disk.read(PageId(5)).unwrap_err(),
            StorageError::UnallocatedPage(PageId(5))
        );
        assert_eq!(
            disk.write(PageId(5), &[0u8; PAGE_SIZE]).unwrap_err(),
            StorageError::UnallocatedPage(PageId(5))
        );
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
        assert_eq!(
            disk.write(temps[1], &[1u8; PAGE_SIZE]).unwrap_err(),
            StorageError::UnallocatedPage(temps[1])
        );
        let s = disk.stats();
        assert_eq!((s.seq_reads + s.random_reads, s.writes), (2, 1), "failed accesses are charged");
        // Its neighbours are untouched.
        assert!(disk.read(temps[0]).is_ok() && disk.read(temps[2]).is_ok());
    }

    #[test]
    fn free_is_idempotent_and_truncates_only_the_dead_tail() {
        let disk = SimDisk::new();
        let base = disk.allocate();
        disk.write_unaccounted(base, &[9u8; PAGE_SIZE]);
        let t: Vec<PageId> = (0..3).map(|_| disk.allocate_temp()).collect();
        assert_eq!(disk.temp_pages(), TempPages { live: 3, high_water: 3 });
        disk.free(&[t[1]]);
        disk.free(&[t[1], PageId(99), PageId::INVALID]); // twice, past the end: no-ops
        assert_eq!((disk.page_count(), disk.temp_pages().live), (4, 2));
        // Freeing the last page takes the dead slot before it along …
        disk.free(&[t[2]]);
        assert_eq!(disk.page_count(), 2);
        // … so those ids, and only those, are issued again, zeroed.
        let again = disk.allocate_temp();
        assert_eq!(again, t[1]);
        assert_eq!(disk.read_unaccounted(again)[..], [0u8; PAGE_SIZE][..]);
        disk.free(&[t[0], again]);
        assert_eq!(disk.page_count(), 1, "never below the permanent pages");
        assert_eq!(disk.read_unaccounted(base)[0], 9);
        assert_eq!(disk.temp_pages(), TempPages { live: 0, high_water: 3 });
        disk.reset_temp_high_water();
        assert_eq!(disk.temp_pages(), TempPages::default());
    }

    #[test]
    fn a_write_never_changes_a_page_a_reader_holds() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        disk.write(id, &[1u8; PAGE_SIZE]).unwrap();
        let held = disk.read(id).unwrap();
        assert!(Arc::ptr_eq(&held, &disk.read(id).unwrap()), "reads share one buffer");
        disk.write(id, &[2u8; PAGE_SIZE]).unwrap();
        assert_eq!((held[0], disk.read(id).unwrap()[0]), (1, 2));
        // A freed page stays readable through a reference taken before.
        let t = disk.allocate_temp();
        disk.write_unaccounted(t, &[3u8; PAGE_SIZE]);
        let held = disk.read(t).unwrap();
        disk.free(&[t]);
        assert_eq!(held[0], 3);
    }

    #[test]
    fn short_write_errors() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        assert_eq!(
            disk.write(id, &[0u8; 7]).unwrap_err(),
            StorageError::BadPageLength { got: 7, expected: PAGE_SIZE }
        );
        assert_eq!(disk.stats().writes, 0, "rejected before being charged");
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
    fn page_range_fault_spares_unaccounted_access() {
        let disk = SimDisk::new();
        let a = disk.allocate();
        let b = disk.allocate();
        disk.set_fault_plan(FaultPlan::page_range(1, 1));
        assert!(disk.read(a).is_ok());
        assert!(disk.read(b).is_err());
        // Loaders bypass the plan entirely.
        let _ = disk.read_unaccounted(b);
        disk.write_unaccounted(b, &[1u8; PAGE_SIZE]);
    }

    #[test]
    fn write_faults_hit_note_write_too() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        let mut plan = FaultPlan::none();
        plan.fail_nth_writes = vec![2];
        disk.set_fault_plan(plan);
        assert!(disk.write(id, &[0u8; PAGE_SIZE]).is_ok());
        let err = disk.note_write().unwrap_err();
        assert_eq!(err, StorageError::InjectedFault { page: PageId::INVALID, write: true });
        assert!(disk.note_write().is_ok());
    }

    #[test]
    fn set_fault_plan_resets_ordinals() {
        let disk = SimDisk::new();
        let id = disk.allocate();
        let _ = disk.read(id).unwrap();
        let _ = disk.read(id).unwrap();
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
        disk.set_io_latency_micros(2_000);
        let start = std::time::Instant::now();
        let _ = disk.read(id).unwrap();
        assert!(start.elapsed().as_micros() >= 2_000, "accounted read paced");
        let start = std::time::Instant::now();
        let _ = disk.read_unaccounted(id);
        assert!(start.elapsed().as_micros() < 2_000, "unaccounted read not paced");
        disk.set_io_latency_micros(0);
        // Accounting is identical with pacing on or off.
        assert_eq!(disk.stats().total(), 1);
    }
}
