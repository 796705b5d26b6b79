//! An LRU buffer pool over the simulated disk.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::disk::SimDisk;
use crate::error::StorageError;
use crate::page::{PageId, PageRef};

/// A least-recently-used page cache.
///
/// Reads hit the cache for free; misses read through to the (accounted)
/// disk and evict the least recently used frame when the pool is full.
/// The executor routes repeated point fetches (e.g. the inner fetches of
/// an index join) through a pool sized to the query's memory grant, which
/// is what the cost model's "upper index levels are cached" assumption
/// corresponds to.
#[derive(Debug)]
pub struct BufferPool {
    disk: SimDisk,
    capacity: usize,
    /// Cached page and the clock reading of its last use.
    frames: HashMap<PageId, (PageRef, u64)>,
    /// Last-use reading → page, one entry per frame (readings are
    /// unique): the first entry is the eviction victim.
    by_age: BTreeMap<u64, PageId>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// A pool of `capacity` pages over `disk`.
    ///
    /// # Errors
    /// [`StorageError::ZeroCapacityPool`] on zero capacity.
    pub fn new(disk: SimDisk, capacity: usize) -> Result<BufferPool, StorageError> {
        if capacity == 0 {
            return Err(StorageError::ZeroCapacityPool);
        }
        Ok(BufferPool {
            disk,
            capacity,
            frames: HashMap::new(),
            by_age: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Reads a page through the pool. Hit or miss, the result shares the
    /// cached buffer — a hit costs a reference count, not a page copy.
    ///
    /// # Errors
    /// Propagates the disk's failure on a miss (unallocated page or
    /// injected fault); hits never fail.
    pub fn read(&mut self, id: PageId) -> Result<PageRef, StorageError> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((data, used)) = self.frames.get_mut(&id) {
            self.by_age.remove(used);
            self.by_age.insert(clock, id);
            *used = clock;
            self.hits += 1;
            return Ok(Arc::clone(data));
        }
        self.misses += 1;
        let data = self.disk.read(id)?;
        if self.frames.len() >= self.capacity {
            if let Some((_, victim)) = self.by_age.pop_first() {
                self.frames.remove(&victim);
            }
        }
        self.frames.insert(id, (Arc::clone(&data), clock));
        self.by_age.insert(clock, id);
        Ok(data)
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Frames currently cached.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn disk_with(n: u32) -> (SimDisk, Vec<PageId>) {
        let disk = SimDisk::new();
        let ids: Vec<PageId> = (0..n).map(|_| disk.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i as u8;
            disk.write_unaccounted(id, &page);
        }
        (disk, ids)
    }

    #[test]
    fn caches_repeated_reads() {
        let (disk, ids) = disk_with(4);
        let mut pool = BufferPool::new(disk.clone(), 4).unwrap();
        for _ in 0..10 {
            let page = pool.read(ids[2]).unwrap();
            assert_eq!(page[0], 2);
        }
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 9);
        assert_eq!(disk.stats().total(), 1, "only the miss touches disk");
    }

    #[test]
    fn evicts_least_recently_used() {
        let (disk, ids) = disk_with(3);
        let mut pool = BufferPool::new(disk.clone(), 2).unwrap();
        let _ = pool.read(ids[0]).unwrap();
        let _ = pool.read(ids[1]).unwrap();
        let _ = pool.read(ids[0]).unwrap(); // refresh 0; 1 is now LRU
        let _ = pool.read(ids[2]).unwrap(); // evicts 1
        assert_eq!(pool.resident(), 2);
        let before = disk.stats().total();
        let _ = pool.read(ids[0]).unwrap(); // still cached
        assert_eq!(disk.stats().total(), before);
        let _ = pool.read(ids[1]).unwrap(); // was evicted: miss
        assert_eq!(disk.stats().total(), before + 1);
    }

    #[test]
    fn eviction_follows_last_use_not_arrival() {
        // Against a straight replay of the LRU rule over a longer trace:
        // same hit/miss sequence, and the pool never outgrows its frames.
        let (disk, ids) = disk_with(6);
        let mut pool = BufferPool::new(disk, 3).unwrap();
        let trace = [0usize, 1, 2, 0, 3, 0, 4, 1, 2, 0, 5, 5, 3, 0, 1];
        let mut model: Vec<usize> = Vec::new(); // least recently used first
        for &p in &trace {
            let hit = model.contains(&p);
            model.retain(|&q| q != p);
            model.push(p);
            if model.len() > 3 {
                model.remove(0);
            }
            let (hits, misses) = (pool.hits(), pool.misses());
            assert_eq!(pool.read(ids[p]).unwrap()[0], p as u8);
            assert_eq!((pool.hits() - hits, pool.misses() - misses), (u64::from(hit), u64::from(!hit)));
            assert_eq!(pool.resident(), model.len());
        }
    }

    #[test]
    fn a_failed_miss_counts_but_caches_and_evicts_nothing() {
        use crate::fault::FaultPlan;
        let (disk, ids) = disk_with(3);
        let mut pool = BufferPool::new(disk.clone(), 2).unwrap();
        let _ = pool.read(ids[0]).unwrap();
        let _ = pool.read(ids[1]).unwrap();
        disk.set_fault_plan(FaultPlan::page_range(2, 2));
        assert!(pool.read(ids[2]).is_err());
        assert_eq!((pool.misses(), pool.resident()), (3, 2));
        assert!(pool.read(ids[0]).is_ok() && pool.read(ids[1]).is_ok());
        assert_eq!(pool.hits(), 2, "both frames survived the failed miss");
    }

    #[test]
    fn zero_capacity_rejected() {
        let (disk, _) = disk_with(1);
        assert_eq!(
            BufferPool::new(disk, 0).unwrap_err(),
            StorageError::ZeroCapacityPool
        );
    }

    #[test]
    fn hits_do_not_consult_fault_plan() {
        use crate::fault::FaultPlan;
        let (disk, ids) = disk_with(2);
        let mut pool = BufferPool::new(disk.clone(), 2).unwrap();
        let _ = pool.read(ids[0]).unwrap(); // cached before faults start
        disk.set_fault_plan(FaultPlan::page_range(0, 1));
        assert!(pool.read(ids[0]).is_ok(), "cache hit needs no disk access");
        assert!(pool.read(ids[1]).is_err(), "miss reads through and fails");
    }
}
