//! A page-based B-tree mapping `i64` keys to record ids.
//!
//! Used as the *unclustered* associative search structure of the
//! experiments ("attributes referenced by the unbound selection predicates
//! as well as all join attributes had unclustered B-tree structures",
//! paper Section 6): leaves hold `(key, rid)` entries in key order and are
//! chained for range scans; fetching the records themselves costs one
//! (accounted) heap-page read per rid.
//!
//! Node layout (2,048-byte pages):
//! * byte 0: node kind (0 = leaf, 1 = internal)
//! * bytes 2–3: entry count
//! * leaf: bytes 4–7 next-leaf page id; entries of 14 bytes
//!   (`key: i64, page: u32, slot: u16`) from byte 8.
//! * internal: bytes 4–7 leftmost child; entries of 12 bytes
//!   (`key: i64, child: u32`) from byte 8. Child `i+1` holds keys
//!   `>= key[i]`.
//!
//! Construction is a load-time activity and uses unaccounted disk access;
//! lookups and range scans use accounted reads so executor I/O is
//! measurable.

use std::sync::Arc;

use crate::disk::SimDisk;
use crate::error::StorageError;
use crate::heap::Rid;
use crate::page::{PageId, PAGE_SIZE};

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;
const LEAF_ENTRY: usize = 14;
const INTERNAL_ENTRY: usize = 12;
const HEADER: usize = 8;
/// Entries per leaf page.
const LEAF_CAP: usize = (PAGE_SIZE - HEADER) / LEAF_ENTRY;
/// Keyed entries per internal page (plus the leftmost child).
const INTERNAL_CAP: usize = (PAGE_SIZE - HEADER) / INTERNAL_ENTRY;

/// A B-tree index over `i64` keys.
#[derive(Debug)]
pub struct BTree {
    disk: SimDisk,
    root: PageId,
    entries: u64,
    height: u32,
}

impl BTree {
    /// Creates an empty tree on `disk`.
    #[must_use]
    pub fn new(disk: SimDisk) -> BTree {
        let root = disk.allocate();
        let mut page = [0u8; PAGE_SIZE];
        init_leaf(&mut page, PageId::INVALID);
        disk.write_unaccounted(root, &page);
        BTree { disk, root, entries: 0, height: 1 }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Tree height in levels (1 = a single leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Inserts `(key, rid)` (duplicates allowed). Load-time: unaccounted.
    pub fn insert(&mut self, key: i64, rid: Rid) {
        if let Some((sep, right)) = self.insert_into(self.root, key, rid) {
            // Root split: new internal root.
            let new_root = self.disk.allocate();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = KIND_INTERNAL;
            set_count(&mut page, 1);
            set_u32(&mut page, 4, self.root.0);
            set_i64(&mut page, HEADER, sep);
            set_u32(&mut page, HEADER + 8, right.0);
            self.disk.write_unaccounted(new_root, &page);
            self.root = new_root;
            self.height += 1;
        }
        self.entries += 1;
    }

    fn insert_into(&mut self, node: PageId, key: i64, rid: Rid) -> Option<(i64, PageId)> {
        // Shared with the disk: the nodes a descent only reads are not
        // copied, the one it changes is (copy-on-write).
        let mut page = self.disk.read_unaccounted(node);
        if page[0] == KIND_LEAF {
            return self.insert_leaf(node, Arc::make_mut(&mut page), key, rid);
        }
        let idx = internal_child_index(&page[..], key);
        let child = internal_child(&page[..], idx);
        let split = self.insert_into(child, key, rid)?;
        // Child split: insert (sep, right) after position idx.
        let (sep, right) = split;
        let n = count(&page[..]);
        let page = Arc::make_mut(&mut page);
        if n < INTERNAL_CAP {
            // Shift entries right of idx.
            let base = HEADER + idx * INTERNAL_ENTRY;
            let end = HEADER + n * INTERNAL_ENTRY;
            page.copy_within(base..end, base + INTERNAL_ENTRY);
            set_i64(&mut page[..], base, sep);
            set_u32(&mut page[..], base + 8, right.0);
            set_count(&mut page[..], n + 1);
            self.disk.write_unaccounted(node, page.as_slice());
            return None;
        }
        // Split the internal node.
        let mut keys = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(n + 2);
        children.push(internal_child(&page[..], 0));
        for i in 0..n {
            keys.push(get_i64(&page[..], HEADER + i * INTERNAL_ENTRY));
            children.push(internal_child(&page[..], i + 1));
        }
        keys.insert(idx, sep);
        children.insert(idx + 1, right);
        let mid = keys.len() / 2;
        let up_key = keys[mid];
        let (lk, rk) = (keys[..mid].to_vec(), keys[mid + 1..].to_vec());
        let (lc, rc) = (children[..=mid].to_vec(), children[mid + 1..].to_vec());
        write_internal(page, &lk, &lc);
        self.disk.write_unaccounted(node, page.as_slice());
        let right_id = self.disk.allocate();
        let mut rp = [0u8; PAGE_SIZE];
        write_internal(&mut rp, &rk, &rc);
        self.disk.write_unaccounted(right_id, &rp);
        Some((up_key, right_id))
    }

    fn insert_leaf(
        &mut self,
        node: PageId,
        page: &mut [u8; PAGE_SIZE],
        key: i64,
        rid: Rid,
    ) -> Option<(i64, PageId)> {
        let n = count(page);
        let idx = leaf_upper_bound(page, key);
        if n < LEAF_CAP {
            let base = HEADER + idx * LEAF_ENTRY;
            let end = HEADER + n * LEAF_ENTRY;
            page.copy_within(base..end, base + LEAF_ENTRY);
            write_leaf_entry(page, idx, key, rid);
            set_count(page, n + 1);
            self.disk.write_unaccounted(node, page.as_slice());
            return None;
        }
        // Split the leaf.
        let mut entries: Vec<(i64, Rid)> = (0..n).map(|i| leaf_entry(page, i)).collect();
        entries.insert(idx, (key, rid));
        let mid = entries.len() / 2;
        let right_id = self.disk.allocate();
        let next = leaf_next(page);
        // Left keeps [..mid], points to right; right gets [mid..], points
        // to the old next.
        let mut left = [0u8; PAGE_SIZE];
        init_leaf(&mut left, right_id);
        for (i, &(k, r)) in entries[..mid].iter().enumerate() {
            write_leaf_entry(&mut left, i, k, r);
        }
        set_count(&mut left, mid);
        let mut right = [0u8; PAGE_SIZE];
        init_leaf(&mut right, next);
        for (i, &(k, r)) in entries[mid..].iter().enumerate() {
            write_leaf_entry(&mut right, i, k, r);
        }
        set_count(&mut right, entries.len() - mid);
        self.disk.write_unaccounted(node, &left);
        self.disk.write_unaccounted(right_id, &right);
        Some((entries[mid].0, right_id))
    }

    /// All rids whose key equals `key` (accounted reads: root-to-leaf
    /// descent plus leaf chaining).
    ///
    /// # Errors
    /// Propagates page-read failures (injected faults in particular).
    pub fn lookup(&self, key: i64) -> Result<Vec<Rid>, StorageError> {
        self.range(Some(key), Some(key))
    }

    /// Rids with keys in `[lo, hi]` (inclusive; `None` = unbounded), in key
    /// order. Accounted reads.
    ///
    /// # Errors
    /// Propagates page-read failures (injected faults in particular).
    pub fn range(&self, lo: Option<i64>, hi: Option<i64>) -> Result<Vec<Rid>, StorageError> {
        let mut out = Vec::new();
        self.range_scan(lo, hi, |_, rid| out.push(rid))?;
        Ok(out)
    }

    /// Streaming range scan in key order; `f(key, rid)` per entry. Returns
    /// the number of pages it read (the descent plus the leaf chain), so a
    /// caller enforcing an I/O budget can charge them without a second
    /// look at the disk's counters.
    ///
    /// # Errors
    /// Stops at the first page-read failure and returns it; entries
    /// already passed to `f` stand.
    pub fn range_scan(
        &self,
        lo: Option<i64>,
        hi: Option<i64>,
        mut f: impl FnMut(i64, Rid),
    ) -> Result<u64, StorageError> {
        // Descend to the first candidate leaf.
        let mut node = self.root;
        let mut page = self.disk.read(node)?;
        let mut pages = 1;
        while page[0] == KIND_INTERNAL {
            let idx = match lo {
                Some(k) => internal_lower_bound_index(&page[..], k),
                None => 0,
            };
            node = internal_child(&page[..], idx);
            page = self.disk.read(node)?;
            pages += 1;
        }
        loop {
            let n = count(&page[..]);
            let start = match lo {
                Some(k) => leaf_lower_bound(&page[..], k),
                None => 0,
            };
            for i in start..n {
                let (k, rid) = leaf_entry(&page[..], i);
                if let Some(hi) = hi {
                    if k > hi {
                        return Ok(pages);
                    }
                }
                f(k, rid);
            }
            let next = leaf_next(&page[..]);
            if !next.is_valid() {
                return Ok(pages);
            }
            page = self.disk.read(next)?;
            pages += 1;
        }
    }

    /// Full scan in key order (accounted reads over the leaf chain only —
    /// the descent to the leftmost leaf plus the chain).
    ///
    /// # Errors
    /// Stops at the first page-read failure and returns it.
    pub fn scan_all(&self, f: impl FnMut(i64, Rid)) -> Result<(), StorageError> {
        self.range_scan(None, None, f).map(|_| ())
    }
}

// ---- page-format helpers ----------------------------------------------

fn init_leaf(page: &mut [u8; PAGE_SIZE], next: PageId) {
    page[0] = KIND_LEAF;
    set_count(page, 0);
    set_u32(page, 4, next.0);
}

fn count(page: &[u8]) -> usize {
    u16::from_le_bytes([page[2], page[3]]) as usize
}

fn set_count(page: &mut [u8], n: usize) {
    page[2..4].copy_from_slice(&(n as u16).to_le_bytes());
}

fn set_u32(page: &mut [u8], at: usize, v: u32) {
    page[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(page: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&page[at..at + 4]);
    u32::from_le_bytes(b)
}

fn set_i64(page: &mut [u8], at: usize, v: i64) {
    page[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_i64(page: &[u8], at: usize) -> i64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&page[at..at + 8]);
    i64::from_le_bytes(b)
}

fn leaf_next(page: &[u8]) -> PageId {
    PageId(get_u32(page, 4))
}

fn leaf_entry(page: &[u8], i: usize) -> (i64, Rid) {
    let base = HEADER + i * LEAF_ENTRY;
    let key = get_i64(page, base);
    let rid = Rid {
        page: PageId(get_u32(page, base + 8)),
        slot: u16::from_le_bytes([page[base + 12], page[base + 13]]),
    };
    (key, rid)
}

fn write_leaf_entry(page: &mut [u8], i: usize, key: i64, rid: Rid) {
    let base = HEADER + i * LEAF_ENTRY;
    set_i64(page, base, key);
    set_u32(page, base + 8, rid.page.0);
    page[base + 12..base + 14].copy_from_slice(&rid.slot.to_le_bytes());
}

/// First leaf position with key >= `key`.
fn leaf_lower_bound(page: &[u8], key: i64) -> usize {
    let n = count(page);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_entry(page, mid).0 < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First leaf position with key > `key` (insertion point for duplicates).
fn leaf_upper_bound(page: &[u8], key: i64) -> usize {
    let n = count(page);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_entry(page, mid).0 <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn internal_child(page: &[u8], idx: usize) -> PageId {
    if idx == 0 {
        PageId(get_u32(page, 4))
    } else {
        PageId(get_u32(page, HEADER + (idx - 1) * INTERNAL_ENTRY + 8))
    }
}

/// Index of the child an *insert* of `key` descends into: the number of
/// separator keys <= key, so duplicates append after existing entries.
fn internal_child_index(page: &[u8], key: i64) -> usize {
    internal_index(page, key, false)
}

/// Index of the leftmost child that may contain `key`: the number of
/// separator keys strictly below it. Range scans must descend here —
/// duplicate keys can straddle a leaf split, leaving equal keys both left
/// and right of a separator equal to the key.
fn internal_lower_bound_index(page: &[u8], key: i64) -> usize {
    internal_index(page, key, true)
}

fn internal_index(page: &[u8], key: i64, strict: bool) -> usize {
    let n = count(page);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let sep = get_i64(page, HEADER + mid * INTERNAL_ENTRY);
        let go_right = if strict { sep < key } else { sep <= key };
        if go_right {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn write_internal(page: &mut [u8; PAGE_SIZE], keys: &[i64], children: &[PageId]) {
    assert_eq!(children.len(), keys.len() + 1);
    page.fill(0);
    page[0] = KIND_INTERNAL;
    set_count(page, keys.len());
    set_u32(page, 4, children[0].0);
    for (i, (&k, &c)) in keys.iter().zip(&children[1..]).enumerate() {
        let base = HEADER + i * INTERNAL_ENTRY;
        set_i64(page, base, k);
        set_u32(page, base + 8, c.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> Rid {
        Rid { page: PageId(i), slot: (i % 7) as u16 }
    }

    #[test]
    fn insert_and_lookup_small() {
        let mut t = BTree::new(SimDisk::new());
        assert!(t.is_empty());
        for i in 0..50i64 {
            t.insert(i * 2, rid(i as u32));
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.height(), 1, "50 entries fit one leaf");
        assert_eq!(t.lookup(10).unwrap(), vec![rid(5)]);
        assert_eq!(t.lookup(11).unwrap(), vec![]);
    }

    #[test]
    fn splits_maintain_order() {
        let mut t = BTree::new(SimDisk::new());
        // Insert far more than one leaf holds (LEAF_CAP = 145), in a
        // scattered order.
        let n = 2000i64;
        for i in 0..n {
            let key = (i * 7919) % n; // permutation of 0..n
            t.insert(key, rid(key as u32));
        }
        assert!(t.height() >= 2);
        let mut keys = Vec::new();
        t.scan_all(|k, r| {
            keys.push(k);
            assert_eq!(r, rid(k as u32));
        })
        .unwrap();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys sorted");
        assert_eq!(keys, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = BTree::new(SimDisk::new());
        for i in 0..300u32 {
            t.insert(42, rid(i));
        }
        t.insert(41, rid(999));
        t.insert(43, rid(998));
        let hits = t.lookup(42).unwrap();
        assert_eq!(hits.len(), 300);
        assert_eq!(t.lookup(41).unwrap(), vec![rid(999)]);
    }

    #[test]
    fn range_scans() {
        let mut t = BTree::new(SimDisk::new());
        for i in 0..1000i64 {
            t.insert(i, rid(i as u32));
        }
        assert_eq!(t.range(Some(10), Some(19)).unwrap().len(), 10);
        assert_eq!(t.range(None, Some(4)).unwrap().len(), 5);
        assert_eq!(t.range(Some(995), None).unwrap().len(), 5);
        assert_eq!(t.range(Some(2000), None).unwrap().len(), 0);
        assert_eq!(t.range(None, None).unwrap().len(), 1000);
        // Half-open sanity: inclusive bounds.
        assert_eq!(t.range(Some(5), Some(5)).unwrap(), vec![rid(5)]);
    }

    #[test]
    fn lookups_charge_accounted_io() {
        let disk = SimDisk::new();
        let mut t = BTree::new(disk.clone());
        for i in 0..2000i64 {
            t.insert(i, rid(i as u32));
        }
        assert_eq!(disk.stats().total(), 0, "construction is unaccounted");
        let _ = t.lookup(1234).unwrap();
        let s = disk.stats();
        assert!(s.total() >= t.height() as u64, "descent reads each level");
        // A scan reports the pages it read: the descent and the leaf chain.
        for (lo, hi) in [(Some(1234), Some(1234)), (Some(100), Some(900)), (None, None)] {
            let before = disk.stats().total();
            let pages = t.range_scan(lo, hi, |_, _| {}).unwrap();
            assert_eq!(pages, disk.stats().total() - before, "{lo:?}..{hi:?}");
        }
    }

    #[test]
    fn multi_level_internal_splits() {
        // Force at least 3 levels: > LEAF_CAP * INTERNAL_CAP entries would
        // be huge; instead verify 2-level correctness at scale and
        // monotone height growth.
        let mut t = BTree::new(SimDisk::new());
        let mut last_height = t.height();
        for i in 0..30_000i64 {
            t.insert(i, rid((i % 4096) as u32));
            assert!(t.height() >= last_height);
            last_height = t.height();
        }
        assert!(t.height() >= 3, "30k entries need 3 levels (cap 145/170)");
        assert_eq!(t.range(Some(29_990), None).unwrap().len(), 10);
        assert_eq!(t.lookup(15_000).unwrap().len(), 1);
    }

    #[test]
    fn faulted_descent_errors_but_insert_is_exempt() {
        use crate::fault::FaultPlan;
        let disk = SimDisk::new();
        let mut t = BTree::new(disk.clone());
        for i in 0..2000i64 {
            t.insert(i, rid(i as u32));
        }
        disk.set_fault_plan(FaultPlan::nth_read(1));
        let err = t.lookup(100).unwrap_err();
        assert!(err.is_injected());
        // The plan is one-shot; the next lookup succeeds, and inserts are
        // never affected (unaccounted access).
        t.insert(5000, rid(1));
        assert_eq!(t.lookup(100).unwrap(), vec![rid(100)]);
    }
}
