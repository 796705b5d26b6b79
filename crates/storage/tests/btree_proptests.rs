//! Property-based tests of the B-tree against a reference model, and the
//! node capacities a 2,048-byte page gives it: 145 entries a leaf, 171
//! children an internal node.

use std::collections::BTreeMap;

use dqep_storage::{BTree, PageId, Rid, SimDisk};
use proptest::prelude::*;

fn rid(i: usize) -> Rid {
    Rid { page: PageId((i / 13) as u32), row: i as u32 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Insertion + full scan equals the sorted reference multimap.
    #[test]
    fn scan_matches_reference(keys in proptest::collection::vec(-500i64..500, 0..600)) {
        let mut tree = BTree::new(SimDisk::new());
        let mut reference: BTreeMap<i64, Vec<Rid>> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(k, rid(i));
            reference.entry(k).or_default().push(rid(i));
        }
        prop_assert_eq!(tree.len(), keys.len() as u64);

        let mut scanned: Vec<(i64, Rid)> = Vec::new();
        tree.scan_all(|k, r| scanned.push((k, r))).unwrap();
        prop_assert_eq!(scanned.len(), keys.len());
        // Keys in non-decreasing order.
        prop_assert!(scanned.windows(2).all(|w| w[0].0 <= w[1].0));
        // Per-key rid multisets match the reference.
        for (k, rids) in &reference {
            let mut got = tree.lookup(*k).unwrap();
            let mut want = rids.clone();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "key {}", k);
        }
    }

    /// Range queries agree with reference filtering for arbitrary bounds.
    #[test]
    fn ranges_match_reference(
        keys in proptest::collection::vec(-200i64..200, 0..400),
        lo in -250i64..250,
        width in 0i64..300,
    ) {
        let hi = lo + width;
        let mut tree = BTree::new(SimDisk::new());
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(k, rid(i));
        }
        let got = tree.range(Some(lo), Some(hi)).unwrap().len();
        let want = keys.iter().filter(|&&k| (lo..=hi).contains(&k)).count();
        prop_assert_eq!(got, want);

        // Unbounded variants.
        prop_assert_eq!(
            tree.range(Some(lo), None).unwrap().len(),
            keys.iter().filter(|&&k| k >= lo).count()
        );
        prop_assert_eq!(
            tree.range(None, Some(hi)).unwrap().len(),
            keys.iter().filter(|&&k| k <= hi).count()
        );
    }

    /// Every copy of a key is found, in insertion order, when its copies
    /// fill several leaves and the separators between those leaves equal
    /// the key: a lookup descends to the leftmost leaf that may hold it.
    #[test]
    fn lookup_finds_every_duplicate_that_straddles_a_split(
        before in 0usize..300,
        copies in 146usize..500,
        after in 0usize..300,
    ) {
        let mut tree = BTree::new(SimDisk::new());
        let mut n = 0;
        let mut insert = |tree: &mut BTree, key: i64| {
            tree.insert(key, rid(n));
            n += 1;
            n - 1
        };
        // Keys below and above the duplicated one, interleaved with it.
        let mut want = Vec::new();
        for i in 0..before.max(copies).max(after) {
            if i < before {
                insert(&mut tree, -1 - i as i64);
            }
            if i < copies {
                want.push(rid(insert(&mut tree, 7)));
            }
            if i < after {
                insert(&mut tree, 8 + i as i64);
            }
        }
        prop_assert!(tree.height() >= 2, "the copies split a leaf");
        prop_assert_eq!(tree.lookup(7).unwrap(), want.clone());
        prop_assert_eq!(tree.range(Some(7), Some(7)).unwrap(), want.clone());
        prop_assert_eq!(tree.range(Some(0), Some(7)).unwrap(), want);
        prop_assert_eq!(tree.range(None, Some(6)).unwrap().len(), before);
        prop_assert_eq!(tree.range(Some(8), None).unwrap().len(), after);
    }

    /// Heavily duplicated keys survive splits intact.
    #[test]
    fn duplicate_heavy_workload(unique in 1usize..6, copies in 1usize..200) {
        let mut tree = BTree::new(SimDisk::new());
        let mut n = 0;
        for k in 0..unique {
            for _ in 0..copies {
                tree.insert(k as i64, rid(n));
                n += 1;
            }
        }
        for k in 0..unique {
            prop_assert_eq!(tree.lookup(k as i64).unwrap().len(), copies, "key {}", k);
        }
        prop_assert_eq!(tree.range(None, None).unwrap().len(), unique * copies);
    }
}

/// Height grows only logarithmically (sanity bound: a million-entry tree
/// would still be shallow; here 20k entries stay within 4 levels).
#[test]
fn height_is_logarithmic() {
    let mut tree = BTree::new(SimDisk::new());
    for i in 0..20_000i64 {
        tree.insert(i, rid(i as usize));
    }
    assert!(tree.height() <= 4, "height {}", tree.height());
}

/// 145 entries fit one leaf; the 146th splits it into two leaves under a
/// new root: height 2, three pages on the disk.
#[test]
fn a_leaf_holds_145_entries() {
    let disk = SimDisk::new();
    let mut tree = BTree::new(disk.clone());
    for i in 0..145 {
        tree.insert(i, rid(i as usize));
    }
    assert_eq!((tree.height(), disk.page_count()), (1, 1));
    tree.insert(145, rid(145));
    assert_eq!((tree.height(), disk.page_count()), (2, 3));
    assert_eq!(tree.node_pages().collect::<Vec<_>>(), [PageId(0), PageId(1), PageId(2)]);
    // A full scan reads the root and both leaves.
    assert_eq!(tree.range_scan(None, None, |_, _| {}).unwrap(), 3);
}

/// An internal node holds 171 children: ascending keys add a leaf every
/// 73 entries once the first leaf split, and the root splits exactly when
/// its 172nd child arrives — two internal nodes and a new root.
#[test]
fn an_internal_node_splits_at_its_172nd_child() {
    let disk = SimDisk::new();
    let mut tree = BTree::new(disk.clone());
    let mut i = 0;
    while tree.height() < 3 {
        let (height, pages) = (tree.height(), disk.page_count());
        tree.insert(i, rid(i as usize));
        if tree.height() == 3 {
            assert_eq!((height, pages), (2, 1 + 171), "a root of 171 children");
            assert_eq!(disk.page_count(), 3 + 172, "172 leaves, three internal nodes");
        }
        i += 1;
    }
    assert_eq!(i, 146 + 170 * 73);
    // The leaves hold every entry, in order, and a full scan reads the
    // descent (two internal nodes) and the 172 leaves.
    let mut keys = Vec::new();
    assert_eq!(tree.range_scan(None, None, |k, _| keys.push(k)).unwrap(), 2 + 172);
    assert_eq!(keys, (0..i).collect::<Vec<_>>());
}
