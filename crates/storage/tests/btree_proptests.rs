//! Property-based tests of the B-tree against a reference model.

use std::collections::BTreeMap;

use dqep_storage::{BTree, PageId, Rid, SimDisk};
use proptest::prelude::*;

fn rid(i: usize) -> Rid {
    Rid { page: PageId(i as u32), slot: (i % 13) as u16 }
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
