//! Page-lifecycle property: over any interleaving of creating, filling,
//! reading and dropping temp files beside a permanent one on one disk, a
//! live page id is never handed out twice, every live page reads back
//! what was last written to it, and a freed id that has not been issued
//! again is a typed error.

use std::collections::HashSet;

use dqep_storage::{HeapFile, PageId, SimDisk, StorageError};
use proptest::prelude::*;

/// One step: `(kind, file slot, records)`.
fn steps() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..4, 1usize..9), 1..60)
}

fn stamp(file: u64, seq: usize) -> Vec<u8> {
    let mut record = vec![0u8; 300];
    record[..8].copy_from_slice(&file.to_le_bytes());
    record[8..16].copy_from_slice(&(seq as u64).to_le_bytes());
    record
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_page_ids_are_never_reissued(steps in steps()) {
        let disk = SimDisk::new();
        let mut base = HeapFile::new(disk.clone());
        for seq in 0..10 {
            base.append(&stamp(u64::MAX, seq)).unwrap();
        }
        let loaded = disk.page_count();
        // Slot -> (file number, file, records appended).
        let mut files: Vec<Option<(u64, HeapFile, usize)>> = (0..4).map(|_| None).collect();
        let mut freed: HashSet<PageId> = HashSet::new();
        let mut next_file = 0u64;
        for (kind, slot, n) in steps {
            match (kind, files[slot].take()) {
                // Drop the file in the slot.
                (0, Some((_, file, _))) => freed.extend(file.pages().iter().copied()),
                // Append to it, creating it first if the slot is empty.
                (_, entry) => {
                    let (id, mut file, mut len) = entry.unwrap_or_else(|| {
                        next_file += 1;
                        (next_file, HeapFile::new_temp(disk.clone()), 0)
                    });
                    for _ in 0..n {
                        file.append(&stamp(id, len)).unwrap();
                        len += 1;
                    }
                    files[slot] = Some((id, file, len));
                }
            }
            // No page belongs to two live files, the permanent one included.
            let mut owned: HashSet<PageId> = base.pages().iter().copied().collect();
            for (_, file, _) in files.iter().flatten() {
                for &pid in file.pages() {
                    prop_assert!(owned.insert(pid), "{pid} is live in two files");
                }
            }
            // Every live file reads back exactly what was appended to it.
            for (id, file, len) in files.iter().flatten() {
                let records: Vec<Vec<u8>> = file.scan().map(Result::unwrap).collect();
                let expected: Vec<Vec<u8>> = (0..*len).map(|seq| stamp(*id, seq)).collect();
                prop_assert_eq!(records, expected);
            }
            prop_assert_eq!(base.scan().count(), 10);
            // A freed id is dead until it is issued again.
            for &pid in freed.difference(&owned) {
                prop_assert_eq!(disk.read(pid).unwrap_err(), StorageError::UnallocatedPage(pid));
            }
            prop_assert!(disk.page_count() >= loaded);
            prop_assert_eq!(disk.temp_pages().live as usize, owned.len() - base.page_count());
        }
        files.clear();
        prop_assert_eq!(disk.page_count(), loaded);
    }
}
