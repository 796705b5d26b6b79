//! Properties of base-table pages.
//!
//! **Three read paths, one table**: the rows `HeapFile::append` stores come
//! back exactly, in order, through the scan kernel — `ColumnPage::read_into`
//! over the pages a `SimDisk::read_run` lends, from any slot, under any
//! `max_rows`, resumed where it stopped — through a fetch by record id, and
//! through `HeapFile::scan`.
//!
//! **The slotted page's shape**: a page holds `r =
//! ColumnPage::records_per_page(record_len)` rows — 7 of 256 bytes, 3 of
//! 512 — so `n` rows take `⌈n / r⌉` pages and keep the record ids, page
//! counts and charges records of that length had. A record no page holds
//! is refused with nothing appended.

use std::ops::ControlFlow;

use dqep_storage::{ColumnPage, HeapFile, PageView, Rid, SimDisk, StorageError, PAGE_SIZE};
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
            narrow..=ColumnPage::MAX_RECORD,
            Just(ColumnPage::MAX_RECORD),
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

/// Every page's columns, read by the scan kernel: slot `from` on, in
/// requests of `max_rows` rows, each resumed at the slot the last returned.
/// The first page alone starts at `from`; the others at slot 0.
fn scan_kernel(heap: &HeapFile, width: usize, from: u16, max_rows: usize) -> Vec<Vec<Vec<i64>>> {
    let mut pages = Vec::new();
    heap.disk()
        .read_run(heap.pages().iter().copied(), |page| {
            let view = PageView::from_bytes(&**page);
            let mut cols = vec![vec![-7i64]; width];
            let mut at = if pages.is_empty() { from } else { 0 };
            loop {
                let (n, resume) = view.read_into(at, max_rows, &mut cols);
                let left = view.len().saturating_sub(usize::from(at));
                assert_eq!(n, left.min(max_rows), "rows copied from slot {at}");
                assert_eq!(resume, at + n as u16, "the slot to resume at");
                at = resume;
                if n == 0 || usize::from(at) >= view.len() {
                    break;
                }
            }
            // What the columns held before is left alone.
            pages.push(cols.into_iter().map(|col| col[1..].to_vec()).collect());
            ControlFlow::Continue(())
        })
        .unwrap();
    pages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn appended_rows_read_back_three_ways(
        (width, record_len) in shape(),
        share in 0.0f64..=1.0,
        seed in any::<i64>(),
        max_rows in prop_oneof![1usize..=9, Just(usize::MAX)],
        from in 0u16..=9,
    ) {
        let r = ColumnPage::records_per_page(record_len);
        let n = (share * (3 * r + 1) as f64) as usize;
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), record_len, width);
        let rows: Vec<Vec<i64>> = (0..n).map(|i| row(seed, i, width)).collect();
        let rids: Vec<Rid> = rows.iter().map(|values| heap.append(values).unwrap()).collect();
        prop_assert_eq!(heap.page_count(), n.div_ceil(r));
        prop_assert_eq!(heap.record_count(), n as u64);
        // Row `i` is slot `i mod r` of page `i / r`.
        for (i, rid) in rids.iter().enumerate() {
            prop_assert_eq!(*rid, Rid { page: heap.pages()[i / r], slot: (i % r) as u16 });
        }

        // The scan kernel, page `k` being rows `k·r .. (k + 1)·r`.
        let pages = scan_kernel(&heap, width, from, max_rows);
        prop_assert_eq!(pages.len(), heap.page_count());
        for (k, cols) in pages.iter().enumerate() {
            let lo = k * r + if k == 0 { usize::from(from).min(r) } else { 0 };
            let on_page = &rows[lo.min(n)..n.min((k + 1) * r)];
            for (a, col) in cols.iter().enumerate() {
                let want: Vec<i64> = on_page.iter().map(|values| values[a]).collect();
                prop_assert_eq!(col, &want, "page {}, column {}", k, a);
            }
        }

        // By record id, one random read each; and the full scan.
        disk.reset_stats();
        for (rid, values) in rids.iter().zip(&rows) {
            prop_assert_eq!(&heap.fetch(*rid).unwrap(), values);
            let firsts = heap.fetch_with(*rid, |row| (0..width).map(|a| row.value(a)).collect::<Vec<_>>());
            prop_assert_eq!(&firsts.unwrap(), values);
        }
        prop_assert_eq!(disk.stats().total(), 2 * n as u64);
        let scanned: Vec<Vec<i64>> = heap.scan().map(Result::unwrap).collect();
        prop_assert_eq!(&scanned, &rows);
        if let Some(&last) = heap.pages().last() {
            let past = Rid { page: last, slot: ((n - 1) % r + 1) as u16 };
            prop_assert_eq!(
                heap.fetch(past).unwrap_err(),
                StorageError::RecordNotFound { page: past.page, slot: past.slot }
            );
        }
    }

    #[test]
    fn a_record_no_page_holds_is_refused_with_nothing_appended(
        record_len in ColumnPage::MAX_RECORD + 1..=2 * PAGE_SIZE,
        values in (any::<i64>(), any::<i64>()),
    ) {
        let disk = SimDisk::new();
        let mut heap = HeapFile::new(disk.clone(), record_len, 2);
        prop_assert_eq!(
            heap.append(&[values.0, values.1]).unwrap_err(),
            StorageError::RecordTooLarge { len: record_len, max: ColumnPage::MAX_RECORD }
        );
        prop_assert_eq!((heap.record_count(), heap.page_count()), (0, 0));
        prop_assert_eq!((disk.page_count(), disk.stats().total()), (0, 0));
    }
}

#[test]
fn a_page_holds_what_a_slotted_page_of_such_records_held() {
    assert_eq!(ColumnPage::records_per_page(256), 7);
    assert_eq!(ColumnPage::records_per_page(512), 3);
    assert_eq!(ColumnPage::records_per_page(ColumnPage::MAX_RECORD), 1);
    assert_eq!(ColumnPage::records_per_page(ColumnPage::MAX_RECORD + 1), 0);
}
