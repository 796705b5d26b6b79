//! Thread-safe page-range claims for morsel-driven parallel scans.
//!
//! A [`PageClaims`] hands out disjoint, contiguous ranges of page indexes
//! ("morsels") to competing scan workers with a single atomic counter —
//! every page index in `0..total` is claimed exactly once across all
//! workers, with no locks and no coordination beyond the fetch-add. The
//! executor's exchange operator shares one `PageClaims` among its scan
//! workers, so however threads interleave, the union of their morsels is
//! the whole file and the intersection is empty.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of pages per claimed morsel: large enough that a worker
/// amortizes its claim over several sequential page reads, small enough
/// that work stays balanced when one worker stalls on slow I/O.
pub const DEFAULT_MORSEL_PAGES: usize = 4;

/// An atomic dispenser of disjoint page-index ranges over `0..total`.
#[derive(Debug)]
pub struct PageClaims {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl PageClaims {
    /// A dispenser over page indexes `0..total`, handing out morsels of
    /// `chunk` pages (the tail morsel may be shorter). A zero `chunk` is
    /// treated as 1.
    #[must_use]
    pub fn new(total: usize, chunk: usize) -> PageClaims {
        PageClaims {
            next: AtomicUsize::new(0),
            total,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next unclaimed morsel, or `None` when every page has
    /// been handed out. Each returned range is disjoint from every other
    /// returned range, across all threads.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.chunk).min(self.total))
    }

    /// Total number of pages this dispenser covers.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Pages no worker has claimed yet: the most any one worker can still
    /// be handed, beyond the morsel it holds.
    #[must_use]
    pub fn unclaimed(&self) -> usize {
        self.total.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn claims_cover_every_page_exactly_once() {
        let claims = PageClaims::new(11, 4);
        let mut seen = Vec::new();
        while let Some(r) = claims.claim() {
            assert_eq!(claims.unclaimed(), 11 - r.end);
            seen.extend(r);
        }
        assert_eq!(seen, (0..11).collect::<Vec<_>>());
        assert!(claims.claim().is_none(), "exhausted dispenser stays empty");
        assert_eq!(claims.unclaimed(), 0, "claims past the end do not go negative");
    }

    #[test]
    fn zero_pages_yields_nothing() {
        assert!(PageClaims::new(0, 4).claim().is_none());
    }

    #[test]
    fn concurrent_claims_are_disjoint_and_complete() {
        let claims = Arc::new(PageClaims::new(1000, 3));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&claims);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(r) = c.claim() {
                    mine.extend(r);
                }
                mine
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
