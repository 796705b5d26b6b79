//! Storage-layer errors.
//!
//! Every fallible storage operation — page reads and writes, buffer-pool
//! construction, heap fetches, B-tree probes — reports a [`StorageError`]
//! instead of panicking, so the executor can propagate failures up the
//! operator tree and the choose-plan operator can degrade gracefully to an
//! alternative plan.

use std::fmt;

use crate::page::PageId;

/// An error raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id outside the allocated page range was accessed.
    UnallocatedPage(PageId),
    /// An injected fault (see [`crate::FaultPlan`]) failed the access.
    InjectedFault {
        /// The page being accessed when the fault fired.
        page: PageId,
        /// Whether the failed access was a write (else a read).
        write: bool,
    },
    /// A buffer pool was requested with zero frames.
    ZeroCapacityPool,
    /// A record id did not resolve to a stored record: its slot is out of
    /// the page's range (a dangling index entry or a corrupted page).
    /// Records are never deleted, so every slot in range holds one.
    RecordNotFound {
        /// The page the rid pointed into.
        page: PageId,
        /// The slot the rid pointed at.
        slot: u16,
    },
    /// A record longer than an empty page can hold was appended (e.g. a
    /// spill of joined rows wider than a page).
    RecordTooLarge {
        /// The record's length in bytes.
        len: usize,
        /// The longest record a page can hold.
        max: usize,
    },
}

impl StorageError {
    /// Whether the failure was injected by a fault plan (as opposed to a
    /// structural error such as an unallocated page).
    #[must_use]
    pub fn is_injected(&self) -> bool {
        matches!(self, StorageError::InjectedFault { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnallocatedPage(p) => write!(f, "page {p} is not allocated"),
            StorageError::InjectedFault { page, write } => {
                let op = if *write { "write" } else { "read" };
                write!(f, "injected fault: {op} of page {page} failed")
            }
            StorageError::ZeroCapacityPool => f.write_str("buffer pool needs at least one frame"),
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "no record at {page} slot {slot}")
            }
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes can never fit a page (at most {max})")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(StorageError::UnallocatedPage(PageId(3)).to_string().contains("p3"));
        let e = StorageError::InjectedFault { page: PageId(9), write: false };
        assert!(e.to_string().contains("read of page p9"));
        assert!(e.is_injected());
        let w = StorageError::InjectedFault { page: PageId(1), write: true };
        assert!(w.to_string().contains("write of page p1"));
        assert!(!StorageError::ZeroCapacityPool.is_injected());
        assert!(StorageError::RecordNotFound { page: PageId(2), slot: 5 }
            .to_string()
            .contains("slot 5"));
        assert!(StorageError::RecordTooLarge { len: 2560, max: 2040 }
            .to_string()
            .contains("2560 bytes"));
    }
}
