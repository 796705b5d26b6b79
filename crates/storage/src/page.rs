//! Pages and page identifiers.

use std::fmt;
use std::sync::Arc;

/// Fixed page size in bytes, matching the paper's experimental setup
/// (2,048-byte pages). The catalog's `SystemConfig::page_size` must agree;
/// [`crate::gen::StoredDatabase::generate`] asserts it.
pub const PAGE_SIZE: usize = 2048;

/// A shared, immutable view of one page's bytes. The disk, the buffer pool
/// and every reader hold the same allocation; a writer that needs to
/// change the bytes copies them first ([`Arc::make_mut`]), so a reference
/// handed out by a read never changes under its holder.
pub type PageRef = Arc<[u8; PAGE_SIZE]>;

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page" (used for B-tree leaf chaining).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Whether this id is the sentinel.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(PageId(3).to_string(), "p3");
    }
}
