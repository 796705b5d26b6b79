//! Pages and page identifiers.

use std::fmt;

/// Fixed page size in bytes, matching the paper's experimental setup
/// (2,048-byte pages). The catalog's `SystemConfig::page_size` must agree;
/// [`crate::gen::StoredDatabase::generate`] asserts it. The disk holds no
/// bytes; the size fixes how many records a heap page and how many
/// entries a B-tree node hold.
pub const PAGE_SIZE: usize = 2048;

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel for "no page": what a failed write names, a write of a
    /// query-lifetime file being charged without an id.
    pub const INVALID: PageId = PageId(u32::MAX);
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
        assert_ne!(PageId(0), PageId::INVALID);
        assert_eq!(PageId(3).to_string(), "p3");
    }
}
