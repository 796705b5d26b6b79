//! Index metadata.

use std::fmt;


use crate::schema::AttrId;

/// Identifier of an index within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// The kind of associative search structure.
///
/// The paper's experiments use B-trees exclusively ("uncluttered B-tree
/// structures suitable for predicate evaluation", Section 6 — "unclustered"
/// in modern terms); hash indexes are supported as an extension for
/// equality predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Ordered B-tree index; supports range and equality predicates and
    /// delivers its key's sort order.
    BTree,
    /// Hash index; supports equality predicates only.
    Hash,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::BTree => f.write_str("btree"),
            IndexKind::Hash => f.write_str("hash"),
        }
    }
}

/// Metadata describing one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexInfo {
    /// The key attribute.
    pub attr: AttrId,
    /// The index kind.
    pub kind: IndexKind,
    /// Whether the base relation is stored in index-key order. A clustered
    /// scan reads qualifying records sequentially; an unclustered index
    /// needs one record fetch per qualifying entry (bounded by Yao's page
    /// estimate in the cost model).
    pub clustered: bool,
}

impl IndexInfo {
    /// Creates an index description.
    #[must_use]
    pub fn new(attr: AttrId, kind: IndexKind, clustered: bool) -> IndexInfo {
        IndexInfo {
            attr,
            kind,
            clustered,
        }
    }

    /// Whether the index supports range predicates (`<`, `<=`, `>`, `>=`,
    /// between).
    #[must_use]
    pub fn supports_range(&self) -> bool {
        matches!(self.kind, IndexKind::BTree)
    }

    /// Whether scanning this index delivers tuples sorted on its key.
    #[must_use]
    pub fn delivers_order(&self) -> bool {
        matches!(self.kind, IndexKind::BTree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationId;

    fn attr() -> AttrId {
        AttrId {
            relation: RelationId(0),
            index: 0,
        }
    }

    #[test]
    fn btree_capabilities() {
        let idx = IndexInfo::new(attr(), IndexKind::BTree, false);
        assert!(idx.supports_range());
        assert!(idx.delivers_order());
        assert!(!idx.clustered);
    }

    #[test]
    fn hash_capabilities() {
        let idx = IndexInfo::new(attr(), IndexKind::Hash, false);
        assert!(!idx.supports_range());
        assert!(!idx.delivers_order());
    }

    #[test]
    fn display() {
        assert_eq!(IndexId(7).to_string(), "I7");
        assert_eq!(IndexKind::BTree.to_string(), "btree");
        assert_eq!(IndexKind::Hash.to_string(), "hash");
    }
}
