//! Tuples and tuple layouts.

use dqep_catalog::{AttrId, Catalog, RelationId};

/// A materialized tuple: the concatenated integer attributes of its
/// constituent base relations, in layout order.
pub type Tuple = Vec<i64>;

/// Describes which relations (and how many attributes each) a tuple
/// carries, so predicates over [`AttrId`]s can be resolved to positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleLayout {
    /// Constituent relations, in concatenation order.
    rels: Vec<(RelationId, usize)>,
    /// Total attribute count.
    width: usize,
    /// Total bytes per tuple when materialized (sum of the relations'
    /// record lengths) — used for memory budgeting and spill accounting.
    pub row_bytes: usize,
}

impl TupleLayout {
    /// The layout of a single base relation.
    #[must_use]
    pub fn base(catalog: &Catalog, rel: RelationId) -> TupleLayout {
        let r = catalog.relation(rel);
        TupleLayout {
            rels: vec![(rel, r.attributes.len())],
            width: r.attributes.len(),
            row_bytes: r.stats.record_len as usize,
        }
    }

    /// The layout of a join result: left attributes followed by right.
    #[must_use]
    pub fn concat(&self, right: &TupleLayout) -> TupleLayout {
        let mut rels = self.rels.clone();
        rels.extend(right.rels.iter().copied());
        TupleLayout {
            rels,
            width: self.width + right.width,
            row_bytes: self.row_bytes + right.row_bytes,
        }
    }

    /// Number of attributes per tuple.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// A synthetic single-relation layout for unit tests that need only
    /// width and row bytes.
    #[cfg(test)]
    pub(crate) fn for_tests(width: usize, row_bytes: usize) -> TupleLayout {
        TupleLayout { rels: vec![(RelationId(0), width)], width, row_bytes }
    }

    /// The column permutation that rewrites a tuple laid out as `other`
    /// into *this* layout: `proj[i]` is the position in `other` of this
    /// layout's `i`-th column. Returns `None` when the layouts already
    /// agree (the common case — callers skip the copy entirely).
    ///
    /// Both layouts must carry the same relations; commuted join orders
    /// produce exactly such pairs.
    ///
    /// # Panics
    /// Panics when `other` lacks a relation this layout carries.
    #[must_use]
    pub fn projection_from(&self, other: &TupleLayout) -> Option<Vec<usize>> {
        if self.rels == other.rels {
            return None;
        }
        let offset_in_other = |rel: RelationId| {
            let mut offset = 0;
            for &(orel, on) in &other.rels {
                if orel == rel {
                    return offset;
                }
                offset += on;
            }
            panic!("relation {rel} absent from source layout {:?}", other.rels)
        };
        let mut proj = Vec::with_capacity(self.width);
        for &(rel, n) in &self.rels {
            let base = offset_in_other(rel);
            proj.extend(base..base + n);
        }
        Some(proj)
    }

    /// Resolves an attribute to its position, or `None` when the layout
    /// does not carry its relation.
    #[must_use]
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        let mut offset = 0;
        for &(rel, n) in &self.rels {
            if rel == attr.relation {
                let idx = attr.index as usize;
                return (idx < n).then_some(offset + idx);
            }
            offset += n;
        }
        None
    }

    /// Resolves an attribute, panicking with context when absent.
    ///
    /// # Panics
    /// Panics when the attribute's relation is not part of the layout.
    #[must_use]
    pub fn require(&self, attr: AttrId) -> usize {
        self.position(attr)
            .unwrap_or_else(|| panic!("attribute {attr} not in layout {:?}", self.rels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 10, 512, |r| r.attr("a", 10.0).attr("b", 10.0))
            .relation("s", 10, 256, |r| r.attr("x", 10.0))
            .build()
            .unwrap()
    }

    #[test]
    fn base_layout_positions() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap();
        let layout = TupleLayout::base(&cat, r.id);
        assert_eq!(layout.width(), 2);
        assert_eq!(layout.row_bytes, 512);
        assert_eq!(layout.position(r.attr_id("a").unwrap()), Some(0));
        assert_eq!(layout.position(r.attr_id("b").unwrap()), Some(1));
    }

    #[test]
    fn concat_offsets() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let joined = TupleLayout::base(&cat, r.id).concat(&TupleLayout::base(&cat, s.id));
        assert_eq!(joined.width(), 3);
        assert_eq!(joined.row_bytes, 512 + 256);
        assert_eq!(joined.position(r.attr_id("b").unwrap()), Some(1));
        assert_eq!(joined.position(s.attr_id("x").unwrap()), Some(2));
        assert_eq!(joined.require(s.attr_id("x").unwrap()), 2);
    }

    #[test]
    fn missing_relation_is_none() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let layout = TupleLayout::base(&cat, r.id);
        assert_eq!(layout.position(s.attr_id("x").unwrap()), None);
    }

    #[test]
    fn projection_rewrites_a_commuted_layout() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let rs = TupleLayout::base(&cat, r.id).concat(&TupleLayout::base(&cat, s.id));
        let sr = TupleLayout::base(&cat, s.id).concat(&TupleLayout::base(&cat, r.id));
        // A commuted tuple [x, a, b] rewritten into r-then-s order [a, b, x].
        let proj = rs.projection_from(&sr).expect("orders differ");
        assert_eq!(proj, vec![1, 2, 0]);
        let row = [7i64, 1, 2];
        let rewritten: Vec<i64> = proj.iter().map(|&i| row[i]).collect();
        assert_eq!(rewritten, vec![1, 2, 7]);
        // Identical layouts need no copy at all.
        assert_eq!(rs.projection_from(&rs.clone()), None);
    }

    #[test]
    #[should_panic(expected = "not in layout")]
    fn require_panics_when_absent() {
        let cat = catalog();
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let _ = TupleLayout::base(&cat, r.id).require(s.attr_id("x").unwrap());
    }
}
