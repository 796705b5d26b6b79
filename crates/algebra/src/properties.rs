//! Logical and physical properties.
//!
//! *Logical* properties describe the data set a (sub)query produces — here
//! the set of base relations it covers, used as the memo group fingerprint.
//! *Physical* properties describe attributes of a particular algorithm's
//! output — here sort order, the classic "interesting order" of System R
//! that the Volcano optimizer generator generalizes. The choose-plan
//! enforcer's property, *plan robustness*, is handled by the search engine
//! itself rather than carried on plans.

use std::fmt;

use dqep_catalog::{AttrId, RelationId};

/// A set of base relations, as a 64-bit bitset over [`RelationId`]s.
///
/// Memo groups are logically fingerprinted by the relation set they cover;
/// queries of up to 64 relations are supported (the paper's largest query
/// joins 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelSet(u64);

impl RelSet {
    /// The empty set.
    pub const EMPTY: RelSet = RelSet(0);

    /// How many relations a set can hold: relation ids `0..CAPACITY`.
    pub const CAPACITY: u32 = 64;

    /// The singleton set containing `rel`.
    ///
    /// # Panics
    /// Panics for relation ids ≥ 64.
    #[must_use]
    pub fn singleton(rel: RelationId) -> RelSet {
        assert!(rel.0 < RelSet::CAPACITY, "RelSet supports at most 64 relations");
        RelSet(1u64 << rel.0)
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of relations in the set.
    #[must_use]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether `rel` is a member.
    #[must_use]
    pub fn contains(self, rel: RelationId) -> bool {
        rel.0 < 64 && self.0 & (1u64 << rel.0) != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: RelSet) -> RelSet {
        RelSet(self.0 & other.0)
    }

    /// Whether the two sets share no relation.
    #[must_use]
    pub fn is_disjoint(self, other: RelSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterates over members in increasing id order.
    pub fn iter(self) -> impl Iterator<Item = RelationId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(RelationId(i))
            }
        })
    }

    /// Builds a set from an iterator of relation ids.
    #[allow(clippy::should_implement_trait)] // not generic enough for FromIterator
    pub fn from_iter(rels: impl IntoIterator<Item = RelationId>) -> RelSet {
        rels.into_iter()
            .fold(RelSet::EMPTY, |s, r| s.union(RelSet::singleton(r)))
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// A physical sort order: unsorted, or sorted ascending on one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortOrder {
    /// No particular order.
    #[default]
    None,
    /// Sorted ascending on the attribute.
    Asc(AttrId),
}

impl SortOrder {
    /// Whether this (delivered) order satisfies a required order.
    /// `None` as a requirement is satisfied by anything.
    #[must_use]
    pub fn satisfies(self, required: SortOrder) -> bool {
        match required {
            SortOrder::None => true,
            SortOrder::Asc(a) => self == SortOrder::Asc(a),
        }
    }

    /// The sorted-on attribute, if any.
    #[must_use]
    pub fn attr(self) -> Option<AttrId> {
        match self {
            SortOrder::None => None,
            SortOrder::Asc(a) => Some(a),
        }
    }
}

impl fmt::Display for SortOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortOrder::None => f.write_str("any"),
            SortOrder::Asc(a) => write!(f, "sorted({a})"),
        }
    }
}

/// Physical properties requested from, or delivered by, a plan.
///
/// Currently sort order only; the type exists so additional properties
/// (partitioning, location) can be added without touching the search
/// engine's signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PhysProps {
    /// Sort order.
    pub order: SortOrder,
}

impl PhysProps {
    /// No requirements / no guarantees.
    pub const ANY: PhysProps = PhysProps {
        order: SortOrder::None,
    };

    /// Sorted ascending on `attr`.
    #[must_use]
    pub fn sorted(attr: AttrId) -> PhysProps {
        PhysProps {
            order: SortOrder::Asc(attr),
        }
    }

    /// Whether these delivered properties satisfy `required`.
    #[must_use]
    pub fn satisfies(self, required: PhysProps) -> bool {
        self.order.satisfies(required.order)
    }
}

impl fmt::Display for PhysProps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(rel: u32, idx: u32) -> AttrId {
        AttrId {
            relation: RelationId(rel),
            index: idx,
        }
    }

    #[test]
    fn relset_basics() {
        let a = RelSet::singleton(RelationId(0));
        let b = RelSet::singleton(RelationId(3));
        let u = a.union(b);
        assert_eq!(u.len(), 2);
        assert!(u.contains(RelationId(0)));
        assert!(u.contains(RelationId(3)));
        assert!(!u.contains(RelationId(1)));
        assert!(a.is_disjoint(b));
        assert!(!u.is_disjoint(a));
        assert!(RelSet::EMPTY.is_empty());
        assert_eq!(u.intersect(a), a);
    }

    #[test]
    fn relset_iter_ordered() {
        let s = RelSet::from_iter([RelationId(5), RelationId(1), RelationId(9)]);
        let v: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(v, vec![1, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn relset_bounds_checked() {
        let _ = RelSet::singleton(RelationId(64));
    }

    #[test]
    fn sort_order_satisfaction() {
        let a = attr(0, 1);
        let b = attr(0, 2);
        assert!(SortOrder::None.satisfies(SortOrder::None));
        assert!(SortOrder::Asc(a).satisfies(SortOrder::None));
        assert!(SortOrder::Asc(a).satisfies(SortOrder::Asc(a)));
        assert!(!SortOrder::Asc(a).satisfies(SortOrder::Asc(b)));
        assert!(!SortOrder::None.satisfies(SortOrder::Asc(a)));
    }

    #[test]
    fn phys_props_satisfaction() {
        let a = attr(0, 1);
        assert!(PhysProps::sorted(a).satisfies(PhysProps::ANY));
        assert!(!PhysProps::ANY.satisfies(PhysProps::sorted(a)));
        assert!(PhysProps::sorted(a).satisfies(PhysProps::sorted(a)));
    }

    #[test]
    fn display() {
        let s = RelSet::from_iter([RelationId(0), RelationId(2)]);
        assert_eq!(s.to_string(), "{R0,R2}");
        assert_eq!(SortOrder::None.to_string(), "any");
        assert_eq!(SortOrder::Asc(attr(1, 0)).to_string(), "sorted(R1.#0)");
    }
}
