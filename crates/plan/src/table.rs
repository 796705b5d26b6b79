//! A table keyed by dense ids.
//!
//! [`NodeId`]s are issued 0, 1, 2, … by one
//! [`PlanNodeBuilder`](crate::PlanNodeBuilder) per optimizer run (or per
//! deserialization, or per hand-built plan), and a parent is always built
//! after its children, so the ids reachable from a root are bounded by the
//! root's own. The optimizer's memo issues its group ids the same way. A
//! table over such keys is a vector indexed by the id: no hashing, no
//! rehash-on-growth, and iteration in id order — which for plan nodes is a
//! topological order.

use std::marker::PhantomData;

/// A key that is its own index: issued densely from zero by one issuer.
pub trait DenseId: Copy {
    /// The id as a vector index.
    fn index(self) -> usize;
    /// The id at a vector index (inverse of [`DenseId::index`]).
    fn from_index(index: usize) -> Self;
}

/// A map from dense ids to values, stored as a vector of slots.
///
/// Sized up front with [`IdTable::with_capacity`] when the issuer's count
/// is known (`PlanNodeBuilder::issued()`, a root's id, the memo's group
/// count); an insert beyond the current size grows the table, so plans
/// from any source work.
#[derive(Debug, Clone)]
pub struct IdTable<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: DenseId, V> IdTable<K, V> {
    /// An empty table.
    #[must_use]
    pub fn new() -> IdTable<K, V> {
        IdTable::with_capacity(0)
    }

    /// An empty table with slots for ids `0..ids`.
    #[must_use]
    pub fn with_capacity(ids: usize) -> IdTable<K, V> {
        let mut slots = Vec::new();
        slots.resize_with(ids, || None);
        IdTable {
            slots,
            len: 0,
            _key: PhantomData,
        }
    }

    /// The value stored for `id`, if any.
    #[must_use]
    pub fn get(&self, id: K) -> Option<&V> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Whether a value is stored for `id`.
    #[must_use]
    pub fn contains(&self, id: K) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: K, value: V) -> Option<V> {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let old = self.slots[index].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Number of ids with a value.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id has a value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored `(id, value)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (K::from_index(i), v)))
    }
}

impl<K: DenseId, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn insert_get_and_replace() {
        let mut t: IdTable<NodeId, &str> = IdTable::with_capacity(4);
        assert!(t.is_empty());
        assert_eq!(t.insert(NodeId(2), "a"), None);
        assert_eq!(t.insert(NodeId(2), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(NodeId(2)), Some(&"b"));
        assert_eq!(t.get(NodeId(1)), None);
        assert!(
            !t.contains(NodeId(9)),
            "beyond the table is absent, not a panic"
        );
    }

    #[test]
    fn grows_on_demand_and_iterates_in_id_order() {
        let mut t: IdTable<NodeId, u32> = IdTable::new();
        t.insert(NodeId(7), 70);
        t.insert(NodeId(0), 0);
        t.insert(NodeId(3), 30);
        assert_eq!(t.len(), 3);
        let pairs: Vec<(NodeId, u32)> = t.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(
            pairs,
            vec![(NodeId(0), 0), (NodeId(3), 30), (NodeId(7), 70)]
        );
    }
}
