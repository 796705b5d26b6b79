//! Relations, attributes, and the catalog container.

use std::collections::HashMap;
use std::fmt;


use crate::config::SystemConfig;
use crate::histogram::Histogram;
use crate::index::{IndexId, IndexInfo};
use crate::stats::RelationStats;

/// Identifier of a relation within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u32);

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifier of an attribute: a relation plus an attribute position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId {
    /// The owning relation.
    pub relation: RelationId,
    /// Zero-based position within the relation's schema.
    pub index: u32,
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.#{}", self.relation, self.index)
    }
}

/// An attribute (column) of a relation.
///
/// All experiment attributes are integer-valued with values drawn uniformly
/// from `[0, domain_size)`; `domain_size` is the statistic the paper's join
/// selectivity model divides by ("the cross product of the joined relations
/// divided by the larger of the join attribute domain sizes", Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Number of distinct values the attribute may take.
    pub domain_size: f64,
}

impl Attribute {
    /// Creates an attribute with the given name and domain size.
    ///
    /// # Panics
    /// Panics if `domain_size` is not strictly positive and finite.
    #[must_use]
    pub fn new(name: impl Into<String>, domain_size: f64) -> Attribute {
        assert!(
            domain_size.is_finite() && domain_size > 0.0,
            "domain_size must be positive and finite"
        );
        Attribute {
            name: name.into(),
            domain_size,
        }
    }
}

/// A base relation: schema plus statistics plus its indexes.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The relation's id, assigned by the catalog.
    pub id: RelationId,
    /// The relation's name, unique within the catalog.
    pub name: String,
    /// The relation's attributes in schema order.
    pub attributes: Vec<Attribute>,
    /// Cardinality and physical statistics.
    pub stats: RelationStats,
    /// Ids of the indexes defined on this relation.
    pub indexes: Vec<IndexId>,
}

impl Relation {
    /// Looks up an attribute position by name.
    #[must_use]
    pub fn attr_index(&self, name: &str) -> Option<u32> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(|i| i as u32)
    }

    /// The [`AttrId`] of the named attribute, if present.
    #[must_use]
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attr_index(name).map(|index| AttrId {
            relation: self.id,
            index,
        })
    }

    /// The attribute at `index`.
    ///
    /// # Panics
    /// Panics when out of range.
    #[must_use]
    pub fn attribute(&self, index: u32) -> &Attribute {
        &self.attributes[index as usize]
    }

    /// Number of data pages occupied, under the catalog's page size.
    #[must_use]
    pub fn pages(&self, config: &SystemConfig) -> f64 {
        self.stats.pages(config)
    }
}

/// Errors raised by catalog lookups and mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A relation name was registered twice.
    DuplicateRelation(String),
    /// An attribute name appeared twice within one relation.
    DuplicateAttribute(String),
    /// The named relation does not exist.
    UnknownRelation(String),
    /// The relation id is not present.
    UnknownRelationId(RelationId),
    /// The attribute does not exist on the relation.
    UnknownAttribute(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateRelation(n) => write!(f, "duplicate relation {n}"),
            CatalogError::DuplicateAttribute(n) => write!(f, "duplicate attribute {n}"),
            CatalogError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            CatalogError::UnknownRelationId(id) => write!(f, "unknown relation id {id}"),
            CatalogError::UnknownAttribute(n) => write!(f, "unknown attribute {n}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The catalog: all relations, indexes, and the system configuration.
#[derive(Debug, Clone)]
pub struct Catalog {
    relations: Vec<Relation>,
    indexes: Vec<IndexInfo>,
    by_name: HashMap<String, RelationId>,
    histograms: HashMap<AttrId, Histogram>,
    /// Physical constants of the (simulated) machine.
    pub config: SystemConfig,
}

impl Catalog {
    /// Creates an empty catalog with the given configuration.
    #[must_use]
    pub fn new(config: SystemConfig) -> Catalog {
        Catalog {
            relations: Vec::new(),
            indexes: Vec::new(),
            by_name: HashMap::new(),
            histograms: HashMap::new(),
            config,
        }
    }

    /// Adds a relation; returns its freshly assigned id.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        attributes: Vec<Attribute>,
        stats: RelationStats,
    ) -> Result<RelationId, CatalogError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateRelation(name));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &attributes {
            if !seen.insert(a.name.clone()) {
                return Err(CatalogError::DuplicateAttribute(a.name.clone()));
            }
        }
        let id = RelationId(self.relations.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.relations.push(Relation {
            id,
            name,
            attributes,
            stats,
            indexes: Vec::new(),
        });
        Ok(id)
    }

    /// Registers an index on an existing relation.
    pub fn add_index(&mut self, info: IndexInfo) -> Result<IndexId, CatalogError> {
        let rel = info.attr.relation;
        if rel.0 as usize >= self.relations.len() {
            return Err(CatalogError::UnknownRelationId(rel));
        }
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(info);
        self.relations[rel.0 as usize].indexes.push(id);
        Ok(id)
    }

    /// The relation with the given id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this catalog.
    #[must_use]
    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Result<&Relation, CatalogError> {
        self.by_name
            .get(name)
            .map(|id| self.relation(*id))
            .ok_or_else(|| CatalogError::UnknownRelation(name.to_string()))
    }

    /// All relations in id order.
    #[must_use]
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The index with the given id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this catalog.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // catalog lookup, not ops::Index
    pub fn index(&self, id: IndexId) -> &IndexInfo {
        &self.indexes[id.0 as usize]
    }

    /// All indexes defined on `rel`.
    pub fn indexes_on(&self, rel: RelationId) -> impl Iterator<Item = (IndexId, &IndexInfo)> {
        self.relation(rel)
            .indexes
            .iter()
            .map(move |id| (*id, self.index(*id)))
    }

    /// Finds an index whose key is exactly `attr`, preferring clustered ones.
    #[must_use]
    pub fn index_on_attr(&self, attr: AttrId) -> Option<(IndexId, &IndexInfo)> {
        let mut best: Option<(IndexId, &IndexInfo)> = None;
        for (id, info) in self.indexes_on(attr.relation) {
            if info.attr == attr {
                match best {
                    Some((_, b)) if b.clustered => {}
                    _ => best = Some((id, info)),
                }
                if info.clustered {
                    best = Some((id, info));
                }
            }
        }
        best
    }

    /// The attribute referred to by `attr`.
    #[must_use]
    pub fn attribute(&self, attr: AttrId) -> &Attribute {
        self.relation(attr.relation).attribute(attr.index)
    }

    /// Installs (or replaces) a value-distribution histogram for `attr`.
    /// Updates a relation's cardinality statistic. The refresh hook for
    /// mutable storage: after a write batch, `StoredDatabase::refresh_stats`
    /// pushes live record counts through here so bind-time arbitration and
    /// drift checks cost against post-write cardinalities instead of the
    /// load-time snapshot.
    ///
    /// # Panics
    /// Panics on an unknown relation id.
    pub fn set_cardinality(&mut self, rel: RelationId, cardinality: u64) {
        self.relations[rel.0 as usize].stats.cardinality = cardinality;
    }

    /// Histograms refine the selectivity estimates of *bound* predicates;
    /// without one, the uniform-domain model applies.
    pub fn set_histogram(&mut self, attr: AttrId, histogram: Histogram) {
        self.histograms.insert(attr, histogram);
    }

    /// The histogram for `attr`, if one was installed.
    #[must_use]
    pub fn histogram(&self, attr: AttrId) -> Option<&Histogram> {
        self.histograms.get(&attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;

    fn small_catalog() -> Catalog {
        let mut cat = Catalog::new(SystemConfig::paper_1994());
        let attrs = vec![Attribute::new("a", 500.0), Attribute::new("j", 400.0)];
        let stats = RelationStats::new(500, 512);
        cat.add_relation("R", attrs, stats).unwrap();
        cat
    }

    #[test]
    fn add_and_lookup_relation() {
        let cat = small_catalog();
        let r = cat.relation_by_name("R").unwrap();
        assert_eq!(r.name, "R");
        assert_eq!(r.attributes.len(), 2);
        assert_eq!(r.attr_index("j"), Some(1));
        assert_eq!(r.attr_index("nope"), None);
        assert_eq!(cat.relation(r.id).name, "R");
        let attr = r.attr_id("a").unwrap();
        assert_eq!(cat.attribute(attr).name, "a");
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut cat = small_catalog();
        let err = cat
            .add_relation("R", vec![Attribute::new("x", 1.0)], RelationStats::new(1, 512))
            .unwrap_err();
        assert_eq!(err, CatalogError::DuplicateRelation("R".into()));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut cat = Catalog::new(SystemConfig::paper_1994());
        let err = cat
            .add_relation(
                "S",
                vec![Attribute::new("x", 1.0), Attribute::new("x", 2.0)],
                RelationStats::new(1, 512),
            )
            .unwrap_err();
        assert_eq!(err, CatalogError::DuplicateAttribute("x".into()));
    }

    #[test]
    fn unknown_relation_error() {
        let cat = small_catalog();
        assert_eq!(
            cat.relation_by_name("missing").unwrap_err(),
            CatalogError::UnknownRelation("missing".into())
        );
    }

    #[test]
    fn index_registration_and_lookup() {
        let mut cat = small_catalog();
        let rel = cat.relation_by_name("R").unwrap().id;
        let attr = AttrId { relation: rel, index: 0 };
        let id = cat
            .add_index(IndexInfo::new(attr, IndexKind::BTree, false))
            .unwrap();
        assert_eq!(cat.index(id).attr, attr);
        assert_eq!(cat.indexes_on(rel).count(), 1);
        let (found, info) = cat.index_on_attr(attr).unwrap();
        assert_eq!(found, id);
        assert!(!info.clustered);
        // No index on the other attribute.
        assert!(cat.index_on_attr(AttrId { relation: rel, index: 1 }).is_none());
    }

    #[test]
    fn clustered_index_preferred() {
        let mut cat = small_catalog();
        let rel = cat.relation_by_name("R").unwrap().id;
        let attr = AttrId { relation: rel, index: 0 };
        cat.add_index(IndexInfo::new(attr, IndexKind::BTree, false)).unwrap();
        let clustered = cat
            .add_index(IndexInfo::new(attr, IndexKind::BTree, true))
            .unwrap();
        let (found, info) = cat.index_on_attr(attr).unwrap();
        assert_eq!(found, clustered);
        assert!(info.clustered);
    }

    #[test]
    fn index_on_unknown_relation_rejected() {
        let mut cat = small_catalog();
        let err = cat
            .add_index(IndexInfo::new(
                AttrId { relation: RelationId(99), index: 0 },
                IndexKind::BTree,
                false,
            ))
            .unwrap_err();
        assert_eq!(err, CatalogError::UnknownRelationId(RelationId(99)));
    }

    #[test]
    fn pages_follow_config() {
        let cat = small_catalog();
        let r = cat.relation_by_name("R").unwrap();
        // 500 records * 512 B / 2048 B pages = 125 pages.
        assert_eq!(r.pages(&cat.config), 125.0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(RelationId(3).to_string(), "R3");
        let a = AttrId { relation: RelationId(1), index: 2 };
        assert_eq!(a.to_string(), "R1.#2");
    }
}
