//! Synthetic stored databases mirroring a catalog.
//!
//! Every attribute is an `i64`; a relation's rows are stored as columns,
//! as many to a page as records of the relation's record length fit (the
//! experiments use 512-byte records). Attribute values are drawn
//! uniformly from `[0, domain_size)` — the same uniform-domain model
//! the selectivity estimator assumes, so predicted and actual
//! selectivities agree and any divergence between predicted and executed
//! cost comes from the cost formulas, not from estimation error (the
//! paper's footnote 4 separation).

use std::collections::HashMap;

use dqep_catalog::{Catalog, Histogram, IndexId, Relation, RelationId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::btree::BTree;
use crate::disk::SimDisk;
use crate::heap::HeapFile;
use crate::page::PAGE_SIZE;

/// One stored relation: its heap file and its indexes.
#[derive(Debug)]
pub struct StoredTable {
    /// The relation this table stores.
    pub relation: RelationId,
    /// The data file.
    pub heap: HeapFile,
    /// B-tree per catalog index id.
    pub indexes: HashMap<IndexId, BTree>,
    /// Number of attributes: values a row.
    pub n_attrs: usize,
    /// Record length in bytes.
    pub record_len: usize,
}

/// Value distribution of generated attributes.
///
/// The paper's experiments use uniform values, under which the uniform
/// selectivity model is exact. The Zipf profile generates the skew that
/// makes uniform estimates wrong — the selectivity-estimation-error
/// setting the paper's final section points to — which
/// [`install_histograms`] then repairs for bound predicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueDistribution {
    /// Uniform over `[0, domain_size)` (the paper's setup).
    Uniform,
    /// Zipf-like: value `v` drawn with probability proportional to
    /// `1 / (v + 1)^exponent`; mass concentrates at small values.
    Zipf {
        /// Skew exponent; 0 degenerates to uniform, 1 is classic Zipf.
        exponent: f64,
    },
}

/// Samples one value in `[0, domain)` under the distribution.
fn sample(dist: ValueDistribution, domain: i64, rng: &mut StdRng, cdf: &[f64]) -> i64 {
    match dist {
        ValueDistribution::Uniform => rng.gen_range(0..domain.max(1)),
        ValueDistribution::Zipf { .. } => {
            let u: f64 = rng.gen();
            // Binary search the precomputed CDF.
            match cdf.binary_search_by(|p| p.total_cmp(&u)) {
                Ok(i) | Err(i) => (i as i64).min(domain - 1),
            }
        }
    }
}

fn zipf_cdf(domain: i64, exponent: f64) -> Vec<f64> {
    let n = domain.max(1) as usize;
    let mut weights: Vec<f64> = (0..n).map(|v| 1.0 / ((v as f64) + 1.0).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// Builds equi-width histograms (`buckets` buckets) over every attribute
/// of every stored table and installs them in the catalog: the one
/// histogram builder, for a loaded database and for each shard's
/// partition alike. After this, the selectivity model's *bound* estimates
/// reflect the actual value distribution instead of the uniform
/// assumption. The tables are read through accounted scans (paced, on a
/// disk with an I/O latency set), and the disk's I/O statistics are reset
/// afterwards.
///
/// # Errors
/// Propagates scan failures — possible only when a fault plan is already
/// installed on the database's disk.
pub fn install_histograms(
    db: &StoredDatabase,
    catalog: &mut Catalog,
    buckets: usize,
) -> Result<(), crate::StorageError> {
    install_union_histograms(std::slice::from_ref(db), catalog, buckets)
}

/// [`install_histograms`] over the union of several databases' rows —
/// the coordinator's statistics, built from its shards: each column's
/// histogram counts that column's values on every database, and every
/// disk's I/O statistics are reset afterwards. A histogram does not
/// depend on the order its values come in, so the union of a routed
/// load's shards yields the histograms of the one database they split.
///
/// # Errors
/// Propagates scan failures — possible only when a fault plan is already
/// installed on one of the disks.
pub fn install_union_histograms(
    dbs: &[StoredDatabase],
    catalog: &mut Catalog,
    buckets: usize,
) -> Result<(), crate::StorageError> {
    let rel_ids: Vec<RelationId> = catalog.relations().iter().map(|r| r.id).collect();
    for rel_id in rel_ids {
        let n_attrs = catalog.relation(rel_id).attributes.len();
        let mut columns: Vec<Vec<i64>> = vec![Vec::new(); n_attrs];
        for db in dbs {
            db.table(rel_id).heap.read_pages(usize::MAX, |page| {
                columns
                    .iter_mut()
                    .zip(page.columns())
                    .for_each(|(col, from)| col.extend_from_slice(from));
            })?;
        }
        for (i, column) in columns.into_iter().enumerate() {
            if let Some(h) = Histogram::build(column, buckets) {
                catalog
                    .set_histogram(dqep_catalog::AttrId { relation: rel_id, index: i as u32 }, h);
            }
        }
    }
    dbs.iter().for_each(|db| db.disk.reset_stats());
    Ok(())
}

/// The database of a one-shard load.
fn only(mut dbs: Vec<StoredDatabase>) -> StoredDatabase {
    dbs.pop().unwrap_or_else(|| unreachable!("a load builds at least one database"))
}

/// A fully loaded synthetic database: written once, at load, and then
/// only read.
#[derive(Debug)]
pub struct StoredDatabase {
    /// The shared simulated disk (query I/O is read off its stats).
    pub disk: SimDisk,
    tables: HashMap<RelationId, StoredTable>,
}

impl StoredDatabase {
    /// Generates and loads every relation of `catalog`, with all catalog
    /// indexes built. Deterministic in `seed`. I/O counters are reset
    /// after loading.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size.
    #[must_use]
    pub fn generate(catalog: &Catalog, seed: u64) -> StoredDatabase {
        StoredDatabase::generate_with(catalog, seed, ValueDistribution::Uniform)
    }

    /// Like [`StoredDatabase::generate`], but with an explicit value
    /// distribution for all attributes.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size.
    #[must_use]
    pub fn generate_with(catalog: &Catalog, seed: u64, dist: ValueDistribution) -> StoredDatabase {
        Self::generate_profiled(catalog, seed, |_, _| dist)
    }

    /// Like [`StoredDatabase::generate_with`], but the distribution is
    /// chosen per attribute: `profile(relation, attr_index)` decides how
    /// that column's values are drawn. This is how benchmarks localize
    /// skew to one predicate column while keeping join columns uniform
    /// (so only the targeted estimate drifts). It is the one-shard case of
    /// [`StoredDatabase::generate_routed`].
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size.
    #[must_use]
    pub fn generate_profiled(
        catalog: &Catalog,
        seed: u64,
        profile: impl Fn(RelationId, usize) -> ValueDistribution,
    ) -> StoredDatabase {
        only(Self::generate_routed(catalog, seed, profile, 1, |_, _| 0))
    }

    /// Generates the rows [`StoredDatabase::generate_profiled`] draws —
    /// the same per-relation seeds, profile and Zipf CDFs — and loads
    /// each one, as it is drawn, into database `route(relation, row)` of
    /// `shards`: one generation pass builds every shard, and no relation
    /// is ever held whole. A shard holds its rows in generation order, on
    /// the page ids a load of just those rows would give them.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size, or when `route` names a shard `>= shards`.
    #[must_use]
    pub fn generate_routed(
        catalog: &Catalog,
        seed: u64,
        profile: impl Fn(RelationId, usize) -> ValueDistribution,
        shards: usize,
        route: impl Fn(&Relation, &[i64]) -> usize,
    ) -> Vec<StoredDatabase> {
        // Per-(domain, exponent) CDFs for Zipf profiles (cached across
        // attrs; the exponent is keyed by bit pattern).
        let mut cdfs: HashMap<(i64, u64), Vec<f64>> = HashMap::new();
        let mut values = Vec::new();
        Self::load(catalog, shards, route, |rel, load| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x7AB1E << 8) ^ u64::from(rel.id.0));
            for _ in 0..rel.stats.cardinality {
                values.clear();
                values.extend(rel.attributes.iter().enumerate().map(|(ai, a)| {
                    let domain = (a.domain_size as i64).max(1);
                    let dist = profile(rel.id, ai);
                    let cdf: &[f64] = match dist {
                        ValueDistribution::Uniform => &[],
                        ValueDistribution::Zipf { exponent } => cdfs
                            .entry((domain, exponent.to_bits()))
                            .or_insert_with(|| zipf_cdf(domain, exponent)),
                    };
                    sample(dist, domain, &mut rng, cdf)
                }));
                load(&values);
            }
        })
    }

    /// Builds a database holding exactly the given rows per relation, in
    /// the order given — how a table is reloaded after its rows changed.
    /// Every catalog index is built; loading is unaccounted (like
    /// [`StoredDatabase::generate`]) and I/O counters are reset
    /// afterwards. Relations absent from `rows` are created empty.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size, or on a wrong-arity row.
    #[must_use]
    pub fn from_rows(
        catalog: &Catalog,
        rows: &HashMap<RelationId, Vec<Vec<i64>>>,
    ) -> StoredDatabase {
        only(Self::load(
            catalog,
            1,
            |_, _| 0,
            |rel, load| {
                rows.get(&rel.id).into_iter().flatten().for_each(|row| load(row));
            },
        ))
    }

    /// The one load loop behind [`StoredDatabase::generate_routed`] and
    /// [`StoredDatabase::from_rows`]: for each relation of `catalog` and
    /// each of `shards` databases, a heap file and every catalog index,
    /// filled with the rows `draw(relation, load)` hands to `load` one at
    /// a time, as they are drawn — each into the database
    /// `route(relation, row)` names. Loading is unaccounted; I/O counters
    /// are reset afterwards.
    fn load(
        catalog: &Catalog,
        shards: usize,
        route: impl Fn(&Relation, &[i64]) -> usize,
        mut draw: impl FnMut(&Relation, &mut dyn FnMut(&[i64])),
    ) -> Vec<StoredDatabase> {
        assert_eq!(
            catalog.config.page_size as usize, PAGE_SIZE,
            "catalog page size must match storage PAGE_SIZE"
        );
        let mut dbs: Vec<StoredDatabase> = (0..shards)
            .map(|_| StoredDatabase { disk: SimDisk::new(), tables: HashMap::new() })
            .collect();
        for rel in catalog.relations() {
            let record_len = rel.stats.record_len as usize;
            let mut tables: Vec<StoredTable> = dbs
                .iter()
                .map(|db| StoredTable {
                    relation: rel.id,
                    heap: HeapFile::new(db.disk.clone(), record_len, rel.attributes.len()),
                    indexes: rel
                        .indexes
                        .iter()
                        .map(|&id| (id, BTree::new(db.disk.clone())))
                        .collect(),
                    n_attrs: rel.attributes.len(),
                    record_len,
                })
                .collect();
            draw(rel, &mut |values| {
                assert_eq!(values.len(), rel.attributes.len(), "row arity mismatch");
                let table = &mut tables[route(rel, values)];
                // A fresh disk has no fault plan and base-table appends are
                // unaccounted, so loading cannot fail.
                let rid = table.heap.append(values).unwrap_or_else(|e| {
                    unreachable!("load-time append on a fresh disk failed: {e}")
                });
                for (&idx_id, tree) in &mut table.indexes {
                    let key_attr = catalog.index(idx_id).attr.index as usize;
                    tree.insert(values[key_attr], rid);
                }
            });
            for (db, table) in dbs.iter_mut().zip(tables) {
                db.tables.insert(rel.id, table);
            }
        }
        dbs.iter().for_each(|db| db.disk.reset_stats());
        dbs
    }

    /// Copies every row of every relation out of its columns, without a
    /// read: what an oracle or a reload reads the stored data through. Row
    /// order is heap order per relation — the order the rows were loaded
    /// in — so the export is deterministic.
    #[must_use]
    pub fn export_rows(&self) -> HashMap<RelationId, Vec<Vec<i64>>> {
        let mut out = HashMap::new();
        for table in self.tables.values() {
            let rows = table.heap.rows_of(0..table.heap.page_count());
            out.insert(table.relation, rows.iter().map(|row| row.to_vec()).collect());
        }
        out
    }

    /// Pushes each table's record count into the catalog's cardinality
    /// statistics, so a catalog made for other data — the global catalog
    /// a shard's own starts as — describes this database's rows.
    pub fn refresh_stats(&self, catalog: &mut Catalog) {
        for table in self.tables.values() {
            catalog.set_cardinality(table.relation, table.heap.record_count());
        }
    }

    /// The stored table for a relation.
    ///
    /// # Panics
    /// Panics for relations not in the generated catalog.
    #[must_use]
    pub fn table(&self, rel: RelationId) -> &StoredTable {
        &self.tables[&rel]
    }

    /// All stored tables.
    pub fn tables(&self) -> impl Iterator<Item = &StoredTable> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};

    fn catalog() -> Catalog {
        CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 500, 512, |r| {
                r.attr("a", 500.0).attr("j", 100.0).btree("a", false).btree("j", false)
            })
            .relation("s", 200, 512, |r| r.attr("a", 200.0))
            .build()
            .unwrap()
    }

    #[test]
    fn generates_catalog_cardinalities() {
        let cat = catalog();
        let db = StoredDatabase::generate(&cat, 7);
        let r = db.table(cat.relation_by_name("r").unwrap().id);
        assert_eq!(r.heap.record_count(), 500);
        assert_eq!(r.indexes.len(), 2);
        let s = db.table(cat.relation_by_name("s").unwrap().id);
        assert_eq!(s.heap.record_count(), 200);
        assert!(s.indexes.is_empty());
        assert_eq!(db.tables().count(), 2);
        assert_eq!(db.disk.stats().total(), 0, "load I/O is reset");
    }

    #[test]
    fn values_respect_domains() {
        let cat = catalog();
        let db = StoredDatabase::generate(&cat, 7);
        let r = db.table(cat.relation_by_name("r").unwrap().id);
        for row in r.heap.scan() {
            let v = row.unwrap();
            assert_eq!(v.len(), 2);
            assert!((0..500).contains(&v[0]), "a in domain");
            assert!((0..100).contains(&v[1]), "j in domain");
        }
    }

    #[test]
    fn indexes_agree_with_heap() {
        let cat = catalog();
        let db = StoredDatabase::generate(&cat, 7);
        let rel = cat.relation_by_name("r").unwrap();
        let table = db.table(rel.id);
        let (idx_id, _) = cat.index_on_attr(rel.attr_id("a").unwrap()).unwrap();
        let tree = &table.indexes[&idx_id];
        assert_eq!(tree.len(), 500);

        // Every indexed rid fetches a record whose key matches.
        for target in [0i64, 100, 499] {
            for rid in tree.lookup(target).unwrap() {
                assert_eq!(table.heap.fetch(rid).unwrap()[0], target);
            }
        }
        // Range count equals heap filter count.
        let via_index = tree.range(None, Some(99)).unwrap().len();
        let via_scan = table.heap.scan().filter(|r| r.as_ref().unwrap()[0] < 100).count();
        assert_eq!(via_index, via_scan);
    }

    #[test]
    fn deterministic_in_seed() {
        let cat = catalog();
        let a = StoredDatabase::generate(&cat, 9);
        let b = StoredDatabase::generate(&cat, 9);
        let rel = cat.relation_by_name("r").unwrap().id;
        let ra: Vec<Vec<i64>> = a.table(rel).heap.scan().map(Result::unwrap).collect();
        let rb: Vec<Vec<i64>> = b.table(rel).heap.scan().map(Result::unwrap).collect();
        assert_eq!(ra, rb);
        let c = StoredDatabase::generate(&cat, 10);
        let rc: Vec<Vec<i64>> = c.table(rel).heap.scan().map(Result::unwrap).collect();
        assert_ne!(ra, rc);
    }

    #[test]
    fn from_rows_roundtrips_export() {
        let cat = catalog();
        let db = StoredDatabase::generate(&cat, 7);
        let rows = db.export_rows();
        let rel_r = cat.relation_by_name("r").unwrap().id;
        let rel_s = cat.relation_by_name("s").unwrap().id;
        assert_eq!(rows[&rel_r].len(), 500);
        assert_eq!(rows[&rel_s].len(), 200);

        // Keep only rows with even `a` — a synthetic shard partition.
        let mut part: HashMap<RelationId, Vec<Vec<i64>>> = HashMap::new();
        part.insert(rel_r, rows[&rel_r].iter().filter(|r| r[0] % 2 == 0).cloned().collect());
        let shard = StoredDatabase::from_rows(&cat, &part);
        let kept = part[&rel_r].len() as u64;
        assert_eq!(shard.table(rel_r).heap.record_count(), kept);
        assert_eq!(shard.table(rel_s).heap.record_count(), 0, "absent relation is empty");
        assert_eq!(shard.disk.stats().total(), 0, "load I/O is reset");

        // Indexes cover exactly the partition's rows.
        let (idx_a, _) = cat.index_on_attr(cat.relation(rel_r).attr_id("a").unwrap()).unwrap();
        assert_eq!(shard.table(rel_r).indexes[&idx_a].len(), kept);

        // Re-export equals the partition (heap order preserved).
        assert_eq!(shard.export_rows()[&rel_r], part[&rel_r]);
    }
}
