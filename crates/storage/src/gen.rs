//! Synthetic stored databases mirroring a catalog.
//!
//! Records are fixed-width: each attribute is an `i64` (little-endian) at
//! offset `8 × position`, padded with zeros to the relation's record
//! length (the experiments use 512-byte records). Attribute values are
//! drawn uniformly from `[0, domain_size)` — the same uniform-domain model
//! the selectivity estimator assumes, so predicted and actual
//! selectivities agree and any divergence between predicted and executed
//! cost comes from the cost formulas, not from estimation error (the
//! paper's footnote 4 separation).

use std::collections::HashMap;
use std::ops::Deref;

use dqep_catalog::{Catalog, Histogram, IndexId, Relation, RelationId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::btree::BTree;
use crate::disk::SimDisk;
use crate::heap::HeapFile;
use crate::page::PAGE_SIZE;
use crate::slotted::SlottedPage;

/// One stored relation: its heap file and its indexes.
#[derive(Debug)]
pub struct StoredTable {
    /// The relation this table stores.
    pub relation: RelationId,
    /// The data file.
    pub heap: HeapFile,
    /// B-tree per catalog index id.
    pub indexes: HashMap<IndexId, BTree>,
    /// Number of attributes (for record decoding).
    pub n_attrs: usize,
    /// Record length in bytes.
    pub record_len: usize,
}

impl StoredTable {
    /// Decodes a stored record into attribute values.
    #[must_use]
    pub fn decode(&self, record: &[u8]) -> Vec<i64> {
        decode_record(record, self.n_attrs)
    }
}

/// Decodes `n_attrs` little-endian `i64`s from the front of a record.
#[must_use]
pub fn decode_record(record: &[u8], n_attrs: usize) -> Vec<i64> {
    record[..n_attrs * 8].chunks_exact(8).map(le_i64).collect()
}

/// The little-endian `i64` in the eight bytes of `bytes`.
// `#[inline]` here and on `decode_record_into`, `read_u16`: the page
// kernels are generic over who holds the bytes, so they are instantiated
// in the calling crate, and without it they call back into this one once
// a record (exec_scale + 2.5 % p50 on 24 alternating segments).
#[inline]
fn le_i64(bytes: &[u8]) -> i64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    i64::from_le_bytes(b)
}

/// Decodes the records of `page` column-wise — attribute `c` of each
/// record onto `cols[c]`, for every column given — starting at slot `from`
/// and stopping after `max_rows` of them: returns how many were decoded,
/// `n = min(slots − from, max_rows)`, and the slot to resume at,
/// `from + n` (the page's slot count once it is used up). Every slot holds
/// a record: a page is filled at load and never loses one. A page goes
/// from the disk's buffer into column vectors in one walk of its slot
/// array, the page held or, inside a [`SimDisk::read_run`], borrowed; a
/// scan carries the rest of a page over to its next batch as a page
/// reference and a slot number.
///
/// One check per record, not one per value: every column is grown once
/// for the `n` records, a record's leading `8 × columns` bytes are sliced
/// once, and the values are copied out of that slice.
///
/// # Panics
/// Panics on a record shorter than `8 × cols.len()` bytes.
pub fn decode_page_slots_into<B: Deref<Target = [u8; PAGE_SIZE]>>(
    page: &SlottedPage<B>,
    from: u16,
    max_rows: usize,
    cols: &mut [Vec<i64>],
) -> (usize, u16) {
    let n = usize::from((page.len() as u16).saturating_sub(from)).min(max_rows);
    for col in cols.iter_mut() {
        col.reserve(n);
    }
    let to = from + n as u16;
    for slot in from..to {
        decode_record_into(page.record(slot), cols);
    }
    (n, to)
}

/// Attribute `attr` of a record, read where it lies.
///
/// # Panics
/// Panics on a record shorter than `8 × (attr + 1)` bytes.
#[must_use]
pub fn record_value(record: &[u8], attr: usize) -> i64 {
    le_i64(&record[attr * 8..attr * 8 + 8])
}

/// Appends the leading `cols.len()` values of one record to the columns:
/// attribute `c` to `cols[c]`. The record is sliced once for all of them.
///
/// # Panics
/// Panics on a record shorter than `8 × cols.len()` bytes.
#[inline]
pub fn decode_record_into(record: &[u8], cols: &mut [Vec<i64>]) {
    let values = record[..cols.len() * 8].chunks_exact(8);
    for (col, value) in cols.iter_mut().zip(values) {
        col.push(le_i64(value));
    }
}

/// Encodes attribute values as a fixed-width record of `record_len` bytes.
///
/// # Panics
/// Panics if `record_len` is too short for `values`.
#[must_use]
pub fn encode_record(values: &[i64], record_len: usize) -> Vec<u8> {
    assert!(values.len() * 8 <= record_len, "record too narrow");
    let mut out = vec![0u8; record_len];
    for (v, slot) in values.iter().zip(out.chunks_exact_mut(8)) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
    out
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
    let rel_ids: Vec<RelationId> = catalog.relations().iter().map(|r| r.id).collect();
    for rel_id in rel_ids {
        let table = db.table(rel_id);
        let mut columns: Vec<Vec<i64>> = vec![Vec::new(); table.n_attrs];
        for page in table.heap.scan_pages() {
            decode_page_slots_into(&page?, 0, usize::MAX, &mut columns);
        }
        for (i, column) in columns.into_iter().enumerate() {
            if let Some(h) = Histogram::build(column, buckets) {
                catalog.set_histogram(
                    dqep_catalog::AttrId {
                        relation: rel_id,
                        index: i as u32,
                    },
                    h,
                );
            }
        }
    }
    db.disk.reset_stats();
    Ok(())
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
    pub fn generate_with(
        catalog: &Catalog,
        seed: u64,
        dist: ValueDistribution,
    ) -> StoredDatabase {
        Self::generate_profiled(catalog, seed, |_, _| dist)
    }

    /// Like [`StoredDatabase::generate_with`], but the distribution is
    /// chosen per attribute: `profile(relation, attr_index)` decides how
    /// that column's values are drawn. This is how benchmarks localize
    /// skew to one predicate column while keeping join columns uniform
    /// (so only the targeted estimate drifts).
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
        // Per-(domain, exponent) CDFs for Zipf profiles (cached across
        // attrs; the exponent is keyed by bit pattern).
        let mut cdfs: HashMap<(i64, u64), Vec<f64>> = HashMap::new();
        let mut values = Vec::new();
        Self::load(catalog, |rel, load| {
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

    /// Builds a database holding exactly the given rows per relation —
    /// the constructor shard replicas are loaded through: the coordinator
    /// routes the globally generated rows to shards, and each shard
    /// materializes its partition with this. Every catalog index is
    /// built; loading is unaccounted (like [`StoredDatabase::generate`])
    /// and I/O counters are reset afterwards. Relations absent from
    /// `rows` are created empty.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size, or on a wrong-arity row.
    #[must_use]
    pub fn from_rows(
        catalog: &Catalog,
        rows: &HashMap<RelationId, Vec<Vec<i64>>>,
    ) -> StoredDatabase {
        Self::load(catalog, |rel, load| {
            rows.get(&rel.id).into_iter().flatten().for_each(|row| load(row));
        })
    }

    /// The one load loop behind [`StoredDatabase::generate_profiled`] and
    /// [`StoredDatabase::from_rows`]: for each relation of `catalog`, a
    /// heap file and every catalog index, filled with the rows
    /// `draw(relation, load)` hands to `load` one at a time, as they are
    /// drawn. Loading is unaccounted; I/O counters are reset afterwards.
    fn load(
        catalog: &Catalog,
        mut draw: impl FnMut(&Relation, &mut dyn FnMut(&[i64])),
    ) -> StoredDatabase {
        assert_eq!(
            catalog.config.page_size as usize, PAGE_SIZE,
            "catalog page size must match storage PAGE_SIZE"
        );
        let disk = SimDisk::new();
        let mut tables = HashMap::new();
        for rel in catalog.relations() {
            let record_len = rel.stats.record_len as usize;
            let mut heap = HeapFile::new(disk.clone());
            let mut indexes: HashMap<IndexId, BTree> = rel
                .indexes
                .iter()
                .map(|&id| (id, BTree::new(disk.clone())))
                .collect();
            draw(rel, &mut |values| {
                assert_eq!(values.len(), rel.attributes.len(), "row arity mismatch");
                // A fresh disk has no fault plan and base-table appends are
                // unaccounted, so loading cannot fail.
                let rid = heap.append(&encode_record(values, record_len)).unwrap_or_else(|e| {
                    unreachable!("load-time append on a fresh disk failed: {e}")
                });
                for (&idx_id, tree) in &mut indexes {
                    let key_attr = catalog.index(idx_id).attr.index as usize;
                    tree.insert(values[key_attr], rid);
                }
            });
            tables.insert(
                rel.id,
                StoredTable {
                    relation: rel.id,
                    heap,
                    indexes,
                    n_attrs: rel.attributes.len(),
                    record_len,
                },
            );
        }
        disk.reset_stats();
        StoredDatabase { disk, tables }
    }

    /// Decodes every row of every relation with **unaccounted** reads —
    /// the coordinator's bulk export when partitioning a generated
    /// database across shards. Row order is heap order per relation, so
    /// the export is deterministic.
    #[must_use]
    pub fn export_rows(&self) -> HashMap<RelationId, Vec<Vec<i64>>> {
        let mut out = HashMap::new();
        for table in self.tables.values() {
            let mut rows = Vec::with_capacity(table.heap.record_count() as usize);
            for &pid in table.heap.pages() {
                let page = SlottedPage::from_bytes(self.disk.read_unaccounted(pid));
                for record in page.iter() {
                    rows.push(decode_record(record, table.n_attrs));
                }
            }
            out.insert(table.relation, rows);
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
        for record in r.heap.scan() {
            let v = r.decode(&record.unwrap());
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
                let rec = table.heap.fetch(rid).unwrap();
                assert_eq!(table.decode(&rec)[0], target);
            }
        }
        // Range count equals heap filter count.
        let via_index = tree.range(None, Some(99)).unwrap().len();
        let via_scan = table
            .heap
            .scan()
            .filter(|r| table.decode(r.as_ref().unwrap())[0] < 100)
            .count();
        assert_eq!(via_index, via_scan);
    }

    #[test]
    fn deterministic_in_seed() {
        let cat = catalog();
        let a = StoredDatabase::generate(&cat, 9);
        let b = StoredDatabase::generate(&cat, 9);
        let rel = cat.relation_by_name("r").unwrap().id;
        let ra: Vec<Vec<u8>> = a.table(rel).heap.scan().map(Result::unwrap).collect();
        let rb: Vec<Vec<u8>> = b.table(rel).heap.scan().map(Result::unwrap).collect();
        assert_eq!(ra, rb);
        let c = StoredDatabase::generate(&cat, 10);
        let rc: Vec<Vec<u8>> = c.table(rel).heap.scan().map(Result::unwrap).collect();
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
        part.insert(
            rel_r,
            rows[&rel_r].iter().filter(|r| r[0] % 2 == 0).cloned().collect(),
        );
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

    #[test]
    fn page_decode_matches_slot_by_slot_reads() {
        // The reference reads every slot through `SlottedPage::get` and
        // every value by its byte offset. Random full pages; every `from`,
        // every `max_rows`.
        let mut rng = StdRng::seed_from_u64(20);
        for record_len in [16usize, 256, 512] {
            for width in 1..=(record_len / 8).min(4) {
                let mut page = SlottedPage::new();
                let mut row = || (0..width).map(|_| rng.gen::<u64>() as i64).collect::<Vec<_>>();
                while page.insert(&encode_record(&row(), record_len)).unwrap().is_some() {}
                let slots = page.len() as u16;
                let rows: Vec<Vec<i64>> = (0..slots)
                    .map(|slot| {
                        let record = page.get(slot).unwrap();
                        let value = |a: usize| i64::from_le_bytes(record[a * 8..a * 8 + 8].try_into().unwrap());
                        (0..width).map(value).collect()
                    })
                    .collect();
                // Column `c` of `rows`, behind what the column already held.
                let column = |rows: &[Vec<i64>], c: usize| -> Vec<i64> {
                    std::iter::once(-7).chain(rows.iter().map(|row| row[c])).collect()
                };
                for from in 0..=slots + 1 {
                    let rest = &rows[usize::from(from.min(slots))..];
                    for max_rows in (0..=rest.len() + 1).chain([usize::MAX]) {
                        let what = format!("{record_len}-byte records, {width} wide, from {from}, {max_rows} rows");
                        let take = max_rows.min(rest.len());
                        let mut cols = vec![vec![-7i64]; width];
                        let (n, resume) = decode_page_slots_into(&page, from, max_rows, &mut cols);
                        assert_eq!((n, resume), (take, from + take as u16), "{what}");
                        for (c, col) in cols.iter().enumerate() {
                            assert_eq!(col, &column(&rest[..take], c), "{what}, column {c}");
                        }
                        // Resuming at the returned slot yields the rest.
                        let (n, resume) = decode_page_slots_into(&page, resume, usize::MAX, &mut cols);
                        assert_eq!((n, resume), (rest.len() - take, from.max(slots)), "{what}, resumed");
                        for (c, col) in cols.iter().enumerate() {
                            assert_eq!(col, &column(rest, c), "{what}, resumed, column {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn record_codec_roundtrip() {
        let rec = encode_record(&[1, -5, 1 << 40], 512);
        assert_eq!(rec.len(), 512);
        assert_eq!(decode_record(&rec, 3), vec![1, -5, 1 << 40]);
    }
}
