//! Synthetic catalogs mirroring the paper's experimental database.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::CatalogBuilder;
use crate::config::SystemConfig;
use crate::schema::Catalog;

/// Parameters of the synthetic experimental database (paper Section 6):
/// relations of 100–1,000 records of 512 bytes; attribute domain sizes of
/// 0.2–1.25 × the relation's cardinality; unclustered B-trees on the
/// selection attribute and on all join attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Number of relations in the chain (`n`-way join needs `n`).
    pub n_relations: usize,
    /// Minimum relation cardinality (paper: 100).
    pub min_cardinality: u64,
    /// Maximum relation cardinality (paper: 1,000).
    pub max_cardinality: u64,
    /// Record length in bytes (paper: 512).
    pub record_len: u32,
    /// Lower bound of the join-attribute domain size as a fraction of the
    /// relation cardinality (paper: 0.2).
    pub domain_factor_min: f64,
    /// Upper bound of the same fraction (paper: 1.25).
    pub domain_factor_max: f64,
    /// RNG seed; the same seed reproduces the same catalog.
    pub seed: u64,
}

impl SyntheticSpec {
    /// The paper's configuration for an `n`-relation chain query.
    #[must_use]
    pub fn paper(n_relations: usize, seed: u64) -> SyntheticSpec {
        SyntheticSpec {
            n_relations,
            min_cardinality: 100,
            max_cardinality: 1000,
            record_len: 512,
            domain_factor_min: 0.2,
            domain_factor_max: 1.25,
            seed,
        }
    }
}

/// Names of the conventional attributes of chain-catalog relations.
///
/// Relation `i` (zero-based) is named `R{i+1}` and has:
/// * `a`  — the selection attribute referenced by the query's unbound
///   predicate; domain size = cardinality (values are near-unique).
/// * `jl` — joins to the *left* neighbour `R{i}` (absent on the first
///   relation's use, but always present in the schema for uniformity).
/// * `jr` — joins to the *right* neighbour `R{i+2}`.
///
/// Chain join predicate `i` (between relations `i` and `i+1`) equates
/// `R{i+1}.jr = R{i+2}.jl`.
pub const SELECTION_ATTR: &str = "a";
/// Join attribute pointing to the left neighbour.
pub const JOIN_LEFT_ATTR: &str = "jl";
/// Join attribute pointing to the right neighbour.
pub const JOIN_RIGHT_ATTR: &str = "jr";

/// Generates the paper's chain-query catalog: `n` relations with random
/// cardinalities, selection attribute `a`, chain join attributes
/// `jl`/`jr`, and unclustered B-trees on all of them.
///
/// Deterministic in `spec.seed`.
#[must_use]
pub fn make_chain_catalog(spec: &SyntheticSpec, config: SystemConfig) -> Catalog {
    assert!(spec.n_relations >= 1, "need at least one relation");
    assert!(
        spec.min_cardinality <= spec.max_cardinality,
        "cardinality range inverted"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut builder = CatalogBuilder::new(config);
    for i in 0..spec.n_relations {
        let card = rng.gen_range(spec.min_cardinality..=spec.max_cardinality);
        let domain = |rng: &mut StdRng| {
            (card as f64 * rng.gen_range(spec.domain_factor_min..=spec.domain_factor_max))
                .max(1.0)
                .round()
        };
        let (dl, dr) = (domain(&mut rng), domain(&mut rng));
        let name = format!("R{}", i + 1);
        builder = builder.relation(&name, card, spec.record_len, |r| {
            r.attr(SELECTION_ATTR, card as f64)
                .attr(JOIN_LEFT_ATTR, dl)
                .attr(JOIN_RIGHT_ATTR, dr)
                .btree(SELECTION_ATTR, false)
                .btree(JOIN_LEFT_ATTR, false)
                .btree(JOIN_RIGHT_ATTR, false)
        });
    }
    builder
        .build()
        .expect("synthetic catalog construction cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_relations() {
        let spec = SyntheticSpec::paper(4, 42);
        let cat = make_chain_catalog(&spec, SystemConfig::paper_1994());
        assert_eq!(cat.relations().len(), 4);
        for (i, rel) in cat.relations().iter().enumerate() {
            assert_eq!(rel.name, format!("R{}", i + 1));
            assert!(rel.stats.cardinality >= 100 && rel.stats.cardinality <= 1000);
            assert_eq!(rel.stats.record_len, 512);
            assert_eq!(rel.attributes.len(), 3);
            // One unclustered B-tree per attribute.
            assert_eq!(rel.indexes.len(), 3);
            for (_, info) in cat.indexes_on(rel.id) {
                assert!(!info.clustered);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = SyntheticSpec::paper(6, 7);
        let a = make_chain_catalog(&spec, SystemConfig::paper_1994());
        let b = make_chain_catalog(&spec, SystemConfig::paper_1994());
        for (ra, rb) in a.relations().iter().zip(b.relations()) {
            assert_eq!(ra.stats.cardinality, rb.stats.cardinality);
            assert_eq!(ra.attributes, rb.attributes);
        }
        let c = make_chain_catalog(&SyntheticSpec::paper(6, 8), SystemConfig::paper_1994());
        let differs = a
            .relations()
            .iter()
            .zip(c.relations())
            .any(|(x, y)| x.stats.cardinality != y.stats.cardinality);
        assert!(differs, "different seeds should give different cardinalities");
    }

    #[test]
    fn domain_sizes_within_paper_bounds() {
        let spec = SyntheticSpec::paper(10, 123);
        let cat = make_chain_catalog(&spec, SystemConfig::paper_1994());
        for rel in cat.relations() {
            let card = rel.stats.cardinality as f64;
            let sel = &rel.attributes[rel.attr_index(SELECTION_ATTR).unwrap() as usize];
            assert_eq!(sel.domain_size, card);
            for name in [JOIN_LEFT_ATTR, JOIN_RIGHT_ATTR] {
                let a = &rel.attributes[rel.attr_index(name).unwrap() as usize];
                assert!(a.domain_size >= (0.2 * card).floor());
                assert!(a.domain_size <= (1.25 * card).ceil());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn zero_relations_rejected() {
        let mut spec = SyntheticSpec::paper(1, 0);
        spec.n_relations = 0;
        let _ = make_chain_catalog(&spec, SystemConfig::paper_1994());
    }
}
