//! Per-relation statistics used by the cost model.


use crate::config::SystemConfig;

/// Physical and statistical properties of a stored relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelationStats {
    /// Number of records.
    pub cardinality: u64,
    /// Fixed record length in bytes (the experiments use 512 B).
    pub record_len: u32,
}

impl RelationStats {
    /// Creates statistics for a relation of `cardinality` records of
    /// `record_len` bytes each.
    ///
    /// # Panics
    /// Panics if `record_len` is zero.
    #[must_use]
    pub fn new(cardinality: u64, record_len: u32) -> RelationStats {
        assert!(record_len > 0, "record_len must be positive");
        RelationStats {
            cardinality,
            record_len,
        }
    }

    /// Records that fit on one page under `config` (at least 1).
    #[must_use]
    pub fn records_per_page(&self, config: &SystemConfig) -> f64 {
        (config.page_size as f64 / self.record_len as f64).floor().max(1.0)
    }

    /// Number of data pages the relation occupies (at least 1 when
    /// non-empty).
    #[must_use]
    pub fn pages(&self, config: &SystemConfig) -> f64 {
        if self.cardinality == 0 {
            return 0.0;
        }
        (self.cardinality as f64 / self.records_per_page(config)).ceil()
    }

    /// Estimated height of a B-tree over this relation, used for index
    /// traversal costs: `ceil(log_fanout(cardinality))`, at least 1.
    #[must_use]
    pub fn btree_height(&self, config: &SystemConfig) -> f64 {
        if self.cardinality <= 1 {
            return 1.0;
        }
        let fanout = config.btree_fanout as f64;
        (self.cardinality as f64).log(fanout).ceil().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let cfg = SystemConfig::paper_1994();
        let s = RelationStats::new(1000, 512);
        assert_eq!(s.records_per_page(&cfg), 4.0);
        assert_eq!(s.pages(&cfg), 250.0);
    }

    #[test]
    fn page_math_rounds_up() {
        let cfg = SystemConfig::paper_1994();
        let s = RelationStats::new(101, 512);
        assert_eq!(s.pages(&cfg), 26.0);
    }

    #[test]
    fn empty_relation_has_zero_pages() {
        let cfg = SystemConfig::paper_1994();
        assert_eq!(RelationStats::new(0, 512).pages(&cfg), 0.0);
    }

    #[test]
    fn oversized_record_still_fits_one_per_page() {
        let cfg = SystemConfig::paper_1994();
        let s = RelationStats::new(10, 8192);
        assert_eq!(s.records_per_page(&cfg), 1.0);
        assert_eq!(s.pages(&cfg), 10.0);
    }

    #[test]
    fn btree_height_grows_logarithmically() {
        let cfg = SystemConfig::paper_1994();
        assert_eq!(RelationStats::new(1, 512).btree_height(&cfg), 1.0);
        let small = RelationStats::new(100, 512).btree_height(&cfg);
        let large = RelationStats::new(1_000_000, 512).btree_height(&cfg);
        assert!(small >= 1.0);
        assert!(large > small);
        assert!(large <= 4.0, "a million records should need few levels at high fanout");
    }
}
