//! Physical constants of the (simulated) machine.


/// Physical constants used by the cost model, the access-module activation
/// model, and the storage simulator.
///
/// [`SystemConfig::paper_1994`] mirrors the experimental setup of Section 6:
/// 2,048-byte pages, 64 pages of expected memory (uncertain in
/// `[16, 112]`), 512-byte records, 128-byte plan nodes, a 2 MB/s disk, and
/// a 0.1 s plan-activation base (catalog validation plus the seek to the
/// access module).
///
/// I/O and CPU constants are *model* constants: like the paper (its
/// footnote 4), predicted execution times are computed from these so that
/// plan comparisons are free of selectivity-estimation noise and host
/// hardware. The storage simulator charges the same constants, so measured
/// simulator times and predicted times are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Page size in bytes.
    pub page_size: u32,
    /// Memory available to operators (expected value), in pages.
    pub expected_memory_pages: f64,
    /// Lower bound of uncertain memory, in pages.
    pub memory_min_pages: f64,
    /// Upper bound of uncertain memory, in pages.
    pub memory_max_pages: f64,
    /// Default (expected) selectivity a traditional optimizer assumes for an
    /// unbound selection predicate.
    pub default_selectivity: f64,
    /// Effective B-tree fanout (entries per interior node).
    pub btree_fanout: u32,
    /// Seconds to read one page sequentially.
    pub seq_page_io: f64,
    /// Seconds for one random page read (seek + rotation + transfer).
    pub random_page_io: f64,
    /// CPU seconds to produce/consume one record in an operator pipeline.
    pub cpu_per_record: f64,
    /// CPU seconds for one comparison (sorting, merging).
    pub cpu_per_compare: f64,
    /// CPU seconds to hash one record (build or probe).
    pub cpu_per_hash: f64,
    /// CPU seconds to evaluate one choose-plan decision at start-up-time
    /// (one cost-function evaluation per DAG node).
    pub choose_plan_overhead: f64,
    /// Size of one plan operator node in a serialized access module, bytes.
    pub plan_node_bytes: u32,
    /// Disk bandwidth for reading access modules, bytes per second.
    pub module_read_bandwidth: f64,
    /// Seconds of fixed plan-activation work: catalog validation plus one
    /// seek to the access module (the paper's `z = 0.1 s`).
    pub activation_base: f64,
}

impl SystemConfig {
    /// The experimental configuration of the paper (Section 6).
    #[must_use]
    pub fn paper_1994() -> SystemConfig {
        SystemConfig {
            page_size: 2048,
            expected_memory_pages: 64.0,
            memory_min_pages: 16.0,
            memory_max_pages: 112.0,
            default_selectivity: 0.05,
            btree_fanout: 128,
            seq_page_io: 0.001,
            random_page_io: 0.004,
            cpu_per_record: 1.0e-4,
            cpu_per_compare: 1.0e-6,
            cpu_per_hash: 2.5e-6,
            choose_plan_overhead: 5.0e-4,
            plan_node_bytes: 128,
            module_read_bandwidth: 2.0e6,
            activation_base: 0.1,
        }
    }

    /// Seconds needed to read an access module of `nodes` plan nodes.
    #[must_use]
    pub fn module_read_time(&self, nodes: usize) -> f64 {
        nodes as f64 * self.plan_node_bytes as f64 / self.module_read_bandwidth
    }

    /// Memory in bytes corresponding to `pages` pages.
    #[must_use]
    pub fn pages_to_bytes(&self, pages: f64) -> f64 {
        pages * self.page_size as f64
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_1994()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = SystemConfig::paper_1994();
        assert_eq!(c.page_size, 2048);
        assert_eq!(c.expected_memory_pages, 64.0);
        assert_eq!(c.memory_min_pages, 16.0);
        assert_eq!(c.memory_max_pages, 112.0);
        assert_eq!(c.default_selectivity, 0.05);
        assert_eq!(c.plan_node_bytes, 128);
    }

    #[test]
    fn module_read_time_matches_paper_example() {
        // Paper Section 6: "for a node size of 128 bytes and a bandwidth of
        // 2 MB/sec, about 16,000 nodes can be read per second"; the 14,090
        // node dynamic plan needs just under 0.9 s.
        let c = SystemConfig::paper_1994();
        let t = c.module_read_time(14_090);
        assert!((t - 0.9).abs() < 0.02, "expected ~0.9 s, got {t}");
        assert!((c.module_read_time(16_000) - 1.024).abs() < 0.03);
    }

    #[test]
    fn pages_to_bytes() {
        let c = SystemConfig::paper_1994();
        assert_eq!(c.pages_to_bytes(64.0), 64.0 * 2048.0);
    }
}
