//! Optimizer run statistics.

/// Counters and measurements from one optimizer run, reported alongside
/// the plan. These feed the paper's Figures 5 (optimization time) and 6
/// (plan size) and the search-effort discussion of Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OptimizerStats {
    /// Memo groups created.
    pub groups: usize,
    /// Logical expressions in the memo after exploration.
    pub logical_exprs: usize,
    /// Physical expressions constructed and costed.
    pub physical_considered: usize,
    /// Candidates skipped because their cost lower bound exceeded the
    /// group's best upper bound (interval branch-and-bound).
    pub pruned_by_bound: usize,
    /// Plans removed by multi-point probing (0 unless the heuristic is on).
    pub pruned_by_probing: usize,
    /// Sum of frontier sizes over all (group, properties) pairs.
    pub frontier_plans: usize,
    /// Largest single frontier.
    pub max_frontier: usize,
    /// Distinct operator nodes in the final plan DAG (Figure 6 metric).
    pub plan_nodes: usize,
    /// Number of choose-plan operators in the final plan.
    pub choose_plans: usize,
    /// Wall-clock optimization time in seconds (measured):
    /// `explore_seconds + search_seconds`.
    pub optimization_seconds: f64,
    /// The part of `optimization_seconds` spent before the search:
    /// validating the query, seeding the memo and exploring it with the
    /// transformation rules.
    pub explore_seconds: f64,
    /// The rest of `optimization_seconds`: the property-driven search and
    /// the statistics of its result.
    pub search_seconds: f64,
    /// The part of `search_seconds` spent ending the search: compacting
    /// its arena, in place, into the plan (`Plan::finish`).
    pub finish_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = OptimizerStats::default();
        assert_eq!(s.groups, 0);
        assert_eq!(s.logical_exprs, 0);
        assert_eq!(s.optimization_seconds, 0.0);
    }
}
