//! Search options and ablation switches.

/// Tuning knobs of the search engine.
///
/// The defaults reproduce the paper's prototype (its "most conservative"
/// configuration, Section 3); the other settings exist for the ablation
/// experiments in `dqep-harness` (`experiments::ablation`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOptions {
    /// Interval-aware branch-and-bound: skip building a physical expression
    /// whose cost *lower* bound already exceeds the group's best *upper*
    /// bound. Guaranteed lossless (such plans are dominated). Default on.
    pub enable_pruning: bool,
    /// Consider bushy join trees (the paper's transformation rules "permit
    /// generation of all bushy trees"). When false, only left-deep trees
    /// (right join input must be a base relation) are explored — an
    /// ablation.
    pub bushy: bool,
    /// Share subplans across alternatives (plans as DAGs, Section 3). When
    /// false, every parent receives a private copy of its child plan —
    /// the tree-shaped representation the paper warns against; used by the
    /// sharing ablation to quantify the blow-up.
    pub dag_sharing: bool,
    /// Multi-point probing (Section 3's heuristic for pseudo-incomparable
    /// plans): before declaring two plans incomparable, evaluate both at
    /// this many sampled parameter points; if one is at least as cheap at
    /// every sample, prune the other. 0 disables (default — the paper's
    /// prototype deliberately omits it). Probing is heuristic: it can
    /// remove a plan that would have been optimal for an unsampled binding.
    pub probe_points: usize,
    /// Build the **exhaustive plan** of Section 3: declare *all* cost
    /// comparisons incomparable, so every feasible plan is retained and
    /// linked under choose-plan operators. "Because it includes all plans,
    /// it must also include the optimal one for each set of run-time
    /// bindings." Much larger plans for the same start-up-time choices;
    /// exists to demonstrate that the paper's delayed-comparison policy
    /// (the default) loses nothing relative to it.
    pub exhaustive: bool,
    /// Upper limit on frontier size per (group, properties); `usize::MAX`
    /// (default) reproduces the paper. Smaller caps trade plan robustness
    /// for plan size, keeping the cheapest-lower-bound plans.
    pub max_frontier: usize,
}

impl SearchOptions {
    /// The paper's prototype configuration.
    #[must_use]
    pub fn paper() -> SearchOptions {
        SearchOptions {
            enable_pruning: true,
            bushy: true,
            dag_sharing: true,
            probe_points: 0,
            exhaustive: false,
            max_frontier: usize::MAX,
        }
    }
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = SearchOptions::default();
        assert!(o.enable_pruning);
        assert!(o.bushy);
        assert!(o.dag_sharing);
        assert_eq!(o.probe_points, 0);
        assert!(!o.exhaustive);
        assert_eq!(o.max_frontier, usize::MAX);
        assert_eq!(o, SearchOptions::paper());
    }
}
