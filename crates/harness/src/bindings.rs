//! Random run-time bindings (paper Section 6).
//!
//! "The random values for selectivities of selection operations are chosen
//! from a uniform distribution over the interval [0, 1]. … When memory was
//! considered an unbound parameter, a run-time value for the number of
//! pages was chosen from a uniform distribution over [16, 112]."

use dqep_cost::Bindings;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::queries::Workload;

/// Deterministic sampler of run-time bindings for a workload.
#[derive(Debug)]
pub struct BindingSampler {
    rng: StdRng,
    memory_uncertain: bool,
}

impl BindingSampler {
    /// Creates a sampler. When `memory_uncertain`, every binding also
    /// carries a uniformly sampled memory grant.
    #[must_use]
    pub fn new(seed: u64, memory_uncertain: bool) -> BindingSampler {
        BindingSampler {
            rng: StdRng::seed_from_u64(seed),
            memory_uncertain,
        }
    }

    /// Samples one invocation's bindings: a selectivity uniform in
    /// `[0, 1]` for every host variable, bound through the workload's
    /// parameter space, then (when memory is uncertain) a grant uniform in
    /// its memory range.
    pub fn sample(&mut self, workload: &Workload) -> Bindings {
        let rng = &mut self.rng;
        let point = std::iter::repeat_with(|| rng.gen_range(0.0..=1.0));
        let b = workload.space.bindings(&workload.catalog, point);
        if self.memory_uncertain {
            let memory = workload.space.memory();
            b.with_memory(self.rng.gen_range(memory.lo()..=memory.hi()))
        } else {
            b
        }
    }

    /// Samples `n` invocations.
    pub fn sample_n(&mut self, workload: &Workload, n: usize) -> Vec<Bindings> {
        (0..n).map(|_| self.sample(workload)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::paper_query;
    use dqep_algebra::HostVar;
    use dqep_cost::SelectivityModel;

    #[test]
    fn samples_all_host_vars() {
        let w = paper_query(3, 1);
        let mut s = BindingSampler::new(2, false);
        let b = s.sample(&w);
        assert_eq!(b.values.len(), w.uncertain_vars());
        assert!(b.memory_pages.is_none());
        for (var, rel) in w.space.vars().zip(w.catalog.relations()) {
            let v = b.value(var).unwrap();
            assert!((0..=rel.stats.cardinality as i64).contains(&v));
        }
    }

    #[test]
    fn memory_sampled_in_paper_range() {
        let w = paper_query(1, 1);
        let mut s = BindingSampler::new(3, true);
        for _ in 0..50 {
            let b = s.sample(&w);
            let m = b.memory_pages.unwrap();
            assert!((16.0..=112.0).contains(&m));
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let w = paper_query(2, 1);
        let a = BindingSampler::new(9, true).sample_n(&w, 5);
        let b = BindingSampler::new(9, true).sample_n(&w, 5);
        assert_eq!(a, b);
        let c = BindingSampler::new(10, true).sample_n(&w, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn selectivities_cover_the_unit_interval() {
        // With 200 samples the empirical mean selectivity should be near
        // 0.5 — i.e. *not* near the 0.05 a static optimizer assumes.
        let w = paper_query(1, 1);
        let mut s = BindingSampler::new(4, false);
        let pred = w.query.select_predicates()[0];
        let model = SelectivityModel::new(&w.catalog);
        let mean: f64 = (0..200)
            .map(|_| model.value_selectivity(&pred, s.sample(&w).value(HostVar(0)).unwrap()))
            .sum::<f64>()
            / 200.0;
        assert!((0.4..=0.6).contains(&mean), "mean selectivity {mean}");
    }
}
