//! Equi-width histograms: value-distribution statistics.
//!
//! The paper's final section names *errors in selectivity estimation* as
//! the first remaining source of compile-time uncertainty. The uniform
//! domain model used by the experiments estimates `a < v` as
//! `v / domain`; on skewed data that estimate can be badly wrong even at
//! start-up-time, when the binding is known. An equi-width histogram over
//! the actual stored values repairs the *bound* estimates while leaving
//! genuinely unbound predicates as uncertain as before — sharpening
//! exactly the decisions the choose-plan operator takes.


/// An equi-width histogram over integer values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: i64,
    max: i64,
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `n_buckets` equal-width buckets from the
    /// given values. Returns `None` for an empty input.
    ///
    /// # Panics
    /// Panics if `n_buckets` is zero.
    pub fn build(values: impl IntoIterator<Item = i64>, n_buckets: usize) -> Option<Histogram> {
        assert!(n_buckets > 0, "need at least one bucket");
        let values: Vec<i64> = values.into_iter().collect();
        if values.is_empty() {
            return None;
        }
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let mut buckets = vec![0u64; n_buckets];
        let width = bucket_width(min, max, n_buckets);
        for &v in &values {
            let idx = (((v - min) as f64) / width).floor() as usize;
            buckets[idx.min(n_buckets - 1)] += 1;
        }
        Some(Histogram {
            min,
            max,
            buckets,
            total: values.len() as u64,
        })
    }

    /// Number of values the histogram summarizes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The value range covered.
    #[must_use]
    pub fn range(&self) -> (i64, i64) {
        (self.min, self.max)
    }

    /// Estimated fraction of values strictly below `v` (linear
    /// interpolation within the boundary bucket).
    #[must_use]
    pub fn fraction_below(&self, v: i64) -> f64 {
        if v <= self.min {
            return 0.0;
        }
        if v > self.max {
            return 1.0;
        }
        let width = bucket_width(self.min, self.max, self.buckets.len());
        let pos = (v - self.min) as f64 / width;
        let full = (pos.floor() as usize).min(self.buckets.len() - 1);
        let mut count: f64 = self.buckets[..full].iter().map(|&c| c as f64).sum();
        let frac_in_bucket = pos - full as f64;
        count += self.buckets[full] as f64 * frac_in_bucket.clamp(0.0, 1.0);
        (count / self.total as f64).clamp(0.0, 1.0)
    }

    /// Estimated fraction of values less than or equal to `v`.
    #[must_use]
    pub fn fraction_leq(&self, v: i64) -> f64 {
        self.fraction_below(v + 1)
    }

    /// Estimated fraction of values equal to `v` (the boundary bucket's
    /// density over one value's width).
    #[must_use]
    pub fn fraction_eq(&self, v: i64) -> f64 {
        (self.fraction_leq(v) - self.fraction_below(v)).max(0.0)
    }
}

fn bucket_width(min: i64, max: i64, n_buckets: usize) -> f64 {
    (((max - min) as f64) + 1.0) / n_buckets as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_data_matches_uniform_model() {
        let h = Histogram::build(0..1000, 50).unwrap();
        assert_eq!(h.total(), 1000);
        assert_eq!(h.range(), (0, 999));
        for v in [100i64, 250, 500, 900] {
            let est = h.fraction_below(v);
            let truth = v as f64 / 1000.0;
            assert!((est - truth).abs() < 0.01, "v={v}: {est} vs {truth}");
        }
    }

    #[test]
    fn skewed_data_is_captured() {
        // 90% of the mass at small values.
        let mut values = vec![5i64; 900];
        values.extend((0..100).map(|i| 100 + i * 9));
        let h = Histogram::build(values.clone(), 20).unwrap();
        let truth =
            values.iter().filter(|&&v| v < 50).count() as f64 / values.len() as f64;
        let est = h.fraction_below(50);
        assert!(
            (est - truth).abs() < 0.1,
            "histogram {est} vs truth {truth}"
        );
        // The uniform model would estimate 50/1000 = 0.05 — off by ~18x.
        assert!(est > 0.8);
    }

    #[test]
    fn boundary_behaviour() {
        let h = Histogram::build(10..20, 5).unwrap();
        assert_eq!(h.fraction_below(10), 0.0);
        assert_eq!(h.fraction_below(5), 0.0);
        assert_eq!(h.fraction_below(20), 1.0);
        assert_eq!(h.fraction_below(i64::from(u16::MAX)), 1.0);
        assert_eq!(h.fraction_leq(19), 1.0);
    }

    #[test]
    fn fraction_eq_over_point_mass() {
        let h = Histogram::build(vec![7i64; 100], 4).unwrap();
        assert!(h.fraction_eq(7) > 0.9);
        assert_eq!(h.fraction_eq(100), 0.0);
    }

    #[test]
    fn monotone_in_v() {
        let values: Vec<i64> = (0..500).map(|i| (i * i) % 1000).collect();
        let h = Histogram::build(values, 16).unwrap();
        let mut prev = 0.0;
        for v in (-10..1010).step_by(7) {
            let f = h.fraction_below(v);
            assert!(f >= prev - 1e-12, "not monotone at {v}");
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(Histogram::build(std::iter::empty(), 8).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = Histogram::build(0..10, 0);
    }
}
