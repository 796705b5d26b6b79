//! Deterministic, seedable storage fault injection.
//!
//! A [`FaultPlan`] is installed on a [`crate::SimDisk`] and decides, per
//! accounted page access, whether the access fails with
//! [`crate::StorageError::InjectedFault`]. All triggers are deterministic:
//! the *N*-th read since installation, reads of a page range, or a
//! pseudo-random coin flipped from a seed and the access ordinal — so an
//! error path reproduces bit-for-bit from `(plan, workload)` alone.
//!
//! Fault plans only affect **accounted** accesses (the ones queries
//! perform); loading allocates page ids and accesses none, so a database
//! can always be generated and then queried under faults.

use std::fmt;

use crate::page::PageId;

/// A deterministic storage fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fail the N-th accounted read (1-based ordinals since installation).
    pub fail_nth_reads: Vec<u64>,
    /// Fail every accounted read of a page in `[lo, hi]` (inclusive).
    pub fail_page_range: Option<(u32, u32)>,
    /// Probability in `[0, 1]` that any accounted read fails, drawn
    /// deterministically from [`FaultPlan::seed`] and the read ordinal.
    pub read_fail_prob: f64,
    /// Fail the N-th accounted write (1-based ordinals).
    pub fail_nth_writes: Vec<u64>,
    /// Seed for the probabilistic trigger.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that never fails anything.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fails the `n`-th accounted read (1-based).
    #[must_use]
    pub fn nth_read(n: u64) -> FaultPlan {
        FaultPlan { fail_nth_reads: vec![n], ..FaultPlan::default() }
    }

    /// Fails every accounted read of pages `lo..=hi`.
    #[must_use]
    pub fn page_range(lo: u32, hi: u32) -> FaultPlan {
        FaultPlan { fail_page_range: Some((lo, hi)), ..FaultPlan::default() }
    }

    /// Fails each accounted read with probability `prob`, deterministically
    /// in `seed`.
    #[must_use]
    pub fn probabilistic(prob: f64, seed: u64) -> FaultPlan {
        FaultPlan { read_fail_prob: prob.clamp(0.0, 1.0), seed, ..FaultPlan::default() }
    }

    /// Decides whether the accounted read with 1-based `ordinal` of `page`
    /// fails.
    #[must_use]
    pub fn read_fails(&self, page: PageId, ordinal: u64) -> bool {
        if self.fail_nth_reads.contains(&ordinal) {
            return true;
        }
        if let Some((lo, hi)) = self.fail_page_range {
            if (lo..=hi).contains(&page.0) {
                return true;
            }
        }
        if self.read_fail_prob > 0.0 {
            let u = splitmix64(self.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // Map the top 53 bits to [0, 1).
            let x = (u >> 11) as f64 / (1u64 << 53) as f64;
            if x < self.read_fail_prob {
                return true;
            }
        }
        false
    }

    /// Decides whether the accounted write with 1-based `ordinal` fails.
    #[must_use]
    pub fn write_fails(&self, ordinal: u64) -> bool {
        self.fail_nth_writes.contains(&ordinal)
    }

    /// Parses the CLI fault-plan syntax: a comma-separated list of
    /// `key=value` clauses.
    ///
    /// | clause | meaning |
    /// |---|---|
    /// | `nth-read=N` | fail the N-th accounted read (repeatable) |
    /// | `pages=LO..HI` | fail reads of pages LO through HI (inclusive) |
    /// | `read-prob=P` | fail each read with probability P |
    /// | `nth-write=N` | fail the N-th accounted write (repeatable) |
    /// | `seed=S` | seed for `read-prob` (default 0) |
    ///
    /// Example: `nth-read=5,pages=10..20,read-prob=0.01,seed=7`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
            match key {
                "nth-read" => {
                    plan.fail_nth_reads.push(value.parse().map_err(|e| format!("nth-read: {e}"))?)
                }
                "nth-write" => {
                    plan.fail_nth_writes.push(value.parse().map_err(|e| format!("nth-write: {e}"))?)
                }
                "pages" => {
                    let (lo, hi) = value
                        .split_once("..")
                        .ok_or_else(|| format!("pages expects LO..HI, got `{value}`"))?;
                    let lo = lo.parse().map_err(|e| format!("pages lo: {e}"))?;
                    let hi = hi.parse().map_err(|e| format!("pages hi: {e}"))?;
                    if lo > hi {
                        return Err(format!("pages range {lo}..{hi} is empty"));
                    }
                    plan.fail_page_range = Some((lo, hi));
                }
                "read-prob" => {
                    let p: f64 = value.parse().map_err(|e| format!("read-prob: {e}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("read-prob {p} outside [0, 1]"));
                    }
                    plan.read_fail_prob = p;
                }
                "seed" => plan.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                other => return Err(format!("unknown fault clause `{other}`")),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for n in &self.fail_nth_reads {
            parts.push(format!("nth-read={n}"));
        }
        if let Some((lo, hi)) = self.fail_page_range {
            parts.push(format!("pages={lo}..{hi}"));
        }
        if self.read_fail_prob > 0.0 {
            parts.push(format!("read-prob={}", self.read_fail_prob));
            parts.push(format!("seed={}", self.seed));
        }
        for n in &self.fail_nth_writes {
            parts.push(format!("nth-write={n}"));
        }
        if parts.is_empty() {
            return f.write_str("none");
        }
        f.write_str(&parts.join(","))
    }
}

/// SplitMix64 — a tiny, high-quality mixing function; deterministic and
/// dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_read_fires_exactly_once() {
        let p = FaultPlan::nth_read(3);
        assert!(!p.read_fails(PageId(0), 1));
        assert!(!p.read_fails(PageId(0), 2));
        assert!(p.read_fails(PageId(0), 3));
        assert!(!p.read_fails(PageId(0), 4));
    }

    #[test]
    fn page_range_is_inclusive() {
        let p = FaultPlan::page_range(5, 7);
        assert!(!p.read_fails(PageId(4), 1));
        assert!(p.read_fails(PageId(5), 2));
        assert!(p.read_fails(PageId(7), 3));
        assert!(!p.read_fails(PageId(8), 4));
    }

    #[test]
    fn probabilistic_is_deterministic_and_calibrated() {
        let p = FaultPlan::probabilistic(0.25, 42);
        let fails: Vec<bool> = (1..=10_000).map(|i| p.read_fails(PageId(0), i)).collect();
        let again: Vec<bool> = (1..=10_000).map(|i| p.read_fails(PageId(0), i)).collect();
        assert_eq!(fails, again, "same seed, same outcome");
        let rate = fails.iter().filter(|&&b| b).count() as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        let other = FaultPlan::probabilistic(0.25, 43);
        let differs =
            (1..=10_000).any(|i| other.read_fails(PageId(0), i) != p.read_fails(PageId(0), i));
        assert!(differs, "different seeds diverge");
    }

    #[test]
    fn writes_fail_by_ordinal_only() {
        let p = FaultPlan { fail_nth_writes: vec![2], ..FaultPlan::default() };
        assert!(!p.write_fails(1));
        assert!(p.write_fails(2));
        assert!(!FaultPlan::nth_read(2).write_fails(2));
    }

    #[test]
    fn parse_round_trips() {
        let p = FaultPlan::parse("nth-read=5, pages=10..20, read-prob=0.01, seed=7, nth-write=3")
            .unwrap();
        assert_eq!(p.fail_nth_reads, vec![5]);
        assert_eq!(p.fail_page_range, Some((10, 20)));
        assert!((p.read_fail_prob - 0.01).abs() < 1e-12);
        assert_eq!(p.seed, 7);
        assert_eq!(p.fail_nth_writes, vec![3]);
        let shown = p.to_string();
        assert_eq!(FaultPlan::parse(&shown).unwrap(), p);
        assert_eq!(FaultPlan::none().to_string(), "none");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("nth-read").is_err());
        assert!(FaultPlan::parse("pages=9..2").is_err());
        assert!(FaultPlan::parse("pages=xyz").is_err());
        assert!(FaultPlan::parse("read-prob=1.5").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("").unwrap() == FaultPlan::none());
    }
}
