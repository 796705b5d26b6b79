//! The abstract cost data type.

use std::fmt;
use std::ops::{Add, AddAssign};

use dqep_interval::{Interval, PartialCmp};

/// Anticipated query evaluation cost, in seconds, split into CPU and I/O
/// components.
///
/// The paper encapsulates cost in an abstract data type whose comparison
/// may return "incomparable" in addition to less/equal/greater (Section 3).
/// Here both components are intervals; *comparisons operate on the total*
/// (CPU + I/O), matching the paper's single-measure experiments, while the
/// components are kept separate for reporting (the experimental section
/// reports CPU and I/O start-up effort separately).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// CPU seconds.
    pub cpu: Interval,
    /// I/O seconds.
    pub io: Interval,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        cpu: Interval::ZERO,
        io: Interval::ZERO,
    };

    /// Creates a cost from CPU and I/O intervals.
    #[must_use]
    pub fn new(cpu: Interval, io: Interval) -> Cost {
        Cost { cpu, io }
    }

    /// A pure-CPU cost.
    #[must_use]
    pub fn cpu_only(cpu: Interval) -> Cost {
        Cost {
            cpu,
            io: Interval::ZERO,
        }
    }

    /// A pure-I/O cost.
    #[must_use]
    pub fn io_only(io: Interval) -> Cost {
        Cost {
            cpu: Interval::ZERO,
            io,
        }
    }

    /// A point cost with the given CPU and I/O seconds.
    #[must_use]
    pub fn point(cpu: f64, io: f64) -> Cost {
        Cost {
            cpu: Interval::point(cpu),
            io: Interval::point(io),
        }
    }

    /// Total cost interval (CPU + I/O); the measure used for comparisons.
    #[must_use]
    pub fn total(self) -> Interval {
        self.cpu + self.io
    }

    /// Whether both components are points (fully determined cost).
    #[must_use]
    pub fn is_point(self) -> bool {
        self.cpu.is_point() && self.io.is_point()
    }

    /// Four-valued comparison on the total cost.
    #[must_use]
    pub fn compare(self, other: Cost) -> PartialCmp {
        self.total().compare(other.total())
    }

    /// Whether `self`'s total dominates `other`'s (never more expensive,
    /// and not the same point): `other` may then be pruned.
    #[must_use]
    pub fn dominates(self, other: Cost) -> bool {
        self.total().dominates(other.total())
    }

    /// The cost of a choose-plan over two alternatives *excluding* the
    /// decision overhead: the pointwise minimum of the **totals** — in the
    /// best case the cheaper of the two best cases, in the worst case the
    /// cheaper of the two worst cases (paper Sections 3 and 5).
    ///
    /// The minimum is taken on totals, not componentwise: a componentwise
    /// minimum would combine one alternative's best CPU with the other's
    /// best I/O and *under*-estimate the achievable worst case, which is
    /// unsound (the start-up decision picks one whole alternative). Since
    /// the resulting bound is not attributable to CPU vs I/O of a single
    /// alternative, it is carried in the CPU component with zero I/O; all
    /// comparisons and figure metrics operate on totals.
    #[must_use]
    pub fn choose_min(self, other: Cost) -> Cost {
        Cost {
            cpu: self.total().min(other.total()),
            io: Interval::ZERO,
        }
    }
}

impl Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        Cost {
            cpu: self.cpu + rhs.cpu,
            io: self.io + rhs.io,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total {} (cpu {}, io {})", self.total(), self.cpu, self.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_components() {
        let c = Cost::new(Interval::new(1.0, 2.0), Interval::new(10.0, 20.0));
        assert_eq!(c.total(), Interval::new(11.0, 22.0));
        assert!(!c.is_point());
        assert!(Cost::point(1.0, 2.0).is_point());
    }

    #[test]
    fn comparison_is_on_total() {
        let a = Cost::new(Interval::point(5.0), Interval::point(0.0));
        let b = Cost::new(Interval::point(0.0), Interval::point(5.0));
        // Same total — equal even though the mixes differ.
        assert_eq!(a.compare(b), PartialCmp::Equal);

        let cheap = Cost::point(0.0, 1.0);
        let wide = Cost::new(Interval::new(0.0, 10.0), Interval::ZERO);
        assert_eq!(cheap.compare(wide), PartialCmp::Incomparable);
        assert_eq!(Cost::point(0.1, 0.1).compare(Cost::point(5.0, 5.0)), PartialCmp::Less);
    }

    #[test]
    fn domination() {
        let a = Cost::new(Interval::new(0.0, 1.0), Interval::ZERO);
        let b = Cost::new(Interval::new(2.0, 3.0), Interval::ZERO);
        assert!(a.dominates(b));
        assert!(!b.dominates(a));
        assert!(!a.dominates(a));
    }

    #[test]
    fn addition() {
        let a = Cost::point(1.0, 2.0);
        let b = Cost::new(Interval::new(0.0, 1.0), Interval::new(1.0, 1.0));
        let s = a + b;
        assert_eq!(s.cpu, Interval::new(1.0, 2.0));
        assert_eq!(s.io, Interval::new(3.0, 3.0));
        let mut t = a;
        t += b;
        assert_eq!(t, s);
    }

    #[test]
    fn choose_min_paper_example() {
        // Paper Section 5: alternatives [0,10] and [1,1] with overhead
        // [0.01, 0.01] give [0.01, 1.01].
        let a = Cost::cpu_only(Interval::new(0.0, 10.0));
        let b = Cost::cpu_only(Interval::new(1.0, 1.0));
        let m = a.choose_min(b) + Cost::cpu_only(Interval::point(0.01));
        assert_eq!(m.total(), Interval::new(0.01, 1.01));
    }

    #[test]
    fn display() {
        let c = Cost::point(1.0, 2.0);
        assert!(c.to_string().contains("total [3.0000]"));
    }
}
