//! The four-valued comparison result for partially ordered costs.

use std::fmt;


/// Result of comparing two interval costs.
///
/// Traditional optimizers require cost comparison to return one of
/// `Less`/`Equal`/`Greater`; the dynamic-plan optimizer's cost ADT adds
/// [`PartialCmp::Incomparable`] for overlapping intervals (paper Section 3,
/// "Extensibility and Generality of Approach"). The search engine must keep
/// *both* plans whenever their costs are incomparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartialCmp {
    /// The left cost is lower for every possible run-time binding.
    Less,
    /// The costs are provably identical (both are the same point).
    Equal,
    /// The left cost is higher for every possible run-time binding.
    Greater,
    /// The cost intervals overlap: neither plan is always cheaper, so the
    /// choice must be delayed to start-up-time.
    Incomparable,
}

impl PartialCmp {
    /// Whether the left operand is provably no more expensive
    /// (`Less` or `Equal`).
    #[must_use]
    pub fn is_le(self) -> bool {
        matches!(self, PartialCmp::Less | PartialCmp::Equal)
    }

    /// Whether this comparison is decided at compile-time
    /// (anything but `Incomparable`).
    #[must_use]
    pub fn is_decided(self) -> bool {
        !matches!(self, PartialCmp::Incomparable)
    }

    /// The comparison with operands swapped.
    #[must_use]
    pub fn reverse(self) -> PartialCmp {
        match self {
            PartialCmp::Less => PartialCmp::Greater,
            PartialCmp::Greater => PartialCmp::Less,
            other => other,
        }
    }

    /// Converts from a total [`std::cmp::Ordering`].
    #[must_use]
    pub fn from_ordering(ord: std::cmp::Ordering) -> PartialCmp {
        match ord {
            std::cmp::Ordering::Less => PartialCmp::Less,
            std::cmp::Ordering::Equal => PartialCmp::Equal,
            std::cmp::Ordering::Greater => PartialCmp::Greater,
        }
    }
}

impl fmt::Display for PartialCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PartialCmp::Less => "<",
            PartialCmp::Equal => "=",
            PartialCmp::Greater => ">",
            PartialCmp::Incomparable => "<>",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(PartialCmp::Less.is_le());
        assert!(PartialCmp::Equal.is_le());
        assert!(!PartialCmp::Greater.is_le());
        assert!(!PartialCmp::Incomparable.is_le());
        assert!(PartialCmp::Less.is_decided());
        assert!(!PartialCmp::Incomparable.is_decided());
    }

    #[test]
    fn reverse_is_involutive() {
        for c in [
            PartialCmp::Less,
            PartialCmp::Equal,
            PartialCmp::Greater,
            PartialCmp::Incomparable,
        ] {
            assert_eq!(c.reverse().reverse(), c);
        }
        assert_eq!(PartialCmp::Less.reverse(), PartialCmp::Greater);
        assert_eq!(PartialCmp::Incomparable.reverse(), PartialCmp::Incomparable);
    }

    #[test]
    fn from_ordering() {
        use std::cmp::Ordering;
        assert_eq!(PartialCmp::from_ordering(Ordering::Less), PartialCmp::Less);
        assert_eq!(PartialCmp::from_ordering(Ordering::Equal), PartialCmp::Equal);
        assert_eq!(PartialCmp::from_ordering(Ordering::Greater), PartialCmp::Greater);
    }

    #[test]
    fn display() {
        assert_eq!(PartialCmp::Incomparable.to_string(), "<>");
        assert_eq!(PartialCmp::Less.to_string(), "<");
    }
}
