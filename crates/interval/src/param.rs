//! Uncertain cost-model parameters.

use std::fmt;


use crate::Interval;

/// A cost-model parameter whose value may be unknown at compile-time.
///
/// Three optimization modes use the same parameter differently (paper
/// Section 6, "Experimental Evaluation"):
///
/// * **Static (traditional) optimization** replaces an unknown parameter by
///   its *expected value* (e.g. selectivity 0.05), i.e. optimizes with the
///   point interval `[expected, expected]`.
/// * **Dynamic-plan optimization** uses the full *domain interval* (e.g.
///   selectivity `[0, 1]`, memory `[16, 112]` pages).
/// * **Run-time optimization** and start-up-time choose-plan decisions use
///   the *actual binding*, a point known only once the query is invoked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// The parameter is known precisely (a bound host variable, or a
    /// freshly observed system condition).
    Known(f64),
    /// The parameter is unknown at compile-time.
    Uncertain {
        /// The value a traditional optimizer would assume.
        expected: f64,
        /// The domain the actual value is drawn from at run-time.
        bounds: Interval,
    },
}

impl ParamValue {
    /// Creates an uncertain parameter, checking `expected ∈ bounds`.
    ///
    /// # Panics
    /// Panics if the expected value lies outside the bounds.
    #[must_use]
    pub fn uncertain(expected: f64, bounds: Interval) -> ParamValue {
        assert!(
            bounds.contains(expected),
            "expected value {expected} outside bounds {bounds}"
        );
        ParamValue::Uncertain { expected, bounds }
    }

    /// Whether the value is known at compile-time.
    #[must_use]
    pub fn is_known(self) -> bool {
        matches!(self, ParamValue::Known(_))
    }

    /// The interval a *dynamic-plan* optimizer must use: the point for known
    /// parameters, the full domain for uncertain ones.
    #[must_use]
    pub fn planning_interval(self) -> Interval {
        match self {
            ParamValue::Known(v) => Interval::point(v),
            ParamValue::Uncertain { bounds, .. } => bounds,
        }
    }

    /// The point a *traditional* optimizer would use: the known value, or
    /// the expected value of an uncertain parameter.
    #[must_use]
    pub fn expected(self) -> f64 {
        match self {
            ParamValue::Known(v) => v,
            ParamValue::Uncertain { expected, .. } => expected,
        }
    }

    /// Resolves the parameter with an actual run-time binding.
    ///
    /// Known parameters keep their value (the binding is ignored); uncertain
    /// parameters become known. Used at start-up-time and by the run-time
    /// optimization scenario.
    #[must_use]
    pub fn bind(self, actual: f64) -> ParamValue {
        match self {
            ParamValue::Known(v) => ParamValue::Known(v),
            ParamValue::Uncertain { .. } => ParamValue::Known(actual),
        }
    }

    /// The point interval of the expected value (static-optimizer view).
    #[must_use]
    pub fn expected_interval(self) -> Interval {
        Interval::point(self.expected())
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Known(v) => write!(f, "{v}"),
            ParamValue::Uncertain { expected, bounds } => {
                write!(f, "?{bounds} (expected {expected})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_param() {
        let p = ParamValue::Known(0.3);
        assert!(p.is_known());
        assert_eq!(p.planning_interval(), Interval::point(0.3));
        assert_eq!(p.expected(), 0.3);
        assert_eq!(p.bind(0.9), ParamValue::Known(0.3), "binding a known value is a no-op");
    }

    #[test]
    fn uncertain_param() {
        let p = ParamValue::uncertain(0.05, Interval::new(0.0, 1.0));
        assert!(!p.is_known());
        assert_eq!(p.planning_interval(), Interval::new(0.0, 1.0));
        assert_eq!(p.expected(), 0.05);
        assert_eq!(p.expected_interval(), Interval::point(0.05));
        assert_eq!(p.bind(0.7), ParamValue::Known(0.7));
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn expected_must_lie_in_bounds() {
        let _ = ParamValue::uncertain(2.0, Interval::new(0.0, 1.0));
    }

    #[test]
    fn display() {
        assert_eq!(ParamValue::Known(1.0).to_string(), "1");
        let p = ParamValue::uncertain(0.05, Interval::new(0.0, 1.0));
        assert_eq!(p.to_string(), "?[0.0000, 1.0000] (expected 0.05)");
    }
}
