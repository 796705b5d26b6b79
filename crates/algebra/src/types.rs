//! Scalar values, comparison operators, and host variables.

use std::fmt;


/// A runtime scalar value. The experimental schema is integer-valued;
/// strings are supported for realistic example applications.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The integer payload, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A host variable in an embedded query ("user variable" in the paper):
/// a placeholder whose value is supplied by the application program at
/// start-up-time, e.g. `SELECT ... WHERE r.a < :x`.
///
/// Host variables are the canonical source of compile-time cost
/// incomparability: the selectivity of a predicate over `:x` cannot be
/// estimated until `:x` is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostVar(pub u32);

impl fmt::Display for HostVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":v{}", self.0)
    }
}

/// Comparison operator of a selection predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CompareOp {
    /// Evaluates `lhs OP rhs` over integers.
    #[must_use]
    pub fn eval_int(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CompareOp::Lt => lhs < rhs,
            CompareOp::Le => lhs <= rhs,
            CompareOp::Eq => lhs == rhs,
            CompareOp::Ge => lhs >= rhs,
            CompareOp::Gt => lhs > rhs,
        }
    }

    /// Whether a B-tree range scan can evaluate this operator (all of them
    /// can; hash indexes support only [`CompareOp::Eq`]).
    #[must_use]
    pub fn is_equality(self) -> bool {
        matches!(self, CompareOp::Eq)
    }

    /// The operator with sides swapped: `a OP b == b OP.flip() a`.
    #[must_use]
    pub fn flip(self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ge => CompareOp::Le,
            CompareOp::Gt => CompareOp::Lt,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Eq => "=",
            CompareOp::Ge => ">=",
            CompareOp::Gt => ">",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(42i64), Value::Int(42));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn compare_op_eval() {
        assert!(CompareOp::Lt.eval_int(1, 2));
        assert!(!CompareOp::Lt.eval_int(2, 2));
        assert!(CompareOp::Le.eval_int(2, 2));
        assert!(CompareOp::Eq.eval_int(3, 3));
        assert!(CompareOp::Ge.eval_int(3, 3));
        assert!(CompareOp::Gt.eval_int(4, 3));
        assert!(!CompareOp::Gt.eval_int(3, 3));
    }

    #[test]
    fn flip_is_consistent_with_eval() {
        for op in [CompareOp::Lt, CompareOp::Le, CompareOp::Eq, CompareOp::Ge, CompareOp::Gt] {
            for a in -2..=2 {
                for b in -2..=2 {
                    assert_eq!(op.eval_int(a, b), op.flip().eval_int(b, a), "{op} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(HostVar(2).to_string(), ":v2");
        assert_eq!(CompareOp::Le.to_string(), "<=");
        assert_eq!(Value::Int(1).to_string(), "1");
        assert_eq!(Value::Str("a".into()).to_string(), "\"a\"");
    }
}
