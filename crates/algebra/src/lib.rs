//! Logical and physical algebra for dynamic-plan optimization.
//!
//! This crate defines the two algebras of paper Table 1:
//!
//! | Operator type | Logical operator | Physical algorithm |
//! |---|---|---|
//! | Data retrieval | Get-Set | File-Scan, B-tree-Scan |
//! | Select, project | Select | Filter, Filter-B-tree-Scan |
//! | Join | Join | Hash-Join, Merge-Join, Index-Join |
//! | Enforcer (sort order) | — | Sort |
//! | Enforcer (plan robustness) | — | Choose-Plan |
//!
//! The *logical* algebra ([`LogicalExpr`]) describes a query as input to
//! the optimizer; the *physical* algebra ([`PhysicalOp`]) describes the
//! algorithms implemented by the execution engine. Predicates may contain
//! **host variables** ([`HostVar`]) that are unbound at compile-time — the
//! source of cost incomparability this line of work addresses.

#![warn(missing_docs)]

mod logical;
mod physical;
mod predicate;
mod properties;
mod types;

pub use logical::{LogicalError, LogicalExpr, LogicalId, LogicalNode};
pub use physical::{OpLabel, PhysicalOp};
pub use predicate::{JoinPred, Scalar, SelectPred};
pub use properties::{PhysProps, RelSet, SortOrder};
pub use types::{CompareOp, HostVar, Value};
