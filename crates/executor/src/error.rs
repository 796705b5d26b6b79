//! The unified executor error type.
//!
//! Every failure in the execution pipeline — compilation problems, storage
//! faults, resource-governor aborts, cancellation — is an [`ExecError`].
//! Errors are classified **retryable** or **fatal**
//! ([`ExecError::is_retryable`]): a retryable error means *this plan* hit a
//! transient or plan-specific wall (an injected storage fault, a memory
//! grant too small for its buffering strategy) and a different alternative
//! of a choose-plan may still succeed; a fatal error means the query as a
//! whole cannot proceed (cancelled, over a query-wide limit, malformed
//! plan).

use std::fmt;

use dqep_algebra::HostVar;
use dqep_storage::StorageError;

/// Which governed resource was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// A memory reservation exceeded the governor's limit (bytes).
    Memory {
        /// Bytes the operator asked for on top of current usage.
        requested: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The query produced more result rows than allowed.
    Rows {
        /// The configured limit.
        limit: u64,
    },
    /// The query performed more page I/Os than allowed.
    Io {
        /// The configured limit.
        limit: u64,
    },
    /// The query ran past its wall-clock deadline.
    WallClock {
        /// The configured limit in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Memory { requested, limit } => {
                write!(f, "memory (requested {requested} more bytes, limit {limit})")
            }
            Resource::Rows { limit } => write!(f, "rows (limit {limit})"),
            Resource::Io { limit } => write!(f, "io (limit {limit} pages)"),
            Resource::WallClock { limit_ms } => {
                write!(f, "wall-clock (limit {limit_ms} ms)")
            }
        }
    }
}

/// Execution-pipeline errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A predicate references a host variable with no binding.
    UnboundHostVar(HostVar),
    /// The plan still contains a choose-plan operator; compile it with
    /// [`crate::compile_dynamic_plan`] or resolve it first.
    UnresolvedChoosePlan,
    /// A join predicate does not span the operator's inputs.
    PredicateMismatch(String),
    /// The storage layer failed (injected fault, unallocated page, …).
    Storage(StorageError),
    /// The (simulated) network failed: a malformed frame, a closed
    /// channel, or a link whose retransmission budget ran out.
    Network(String),
    /// The resource governor refused to let the query continue.
    ResourceExhausted(Resource),
    /// The query was cooperatively cancelled.
    Cancelled,
    /// An executor invariant was violated (e.g. `next` before `open`).
    Internal(String),
}

impl ExecError {
    /// Whether a choose-plan operator may recover by running a different
    /// alternative.
    ///
    /// Storage faults and memory exhaustion are plan-local: another
    /// alternative may avoid the faulted pages or buffer less. Row, I/O
    /// and wall-clock limits are query-wide budgets already spent, and
    /// cancellation / malformed-plan errors are terminal by definition.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ExecError::Storage(_) | ExecError::Network(_) => true,
            ExecError::ResourceExhausted(r) => matches!(r, Resource::Memory { .. }),
            ExecError::UnboundHostVar(_)
            | ExecError::UnresolvedChoosePlan
            | ExecError::PredicateMismatch(_)
            | ExecError::Cancelled
            | ExecError::Internal(_) => false,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundHostVar(h) => write!(f, "host variable {h} is unbound"),
            ExecError::UnresolvedChoosePlan => {
                f.write_str("plan contains an unresolved choose-plan operator")
            }
            ExecError::PredicateMismatch(p) => write!(f, "predicate does not span inputs: {p}"),
            ExecError::Storage(_) => f.write_str("storage access failed"),
            ExecError::Network(msg) => write!(f, "network transfer failed: {msg}"),
            ExecError::ResourceExhausted(r) => write!(f, "resource exhausted: {r}"),
            ExecError::Cancelled => f.write_str("query cancelled"),
            ExecError::Internal(msg) => write!(f, "executor invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_storage::PageId;

    #[test]
    fn retryable_classification() {
        let fault =
            ExecError::Storage(StorageError::InjectedFault { page: PageId(1), write: false });
        assert!(fault.is_retryable());
        assert!(ExecError::ResourceExhausted(Resource::Memory { requested: 10, limit: 5 })
            .is_retryable());
        assert!(!ExecError::ResourceExhausted(Resource::Rows { limit: 5 }).is_retryable());
        assert!(!ExecError::ResourceExhausted(Resource::Io { limit: 5 }).is_retryable());
        assert!(!ExecError::ResourceExhausted(Resource::WallClock { limit_ms: 5 }).is_retryable());
        assert!(!ExecError::Cancelled.is_retryable());
        assert!(!ExecError::UnboundHostVar(HostVar(0)).is_retryable());
        assert!(!ExecError::Internal("x".into()).is_retryable());
    }

    #[test]
    fn source_chains_to_storage() {
        use std::error::Error;
        let e = ExecError::Storage(StorageError::ZeroCapacityPool);
        let src = e.source().expect("storage source");
        assert!(src.to_string().contains("at least one frame"));
        assert!(ExecError::Cancelled.source().is_none());
    }

    #[test]
    fn display_covers_variants() {
        assert!(ExecError::Cancelled.to_string().contains("cancelled"));
        assert!(ExecError::ResourceExhausted(Resource::Io { limit: 9 })
            .to_string()
            .contains("limit 9"));
        assert!(ExecError::ResourceExhausted(Resource::WallClock { limit_ms: 7 })
            .to_string()
            .contains("7 ms"));
        assert!(ExecError::Internal("boom".into()).to_string().contains("boom"));
    }
}
