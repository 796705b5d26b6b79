//! Service-level errors: everything that can happen to a session between
//! submission and completion.

use std::fmt;

use dqep_executor::ExecError;

/// Why a session failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The statement text failed to parse or validate.
    Sql(String),
    /// The caller's bindings are unusable (unknown host-variable name).
    Bind(String),
    /// Compile-time optimization failed (no plan found, invalid query).
    Optimizer(String),
    /// Execution failed; carries the executor's classification so callers
    /// can distinguish storage faults from budget violations.
    Exec(ExecError),
    /// The session waited longer than the queue timeout for a worker or
    /// for its memory grant.
    AdmissionTimeout {
        /// How long the session waited before giving up.
        waited_ms: u64,
    },
    /// The session's memory grant exceeds the pool capacity: it could
    /// never be admitted, no matter how long it waited.
    GrantTooLarge {
        /// Bytes requested.
        requested: u64,
        /// Pool capacity in bytes.
        capacity: u64,
    },
    /// The service is shutting down; the session was not executed.
    Shutdown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Sql(e) => write!(f, "SQL error: {e}"),
            ServiceError::Bind(e) => write!(f, "binding error: {e}"),
            ServiceError::Optimizer(e) => write!(f, "optimizer error: {e}"),
            ServiceError::Exec(e) => write!(f, "execution error: {e}"),
            ServiceError::AdmissionTimeout { waited_ms } => {
                write!(f, "admission timed out after {waited_ms} ms")
            }
            ServiceError::GrantTooLarge { requested, capacity } => {
                write!(f, "memory grant of {requested} bytes exceeds pool capacity {capacity}")
            }
            ServiceError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> ServiceError {
        ServiceError::Exec(e)
    }
}
