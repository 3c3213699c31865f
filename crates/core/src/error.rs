//! Unified runtime error type.
//!
//! [`FedError`] is the single error currency of the federated runtime:
//! local kernel failures, privacy violations, transport/codec faults
//! from `exdra-net`, and the supervision/retry taxonomy of `exdra-fault`
//! all convert into it via `From`, and it converts *out* into
//! `exdra_fault::ErrorClass` so the retry layer can classify any
//! runtime error without string matching.

use exdra_matrix::MatrixError;
use std::fmt;

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, FedError>;

/// Former name of [`FedError`]; kept so downstream code migrates at its
/// own pace.
pub type RuntimeError = FedError;

/// Errors raised by the federated runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum FedError {
    /// A local kernel failed (dimension mismatch, numerical issue, ...).
    Matrix(MatrixError),
    /// A privacy constraint forbids the requested transfer or consolidation.
    ///
    /// This is the paper's "privacy exception ... if this consolidation
    /// would reveal private raw data".
    Privacy(String),
    /// Network/transport failure talking to a federated worker.
    Network(String),
    /// An RPC exceeded its deadline (transient: the worker may only be
    /// slow or partitioned; the retry layer distinguishes it from hard
    /// connection failures).
    Timeout {
        /// Index of the unresponsive worker.
        worker: usize,
        /// What timed out.
        msg: String,
    },
    /// A worker was declared dead: its channel collapsed and the retry
    /// budget was exhausted, or the failure detector crossed the
    /// consecutive-miss threshold. Recovery requires supervisor
    /// intervention (reconnect + checkpoint restore or state replay),
    /// not another retry.
    WorkerDead {
        /// Index of the dead worker.
        worker: usize,
        /// Last observed failure.
        msg: String,
    },
    /// Malformed or unexpected protocol message.
    Protocol(String),
    /// A federated worker reported an error executing a request.
    Worker {
        /// Index of the failing worker in the federation.
        worker: usize,
        /// The worker's error description.
        msg: String,
    },
    /// A symbol-table ID was not found.
    UnknownSymbol(u64),
    /// The operation is not supported for the given federation scheme
    /// (e.g. a row-partitioned-only op on column-partitioned data).
    Unsupported(String),
    /// Invalid user input (bad federation ranges, empty worker list, ...).
    Invalid(String),
    /// A configuration knob was set to a degenerate value (e.g.
    /// `threads(0)`); surfaced at build time instead of silently
    /// clamping.
    Config(String),
    /// A coordinator service refused to admit a new session because its
    /// admission queue is full. Callers can retry later or attach to a
    /// less loaded coordinator.
    SessionRejected {
        /// Sessions currently admitted.
        active: usize,
        /// Admission limit of the service.
        max: usize,
    },
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::Matrix(e) => write!(f, "{e}"),
            FedError::Privacy(msg) => write!(f, "privacy violation: {msg}"),
            FedError::Network(msg) => write!(f, "network error: {msg}"),
            FedError::Timeout { worker, msg } => {
                write!(f, "worker {worker} timed out: {msg}")
            }
            FedError::WorkerDead { worker, msg } => {
                write!(f, "worker {worker} dead: {msg}")
            }
            FedError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            FedError::Worker { worker, msg } => write!(f, "worker {worker}: {msg}"),
            FedError::UnknownSymbol(id) => write!(f, "unknown symbol id {id}"),
            FedError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            FedError::Invalid(msg) => write!(f, "invalid argument: {msg}"),
            FedError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            FedError::SessionRejected { active, max } => write!(
                f,
                "session rejected: coordinator at capacity ({active}/{max} sessions)"
            ),
        }
    }
}

impl FedError {
    /// Whether the fault layer classifies this error as transient
    /// (worth retrying) or fatal. Equivalent to
    /// `ErrorClass::from(self) == ErrorClass::Transient`.
    pub fn is_transient(&self) -> bool {
        matches!(self, FedError::Network(_) | FedError::Timeout { .. })
    }
}

impl std::error::Error for FedError {}

impl From<MatrixError> for FedError {
    fn from(e: MatrixError) -> Self {
        FedError::Matrix(e)
    }
}

impl From<std::io::Error> for FedError {
    fn from(e: std::io::Error) -> Self {
        FedError::Network(e.to_string())
    }
}

impl From<exdra_net::codec::DecodeError> for FedError {
    fn from(e: exdra_net::codec::DecodeError) -> Self {
        FedError::Protocol(e.to_string())
    }
}

impl From<&FedError> for exdra_fault::ErrorClass {
    fn from(e: &FedError) -> Self {
        if e.is_transient() {
            exdra_fault::ErrorClass::Transient
        } else {
            exdra_fault::ErrorClass::Fatal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_fault::ErrorClass;

    #[test]
    fn fed_error_classifies_into_fault_taxonomy() {
        let transient = FedError::Network("connection reset".into());
        assert_eq!(ErrorClass::from(&transient), ErrorClass::Transient);
        let timeout = FedError::Timeout {
            worker: 1,
            msg: "exec".into(),
        };
        assert_eq!(ErrorClass::from(&timeout), ErrorClass::Transient);
        let fatal = FedError::Privacy("private consolidation".into());
        assert_eq!(ErrorClass::from(&fatal), ErrorClass::Fatal);
        let dead = FedError::WorkerDead {
            worker: 0,
            msg: "gone".into(),
        };
        assert_eq!(ErrorClass::from(&dead), ErrorClass::Fatal);
    }

    #[test]
    fn transport_and_codec_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "rst");
        let e: FedError = io.into();
        assert!(matches!(e, FedError::Network(_)));
        assert!(e.is_transient());

        let de = exdra_net::codec::DecodeError("truncated frame".into());
        let e: FedError = de.into();
        assert!(matches!(e, FedError::Protocol(_)));
        assert!(!e.is_transient());
    }

    #[test]
    fn runtime_error_alias_still_works() {
        let e: RuntimeError = FedError::Invalid("x".into());
        assert_eq!(e, FedError::Invalid("x".into()));
    }
}
