//! Error type shared by the DLPT crates.

use std::fmt;

/// Errors surfaced by the DLPT overlay operations.
///
/// The protocol itself is self-healing and most runtime conditions
/// (key absent, request dropped by an exhausted peer) are expressed in
/// result types rather than errors; `DlptError` covers misuse of the
/// API and impossible states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DlptError {
    /// An identifier contained a byte outside the configured alphabet.
    InvalidDigit {
        /// The offending byte.
        byte: u8,
        /// Position of the byte within the identifier.
        position: usize,
    },
    /// The operation requires at least one peer in the ring.
    EmptyRing,
    /// The operation requires a non-empty tree.
    EmptyTree,
    /// A peer with this identifier is already part of the ring.
    DuplicatePeer(String),
    /// No peer with this identifier is part of the ring.
    UnknownPeer(String),
    /// No logical node with this label exists.
    UnknownNode(String),
    /// A message was addressed to an entity that does not exist.
    Undeliverable(String),
    /// The message pump exceeded its hop budget — indicates a routing
    /// loop, which the protocol is supposed to make impossible.
    HopBudgetExhausted {
        /// Budget that was exceeded.
        budget: usize,
    },
    /// A batch-pump route worker died; the batch was abandoned cleanly
    /// (nothing committed, its registered requests released) instead
    /// of aborting the process.
    WorkerFailed {
        /// Requests of the batch that had already resolved when the
        /// pump collapsed — always 0: routing precedes the commit.
        completed: usize,
    },
}

impl fmt::Display for DlptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlptError::InvalidDigit { byte, position } => write!(
                f,
                "byte 0x{byte:02x} at position {position} is outside the alphabet"
            ),
            DlptError::EmptyRing => write!(f, "operation requires at least one peer"),
            DlptError::EmptyTree => write!(f, "operation requires a non-empty tree"),
            DlptError::DuplicatePeer(id) => write!(f, "peer {id:?} already exists"),
            DlptError::UnknownPeer(id) => write!(f, "peer {id:?} does not exist"),
            DlptError::UnknownNode(id) => write!(f, "node {id:?} does not exist"),
            DlptError::Undeliverable(to) => write!(f, "message to {to:?} is undeliverable"),
            DlptError::HopBudgetExhausted { budget } => {
                write!(f, "hop budget of {budget} exhausted (routing loop?)")
            }
            DlptError::WorkerFailed { completed } => write!(
                f,
                "batch-pump route worker died; batch abandoned \
                 ({completed} requests had already resolved)"
            ),
        }
    }
}

impl std::error::Error for DlptError {}

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, DlptError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = DlptError::InvalidDigit {
            byte: 0x7f,
            position: 3,
        };
        assert!(e.to_string().contains("0x7f"));
        assert!(e.to_string().contains("position 3"));
        let e = DlptError::HopBudgetExhausted { budget: 64 };
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DlptError::EmptyRing);
    }
}
