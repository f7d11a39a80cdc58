//! Scheme construction errors.

use std::fmt;

use doubling_metric::Eps;

/// Errors raised when constructing a routing scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// The scheme's delivery guarantee requires a smaller `ε`.
    EpsTooLarge {
        /// The ε that was passed.
        got: Eps,
        /// Human-readable bound, e.g. `"1/2"`.
        bound: &'static str,
    },
    /// The graph has unreachable pairs: its diameter is infinite, so no
    /// net scale covers it.
    Disconnected,
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::EpsTooLarge { got, bound } => {
                write!(f, "epsilon {got} too large: this scheme requires epsilon <= {bound}")
            }
            SchemeError::Disconnected => write!(f, "graph is disconnected: no scale covers it"),
        }
    }
}

impl std::error::Error for SchemeError {}
