//! Error types for the ε-PPI core crate.

use std::error::Error;
use std::fmt;

/// Errors raised by ε-PPI model construction and validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EppiError {
    /// A privacy degree outside `\[0, 1\]` (or non-finite) was supplied.
    InvalidEpsilon(f64),
    /// A policy parameter was out of its valid domain (e.g. Chernoff
    /// success ratio `γ ≤ 0.5`).
    InvalidPolicyParameter {
        /// Parameter name, e.g. `"gamma"`.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable domain description, e.g. `"(0.5, 1)"`.
        expected: &'static str,
    },
    /// Dimensions of two model objects disagree (e.g. ε assignment vs
    /// matrix owner count).
    DimensionMismatch {
        /// What was being matched.
        what: &'static str,
        /// The expected size.
        expected: usize,
        /// The size actually supplied.
        actual: usize,
    },
    /// The network is too small for the requested operation (e.g. fewer
    /// providers than the collusion-tolerance parameter `c`).
    NetworkTooSmall {
        /// Number of providers available.
        providers: usize,
        /// Minimum required.
        required: usize,
    },
    /// Recovered protocol state failed a semantic validity check when
    /// resuming an epoch lineage (dimensions are reported separately
    /// via [`EppiError::DimensionMismatch`]).
    InvalidResumeState {
        /// Which invariant the state violates.
        what: &'static str,
    },
    /// An entry offered to an
    /// [`IndexDelta`](crate::delta::IndexDelta) breaks its invariants.
    InvalidDelta {
        /// Which invariant the entry violates.
        what: &'static str,
    },
}

impl fmt::Display for EppiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EppiError::InvalidEpsilon(v) => {
                write!(
                    f,
                    "privacy degree must be a finite value in [0, 1], got {v}"
                )
            }
            EppiError::InvalidPolicyParameter {
                name,
                value,
                expected,
            } => {
                write!(
                    f,
                    "policy parameter `{name}` must be in {expected}, got {value}"
                )
            }
            EppiError::DimensionMismatch {
                what,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "dimension mismatch for {what}: expected {expected}, got {actual}"
                )
            }
            EppiError::NetworkTooSmall {
                providers,
                required,
            } => {
                write!(f, "network has {providers} providers but the operation requires at least {required}")
            }
            EppiError::InvalidResumeState { what } => {
                write!(f, "recovered epoch state is invalid: {what}")
            }
            EppiError::InvalidDelta { what } => {
                write!(f, "delta entry is invalid: {what}")
            }
        }
    }
}

impl Error for EppiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = EppiError::InvalidEpsilon(1.5);
        assert!(e.to_string().contains("1.5"));
        let e = EppiError::InvalidPolicyParameter {
            name: "gamma",
            value: 0.2,
            expected: "(0.5, 1)",
        };
        assert!(e.to_string().contains("gamma"));
        let e = EppiError::DimensionMismatch {
            what: "epsilons",
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = EppiError::NetworkTooSmall {
            providers: 2,
            required: 3,
        };
        assert!(e.to_string().contains("at least 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EppiError>();
    }
}
