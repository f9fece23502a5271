//! Typed audit rejections.

use std::error::Error;
use std::fmt;

/// Why an audit certificate was rejected. Every variant names the
/// provider whose certificate failed, so the operator knows *who*
/// cheated (or whose state was tampered with), not just that something
/// did.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditError {
    /// The certificate is structurally unusable (owner count, column
    /// width or provider order disagree with the epoch).
    Malformed {
        /// Provider whose certificate is malformed.
        provider: u32,
        /// What shape constraint was violated.
        reason: &'static str,
    },
    /// The committed published-column digest does not match the column
    /// actually being installed.
    PublishedDigest {
        /// Provider whose column digest mismatched.
        provider: u32,
    },
    /// The committed decision digest does not match the decisions the
    /// official per-owner β's dictate — the wrong-β cheat.
    DecisionsDigest {
        /// Provider whose decision digest mismatched.
        provider: u32,
    },
    /// The published column drops a cell whose official decision is 1
    /// — the under-decoying cheat: `decisions ⊆ published` fails.
    UnderDecoyed {
        /// Provider whose column is under-decoyed.
        provider: u32,
        /// The first owner whose decoy is missing.
        owner: u32,
    },
    /// An epoch-level certificate set does not cover every provider
    /// exactly once, in provider order.
    CertificateSet {
        /// Providers the epoch has.
        expected: usize,
        /// Certificates presented.
        actual: usize,
    },
}

impl AuditError {
    /// Short stable label for the rejection class — the
    /// `audit.rejects{kind=…}` telemetry key.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditError::Malformed { .. } => "malformed",
            AuditError::PublishedDigest { .. } => "published_digest",
            AuditError::DecisionsDigest { .. } => "decisions_digest",
            AuditError::UnderDecoyed { .. } => "under_decoyed",
            AuditError::CertificateSet { .. } => "certificate_set",
        }
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Malformed { provider, reason } => {
                write!(f, "provider {provider}: malformed certificate ({reason})")
            }
            AuditError::PublishedDigest { provider } => write!(
                f,
                "provider {provider}: committed published-column digest does not match the \
                 installed column"
            ),
            AuditError::DecisionsDigest { provider } => write!(
                f,
                "provider {provider}: committed decisions differ from the official per-owner β \
                 decisions"
            ),
            AuditError::UnderDecoyed { provider, owner } => write!(
                f,
                "provider {provider}: owner {owner}'s official decision is 1 but its published \
                 cell is 0"
            ),
            AuditError::CertificateSet { expected, actual } => write!(
                f,
                "certificate set covers {actual} providers, epoch has {expected}"
            ),
        }
    }
}

impl Error for AuditError {}
