//! # eppi-audit — verifiable publication against malicious providers
//!
//! e-PPI's Phase 2 trusts every provider to run the randomized
//! publication rule (Eq. 2) honestly: a cell is published as `raw ∨
//! decision`, where `decision = coin < T(β)`. A malicious provider can
//! publish a column that silently drops the decoys hiding its owners,
//! and nothing in the semi-honest protocol would notice. This crate
//! closes that gap with a public check (DESIGN.md §16):
//!
//! * every provider *commits* to the column it publishes and to the
//!   per-owner publication decisions the official β's dictate
//!   ([`ColumnCommitment`], built on the shared
//!   [`eppi_core::commit::Hasher256`]);
//! * an auditor checks the commitment against *public data only* — the
//!   epoch seed, the official β's and the column entering the epoch —
//!   and checks that every decision-1 cell is published (`decisions ⊆
//!   published`, [`decision_words`]), rejecting with a typed
//!   [`AuditError`] that names the provider and the failing check
//!   ([`ColumnCommitment::verify`], reached by [`verify_column`] and by
//!   recovery alike).
//!
//! The decision bits are public, so `∃ raw: published = raw ∨ decision`
//! holds exactly when `decisions ⊆ published`: that predicate is all
//! any proof about the raw column could establish, and the auditor
//! decides it with error 0 and no proof bytes ([`ColumnProof`] is
//! empty). What no audit here catches: a provider that hides a true
//! member (raw 1, decision 0, published 0) or publishes extra decoys —
//! nothing binds the raw column.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certificate;
pub mod commitment;
pub mod error;
pub mod flip;

pub use certificate::{
    certify_column, prove_column, verify_column, verify_column_with_registry, AuditParams,
    ColumnProof, ColumnStatement, DEFAULT_REPETITIONS,
};
pub use commitment::{decisions_digest, published_digest, ColumnCommitment};
pub use error::AuditError;
pub use flip::{decision_words, mask_tail, tail_mask};
