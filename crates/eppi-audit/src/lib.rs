//! # eppi-audit — verifiable publication against malicious providers
//!
//! e-PPI's Phase 2 trusts every provider to run the randomized
//! publication rule (Eq. 2) honestly. A malicious provider can publish
//! a β-violating column — silently dropping the decoys that hide its
//! owners — and nothing in the semi-honest protocol would notice. This
//! crate closes that gap with a ZKBoo-style MPC-in-the-head proof
//! system (DESIGN.md §16):
//!
//! * every provider *commits* to the column it publishes and to the
//!   per-owner publication decisions the official β's dictate
//!   ([`ColumnCommitment`], built on the shared
//!   [`eppi_core::commit::Hasher256`]);
//! * it then proves, in zero knowledge, that the published column is
//!   the flip circuit's output on its private raw column — `published =
//!   raw ∨ decision`, where `decision = coin < T(β)` is a *public*
//!   input both sides derive from public state ([`decision_words`]),
//!   so the one gate the secret enters is all that is proven — under a
//!   2-out-of-3 XOR decomposition evaluated by three virtual parties,
//!   with Fiat–Shamir-chosen view openings ([`prove_column`] /
//!   [`verify_column`]);
//! * an auditor checks the certificate against *public data only* —
//!   the epoch seed, the official β's, and the column entering the
//!   epoch — and rejects with a typed [`AuditError`] naming the
//!   provider and the failing check.
//!
//! The prover's circuit core is `eppi-mpc`'s own machinery: the flip
//! circuit is built with the [`CircuitBuilder`], wire shares are
//! word-level (64 owner-cells per word, [`PackedBits`] packing), and
//! tape words are indexed by the GMW [`Schedule`]'s dense AND-slot
//! order — MPC-in-the-head is literally our MPC, run in the prover's
//! head.
//!
//! What the proof does and does not hide: the *published* column and
//! the β's are public (they are the index); the *raw* column stays
//! hidden — each opened pair of views reveals two of the three XOR
//! shares, and the third is never opened. Soundness is `(2/3)^R`
//! (R = [`DEFAULT_REPETITIONS`] = 40 by default). The construction
//! assumes the auditor knows the lineage seed, so it can re-derive the
//! deterministic coins; the privacy-relevant cheat it catches is
//! *under-decoying* — publishing 0 where the committed decision says 1.
//!
//! [`CircuitBuilder`]: eppi_mpc::builder::CircuitBuilder
//! [`PackedBits`]: eppi_mpc::packed::PackedBits
//! [`Schedule`]: eppi_mpc::gmw_core::Schedule

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod commitment;
pub mod error;
pub mod flip;
pub mod zkboo;

pub use commitment::{decisions_digest, published_digest, ColumnCommitment};
pub use error::AuditError;
pub use flip::{decision_words, flip_circuit, mask_tail, tail_mask};
pub use zkboo::{
    certify_column_with_registry, prove_column, prove_column_forged, verify_column,
    verify_column_with_registry, AuditParams, ColumnProof, ColumnStatement, RepetitionProof,
    DEFAULT_REPETITIONS,
};
