//! # eppi-core — the ε-PPI computation model
//!
//! Reproduction of the core contribution of *"ε-PPI: Locator Service in
//! Information Networks with Personalized Privacy Preservation"* (Tang,
//! Liu, Iyengar, Lee, Zhang — ICDCS 2014): a privacy-preserving index
//! whose per-owner privacy degree `ε_j ∈ \[0, 1\]` quantitatively bounds
//! any attacker's confidence at `1 − ε_j`.
//!
//! The crate provides:
//!
//! * [`model`] — owners, providers, membership matrices, the published
//!   index.
//! * [`policy`] — the three β-calculation policies (basic, incremented
//!   expectation, Chernoff-bound) of §III-B.
//! * [`mixing`] — identity mixing against the common-identity attack
//!   (Eq. 6/7).
//! * [`publish`] — randomized publication (Eq. 2), including the
//!   deterministic per-cell coins of the epoch lifecycle.
//! * [`delta`] — owner-level change batches ([`IndexDelta`]) bridging
//!   consecutive index epochs (DESIGN.md §10).
//! * [`privacy`] — false-positive-rate metrics, success ratio, privacy
//!   degrees.
//! * [`mod@construct`] — the centralized two-phase constructor used by the
//!   effectiveness experiments. (The trusted-party-free distributed
//!   realization lives in the `eppi-protocol` crate.)
//! * [`analysis`] — exact Binomial / Chernoff-bound predictions of the
//!   publication success probability (Theorem 3.1 as computable theory).
//! * [`commit`] — the shared domain-separated word-level hash
//!   commitment ([`Digest256`]/[`Hasher256`]) used by the audit layer
//!   (`eppi-audit`) and the durability trailer stamps (DESIGN.md §16).
//! * [`rows`] — packed provider-row extraction and answer types shared
//!   by the serving layout (`eppi-serve`) and the oblivious
//!   private-query subsystem (`eppi-pir`).
//! * [`rowstore`] — pluggable physical storage for packed rows: the
//!   flat dense layout the PIR scans require, and an EWAH-style
//!   compressed bitmap store for the plaintext serve path at
//!   million-owner scale (DESIGN.md §14).
//!
//! ## Quick example
//!
//! ```
//! use eppi_core::construct::{construct, ConstructionConfig};
//! use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
//! use eppi_core::privacy::owner_privacy;
//! use rand::SeedableRng;
//!
//! // A network of 1 000 providers; the owner visited 20 of them and asks
//! // for ε = 0.8 (attacker confidence bounded by 0.2).
//! let mut m = MembershipMatrix::new(1000, 1);
//! for p in 0..20 {
//!     m.set(ProviderId(p), OwnerId(0), true);
//! }
//! let eps = vec![Epsilon::new(0.8)?];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let c = construct(&m, &eps, ConstructionConfig::default(), &mut rng)?;
//!
//! let measured = owner_privacy(&m, &c.index, OwnerId(0));
//! assert!(measured.satisfies(eps[0]));
//! # Ok::<(), eppi_core::error::EppiError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod commit;
pub mod construct;
pub mod delta;
pub mod error;
pub mod mixing;
pub mod model;
pub mod policy;
pub mod privacy;
pub mod publish;
pub mod rows;
pub mod rowstore;

pub use commit::{digest_words, Digest256, Hasher256};
pub use construct::{construct, Construction, ConstructionConfig};
pub use delta::{ColumnChange, DeltaEntry, IndexDelta};
pub use error::EppiError;
pub use model::{Epsilon, LocalVector, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
pub use policy::{BasicPolicy, BetaPolicy, ChernoffPolicy, IncrementedPolicy, PolicyKind};
pub use privacy::{success_ratio, OwnerPrivacy, PrivacyDegree};
pub use rows::{providers_in_row, providers_in_word, row_words, RowAnswer};
pub use rowstore::{
    CompressedRows, CompressedRowsBuilder, DenseRows, RowBackend, RowBlock, RowStore,
};
