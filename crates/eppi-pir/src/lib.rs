//! # eppi-pir — private queries for the locator service
//!
//! The ε-PPI construction protects *providers'* membership bits: the
//! published `M'` bounds what anyone learns about who holds an owner's
//! records. It does nothing for the *searcher* — the locator service
//! still sees exactly which owner every `QueryPPI` asks about. This
//! crate closes that hole with classic information-theoretic 2-server
//! XOR-PIR (Chor–Goldreich–Kushilevitz–Sudan) specialized to the
//! serving layer's owner-major row layout:
//!
//! * The database is the published index laid out as one packed `u64`
//!   provider bitmap per owner (the dense, uniform row space that
//!   column mixing already guarantees — every owner has a row of the
//!   same shape, so rows are directly indexable by owner id).
//! * A querying client picks a uniformly random [`SelectionVector`]
//!   `a` over the `n` rows and sends `a` to server A and
//!   `b = a ⊕ e_j` to server B ([`QueryPair::generate`]). Each vector
//!   alone is uniform over all `2^n` vectors, independent of `j`:
//!   a single server learns *nothing* about the queried owner
//!   (perfect privacy against one non-colluding server).
//! * Each server XOR-accumulates the rows its vector selects
//!   ([`scan::xor_scan`] / [`scan::xor_scan_indexed`]) — a branchless
//!   word-level pass that reads **every** row regardless of the
//!   query, so the scan shape (rows touched, words read, instruction
//!   stream) is identical for every query.
//! * The client XORs the two answer shares; everything but row `j`
//!   cancels, leaving the owner's exact published row
//!   ([`eppi_core::rows::RowAnswer`]), decoded to the same ascending
//!   provider list the plaintext path returns — bit-identical.
//!
//! The linear scan is the price of obliviousness; the batched kernels
//! ([`scan::xor_scan_batch`] / [`scan::xor_scan_indexed_batch`])
//! amortize it the way Peer2PIR does for its locator retrofits: one
//! pass over the rows answers a whole batch of selection vectors, so
//! per-query cost falls from `O(n·w)` toward `O(n·w / B + n)`.
//!
//! The serving integration — a two-replica `PrivateEngine` front-end
//! that scans every shard of one pinned snapshot per replica and keeps
//! queries consistent across epoch installs — lives in
//! `eppi-serve::private`; this crate is the dependency-light protocol
//! core (only `eppi-core` for ids and row decoding).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod query;
pub mod scan;

pub use query::{QueryPair, SelectionVector};
pub use scan::{xor_scan, xor_scan_batch, xor_scan_indexed, xor_scan_indexed_batch};
