//! One repeatable ε-PPI lifecycle benchmark with per-layer attribution.
//!
//! The harness drives the repository's public API through the full
//! lifecycle — construct → certify/verify → durable install → serve
//! (plaintext and private) → delta refresh → checkpoint → crash →
//! recover — on inputs generated from `--seed`, checks every answer,
//! and reports every metric as the median over identical rounds. A
//! second pass (`--trace 1`) times direct calls into each crate for
//! the per-layer table and records harness-owned spans. See
//! `bench/README.md`.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod round;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
