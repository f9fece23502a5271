//! # eppi — personalized privacy-preserving index for information networks
//!
//! A from-scratch Rust reproduction of *"ε-PPI: Locator Service in
//! Information Networks with Personalized Privacy Preservation"*
//! (Tang, Liu, Iyengar, Lee, Zhang — ICDCS 2014).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the ε-PPI computation model: β policies, identity
//!   mixing, randomized publication, privacy metrics.
//! * [`mpc`] — secure-computation substrate: additive secret sharing,
//!   Boolean circuits, and one bit-packed GMW engine (the FairplayMP
//!   stand-in) — the only MPC protocol in the workspace.
//! * [`net`] — simulated and threaded provider-network runtimes.
//! * [`protocol`] — the trusted-party-free two-phase construction
//!   protocol (SecSumShare + CountBelow) and the pure-MPC baseline.
//! * [`index`] — the locator service: `QueryPPI` + `AuthSearch`.
//! * [`baselines`] — grouping PPI and SS-PPI comparators.
//! * [`attacks`] — the primary and common-identity attacks, privacy
//!   evaluation, and the cheating-provider models exercised against the
//!   publication audit.
//! * [`audit`] — verifiable publication: hash commitments over served
//!   columns and a public check that every cell the official β
//!   decisions require is published.
//! * [`workload`] — synthetic information-network workloads.
//! * [`serve`] — the serving front-end: sharded index layout, queries
//!   read on the caller's thread, lock-free snapshot refresh for
//!   re-publication, and the two-replica private (XOR-PIR) serve
//!   mode.
//! * [`pir`] — the information-theoretic 2-server PIR primitives the
//!   private serve mode is built on: selection vectors, query-pair
//!   generation, and branchless oblivious XOR-scan kernels.
//! * [`durability`] — the crash-safe epoch lineage store: write-ahead
//!   delta log, atomic checkpoints, warm recovery and re-anchoring.
//! * [`telemetry`] — the workspace-wide metrics layer: lock-free
//!   counters/gauges, mergeable log-linear histograms with per-thread
//!   recorders, span timers, and a labeled registry with text/JSON
//!   exporters.
//! * [`trace`] — causal span tracing: request-scoped trace ids over
//!   per-thread ring buffers, cross-thread propagation through serve
//!   jobs / transports / recovery, and text + Chrome `trace_event`
//!   exporters with a trace-obliviousness guarantee in private mode.
//!
//! See `examples/quickstart.rs` for a guided tour, and the `eppi-bench`
//! crate for the binaries that regenerate every table and figure of the
//! paper.
//!
//! ```
//! use eppi::core::construct::{construct, ConstructionConfig};
//! use eppi::core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
//! use rand::SeedableRng;
//!
//! let mut m = MembershipMatrix::new(100, 1);
//! m.set(ProviderId(7), OwnerId(0), true);
//! let eps = vec![Epsilon::new(0.9)?];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let built = construct(&m, &eps, ConstructionConfig::default(), &mut rng)?;
//! // The one true provider hides among at least nine false positives.
//! assert!(built.index.query(OwnerId(0)).len() >= 10);
//! # Ok::<(), eppi::core::error::EppiError>(())
//! ```

#![warn(missing_docs)]

pub use eppi_attacks as attacks;
pub use eppi_audit as audit;
pub use eppi_baselines as baselines;
pub use eppi_core as core;
pub use eppi_durability as durability;
pub use eppi_index as index;
pub use eppi_mpc as mpc;
pub use eppi_net as net;
pub use eppi_pir as pir;
pub use eppi_protocol as protocol;
pub use eppi_serve as serve;
pub use eppi_telemetry as telemetry;
pub use eppi_trace as trace;
pub use eppi_workload as workload;
