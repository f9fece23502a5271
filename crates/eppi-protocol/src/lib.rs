//! # eppi-protocol — the trusted-party-free ε-PPI construction protocol
//!
//! Distributed realization (§IV of the paper) of the ε-PPI construction:
//! the first PPI construction protocol that assumes neither a trusted
//! third party nor mutual trust between providers.
//!
//! * [`secsum`] — the SecSumShare parallel secure-sum protocol (Fig. 3):
//!   `m` providers → `c` coordinator share vectors, constant rounds,
//!   `(2c−3)`-secrecy of inputs and `c`-secrecy of outputs. One
//!   sans-io provider node, two runtimes (round simulator, threads).
//! * [`countbelow`] — the generic-MPC stage among the `c` coordinators
//!   (CountBelow of Alg. 2 + the mix-decision pass) and the [`Backend`]
//!   choice; `Backend::execute` is the one place that knows how each
//!   backend runs a circuit batch.
//! * [`threaded_gmw`] — the multi-threaded GMW driver behind the
//!   wall-clock experiments. It and the lockstep hub
//!   (`eppi_mpc::gmw::execute`, which also prices simulated network
//!   time under the lineage's link model) are the two drivers: both run
//!   a column batch as one circuit on the one party state machine of
//!   `eppi_mpc::gmw_core`, seed their dealer and parties by its one
//!   rule, and report one cost record, `eppi_mpc::gmw::GmwStats`.
//! * [`construct`] — configuration, cost report and the from-scratch
//!   entry point of the two-phase construction (Alg. 1).
//! * [`epoch`] — the versioned epoch lifecycle and the construction
//!   routine itself: Alg. 1's phases are written once, over a set of
//!   touched columns on top of a previous epoch. [`construct_delta`]
//!   runs them over a change batch's columns, with MPC work
//!   independent of the untouched owner count; [`construct_epoch`] and
//!   [`construct_distributed`] run them over all columns on top of the
//!   empty state — the genesis delta (DESIGN.md §10).
//! * [`pure_mpc`] — the paper's *pure MPC* baseline, for the Fig. 6
//!   comparisons.
//! * [`audit`] — the verifiable-publication layer: per-provider
//!   [`ColumnCommitment`]s ([`construct_epoch_audited`] /
//!   [`construct_delta_audited`]), and the auditor gate that rejects a
//!   cheating provider's epoch before it is installed (DESIGN.md §16).
//!
//! [`ColumnCommitment`]: eppi_audit::ColumnCommitment
//!
//! ## Observability
//!
//! Every operation has a bare form — telemetry to the process-global
//! registry, nothing traced — and one `<op>_with_registry` form whose
//! last parameter is an `impl Into<eppi_trace::Obs>`: a `&Registry` for
//! isolated metrics, or a full `Obs { registry, tracer, parent }`. The
//! context a caller gives [`construct_epoch_with_registry`] (or any
//! other entry point) is handed down unchanged to the MPC executors and
//! the audit layer, so `gmw.*` / `audit.*` metrics and the
//! `mpc.execute → mpc.party → net.exchange` and `audit.prove` /
//! `audit.verify` spans all belong to that caller (DESIGN.md §8, §13).
//!
//! ## Example
//!
//! ```
//! use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
//! use eppi_protocol::construct::{construct_distributed, ProtocolConfig};
//!
//! // Twenty providers; the owner visited five and asks for ε = 0.6.
//! let mut m = MembershipMatrix::new(20, 1);
//! for p in 0..5 {
//!     m.set(ProviderId(p), OwnerId(0), true);
//! }
//! let eps = vec![Epsilon::new(0.6)?];
//! let out = construct_distributed(&m, &eps, &ProtocolConfig::default())?;
//! // All five true providers are in the answer (100% recall) …
//! assert!(out.index.query(OwnerId(0)).len() >= 5);
//! // … and the construction never pooled the private vectors anywhere.
//! # Ok::<(), eppi_core::error::EppiError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod construct;
pub mod countbelow;
pub mod epoch;
pub mod pure_mpc;
pub mod secsum;
pub mod threaded_gmw;

pub use audit::{
    certify_epoch, certify_epoch_with_registry, construct_delta_audited,
    construct_delta_audited_with_registry, construct_epoch_audited,
    construct_epoch_audited_with_registry, verify_commitments, verify_epoch,
    verify_epoch_with_registry, AuditConfig, AuditedConstructError, AuditedDelta, AuditedEpoch,
    EpochCertificate,
};
pub use construct::{
    construct_distributed, construct_distributed_with_registry, ConstructionReport,
    DistributedConstruction, PhaseWall, ProtocolConfig,
};
pub use countbelow::{
    run_count_below, run_count_below_with_registry, run_mix_decision, Backend, StageReport,
};
pub use epoch::{
    construct_delta, construct_delta_with_registry, construct_epoch, construct_epoch_with_registry,
    DeltaConstruction, EpochState, IndexEpoch,
};
pub use pure_mpc::{construct_pure_mpc, PureMpcConfig, PureMpcConstruction};
pub use secsum::{secsumshare_sim, secsumshare_threaded_stats, SecSumOutput};
pub use threaded_gmw::execute_threaded;
