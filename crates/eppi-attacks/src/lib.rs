//! # eppi-attacks — the PPI threat model
//!
//! Implements the attacks of §II-B of the paper and the evaluation
//! machinery behind the Table II privacy-degree comparison:
//!
//! * [`primary`] — the primary attack: accuse a `(owner, provider)` pair
//!   drawn from the public index; confidence is bounded by `1 − fp_j`.
//! * [`common_identity`] — the paper's new common-identity attack:
//!   target identities whose (apparent) frequency is near 100%, where
//!   false positives cannot help — defeated only by ε-PPI's identity
//!   mixing.
//! * [`mod@evaluate`] — runs both attacks against any published index and
//!   classifies the achieved privacy degree (ε-PRIVATE / NoGuarantee /
//!   NoProtect).
//! * [`cheating`] — the *provider-side* threat model: malicious
//!   providers that violate the publication rule (wrong β, stale
//!   columns, selective deflips), pitted against the `eppi-audit`
//!   certificate check, which catches each with probability 1
//!   (DESIGN.md §16).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cheating;
pub mod collusion;
pub mod common_identity;
pub mod evaluate;
pub mod primary;
pub mod refresh;

pub use cheating::{
    run_cheating_trial, serve_column, CheatStrategy, CheatingProvider, ProviderAuditOutcome,
};
pub use collusion::{
    attack_with_collusion, collusion_view, mean_effective_confidence, Coalition, CollusionView,
};
pub use common_identity::{
    attack as common_identity_attack, CommonAttackOutcome, FrequencyKnowledge,
};
pub use evaluate::{evaluate, AttackEvaluation};
pub use primary::{attack_owner, empirical_confidence, expected_confidence, PrimaryClaim};
pub use refresh::IndexArchive;
