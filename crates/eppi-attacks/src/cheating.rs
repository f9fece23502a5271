//! Cheating providers: the malicious-provider threat model the audit
//! layer must defeat (DESIGN.md §16).
//!
//! §II-B's attacks are all *reader-side*: an adversary mines the
//! published index. A malicious *provider* attacks from the other end —
//! it violates the publication rule itself, serving a column that
//! under-decoys its owners, and without verification nobody can tell.
//! This module implements the concrete strategies such a provider would
//! use and a trial harness that pits them against the `eppi-audit`
//! certificate check. Every one is caught with probability 1:
//!
//! * [`CheatStrategy::WrongBeta`] — run the flips under a private β′
//!   instead of the official per-owner β's (fewer decoys, honest-looking
//!   column). Caught by the decisions digest.
//! * [`CheatStrategy::StaleColumn`] — replay the previous epoch's flip
//!   stream against this epoch's coins. Caught as under-decoyed: some
//!   owner this epoch decides to publish is missing.
//! * [`CheatStrategy::SelectiveDeflip`] — publish the honest column
//!   with chosen decoys cleared. Caught as under-decoyed, naming the
//!   first cleared owner; no certificate can cover it, because the
//!   check reads public data only.
//!
//! What no strategy here models, because no audit catches it: hiding a
//! true member (raw 1, decision 0, published 0) or publishing extra
//! decoys — nothing binds the raw column (DESIGN.md §16).

use eppi_audit::{
    decision_words, mask_tail, prove_column, AuditError, AuditParams, ColumnCommitment,
    ColumnProof, ColumnStatement,
};
use eppi_core::model::{MembershipMatrix, ProviderId};

/// How a malicious provider deviates from the publication rule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheatStrategy {
    /// Flip under a flat claimed β instead of the official per-owner
    /// β's, and commit/prove against the claimed value.
    WrongBeta {
        /// The β the provider actually uses (typically ≪ official).
        claimed: f64,
    },
    /// Serve a column whose decoys come from a stale coin stream (a
    /// previous epoch's flips), proving honestly against it.
    StaleColumn {
        /// The epoch seed the served flips were drawn under.
        stale_seed: u64,
    },
    /// Serve the honest column with the first `drop` decoy cells
    /// (decision 1, raw 0) cleared, certifying honestly.
    SelectiveDeflip {
        /// How many decoys to clear.
        drop: usize,
    },
}

impl CheatStrategy {
    /// Stable label for telemetry and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            CheatStrategy::WrongBeta { .. } => "wrong_beta",
            CheatStrategy::StaleColumn { .. } => "stale_column",
            CheatStrategy::SelectiveDeflip { .. } => "selective_deflip",
        }
    }
}

/// A provider and the strategy it plays.
#[derive(Debug, Clone, PartialEq)]
pub struct CheatingProvider {
    /// Which provider cheats.
    pub provider: ProviderId,
    /// How it cheats.
    pub strategy: CheatStrategy,
}

/// What one provider served and how the audit went.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderAuditOutcome {
    /// The audited provider.
    pub provider: ProviderId,
    /// `None` for an honest provider, the strategy label otherwise.
    pub cheated: Option<&'static str>,
    /// The auditor's verdict for this provider's certificate.
    pub error: Option<AuditError>,
    /// The column the provider actually served (what would enter the
    /// epoch if the auditor let it through).
    pub served: Vec<u64>,
}

impl ProviderAuditOutcome {
    /// True when the auditor rejected the certificate.
    pub fn detected(&self) -> bool {
        self.error.is_some()
    }

    /// True for a cheater that got through, or an honest provider that
    /// was rejected — the two failure modes of the audit layer.
    pub fn miscarriage(&self) -> bool {
        self.cheated.is_some() != self.detected()
    }
}

/// Clears the first `drop` decoy lanes (published 1, raw 0) of
/// `published`. Returns how many were actually cleared.
fn clear_decoys(published: &mut [u64], raw: &[u64], owners: usize, drop: usize) -> usize {
    let mut cleared = 0;
    for j in 0..owners {
        if cleared == drop {
            break;
        }
        let (w, b) = (j / 64, 1u64 << (j % 64));
        if published[w] & b != 0 && raw[w] & b == 0 {
            published[w] ^= b;
            cleared += 1;
        }
    }
    cleared
}

/// The honest column: raw ∨ official decisions, tail-masked.
fn honest_column(epoch_seed: u64, provider: ProviderId, betas: &[f64], raw: &[u64]) -> Vec<u64> {
    let mut column: Vec<u64> = decision_words(epoch_seed, provider, betas)
        .iter()
        .zip(raw)
        .map(|(d, r)| d | r)
        .collect();
    mask_tail(&mut column, betas.len());
    column
}

/// Produces the column a provider serves plus the certificate it hands
/// the auditor, honest or cheating. The certificate is always
/// *internally* consistent — the commitment covers the served column —
/// because an inconsistent one is trivially rejected; the cheat is in
/// how the column relates to the official rule. `params` and
/// `prover_seed` reach [`prove_column`], which reads neither.
pub fn serve_column(
    epoch_seed: u64,
    provider: ProviderId,
    betas: &[f64],
    raw: &[u64],
    strategy: Option<&CheatStrategy>,
    params: &AuditParams,
    prover_seed: u64,
) -> (Vec<u64>, ColumnCommitment, ColumnProof) {
    let claimed_betas;
    let (column, committed) = match strategy {
        None => (honest_column(epoch_seed, provider, betas, raw), betas),
        Some(CheatStrategy::WrongBeta { claimed }) => {
            // Everything is honest *relative to the claimed β*: the
            // cheat only exists against the official β's.
            claimed_betas = vec![*claimed; betas.len()];
            let column = honest_column(epoch_seed, provider, &claimed_betas, raw);
            (column, &claimed_betas[..])
        }
        Some(CheatStrategy::StaleColumn { stale_seed }) => {
            (honest_column(*stale_seed, provider, betas, raw), betas)
        }
        Some(CheatStrategy::SelectiveDeflip { drop }) => {
            let mut column = honest_column(epoch_seed, provider, betas, raw);
            clear_decoys(&mut column, raw, betas.len(), *drop);
            (column, betas)
        }
    };
    let stmt = ColumnStatement {
        epoch_seed,
        provider,
        betas: committed,
        published: &column,
    };
    let commitment = ColumnCommitment::compute(epoch_seed, provider, committed, &column);
    let proof = prove_column(&stmt, raw, params, prover_seed);
    (column, commitment, proof)
}

/// Runs one audit trial: every provider of `matrix` serves its column
/// (the listed cheaters playing their strategies, everyone else
/// honest), and the auditor verifies every certificate against the
/// served columns and the *official* β's.
pub fn run_cheating_trial(
    epoch_seed: u64,
    betas: &[f64],
    matrix: &MembershipMatrix,
    cheaters: &[CheatingProvider],
    params: &AuditParams,
    prover_seed: u64,
) -> Vec<ProviderAuditOutcome> {
    matrix
        .provider_ids()
        .map(|provider| {
            let strategy = cheaters
                .iter()
                .find(|c| c.provider == provider)
                .map(|c| &c.strategy);
            let (served, commitment, proof) = serve_column(
                epoch_seed,
                provider,
                betas,
                matrix.row_words(provider),
                strategy,
                params,
                prover_seed ^ u64::from(provider.0).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let stmt = ColumnStatement {
                epoch_seed,
                provider,
                betas,
                published: &served,
            };
            let error = eppi_audit::verify_column(&stmt, &commitment, &proof, params).err();
            ProviderAuditOutcome {
                provider,
                cheated: strategy.map(CheatStrategy::name),
                error,
                served,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::OwnerId;

    fn dense_matrix(m: usize, n: usize) -> MembershipMatrix {
        let mut mat = MembershipMatrix::new(m, n);
        for j in 0..n as u32 {
            for p in 0..m as u32 {
                if (p + j) % 3 == 0 {
                    mat.set(ProviderId(p), OwnerId(j), true);
                }
            }
        }
        mat
    }

    #[test]
    fn honest_trial_has_no_rejections() {
        let mat = dense_matrix(6, 90);
        let betas = vec![0.4; 90];
        let out = run_cheating_trial(42, &betas, &mat, &[], &AuditParams { repetitions: 6 }, 1);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|o| !o.detected() && !o.miscarriage()));
    }

    #[test]
    fn every_strategy_is_detected_and_nobody_else_is() {
        let mat = dense_matrix(8, 90);
        let betas = vec![0.5; 90];
        let cheaters = vec![
            CheatingProvider {
                provider: ProviderId(1),
                strategy: CheatStrategy::WrongBeta { claimed: 0.05 },
            },
            CheatingProvider {
                provider: ProviderId(3),
                strategy: CheatStrategy::StaleColumn { stale_seed: 41 },
            },
            CheatingProvider {
                provider: ProviderId(5),
                strategy: CheatStrategy::SelectiveDeflip { drop: 4 },
            },
        ];
        let params = AuditParams { repetitions: 40 };
        let out = run_cheating_trial(42, &betas, &mat, &cheaters, &params, 7);
        for o in &out {
            assert!(!o.miscarriage(), "provider {:?}: {:?}", o.provider, o.error);
        }
        // Every strategy fails on its expected check.
        assert!(matches!(
            out[1].error,
            Some(AuditError::DecisionsDigest { .. })
        ));
        assert!(matches!(
            out[3].error,
            Some(AuditError::UnderDecoyed { provider: 3, .. })
        ));
        assert!(matches!(
            out[5].error,
            Some(AuditError::UnderDecoyed { provider: 5, .. })
        ));
    }

    #[test]
    fn deflip_actually_removes_decoys() {
        let mat = dense_matrix(4, 70);
        let betas = vec![0.6; 70];
        let raw = mat.row_words(ProviderId(0));
        let honest = honest_column(9, ProviderId(0), &betas, raw);
        let mut column = honest.clone();
        let cleared = clear_decoys(&mut column, raw, 70, 3);
        assert_eq!(cleared, 3);
        let diff: u32 = honest
            .iter()
            .zip(&column)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 3);
        // Raw members are never cleared.
        for (r, c) in raw.iter().zip(&column) {
            assert_eq!(r & !c, 0);
        }
    }

    /// The check is deterministic: at one repetition, over 60 prover
    /// seeds, a stale column and a deflipped one are rejected every
    /// time, naming the first owner whose official decoy is missing.
    #[test]
    fn stale_and_deflipped_columns_name_their_first_cleared_owner_at_every_seed() {
        let mat = dense_matrix(3, 80);
        let betas = vec![0.5; 80];
        let official = decision_words(11, ProviderId(2), &betas);
        let first_missing = |served: &[u64]| {
            (0..80u32).find(|&j| {
                let (w, b) = (j as usize / 64, 1u64 << (j % 64));
                official[w] & b != 0 && served[w] & b == 0
            })
        };
        let one = AuditParams { repetitions: 1 };
        for strategy in [
            CheatStrategy::StaleColumn { stale_seed: 10 },
            CheatStrategy::SelectiveDeflip { drop: 3 },
        ] {
            let cheater = [CheatingProvider {
                provider: ProviderId(2),
                strategy: strategy.clone(),
            }];
            for seed in 0..60 {
                let out = run_cheating_trial(11, &betas, &mat, &cheater, &one, seed);
                let owner = first_missing(&out[2].served).expect("some decoy is missing");
                assert_eq!(
                    out[2].error,
                    Some(AuditError::UnderDecoyed { provider: 2, owner }),
                    "{} at seed {seed}",
                    strategy.name()
                );
                assert!(out.iter().all(|o| !o.miscarriage()));
            }
        }
    }
}
