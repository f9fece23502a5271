//! Centralized (trusted, in-memory) ε-PPI construction.
//!
//! This mirrors the paper's two-phase computation model (§III) without the
//! distributed machinery: phase 1 computes per-identity publishing
//! probabilities (β calculation + identity mixing), phase 2 performs the
//! randomized publication. The effectiveness experiments (Fig. 4, Fig. 5)
//! run on this constructor, exactly as the paper's simulation-based
//! evaluation does; the trusted-party-free realization lives in the
//! `eppi-protocol` crate and must produce statistically identical output.

use crate::error::EppiError;
use crate::mixing::{mix, MixPlan};
use crate::model::{Epsilon, MembershipMatrix, PublishedIndex};
use crate::policy::{BetaPolicy, PolicyKind};
use crate::publish::publish_matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of one construction run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstructionConfig {
    /// The β-calculation policy.
    pub policy: PolicyKind,
    /// Whether to run identity mixing (Eq. 6/7) for common identities.
    /// The paper's ε-PPI always mixes; disabling it reproduces the
    /// common-identity vulnerability for the attack experiments.
    pub mixing: bool,
}

impl Default for ConstructionConfig {
    fn default() -> Self {
        ConstructionConfig {
            policy: PolicyKind::default(),
            mixing: true,
        }
    }
}

/// The outcome of a construction: the published index plus the
/// intermediate quantities the evaluation inspects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Construction {
    /// The published, obscured index `M'`.
    pub index: PublishedIndex,
    /// Raw per-identity β* before mixing/clamping.
    pub raw_betas: Vec<f64>,
    /// The mixing plan (λ, outcomes); `None` when mixing was disabled.
    pub mix_plan: Option<MixPlan>,
}

impl Construction {
    /// The final per-identity publishing probabilities used.
    pub fn betas(&self) -> &[f64] {
        self.index.betas()
    }
}

/// Runs the full two-phase ε-PPI construction over a trusted in-memory
/// view of the network.
///
/// # Errors
///
/// Returns [`EppiError::DimensionMismatch`] when `epsilons` does not
/// provide exactly one degree per owner, or a policy-parameter error if
/// `config.policy` is invalid.
///
/// ```
/// use eppi_core::construct::{construct, ConstructionConfig};
/// use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
/// use rand::SeedableRng;
///
/// let mut m = MembershipMatrix::new(100, 1);
/// for p in 0..10 {
///     m.set(ProviderId(p), OwnerId(0), true);
/// }
/// let eps = vec![Epsilon::new(0.5)?];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let c = construct(&m, &eps, ConstructionConfig::default(), &mut rng)?;
/// // Truthful rule: all 10 true providers are in the query answer.
/// assert!(c.index.query(OwnerId(0)).len() >= 10);
/// # Ok::<(), eppi_core::error::EppiError>(())
/// ```
pub fn construct<R: Rng + ?Sized>(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: ConstructionConfig,
    rng: &mut R,
) -> Result<Construction, EppiError> {
    if epsilons.len() != matrix.owners() {
        return Err(EppiError::DimensionMismatch {
            what: "epsilons",
            expected: matrix.owners(),
            actual: epsilons.len(),
        });
    }
    config.policy.validate()?;

    let m = matrix.providers();
    let frequencies = matrix.frequencies();
    let raw_betas: Vec<f64> = frequencies
        .iter()
        .zip(epsilons)
        .map(|(&f, &e)| {
            let sigma = if m == 0 { 0.0 } else { f as f64 / m as f64 };
            config.policy.raw_beta(sigma, e, m)
        })
        .collect();

    let (final_betas, mix_plan) = if config.mixing {
        let plan = mix(&raw_betas, epsilons, rng);
        (plan.final_betas(), Some(plan))
    } else {
        (raw_betas.iter().map(|b| b.clamp(0.0, 1.0)).collect(), None)
    };

    let index = publish_matrix(matrix, &final_betas, rng);
    Ok(Construction {
        index,
        raw_betas,
        mix_plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OwnerId, ProviderId};
    use crate::privacy::success_ratio;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// Builds a matrix where owner j appears in the first `freqs[j]`
    /// providers.
    fn matrix_with_freqs(m: usize, freqs: &[usize]) -> MembershipMatrix {
        let mut mat = MembershipMatrix::new(m, freqs.len());
        for (j, &f) in freqs.iter().enumerate() {
            for p in 0..f {
                mat.set(ProviderId(p as u32), OwnerId(j as u32), true);
            }
        }
        mat
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let m = MembershipMatrix::new(4, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let err = construct(&m, &[eps(0.5)], ConstructionConfig::default(), &mut rng);
        assert!(matches!(err, Err(EppiError::DimensionMismatch { .. })));
    }

    #[test]
    fn invalid_policy_is_rejected() {
        let m = MembershipMatrix::new(4, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ConstructionConfig {
            policy: PolicyKind::Chernoff { gamma: 0.1 },
            mixing: true,
        };
        assert!(construct(&m, &[eps(0.5)], cfg, &mut rng).is_err());
    }

    #[test]
    fn recall_is_always_complete() {
        let mat = matrix_with_freqs(200, &[5, 40, 120, 0]);
        let e = vec![eps(0.3), eps(0.6), eps(0.9), eps(0.5)];
        let mut rng = StdRng::seed_from_u64(9);
        let c = construct(&mat, &e, ConstructionConfig::default(), &mut rng).unwrap();
        for owner in mat.owner_ids() {
            for p in mat.providers_of(owner) {
                assert!(c.index.matrix().get(p, owner), "lost ({p}, {owner})");
            }
        }
    }

    #[test]
    fn chernoff_meets_epsilon_with_high_ratio() {
        // 2 000 providers; 300 owners at frequency 100 (σ = 0.05), ε = 0.5.
        let m = 2_000usize;
        let freqs = vec![100usize; 300];
        let mat = matrix_with_freqs(m, &freqs);
        let e = vec![eps(0.5); 300];
        let cfg = ConstructionConfig {
            policy: PolicyKind::Chernoff { gamma: 0.9 },
            mixing: true,
        };
        let mut rng = StdRng::seed_from_u64(100);
        let c = construct(&mat, &e, cfg, &mut rng).unwrap();
        let ratio = success_ratio(&mat, &c.index, &e, true);
        assert!(ratio >= 0.9, "success ratio {ratio} below γ");
    }

    #[test]
    fn basic_policy_hovers_near_half() {
        let m = 2_000usize;
        let freqs = vec![100usize; 400];
        let mat = matrix_with_freqs(m, &freqs);
        let e = vec![eps(0.5); 400];
        let cfg = ConstructionConfig {
            policy: PolicyKind::Basic,
            mixing: true,
        };
        let mut rng = StdRng::seed_from_u64(101);
        let c = construct(&mat, &e, cfg, &mut rng).unwrap();
        let ratio = success_ratio(&mat, &c.index, &e, true);
        assert!(
            (0.3..=0.7).contains(&ratio),
            "basic policy ratio {ratio} should be near 0.5"
        );
    }

    #[test]
    fn common_identities_get_beta_one() {
        // Owner 0 in 95/100 providers with ε = 0.5 ⇒ β* ≫ 1 ⇒ common.
        let mat = matrix_with_freqs(100, &[95, 5]);
        let e = vec![eps(0.5), eps(0.5)];
        let mut rng = StdRng::seed_from_u64(4);
        let c = construct(&mat, &e, ConstructionConfig::default(), &mut rng).unwrap();
        assert!(c.raw_betas[0] >= 1.0);
        assert_eq!(c.betas()[0], 1.0);
        let plan = c.mix_plan.as_ref().unwrap();
        assert_eq!(plan.common_count(), 1);
        // β = 1 publishes every provider.
        assert_eq!(c.index.query(OwnerId(0)).len(), 100);
    }

    #[test]
    fn disabling_mixing_clamps_raw_betas() {
        let mat = matrix_with_freqs(100, &[95, 5]);
        let e = vec![eps(0.5), eps(0.5)];
        let cfg = ConstructionConfig {
            policy: PolicyKind::Basic,
            mixing: false,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let c = construct(&mat, &e, cfg, &mut rng).unwrap();
        assert!(c.mix_plan.is_none());
        assert_eq!(c.betas()[0], 1.0);
        assert!(c.betas()[1] < 1.0);
    }

    #[test]
    fn matrix_grow_owners_preserves_bits() {
        let mut m = MembershipMatrix::new(3, 60);
        m.set(ProviderId(1), OwnerId(59), true);
        m.set(ProviderId(2), OwnerId(0), true);
        m.grow_owners(200);
        assert_eq!(m.owners(), 200);
        assert!(m.get(ProviderId(1), OwnerId(59)));
        assert!(m.get(ProviderId(2), OwnerId(0)));
        assert!(!m.get(ProviderId(0), OwnerId(150)));
        assert_eq!(m.ones(), 2);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mat = matrix_with_freqs(500, &[10, 20, 30]);
        let e = vec![eps(0.4); 3];
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            construct(&mat, &e, ConstructionConfig::default(), &mut rng).unwrap()
        };
        assert_eq!(run(7), run(7));
    }
}
