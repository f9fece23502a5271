//! Identity mixing against the common-identity attack (§III-B.2).
//!
//! A *common identity* appears in (almost) every provider; no amount of
//! false positives can hide which providers hold it, and the raw β value
//! itself leaks the identity frequency σ. The defense is to **mix**:
//! exaggerate the β of each non-common identity to `1` with probability
//! `λ` (Eq. 6), so an attacker looking at the published index cannot tell
//! truly common identities from mixed-up ones.
//!
//! `λ` is set by the heuristic of Eq. 7 so that among the identities that
//! *look* common, the fraction of non-common (decoy) identities is at
//! least `ξ = max ε_j` over the true common identities:
//!
//! ```text
//! λ ≥ ξ/(1−ξ) · C / (n − C)        (C = number of common identities)
//! ```

use crate::model::Epsilon;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a single identity's β was finalized by the mixing step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MixOutcome {
    /// A true common identity (`β* ≥ 1`): published with `β = 1`.
    Common,
    /// A non-common identity whose β was exaggerated to `1` by the λ-coin
    /// (a decoy).
    MixedUp,
    /// A non-common identity published with its raw `β*` (clamped into
    /// `\[0, 1\]`).
    Regular(f64),
}

impl MixOutcome {
    /// The final publishing probability for this identity.
    pub fn beta(self) -> f64 {
        match self {
            MixOutcome::Common | MixOutcome::MixedUp => 1.0,
            MixOutcome::Regular(b) => b,
        }
    }
}

/// The λ computation and per-identity mixing decisions for one
/// construction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixPlan {
    lambda: f64,
    xi: f64,
    common_count: usize,
    outcomes: Vec<MixOutcome>,
}

impl MixPlan {
    /// The mixing probability λ applied to non-common identities.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The decoy-fraction target `ξ` (max ε over common identities).
    pub fn xi(&self) -> f64 {
        self.xi
    }

    /// Number of true common identities `C = Σ_{β*≥1} 1`.
    pub fn common_count(&self) -> usize {
        self.common_count
    }

    /// Per-identity outcomes, indexed by owner.
    pub fn outcomes(&self) -> &[MixOutcome] {
        &self.outcomes
    }

    /// The final per-identity publishing probabilities.
    pub fn final_betas(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.beta()).collect()
    }
}

/// Computes the mixing probability λ of Eq. 7.
///
/// `common_count` is `C`, `total` is `n`, and `xi` the decoy-fraction
/// target. The result is clamped into `\[0, 1\]`; with no common identities
/// it is `0` (no mixing needed), and if everything is common it is `1`.
pub fn lambda_for(common_count: usize, total: usize, xi: f64) -> f64 {
    if common_count == 0 || xi <= 0.0 {
        return 0.0;
    }
    if total <= common_count {
        return 1.0;
    }
    if xi >= 1.0 {
        return 1.0;
    }
    let c = common_count as f64;
    let rest = (total - common_count) as f64;
    (xi / (1.0 - xi) * c / rest).clamp(0.0, 1.0)
}

/// Applies identity mixing (Eq. 6) to a vector of raw β values.
///
/// Identities with `raw_beta ≥ 1` are common and keep `β = 1`; every
/// other identity is exaggerated to `β = 1` with probability λ, where λ
/// follows Eq. 7 with `ξ = max ε` over the common identities.
///
/// # Panics
///
/// Panics if `raw_betas` and `epsilons` have different lengths.
///
/// ```
/// use eppi_core::mixing::mix;
/// use eppi_core::model::Epsilon;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let raw = vec![2.0, 0.3, 0.1];
/// let eps = vec![Epsilon::new(0.8)?, Epsilon::new(0.5)?, Epsilon::new(0.5)?];
/// let plan = mix(&raw, &eps, &mut rng);
/// assert_eq!(plan.common_count(), 1);
/// assert_eq!(plan.final_betas()[0], 1.0);
/// # Ok::<(), eppi_core::error::EppiError>(())
/// ```
pub fn mix<R: Rng + ?Sized>(raw_betas: &[f64], epsilons: &[Epsilon], rng: &mut R) -> MixPlan {
    assert_eq!(
        raw_betas.len(),
        epsilons.len(),
        "one ε per identity required"
    );
    let common: Vec<bool> = raw_betas.iter().map(|&b| b >= 1.0).collect();
    let common_count = common.iter().filter(|&&c| c).count();
    let xi = common
        .iter()
        .zip(epsilons)
        .filter(|(c, _)| **c)
        .map(|(_, e)| e.value())
        .fold(0.0f64, f64::max);
    let lambda = lambda_for(common_count, raw_betas.len(), xi);

    let outcomes = raw_betas
        .iter()
        .zip(&common)
        .map(|(&raw, &is_common)| {
            if is_common {
                MixOutcome::Common
            } else if lambda > 0.0 && rng.gen::<f64>() < lambda {
                MixOutcome::MixedUp
            } else {
                MixOutcome::Regular(raw.clamp(0.0, 1.0))
            }
        })
        .collect();

    MixPlan {
        lambda,
        xi,
        common_count,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn lambda_equation_7() {
        // C=10, n=1010, ξ=0.5 ⇒ λ = (0.5/0.5)·(10/1000) = 0.01.
        let l = lambda_for(10, 1010, 0.5);
        assert!((l - 0.01).abs() < 1e-12);
        // ξ=0.8 ⇒ λ = 4·(10/1000) = 0.04.
        let l = lambda_for(10, 1010, 0.8);
        assert!((l - 0.04).abs() < 1e-12);
    }

    #[test]
    fn lambda_degenerate_cases() {
        assert_eq!(lambda_for(0, 100, 0.9), 0.0);
        assert_eq!(lambda_for(5, 100, 0.0), 0.0);
        assert_eq!(lambda_for(100, 100, 0.5), 1.0);
        assert_eq!(lambda_for(5, 100, 1.0), 1.0);
        // Clamp: huge ξ relative to decoy pool.
        assert_eq!(lambda_for(99, 100, 0.99), 1.0);
    }

    #[test]
    fn no_commons_means_no_mixing() {
        let mut rng = StdRng::seed_from_u64(1);
        let raw = vec![0.1, 0.5, 0.99];
        let e = vec![eps(0.9); 3];
        let plan = mix(&raw, &e, &mut rng);
        assert_eq!(plan.common_count(), 0);
        assert_eq!(plan.lambda(), 0.0);
        for (o, &r) in plan.outcomes().iter().zip(&raw) {
            assert_eq!(*o, MixOutcome::Regular(r));
        }
    }

    #[test]
    fn commons_always_publish_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let raw = vec![1.0, 5.0, f64::INFINITY, 0.2];
        let e = vec![eps(0.6), eps(0.7), eps(0.3), eps(0.5)];
        let plan = mix(&raw, &e, &mut rng);
        assert_eq!(plan.common_count(), 3);
        assert!((plan.xi() - 0.7).abs() < 1e-12);
        assert_eq!(plan.outcomes()[0], MixOutcome::Common);
        assert_eq!(plan.outcomes()[1], MixOutcome::Common);
        assert_eq!(plan.outcomes()[2], MixOutcome::Common);
        assert_eq!(plan.final_betas()[..3], [1.0, 1.0, 1.0]);
    }

    #[test]
    fn mixing_rate_approximates_lambda() {
        // 10 commons with ξ=0.5 among 10 010 identities ⇒ λ = 0.001·... :
        // use a larger ξ for a measurable rate.
        let n = 20_000usize;
        let commons = 100usize;
        let mut raw = vec![0.2; n];
        for b in raw.iter_mut().take(commons) {
            *b = 2.0;
        }
        let e = vec![eps(0.8); n];
        let mut rng = StdRng::seed_from_u64(3);
        let plan = mix(&raw, &e, &mut rng);
        let expected_lambda = lambda_for(commons, n, 0.8);
        let mixed = plan
            .outcomes()
            .iter()
            .filter(|o| matches!(o, MixOutcome::MixedUp))
            .count();
        let rate = mixed as f64 / (n - commons) as f64;
        assert!(
            (rate - expected_lambda).abs() < 0.2 * expected_lambda + 1e-3,
            "rate {rate} vs λ {expected_lambda}"
        );
    }

    #[test]
    fn decoy_fraction_meets_xi_in_expectation() {
        // With λ per Eq. 7, expected decoys / (commons + decoys) ≥ ξ ... the
        // equality case: decoys ≈ λ(n−C) = ξ/(1−ξ)·C, so fraction =
        // decoys/(C+decoys) = ξ.
        let n = 50_000usize;
        let commons = 200usize;
        let xi = 0.6;
        let mut raw = vec![0.1; n];
        for b in raw.iter_mut().take(commons) {
            *b = 3.0;
        }
        let mut e = vec![eps(0.2); n];
        for item in e.iter_mut().take(commons) {
            *item = eps(xi);
        }
        let mut rng = StdRng::seed_from_u64(4);
        let plan = mix(&raw, &e, &mut rng);
        // Decoys among the identities published as common (β = 1;
        // §III-C).
        let looks = plan.outcomes().iter().filter(|o| o.beta() == 1.0);
        let decoys = plan
            .outcomes()
            .iter()
            .filter(|o| matches!(o, MixOutcome::MixedUp));
        let frac = decoys.count() as f64 / looks.count() as f64;
        assert!((frac - xi).abs() < 0.05, "decoy fraction {frac} vs ξ {xi}");
    }

    #[test]
    #[should_panic(expected = "one ε per identity")]
    fn mismatched_lengths_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        mix(&[0.1], &[], &mut rng);
    }

    #[test]
    fn outcome_beta_accessors() {
        assert_eq!(MixOutcome::Common.beta(), 1.0);
        assert_eq!(MixOutcome::MixedUp.beta(), 1.0);
        assert_eq!(MixOutcome::Regular(0.25).beta(), 0.25);
    }
}
