//! Analytical predictions for the randomized publication process.
//!
//! The publication of one identity is a sum of `T = m(1 − σ)` Bernoulli
//! trials (Appendix A-A of the paper). This module computes the *exact*
//! success probability `p_p = Pr[fp_j ≥ ε_j]` from the Binomial law, and
//! the Chernoff lower bound of Theorem 3.1 — so experiments can be
//! checked against theory, not just against themselves.

use crate::model::Epsilon;

/// Natural log of the Binomial pmf `P(X = k)` for `X ~ B(n, p)`,
/// computed stably through `ln Γ` (Stirling-series `ln_gamma`).
fn ln_binom_pmf(n: u64, k: u64, p: f64) -> f64 {
    if p <= 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    if p >= 1.0 {
        return if k == n { 0.0 } else { f64::NEG_INFINITY };
    }
    ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()
}

/// `ln C(n, k)` via `ln Γ`.
fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0` (|error| < 1e-10 over
/// the ranges used here).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Exact upper-tail probability `P(X ≥ k)` for `X ~ B(n, p)`.
///
/// Sums the pmf from the tail; `O(n)` but numerically stable in log
/// space, fine for the evaluation's `n ≤ 25,000`.
pub fn binomial_tail_ge(n: u64, k: u64, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    let mut total = 0.0f64;
    for x in k..=n {
        total += ln_binom_pmf(n, x, p).exp();
        // The pmf decays fast past the mean; stop once negligible.
        if x as f64 > n as f64 * p && ln_binom_pmf(n, x, p) < -40.0 {
            break;
        }
    }
    total.min(1.0)
}

/// The number of false positives needed so that `fp_j ≥ ε`:
/// `X / (X + σm) ≥ ε ⇔ X ≥ σm·ε/(1 − ε)` (Appendix A-A).
///
/// Returns `None` when ε = 1 and the identity has any records (no
/// finite X suffices short of... X can never make fp = 1 with true
/// positives present, yet broadcast is still the best achievable).
pub fn required_false_positives(true_frequency: u64, eps: Epsilon) -> Option<u64> {
    let e = eps.value();
    if true_frequency == 0 || e <= 0.0 {
        return Some(0);
    }
    if e >= 1.0 {
        return None;
    }
    Some(
        (true_frequency as f64 * e / (1.0 - e) - 1e-9)
            .ceil()
            .max(0.0) as u64,
    )
}

/// The *exact* success probability `p_p = Pr[fp_j ≥ ε]` of publishing
/// one identity with probability `beta` in an `m`-provider network where
/// the identity truly appears `f` times.
pub fn exact_success_probability(m: u64, f: u64, eps: Epsilon, beta: f64) -> f64 {
    match required_false_positives(f, eps) {
        None => 0.0,
        Some(0) => 1.0,
        Some(k) => binomial_tail_ge(m - f, k, beta.clamp(0.0, 1.0)),
    }
}

/// The Chernoff lower bound of Theorem 3.1 applied to an arbitrary β:
/// `p_p ≥ 1 − exp(−δ² T β / 2)` with `δ = 1 − β_b/β`, `T = m − f`.
///
/// Returns 0 when `β ≤ β_b` (the bound is vacuous below the mean).
pub fn chernoff_lower_bound(m: u64, f: u64, eps: Epsilon, beta: f64) -> f64 {
    let sigma = f as f64 / m as f64;
    let bb = crate::policy::beta_basic(sigma, eps);
    if !bb.is_finite() || beta <= bb || beta <= 0.0 {
        return 0.0;
    }
    let t = (m - f) as f64;
    let delta = 1.0 - bb / beta;
    1.0 - (-delta * delta * t * beta / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BasicPolicy, BetaPolicy, ChernoffPolicy};

    /// The success probability a policy predicts at one configuration —
    /// the theoretical curve behind Fig. 5.
    fn predicted_success<P: BetaPolicy>(policy: &P, m: u64, f: u64, eps: Epsilon) -> f64 {
        let beta = policy.beta(f as f64 / m as f64, eps, m as usize);
        exact_success_probability(m, f, eps, beta)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..15 {
            let fact: f64 = (1..=n).map(|i| i as f64).product();
            assert!(
                (ln_gamma(n as f64 + 1.0) - fact.ln()).abs() < 1e-9,
                "Γ({n}+1)"
            );
        }
    }

    #[test]
    fn binomial_tail_sanity() {
        // B(4, 0.5): P(X ≥ 2) = 11/16.
        assert!((binomial_tail_ge(4, 2, 0.5) - 11.0 / 16.0).abs() < 1e-9);
        assert_eq!(binomial_tail_ge(10, 0, 0.3), 1.0);
        assert_eq!(binomial_tail_ge(10, 11, 0.3), 0.0);
        assert!((binomial_tail_ge(1, 1, 0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn binomial_tail_matches_monte_carlo() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (n, k, p) = (200u64, 30u64, 0.12f64);
        let trials = 40_000;
        let hits = (0..trials)
            .filter(|_| (0..n).filter(|_| rng.gen::<f64>() < p).count() as u64 >= k)
            .count();
        let emp = hits as f64 / trials as f64;
        let exact = binomial_tail_ge(n, k, p);
        assert!(
            (emp - exact).abs() < 0.01,
            "empirical {emp} vs exact {exact}"
        );
    }

    #[test]
    fn required_false_positives_formula() {
        let e = Epsilon::saturating(0.5);
        // fp ≥ 0.5 with 10 true positives needs X ≥ 10.
        assert_eq!(required_false_positives(10, e), Some(10));
        // ε = 0.8: X ≥ 4·f.
        assert_eq!(
            required_false_positives(5, Epsilon::saturating(0.8)),
            Some(20)
        );
        assert_eq!(required_false_positives(0, e), Some(0));
        assert_eq!(required_false_positives(3, Epsilon::ZERO), Some(0));
        assert_eq!(required_false_positives(3, Epsilon::ONE), None);
    }

    #[test]
    fn basic_policy_predicts_near_half() {
        // The expectation-based policy should land near 0.5 for moderate
        // parameters — the Fig. 5 "basic ≈ 0.5" line, from theory.
        let p = predicted_success(&BasicPolicy, 10_000, 100, Epsilon::saturating(0.5));
        assert!((0.35..0.65).contains(&p), "basic predicted {p}");
    }

    #[test]
    fn chernoff_policy_prediction_exceeds_gamma() {
        let gamma = 0.9;
        let pol = ChernoffPolicy::new(gamma).unwrap();
        for f in [10u64, 100, 500] {
            let p = predicted_success(&pol, 10_000, f, Epsilon::saturating(0.5));
            assert!(p >= gamma, "f={f}: predicted {p} < γ");
        }
    }

    #[test]
    fn chernoff_bound_is_a_lower_bound_on_exact() {
        let eps = Epsilon::saturating(0.5);
        for f in [20u64, 200] {
            for beta_scale in [1.2, 1.5, 2.0] {
                let sigma = f as f64 / 2000.0;
                let beta = (crate::policy::beta_basic(sigma, eps) * beta_scale).min(1.0);
                let exact = exact_success_probability(2000, f, eps, beta);
                let bound = chernoff_lower_bound(2000, f, eps, beta);
                assert!(
                    bound <= exact + 1e-9,
                    "f={f} scale={beta_scale}: bound {bound} exceeds exact {exact}"
                );
            }
        }
    }

    #[test]
    fn theorem_3_1_gamma_guarantee_holds_in_theory() {
        // The β_c of Eq. 5 must give an exact success probability ≥ γ —
        // Theorem 3.1 verified against the exact Binomial law.
        let gamma = 0.9;
        let pol = ChernoffPolicy::new(gamma).unwrap();
        let eps = Epsilon::saturating(0.5);
        for (m, f) in [(1000u64, 10u64), (1000, 100), (10_000, 500), (100, 10)] {
            let beta = pol.beta(f as f64 / m as f64, eps, m as usize);
            if beta >= 1.0 {
                continue; // common identity: handled by mixing.
            }
            let p = exact_success_probability(m, f, eps, beta);
            assert!(p >= gamma, "m={m} f={f}: exact p_p {p} < γ");
        }
    }
}
