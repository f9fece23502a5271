//! The *pure MPC* construction baseline (§V-B).
//!
//! The comparator the paper measures against: instead of reducing the
//! secure sum to `c` coordinators with SecSumShare, every one of the `m`
//! providers feeds its private membership bits straight into one big
//! generic-MPC circuit that performs the whole β computation. Correct,
//! but the circuit grows with `m` and every AND-gate opening is an
//! all-to-all exchange among `m` parties — the super-linear cost of
//! Fig. 6a/6b.
//!
//! One deliberate concession favours the baseline: λ would require a
//! preliminary secure count (a second pass); we grant the baseline the
//! final λ as a public input so it runs in a single pass. Even with this
//! head start the MPC-reduced ε-PPI protocol wins, which is the paper's
//! point.

use crate::countbelow::{Backend, StageReport};
use eppi_core::error::EppiError;
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, PublishedIndex};
use eppi_core::policy::{BetaPolicy, PolicyKind};
use eppi_core::publish::publish_vector;
use eppi_mpc::circuits::{
    lambda_threshold, FixedPoint, NaiveConstructionCircuit, PureConstructionCircuit,
};
use eppi_net::sim::LinkModel;
use eppi_trace::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Configuration of the pure-MPC baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PureMpcConfig {
    /// The β-calculation policy (public parameters).
    pub policy: PolicyKind,
    /// Bits per mixing coin.
    pub coin_bits: usize,
    /// The mixing probability λ, granted as a public input (see module
    /// docs).
    pub lambda: f64,
    /// MPC backend.
    pub backend: Backend,
    /// Seed for all randomness.
    pub seed: u64,
    /// Whether the baseline performs the full β computation (division,
    /// multiplication, square root of Eq. 5) *inside* the circuit — the
    /// truly naive approach the paper's Formula-9 reordering eliminates.
    /// `false` grants the baseline the reordering too and keeps only the
    /// threshold comparison in-circuit.
    pub in_circuit_beta: bool,
    /// Fractional bits of the in-circuit fixed-point arithmetic.
    pub frac_bits: usize,
}

impl Default for PureMpcConfig {
    fn default() -> Self {
        PureMpcConfig {
            policy: PolicyKind::default(),
            coin_bits: 8,
            lambda: 0.0,
            backend: Backend::InProcess,
            seed: 0,
            in_circuit_beta: false,
            frac_bits: 8,
        }
    }
}

/// Result and cost of a pure-MPC construction.
#[derive(Debug, Clone)]
pub struct PureMpcConstruction {
    /// The published index (statistically identical to the ε-PPI
    /// protocol's output under the same policy).
    pub index: PublishedIndex,
    /// Number of common identities.
    pub common_count: u64,
    /// Per-identity mix decisions.
    pub decisions: Vec<bool>,
    /// MPC cost (the whole construction is one secure stage).
    pub stage: StageReport,
    /// End-to-end wall-clock time.
    pub wall: Duration,
}

/// Runs the pure-MPC baseline over the network described by `matrix`.
///
/// # Errors
///
/// Returns [`EppiError::DimensionMismatch`] or a policy-parameter error
/// on invalid inputs.
pub fn construct_pure_mpc(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &PureMpcConfig,
) -> Result<PureMpcConstruction, EppiError> {
    if epsilons.len() != matrix.owners() {
        return Err(EppiError::DimensionMismatch {
            what: "epsilons",
            expected: matrix.owners(),
            actual: epsilons.len(),
        });
    }
    config.policy.validate()?;
    let m = matrix.providers();
    let n = matrix.owners();
    if m == 0 {
        return Err(EppiError::NetworkTooSmall {
            providers: 0,
            required: 1,
        });
    }

    let started = Instant::now();
    let lam = lambda_threshold(config.lambda, config.coin_bits);

    // Compile either the naive full-β circuit or the threshold-only
    // variant (which grants the baseline Formula 9's reordering).
    enum Compiled {
        Compare(PureConstructionCircuit),
        Naive(NaiveConstructionCircuit),
    }
    let compiled = if config.in_circuit_beta {
        let fp = FixedPoint {
            frac_bits: config.frac_bits,
        };
        let a_fps: Vec<u64> = epsilons
            .iter()
            .map(|e| {
                let v = e.value();
                if v <= 0.0 {
                    // ε = 0: never common — an astronomically large A
                    // keeps β below 1 for every frequency.
                    u64::MAX >> 16
                } else {
                    fp.encode(1.0 / v - 1.0)
                }
            })
            .collect();
        let l_fp = match config.policy {
            PolicyKind::Chernoff { gamma } => fp.encode((1.0 / (1.0 - gamma)).ln()),
            PolicyKind::Basic | PolicyKind::Incremented { .. } => 0,
        };
        Compiled::Naive(NaiveConstructionCircuit::build(
            m,
            &a_fps,
            l_fp,
            fp,
            config.coin_bits,
            lam,
        ))
    } else {
        let thresholds = crate::construct::frequency_thresholds(config.policy, epsilons, m);
        Compiled::Compare(PureConstructionCircuit::build(
            m,
            &thresholds,
            config.coin_bits,
            lam,
        ))
    };
    let (circuit, layout) = match &compiled {
        Compiled::Compare(c) => (c.circuit(), c.layout()),
        Compiled::Naive(c) => (c.circuit(), c.layout()),
    };

    let inputs: Vec<Vec<bool>> = matrix
        .provider_ids()
        .map(|p| {
            let row = matrix.row(p);
            let membership: Vec<bool> = (0..n).map(|j| row.get(OwnerId(j as u32))).collect();
            let mut rng = StdRng::seed_from_u64(
                config.seed ^ 0x9u64 ^ (p.index() as u64).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let coins: Vec<u64> = (0..n)
                .map(|_| rng.gen_range(0..(1u64 << config.coin_bits)))
                .collect();
            match &compiled {
                Compiled::Compare(c) => c.encode_party_input(&membership, &coins),
                Compiled::Naive(c) => c.encode_party_input(&membership, &coins),
            }
        })
        .collect();

    let (out, stage) = config.backend.execute(
        circuit,
        layout,
        &inputs,
        config.seed,
        LinkModel::default(),
        Obs::default(),
    );
    let (common_count, decisions, masked_freqs) = match &compiled {
        Compiled::Compare(c) => c.decode(&out),
        Compiled::Naive(c) => c.decode(&out),
    };

    // Cleartext: β from the revealed frequencies of unmixed identities.
    let betas: Vec<f64> = decisions
        .iter()
        .zip(&masked_freqs)
        .zip(epsilons)
        .map(|((&mixed, &freq), &e)| {
            if mixed {
                1.0
            } else {
                config.policy.beta(freq as f64 / m as f64, e, m)
            }
        })
        .collect();

    let mut published = MembershipMatrix::new(m, n);
    for provider in matrix.provider_ids() {
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ 0x9b1 ^ (provider.index() as u64).wrapping_mul(0x2545f4914f6cdd1d),
        );
        let row = publish_vector(&matrix.row(provider), &betas, &mut rng);
        published.set_row(&row);
    }

    Ok(PureMpcConstruction {
        index: PublishedIndex::new(published, betas),
        common_count,
        decisions,
        stage,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct_distributed, ProtocolConfig};
    use eppi_core::model::ProviderId;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

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
    fn pure_mpc_finds_commons_and_publishes() {
        let mat = matrix_with_freqs(8, &[7, 1]);
        let e = vec![eps(0.5); 2];
        let out = construct_pure_mpc(&mat, &e, &PureMpcConfig::default()).unwrap();
        assert_eq!(out.common_count, 1);
        assert!(out.decisions[0]);
        assert!(!out.decisions[1]);
        // Common identity broadcasts.
        assert_eq!(out.index.query(OwnerId(0)).len(), 8);
        // Recall for the rare identity.
        assert!(out.index.matrix().get(ProviderId(0), OwnerId(1)));
    }

    #[test]
    fn agrees_with_mpc_reduced_protocol_on_betas() {
        let mat = matrix_with_freqs(12, &[3, 9, 6]);
        let e = vec![eps(0.4), eps(0.6), eps(0.5)];
        let pure = construct_pure_mpc(
            &mat,
            &e,
            &PureMpcConfig {
                policy: PolicyKind::Basic,
                seed: 4,
                ..PureMpcConfig::default()
            },
        )
        .unwrap();
        let reduced = construct_distributed(
            &mat,
            &e,
            &ProtocolConfig {
                policy: PolicyKind::Basic,
                seed: 4,
                ..ProtocolConfig::default()
            },
        )
        .unwrap();
        // With λ = 0 in both runs (no commons ⇒ λ = 0 in reduced; pure is
        // configured with λ = 0), the β vectors must agree exactly.
        for j in 0..3 {
            if !pure.decisions[j] && !reduced.decisions[j] {
                assert!(
                    (pure.index.betas()[j] - reduced.index.betas()[j]).abs() < 1e-12,
                    "identity {j}"
                );
            }
        }
        assert_eq!(pure.common_count, reduced.common_count);
    }

    #[test]
    fn cost_grows_with_providers() {
        let e = vec![eps(0.5)];
        let small = construct_pure_mpc(&matrix_with_freqs(4, &[2]), &e, &PureMpcConfig::default())
            .unwrap()
            .stage;
        let large = construct_pure_mpc(&matrix_with_freqs(16, &[2]), &e, &PureMpcConfig::default())
            .unwrap()
            .stage;
        assert!(large.circuit.total_gates > 2 * small.circuit.total_gates);
        assert!(
            large.bytes > 4 * small.bytes,
            "all-to-all openings grow quadratically"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mat = matrix_with_freqs(4, &[1]);
        assert!(construct_pure_mpc(&mat, &[], &PureMpcConfig::default()).is_err());
    }

    #[test]
    fn naive_in_circuit_beta_agrees_with_compare_only() {
        // Same network, both baseline flavours: the common decision and
        // published index must agree (fixed-point precision is ample at
        // these sizes).
        let mat = matrix_with_freqs(10, &[9, 3, 1]);
        let e = vec![eps(0.5); 3];
        let base = PureMpcConfig {
            seed: 6,
            ..PureMpcConfig::default()
        };
        let compare = construct_pure_mpc(&mat, &e, &base).unwrap();
        let naive = construct_pure_mpc(
            &mat,
            &e,
            &PureMpcConfig {
                in_circuit_beta: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(compare.common_count, naive.common_count);
        assert_eq!(compare.decisions, naive.decisions);
        assert_eq!(compare.index.betas(), naive.index.betas());
        // …and the naive circuit is dramatically bigger: Eq. 5's square
        // root and divisions live inside it.
        assert!(
            naive.stage.circuit.total_gates > 10 * compare.stage.circuit.total_gates,
            "naive {} vs compare {}",
            naive.stage.circuit.total_gates,
            compare.stage.circuit.total_gates
        );
    }
}
