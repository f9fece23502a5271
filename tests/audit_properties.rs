//! Facade-level properties of the publication audit (`eppi-audit`):
//! completeness (honest certificates always verify, at paper scale),
//! soundness (every cheating-provider strategy is caught with its
//! expected error kind), and the exact predicate the gate decides —
//! `decisions ⊆ published`, whatever witness the prover holds.

use eppi::attacks::{run_cheating_trial, serve_column, CheatStrategy, CheatingProvider};
use eppi::audit::{
    decision_words, mask_tail, prove_column, tail_mask, verify_column, AuditParams,
    ColumnCommitment, ColumnStatement, DEFAULT_REPETITIONS,
};
use eppi::core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi::protocol::{
    construct_epoch_audited, verify_commitments, verify_epoch, AuditConfig, ProtocolConfig,
};
use eppi::trace::Obs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper-scale shape: m = 10 providers, n = 128 identities.
const PAPER_M: usize = 10;
const PAPER_N: usize = 128;

fn random_matrix(m: usize, n: usize, density: f64, seed: u64) -> MembershipMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mat = MembershipMatrix::new(m, n);
    for p in 0..m as u32 {
        for j in 0..n as u32 {
            if (rng.gen::<u64>() as f64 / u64::MAX as f64) < density {
                mat.set(ProviderId(p), OwnerId(j), true);
            }
        }
    }
    mat
}

fn words_for(owners: usize) -> usize {
    owners.div_ceil(64)
}

/// Completeness at paper scale: every provider column of an epoch
/// certifies and verifies under the default configuration, and the
/// bare commitments re-verify from public state.
#[test]
fn paper_scale_epoch_certifies_at_default_repetitions() {
    let mat = random_matrix(PAPER_M, PAPER_N, 0.3, 42);
    let epsilons: Vec<Epsilon> = (0..PAPER_N)
        .map(|j| Epsilon::new(0.2 + (j % 7) as f64 / 10.0).unwrap())
        .collect();
    let cfg = ProtocolConfig {
        seed: 0xa0d17,
        ..ProtocolConfig::default()
    };
    let audit = AuditConfig::default();
    assert_eq!(audit.params.repetitions, DEFAULT_REPETITIONS);

    let audited = construct_epoch_audited(&mat, &epsilons, &cfg, &audit, Obs::default()).unwrap();
    assert_eq!(audited.certificates.len(), PAPER_M);
    verify_epoch(&audited.epoch, &audited.certificates, &audit).unwrap();
    verify_commitments(&audited.epoch, &audited.commitments()).unwrap();
}

/// One cheater of every strategy inside an honest paper-scale cohort:
/// each cheater is detected with its expected error kind, and no
/// honest provider is ever rejected.
#[test]
fn every_cheating_strategy_is_detected_at_paper_scale() {
    let mat = random_matrix(PAPER_M, PAPER_N, 0.25, 7);
    let betas: Vec<f64> = (0..PAPER_N).map(|j| 0.2 + (j % 6) as f64 / 10.0).collect();
    let cheaters = [
        CheatingProvider {
            provider: ProviderId(1),
            strategy: CheatStrategy::WrongBeta { claimed: 0.01 },
        },
        CheatingProvider {
            provider: ProviderId(3),
            strategy: CheatStrategy::StaleColumn { stale_seed: 999 },
        },
        CheatingProvider {
            provider: ProviderId(5),
            strategy: CheatStrategy::SelectiveDeflip { drop: 6 },
        },
    ];
    let params = AuditParams {
        repetitions: DEFAULT_REPETITIONS,
    };
    let outcomes = run_cheating_trial(0xfeed, &betas, &mat, &cheaters, &params, 0x5eed);
    assert_eq!(outcomes.len(), PAPER_M);
    for o in &outcomes {
        assert!(
            !o.miscarriage(),
            "provider {:?}: cheated={:?} error={:?}",
            o.provider,
            o.cheated,
            o.error
        );
    }
    let kind = |p: u32| {
        outcomes
            .iter()
            .find(|o| o.provider == ProviderId(p))
            .and_then(|o| o.error.as_ref())
            .map(|e| e.kind())
    };
    assert_eq!(kind(1), Some("decisions_digest"), "wrong β commitment");
    assert_eq!(kind(3), Some("under_decoyed"), "stale coins");
    assert_eq!(kind(5), Some("under_decoyed"), "deflipped decoys");
}

/// Clears lane `j` of a packed column.
fn clear_lane(words: &mut [u64], j: usize) {
    words[j / 64] &= !(1u64 << (j % 64));
}

/// The owners below `owners` that `keep` selects.
fn lanes(owners: usize, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    (0..owners).filter(|&j| keep(j)).collect()
}

/// The gate decides exactly `decisions ⊆ published`, whatever the
/// witness. Over n ∈ {0, 1, 63, 64, 65, 300} and 240 (β, raw) draws:
///
/// * the honest column `raw ∨ decisions` verifies;
/// * a column that *hides a true member* (raw 1, decision 0, published
///   0), certified with witness = published, verifies — the documented
///   limit: no certificate here binds the raw column;
/// * a column missing any decision-1 cell is rejected, under witness =
///   raw and under witness = published;
/// * a column stored with dirty tail bits past the owner count verifies;
/// * any mix of hidden members, extra decoys and cleared decisions
///   verifies (witness = published) iff no decision-1 cell is cleared.
#[test]
fn the_gate_decides_exactly_decisions_subset_of_published() {
    let mut rng = StdRng::seed_from_u64(0x5b5e7);
    let params = AuditParams {
        repetitions: DEFAULT_REPETITIONS,
    };
    let provider = ProviderId(2);
    let mut seen = [0usize; 3]; // hidden members, cleared decisions, dirty tails
    for owners in [0usize, 1, 63, 64, 65, 300] {
        for draw in 0..40u64 {
            let seed = rng.gen::<u64>();
            let betas: Vec<f64> = (0..owners)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen::<f64>(),
                })
                .collect();
            let density = rng.gen::<f64>();
            let mut raw = vec![0u64; words_for(owners)];
            for j in 0..owners {
                if rng.gen::<f64>() < density {
                    raw[j / 64] |= 1u64 << (j % 64);
                }
            }
            let decisions = decision_words(seed, provider, &betas);
            let mut honest: Vec<u64> = raw.iter().zip(&decisions).map(|(r, d)| r | d).collect();
            mask_tail(&mut honest, owners);
            let bit = |words: &[u64], j: usize| words[j / 64] >> (j % 64) & 1 == 1;
            let verdict = |published: &[u64], witness: &[u64]| {
                let stmt = ColumnStatement {
                    epoch_seed: seed,
                    provider,
                    betas: &betas,
                    published,
                };
                let commitment = ColumnCommitment::compute(seed, provider, &betas, published);
                let proof = prove_column(&stmt, witness, &params, draw);
                verify_column(&stmt, &commitment, &proof, &params)
            };
            let what = format!("n = {owners}, draw {draw}");

            assert!(verdict(&honest, &raw).is_ok(), "{what}: honest column");

            let hidden = lanes(owners, |j| bit(&raw, j) && !bit(&decisions, j));
            if let Some(&j) = hidden.get(draw as usize % hidden.len().max(1)) {
                let mut column = honest.clone();
                clear_lane(&mut column, j);
                assert!(
                    verdict(&column, &column).is_ok(),
                    "{what}: hidden member {j} is outside what the gate decides"
                );
                seen[0] += 1;
            }

            let decided = lanes(owners, |j| bit(&decisions, j));
            if let Some(&j) = decided.get(draw as usize % decided.len().max(1)) {
                let mut column = honest.clone();
                clear_lane(&mut column, j);
                assert!(verdict(&column, &raw).is_err(), "{what}: owner {j}, raw");
                assert!(
                    verdict(&column, &column).is_err(),
                    "{what}: owner {j}, published"
                );
                seen[1] += 1;
            }

            if owners % 64 != 0 {
                let mut dirty = honest.clone();
                *dirty.last_mut().unwrap() |= !tail_mask(owners);
                assert!(verdict(&dirty, &raw).is_ok(), "{what}: dirty tail");
                seen[2] += 1;
            }

            // A random mix: every cell of the honest column is kept,
            // cleared or set with fixed odds.
            let mut column = honest.clone();
            for j in 0..owners {
                match rng.gen_range(0..16u32) {
                    0 => clear_lane(&mut column, j),
                    1 => column[j / 64] |= 1u64 << (j % 64),
                    _ => {}
                }
            }
            let subset = decisions.iter().zip(&column).all(|(d, p)| d & !p == 0);
            assert_eq!(
                verdict(&column, &column).is_ok(),
                subset,
                "{what}: random column"
            );
        }
    }
    assert!(seen.iter().all(|&k| k >= 40), "cases exercised: {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Completeness is unconditional: any matrix, β profile, epoch
    /// seed, and prover seed yields a certificate the auditor accepts.
    #[test]
    fn honest_certificates_always_verify(
        seed in any::<u64>(),
        prover_seed in any::<u64>(),
        density in 0.0f64..1.0,
        owners in 1usize..200,
        beta_base in 0.05f64..0.95,
    ) {
        let raw_mat = random_matrix(3, owners, density, seed);
        let betas: Vec<f64> = (0..owners)
            .map(|j| (beta_base + (j % 4) as f64 / 20.0).min(1.0))
            .collect();
        let params = AuditParams { repetitions: 5 };
        for p in 0..3u32 {
            let provider = ProviderId(p);
            let raw = raw_mat.row_words(provider);
            let (column, commitment, proof) =
                serve_column(seed, provider, &betas, raw, None, &params, prover_seed);
            let stmt = ColumnStatement {
                epoch_seed: seed,
                provider,
                betas: &betas,
                published: &column,
            };
            prop_assert!(verify_column(&stmt, &commitment, &proof, &params).is_ok());
            // Re-proving under a different seed verifies too: the
            // verdict never hinges on the prover's seed.
            let reproof = prove_column(&stmt, raw, &params, prover_seed ^ 0x1234_5678);
            prop_assert!(verify_column(&stmt, &commitment, &reproof, &params).is_ok());
        }
    }

    /// A commitment binds the served column: any single flipped cell in
    /// what the auditor reads makes the published digest fail.
    #[test]
    fn commitments_bind_every_served_cell(
        seed in any::<u64>(),
        owners in 1usize..150,
        flip in any::<u32>(),
    ) {
        let mat = random_matrix(1, owners, 0.4, seed);
        let betas: Vec<f64> = vec![0.35; owners];
        let provider = ProviderId(0);
        let params = AuditParams { repetitions: 1 };
        let (column, commitment, _) =
            serve_column(seed, provider, &betas, mat.row_words(provider), None, &params, 9);
        commitment.verify(seed, &betas, &column).unwrap();
        let mut tampered = column.clone();
        let j = flip as usize % owners;
        tampered[j / 64] ^= 1u64 << (j % 64);
        prop_assert!(commitment.verify(seed, &betas, &tampered).is_err());
    }
}
