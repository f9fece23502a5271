//! The trusted-party-free protocol must compute exactly what the
//! trusted, centralized constructor computes — same common identities,
//! same β values for unmixed identities, same guarantees — while never
//! pooling the private vectors.

use eppi::core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi::core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi::core::policy::{BetaPolicy, PolicyKind};
use eppi::core::privacy::success_ratio;
use eppi::mpc::builder::CircuitBuilder;
use eppi::mpc::circuits::{lambda_threshold, CountBelowCircuit, MixDecisionCircuit};
use eppi::mpc::field::Modulus;
use eppi::mpc::share::recombine_raw;
use eppi::net::sim::LinkModel;
use eppi::protocol::construct::{
    construct_distributed, frequency_thresholds, share_width, ProtocolConfig,
};
use eppi::protocol::countbelow::Backend;
use eppi::protocol::epoch::{construct_delta, construct_epoch, IndexEpoch};
use eppi::protocol::pure_mpc::{construct_pure_mpc, PureMpcConfig};
use eppi::protocol::secsum::secsumshare_sim;

fn eps(v: f64) -> Epsilon {
    Epsilon::saturating(v)
}

fn matrix_with_freqs(m: usize, freqs: &[usize]) -> MembershipMatrix {
    let mut mat = MembershipMatrix::new(m, freqs.len());
    for (j, &f) in freqs.iter().enumerate() {
        for p in 0..f {
            mat.set(
                ProviderId(((p * 7 + j) % m) as u32),
                OwnerId(j as u32),
                true,
            );
        }
    }
    mat
}

#[test]
fn secsum_reconstructs_frequencies_at_scale() {
    // A 2,000-provider network — the protocol must stay constant-round.
    let m = 2000usize;
    let freqs: Vec<usize> = (0..24).map(|j| (j * 83) % 600).collect();
    let matrix = matrix_with_freqs(m, &freqs);
    let vectors: Vec<_> = matrix.provider_ids().map(|p| matrix.row(p)).collect();
    let q = Modulus::pow2(16);
    let out = secsumshare_sim(&vectors, 3, q, LinkModel::LAN, 99);
    assert_eq!(out.stats.rounds, 2, "SecSumShare is constant-round");
    let truth = matrix.frequencies();
    for j in 0..24 {
        let parts: Vec<u64> = out.coordinator_shares.iter().map(|v| v[j]).collect();
        assert_eq!(recombine_raw(&parts, q), truth[j] as u64, "identity {j}");
    }
}

#[test]
fn distributed_count_matches_cleartext_threshold_count() {
    let m = 200usize;
    let freqs = vec![150usize, 120, 90, 30, 10, 190];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.5); 6];
    let policy = PolicyKind::Chernoff { gamma: 0.9 };

    let out = construct_distributed(
        &matrix,
        &epsilons,
        &ProtocolConfig {
            policy,
            seed: 3,
            ..ProtocolConfig::default()
        },
    )
    .expect("construction");

    // Ground truth: identities whose raw β* ≥ 1.
    let expected = matrix
        .owner_ids()
        .filter(|&o| policy.raw_beta(matrix.sigma(o), epsilons[o.index()], m) >= 1.0)
        .count() as u64;
    assert_eq!(out.common_count, expected);

    // And the MPC threshold agrees with the policy's σ'.
    let thresholds = frequency_thresholds(policy, &epsilons, m);
    let by_threshold = matrix
        .frequencies()
        .iter()
        .zip(&thresholds)
        .filter(|(&f, &t)| f as u64 >= t)
        .count() as u64;
    assert_eq!(out.common_count, by_threshold);
}

#[test]
fn distributed_betas_match_policy_for_unmixed_identities() {
    let m = 300usize;
    let freqs = vec![12usize, 40, 7, 90, 55];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.3), eps(0.5), eps(0.7), eps(0.2), eps(0.6)];
    for policy in [
        PolicyKind::Basic,
        PolicyKind::Incremented { delta: 0.02 },
        PolicyKind::Chernoff { gamma: 0.9 },
    ] {
        let out = construct_distributed(
            &matrix,
            &epsilons,
            &ProtocolConfig {
                policy,
                seed: 11,
                ..ProtocolConfig::default()
            },
        )
        .expect("construction");
        for owner in matrix.owner_ids() {
            let j = owner.index();
            if out.decisions[j] {
                assert_eq!(out.index.betas()[j], 1.0);
            } else {
                let expect = policy.beta(matrix.sigma(owner), epsilons[j], m);
                let got = out.index.betas()[j];
                assert!(
                    (got - expect).abs() < 1e-12,
                    "{}: identity {j} β {got} vs {expect}",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn distributed_construction_meets_epsilon_statistically() {
    let m = 700usize;
    let freqs = vec![35usize; 30];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.5); 30];
    let out = construct_distributed(
        &matrix,
        &epsilons,
        &ProtocolConfig {
            seed: 21,
            ..ProtocolConfig::default()
        },
    )
    .expect("construction");
    let ratio = success_ratio(&matrix, &out.index, &epsilons, true);
    assert!(ratio >= 0.85, "distributed success ratio {ratio}");
}

#[test]
fn pure_mpc_and_reduced_protocol_agree_on_commons_and_betas() {
    let m = 14usize;
    let freqs = vec![13usize, 4, 2];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.5); 3];
    let policy = PolicyKind::Basic;

    let reduced = construct_distributed(
        &matrix,
        &epsilons,
        &ProtocolConfig {
            policy,
            seed: 5,
            ..ProtocolConfig::default()
        },
    )
    .expect("reduced");
    let pure = construct_pure_mpc(
        &matrix,
        &epsilons,
        &PureMpcConfig {
            policy,
            seed: 5,
            lambda: reduced.lambda,
            ..PureMpcConfig::default()
        },
    )
    .expect("pure");

    assert_eq!(reduced.common_count, pure.common_count);
    for j in 0..3 {
        if !reduced.decisions[j] && !pure.decisions[j] {
            assert!(
                (reduced.index.betas()[j] - pure.index.betas()[j]).abs() < 1e-12,
                "identity {j}"
            );
        }
    }
}

#[test]
fn threaded_backend_matches_in_process_backend() {
    let m = 50usize;
    let freqs = vec![45usize, 10, 3];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.6); 3];
    let base = ProtocolConfig {
        seed: 9,
        ..ProtocolConfig::default()
    };
    let a = construct_distributed(&matrix, &epsilons, &base).expect("in-process");
    let b = construct_distributed(
        &matrix,
        &epsilons,
        &ProtocolConfig {
            backend: Backend::Threaded,
            ..base
        },
    )
    .expect("threaded");
    assert_eq!(a.common_count, b.common_count);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.index.betas(), b.index.betas());
    assert_eq!(a.index.matrix(), b.index.matrix());
}

/// The epoch lifecycle's delta path must compute exactly what a
/// from-scratch construction computes for the touched columns, while
/// carrying untouched columns over verbatim.
#[test]
fn delta_construction_reproduces_full_construction_columns() {
    let m = 80usize;
    let freqs = vec![60usize, 25, 8, 3, 70, 40];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.4), eps(0.6), eps(0.3), eps(0.8), eps(0.5), eps(0.7)];
    let config = ProtocolConfig {
        seed: 17,
        ..ProtocolConfig::default()
    };
    let epoch0 = construct_epoch(&matrix, &epsilons, &config).expect("epoch 0");

    // Churn owners 1 and 3, append owner 6.
    let new_freqs = vec![60usize, 31, 8, 1, 70, 40, 12];
    let next = matrix_with_freqs(m, &new_freqs);
    let mut next_eps = epsilons.clone();
    next_eps[1] = eps(0.9);
    next_eps.push(eps(0.5));
    let mut delta = IndexDelta::new(6);
    for (owner, change) in [
        (OwnerId(1), ColumnChange::Changed),
        (OwnerId(3), ColumnChange::Changed),
        (OwnerId(6), ColumnChange::Added),
    ] {
        delta.record(DeltaEntry {
            owner,
            change,
            epsilon: next_eps[owner.index()],
        });
    }

    let built = construct_delta(&epoch0, &next, &delta).expect("delta");
    let full = construct_distributed(&next, &next_eps, &config).expect("full");

    assert_eq!(built.epoch.common_count(), full.common_count);
    assert_eq!(built.report.epoch, 1);
    assert_eq!(built.report.columns, 3);
    for owner in next.owner_ids() {
        let j = owner.index();
        if delta.contains(owner) {
            assert_eq!(
                built.epoch.index().matrix().column_words(owner),
                full.index.matrix().column_words(owner),
                "touched owner {j} diverges from the from-scratch build"
            );
            assert_eq!(built.epoch.index().betas()[j], full.index.betas()[j]);
        } else {
            assert_eq!(
                built.epoch.index().matrix().column_words(owner),
                epoch0.index().matrix().column_words(owner),
                "untouched owner {j} was re-randomized"
            );
        }
    }
}

/// The secure stages of a delta run are sized by the change batch `k`
/// and the public constants of its columns alone. Growing the untouched
/// owner population tenfold moves λ, so the mix circuit may change
/// shape — but each stage is exactly a fresh compile over the `k`
/// touched columns' thresholds (and λ), inside the per-identity AND
/// budget, and the SecSumShare traffic does not move at all.
#[test]
fn delta_cost_is_independent_of_untouched_owner_count() {
    let m = 60usize;
    let config = ProtocolConfig {
        seed: 29,
        ..ProtocolConfig::default()
    };
    let touched = [OwnerId(0), OwnerId(1), OwnerId(2)];
    let (c, k, width) = (config.c, touched.len(), share_width(m));
    let compare_ands = (c - 1) * (2 * width - 1) + (width - 1);
    let popcount_ands = {
        let mut cb = CircuitBuilder::new();
        let bits = cb.input_word(k);
        let count = cb.popcount(bits.bits());
        cb.finish_word(count).stats().and_gates
    };

    let mut secsum = Vec::new();
    for n in [12usize, 120] {
        let freqs: Vec<usize> = (0..n).map(|j| (j * 13) % 50 + 1).collect();
        let matrix = matrix_with_freqs(m, &freqs);
        let epsilons = vec![eps(0.5); n];
        let epoch0 = construct_epoch(&matrix, &epsilons, &config).expect("epoch 0");

        // The same three-column change batch in both networks.
        let mut new_freqs = freqs.clone();
        for o in touched {
            new_freqs[o.index()] = 20 + o.index();
        }
        let next = matrix_with_freqs(m, &new_freqs);
        let mut delta = IndexDelta::new(n);
        for o in touched {
            delta.record(DeltaEntry {
                owner: o,
                change: ColumnChange::Changed,
                epsilon: eps(0.5),
            });
        }
        let built = construct_delta(&epoch0, &next, &delta).expect("delta");
        let report = &built.report;
        assert_eq!(report.columns, k);
        // A from-scratch build of the same network runs the same
        // stages over all n columns, so it must cost more.
        let full = construct_distributed(&next, &epsilons, &config)
            .expect("full build")
            .report;
        assert!(report.circuit_size() < full.circuit_size());
        assert!(report.secsum.bytes < full.secsum.bytes);
        assert_eq!(report.secsum.messages, full.secsum.messages);

        // CountBelow before (old thresholds, retained shares) and after
        // (new thresholds), then mix under the new λ: each exactly a
        // fresh compile over the touched columns.
        let thresholds = |epoch: &IndexEpoch| -> Vec<u64> {
            touched
                .iter()
                .map(|o| epoch.thresholds()[o.index()])
                .collect()
        };
        let (old_t, new_t) = (thresholds(&epoch0), thresholds(&built.epoch));
        let count = |t: &[u64]| CountBelowCircuit::build(c, t, width).circuit().stats();
        let what = format!("n = {n}");
        assert_eq!(
            report.count_stage.circuit,
            count(&old_t).merge(count(&new_t)),
            "{what}"
        );
        let lam = lambda_threshold(built.epoch.lambda(), config.coin_bits);
        let mix = MixDecisionCircuit::build(c, &new_t, width, config.coin_bits, lam);
        assert_eq!(report.mix_stage.circuit, mix.circuit().stats(), "{what}");
        assert!(
            report.count_stage.circuit.and_gates <= 2 * (k * compare_ands + popcount_ands),
            "{what}"
        );
        assert!(
            report.mix_stage.circuit.and_gates <= k * (compare_ands + config.coin_bits + 1),
            "{what}"
        );
        secsum.push((report.secsum.messages, report.secsum.bytes));
    }
    assert_eq!(
        secsum[0], secsum[1],
        "SecSumShare traffic depends on m, c and k only"
    );
}

#[test]
fn larger_collusion_tolerance_still_correct() {
    let m = 40usize;
    let freqs = vec![36usize, 8];
    let matrix = matrix_with_freqs(m, &freqs);
    let epsilons = vec![eps(0.5); 2];
    for c in [2usize, 3, 5, 8] {
        let out = construct_distributed(
            &matrix,
            &epsilons,
            &ProtocolConfig {
                c,
                seed: c as u64,
                ..ProtocolConfig::default()
            },
        )
        .expect("construction");
        assert_eq!(out.common_count, 1, "c = {c}");
        assert_eq!(
            out.index.query(OwnerId(0)).len(),
            m,
            "c = {c}: common broadcasts"
        );
    }
}
