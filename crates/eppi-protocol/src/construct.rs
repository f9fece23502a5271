//! The trusted-party-free two-phase ε-PPI construction (Alg. 1, Fig. 3).
//!
//! This is the paper's headline protocol: no trusted third party and no
//! mutual trust between providers. The computation flow follows the
//! MPC-minimizing reordering of Formula 9:
//!
//! 1. In **cleartext**, every party derives the public per-identity
//!    frequency thresholds `t_j = σ'_j · m` from the (public) privacy
//!    degrees `ε_j` — the heavy floating-point policy math happens on
//!    public data only.
//! 2. **SecSumShare** reduces the `m`-provider secure frequency sum to
//!    `c` coordinator share vectors (cheap, constant rounds).
//! 3. **CountBelow MPC** among the `c` coordinators reveals only the
//!    *number* of common identities; λ follows from Eq. 7 in cleartext.
//! 4. **Mix-decision MPC** reveals one bit per identity:
//!    `common ∨ coin(λ)`. Identities with bit 1 publish with `β = 1`;
//!    only for the rest do the coordinators reconstruct the frequency
//!    and evaluate `β*` in cleartext — mixed and common identities'
//!    frequencies are never revealed, defeating the common-identity
//!    attack.
//! 5. **Randomized publication** runs locally at every provider (Eq. 2).
//!
//! The decoy-fraction target ξ is taken as `max_j ε_j` over *all*
//! identities — a conservative upper bound of the paper's
//! `max ε over common identities`, since which identities are common is
//! exactly what stays hidden from the protocol participants.
//!
//! The five steps are code in exactly one place, `construct_columns` in
//! [`crate::epoch`], which runs them over any set of columns on top of
//! a previous epoch. [`construct_distributed`] is that routine over
//! *all* columns on top of the empty state (the genesis delta); this
//! module holds the configuration, the cost report and the public
//! cleartext helpers around it.

use crate::countbelow::{Backend, StageReport};
use crate::epoch::construct_genesis;
use eppi_core::error::EppiError;
use eppi_core::model::{Epsilon, MembershipMatrix, PublishedIndex};
use eppi_core::policy::{BetaPolicy, PolicyKind};
use eppi_net::sim::{LinkModel, NetStats};
use eppi_telemetry::Registry;
use eppi_trace::Obs;
use std::time::Duration;

/// Configuration of the distributed construction protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Collusion-tolerance parameter: number of coordinators `c`
    /// (the paper's experiments use `c = 3`).
    pub c: usize,
    /// The β-calculation policy (public parameters).
    pub policy: PolicyKind,
    /// Bits per coin used for the Bernoulli(λ) mixing coin.
    pub coin_bits: usize,
    /// Link model pricing simulated network time: SecSumShare on the
    /// round simulator, CountBelow and mix on the lockstep GMW run.
    pub link: LinkModel,
    /// MPC backend for the coordinator stage.
    pub backend: Backend,
    /// Seed driving every random choice of the run.
    pub seed: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            c: 3,
            policy: PolicyKind::default(),
            coin_bits: 16,
            link: LinkModel::LAN,
            backend: Backend::InProcess,
            seed: 0,
        }
    }
}

/// Wall-clock split of one construction run by protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseWall {
    /// Cleartext threshold derivation (Alg. 1 line 2).
    pub thresholds: Duration,
    /// SecSumShare across all providers (phase 1.1).
    pub secsum: Duration,
    /// CountBelow MPC among the coordinators (phase 1.2a).
    pub count: Duration,
    /// Cleartext λ derivation from the revealed count (Eq. 7) —
    /// deliberately separate from `mix` so the MPC phase timings stay
    /// pure MPC.
    pub lambda: Duration,
    /// Mix-decision MPC among the coordinators (phase 1.2b).
    pub mix: Duration,
    /// β evaluation + randomized publication (phase 2).
    pub publish: Duration,
}

impl PhaseWall {
    /// `(name, duration)` pairs in protocol order — the iteration the
    /// telemetry exporter and report tables share.
    pub fn named(&self) -> [(&'static str, Duration); 6] {
        [
            ("thresholds", self.thresholds),
            ("secsum", self.secsum),
            ("count", self.count),
            ("lambda", self.lambda),
            ("mix", self.mix),
            ("publish", self.publish),
        ]
    }
}

/// Cost breakdown of one distributed construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConstructionReport {
    /// SecSumShare traffic (phase 1.1).
    pub secsum: NetStats,
    /// CountBelow MPC cost (phase 1.2a).
    pub count_stage: StageReport,
    /// Mix-decision MPC cost (phase 1.2b).
    pub mix_stage: StageReport,
    /// Per-phase wall-clock split of the run.
    pub phases: PhaseWall,
    /// End-to-end wall-clock time of the protocol run.
    pub wall: Duration,
    /// Epoch the run produced (`0` for a from-scratch construction; see
    /// `epoch::construct_delta` for the incremental path).
    pub epoch: u64,
    /// Owner columns the secure stages ran over: `n` for a full
    /// construction, `k = |delta|` for a delta — the unit of work the
    /// epoch lifecycle keeps independent of `n − k`.
    pub columns: usize,
}

impl ConstructionReport {
    /// Total MPC circuit size (the paper's Fig. 6b metric): gates of
    /// both coordinator circuits.
    pub fn circuit_size(&self) -> usize {
        self.count_stage.circuit.total_gates + self.mix_stage.circuit.total_gates
    }
}

/// Result of the distributed construction.
#[derive(Debug, Clone)]
pub struct DistributedConstruction {
    /// The published, obscured index `M'`.
    pub index: PublishedIndex,
    /// Number of common identities found by CountBelow.
    pub common_count: u64,
    /// The mixing probability λ used (Eq. 7).
    pub lambda: f64,
    /// Per-identity mix decisions (`true` ⇒ published with β = 1).
    pub decisions: Vec<bool>,
    /// Cost breakdown.
    pub report: ConstructionReport,
}

/// Derives the public per-identity frequency thresholds `t_j = ⌈σ'_j·m⌉`
/// above which an identity counts as common for its `ε_j` (Alg. 1
/// line 2: "σ′(·) is calculated under condition β* = 1").
pub fn frequency_thresholds(policy: PolicyKind, epsilons: &[Epsilon], m: usize) -> Vec<u64> {
    epsilons
        .iter()
        .map(|&e| {
            let sigma = policy.sigma_threshold(e, m);
            // f ≥ σ'·m for integer f ⇔ f ≥ ⌈σ'·m⌉ (tolerating float
            // noise just below an integer boundary).
            (sigma * m as f64 - 1e-9).ceil().max(0.0) as u64
        })
        .collect()
}

/// Share-group width: smallest `w` with `2^w > m` (sums fit without
/// wrap).
pub fn share_width(m: usize) -> usize {
    (usize::BITS - m.leading_zeros()) as usize
}

/// Runs the full trusted-party-free ε-PPI construction over the network
/// described by `matrix` (each row being one provider's private local
/// vector).
///
/// # Errors
///
/// Returns [`EppiError::DimensionMismatch`] when `epsilons` does not
/// match the owner count, [`EppiError::NetworkTooSmall`] when there are
/// fewer providers than coordinators, or a policy-parameter error for an
/// invalid `config.policy`.
pub fn construct_distributed(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
) -> Result<DistributedConstruction, EppiError> {
    construct_distributed_with_registry(matrix, epsilons, config, Obs::default())
}

/// [`construct_distributed`] under a caller's observability context.
/// Into `obs.registry`: per-phase wall times land in the
/// `construct.phase_ns{phase=…}` histogram family ([`PhaseWall::named`]
/// order), the run total in `construct.wall_ns`, MPC circuit sizes in
/// `construct.gates{stage=…}`, SecSumShare traffic in
/// `secsum.messages` / `secsum.bytes`, and the threaded backend's
/// `gmw.*` family. Its `mpc.execute` spans hang under `obs.parent`.
///
/// # Errors
///
/// Same contract as [`construct_distributed`].
pub fn construct_distributed_with_registry<'a>(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
    obs: impl Into<Obs<'a>>,
) -> Result<DistributedConstruction, EppiError> {
    let built = construct_genesis(matrix, epsilons, config, obs.into())?;
    let state = built.epoch.into_state();
    Ok(DistributedConstruction {
        index: state.index,
        common_count: state.common_count,
        lambda: state.lambda,
        decisions: state.decisions,
        report: built.report,
    })
}

/// Writes one run's [`ConstructionReport`] into the registry (the
/// `construct.*` / `secsum.*` families).
pub(crate) fn emit_report(registry: &Registry, report: &ConstructionReport) {
    for (phase, wall) in report.phases.named() {
        registry
            .histogram("construct.phase_ns", &[("phase", phase)])
            .record(wall.as_nanos() as u64);
    }
    registry
        .histogram("construct.wall_ns", &[])
        .record(report.wall.as_nanos() as u64);
    registry
        .counter("construct.gates", &[("stage", "count")])
        .add(report.count_stage.circuit.total_gates as u64);
    registry
        .counter("construct.gates", &[("stage", "mix")])
        .add(report.mix_stage.circuit.total_gates as u64);
    registry
        .counter("secsum.messages", &[])
        .add(report.secsum.messages);
    registry
        .counter("secsum.bytes", &[])
        .add(report.secsum.bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::{OwnerId, ProviderId};
    use eppi_core::privacy::{owner_privacy, success_ratio};

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
    fn recall_is_complete_and_commons_broadcast() {
        let mat = matrix_with_freqs(40, &[38, 4, 0]);
        let e = vec![eps(0.5); 3];
        let cfg = ProtocolConfig::default();
        let out = construct_distributed(&mat, &e, &cfg).unwrap();
        // Truthful rule.
        for owner in mat.owner_ids() {
            for p in mat.providers_of(owner) {
                assert!(out.index.matrix().get(p, owner));
            }
        }
        // Identity 0 (38/40 with ε = 0.5) is common ⇒ β = 1 ⇒ all 40.
        assert!(out.common_count >= 1);
        assert_eq!(out.index.query(OwnerId(0)).len(), 40);
        assert!(out.decisions[0]);
    }

    #[test]
    fn zero_owners_build_the_empty_index_on_every_backend() {
        // A zero-column batch runs no circuit: nothing is compiled, and
        // the distributed protocol agrees with the centralized
        // construction, which returns the empty index.
        use crate::epoch::construct_epoch;
        let mat = MembershipMatrix::new(8, 0);
        for backend in [Backend::InProcess, Backend::Threaded] {
            let cfg = ProtocolConfig {
                backend,
                ..ProtocolConfig::default()
            };
            let out = construct_distributed(&mat, &[], &cfg).unwrap();
            assert_eq!(out.index.matrix(), &mat, "{backend:?}");
            assert!(out.index.betas().is_empty() && out.decisions.is_empty());
            assert_eq!((out.common_count, out.lambda), (0, 0.0), "{backend:?}");
            assert_eq!(out.report.count_stage, StageReport::default());
            assert_eq!(out.report.mix_stage, StageReport::default());
            let epoch = construct_epoch(&mat, &[], &cfg).unwrap();
            assert_eq!(epoch.index(), &out.index, "{backend:?}");
            assert_eq!((epoch.common_count(), epoch.lambda()), (0, 0.0));
        }
    }

    #[test]
    fn betas_match_centralized_policy_for_unmixed_identities() {
        let mat = matrix_with_freqs(100, &[10, 25, 2]);
        let e = vec![eps(0.3), eps(0.6), eps(0.4)];
        let cfg = ProtocolConfig {
            policy: PolicyKind::Basic,
            seed: 5,
            ..ProtocolConfig::default()
        };
        let out = construct_distributed(&mat, &e, &cfg).unwrap();
        for (j, (&mixed, &eps_j)) in out.decisions.iter().zip(&e).enumerate() {
            if !mixed {
                let sigma = mat.sigma(OwnerId(j as u32));
                let expect = PolicyKind::Basic.beta(sigma, eps_j, 100);
                let got = out.index.betas()[j];
                assert!(
                    (got - expect).abs() < 1e-12,
                    "identity {j}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn privacy_requirement_met_with_chernoff() {
        let m = 600;
        let freqs = vec![30usize; 40];
        let mat = matrix_with_freqs(m, &freqs);
        let e = vec![eps(0.5); 40];
        let cfg = ProtocolConfig {
            policy: PolicyKind::Chernoff { gamma: 0.9 },
            seed: 17,
            ..ProtocolConfig::default()
        };
        let out = construct_distributed(&mat, &e, &cfg).unwrap();
        let ratio = success_ratio(&mat, &out.index, &e, true);
        assert!(ratio >= 0.85, "success ratio {ratio}");
    }

    #[test]
    fn common_count_matches_ground_truth() {
        // ε = 0.5 with basic policy ⇒ σ' = 0.5: identities at ≥ 50%
        // frequency are common.
        let mat = matrix_with_freqs(60, &[40, 30, 29, 10]);
        let e = vec![eps(0.5); 4];
        let cfg = ProtocolConfig {
            policy: PolicyKind::Basic,
            seed: 3,
            ..ProtocolConfig::default()
        };
        let out = construct_distributed(&mat, &e, &cfg).unwrap();
        assert_eq!(out.common_count, 2, "40/60 and 30/60 are ≥ 0.5");
    }

    #[test]
    fn mixing_raises_lambda_with_commons_present() {
        let mut freqs = vec![2usize; 50];
        freqs[0] = 58;
        let mat = matrix_with_freqs(60, &freqs);
        let e = vec![eps(0.8); 50];
        let cfg = ProtocolConfig {
            seed: 8,
            ..ProtocolConfig::default()
        };
        let out = construct_distributed(&mat, &e, &cfg).unwrap();
        assert!(out.common_count >= 1);
        assert!(out.lambda > 0.0, "λ must be positive with commons present");
    }

    #[test]
    fn errors_are_reported() {
        let mat = matrix_with_freqs(2, &[1]);
        let e = vec![eps(0.5)];
        let cfg = ProtocolConfig {
            c: 3,
            ..ProtocolConfig::default()
        };
        assert!(matches!(
            construct_distributed(&mat, &e, &cfg),
            Err(EppiError::NetworkTooSmall { .. })
        ));
        let cfg = ProtocolConfig::default();
        assert!(matches!(
            construct_distributed(&mat, &[], &cfg),
            Err(EppiError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn thresholds_follow_policy_sigma() {
        // Basic policy: σ' = 1 − ε ⇒ t = ⌈(1−ε)·m⌉.
        let t = frequency_thresholds(PolicyKind::Basic, &[eps(0.5), eps(0.8)], 100);
        assert_eq!(t, vec![50, 20]);
    }

    #[test]
    fn share_width_covers_m() {
        assert_eq!(share_width(1), 1);
        assert_eq!(share_width(2), 2);
        assert_eq!(share_width(255), 8);
        assert_eq!(share_width(256), 9);
        for m in [1usize, 7, 64, 1000] {
            assert!(1u64 << share_width(m) > m as u64);
        }
    }

    #[test]
    fn report_accounts_all_stages() {
        let mat = matrix_with_freqs(30, &[5, 10]);
        let e = vec![eps(0.4); 2];
        let out = construct_distributed(&mat, &e, &ProtocolConfig::default()).unwrap();
        assert!(out.report.secsum.messages > 0);
        assert!(out.report.count_stage.circuit.total_gates > 0);
        assert!(out.report.mix_stage.circuit.total_gates > 0);
        assert!(out.report.circuit_size() > 0);
        assert_eq!(out.report.epoch, 0, "from-scratch runs are epoch 0");
        assert_eq!(out.report.columns, 2, "full runs cover all n columns");
        // The per-phase split never exceeds the end-to-end wall time.
        let split: Duration = out.report.phases.named().iter().map(|&(_, d)| d).sum();
        assert!(
            split <= out.report.wall,
            "{split:?} > {:?}",
            out.report.wall
        );
    }

    #[test]
    fn construction_publishes_phase_telemetry() {
        use eppi_telemetry::MetricValue;

        let mat = matrix_with_freqs(30, &[5, 10]);
        let e = vec![eps(0.4); 2];
        let registry = Registry::new();
        let out =
            construct_distributed_with_registry(&mat, &e, &ProtocolConfig::default(), &registry)
                .unwrap();
        let snap = registry.snapshot();
        // One sample per phase, every phase present (incl. the
        // dedicated cleartext λ phase).
        let phases = snap.family("construct.phase_ns");
        assert_eq!(phases.len(), 6, "{snap:?}");
        for m in phases {
            match &m.value {
                MetricValue::Histogram(h) => assert_eq!(h.count, 1, "{}", m.id()),
                other => panic!("unexpected metric {other:?}"),
            }
        }
        assert_eq!(
            snap.expect("construct.gates", &[("stage", "count")])
                .unwrap()
                .value,
            MetricValue::Counter(out.report.count_stage.circuit.total_gates as u64)
        );
        assert_eq!(
            snap.expect("secsum.messages", &[]).unwrap().value,
            MetricValue::Counter(out.report.secsum.messages)
        );
    }

    #[test]
    fn measured_privacy_example() {
        let mat = matrix_with_freqs(500, &[20]);
        let e = vec![eps(0.7)];
        let cfg = ProtocolConfig {
            seed: 2,
            ..ProtocolConfig::default()
        };
        let out = construct_distributed(&mat, &e, &cfg).unwrap();
        let p = owner_privacy(&mat, &out.index, OwnerId(0));
        assert!(p.satisfies(e[0]) || p.false_positive_rate.unwrap_or(0.0) > 0.6);
    }
}
