//! The epoch lifecycle: versioned constructions and incremental
//! (delta) refresh.
//!
//! The paper keeps ε-PPI static because naive refresh re-randomizes
//! every publication coin and hands an archiving attacker the §III-C
//! intersection attack. The epoch lifecycle makes refresh safe *and*
//! cheap:
//!
//! * **Safe** — publication coins are deterministic per cell
//!   ([`eppi_core::publish::publication_coin`]) and mix coins are
//!   deterministic per identity, both keyed by the lineage seed. A cell
//!   whose membership bit and β did not change publishes the same bit
//!   in every epoch, so intersecting archived epochs reveals nothing
//!   about untouched owners.
//! * **Cheap** — [`construct_delta`] re-runs SecSumShare, CountBelow
//!   and the mix-decision MPC over *only the touched columns* of an
//!   [`IndexDelta`]. The retained coordinator share vectors of the
//!   previous [`IndexEpoch`] let the common-identity count be updated
//!   exactly by difference (two CountBelow runs over `k` columns
//!   instead of one over `n`), so MPC gates and SecSumShare messages
//!   scale with `k = |delta|`, independent of `n − k`.
//!
//! There is one construction routine, `construct_columns`: thresholds →
//! SecSumShare → CountBelow → λ → mix → β → publish over a set of
//! touched columns, spliced into the previous epoch's state. A delta
//! runs it over the delta's columns; a from-scratch build
//! ([`construct_epoch`],
//! [`construct_distributed`](crate::construct::construct_distributed))
//! is the *genesis delta* — the same routine over all columns on top of
//! the empty lineage state. So at the same lineage seed every *touched*
//! column of a delta epoch is bit-identical — published bits, β, mix
//! decision — to a from-scratch build over the new matrix, on every MPC
//! backend, by construction; the cross-backend proptests that used to
//! define that contract now guard it against regressions.
//! Untouched columns are carried over verbatim from the previous epoch
//! (the anti-intersection invariant); they coincide with the
//! from-scratch result whenever λ has not drifted since they were last
//! constructed, and the epoch tracks λ so callers can detect drift.

use crate::construct::{
    emit_report, frequency_thresholds, share_width, ConstructionReport, PhaseWall, ProtocolConfig,
};
use crate::countbelow::{count_below_stage, run_mix_decision_for_owners, Backend};
use crate::secsum::{secsumshare_sim, secsumshare_threaded_stats};
use eppi_core::delta::IndexDelta;
use eppi_core::error::EppiError;
use eppi_core::mixing::lambda_for;
use eppi_core::model::{Epsilon, LocalVector, MembershipMatrix, OwnerId, PublishedIndex};
use eppi_core::policy::BetaPolicy;
use eppi_core::publish::publish_cell;
use eppi_mpc::field::Modulus;
use eppi_mpc::share::recombine_raw;
use eppi_trace::Obs;
use std::time::Instant;

/// One versioned construction: the published index plus the retained
/// protocol state a later [`construct_delta`] needs — per-owner mix
/// decisions, thresholds, ε's, the coordinator share vectors, and the
/// revealed common count.
///
/// The retained shares are exactly what the `c` coordinators already
/// hold at the end of a run (nothing beyond the protocol's own view is
/// kept), so retaining them weakens no secrecy property.
#[derive(Debug, Clone)]
pub struct IndexEpoch {
    index: PublishedIndex,
    decisions: Vec<bool>,
    lambda: f64,
    common_count: u64,
    epoch: u64,
    thresholds: Vec<u64>,
    epsilons: Vec<Epsilon>,
    /// `shares[k][j]`: coordinator `k`'s additive frequency share of
    /// owner `j` over `Z_{2^width}`.
    shares: Vec<Vec<u64>>,
    config: ProtocolConfig,
}

impl IndexEpoch {
    /// The published, obscured index of this epoch.
    pub fn index(&self) -> &PublishedIndex {
        &self.index
    }

    /// Consumes the epoch, returning its published index.
    pub fn into_index(self) -> PublishedIndex {
        self.index
    }

    /// Per-owner mix decisions (`true` ⇒ published with β = 1).
    pub fn decisions(&self) -> &[bool] {
        &self.decisions
    }

    /// The mixing probability λ this epoch's touched columns used.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The (exact) number of common identities in this epoch's matrix.
    pub fn common_count(&self) -> u64 {
        self.common_count
    }

    /// Epoch number: 0 for the initial construction, +1 per delta.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-owner privacy degrees of this epoch.
    pub fn epsilons(&self) -> &[Epsilon] {
        &self.epsilons
    }

    /// The protocol configuration the lineage runs under (the seed is
    /// the lineage's coin key and must not change between epochs).
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Owner count of this epoch.
    pub fn owners(&self) -> usize {
        self.index.matrix().owners()
    }

    /// Provider count of the lineage.
    pub fn providers(&self) -> usize {
        self.index.matrix().providers()
    }

    /// The public per-owner frequency thresholds `t_j` retained for the
    /// delta path.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// The retained coordinator share vectors: `shares()[k][j]` is
    /// coordinator `k`'s additive frequency share of owner `j` over
    /// `Z_{2^width}` (`width =`
    /// [`share_width`]`(m)`).
    pub fn shares(&self) -> &[Vec<u64>] {
        &self.shares
    }

    /// Decomposes the epoch into its plain state parts (the inverse of
    /// [`resume`](Self::resume)) — what the durability layer serializes.
    pub fn into_state(self) -> EpochState {
        EpochState {
            index: self.index,
            decisions: self.decisions,
            lambda: self.lambda,
            common_count: self.common_count,
            epoch: self.epoch,
            thresholds: self.thresholds,
            epsilons: self.epsilons,
            shares: self.shares,
            config: self.config,
        }
    }

    /// Rebuilds an epoch from persisted state — the resume entry point
    /// a recovered coordinator set hands to [`construct_delta`] so the
    /// lineage continues without a full re-randomized rebuild.
    ///
    /// The state is validated structurally before it is trusted: every
    /// per-owner vector must match the index's owner count, there must
    /// be exactly `config.c` share vectors, each share must lie in the
    /// protocol's share ring `Z_{2^width}`, λ must be a probability and
    /// the policy parameters must be valid. A resumed epoch is
    /// indistinguishable from the live one it was serialized from: the
    /// subsequent delta lineage is bit-identical (asserted by the
    /// `resume-after-restart` equivalence tests).
    ///
    /// # Errors
    ///
    /// [`EppiError::DimensionMismatch`] for length disagreements,
    /// [`EppiError::InvalidResumeState`] for out-of-domain values, and
    /// the policy's own parameter errors via
    /// [`PolicyKind::validate`](eppi_core::policy::PolicyKind::validate).
    pub fn resume(state: EpochState) -> Result<IndexEpoch, EppiError> {
        let n = state.index.matrix().owners();
        let m = state.index.matrix().providers();
        for (what, len) in [
            ("resumed decisions", state.decisions.len()),
            ("resumed thresholds", state.thresholds.len()),
            ("resumed epsilons", state.epsilons.len()),
        ] {
            if len != n {
                return Err(EppiError::DimensionMismatch {
                    what,
                    expected: n,
                    actual: len,
                });
            }
        }
        if state.shares.len() != state.config.c {
            return Err(EppiError::DimensionMismatch {
                what: "resumed coordinator share vectors",
                expected: state.config.c,
                actual: state.shares.len(),
            });
        }
        for vector in &state.shares {
            if vector.len() != n {
                return Err(EppiError::DimensionMismatch {
                    what: "resumed share vector length",
                    expected: n,
                    actual: vector.len(),
                });
            }
        }
        let width = share_width(m);
        if width < u64::BITS as usize {
            let ring = 1u64 << width;
            if state.shares.iter().flatten().any(|&share| share >= ring) {
                return Err(EppiError::InvalidResumeState {
                    what: "coordinator share outside the protocol share ring",
                });
            }
        }
        if !state.lambda.is_finite() || !(0.0..=1.0).contains(&state.lambda) {
            return Err(EppiError::InvalidResumeState {
                what: "lambda is not a probability",
            });
        }
        if state.common_count > n as u64 {
            return Err(EppiError::InvalidResumeState {
                what: "common count exceeds the owner population",
            });
        }
        state.config.policy.validate()?;
        Ok(IndexEpoch {
            index: state.index,
            decisions: state.decisions,
            lambda: state.lambda,
            common_count: state.common_count,
            epoch: state.epoch,
            thresholds: state.thresholds,
            epsilons: state.epsilons,
            shares: state.shares,
            config: state.config,
        })
    }
}

/// The plain-data state of an [`IndexEpoch`], as moved across a
/// serialization boundary: every retained field, public. Produced by
/// [`IndexEpoch::into_state`] and consumed (with validation) by
/// [`IndexEpoch::resume`].
#[derive(Debug, Clone)]
pub struct EpochState {
    /// The published, obscured index.
    pub index: PublishedIndex,
    /// Per-owner mix decisions.
    pub decisions: Vec<bool>,
    /// The epoch's mixing probability λ.
    pub lambda: f64,
    /// The exact common-identity count.
    pub common_count: u64,
    /// The epoch number in the lineage.
    pub epoch: u64,
    /// Public per-owner frequency thresholds.
    pub thresholds: Vec<u64>,
    /// Per-owner privacy degrees.
    pub epsilons: Vec<Epsilon>,
    /// `shares[k][j]`: coordinator `k`'s additive share of owner `j`.
    pub shares: Vec<Vec<u64>>,
    /// The lineage configuration (seed, policy, backend, link, `c`).
    pub config: ProtocolConfig,
}

/// Result of one delta construction.
#[derive(Debug, Clone)]
pub struct DeltaConstruction {
    /// The next epoch (previous index with the delta's columns
    /// re-constructed and spliced in).
    pub epoch: IndexEpoch,
    /// Cost breakdown of the incremental run: `columns = k`, MPC
    /// stages sized by `k`, `count_stage` the merge of the two
    /// k-column CountBelow runs.
    pub report: ConstructionReport,
}

/// Runs a full epoch-0 construction, retaining the protocol state the
/// delta path needs. The published index is bit-identical to
/// [`construct_distributed`] under the same config — both are the
/// genesis delta.
///
/// # Errors
///
/// Same contract as [`construct_distributed`].
///
/// [`construct_distributed`]: crate::construct::construct_distributed
pub fn construct_epoch(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
) -> Result<IndexEpoch, EppiError> {
    construct_epoch_with_registry(matrix, epsilons, config, Obs::default())
}

/// [`construct_epoch`] under a caller's observability context (same
/// metric families and spans as [`construct_distributed_with_registry`]).
///
/// [`construct_distributed_with_registry`]: crate::construct::construct_distributed_with_registry
///
/// # Errors
///
/// Same contract as [`construct_epoch`].
pub fn construct_epoch_with_registry<'a>(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
    obs: impl Into<Obs<'a>>,
) -> Result<IndexEpoch, EppiError> {
    construct_genesis(matrix, epsilons, config, obs.into()).map(|built| built.epoch)
}

/// The genesis delta: epoch 0 is every column of `matrix` constructed
/// on top of the empty lineage state (no owners, no shares, no
/// commons) — what both [`construct_epoch`] and `construct_distributed`
/// run. The SecSumShare seed at epoch 0 is the bare lineage seed.
pub(crate) fn construct_genesis(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
    obs: Obs<'_>,
) -> Result<DeltaConstruction, EppiError> {
    if epsilons.len() != matrix.owners() {
        return Err(EppiError::DimensionMismatch {
            what: "epsilons",
            expected: matrix.owners(),
            actual: epsilons.len(),
        });
    }
    config.policy.validate()?;
    let m = matrix.providers();
    if m < config.c || config.c == 0 {
        return Err(EppiError::NetworkTooSmall {
            providers: m,
            required: config.c.max(1),
        });
    }
    let empty = IndexEpoch {
        index: PublishedIndex::new(MembershipMatrix::new(m, 0), Vec::new()),
        decisions: Vec::new(),
        lambda: 0.0,
        common_count: 0,
        epoch: 0,
        thresholds: Vec::new(),
        epsilons: Vec::new(),
        shares: vec![Vec::new(); config.c],
        config: *config,
    };
    let every_column: Vec<(OwnerId, Epsilon)> =
        matrix.owner_ids().zip(epsilons.iter().copied()).collect();
    Ok(construct_columns(&empty, 0, matrix, &every_column, obs))
}

/// Runs the incremental construction for one [`IndexDelta`] on top of
/// `prev`, producing the next epoch.
///
/// `matrix` is the *new* full membership matrix (the simulation's
/// global view; each provider still only contributes its own row to
/// the protocol). Every column whose content or ε differs from the
/// previous epoch **must** appear in the delta — untouched columns are
/// carried over verbatim, so an unreported change would silently serve
/// stale bits.
///
/// The secure stages run over only the `k` touched columns: one
/// SecSumShare over column-sliced local vectors, one CountBelow over
/// the previous epoch's retained shares of the touched columns (old
/// thresholds) and one over the fresh shares (new thresholds) — the
/// exact common count follows by difference — and one mix-decision MPC
/// keyed by the global owner ids: the very routine, coins included,
/// that a from-scratch run applies to all `n` columns.
///
/// # Errors
///
/// Returns [`EppiError::DimensionMismatch`] when the matrix/delta
/// dimensions disagree with each other or with `prev`.
pub fn construct_delta(
    prev: &IndexEpoch,
    matrix: &MembershipMatrix,
    delta: &IndexDelta,
) -> Result<DeltaConstruction, EppiError> {
    construct_delta_with_registry(prev, matrix, delta, Obs::default())
}

/// [`construct_delta`] under a caller's observability context (same
/// metric families and spans as the full path).
///
/// # Errors
///
/// Same contract as [`construct_delta`].
pub fn construct_delta_with_registry<'a>(
    prev: &IndexEpoch,
    matrix: &MembershipMatrix,
    delta: &IndexDelta,
    obs: impl Into<Obs<'a>>,
) -> Result<DeltaConstruction, EppiError> {
    let obs = obs.into();
    for (what, expected, actual) in [
        ("delta base owners", prev.owners(), delta.base_owners()),
        ("delta owners", delta.owners(), matrix.owners()),
        ("providers", prev.providers(), matrix.providers()),
    ] {
        if expected != actual {
            return Err(EppiError::DimensionMismatch {
                what,
                expected,
                actual,
            });
        }
    }
    let started = Instant::now();
    let next_epoch = prev.epoch + 1;
    if delta.is_empty() {
        // Nothing changed: the next epoch is the previous one under a
        // new number; no protocol message is sent at all.
        let report = ConstructionReport {
            wall: started.elapsed(),
            epoch: next_epoch,
            ..ConstructionReport::default()
        };
        emit_report(obs.registry, &report);
        return Ok(DeltaConstruction {
            epoch: IndexEpoch {
                epoch: next_epoch,
                ..prev.clone()
            },
            report,
        });
    }
    let changed: Vec<(OwnerId, Epsilon)> = delta.entries().map(|e| (e.owner, e.epsilon)).collect();
    Ok(construct_columns(prev, next_epoch, matrix, &changed, obs))
}

/// The ε-PPI construction (Alg. 1 in the Formula 9 order) over the
/// `touched` columns of `matrix` — `(owner, new ε)` pairs in ascending
/// owner order — producing epoch number `epoch` by splicing the result
/// into `prev`. This is the only code that runs SecSumShare, CountBelow
/// and the mix-decision MPC; callers have validated the dimensions.
///
/// Columns of `touched` beyond `prev`'s owner count are new; the rest
/// existed, and their retained shares give the common count by
/// difference. With `prev` empty (genesis) every column is new, the
/// "before" CountBelow has zero columns — zero lanes, free — and the
/// difference is the plain count.
fn construct_columns(
    prev: &IndexEpoch,
    epoch: u64,
    matrix: &MembershipMatrix,
    touched: &[(OwnerId, Epsilon)],
    obs: Obs<'_>,
) -> DeltaConstruction {
    let config = prev.config;
    let started = Instant::now();
    let m = matrix.providers();
    let n_old = prev.owners();
    let n_new = matrix.owners();
    let width = share_width(m);
    let modulus = Modulus::pow2(width as u32);
    let k = touched.len();
    let (owners, touched_eps): (Vec<OwnerId>, Vec<Epsilon>) = touched.iter().copied().unzip();

    // Cleartext: splice the ε vector, then derive the public thresholds
    // of the touched columns from their public ε's (Formula 9
    // push-down).
    let phase = Instant::now();
    let mut epsilons = prev.epsilons.clone();
    epsilons.resize(n_new, Epsilon::ZERO);
    for &(owner, epsilon) in touched {
        epsilons[owner.index()] = epsilon;
    }
    let new_thresholds = frequency_thresholds(config.policy, &touched_eps, m);
    let thresholds_wall = phase.elapsed();

    // Phase 1.1 — SecSumShare over the k touched columns only: every
    // provider contributes a k-bit slice of its row, so the message
    // count is m·c regardless of n.
    let phase = Instant::now();
    let vectors: Vec<LocalVector> = matrix
        .provider_ids()
        .map(|p| {
            let mut v = LocalVector::new(p, k);
            for (t, &owner) in owners.iter().enumerate() {
                if matrix.get(p, owner) {
                    v.set(OwnerId(t as u32), true);
                }
            }
            v
        })
        .collect();
    let secsum_seed = config.seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Every backend sums on this thread; only the lockstep ones price
    // the exchanges in simulated time.
    let secsum = match config.backend {
        Backend::Threaded | Backend::Pipelined { .. } => {
            secsumshare_threaded_stats(&vectors, config.c, modulus, secsum_seed)
        }
        Backend::InProcess | Backend::Simulated => {
            secsumshare_sim(&vectors, config.c, modulus, config.link, secsum_seed)
        }
    };
    let secsum_wall = phase.elapsed();

    // Phase 1.2a — update the common count by difference: one
    // CountBelow over the *retained* shares of the touched columns
    // that already existed (old thresholds), one over the fresh shares
    // (new thresholds). Untouched columns keep their common status, so
    // the difference is exact. Added columns have no `existing` entry:
    // zero columns, zero lanes, no MPC.
    let phase = Instant::now();
    let existing: Vec<usize> = owners
        .iter()
        .map(|o| o.index())
        .filter(|&j| j < n_old)
        .collect();
    let old_shares: Vec<Vec<u64>> = prev
        .shares
        .iter()
        .map(|v| existing.iter().map(|&j| v[j]).collect())
        .collect();
    let old_thresholds: Vec<u64> = existing.iter().map(|&j| prev.thresholds[j]).collect();
    let (commons_before, count_old) = count_below_stage(
        &old_shares,
        &old_thresholds,
        width,
        config.backend,
        config.link,
        config.seed ^ 0xcb ^ epoch.wrapping_mul(0x5851_f42d_4c95_7f2d),
        obs,
    );
    let (commons_after, count_new) = count_below_stage(
        &secsum.coordinator_shares,
        &new_thresholds,
        width,
        config.backend,
        config.link,
        config.seed ^ 0xcb ^ (epoch | 1 << 63).wrapping_mul(0x5851_f42d_4c95_7f2d),
        obs,
    );
    let common_count = prev.common_count - commons_before + commons_after;
    let count_stage = count_old.merge(count_new);
    let count_wall = phase.elapsed();

    // Cleartext λ from the revealed count (Eq. 7), with the conservative
    // ξ = max ε over the whole spliced ε vector — O(n) on public data;
    // the O(k) bound covers the secure stages, not public scans. Timed
    // on its own so the adjacent MPC phase timings stay pure MPC.
    let phase = Instant::now();
    let xi = epsilons.iter().map(|e| e.value()).fold(0.0f64, f64::max);
    let lambda = lambda_for(common_count as usize, n_new, xi);
    let lambda_wall = phase.elapsed();

    // Phase 1.2b — mix decisions for the touched columns, with coins
    // keyed by global owner id under the *lineage* seed, so a column's
    // coins do not depend on which other columns share its batch.
    let phase = Instant::now();
    let (touched_decisions, mix_stage) = run_mix_decision_for_owners(
        &secsum.coordinator_shares,
        &new_thresholds,
        &owners,
        width,
        config.coin_bits,
        lambda,
        config.backend,
        config.link,
        config.seed ^ 0x313,
        obs,
    );
    let mix_wall = phase.elapsed();

    // Cleartext: reconstruct frequencies only for β*-published
    // identities and evaluate the policy on the revealed σ; mixed and
    // common identities' frequencies are never revealed.
    let phase = Instant::now();
    let touched_betas: Vec<f64> = touched_decisions
        .iter()
        .enumerate()
        .map(|(t, &mixed)| {
            if mixed {
                1.0
            } else {
                let parts: Vec<u64> = secsum.coordinator_shares.iter().map(|v| v[t]).collect();
                let freq = recombine_raw(&parts, modulus);
                let sigma = freq as f64 / m as f64;
                config.policy.beta(sigma, touched_eps[t], m)
            }
        })
        .collect();

    // Splice everything into the previous epoch's state.
    let mut published = prev.index.matrix().clone();
    published.grow_owners(n_new);
    let mut betas = prev.index.betas().to_vec();
    betas.resize(n_new, 0.0);
    let mut decisions = prev.decisions.clone();
    decisions.resize(n_new, false);
    let mut thresholds = prev.thresholds.clone();
    thresholds.resize(n_new, 0);
    let mut shares = prev.shares.clone();
    for v in &mut shares {
        v.resize(n_new, 0);
    }
    for (t, &owner) in owners.iter().enumerate() {
        let j = owner.index();
        betas[j] = touched_betas[t];
        decisions[j] = touched_decisions[t];
        thresholds[j] = new_thresholds[t];
        for (coord, v) in shares.iter_mut().enumerate() {
            v[j] = secsum.coordinator_shares[coord][t];
        }
    }

    // Phase 2 — randomized publication of the touched cells, locally
    // at every provider, under the deterministic per-cell coins keyed
    // by (lineage seed, provider, owner): cells whose membership bit
    // and β don't change publish identically in every epoch of the
    // lineage, which is the anti-intersection invariant (DESIGN.md §10).
    for p in matrix.provider_ids() {
        for &owner in &owners {
            let beta = betas[owner.index()];
            let bit = publish_cell(config.seed, p, owner, matrix.get(p, owner), beta);
            published.set(p, owner, bit);
        }
    }
    let publish_wall = phase.elapsed();

    let report = ConstructionReport {
        secsum: secsum.stats,
        count_stage,
        mix_stage,
        phases: PhaseWall {
            thresholds: thresholds_wall,
            secsum: secsum_wall,
            count: count_wall,
            lambda: lambda_wall,
            mix: mix_wall,
            publish: publish_wall,
        },
        wall: started.elapsed(),
        epoch,
        columns: k,
    };
    emit_report(obs.registry, &report);

    DeltaConstruction {
        epoch: IndexEpoch {
            index: PublishedIndex::new(published, betas),
            decisions,
            lambda,
            common_count,
            epoch,
            thresholds,
            epsilons,
            shares,
            config,
        },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_distributed;
    use eppi_core::delta::{ColumnChange, DeltaEntry};
    use eppi_core::model::ProviderId;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
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
    fn epoch_zero_matches_construct_distributed() {
        let mat = matrix_with_freqs(40, &[30, 4, 17, 0]);
        let e = vec![eps(0.5), eps(0.7), eps(0.2), eps(0.9)];
        let cfg = ProtocolConfig {
            seed: 11,
            ..ProtocolConfig::default()
        };
        let epoch = construct_epoch(&mat, &e, &cfg).unwrap();
        let full = construct_distributed(&mat, &e, &cfg).unwrap();
        assert_eq!(epoch.index(), &full.index);
        assert_eq!(epoch.decisions(), &full.decisions[..]);
        assert_eq!(epoch.common_count(), full.common_count);
        assert_eq!(epoch.epoch(), 0);
    }

    #[test]
    fn delta_equals_full_construction_on_touched_columns() {
        let mat = matrix_with_freqs(40, &[30, 4, 17, 8]);
        let e = vec![eps(0.5), eps(0.7), eps(0.2), eps(0.9)];
        let cfg = ProtocolConfig {
            seed: 3,
            ..ProtocolConfig::default()
        };
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();

        // Change owner 1's membership, add owner 4.
        let mut next = mat.clone();
        next.grow_owners(5);
        next.set(ProviderId(20), OwnerId(1), true);
        next.set(ProviderId(21), OwnerId(1), true);
        for p in 0..6u32 {
            next.set(ProviderId(p), OwnerId(4), true);
        }
        let mut e2 = e.clone();
        e2.push(eps(0.6));
        let mut delta = IndexDelta::new(4);
        delta.record(DeltaEntry {
            owner: OwnerId(1),
            change: ColumnChange::Changed,
            epsilon: e2[1],
        });
        delta.record(DeltaEntry {
            owner: OwnerId(4),
            change: ColumnChange::Added,
            epsilon: e2[4],
        });

        let out = construct_delta(&epoch0, &next, &delta).unwrap();
        let full = construct_distributed(&next, &e2, &cfg).unwrap();

        assert_eq!(out.report.columns, 2);
        assert_eq!(out.report.epoch, 1);
        assert_eq!(out.epoch.common_count(), full.common_count, "exact count");
        assert_eq!(out.epoch.lambda(), full.lambda);
        // Touched columns bit-identical to the from-scratch run.
        for &owner in &[OwnerId(1), OwnerId(4)] {
            let j = owner.index();
            assert_eq!(out.epoch.index().betas()[j], full.index.betas()[j]);
            assert_eq!(out.epoch.decisions()[j], full.decisions[j]);
            for p in next.provider_ids() {
                assert_eq!(
                    out.epoch.index().matrix().get(p, owner),
                    full.index.matrix().get(p, owner),
                    "({p}, {owner})"
                );
            }
        }
        // Untouched columns carried over verbatim (anti-intersection).
        for owner in [OwnerId(0), OwnerId(2), OwnerId(3)] {
            for p in next.provider_ids() {
                assert_eq!(
                    out.epoch.index().matrix().get(p, owner),
                    epoch0.index().matrix().get(p, owner),
                    "({p}, {owner})"
                );
            }
        }
    }

    #[test]
    fn empty_delta_is_free_and_bumps_the_epoch() {
        let mat = matrix_with_freqs(30, &[10, 5]);
        let e = vec![eps(0.4); 2];
        let cfg = ProtocolConfig::default();
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let out = construct_delta(&epoch0, &mat, &IndexDelta::new(2)).unwrap();
        assert_eq!(out.epoch.epoch(), 1);
        assert_eq!(out.epoch.index(), epoch0.index());
        assert_eq!(out.report.columns, 0);
        assert_eq!(out.report.secsum.messages, 0);
        assert_eq!(out.report.count_stage.circuit.total_gates, 0);
    }

    #[test]
    fn withdrawals_zero_the_column() {
        let mat = matrix_with_freqs(30, &[10, 5]);
        let e = vec![eps(0.4); 2];
        let cfg = ProtocolConfig {
            seed: 9,
            ..ProtocolConfig::default()
        };
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let mut next = mat.clone();
        for p in next.provider_ids() {
            next.set(p, OwnerId(1), false);
        }
        let mut delta = IndexDelta::new(2);
        delta.record(DeltaEntry {
            owner: OwnerId(1),
            change: ColumnChange::Withdrawn,
            epsilon: Epsilon::ZERO,
        });
        let out = construct_delta(&epoch0, &next, &delta).unwrap();
        // ε = 0 ⇒ β* = 0 for a zero-frequency column unless mixed; if
        // mixed the column is all decoys — either way recall over the
        // *new* truth (nothing) holds and the column matches a full run.
        let full = construct_distributed(&next, &[e[0], Epsilon::ZERO], &cfg).unwrap();
        for p in next.provider_ids() {
            assert_eq!(
                out.epoch.index().matrix().get(p, OwnerId(1)),
                full.index.matrix().get(p, OwnerId(1))
            );
        }
    }

    #[test]
    fn resume_is_the_identity_on_live_epochs() {
        let mat = matrix_with_freqs(40, &[30, 4, 17, 8]);
        let e = vec![eps(0.5), eps(0.7), eps(0.2), eps(0.9)];
        let cfg = ProtocolConfig {
            seed: 5,
            ..ProtocolConfig::default()
        };
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let resumed = IndexEpoch::resume(epoch0.clone().into_state()).expect("valid state");
        assert_eq!(resumed.index(), epoch0.index());
        assert_eq!(resumed.decisions(), epoch0.decisions());
        assert_eq!(resumed.thresholds(), epoch0.thresholds());
        assert_eq!(resumed.shares(), epoch0.shares());
        assert_eq!(resumed.common_count(), epoch0.common_count());
        assert_eq!(resumed.epoch(), epoch0.epoch());

        // The resumed epoch continues the lineage bit-identically.
        let mut next = mat.clone();
        next.set(ProviderId(11), OwnerId(2), true);
        let mut delta = IndexDelta::new(4);
        delta.record(DeltaEntry {
            owner: OwnerId(2),
            change: ColumnChange::Changed,
            epsilon: e[2],
        });
        let live = construct_delta(&epoch0, &next, &delta).unwrap();
        let cold = construct_delta(&resumed, &next, &delta).unwrap();
        assert_eq!(live.epoch.index(), cold.epoch.index());
        assert_eq!(live.epoch.decisions(), cold.epoch.decisions());
        assert_eq!(live.epoch.common_count(), cold.epoch.common_count());
    }

    #[test]
    fn resume_rejects_inconsistent_state() {
        let mat = matrix_with_freqs(20, &[10, 5, 3]);
        let e = vec![eps(0.4); 3];
        let epoch0 = construct_epoch(&mat, &e, &ProtocolConfig::default()).unwrap();

        let mut short = epoch0.clone().into_state();
        short.decisions.pop();
        assert!(matches!(
            IndexEpoch::resume(short),
            Err(EppiError::DimensionMismatch { .. })
        ));

        let mut wide = epoch0.clone().into_state();
        wide.shares.push(vec![0; 3]);
        assert!(matches!(
            IndexEpoch::resume(wide),
            Err(EppiError::DimensionMismatch { .. })
        ));

        let mut ring = epoch0.clone().into_state();
        ring.shares[0][0] = u64::MAX;
        assert!(matches!(
            IndexEpoch::resume(ring),
            Err(EppiError::InvalidResumeState { .. })
        ));

        let mut lam = epoch0.clone().into_state();
        lam.lambda = 2.5;
        assert!(matches!(
            IndexEpoch::resume(lam),
            Err(EppiError::InvalidResumeState { .. })
        ));

        let mut count = epoch0.into_state();
        count.common_count = 99;
        assert!(matches!(
            IndexEpoch::resume(count),
            Err(EppiError::InvalidResumeState { .. })
        ));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mat = matrix_with_freqs(30, &[10, 5]);
        let e = vec![eps(0.4); 2];
        let epoch0 = construct_epoch(&mat, &e, &ProtocolConfig::default()).unwrap();
        // Delta based on the wrong owner count.
        let bad = IndexDelta::new(3);
        assert!(matches!(
            construct_delta(&epoch0, &mat, &bad),
            Err(EppiError::DimensionMismatch { .. })
        ));
        // Matrix owner count disagrees with the delta's target.
        let mut grown = mat.clone();
        grown.grow_owners(4);
        assert!(matches!(
            construct_delta(&epoch0, &grown, &IndexDelta::new(2)),
            Err(EppiError::DimensionMismatch { .. })
        ));
    }
}
