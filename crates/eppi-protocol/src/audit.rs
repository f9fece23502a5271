//! Audited epoch construction: publication certificates and the
//! auditor gate (DESIGN.md §16).
//!
//! [`construct_epoch_audited`] / [`construct_delta_audited`] run the
//! ordinary construction and then have every provider *certify* its
//! published column: a [`ColumnCommitment`] over the column and its
//! official per-owner publication decisions, plus an MPC-in-the-head
//! [`ColumnProof`] that the column is the flip circuit's output on the
//! provider's private raw row ([`eppi_audit`]). The auditor gate
//! ([`verify_epoch`]) re-checks every certificate against *public*
//! epoch state only — it never sees a raw row — and a single failing
//! provider rejects the whole epoch with a typed [`AuditError`] before
//! anything is installed.
//!
//! The commitments (not the proofs) are what `eppi-durability`
//! persists next to each epoch: both digests are recomputable from
//! public state, so a recovery replay re-checks them without any
//! prover randomness ([`verify_commitments`]), and a WAL tamper that
//! changes any published bit surfaces as an audit error instead of a
//! silently installed epoch.

use crate::construct::ProtocolConfig;
use crate::epoch::{
    construct_delta_with_registry, construct_epoch_with_registry, DeltaConstruction, IndexEpoch,
};
use eppi_audit::{
    certify_column_with_registry, verify_column_with_registry, AuditError, AuditParams,
    ColumnCommitment, ColumnProof, ColumnStatement,
};
use eppi_core::delta::IndexDelta;
use eppi_core::error::EppiError;
use eppi_core::model::{Epsilon, MembershipMatrix, ProviderId};
use eppi_mpc::packed::words_for;
use eppi_trace::Obs;
use std::error::Error;
use std::fmt;

/// Configuration of the audit layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Proof-system parameters (repetition count).
    pub params: AuditParams,
    /// Seed driving the provers' view randomness. Folded with the
    /// epoch number and provider id, so every (epoch, provider) proof
    /// uses an independent transcript.
    pub prover_seed: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            params: AuditParams::default(),
            prover_seed: 0x5eed,
        }
    }
}

/// One provider's publication certificate for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCertificate {
    /// The provider's column + decisions commitment (persisted by the
    /// durability layer).
    pub commitment: ColumnCommitment,
    /// The MPC-in-the-head proof (verified at the gate; not
    /// persisted).
    pub proof: ColumnProof,
}

/// An epoch together with the per-provider certificates that passed
/// the auditor gate.
#[derive(Debug, Clone)]
pub struct AuditedEpoch {
    /// The constructed epoch.
    pub epoch: IndexEpoch,
    /// One certificate per provider, in provider order.
    pub certificates: Vec<EpochCertificate>,
}

/// A delta construction together with its certificates.
#[derive(Debug, Clone)]
pub struct AuditedDelta {
    /// The ordinary delta-construction result.
    pub delta: DeltaConstruction,
    /// One certificate per provider, in provider order.
    pub certificates: Vec<EpochCertificate>,
}

impl AuditedEpoch {
    /// The persisted commitments, in provider order.
    pub fn commitments(&self) -> Vec<ColumnCommitment> {
        self.certificates.iter().map(|c| c.commitment).collect()
    }
}

impl AuditedDelta {
    /// The persisted commitments, in provider order.
    pub fn commitments(&self) -> Vec<ColumnCommitment> {
        self.certificates.iter().map(|c| c.commitment).collect()
    }
}

/// Why an audited construction failed: the construction itself, or
/// the auditor gate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditedConstructError {
    /// The underlying (semi-honest) construction failed.
    Protocol(EppiError),
    /// The auditor gate rejected a certificate.
    Audit(AuditError),
}

impl fmt::Display for AuditedConstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditedConstructError::Protocol(e) => write!(f, "construction failed: {e}"),
            AuditedConstructError::Audit(e) => write!(f, "audit gate rejected: {e}"),
        }
    }
}

impl Error for AuditedConstructError {}

impl From<EppiError> for AuditedConstructError {
    fn from(e: EppiError) -> Self {
        AuditedConstructError::Protocol(e)
    }
}

impl From<AuditError> for AuditedConstructError {
    fn from(e: AuditError) -> Self {
        AuditedConstructError::Audit(e)
    }
}

/// Per-(epoch, provider) prover seed.
fn prover_seed_for(audit: &AuditConfig, epoch: u64, provider: ProviderId) -> u64 {
    audit.prover_seed
        ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(provider.0).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// One provider's packed column, at the audit layer's width: exactly
/// `words_for(owners)` words (a matrix row keeps one word even when the
/// lineage has no owners yet).
fn column(matrix: &MembershipMatrix, provider: ProviderId) -> &[u64] {
    &matrix.row_words(provider)[..words_for(matrix.owners())]
}

/// The public statement of one provider column of `epoch`.
fn statement<'a>(epoch: &'a IndexEpoch, provider: ProviderId) -> ColumnStatement<'a> {
    ColumnStatement {
        epoch_seed: epoch.config().seed,
        provider,
        betas: epoch.index().betas(),
        published: column(epoch.index().matrix(), provider),
    }
}

/// Has every provider certify its column of `epoch`: commitment plus
/// MPC-in-the-head proof. `matrix` is the *raw* membership matrix the
/// epoch was constructed from — in the distributed realization each
/// provider only ever touches its own row.
pub fn certify_epoch(
    matrix: &MembershipMatrix,
    epoch: &IndexEpoch,
    audit: &AuditConfig,
) -> Vec<EpochCertificate> {
    certify_epoch_with_registry(matrix, epoch, audit, Obs::default())
}

/// [`certify_epoch`] under a caller's observability context: telemetry
/// (`audit.proofs`, `audit.proof_bytes`, `audit.prove_ns`) into
/// `obs.registry` and one `audit.prove` span per provider under
/// `obs.parent`.
pub fn certify_epoch_with_registry<'a>(
    matrix: &MembershipMatrix,
    epoch: &IndexEpoch,
    audit: &AuditConfig,
    obs: impl Into<Obs<'a>>,
) -> Vec<EpochCertificate> {
    let obs = obs.into();
    matrix
        .provider_ids()
        .map(|provider| {
            let (commitment, proof) = certify_column_with_registry(
                &statement(epoch, provider),
                column(matrix, provider),
                &audit.params,
                prover_seed_for(audit, epoch.epoch(), provider),
                obs,
            );
            EpochCertificate { commitment, proof }
        })
        .collect()
}

/// The auditor gate: verifies every provider's certificate against
/// public epoch state. Runs before an epoch is installed or
/// journaled.
///
/// # Errors
///
/// [`AuditError::CertificateSet`] when the set does not cover the
/// providers one-to-one; otherwise the first failing certificate's
/// error, naming provider, repetition, and check.
pub fn verify_epoch(
    epoch: &IndexEpoch,
    certificates: &[EpochCertificate],
    audit: &AuditConfig,
) -> Result<(), AuditError> {
    verify_epoch_with_registry(epoch, certificates, audit, Obs::default())
}

/// [`verify_epoch`] under a caller's observability context: telemetry
/// (`audit.verified`, `audit.rejects{kind=…}`, `audit.verify_ns`) into
/// `obs.registry` and one `audit.verify` span per provider under
/// `obs.parent`.
///
/// # Errors
///
/// Same contract as [`verify_epoch`].
pub fn verify_epoch_with_registry<'a>(
    epoch: &IndexEpoch,
    certificates: &[EpochCertificate],
    audit: &AuditConfig,
    obs: impl Into<Obs<'a>>,
) -> Result<(), AuditError> {
    let obs = obs.into();
    if certificates.len() != epoch.providers() {
        return Err(AuditError::CertificateSet {
            expected: epoch.providers(),
            actual: certificates.len(),
        });
    }
    for (i, cert) in certificates.iter().enumerate() {
        let provider = ProviderId(i as u32);
        if cert.commitment.provider != provider {
            return Err(AuditError::Malformed {
                provider: provider.0,
                reason: "certificate provider order",
            });
        }
        let stmt = statement(epoch, provider);
        verify_column_with_registry(&stmt, &cert.commitment, &cert.proof, &audit.params, obs)?;
    }
    Ok(())
}

/// Re-checks persisted commitments against a (possibly replayed)
/// epoch: the recovery-side audit. Both digests are recomputable from
/// public state, so this needs no proofs — a replayed epoch whose
/// published columns or official decisions drifted from what was
/// committed at construction time fails here.
///
/// # Errors
///
/// Same per-provider errors as [`ColumnCommitment::verify`], plus
/// [`AuditError::CertificateSet`] on a count mismatch.
pub fn verify_commitments(
    epoch: &IndexEpoch,
    commitments: &[ColumnCommitment],
) -> Result<(), AuditError> {
    if commitments.len() != epoch.providers() {
        return Err(AuditError::CertificateSet {
            expected: epoch.providers(),
            actual: commitments.len(),
        });
    }
    for (i, commitment) in commitments.iter().enumerate() {
        let provider = ProviderId(i as u32);
        if commitment.provider != provider {
            return Err(AuditError::Malformed {
                provider: provider.0,
                reason: "commitment provider order",
            });
        }
        let stmt = statement(epoch, provider);
        commitment.verify(stmt.epoch_seed, stmt.betas, stmt.published)?;
    }
    Ok(())
}

/// The audit layer's half of an audited construction: every provider
/// certifies its column of the freshly built `epoch`, and the auditor
/// gate checks the certificates before the epoch is handed out.
fn certified(
    matrix: &MembershipMatrix,
    epoch: &IndexEpoch,
    audit: &AuditConfig,
    obs: Obs<'_>,
) -> Result<Vec<EpochCertificate>, AuditError> {
    let certificates = certify_epoch_with_registry(matrix, epoch, audit, obs);
    verify_epoch_with_registry(epoch, &certificates, audit, obs)?;
    Ok(certificates)
}

/// [`construct_epoch`](crate::construct_epoch) with the audit layer:
/// constructs epoch 0, certifies every provider column, and runs the
/// auditor gate before returning.
///
/// # Errors
///
/// [`AuditedConstructError::Protocol`] from the construction;
/// [`AuditedConstructError::Audit`] when the gate rejects (impossible
/// for honestly produced certificates — its presence is the gate).
pub fn construct_epoch_audited(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
    audit: &AuditConfig,
) -> Result<AuditedEpoch, AuditedConstructError> {
    construct_epoch_audited_with_registry(matrix, epsilons, config, audit, Obs::default())
}

/// [`construct_epoch_audited`] under a caller's observability context:
/// the construction's and the audit layer's telemetry go to
/// `obs.registry`, and the MPC and `audit.prove` / `audit.verify` spans
/// hang under `obs.parent`.
///
/// # Errors
///
/// Same contract as [`construct_epoch_audited`].
pub fn construct_epoch_audited_with_registry<'a>(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    config: &ProtocolConfig,
    audit: &AuditConfig,
    obs: impl Into<Obs<'a>>,
) -> Result<AuditedEpoch, AuditedConstructError> {
    let obs = obs.into();
    let epoch = construct_epoch_with_registry(matrix, epsilons, config, obs)?;
    let certificates = certified(matrix, &epoch, audit, obs)?;
    Ok(AuditedEpoch {
        epoch,
        certificates,
    })
}

/// [`construct_delta`](crate::construct_delta) with the audit layer:
/// runs the incremental construction, re-certifies every provider
/// column of the *new* epoch in full (a commitment covers a whole
/// column, so the audit's cost is that of a fresh epoch however few
/// columns the delta touched), and runs the auditor gate.
///
/// # Errors
///
/// Same contract as [`construct_epoch_audited`].
pub fn construct_delta_audited(
    prev: &IndexEpoch,
    matrix: &MembershipMatrix,
    delta: &IndexDelta,
    audit: &AuditConfig,
) -> Result<AuditedDelta, AuditedConstructError> {
    construct_delta_audited_with_registry(prev, matrix, delta, audit, Obs::default())
}

/// [`construct_delta_audited`] under a caller's observability context
/// (see [`construct_epoch_audited_with_registry`]).
///
/// # Errors
///
/// Same contract as [`construct_epoch_audited`].
pub fn construct_delta_audited_with_registry<'a>(
    prev: &IndexEpoch,
    matrix: &MembershipMatrix,
    delta: &IndexDelta,
    audit: &AuditConfig,
    obs: impl Into<Obs<'a>>,
) -> Result<AuditedDelta, AuditedConstructError> {
    let obs = obs.into();
    let delta = construct_delta_with_registry(prev, matrix, delta, obs)?;
    let certificates = certified(matrix, &delta.epoch, audit, obs)?;
    Ok(AuditedDelta {
        delta,
        certificates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
    use eppi_core::model::OwnerId;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn sample_matrix(m: usize, n: usize) -> MembershipMatrix {
        let mut mat = MembershipMatrix::new(m, n);
        for j in 0..n as u32 {
            for p in 0..((3 + j * 5) % m as u32 + 1) {
                mat.set(ProviderId(p), OwnerId(j), true);
            }
        }
        mat
    }

    fn quick_audit() -> AuditConfig {
        AuditConfig {
            params: AuditParams { repetitions: 6 },
            ..AuditConfig::default()
        }
    }

    #[test]
    fn audited_epoch_passes_its_own_gate() {
        let mat = sample_matrix(10, 20);
        let e: Vec<Epsilon> = (0..20).map(|j| eps(0.2 + (j % 5) as f64 / 10.0)).collect();
        let cfg = ProtocolConfig {
            seed: 11,
            ..ProtocolConfig::default()
        };
        let audited = construct_epoch_audited(&mat, &e, &cfg, &quick_audit()).unwrap();
        assert_eq!(audited.certificates.len(), 10);
        verify_epoch(&audited.epoch, &audited.certificates, &quick_audit()).unwrap();
        verify_commitments(&audited.epoch, &audited.commitments()).unwrap();
    }

    #[test]
    fn audited_delta_passes_and_commitments_track_the_new_epoch() {
        let mut mat = sample_matrix(10, 16);
        let e: Vec<Epsilon> = vec![eps(0.5); 16];
        let cfg = ProtocolConfig {
            seed: 3,
            ..ProtocolConfig::default()
        };
        let audit = quick_audit();
        let base = construct_epoch_audited(&mat, &e, &cfg, &audit).unwrap();

        // A new owner registers: every provider column grows, so the
        // old commitments are for the wrong column shape.
        mat.grow_owners(17);
        mat.set(ProviderId(7), OwnerId(16), true);
        let mut delta = IndexDelta::new(16);
        delta.record(DeltaEntry {
            owner: OwnerId(16),
            change: ColumnChange::Added,
            epsilon: eps(0.7),
        });
        let next = construct_delta_audited(&base.epoch, &mat, &delta, &audit).unwrap();
        verify_commitments(&next.delta.epoch, &next.commitments()).unwrap();
        assert!(verify_commitments(&next.delta.epoch, &base.commitments()).is_err());
    }

    #[test]
    fn foreign_certificates_are_rejected() {
        let mat = sample_matrix(8, 12);
        let e: Vec<Epsilon> = vec![eps(0.4); 12];
        let audit = quick_audit();
        let cfg_a = ProtocolConfig {
            seed: 1,
            ..ProtocolConfig::default()
        };
        let cfg_b = ProtocolConfig {
            seed: 2,
            ..ProtocolConfig::default()
        };
        let a = construct_epoch_audited(&mat, &e, &cfg_a, &audit).unwrap();
        let b = construct_epoch_audited(&mat, &e, &cfg_b, &audit).unwrap();
        assert!(verify_epoch(&a.epoch, &b.certificates, &audit).is_err());
        let short = &a.certificates[..7];
        assert!(matches!(
            verify_epoch(&a.epoch, short, &audit),
            Err(AuditError::CertificateSet {
                expected: 8,
                actual: 7
            })
        ));
    }
}
