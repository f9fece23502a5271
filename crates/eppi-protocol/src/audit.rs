//! Audited epoch construction: publication certificates and the
//! auditor gate (DESIGN.md §16).
//!
//! [`construct_epoch_audited`] / [`construct_delta_audited`] run the
//! ordinary construction and then have every provider *certify* its
//! published column: a [`ColumnCommitment`] over the column and its
//! official per-owner publication decisions ([`eppi_audit`]; the
//! certificate's [`ColumnProof`] is empty). The auditor gate
//! ([`verify_epoch`]) re-checks every certificate against *public*
//! epoch state only — it never sees a raw row — including `decisions ⊆
//! published`, and a single failing provider rejects the whole epoch
//! with a typed [`AuditError`] before anything is installed.
//!
//! The commitments are what `eppi-durability` persists next to each
//! epoch. Recovery ([`verify_commitments`]) runs the gate's own check,
//! [`ColumnCommitment::verify`], on the replayed epoch: a WAL or
//! checkpoint tamper that changes a published bit, or that drops a
//! decoy and re-seals the digest, surfaces as an audit error instead of
//! a silently installed epoch.

use crate::construct::ProtocolConfig;
use crate::epoch::{
    construct_delta_with_registry, construct_epoch_with_registry, DeltaConstruction, IndexEpoch,
};
use eppi_audit::{
    certify_column, verify_column_with_registry, AuditError, AuditParams, ColumnCommitment,
    ColumnProof, ColumnStatement,
};
use eppi_core::delta::IndexDelta;
use eppi_core::error::EppiError;
use eppi_core::model::{Epsilon, MembershipMatrix, ProviderId};
use eppi_mpc::packed::words_for;
use eppi_trace::Obs;
use std::error::Error;
use std::fmt;

/// Configuration of the audit layer. The check is deterministic and
/// reads public state only, so neither field is read by anything; they
/// are kept so that existing configurations still compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Audit parameters (a repetition count nothing reads).
    pub params: AuditParams,
    /// A prover seed nothing reads.
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
    /// The proof half: empty, the gate reads public state only.
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

/// Has every provider certify its column of `epoch`: a commitment over
/// public state. `matrix`, the *raw* membership matrix the epoch was
/// constructed from, gives the provider set; no certificate reads a raw
/// row, and `audit` is read by nothing.
pub fn certify_epoch(
    matrix: &MembershipMatrix,
    epoch: &IndexEpoch,
    audit: &AuditConfig,
) -> Vec<EpochCertificate> {
    certify_epoch_with_registry(matrix, epoch, audit, Obs::default())
}

/// [`certify_epoch`] under a caller's observability context: telemetry
/// (`audit.proofs`, `audit.prove_ns`) into `obs.registry` and one
/// `audit.prove` span per provider under `obs.parent`.
pub fn certify_epoch_with_registry<'a>(
    matrix: &MembershipMatrix,
    epoch: &IndexEpoch,
    _audit: &AuditConfig,
    obs: impl Into<Obs<'a>>,
) -> Vec<EpochCertificate> {
    let obs = obs.into();
    matrix
        .provider_ids()
        .map(|provider| EpochCertificate {
            commitment: certify_column(&statement(epoch, provider), obs),
            proof: ColumnProof,
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
/// error, naming the provider and the check. `audit` is read by
/// nothing.
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
    _audit: &AuditConfig,
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
        verify_column_with_registry(&statement(epoch, provider), &cert.commitment, obs)?;
    }
    Ok(())
}

/// Re-checks persisted commitments against a (possibly replayed)
/// epoch: the recovery-side audit, the gate's own check
/// ([`ColumnCommitment::verify`]) per provider. A replayed epoch whose
/// published columns or official decisions drifted from what was
/// committed at construction time, or whose columns drop a decoy,
/// fails here.
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
/// auditor gate before returning. The construction's and the audit
/// layer's telemetry go to `obs.registry`, and the MPC and
/// `audit.prove` / `audit.verify` spans hang under `obs.parent`; pass
/// `Obs::default()` for the process-global registry and no tracing.
///
/// # Errors
///
/// [`AuditedConstructError::Protocol`] from the construction;
/// [`AuditedConstructError::Audit`] when the gate rejects (impossible
/// for honestly produced certificates — its presence is the gate).
pub fn construct_epoch_audited<'a>(
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
/// columns the delta touched), and runs the auditor gate, under `obs`
/// as [`construct_epoch_audited`] is.
///
/// # Errors
///
/// Same contract as [`construct_epoch_audited`].
pub fn construct_delta_audited<'a>(
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

    #[test]
    fn audited_epoch_passes_its_own_gate() {
        let mat = sample_matrix(10, 20);
        let e: Vec<Epsilon> = (0..20).map(|j| eps(0.2 + (j % 5) as f64 / 10.0)).collect();
        let cfg = ProtocolConfig {
            seed: 11,
            ..ProtocolConfig::default()
        };
        let audited =
            construct_epoch_audited(&mat, &e, &cfg, &AuditConfig::default(), Obs::default())
                .unwrap();
        assert_eq!(audited.certificates.len(), 10);
        verify_epoch(
            &audited.epoch,
            &audited.certificates,
            &AuditConfig::default(),
        )
        .unwrap();
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
        let audit = AuditConfig::default();
        let base = construct_epoch_audited(&mat, &e, &cfg, &audit, Obs::default()).unwrap();

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
        let next =
            construct_delta_audited(&base.epoch, &mat, &delta, &audit, Obs::default()).unwrap();
        verify_commitments(&next.delta.epoch, &next.commitments()).unwrap();
        assert!(verify_commitments(&next.delta.epoch, &base.commitments()).is_err());
    }

    /// Certificates of another lineage (same raw matrix, other seed) do
    /// not certify this epoch. The columns must differ between the two
    /// seeds for that to be checkable: where every β is 1 (a dense
    /// matrix over few providers) every column is all-ones under any
    /// seed and the two certificate sets are equal, so the fixture is
    /// sparse (one provider per owner, β ≈ 0.13–0.19).
    #[test]
    fn foreign_certificates_are_rejected() {
        let mut mat = MembershipMatrix::new(40, 20);
        for j in 0..20u32 {
            mat.set(ProviderId(j % 40), OwnerId(j), true);
        }
        let e: Vec<Epsilon> = (0..20).map(|j| eps(0.2 + (j % 5) as f64 / 10.0)).collect();
        let audit = AuditConfig::default();
        let cfg_a = ProtocolConfig {
            seed: 1,
            ..ProtocolConfig::default()
        };
        let cfg_b = ProtocolConfig {
            seed: 2,
            ..ProtocolConfig::default()
        };
        let a = construct_epoch_audited(&mat, &e, &cfg_a, &audit, Obs::default()).unwrap();
        let b = construct_epoch_audited(&mat, &e, &cfg_b, &audit, Obs::default()).unwrap();
        assert_ne!(a.commitments(), b.commitments());
        assert!(matches!(
            verify_epoch(&a.epoch, &b.certificates, &audit),
            Err(AuditError::PublishedDigest { .. } | AuditError::DecisionsDigest { .. })
        ));
        let short = &a.certificates[..7];
        assert!(matches!(
            verify_epoch(&a.epoch, short, &audit),
            Err(AuditError::CertificateSet {
                expected: 40,
                actual: 7
            })
        ));
    }
}
