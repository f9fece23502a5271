//! Column certificates: the bench-facing prove/verify pair and the
//! certify/verify steps with telemetry. A certificate is a
//! [`ColumnCommitment`] and an empty [`ColumnProof`]; why nothing more is
//! needed is in the crate docs.

use crate::commitment::ColumnCommitment;
use crate::error::AuditError;
use eppi_core::model::ProviderId;
use eppi_trace::Obs;
use std::time::Instant;

/// Default of [`AuditParams::repetitions`], which nothing reads.
pub const DEFAULT_REPETITIONS: usize = 40;

/// Audit parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditParams {
    /// Read by nothing: the check is deterministic (soundness error 0),
    /// so it has no repetitions. Kept so that callers configuring a
    /// repetition count still compile.
    pub repetitions: usize,
}

impl Default for AuditParams {
    fn default() -> Self {
        AuditParams {
            repetitions: DEFAULT_REPETITIONS,
        }
    }
}

/// The public statement one column certificate speaks about.
#[derive(Debug, Clone, Copy)]
pub struct ColumnStatement<'a> {
    /// The lineage seed driving the deterministic publication coins.
    pub epoch_seed: u64,
    /// The certifying provider.
    pub provider: ProviderId,
    /// The official per-owner publishing probabilities.
    pub betas: &'a [f64],
    /// The packed published column entering the epoch.
    pub published: &'a [u64],
}

/// The proof half of a column certificate: empty, because the check
/// reads public data only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnProof;

impl ColumnProof {
    /// Serialized size of the proof in bytes: always 0.
    pub fn size_bytes(&self) -> usize {
        0
    }
}

/// The proof half of a certificate for `stmt`: the empty
/// [`ColumnProof`]. The raw column, the parameters and the prover seed
/// are read by nothing.
pub fn prove_column(
    _stmt: &ColumnStatement<'_>,
    _raw: &[u64],
    _params: &AuditParams,
    _prover_seed: u64,
) -> ColumnProof {
    ColumnProof
}

/// Certifies one column: its [`ColumnCommitment`], under a caller's
/// observability context. Reports `audit.proofs` (certificates issued)
/// and the `audit.prove_ns` histogram into `obs.registry`, and runs as
/// an `audit.prove` span (payload: provider id) under `obs.parent`.
pub fn certify_column<'a>(stmt: &ColumnStatement<'_>, obs: impl Into<Obs<'a>>) -> ColumnCommitment {
    let obs = obs.into();
    let mut span = obs.tracer.child(obs.parent, "audit.prove");
    span.set_payload(u64::from(stmt.provider.0));
    let started = Instant::now();
    let commitment =
        ColumnCommitment::compute(stmt.epoch_seed, stmt.provider, stmt.betas, stmt.published);
    obs.registry.counter("audit.proofs", &[]).add(1);
    obs.registry
        .histogram("audit.prove_ns", &[])
        .record(started.elapsed().as_nanos() as u64);
    commitment
}

/// Verifies one column certificate against public data only: the
/// statement (official β's + the column entering the epoch) and the
/// provider's [`ColumnCommitment`]. The proof and the parameters are
/// read by nothing.
///
/// # Errors
///
/// A typed [`AuditError`] naming the provider and the failing check —
/// see [`ColumnCommitment::verify`].
pub fn verify_column(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    _proof: &ColumnProof,
    _params: &AuditParams,
) -> Result<(), AuditError> {
    verify_column_with_registry(stmt, commitment, Obs::default())
}

/// [`verify_column`] under a caller's observability context: reports
/// the `audit.verified` / `audit.rejects{kind=…}` counters and the
/// `audit.verify_ns` histogram into `obs.registry`, and runs as an
/// `audit.verify` span (payload: provider id) under `obs.parent`.
///
/// # Errors
///
/// Same contract as [`verify_column`].
pub fn verify_column_with_registry<'a>(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    obs: impl Into<Obs<'a>>,
) -> Result<(), AuditError> {
    let obs = obs.into();
    let mut span = obs.tracer.child(obs.parent, "audit.verify");
    span.set_payload(u64::from(stmt.provider.0));
    let started = Instant::now();
    let out = if commitment.provider == stmt.provider {
        commitment.verify(stmt.epoch_seed, stmt.betas, stmt.published)
    } else {
        Err(AuditError::Malformed {
            provider: stmt.provider.0,
            reason: "commitment provider",
        })
    };
    obs.registry
        .histogram("audit.verify_ns", &[])
        .record(started.elapsed().as_nanos() as u64);
    match &out {
        Ok(()) => obs.registry.counter("audit.verified", &[]).add(1),
        Err(e) => obs
            .registry
            .counter("audit.rejects", &[("kind", e.kind())])
            .add(1),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flip::{decision_words, words_for};
    use eppi_core::model::OwnerId;
    use eppi_core::publish::publish_cell;

    const SEED: u64 = 77;
    const PROVIDER: ProviderId = ProviderId(3);

    /// Per-owner β's, a raw column, and the column they honestly publish.
    fn sample(owners: usize, seed: u64) -> (Vec<f64>, Vec<u64>, Vec<u64>) {
        let betas: Vec<f64> = (0..owners).map(|j| (j % 10) as f64 / 10.0).collect();
        let mut raw = vec![0u64; words_for(owners)];
        let mut published = raw.clone();
        for (j, &beta) in betas.iter().enumerate() {
            let member = (seed ^ j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1;
            raw[j / 64] |= u64::from(member) << (j % 64);
            let bit = publish_cell(SEED, PROVIDER, OwnerId(j as u32), member, beta);
            published[j / 64] |= u64::from(bit) << (j % 64);
        }
        (betas, raw, published)
    }

    /// The statement serving `published`, with its honest commitment.
    fn statement<'a>(
        betas: &'a [f64],
        published: &'a [u64],
    ) -> (ColumnStatement<'a>, ColumnCommitment) {
        let stmt = ColumnStatement {
            epoch_seed: SEED,
            provider: PROVIDER,
            betas,
            published,
        };
        let commitment = ColumnCommitment::compute(SEED, PROVIDER, betas, published);
        (stmt, commitment)
    }

    #[test]
    fn honest_proof_verifies() {
        let (betas, raw, published) = sample(100, 1);
        let (stmt, commitment) = statement(&betas, &published);
        let params = AuditParams { repetitions: 8 };
        for prover_seed in 0..4 {
            let proof = prove_column(&stmt, &raw, &params, prover_seed);
            assert_eq!(proof.size_bytes(), 0);
            verify_column(&stmt, &commitment, &proof, &params).unwrap();
        }
    }

    #[test]
    fn bare_forms_report_to_the_global_registry_and_explicit_forms_to_the_callers() {
        use eppi_telemetry::Registry;

        let (betas, _, published) = sample(70, 5);
        let (stmt, commitment) = statement(&betas, &published);
        let params = AuditParams::default();
        let counts = |r: &Registry| {
            let get = |name| r.counter(name, &[]).get();
            (get("audit.proofs"), get("audit.verified"))
        };

        // Other tests of this process share the global registry, so the
        // bare form can only be seen to move it.
        let global = eppi_telemetry::global();
        let before = counts(global);
        verify_column(&stmt, &commitment, &ColumnProof, &params).unwrap();
        assert!(counts(global).1 > before.1);

        let mine = Registry::new();
        let certified = certify_column(&stmt, &mine);
        assert_eq!(certified, commitment);
        verify_column_with_registry(&stmt, &commitment, &mine).unwrap();
        assert_eq!(counts(&mine), (1, 1));
        let stranger = ColumnCommitment {
            provider: ProviderId(4),
            ..commitment
        };
        assert!(matches!(
            verify_column_with_registry(&stmt, &stranger, &mine),
            Err(AuditError::Malformed { provider: 3, .. })
        ));
        let rejects = mine.counter("audit.rejects", &[("kind", "malformed")]);
        assert_eq!(rejects.get(), 1);
    }

    #[test]
    fn deflipped_column_is_under_decoyed() {
        let (betas, raw, published) = sample(100, 2);
        let decisions = decision_words(SEED, PROVIDER, &betas);
        // Clear the first two decoys (published 1, raw 0: decision 1);
        // the lower one is named.
        let decoys: Vec<usize> = (0..100)
            .filter(|&j| (published[j / 64] & !raw[j / 64]) >> (j % 64) & 1 == 1)
            .take(2)
            .collect();
        assert_eq!(decoys.len(), 2);
        let mut deflipped = published.clone();
        for &j in &decoys {
            assert_eq!(decisions[j / 64] >> (j % 64) & 1, 1);
            deflipped[j / 64] ^= 1 << (j % 64);
        }
        let (stmt, commitment) = statement(&betas, &deflipped);
        let params = AuditParams::default();
        for witness in [&raw, &deflipped] {
            let proof = prove_column(&stmt, witness, &params, 9);
            assert_eq!(
                verify_column(&stmt, &commitment, &proof, &params),
                Err(AuditError::UnderDecoyed {
                    provider: 3,
                    owner: decoys[0] as u32
                })
            );
        }
    }

    #[test]
    fn empty_column_certifies_and_verifies_vacuously() {
        let (stmt, commitment) = statement(&[], &[]);
        let certified = certify_column(&stmt, Obs::default());
        assert_eq!(certified, commitment);
        let params = AuditParams { repetitions: 4 };
        verify_column(&stmt, &commitment, &ColumnProof, &params).unwrap();
        // Vacuous is not unchecked: the digests still bind the shape.
        let wider = ColumnCommitment {
            owners: 1,
            ..commitment
        };
        assert!(matches!(
            verify_column(&stmt, &wider, &ColumnProof, &params),
            Err(AuditError::Malformed { .. })
        ));
    }
}
