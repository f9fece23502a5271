//! Per-provider column commitments.
//!
//! A [`ColumnCommitment`] is what a provider signs off on when its
//! column enters an epoch, and what the durability layer persists next
//! to the epoch so recovery replays stay audit-checked: the digest of
//! the packed published column and the digest of the per-owner
//! publication decisions under the *official* β's. Both digests are
//! recomputable by the auditor from public epoch state — no prover
//! randomness is needed to re-check them after a crash. The binding of
//! the provider's *private* raw column lives in the proof's view
//! commitments ([`crate::ColumnProof`]), which is where zero-knowledge
//! is required; persisting it would add nothing recovery can verify.

use crate::error::AuditError;
use crate::flip::{decision_words, tail_mask};
use eppi_core::commit::{Digest256, Hasher256};
use eppi_core::model::ProviderId;
use eppi_mpc::packed::words_for;

/// Domain of the published-column digest.
const PUBLISHED_DOMAIN: &str = "eppi.audit.published.v1";
/// Domain of the decision digest.
const DECISIONS_DOMAIN: &str = "eppi.audit.decisions.v1";

/// One provider's publication commitment for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnCommitment {
    /// The committing provider.
    pub provider: ProviderId,
    /// Owner count the digests cover.
    pub owners: u32,
    /// Digest of the packed published column (tail lanes masked).
    pub published: Digest256,
    /// Digest of the packed per-owner decision bits under the official
    /// β's.
    pub decisions: Digest256,
}

/// Digests a packed published column.
pub fn published_digest(provider: ProviderId, owners: usize, words: &[u64]) -> Digest256 {
    column_digest(PUBLISHED_DOMAIN, provider, owners, words)
}

/// Digests packed decision bits.
pub fn decisions_digest(provider: ProviderId, owners: usize, words: &[u64]) -> Digest256 {
    column_digest(DECISIONS_DOMAIN, provider, owners, words)
}

fn column_digest(domain: &str, provider: ProviderId, owners: usize, words: &[u64]) -> Digest256 {
    assert_eq!(words.len(), words_for(owners), "packed width mismatch");
    let mut h = Hasher256::new(domain);
    h.absorb_u64(u64::from(provider.0));
    h.absorb_u64(owners as u64);
    // Mask the tail so physically different storage of the same column
    // commits identically.
    let mask = tail_mask(owners);
    for (i, &w) in words.iter().enumerate() {
        h.absorb_u64(if i + 1 == words.len() { w & mask } else { w });
    }
    h.finalize()
}

impl ColumnCommitment {
    /// Computes the honest commitment for one provider column:
    /// `published` is the packed column entering the epoch, `betas` the
    /// official per-owner publishing probabilities.
    pub fn compute(
        epoch_seed: u64,
        provider: ProviderId,
        betas: &[f64],
        published: &[u64],
    ) -> ColumnCommitment {
        let decisions = decision_words(epoch_seed, provider, betas);
        Self::over(provider, betas.len(), published, &decisions)
    }

    /// [`compute`](Self::compute) over decision words the caller has
    /// already derived (the prover feeds the same words to the circuit).
    pub(crate) fn over(
        provider: ProviderId,
        owners: usize,
        published: &[u64],
        decisions: &[u64],
    ) -> ColumnCommitment {
        ColumnCommitment {
            provider,
            owners: owners as u32,
            published: published_digest(provider, owners, published),
            decisions: decisions_digest(provider, owners, decisions),
        }
    }

    /// Auditor-side re-check against public epoch state: the installed
    /// column must match the committed digest, and the committed
    /// decisions must be the ones the official β's dictate.
    ///
    /// # Errors
    ///
    /// [`AuditError::Malformed`] on shape mismatch,
    /// [`AuditError::PublishedDigest`] /
    /// [`AuditError::DecisionsDigest`] on a digest mismatch.
    pub fn verify(
        &self,
        epoch_seed: u64,
        betas: &[f64],
        published: &[u64],
    ) -> Result<(), AuditError> {
        let official = decision_words(epoch_seed, self.provider, betas);
        self.check(betas.len(), published, &official)
    }

    /// [`verify`](Self::verify) against `official` decision words the
    /// caller has already derived from public state for `owners` owners.
    pub(crate) fn check(
        &self,
        owners: usize,
        published: &[u64],
        official: &[u64],
    ) -> Result<(), AuditError> {
        if self.owners as usize != owners {
            return Err(AuditError::Malformed {
                provider: self.provider.0,
                reason: "commitment owner count",
            });
        }
        if published.len() != words_for(owners) {
            return Err(AuditError::Malformed {
                provider: self.provider.0,
                reason: "published column width",
            });
        }
        if published_digest(self.provider, owners, published) != self.published {
            return Err(AuditError::PublishedDigest {
                provider: self.provider.0,
            });
        }
        if decisions_digest(self.provider, owners, official) != self.decisions {
            return Err(AuditError::DecisionsDigest {
                provider: self.provider.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_commitment_verifies() {
        let betas = vec![0.4; 90];
        let published: Vec<u64> = vec![0xaaaa, 0x1fff];
        let c = ColumnCommitment::compute(3, ProviderId(1), &betas, &published);
        c.verify(3, &betas, &published).unwrap();
    }

    #[test]
    fn wrong_beta_commitment_is_caught() {
        let official = vec![0.4; 90];
        let cheat = vec![0.0; 90];
        let published: Vec<u64> = vec![0, 0];
        let c = ColumnCommitment::compute(3, ProviderId(1), &cheat, &published);
        assert!(matches!(
            c.verify(3, &official, &published),
            Err(AuditError::DecisionsDigest { provider: 1 })
        ));
    }

    #[test]
    fn column_tamper_is_caught() {
        let betas = vec![0.4; 90];
        let published: Vec<u64> = vec![0xaaaa, 0x1fff];
        let c = ColumnCommitment::compute(3, ProviderId(1), &betas, &published);
        let mut tampered = published.clone();
        tampered[0] ^= 1 << 17;
        assert!(matches!(
            c.verify(3, &betas, &tampered),
            Err(AuditError::PublishedDigest { provider: 1 })
        ));
        // Tail-lane noise beyond the owner count is *not* a tamper.
        let mut padded = published;
        padded[1] |= 1 << 63;
        c.verify(3, &betas, &padded).unwrap();
    }
}
