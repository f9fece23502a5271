//! Per-provider column commitments and the one audit check.
//!
//! A [`ColumnCommitment`] is what a provider signs off on when its
//! column enters an epoch, and what the durability layer persists next
//! to the epoch so recovery replays stay audit-checked: the digest of
//! the packed published column and the digest of the per-owner
//! publication decisions under the *official* β's. Both digests, and
//! the publication rule itself (`decisions ⊆ published`), are
//! recomputable by the auditor from public epoch state, so the gate and
//! recovery run the same check ([`ColumnCommitment::verify`]).

use crate::error::AuditError;
use crate::flip::{decision_words, tail_mask, words_for};
use eppi_core::commit::{Digest256, Hasher256};
use eppi_core::model::ProviderId;

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
        let owners = betas.len();
        ColumnCommitment {
            provider,
            owners: owners as u32,
            published: published_digest(provider, owners, published),
            decisions: decisions_digest(provider, owners, &decisions),
        }
    }

    /// The audit check, against public epoch state: the installed
    /// column must match the committed digest, the committed decisions
    /// must be the ones the official β's dictate, and every owner whose
    /// official decision is 1 must be published (`decisions ⊆
    /// published`, all of Eq. 2 that does not depend on the private raw
    /// column). The auditor gate and recovery both end here.
    ///
    /// # Errors
    ///
    /// [`AuditError::Malformed`] on shape mismatch,
    /// [`AuditError::PublishedDigest`] /
    /// [`AuditError::DecisionsDigest`] on a digest mismatch,
    /// [`AuditError::UnderDecoyed`] naming the first owner whose decoy
    /// is missing.
    pub fn verify(
        &self,
        epoch_seed: u64,
        betas: &[f64],
        published: &[u64],
    ) -> Result<(), AuditError> {
        let provider = self.provider.0;
        let owners = betas.len();
        if self.owners as usize != owners {
            return Err(AuditError::Malformed {
                provider,
                reason: "commitment owner count",
            });
        }
        if published.len() != words_for(owners) {
            return Err(AuditError::Malformed {
                provider,
                reason: "published column width",
            });
        }
        if published_digest(self.provider, owners, published) != self.published {
            return Err(AuditError::PublishedDigest { provider });
        }
        let official = decision_words(epoch_seed, self.provider, betas);
        if decisions_digest(self.provider, owners, &official) != self.decisions {
            return Err(AuditError::DecisionsDigest { provider });
        }
        // Decision words carry no lanes past the owner count, so dirty
        // tail bits of the stored column never matter here.
        for (w, (&d, &p)) in official.iter().zip(published).enumerate() {
            let missing = d & !p;
            if missing != 0 {
                return Err(AuditError::UnderDecoyed {
                    provider,
                    owner: (w * 64) as u32 + missing.trailing_zeros(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 3;
    const PROVIDER: ProviderId = ProviderId(1);

    /// The honest column of 90 owners at β = 0.4 over a sparse raw one.
    fn honest(betas: &[f64]) -> Vec<u64> {
        let mut column = decision_words(SEED, PROVIDER, betas);
        column[0] |= 0xaaaa;
        column
    }

    #[test]
    fn honest_commitment_verifies() {
        let betas = vec![0.4; 90];
        let published = honest(&betas);
        let c = ColumnCommitment::compute(SEED, PROVIDER, &betas, &published);
        c.verify(SEED, &betas, &published).unwrap();
        // Extra decoys are outside what the check decides.
        let mut extra = published;
        extra[1] |= 0x1fff;
        let c = ColumnCommitment::compute(SEED, PROVIDER, &betas, &extra);
        c.verify(SEED, &betas, &extra).unwrap();
    }

    #[test]
    fn wrong_beta_commitment_is_caught() {
        let official = vec![0.4; 90];
        let cheat = vec![0.0; 90];
        let published: Vec<u64> = vec![0, 0];
        let c = ColumnCommitment::compute(SEED, PROVIDER, &cheat, &published);
        assert!(matches!(
            c.verify(SEED, &official, &published),
            Err(AuditError::DecisionsDigest { provider: 1 })
        ));
    }

    #[test]
    fn column_tamper_is_caught() {
        let betas = vec![0.4; 90];
        let published = honest(&betas);
        let c = ColumnCommitment::compute(SEED, PROVIDER, &betas, &published);
        let mut tampered = published.clone();
        tampered[0] ^= 1 << 17;
        assert!(matches!(
            c.verify(SEED, &betas, &tampered),
            Err(AuditError::PublishedDigest { provider: 1 })
        ));
        // Tail-lane noise beyond the owner count is *not* a tamper.
        let mut padded = published;
        padded[1] |= 1 << 63;
        c.verify(SEED, &betas, &padded).unwrap();
    }
}
