//! The publication rule as packed words.
//!
//! Eq. 2 publishes a cell as `raw ∨ decision`, where `decision = coin <
//! T(β)` depends on public state only: the lineage seed, the provider,
//! the owner and the official β ([`eppi_core::publish::publish_cell`] on
//! a non-member cell). [`decision_words`] packs one provider column of
//! decisions, 64 owners per word; the audit checks `decisions ⊆
//! published` over them ([`crate::ColumnCommitment::verify`]).

use eppi_core::model::{OwnerId, ProviderId};
use eppi_core::publish::publish_cell;

/// Packed word count of an `owners`-bit column.
pub(crate) fn words_for(owners: usize) -> usize {
    owners.div_ceil(64)
}

/// The all-valid-lanes mask for the last word of an `owners`-bit packed
/// vector: bits past the owner count never count.
pub fn tail_mask(owners: usize) -> u64 {
    match owners % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

/// Masks the tail lanes of a packed `owners`-bit vector in place.
pub fn mask_tail(words: &mut [u64], owners: usize) {
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(owners);
    }
}

/// The packed per-owner publication *decision* bits of one provider
/// column under the official β's: lane `j` is `coin_j < T(β_j)` — what
/// the provider's committed decisions must equal, and the cells its
/// published column must contain. Lanes past the owner count are 0.
pub fn decision_words(epoch_seed: u64, provider: ProviderId, betas: &[f64]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(betas.len())];
    for (j, &beta) in betas.iter().enumerate() {
        // A decision is a decoy on a non-member cell; publish_cell with
        // member = false is exactly the decision bit.
        if publish_cell(epoch_seed, provider, OwnerId(j as u32), false, beta) {
            words[j / 64] |= 1u64 << (j % 64);
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The publication rule as a one-gate Boolean circuit, `raw ∨
    /// decision`, agrees with `publish_cell` on every cell.
    #[test]
    fn circuit_matches_publish_cell() {
        for seed in [0u64, 7, 0xdead_beef] {
            for p in 0..6u32 {
                for beta in [0.0, 0.2, 0.5, 0.93, 1.0] {
                    let decisions = decision_words(seed, ProviderId(p), &[beta; 6]);
                    for o in 0..6u32 {
                        for member in [false, true] {
                            let decision = decisions[0] >> o & 1 == 1;
                            let expect =
                                publish_cell(seed, ProviderId(p), OwnerId(o), member, beta);
                            assert_eq!(
                                member || decision,
                                expect,
                                "seed {seed} cell ({p},{o}) β {beta} member {member}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn public_words_slice_per_lane() {
        let betas = vec![0.3; 70];
        let words = decision_words(5, ProviderId(2), &betas);
        assert_eq!(words.len(), 2);
        // Lane 65 of the decision words is owner 65's decision bit.
        let expect = publish_cell(5, ProviderId(2), OwnerId(65), false, 0.3);
        assert_eq!(words[1] >> 1 & 1 == 1, expect);
        // Lanes past the owner count carry nothing.
        assert_eq!(words[1] & !tail_mask(70), 0);
        assert!(decision_words(5, ProviderId(2), &[]).is_empty());
    }

    #[test]
    fn decisions_match_cellwise_rule() {
        let betas: Vec<f64> = (0..130).map(|j| (j % 11) as f64 / 10.0).collect();
        let words = decision_words(9, ProviderId(4), &betas);
        for (j, &beta) in betas.iter().enumerate() {
            let expect = publish_cell(9, ProviderId(4), OwnerId(j as u32), false, beta);
            assert_eq!(words[j / 64] >> (j % 64) & 1 == 1, expect, "owner {j}");
        }
    }

    #[test]
    fn tail_masks() {
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        let mut words = vec![!0u64, !0];
        mask_tail(&mut words, 70);
        assert_eq!(words, vec![!0, 0x3f]);
    }
}
