//! Randomized publication (Eq. 2, phase 2 of the construction).
//!
//! Given the per-identity publishing probabilities `β_j`, every provider
//! *independently* publishes its private membership vector:
//!
//! ```text
//! 1 → 1                      (truthful — guarantees 100% recall)
//! 0 → 1 with probability β_j (false positive — obscures membership)
//!   → 0 otherwise
//! ```
//!
//! Each provider runs the same random process on its own row, which is why
//! the distributed realization needs no coordination for this phase.

use crate::model::{LocalVector, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use rand::Rng;

/// The deterministic per-cell publication coin of the epoch lifecycle:
/// a uniform draw from `[0, 1)` keyed by `(epoch_seed, provider,
/// owner)` through a splitmix64-style finalizer.
///
/// Because the coin depends only on the cell's coordinates and the
/// lineage seed — never on the epoch number or on any other cell — a
/// cell whose membership bit and β are unchanged publishes the *same*
/// bit in every epoch. That is the anti-intersection invariant of
/// DESIGN.md §10: archiving consecutive epochs and intersecting them
/// (the §III-C re-publication attack) learns nothing about untouched
/// owners that a single epoch didn't already reveal.
pub fn publication_coin(epoch_seed: u64, provider: ProviderId, owner: OwnerId) -> f64 {
    // Top 53 bits → the unit interval, the standard f64 construction.
    publication_coin_bits(epoch_seed, provider, owner) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer form of the publication coin: the top 53 bits of the
/// cell hash, i.e. `k` with `coin = k / 2^53`. Compared against
/// [`publication_threshold`] it is the integer form of the decision
/// bit the audit layer derives from public state — *exactly*
/// equivalent to the floating-point comparison in [`publish_cell`]
/// (see `integer_threshold_matches_float_comparison`).
pub fn publication_coin_bits(epoch_seed: u64, provider: ProviderId, owner: OwnerId) -> u64 {
    let mut h = epoch_seed
        ^ (u64::from(provider.0) + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)
        ^ (u64::from(owner.0) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h >> 11
}

/// The integer decision threshold for `beta`: the smallest `T` with
/// `coin < beta ⟺ publication_coin_bits < T` for every possible coin.
///
/// With `k = coin · 2^53` an integer in `[0, 2^53)`, `k/2^53 < β ⟺
/// k < β·2^53 ⟺ k < ⌈β·2^53⌉` (the scaling by a power of two is exact
/// in `f64`, and `k` is an integer, so rounding the bound up never
/// crosses an achievable `k`). `β ≤ 0 → T = 0` (never decoys, matching
/// the `beta > 0.0` guard) and `β ≥ 1 → T = 2^53` (always), so `T`
/// always fits in 54 bits.
pub fn publication_threshold(beta: f64) -> u64 {
    (beta.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
}

/// Publishes one cell under the deterministic coin: truthful on
/// members, a decoy iff the cell's coin falls below `beta`.
pub fn publish_cell(
    epoch_seed: u64,
    provider: ProviderId,
    owner: OwnerId,
    member: bool,
    beta: f64,
) -> bool {
    member || (beta > 0.0 && publication_coin(epoch_seed, provider, owner) < beta)
}

/// [`publish_vector`] with the deterministic per-cell coins instead of
/// a sequential RNG stream — the provider-local publication step of the
/// epoch lifecycle. Cells whose membership and β are unchanged produce
/// the same published bit at every epoch of the lineage.
///
/// # Panics
///
/// Panics if `betas.len()` differs from the vector's owner count.
pub fn publish_vector_at(vector: &LocalVector, betas: &[f64], epoch_seed: u64) -> LocalVector {
    assert_eq!(vector.owners(), betas.len(), "one β per owner required");
    let mut out = LocalVector::new(vector.provider(), vector.owners());
    for (j, &beta) in betas.iter().enumerate() {
        let owner = OwnerId(j as u32);
        if publish_cell(
            epoch_seed,
            vector.provider(),
            owner,
            vector.get(owner),
            beta,
        ) {
            out.set(owner, true);
        }
    }
    out
}

/// [`publish_matrix`] with the deterministic per-cell coins: every
/// provider runs [`publish_vector_at`] on its own row under the shared
/// lineage seed. This is the publication step `eppi-protocol` uses for
/// epoch-versioned constructions.
///
/// # Panics
///
/// Panics if `betas.len()` differs from the matrix owner count.
pub fn publish_matrix_at(
    matrix: &MembershipMatrix,
    betas: &[f64],
    epoch_seed: u64,
) -> PublishedIndex {
    assert_eq!(matrix.owners(), betas.len(), "one β per owner required");
    let mut published = MembershipMatrix::new(matrix.providers(), matrix.owners());
    for provider in matrix.provider_ids() {
        let row = publish_vector_at(&matrix.row(provider), betas, epoch_seed);
        published.set_row(&row);
    }
    PublishedIndex::new(published, betas.to_vec())
}

/// Publishes one provider's local vector under the given per-owner β
/// values — the operation a single provider performs locally in the
/// distributed protocol.
///
/// # Panics
///
/// Panics if `betas.len()` differs from the vector's owner count.
pub fn publish_vector<R: Rng + ?Sized>(
    vector: &LocalVector,
    betas: &[f64],
    rng: &mut R,
) -> LocalVector {
    assert_eq!(vector.owners(), betas.len(), "one β per owner required");
    let mut out = LocalVector::new(vector.provider(), vector.owners());
    for (j, &beta) in betas.iter().enumerate() {
        let owner = OwnerId(j as u32);
        let bit = if vector.get(owner) {
            true
        } else {
            beta > 0.0 && rng.gen::<f64>() < beta
        };
        if bit {
            out.set(owner, true);
        }
    }
    out
}

/// Publishes the whole matrix (all providers) under the given per-owner β
/// values, producing the public index `M'`.
///
/// This is the trusted/centralized equivalent of every provider running
/// [`publish_vector`] on its own row; the two agree exactly when driven by
/// the same per-row random streams.
///
/// # Panics
///
/// Panics if `betas.len()` differs from the matrix owner count.
///
/// ```
/// use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId};
/// use eppi_core::publish::publish_matrix;
/// use rand::SeedableRng;
/// let mut m = MembershipMatrix::new(3, 1);
/// m.set(ProviderId(0), OwnerId(0), true);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let idx = publish_matrix(&m, &[1.0], &mut rng);
/// // β = 1 publishes every provider for the owner.
/// assert_eq!(idx.query(OwnerId(0)).len(), 3);
/// ```
pub fn publish_matrix<R: Rng + ?Sized>(
    matrix: &MembershipMatrix,
    betas: &[f64],
    rng: &mut R,
) -> PublishedIndex {
    assert_eq!(matrix.owners(), betas.len(), "one β per owner required");
    let mut published = MembershipMatrix::new(matrix.providers(), matrix.owners());
    for provider in matrix.provider_ids() {
        let row = publish_vector(&matrix.row(provider), betas, rng);
        published.set_row(&row);
    }
    PublishedIndex::new(published, betas.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProviderId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn truthful_rule_preserves_positives() {
        let mut m = MembershipMatrix::new(10, 4);
        for p in 0..10u32 {
            m.set(ProviderId(p), OwnerId(p % 4), true);
        }
        let mut rng = StdRng::seed_from_u64(11);
        let idx = publish_matrix(&m, &[0.0, 0.3, 0.7, 1.0], &mut rng);
        for p in m.provider_ids() {
            for o in m.owner_ids() {
                if m.get(p, o) {
                    assert!(idx.matrix().get(p, o), "lost positive at ({p}, {o})");
                }
            }
        }
    }

    #[test]
    fn beta_zero_publishes_exactly_the_truth() {
        let mut m = MembershipMatrix::new(20, 2);
        m.set(ProviderId(3), OwnerId(0), true);
        m.set(ProviderId(7), OwnerId(1), true);
        let mut rng = StdRng::seed_from_u64(5);
        let idx = publish_matrix(&m, &[0.0, 0.0], &mut rng);
        assert_eq!(idx.matrix(), &m);
    }

    #[test]
    fn beta_one_publishes_everything() {
        let m = MembershipMatrix::new(15, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let idx = publish_matrix(&m, &[1.0, 1.0, 1.0], &mut rng);
        assert_eq!(idx.matrix().ones(), 15 * 3);
    }

    #[test]
    fn false_positive_rate_tracks_beta() {
        // One owner, no true positives, β = 0.3 over 20 000 providers.
        let m = MembershipMatrix::new(20_000, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let idx = publish_matrix(&m, &[0.3], &mut rng);
        let rate = idx.published_frequency(OwnerId(0)) as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed flip rate {rate}");
    }

    #[test]
    fn publish_vector_matches_matrix_row_semantics() {
        let mut v = LocalVector::new(ProviderId(0), 5);
        v.set(OwnerId(2), true);
        let mut rng = StdRng::seed_from_u64(3);
        let out = publish_vector(&v, &[0.0; 5], &mut rng);
        assert!(out.get(OwnerId(2)));
        assert_eq!(out.ones(), 1);
    }

    #[test]
    #[should_panic(expected = "one β per owner")]
    fn wrong_beta_len_panics() {
        let m = MembershipMatrix::new(2, 3);
        let mut rng = StdRng::seed_from_u64(0);
        publish_matrix(&m, &[0.1], &mut rng);
    }

    #[test]
    fn deterministic_coins_are_uniform_and_stable() {
        // Stability: the coin is a pure function of (seed, cell).
        let a = publication_coin(7, ProviderId(3), OwnerId(9));
        let b = publication_coin(7, ProviderId(3), OwnerId(9));
        assert_eq!(a, b);
        assert_ne!(a, publication_coin(8, ProviderId(3), OwnerId(9)));
        // Uniformity: the empirical mean over many cells is ~1/2.
        let mut sum = 0.0;
        let cells = 40_000;
        for p in 0..200u32 {
            for o in 0..200u32 {
                let coin = publication_coin(42, ProviderId(p), OwnerId(o));
                assert!((0.0..1.0).contains(&coin));
                sum += coin;
            }
        }
        let mean = sum / f64::from(cells);
        assert!((mean - 0.5).abs() < 0.01, "coin mean {mean}");
    }

    #[test]
    fn integer_threshold_matches_float_comparison() {
        // The audit circuit replaces `coin < β` (f64) by
        // `coin_bits < threshold(β)` (54-bit integer compare). The two
        // must agree for every cell, including the β = 0 guard and the
        // always-decoy β = 1 edge.
        let betas = [
            0.0,
            1e-17,
            0.1,
            0.25,
            0.3,
            0.5,
            1.0 / 3.0,
            0.875,
            0.999_999,
            1.0,
        ];
        for &beta in &betas {
            let t = publication_threshold(beta);
            assert!(t <= 1 << 53);
            for p in 0..40u32 {
                for o in 0..40u32 {
                    let (provider, owner) = (ProviderId(p), OwnerId(o));
                    let float = publish_cell(31, provider, owner, false, beta);
                    let integer = publication_coin_bits(31, provider, owner) < t;
                    assert_eq!(float, integer, "β = {beta}, cell ({p}, {o})");
                }
            }
        }
        // Exactly-representable β: T is the exact product, and a coin
        // sitting exactly on the boundary is *not* below it.
        assert_eq!(publication_threshold(0.5), 1 << 52);
        assert_eq!(publication_threshold(0.0), 0);
        assert_eq!(publication_threshold(1.0), 1 << 53);
        assert_eq!(publication_threshold(-0.5), 0, "clamped below");
        assert_eq!(publication_threshold(1.5), 1 << 53, "clamped above");
    }

    #[test]
    fn coin_bits_are_the_coin_mantissa() {
        for p in 0..10u32 {
            for o in 0..10u32 {
                let k = publication_coin_bits(9, ProviderId(p), OwnerId(o));
                assert!(k < 1 << 53);
                let coin = publication_coin(9, ProviderId(p), OwnerId(o));
                assert_eq!(coin, k as f64 * (1.0 / (1u64 << 53) as f64));
            }
        }
    }

    #[test]
    fn deterministic_publication_is_truthful_and_tracks_beta() {
        let mut m = MembershipMatrix::new(20_000, 2);
        for p in 0..500u32 {
            m.set(ProviderId(p), OwnerId(0), true);
        }
        let idx = publish_matrix_at(&m, &[0.3, 0.0], 99);
        for p in 0..500u32 {
            assert!(idx.matrix().get(ProviderId(p), OwnerId(0)), "lost positive");
        }
        let rate = (idx.published_frequency(OwnerId(0)) - 500) as f64 / 19_500.0;
        assert!((rate - 0.3).abs() < 0.02, "observed flip rate {rate}");
        assert_eq!(
            idx.published_frequency(OwnerId(1)),
            0,
            "β = 0 stays truthful"
        );
    }

    #[test]
    fn unchanged_cells_are_bit_identical_across_publications() {
        // Publish the same matrix twice with one column's β changed:
        // only that column may differ — the anti-intersection
        // invariant at the publication layer.
        let mut m = MembershipMatrix::new(300, 6);
        for p in 0..300u32 {
            m.set(ProviderId(p), OwnerId(p % 6), p % 7 == 0);
        }
        let betas_a = [0.4, 0.2, 0.9, 0.1, 0.5, 0.3];
        let mut betas_b = betas_a;
        betas_b[2] = 0.35;
        let a = publish_matrix_at(&m, &betas_a, 7);
        let b = publish_matrix_at(&m, &betas_b, 7);
        for p in m.provider_ids() {
            for o in m.owner_ids() {
                if o != OwnerId(2) {
                    assert_eq!(a.matrix().get(p, o), b.matrix().get(p, o), "({p}, {o})");
                }
            }
        }
    }
}
