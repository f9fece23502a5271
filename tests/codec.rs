//! Property tests for the index codec.

use eppi::core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi::index::codec::{decode, encode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Any index round-trips through the binary codec.
    #[test]
    fn codec_roundtrip(
        providers in 1usize..40,
        owners in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut matrix = MembershipMatrix::new(providers, owners);
        for p in 0..providers {
            for o in 0..owners {
                if next() % 4 == 0 {
                    matrix.set(ProviderId(p as u32), OwnerId(o as u32), true);
                }
            }
        }
        let betas: Vec<f64> = (0..owners).map(|_| (next() % 1001) as f64 / 1000.0).collect();
        let index = PublishedIndex::new(matrix, betas);
        let bytes = encode(&index);
        let back = decode(&bytes).expect("roundtrip");
        prop_assert_eq!(back, index);
    }

    /// Decoding never panics on mutated/truncated bytes — it errors or
    /// yields some valid index.
    #[test]
    fn codec_is_panic_free_on_corruption(
        cut in 0usize..200,
        flip_at in 0usize..200,
        flip_with in any::<u8>(),
    ) {
        let mut matrix = MembershipMatrix::new(7, 9);
        matrix.set(ProviderId(2), OwnerId(3), true);
        let index = PublishedIndex::new(matrix, vec![0.5; 9]);
        let mut bytes = encode(&index);
        if flip_at < bytes.len() {
            bytes[flip_at] ^= flip_with;
        }
        let cut = cut.min(bytes.len());
        let _ = decode(&bytes[..cut]); // must not panic
        let _ = decode(&bytes);        // must not panic
    }
}

#[test]
fn codec_scales_to_realistic_indexes() {
    // A 2,000 × 500 index: encode/decode under a second, exact match.
    let mut rng = StdRng::seed_from_u64(5);
    let matrix = eppi::workload::collections::CollectionTable::new(2000, 500)
        .max_frequency(40)
        .build(&mut rng);
    let betas = vec![0.1; 500];
    let index = PublishedIndex::new(matrix, betas);
    let bytes = encode(&index);
    assert_eq!(decode(&bytes).expect("roundtrip"), index);
    // Density check: 1M cells → 125 KB bitmap + 4 KB betas + header.
    assert!(
        bytes.len() < 140_000,
        "unexpected encoding size {}",
        bytes.len()
    );
}
