//! Property tests for the log-linear histogram: quantile accuracy
//! against exact sorted-vector quantiles, and merge equivalence.

use eppi_telemetry::{Histogram, MAX_RELATIVE_ERROR};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The exact quantile rule the histogram documents: the value of rank
/// `⌈q·n⌉` (clamped to `1..=n`) in the sorted samples.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Draws a latency-shaped sample set: log-uniform magnitudes so every
/// octave of the nanosecond domain gets exercised.
fn draw_samples(seed: u64, len: usize, max_exp: u32) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let exp = rng.gen_range(0..max_exp);
            rng.gen_range(0..(1u64 << exp).max(1) * 2)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recorded p50/p95/p99 stay within the documented relative-error
    /// bound of exact sorted-vector quantiles.
    #[test]
    fn quantiles_within_documented_error(seed in any::<u64>(), len in 1usize..4_000, max_exp in 1u32..40) {
        let samples = draw_samples(seed, len, max_exp);
        let hist = Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let got = hist.value_at_quantile(q).unwrap();
            let tolerance = (exact as f64 * MAX_RELATIVE_ERROR).max(0.0);
            prop_assert!(
                (got as f64 - exact as f64).abs() <= tolerance,
                "q={}: histogram {} vs exact {} (tolerance {})",
                q, got, exact, tolerance
            );
        }
        // Extremes are tracked exactly, not bucketed.
        prop_assert_eq!(hist.min().unwrap(), sorted[0]);
        prop_assert_eq!(hist.max().unwrap(), *sorted.last().unwrap());
    }

    /// Merging histograms is bucket-exact: indistinguishable from
    /// recording every observation into one histogram.
    #[test]
    fn merge_equals_single_histogram(seed in any::<u64>(), len in 1usize..3_000, parts in 2usize..6) {
        let samples = draw_samples(seed, len, 34);
        let one = Histogram::new();
        for &v in &samples {
            one.record(v);
        }

        // Shared-into-shared merge.
        let merged = Histogram::new();
        for chunk in samples.chunks(samples.len().div_ceil(parts)) {
            let part = Histogram::new();
            for &v in chunk {
                part.record(v);
            }
            merged.merge(&part);
        }
        prop_assert_eq!(merged.bucket_counts(), one.bucket_counts());
        prop_assert_eq!(merged.summary(), one.summary());
    }
}
