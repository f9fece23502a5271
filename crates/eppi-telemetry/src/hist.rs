//! A mergeable log-linear histogram over the `u64` nanosecond domain.
//!
//! The bucket layout is HDR-style: values below [`GRID`] get one bucket
//! each (exact), and every power-of-two octave above that is divided
//! into [`GRID`] linear sub-buckets. A bucket therefore spans at most
//! `value / GRID` units, which bounds the relative error of any
//! reported quantile by `1 / GRID` (= 3.125%) — see
//! [`Histogram::value_at_quantile`]. 1,920 buckets cover the full
//! `u64` range, so a histogram is ~15 KiB and never saturates on
//! nanosecond timings.
//!
//! [`Histogram::record`] is a relaxed atomic add on the shared bucket
//! array; histograms here time per-round or per-phase events.
//!
//! Merging is exact: bucket counts are added, so merging N histograms
//! is indistinguishable from having recorded every observation into one
//! (property-tested in `tests/histogram_properties.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (`2^SUB_BUCKET_BITS`).
pub const SUB_BUCKET_BITS: u32 = 5;

/// Sub-bucket count; also the bound below which recording is exact.
pub const GRID: u64 = 1 << SUB_BUCKET_BITS;

/// Octaves above the exact range (`msb ∈ SUB_BUCKET_BITS..=63`).
const OCTAVES: usize = 64 - SUB_BUCKET_BITS as usize;

/// Total bucket count of every histogram.
pub const BUCKETS: usize = GRID as usize + OCTAVES * GRID as usize;

/// Maximum relative error of a reported quantile (`1 / GRID`).
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / GRID as f64;

/// Bucket index of a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < GRID {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BUCKET_BITS) as usize;
        let sub = ((v >> (msb - SUB_BUCKET_BITS)) - GRID) as usize;
        GRID as usize + octave * GRID as usize + sub
    }
}

/// Representative (midpoint) value of a bucket.
fn representative(idx: usize) -> u64 {
    if idx < GRID as usize {
        idx as u64
    } else {
        let octave = (idx - GRID as usize) / GRID as usize;
        let sub = ((idx - GRID as usize) % GRID as usize) as u64;
        let low = (GRID + sub) << octave;
        low + (1u64 << octave) / 2
    }
}

/// A shared, concurrently updatable histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation directly on the shared buckets (atomic).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total observations recorded (including merged histograms).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, exact (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        match self.min.load(Ordering::Relaxed) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// Largest observation, exact (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, defined — like the exact
    /// sorted-vector rule — as the value whose rank is `⌈q·count⌉`
    /// (clamped to `1..=count`). The result is the midpoint of the
    /// bucket holding that rank, clamped to the exact observed
    /// `[min, max]`, so it deviates from the exact quantile by at most
    /// [`MAX_RELATIVE_ERROR`] relatively (and is exact below [`GRID`]).
    ///
    /// Returns `None` on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let rep = representative(idx);
                return Some(
                    rep.clamp(self.min().unwrap_or(rep), self.max.load(Ordering::Relaxed)),
                );
            }
        }
        // A racing concurrent record can leave `count` momentarily ahead
        // of the bucket array; answer with the observed maximum.
        Some(self.max.load(Ordering::Relaxed))
    }

    /// Adds every observation of `other` into `self` (exact: bucket
    /// counts are summed).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A non-atomic copy of the bucket counts (tests, exporters).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Point-in-time summary used by the registry exporters.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.value_at_quantile(0.50).unwrap_or(0),
            p90: self.value_at_quantile(0.90).unwrap_or(0),
            p95: self.value_at_quantile(0.95).unwrap_or(0),
            p99: self.value_at_quantile(0.99).unwrap_or(0),
        }
    }
}

/// Point-in-time digest of one histogram (what the exporters emit).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Exact smallest observation (0 when empty).
    pub min: u64,
    /// Exact largest observation (0 when empty).
    pub max: u64,
    /// Median, within [`MAX_RELATIVE_ERROR`].
    pub p50: u64,
    /// 90th percentile, within [`MAX_RELATIVE_ERROR`].
    pub p90: u64,
    /// 95th percentile, within [`MAX_RELATIVE_ERROR`].
    pub p95: u64,
    /// 99th percentile, within [`MAX_RELATIVE_ERROR`].
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), Some(0));
        assert_eq!(h.value_at_quantile(0.5), Some(1));
        assert_eq!(h.value_at_quantile(1.0), Some(31));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 37);
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's lower edge maps back to the same bucket, and
        // boundaries ascend strictly.
        let mut last = None;
        for idx in 0..BUCKETS {
            let rep = representative(idx);
            assert_eq!(
                bucket_of(rep),
                idx,
                "representative {rep} escaped bucket {idx}"
            );
            if let Some(prev) = last {
                assert!(rep > prev, "bucket {idx} not monotone");
            }
            last = Some(rep);
        }
        // Extremes stay in range.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 7 + 3);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            let exact = {
                let rank = ((q * 100_000f64).ceil() as u64).clamp(1, 100_000);
                rank * 7 + 3
            };
            let got = h.value_at_quantile(q).unwrap() as f64;
            let rel = (got - exact as f64).abs() / exact as f64;
            assert!(rel <= MAX_RELATIVE_ERROR, "q={q}: {got} vs {exact} ({rel})");
        }
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = Histogram::new();
        assert_eq!(h.value_at_quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let a = Histogram::new();
        let b = Histogram::new();
        let one = Histogram::new();
        for v in 0..5_000u64 {
            let x = v * v % 100_003;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            one.record(x);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), one.bucket_counts());
        assert_eq!(a.summary(), one.summary());
    }
}
