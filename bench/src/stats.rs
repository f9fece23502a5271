//! Median, quartiles and the correctness tally.

use std::collections::BTreeMap;

/// Median, quartiles and sample count of one metric's per-round
/// values. The median is the value the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Second quartile — the reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples summarized.
    pub n: usize,
}

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so the spread the harness prints is the one the regression gate
/// recomputes.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return [data[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Summarizes the per-round samples of one metric.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        median,
        q1,
        q3,
        n: values.len(),
    }
}

/// Per-round samples of every metric, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of one metric.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }

    /// The median of one metric, if it was sampled.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.get(name).map(|v| quartiles(v)[1])
    }
}

/// Correctness accounting: every checked output is one attempt.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked output; the first few failures are named on
    /// standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.add(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checked outputs of which `failed` were wrong.
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        if failed > 0 && self.failed < 8 {
            eprintln!("check failed: {what} ({failed} of {attempted})");
        }
        self.attempted += attempted;
        self.failed += failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn summary_reports_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.n), (2.0, 3));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true, "a");
        t.add(10, 0, "b");
        assert_eq!((t.attempted, t.failed), (11, 0));
    }
}
