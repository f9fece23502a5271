//! RAII wall-clock scopes.
//!
//! A [`SpanTimer`] stamps `Instant::now()` on creation and records the
//! elapsed nanoseconds into its target [`Histogram`] when dropped (or
//! explicitly via [`stop`](SpanTimer::stop), which also returns the
//! duration). Intended for coarse phases — construction stages, GMW
//! rounds, drain windows — where one shared atomic record per span is
//! negligible.

use crate::hist::Histogram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times a scope and records its duration (in nanoseconds) into a
/// histogram on drop.
#[derive(Debug)]
pub struct SpanTimer {
    started: Instant,
    target: Option<Arc<Histogram>>,
}

impl SpanTimer {
    /// Starts a span recording into `target`.
    pub fn new(target: Arc<Histogram>) -> Self {
        SpanTimer {
            started: Instant::now(),
            target: Some(target),
        }
    }

    /// Elapsed time so far, without stopping the span.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Stops the span now, records it, and returns the elapsed time.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        if let Some(target) = self.target.take() {
            target.record(elapsed.as_nanos() as u64);
        }
        elapsed
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(target) = self.target.take() {
            target.record(self.started.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_records_exactly_once() {
        let h = Arc::new(Histogram::new());
        {
            let _span = SpanTimer::new(Arc::clone(&h));
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stop_records_and_reports() {
        let h = Arc::new(Histogram::new());
        let span = SpanTimer::new(Arc::clone(&h));
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = span.stop();
        assert!(elapsed >= Duration::from_millis(2));
        assert_eq!(h.count(), 1);
        assert!(h.max().unwrap() >= 2_000_000);
    }
}
