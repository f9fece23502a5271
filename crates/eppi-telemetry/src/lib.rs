//! # eppi-telemetry — workspace-wide metrics & tracing
//!
//! The paper's whole evaluation (Figures 4–6, Table 2) is a story about
//! *where time and messages go*: per-phase construction cost, per-round
//! MPC traffic, query latency. This crate is the shared measurement
//! layer every subsystem reports through, built on `std` only:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomics; gauges track a
//!   high-water mark (queue depths, in-flight work).
//! * [`Histogram`] — a mergeable log-linear (HDR-style) histogram over
//!   the `u64` nanosecond domain with a documented relative-error bound
//!   ([`MAX_RELATIVE_ERROR`]) per reported quantile.
//! * [`SpanTimer`] — RAII wall-clock scopes for coarse phases.
//! * [`Registry`] — labeled metric families; [`Registry::snapshot`]
//!   exports as aligned text or JSON and parses back
//!   ([`Snapshot::from_json`]), so every benchmark run doubles as an
//!   observability report.
//! * [`json`] — the minimal JSON writer/parser behind the exporters
//!   (the build environment has no serde_json).
//!
//! ## Example
//!
//! ```
//! use eppi_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let queries = registry.counter("serve.queries", &[("shard", "0")]);
//! let lat = registry.histogram("serve.service_ns", &[("shard", "0")]);
//! for v in [250u64, 900, 17_000] {
//!     queries.inc();
//!     lat.record(v);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.find("serve.queries", &[("shard", "0")]).is_some(), true);
//! let round_trip = eppi_telemetry::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(round_trip, snap);
//! ```
//!
//! ## Global registry
//!
//! Most call sites accept a `&Registry` so tests and benchmarks can
//! isolate their metrics; [`global()`] provides the process-wide
//! default used when nothing is threaded through. Counters in the
//! global registry are cumulative across a process's whole life.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;

pub use hist::{Histogram, HistogramSummary, MAX_RELATIVE_ERROR};
pub use metrics::{Counter, Gauge};
pub use registry::{Labels, MetricMiss, MetricSnapshot, MetricValue, Registry, Snapshot};
pub use span::SpanTimer;

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_a_singleton() {
        let c = super::global().counter("telemetry.self_test", &[]);
        c.add(2);
        assert!(super::global().counter("telemetry.self_test", &[]).get() >= 2);
    }
}
