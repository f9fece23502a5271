//! The labeled metric registry and its exporters.
//!
//! A [`Registry`] maps `(family name, label set)` to one instrument.
//! Hot paths register once (taking an `Arc` handle) and then update the
//! instrument without ever touching the registry again — the internal
//! mutex guards only registration and snapshotting.
//!
//! Naming convention (enforced socially, documented in DESIGN.md §8):
//! `subsystem.metric[_unit]`, lower-case, dot-separated subsystem
//! prefix, unit suffix for non-obvious units (`_ns`, `_bytes`). Labels
//! distinguish instances of a family (`shard="3"`, `peer="0"`,
//! `pass="closed_loop"`).
//!
//! [`Registry::snapshot`] yields a point-in-time [`Snapshot`] that
//! serializes to an aligned text report ([`Snapshot::to_text`]) or JSON
//! ([`Snapshot::to_json`]) and parses back ([`Snapshot::from_json`]).

use crate::hist::{Histogram, HistogramSummary, Recorder};
use crate::json::JsonValue;
use crate::metrics::{Counter, Gauge};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Sorted `(key, value)` label pairs identifying one family member.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A concurrent registry of labeled metric families.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<(String, Labels), Instrument>>,
}

fn canonical(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn instrument(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = (name.to_string(), canonical(labels));
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.entry(key).or_insert_with(make).clone()
    }

    /// Returns (creating on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Returns (creating on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, labels, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Returns (creating on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.instrument(name, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// A per-thread [`Recorder`] feeding the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn recorder(&self, name: &str, labels: &[(&str, &str)]) -> Recorder {
        Recorder::new(self.histogram(name, labels))
    }

    /// Captures every registered metric at this instant. Values across
    /// metrics are weakly consistent (concurrent updates may be half
    /// visible), which is fine for reporting.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        Snapshot {
            metrics: inner
                .iter()
                .map(|((name, labels), instrument)| MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge {
                            value: g.get(),
                            peak: g.peak(),
                        },
                        Instrument::Histogram(h) => MetricValue::Histogram(h.summary()),
                    },
                })
                .collect(),
        }
    }
}

/// One metric's captured value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Instantaneous level plus high-water mark.
    Gauge {
        /// Level at snapshot time.
        value: i64,
        /// Highest level observed.
        peak: i64,
    },
    /// Histogram digest.
    Histogram(HistogramSummary),
}

/// One metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Family name (`subsystem.metric[_unit]`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Captured value.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// `name{k="v",…}` — the text-exporter metric identifier.
    pub fn id(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A typed lookup miss from [`Snapshot::expect`]: the requested
/// metric was not in the snapshot. Carries the full key so callers can
/// report (or assert on) exactly what was absent instead of panicking
/// on a bare `Option`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricMiss {
    /// The family name that was looked up.
    pub name: String,
    /// The canonicalized label set that was looked up.
    pub labels: Labels,
}

impl std::fmt::Display for MetricMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        write!(
            f,
            "metric {}{{{}}} not present in snapshot",
            self.name,
            labels.join(",")
        )
    }
}

impl std::error::Error for MetricMiss {}

/// A point-in-time capture of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Finds a metric by family name and exact label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        let labels = canonical(labels);
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    /// As [`find`](Self::find), but a miss comes back as a typed
    /// [`MetricMiss`] naming the absent key — for callers that treat a
    /// missing metric as a reportable condition rather than a panic
    /// (e.g. the serve shutdown-drain check).
    ///
    /// # Errors
    ///
    /// [`MetricMiss`] when no metric matches `(name, labels)`.
    pub fn expect(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Result<&MetricSnapshot, MetricMiss> {
        self.find(name, labels).ok_or_else(|| MetricMiss {
            name: name.to_string(),
            labels: canonical(labels),
        })
    }

    /// All members of a family, in label order.
    pub fn family(&self, name: &str) -> Vec<&MetricSnapshot> {
        self.metrics.iter().filter(|m| m.name == name).collect()
    }

    /// Renders the aligned human-readable report (one metric per line).
    pub fn to_text(&self) -> String {
        let width = self.metrics.iter().map(|m| m.id().len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<width$}  ", m.id());
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{v}");
                }
                MetricValue::Gauge { value, peak } => {
                    let _ = writeln!(out, "{value} (peak {peak})");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "count={} mean={:.1} min={} p50={} p90={} p95={} p99={} max={}",
                        h.count, h.mean, h.min, h.p50, h.p90, h.p95, h.p99, h.max
                    );
                }
            }
        }
        out
    }

    /// The snapshot as a JSON document tree (for embedding into larger
    /// reports).
    pub fn to_json_value(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("name".to_string(), JsonValue::Str(m.name.clone())),
                    (
                        "labels".to_string(),
                        JsonValue::Object(
                            m.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        entry.push(("kind".into(), JsonValue::Str("counter".into())));
                        entry.push(("value".into(), JsonValue::UInt(*v)));
                    }
                    MetricValue::Gauge { value, peak } => {
                        entry.push(("kind".into(), JsonValue::Str("gauge".into())));
                        entry.push(("value".into(), JsonValue::Int(*value)));
                        entry.push(("peak".into(), JsonValue::Int(*peak)));
                    }
                    MetricValue::Histogram(h) => {
                        entry.push(("kind".into(), JsonValue::Str("histogram".into())));
                        for (key, v) in [
                            ("count", h.count),
                            ("sum", h.sum),
                            ("min", h.min),
                            ("max", h.max),
                            ("p50", h.p50),
                            ("p90", h.p90),
                            ("p95", h.p95),
                            ("p99", h.p99),
                        ] {
                            entry.push((key.into(), JsonValue::UInt(v)));
                        }
                        entry.push(("mean".into(), JsonValue::Float(h.mean)));
                    }
                }
                JsonValue::Object(entry)
            })
            .collect();
        JsonValue::Object(vec![("metrics".to_string(), JsonValue::Array(metrics))])
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Parses a document produced by [`to_json`](Self::to_json) back
    /// into a snapshot (exact round-trip; asserted by tests).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_json_value(&JsonValue::parse(text)?)
    }

    /// [`from_json`](Self::from_json) over an already-parsed tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation.
    pub fn from_json_value(doc: &JsonValue) -> Result<Snapshot, String> {
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("missing \"metrics\" array")?;
        let mut out = Vec::with_capacity(metrics.len());
        for (i, m) in metrics.iter().enumerate() {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| format!("metric {i}: missing \"{key}\""))
            };
            let uint = |key: &str| {
                field(key)?
                    .as_u64()
                    .ok_or_else(|| format!("metric {i}: \"{key}\" not a u64"))
            };
            let int = |key: &str| {
                field(key)?
                    .as_i64()
                    .ok_or_else(|| format!("metric {i}: \"{key}\" not an i64"))
            };
            let name = field("name")?
                .as_str()
                .ok_or_else(|| format!("metric {i}: \"name\" not a string"))?
                .to_string();
            let labels = match field("labels")? {
                JsonValue::Object(entries) => entries
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|v| (k.clone(), v.to_string()))
                            .ok_or_else(|| format!("metric {i}: label \"{k}\" not a string"))
                    })
                    .collect::<Result<Labels, String>>()?,
                _ => return Err(format!("metric {i}: \"labels\" not an object")),
            };
            let value = match field("kind")?.as_str() {
                Some("counter") => MetricValue::Counter(uint("value")?),
                Some("gauge") => MetricValue::Gauge {
                    value: int("value")?,
                    peak: int("peak")?,
                },
                Some("histogram") => MetricValue::Histogram(HistogramSummary {
                    count: uint("count")?,
                    sum: uint("sum")?,
                    mean: field("mean")?
                        .as_f64()
                        .ok_or_else(|| format!("metric {i}: \"mean\" not a number"))?,
                    min: uint("min")?,
                    max: uint("max")?,
                    p50: uint("p50")?,
                    p90: uint("p90")?,
                    p95: uint("p95")?,
                    p99: uint("p99")?,
                }),
                _ => return Err(format!("metric {i}: unknown \"kind\"")),
            };
            out.push(MetricSnapshot {
                name,
                labels,
                value,
            });
        }
        Ok(Snapshot { metrics: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_get_or_create() {
        let r = Registry::new();
        let a = r.counter("net.messages", &[("peer", "0")]);
        let b = r.counter("net.messages", &[("peer", "0")]);
        let c = r.counter("net.messages", &[("peer", "1")]);
        a.inc();
        b.inc();
        c.add(5);
        assert_eq!(a.get(), 2, "same key must alias the same counter");
        let snap = r.snapshot();
        assert_eq!(snap.family("net.messages").len(), 2);
        assert_eq!(
            snap.expect("net.messages", &[("peer", "1")]).unwrap().value,
            MetricValue::Counter(5)
        );
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.gauge("q.depth", &[("a", "1"), ("b", "2")]).set(3);
        let g = r.gauge("q.depth", &[("b", "2"), ("a", "1")]);
        assert_eq!(g.get(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_loud() {
        let r = Registry::new();
        r.counter("serve.queries", &[]);
        r.histogram("serve.queries", &[]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("serve.queries", &[("shard", "0")]).add(123);
        let g = r.gauge("serve.queue_depth", &[("shard", "0")]);
        g.set(4);
        g.dec();
        let h = r.histogram("serve.service_ns", &[("shard", "0")]);
        for v in [250u64, 900, 17_000, 1_000_000] {
            h.record(v);
        }
        r.histogram("empty.hist", &[]);
        let snap = r.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn exporters_render_all_kinds() {
        let r = Registry::new();
        r.counter("a.count", &[]).inc();
        r.gauge("b.level", &[("x", "y")]).set(-2);
        r.histogram("c.lat_ns", &[]).record(640);
        let text = r.snapshot().to_text();
        assert!(text.contains("a.count"), "{text}");
        assert!(text.contains("b.level{x=\"y\"}"), "{text}");
        assert!(text.contains("-2 (peak 0)"), "{text}");
        assert!(text.contains("p99="), "{text}");
    }

    #[test]
    fn expect_hits_like_find_and_misses_typed() {
        let r = Registry::new();
        r.counter("serve.queries", &[]).inc();
        let snap = r.snapshot();
        assert_eq!(
            snap.expect("serve.queries", &[]).unwrap().value,
            MetricValue::Counter(1)
        );
        let miss = snap
            .expect("serve.shutdown_drain_ns", &[("shard", "3")])
            .unwrap_err();
        assert_eq!(miss.name, "serve.shutdown_drain_ns");
        assert_eq!(miss.labels, vec![("shard".to_string(), "3".to_string())]);
        assert!(miss.to_string().contains("not present"), "{miss}");
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        for bad in [
            "{}",
            r#"{"metrics": [{"name": "x"}]}"#,
            r#"{"metrics": [{"name": "x", "labels": {}, "kind": "nope"}]}"#,
            r#"{"metrics": [{"name": "x", "labels": {}, "kind": "counter", "value": -1}]}"#,
        ] {
            assert!(Snapshot::from_json(bad).is_err(), "{bad} accepted");
        }
    }
}
