//! Harness-owned spans around the calls into each layer.
//!
//! The recorder is an `eppi-trace` [`Tracer`] the harness creates and
//! keeps to itself: nothing is recorded inside the crates under test,
//! and no crate sees this tracer. One traced round is one trace (its
//! `round` root span), so the spans of a round share a trace id. This
//! module adds only the arithmetic the issue asks for on top of the
//! stitched [`SpanNode`] tree: totals by name, self time, coverage.

use eppi_trace::collect::SpanNode;
use eppi_trace::{TraceConfig, Tracer};

/// Ring slots of the harness tracer: a traced round records two events
/// per span and at most ≈ 250 spans (`churn`), and a pass traces a
/// handful of rounds; nothing may be overwritten before the pass ends.
const CAPACITY: usize = 1 << 15;

/// A recording tracer sized to hold every traced round of one pass.
pub fn recording() -> Tracer {
    Tracer::new(TraceConfig {
        capacity_per_thread: CAPACITY,
        slow_threshold: None,
    })
}

fn ms(node: &SpanNode) -> f64 {
    node.duration_ns().unwrap_or(0) as f64 / 1e6
}

/// Summed duration, in milliseconds, of the spans called `name` in
/// the tree under `node` (a span is not searched below a match).
pub fn total_ms(node: &SpanNode, name: &str) -> f64 {
    if node.name == name {
        return ms(node);
    }
    node.children.iter().map(|c| total_ms(c, name)).sum()
}

/// Share of the round span that its direct children cover — the traced
/// round is attributed when this is close to 1.
pub fn coverage(round: &SpanNode) -> f64 {
    round.children.iter().map(ms).sum::<f64>() / ms(round).max(f64::MIN_POSITIVE)
}

/// Total and self time of one span name at one depth of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Depth below the round span (1 = top level).
    pub depth: usize,
    /// Summed duration in milliseconds.
    pub total_ms: f64,
    /// Summed duration minus child spans, in milliseconds.
    pub self_ms: f64,
    /// Spans summed.
    pub count: usize,
}

/// Per-name total and self time below `round`, in first-seen order.
pub fn self_times(round: &SpanNode) -> Vec<SelfTime> {
    fn walk(node: &SpanNode, depth: usize, out: &mut Vec<SelfTime>) {
        for child in &node.children {
            let total_ms = ms(child);
            let self_ms = (total_ms - child.children.iter().map(ms).sum::<f64>()).max(0.0);
            match out
                .iter_mut()
                .find(|s| s.name == child.name && s.depth == depth)
            {
                Some(row) => {
                    row.total_ms += total_ms;
                    row.self_ms += self_ms;
                    row.count += 1;
                }
                None => out.push(SelfTime {
                    name: child.name.clone(),
                    depth,
                    total_ms,
                    self_ms,
                    count: 1,
                }),
            }
            walk(child, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(round, 1, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        drop(tracer.root("round"));
        assert!(tracer.collect().trace_ids().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let tracer = recording();
        let round = tracer.root("round");
        let build = tracer.child(round.ctx(), "build");
        drop(tracer.child(build.ctx(), "build.inner"));
        drop(build);
        drop(tracer.child(round.ctx(), "build"));
        drop(round);
        let log = tracer.collect();
        let ids = log.trace_ids();
        assert_eq!(ids.len(), 1);
        let tree = log.span_tree(ids[0]).expect("the round survived");
        let rows = self_times(&tree);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name.as_str(), rows[0].count), ("build", 2));
        assert_eq!(rows[1].depth, 2);
        assert!((rows[0].total_ms - rows[0].self_ms - rows[1].total_ms).abs() < 1e-9);
        assert!((total_ms(&tree, "build") - rows[0].total_ms).abs() < 1e-9);
        assert!(coverage(&tree) <= 1.0);
    }
}
