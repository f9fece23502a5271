//! Causal tracing for [`Transport`] endpoints.
//!
//! [`TracedTransport`] wraps any [`Transport`] and emits one
//! `net.exchange` span per completed protocol exchange (deposit →
//! [`collect_from`](Transport::collect_from)), parented under a caller-supplied
//! [`SpanCtx`] — typically a per-party span opened by the driver
//! running the protocol. The span's payload carries the logical bits
//! this endpoint deposited during the exchange, so a trace viewer shows
//! both where protocol time goes (the collect wait dominates under
//! skew) and how much each round shipped.
//!
//! Tracing a disabled [`Tracer`] or a [`SpanCtx::NONE`] parent records
//! nothing and costs nothing beyond a branch, so drivers can wrap
//! their transports unconditionally.

use crate::transport::Transport;
use crate::WireSize;
use eppi_trace::{SpanCtx, SpanGuard, Tracer};

/// A [`Transport`] decorator emitting one span per protocol exchange.
///
/// The exchange span opens at the [`deposit`](Transport::deposit) and
/// closes when [`collect_from`](Transport::collect_from) returns, so it covers
/// the peer wait. See the [module docs](self) for the payload
/// convention.
#[derive(Debug)]
pub struct TracedTransport<T> {
    inner: T,
    tracer: Tracer,
    parent: SpanCtx,
    open: Option<SpanGuard>,
    bits_this_exchange: u64,
}

impl<T> TracedTransport<T> {
    /// Wraps `inner`, parenting every exchange span under `parent`.
    pub fn new(inner: T, tracer: Tracer, parent: SpanCtx) -> Self {
        TracedTransport {
            inner,
            tracer,
            parent,
            open: None,
            bits_this_exchange: 0,
        }
    }

    /// Unwraps the decorator. An in-flight exchange span (deposited but
    /// not yet collected) closes here.
    pub fn into_inner(mut self) -> T {
        self.open = None;
        self.inner
    }

    fn opening(&mut self) {
        if self.open.is_none() {
            self.open = Some(self.tracer.child(self.parent, "net.exchange"));
            self.bits_this_exchange = 0;
        }
    }
}

impl<M: WireSize, T: Transport<M>> Transport<M> for TracedTransport<T> {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn parties(&self) -> usize {
        self.inner.parties()
    }

    fn deposit(&mut self, messages: Vec<(usize, M)>) {
        self.opening();
        self.bits_this_exchange += messages.iter().map(|(_, m)| m.logical_bits()).sum::<u64>();
        self.inner.deposit(messages);
    }

    fn collect_from(&mut self, senders: &[usize]) -> Vec<(usize, M)> {
        let got = self.inner.collect_from(senders);
        if let Some(mut span) = self.open.take() {
            span.set_payload(self.bits_this_exchange);
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcessTransport, PackedBatch};
    use eppi_trace::TraceConfig;

    fn word_batch(v: u64, bits: usize) -> PackedBatch {
        PackedBatch {
            words: vec![v],
            bits,
        }
    }

    #[test]
    fn emits_one_span_per_exchange_with_bit_payload() {
        let tracer = Tracer::new(TraceConfig::default());
        let root = tracer.root("test.run");
        let parent = root.ctx();
        let mut hub: Vec<_> = InProcessTransport::hub(3)
            .into_iter()
            .map(|t| TracedTransport::new(t, tracer.clone(), parent))
            .collect();
        for round in 0..2 {
            for (p, t) in hub.iter_mut().enumerate() {
                t.broadcast(word_batch((round * 3 + p) as u64, 8));
            }
            for t in hub.iter_mut() {
                assert_eq!(t.collect().len(), 2);
            }
        }
        drop(root);

        let log = tracer.collect();
        let tree = log.span_tree(parent.trace_id()).expect("trace");
        // 3 parties × 2 exchanges, every span carrying 2 peers × 8 bits.
        assert_eq!(tree.count("net.exchange"), 6);
        let mut seen = 0;
        let mut walk = vec![&tree];
        while let Some(n) = walk.pop() {
            if n.name == "net.exchange" {
                assert_eq!(n.payload, 16);
                seen += 1;
            }
            walk.extend(n.children.iter());
        }
        assert_eq!(seen, 6);
    }

    #[test]
    fn scatter_counts_only_peer_bits() {
        let tracer = Tracer::new(TraceConfig::default());
        let root = tracer.root("test.run");
        let parent = root.ctx();
        let mut hub: Vec<_> = InProcessTransport::hub(2)
            .into_iter()
            .map(|t| TracedTransport::new(t, tracer.clone(), parent))
            .collect();
        for t in hub.iter_mut() {
            t.scatter(vec![word_batch(1, 8), word_batch(2, 8)]);
        }
        for t in hub.iter_mut() {
            t.collect();
        }
        drop(root);
        let log = tracer.collect();
        let tree = log.span_tree(parent.trace_id()).unwrap();
        for child in &tree.children {
            // The self-addressed batch is not traffic.
            assert_eq!(child.payload, 8);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_preserves_behavior() {
        let tracer = Tracer::disabled();
        let mut hub: Vec<_> = InProcessTransport::hub(2)
            .into_iter()
            .map(|t| TracedTransport::new(t, tracer.clone(), SpanCtx::NONE))
            .collect();
        for (p, t) in hub.iter_mut().enumerate() {
            t.broadcast(word_batch(1 << p, 4));
        }
        let opened: Vec<_> = hub.iter_mut().map(|t| t.collect()).collect();
        assert!(opened.iter().all(|got| got.len() == 1));
        assert_eq!(tracer.collect().total_events(), 0);
        let first = hub.into_iter().next().expect("two endpoints");
        assert_eq!(first.into_inner().report().messages, 2);
    }
}
