//! Deterministic round-based network simulation.
//!
//! Nodes implement [`Node`] and exchange messages through a
//! [`Context`]; the [`Simulator`] delivers all messages sent in round
//! `r` at the start of round `r + 1`, until the network goes quiescent.
//! A [`LinkModel`] converts the message/byte counts into simulated time,
//! standing in for the paper's Emulab LAN.

use crate::{NodeId, WireSize};
use std::collections::VecDeque;

/// Link parameters used to convert traffic into simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way message latency in microseconds (applies once per round,
    /// since all messages of a round travel in parallel).
    pub latency_us: f64,
    /// Link bandwidth in bytes per microsecond (per node).
    pub bandwidth_bytes_per_us: f64,
}

impl LinkModel {
    /// A LAN-like default: 200 µs latency, 125 bytes/µs (≈ 1 Gb/s).
    pub const LAN: LinkModel = LinkModel {
        latency_us: 200.0,
        bandwidth_bytes_per_us: 125.0,
    };

    /// A WAN-like profile: 40 ms latency, 12.5 bytes/µs (≈ 100 Mb/s) —
    /// hospitals across a state network rather than one machine room.
    pub const WAN: LinkModel = LinkModel {
        latency_us: 40_000.0,
        bandwidth_bytes_per_us: 12.5,
    };

    /// Simulated time for one round in which the busiest node sent
    /// `max_bytes_per_node` bytes.
    pub fn round_time_us(&self, max_bytes_per_node: usize) -> f64 {
        self.latency_us + max_bytes_per_node as f64 / self.bandwidth_bytes_per_us
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::LAN
    }
}

/// Aggregate traffic statistics of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetStats {
    /// Rounds executed until quiescence.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
    /// Logical payload bits delivered, for protocols that track them
    /// (see the crate docs for the bits/bytes convention). The simulator
    /// itself cannot know the logical content of a payload, so it leaves
    /// this 0. The GMW runs report their logical bits in
    /// `eppi_mpc::gmw::GmwStats` instead; SecSumShare counts bytes only.
    pub bits: u64,
    /// Messages dropped by an injected fault filter.
    pub dropped: u64,
    /// Simulated wall time in microseconds under the link model.
    pub simulated_us: f64,
}

/// A fault-injection filter: return `true` to drop the message sent from
/// `from` to `to` that would be delivered in `round`.
///
/// The ε-PPI protocols assume reliable delivery (the paper's semi-honest
/// model has no message loss); the filter exists to *test* that
/// assumption — e.g. that a lost SecSumShare batch visibly stalls the
/// protocol instead of silently corrupting the sums.
pub type FaultFilter = Box<dyn FnMut(usize, NodeId, NodeId) -> bool>;

/// Send-side interface handed to nodes.
#[derive(Debug)]
pub struct Context<P> {
    me: NodeId,
    round: usize,
    outbox: Vec<(NodeId, P)>,
}

impl<P> Context<P> {
    /// The node's own id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (0 for `on_start`).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Queues `payload` for delivery to `to` at the start of the next
    /// round. Sending to oneself is allowed and also delivered next
    /// round.
    pub fn send(&mut self, to: NodeId, payload: P) {
        self.outbox.push((to, payload));
    }
}

/// A protocol participant in the round-based simulation.
pub trait Node<P> {
    /// Called once before round 0; typically sends the first messages.
    fn on_start(&mut self, ctx: &mut Context<P>);

    /// Called for each message delivered to this node.
    fn on_message(&mut self, from: NodeId, payload: P, ctx: &mut Context<P>);
}

/// The round-based simulation engine.
pub struct Simulator<P, N> {
    nodes: Vec<N>,
    link: LinkModel,
    pending: VecDeque<(NodeId, NodeId, P)>,
    stats: NetStats,
    faults: Option<FaultFilter>,
}

impl<P, N: std::fmt::Debug> std::fmt::Debug for Simulator<P, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl<P: WireSize, N: Node<P>> Simulator<P, N> {
    /// Creates a simulator over the given nodes (node `i` gets id
    /// `NodeId(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<N>, link: LinkModel) -> Self {
        assert!(!nodes.is_empty(), "at least one node required");
        Simulator {
            nodes,
            link,
            pending: VecDeque::new(),
            stats: NetStats::default(),
            faults: None,
        }
    }

    /// Installs a fault-injection filter (see [`FaultFilter`]).
    pub fn set_fault_filter(&mut self, filter: FaultFilter) {
        self.faults = Some(filter);
    }

    /// Runs `on_start` on every node, then delivers rounds until no
    /// messages remain or `max_rounds` is hit.
    ///
    /// Returns the traffic statistics.
    ///
    /// # Panics
    ///
    /// Panics if the protocol is still active after `max_rounds` (a
    /// protocol bug: ε-PPI protocols are constant-round).
    pub fn run(&mut self, max_rounds: usize) -> NetStats {
        let n = self.nodes.len();
        // Start phase.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mut ctx = Context {
                me: NodeId(i),
                round: 0,
                outbox: Vec::new(),
            };
            node.on_start(&mut ctx);
            for (to, p) in ctx.outbox {
                assert!(to.index() < n, "send to unknown node {to}");
                self.pending.push_back((NodeId(i), to, p));
            }
        }

        let mut round = 0usize;
        while !self.pending.is_empty() {
            round += 1;
            assert!(
                round <= max_rounds,
                "protocol still active after {max_rounds} rounds"
            );
            let mut deliveries: Vec<_> = self.pending.drain(..).collect();
            if let Some(filter) = self.faults.as_mut() {
                let before = deliveries.len();
                deliveries.retain(|&(from, to, _)| !filter(round, from, to));
                self.stats.dropped += (before - deliveries.len()) as u64;
            }
            let mut sent_bytes_per_node = vec![0usize; n];
            for &(from, _, ref p) in &deliveries {
                sent_bytes_per_node[from.index()] += p.wire_size();
            }
            let max_bytes = sent_bytes_per_node.iter().copied().max().unwrap_or(0);
            self.stats.simulated_us += self.link.round_time_us(max_bytes);
            self.stats.messages += deliveries.len() as u64;
            self.stats.bytes += deliveries
                .iter()
                .map(|(_, _, p)| p.wire_size() as u64)
                .sum::<u64>();

            for (from, to, payload) in deliveries {
                let mut ctx = Context {
                    me: to,
                    round,
                    outbox: Vec::new(),
                };
                self.nodes[to.index()].on_message(from, payload, &mut ctx);
                for (next_to, p) in ctx.outbox {
                    assert!(next_to.index() < n, "send to unknown node {next_to}");
                    self.pending.push_back((to, next_to, p));
                }
            }
        }
        self.stats.rounds = round;
        self.stats
    }

    /// Accesses a node after the run (to read its final state).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Consumes the simulator, returning all nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node forwards a counter to its successor until it reaches a
    /// limit; node 0 starts.
    struct RingCounter {
        n: usize,
        limit: u64,
        seen: Vec<u64>,
    }

    impl Node<u64> for RingCounter {
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1 % self.n), 1);
            }
        }

        fn on_message(&mut self, _from: NodeId, v: u64, ctx: &mut Context<u64>) {
            self.seen.push(v);
            if v < self.limit {
                ctx.send(NodeId((ctx.me().index() + 1) % self.n), v + 1);
            }
        }
    }

    #[test]
    fn token_travels_the_ring() {
        let n = 4;
        let nodes: Vec<_> = (0..n)
            .map(|_| RingCounter {
                n,
                limit: 8,
                seen: Vec::new(),
            })
            .collect();
        let mut sim = Simulator::new(nodes, LinkModel::LAN);
        let stats = sim.run(100);
        assert_eq!(stats.rounds, 8);
        assert_eq!(stats.messages, 8);
        assert_eq!(stats.bytes, 8 * 8);
        assert!(stats.simulated_us > 0.0);
        // Node 1 saw tokens 1 and 5.
        assert_eq!(sim.node(NodeId(1)).seen, vec![1, 5]);
    }

    #[test]
    fn quiescence_with_no_messages() {
        let nodes: Vec<_> = (0..3)
            .map(|_| RingCounter {
                n: 3,
                limit: 0,
                seen: Vec::new(),
            })
            .collect();
        // Limit 0: node 0 sends token 1 which exceeds the limit, so one
        // round only.
        let mut sim = Simulator::new(nodes, LinkModel::LAN);
        let stats = sim.run(10);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "still active")]
    fn runaway_protocol_detected() {
        struct Ping;
        impl Node<u64> for Ping {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.send(NodeId(0), 1);
            }
            fn on_message(&mut self, _: NodeId, v: u64, ctx: &mut Context<u64>) {
                ctx.send(NodeId(0), v);
            }
        }
        Simulator::new(vec![Ping], LinkModel::LAN).run(5);
    }

    #[test]
    fn fault_filter_drops_messages() {
        // Drop the first hop of the ring token: nothing ever happens.
        let nodes: Vec<_> = (0..4)
            .map(|_| RingCounter {
                n: 4,
                limit: 8,
                seen: Vec::new(),
            })
            .collect();
        let mut sim = Simulator::new(nodes, LinkModel::LAN);
        sim.set_fault_filter(Box::new(|round, _, _| round == 1));
        let stats = sim.run(100);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.messages, 0);
        assert!(sim.node(NodeId(1)).seen.is_empty());
    }

    #[test]
    fn fault_filter_targets_specific_links() {
        // Drop only the 1→2 hop: the token dies after two deliveries.
        let nodes: Vec<_> = (0..4)
            .map(|_| RingCounter {
                n: 4,
                limit: 8,
                seen: Vec::new(),
            })
            .collect();
        let mut sim = Simulator::new(nodes, LinkModel::LAN);
        sim.set_fault_filter(Box::new(|_, from, to| from == NodeId(1) && to == NodeId(2)));
        let stats = sim.run(100);
        assert_eq!(stats.dropped, 1);
        assert_eq!(sim.node(NodeId(1)).seen, vec![1]);
        assert!(sim.node(NodeId(2)).seen.is_empty(), "link was cut");
    }

    #[test]
    fn link_model_time() {
        let link = LinkModel {
            latency_us: 100.0,
            bandwidth_bytes_per_us: 10.0,
        };
        assert!((link.round_time_us(1000) - 200.0).abs() < 1e-9);
    }
}
