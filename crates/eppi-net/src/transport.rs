//! Pluggable party-to-party transports for the packed GMW core.
//!
//! The GMW protocol logic lives in `eppi-mpc::gmw_core` as a sans-io
//! state machine; everything network-shaped is behind the [`Transport`]
//! trait defined here. One protocol *exchange* is: every party deposits
//! its outgoing batches ([`Transport::scatter`] for personalized
//! payloads, [`Transport::broadcast`] for the common d/e or output
//! batch), then every party calls [`Transport::collect`] to receive one
//! batch from each peer. Two implementations cover the two execution
//! styles the workspace needs:
//!
//! * [`InProcessTransport`] — the one lockstep hub: all parties are
//!   driven on one thread (all deposits, then all collects). Besides
//!   traffic it records each exchange's busiest sender, so a run is
//!   priced in simulated network time under any
//!   [`LinkModel`] ([`InProcessTransport::simulated_us`]) exactly as
//!   the round-based [`crate::sim::Simulator`] prices a round.
//! * [`ThreadedTransport`] — wraps a [`crate::threaded::PartyHandle`],
//!   so each party can run the straight-line protocol on its own
//!   pooled thread with real (crossbeam) message exchange.
//!
//! Both account traffic in both units of the workspace convention
//! (see the crate docs): logical payload **bits** and on-the-wire
//! **bytes** of the packed encoding, the latter via [`WireSize`].

use crate::sim::LinkModel;
use crate::threaded::PartyHandle;
use crate::{NodeId, WireSize};
use std::cell::RefCell;
use std::rc::Rc;

/// A batch of packed share bits exchanged in one protocol round.
///
/// `words` carries the payload in a protocol-defined layout; `bits`
/// counts the logical payload bits for traffic accounting (the `bits`
/// unit of the crate's convention). Input-share and output batches use
/// the dense layout — bit `i` at bit `i % 64` of `words[i / 64]`, which
/// is what [`bit`](PackedBatch::bit) reads — while AND-layer batches
/// word-align their two halves (`d` words then `e` words). The wire
/// encoding is a 4-byte length header plus the 8-byte words, which is
/// what [`WireSize`] reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedBatch {
    /// The packed payload, 64 bits per word.
    pub words: Vec<u64>,
    /// Number of logical payload bits in `words`.
    pub bits: usize,
}

impl PackedBatch {
    /// An empty batch (still a protocol message when exchanged).
    pub fn empty() -> Self {
        PackedBatch::default()
    }

    /// Reads logical bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bits`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of range ({})", self.bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

impl WireSize for PackedBatch {
    fn wire_size(&self) -> usize {
        4 + 8 * self.words.len()
    }
}

/// One party's endpoint in a round-synchronized exchange network.
///
/// The send half ([`scatter`](Transport::scatter) /
/// [`broadcast`](Transport::broadcast)) must not block; the round
/// completes when the party calls [`collect`](Transport::collect).
/// Single-threaded backends rely on this split to drive all endpoints
/// in lockstep: first every party deposits, then every party collects.
pub trait Transport {
    /// This party's id.
    fn me(&self) -> usize;

    /// Number of parties in the network.
    fn parties(&self) -> usize;

    /// Sends a personalized batch to every peer. `batches` must hold
    /// one entry per party, indexed by destination; the entry at
    /// [`me`](Transport::me) is ignored.
    fn scatter(&mut self, batches: Vec<PackedBatch>);

    /// Sends the same batch to every peer.
    fn broadcast(&mut self, batch: PackedBatch);

    /// Completes the exchange: returns exactly one batch per peer as
    /// `(sender, batch)`, in ascending sender order.
    fn collect(&mut self) -> Vec<(usize, PackedBatch)>;
}

/// Aggregate traffic observed by a transport hub, in both accounting
/// units (see the crate docs for the bits/bytes convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportReport {
    /// Completed exchanges (protocol rounds).
    pub rounds: usize,
    /// Messages sent across all parties.
    pub messages: u64,
    /// Logical payload bits sent across all parties.
    pub bits: u64,
    /// On-the-wire bytes sent across all parties ([`WireSize`] of every
    /// message).
    pub bytes: u64,
}

// ---------------------------------------------------------------------
// In-process hub
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct InProcessState {
    parties: usize,
    inboxes: Vec<Vec<(usize, PackedBatch)>>,
    deposited: usize,
    /// Bytes of the busiest sender so far in the exchange in progress.
    busiest: usize,
    /// Per completed exchange, in order, its busiest sender's bytes.
    busiest_per_exchange: Vec<usize>,
    report: TransportReport,
}

impl InProcessState {
    fn deposit(&mut self, from: usize, mut per_peer: impl FnMut(usize) -> PackedBatch) {
        let mut sent = 0;
        for to in 0..self.parties {
            if to == from {
                continue;
            }
            let batch = per_peer(to);
            sent += batch.wire_size();
            self.report.messages += 1;
            self.report.bits += batch.bits as u64;
            self.inboxes[to].push((from, batch));
        }
        self.report.bytes += sent as u64;
        self.busiest = self.busiest.max(sent);
        self.deposited += 1;
        if self.deposited == self.parties {
            self.deposited = 0;
            self.report.rounds += 1;
            self.busiest_per_exchange
                .push(std::mem::take(&mut self.busiest));
        }
    }
}

/// Endpoint of the single-threaded in-memory hub — the one lockstep
/// transport.
///
/// Create one endpoint per party with [`InProcessTransport::hub`] and
/// drive them in lockstep (all deposits, then all collects); batches
/// are moved, never serialized. Traffic is shared hub-wide and read
/// back with [`InProcessTransport::report`], simulated network time
/// with [`InProcessTransport::simulated_us`].
#[derive(Debug)]
pub struct InProcessTransport {
    me: usize,
    state: Rc<RefCell<InProcessState>>,
}

impl InProcessTransport {
    /// Creates a connected hub of `parties` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn hub(parties: usize) -> Vec<InProcessTransport> {
        assert!(parties >= 1, "at least one party required");
        let state = Rc::new(RefCell::new(InProcessState {
            parties,
            inboxes: vec![Vec::new(); parties],
            ..InProcessState::default()
        }));
        (0..parties)
            .map(|me| InProcessTransport {
                me,
                state: Rc::clone(&state),
            })
            .collect()
    }

    /// The hub-wide traffic totals so far.
    pub fn report(&self) -> TransportReport {
        self.state.borrow().report
    }

    /// Simulated network time of the exchanges so far under `link`, in
    /// microseconds: one round per exchange, adding
    /// [`LinkModel::round_time_us`] of the busiest sender's bytes in
    /// exchange order — the figure [`crate::sim::Simulator::run`]
    /// reports for the same messages, to the last bit.
    pub fn simulated_us(&self, link: LinkModel) -> f64 {
        self.state
            .borrow()
            .busiest_per_exchange
            .iter()
            .fold(0.0, |us, &bytes| us + link.round_time_us(bytes))
    }
}

impl Transport for InProcessTransport {
    fn me(&self) -> usize {
        self.me
    }

    fn parties(&self) -> usize {
        self.state.borrow().parties
    }

    fn scatter(&mut self, mut batches: Vec<PackedBatch>) {
        let mut state = self.state.borrow_mut();
        assert_eq!(batches.len(), state.parties, "one batch per destination");
        state.deposit(self.me, |to| std::mem::take(&mut batches[to]));
    }

    fn broadcast(&mut self, batch: PackedBatch) {
        let mut state = self.state.borrow_mut();
        state.deposit(self.me, |_| batch.clone());
    }

    fn collect(&mut self) -> Vec<(usize, PackedBatch)> {
        let mut state = self.state.borrow_mut();
        let mut got = std::mem::take(&mut state.inboxes[self.me]);
        assert_eq!(
            got.len(),
            state.parties - 1,
            "collect before every party deposited"
        );
        got.sort_by_key(|&(from, _)| from);
        got
    }
}

// ---------------------------------------------------------------------
// Threaded (crossbeam) transport
// ---------------------------------------------------------------------

/// [`Transport`] over a [`PartyHandle`]: one party per pooled thread with
/// real message exchange.
///
/// Byte/message totals live in the run's shared
/// [`crate::threaded::TrafficCounters`] (the handle counts every send);
/// this wrapper additionally tallies the logical payload bits this
/// endpoint sent, so the caller can sum the per-party results into a
/// run-wide `bits` figure.
#[derive(Debug)]
pub struct ThreadedTransport {
    handle: PartyHandle<PackedBatch>,
    bits_sent: u64,
}

impl ThreadedTransport {
    /// Wraps a party handle.
    pub fn new(handle: PartyHandle<PackedBatch>) -> Self {
        ThreadedTransport {
            handle,
            bits_sent: 0,
        }
    }

    /// Logical payload bits this endpoint has sent.
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }
}

impl Transport for ThreadedTransport {
    fn me(&self) -> usize {
        self.handle.me().index()
    }

    fn parties(&self) -> usize {
        self.handle.parties()
    }

    fn scatter(&mut self, batches: Vec<PackedBatch>) {
        assert_eq!(batches.len(), self.parties(), "one batch per destination");
        let me = self.me();
        for (to, batch) in batches.into_iter().enumerate() {
            if to != me {
                self.bits_sent += batch.bits as u64;
                self.handle.send(NodeId(to), batch);
            }
        }
    }

    fn broadcast(&mut self, batch: PackedBatch) {
        self.bits_sent += (batch.bits * (self.parties() - 1)) as u64;
        self.handle.broadcast(batch);
    }

    fn collect(&mut self) -> Vec<(usize, PackedBatch)> {
        self.handle
            .gather()
            .into_iter()
            .map(|(from, batch)| (from.index(), batch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_parties;

    fn word_batch(v: u64, bits: usize) -> PackedBatch {
        PackedBatch {
            words: vec![v],
            bits,
        }
    }

    /// One lockstep broadcast exchange: everyone sends its id word and
    /// XORs what it collects.
    fn lockstep_xor<T: Transport>(transports: &mut [T]) -> Vec<u64> {
        for (p, t) in transports.iter_mut().enumerate() {
            t.broadcast(word_batch(1 << p, 8));
        }
        transports
            .iter_mut()
            .enumerate()
            .map(|(p, t)| {
                t.collect()
                    .into_iter()
                    .fold(1u64 << p, |acc, (_, b)| acc ^ b.words[0])
            })
            .collect()
    }

    #[test]
    fn packed_batch_bits_and_wire_size() {
        let b = PackedBatch {
            words: vec![0b101, 0b1],
            bits: 65,
        };
        assert!(b.bit(0) && !b.bit(1) && b.bit(2) && b.bit(64));
        assert_eq!(b.wire_size(), 4 + 16);
        assert_eq!(PackedBatch::empty().wire_size(), 4);
    }

    #[test]
    fn in_process_hub_exchanges_and_accounts() {
        let mut hub = InProcessTransport::hub(3);
        let opened = lockstep_xor(&mut hub);
        assert_eq!(opened, vec![0b111; 3]);
        let report = hub[0].report();
        assert_eq!(report.rounds, 1);
        assert_eq!(report.messages, 6);
        assert_eq!(report.bits, 6 * 8);
        assert_eq!(report.bytes, 6 * 12);
    }

    #[test]
    fn in_process_scatter_is_personalized() {
        let mut hub = InProcessTransport::hub(3);
        for (p, t) in hub.iter_mut().enumerate() {
            let batches = (0..3)
                .map(|to| word_batch((p * 10 + to) as u64, 8))
                .collect();
            t.scatter(batches);
        }
        for (p, t) in hub.iter_mut().enumerate() {
            for (from, batch) in t.collect() {
                assert_eq!(batch.words[0], (from * 10 + p) as u64);
            }
        }
    }

    #[test]
    fn in_process_hub_prices_simulated_time_per_exchange() {
        let mut hub = InProcessTransport::hub(4);
        let first = lockstep_xor(&mut hub);
        assert_eq!(first, vec![0b1111; 4]);
        // Every party broadcast one 12-byte batch to 3 peers.
        let round = LinkModel::LAN.round_time_us(3 * 12);
        assert_eq!(hub[0].report().rounds, 1);
        assert_eq!(hub[0].simulated_us(LinkModel::LAN), round);
        // A second exchange adds another round; the link is the
        // caller's choice.
        let second = lockstep_xor(&mut hub);
        assert_eq!(second, vec![0b1111; 4]);
        assert_eq!(hub[0].simulated_us(LinkModel::LAN), round + round);
        let wan = LinkModel::WAN.round_time_us(3 * 12);
        assert_eq!(hub[0].simulated_us(LinkModel::WAN), wan + wan);
    }

    #[test]
    fn in_process_hub_prices_the_busiest_sender_like_the_simulator() {
        use crate::sim::{Context, Node, Simulator};

        /// Party `p` sends a batch of `p + 1` words to every peer.
        struct Sender(Vec<(NodeId, PackedBatch)>);
        impl Node<PackedBatch> for Sender {
            fn on_start(&mut self, ctx: &mut Context<PackedBatch>) {
                for (to, batch) in self.0.drain(..) {
                    ctx.send(to, batch);
                }
            }
            fn on_message(&mut self, _: NodeId, _: PackedBatch, _: &mut Context<PackedBatch>) {}
        }
        let batch = |p: usize| PackedBatch {
            words: vec![7; p + 1],
            bits: 64 * (p + 1),
        };
        let parties = 3;
        let mut hub = InProcessTransport::hub(parties);
        for (p, t) in hub.iter_mut().enumerate() {
            t.broadcast(batch(p));
        }
        for t in hub.iter_mut() {
            t.collect();
        }
        let nodes = (0..parties)
            .map(|p| {
                let peers = (0..parties).filter(|&to| to != p);
                Sender(peers.map(|to| (NodeId(to), batch(p))).collect())
            })
            .collect();
        let sim = Simulator::new(nodes, LinkModel::WAN).run(2);
        let report = hub[0].report();
        assert_eq!((report.rounds, report.messages), (sim.rounds, sim.messages));
        assert_eq!(report.bytes, sim.bytes);
        assert_eq!(hub[0].simulated_us(LinkModel::WAN), sim.simulated_us);
    }

    #[test]
    fn threaded_transport_runs_per_thread() {
        let (results, counters) = run_parties::<PackedBatch, (u64, u64), _>(3, |h| {
            let mut t = ThreadedTransport::new(h);
            let me = t.me();
            t.broadcast(word_batch(1 << me, 8));
            let opened = t
                .collect()
                .into_iter()
                .fold(1u64 << me, |acc, (_, b)| acc ^ b.words[0]);
            (opened, t.bits_sent())
        });
        let bits: u64 = results.iter().map(|&(_, b)| b).sum();
        assert!(results.iter().all(|&(v, _)| v == 0b111));
        assert_eq!(bits, 6 * 8);
        assert_eq!(counters.messages(), 6);
        assert_eq!(counters.bytes(), 6 * 12);
    }
}
