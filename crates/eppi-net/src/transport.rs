//! The one party network: SecSumShare and the packed GMW core send
//! every message through the [`Transport`] trait defined here.
//!
//! The protocol logic lives in sans-io state machines
//! (`eppi-mpc::gmw_core`, `eppi-protocol::secsum`); everything
//! network-shaped is behind [`Transport`], generic over its payload. One
//! protocol *exchange* is: every party [`deposit`](Transport::deposit)s
//! its outgoing messages to the parties it names (GMW's
//! [`scatter`](Transport::scatter) and [`broadcast`](Transport::broadcast)
//! are deposits to every peer), then every party calls
//! [`collect_from`](Transport::collect_from) to receive exactly one
//! message from each party it expects one from. Two implementations
//! cover the two execution styles the workspace needs:
//!
//! * [`InProcessTransport`] — the one lockstep hub: all parties are
//!   driven on one thread (all deposits, then all collects). Besides
//!   traffic it records each exchange's busiest sender, so a run is
//!   priced in simulated network time under any [`LinkModel`]
//!   ([`InProcessTransport::simulated_us`]).
//! * [`ThreadedTransport`] — wraps a [`crate::threaded::PartyHandle`],
//!   so each party can run the straight-line protocol on its own
//!   thread with real (crossbeam) message exchange.
//!
//! Both account traffic in both units of the workspace convention
//! (see the crate docs): logical payload **bits** and on-the-wire
//! **bytes**, via [`WireSize`]. A self-send is a message and its bytes
//! like any other.

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

    fn logical_bits(&self) -> u64 {
        self.bits as u64
    }
}

/// One party's endpoint in a round-synchronized exchange network,
/// carrying payloads of type `M`.
///
/// [`deposit`](Transport::deposit) must not block; the exchange
/// completes when the party calls [`collect_from`](Transport::collect_from).
/// Single-threaded backends rely on this split to drive all endpoints
/// in lockstep: first every party deposits, then every party collects.
pub trait Transport<M: WireSize = PackedBatch> {
    /// This party's id.
    fn me(&self) -> usize;

    /// Number of parties in the network.
    fn parties(&self) -> usize;

    /// Sends this party's messages of the exchange, each `(to, message)`
    /// to the named party (this party included). Called exactly once
    /// per exchange, also with nothing to send: the lockstep hub closes
    /// an exchange once every party has deposited.
    fn deposit(&mut self, messages: Vec<(usize, M)>);

    /// Completes the exchange: returns exactly one message from each
    /// party in `senders` (each named once), as `(sender, message)` in
    /// ascending sender order.
    fn collect_from(&mut self, senders: &[usize]) -> Vec<(usize, M)>;

    /// Deposits a personalized batch for every peer. `batches` must
    /// hold one entry per party, indexed by destination; the entry at
    /// [`me`](Transport::me) is dropped.
    fn scatter(&mut self, batches: Vec<M>) {
        assert_eq!(batches.len(), self.parties(), "one batch per destination");
        let me = self.me();
        let to_peers = batches.into_iter().enumerate().filter(|&(to, _)| to != me);
        self.deposit(to_peers.collect());
    }

    /// Deposits the same batch for every peer.
    fn broadcast(&mut self, batch: M)
    where
        M: Clone,
    {
        let me = self.me();
        let peers = (0..self.parties()).filter(|&to| to != me);
        self.deposit(peers.map(|to| (to, batch.clone())).collect());
    }

    /// Completes an all-to-all exchange: one message from every peer,
    /// in ascending sender order.
    fn collect(&mut self) -> Vec<(usize, M)> {
        let me = self.me();
        let peers: Vec<usize> = (0..self.parties()).filter(|&p| p != me).collect();
        self.collect_from(&peers)
    }
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

#[derive(Debug)]
struct InProcessState<M> {
    /// Per party, the messages deposited for it this exchange.
    inboxes: Vec<Vec<(usize, M)>>,
    deposited: usize,
    /// Bytes of the busiest sender so far in the exchange in progress.
    busiest: usize,
    /// Per completed exchange, in order, its busiest sender's bytes.
    busiest_per_exchange: Vec<usize>,
    report: TransportReport,
}

impl<M: WireSize> InProcessState<M> {
    fn deposit(&mut self, from: usize, messages: Vec<(usize, M)>) {
        let parties = self.inboxes.len();
        let mut sent = 0;
        for (to, message) in messages {
            assert!(to < parties, "party {from} sent to unknown party {to}");
            sent += message.wire_size();
            self.report.messages += 1;
            self.report.bits += message.logical_bits();
            self.inboxes[to].push((from, message));
        }
        self.report.bytes += sent as u64;
        self.busiest = self.busiest.max(sent);
        self.deposited += 1;
        if self.deposited == parties {
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
/// drive them in lockstep (all deposits, then all collects); messages
/// are moved, never serialized. Traffic is shared hub-wide and read
/// back with [`InProcessTransport::report`], simulated network time
/// with [`InProcessTransport::simulated_us`].
#[derive(Debug)]
pub struct InProcessTransport<M = PackedBatch> {
    me: usize,
    state: Rc<RefCell<InProcessState<M>>>,
}

impl<M: WireSize> InProcessTransport<M> {
    /// Creates a connected hub of `parties` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn hub(parties: usize) -> Vec<Self> {
        assert!(parties >= 1, "at least one party required");
        let state = Rc::new(RefCell::new(InProcessState {
            inboxes: (0..parties).map(|_| Vec::new()).collect(),
            deposited: 0,
            busiest: 0,
            busiest_per_exchange: Vec::new(),
            report: TransportReport::default(),
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
    /// [`LinkModel::round_time_us`] of the busiest sender's bytes (its
    /// self-sends included) in exchange order.
    pub fn simulated_us(&self, link: LinkModel) -> f64 {
        self.state
            .borrow()
            .busiest_per_exchange
            .iter()
            .fold(0.0, |us, &bytes| us + link.round_time_us(bytes))
    }
}

impl<M: WireSize> Transport<M> for InProcessTransport<M> {
    fn me(&self) -> usize {
        self.me
    }

    fn parties(&self) -> usize {
        self.state.borrow().inboxes.len()
    }

    fn deposit(&mut self, messages: Vec<(usize, M)>) {
        self.state.borrow_mut().deposit(self.me, messages);
    }

    /// # Panics
    ///
    /// Panics, naming this party and the sender, unless the exchange
    /// brought exactly one message from each of `senders` and no other.
    fn collect_from(&mut self, senders: &[usize]) -> Vec<(usize, M)> {
        let me = self.me;
        let mut got = std::mem::take(&mut self.state.borrow_mut().inboxes[me]);
        got.sort_by_key(|&(from, _)| from);
        let mut expected = senders.to_vec();
        expected.sort_unstable();
        let arrived: Vec<usize> = got.iter().map(|&(from, _)| from).collect();
        if arrived != expected {
            if let Some(from) = expected.iter().find(|from| !arrived.contains(from)) {
                panic!("party {me} got no message from party {from}");
            }
            panic!("party {me} expected one message from each of {expected:?}, got {arrived:?}");
        }
        got
    }
}

// ---------------------------------------------------------------------
// Threaded (crossbeam) transport
// ---------------------------------------------------------------------

/// [`Transport`] over a [`PartyHandle`]: one party per thread with real
/// message exchange.
///
/// Byte/message totals live in the run's shared
/// [`crate::threaded::TrafficCounters`] (the handle counts every send);
/// this wrapper additionally tallies the logical payload bits this
/// endpoint sent, so the caller can sum the per-party results into a
/// run-wide `bits` figure.
#[derive(Debug)]
pub struct ThreadedTransport<M = PackedBatch> {
    handle: PartyHandle<M>,
    bits_sent: u64,
}

impl<M> ThreadedTransport<M> {
    /// Wraps a party handle.
    pub fn new(handle: PartyHandle<M>) -> Self {
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

impl<M: WireSize + Send + Clone> Transport<M> for ThreadedTransport<M> {
    fn me(&self) -> usize {
        self.handle.me().index()
    }

    fn parties(&self) -> usize {
        self.handle.parties()
    }

    fn deposit(&mut self, messages: Vec<(usize, M)>) {
        for (to, message) in messages {
            self.bits_sent += message.logical_bits();
            self.handle.send(NodeId(to), message);
        }
    }

    fn collect_from(&mut self, senders: &[usize]) -> Vec<(usize, M)> {
        let got = self.handle.gather_from(senders);
        got.into_iter().map(|(from, m)| (from.index(), m)).collect()
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
    fn sparse_deposits_count_self_sends_and_price_the_busiest_sender() {
        // Party p sends a (p + 1)-word batch to party 0, itself included.
        let batch = |p: usize| PackedBatch {
            words: vec![7; p + 1],
            bits: 64 * (p + 1),
        };
        let mut hub = InProcessTransport::hub(3);
        for (p, t) in hub.iter_mut().enumerate() {
            t.deposit(vec![(0, batch(p))]);
        }
        let got = hub[0].collect_from(&[2, 0, 1]);
        assert_eq!(
            got.iter().map(|&(from, _)| from).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert!(hub[1].collect_from(&[]).is_empty());
        let report = hub[0].report();
        assert_eq!((report.rounds, report.messages), (1, 3));
        assert_eq!((report.bits, report.bytes), (64 * 6, 3 * 4 + 8 * 6));
        let busiest = LinkModel::WAN.round_time_us(4 + 8 * 3);
        assert_eq!(hub[0].simulated_us(LinkModel::WAN), busiest);
    }

    #[test]
    #[should_panic(expected = "party 1 got no message from party 2")]
    fn a_missing_message_is_named_at_collect() {
        let mut hub = InProcessTransport::hub(3);
        hub[0].deposit(vec![(1, word_batch(1, 8))]);
        hub[1].deposit(Vec::new());
        hub[2].deposit(Vec::new());
        hub[1].collect_from(&[0, 2]);
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
