//! Real multi-threaded party execution over crossbeam channels.
//!
//! Each party runs as a job on the [`executor`]'s pooled threads, with
//! a [`PartyHandle`] giving it point-to-point `send`/`recv`,
//! `broadcast`, and `gather` primitives — the communication patterns
//! the ε-PPI construction protocol needs. Traffic is counted with
//! atomics — totals plus a per-peer split (messages, bytes, and gather
//! rounds) — so wall-clock experiments (Fig. 6a/6c) can report
//! bandwidth.
//!
//! A party that panics does not leave its peers waiting: its sending
//! half, dropped while unwinding, tells every party (its own included)
//! that it is dead. A blocking receive then panics naming the dead
//! party, a bounded one returns [`TransportError::Disconnected`], and
//! [`run_parties`] re-raises the first party's panic.

use crate::executor::{self, Handle};
use crate::{NodeId, WireSize};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What travels on a party's channel: a payload from the named party,
/// or `None` — the named party panicked.
type Envelope<P> = (NodeId, Option<P>);

/// No party has died yet (the initial value of a run's first death).
const NO_DEATH: usize = usize::MAX;

/// A typed receive failure of the threaded network — the alternative to
/// hanging forever when a peer thread dies mid-round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Every channel into this party has been dropped: the peers (and
    /// this party's own sending half, if split) are gone, so no message
    /// can ever arrive again.
    Disconnected,
    /// No message arrived within the deadline. A healthy protocol step
    /// completes in microseconds; a long silence means a peer died while
    /// still holding its sending half (e.g. its thread is wedged or was
    /// killed without unwinding).
    Timeout {
        /// How long the receiver waited before giving up.
        waited: Duration,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "all peers disconnected"),
            TransportError::Timeout { waited } => {
                write!(f, "no message within {:.1?} — peer presumed dead", waited)
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// One party's share of the traffic in a threaded run.
#[derive(Debug, Default)]
pub struct PartyTraffic {
    messages: AtomicU64,
    bytes: AtomicU64,
    rounds: AtomicU64,
}

impl PartyTraffic {
    /// Messages this party sent.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Payload bytes this party sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Synchronization rounds ([`PartyHandle::gather`] calls) this
    /// party completed.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }
}

/// Shared traffic counters of one threaded run: run-wide totals plus
/// the per-peer split.
#[derive(Debug, Default)]
pub struct TrafficCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
    per_party: Vec<PartyTraffic>,
}

impl TrafficCounters {
    /// Counters for a run of `parties` parties.
    pub fn new(parties: usize) -> Self {
        TrafficCounters {
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            per_party: (0..parties).map(|_| PartyTraffic::default()).collect(),
        }
    }

    /// Total messages sent by all parties.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent by all parties.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The per-peer traffic split, indexed by party id.
    pub fn per_party(&self) -> &[PartyTraffic] {
        &self.per_party
    }
}

/// The sending half of a party's endpoint: cheap to clone, safe to own
/// from one thread while another holds the [`PartyReceiver`]. All
/// traffic accounting happens here, at the send site.
///
/// Dropping a `PartySender` (or any clone of it) while its thread
/// panics announces the party's death to every party, this one
/// included, so nobody waits forever for its messages: a thread that
/// works for a party and may panic should hold a clone.
#[derive(Debug, Clone)]
pub struct PartySender<P> {
    me: NodeId,
    senders: Vec<Sender<Envelope<P>>>,
    counters: Arc<TrafficCounters>,
    /// The run's first party to die ([`NO_DEATH`] while none has).
    first_death: Arc<AtomicUsize>,
}

impl<P> Drop for PartySender<P> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.first_death.compare_exchange(
                NO_DEATH,
                self.me.index(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            for tx in &self.senders {
                // A party already gone needs no notice.
                let _ = tx.send((self.me, None));
            }
        }
    }
}

impl<P: WireSize + Send + Clone> PartySender<P> {
    /// This party's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of parties in the network.
    pub fn parties(&self) -> usize {
        self.senders.len()
    }

    /// Sends `payload` to party `to` (sending to oneself is allowed).
    ///
    /// # Panics
    ///
    /// Panics if the receiving party has already shut down.
    pub fn send(&self, to: NodeId, payload: P) {
        let size = payload.wire_size() as u64;
        self.counters.messages.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(size, Ordering::Relaxed);
        let mine = &self.counters.per_party[self.me.index()];
        mine.messages.fetch_add(1, Ordering::Relaxed);
        mine.bytes.fetch_add(size, Ordering::Relaxed);
        self.senders[to.index()]
            .send((self.me, Some(payload)))
            .expect("receiving party hung up");
    }

    /// Sends `payload` to every *other* party.
    pub fn broadcast(&self, payload: P) {
        for p in 0..self.parties() {
            if p != self.me.index() {
                self.send(NodeId(p), payload.clone());
            }
        }
    }

    /// Like [`send`](Self::send), but reports a vanished receiver as a
    /// typed error instead of panicking — what a long-lived sender
    /// thread wants when a peer may already have failed and unwound.
    /// Traffic is only counted on success.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if `to`'s receiving half is
    /// gone.
    pub fn send_checked(&self, to: NodeId, payload: P) -> Result<(), TransportError> {
        let size = payload.wire_size() as u64;
        self.senders[to.index()]
            .send((self.me, Some(payload)))
            .map_err(|_| TransportError::Disconnected)?;
        self.counters.messages.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(size, Ordering::Relaxed);
        let mine = &self.counters.per_party[self.me.index()];
        mine.messages.fetch_add(1, Ordering::Relaxed);
        mine.bytes.fetch_add(size, Ordering::Relaxed);
        Ok(())
    }
}

/// The receiving half of a party's endpoint.
#[derive(Debug)]
pub struct PartyReceiver<P> {
    me: NodeId,
    parties: usize,
    receiver: Receiver<Envelope<P>>,
    counters: Arc<TrafficCounters>,
    /// Messages that arrived ahead of their gather step, per sender.
    pending: Vec<std::collections::VecDeque<P>>,
    /// The party whose death notice arrived; every later receive fails.
    dead: Option<NodeId>,
}

impl<P: WireSize + Send + Clone> PartyReceiver<P> {
    /// This party's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of parties in the network.
    pub fn parties(&self) -> usize {
        self.parties
    }

    fn pop_pending(&mut self) -> Option<(NodeId, P)> {
        for (p, queue) in self.pending.iter_mut().enumerate() {
            if let Some(payload) = queue.pop_front() {
                return Some((NodeId(p), payload));
            }
        }
        None
    }

    /// The next message off the channel, waiting at most until
    /// `deadline` (reported as having waited `waited`) if one is given.
    fn pull(
        &mut self,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<(NodeId, P), TransportError> {
        if self.dead.is_some() {
            return Err(TransportError::Disconnected);
        }
        let received = match deadline {
            None => self
                .receiver
                .recv()
                .map_err(|_| TransportError::Disconnected),
            Some((deadline, waited)) => {
                let left = deadline.saturating_duration_since(Instant::now());
                self.receiver.recv_timeout(left).map_err(|e| match e {
                    RecvTimeoutError::Disconnected => TransportError::Disconnected,
                    RecvTimeoutError::Timeout => TransportError::Timeout { waited },
                })
            }
        };
        match received? {
            (from, Some(payload)) => Ok((from, payload)),
            (from, None) => {
                self.dead = Some(from);
                Err(TransportError::Disconnected)
            }
        }
    }

    /// The panic of a blocking receive that cannot complete.
    fn hung_up(&self) -> ! {
        match self.dead {
            Some(peer) => panic!("party {} stops: party {peer} panicked", self.me),
            None => panic!("all parties hung up"),
        }
    }

    /// Blocks until the next message arrives. Messages buffered by an
    /// earlier [`gather`](Self::gather) are delivered first, in sender
    /// order.
    ///
    /// # Panics
    ///
    /// Panics, naming the dead party, once a party has panicked, and
    /// if all senders have disconnected (protocol bug).
    pub fn recv(&mut self) -> (NodeId, P) {
        if let Some(got) = self.pop_pending() {
            return got;
        }
        self.pull(None).unwrap_or_else(|_| self.hung_up())
    }

    /// Like [`recv`](Self::recv), but gives up after `timeout` instead
    /// of hanging forever when a peer thread died mid-round.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when every sending half is
    /// dropped or a party has panicked; [`TransportError::Timeout`]
    /// when nothing arrived in time.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, P), TransportError> {
        if let Some(got) = self.pop_pending() {
            return Ok(got);
        }
        self.pull(Some((Instant::now() + timeout, timeout)))
    }

    /// Receives exactly one message from every other party, returned in
    /// sender order.
    ///
    /// Parties run asynchronously, so a fast peer may already have sent
    /// messages belonging to a *later* protocol step; those are buffered
    /// and served by the next `gather`/[`recv`](Self::recv) instead of
    /// corrupting this one.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`recv`](Self::recv).
    pub fn gather(&mut self) -> Vec<(NodeId, P)> {
        self.try_gather(None).unwrap_or_else(|_| self.hung_up())
    }

    /// Like [`gather`](Self::gather), but bounds the *total* wait: the
    /// deadline covers the whole round, not each message.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if the round did not complete within
    /// `timeout`; [`TransportError::Disconnected`] if every sending
    /// half dropped or a party panicked first. Either way the messages
    /// that did arrive stay buffered for a later receive, so an error
    /// leaves no data behind.
    pub fn gather_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Vec<(NodeId, P)>, TransportError> {
        self.try_gather(Some(timeout))
    }

    fn try_gather(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Vec<(NodeId, P)>, TransportError> {
        let parties = self.parties;
        let me = self.me.index();
        self.counters.per_party[me]
            .rounds
            .fetch_add(1, Ordering::Relaxed);
        let deadline = timeout.map(|t| (Instant::now() + t, t));
        let mut got: Vec<Option<P>> = vec![None; parties];
        let mut remaining = parties - 1;
        // Serve buffered messages first.
        for (p, slot) in got.iter_mut().enumerate() {
            if p != me && slot.is_none() {
                if let Some(payload) = self.pending[p].pop_front() {
                    *slot = Some(payload);
                    remaining -= 1;
                }
            }
        }
        while remaining > 0 {
            let (from, payload) = match self.pull(deadline) {
                Ok(got) => got,
                Err(err) => {
                    // Re-buffer partial progress so the failed round
                    // leaves the receiver in a consistent state.
                    for (p, slot) in got.into_iter().enumerate() {
                        if let Some(payload) = slot {
                            self.pending[p].push_front(payload);
                        }
                    }
                    return Err(err);
                }
            };
            if got[from.index()].is_none() {
                got[from.index()] = Some(payload);
                remaining -= 1;
            } else {
                self.pending[from.index()].push_back(payload);
            }
        }
        Ok(got
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (NodeId(i), p)))
            .collect())
    }
}

/// A party's endpoint in the threaded network: the sending and
/// receiving halves bundled for the common one-thread-per-party use.
/// [`split`](Self::split) separates them when sending and receiving
/// live on different threads.
#[derive(Debug)]
pub struct PartyHandle<P> {
    tx: PartySender<P>,
    rx: PartyReceiver<P>,
}

impl<P: WireSize + Send + Clone> PartyHandle<P> {
    /// This party's id.
    pub fn me(&self) -> NodeId {
        self.tx.me
    }

    /// Number of parties in the network.
    pub fn parties(&self) -> usize {
        self.tx.parties()
    }

    /// Splits the endpoint into its independently-owned halves.
    pub fn split(self) -> (PartySender<P>, PartyReceiver<P>) {
        (self.tx, self.rx)
    }

    /// Sends `payload` to party `to` (sending to oneself is allowed).
    ///
    /// # Panics
    ///
    /// Panics if the receiving party has already shut down.
    pub fn send(&self, to: NodeId, payload: P) {
        self.tx.send(to, payload);
    }

    /// Blocks until the next message arrives. Messages buffered by an
    /// earlier [`gather`](Self::gather) are delivered first, in sender
    /// order.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`PartyReceiver::recv`].
    pub fn recv(&mut self) -> (NodeId, P) {
        self.rx.recv()
    }

    /// Bounded receive; see [`PartyReceiver::recv_timeout`].
    ///
    /// # Errors
    ///
    /// [`TransportError`] when the peer is gone or silent too long.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, P), TransportError> {
        self.rx.recv_timeout(timeout)
    }

    /// Sends `payload` to every *other* party.
    pub fn broadcast(&self, payload: P) {
        self.tx.broadcast(payload);
    }

    /// Receives exactly one message from every other party, returned in
    /// sender order; see [`PartyReceiver::gather`].
    pub fn gather(&mut self) -> Vec<(NodeId, P)> {
        self.rx.gather()
    }

    /// Bounded gather; see [`PartyReceiver::gather_timeout`].
    ///
    /// # Errors
    ///
    /// [`TransportError`] when the round cannot complete.
    pub fn gather_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Vec<(NodeId, P)>, TransportError> {
        self.rx.gather_timeout(timeout)
    }
}

/// Runs `parties` parties, each executing `body(handle)` on a pooled
/// thread of the [`executor`], and returns their results in party order
/// plus the traffic counters.
///
/// # Panics
///
/// Panics if `parties == 0`. If a party panics, its peers are woken
/// (see [`PartySender`]) and, once every party has returned or
/// unwound, the first party's panic is re-raised with its own payload.
pub fn run_parties<P, T, F>(parties: usize, body: F) -> (Vec<T>, Arc<TrafficCounters>)
where
    P: WireSize + Send + Clone + 'static,
    T: Send,
    F: Fn(PartyHandle<P>) -> T + Sync,
{
    assert!(parties >= 1, "at least one party required");
    let counters = Arc::new(TrafficCounters::new(parties));
    let first_death = Arc::new(AtomicUsize::new(NO_DEATH));
    let mut senders = Vec::with_capacity(parties);
    let mut receivers = Vec::with_capacity(parties);
    for _ in 0..parties {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }

    let handles: Vec<PartyHandle<P>> = receivers
        .into_iter()
        .enumerate()
        .map(|(i, receiver)| PartyHandle {
            tx: PartySender {
                me: NodeId(i),
                senders: senders.clone(),
                counters: Arc::clone(&counters),
                first_death: Arc::clone(&first_death),
            },
            rx: PartyReceiver {
                me: NodeId(i),
                parties,
                receiver,
                counters: Arc::clone(&counters),
                pending: (0..parties)
                    .map(|_| std::collections::VecDeque::new())
                    .collect(),
                dead: None,
            },
        })
        .collect();
    drop(senders);

    let body = &body;
    executor::reserve(parties);
    let outcomes = executor::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| s.spawn(move |_| body(h)))
            .collect();
        joins.into_iter().map(Handle::join).collect::<Vec<_>>()
    });
    let mut results = Vec::with_capacity(parties);
    let mut panics = Vec::new();
    for (party, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(result) => results.push(result),
            Err(payload) => panics.push((party, payload)),
        }
    }
    if !panics.is_empty() {
        let first = first_death.load(Ordering::SeqCst);
        let at = panics.iter().position(|&(p, _)| p == first).unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(at).1);
    }
    (results, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_sum() {
        // Each party broadcasts its value; everyone computes the sum.
        let (results, counters) = run_parties::<u64, u64, _>(4, |mut h| {
            let mine = (h.me().index() as u64 + 1) * 10;
            h.broadcast(mine);
            let others: u64 = h.gather().into_iter().map(|(_, v)| v).sum();
            mine + others
        });
        assert_eq!(results, vec![100, 100, 100, 100]);
        assert_eq!(counters.messages(), 4 * 3);
        assert_eq!(counters.bytes(), 4 * 3 * 8);
        // The per-peer split accounts for every total.
        assert_eq!(counters.per_party().len(), 4);
        for party in counters.per_party() {
            assert_eq!(party.messages(), 3);
            assert_eq!(party.bytes(), 24);
            assert_eq!(party.rounds(), 1);
        }
    }

    #[test]
    fn point_to_point_ring() {
        let n = 5;
        let (results, _) = run_parties::<u64, u64, _>(n, move |mut h| {
            let next = NodeId((h.me().index() + 1) % n);
            h.send(next, h.me().index() as u64);
            let (_, v) = h.recv();
            v
        });
        // Party i receives from its predecessor.
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn single_party_runs() {
        let (results, counters) = run_parties::<u64, &'static str, _>(1, |_| "done");
        assert_eq!(results, vec!["done"]);
        assert_eq!(counters.messages(), 0);
    }

    #[test]
    fn dead_peer_surfaces_timeout_instead_of_hanging() {
        // Party 0 dies mid-protocol (returns without sending; its own
        // sender clones into party 1 are dropped, but party 1 still
        // holds a sender to itself, so the channel never disconnects —
        // the exact case that used to hang `gather` forever).
        let (results, _) = run_parties::<u64, Option<TransportError>, _>(2, |mut h| {
            if h.me().index() == 0 {
                return None;
            }
            h.gather_timeout(Duration::from_millis(50)).err()
        });
        assert_eq!(results[0], None);
        assert!(
            matches!(results[1], Some(TransportError::Timeout { .. })),
            "expected Timeout, got {:?}",
            results[1]
        );
    }

    #[test]
    fn fully_disconnected_receiver_reports_disconnected() {
        // With split halves a party can drop its *own* sending half
        // too; once the dead peer's senders go as well, the receiver
        // sees a true disconnect rather than a timeout.
        let (results, _) = run_parties::<u64, Option<TransportError>, _>(2, |h| {
            let me = h.me().index();
            let (tx, mut rx) = h.split();
            drop(tx);
            if me == 0 {
                return None;
            }
            rx.recv_timeout(Duration::from_secs(10)).err()
        });
        assert_eq!(results[1], Some(TransportError::Disconnected));
    }

    #[test]
    fn gather_timeout_error_leaves_partial_round_buffered() {
        // Party 1 sends its round message; party 2 never does. Party
        // 0's gather times out, but party 1's message must survive for
        // the retry (here: a plain recv).
        let (results, _) = run_parties::<u64, u64, _>(3, |mut h| match h.me().index() {
            0 => {
                let err = h
                    .gather_timeout(Duration::from_millis(40))
                    .expect_err("party 2 never sent");
                assert!(matches!(err, TransportError::Timeout { .. }));
                let (from, v) = h.recv();
                assert_eq!(from.index(), 1);
                v
            }
            1 => {
                h.send(NodeId(0), 77);
                0
            }
            _ => 0,
        });
        assert_eq!(results[0], 77);
    }

    #[test]
    fn send_checked_reports_gone_receiver() {
        let (results, _) = run_parties::<u64, bool, _>(2, |h| {
            let me = h.me().index();
            let (tx, mut rx) = h.split();
            if me == 0 {
                drop(rx);
                return true;
            }
            // Wait for party 0's receiver to be gone, then send into it.
            let err = loop {
                match tx.send_checked(NodeId(0), 5) {
                    Ok(()) => std::thread::yield_now(),
                    Err(e) => break e,
                }
            };
            assert_eq!(err, TransportError::Disconnected);
            // Drain anything party 0 never consumed; our own queue is
            // empty and both its senders eventually drop.
            let _ = rx.recv_timeout(Duration::from_millis(10));
            true
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn gather_returns_in_sender_order() {
        let (results, _) = run_parties::<u64, Vec<usize>, _>(3, |mut h| {
            h.broadcast(h.me().index() as u64);
            h.gather()
                .into_iter()
                .map(|(from, _)| from.index())
                .collect()
        });
        assert_eq!(results[0], vec![1, 2]);
        assert_eq!(results[1], vec![0, 2]);
        assert_eq!(results[2], vec![0, 1]);
    }
}
