//! Real multi-threaded party execution over crossbeam channels.
//!
//! Each party runs on a scoped thread of its own (named `eppi-party`),
//! with a [`PartyHandle`] giving it point-to-point `send`/`recv`,
//! `broadcast`, and `gather` primitives; [`crate::transport::ThreadedTransport`]
//! puts the [`crate::transport::Transport`] exchange on top. Traffic is
//! counted run-wide with atomics at the send site, so wall-clock
//! experiments (Fig. 6a/6c) can report bandwidth.
//!
//! A party that panics does not leave its peers waiting: its handle,
//! dropped while unwinding, tells every party (its own included) that
//! it is dead. A blocking receive then panics naming the dead party, a
//! bounded one returns [`TransportError::Disconnected`], and
//! [`run_parties`] re-raises the first party's panic.

use crate::{NodeId, WireSize};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What travels on a party's channel: a payload from the named party,
/// or `None` — the named party panicked.
type Envelope<P> = (NodeId, Option<P>);

/// No party has died yet (the initial value of a run's first death).
const NO_DEATH: usize = usize::MAX;

/// Party threads [`run_parties`] has started in this process.
static PARTY_THREADS: AtomicU64 = AtomicU64::new(0);

/// The number of party threads [`run_parties`] has started in this
/// process — one per party per run; nothing else in the workspace's
/// protocol code starts a thread.
pub fn party_threads_started() -> u64 {
    PARTY_THREADS.load(Ordering::Relaxed)
}

/// A typed receive failure of the threaded network — the alternative to
/// hanging forever when a peer thread dies mid-round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// A peer announced its death, or every channel into this party
    /// has been dropped: no further message can be relied on.
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

/// Shared traffic counters of one threaded run: totals over all
/// parties.
#[derive(Debug, Default)]
pub struct TrafficCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl TrafficCounters {
    /// Total messages sent by all parties.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent by all parties.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A party's endpoint in the threaded network, owned by the one thread
/// that runs the party. All traffic accounting happens at the send
/// site.
///
/// Dropping a handle while its thread panics announces the party's
/// death to every party, this one included, so nobody waits forever
/// for its messages.
#[derive(Debug)]
pub struct PartyHandle<P> {
    me: NodeId,
    senders: Vec<Sender<Envelope<P>>>,
    receiver: Receiver<Envelope<P>>,
    counters: Arc<TrafficCounters>,
    /// The run's first party to die ([`NO_DEATH`] while none has).
    first_death: Arc<AtomicUsize>,
    /// Messages that arrived ahead of their gather step, per sender.
    pending: Vec<VecDeque<P>>,
    /// The party whose death notice arrived; every later receive fails.
    dead: Option<NodeId>,
}

impl<P> Drop for PartyHandle<P> {
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

impl<P: WireSize + Send + Clone> PartyHandle<P> {
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
        self.counters.messages.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(payload.wire_size() as u64, Ordering::Relaxed);
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
        let peers = self.peers();
        self.gather_from(&peers)
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
        let peers = self.peers();
        self.try_gather(&peers, Some(timeout))
    }

    /// Receives exactly one message from each of `senders` (this party
    /// may be one), returned in ascending sender order; see
    /// [`gather`](Self::gather).
    pub(crate) fn gather_from(&mut self, senders: &[usize]) -> Vec<(NodeId, P)> {
        self.try_gather(senders, None)
            .unwrap_or_else(|_| self.hung_up())
    }

    fn peers(&self) -> Vec<usize> {
        let me = self.me.index();
        (0..self.parties()).filter(|&p| p != me).collect()
    }

    fn try_gather(
        &mut self,
        senders: &[usize],
        timeout: Option<Duration>,
    ) -> Result<Vec<(NodeId, P)>, TransportError> {
        let deadline = timeout.map(|t| (Instant::now() + t, t));
        let mut wanted = vec![false; self.parties()];
        let mut got: Vec<Option<P>> = vec![None; self.parties()];
        let mut remaining = senders.len();
        // Serve buffered messages first.
        for &p in senders {
            wanted[p] = true;
            if let Some(payload) = self.pending[p].pop_front() {
                got[p] = Some(payload);
                remaining -= 1;
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
            let from = from.index();
            if wanted[from] && got[from].is_none() {
                got[from] = Some(payload);
                remaining -= 1;
            } else {
                self.pending[from].push_back(payload);
            }
        }
        Ok(got
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (NodeId(i), p)))
            .collect())
    }
}

/// Runs `parties` parties, each executing `body(handle)` on a scoped
/// thread of its own, and returns their results in party order plus
/// the traffic counters.
///
/// # Panics
///
/// Panics if `parties == 0`, or if the OS refuses to start a thread
/// (the parties already started are told that the missing one is
/// dead, so none of them waits for it). If a party panics, its peers
/// are woken (see [`PartyHandle`]) and, once every party has returned
/// or unwound, the first party's panic is re-raised with its own
/// payload.
pub fn run_parties<P, T, F>(parties: usize, body: F) -> (Vec<T>, Arc<TrafficCounters>)
where
    P: WireSize + Send + Clone,
    T: Send,
    F: Fn(PartyHandle<P>) -> T + Sync,
{
    assert!(parties >= 1, "at least one party required");
    let counters = Arc::new(TrafficCounters::default());
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
            me: NodeId(i),
            senders: senders.clone(),
            receiver,
            counters: Arc::clone(&counters),
            first_death: Arc::clone(&first_death),
            pending: (0..parties).map(|_| VecDeque::new()).collect(),
            dead: None,
        })
        .collect();

    let body = &body;
    let outcomes = thread::scope(|s| {
        let mut joins = Vec::with_capacity(parties);
        for h in handles {
            let me = h.me;
            let started = thread::Builder::new()
                .name("eppi-party".into())
                .spawn_scoped(s, move || body(h));
            match started {
                Ok(join) => joins.push(join),
                Err(err) => {
                    // The unstarted party's handle is gone: announce its
                    // death for it. The handles not yet started announce
                    // their own as this panic drops them.
                    for tx in &senders {
                        let _ = tx.send((me, None));
                    }
                    panic!("cannot start a party thread: {err}");
                }
            }
            PARTY_THREADS.fetch_add(1, Ordering::Relaxed);
        }
        drop(senders);
        joins
            .into_iter()
            .map(thread::ScopedJoinHandle::join)
            .collect::<Vec<_>>()
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
