//! The SecSumShare protocol (§IV-B.1, Fig. 3).
//!
//! Given `m` providers each holding a private Boolean per identity, the
//! protocol outputs `c` share vectors — one per coordinator — whose
//! per-identity sums equal the identity frequencies, without revealing
//! any individual input (collusion of fewer than `c` providers learns
//! nothing; Theorem 4.1). All identities run in parallel: each message
//! batches one share per identity.
//!
//! The four steps of Fig. 3:
//!
//! 1. **Generating shares** — each provider splits each input bit into
//!    `c` additive shares mod `q`.
//! 2. **Distributing shares** — the `k`-th share goes to the provider's
//!    `k`-th ring successor (share 0 stays local).
//! 3. **Summing shares** — each provider sums everything it received
//!    into its *super-share*.
//! 4. **Aggregating super-shares** — provider `i` sends its super-share
//!    to coordinator `i mod c`; the coordinator sums them into its output
//!    vector `s(k, ·)`.
//!
//! The four steps are written once, in `ProviderNode` — a sans-io
//! state machine that turns "started" and "received this message" into
//! "send these messages". Two runtimes move the messages: the
//! deterministic round-based simulator ([`secsumshare_sim`], scales to
//! the paper's 10,000-provider networks and models link time) and one
//! OS thread per provider ([`secsumshare_threaded_stats`], wall-clock
//! experiments). Same node, same per-provider seeding, so shares,
//! message counts and bytes are identical across the two.

use eppi_core::model::{LocalVector, OwnerId};
use eppi_mpc::field::Modulus;
use eppi_net::sim::{Context, LinkModel, NetStats, Node, Simulator};
use eppi_net::threaded::run_parties;
use eppi_net::topology::Ring;
use eppi_net::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one SecSumShare run.
#[derive(Debug, Clone, PartialEq)]
pub struct SecSumOutput {
    /// Per-coordinator share vectors `s(k, ·)`, `k ∈ [0, c)`; each has
    /// one element per identity. Their element-wise sum mod `q` equals
    /// the identity frequencies.
    pub coordinator_shares: Vec<Vec<u64>>,
    /// Traffic statistics of the run.
    pub stats: NetStats,
}

/// Protocol message: a batch of share values, one per identity.
#[derive(Debug, Clone, PartialEq)]
enum SecSumMsg {
    /// Step-2 share distribution to a ring successor.
    Share(Vec<u64>),
    /// Step-4 super-share aggregation at a coordinator.
    SuperShare(Vec<u64>),
}

impl eppi_net::WireSize for SecSumMsg {
    fn wire_size(&self) -> usize {
        match self {
            SecSumMsg::Share(v) | SecSumMsg::SuperShare(v) => v.wire_size() + 1,
        }
    }
}

/// One provider (and, for the first `c` ids, coordinator) of the
/// protocol, independent of how its messages travel.
struct ProviderNode {
    me: NodeId,
    ring: Ring,
    modulus: Modulus,
    inputs: Vec<u64>,
    rng: StdRng,
    /// Accumulating super-share (own kept share + received shares).
    super_share: Vec<u64>,
    shares_received: usize,
    /// Coordinator state: aggregated super-shares.
    aggregate: Vec<u64>,
    supers_received: usize,
    supers_expected: usize,
}

impl ProviderNode {
    /// Provider `me` of the `ring`, holding `vector`, with its share
    /// randomness derived from the run `seed`.
    fn new(me: usize, vector: &LocalVector, ring: Ring, modulus: Modulus, seed: u64) -> Self {
        let n = vector.owners();
        let (m, c) = (ring.nodes(), ring.coordinators());
        ProviderNode {
            me: NodeId(me),
            ring,
            modulus,
            inputs: (0..n)
                .map(|j| u64::from(vector.get(OwnerId(j as u32))))
                .collect(),
            rng: StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9e3779b97f4a7c15)),
            super_share: vec![0; n],
            shares_received: 0,
            aggregate: vec![0; n],
            supers_expected: if me < c {
                providers_per_coordinator(m, c, me)
            } else {
                0
            },
            supers_received: 0,
        }
    }

    /// Steps 1+2: split every input into c shares; keep share 0, send
    /// share k to the k-th successor. Returns the messages to send.
    fn start(&mut self) -> Vec<(NodeId, SecSumMsg)> {
        let c = self.ring.coordinators();
        let mut outgoing: Vec<Vec<u64>> = vec![vec![0; self.inputs.len()]; c - 1];
        for (j, &input) in self.inputs.iter().enumerate() {
            let shares = eppi_mpc::share::split(input, c, self.modulus, &mut self.rng);
            self.super_share[j] = shares.values()[0];
            for k in 1..c {
                outgoing[k - 1][j] = shares.values()[k];
            }
        }
        let mut out: Vec<(NodeId, SecSumMsg)> = outgoing
            .into_iter()
            .enumerate()
            .map(|(k, batch)| (self.ring.successor(self.me, k + 1), SecSumMsg::Share(batch)))
            .collect();
        // Degenerate single-coordinator network: nothing to wait for.
        if c == 1 {
            out.push(self.finish_super_share());
        }
        out
    }

    /// Steps 3+4 for one delivered message; returns the super-share to
    /// route once the last predecessor's share batch is in. Messages may
    /// arrive in any order (on real threads a fast peer's super-share
    /// can overtake a slow predecessor's share batch).
    fn receive(&mut self, msg: SecSumMsg) -> Option<(NodeId, SecSumMsg)> {
        match msg {
            SecSumMsg::Share(batch) => {
                for (j, &s) in batch.iter().enumerate() {
                    self.super_share[j] = self.modulus.add(self.super_share[j], s);
                }
                self.shares_received += 1;
                // Step 3 complete once all c−1 predecessors delivered.
                (self.shares_received == self.ring.coordinators() - 1)
                    .then(|| self.finish_super_share())
            }
            SecSumMsg::SuperShare(batch) => {
                for (j, &s) in batch.iter().enumerate() {
                    self.aggregate[j] = self.modulus.add(self.aggregate[j], s);
                }
                self.supers_received += 1;
                None
            }
        }
    }

    /// Step 4: route the finished super-share to coordinator `i mod c`.
    fn finish_super_share(&mut self) -> (NodeId, SecSumMsg) {
        let target = NodeId(self.me.index() % self.ring.coordinators());
        let batch = std::mem::take(&mut self.super_share);
        (target, SecSumMsg::SuperShare(batch))
    }

    /// `true` once every message this node is owed has arrived.
    fn finished(&self) -> bool {
        self.shares_received == self.ring.coordinators() - 1
            && self.supers_received == self.supers_expected
    }
}

impl Node<SecSumMsg> for ProviderNode {
    fn on_start(&mut self, ctx: &mut Context<SecSumMsg>) {
        for (to, msg) in self.start() {
            ctx.send(to, msg);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: SecSumMsg, ctx: &mut Context<SecSumMsg>) {
        if let Some((to, msg)) = self.receive(msg) {
            ctx.send(to, msg);
        }
    }
}

/// Number of providers routing their super-share to coordinator `k`.
fn providers_per_coordinator(m: usize, c: usize, k: usize) -> usize {
    m / c + usize::from(k < m % c)
}

/// Checks one run's inputs and lays its providers out on the ring.
fn ring_over(vectors: &[LocalVector], c: usize) -> Ring {
    assert!(!vectors.is_empty(), "at least one provider required");
    let n = vectors[0].owners();
    assert!(
        vectors.iter().all(|v| v.owners() == n),
        "all vectors must cover the same identities"
    );
    Ring::new(vectors.len(), c)
}

/// Runs SecSumShare in the round-based simulator.
///
/// `vectors[i]` is provider `i`'s private membership vector; all vectors
/// must cover the same identities. `c` is the collusion-tolerance
/// parameter (number of coordinators).
///
/// # Panics
///
/// Panics if `vectors` is empty, the vectors disagree on the identity
/// count, or `c` is 0 or exceeds the provider count.
pub fn secsumshare_sim(
    vectors: &[LocalVector],
    c: usize,
    modulus: Modulus,
    link: LinkModel,
    seed: u64,
) -> SecSumOutput {
    secsumshare_sim_with_faults(vectors, c, modulus, link, seed, None)
}

/// [`secsumshare_sim`] with an injected fault filter — used to verify
/// that message loss *stalls* the protocol loudly (the paper's model
/// assumes reliable delivery; silent corruption would be a bug).
///
/// # Panics
///
/// In addition to [`secsumshare_sim`]'s conditions, panics when a
/// dropped message leaves any participant short of its expected inputs.
pub fn secsumshare_sim_with_faults(
    vectors: &[LocalVector],
    c: usize,
    modulus: Modulus,
    link: LinkModel,
    seed: u64,
    faults: Option<eppi_net::sim::FaultFilter>,
) -> SecSumOutput {
    let ring = ring_over(vectors, c);
    let nodes: Vec<ProviderNode> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| ProviderNode::new(i, v, ring, modulus, seed))
        .collect();

    let mut sim = Simulator::new(nodes, link);
    if let Some(filter) = faults {
        sim.set_fault_filter(filter);
    }
    let stats = sim.run(16);
    let nodes = sim.into_nodes();

    // Liveness check: every provider must have built its super-share and
    // every coordinator must have received all of them. A reliable
    // network guarantees this; with injected faults we fail loudly
    // instead of returning corrupted sums.
    for (i, node) in nodes.iter().enumerate() {
        assert!(
            node.shares_received == c - 1,
            "provider p{i} received {}/{} share batches — message lost",
            node.shares_received,
            c - 1
        );
    }
    let coordinator_shares: Vec<Vec<u64>> = nodes[..c]
        .iter()
        .enumerate()
        .map(|(i, node)| {
            assert!(
                node.supers_received == node.supers_expected,
                "coordinator p{i} received {}/{} super-shares — message lost",
                node.supers_received,
                node.supers_expected
            );
            node.aggregate.clone()
        })
        .collect();

    SecSumOutput {
        coordinator_shares,
        stats,
    }
}

/// Runs SecSumShare with one OS thread per provider (wall-clock backend
/// for Fig. 6a), with traffic statistics shaped like the simulator's
/// [`SecSumOutput`] so the two runtimes are interchangeable at call
/// sites (see `Backend::secsumshare`).
///
/// Every thread drives the same `ProviderNode` the simulator does,
/// seeded the same way, so at the same seed the coordinator share
/// vectors, `messages` and `bytes` equal the simulator's. `rounds` is
/// the protocol's constant logical depth (share distribution, then
/// super-share aggregation); `bits` and `simulated_us` are 0 — this
/// runtime measures real wall clock, not the link model.
///
/// # Panics
///
/// Same conditions as [`secsumshare_sim`].
pub fn secsumshare_threaded_stats(
    vectors: &[LocalVector],
    c: usize,
    modulus: Modulus,
    seed: u64,
) -> SecSumOutput {
    let ring = ring_over(vectors, c);
    let (results, counters) =
        run_parties::<SecSumMsg, Option<Vec<u64>>, _>(ring.nodes(), |mut h| {
            let me = h.me().index();
            let mut node = ProviderNode::new(me, &vectors[me], ring, modulus, seed);
            for (to, msg) in node.start() {
                h.send(to, msg);
            }
            while !node.finished() {
                let (_, msg) = h.recv();
                if let Some((to, msg)) = node.receive(msg) {
                    h.send(to, msg);
                }
            }
            (me < c).then_some(node.aggregate)
        });

    SecSumOutput {
        coordinator_shares: results.into_iter().flatten().collect(),
        stats: NetStats {
            rounds: 2,
            messages: counters.messages(),
            bytes: counters.bytes(),
            bits: 0,
            dropped: 0,
            simulated_us: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::ProviderId;
    use eppi_mpc::share::recombine_raw;
    use eppi_net::NodeId;

    fn vectors_from_columns(m: usize, columns: &[Vec<usize>]) -> Vec<LocalVector> {
        let n = columns.len();
        (0..m)
            .map(|i| {
                let mut v = LocalVector::new(ProviderId(i as u32), n);
                for (j, col) in columns.iter().enumerate() {
                    if col.contains(&i) {
                        v.set(OwnerId(j as u32), true);
                    }
                }
                v
            })
            .collect()
    }

    fn frequencies_from(out: &[Vec<u64>], modulus: Modulus, n: usize) -> Vec<u64> {
        (0..n)
            .map(|j| {
                let parts: Vec<u64> = out.iter().map(|v| v[j]).collect();
                recombine_raw(&parts, modulus)
            })
            .collect()
    }

    #[test]
    fn paper_example_five_providers_c3() {
        // Fig. 3: m = 5, c = 3, q = 5; t0 held by p1 and p2.
        let vectors = vectors_from_columns(5, &[vec![1, 2]]);
        let out = secsumshare_sim(&vectors, 3, Modulus::new(5), LinkModel::LAN, 42);
        assert_eq!(out.coordinator_shares.len(), 3);
        let freqs = frequencies_from(&out.coordinator_shares, Modulus::new(5), 1);
        assert_eq!(freqs, vec![2]);
    }

    #[test]
    fn sums_match_frequencies_many_identities() {
        let columns = vec![
            vec![0, 1, 2, 3],
            vec![4],
            vec![],
            vec![0, 5, 9],
            (0..10).collect::<Vec<_>>(),
        ];
        let vectors = vectors_from_columns(10, &columns);
        let q = Modulus::pow2(16);
        let out = secsumshare_sim(&vectors, 3, q, LinkModel::LAN, 7);
        let freqs = frequencies_from(&out.coordinator_shares, q, 5);
        assert_eq!(freqs, vec![4, 1, 0, 3, 10]);
    }

    #[test]
    fn stats_reflect_constant_round_structure() {
        let vectors = vectors_from_columns(50, &[vec![3, 4, 5]]);
        let out = secsumshare_sim(&vectors, 3, Modulus::pow2(16), LinkModel::LAN, 1);
        // Share distribution lands in round 1; super-shares in round 2.
        assert_eq!(out.stats.rounds, 2);
        // Every provider sends c−1 share messages + 1 super-share.
        assert_eq!(out.stats.messages, 50 * 3);
    }

    #[test]
    fn shares_vary_with_seed_but_sum_is_stable() {
        let vectors = vectors_from_columns(8, &[vec![0, 7], vec![2]]);
        let q = Modulus::pow2(20);
        let a = secsumshare_sim(&vectors, 4, q, LinkModel::LAN, 1);
        let b = secsumshare_sim(&vectors, 4, q, LinkModel::LAN, 2);
        assert_ne!(a.coordinator_shares, b.coordinator_shares);
        assert_eq!(
            frequencies_from(&a.coordinator_shares, q, 2),
            frequencies_from(&b.coordinator_shares, q, 2)
        );
    }

    #[test]
    fn threaded_backend_agrees() {
        let columns = vec![vec![0, 1, 2], vec![5], vec![]];
        let vectors = vectors_from_columns(12, &columns);
        let q = Modulus::pow2(16);
        let out = secsumshare_threaded_stats(&vectors, 3, q, 99);
        assert_eq!(out.coordinator_shares.len(), 3);
        let freqs = frequencies_from(&out.coordinator_shares, q, 3);
        assert_eq!(freqs, vec![3, 1, 0]);
        // Both runtimes move the same node's messages: same shares,
        // same traffic.
        let sim = secsumshare_sim(&vectors, 3, q, LinkModel::LAN, 99);
        assert_eq!(out.coordinator_shares, sim.coordinator_shares);
        assert_eq!(out.stats.messages, sim.stats.messages);
        assert_eq!(out.stats.bytes, sim.stats.bytes);
        assert_eq!(out.stats.rounds, sim.stats.rounds);
    }

    #[test]
    fn c_equals_m_works() {
        let vectors = vectors_from_columns(4, &[vec![0, 1, 2, 3]]);
        let q = Modulus::pow2(8);
        let out = secsumshare_sim(&vectors, 4, q, LinkModel::LAN, 5);
        let freqs = frequencies_from(&out.coordinator_shares, q, 1);
        assert_eq!(freqs, vec![4]);
    }

    #[test]
    #[should_panic(expected = "more coordinators")]
    fn c_larger_than_m_rejected() {
        let vectors = vectors_from_columns(2, &[vec![0]]);
        secsumshare_sim(&vectors, 3, Modulus::pow2(8), LinkModel::LAN, 0);
    }

    #[test]
    #[should_panic(expected = "message lost")]
    fn dropped_share_batch_stalls_loudly() {
        let vectors = vectors_from_columns(10, &[vec![1, 2, 3]]);
        // Drop p0's share batch to its first successor in round 1.
        let faults: eppi_net::sim::FaultFilter =
            Box::new(|round, from, to| round == 1 && from == NodeId(0) && to == NodeId(1));
        secsumshare_sim_with_faults(
            &vectors,
            3,
            Modulus::pow2(8),
            LinkModel::LAN,
            1,
            Some(faults),
        );
    }

    #[test]
    #[should_panic(expected = "message lost")]
    fn dropped_super_share_stalls_loudly() {
        let vectors = vectors_from_columns(10, &[vec![1, 2, 3]]);
        // Drop the super-share p5 routes to its coordinator (5 mod 3 = 2).
        let faults: eppi_net::sim::FaultFilter =
            Box::new(|_, from, to| from == NodeId(5) && to == NodeId(2));
        secsumshare_sim_with_faults(
            &vectors,
            3,
            Modulus::pow2(8),
            LinkModel::LAN,
            1,
            Some(faults),
        );
    }

    #[test]
    fn providers_per_coordinator_partitions() {
        for m in [5usize, 9, 10, 12] {
            for c in [1usize, 2, 3, 4] {
                if c > m {
                    continue;
                }
                let total: usize = (0..c).map(|k| providers_per_coordinator(m, c, k)).sum();
                assert_eq!(total, m, "m={m} c={c}");
            }
        }
    }
}
