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
//! Two backends are provided: the deterministic round-based simulator
//! (scales to the paper's 10,000-provider networks) and the threaded
//! runtime (wall-clock experiments).

use eppi_core::model::{LocalVector, OwnerId};
use eppi_mpc::field::Modulus;
use eppi_net::sim::{Context, LinkModel, NetStats, Node, Simulator};
use eppi_net::threaded::{run_parties, PartyHandle};
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

/// One provider in the round-based simulation.
struct ProviderNode {
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
    done: bool,
}

impl ProviderNode {
    fn identities(&self) -> usize {
        self.inputs.len()
    }
}

impl Node<SecSumMsg> for ProviderNode {
    fn on_start(&mut self, ctx: &mut Context<SecSumMsg>) {
        let c = self.ring.coordinators();
        let n = self.identities();
        // Step 1+2: split every input into c shares; keep share 0, send
        // share k to the k-th successor.
        let mut outgoing: Vec<Vec<u64>> = vec![vec![0; n]; c - 1];
        for (j, &input) in self.inputs.iter().enumerate() {
            let shares = eppi_mpc::share::split(input, c, self.modulus, &mut self.rng);
            self.super_share[j] = self.modulus.add(self.super_share[j], shares.values()[0]);
            for k in 1..c {
                outgoing[k - 1][j] = shares.values()[k];
            }
        }
        for (k, batch) in outgoing.into_iter().enumerate() {
            ctx.send(
                self.ring.successor(ctx.me(), k + 1),
                SecSumMsg::Share(batch),
            );
        }
        // Degenerate single-coordinator network: nothing to wait for.
        if c == 1 {
            self.finish_super_share(ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: SecSumMsg, ctx: &mut Context<SecSumMsg>) {
        match msg {
            SecSumMsg::Share(batch) => {
                for (j, &s) in batch.iter().enumerate() {
                    self.super_share[j] = self.modulus.add(self.super_share[j], s);
                }
                self.shares_received += 1;
                // Step 3 complete once all c−1 predecessors delivered.
                if self.shares_received == self.ring.coordinators() - 1 {
                    self.finish_super_share(ctx);
                }
            }
            SecSumMsg::SuperShare(batch) => {
                for (j, &s) in batch.iter().enumerate() {
                    self.aggregate[j] = self.modulus.add(self.aggregate[j], s);
                }
                self.supers_received += 1;
                if self.supers_received == self.supers_expected {
                    self.done = true;
                }
            }
        }
    }
}

impl ProviderNode {
    /// Step 4: route the finished super-share to coordinator `i mod c`.
    fn finish_super_share(&mut self, ctx: &mut Context<SecSumMsg>) {
        let c = self.ring.coordinators();
        let target = NodeId(ctx.me().index() % c);
        let batch = std::mem::take(&mut self.super_share);
        ctx.send(target, SecSumMsg::SuperShare(batch));
    }
}

/// Number of providers routing their super-share to coordinator `k`.
fn providers_per_coordinator(m: usize, c: usize, k: usize) -> usize {
    m / c + usize::from(k < m % c)
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
    assert!(!vectors.is_empty(), "at least one provider required");
    let n = vectors[0].owners();
    assert!(
        vectors.iter().all(|v| v.owners() == n),
        "all vectors must cover the same identities"
    );
    let m = vectors.len();
    let ring = Ring::new(m, c);

    let nodes: Vec<ProviderNode> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let inputs: Vec<u64> = (0..n)
                .map(|j| u64::from(v.get(OwnerId(j as u32))))
                .collect();
            ProviderNode {
                ring,
                modulus,
                inputs,
                rng: StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)),
                super_share: vec![0; n],
                shares_received: 0,
                aggregate: vec![0; n],
                supers_received: 0,
                supers_expected: if i < c {
                    providers_per_coordinator(m, c, i)
                } else {
                    0
                },
                done: false,
            }
        })
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
            node.shares_received == c - 1 || c == 1,
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
                node.done || node.supers_expected == 0,
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

/// Runs SecSumShare on the threaded runtime (wall-clock backend for
/// Fig. 6a), with traffic statistics shaped like the simulator's
/// [`SecSumOutput`] so the two runtimes are interchangeable at call
/// sites (see `Backend::secsumshare`).
///
/// Per-provider share seeding matches [`secsumshare_sim`] exactly, so
/// at the same seed the coordinator share vectors are bit-identical to
/// the simulator's. `rounds` is the protocol's constant logical depth
/// (share distribution, then super-share aggregation); `bits` and
/// `simulated_us` are 0 — the threaded runtime measures real wall
/// clock, not the link model.
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
    assert!(!vectors.is_empty(), "at least one provider required");
    let n = vectors[0].owners();
    assert!(
        vectors.iter().all(|v| v.owners() == n),
        "all vectors must cover the same identities"
    );
    let m = vectors.len();
    let ring = Ring::new(m, c);

    let inputs: Vec<Vec<u64>> = vectors
        .iter()
        .map(|v| {
            (0..n)
                .map(|j| u64::from(v.get(OwnerId(j as u32))))
                .collect()
        })
        .collect();
    let inputs = &inputs;

    let (results, counters) =
        run_parties::<SecSumMsg, Option<Vec<u64>>, _>(m, move |mut h: PartyHandle<SecSumMsg>| {
            let me = h.me();
            let mut rng =
                StdRng::seed_from_u64(seed ^ (me.index() as u64).wrapping_mul(0x9e3779b97f4a7c15));
            let mine = &inputs[me.index()];
            // Steps 1–2.
            let mut super_share = vec![0u64; n];
            let mut outgoing: Vec<Vec<u64>> = vec![vec![0; n]; c - 1];
            for (j, &input) in mine.iter().enumerate() {
                let shares = eppi_mpc::share::split(input, c, modulus, &mut rng);
                super_share[j] = shares.values()[0];
                for k in 1..c {
                    outgoing[k - 1][j] = shares.values()[k];
                }
            }
            for (k, batch) in outgoing.into_iter().enumerate() {
                h.send(ring.successor(me, k + 1), SecSumMsg::Share(batch));
            }

            // Steps 3–4: parties run asynchronously, so a fast peer's
            // super-share can overtake a slow predecessor's share batch;
            // dispatch by message kind rather than arrival order.
            let mut shares_left = c - 1;
            let mut supers_left = if me.index() < c {
                providers_per_coordinator(m, c, me.index())
            } else {
                0
            };
            let mut aggregate = vec![0u64; n];
            if shares_left == 0 {
                h.send(
                    NodeId(me.index() % c),
                    SecSumMsg::SuperShare(std::mem::take(&mut super_share)),
                );
            }
            while shares_left > 0 || supers_left > 0 {
                let (_, msg) = h.recv();
                match msg {
                    SecSumMsg::Share(batch) => {
                        for (j, &s) in batch.iter().enumerate() {
                            super_share[j] = modulus.add(super_share[j], s);
                        }
                        shares_left -= 1;
                        if shares_left == 0 {
                            h.send(
                                NodeId(me.index() % c),
                                SecSumMsg::SuperShare(std::mem::take(&mut super_share)),
                            );
                        }
                    }
                    SecSumMsg::SuperShare(batch) => {
                        for (j, &s) in batch.iter().enumerate() {
                            aggregate[j] = modulus.add(aggregate[j], s);
                        }
                        supers_left -= 1;
                    }
                }
            }
            (me.index() < c).then_some(aggregate)
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
