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
//! On the network that is two exchanges: the share batches to the ring
//! successors (skipped at c = 1, where nothing is shared), then the
//! super-shares to the coordinators. The steps are written once, in
//! `ProviderNode` — three sans-io steps (shares out; absorb the shares
//! and send the super-share; a coordinator absorbs the super-shares) —
//! and every message goes through `eppi_net`'s one
//! [`Transport`]. Within an exchange no provider waits on another, so
//! one driver runs them on every backend: the caller's thread steps
//! every provider in lockstep over the in-process hub (all deposits,
//! then all collects), which scales to the paper's 10,000-provider
//! networks and starts no thread. [`secsumshare_sim`] prices the run in
//! simulated link time; [`secsumshare_threaded_stats`], the wall-clock
//! backends' entry point, is the same run reporting none.
//!
//! **Wire format.** A share is an element of `Z_q` and travels at
//! `w = ⌈log₂ q⌉` bits (`Modulus::bits`; 7 bits at the paper's
//! m = 64), not as a `u64`: a batch of `n` shares is a 1-byte message
//! tag, a 4-byte element count and `⌈n·w/8⌉` bytes holding element `j`
//! in bits `[j·w, (j+1)·w)`, little-endian, with the bits above `n·w`
//! zero. So a message costs `5 + ⌈n·w/8⌉` bytes, and a run
//! `(c−1)·m + m` such messages. The receiver checks the count, the byte
//! length, the padding and that every element is below `q`, and stops
//! loudly, naming the sender, on a malformed batch — it never sums a
//! partial one.

use eppi_core::model::{LocalVector, OwnerId};
use eppi_mpc::field::Modulus;
use eppi_net::sim::{LinkModel, NetStats};
use eppi_net::topology::Ring;
use eppi_net::transport::{InProcessTransport, Transport};
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

/// A batch of `Z_q` elements, one per identity, packed at
/// `modulus.bits()` bits each (see the module docs).
#[derive(Debug, Clone, PartialEq)]
struct PackedShares {
    /// Number of elements.
    len: u32,
    /// The elements, little-endian, `⌈len·w/8⌉` bytes.
    bytes: Vec<u8>,
}

impl PackedShares {
    /// Packs `values` (each below `2^w`, `1 ≤ w ≤ 64`) word-wise: each
    /// element is shifted into a 128-bit accumulator, which is drained
    /// a `u64` at a time.
    fn pack(values: &[u64], w: u32) -> Self {
        let mut bytes = Vec::with_capacity((values.len() * w as usize).div_ceil(8));
        let (mut acc, mut held) = (0u128, 0u32);
        for &v in values {
            acc |= u128::from(v) << held;
            held += w;
            if held >= 64 {
                bytes.extend_from_slice(&(acc as u64).to_le_bytes());
                acc >>= 64;
                held -= 64;
            }
        }
        bytes.extend_from_slice(&(acc as u64).to_le_bytes()[..held.div_ceil(8) as usize]);
        PackedShares {
            len: values.len() as u32,
            bytes,
        }
    }

    /// Unpacks exactly `n` elements of `Z_q`, refilling the accumulator
    /// a `u64` at a time. Fails, saying why, unless the batch holds `n`
    /// elements in `⌈n·w/8⌉` bytes with zero padding bits, each below
    /// `q`.
    fn unpack(&self, n: usize, modulus: Modulus) -> Result<Vec<u64>, String> {
        let w = modulus.bits();
        if self.len as usize != n {
            return Err(format!("{} elements, expected {n}", self.len));
        }
        let expected = (n * w as usize).div_ceil(8);
        if self.bytes.len() != expected {
            return Err(format!("{} bytes, expected {expected}", self.bytes.len()));
        }
        let mask = u64::MAX >> (64 - w);
        let mut chunks = self.bytes.chunks(8);
        let (mut acc, mut held) = (0u128, 0u32);
        let mut values = Vec::with_capacity(n);
        for j in 0..n {
            if held < w {
                // The length check guarantees the bytes cover n·w bits.
                let chunk = chunks.next().expect("length checked");
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                acc |= u128::from(u64::from_le_bytes(word)) << held;
                held += 8 * chunk.len() as u32;
            }
            let v = acc as u64 & mask;
            if v >= modulus.value() {
                return Err(format!(
                    "element {j} = {v} is not below q = {}",
                    modulus.value()
                ));
            }
            values.push(v);
            acc >>= w;
            held -= w;
        }
        if acc != 0 {
            return Err("non-zero padding bits".to_string());
        }
        Ok(values)
    }
}

/// Protocol message: a batch of share values, one per identity.
#[derive(Debug, Clone, PartialEq)]
enum SecSumMsg {
    /// Step-2 share distribution to a ring successor.
    Share(PackedShares),
    /// Step-4 super-share aggregation at a coordinator.
    SuperShare(PackedShares),
}

impl eppi_net::WireSize for SecSumMsg {
    fn wire_size(&self) -> usize {
        let (SecSumMsg::Share(batch) | SecSumMsg::SuperShare(batch)) = self;
        // Tag, element count, packed elements.
        1 + 4 + batch.bytes.len()
    }
}

/// One provider (and, for the first `c` ids, coordinator) of the
/// protocol, independent of how its messages travel. Messages are
/// `(party, message)` pairs, as the [`Transport`] moves them.
struct ProviderNode {
    me: NodeId,
    ring: Ring,
    modulus: Modulus,
    inputs: Vec<u64>,
    rng: StdRng,
    /// Accumulating super-share (own kept share + received shares).
    super_share: Vec<u64>,
    /// Coordinator state: aggregated super-shares.
    aggregate: Vec<u64>,
}

impl ProviderNode {
    /// Provider `me` of the `ring`, holding `vector`, with its share
    /// randomness derived from the run `seed`.
    fn new(me: usize, vector: &LocalVector, ring: Ring, modulus: Modulus, seed: u64) -> Self {
        let n = vector.owners();
        ProviderNode {
            me: NodeId(me),
            ring,
            modulus,
            inputs: (0..n)
                .map(|j| u64::from(vector.get(OwnerId(j as u32))))
                .collect(),
            rng: StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9e3779b97f4a7c15)),
            super_share: vec![0; n],
            aggregate: vec![0; n],
        }
    }

    /// Steps 1+2: split every input into c shares; keep share 0, send
    /// share k to the k-th successor. Returns the c − 1 share batches.
    fn shares_out(&mut self) -> Vec<(usize, SecSumMsg)> {
        let c = self.ring.coordinators();
        let mut outgoing: Vec<Vec<u64>> = vec![vec![0; self.inputs.len()]; c - 1];
        for (j, &input) in self.inputs.iter().enumerate() {
            let shares = eppi_mpc::share::split(input, c, self.modulus, &mut self.rng);
            self.super_share[j] = shares.values()[0];
            for k in 1..c {
                outgoing[k - 1][j] = shares.values()[k];
            }
        }
        let w = self.modulus.bits();
        outgoing
            .iter()
            .enumerate()
            .map(|(k, batch)| {
                let to = self.ring.successor(self.me, k + 1);
                (to.index(), SecSumMsg::Share(PackedShares::pack(batch, w)))
            })
            .collect()
    }

    /// The providers whose share batches this one receives: its 1- to
    /// (c−1)-hop ring predecessors.
    fn predecessors(&self) -> Vec<usize> {
        let (m, me) = (self.ring.nodes(), self.me.index());
        (1..self.ring.coordinators())
            .map(|k| (me + m - k) % m)
            .collect()
    }

    /// Steps 3+4: sum the predecessors' share batches into the
    /// super-share and route it to coordinator `i mod c`.
    fn absorb_shares(&mut self, got: Vec<(usize, SecSumMsg)>) -> Vec<(usize, SecSumMsg)> {
        for (from, msg) in got {
            self.receive(NodeId(from), msg);
        }
        let target = self.me.index() % self.ring.coordinators();
        let super_share = std::mem::take(&mut self.super_share);
        let batch = PackedShares::pack(&super_share, self.modulus.bits());
        vec![(target, SecSumMsg::SuperShare(batch))]
    }

    /// The providers routing their super-share here: `i ≡ me (mod c)`
    /// at a coordinator, none elsewhere.
    fn contributors(&self) -> Vec<usize> {
        if !self.ring.is_coordinator(self.me) {
            return Vec::new();
        }
        let step = self.ring.coordinators();
        (self.me.index()..self.ring.nodes()).step_by(step).collect()
    }

    /// Step 4 at a coordinator: sum the super-shares into its output
    /// vector `s(k, ·)`. `None` at a provider that coordinates nothing.
    fn absorb_super_shares(mut self, got: Vec<(usize, SecSumMsg)>) -> Option<Vec<u64>> {
        for (from, msg) in got {
            self.receive(NodeId(from), msg);
        }
        self.ring.is_coordinator(self.me).then_some(self.aggregate)
    }

    /// Adds one batch delivered from `from` into the super-share (a
    /// share batch) or the aggregate (a super-share).
    ///
    /// # Panics
    ///
    /// Panics, naming the sender, if the batch is malformed (see
    /// [`PackedShares::unpack`]).
    fn receive(&mut self, from: NodeId, msg: SecSumMsg) {
        let (kind, batch, sums) = match &msg {
            SecSumMsg::Share(batch) => ("share", batch, &mut self.super_share),
            SecSumMsg::SuperShare(batch) => ("super-share", batch, &mut self.aggregate),
        };
        let values = batch
            .unpack(self.inputs.len(), self.modulus)
            .unwrap_or_else(|why| {
                panic!(
                    "provider p{} received a malformed {kind} batch from p{}: {why}",
                    self.me.index(),
                    from.index()
                )
            });
        for (sum, s) in sums.iter_mut().zip(values) {
            *sum = self.modulus.add(*sum, s);
        }
    }
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

/// One exchange driven in lockstep: every provider deposits
/// `outgoing[p]`, then collects one message from each of `senders(p)`.
fn lockstep_exchange<T: Transport<SecSumMsg>>(
    transports: &mut [T],
    outgoing: Vec<Vec<(usize, SecSumMsg)>>,
    senders: impl Fn(usize) -> Vec<usize>,
) -> Vec<Vec<(usize, SecSumMsg)>> {
    for (t, messages) in transports.iter_mut().zip(outgoing) {
        t.deposit(messages);
    }
    let collect = |(p, t): (usize, &mut T)| t.collect_from(&senders(p));
    transports.iter_mut().enumerate().map(collect).collect()
}

/// Runs the providers' steps over lockstep `transports` (one per
/// provider) and returns the coordinators' share vectors.
fn run_lockstep<T: Transport<SecSumMsg>>(
    mut nodes: Vec<ProviderNode>,
    transports: &mut [T],
) -> Vec<Vec<u64>> {
    let shares: Vec<_> = nodes.iter_mut().map(ProviderNode::shares_out).collect();
    let got = if nodes[0].ring.coordinators() > 1 {
        lockstep_exchange(transports, shares, |p| nodes[p].predecessors())
    } else {
        vec![Vec::new(); nodes.len()]
    };
    let supers = nodes
        .iter_mut()
        .zip(got)
        .map(|(node, got)| node.absorb_shares(got))
        .collect();
    let got = lockstep_exchange(transports, supers, |p| nodes[p].contributors());
    nodes
        .into_iter()
        .zip(got)
        .filter_map(|(node, got)| node.absorb_super_shares(got))
        .collect()
}

/// Runs SecSumShare on the lockstep in-process hub, pricing each
/// exchange in simulated time under `link`.
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
    let ring = ring_over(vectors, c);
    let nodes = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| ProviderNode::new(i, v, ring, modulus, seed))
        .collect();
    let mut hub = InProcessTransport::hub(ring.nodes());
    let coordinator_shares = run_lockstep(nodes, &mut hub);
    let report = hub[0].report();
    SecSumOutput {
        coordinator_shares,
        stats: NetStats {
            rounds: report.rounds,
            messages: report.messages,
            bytes: report.bytes,
            simulated_us: hub[0].simulated_us(link),
        },
    }
}

/// Runs SecSumShare for the wall-clock backends: the run of
/// [`secsumshare_sim`], on the caller's thread, reporting
/// `simulated_us = 0` — these backends measure real wall clock, not the
/// link model. The coordinator share vectors, `rounds`, `messages` and
/// `bytes` are [`secsumshare_sim`]'s at the same seed.
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
    let mut out = secsumshare_sim(vectors, c, modulus, LinkModel::LAN, seed);
    out.stats.simulated_us = 0.0;
    out
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
        // The same run as the priced one: same shares, same traffic,
        // no simulated time.
        let sim = secsumshare_sim(&vectors, 3, q, LinkModel::LAN, 99);
        assert_eq!(out.coordinator_shares, sim.coordinator_shares);
        assert_eq!(out.stats.messages, sim.stats.messages);
        assert_eq!(out.stats.bytes, sim.stats.bytes);
        assert_eq!(out.stats.rounds, sim.stats.rounds);
        assert_eq!(out.stats.simulated_us, 0.0);
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

    /// A hub endpoint that drops its provider's message to `to` in
    /// exchange `exchange` (0: share batches, 1: super-shares).
    struct Lossy {
        inner: InProcessTransport<SecSumMsg>,
        drop: Option<(usize, usize)>,
        deposits: usize,
    }

    impl Transport<SecSumMsg> for Lossy {
        fn me(&self) -> usize {
            self.inner.me()
        }

        fn parties(&self) -> usize {
            self.inner.parties()
        }

        fn deposit(&mut self, mut messages: Vec<(usize, SecSumMsg)>) {
            if let Some((exchange, to)) = self.drop {
                if exchange == self.deposits {
                    messages.retain(|&(dest, _)| dest != to);
                }
            }
            self.deposits += 1;
            self.inner.deposit(messages);
        }

        fn collect_from(&mut self, senders: &[usize]) -> Vec<(usize, SecSumMsg)> {
            self.inner.collect_from(senders)
        }
    }

    /// Runs a 10-provider, c = 3 network in lockstep with provider
    /// `from`'s message to `to` lost in `exchange`.
    fn run_losing(from: usize, to: usize, exchange: usize) {
        let vectors = vectors_from_columns(10, &[vec![1, 2, 3]]);
        let ring = Ring::new(10, 3);
        let q = Modulus::pow2(8);
        let nodes = (0..10)
            .map(|i| ProviderNode::new(i, &vectors[i], ring, q, 1))
            .collect();
        let mut hub: Vec<Lossy> = InProcessTransport::hub(10)
            .into_iter()
            .enumerate()
            .map(|(p, inner)| Lossy {
                inner,
                drop: (p == from).then_some((exchange, to)),
                deposits: 0,
            })
            .collect();
        run_lockstep(nodes, &mut hub);
    }

    #[test]
    #[should_panic(expected = "party 1 got no message from party 0")]
    fn dropped_share_batch_stalls_loudly() {
        // Drop p0's share batch to its first successor.
        run_losing(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "party 2 got no message from party 5")]
    fn dropped_super_share_stalls_loudly() {
        // Drop the super-share p5 routes to its coordinator (5 mod 3 = 2).
        run_losing(5, 2, 1);
    }

    #[test]
    fn packed_batches_round_trip_at_every_width_and_cost_their_bits() {
        use eppi_net::WireSize;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let moduli = (1..=63).map(Modulus::pow2).chain([Modulus::new(5)]);
        for modulus in moduli {
            let w = modulus.bits();
            for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 2048] {
                let values: Vec<u64> = (0..n).map(|_| modulus.random(&mut rng)).collect();
                let batch = PackedShares::pack(&values, w);
                assert_eq!(batch.unpack(n, modulus), Ok(values), "w={w} n={n}");
                let msg = if rng.gen() {
                    SecSumMsg::Share(batch)
                } else {
                    SecSumMsg::SuperShare(batch)
                };
                assert_eq!(
                    msg.wire_size(),
                    5 + (n * w as usize).div_ceil(8),
                    "w={w} n={n}"
                );
            }
        }
    }

    /// Provider p1 of a 4-provider, c = 3 ring over 5 identities in
    /// `Z_q`, ready to receive.
    fn receiving_node(modulus: Modulus) -> ProviderNode {
        let vectors = vectors_from_columns(4, &[vec![1], vec![], vec![1, 2], vec![0], vec![3]]);
        ProviderNode::new(1, &vectors[1], Ring::new(4, 3), modulus, 9)
    }

    #[test]
    #[should_panic(
        expected = "p1 received a malformed share batch from p0: 4 elements, expected 5"
    )]
    fn short_share_batch_is_rejected_naming_the_sender() {
        let q = Modulus::pow2(4);
        let mut node = receiving_node(q);
        node.receive(
            NodeId(0),
            SecSumMsg::Share(PackedShares::pack(&[1, 2, 3, 4], 4)),
        );
    }

    #[test]
    #[should_panic(expected = "malformed super-share batch from p3: 6 elements, expected 5")]
    fn long_super_share_batch_is_rejected_naming_the_sender() {
        let q = Modulus::pow2(4);
        let mut node = receiving_node(q);
        let batch = PackedShares::pack(&[1, 2, 3, 4, 5, 6], 4);
        node.receive(NodeId(3), SecSumMsg::SuperShare(batch));
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let q = Modulus::pow2(3);
        let good = PackedShares::pack(&[1, 2, 3, 4, 5], 3);
        assert_eq!(good.bytes.len(), 2);
        let mut long = good.clone();
        long.bytes.push(0);
        assert_eq!(long.unpack(5, q), Err("3 bytes, expected 2".to_string()));
        let mut dirty = good.clone();
        dirty.bytes[1] |= 0x80; // bit 15, above the 15 share bits
        assert_eq!(dirty.unpack(5, q), Err("non-zero padding bits".to_string()));
        // Modulus 5 also packs at 3 bits, where 7 is not an element.
        let five = Modulus::new(5);
        let over = PackedShares::pack(&[1, 2, 7, 4, 0], 3);
        assert_eq!(
            over.unpack(5, five),
            Err("element 2 = 7 is not below q = 5".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "malformed share batch from p2: non-zero padding bits")]
    fn dirty_padding_is_rejected_naming_the_sender() {
        let q = Modulus::pow2(4);
        let mut node = receiving_node(q);
        let mut batch = PackedShares::pack(&[1, 2, 3, 4, 5], 4);
        batch.bytes[2] |= 0x10; // bit 20, above the 20 share bits
        node.receive(NodeId(2), SecSumMsg::Share(batch));
    }

    #[test]
    fn providers_per_coordinator_partitions() {
        for m in [5usize, 9, 10, 12] {
            for c in [1usize, 2, 3, 4] {
                if c > m {
                    continue;
                }
                let ring = Ring::new(m, c);
                let vector = LocalVector::new(ProviderId(0), 1);
                let mut routed: Vec<usize> = (0..m)
                    .flat_map(|k| {
                        ProviderNode::new(k, &vector, ring, Modulus::pow2(4), 0).contributors()
                    })
                    .collect();
                routed.sort_unstable();
                assert_eq!(routed, (0..m).collect::<Vec<_>>(), "m={m} c={c}");
            }
        }
    }
}
