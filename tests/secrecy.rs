//! Statistical secrecy checks: the values honest-but-curious
//! participants *observe* during the protocols must be distributed
//! independently of the private inputs (Theorem 4.1 and the GMW masking
//! argument, tested empirically rather than taken on faith).

use eppi::core::model::{LocalVector, OwnerId, ProviderId};
use eppi::mpc::builder::CircuitBuilder;
use eppi::mpc::circuit::InputLayout;
use eppi::mpc::field::Modulus;
use eppi::mpc::gmw_core::{
    deal_packed_triples, dealer_rng, party_rng, run_lockstep, PartyCore, Schedule,
};
use eppi::net::sim::LinkModel;
use eppi::net::transport::{InProcessTransport, PackedBatch, Transport};
use eppi::protocol::secsum::secsumshare_sim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Kolmogorov–Smirnov-ish check: the empirical distribution of values
/// over `0..q` is close to uniform.
fn assert_roughly_uniform(samples: &[u64], q: u64, tolerance: f64, what: &str) {
    let buckets = 8usize.min(q as usize);
    let mut counts = vec![0usize; buckets];
    for &s in samples {
        counts[(s as u128 * buckets as u128 / q as u128) as usize] += 1;
    }
    let expected = samples.len() as f64 / buckets as f64;
    for (b, &c) in counts.iter().enumerate() {
        let dev = (c as f64 - expected).abs() / expected;
        assert!(
            dev < tolerance,
            "{what}: bucket {b} deviates {dev:.3} (> {tolerance}): {counts:?}"
        );
    }
}

/// A single coordinator's output shares must look uniform whatever the
/// inputs — otherwise one corrupted coordinator could infer frequencies.
#[test]
fn coordinator_share_distribution_is_input_independent() {
    let m = 12usize;
    let q = Modulus::pow2(16);
    let collect_coordinator0 = |column: &[usize], seeds: std::ops::Range<u64>| -> Vec<u64> {
        let mut out = Vec::new();
        for seed in seeds {
            let vectors: Vec<LocalVector> = (0..m)
                .map(|i| {
                    let mut v = LocalVector::new(ProviderId(i as u32), 1);
                    if column.contains(&i) {
                        v.set(OwnerId(0), true);
                    }
                    v
                })
                .collect();
            let o = secsumshare_sim(&vectors, 3, q, LinkModel::LAN, seed);
            out.push(o.coordinator_shares[0][0]);
        }
        out
    };
    // Frequency 1 vs frequency 11: coordinator 0's view must be uniform
    // in both worlds.
    let rare = collect_coordinator0(&[5], 0..800);
    let common = collect_coordinator0(&(0..11).collect::<Vec<_>>(), 0..800);
    assert_roughly_uniform(&rare, q.value(), 0.35, "coordinator view (rare identity)");
    assert_roughly_uniform(
        &common,
        q.value(),
        0.35,
        "coordinator view (common identity)",
    );
    // And the means are statistically indistinguishable (both ≈ q/2).
    let mean = |v: &[u64]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
    let half = q.value() as f64 / 2.0;
    assert!((mean(&rare) - half).abs() / half < 0.1);
    assert!((mean(&common) - half).abs() / half < 0.1);
}

/// A lockstep transport that records every broadcast it carries, so
/// the test sees exactly what goes on the wire.
struct Recording {
    inner: InProcessTransport,
    sent: Rc<RefCell<Vec<(usize, PackedBatch)>>>,
}

impl Transport for Recording {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn parties(&self) -> usize {
        self.inner.parties()
    }

    fn deposit(&mut self, messages: Vec<(usize, PackedBatch)>) {
        self.inner.deposit(messages);
    }

    fn broadcast(&mut self, batch: PackedBatch) {
        self.sent.borrow_mut().push((self.me(), batch.clone()));
        self.inner.broadcast(batch);
    }

    fn collect_from(&mut self, senders: &[usize]) -> Vec<(usize, PackedBatch)> {
        self.inner.collect_from(senders)
    }
}

/// The `d`/`e` bits of GMW AND gates are one-time-padded by the Beaver
/// masks: what party 0 broadcasts, and what the parties open, must be
/// 50/50 regardless of the inputs.
#[test]
fn gmw_openings_are_unbiased_for_fixed_inputs() {
    let mut cb = CircuitBuilder::new();
    let a = cb.input();
    let b = cb.input();
    let ab = cb.and(a, b);
    let circuit = cb.finish(vec![ab]);
    let layout = InputLayout::new(vec![1, 1]);
    let sched = Schedule::new(&circuit);
    let inputs = [vec![true], vec![true]];

    // Fixed extreme inputs (1, 1): if the masks leaked, d = x ⊕ a and
    // e = y ⊕ b would be biased toward x = y = 1.
    let trials = 4000u64;
    // [party 0's d, party 0's e, opened d, opened e] ones counts.
    let mut ones = [0u64; 4];
    for seed in 0..trials {
        let mut triples = deal_packed_triples(2, &sched, &mut dealer_rng(seed));
        let mut cores: Vec<PartyCore<'_>> = (0..2)
            .map(|p| {
                PartyCore::new(
                    &circuit,
                    &layout,
                    &sched,
                    p,
                    std::mem::take(&mut triples[p]),
                )
            })
            .collect();
        let sent = Rc::new(RefCell::new(Vec::new()));
        let mut hub: Vec<Recording> = InProcessTransport::hub(2)
            .into_iter()
            .map(|inner| Recording {
                inner,
                sent: Rc::clone(&sent),
            })
            .collect();
        let out = run_lockstep(&mut cores, &mut hub, |p, core| {
            core.share_inputs(&inputs[p], &mut party_rng(seed, p))
        });
        assert_eq!(out, vec![true], "AND(1,1) must stay correct");

        // One AND layer of one gate: each party broadcasts its `d` word
        // then its `e` word, then its output share.
        let sent = sent.borrow();
        let layer: Vec<&PackedBatch> = sent
            .iter()
            .filter(|(_, batch)| batch.bits == 2)
            .map(|(_, batch)| batch)
            .collect();
        assert_eq!(layer.len(), 2, "one d/e broadcast per party");
        let (d0, e0) = (layer[0].words[0] & 1, layer[0].words[1] & 1);
        let (d1, e1) = (layer[1].words[0] & 1, layer[1].words[1] & 1);
        for (count, bit) in ones.iter_mut().zip([d0, e0, d0 ^ d1, e0 ^ e1]) {
            *count += bit;
        }
    }
    for (what, count) in ["party 0's d", "party 0's e", "opened d", "opened e"]
        .iter()
        .zip(ones)
    {
        let rate = count as f64 / trials as f64;
        assert!(
            (rate - 0.5).abs() < 0.05,
            "{what} bits must be unbiased: {rate}"
        );
    }
}

/// The published row weight of an identity is the only thing the public
/// learns; two identities with the same (σ, ε) must produce
/// statistically indistinguishable published rows even when their
/// *providers* differ — membership position is hidden.
#[test]
fn published_rows_hide_which_providers_are_real() {
    use eppi::core::construct::{construct, ConstructionConfig};
    use eppi::core::model::{Epsilon, MembershipMatrix};

    let m = 300usize;
    let mut world_a = MembershipMatrix::new(m, 1);
    let mut world_b = MembershipMatrix::new(m, 1);
    for k in 0..10u32 {
        world_a.set(ProviderId(k), OwnerId(0), true); // first ten
        world_b.set(ProviderId(m as u32 - 1 - k), OwnerId(0), true); // last ten
    }
    let eps = vec![Epsilon::saturating(0.8)];

    // Count how often provider 0 appears in the published row in both
    // worlds. In world A it is a true positive (always); in world B it
    // appears at rate β — and β itself is public, so the attacker's best
    // distinguisher is exactly the bounded primary attack, nothing more.
    let mut hits_b = 0usize;
    let trials = 400;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let built = construct(&world_b, &eps, ConstructionConfig::default(), &mut rng).unwrap();
        if built.index.matrix().get(ProviderId(0), OwnerId(0)) {
            hits_b += 1;
        }
    }
    let rate_b = hits_b as f64 / trials as f64;
    // β for σ=10/300, ε=0.8 under Chernoff ≈ 0.147; provider 0 (a
    // non-member in world B) must appear at that rate — i.e. often
    // enough that seeing it proves nothing.
    assert!(
        (0.08..0.25).contains(&rate_b),
        "false positives must cover every provider: rate {rate_b}"
    );
}
