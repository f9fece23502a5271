//! Simulated network time of the lockstep runs, pinned.
//!
//! Fig. 6a's simulated-LAN column is the sum, over a run's exchanges in
//! order, of `link.round_time_us(busiest sender's bytes)` — one round
//! per exchange on the in-process hub. These tests pin the exact
//! `(rounds, messages, bits, bytes, simulated_us)` of three GMW
//! circuits under [`LinkModel::LAN`] and SecSumShare's `(rounds,
//! messages, bytes, simulated_us)` under LAN and WAN, so any change to
//! how a lockstep run prices its exchanges shows up as a changed
//! figure.

use eppi_core::model::{Epsilon, LocalVector, MembershipMatrix, OwnerId, ProviderId};
use eppi_mpc::builder::CircuitBuilder;
use eppi_mpc::circuit::{Circuit, InputLayout};
use eppi_mpc::circuits::{CountBelowCircuit, FixedPoint, NaiveConstructionCircuit};
use eppi_mpc::field::Modulus;
use eppi_mpc::gmw;
use eppi_mpc::share::split;
use eppi_net::sim::LinkModel;
use eppi_protocol::construct::{construct_distributed, share_width, ProtocolConfig};
use eppi_protocol::{secsumshare_sim, secsumshare_threaded_stats, Backend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(rounds, messages, bits, bytes, simulated_us)` of one run.
type Pinned = (usize, u64, u64, u64, f64);

fn run(circuit: &Circuit, layout: &InputLayout, inputs: &[Vec<bool>], seed: u64) -> Pinned {
    let (out, stats) = gmw::execute(circuit, layout, inputs, LinkModel::LAN, seed);
    assert_eq!(out, circuit.eval(&layout.flatten(inputs)), "opened outputs");
    let (rounds, messages, bits) = (stats.rounds, stats.messages, stats.bits_sent);
    (rounds, messages, bits, stats.bytes, stats.simulated_us)
}

/// A 2-party circuit whose output is `x ∧ y ∧ … ∧ y`, `chain` ANDs deep.
fn and_chain(chain: usize) -> (Circuit, InputLayout) {
    let mut cb = CircuitBuilder::new();
    let mut w = cb.input();
    let x = cb.input();
    for _ in 0..chain {
        w = cb.and(w, x);
    }
    (cb.finish(vec![w]), InputLayout::new(vec![1, 1]))
}

/// CountBelow among c = 3 coordinators over two columns.
fn count_below_inputs() -> (CountBelowCircuit, Vec<Vec<bool>>) {
    let cc = CountBelowCircuit::build(3, &[25, 60], 8);
    let q = Modulus::pow2(8);
    let mut rng = StdRng::seed_from_u64(2);
    let mut per = vec![vec![0u64; 2]; 3];
    for (j, f) in [30u64, 10].into_iter().enumerate() {
        for (k, &v) in split(f, 3, q, &mut rng).values().iter().enumerate() {
            per[k][j] = v;
        }
    }
    let inputs = per.iter().map(|s| cc.encode_party_input(s)).collect();
    (cc, inputs)
}

#[test]
fn count_below_at_three_coordinators() {
    let (cc, inputs) = count_below_inputs();
    let pinned = run(cc.circuit(), cc.layout(), &inputs, 3);
    // `run` checked the opened outputs against this evaluation.
    let clear = cc.circuit().eval(&cc.layout().flatten(&inputs));
    assert_eq!(cc.decode_count(&clear), 1);
    assert_eq!(pinned, (11, 66, 984, 1224, 2203.2639999999997));
}

#[test]
fn naive_construction_at_five_parties() {
    let m = 5;
    let fp = FixedPoint { frac_bits: 8 };
    let a_fp = fp.encode(1.0 / 0.5 - 1.0);
    let l_fp = fp.encode((1.0f64 / (1.0 - 0.9)).ln());
    let pure = NaiveConstructionCircuit::build(m, &[a_fp], l_fp, fp, 8, 0);
    let inputs: Vec<Vec<bool>> = (0..m)
        .map(|p| pure.encode_party_input(&[p < m / 3 + 1], &[0]))
        .collect();
    let pinned = run(pure.circuit(), pure.layout(), &inputs, 1);
    assert_eq!(pinned, (2094, 41880, 453780, 837280, 420139.6480000198));
}

#[test]
fn two_party_sixteen_and_chain() {
    let (circuit, layout) = and_chain(16);
    let pinned = run(&circuit, &layout, &[vec![true], vec![true]], 1);
    assert_eq!(pinned, (18, 36, 68, 688, 3602.7519999999995));
}

#[test]
fn simulated_time_scales_with_and_depth() {
    // Deeper circuits take more simulated rounds → more latency.
    let inputs = vec![vec![true], vec![true]];
    let (short, l1) = and_chain(2);
    let (long, l2) = and_chain(16);
    let s1 = run(&short, &l1, &inputs, 1);
    let s2 = run(&long, &l2, &inputs, 1);
    assert!(s2.0 > s1.0);
    assert!(s2.4 > s1.4);
}

/// The GMW stages are priced under the lineage's link, like its
/// SecSumShare stage: on a WAN every protocol round of CountBelow and
/// mix (input sharing, one per AND layer, output opening) costs at
/// least the WAN latency.
#[test]
fn gmw_stages_price_the_lineage_link() {
    let mut matrix = MembershipMatrix::new(12, 4);
    for p in 0..12u32 {
        for j in 0..4u32 {
            if (p + j) % 3 == 0 {
                matrix.set(ProviderId(p), OwnerId(j), true);
            }
        }
    }
    let epsilons = vec![Epsilon::saturating(0.6); 4];
    let config = ProtocolConfig {
        backend: Backend::InProcess,
        link: LinkModel::WAN,
        ..ProtocolConfig::default()
    };
    let built = construct_distributed(&matrix, &epsilons, &config).expect("construction");
    for (what, stage) in [
        ("count", built.report.count_stage),
        ("mix", built.report.mix_stage),
    ] {
        let floor = (stage.circuit.and_depth + 2) as f64 * LinkModel::WAN.latency_us;
        assert!(
            stage.simulated_us >= floor,
            "{what}: {} µs < {floor} µs",
            stage.simulated_us
        );
    }
}

/// `m` providers over `n` identities; provider `i` holds identity `j`
/// iff `(3i + 5j) mod 7 < 3`.
fn secsum_vectors(m: usize, n: usize) -> Vec<LocalVector> {
    (0..m)
        .map(|i| {
            let mut v = LocalVector::new(ProviderId(i as u32), n);
            for j in (0..n).filter(|j| (3 * i + 5 * j) % 7 < 3) {
                v.set(OwnerId(j as u32), true);
            }
            v
        })
        .collect()
}

/// `(rounds, messages, bytes, simulated_us)` of one SecSumShare run.
type SecSumPinned = (usize, u64, u64, f64);

/// [`SecSumPinned`] of one lockstep SecSumShare run at the protocol's
/// share width.
fn secsum_pinned(m: usize, c: usize, n: usize, link: LinkModel) -> SecSumPinned {
    let q = Modulus::pow2(share_width(m) as u32);
    let out = secsumshare_sim(&secsum_vectors(m, n), c, q, link, 11);
    let s = out.stats;
    (s.rounds, s.messages, s.bytes, s.simulated_us)
}

/// SecSumShare is two exchanges (c−1 share batches per provider, then
/// one super-share each, self-sends included) or, at c = 1, the
/// super-share exchange alone. Each is priced as one round of the
/// busiest sender's bytes.
#[test]
fn secsumshare_simulated_time_is_pinned() {
    let cases: [((usize, usize, usize), LinkModel, SecSumPinned); 8] = [
        ((5, 3, 1), LinkModel::LAN, (2, 15, 90, 400.144)),
        ((5, 3, 1), LinkModel::WAN, (2, 15, 90, 80001.44)),
        ((8, 3, 16), LinkModel::LAN, (2, 24, 312, 400.312)),
        ((8, 3, 16), LinkModel::WAN, (2, 24, 312, 80003.12)),
        (
            (64, 3, 2048),
            LinkModel::LAN,
            (2, 192, 345024, 443.12800000000004),
        ),
        ((64, 3, 2048), LinkModel::WAN, (2, 192, 345024, 80431.28)),
        ((8, 1, 16), LinkModel::LAN, (1, 8, 104, 200.104)),
        ((8, 1, 16), LinkModel::WAN, (1, 8, 104, 40001.04)),
    ];
    for ((m, c, n), link, pinned) in cases {
        let got = secsum_pinned(m, c, n, link);
        assert_eq!(got, pinned, "m={m} c={c} n={n} {link:?}");
    }
}

/// The threaded runtime moves the same providers' messages as the
/// lockstep one: same coordinator shares, messages, bytes and rounds.
#[test]
fn threaded_secsumshare_matches_lockstep() {
    for (m, c, n) in [(5, 3, 1), (8, 3, 16), (8, 1, 16), (12, 4, 33)] {
        let vectors = secsum_vectors(m, n);
        let q = Modulus::pow2(share_width(m) as u32);
        let lockstep = secsumshare_sim(&vectors, c, q, LinkModel::LAN, 11);
        let threaded = secsumshare_threaded_stats(&vectors, c, q, 11);
        assert_eq!(
            threaded.coordinator_shares, lockstep.coordinator_shares,
            "m={m} c={c} n={n}"
        );
        let (t, l) = (threaded.stats, lockstep.stats);
        assert_eq!(
            (t.rounds, t.messages, t.bytes),
            (l.rounds, l.messages, l.bytes),
            "m={m} c={c} n={n}"
        );
    }
}
