//! The three circuit-evaluation backends — cleartext reference,
//! in-process GMW, threaded GMW — must agree bit-for-bit on arbitrary
//! circuits and inputs.

use eppi::mpc::builder::{to_bits, CircuitBuilder};
use eppi::mpc::circuit::{Circuit, InputLayout};
use eppi::mpc::circuits::{lambda_threshold, CountBelowCircuit, MixDecisionCircuit};
use eppi::mpc::field::Modulus;
use eppi::mpc::gmw;
use eppi::mpc::share::split;
use eppi::net::sim::LinkModel;
use eppi::protocol::threaded_gmw::execute_threaded;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random-ish arithmetic circuit over three party words.
fn build_circuit(width: usize) -> (Circuit, InputLayout) {
    let mut cb = CircuitBuilder::new();
    let a = cb.input_word(width);
    let b = cb.input_word(width);
    let c = cb.input_word(width);
    let ab = cb.add_words_expand(&a, &b);
    let c_wide = cb.resize_word(&c, width + 1);
    let lt = cb.lt_words(&c_wide, &ab);
    let eq = cb.eq_words(&a, &c);
    let sum = cb.add_words(&b, &c);
    let bits = sum.bits().to_vec();
    let parity = bits
        .iter()
        .copied()
        .reduce(|x, y| cb.xor(x, y))
        .expect("non-empty word");
    let and_all = cb.and(lt, parity);
    let or_mix = cb.or(eq, and_all);
    (
        cb.finish(vec![lt, eq, parity, or_mix]),
        InputLayout::new(vec![width, width, width]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backends_agree_on_random_inputs(
        a in 0u64..256,
        b in 0u64..256,
        c in 0u64..256,
        seed in any::<u64>(),
    ) {
        let (circuit, layout) = build_circuit(8);
        let inputs = vec![to_bits(a, 8), to_bits(b, 8), to_bits(c, 8)];
        let clear = circuit.eval(&layout.flatten(&inputs));
        let (in_process, _) = gmw::execute(&circuit, &layout, &inputs, LinkModel::LAN, seed);
        let (threaded, _) = execute_threaded(&circuit, &layout, &inputs, seed);
        prop_assert_eq!(&in_process, &clear);
        prop_assert_eq!(&threaded, &clear);
    }
}

#[test]
fn count_below_backends_agree_over_many_seeds() {
    let thresholds = [40u64, 90, 10, 70];
    let width = 9usize;
    let q = Modulus::pow2(width as u32);
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let freqs: Vec<u64> = (0..4).map(|_| rng.gen_range(0..128)).collect();
        let cc = CountBelowCircuit::build(3, &thresholds, width);
        let mut per = vec![vec![0u64; 4]; 3];
        for (j, &f) in freqs.iter().enumerate() {
            let s = split(f, 3, q, &mut rng);
            for (k, &v) in s.values().iter().enumerate() {
                per[k][j] = v;
            }
        }
        let inputs: Vec<Vec<bool>> = per.iter().map(|s| cc.encode_party_input(s)).collect();
        let expect = freqs
            .iter()
            .zip(&thresholds)
            .filter(|(f, t)| f >= t)
            .count() as u64;

        let clear = cc.decode_count(&cc.circuit().eval(&cc.layout().flatten(&inputs)));
        let (gout, _) = gmw::execute(cc.circuit(), cc.layout(), &inputs, LinkModel::LAN, seed);
        let (tout, _) = execute_threaded(cc.circuit(), cc.layout(), &inputs, seed);
        assert_eq!(clear, expect, "seed {seed}");
        assert_eq!(cc.decode_count(&gout), expect, "seed {seed}");
        assert_eq!(cc.decode_count(&tout), expect, "seed {seed}");
    }
}

#[test]
fn mix_decision_coin_is_unbiased_across_backends() {
    // λ = 0.5 with fresh coins per identity: both backends agree exactly
    // (same seed-derived coins) and the rate is near λ.
    let n = 200usize;
    let thresholds = vec![1000u64; n];
    let width = 11usize;
    let q = Modulus::pow2(width as u32);
    let k = 10usize;
    let mc = MixDecisionCircuit::build(2, &thresholds, width, k, lambda_threshold(0.5, k));
    let mut rng = StdRng::seed_from_u64(77);
    let mut per = vec![vec![0u64; n]; 2];
    for j in 0..n {
        let s = split(1, 2, q, &mut rng);
        for (shares, &v) in per.iter_mut().zip(s.values()) {
            shares[j] = v;
        }
    }
    let inputs: Vec<Vec<bool>> = per
        .iter()
        .map(|s| {
            let coins: Vec<u64> = (0..n).map(|_| rng.gen_range(0..(1u64 << k))).collect();
            mc.encode_party_input(s, &coins)
        })
        .collect();
    let clear = mc.circuit().eval(&mc.layout().flatten(&inputs));
    let (threaded, _) = execute_threaded(mc.circuit(), mc.layout(), &inputs, 5);
    assert_eq!(clear, threaded);
    let rate = clear.iter().filter(|&&b| b).count() as f64 / n as f64;
    assert!((rate - 0.5).abs() < 0.12, "coin rate {rate}");
}

#[test]
fn gmw_stats_track_circuit_structure() {
    let (circuit, layout) = build_circuit(8);
    let stats = circuit.stats();
    let inputs = vec![to_bits(1, 8), to_bits(2, 8), to_bits(3, 8)];
    let (_, gstats) = gmw::execute(&circuit, &layout, &inputs, LinkModel::LAN, 1);
    assert_eq!(gstats.and_gates, stats.and_gates);
    assert!(
        gstats.rounds >= stats.and_depth,
        "rounds cover every AND layer"
    );
}
