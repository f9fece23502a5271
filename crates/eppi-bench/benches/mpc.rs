//! Benchmarks of the MPC substrate: circuit compilation, in-process GMW
//! evaluation, threaded evaluation, and the SecSumShare protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use eppi_core::model::{LocalVector, OwnerId, ProviderId};
use eppi_mpc::circuits::CountBelowCircuit;
use eppi_mpc::field::Modulus;
use eppi_mpc::gmw;
use eppi_mpc::share::split;
use eppi_net::sim::LinkModel;
use eppi_protocol::secsum::secsumshare_sim;
use eppi_protocol::threaded_gmw::execute_threaded;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn shares_for(freqs: &[u64], c: usize, width: usize) -> Vec<Vec<u64>> {
    let q = Modulus::pow2(width as u32);
    let mut rng = StdRng::seed_from_u64(7);
    let mut per = vec![vec![0u64; freqs.len()]; c];
    for (j, &f) in freqs.iter().enumerate() {
        let s = split(f, c, q, &mut rng);
        for (k, &v) in s.values().iter().enumerate() {
            per[k][j] = v;
        }
    }
    per
}

fn bench_circuit_build(c: &mut Criterion) {
    let thresholds = vec![100u64; 16];
    c.bench_function("mpc/build_countbelow_c3_n16_w14", |b| {
        b.iter(|| CountBelowCircuit::build(3, &thresholds, 14))
    });
}

fn bench_gmw(c: &mut Criterion) {
    let thresholds = vec![100u64; 8];
    let cc = CountBelowCircuit::build(3, &thresholds, 10);
    let freqs = vec![50u64; 8];
    let shares = shares_for(&freqs, 3, 10);
    let inputs: Vec<Vec<bool>> = shares.iter().map(|s| cc.encode_party_input(s)).collect();
    c.bench_function("mpc/gmw_countbelow_c3_n8", |b| {
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| gmw::execute(cc.circuit(), cc.layout(), &inputs, &mut rng))
    });
    c.bench_function("mpc/threaded_countbelow_c3_n8", |b| {
        b.iter(|| execute_threaded(cc.circuit(), cc.layout(), &inputs, 9))
    });
}

fn bench_secsum(c: &mut Criterion) {
    let m = 1000usize;
    let n = 32usize;
    let vectors: Vec<LocalVector> = (0..m)
        .map(|i| {
            let mut v = LocalVector::new(ProviderId(i as u32), n);
            for j in 0..n {
                if (i + j) % 10 == 0 {
                    v.set(OwnerId(j as u32), true);
                }
            }
            v
        })
        .collect();
    c.bench_function("mpc/secsumshare_sim_1000x32_c3", |b| {
        b.iter(|| secsumshare_sim(&vectors, 3, Modulus::pow2(16), LinkModel::LAN, 1))
    });
}

fn bench_naive_circuit(c: &mut Criterion) {
    use eppi_mpc::circuits::{FixedPoint, NaiveConstructionCircuit};
    let fp = FixedPoint { frac_bits: 8 };
    let a_fp = fp.encode(1.0);
    let l_fp = fp.encode(std::f64::consts::LN_10);
    c.bench_function("mpc/build_naive_beta_circuit_m9", |b| {
        b.iter(|| NaiveConstructionCircuit::build(9, &[a_fp], l_fp, fp, 8, 0))
    });
    let nc = NaiveConstructionCircuit::build(5, &[a_fp], l_fp, fp, 4, 0);
    let mut rng = StdRng::seed_from_u64(13);
    let inputs: Vec<Vec<bool>> = (0..5)
        .map(|p| nc.encode_party_input(&[p < 3], &[7]))
        .collect();
    let _ = &mut rng;
    c.bench_function("mpc/eval_naive_beta_cleartext_m5", |b| {
        let flat = nc.layout().flatten(&inputs);
        b.iter(|| nc.circuit().eval(&flat))
    });
}

criterion_group!(
    mpc,
    bench_circuit_build,
    bench_gmw,
    bench_secsum,
    bench_naive_circuit
);
criterion_main!(mpc);
