//! Threads only where parties wait: SecSumShare's providers run on the
//! caller's thread, and a threaded GMW run starts one thread per party.
//! Kept in its own test binary, as one test, so that nothing else in
//! the process starts party threads while the count is read. Every run
//! here stays at m ≤ 64, so a regression cannot start thousands of
//! threads.

use eppi_core::model::{LocalVector, OwnerId, ProviderId};
use eppi_mpc::builder::{to_bits, CircuitBuilder};
use eppi_mpc::circuit::InputLayout;
use eppi_mpc::field::Modulus;
use eppi_net::threaded::party_threads_started;
use eppi_protocol::{execute_threaded, secsumshare_threaded_stats};

#[test]
fn only_gmw_parties_get_threads() {
    let (m, n) = (64, 40);
    let vectors: Vec<LocalVector> = (0..m)
        .map(|i| {
            let mut v = LocalVector::new(ProviderId(i as u32), n);
            for j in (0..n).filter(|j| (i + j) % 3 == 0) {
                v.set(OwnerId(j as u32), true);
            }
            v
        })
        .collect();
    let before = party_threads_started();
    let out = secsumshare_threaded_stats(&vectors, 3, Modulus::pow2(7), 5);
    assert_eq!(out.coordinator_shares.len(), 3);
    assert_eq!(
        party_threads_started(),
        before,
        "SecSumShare at m = {m} started party threads"
    );

    let mut cb = CircuitBuilder::new();
    let (a, b, c) = (cb.input_word(4), cb.input_word(4), cb.input_word(4));
    let sum = cb.add_words_expand(&a, &b);
    let c_wide = cb.resize_word(&c, 5);
    let lt = cb.lt_words(&sum, &c_wide);
    let circuit = cb.finish(vec![lt]);
    let layout = InputLayout::new(vec![4, 4, 4]);
    let inputs = vec![to_bits(3, 4), to_bits(5, 4), to_bits(9, 4)];
    let before = party_threads_started();
    let (opened, _) = execute_threaded(&circuit, &layout, &inputs, 70);
    assert_eq!(opened, vec![true], "3 + 5 < 9");
    assert_eq!(
        party_threads_started() - before,
        3,
        "a 3-party GMW run starts one thread per party"
    );
}
