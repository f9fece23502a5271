//! Party threads start once per process: a warm threaded SecSumShare
//! run starts no OS thread. Kept in its own test binary so that no
//! parallel test can start pool threads while the count is read.

use eppi_core::model::{LocalVector, OwnerId, ProviderId};
use eppi_mpc::field::Modulus;
use eppi_net::executor::threads_started;
use eppi_protocol::secsumshare_threaded_stats;

#[test]
fn a_warm_secsumshare_run_starts_no_thread() {
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
    let q = Modulus::pow2(7);

    let cold = secsumshare_threaded_stats(&vectors, 3, q, 5);
    let started = threads_started();
    assert_eq!(
        started, m as u64,
        "a cold run starts one thread per provider"
    );
    let warm = secsumshare_threaded_stats(&vectors, 3, q, 5);
    assert_eq!(threads_started(), started, "the warm run started threads");
    assert_eq!(warm.coordinator_shares, cold.coordinator_shares);
    assert_eq!(warm.stats.bytes, cold.stats.bytes);
}
