//! Property-based tests of the private (XOR-PIR) serve mode: for any
//! random published index, the two-replica private client must answer
//! every owner — single and batched, known and unknown — bit-for-bit
//! like the plaintext serve path, and must keep doing so while delta
//! epochs install mid-stream. A final property pins the obliviousness
//! invariant: the servers' scan volume never depends on which owner a
//! query targets, and a batch costs the scan of a single query.

use eppi::core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi::core::rowstore::RowBackend;
use eppi::index::server::PpiServer;
use eppi::serve::{PrivateEngine, ServeConfig};
use eppi::telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random published index with `providers × owners` membership at
/// density `fill` (percent) and arbitrary βs.
fn random_index(seed: u64, providers: usize, owners: usize, fill: u8) -> PublishedIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut matrix = MembershipMatrix::new(providers, owners);
    let p = f64::from(fill.min(100)) / 100.0;
    for pr in 0..providers as u32 {
        for o in 0..owners as u32 {
            if rng.gen_bool(p) {
                matrix.set(ProviderId(pr), OwnerId(o), true);
            }
        }
    }
    let betas: Vec<f64> = (0..owners).map(|_| rng.gen::<f64>()).collect();
    PublishedIndex::new(matrix, betas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Acceptance property: private answers are bit-identical to the
    /// plaintext `PpiServer` for every owner, across shard counts,
    /// matrix shapes (incl. multi-word rows), and densities.
    #[test]
    fn private_query_equals_plaintext_query(
        seed in any::<u64>(),
        providers in 1usize..90,
        owners in 1usize..120,
        shards in 1usize..=8,
        fill in 0u8..=100,
    ) {
        let index = random_index(seed, providers, owners, fill);
        let server = PpiServer::new(index.clone());
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(
            &index,
            ServeConfig { shards, telemetry: false, backend: RowBackend::Dense },
            &registry,
        );
        let mut client = engine.client(seed ^ 0x5eed);
        for o in 0..owners as u32 {
            prop_assert_eq!(client.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        // Batched, with duplicates and an unknown owner mixed in.
        let mut batch: Vec<OwnerId> = (0..owners as u32).map(OwnerId).collect();
        batch.push(OwnerId(0));
        batch.push(OwnerId(owners as u32 + 7));
        let got = client.query_batch(&batch);
        prop_assert_eq!(&got[..owners], &server.query_batch(&batch[..owners])[..]);
        prop_assert_eq!(&got[owners], &server.query(OwnerId(0)));
        prop_assert!(got[owners + 1].is_empty(), "unknown owner must answer empty");
        engine.shutdown();
    }

    /// Delta epochs installing mid-stream never produce a wrong or torn
    /// private answer: after each install, the private client agrees
    /// with a plaintext server holding the same epoch, including for
    /// the appended owner that did not exist at start.
    #[test]
    fn private_answers_track_delta_installs(
        seed in any::<u64>(),
        shards in 1usize..=4,
        epochs in 1u32..=5,
    ) {
        let providers = 40usize;
        let owners = 30usize;
        let base = random_index(seed, providers, owners, 30);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(
            &base,
            ServeConfig { shards, telemetry: false, backend: RowBackend::Dense },
            &registry,
        );
        let mut client = engine.client(seed ^ 0xde17a);

        let mut current = base;
        for e in 1..=epochs {
            // Each epoch flips one pre-existing owner and appends one.
            let appended = OwnerId((owners as u32) + e - 1);
            let touched_old = OwnerId(u64::from(e) as u32 % owners as u32);
            let mut matrix = current.matrix().clone();
            matrix.grow_owners(appended.index() + 1);
            let p = ProviderId(u64::from(e) as u32 % providers as u32);
            matrix.set(p, touched_old, !matrix.get(p, touched_old));
            matrix.set(p, appended, true);
            let mut betas = current.betas().to_vec();
            betas.push(0.4);
            current = PublishedIndex::new(matrix, betas);

            let installed = engine.apply_delta(&current, &[touched_old, appended]).unwrap();
            prop_assert_eq!(installed, u64::from(e));

            let server = PpiServer::new(current.clone());
            for o in 0..=appended.0 {
                prop_assert_eq!(
                    client.query(OwnerId(o)),
                    server.query(OwnerId(o)),
                    "epoch {} owner {}", e, o
                );
            }
        }
        engine.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Obliviousness: whatever owner a private query targets — first,
    /// last, arbitrary, or unknown — the servers scan exactly the same
    /// number of words. Neither replica's work depends on the secret.
    #[test]
    fn scan_volume_is_target_independent(
        seed in any::<u64>(),
        providers in 1usize..100,
        owners in 2usize..100,
        shards in 1usize..=6,
    ) {
        let index = random_index(seed, providers, owners, 25);
        let registry = Registry::new();
        let engine = PrivateEngine::start_with_registry(
            &index,
            ServeConfig { shards, telemetry: false, backend: RowBackend::Dense },
            &registry,
        );
        let mut client = engine.client(seed ^ 0x0b5);
        let probes = [
            OwnerId(0),
            OwnerId(owners as u32 - 1),
            OwnerId((seed % owners as u64) as u32),
            OwnerId(owners as u32 + 1_000), // unknown
        ];
        let mut volumes = Vec::new();
        for &o in &probes {
            let before = engine.stats().pir_scanned_words();
            client.query(o);
            volumes.push(engine.stats().pir_scanned_words() - before);
        }
        prop_assert!(
            volumes.windows(2).all(|w| w[0] == w[1]),
            "scan volume leaks the target: {:?}", volumes
        );
        // One query is one full pass over each replica's packed rows …
        let snapshot = engine.replica_a().current();
        let pass = (snapshot.owners() * snapshot.words_per_row()) as u64;
        prop_assert_eq!(volumes[0], 2 * pass);
        // … and so is a whole batch: the scan amortizes over its members.
        let before = engine.stats().pir_scanned_words();
        client.query_batch(&probes);
        prop_assert_eq!(engine.stats().pir_scanned_words() - before, volumes[0]);
        engine.shutdown();
    }
}
