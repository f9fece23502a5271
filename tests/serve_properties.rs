//! Property-based tests of the serving subsystem: the sharded layout
//! and the concurrent engine must answer `QueryPPI` bit-for-bit like
//! the plain `PpiServer`, sharding must be a lossless transform of
//! the published index (shown via codec round-trips on reassembled
//! indexes), and the copy-on-write delta install path must equal a
//! from-scratch build while never blocking or tearing readers.

use eppi::core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi::core::rowstore::RowBackend;
use eppi::index::codec;
use eppi::index::server::PpiServer;
use eppi::serve::{shard_of, ServeConfig, ServeEngine, ShardedIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance property: for random matrices and every shard count
    /// 1..=16, the sharded layout answers every owner bit-identically
    /// to the unsharded server.
    #[test]
    fn sharded_query_equals_server_query(
        seed in any::<u64>(),
        providers in 1usize..90,
        owners in 1usize..140,
        shards in 1usize..=16,
        fill in 0u8..=100,
    ) {
        let index = random_index(seed, providers, owners, fill);
        let server = PpiServer::new(index.clone());
        let sharded = ShardedIndex::from_index(&index, shards);
        for o in 0..owners as u32 {
            prop_assert_eq!(sharded.query(OwnerId(o)), server.query(OwnerId(o)));
        }
        let all: Vec<OwnerId> = (0..owners as u32).map(OwnerId).collect();
        prop_assert_eq!(sharded.query_batch(&all), server.query_batch(&all));
    }

    /// The full engine (threads + channels) preserves the same
    /// bit-for-bit answers, single and batched.
    #[test]
    fn engine_query_equals_server_query(
        seed in any::<u64>(),
        providers in 1usize..60,
        owners in 1usize..80,
        shards in 1usize..=8,
        compressed in any::<bool>(),
    ) {
        let backend = if compressed { RowBackend::Compressed } else { RowBackend::Dense };
        let index = random_index(seed, providers, owners, 30);
        let server = PpiServer::new(index.clone());
        let engine = ServeEngine::start(
            &index,
            ServeConfig { shards, telemetry: false, backend },
        );
        let client = engine.client();
        let all: Vec<OwnerId> = (0..owners as u32).map(OwnerId).collect();
        for &o in &all {
            prop_assert_eq!(client.query(o), server.query(o));
        }
        prop_assert_eq!(client.query_batch(&all), server.query_batch(&all));
        engine.shutdown();
    }

    /// Shard-then-reassemble is the identity on published indexes, and
    /// the reassembled index survives a codec round-trip unchanged —
    /// i.e. sharding loses no published bit and no β.
    #[test]
    fn shard_reassemble_codec_roundtrip(
        seed in any::<u64>(),
        providers in 1usize..80,
        owners in 1usize..100,
        shards in 1usize..=16,
        fill in 0u8..=100,
    ) {
        let index = random_index(seed, providers, owners, fill);
        let reassembled = ShardedIndex::from_index(&index, shards).reassemble();
        prop_assert_eq!(&reassembled, &index);
        let decoded = codec::decode(&codec::encode(&reassembled)).unwrap();
        prop_assert_eq!(&decoded, &index);
    }

    /// Copy-on-write delta install: for a random change batch (churned
    /// plus appended owners), `apply_delta` equals a from-scratch build
    /// of the new index under the same frozen shard map, routes every
    /// appended owner to append shards (never rebuilding a clean base
    /// shard for growth), and physically shares the row storage of
    /// every shard the batch does not touch.
    #[test]
    fn apply_delta_equals_rebuild_and_shares_untouched_rows(
        seed in any::<u64>(),
        providers in 1usize..60,
        owners in 1usize..80,
        shards in 1usize..=8,
        added in 0usize..=5,
        compressed in any::<bool>(),
    ) {
        let backend = if compressed { RowBackend::Compressed } else { RowBackend::Dense };
        let base = random_index(seed, providers, owners, 35);
        let next = random_index(seed ^ 0xd1f, providers, owners + added, 35);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea);
        // Touched = random pre-existing subset plus every appended owner.
        let mut touched: Vec<OwnerId> = (0..owners as u32)
            .map(OwnerId)
            .filter(|_| rng.gen_bool(0.3))
            .collect();
        touched.extend((owners as u32..(owners + added) as u32).map(OwnerId));
        // Splice: untouched columns keep their base bits (the delta
        // contract — only touched columns may differ).
        let mut matrix = next.matrix().clone();
        for o in (0..owners as u32).map(OwnerId) {
            if !touched.contains(&o) {
                for p in (0..providers as u32).map(ProviderId) {
                    matrix.set(p, o, base.matrix().get(p, o));
                }
            }
        }
        let mut betas = next.betas().to_vec();
        for o in (0..owners as u32).map(OwnerId) {
            if !touched.contains(&o) {
                betas[o.index()] = base.betas()[o.index()];
            }
        }
        let spliced = PublishedIndex::new(matrix, betas);

        let old = ShardedIndex::from_index_with(&base, shards, backend, 1);
        let applied = old.apply_delta(&spliced, &touched, 2).unwrap();
        // A from-scratch build under the *frozen* base shard map is
        // bit-identical; a fresh map would rehash the appended owners.
        let rebuilt = ShardedIndex::from_index_mapped(&spliced, old.shard_map(), backend, 2);
        prop_assert_eq!(&applied, &rebuilt);
        // Growth lands in append shards past the base ones.
        prop_assert_eq!(
            applied.shard_count(),
            shards + usize::from(added > 0),
            "appended owners must open append shards, not rehash"
        );

        // Only pre-existing touched owners dirty base shards; appended
        // owners live beyond them.
        let dirty: BTreeSet<usize> = touched
            .iter()
            .filter(|o| (o.0 as usize) < owners)
            .map(|&o| shard_of(o, shards))
            .collect();
        for s in 0..shards {
            prop_assert_eq!(
                applied.shares_rows_with(&old, s),
                !dirty.contains(&s),
                "shard {} sharing disagrees with the touched set", s
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Readers are never blocked or torn by delta installs: while a
    /// reader thread hammers the engine, a sequence of delta installs
    /// churns one owner. Untouched owners must answer bit-identically
    /// to the base index throughout; the churned owner must always
    /// answer with some installed epoch's row, never a mix.
    #[test]
    fn queries_flow_during_delta_installs(
        seed in any::<u64>(),
        shards in 1usize..=4,
    ) {
        let providers = 40usize;
        let owners = 24usize;
        let epochs = 6u32;
        let base = random_index(seed, providers, owners, 30);
        let hot = OwnerId(0);

        // Precompute the per-epoch indexes (only `hot` ever changes) and
        // the set of rows the hot owner may legally answer with.
        let mut versions = vec![base.clone()];
        for e in 1..=epochs {
            let prev = versions.last().unwrap();
            let mut matrix = prev.matrix().clone();
            let p = ProviderId(u64::from(e) as u32 % providers as u32);
            matrix.set(p, hot, !matrix.get(p, hot));
            versions.push(PublishedIndex::new(matrix, prev.betas().to_vec()));
        }
        let legal_hot: BTreeSet<Vec<ProviderId>> =
            versions.iter().map(|v| v.query(hot)).collect();

        let engine = Arc::new(ServeEngine::start(
            &base,
            ServeConfig { shards, telemetry: false, backend: RowBackend::Dense },
        ));
        // The stats counters live in the process-global registry and
        // accumulate across proptest cases; measure this case's delta.
        let deltas_before = engine.stats().delta_refreshes();
        let server = PpiServer::new(base.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let server = server.clone();
            let legal_hot = legal_hot.clone();
            std::thread::spawn(move || {
                let client = engine.client();
                let cold: Vec<OwnerId> = (1..owners as u32).map(OwnerId).collect();
                while !stop.load(Ordering::Relaxed) {
                    for &o in &cold {
                        assert_eq!(client.query(o), server.query(o), "cold row changed");
                    }
                    assert!(
                        legal_hot.contains(&client.query(hot)),
                        "hot row torn: not any installed epoch's row"
                    );
                }
            })
        };
        for version in &versions[1..] {
            engine.apply_delta(version, &[hot]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread");
        prop_assert_eq!(
            engine.stats().delta_refreshes() - deltas_before,
            u64::from(epochs)
        );
        prop_assert_eq!(engine.current().reassemble(), versions.last().unwrap().clone());
        engine.shutdown();
    }
}
