//! Trace obliviousness: tracing a private-mode query must not create a
//! side channel. `private_equivalence.rs` pins the scan-volume
//! invariant; this suite pins the *trace* invariant — the exported span
//! tree of a private query, after timestamp normalization
//! (`TraceLog::shape`), is structurally identical whichever owner is
//! probed: same span names, same counts, same tree shape, same payload
//! sizes. A trailing test checks the acceptance-level export: one
//! private query yields valid Chrome `trace_event` JSON whose span tree
//! covers client submit → scatter → both replicas' per-shard PIR scans
//! → gather → recombine, and the plaintext query beside it is one
//! `serve.query` root over one `serve.shard_query`.

use eppi::core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi::core::rowstore::RowBackend;
use eppi::serve::{PrivateEngine, ServeConfig};
use eppi::telemetry::json::JsonValue;
use eppi::telemetry::Registry;
use eppi::trace::{chrome, Obs, TraceConfig, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn tracer() -> Tracer {
    Tracer::new(TraceConfig {
        capacity_per_thread: 4096,
        slow_threshold: None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: for any index shape and shard count, the
    /// normalized trace of a private single query is identical for
    /// every probed owner — first, last, arbitrary, and unknown.
    #[test]
    fn private_query_trace_is_owner_independent(
        seed in any::<u64>(),
        providers in 1usize..80,
        owners in 2usize..100,
        shards in 1usize..=6,
    ) {
        let index = random_index(seed, providers, owners, 25);
        let registry = Registry::new();
        let tracer = tracer();
        let engine = PrivateEngine::start_with_registry(
            &index,
            ServeConfig { shards, queue_depth: 16, telemetry: false, backend: RowBackend::Dense },
            Obs { tracer: &tracer, ..Obs::from(&registry) },
        );
        let mut client = engine.client(seed ^ 0x7ace);
        let probes = [
            OwnerId(0),
            OwnerId(owners as u32 - 1),
            OwnerId((seed % owners as u64) as u32),
            OwnerId(owners as u32 + 1_000), // unknown: null pair, same path
        ];
        for &o in &probes {
            client.query(o);
        }
        engine.shutdown();

        let log = tracer.collect();
        prop_assert_eq!(log.total_dropped(), 0, "ring sized for the workload");
        let traces = log.trace_ids();
        prop_assert_eq!(traces.len(), probes.len());
        let shapes: Vec<_> = traces
            .iter()
            .map(|&t| log.shape(t).expect("trace survived"))
            .collect();
        for (i, pair) in shapes.windows(2).enumerate() {
            prop_assert_eq!(
                &pair[0], &pair[1],
                "normalized traces differ between probe {} ({:?}) and probe {} ({:?}):\n{}\nvs\n{}",
                i, probes[i], i + 1, probes[i + 1],
                log.render(traces[i]), log.render(traces[i + 1])
            );
        }
    }

    /// Batched private queries of equal length are likewise trace-equal
    /// whatever owners (known, unknown, duplicated) fill the batch.
    #[test]
    fn private_batch_trace_depends_only_on_batch_length(
        seed in any::<u64>(),
        owners in 4usize..60,
        shards in 1usize..=4,
        batch_len in 1usize..6,
    ) {
        let index = random_index(seed, 30, owners, 30);
        let registry = Registry::new();
        let tracer = tracer();
        let engine = PrivateEngine::start_with_registry(
            &index,
            ServeConfig { shards, queue_depth: 16, telemetry: false, backend: RowBackend::Dense },
            Obs { tracer: &tracer, ..Obs::from(&registry) },
        );
        let mut client = engine.client(seed ^ 0xba7c);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e);
        let batches: Vec<Vec<OwnerId>> = (0..3)
            .map(|round| {
                (0..batch_len)
                    .map(|i| match (round, i) {
                        // Round 1 leads with an unknown owner, round 2
                        // duplicates its first owner throughout.
                        (1, 0) => OwnerId(owners as u32 + 99),
                        (2, _) => OwnerId(7 % owners as u32),
                        _ => OwnerId(rng.gen_range(0..owners as u32)),
                    })
                    .collect()
            })
            .collect();
        for batch in &batches {
            client.query_batch(batch);
        }
        engine.shutdown();

        let log = tracer.collect();
        let traces = log.trace_ids();
        prop_assert_eq!(traces.len(), batches.len());
        let shapes: Vec<_> = traces.iter().map(|&t| log.shape(t).unwrap()).collect();
        for pair in shapes.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1], "batch trace leaks batch contents");
        }
    }
}

/// Acceptance check: a single private query exports valid Chrome
/// `trace_event` JSON whose span tree covers the full private path on
/// both replicas.
#[test]
fn single_private_query_exports_complete_chrome_trace() {
    let shards = 3usize;
    let index = random_index(1234, 40, 64, 30);
    let registry = Registry::new();
    let tracer = tracer();
    let engine = PrivateEngine::start_with_registry(
        &index,
        ServeConfig {
            shards,
            queue_depth: 16,
            telemetry: true,
            backend: RowBackend::Dense,
        },
        Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        },
    );
    let mut client = engine.client(5);
    let plain = engine.replica_a().client();
    let answer = client.query(OwnerId(17));
    assert_eq!(
        answer,
        plain.query(OwnerId(17)),
        "tracing must not change answers"
    );
    engine.shutdown();

    let log = tracer.collect();
    // The plaintext cross-check above is traced too (serve.query); the
    // private trace is the one rooted at `private.query`.
    let trace = log
        .trace_ids()
        .into_iter()
        .find(|&t| log.span_tree(t).is_some_and(|n| n.name == "private.query"))
        .expect("private query trace");
    let tree = log.span_tree(trace).unwrap();

    // Client submit → scatter → both replicas' per-shard PirScan →
    // gather → recombine, all under one root.
    assert_eq!(tree.name, "private.query");
    assert_eq!(tree.count("pir.generate"), 1);
    assert_eq!(tree.count("pir.scatter"), 2, "one scatter per replica");
    assert_eq!(
        tree.count("pir.scan"),
        2 * shards,
        "every shard of both replicas"
    );
    assert_eq!(tree.count("pir.gather"), 2);
    assert_eq!(tree.count("pir.recombine"), 1);
    // The scans hang under the scatters, not directly under the root.
    for child in &tree.children {
        if child.name == "pir.scatter" {
            assert_eq!(child.count("pir.scan"), shards);
            assert_eq!(child.count("pir.gather"), 1);
        }
    }

    // The export is well-formed Chrome trace_event JSON with every
    // span of the tree present.
    let text = chrome::to_chrome_string(&log);
    let doc = JsonValue::parse(&text).expect("chrome export parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(JsonValue::as_str) == Some(name)
                    && e.get("args")
                        .and_then(|a| a.get("trace"))
                        .and_then(JsonValue::as_u64)
                        == Some(trace)
            })
            .count()
    };
    assert_eq!(count("private.query"), 1);
    assert_eq!(count("pir.scatter"), 2);
    assert_eq!(count("pir.scan"), 2 * shards);
    assert_eq!(count("pir.gather"), 2);
    assert_eq!(count("pir.recombine"), 1);
    for e in events {
        assert!(e.get("ph").is_some() && e.get("pid").is_some() && e.get("tid").is_some());
        if e.get("ph").and_then(JsonValue::as_str) == Some("X") {
            assert!(e.get("dur").is_some(), "complete slice without a duration");
        }
    }

    // The plaintext cross-check was traced into the same log: one
    // `serve.query` root whose row came from exactly one shard.
    let plain_tree = log
        .trace_ids()
        .into_iter()
        .filter_map(|t| log.span_tree(t))
        .find(|n| n.name == "serve.query")
        .expect("plaintext query trace");
    assert_eq!(plain_tree.count("serve.shard_query"), 1);
}
