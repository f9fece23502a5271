//! The per-layer pass: direct calls into each crate's public functions
//! on the same inputs the lifecycle rounds use (layer = crate).
//!
//! Timed figures are sampled in [`REPS`] bursts, each burst sized to a
//! window of at least [`WINDOW`]; the median burst is reported. Counts
//! are read from the public reports and a caller-owned `Registry` and
//! repeat exactly under one seed.

use crate::host::on_all_cpus;
use crate::inputs::{serve_config, Setup};
use crate::round::Stream;
use crate::spec::{Workload, BATCH};
use crate::stats::{quartiles, Samples};
use eppi_audit::{prove_column, verify_column, ColumnCommitment, ColumnStatement};
use eppi_core::commit::digest_words;
use eppi_core::model::{LocalVector, OwnerId, ProviderId, PublishedIndex};
use eppi_core::publish::publish_matrix_at;
use eppi_core::rowstore::{CompressedRows, RowBackend};
use eppi_durability::{checkpoint, decode_epoch, encode_epoch, DurableStore, Wal, WalRecord};
use eppi_durability::{invalidate_serve_snapshot, WAL_FILE};
use eppi_index::codec::{decode_serve_snapshot, encode_serve_snapshot, ShardRowsRecord};
use eppi_mpc::circuits::{lambda_threshold, CountBelowCircuit, MixDecisionCircuit};
use eppi_mpc::field::Modulus;
use eppi_mpc::gmw_core::{deal_packed_triples, run_lockstep, PartyCore, Schedule};
use eppi_net::transport::InProcessTransport;
use eppi_pir::{xor_scan_indexed, xor_scan_indexed_batch, QueryPair, SelectionVector};
use eppi_protocol::construct::{frequency_thresholds, share_width};
use eppi_protocol::{
    certify_epoch, construct_delta, execute_threaded, run_count_below, run_mix_decision,
    secsumshare_sim, secsumshare_threaded_stats, verify_commitments, Backend,
};
use eppi_serve::{PrivateEngine, ServeConfig, ServeEngine, ShardedIndex};
use eppi_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shortest timed window (the issue's floor).
const WINDOW: Duration = Duration::from_millis(15);
/// Bursts per timed figure.
const REPS: usize = 5;
/// Owners sampled for the row-decode kernel.
const DECODE_SAMPLE: usize = 2048;
/// Send rate of the open-loop probe, requests per second.
const OPEN_RATE: f64 = 20_000.0;

/// Times `op` in bursts of at least [`WINDOW`]; returns seconds per
/// call, one value per burst.
fn bench<T>(mut op: impl FnMut() -> T) -> Vec<f64> {
    let mut once = f64::MAX;
    for _ in 0..2 {
        let started = Instant::now();
        black_box(op());
        once = once.min(started.elapsed().as_secs_f64());
    }
    let per_burst = (WINDOW.as_secs_f64() / once.max(1e-9))
        .ceil()
        .clamp(1.0, 1e7) as usize;
    (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_burst {
                black_box(op());
            }
            started.elapsed().as_secs_f64() / per_burst as f64
        })
        .collect()
}

fn push_scaled(out: &mut Samples, name: &'static str, secs: Vec<f64>, scale: f64) {
    for s in secs {
        out.push(name, s * scale);
    }
}

/// Times `op` with [`bench`] and records seconds per call × `scale`.
fn measure<T>(out: &mut Samples, name: &'static str, scale: f64, op: impl FnMut() -> T) {
    push_scaled(out, name, bench(op), scale);
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// eppi-protocol and eppi-mpc and eppi-net: the phases of one build.
fn mpc_layers(w: &Workload, setup: &Setup, out: &mut Samples) {
    let lin = &setup.lineage;
    let (m, c, seed) = (w.providers, lin.proto.c, lin.proto.seed);
    let width = share_width(m);
    let modulus = Modulus::pow2(width as u32);
    let vectors: Vec<LocalVector> = lin
        .matrix
        .provider_ids()
        .map(|p| lin.matrix.row(p))
        .collect();
    // Same backend split as `construct_epoch`: thread-backed backends
    // sum over real threads, the others in the round simulator.
    let secsum = || match lin.proto.backend {
        Backend::Threaded | Backend::Pipelined { .. } => {
            secsumshare_threaded_stats(&vectors, c, modulus, seed)
        }
        Backend::InProcess | Backend::Simulated => {
            secsumshare_sim(&vectors, c, modulus, lin.proto.link, seed)
        }
    };
    measure(out, "protocol.secsum_ms", 1e3, secsum);
    let shares = secsum().coordinator_shares;
    let thresholds = frequency_thresholds(lin.proto.policy, &lin.epsilons, m);
    let backend = lin.proto.backend;
    measure(out, "protocol.countbelow_ms", 1e3, || {
        run_count_below(&shares, &thresholds, width, backend, seed ^ 0xcb)
    });
    let lambda = lin.reference.lambda();
    let coin_bits = lin.proto.coin_bits;
    measure(out, "protocol.mix_ms", 1e3, || {
        run_mix_decision(
            &shares,
            &thresholds,
            width,
            coin_bits,
            lambda,
            backend,
            seed ^ 0x313,
        )
    });
    let mut next = lin.matrix.clone();
    lin.audited_step.apply(&mut next);
    let delta = &lin.audited_step.delta;
    measure(out, "protocol.delta_ms", 1e3, || {
        construct_delta(&lin.reference, &next, delta).expect("delta")
    });
    let delta_report = construct_delta(&lin.reference, &next, delta)
        .expect("delta")
        .report;
    let r = lin.build_report();
    out.push("protocol.build_gates", r.circuit_size() as f64);
    out.push(
        "protocol.build_and_gates",
        (r.count_stage.circuit.and_gates + r.mix_stage.circuit.and_gates) as f64,
    );
    out.push(
        "protocol.build_rounds",
        (r.secsum.rounds + r.count_stage.circuit.and_depth + r.mix_stage.circuit.and_depth) as f64,
    );
    out.push(
        "protocol.build_msgs",
        (r.secsum.messages + r.count_stage.messages + r.mix_stage.messages) as f64,
    );
    out.push("protocol.delta_gates", delta_report.circuit_size() as f64);

    // eppi-mpc: the pieces of one CountBelow execution.
    let cc = CountBelowCircuit::build(c, &thresholds, width);
    measure(out, "mpc.schedule_ms", 1e3, || Schedule::new(cc.circuit()));
    let sched = Schedule::new(cc.circuit());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7121);
    measure(out, "mpc.triples_ms", 1e3, || {
        deal_packed_triples(c, &sched, &mut rng)
    });
    let inputs: Vec<Vec<bool>> = shares.iter().map(|s| cc.encode_party_input(s)).collect();
    let expected = run_count_below(&shares, &thresholds, width, Backend::InProcess, seed).0;
    let runs = 3;
    for _ in 0..REPS {
        let mut wall = Duration::ZERO;
        for _ in 0..runs {
            // Dealing is the offline phase: outside the timed window.
            let mut triples = deal_packed_triples(c, &sched, &mut rng);
            let mut cores: Vec<PartyCore<'_>> = (0..c)
                .map(|p| {
                    PartyCore::new(
                        cc.circuit(),
                        cc.layout(),
                        &sched,
                        p,
                        std::mem::take(&mut triples[p]),
                    )
                })
                .collect();
            let mut hub = InProcessTransport::hub(c);
            let started = Instant::now();
            let opened = run_lockstep(&mut cores, &mut hub, |p, core| {
                core.share_inputs(&inputs[p], &mut rng)
            });
            wall += started.elapsed();
            assert_eq!(cc.decode_count(&opened), expected, "lockstep count");
        }
        out.push(
            "mpc.and_ns_per_gate",
            wall.as_secs_f64() * 1e9 / (runs * sched.and_gates()) as f64,
        );
    }
    let mix = MixDecisionCircuit::build(
        c,
        &thresholds,
        width,
        coin_bits,
        lambda_threshold(lambda, coin_bits),
    );
    out.push(
        "mpc.triples_per_build",
        (sched.and_gates() + Schedule::new(mix.circuit()).and_gates()) as f64,
    );

    // eppi-net: one synchronized round of the threaded transport.
    let one = CountBelowCircuit::build(c, &thresholds[..1], width);
    let one_inputs: Vec<Vec<bool>> = shares
        .iter()
        .map(|s| one.encode_party_input(&s[..1]))
        .collect();
    let rounds = execute_threaded(one.circuit(), one.layout(), &one_inputs, seed)
        .1
        .rounds;
    measure(out, "net.threaded_round_us", 1e6 / rounds as f64, || {
        execute_threaded(one.circuit(), one.layout(), &one_inputs, seed)
    });
}

/// eppi-core and eppi-audit kernels.
fn core_and_audit_layers(w: &Workload, setup: &Setup, served: &PublishedIndex, out: &mut Samples) {
    let lin = &setup.lineage;
    let seed = lin.proto.seed;
    let betas = lin.reference.index().betas();
    measure(out, "core.publish_ms", 1e3, || {
        publish_matrix_at(&lin.matrix, betas, seed)
    });
    let mib = vec![0x9e37_79b9_7f4a_7c15u64; (1 << 20) / 8];
    for s in bench(|| digest_words("bench.hash", &mib)) {
        out.push("core.hash_mb_s", 1.0 / s);
    }
    // Row decode over the rows queries hit: the hottest owners of the
    // served index, compressed exactly as a shard stores them.
    let stream = setup.paper.as_ref().map_or(&lin.stream, |p| &p.stream);
    let mut hot: Vec<OwnerId> = stream.clone();
    hot.sort_unstable();
    hot.dedup();
    hot.truncate(DECODE_SAMPLE);
    let providers = served.matrix().providers();
    let dense: Vec<u64> = hot
        .iter()
        .flat_map(|&o| served.matrix().column_words(o))
        .collect();
    let rows = CompressedRows::from_dense_words(&dense, providers);
    let slots: Vec<u32> = (0..hot.len() as u32).collect();
    measure(out, "core.row_decode_ns", 1e9 / slots.len() as f64, || {
        rows.providers_in_slots(&slots)
    });

    let p0 = ProviderId(0);
    let published = lin.reference.index().matrix().row_words(p0);
    let stmt = ColumnStatement {
        epoch_seed: seed,
        provider: p0,
        betas,
        published,
    };
    let raw = lin.matrix.row_words(p0);
    let params = lin.audit.params;
    measure(out, "audit.prove_column_ms", 1e3, || {
        prove_column(&stmt, raw, &params, lin.audit.prover_seed)
    });
    let proof = prove_column(&stmt, raw, &params, lin.audit.prover_seed);
    let commitment = ColumnCommitment::compute(seed, p0, betas, published);
    measure(out, "audit.verify_column_ms", 1e3, || {
        verify_column(&stmt, &commitment, &proof, &params).expect("honest proof")
    });
    measure(out, "audit.commit_us", 1e6, || {
        ColumnCommitment::compute(seed, p0, betas, published)
    });
    let certificates = certify_epoch(&lin.matrix, &lin.reference, &lin.audit);
    let commitments: Vec<ColumnCommitment> = certificates.iter().map(|c| c.commitment).collect();
    measure(out, "audit.verify_commitments_ms", 1e3, || {
        verify_commitments(&lin.reference, &commitments).expect("honest commitments")
    });
    let proof_bytes: usize = certificates.iter().map(|c| c.proof.size_bytes()).sum();
    out.push(
        "audit.proof_bytes_per_owner",
        (proof_bytes / w.owners) as f64,
    );
}

/// eppi-durability: journal, checkpoint and the pieces of recovery.
fn durability_layers(w: &Workload, setup: &Setup, dir: &Path, out: &mut Samples) {
    let lin = &setup.lineage;
    let _ = std::fs::remove_dir_all(dir);
    let registry = Registry::new();
    let mut store =
        DurableStore::create_with_registry(dir, &lin.reference, &registry).expect("create store");
    let fsyncs = registry.counter("durability.fsyncs", &[]);
    let before = fsyncs.get();
    let mut matrix = lin.matrix.clone();
    let records = w.wal_at_crash;
    // The layer store journals the first W unaudited deltas directly
    // on top of epoch 0.
    for step in &lin.steps[..records] {
        step.apply(&mut matrix);
        store
            .advance_with_registry(&matrix, &step.delta, &registry)
            .expect("advance");
    }
    out.push(
        "durability.fsyncs_per_delta",
        (fsyncs.get() - before) as f64 / records as f64,
    );
    out.push(
        "durability.wal_bytes_per_delta",
        (store.wal_bytes().expect("wal length") / records as u64) as f64,
    );
    drop(store);

    let open = bench(|| DurableStore::open(dir).expect("open"));
    let newest = checkpoint::scan(dir)
        .expect("scan checkpoints")
        .into_iter()
        .next()
        .expect("a checkpoint exists");
    let load = bench(|| checkpoint::load(&newest.path).expect("load checkpoint"));
    let wal_path = dir.join(WAL_FILE);
    let scan = bench(|| Wal::scan(&wal_path).expect("scan wal"));
    for ((o, l), s) in open.iter().zip(&load).zip(&scan) {
        out.push(
            "durability.replay_ms_per_record",
            (o - l - s) * 1e3 / records as f64,
        );
    }
    push_scaled(out, "durability.checkpoint_load_ms", load, 1e3);
    push_scaled(out, "durability.wal_scan_ms", scan, 1e3);

    let record = WalRecord::capture(0, 1, &lin.steps[0].delta, &matrix);
    let scratch_wal = dir.join("append-probe.log");
    let mut wal = Wal::open(&scratch_wal).expect("open scratch wal");
    measure(out, "durability.wal_append_us", 1e6, || {
        wal.append(&record).expect("append")
    });
    drop(wal);
    let _ = std::fs::remove_file(&scratch_wal);

    measure(out, "durability.encode_epoch_ms", 1e3, || {
        encode_epoch(&lin.reference)
    });
    let bytes = encode_epoch(&lin.reference);
    measure(out, "durability.decode_epoch_ms", 1e3, || {
        decode_epoch(&bytes).expect("decode epoch")
    });

    // eppi-serve boots from the same store: cold re-shards the head,
    // warm restores the persisted serving layout.
    let (store, _) = DurableStore::open(dir).expect("open");
    let config = serve_config(RowBackend::Dense);
    invalidate_serve_snapshot(dir).expect("drop serve cache");
    push_scaled(out, "serve.cold_boot_ms", boot_times(&store, config), 1e3);
    ServeEngine::from_store(&store, config)
        .persist_serve_cache(&store)
        .expect("persist serve cache");
    push_scaled(out, "serve.warm_boot_ms", boot_times(&store, config), 1e3);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// Seconds per `ServeEngine::from_store` (engine shutdown untimed).
fn boot_times(store: &DurableStore, config: ServeConfig) -> Vec<f64> {
    let boots = 8;
    (0..REPS)
        .map(|_| {
            let mut wall = Duration::ZERO;
            for _ in 0..boots {
                let started = Instant::now();
                let engine = ServeEngine::from_store(store, config);
                wall += started.elapsed();
                drop(engine);
            }
            wall.as_secs_f64() / boots as f64
        })
        .collect()
}

/// Closed-loop single-query throughput of `engine` over one slice.
fn slice_qps(engine: &ServeEngine, owners: &[OwnerId], slice: Duration) -> f64 {
    let client = engine.client();
    let mut stream = Stream::new(owners);
    let started = Instant::now();
    let mut done = 0u64;
    while started.elapsed() < slice {
        for _ in 0..32 {
            black_box(client.query(stream.next_owner()));
        }
        done += 32;
    }
    done as f64 / started.elapsed().as_secs_f64()
}

/// eppi-index, eppi-serve and eppi-pir on the served index.
fn serve_layers(
    w: &Workload,
    setup: &Setup,
    served: &PublishedIndex,
    owners: &[OwnerId],
    out: &mut Samples,
) {
    let backend = if w.paper {
        RowBackend::Compressed
    } else {
        RowBackend::Dense
    };
    let build = |backend| ShardedIndex::from_index_with(served, 1, backend, 0);
    measure(out, "serve.shard_build_ms", 1e3, || build(backend));
    let sharded = build(backend);
    let dense = build(RowBackend::Dense);
    let compressed = build(RowBackend::Compressed);
    out.push(
        "core.compress_ratio",
        dense.resident_bytes() as f64 / compressed.resident_bytes() as f64,
    );
    out.push(
        "serve.index_mb",
        sharded.resident_bytes() as f64 / (1 << 20) as f64,
    );
    let record = sharded.to_record();
    measure(out, "index.snapshot_encode_ms", 1e3, || {
        encode_serve_snapshot(&record)
    });
    let bytes = encode_serve_snapshot(&record);
    measure(out, "index.snapshot_decode_ms", 1e3, || {
        decode_serve_snapshot(&bytes).expect("decode snapshot")
    });

    let mut stream = Stream::new(owners);
    measure(out, "serve.direct_query_ns", 1e9, || {
        sharded.query(stream.next_owner())
    });
    let mut stream = Stream::new(owners);
    measure(
        out,
        "serve.direct_batch_ns_per_owner",
        1e9 / BATCH as f64,
        || sharded.query_batch(stream.next_batch()),
    );

    // Install alone: flip the lineage delta's cell pattern into the
    // served matrix and alternate the two indexes, so every install is
    // a real `width`-column copy-on-write.
    let mut flipped = served.matrix().clone();
    let touched: Vec<OwnerId> = (0..w.width)
        .map(|j| OwnerId((j * served.matrix().owners() / w.width) as u32))
        .collect();
    for &o in &touched {
        for p in 0..3u32 {
            flipped.set(ProviderId(p), o, !flipped.get(ProviderId(p), o));
        }
    }
    let other = PublishedIndex::new(flipped, served.betas().to_vec());
    let config = serve_config(backend);
    let engine = ServeEngine::start_with_registry(served, config, &Registry::new());
    let mut odd = false;
    measure(out, "serve.install_ms", 1e3, || {
        odd = !odd;
        engine
            .apply_delta(if odd { &other } else { served }, &touched)
            .expect("install")
    });
    drop(engine);

    // Telemetry off vs on, alternating, on otherwise identical engines.
    let on = ServeEngine::start_with_registry(served, config, &Registry::new());
    let off = ServeEngine::start_with_registry(
        served,
        ServeConfig {
            telemetry: false,
            ..config
        },
        &Registry::new(),
    );
    let (mut qps_on, mut qps_off) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        qps_off.push(slice_qps(&off, owners, w.slice));
        qps_on.push(slice_qps(&on, owners, w.slice));
    }
    drop(off);
    let (on_med, off_med) = (quartiles(&qps_on)[1], quartiles(&qps_off)[1]);
    out.push(
        "telemetry.overhead_pct",
        (off_med - on_med) / off_med * 100.0,
    );
    // What a query costs beyond the row read: the client/worker
    // hand-off (pure closed loop, also on `churn`).
    let direct_ns = out.median("serve.direct_query_ns").expect("measured above");
    out.push("serve.handoff_us", 1e6 / on_med - direct_ns / 1e3);

    // Latency tails (informational): closed loop, then an open loop
    // sending at a fixed rate and timing from the due time.
    let client = on.client();
    let mut stream = Stream::new(owners);
    let mut latencies = Vec::new();
    let started = Instant::now();
    while started.elapsed() < w.slice {
        let sent = Instant::now();
        black_box(client.query(stream.next_owner()));
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    latencies.sort_by(f64::total_cmp);
    out.push("serve.query_p50_us", percentile(&latencies, 0.50));
    out.push("serve.query_p99_us", percentile(&latencies, 0.99));
    let gap = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let (mut latencies, mut late) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut due = Duration::ZERO;
    while due < w.slice {
        while started.elapsed() < due {
            std::hint::spin_loop();
        }
        late.push((started.elapsed() - due).as_secs_f64() * 1e6);
        black_box(client.query(stream.next_owner()));
        latencies.push((started.elapsed() - due).as_secs_f64() * 1e6);
        due += gap;
    }
    latencies.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    out.push("serve.open20k_p50_us", percentile(&latencies, 0.50));
    out.push("serve.open20k_p99_us", percentile(&latencies, 0.99));
    out.push("serve.open20k_late_us", percentile(&late, 0.99));
    drop(client);
    drop(on);

    // eppi-pir: vector generation and the scan kernels over the dense
    // rows of one replica, then exact scan volumes from a private
    // engine reporting into its own registry.
    let rows = served.matrix().owners();
    let mut rng = StdRng::seed_from_u64(setup.lineage.proto.seed ^ 0x9142);
    let mut stream = Stream::new(owners);
    measure(out, "pir.generate_us", 1e6, || {
        QueryPair::generate(rows, stream.next_owner().index(), &mut rng)
    });
    let dense_record = dense.to_record();
    let shard = &dense_record.shards[0];
    let ShardRowsRecord::Dense(words) = &shard.rows else {
        panic!("dense layout holds dense rows");
    };
    let row_ids: Vec<OwnerId> = shard.owners.iter().map(|&o| OwnerId(o)).collect();
    let wpr = dense.words_per_row();
    let query = SelectionVector::random(rows, &mut rng);
    let mut acc = vec![0u64; wpr];
    measure(
        out,
        "pir.scan_ns_per_word",
        1e9 / words.len() as f64,
        || xor_scan_indexed(words, wpr, &row_ids, &query, &mut acc),
    );
    let queries: Vec<SelectionVector> = (0..BATCH)
        .map(|_| SelectionVector::random(rows, &mut rng))
        .collect();
    let mut accs = vec![vec![0u64; wpr]; BATCH];
    measure(
        out,
        "pir.scan_batch_ns_per_word",
        1e9 / words.len() as f64,
        || xor_scan_indexed_batch(words, wpr, &row_ids, &queries, &mut accs),
    );
    let private = PrivateEngine::start_with_registry(
        served,
        serve_config(RowBackend::Dense),
        &Registry::new(),
    );
    let mut client = private.client(setup.lineage.proto.seed);
    let stats = private.stats();
    let before = stats.pir_scanned_words();
    black_box(client.query(owners[0]));
    let single = stats.pir_scanned_words() - before;
    black_box(client.query_batch(&owners[..BATCH]));
    let batched = stats.pir_scanned_words() - before - single;
    out.push("pir.words_per_query", single as f64);
    out.push(
        "pir.words_per_batched_query",
        (batched / BATCH as u64) as f64,
    );
    out.push("pir.version_retries", stats.pir_version_retries() as f64);
}

/// Private serving on every CPU the host offers (the caller lifts the
/// pin): the two replicas' workers and the client go wherever the
/// scheduler puts them, so the replicas may scan in parallel. The
/// pinned `private_qps` cannot show that, so a change that serializes
/// (or parallelizes) the replicas moves this figure instead.
fn unpinned_private(
    w: &Workload,
    setup: &Setup,
    served: &PublishedIndex,
    owners: &[OwnerId],
    out: &mut Samples,
) {
    let private = PrivateEngine::start_with_registry(
        served,
        serve_config(RowBackend::Dense),
        &Registry::new(),
    );
    let mut client = private.client(setup.lineage.proto.seed);
    let mut stream = Stream::new(owners);
    for _ in 0..REPS {
        let started = Instant::now();
        let mut done = 0u64;
        while started.elapsed() < w.slice {
            black_box(client.query(stream.next_owner()));
            done += 1;
        }
        out.push(
            "unpinned.private_qps",
            done as f64 / started.elapsed().as_secs_f64(),
        );
    }
}

/// Runs every direct-call measurement of the per-layer table.
pub fn measure_layers(w: &Workload, setup: &Setup, dir: &Path, out: &mut Samples) {
    let (served, owners) = match &setup.paper {
        Some(paper) => (&paper.index, paper.stream.as_slice()),
        None => (
            setup.lineage.reference.index(),
            setup.lineage.stream.as_slice(),
        ),
    };
    mpc_layers(w, setup, out);
    core_and_audit_layers(w, setup, served, out);
    durability_layers(w, setup, dir, out);
    serve_layers(w, setup, served, owners, out);
    on_all_cpus(|| unpinned_private(w, setup, served, owners, out));

    // Derived: what a private query costs beyond generation and the
    // two replicas' scans (serial here: the run is pinned to one CPU).
    let median = |name: &str| out.median(name).expect("metric measured above");
    let private_handoff = 1e6 / median("harness.private_qps")
        - median("pir.generate_us")
        - median("pir.scan_ns_per_word") * median("pir.words_per_query") / 1e3;
    out.push("serve.private_handoff_us", private_handoff);
}
