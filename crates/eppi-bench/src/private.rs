//! Private-vs-plaintext serve benchmark: what does oblivious
//! (2-server XOR-PIR) `QueryPPI` cost, and how much does batching buy
//! back?
//!
//! Four passes against one [`PrivateEngine`] (its replica A doubles as
//! the plaintext engine, so both modes run on identical worker pools
//! and the same sharded snapshot):
//!
//! * `plaintext_single` / `plaintext_batch` — the ordinary serve path,
//!   the baseline the privacy overhead is measured against.
//! * `private_single` — one XOR-PIR query pair per lookup: every query
//!   pays a full oblivious pass over the packed rows on each replica.
//! * `private_batch` — [`eppi_serve::PrivateClient::query_batch`]: one
//!   oblivious pass per replica serves the whole batch (row-outer,
//!   query-inner), the amortization Peer2PIR-style batching is built
//!   for.
//!
//! Every pass cross-checks a sample of its answers against the plain
//! [`PpiServer`] in-run (`answers_checked` / `mismatches` in the JSON),
//! so the report is also an end-to-end equivalence witness — CI asserts
//! `mismatches == 0` structurally instead of trusting wall-clock
//! numbers. The `amortization` section compares scanned words and qps
//! between the two private passes; scan volume comes from the engine's
//! `pir.scanned_words` counter, which moves identically whatever owners
//! the queries target.

use crate::report::Table;
use crate::serve::LatencySummary;
use eppi_core::model::{MembershipMatrix, OwnerId, PublishedIndex};
use eppi_index::server::PpiServer;
use eppi_serve::{default_shards, PrivateEngine, ServeConfig};
use eppi_telemetry::json::JsonValue;
use eppi_telemetry::{Registry, Snapshot};
use eppi_workload::presets::Preset;
use eppi_workload::queries::QueryWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Cross-check every Nth operation's answers against the plain server.
const CHECK_EVERY: usize = 16;

/// Configuration of one private-serve benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateLoadConfig {
    /// Network scale (providers/owners and membership skew).
    pub preset: Preset,
    /// Zipf popularity exponent of the query stream.
    pub skew: f64,
    /// Engine shards (= worker threads *per replica*).
    pub shards: usize,
    /// Bounded queue depth per shard.
    pub queue_depth: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Plaintext queries per client (single-shot pass; the batch pass
    /// issues the same total in batches).
    pub plaintext_ops_per_client: usize,
    /// Private queries per client (single-shot pass; each one is a
    /// full oblivious scan on both replicas, so this is much smaller).
    pub private_ops_per_client: usize,
    /// Queries per batched request in both batch passes.
    pub batch_size: usize,
    /// Engine-side per-query instrumentation.
    pub telemetry: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl PrivateLoadConfig {
    /// Paper-scale run: the experiments' default network (10,000
    /// providers, 20,000 owners) under skewed traffic.
    pub fn paper() -> Self {
        let shards = default_shards();
        PrivateLoadConfig {
            preset: Preset::Default,
            skew: 1.0,
            shards,
            queue_depth: 256,
            clients: 4,
            plaintext_ops_per_client: 20_000,
            private_ops_per_client: 64,
            batch_size: 64,
            telemetry: true,
            seed: 0x9e1a7e,
        }
    }

    /// Scaled-down smoke run for tests and `EPPI_SCALE=quick`.
    pub fn quick() -> Self {
        PrivateLoadConfig {
            preset: Preset::Mini,
            skew: 1.0,
            shards: 2,
            queue_depth: 64,
            clients: 2,
            plaintext_ops_per_client: 500,
            private_ops_per_client: 32,
            batch_size: 16,
            telemetry: true,
            seed: 0x9e1a7e,
        }
    }
}

/// Throughput + latency + scan volume of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateLoadResult {
    /// Pass name (`plaintext_single`, `plaintext_batch`,
    /// `private_single`, `private_batch`).
    pub mode: String,
    /// Queries completed.
    pub ops: u64,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
    /// Completed queries per second.
    pub qps: f64,
    /// Per-request latency percentiles (a batch is one request).
    pub latency: LatencySummary,
    /// `u64` words obliviously scanned during the pass (both replicas;
    /// 0 for the plaintext passes).
    pub scanned_words: u64,
    /// Scanned words per completed query — the amortization lever.
    pub words_per_query: f64,
}

/// The batching story in one block: private single vs private batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Amortization {
    /// Oblivious words scanned per single-shot private query.
    pub single_words_per_query: f64,
    /// Oblivious words scanned per batched private query.
    pub batch_words_per_query: f64,
    /// `single / batch` scan-volume ratio (≈ batch size until the
    /// vector set outgrows cache).
    pub scan_ratio: f64,
    /// `batch qps / single qps`.
    pub qps_gain: f64,
}

/// Everything one invocation produces (feeds both table and JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateLoadReport {
    /// The configuration that ran.
    pub config: PrivateLoadConfig,
    /// Providers in the served index.
    pub providers: usize,
    /// Owners in the served index.
    pub owners: usize,
    /// Packed words per provider row.
    pub words_per_row: usize,
    /// One entry per pass.
    pub passes: Vec<PrivateLoadResult>,
    /// The private-batching amortization summary.
    pub amortization: Amortization,
    /// Answers cross-checked against the plain server in-run.
    pub answers_checked: u64,
    /// Cross-checked answers that disagreed (must be 0).
    pub mismatches: u64,
    /// The run's full metric snapshot (`load.*`, `serve.*`, `pir.*`).
    pub telemetry: Snapshot,
}

fn build_index(config: &PrivateLoadConfig) -> PublishedIndex {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let matrix: MembershipMatrix = config.preset.build(&mut rng);
    let betas = vec![0.1; matrix.owners()];
    PublishedIndex::new(matrix, betas)
}

/// Runs one traced private query against a fresh engine and returns
/// its Chrome `trace_event` JSON (the `--trace-out` exemplar of
/// `bench_private`): client submit → PIR pair generation → both
/// replicas' scatter / per-shard scan / gather → recombine, one span
/// each (DESIGN.md §13).
pub fn one_query_chrome_trace(config: &PrivateLoadConfig) -> String {
    use eppi_trace::{chrome, Obs, TraceConfig, Tracer};

    let registry = Registry::new();
    let index = build_index(config);
    let tracer = Tracer::new(TraceConfig::default());
    let engine = PrivateEngine::start_with_registry(
        &index,
        ServeConfig {
            shards: config.shards,
            queue_depth: config.queue_depth,
            telemetry: config.telemetry,
            backend: eppi_core::rowstore::RowBackend::Dense,
        },
        Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        },
    );
    let mut client = engine.client(config.seed ^ 0x7bace);
    let _ = client.query(OwnerId(0));
    engine.shutdown();
    chrome::to_chrome_string(&tracer.collect())
}

/// Runs the four passes and assembles the report.
pub fn run(config: &PrivateLoadConfig) -> PrivateLoadReport {
    let registry = Registry::new();
    let index = build_index(config);
    let (providers, owners) = (index.matrix().providers(), index.matrix().owners());
    let engine = PrivateEngine::start_with_registry(
        &index,
        ServeConfig {
            shards: config.shards,
            queue_depth: config.queue_depth,
            telemetry: config.telemetry,
            backend: eppi_core::rowstore::RowBackend::Dense,
        },
        &registry,
    );
    let words_per_row = engine.replica_a().current().words_per_row();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xabcd);
    let workload = QueryWorkload::new(owners, config.skew, &mut rng);
    let oracle = PpiServer::new(index.clone());

    let passes = vec![
        run_pass(
            &engine,
            &workload,
            &oracle,
            config,
            &registry,
            Mode::PlainSingle,
        ),
        run_pass(
            &engine,
            &workload,
            &oracle,
            config,
            &registry,
            Mode::PlainBatch,
        ),
        run_pass(
            &engine,
            &workload,
            &oracle,
            config,
            &registry,
            Mode::PrivateSingle,
        ),
        run_pass(
            &engine,
            &workload,
            &oracle,
            config,
            &registry,
            Mode::PrivateBatch,
        ),
    ];
    engine.shutdown();

    let per_query = |mode: &str| {
        passes
            .iter()
            .find(|p| p.mode == mode)
            .map_or(0.0, |p| p.words_per_query)
    };
    let qps = |mode: &str| {
        passes
            .iter()
            .find(|p| p.mode == mode)
            .map_or(0.0, |p| p.qps)
    };
    let single_words = per_query("private_single");
    let batch_words = per_query("private_batch");
    let amortization = Amortization {
        single_words_per_query: single_words,
        batch_words_per_query: batch_words,
        scan_ratio: if batch_words > 0.0 {
            single_words / batch_words
        } else {
            0.0
        },
        qps_gain: if qps("private_single") > 0.0 {
            qps("private_batch") / qps("private_single")
        } else {
            0.0
        },
    };
    PrivateLoadReport {
        config: config.clone(),
        providers,
        owners,
        words_per_row,
        passes,
        amortization,
        answers_checked: registry.counter("load.answers_checked", &[]).get(),
        mismatches: registry.counter("load.mismatches", &[]).get(),
        telemetry: registry.snapshot(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    PlainSingle,
    PlainBatch,
    PrivateSingle,
    PrivateBatch,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::PlainSingle => "plaintext_single",
            Mode::PlainBatch => "plaintext_batch",
            Mode::PrivateSingle => "private_single",
            Mode::PrivateBatch => "private_batch",
        }
    }

    fn is_private(self) -> bool {
        matches!(self, Mode::PrivateSingle | Mode::PrivateBatch)
    }
}

fn run_pass(
    engine: &PrivateEngine,
    workload: &QueryWorkload,
    oracle: &PpiServer,
    config: &PrivateLoadConfig,
    registry: &Registry,
    mode: Mode,
) -> PrivateLoadResult {
    let name = mode.name();
    let ops_per_client = if mode.is_private() {
        config.private_ops_per_client
    } else {
        config.plaintext_ops_per_client
    };
    let batch = match mode {
        Mode::PlainBatch | Mode::PrivateBatch => config.batch_size.max(1),
        _ => 1,
    };
    let ops_counter = registry.counter("load.ops", &[("pass", name)]);
    let checked = registry.counter("load.answers_checked", &[]);
    let mismatches = registry.counter("load.mismatches", &[]);
    let words_before = engine.stats().pir_scanned_words();
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..config.clients {
            let mut lat = registry.recorder("load.latency_ns", &[("pass", name)]);
            let (ops_counter, checked, mismatches) = (&ops_counter, &checked, &mismatches);
            let plain = engine.replica_a().client();
            let mut private = engine.client(config.seed ^ (0xc11e00 + t as u64));
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config.seed + 1 + t as u64);
                let mut done = 0usize;
                let mut requests = 0usize;
                while done < ops_per_client {
                    let owners: Vec<OwnerId> = workload.batch(batch, &mut rng);
                    let at = Instant::now();
                    let answers = match (mode.is_private(), batch) {
                        (false, 1) => vec![plain.query(owners[0])],
                        (false, _) => plain.query_batch(&owners),
                        (true, 1) => vec![private.query(owners[0])],
                        (true, _) => private.query_batch(&owners),
                    };
                    lat.record(at.elapsed().as_nanos() as u64);
                    done += batch;
                    requests += 1;
                    ops_counter.add(batch as u64);
                    // Sampled in-run equivalence check against the
                    // unsharded oracle.
                    if requests.is_multiple_of(CHECK_EVERY) {
                        for (&o, row) in owners.iter().zip(&answers) {
                            checked.inc();
                            if row != &oracle.query(o) {
                                mismatches.inc();
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let ops = ops_counter.get();
    let scanned_words = engine.stats().pir_scanned_words() - words_before;
    let digest = registry
        .histogram("load.latency_ns", &[("pass", name)])
        .summary();
    PrivateLoadResult {
        mode: name.to_string(),
        ops,
        elapsed,
        qps: ops as f64 / elapsed.as_secs_f64(),
        latency: LatencySummary::from_histogram(&digest),
        scanned_words,
        words_per_query: if ops > 0 {
            scanned_words as f64 / ops as f64
        } else {
            0.0
        },
    }
}

/// Renders the report as the harness's usual aligned table.
pub fn to_table(report: &PrivateLoadReport) -> Table {
    let mut table = Table::new(
        format!(
            "eppi private serve — {} providers, {} owners ({} words/row), {} shards/replica",
            report.providers, report.owners, report.words_per_row, report.config.shards
        ),
        ["mode", "ops", "qps", "p50 us", "p99 us", "words/query"]
            .map(String::from)
            .to_vec(),
    );
    for pass in &report.passes {
        table.push_row(vec![
            pass.mode.clone(),
            pass.ops.to_string(),
            format!("{:.0}", pass.qps),
            format!("{:.1}", pass.latency.p50_us),
            format!("{:.1}", pass.latency.p99_us),
            format!("{:.0}", pass.words_per_query),
        ]);
    }
    table.push_row(vec![
        "amortization".into(),
        format!("checked {}", report.answers_checked),
        format!("mismatches {}", report.mismatches),
        format!("scan x{:.1}", report.amortization.scan_ratio),
        format!("qps x{:.1}", report.amortization.qps_gain),
        String::new(),
    ]);
    table
}

/// Serializes the report to the `BENCH_private.json` schema, including
/// the full `telemetry` snapshot section.
pub fn to_json(report: &PrivateLoadReport, scale: &str) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |p| p.get());
    let passes = report
        .passes
        .iter()
        .map(|pass| {
            JsonValue::Object(vec![
                ("mode".into(), JsonValue::Str(pass.mode.clone())),
                ("ops".into(), JsonValue::UInt(pass.ops)),
                (
                    "elapsed_ms".into(),
                    JsonValue::Float(pass.elapsed.as_secs_f64() * 1e3),
                ),
                ("qps".into(), JsonValue::Float(pass.qps)),
                (
                    "latency_us".into(),
                    JsonValue::Object(vec![
                        ("p50".into(), JsonValue::Float(pass.latency.p50_us)),
                        ("p95".into(), JsonValue::Float(pass.latency.p95_us)),
                        ("p99".into(), JsonValue::Float(pass.latency.p99_us)),
                        ("max".into(), JsonValue::Float(pass.latency.max_us)),
                    ]),
                ),
                ("scanned_words".into(), JsonValue::UInt(pass.scanned_words)),
                (
                    "words_per_query".into(),
                    JsonValue::Float(pass.words_per_query),
                ),
            ])
        })
        .collect();
    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::Str("private_serve".into())),
        ("scale".into(), JsonValue::Str(scale.into())),
        (
            "machine".into(),
            JsonValue::Object(vec![
                ("os".into(), JsonValue::Str(std::env::consts::OS.into())),
                ("arch".into(), JsonValue::Str(std::env::consts::ARCH.into())),
                ("hardware_threads".into(), JsonValue::UInt(threads as u64)),
            ]),
        ),
        (
            "config".into(),
            JsonValue::Object(vec![
                ("providers".into(), JsonValue::UInt(report.providers as u64)),
                ("owners".into(), JsonValue::UInt(report.owners as u64)),
                (
                    "words_per_row".into(),
                    JsonValue::UInt(report.words_per_row as u64),
                ),
                (
                    "shards".into(),
                    JsonValue::UInt(report.config.shards as u64),
                ),
                (
                    "clients".into(),
                    JsonValue::UInt(report.config.clients as u64),
                ),
                (
                    "batch_size".into(),
                    JsonValue::UInt(report.config.batch_size as u64),
                ),
                ("zipf_s".into(), JsonValue::Float(report.config.skew)),
                ("telemetry".into(), JsonValue::Bool(report.config.telemetry)),
                ("seed".into(), JsonValue::UInt(report.config.seed)),
            ]),
        ),
        ("passes".into(), JsonValue::Array(passes)),
        (
            "amortization".into(),
            JsonValue::Object(vec![
                (
                    "single_words_per_query".into(),
                    JsonValue::Float(report.amortization.single_words_per_query),
                ),
                (
                    "batch_words_per_query".into(),
                    JsonValue::Float(report.amortization.batch_words_per_query),
                ),
                (
                    "scan_ratio".into(),
                    JsonValue::Float(report.amortization.scan_ratio),
                ),
                (
                    "qps_gain".into(),
                    JsonValue::Float(report.amortization.qps_gain),
                ),
            ]),
        ),
        (
            "equivalence".into(),
            JsonValue::Object(vec![
                (
                    "answers_checked".into(),
                    JsonValue::UInt(report.answers_checked),
                ),
                ("mismatches".into(), JsonValue::UInt(report.mismatches)),
            ]),
        ),
        ("telemetry".into(), report.telemetry.to_json_value()),
    ]);
    let mut out = doc.to_pretty();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_telemetry::MetricValue;

    #[test]
    fn one_query_trace_exports_full_private_path() {
        let config = PrivateLoadConfig::quick();
        let text = one_query_chrome_trace(&config);
        let doc = JsonValue::parse(&text).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        let count = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
                .count()
        };
        assert_eq!(count("private.query"), 1);
        assert_eq!(count("pir.scatter"), 2);
        assert_eq!(count("pir.scan"), 2 * config.shards);
        assert_eq!(count("pir.recombine"), 1);
    }

    #[test]
    fn quick_run_is_equivalent_and_amortizes() {
        let mut config = PrivateLoadConfig::quick();
        config.plaintext_ops_per_client = 200;
        config.private_ops_per_client = 32;
        let report = run(&config);
        assert_eq!(report.passes.len(), 4);
        for pass in &report.passes {
            assert!(pass.ops > 0, "{} did no work", pass.mode);
            assert!(pass.qps > 0.0);
        }
        // The in-run cross-checks all agreed with the plain server.
        assert!(report.answers_checked > 0);
        assert_eq!(report.mismatches, 0);
        // Plaintext passes scan no PIR words; private ones scan the
        // whole database per pass, and batching cuts words/query by
        // roughly the batch size.
        assert_eq!(report.passes[0].scanned_words, 0);
        assert_eq!(report.passes[1].scanned_words, 0);
        let single = report.amortization.single_words_per_query;
        let batch = report.amortization.batch_words_per_query;
        assert!(single > 0.0 && batch > 0.0);
        assert!(
            report.amortization.scan_ratio > config.batch_size as f64 * 0.8,
            "batching did not amortize the scan: ratio {}",
            report.amortization.scan_ratio
        );
        // Each single private query scans the database once per replica.
        let db_words = (report.owners * report.words_per_row) as f64;
        assert!(
            (single - 2.0 * db_words).abs() < 1e-6,
            "single scan volume {single} != 2x database {db_words}"
        );
    }

    #[test]
    fn emitted_json_is_well_formed() {
        let mut config = PrivateLoadConfig::quick();
        config.plaintext_ops_per_client = 100;
        config.private_ops_per_client = 16;
        let report = run(&config);
        let json = to_json(&report, "quick");
        let doc = JsonValue::parse(&json).expect("BENCH_private.json must parse");
        for key in [
            "bench",
            "scale",
            "machine",
            "config",
            "passes",
            "amortization",
            "equivalence",
            "telemetry",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        let snap = Snapshot::from_json_value(doc.get("telemetry").unwrap())
            .expect("telemetry round-trips");
        assert_eq!(snap, report.telemetry);
        // The pir.* counters made it into the snapshot and moved.
        for name in ["pir.scans", "pir.queries", "pir.scanned_words"] {
            match &snap.expect(name, &[]).unwrap().value {
                MetricValue::Counter(v) => assert!(*v > 0, "{name} never moved"),
                other => panic!("unexpected metric {other:?}"),
            }
        }
        let table = to_table(&report).to_string();
        assert!(table.contains("private_batch"));
    }
}
