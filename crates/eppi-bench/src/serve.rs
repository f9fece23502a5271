//! Load-test harness for the `eppi-serve` front-end.
//!
//! Drives a [`ServeEngine`] with Zipf-skewed `QueryPPI` traffic (the
//! same popularity model as the workload crate's query streams) in two
//! standard modes:
//!
//! * **closed loop** — each client thread issues its next query the
//!   moment the previous one completes; measures peak sustainable
//!   throughput and in-service latency.
//! * **open loop** — arrivals are scheduled at a fixed target rate
//!   regardless of completions; latency is measured from the *scheduled*
//!   arrival, so queueing delay under overload is visible (closed-loop
//!   numbers hide it — coordinated omission).
//!
//! Measurement runs through `eppi-telemetry`: every run owns a fresh
//! [`Registry`]; client threads record request latency through
//! per-thread recorders into the `load.latency_ns{pass}` histogram
//! family, the engine reports its own `serve.*` families into the same
//! registry, and a small [`construct_distributed_with_registry`] probe
//! contributes per-phase construction timings. The whole snapshot is
//! embedded as the `telemetry` section of `results/BENCH_serve.json`
//! (override the path with `EPPI_SERVE_OUT`); reported percentiles are
//! read back from the shared histograms, so the JSON's `passes` and
//! `telemetry` sections can never disagree.
//!
//! Setting [`ServeLoadConfig::telemetry`] to `false` (the
//! `EPPI_TELEMETRY=off` knob of the `serve_load` binary) disables the
//! engine-side per-query instrumentation while keeping the harness's
//! own measurements, which is how the read-path overhead is measured
//! (DESIGN.md §8).

use crate::report::Table;
use eppi_core::model::{Epsilon, MembershipMatrix, PublishedIndex};
use eppi_core::rowstore::RowBackend;
use eppi_protocol::construct::{construct_distributed_with_registry, ProtocolConfig};
use eppi_serve::{default_shards, ServeConfig, ServeEngine};
use eppi_telemetry::json::JsonValue;
use eppi_telemetry::{HistogramSummary, Registry, Snapshot};
use eppi_trace::{Obs, TraceConfig, TraceLog, Tracer};
use eppi_workload::presets::Preset;
use eppi_workload::queries::QueryWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Configuration of one serve load run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLoadConfig {
    /// Network scale (providers/owners and membership skew).
    pub preset: Preset,
    /// Zipf popularity exponent of the query stream.
    pub skew: f64,
    /// Engine shards (= worker threads).
    pub shards: usize,
    /// Bounded queue depth per shard.
    pub queue_depth: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Closed-loop queries per client.
    pub ops_per_client: usize,
    /// Queries per batched request in the batch pass.
    pub batch_size: usize,
    /// Open-loop target rate (total queries/second).
    pub open_target_qps: f64,
    /// Open-loop run length.
    pub open_duration: Duration,
    /// Engine-side per-query instrumentation (`false` = overhead
    /// baseline; harness-side measurement stays on).
    pub telemetry: bool,
    /// Physical row-storage backend of the served snapshot.
    pub backend: RowBackend,
    /// Base RNG seed.
    pub seed: u64,
}

impl ServeLoadConfig {
    /// Paper-scale run: the experiments' default network (10,000
    /// providers, 20,000 owners) under skewed traffic.
    pub fn paper() -> Self {
        let shards = default_shards();
        ServeLoadConfig {
            preset: Preset::Default,
            skew: 1.0,
            shards,
            queue_depth: 1024,
            clients: 2 * shards,
            ops_per_client: 20_000,
            batch_size: 64,
            open_target_qps: 50_000.0,
            open_duration: Duration::from_secs(2),
            telemetry: true,
            backend: RowBackend::Dense,
            seed: 0x5e12e,
        }
    }

    /// Scaled-down smoke run for tests and `EPPI_SCALE=quick`.
    pub fn quick() -> Self {
        ServeLoadConfig {
            preset: Preset::Mini,
            skew: 1.0,
            shards: 2,
            queue_depth: 64,
            clients: 4,
            ops_per_client: 1_000,
            batch_size: 16,
            open_target_qps: 5_000.0,
            open_duration: Duration::from_millis(200),
            telemetry: true,
            backend: RowBackend::Dense,
            seed: 0x5e12e,
        }
    }
}

/// Latency percentiles in microseconds, from one run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes raw nanosecond samples (sorted internally). Exact;
    /// used by tests as the ground truth the histogram path must match
    /// within its documented error bound.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_nanos(mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "no latency samples recorded");
        samples.sort_unstable();
        let pick = |q: f64| {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1] as f64 / 1e3
        };
        LatencySummary {
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            max_us: *samples.last().unwrap() as f64 / 1e3,
        }
    }

    /// Reads the percentiles from a telemetry histogram digest
    /// (nanosecond domain), as published in the run's snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn from_histogram(digest: &HistogramSummary) -> Self {
        assert!(digest.count > 0, "no latency samples recorded");
        LatencySummary {
            p50_us: digest.p50 as f64 / 1e3,
            p95_us: digest.p95 as f64 / 1e3,
            p99_us: digest.p99 as f64 / 1e3,
            max_us: digest.max as f64 / 1e3,
        }
    }
}

/// Throughput + latency of one load pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadResult {
    /// Pass name (`closed_loop`, `closed_loop_batch`, `open_loop`).
    pub mode: String,
    /// Queries completed.
    pub ops: u64,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
    /// Completed queries per second.
    pub qps: f64,
    /// Latency percentiles (from the pass's shared histogram).
    pub latency: LatencySummary,
}

/// Traced-vs-untraced closed-loop comparison (DESIGN.md §13): the same
/// closed-loop pass against a fresh engine without a tracer and against
/// one with every request under an `eppi-trace` span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOverhead {
    /// Closed-loop pass with tracing off.
    pub untraced: LoadResult,
    /// The same pass with every request traced.
    pub traced: LoadResult,
    /// Throughput lost to tracing, in percent of the untraced qps
    /// (negative when the traced pass happened to run faster).
    pub overhead_pct: f64,
    /// Span/instant events surviving in the rings after the traced pass.
    pub events: u64,
    /// Events overwritten by ring overflow during the traced pass.
    pub dropped: u64,
}

/// Everything one invocation produces (feeds both table and JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLoadReport {
    /// The configuration that ran.
    pub config: ServeLoadConfig,
    /// Providers in the served index.
    pub providers: usize,
    /// Owners in the served index.
    pub owners: usize,
    /// One entry per pass.
    pub passes: Vec<LoadResult>,
    /// The run's full metric snapshot: the harness's `load.*` families,
    /// the engine's `serve.*` families, and the construction probe's
    /// `construct.*`/`secsum.*` families.
    pub telemetry: Snapshot,
    /// Traced-vs-untraced overhead comparison, when measured (the
    /// `serve_load` binary always measures it; [`run`] leaves it out).
    pub trace: Option<TraceOverhead>,
    /// Backend-vs-owner-scale sweep, when measured (the `serve_load`
    /// binary runs it; [`run`] leaves it out).
    pub scale: Option<crate::scale::ScaleReport>,
}

fn build_index(config: &ServeLoadConfig) -> PublishedIndex {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let matrix: MembershipMatrix = config.preset.build(&mut rng);
    let betas = vec![0.1; matrix.owners()];
    PublishedIndex::new(matrix, betas)
}

/// A modest fixed-size distributed construction, so every serve report
/// also carries per-phase construction timings (the paper's Fig. 6
/// breakdown) in its telemetry section. Deliberately independent of the
/// load preset: the probe measures protocol phases, not serve scale.
fn construction_probe(registry: &Registry, seed: u64) {
    let providers = 120;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    let mut matrix = MembershipMatrix::new(providers, 24);
    for owner in matrix.owner_ids() {
        let freq = rng.gen_range(1..providers);
        for p in 0..freq {
            matrix.set(eppi_core::model::ProviderId(p as u32), owner, true);
        }
    }
    let epsilons = vec![Epsilon::new(0.5).expect("valid epsilon"); 24];
    let config = ProtocolConfig {
        seed,
        ..ProtocolConfig::default()
    };
    construct_distributed_with_registry(&matrix, &epsilons, &config, registry)
        .expect("construction probe");
}

/// Runs all three passes against a freshly built engine, plus one
/// snapshot refresh and the construction probe, and captures the run's
/// whole telemetry snapshot.
pub fn run(config: &ServeLoadConfig) -> ServeLoadReport {
    let registry = Registry::new();
    let index = build_index(config);
    let (providers, owners) = (index.matrix().providers(), index.matrix().owners());
    let engine = ServeEngine::start_with_registry(
        &index,
        ServeConfig {
            shards: config.shards,
            queue_depth: config.queue_depth,
            telemetry: config.telemetry,
            backend: config.backend,
        },
        &registry,
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xabcd);
    let workload = QueryWorkload::new(owners, config.skew, &mut rng);

    let passes = vec![
        closed_loop(&engine, &workload, config, 1, &registry),
        closed_loop(
            &engine,
            &workload,
            config,
            config.batch_size.max(1),
            &registry,
        ),
        open_loop(&engine, &workload, config, &registry),
    ];
    // One re-publication so the snapshot covers the refresh path
    // (`serve.refreshes`, `serve.install_lag_ns`).
    engine.refresh(&index);
    construction_probe(&registry, config.seed);
    engine.shutdown();
    ServeLoadReport {
        config: config.clone(),
        providers,
        owners,
        passes,
        telemetry: registry.snapshot(),
        trace: None,
        scale: None,
    }
}

/// Measures the closed-loop cost of tracing: the same closed-loop
/// pass against an untraced engine and against an engine whose every
/// request runs under an `eppi-trace` span, on one index and workload.
/// Returns the comparison plus the last traced pass's collected
/// [`TraceLog`], so callers can export it (`--trace-out`).
///
/// Machine noise between two single passes routinely reaches the same
/// magnitude as the tracing cost itself, so this runs
/// [`TRACE_OVERHEAD_ROUNDS`] interleaved untraced/traced pairs and
/// compares the best pass of each mode: peak throughput is far more
/// stable than any individual pass.
pub fn trace_overhead(config: &ServeLoadConfig) -> (TraceOverhead, TraceLog) {
    // A quick-scale pass lasts ~10 ms — too short for a stable qps
    // reading — so the overhead passes run at least 5000 ops/client.
    let mut config = config.clone();
    config.ops_per_client = config.ops_per_client.max(5_000);
    let config = &config;
    let index = build_index(config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xabcd);
    let workload = QueryWorkload::new(index.matrix().owners(), config.skew, &mut rng);
    let serve_config = ServeConfig {
        shards: config.shards,
        queue_depth: config.queue_depth,
        telemetry: config.telemetry,
        backend: config.backend,
    };

    let mut untraced: Option<LoadResult> = None;
    let mut traced: Option<LoadResult> = None;
    let mut last_tracer = Tracer::disabled();
    for _ in 0..TRACE_OVERHEAD_ROUNDS {
        let registry = Registry::new();
        let engine = ServeEngine::start_with_registry(&index, serve_config, &registry);
        let mut pass = closed_loop(&engine, &workload, config, 1, &registry);
        engine.shutdown();
        pass.mode = "closed_loop_untraced".into();
        if untraced.as_ref().is_none_or(|best| pass.qps > best.qps) {
            untraced = Some(pass);
        }

        let registry = Registry::new();
        let tracer = Tracer::new(TraceConfig::default());
        let obs = Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        };
        let engine = ServeEngine::start_with_registry(&index, serve_config, obs);
        let mut pass = closed_loop(&engine, &workload, config, 1, &registry);
        engine.shutdown();
        pass.mode = "closed_loop_traced".into();
        if traced.as_ref().is_none_or(|best| pass.qps > best.qps) {
            traced = Some(pass);
        }
        last_tracer = tracer;
    }
    let untraced = untraced.expect("TRACE_OVERHEAD_ROUNDS >= 1");
    let traced = traced.expect("TRACE_OVERHEAD_ROUNDS >= 1");

    let log = last_tracer.collect();
    let overhead = TraceOverhead {
        overhead_pct: (untraced.qps - traced.qps) / untraced.qps * 100.0,
        events: log.total_events() as u64,
        dropped: log.total_dropped(),
        untraced,
        traced,
    };
    (overhead, log)
}

/// Interleaved untraced/traced pass pairs [`trace_overhead`] runs; the
/// reported numbers are each mode's best pass.
pub const TRACE_OVERHEAD_ROUNDS: usize = 4;

/// Builds the pass result from the shared per-pass histogram and the
/// ops counter — the same numbers the exported snapshot carries.
fn pass_result(registry: &Registry, mode: &str, elapsed: Duration) -> LoadResult {
    let ops = registry.counter("load.ops", &[("pass", mode)]).get();
    let digest = registry
        .histogram("load.latency_ns", &[("pass", mode)])
        .summary();
    LoadResult {
        mode: mode.to_string(),
        ops,
        elapsed,
        qps: ops as f64 / elapsed.as_secs_f64(),
        latency: LatencySummary::from_histogram(&digest),
    }
}

fn closed_loop(
    engine: &ServeEngine,
    workload: &QueryWorkload,
    config: &ServeLoadConfig,
    batch: usize,
    registry: &Registry,
) -> LoadResult {
    let mode = if batch == 1 {
        "closed_loop"
    } else {
        "closed_loop_batch"
    };
    let ops_counter = registry.counter("load.ops", &[("pass", mode)]);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..config.clients {
            let client = engine.client();
            let mut lat = registry.recorder("load.latency_ns", &[("pass", mode)]);
            let ops_counter = &ops_counter;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config.seed + 1 + t as u64);
                let mut done = 0usize;
                while done < config.ops_per_client {
                    let at = Instant::now();
                    if batch == 1 {
                        let _ = client.query(workload.sample(&mut rng));
                        done += 1;
                        ops_counter.inc();
                    } else {
                        let owners = workload.batch(batch, &mut rng);
                        let _ = client.query_batch(&owners);
                        done += batch;
                        ops_counter.add(batch as u64);
                    }
                    lat.record(at.elapsed().as_nanos() as u64);
                }
                // Recorder drop flushes the tail into the shared family.
            });
        }
    });
    pass_result(registry, mode, started.elapsed())
}

pub(crate) fn open_loop(
    engine: &ServeEngine,
    workload: &QueryWorkload,
    config: &ServeLoadConfig,
    registry: &Registry,
) -> LoadResult {
    // Each client owns an even slice of the target rate and schedules
    // its own arrivals; latency runs from the scheduled arrival, so
    // falling behind schedule (queueing) is charged to the service.
    let mode = "open_loop";
    let per_client = config.open_target_qps / config.clients.max(1) as f64;
    let interval = Duration::from_secs_f64(1.0 / per_client.max(1.0));
    let ops_counter = registry.counter("load.ops", &[("pass", mode)]);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..config.clients {
            let client = engine.client();
            let mut lat = registry.recorder("load.latency_ns", &[("pass", mode)]);
            let ops_counter = &ops_counter;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config.seed + 101 + t as u64);
                let mut k = 0u32;
                loop {
                    let scheduled = interval * k;
                    if scheduled >= config.open_duration {
                        break;
                    }
                    let now = started.elapsed();
                    if now < scheduled {
                        std::thread::sleep(scheduled - now);
                    }
                    let _ = client.query(workload.sample(&mut rng));
                    let completed = started.elapsed();
                    lat.record((completed.saturating_sub(scheduled)).as_nanos() as u64);
                    ops_counter.inc();
                    k += 1;
                }
            });
        }
    });
    pass_result(registry, mode, started.elapsed())
}

/// Renders the report as the harness's usual aligned table.
pub fn to_table(report: &ServeLoadReport) -> Table {
    let mut table = Table::new(
        format!(
            "eppi-serve load — {} providers, {} owners, {} shards, {} clients",
            report.providers, report.owners, report.config.shards, report.config.clients
        ),
        ["mode", "ops", "qps", "p50 us", "p95 us", "p99 us", "max us"]
            .map(String::from)
            .to_vec(),
    );
    for pass in &report.passes {
        table.push_row(vec![
            pass.mode.clone(),
            pass.ops.to_string(),
            format!("{:.0}", pass.qps),
            format!("{:.1}", pass.latency.p50_us),
            format!("{:.1}", pass.latency.p95_us),
            format!("{:.1}", pass.latency.p99_us),
            format!("{:.1}", pass.latency.max_us),
        ]);
    }
    table
}

/// Serializes the report to the `BENCH_serve.json` schema, including
/// the full `telemetry` snapshot section (see README "Reading the
/// metrics block").
pub fn to_json(report: &ServeLoadReport, scale: &str) -> String {
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
            ])
        })
        .collect();
    let mut fields = vec![
        ("bench".into(), JsonValue::Str("serve_load".into())),
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
                    "shards".into(),
                    JsonValue::UInt(report.config.shards as u64),
                ),
                (
                    "queue_depth".into(),
                    JsonValue::UInt(report.config.queue_depth as u64),
                ),
                (
                    "clients".into(),
                    JsonValue::UInt(report.config.clients as u64),
                ),
                ("zipf_s".into(), JsonValue::Float(report.config.skew)),
                (
                    "batch_size".into(),
                    JsonValue::UInt(report.config.batch_size as u64),
                ),
                ("telemetry".into(), JsonValue::Bool(report.config.telemetry)),
                (
                    "backend".into(),
                    JsonValue::Str(report.config.backend.name().into()),
                ),
                ("seed".into(), JsonValue::UInt(report.config.seed)),
            ]),
        ),
        ("passes".into(), JsonValue::Array(passes)),
        ("telemetry".into(), report.telemetry.to_json_value()),
    ];
    if let Some(trace) = &report.trace {
        fields.push((
            "trace".into(),
            JsonValue::Object(vec![
                ("untraced_qps".into(), JsonValue::Float(trace.untraced.qps)),
                ("traced_qps".into(), JsonValue::Float(trace.traced.qps)),
                ("overhead_pct".into(), JsonValue::Float(trace.overhead_pct)),
                ("events".into(), JsonValue::UInt(trace.events)),
                ("dropped".into(), JsonValue::UInt(trace.dropped)),
            ]),
        ));
    }
    if let Some(sweep) = &report.scale {
        fields.push(("scale_sweep".into(), crate::scale::to_json_value(sweep)));
    }
    let mut out = JsonValue::Object(fields).to_pretty();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_telemetry::MetricValue;

    #[test]
    fn percentiles_from_known_samples() {
        // 1..=100 µs in nanoseconds.
        let samples: Vec<u64> = (1..=100u64).map(|v| v * 1_000).collect();
        let lat = LatencySummary::from_nanos(samples);
        assert_eq!(lat.p50_us, 50.0);
        assert_eq!(lat.p95_us, 95.0);
        assert_eq!(lat.p99_us, 99.0);
        assert_eq!(lat.max_us, 100.0);
        let single = LatencySummary::from_nanos(vec![5_000]);
        assert_eq!(single.p50_us, 5.0);
        assert_eq!(single.p99_us, 5.0);
    }

    #[test]
    fn histogram_percentiles_match_exact_within_error_bound() {
        let hist = eppi_telemetry::Histogram::new();
        let samples: Vec<u64> = (1..=100u64).map(|v| v * 1_000).collect();
        for &v in &samples {
            hist.record(v);
        }
        let from_hist = LatencySummary::from_histogram(&hist.summary());
        let exact = LatencySummary::from_nanos(samples);
        for (got, want) in [
            (from_hist.p50_us, exact.p50_us),
            (from_hist.p95_us, exact.p95_us),
            (from_hist.p99_us, exact.p99_us),
        ] {
            assert!(
                (got - want).abs() <= want * eppi_telemetry::MAX_RELATIVE_ERROR,
                "{got} vs {want}"
            );
        }
        assert_eq!(from_hist.max_us, exact.max_us, "max is tracked exactly");
    }

    #[test]
    fn quick_run_produces_complete_report_and_json() {
        let mut config = ServeLoadConfig::quick();
        config.ops_per_client = 200;
        config.open_duration = Duration::from_millis(50);
        let report = run(&config);
        assert_eq!(report.providers, 250);
        assert_eq!(report.owners, 500);
        assert_eq!(report.passes.len(), 3);
        for pass in &report.passes {
            assert!(pass.ops > 0, "{} did no work", pass.mode);
            assert!(pass.qps > 0.0);
            assert!(pass.latency.p50_us <= pass.latency.p99_us);
        }
        let json = to_json(&report, "quick");
        for key in [
            "\"bench\": \"serve_load\"",
            "\"machine\"",
            "\"hardware_threads\"",
            "\"shards\": 2",
            "\"qps\"",
            "\"p50\"",
            "\"p99\"",
            "closed_loop",
            "closed_loop_batch",
            "open_loop",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let table = to_table(&report).to_string();
        assert!(table.contains("closed_loop_batch"));
    }

    /// Acceptance criteria for the telemetry section: the emitted JSON
    /// parses, its `telemetry` section round-trips into a [`Snapshot`],
    /// and that snapshot carries per-shard serve latency histograms,
    /// queue-depth gauges, and per-phase construction timings.
    #[test]
    fn emitted_json_contains_well_formed_telemetry_snapshot() {
        let mut config = ServeLoadConfig::quick();
        config.ops_per_client = 100;
        config.open_duration = Duration::from_millis(20);
        let report = run(&config);
        let json = to_json(&report, "quick");
        let doc = JsonValue::parse(&json).expect("BENCH_serve.json must parse");
        let telemetry = doc.get("telemetry").expect("telemetry section");
        let snap = Snapshot::from_json_value(telemetry).expect("well-formed snapshot");
        assert_eq!(snap, report.telemetry);

        // Per-shard serve latency histograms with populated quantiles.
        let service = snap.family("serve.service_ns");
        assert_eq!(service.len(), config.shards);
        for m in &service {
            match &m.value {
                MetricValue::Histogram(h) => {
                    assert!(h.count > 0, "{} empty", m.id());
                    assert!(h.p50 <= h.p95 && h.p95 <= h.p99, "{}", m.id());
                }
                other => panic!("unexpected metric {other:?}"),
            }
        }
        // Queue-depth gauges, drained by shutdown.
        let depth = snap.family("serve.queue_depth");
        assert_eq!(depth.len(), config.shards);
        for m in &depth {
            match &m.value {
                MetricValue::Gauge { value, .. } => assert_eq!(*value, 0, "{}", m.id()),
                other => panic!("unexpected metric {other:?}"),
            }
        }
        // Per-phase construction timings from the probe (incl. the
        // dedicated cleartext λ phase).
        assert_eq!(snap.family("construct.phase_ns").len(), 6);
        // The passes' latency numbers come from these histograms.
        for pass in &report.passes {
            let m = snap
                .expect("load.latency_ns", &[("pass", &pass.mode)])
                .unwrap();
            match &m.value {
                MetricValue::Histogram(h) => {
                    assert_eq!(
                        LatencySummary::from_histogram(h),
                        pass.latency,
                        "{} diverged from its histogram",
                        pass.mode
                    );
                }
                other => panic!("unexpected metric {other:?}"),
            }
        }
    }

    /// The traced-vs-untraced comparison runs both passes, collects a
    /// non-empty span log, and lands as a `trace` section in the JSON.
    #[test]
    fn trace_overhead_measures_both_passes() {
        let mut config = ServeLoadConfig::quick();
        config.ops_per_client = 200;
        config.open_duration = Duration::from_millis(20);
        let (overhead, log) = trace_overhead(&config);
        assert_eq!(overhead.untraced.mode, "closed_loop_untraced");
        assert_eq!(overhead.traced.mode, "closed_loop_traced");
        assert!(overhead.untraced.ops > 0 && overhead.traced.ops > 0);
        assert!(overhead.events > 0, "traced pass recorded no spans");
        assert_eq!(overhead.events as usize, log.total_events());
        assert!(log.trace_ids().iter().any(|&t| {
            log.span_tree(t)
                .is_some_and(|n| n.name == "serve.query" && n.count("serve.shard_query") == 1)
        }));

        let mut report = run(&config);
        report.trace = Some(overhead);
        let json = to_json(&report, "quick");
        let doc = JsonValue::parse(&json).expect("parses");
        let trace = doc.get("trace").expect("trace section");
        assert!(trace.get("untraced_qps").is_some());
        assert!(trace.get("overhead_pct").is_some());
    }

    /// The `telemetry: false` baseline still produces a full report —
    /// the engine-side families just stay empty.
    #[test]
    fn telemetry_off_run_still_reports() {
        let mut config = ServeLoadConfig::quick();
        config.ops_per_client = 100;
        config.open_duration = Duration::from_millis(20);
        config.telemetry = false;
        let report = run(&config);
        assert_eq!(report.passes.len(), 3);
        for pass in &report.passes {
            assert!(pass.ops > 0);
        }
        for m in report.telemetry.family("serve.service_ns") {
            match &m.value {
                MetricValue::Histogram(h) => assert_eq!(h.count, 0, "{} recorded", m.id()),
                other => panic!("unexpected metric {other:?}"),
            }
        }
    }
}
