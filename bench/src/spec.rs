//! The benchmark's fixed shape: the four workloads and the metric
//! catalogue. `BENCHMARK.json` at the repository root restates this
//! table; `tests/quick.rs` keeps the two in step.

use eppi_protocol::Backend;
use std::time::Duration;

/// Providers of the epoch lineage at full scale (Fig. 6 scale).
pub const LINEAGE_PROVIDERS: usize = 64;
/// Owners a batched query carries.
pub const BATCH: usize = 64;
/// Timed rounds a full-scale run never goes below.
pub const MIN_ROUNDS: usize = 9;
/// Bits flipped in each touched column of a delta.
pub const FLIPS_PER_COLUMN: usize = 3;
/// Queries the churn client issues between two installs.
pub const QUERIES_PER_INSTALL: usize = 256;
/// Set-ups per end-to-end run; `setup_s` is their median. The
/// runner's contract asks for several set-ups a run so that one slow
/// set-up does not decide the number, and `setup_s` is the one timing
/// the gate carries, so a third of a run goes to it.
pub const SETUPS: usize = 5;

/// Which phases a workload is built to be dominated by (checked from
/// the traced pass, reported as `harness.share_*_pct`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominant {
    /// Full builds, wide deltas and their replay: all MPC.
    Mpc,
    /// Certify + verify, standalone and inside `advance_audited`.
    Audit,
    /// Delta journal/install path plus crash recovery.
    DeltaRecover,
    /// The four query slices.
    Serve,
}

/// One workload: the script every round executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line; restated in BENCHMARK.json).
    pub why: &'static str,
    /// MPC backend of the lineage.
    pub backend: Backend,
    /// Audit repetitions `R` (soundness `(2/3)^R`).
    pub repetitions: usize,
    /// Lineage providers `m`.
    pub providers: usize,
    /// Lineage owners `n`.
    pub owners: usize,
    /// `construct_epoch` calls per round.
    pub builds: usize,
    /// Unaudited deltas per round `D`.
    pub deltas: usize,
    /// Columns each delta touches `k`.
    pub width: usize,
    /// Journal records left unreplayed at the crash `W` (the
    /// checkpoint falls after delta `D − W`).
    pub wal_at_crash: usize,
    /// Length of each closed-loop query slice.
    pub slice: Duration,
    /// Whether the query slices go to the paper-scale served index
    /// instead of the lineage's own.
    pub paper: bool,
    /// Whether reads interleave with the delta burst (the single
    /// client alternates [`QUERIES_PER_INSTALL`] queries and one
    /// install; `query_qps` is measured over that window).
    pub interleave: bool,
    /// Rounds a run never goes below.
    pub min_rounds: usize,
    /// The phases this workload is built to be dominated by.
    pub dominant: Dominant,
    /// Share of the round the dominant phases should exceed.
    pub target_pct: f64,
}

/// The four workloads at full scale.
///
/// Lineage owner counts are below the issue's 4096 because the
/// runner's cap on total time (92 runs in 3420 s) leaves ≈ 30 s per
/// run; per the issue, `n` shrinks and the round count does not.
pub fn workloads() -> [Workload; 4] {
    let base = Workload {
        name: "",
        why: "",
        backend: Backend::InProcess,
        repetitions: 8,
        providers: LINEAGE_PROVIDERS,
        owners: 2048,
        builds: 1,
        deltas: 64,
        width: 4,
        wal_at_crash: 64,
        slice: Duration::from_millis(100),
        paper: false,
        interleave: false,
        min_rounds: MIN_ROUNDS,
        dominant: Dominant::Mpc,
        target_pct: 50.0,
    };
    [
        Workload {
            name: "build_mpc",
            why: "16 in-process builds and 64-column deltas per round: SecSumShare, CountBelow and mix do most of the round",
            builds: 16,
            width: 64,
            ..base
        },
        Workload {
            name: "audit_heavy",
            why: "R=40 certify+verify on a threaded lineage: eppi-audit does >80% of the round, MPC runs on real threads",
            backend: Backend::Threaded,
            repetitions: 40,
            owners: 1536,
            deltas: 16,
            wal_at_crash: 8,
            slice: Duration::from_millis(45),
            dominant: Dominant::Audit,
            target_pct: 80.0,
            ..base
        },
        Workload {
            name: "churn",
            why: "96 narrow deltas on the pipelined backend with reads interleaved: WAL, install and 48-record replay dominate",
            backend: Backend::Pipelined { workers: 2 },
            owners: 1024,
            deltas: 96,
            wal_at_crash: 48,
            interleave: true,
            dominant: Dominant::DeltaRecover,
            ..base
        },
        Workload {
            name: "serve_paper",
            why: "queries go to a 10k x 20k index (compressed plaintext engine, 2 dense PIR replicas): row decode and scans dominate",
            slice: Duration::from_millis(300),
            paper: true,
            dominant: Dominant::Serve,
            target_pct: 60.0,
            ..base
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` scale used by `cargo test`: m=16, n=256, three
    /// rounds, short slices, a miniature served index.
    pub fn quick(self) -> Workload {
        let deltas = (self.deltas / 8).max(2);
        Workload {
            providers: 16,
            owners: 256,
            builds: self.builds.min(2),
            deltas,
            width: self.width.min(8),
            wal_at_crash: (self.wal_at_crash / 8).clamp(1, deltas),
            slice: Duration::from_millis(15),
            min_rounds: 3,
            ..self
        }
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (gated
    /// end-to-end metrics only).
    pub bound: Option<f64>,
    /// Whether two runs with one seed must agree bit for bit.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The 13 end-to-end metrics every `--trace 0` run prints. Three of
/// them carry a regression bound and make up the result object and
/// `BENCHMARK.json`'s `end_to_end` list; the ten [`layer`] rows are
/// printed with their quartiles but not gated.
///
/// Why so few: the issue gates a timing at 10 % or not at all ("demote
/// it … never widen a bound past 10 %"). On the shared 2-vCPU sandbox
/// the median over rounds of every timing and throughput spread by
/// 4–24 % over ten runs of one commit (interquartile range ÷ median,
/// two sets, bench/README.md), and set medians half an hour apart
/// differed by up to 20 %, so none of them holds 10 %. They stay in
/// the per-layer table as `harness.<name>`.
///
/// `setup_s` is gated because the runner's contract names it, with the
/// contract's widest bound. The two byte metrics are counts:
/// `proof_kb` repeats bit for bit under one seed (`--selfcheck`
/// enforces that) and follows the Fiat–Shamir challenges of another
/// seed by ±0.03 %; their 0.2 % bound absorbs only that.
pub const END_TO_END: [MetricDef; 13] = [
    gated("setup_s", "s", Lower, 0.25),
    layer("lifecycle_s", "s", Lower),
    layer("build_ms", "ms", Lower),
    layer("audit_ms", "ms", Lower),
    layer("refresh_ms", "ms", Lower),
    layer("refresh_audited_ms", "ms", Lower),
    layer("recover_ms", "ms", Lower),
    layer("query_qps", "1/s", Higher),
    layer("batch_qps", "owners/s", Higher),
    layer("private_qps", "1/s", Higher),
    layer("private_batch_qps", "owners/s", Higher),
    // Not `exact`: the pipelined backend coalesces frames by arrival
    // time, so its framing bytes move by ~0.01 % from run to run.
    gated("wire_kb", "KB", Lower, 0.002),
    MetricDef {
        exact: true,
        ..gated("proof_kb", "KB", Lower, 0.002)
    },
];

/// The per-layer metrics of the `--trace 1` pass (layer = crate).
pub const PER_LAYER: [MetricDef; 83] = [
    // eppi-protocol
    layer("protocol.secsum_ms", "ms", Lower),
    layer("protocol.countbelow_ms", "ms", Lower),
    layer("protocol.mix_ms", "ms", Lower),
    layer("protocol.delta_ms", "ms", Lower),
    count("protocol.build_gates", "count"),
    count("protocol.build_and_gates", "count"),
    count("protocol.build_rounds", "count"),
    // A count, but not `exact`: pipelined frame coalescing (see `wire_kb`).
    layer("protocol.build_msgs", "count", Lower),
    count("protocol.delta_gates", "count"),
    // eppi-mpc
    layer("mpc.schedule_ms", "ms", Lower),
    layer("mpc.triples_ms", "ms", Lower),
    layer("mpc.and_ns_per_gate", "ns", Lower),
    count("mpc.triples_per_build", "count"),
    // eppi-net
    layer("net.threaded_round_us", "us", Lower),
    // eppi-core
    layer("core.publish_ms", "ms", Lower),
    layer("core.hash_mb_s", "MB/s", Higher),
    layer("core.row_decode_ns", "ns", Lower),
    layer("core.compress_ratio", "ratio", Higher),
    // eppi-audit
    layer("audit.certify_ms", "ms", Lower),
    layer("audit.verify_ms", "ms", Lower),
    layer("audit.prove_column_ms", "ms", Lower),
    layer("audit.verify_column_ms", "ms", Lower),
    layer("audit.commit_us", "us", Lower),
    layer("audit.verify_commitments_ms", "ms", Lower),
    count("audit.proof_bytes_per_owner", "B"),
    // eppi-durability
    layer("durability.wal_append_us", "us", Lower),
    count("durability.wal_bytes_per_delta", "B"),
    count("durability.fsyncs_per_delta", "count"),
    layer("durability.checkpoint_ms", "ms", Lower),
    count("durability.checkpoint_kb", "KB"),
    layer("durability.checkpoint_load_ms", "ms", Lower),
    layer("durability.wal_scan_ms", "ms", Lower),
    layer("durability.replay_ms_per_record", "ms", Lower),
    layer("durability.encode_epoch_ms", "ms", Lower),
    layer("durability.decode_epoch_ms", "ms", Lower),
    // eppi-index
    layer("index.snapshot_encode_ms", "ms", Lower),
    layer("index.snapshot_decode_ms", "ms", Lower),
    // eppi-serve
    layer("serve.shard_build_ms", "ms", Lower),
    layer("serve.install_ms", "ms", Lower),
    layer("serve.warm_boot_ms", "ms", Lower),
    layer("serve.cold_boot_ms", "ms", Lower),
    layer("serve.direct_query_ns", "ns", Lower),
    layer("serve.handoff_us", "us", Lower),
    layer("serve.direct_batch_ns_per_owner", "ns", Lower),
    count("serve.index_mb", "MB"),
    layer("serve.query_p50_us", "us", Lower),
    layer("serve.query_p99_us", "us", Lower),
    layer("serve.open20k_p50_us", "us", Lower),
    layer("serve.open20k_p99_us", "us", Lower),
    layer("serve.open20k_late_us", "us", Lower),
    layer("serve.private_handoff_us", "us", Lower),
    // eppi-pir
    layer("pir.generate_us", "us", Lower),
    layer("pir.scan_ns_per_word", "ns", Lower),
    layer("pir.scan_batch_ns_per_word", "ns", Lower),
    count("pir.words_per_query", "count"),
    count("pir.words_per_batched_query", "count"),
    count("pir.version_retries", "count"),
    // eppi-telemetry, the harness itself, eppi-workload
    layer("telemetry.overhead_pct", "%", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.coverage_pct", "%", Higher),
    layer("harness.share_mpc_pct", "%", Higher),
    layer("harness.share_audit_pct", "%", Higher),
    layer("harness.share_delta_recover_pct", "%", Higher),
    layer("harness.share_serve_pct", "%", Higher),
    layer("harness.warmup_s", "s", Lower),
    layer("harness.lifecycle_s", "s", Lower),
    layer("harness.build_ms", "ms", Lower),
    layer("harness.audit_ms", "ms", Lower),
    layer("harness.refresh_ms", "ms", Lower),
    layer("harness.refresh_audited_ms", "ms", Lower),
    layer("harness.recover_ms", "ms", Lower),
    layer("harness.query_qps", "1/s", Higher),
    layer("harness.batch_qps", "owners/s", Higher),
    layer("harness.private_qps", "1/s", Higher),
    layer("harness.private_batch_qps", "owners/s", Higher),
    // The pin lifted: every CPU the host offers.
    layer("unpinned.lifecycle_s", "s", Lower),
    layer("unpinned.build_ms", "ms", Lower),
    layer("unpinned.refresh_ms", "ms", Lower),
    layer("unpinned.recover_ms", "ms", Lower),
    layer("unpinned.private_qps", "1/s", Higher),
    layer("workload.gen_ms", "ms", Lower),
    count("workload.common_identities", "count"),
    count("workload.median_answer", "count"),
];
