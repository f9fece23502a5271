//! Packed-vs-unpacked speedup of the GMW core and the pipelined
//! runtime's worker sweep (`results/BENCH_mpc.json`).
//!
//! The bit-packed core refactor claims a concrete win: evaluating the
//! Fig. 6 pure-MPC construction circuit with 64 wires per `u64` word
//! must beat the frozen pre-refactor `Vec<bool>` executor
//! ([`eppi_mpc::gmw_core::reference`]) at every paper-scale party
//! count. This module measures exactly that — same circuits, same
//! inputs, both paths verified to open identical outputs before the
//! timed runs — and emits the speedup table the CI smoke check asserts
//! over.
//!
//! The `pipeline` section measures the stage-pipelined multi-lane
//! runtime (DESIGN.md §15) under an emulated link latency: the same
//! CountBelow lane set is driven by the lockstep per-lane baseline and
//! by [`eppi_protocol::execute_pipelined`] at 1/2/4 workers. Keeping
//! several lanes in flight overlaps their latency waits, so throughput
//! must grow with the worker count even on one core — the wall-clock
//! claim the CI gate asserts (pipelined ≥ lockstep at 4 workers).

use crate::report::{f3, Table};
use eppi_mpc::circuits::{lambda_threshold, CountBelowCircuit, PureConstructionCircuit};
use eppi_mpc::gmw;
use eppi_mpc::gmw_core::reference;
use eppi_net::pipeline::LinkPacing;
use eppi_protocol::{execute_lanes_sequential, execute_pipelined, LaneSpec, PipelineConfig};
use eppi_telemetry::json::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Configuration of the packed-core benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpcBenchConfig {
    /// Party counts `m` to sweep (the paper's Fig. 6 x-axis).
    pub party_counts: Vec<usize>,
    /// Identities per circuit (sets the per-layer gate width the
    /// packing amortizes over).
    pub identities: usize,
    /// Mixing-coin bits of the pure-MPC circuit.
    pub coin_bits: usize,
    /// Timed repetitions per point (best-of to shed scheduler noise).
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
}

impl MpcBenchConfig {
    /// Paper-scale sweep: `m ∈ 3..=10` on Fig. 6-sized pure-MPC
    /// circuits.
    pub fn paper() -> Self {
        MpcBenchConfig {
            party_counts: (3..=10).collect(),
            identities: 128,
            coin_bits: 8,
            reps: 3,
            seed: 0xbe9c,
        }
    }

    /// Scaled-down smoke configuration.
    pub fn quick() -> Self {
        MpcBenchConfig {
            party_counts: vec![3, 5],
            identities: 2,
            coin_bits: 4,
            reps: 1,
            seed: 0xbe9c,
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcBenchRow {
    /// Number of parties `m`.
    pub parties: usize,
    /// AND gates of the compiled circuit.
    pub and_gates: usize,
    /// Total gates of the compiled circuit.
    pub total_gates: usize,
    /// Best wall time of the unpacked reference executor, milliseconds.
    pub unpacked_ms: f64,
    /// Best wall time of the packed core, milliseconds.
    pub packed_ms: f64,
    /// `unpacked_ms / packed_ms`.
    pub speedup: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcBenchReport {
    /// Configuration the sweep ran under.
    pub config: MpcBenchConfig,
    /// One row per party count.
    pub rows: Vec<MpcBenchRow>,
}

impl MpcBenchReport {
    /// Geometric mean of the per-point speedups.
    pub fn geomean_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.speedup.ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the sweep.
pub fn run(config: &MpcBenchConfig) -> MpcBenchReport {
    let n = config.identities;
    let mut rows = Vec::with_capacity(config.party_counts.len());
    for &m in &config.party_counts {
        // Fig. 6 pure-MPC construction circuit: m providers feed
        // membership bits and coins; threshold is the majority count.
        let thresholds = vec![m.div_ceil(2) as u64; n];
        let lam = lambda_threshold(0.5, config.coin_bits);
        let pc = PureConstructionCircuit::build(m, &thresholds, config.coin_bits, lam);
        let (circuit, layout) = (pc.circuit(), pc.layout());

        let mut in_rng = StdRng::seed_from_u64(config.seed ^ (m as u64) << 8);
        let inputs: Vec<Vec<bool>> = (0..m)
            .map(|_| {
                let membership: Vec<bool> = (0..n).map(|_| in_rng.gen()).collect();
                let coins: Vec<u64> = (0..n)
                    .map(|_| in_rng.gen_range(0..(1u64 << config.coin_bits)))
                    .collect();
                pc.encode_party_input(&membership, &coins)
            })
            .collect();

        // Equivalence guard before timing: both paths must open the
        // same bits as the cleartext evaluation.
        let clear = circuit.eval(&layout.flatten(&inputs));
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xcafe);
        let (packed_out, _) = gmw::execute(circuit, layout, &inputs, &mut rng);
        let (unpacked_out, _) = reference::execute_unpacked(circuit, layout, &inputs, &mut rng);
        assert_eq!(packed_out, clear, "packed output diverged at m={m}");
        assert_eq!(unpacked_out, clear, "unpacked output diverged at m={m}");

        let unpacked_ms = best_of(config.reps, || {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x11);
            let _ = reference::execute_unpacked(circuit, layout, &inputs, &mut rng);
        });
        let packed_ms = best_of(config.reps, || {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x11);
            let _ = gmw::execute(circuit, layout, &inputs, &mut rng);
        });

        let stats = circuit.stats();
        rows.push(MpcBenchRow {
            parties: m,
            and_gates: stats.and_gates,
            total_gates: stats.total_gates,
            unpacked_ms,
            packed_ms,
            speedup: unpacked_ms / packed_ms.max(1e-9),
        });
    }
    MpcBenchReport {
        config: config.clone(),
        rows,
    }
}

/// Renders the sweep as a printable table.
pub fn to_table(report: &MpcBenchReport) -> Table {
    let mut table = Table::new(
        "BENCH_mpc — packed GMW core vs unpacked reference (pure-MPC circuit)",
        [
            "m",
            "and_gates",
            "total_gates",
            "unpacked_ms",
            "packed_ms",
            "speedup",
        ]
        .map(String::from)
        .to_vec(),
    );
    for r in &report.rows {
        table.push_row(vec![
            r.parties.to_string(),
            r.and_gates.to_string(),
            r.total_gates.to_string(),
            f3(r.unpacked_ms),
            f3(r.packed_ms),
            f3(r.speedup),
        ]);
    }
    table
}

/// Configuration of the pipelined-runtime worker sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineBenchConfig {
    /// Independent CountBelow lanes per run (batch columns in flight).
    pub lanes: usize,
    /// Identities (columns) per lane circuit.
    pub columns_per_lane: usize,
    /// Coordinator count per lane.
    pub parties: usize,
    /// Emulated one-way frame latency, microseconds.
    pub latency_us: u64,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Timed repetitions per point (best-of).
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
}

impl PipelineBenchConfig {
    /// Paper-scale sweep: 16 lanes of 8 columns among 3 coordinators
    /// under a 200 µs link.
    pub fn paper() -> Self {
        PipelineBenchConfig {
            lanes: 16,
            columns_per_lane: 8,
            parties: 3,
            latency_us: 200,
            worker_counts: vec![1, 2, 4],
            reps: 3,
            seed: 0x919e,
        }
    }

    /// Scaled-down smoke configuration.
    pub fn quick() -> Self {
        PipelineBenchConfig {
            lanes: 4,
            columns_per_lane: 2,
            parties: 3,
            latency_us: 100,
            worker_counts: vec![1, 2, 4],
            reps: 1,
            seed: 0x919e,
        }
    }
}

/// One measured point of the worker sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBenchRow {
    /// Pipeline worker threads per party.
    pub workers: usize,
    /// Best wall time of the pipelined run, milliseconds.
    pub wall_ms: f64,
    /// `lockstep_ms / wall_ms`.
    pub speedup_vs_lockstep: f64,
}

/// The pipelined-runtime sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBenchReport {
    /// Configuration the sweep ran under.
    pub config: PipelineBenchConfig,
    /// Best wall time of the lockstep per-lane baseline, milliseconds.
    pub lockstep_ms: f64,
    /// One row per worker count, in sweep order.
    pub rows: Vec<PipelineBenchRow>,
}

impl PipelineBenchReport {
    /// Wall-clock speedup of the widest worker count over one worker.
    pub fn speedup_4w_vs_1w(&self) -> f64 {
        let one = self
            .rows
            .iter()
            .find(|r| r.workers == 1)
            .map_or(0.0, |r| r.wall_ms);
        let widest = self
            .rows
            .iter()
            .max_by_key(|r| r.workers)
            .map_or(f64::INFINITY, |r| r.wall_ms);
        one / widest.max(1e-9)
    }
}

/// Runs the pipelined-runtime worker sweep.
///
/// All lanes share one CountBelow circuit shape but carry independent
/// inputs and triple seeds. Before timing, the pipelined outputs are
/// checked bit-for-bit against the lockstep baseline — the equivalence
/// the cross-backend proptests prove at random; here it guards the
/// numbers actually published.
pub fn run_pipeline(config: &PipelineBenchConfig) -> PipelineBenchReport {
    let width = 10usize;
    let thresholds = vec![1u64 << (width - 1); config.columns_per_lane];
    let cc = CountBelowCircuit::build(config.parties, &thresholds, width);
    let mut in_rng = StdRng::seed_from_u64(config.seed ^ 0x1a9e5);
    let inputs: Vec<Vec<Vec<bool>>> = (0..config.lanes)
        .map(|_| {
            (0..config.parties)
                .map(|_| {
                    let shares: Vec<u64> = (0..config.columns_per_lane)
                        .map(|_| in_rng.gen_range(0..(1u64 << width)))
                        .collect();
                    cc.encode_party_input(&shares)
                })
                .collect()
        })
        .collect();
    let lanes: Vec<LaneSpec> = inputs
        .iter()
        .enumerate()
        .map(|(i, lane_inputs)| LaneSpec {
            circuit: cc.circuit(),
            layout: cc.layout(),
            inputs: lane_inputs,
            seed: config.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        })
        .collect();
    let pacing = LinkPacing {
        latency: Duration::from_micros(config.latency_us),
    };

    // Equivalence guard before timing.
    let (baseline_outs, _) = execute_lanes_sequential(&lanes, None);
    let (pipe_outs, _) = execute_pipelined(&lanes, &PipelineConfig::with_workers(2))
        .expect("in-process pipeline cannot lose a party");
    assert_eq!(
        baseline_outs, pipe_outs,
        "pipelined outputs diverged from the lockstep baseline"
    );

    let lockstep_ms = best_of(config.reps, || {
        let _ = execute_lanes_sequential(&lanes, Some(pacing));
    });
    let rows = config
        .worker_counts
        .iter()
        .map(|&workers| {
            let cfg = PipelineConfig {
                pacing: Some(pacing),
                ..PipelineConfig::with_workers(workers)
            };
            let wall_ms = best_of(config.reps, || {
                let _ = execute_pipelined(&lanes, &cfg).expect("pipelined run");
            });
            PipelineBenchRow {
                workers,
                wall_ms,
                speedup_vs_lockstep: lockstep_ms / wall_ms.max(1e-9),
            }
        })
        .collect();
    PipelineBenchReport {
        config: config.clone(),
        lockstep_ms,
        rows,
    }
}

/// Renders the worker sweep as a printable table.
pub fn pipeline_to_table(report: &PipelineBenchReport) -> Table {
    let mut table = Table::new(
        "BENCH_mpc pipeline — stage-pipelined lanes vs lockstep baseline",
        ["workers", "wall_ms", "speedup_vs_lockstep"]
            .map(String::from)
            .to_vec(),
    );
    for r in &report.rows {
        table.push_row(vec![
            r.workers.to_string(),
            f3(r.wall_ms),
            f3(r.speedup_vs_lockstep),
        ]);
    }
    table
}

fn pipeline_to_json(report: &PipelineBenchReport) -> JsonValue {
    let rows: Vec<JsonValue> = report
        .rows
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("workers".into(), JsonValue::UInt(r.workers as u64)),
                ("wall_ms".into(), JsonValue::Float(r.wall_ms)),
                (
                    "speedup_vs_lockstep".into(),
                    JsonValue::Float(r.speedup_vs_lockstep),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("lanes".into(), JsonValue::UInt(report.config.lanes as u64)),
        (
            "columns_per_lane".into(),
            JsonValue::UInt(report.config.columns_per_lane as u64),
        ),
        (
            "parties".into(),
            JsonValue::UInt(report.config.parties as u64),
        ),
        (
            "latency_us".into(),
            JsonValue::UInt(report.config.latency_us),
        ),
        ("lockstep_ms".into(), JsonValue::Float(report.lockstep_ms)),
        ("rows".into(), JsonValue::Array(rows)),
        (
            "speedup_4w_vs_1w".into(),
            JsonValue::Float(report.speedup_4w_vs_1w()),
        ),
    ])
}

/// Serializes the sweep to the `results/BENCH_mpc.json` document.
pub fn to_json(report: &MpcBenchReport, pipeline: &PipelineBenchReport, scale: &str) -> String {
    let rows: Vec<JsonValue> = report
        .rows
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("parties".into(), JsonValue::UInt(r.parties as u64)),
                ("and_gates".into(), JsonValue::UInt(r.and_gates as u64)),
                ("total_gates".into(), JsonValue::UInt(r.total_gates as u64)),
                ("unpacked_ms".into(), JsonValue::Float(r.unpacked_ms)),
                ("packed_ms".into(), JsonValue::Float(r.packed_ms)),
                ("speedup".into(), JsonValue::Float(r.speedup)),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "bench".into(),
            JsonValue::Str("mpc_packed_vs_unpacked".into()),
        ),
        ("scale".into(), JsonValue::Str(scale.into())),
        (
            "identities".into(),
            JsonValue::UInt(report.config.identities as u64),
        ),
        (
            "coin_bits".into(),
            JsonValue::UInt(report.config.coin_bits as u64),
        ),
        ("reps".into(), JsonValue::UInt(report.config.reps as u64)),
        ("rows".into(), JsonValue::Array(rows)),
        (
            "speedup_geomean".into(),
            JsonValue::Float(report.geomean_speedup()),
        ),
        ("pipeline".into(), pipeline_to_json(pipeline)),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_wellformed_rows_and_json() {
        let report = run(&MpcBenchConfig::quick());
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert!(r.and_gates > 0);
            assert!(r.unpacked_ms > 0.0 && r.packed_ms > 0.0);
            assert!(r.speedup > 0.0);
        }
        let pipeline = run_pipeline(&PipelineBenchConfig::quick());
        assert_eq!(pipeline.rows.len(), 3);
        for r in &pipeline.rows {
            assert!(r.wall_ms > 0.0 && r.speedup_vs_lockstep > 0.0);
        }
        let json = to_json(&report, &pipeline, "quick");
        let doc = JsonValue::parse(&json).expect("well-formed JSON");
        assert_eq!(
            doc.get("bench").and_then(JsonValue::as_str),
            Some("mpc_packed_vs_unpacked")
        );
        assert_eq!(
            doc.get("rows")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert!(doc
            .get("speedup_geomean")
            .and_then(JsonValue::as_f64)
            .is_some());
        let pipe_doc = doc.get("pipeline").expect("pipeline section");
        assert_eq!(
            pipe_doc
                .get("rows")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        assert!(pipe_doc
            .get("speedup_4w_vs_1w")
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    /// Even the quick lane set must overlap its latency waits: more
    /// workers in flight may never make wall clock meaningfully worse,
    /// and the widest sweep point must beat the lockstep baseline.
    #[test]
    fn pipeline_overlap_beats_the_lockstep_baseline() {
        // Best of 5: with one sample per point the neighbouring tests
        // of this binary, running on the same two cores, decided the
        // comparison about every other run.
        let report = run_pipeline(&PipelineBenchConfig {
            reps: 5,
            ..PipelineBenchConfig::quick()
        });
        let widest = report.rows.iter().max_by_key(|r| r.workers).unwrap();
        assert!(
            widest.speedup_vs_lockstep >= 1.0,
            "4-worker pipeline ({:.3} ms) slower than lockstep ({:.3} ms)",
            widest.wall_ms,
            report.lockstep_ms
        );
    }
}
