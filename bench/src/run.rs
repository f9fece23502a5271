//! Orchestration: the end-to-end pass, the per-layer pass, the
//! self-check, and the report both print.

use crate::host::{host_threads, on_all_cpus, pin_to_one_cpu};
use crate::inputs::{wire_bytes, Setup};
use crate::layers::measure_layers;
use crate::round::run_round;
use crate::spans::{coverage, recording, self_times, total_ms};
use crate::spec::{Dominant, MetricDef, Workload, END_TO_END, PER_LAYER, SETUPS};
use crate::stats::{summarize, Samples, Summary, Tally};
use eppi_telemetry::json::JsonValue;
use eppi_trace::chrome::to_chrome_string;
use eppi_trace::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Longest a pass keeps starting rounds, whatever `--seconds` and the
/// round floor say: the runner kills a run at 180 s.
const MEASURE_CAP_S: f64 = 100.0;
/// Rounds the per-layer pass runs with the pin lifted.
const UNPINNED_ROUNDS: usize = 2;
/// Share of the round its top-level spans must cover in a traced run.
const MIN_COVERAGE: f64 = 0.95;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload, already at the chosen scale.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed rounds run (the round floor may extend it).
    pub seconds: f64,
    /// `false`: end-to-end pass; `true`: per-layer pass.
    pub trace: bool,
    /// Whether the `--quick` scale is in use (selects the miniature
    /// served index).
    pub quick: bool,
    /// Where the per-layer pass writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Directory the run may create files under.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// The declaration.
    pub def: MetricDef,
    /// Median, quartiles, sample count.
    pub summary: Summary,
}

/// Everything one pass prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Which pass produced the report.
    pub trace: bool,
    /// Timed rounds run.
    pub rounds: usize,
    /// One line per declared metric, in catalogue order.
    pub lines: Vec<Line>,
    /// Correctness accounting.
    pub tally: Tally,
    /// Free-form lines (host state, served-index description, span
    /// table).
    pub notes: Vec<String>,
}

impl Report {
    /// `true` when every checked output was right.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The reported value of one metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.lines
            .iter()
            .find(|l| l.def.name == name)
            .map(|l| l.summary.median)
    }

    /// The human-readable report: one line per metric with its unit,
    /// quartiles and sample count.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "# lifecycle workload={} seed={} pass={} rounds={}",
            self.workload,
            self.seed,
            if self.trace {
                "per_layer"
            } else {
                "end_to_end"
            },
            self.rounds
        );
        for note in &self.notes {
            let _ = writeln!(text, "# {note}");
        }
        for line in &self.lines {
            let (d, s) = (&line.def, &line.summary);
            let _ = write!(
                text,
                "metric {} unit={} better={} value={} q1={} q3={} n={}",
                d.name,
                d.unit,
                d.better.word(),
                s.median,
                s.q1,
                s.q3,
                s.n
            );
            if let Some(bound) = d.bound {
                let _ = write!(text, " bound={bound}");
            }
            if d.exact {
                let _ = write!(text, " exact");
            }
            let _ = writeln!(text);
        }
        let _ = writeln!(
            text,
            "checks attempted={} failed={} failed_share={}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64
        );
        text
    }

    /// The result object the runner reads from the last output line:
    /// the gated metrics of the end-to-end pass, every metric of the
    /// per-layer pass.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .lines
            .iter()
            .filter(|l| self.trace || l.def.bound.is_some())
            .map(|l| {
                (
                    l.def.name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Float(l.summary.median)),
                        ("unit".into(), JsonValue::Str(l.def.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::UInt(self.tally.attempted)),
            ("failed".into(), JsonValue::UInt(self.tally.failed)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .to_compact()
    }
}

/// Turns the samples into one line per declared metric.
fn lines(catalogue: &[MetricDef], samples: &Samples) -> Result<Vec<Line>, String> {
    catalogue
        .iter()
        .map(|&def| {
            let values = samples
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if values.iter().any(|v| !v.is_finite()) {
                return Err(format!("metric {} is not a finite number", def.name));
            }
            Ok(Line {
                def,
                summary: summarize(values),
            })
        })
        .collect()
}

fn round_dir(opts: &Options, tag: &str) -> PathBuf {
    opts.scratch.join(format!(
        "{}-{tag}-{}",
        opts.workload.name,
        std::process::id()
    ))
}

/// The end-to-end pass: harness spans off, product-default telemetry
/// on. [`SETUPS`] set-ups, each ending in one untimed warm-up round,
/// then identical rounds for `seconds` (never fewer than the
/// workload's floor); every metric is its median over the rounds.
fn end_to_end(opts: &Options) -> Result<Report, String> {
    let w = &opts.workload;
    let dir = round_dir(opts, "e2e");
    let off = Tracer::disabled();
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut setup = None;
    for _ in 0..SETUPS {
        // The engines of the previous set-up stop before the next starts.
        drop(setup.take());
        let started = Instant::now();
        let fresh = Setup::new(w, opts.seed, opts.quick)?;
        run_round(w, &fresh, &dir, &off, &mut tally, &mut Samples::default());
        samples.push("setup_s", started.elapsed().as_secs_f64());
        setup = Some(fresh);
    }
    let setup = setup.expect("at least one set-up");
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if (rounds >= w.min_rounds && elapsed >= opts.seconds) || elapsed >= MEASURE_CAP_S {
            break;
        }
        run_round(w, &setup, &dir, &off, &mut tally, &mut samples);
        rounds += 1;
    }
    let report = setup.lineage.build_report();
    samples.push("wire_kb", wire_bytes(&report) as f64 / 1024.0);
    Ok(Report {
        workload: w.name,
        seed: opts.seed,
        trace: false,
        rounds,
        lines: lines(&END_TO_END, &samples)?,
        tally,
        notes: setup.notes.clone(),
    })
}

/// The per-layer pass: one set-up, a warm-up round, alternating
/// untraced and traced rounds for half of `seconds`, then the direct
/// calls into each layer.
fn per_layer(opts: &Options) -> Result<Report, String> {
    let w = &opts.workload;
    let setup = Setup::new(w, opts.seed, opts.quick)?;
    let dir = round_dir(opts, "layers");
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let off = Tracer::disabled();
    let tracer = recording();

    let started = Instant::now();
    run_round(w, &setup, &dir, &off, &mut tally, &mut Samples::default());
    samples.push("harness.warmup_s", started.elapsed().as_secs_f64());

    let min_pairs = w.min_rounds.div_ceil(3);
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let started = Instant::now();
    let mut pairs = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if (pairs >= min_pairs && elapsed >= opts.seconds / 2.0) || elapsed >= MEASURE_CAP_S {
            break;
        }
        run_round(w, &setup, &dir, &off, &mut tally, &mut untraced);
        run_round(w, &setup, &dir, &tracer, &mut tally, &mut traced);
        pairs += 1;
    }
    let wall = |rounds: &Samples| rounds.median("lifecycle_s").expect("rounds ran");
    let (plain, with_spans) = (wall(&untraced), wall(&traced));
    samples.push(
        "harness.trace_overhead_pct",
        (with_spans - plain) / plain * 100.0,
    );
    // What the rounds sampled and this pass restates: every timed
    // end-to-end figure under a `harness.` name, so one that is not
    // (or no longer) gated still has a row in the per-layer table.
    for (from, to) in [
        ("lifecycle_s", "harness.lifecycle_s"),
        ("build_ms", "harness.build_ms"),
        ("audit_ms", "harness.audit_ms"),
        ("refresh_ms", "harness.refresh_ms"),
        ("refresh_audited_ms", "harness.refresh_audited_ms"),
        ("recover_ms", "harness.recover_ms"),
        ("query_qps", "harness.query_qps"),
        ("batch_qps", "harness.batch_qps"),
        ("private_qps", "harness.private_qps"),
        ("private_batch_qps", "harness.private_batch_qps"),
        ("durability.checkpoint_ms", "durability.checkpoint_ms"),
        ("durability.checkpoint_kb", "durability.checkpoint_kb"),
    ] {
        for rounds in [&untraced, &traced] {
            for &v in rounds.get(from).expect("every round samples it") {
                samples.push(to, v);
            }
        }
    }

    // The same round with the pin lifted: what the multi-threaded
    // backends make of every CPU the host offers.
    let mut unpinned = Samples::default();
    on_all_cpus(|| {
        for _ in 0..UNPINNED_ROUNDS {
            run_round(w, &setup, &dir, &off, &mut tally, &mut unpinned);
        }
    });
    for (from, to) in [
        ("lifecycle_s", "unpinned.lifecycle_s"),
        ("build_ms", "unpinned.build_ms"),
        ("refresh_ms", "unpinned.refresh_ms"),
        ("recover_ms", "unpinned.recover_ms"),
    ] {
        for &v in unpinned.get(from).expect("every round samples it") {
            samples.push(to, v);
        }
    }

    // Span-derived figures, one sample per traced round (= one trace).
    let log = tracer.collect();
    let trees: Vec<_> = log
        .trace_ids()
        .into_iter()
        .filter_map(|id| log.span_tree(id))
        .collect();
    tally.check(
        trees.len() == pairs && log.total_dropped() == 0,
        "every traced round survived in the span log",
    );
    let mut notes = setup.notes.clone();
    let mut worst_coverage = f64::MAX;
    for tree in &trees {
        let total = total_ms(tree, "round");
        let share =
            |names: &[&str]| names.iter().map(|n| total_ms(tree, n)).sum::<f64>() / total * 100.0;
        samples.push("audit.certify_ms", total_ms(tree, "audit.certify"));
        samples.push("audit.verify_ms", total_ms(tree, "audit.verify"));
        samples.push(
            "harness.share_mpc_pct",
            share(&["build", "refresh", "recover"]),
        );
        samples.push(
            "harness.share_audit_pct",
            share(&["audit", "refresh_audited"]),
        );
        samples.push(
            "harness.share_delta_recover_pct",
            share(&["refresh", "recover"]),
        );
        samples.push("harness.share_serve_pct", share(&["query"]));
        worst_coverage = worst_coverage.min(coverage(tree));
        samples.push("harness.coverage_pct", coverage(tree) * 100.0);
    }
    tally.check(
        worst_coverage >= MIN_COVERAGE,
        "top-level spans cover 95% of every traced round",
    );
    if let Some(tree) = trees.last() {
        let total = total_ms(tree, "round");
        notes.push(format!("spans of the last traced round ({total:.3} ms):"));
        for row in self_times(tree) {
            notes.push(format!(
                "  {:indent$}{} total_ms={:.3} self_ms={:.3} count={} share={:.1}%",
                "",
                row.name,
                row.total_ms,
                row.self_ms,
                row.count,
                row.total_ms / total * 100.0,
                indent = (row.depth - 1) * 2
            ));
        }
    }
    let (dominant, measured) = match w.dominant {
        Dominant::Mpc => ("mpc", "harness.share_mpc_pct"),
        Dominant::Audit => ("audit", "harness.share_audit_pct"),
        Dominant::DeltaRecover => ("delta_recover", "harness.share_delta_recover_pct"),
        Dominant::Serve => ("serve", "harness.share_serve_pct"),
    };
    let share = samples.median(measured).expect("traced rounds ran");
    notes.push(format!(
        "dominant[{}]: {dominant} phases take {share:.1}% of the round (target > {}%): {}",
        w.name,
        w.target_pct,
        if share > w.target_pct {
            "met"
        } else {
            "NOT met"
        }
    ));

    measure_layers(w, &setup, &dir, &mut samples);
    samples.push("workload.gen_ms", setup.gen_ms);
    samples.push("workload.common_identities", setup.common as f64);
    samples.push("workload.median_answer", setup.median_answer);

    if let Some(path) = &opts.trace_out {
        std::fs::write(path, to_chrome_string(&log))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "chrome trace: {} events written to {}",
            log.total_events(),
            path.display()
        ));
    }
    Ok(Report {
        workload: w.name,
        seed: opts.seed,
        trace: true,
        rounds: pairs * 2,
        lines: lines(&PER_LAYER, &samples)?,
        tally,
        notes,
    })
}

/// Runs the pass `opts` selects.
///
/// # Errors
///
/// A message when set-up rejects a degenerate index, a declared
/// metric was not measured, or the trace file cannot be written.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("creating {}: {e}", opts.scratch.display()))?;
    let host = format!(
        "host: host_threads={}; {}",
        host_threads(),
        if pin_to_one_cpu() {
            "all threads pinned to one cpu (unpinned.* rows apart)"
        } else {
            "NOT pinned (sched_setaffinity refused)"
        }
    );
    let report = if opts.trace {
        per_layer(opts)
    } else {
        end_to_end(opts)
    };
    // Leave nothing behind but an empty scratch directory at most.
    let _ = std::fs::remove_dir(&opts.scratch);
    report.map(|mut report| {
        report.notes.insert(0, host);
        report
    })
}

/// Runs the workload twice back to back on one seed, in both passes,
/// and compares: every end-to-end metric must agree within half its
/// bound, every exact metric bit for bit. Returns the printed table and
/// whether the check passed.
///
/// # Errors
///
/// Same as [`run`].
pub fn selfcheck(opts: &Options) -> Result<(String, bool), String> {
    let mut text = String::new();
    let mut passed = true;
    for trace in [false, true] {
        let opts = Options {
            trace,
            ..opts.clone()
        };
        let (a, b) = (run(&opts)?, run(&opts)?);
        passed &= a.correct() && b.correct();
        let _ = writeln!(
            text,
            "# selfcheck workload={} seed={} pass={} rounds={}+{} checks_failed={}+{}",
            a.workload,
            a.seed,
            if trace { "per_layer" } else { "end_to_end" },
            a.rounds,
            b.rounds,
            a.tally.failed,
            b.tally.failed
        );
        for (x, y) in a.lines.iter().zip(&b.lines) {
            let (first, second) = (x.summary.median, y.summary.median);
            let diff = if first == second {
                0.0
            } else {
                (second - first).abs() / first.abs().max(f64::MIN_POSITIVE)
            };
            let limit = match (x.def.exact, x.def.bound) {
                (true, _) => Some(0.0),
                (false, Some(bound)) => Some(bound / 2.0),
                (false, None) => None,
            };
            let verdict = match limit {
                Some(limit) if diff > limit => {
                    passed = false;
                    "FAIL"
                }
                Some(_) => "ok",
                None => "info",
            };
            let _ = writeln!(
                text,
                "selfcheck {} unit={} run1={} [{} .. {}] n={} run2={} [{} .. {}] n={} rel_diff={:.5} limit={} {}",
                x.def.name,
                x.def.unit,
                first,
                x.summary.q1,
                x.summary.q3,
                x.summary.n,
                second,
                y.summary.q1,
                y.summary.q3,
                y.summary.n,
                diff,
                limit.map_or("none".to_string(), |l| l.to_string()),
                verdict
            );
        }
    }
    let _ = writeln!(
        text,
        "selfcheck {}",
        if passed { "PASSED" } else { "FAILED" }
    );
    Ok((text, passed))
}
