//! `--quick`-scale checks of the benchmark's own contract: the declared
//! schema is what gets printed, exact metrics repeat, a second seed
//! changes the inputs but not the schema, and `BENCHMARK.json` restates
//! the catalogue in `src/spec.rs`.

use eppi_lifecycle_bench::inputs::Setup;
use eppi_lifecycle_bench::run::{run, Options, Report};
use eppi_lifecycle_bench::spec::{workload, workloads, MetricDef, END_TO_END, PER_LAYER};
use eppi_telemetry::json::JsonValue;
use std::path::PathBuf;

fn options(name: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload(name).expect("declared workload").quick(),
        seed,
        seconds: 0.0,
        trace,
        quick: true,
        trace_out: None,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("scratch-{name}")),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every declared metric printed exactly once, in catalogue order,
/// with a finite value; the result line is the object the runner reads
/// (of the end-to-end pass, the gated metrics only).
fn assert_schema(report: &Report, catalogue: &[MetricDef]) {
    let printed: Vec<&str> = report.lines.iter().map(|l| l.def.name).collect();
    let declared: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    assert_eq!(printed, declared, "{}", report.workload);
    assert!(report.correct(), "{}: {:?}", report.workload, report.tally);
    let text = report.to_text();
    for def in catalogue {
        assert!(valid_name(def.name), "{}", def.name);
        let needle = format!("metric {} unit={} ", def.name, def.unit);
        assert_eq!(text.matches(&needle).count(), 1, "{needle}");
    }
    let doc = JsonValue::parse(&report.to_json_line()).expect("result line parses");
    let JsonValue::Object(fields) = &doc else {
        panic!("result line is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert!(doc.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    let JsonValue::Object(metrics) = doc.get("metrics").unwrap() else {
        panic!("metrics is an object");
    };
    let in_result: Vec<&MetricDef> = catalogue
        .iter()
        .filter(|d| report.trace || d.bound.is_some())
        .collect();
    assert_eq!(metrics.len(), in_result.len());
    for ((name, value), def) in metrics.iter().zip(in_result) {
        assert_eq!(name, def.name);
        assert!(value.get("value").and_then(JsonValue::as_f64).is_some());
        assert_eq!(
            value.get("unit").and_then(JsonValue::as_str),
            Some(def.unit)
        );
    }
}

fn assert_exact_metrics_repeat(a: &Report, b: &Report) {
    for (x, y) in a.lines.iter().zip(&b.lines) {
        if x.def.exact {
            assert_eq!(
                x.summary.median.to_bits(),
                y.summary.median.to_bits(),
                "{} differs between two runs of {} on one seed",
                x.def.name,
                a.workload
            );
        }
    }
}

fn check_workload(name: &str) {
    for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let first = run(&options(name, 7, trace)).expect("first run");
        let second = run(&options(name, 7, trace)).expect("second run");
        let other_seed = run(&options(name, 8, trace)).expect("second seed");
        for report in [&first, &second, &other_seed] {
            assert_schema(report, catalogue);
        }
        assert_exact_metrics_repeat(&first, &second);
    }
    let w = workload(name).unwrap().quick();
    let a = Setup::new(&w, 7, true).expect("setup");
    let b = Setup::new(&w, 7, true).expect("setup");
    let c = Setup::new(&w, 8, true).expect("setup");
    assert_eq!(a.lineage.matrix, b.lineage.matrix, "same seed, same inputs");
    assert_eq!(a.lineage.stream, b.lineage.stream);
    assert_ne!(a.lineage.matrix, c.lineage.matrix, "new seed, new inputs");
    assert_ne!(a.lineage.stream, c.lineage.stream);
}

#[test]
fn build_mpc_prints_its_schema_and_repeats() {
    check_workload("build_mpc");
}

#[test]
fn audit_heavy_prints_its_schema_and_repeats() {
    check_workload("audit_heavy");
}

#[test]
fn churn_prints_its_schema_and_repeats() {
    check_workload("churn");
}

#[test]
fn serve_paper_prints_its_schema_and_repeats() {
    check_workload("serve_paper");
}

#[test]
fn traced_pass_writes_a_loadable_chrome_trace() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-quick.json");
    let opts = Options {
        trace_out: Some(path.clone()),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scratch-trace"),
        ..options("build_mpc", 3, true)
    };
    let report = run(&opts).expect("traced run");
    assert!(report.value("harness.coverage_pct").unwrap() >= 95.0);
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    // Complete ("X") events are the spans; the rest name the threads.
    let spans: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    assert!(spans
        .iter()
        .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("round")));
    assert!(spans.iter().all(|e| {
        e.get("ts").and_then(JsonValue::as_f64).is_some()
            && e.get("dur").and_then(JsonValue::as_f64).is_some()
    }));
    let _ = std::fs::remove_file(path);
}

#[test]
fn benchmark_json_restates_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let JsonValue::Object(fields) = &doc else {
        panic!("BENCHMARK.json is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap();
    assert_eq!(list("paths"), [JsonValue::Str("bench".into())]);
    let text =
        |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).unwrap().to_string();

    let declared = workloads();
    assert_eq!(list("workloads").len(), declared.len());
    for (json, w) in list("workloads").iter().zip(declared) {
        assert_eq!(text(json, "name"), w.name);
        assert_eq!(text(json, "why"), w.why);
        assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let gated: Vec<MetricDef> = END_TO_END
        .into_iter()
        .filter(|d| d.bound.is_some())
        .collect();
    assert!(gated.iter().any(|d| d.name == "setup_s"));
    assert_eq!(list("end_to_end").len(), gated.len());
    for (json, def) in list("end_to_end").iter().zip(gated) {
        assert_eq!(text(json, "name"), def.name);
        assert_eq!(text(json, "unit"), def.unit);
        assert_eq!(text(json, "better"), def.better.word());
        let bound = json.get("bound").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(Some(bound), def.bound);
        // The issue's rule: nothing is gated wider than 10 %. `setup_s`
        // is the one metric the runner's contract puts in this table
        // itself, with the widest bound of the table.
        let widest = if def.name == "setup_s" { 0.25 } else { 0.10 };
        assert!(bound > 0.0 && bound <= widest, "{}", def.name);
    }
    assert_eq!(list("per_layer").len(), PER_LAYER.len());
    for (json, def) in list("per_layer").iter().zip(PER_LAYER) {
        assert_eq!(text(json, "name"), def.name);
        assert_eq!(text(json, "unit"), def.unit);
        assert_eq!(text(json, "better"), def.better.word());
        assert!(json.get("bound").is_none() && def.bound.is_none());
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|d| d.name)
        .collect();
    let declared = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), declared, "names are used once");
    // A timing the gate does not carry still has its per-layer row.
    for def in END_TO_END.iter().filter(|d| d.bound.is_none()) {
        let row = format!("harness.{}", def.name);
        assert!(PER_LAYER.iter().any(|d| d.name == row), "{row}");
    }
}
