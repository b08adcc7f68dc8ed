//! The benchmark's own checks: the wrappers change no result, and every
//! workload runs end to end at a tiny size, emitting exactly the metrics
//! `BENCHMARK.json` declares.

use crate::layers::construction_check;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run, RunConfig};
use crate::workloads::{Size, ALL};
use drs_telemetry::check::{parse, validate_chrome_trace, Value};
use std::path::PathBuf;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drs-benchmark-{tag}-{}", std::process::id()))
}

/// `(name, unit)` of every metric in section `key` of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field =
        |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
    let mut out: Vec<(String, String)> = doc
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    out.sort();
    out
}

fn sorted(decl: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        decl.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    out.sort();
    out
}

#[test]
fn declared_metrics_and_workloads_match_benchmark_json() {
    assert_eq!(sorted(&END_TO_END), declared("end_to_end"));
    assert_eq!(sorted(&PER_LAYER), declared("per_layer"));
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Value::as_str).expect("workload field");
            (field("name"), field("why"))
        })
        .collect();
    assert_eq!(workloads, ALL.iter().map(|w| (w.name, w.why)).collect::<Vec<_>>());
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
}

#[test]
fn every_workload_has_a_golden() {
    for w in ALL {
        assert!(crate::golden(w.name).is_some(), "no golden digest for {}", w.name);
    }
}

#[test]
fn wrapped_engines_match_the_harness_for_every_method() {
    let (checked, failures) = construction_check();
    assert_eq!(checked, 8);
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Run one workload at the tiny size and return its metrics.
fn smoke(w: &crate::workloads::Workload, trace: bool) -> crate::metrics::Values {
    let dir = temp_dir(&format!("{}-{}", w.name, u8::from(trace)));
    let cfg = RunConfig {
        seed: 1,
        seconds: 0,
        trace,
        size: Size::Tiny,
        work_dir: dir.clone(),
        golden: None,
    };
    let out = run(w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert_eq!(out.failed, 0, "{}: {} of {} checks failed", w.name, out.failed, out.attempted);
    let decl = if trace { declared("per_layer") } else { declared("end_to_end") };
    let emitted: Vec<String> = out.metrics.keys().map(ToString::to_string).collect();
    assert_eq!(emitted, decl.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(), "{}", w.name);
    if trace {
        let text = |ext: &str| {
            std::fs::read_to_string(dir.join("trace").join(format!("{}.{ext}.json", w.name)))
                .expect("trace file written")
        };
        let summary =
            validate_chrome_trace(&text("trace")).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(summary.duration_events > 0);
        // Engine self time plus every special unit's time is the traced
        // cells' wall time.
        let layers = parse(&text("layers")).expect("layers file parses");
        let cell_wall: f64 = layers
            .get("cells")
            .and_then(Value::as_arr)
            .expect("cells")
            .iter()
            .map(|c| c.get("wall_s").and_then(Value::as_num).expect("wall_s"))
            .sum();
        let m = &out.metrics;
        let special: f64 = ["drs", "dmk", "tbc"]
            .iter()
            .map(|u| {
                m[format!("special.{u}.tick_s").as_str()]
                    + m[format!("special.{u}.issue_s").as_str()]
            })
            .sum();
        assert!((m["engine.self_s"] + special - cell_wall).abs() < 1e-6, "{}: time split", w.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.metrics
}

#[test]
fn every_workload_runs_end_to_end_at_tiny_size() {
    for w in &ALL {
        let e2e = smoke(w, false);
        assert!(e2e.values().all(|v| *v > 0.0), "{}: an end-to-end metric is 0: {e2e:?}", w.name);
        let layers = smoke(w, true);
        let unit_used = |u: &str| layers[format!("special.{u}.issue_calls").as_str()] > 0.0;
        assert_eq!(
            unit_used("drs"),
            matches!(w.name, "drs" | "sparse" | "compare" | "chip"),
            "{}",
            w.name
        );
        assert_eq!(unit_used("dmk"), w.name == "compare", "{}", w.name);
        assert_eq!(layers["chip.threads2_speedup"] > 0.0, w.name == "chip", "{}", w.name);
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let parse_args = |args: &[&str]| crate::parse_args(args.iter().map(ToString::to_string));
    assert!(parse_args(&["--workload", "aila", "--seed", "7", "--seconds", "3", "--trace", "1"])
        .is_ok());
    for bad in [
        &[][..],
        &["--workload", "bogus"],
        &["--workload", "aila", "--trace", "2"],
        &["--workload", "aila", "--seed", "x"],
        &["--workload", "aila", "--frob", "1"],
        &["--workload"],
    ] {
        assert!(parse_args(bad).is_err(), "{bad:?} accepted");
    }
}
