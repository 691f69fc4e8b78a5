//! Runs all four workloads untraced and traced at `--smoke` size
//! (about 1 % of the work, 1 rep) and checks the contract with
//! `BENCHMARK.json`: every declared metric is emitted exactly once,
//! finite, with the declared unit.

#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 4] = ["paper_sweep", "serving_tail", "kernel_apps", "primitives"];

fn declared(list: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(list)
        .expect("list present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_pk-benchmark"))
        .args(["run", "--workload", workload, "--seed", "7", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check(result: &Json, list: &str, context: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{context}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );

    let emitted = result.get("metrics").expect("metrics").as_obj();
    let want = declared(list);
    // Same names, same order, so each exactly once.
    let names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want_names, "{context}");
    for ((name, m), (_, unit)) in emitted.iter().zip(&want) {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {name} = {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{context}: {name}"
        );
        assert_eq!(
            m.as_obj().len(),
            2,
            "{context}: {name} has exactly value and unit"
        );
    }
}

#[test]
fn every_declared_metric_is_emitted_once_with_its_unit() {
    let started = Instant::now();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in WORKLOADS {
        check(
            &run(workload, false, &out),
            "end_to_end",
            &format!("{workload} untraced"),
        );
        check(
            &run(workload, true, &out),
            "per_layer",
            &format!("{workload} traced"),
        );
        assert!(out.join(format!("trace.{workload}.json")).exists());
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "smoke took {:?}",
        started.elapsed()
    );

    // A set compared with itself is the same, counters included.
    let status = Command::new(env!("CARGO_BIN_EXE_pk-benchmark"))
        .arg("compare")
        .args([&out, &out])
        .status()
        .expect("compare runs");
    assert!(status.success());
}

#[test]
fn the_registration_is_well_formed() {
    let legal = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let names: Vec<&str> = WORKLOADS.to_vec();
    let registered: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(registered, names);

    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    assert!(
        per_layer.len() <= 128,
        "{} per-layer metrics",
        per_layer.len()
    );
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        assert!(legal(name, "_.-", 64), "bad metric name {name:?}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name:?}"
        );
        assert!(legal(unit, "_/%.-", 16), "bad unit {unit:?} for {name}");
        assert!(seen.insert(name.as_str()), "{name} is declared twice");
    }
    for m in doc.get("end_to_end").expect("end_to_end").as_arr() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}
