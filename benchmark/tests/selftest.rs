//! Self-test of the benchmark itself: every workload, untraced and traced,
//! on a window far too short to judge speed by (no bound is enforced).
//! Checks the contract: the result object, every metric name of
//! `BENCHMARK.json` present with a finite value and its unit, legal names,
//! and the same seed giving the same `output_digest`.

use fqbert_serve::{json, Json};
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "seq128_b1",
    "wide768_b8_s32",
    "queue_open_s16",
    "wire_unique",
    "wire_hot",
];

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(
        std::fs::read_to_string(path)
            .expect("BENCHMARK.json")
            .trim(),
    )
    .expect("valid JSON")
}

/// `(name, unit)` of every metric listed under `section`.
fn listed(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary once; returns the result object and the digest.
fn run(workload: &str, trace: bool) -> (Json, String) {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest");
    let output = Command::new(env!("CARGO_BIN_EXE_fqbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--segments", "1"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("spawn fqbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output_digest "))
        .expect("digest line")
        .to_string();
    let result = json::parse(stdout.lines().last().expect("result line")).expect("result JSON");
    (result, digest)
}

fn check_result(workload: &str, result: &Json, expected: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let entry = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let value = entry.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
}

#[test]
fn names_in_benchmark_json_are_legal() {
    let spec = spec();
    let legal = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<String> = listed(&spec, "end_to_end")
        .into_iter()
        .chain(listed(&spec, "per_layer"))
        .map(|(name, _)| name)
        .collect();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    names.extend(workloads.iter().map(|w| w.to_string()));
    for name in &names {
        assert!(legal(name), "illegal name {name}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(listed(&spec, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_digest() {
    let spec = spec();
    let end_to_end = listed(&spec, "end_to_end");
    let per_layer = listed(&spec, "per_layer");
    for workload in WORKLOADS {
        let (first, first_digest) = run(workload, false);
        check_result(workload, &first, &end_to_end);
        let (_, second_digest) = run(workload, false);
        assert_eq!(
            first_digest, second_digest,
            "{workload}: same seed, same digest"
        );
        let (traced, _) = run(workload, true);
        check_result(workload, &traced, &per_layer);
    }
}

#[test]
fn refuses_environment_switches_and_unknown_workloads() {
    let exe = env!("CARGO_BIN_EXE_fqbench");
    let status = Command::new(exe)
        .args([
            "--workload",
            "seq128_b1",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("FQBERT_THREADS", "2")
        .output()
        .expect("spawn");
    assert!(!status.status.success());
    assert!(status.stdout.is_empty(), "no result may be printed");
    let status = Command::new(exe)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn");
    assert!(!status.status.success());
}
