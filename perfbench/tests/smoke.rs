//! Smoke run of every workload at the tiny size, in both modes: every
//! metric `BENCHMARK.json` names is emitted with its unit, and the output
//! checks pass.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::json::parse;
use serde::Value;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field =
                |key| m.get(key).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The result line and the failed-check lines of one run.
fn run(workload: &str, trace: &str) -> (Value, String) {
    // A directory per run: the benchmark writes its checkpoint and span
    // files under its working directory, and tests run in parallel.
    let dir: PathBuf =
        [env!("CARGO_TARGET_TMPDIR"), &format!("smoke-{workload}-{trace}")].iter().collect();
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--tiny")
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} trace {trace} failed:\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("result line '{last}' is not JSON: {e:?}"));
    let failed_checks: Vec<&str> = stderr.lines().filter(|l| l.contains("CHECK FAILED")).collect();
    let failed_checks = failed_checks.join("\n");
    (result, failed_checks)
}

fn check(workload: &str, trace: &str, section: &str) {
    let (result, failed_checks) = run(workload, trace);
    let metrics = result.get("metrics").expect("metrics");
    let declared = declared(section);
    for (name, unit) in &declared {
        let metric = metrics.get(name).unwrap_or_else(|| panic!("{workload}: no metric {name}"));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload}: {name} has no value");
    }
    let Value::Object(fields) = metrics else { panic!("metrics is not an object") };
    assert_eq!(fields.len(), declared.len(), "{workload}: undeclared metrics emitted");
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{failed_checks}");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{failed_checks}");
}

#[test]
fn paper_regen_emits_every_end_to_end_metric() {
    check("paper_regen", "0", "end_to_end");
}

#[test]
fn design_sweeps_emits_every_end_to_end_metric() {
    check("design_sweeps", "0", "end_to_end");
}

#[test]
fn cluster_checkpointed_emits_every_end_to_end_metric() {
    check("cluster_checkpointed", "0", "end_to_end");
}

#[test]
fn paper_regen_emits_every_per_layer_metric() {
    check("paper_regen", "1", "per_layer");
}

#[test]
fn design_sweeps_emits_every_per_layer_metric() {
    check("design_sweeps", "1", "per_layer");
}

#[test]
fn cluster_checkpointed_emits_every_per_layer_metric() {
    check("cluster_checkpointed", "1", "per_layer");
}

#[test]
fn bad_arguments_are_rejected_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "paper_regen", "--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
