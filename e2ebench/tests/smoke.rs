//! Smoke test: every workload at tiny scale, untraced and traced. The
//! result line must carry exactly the metrics `BENCHMARK.json` names for
//! that mode, each with its unit, and no operation may fail.

use std::path::PathBuf;
use std::process::Command;

use fgh_trace::json::{self, Value};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload; returns the facts and result lines.
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--tiny"])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: no facts and result lines");
    let facts = json::parse(lines[lines.len() - 2]).expect("facts line parses");
    let result = json::parse(lines[lines.len() - 1]).expect("result line parses");
    (facts, result)
}

fn names_and_units(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_fails_nothing() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (facts, result) = run(w, 7, trace);
            let ctx = format!("{w} trace {trace}: {}", result.to_json());
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{ctx}");
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{ctx}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{ctx}"
            );
            let failed_share = facts
                .get("facts")
                .and_then(|f| f.get("failed_share"))
                .and_then(Value::as_f64);
            assert_eq!(failed_share, Some(0.0), "{ctx}");
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics");
            let want = names_and_units(&bench, key);
            assert_eq!(metrics.len(), want.len(), "{ctx}");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{ctx}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{ctx}: {name}"
                );
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite() && v >= 0.0, "{ctx}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{ctx}: end-to-end {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn quality_metrics_repeat_exactly_for_a_seed() {
    for w in ["decompose-spmv", "cg-solve"] {
        let value = |r: &Value, name: &str| {
            r.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect("metric")
        };
        let (first_facts, first) = run(w, 11, 0);
        let (second_facts, second) = run(w, 11, 0);
        for name in ["volume_words", "max_load_ratio"] {
            assert_eq!(value(&first, name), value(&second, name), "{w}: {name}");
        }
        let iterations = |f: &Value| f.get("facts").and_then(|f| f.get("cg_iterations")).cloned();
        assert_eq!(
            iterations(&first_facts),
            iterations(&second_facts),
            "{w}: cg_iterations"
        );
    }
}
