//! The benchmark's metric catalog, `BENCHMARK.json` and what the binary
//! actually prints must agree: every workload at smoke size, untraced and
//! traced, emits exactly the declared metric names and fails no
//! operation.

use crace_e2e_bench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crace_e2e_bench::schema::validate_benchmark;
use crace_obs::json::{self, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    validate_benchmark(&text).expect("BENCHMARK.json passes the schema");
    json::parse(&text).expect("valid JSON")
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn declared(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| field(m, "name").to_string())
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let doc = benchmark_json();
    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(listed, WORKLOADS.to_vec());

    for (key, catalog) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = doc.get(key).and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), catalog.len(), "{key}");
        for (entry, m) in entries.iter().zip(catalog) {
            assert_eq!(field(entry, "name"), m.name, "{key}");
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.word(), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }
}

#[test]
fn smoke_runs_emit_the_declared_metrics_and_fail_nothing() {
    let doc = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(&doc, key);
        want.sort();
        for (workload, _) in WORKLOADS {
            let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
                .args([
                    "--workload",
                    workload,
                    "--smoke",
                    "--seed",
                    "7",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run e2e");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = json::parse(stdout.lines().last().unwrap_or_default())
                .unwrap_or_else(|e| panic!("{workload}: bad result line ({e}):\n{stdout}"));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            let attempted = result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            assert!(attempted >= 1.0, "{workload}: nothing attempted");
            let mut got: Vec<String> = result
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap_or_default()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}
