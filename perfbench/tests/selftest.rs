//! Self-test: every workload, run at minimum size, prints exactly the
//! metrics `BENCHMARK.json` names, each with its unit, and the `tune-long`
//! trace covers the GP, pass, link and simulator layers.

use perfbench::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// `(name, unit)` of every metric listed under `kind` in `BENCHMARK.json`.
fn catalogue(kind: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid");
    doc.get(kind)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{kind}' list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload at minimum size; returns the printed `metric` names and
/// the `metrics` object of the result line, checked for shape.
fn run(workload: &str, trace: bool) -> (Vec<String>, BTreeMap<String, (f64, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "min"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| l.split(" = ").next().unwrap_or("").to_string())
        .collect();
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
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
            .unwrap_or(0.0)
            >= 1.0,
        "{workload}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let fields: Vec<&str> = m
                .as_obj()
                .expect("metric object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(fields, ["value", "unit"], "{workload}: {name}");
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    (printed, metrics)
}

#[test]
fn every_workload_prints_exactly_the_catalogued_metrics() {
    let end_to_end = catalogue("end_to_end");
    let per_layer = catalogue("per_layer");
    for workload in ["tune-long", "sweep-short", "serve-mix"] {
        for trace in [false, true] {
            let (printed, metrics) = run(workload, trace);
            let want = if trace { &per_layer } else { &end_to_end };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, (_, unit))| (k.clone(), unit.clone()))
                .collect();
            assert_eq!(
                &got, want,
                "{workload} (trace {trace}): metric names or units differ"
            );
            for name in &printed {
                assert!(
                    end_to_end.contains_key(name) || per_layer.contains_key(name),
                    "{workload} printed uncatalogued metric {name}"
                );
            }
            if workload == "tune-long" && trace {
                for layer in ["gp.fit_s", "passes.self_s", "ir.link_s", "sim.execute_s"] {
                    assert!(
                        metrics[layer].0 > 0.0,
                        "tune-long trace does not cover {layer}"
                    );
                }
            }
        }
    }
}
