//! The benchmark against its own contract: `BENCHMARK.json` is within the
//! limits the driver enforces, the README documents every name in it, and a
//! real run prints exactly the object the contract describes.

use nice_benchmark::json::{self, Value};
use nice_benchmark::spec::{Metric, Spec, BENCHMARK_JSON, EXECUTE_KINDS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_meets_the_contract() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let spec = Spec::load();

    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert!(command.len() <= 32);
    for word in &command {
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
    }
    // The only file of the repo the command names lies under `paths`.
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    assert!((1..=60).contains(&spec.run_seconds));

    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let mut names = BTreeSet::new();
    for (workload, raw) in spec
        .workloads
        .iter()
        .zip(doc.get("workloads").and_then(Value::as_arr).unwrap())
    {
        assert_eq!(keys(raw), ["name", "why"]);
        assert!(is_name(&workload.name), "{}", workload.name);
        assert!(workload.why.chars().count() <= 200 && !workload.why.contains('\n'));
        assert!(names.insert(&workload.name), "{} twice", workload.name);
    }
    let listed = |key: &str, with_bound: bool, metrics: &[Metric]| {
        let raw = doc.get(key).and_then(Value::as_arr).unwrap();
        assert_eq!(raw.len(), metrics.len());
        for (raw, metric) in raw.iter().zip(metrics) {
            if with_bound {
                assert_eq!(keys(raw), ["name", "unit", "better", "bound"]);
                let bound = metric.bound.unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
            } else {
                assert_eq!(keys(raw), ["name", "unit", "better"]);
            }
            assert!(is_name(&metric.name), "{}", metric.name);
            assert!(is_unit(&metric.unit), "{}", metric.unit);
        }
    };
    listed("end_to_end", true, &spec.end_to_end);
    listed("per_layer", false, &spec.per_layer);
    for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(names.insert(&metric.name), "{} twice", metric.name);
    }

    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("the contract requires setup_s");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    // Set-up time gets the largest bound.
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));

    for kind in EXECUTE_KINDS {
        let name = format!("transition.execute_ns.{kind}");
        assert!(spec.per_layer.iter().any(|m| m.name == name), "{name}");
    }
}

#[test]
fn readme_names_every_workload_and_metric() {
    let readme = include_str!("../README.md");
    let spec = Spec::load();
    let documented = |name: &str| readme.contains(&format!("`{name}`"));
    for workload in &spec.workloads {
        assert!(
            documented(&workload.name),
            "README lacks workload {}",
            workload.name
        );
    }
    for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
        // The per-kind execute times are documented once, as a family.
        if metric.name.starts_with("transition.execute_ns.") {
            assert!(documented("transition.execute_ns.<kind>"));
            continue;
        }
        assert!(
            documented(&metric.name),
            "README lacks metric {}",
            metric.name
        );
    }
}

/// Runs the built `bench` the way `run.sh` does, from the root of the repo.
fn bench(args: &[&str]) -> (bool, String) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(root)
        .output()
        .unwrap();
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn check_driver_line(stdout: &str, listed: &[Metric]) {
    let line = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = line.get("metrics").unwrap();
    let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(keys(metrics), expected);
    for metric in listed {
        let entry = metrics.get(&metric.name).unwrap();
        assert_eq!(keys(entry), ["value", "unit"]);
        assert!(entry.get("value").and_then(Value::as_f64).is_some());
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(metric.unit.as_str())
        );
    }
}

// The quickest workload stands in for all six: the others differ in the
// operation they time, not in how results are assembled, and the served one
// needs the release `nice` binary that only `run.sh` builds.
#[test]
fn a_run_prints_the_driver_line_and_writes_a_well_formed_result() {
    let spec = Spec::load();
    let out = format!("benchmark/out/test-result-{}.json", std::process::id());
    let common = [
        "--workload",
        "table2_bughunt",
        "--seed",
        "5",
        "--seconds",
        "0.2",
    ];

    let (ok, stdout) = bench(&[&common[..], &["--trace", "0", "--out", &out]].concat());
    assert!(ok, "{stdout}");
    check_driver_line(&stdout, &spec.end_to_end);
    for metric in &spec.end_to_end {
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        let value = line
            .get("metrics")
            .unwrap()
            .get(&metric.name)
            .unwrap()
            .get("value");
        assert!(
            value.and_then(Value::as_f64).unwrap() > 0.0,
            "{} is never 0",
            metric.name
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(&out);
    let result = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        result.get("schema").and_then(Value::as_str),
        Some("nice-benchmark-result-v1")
    );
    let workload = result
        .get("workloads")
        .unwrap()
        .get("table2_bughunt")
        .unwrap();
    for metric in &spec.end_to_end {
        let entry = workload.get("end_to_end").unwrap().get(&metric.name);
        assert!(entry.is_some(), "result lacks {}", metric.name);
    }
    for key in [
        "nproc",
        "loadavg_before",
        "loadavg_after",
        "cpu",
        "rustc",
        "commit",
    ] {
        assert!(
            result.get("env").unwrap().get(key).is_some(),
            "env lacks {key}"
        );
    }

    let (ok, stdout) = bench(&[&common[..], &["--trace", "1", "--out", &out]].concat());
    assert!(ok, "{stdout}");
    check_driver_line(&stdout, &spec.per_layer);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let (ok, stdout) = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(stdout.is_empty());
}
