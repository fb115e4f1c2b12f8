//! Runs every workload at smoke size, untraced and traced, and checks the
//! results against BENCHMARK.json: every declared metric is printed with
//! its unit, every per-layer metric is measured by a workload, the
//! correctness checks pass, and `compare` fails a tampered result, a
//! missing workload and a changed exact result.

use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_gdse-bench");
const WORKLOADS: [&str; 4] = ["dse-sweep", "train-epochs", "serve-open", "rounds-campaign"];

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
}

/// `(name, unit)` of every metric in the spec's `section`.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    field(spec, section)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs one workload and returns its result object (the last stdout line).
fn run(workload: &str, trace: bool, dir: &Path, out: &Path) -> Value {
    let output = Command::new(EXE)
        .args(["run", "--workload", workload, "--seed", "3", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(dir)
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric_and_passes_its_checks() {
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(spec_path()).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let dir = scratch("workloads");
    let out = dir.join("results.jsonl");
    let mut measured = BTreeSet::new();
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace, &dir, &out);
            let keys: Vec<&str> = result
                .as_map()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(field(&result, "failed"), &Value::Int(0), "{workload}");
            assert!(matches!(field(&result, "attempted"), Value::Int(n) if *n >= 1));
            let metrics = field(&result, "metrics").as_map().expect("metrics object");
            let want = declared(&spec, section);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload}: metric count ({section})"
            );
            for (name, unit) in want {
                let m = &metrics
                    .iter()
                    .find(|(k, _)| *k == name)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` missing ({section})"))
                    .1;
                assert_eq!(
                    field(m, "unit").as_str(),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
                match field(m, "value") {
                    Value::Float(v) => assert!(v.is_finite(), "{workload}: {name} = {v}"),
                    other => panic!("{workload}: {name} is not a number: {other:?}"),
                }
            }
            // The record lists only what the run measured itself (a run
            // that misses a metric it owns fails its checks above), and
            // the exact results.
            let text = std::fs::read_to_string(&out).expect("records");
            let record: Value =
                serde_json::from_str(text.lines().last().expect("a record")).expect("JSON");
            let names: Vec<String> = field(&record, "metrics")
                .as_map()
                .expect("metrics object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert!(!names.is_empty(), "{workload}: measured nothing");
            if trace {
                measured.extend(names);
                let spans = dir.join(format!("spans-{workload}.jsonl"));
                let text = std::fs::read_to_string(&spans).expect("spans file written");
                assert!(text.lines().count() > 0, "{workload}: no spans");
            }
            let exact = field(&record, "exact").as_map().expect("exact object");
            assert!(
                exact.iter().any(|(k, _)| k == "model.probe"),
                "{workload}: {exact:?}"
            );
        }
    }
    let declared: BTreeSet<String> = declared(&spec, "per_layer")
        .into_iter()
        .map(|m| m.0)
        .collect();
    assert_eq!(
        measured, declared,
        "the traced workloads measure every per-layer metric"
    );
}

#[test]
fn compare_flags_a_tampered_result_as_a_regression() {
    let dir = scratch("compare");
    let out = dir.join("measured.jsonl");
    run("train-epochs", false, &dir, &out);
    let record = std::fs::read_to_string(&out).expect("result record");
    let record = record.trim();
    // Three copies of the measured record: a parent set with no spread.
    let parent = dir.join("parent.jsonl");
    std::fs::write(&parent, format!("{record}\n{record}\n{record}\n")).expect("parent set");

    let mut v: Value = serde_json::from_str(record).expect("record parses");
    let Value::Map(fields) = &mut v else {
        panic!("record is an object")
    };
    let (_, metrics) = fields
        .iter_mut()
        .find(|(k, _)| k == "metrics")
        .expect("metrics");
    let Value::Map(metrics) = metrics else {
        panic!("metrics is an object")
    };
    let (_, latency) = metrics
        .iter_mut()
        .find(|(k, _)| k == "latency_ms")
        .expect("latency");
    let Value::Map(latency) = latency else {
        panic!("metric is an object")
    };
    let (_, value) = latency
        .iter_mut()
        .find(|(k, _)| k == "value")
        .expect("value");
    let Value::Float(ms) = value else {
        panic!("value is a float")
    };
    *ms *= 2.0;
    let tampered = serde_json::to_string(&v).expect("record serializes");
    let change = dir.join("change.jsonl");
    std::fs::write(&change, format!("{tampered}\n{tampered}\n{tampered}\n")).expect("change set");

    // The same record as a second workload: a parent set the change set
    // only partly covers.
    let other = record.replace(
        "\"workload\":\"train-epochs\"",
        "\"workload\":\"dse-sweep\"",
    );
    assert_ne!(other, record);
    let two = dir.join("two.jsonl");
    std::fs::write(&two, format!("{record}\n{record}\n{other}\n{other}\n")).expect("two set");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").expect("empty set");
    // The record with one exact result changed.
    let exact_start = record.find("\"model.probe\":\"").expect("model.probe") + 15;
    let mut moved = record.to_string();
    let flipped = if &moved[exact_start..=exact_start] == "0" {
        "1"
    } else {
        "0"
    };
    moved.replace_range(exact_start..=exact_start, flipped);
    let drifted = dir.join("drifted.jsonl");
    std::fs::write(&drifted, format!("{moved}\n{moved}\n{moved}\n")).expect("drifted set");

    let compare = |a: &Path, b: &Path| {
        Command::new(EXE)
            .arg("compare")
            .args([a, b])
            .arg("--spec")
            .arg(spec_path())
            .output()
            .expect("compare starts")
    };
    let same = compare(&parent, &parent);
    let text = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "identical sets must pass: {text}");
    assert!(
        !text.contains("regressed") && !text.contains("improved"),
        "{text}"
    );

    let worse = compare(&parent, &change);
    let text = String::from_utf8_lossy(&worse.stdout);
    assert_eq!(
        worse.status.code(),
        Some(1),
        "a regression must fail the gate: {text}"
    );
    let line = text
        .lines()
        .find(|l| l.contains("latency_ms"))
        .expect("latency verdict");
    assert!(line.ends_with("regressed"), "{line}");

    for (change, what, why) in [
        (&empty, "an empty change set", "missing from the change set"),
        (
            &parent,
            "a workload the change set lacks",
            "missing from the change set",
        ),
        (&drifted, "a changed exact result", "exact model.probe"),
    ] {
        let base = if change == &parent { &two } else { &parent };
        let run = compare(base, change);
        let text = String::from_utf8_lossy(&run.stdout);
        assert_eq!(
            run.status.code(),
            Some(1),
            "{what} must fail the gate: {text}"
        );
        assert!(text.contains(why), "{what}: {text}");
    }
}
