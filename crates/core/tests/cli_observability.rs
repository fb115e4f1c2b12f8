//! The `gnndse` binary end-to-end: `rounds --metrics-out` must leave a
//! parseable `run_report.json` with non-zero stage timings, `--log-json`
//! must capture the run as JSONL, and the oracle log lines must tell the
//! same totals as the report.

use gdse_obs::RunReport;
use gnn_dse::dbgen;
use hls_ir::kernels;
use std::process::Command;

#[test]
fn rounds_cli_writes_a_valid_run_report_and_jsonl_log() {
    let dir = std::env::temp_dir().join("gnn_dse_cli_obs_it");
    std::fs::create_dir_all(&dir).unwrap();
    let db_path = dir.join("db.json");
    let out_path = dir.join("db_out.json");
    let report_path = dir.join("run_report.json");
    let log_path = dir.join("log.jsonl");

    // A one-kernel database keeps the CLI run to a few seconds.
    let ks = vec![kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[("spmv-ellpack", 30)], 30, 5);
    db.save(&db_path).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_gnndse"))
        .args([
            "rounds",
            db_path.to_str().unwrap(),
            "--rounds",
            "1",
            "--out",
            out_path.to_str().unwrap(),
            "--metrics-out",
            report_path.to_str().unwrap(),
            "--log-json",
            log_path.to_str().unwrap(),
            "--log-level",
            "debug",
        ])
        .output()
        .expect("gnndse binary runs");
    assert!(
        output.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    // The report parses, carries the command, and times the pipeline stages.
    let report =
        RunReport::from_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.command, "rounds");
    assert!(report.total_wall_us > 0);
    for stage in ["io", "setup", "train", "dse", "validate"] {
        assert!(report.stage_us(stage) > 0, "stage `{stage}` untimed: {:?}", report.stages);
    }
    assert!(report.stages_total_us() <= report.total_wall_us);

    // The JSONL log contains the per-round record with its structured fields.
    let log = std::fs::read_to_string(&log_path).unwrap();
    assert!(!log.is_empty(), "--log-json must capture records");
    for line in log.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("each line is one JSON object");
        let map = v.as_map().expect("records are objects");
        assert!(map.iter().any(|(k, _)| k == "event"), "record has an event: {line}");
    }
    assert!(log.contains("\"event\":\"rounds.round\""), "round record missing:\n{log}");
    assert!(log.contains("\"event\":\"rounds.done\""), "done record missing:\n{log}");

    for f in [&db_path, &out_path, &report_path, &log_path] {
        std::fs::remove_file(f).ok();
    }
}

/// Runs `gnndse` with `args` and checks it succeeds.
fn gnndse(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_gnndse"))
        .args(args)
        .output()
        .expect("gnndse binary runs");
    assert!(output.status.success(), "{args:?}\n{}", String::from_utf8_lossy(&output.stderr));
}

/// Checks that the `event` record of the JSONL log at `log` carries each
/// `(field, value)` pair.
fn assert_logged(log: &str, event: &str, fields: &[(&str, u64)]) {
    let log = std::fs::read_to_string(log).unwrap();
    let record = log
        .lines()
        .find(|l| l.contains(&format!("\"event\":\"{event}\"")))
        .unwrap_or_else(|| panic!("no `{event}` record:\n{log}"));
    for (name, value) in fields {
        let field = format!("\"{name}\":{value}");
        assert!(
            record.contains(&format!("{field},")) || record.contains(&format!("{field}}}")),
            "{record} lacks {field}"
        );
    }
}

#[test]
fn resumed_rounds_oracle_line_matches_the_run_report() {
    let dir = std::env::temp_dir().join("gnn_dse_cli_obs_resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    dbgen::generate_database(&[kernels::spmv_ellpack()], &[("spmv-ellpack", 30)], 30, 5)
        .save(&dir.join("db.json"))
        .unwrap();
    let (db, out, ck) = (path("db.json"), path("out.json"), path("ck.json"));
    let (log, report) = (path("log.jsonl"), path("report.json"));
    let campaign = |extra: &[&str]| {
        let mut args = vec!["rounds", &db, "--rounds", "2", "--checkpoint", &ck, "--out", &out];
        args.extend(["--fault-rate", "0.2", "--fault-seed", "7", "--metrics-out", &report]);
        gnndse(&[&args[..], extra].concat());
    };
    let read_report = || RunReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();

    // Killed after round 1, then resumed: the resumed run's log line counts
    // the whole campaign, as its report does.
    campaign(&["--stop-after", "1"]);
    assert!(read_report().oracle.attempts > 0, "round 1 must call the oracle");
    campaign(&["--resume", "--log-json", &log]);
    let report = read_report();
    let retries = report.counters.iter().find(|(n, _)| n == "oracle.retries").map_or(0, |c| c.1);
    let oracle = &report.oracle;
    let fields = [
        ("attempts", oracle.attempts),
        ("lost", oracle.lost),
        ("virtual_backoff_ms", oracle.virtual_backoff_ms),
        ("retries", retries),
    ];
    assert_logged(&log, "rounds.oracle", &fields);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gendb_oracle_line_counts_only_retried_failures() {
    let dir = std::env::temp_dir().join("gnn_dse_cli_obs_retries");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (db, log, report) = (path("db.json"), path("log.jsonl"), path("report.json"));
    // Every attempt fails, and none may be retried.
    let faults = ["--fault-rate", "1.0", "--max-retries", "0"];
    let outputs = ["--log-json", &log, "--metrics-out", &report];
    gnndse(&[&["gendb", &db, "3", "1"], &faults[..], &outputs[..]].concat());
    let report = RunReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let oracle = &report.oracle;
    assert!(oracle.transient_failures > 0, "a 100% fault rate must fail attempts");
    let fields = [("retries", 0), ("attempts", oracle.attempts), ("lost", oracle.lost)];
    assert_logged(&log, "gendb.oracle", &fields);
    let _ = std::fs::remove_dir_all(&dir);
}
