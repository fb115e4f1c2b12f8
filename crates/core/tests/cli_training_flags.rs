//! A zero count that would make training a no-op is rejected: `train
//! --epochs 0`, `daemon --train-epochs 0` and `daemon --replay-capacity 0`
//! exit 1 with `error: --<flag> must be at least 1` and write nothing.

use gnn_dse::dbgen;
use hls_ir::kernels;
use std::process::Command;

#[test]
fn zero_epochs_and_replay_capacity_are_rejected_before_anything_is_written() {
    let dir = std::env::temp_dir().join("gnn_dse_cli_training_flags");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.json");
    dbgen::generate_database(&[kernels::stencil()], &[], 20, 5)
        .save(&db)
        .unwrap();
    let model = dir.join("m.gdse");
    let log = dir.join("log.jsonl");
    let (db, model, log) = (
        db.to_str().unwrap(),
        model.to_str().unwrap(),
        log.to_str().unwrap(),
    );

    let daemon = [
        "daemon",
        "--db",
        db,
        "--model",
        model,
        "--addr",
        "127.0.0.1:0",
        "--log-json",
        log,
    ];
    let runs: [(Vec<&str>, &str); 3] = [
        (
            vec!["train", db, "--save", model, "--epochs", "0"],
            "--epochs",
        ),
        (
            [&daemon[..], &["--train-epochs", "0"]].concat(),
            "--train-epochs",
        ),
        (
            [&daemon[..], &["--replay-capacity", "0"]].concat(),
            "--replay-capacity",
        ),
    ];
    for (args, flag) in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_gnndse"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}\nstderr:\n{stderr}");
        let want = format!("error: {flag} must be at least 1");
        assert!(stderr.contains(&want), "{args:?}: want `{want}`\n{stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name != "db.json")
            .collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
