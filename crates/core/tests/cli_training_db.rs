//! Every command that trains on a database read from disk (`train`,
//! `rounds`, and `daemon` before its bootstrap training) rejects an
//! untrainable one with `error: …` and exit code 1 instead of panicking.

use gnn_dse::{dbgen, Database};
use hls_ir::kernels;
use std::path::PathBuf;
use std::process::Command;

/// A working directory of its own for each test.
fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnn_dse_cli_training_db_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed_db() -> Database {
    dbgen::generate_database(&[kernels::stencil()], &[], 30, 5)
}

/// Runs each training command on `db` and checks it exits 1 with
/// `error: <db path> <reason>` on stderr.
fn assert_rejected(name: &str, db: &Database, reason: &str) {
    let dir = work_dir(name);
    let db_path = dir.join("db.json");
    db.save(&db_path).unwrap();
    let (model, out) = (dir.join("m.gdse"), dir.join("out.json"));
    let [db_arg, model_arg, out_arg] = [&db_path, &model, &out].map(|p| p.to_str().unwrap());
    let runs: [Vec<&str>; 3] = [
        vec!["train", db_arg, "--save", model_arg, "--epochs", "1"],
        vec!["rounds", db_arg, "--rounds", "1", "--out", out_arg],
        vec![
            "daemon",
            "--db",
            db_arg,
            "--model",
            model_arg,
            "--addr",
            "127.0.0.1:0",
        ],
    ];
    for args in runs {
        let output = Command::new(env!("CARGO_BIN_EXE_gnndse"))
            .args(&args)
            .output()
            .expect("gnndse binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}\nstderr:\n{stderr}");
        let expected = format!("error: {} {reason}", db_path.display());
        assert!(
            stderr.contains(&expected),
            "{args:?}: want `{expected}`\nstderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}\nstderr:\n{stderr}");
        assert!(!model.exists() && !out.exists(), "{args:?} wrote an output");
    }
}

#[test]
fn an_empty_database_is_rejected() {
    assert_rejected("empty", &Database::new(), "contains no designs");
}

#[test]
fn a_database_naming_an_unknown_kernel_is_rejected() {
    let mut db = seed_db();
    let e = db.entries()[0].clone();
    db.insert("nope", e.point, e.result);
    assert_rejected("unknown", &db, "names unknown kernel `nope`");
}

#[test]
fn a_database_without_a_valid_design_is_rejected() {
    let mut db = Database::new();
    for e in seed_db().entries().iter().filter(|e| !e.result.is_valid()) {
        db.insert(&e.kernel, e.point.clone(), e.result);
    }
    assert!(!db.is_empty(), "the seed database needs invalid designs");
    assert_rejected(
        "no_valid",
        &db,
        "contains no valid design to train the regressors on",
    );
}
