//! Every command that takes a model reads a `.gdse` artifact and nothing
//! else: a model file in any other format, such as the JSON models earlier
//! builds wrote, is rejected with `error: …` and exit code 1 instead of
//! panicking, and `train` refuses to run without `--save`.

use gdse_gnn::{ModelConfig, ModelKind};
use gnn_dse::{dbgen, Normalizer, Predictor};
use hls_ir::kernels;
use std::path::{Path, PathBuf};

/// An empty working directory of its own for each test.
fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnn_dse_cli_model_files_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small database to `dir/db.json` and returns its path.
fn write_db(dir: &Path) -> String {
    let path = dir.join("db.json");
    dbgen::generate_database(&[kernels::stencil()], &[], 30, 5)
        .save(&path)
        .unwrap();
    path.to_str().unwrap().to_string()
}

/// Runs `gnndse` in `dir` and checks it exits 1 with `error: ` and `want`
/// on stderr, without panicking.
fn assert_fails(dir: &Path, args: &[&str], want: &str) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gnndse"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("gnndse binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}\nstderr:\n{stderr}");
    assert!(
        stderr.contains("error: ") && stderr.contains(want),
        "{args:?}: want `{want}`\nstderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}\nstderr:\n{stderr}");
}

#[test]
fn a_model_file_that_is_not_an_artifact_is_rejected() {
    let dir = work_dir("json_model");
    let db = write_db(&dir);
    // The JSON a predictor serializes to: what `train <db> model.json`
    // wrote before `.gdse` became the only model file.
    let predictor = Predictor::untrained(
        ModelKind::Full,
        ModelConfig::small(),
        Normalizer::with_factor(1_000_000.0),
    );
    let model = dir.join("model.json");
    std::fs::write(&model, serde_json::to_string(&predictor).unwrap()).unwrap();
    let model = model.to_str().unwrap();
    let out = dir.join("out.json");
    let runs: [&[&str]; 4] = [
        &["dse", "stencil", "--model", model, "--jobs", "1"],
        &["predict", model, "stencil", "0"],
        &[
            "rounds",
            &db,
            "--rounds",
            "1",
            "--model",
            model,
            "--out",
            out.to_str().unwrap(),
        ],
        &["serve", "--model", model, "--addr", "127.0.0.1:0"],
    ];
    for args in runs {
        assert_fails(&dir, args, "not a GDSE model artifact (bad magic)");
        assert!(!out.exists(), "{args:?} wrote an output");
    }
}

#[test]
fn train_without_save_writes_nothing() {
    let dir = work_dir("train_without_save");
    let db = write_db(&dir);
    let runs: [&[&str]; 3] = [
        &["train", &db],
        &["train", &db, "--epochs", "1"],
        // The positional model path and epoch count of the JSON format.
        &["train", &db, "model.json", "1"],
    ];
    for args in runs {
        assert_fails(
            &dir,
            args,
            "error: usage: gnndse train <db.json> --save model.gdse",
        );
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, ["db.json"], "{args:?} wrote a file");
    }
}
