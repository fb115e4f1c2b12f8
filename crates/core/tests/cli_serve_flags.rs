//! `serve` and `daemon` share one parser for their server flags, and it
//! rejects a zero queue, batch, replica or job count with `error: …` and
//! exit code 1 instead of starting a server that cannot answer.

use gdse_gnn::{ModelConfig, ModelKind};
use gnn_dse::{dbgen, ArtifactMeta, Normalizer, Predictor};
use hls_ir::kernels;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `gnndse args` and checks it exits 1 with `error: {want}` on stderr
/// within a minute; a command that starts serving is killed instead.
fn assert_rejected(args: &[&str], want: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gnndse"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gnndse binary runs");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on gnndse") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} still running after a minute: it started a server");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{args:?}\nstderr:\n{stderr}");
    assert!(stderr.contains(&format!("error: {want}")), "{args:?}: want `{want}`\n{stderr}");
}

#[test]
fn zero_counts_are_rejected_by_serve_and_daemon() {
    let dir = std::env::temp_dir().join("gnn_dse_cli_serve_flags");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A servable model and a database, so that only the zero can stop them.
    let (model, db) = (dir.join("model.gdse"), dir.join("db.json"));
    let config = ModelConfig::small();
    let predictor = Predictor::untrained(ModelKind::Full, config, Normalizer::with_factor(1e6));
    let meta = ArtifactMeta::describe(&predictor, &["stencil".to_string()], 0);
    predictor.save_artifact(&model, &meta).unwrap();
    dbgen::generate_database(&[kernels::stencil()], &[], 20, 5).save(&db).unwrap();

    let (model, db) = (model.to_str().unwrap(), db.to_str().unwrap());
    let serve = ["serve", "--model", model, "--addr", "127.0.0.1:0"];
    let daemon = ["daemon", "--db", db, "--model", model, "--addr", "127.0.0.1:0"];
    for command in [&serve[..], &daemon[..]] {
        for flag in ["--queue", "--batch", "--replicas", "--jobs"] {
            let args = [command, &[flag, "0"]].concat();
            assert_rejected(&args, &format!("{flag} must be at least 1"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
