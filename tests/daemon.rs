//! The continuous-learning daemon end to end: predictions keep flowing
//! while the background driver fine-tunes and hot-swaps the model, epochs
//! only ever move forward, a corrupt artifact rolls back without killing
//! the daemon, each learning fact reaches the run report once, a kill +
//! restart resumes the campaign from its persisted checkpoint and replay
//! buffer, and a replay window with no valid design fine-tunes without
//! failing.

use gdse_serve::{Client, Response};
use gnn_dse::{dbgen, Daemon, DaemonConfig, Database, ReplayBuffer};
use hls_ir::kernels;
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .unwrap_or_else(|| panic!("expected a map looking up `{key}`"))
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("field `{key}` missing"))
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i as i64,
        Value::Float(f) => *f as i64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Seed a one-kernel database on disk and return a quick daemon config
/// rooted in `dir`. One kernel keeps each fine-tune round fast enough for
/// an integration test.
fn seeded_config(dir: &Path, rounds: usize, pause: Duration) -> DaemonConfig {
    std::fs::create_dir_all(dir).unwrap();
    let mut cfg = DaemonConfig::quick(dir);
    cfg.rounds.rounds = rounds;
    cfg.round_pause = pause;
    if !cfg.db.exists() {
        let ks = vec![kernels::atax()];
        let db = dbgen::generate_database(&ks, &[], 24, 7);
        db.save(&cfg.db).expect("seed db saves");
    }
    cfg
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn daemon_serves_with_monotone_epochs_and_survives_artifact_corruption() {
    let dir = std::env::temp_dir().join("gnn_dse_daemon_it_swap");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = seeded_config(&dir, 3, Duration::from_millis(1200));
    let artifact = cfg.artifact.clone();

    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr().to_string();
    let handle = daemon.handle();
    let status = daemon.status();
    // `run` folds the daemon's metrics into this thread's registry.
    let run = std::thread::spawn(move || {
        let report = daemon.run();
        (report, gdse_obs::metrics::snapshot())
    });

    let mut client = Client::connect(&addr).expect("connect");
    let predict = |client: &mut Client, id: u64| match client.predict(id, "atax", 3) {
        Ok(Response::Ok { epoch, row, .. }) => (epoch, row),
        other => panic!("client-visible failure under learning: {other:?}"),
    };

    // Serving starts at epoch 1 and keeps answering while the background
    // driver trains; epochs never move backwards.
    let mut last_epoch = 0u64;
    let (first_epoch, _) = predict(&mut client, 1);
    assert_eq!(first_epoch, 1, "fresh daemon serves the bootstrap artifact");
    wait_until("first hot swap", Duration::from_secs(180), || {
        let (epoch, _) = predict(&mut client, 2);
        assert!(epoch >= last_epoch, "epoch went backwards: {last_epoch} -> {epoch}");
        last_epoch = epoch;
        status.swaps() >= 1
    });
    wait_until("cutover to epoch 2", Duration::from_secs(30), || {
        predict(&mut client, 3).0 >= 2
    });
    let (swapped_epoch, swapped_row) = predict(&mut client, 4);

    // Corrupt the artifact on disk, then demand a reload: the provider
    // rejects it, the old epoch keeps serving bit-identical answers, and
    // the failure is visible — but the daemon is not dead.
    std::fs::write(&artifact, b"this is not a gdse artifact").unwrap();
    if let Response::Reloaded { .. } = client.reload_server().expect("reload answers") {
        panic!("corrupt artifact must not be accepted");
    }
    let (epoch_after, row_after) = predict(&mut client, 5);
    assert_eq!(epoch_after, swapped_epoch, "rolled back reload keeps the old epoch");
    assert_eq!(row_after, swapped_row, "old-epoch answers stay bit-identical");

    // The learner's next round rewrites a good artifact and swaps again:
    // corruption cost us nothing but a rejected reload.
    let rounds_before = status.rounds_completed();
    wait_until("post-corruption swap", Duration::from_secs(180), || status.swaps() >= 2);
    wait_until("post-corruption round", Duration::from_secs(180), || {
        status.rounds_completed() > rounds_before
    });
    wait_until("cutover past the rollback", Duration::from_secs(30), || {
        predict(&mut client, 6).0 > swapped_epoch
    });

    // The learn-status verb reads the live driver.
    let ls = client.learn_status().expect("learn-status");
    assert!(as_i64(field(&ls, "round")) >= 1);
    assert!(as_i64(field(&ls, "epoch")) >= 3);
    assert!(as_i64(field(&ls, "swaps")) >= 2);
    assert!(as_i64(field(&ls, "buffer_depth")) > 0);

    drop(client);
    handle.shutdown();
    let (report, snap) = run.join().unwrap();
    let report = report.expect("daemon run");
    assert!(report.learner_error.is_none(), "learner died: {:?}", report.learner_error);
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(count("serve.errors"), 0, "no client predict may fail during swaps");
    assert!(count("serve.reload_failures") >= 1, "the corrupt reload was counted");
    assert!(count("serve.reloads") >= 2);
    assert!(status.swap_failures() == 0, "learner-driven swaps all succeeded");
    // Each learning fact is booked once: the run report's counts equal the
    // learner's own (a fresh directory, so no round was resumed).
    assert_eq!(count("learn.swaps"), status.swaps());
    assert_eq!(count("learn.rounds"), status.rounds_completed());
    assert_eq!(count("learn.swap_failures"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_round_finishing_after_the_server_stopped_still_reaches_the_report() {
    let dir = std::env::temp_dir().join("gnn_dse_daemon_it_late_round");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = seeded_config(&dir, 3, Duration::from_millis(25));
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let handle = daemon.handle();
    let status = daemon.status();
    let run = std::thread::spawn(move || {
        let report = daemon.run();
        (report, gdse_obs::metrics::snapshot())
    });
    // Stop serving while round 2 runs: the learner completes that round
    // after the server has stopped, and books it then.
    wait_until("round 2", Duration::from_secs(180), || {
        status.state() == "round 2" || status.rounds_completed() >= 2
    });
    handle.shutdown();
    let (report, snap) = run.join().unwrap();
    let report = report.expect("daemon run");
    assert!(report.rounds.len() >= 2, "the running round completes");
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(count("learn.rounds"), report.rounds.len() as u64);
    assert_eq!(count("learn.rounds"), status.rounds_completed());
    assert_eq!(count("learn.swaps"), status.swaps());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_restart_resumes_campaign_from_checkpoint_and_replay() {
    let dir = std::env::temp_dir().join("gnn_dse_daemon_it_resume");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = seeded_config(&dir, 3, Duration::from_millis(50));

    // First life: complete at least one round, then die mid-campaign.
    let daemon = Daemon::start(cfg.clone()).expect("daemon starts");
    let handle = daemon.handle();
    let status = daemon.status();
    let run = std::thread::spawn(move || daemon.run());
    wait_until("first round", Duration::from_secs(180), || status.rounds_completed() >= 1);
    handle.shutdown();
    let first = run.join().unwrap().expect("first run");
    let first_rounds = first.rounds.len();
    assert!((1..3).contains(&first_rounds), "died mid-campaign, not after it");
    assert!(cfg.checkpoint.exists(), "checkpoint persisted");
    assert!(cfg.replay.exists(), "replay buffer persisted");

    // Second life: same paths — the campaign resumes where it stopped
    // instead of starting over, with the replay buffer re-hydrated.
    let daemon = Daemon::start(cfg).expect("daemon restarts");
    let addr = daemon.addr().to_string();
    let handle = daemon.handle();
    let status = daemon.status();
    let run = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(&addr).expect("connect");
    let ls = client.learn_status().expect("learn-status");
    assert!(as_i64(field(&ls, "buffer_depth")) > 0, "replay buffer resumed non-empty");

    wait_until("campaign completion", Duration::from_secs(240), || {
        status.state() == "complete"
    });
    drop(client);
    handle.shutdown();
    let second = run.join().unwrap().expect("second run");
    assert!(second.learner_error.is_none());
    assert_eq!(second.rounds.len(), 3, "checkpoint carries every completed round");
    let numbers: Vec<usize> = second.rounds.iter().map(|r| r.round).collect();
    assert_eq!(numbers, vec![1, 2, 3], "rounds resumed in order, none repeated");
    assert!(
        second.rounds.len() > first_rounds,
        "the restart continued the campaign rather than replaying it"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_replay_window_without_a_valid_design_still_completes_the_round() {
    let dir = std::env::temp_dir().join("gnn_dse_daemon_it_invalid_window");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = DaemonConfig::quick(&dir);
    cfg.rounds.rounds = 1;
    cfg.replay_capacity = 4;
    // The valid designs first, then the invalid ones: the window seeded
    // from the newest four entries holds only invalid designs.
    let generated = dbgen::generate_database(&[kernels::gemm_ncubed()], &[], 24, 7);
    let mut db = Database::new();
    let (valid, invalid): (Vec<_>, Vec<_>) =
        generated.entries().iter().partition(|e| e.result.is_valid());
    assert!(!valid.is_empty() && invalid.len() >= cfg.replay_capacity);
    for e in valid.into_iter().chain(invalid) {
        db.insert(&e.kernel, e.point.clone(), e.result);
    }
    let window = ReplayBuffer::seed_from(&db, cfg.replay_capacity).as_database();
    assert_eq!((window.len(), window.valid_count()), (cfg.replay_capacity, 0));
    db.save(&cfg.db).unwrap();

    let daemon = Daemon::start(cfg).expect("daemon starts");
    let handle = daemon.handle();
    let status = daemon.status();
    let run = std::thread::spawn(move || daemon.run());
    wait_until("round 1", Duration::from_secs(180), || status.state() == "complete");
    handle.shutdown();
    let report = run.join().unwrap().expect("the learner does not panic");
    assert!(report.learner_error.is_none(), "learner failed: {:?}", report.learner_error);
    assert_eq!(report.rounds.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
