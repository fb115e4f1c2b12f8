//! `rounds-campaign`: the Fig. 7 loop through the whole system.
//!
//! Each campaign fine-tunes the set-up model, explores three kernels,
//! validates the top designs through a fault-injecting oracle behind the
//! retrying harness on the exec pool, and writes a checkpoint every round. This is the path that collapsing the rounds entry points
//! must leave unchanged.

use super::Ctx;
use crate::report::{median, Outcome};
use crate::setup;
use crate::trace::span;
use gdse_gnn::ModelKind;
use gdse_obs::metrics;
use gnn_dse::rounds::{run_rounds_with_engine, RoundReport, RoundsConfig};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, DseConfig, ExecEngine, RetryPolicy};
use hls_ir::kernels;
use merlin_sim::FaultConfig;
use std::time::{Duration, Instant};

/// Kernels of the campaign: one exhaustive, two swept heuristically.
const KERNELS: [&str; 3] = ["gemm-ncubed", "spmv-ellpack", "stencil"];
/// Exec pool workers. One: results are the same at any count, and with
/// two the campaign time spread 43% across eight runs against 17% with
/// one, interleaved on the same two-core host, as two workers need both
/// cores at once and so feel every other load on the host.
const JOBS: usize = 1;
/// Seeded transient fault rate of the oracle.
const FAULT_RATE: f64 = 0.02;

/// Sum of every counter whose name starts with `prefix`.
fn counter_sum(prefix: &str) -> u64 {
    metrics::snapshot()
        .counters_with_prefix(prefix)
        .map(|(_, v)| v)
        .sum()
}

/// Counters read around each campaign, in this order.
const COUNTERS: [&str; 11] = [
    "stage.train.busy_us",
    "stage.dse.busy_us",
    "stage.validate.busy_us",
    "stage.checkpoint.busy_us",
    "exec.worker_busy_us",
    "exec.cache_hits",
    "exec.cache_misses",
    "oracle.attempts",
    "oracle.retries",
    "rounds.validations_lost",
    "surrogate.inferences",
];

fn counters() -> [u64; 11] {
    COUNTERS.map(counter_sum)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let ks: Vec<_> = KERNELS
        .iter()
        .map(|n| kernels::kernel_by_name(n).expect("built-in kernel"))
        .collect();
    let ((base, campaign_db), setup_s) = setup::timed(|| {
        let db = dbgen::generate_database(&ks, &[], if ctx.smoke { 10 } else { 30 }, ctx.seed);
        (setup::base(ctx.seed, ctx.smoke), db)
    });
    let cfg = RoundsConfig {
        rounds: if ctx.smoke { 1 } else { 2 },
        model: ModelKind::Full,
        model_cfg: setup::model_config(),
        // Fine-tuning runs a third of these epochs.
        train_cfg: TrainConfig::paper().with_epochs(6),
        dse: DseConfig {
            exhaustive_limit: 1_000,
            max_inferences: if ctx.smoke { 64 } else { 384 },
            time_limit: Duration::from_secs(3600),
            ..DseConfig::default()
        },
        fine_tune: true,
        fine_tune_initial: true,
        initial_model: Some(base.predictor.clone()),
        stop_after: None,
    };
    let checkpoint = ctx.work_dir.join("campaign.ck.json");
    let mut out = Outcome::default();
    setup::check_batch_matches_single(&base.predictor, &mut out);

    let mut first: Option<Vec<RoundReport>> = None;
    let (mut traced_delta, mut traced_wall) = ([0u64; 11], 0.0);
    // Designs scored per campaign: surrogate inferences plus oracle
    // evaluations (the same in every campaign of a run).
    let mut scored = 0;
    let units = ctx.repeat(|t| {
        let _ = std::fs::remove_file(&checkpoint);
        let mut db = campaign_db.clone();
        let engine = ExecEngine::with_jobs(JOBS);
        let harness = dbgen::fault_injected_harness(
            FaultConfig::uniform(FAULT_RATE, ctx.seed),
            RetryPolicy::with_max_retries(8),
        );
        let before = counters();
        let began = Instant::now();
        let reports = span(t, "campaign", || {
            run_rounds_with_engine(
                &mut db,
                &ks,
                &cfg,
                &harness,
                Some(&checkpoint),
                false,
                &engine,
            )
        })
        .expect("checkpoints under the work directory are writable");
        let secs = began.elapsed().as_secs_f64();
        let after = counters();
        let delta: [u64; 11] = std::array::from_fn(|i| after[i] - before[i]);
        if t.is_some() {
            traced_wall += secs;
            for (acc, d) in traced_delta.iter_mut().zip(delta) {
                *acc += d;
            }
        } else {
            scored = delta[7] + delta[10];
        }
        for r in &reports {
            for k in &r.kernels {
                out.attempted += (k.added + k.lost) as u64;
                out.failed += k.lost as u64;
            }
            out.check(r.avg_speedup.is_finite(), || {
                format!("round {}: avg speedup", r.round)
            });
        }
        match &first {
            None => first = Some(reports),
            Some(f) => out.check(*f == reports, || {
                "campaign reports differ between runs".into()
            }),
        }
        secs
    });
    let _ = std::fs::remove_file(&checkpoint);
    let reports = first.expect("at least one campaign");
    let last = reports.last().expect("at least one round");
    out.exact_number("rounds.avg_speedup", last.avg_speedup);
    out.exact_digest("rounds.reports", &format!("{reports:?}"));

    match ctx.tracer() {
        None => {
            out.push("setup_s", setup_s);
            out.push("peak_rss_mb", median(&units.peak_mb));
            out.push("throughput_per_s", scored as f64 / median(&units.plain));
            out.push("latency_ms", median(&units.plain) * 1e3 / cfg.rounds as f64);
        }
        Some(_) => {
            let wall_us = traced_wall * 1e6;
            let n = units.traced.len() as f64;
            let d = traced_delta.map(|v| v as f64);
            out.push("rounds.train_share", d[0] / wall_us);
            out.push("rounds.dse_share", d[1] / wall_us);
            out.push("rounds.validate_share", d[2] / wall_us);
            out.push("rounds.checkpoint_share", d[3] / wall_us);
            out.push("exec.parallel_efficiency", d[4] / (JOBS as f64 * wall_us));
            out.push("exec.cache_hit_ratio", d[5] / (d[5] + d[6]).max(1.0));
            out.push("oracle.evals", d[7] / n);
            out.push("oracle.retries", d[8] / n);
            out.push("rounds.validations_lost", d[9] / n);
            units.overhead(&mut out);
        }
    }
    out
}
