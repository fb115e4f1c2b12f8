//! `train-epochs`: repeated `Predictor::train` of the M7 surrogate.
//!
//! The same tensor ops as inference plus backward and Adam, with graph
//! lowering repeated for every sample. This is the workload where writes
//! sit beside reads: an inference-only change, such as dropping the tape
//! from `predict_batch`, must leave it unchanged.

use super::Ctx;
use crate::profile;
use crate::report::{median, Outcome};
use crate::setup::{self, bits};
use crate::trace::span;
use design_space::DesignSpace;
use gdse_gnn::ModelKind;
use gnn_dse::trainer::eval_regression;
use gnn_dse::{dbgen, Dataset, Predictor};
use hls_ir::kernels;
use std::time::Instant;

/// Seed offset of the held-out database the RMSE is measured on.
const HOLDOUT_SEED: u64 = 0x5eed_0ff5;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let ((base, holdout), setup_s) = setup::timed(|| {
        let holdout = dbgen::generate_database(
            &kernels::training_kernels(),
            &[],
            if ctx.smoke { 4 } else { 8 },
            ctx.seed ^ HOLDOUT_SEED,
        );
        (setup::base(ctx.seed, ctx.smoke), holdout)
    });
    let cfg = setup::train_config(ctx.smoke);
    let mut out = Outcome::default();
    setup::check_batch_matches_single(&base.predictor, &mut out);

    // Every training run must reproduce the set-up's model bit for bit:
    // same database, same seeds.
    let probe_kernel = kernels::mm2();
    let space = DesignSpace::from_kernel(&probe_kernel);
    let graph = proggraph::build_graph_bidirectional(&probe_kernel, &space);
    let probe: Vec<_> = (0..16u128)
        .map(|i| space.point_at(i * 104_729 % space.size()))
        .collect();
    let expect: Vec<[u64; 6]> = base
        .predictor
        .predict_batch(&graph, &probe)
        .iter()
        .map(bits)
        .collect();

    let mut last = None;
    let units = ctx.repeat(|t| {
        let began = Instant::now();
        let (p, ds) = span(t, "train", || {
            Predictor::train(
                &base.db,
                &base.kernels,
                ModelKind::Full,
                setup::model_config(),
                &cfg,
            )
        });
        let secs = began.elapsed().as_secs_f64();
        out.attempted += 1;
        let got: Vec<[u64; 6]> = p.predict_batch(&graph, &probe).iter().map(bits).collect();
        out.check(got == expect, || {
            "a training run did not reproduce the set-up model".into()
        });
        last = Some((p, ds));
        secs
    });
    let (p, ds) = last.expect("at least one training run");
    // The classifier sees every sample; both regressors the valid ones.
    let samples = ((ds.len() + 2 * ds.valid_indices().len()) * cfg.epochs) as f64;
    let holdout = Dataset::from_database_with_normalizer(&holdout, &base.kernels, *p.normalizer());
    let rmse = eval_regression(p.regressor(), &holdout, &holdout.valid_indices()).total();
    out.check(rmse.is_finite(), || format!("holdout RMSE is {rmse}"));
    out.exact_number("train.holdout_rmse", rmse);

    match ctx.tracer() {
        None => {
            out.push("setup_s", setup_s);
            out.push("peak_rss_mb", median(&units.peak_mb));
            out.push("throughput_per_s", samples / median(&units.plain));
            out.push("latency_ms", median(&units.plain) * 1e3);
        }
        Some(t) => {
            units.overhead(&mut out);
            profile::training(t, &base, ctx.smoke, &mut out);
        }
    }
    out
}
