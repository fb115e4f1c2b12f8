//! `dse-sweep`: surrogate-driven DSE over an unseen kernel and two
//! exhaustively enumerated ones.
//!
//! Almost all the time goes to M7 forwards on batches of 64, so any gain in
//! graph lowering, batching, the tape or tensor ops shows here. Nothing runs
//! over the network, there is no backward pass and no cache hit (each
//! kernel gets a fresh engine). One worker: the engine's result is the same
//! at any job count, and a single worker keeps the timing steady on a
//! machine with two cores.

use super::Ctx;
use crate::profile;
use crate::report::{digest, geomean, median, Outcome};
use crate::setup::{self, bits};
use crate::trace::span;
use design_space::DesignSpace;
use gdse_obs::metrics::counter_value;
use gnn_dse::{run_dse_with_engine, DseConfig, DseOutcome, ExecEngine};
use hls_ir::{kernels, Kernel};
use merlin_sim::MerlinSimulator;
use proggraph::ProgramGraph;
use std::time::{Duration, Instant};

/// 2mm (unseen, 59 nodes, heuristic sweep), atax and gesummv (exhaustive
/// after canonicalization: 755 and 222 points).
pub const KERNELS: [&str; 3] = ["2mm", "atax", "gesummv"];

/// The DSE targets with their spaces and program graphs.
pub fn targets() -> Vec<(Kernel, DesignSpace, ProgramGraph)> {
    KERNELS
        .iter()
        .map(|name| {
            let k = kernels::kernel_by_name(name).expect("built-in kernel");
            let space = DesignSpace::from_kernel(&k);
            let graph = proggraph::build_graph_bidirectional(&k, &space);
            (k, space, graph)
        })
        .collect()
}

/// Digest of a DSE result's top list: points and every predicted bit.
fn top_digest(outcome: &DseOutcome) -> String {
    let top: Vec<_> = outcome
        .top
        .iter()
        .map(|(p, pred)| (p, bits(pred)))
        .collect();
    digest(&top)
}

/// Oracle cycles of the default design over those of the best valid top
/// design within the utilization threshold (1 when none is valid).
fn oracle_speedup(k: &Kernel, space: &DesignSpace, outcome: &DseOutcome, threshold: f64) -> f64 {
    let sim = MerlinSimulator::new();
    let base = sim.evaluate(k, space, &space.default_point()).cycles as f64;
    outcome
        .top
        .iter()
        .map(|(p, _)| sim.evaluate(k, space, p))
        .filter(|r| r.is_valid() && r.util.fits(threshold))
        .map(|r| base / r.cycles.max(1) as f64)
        .fold(1.0, f64::max)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let (base, setup_s) = setup::timed(|| setup::base(ctx.seed, ctx.smoke));
    let targets = targets();
    let cfg = DseConfig {
        max_inferences: if ctx.smoke { 128 } else { 512 },
        // A limit no sweep reaches, so every run explores the same points.
        time_limit: Duration::from_secs(3600),
        ..DseConfig::default()
    };
    let mut out = Outcome::default();
    setup::check_batch_matches_single(&base.predictor, &mut out);

    let mut kernel_secs: Vec<Vec<f64>> = vec![Vec::new(); targets.len()];
    let (mut traced_points, mut traced_secs, mut traced_busy_us) = (0usize, 0.0f64, 0u64);
    let mut first: Option<Vec<DseOutcome>> = None;
    let units = ctx.repeat(|t| {
        let mut secs = 0.0;
        let outcomes: Vec<DseOutcome> = span(t, "sweep", || {
            targets
                .iter()
                .enumerate()
                .map(|(i, (k, space, graph))| {
                    span(t, "dse", || {
                        let busy = counter_value("surrogate.busy_us");
                        let began = Instant::now();
                        let engine = ExecEngine::with_jobs(1);
                        let o =
                            run_dse_with_engine(&base.predictor, k, space, graph, &cfg, &engine);
                        let s = began.elapsed().as_secs_f64();
                        kernel_secs[i].push(s);
                        secs += s;
                        if t.is_some() {
                            traced_points += o.inferences;
                            traced_secs += s;
                            traced_busy_us += counter_value("surrogate.busy_us") - busy;
                        }
                        o
                    })
                })
                .collect()
        });
        out.attempted += outcomes.len() as u64;
        out.failed += outcomes.iter().filter(|o| o.top.is_empty()).count() as u64;
        match &first {
            None => first = Some(outcomes),
            Some(f) => {
                for ((o, f), name) in outcomes.iter().zip(f).zip(KERNELS) {
                    out.check(top_digest(o) == top_digest(f), || {
                        format!("{name}: top-10 differs between repetitions")
                    });
                }
            }
        }
        secs
    });
    let first = first.expect("at least one sweep");
    for (o, name) in first.iter().zip(KERNELS) {
        out.check(o.top.iter().all(|(_, p)| setup::finite(p)), || {
            format!("{name}: non-finite prediction in the top list")
        });
        out.exact.push((format!("dse.top10.{name}"), top_digest(o)));
    }
    let speedups: Vec<f64> = targets
        .iter()
        .zip(&first)
        .map(|((k, space, _), o)| oracle_speedup(k, space, o, cfg.util_threshold))
        .collect();
    out.exact_number("dse.best_speedup", geomean(&speedups));

    match ctx.tracer() {
        None => {
            out.push("setup_s", setup_s);
            out.push("peak_rss_mb", median(&units.peak_mb));
            let points: usize = first.iter().map(|o| o.inferences).sum();
            out.push("throughput_per_s", points as f64 / median(&units.plain));
            let per_kernel: Vec<f64> = kernel_secs.iter().map(|s| median(s) * 1e3).collect();
            out.push("latency_ms", geomean(&per_kernel));
        }
        Some(t) => {
            let busy_secs = traced_busy_us as f64 / 1e6;
            out.push("dse.surrogate_share", busy_secs / traced_secs);
            out.push(
                "dse.bookkeeping_us_per_point",
                (traced_secs - busy_secs) * 1e6 / traced_points as f64,
            );
            units.overhead(&mut out);
            profile::inference(t, &base, ctx.smoke, &mut out);
        }
    }
    out
}
