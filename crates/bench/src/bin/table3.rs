//! **Table 3** — GNN-DSE on the four *unseen* kernels (bicg, doitgen,
//! gesummv, 2mm) vs the AutoDSE baseline.
//!
//! The model is trained only on the nine Table 1 kernels, then drives DSE on
//! kernels it has never seen (§5.4). The top-10 candidates are validated
//! with the (simulated) HLS tool in parallel. The AutoDSE baseline runs the
//! bottleneck explorer directly against the tool; its runtime is the sum of
//! the modelled synthesis minutes (capped at the paper's 21 h), exactly the
//! accounting the paper uses.

use design_space::DesignSpace;
use gnn_dse::dse::{run_dse_with_engine, DseConfig};
use gnn_dse::explorer::{BottleneckExplorer, Budget};
use gnn_dse::{Database, ExecEngine, Explorer, Predictor};
use gnn_dse_bench::{human_u128, rule, training_setup, Scale};
use gdse_gnn::ModelKind;
use hls_ir::kernels;
use merlin_sim::MerlinSimulator;
use gnn_dse_bench::{init_obs_from_env, out};

/// AutoDSE gets up to 21 hours of modelled tool time (§5.4).
const AUTODSE_LIMIT_MINUTES: f64 = 21.0 * 60.0;

fn main() {
    init_obs_from_env();
    let scale = Scale::from_env();
    out!("Table 3 — performance on unseen kernels (scale: {})", scale.label());
    out!();

    // Train on the nine training kernels only.
    let (train_kernels, db) = training_setup(scale, 42);
    let t0 = std::time::Instant::now();
    let seeds = if scale == Scale::Tiny { 1 } else { 3 };
    let (predictor, _) = Predictor::train_best_of(
        &db,
        &train_kernels,
        ModelKind::Full,
        scale.model_config(),
        &scale.train_config(),
        seeds,
    );
    let train_wall = t0.elapsed();
    out!("model trained on {} designs in {train_wall:?}", db.len());
    out!();

    let sim = MerlinSimulator::new();
    let mut dse_cfg = DseConfig {
        max_inferences: match scale {
            Scale::Tiny => 2_000,
            Scale::Small => 20_000,
            Scale::Paper => 80_000,
        },
        exhaustive_limit: match scale {
            Scale::Tiny => 4_000,
            _ => 100_000,
        },
        ..DseConfig::default()
    };
    // Ask the DSE for 3 batches worth of candidates: the top 10 are
    // validated in parallel; if none synthesizes to a valid, fitting design,
    // the next batch of 10 is tried (the paper's §4.4 loop likewise commits
    // "a various number of design points" depending on how the top designs
    // perform).
    dse_cfg.top_m = 30;

    out!(
        "{:<10} {:>8} {:>16} {:>14} {:>10} {:>10} {:>12} {:>9}",
        "Kernel", "#pragma", "#configs", "DSE+HLS (m)", "#explored", "AutoDSE(m)", "#A-explored", "speedup"
    );
    rule(98);

    for kernel in kernels::unseen_kernels() {
        let space = DesignSpace::from_kernel(&kernel);

        // --- GNN-DSE ---
        let graph = proggraph::build_graph_bidirectional(&kernel, &space);
        let outcome = run_dse_with_engine(
            &predictor,
            &kernel,
            &space,
            &graph,
            &dse_cfg,
            &ExecEngine::serial(),
        );
        // Validate candidates in parallel batches of 10: each batch costs its
        // slowest synthesis; stop as soon as a batch yields a valid design.
        let mut best_cycles = u64::MAX;
        let mut gnn_dse_minutes = outcome.wall.as_secs_f64() / 60.0;
        for batch in outcome.top.chunks(10) {
            let mut batch_max = 0.0f64;
            for (point, _) in batch {
                let r = sim.evaluate(&kernel, &space, point);
                batch_max = batch_max.max(r.synth_minutes);
                if r.is_valid() && r.util.fits(dse_cfg.util_threshold) {
                    best_cycles = best_cycles.min(r.cycles);
                }
            }
            gnn_dse_minutes += batch_max;
            if best_cycles != u64::MAX {
                break;
            }
        }

        // --- AutoDSE baseline ---
        let mut baseline_db = Database::new();
        let log = BottleneckExplorer::new().explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &kernel,
            &space,
            &mut baseline_db,
            Budget::evals(200),
            &gnn_dse::Objective::latency(),
        );
        let autodse_minutes = log.tool_minutes.min(AUTODSE_LIMIT_MINUTES);
        let autodse_best = log.best.as_ref().map(|(_, r)| r.cycles).unwrap_or(u64::MAX);

        let speedup = autodse_minutes / gnn_dse_minutes.max(1e-9);
        let quality = if best_cycles != u64::MAX && autodse_best != u64::MAX {
            autodse_best as f64 / best_cycles as f64
        } else {
            f64::NAN
        };
        out!(
            "{:<10} {:>8} {:>16} {:>14.1} {:>10} {:>10.1} {:>12} {:>8.0}x   (design quality vs AutoDSE: {:.2}x)",
            kernel.name(),
            space.num_slots(),
            human_u128(space.size()),
            gnn_dse_minutes,
            outcome.inferences,
            autodse_minutes,
            log.evals,
            speedup,
            quality
        );
    }
    rule(98);
    out!();
    out!("paper reference (Table 3): runtime speedups 69x / 11x / 79x / 17x (avg 48x)");
    out!("with design quality within -2%..+5% of AutoDSE.");
}
