//! The paper's headline flow (§5.4): train on a set of kernels, then
//! optimize a kernel the model has *never seen* and validate the winners
//! with the HLS tool.
//!
//! ```sh
//! cargo run --release --example optimize_unseen
//! ```

use design_space::DesignSpace;
use gnn_dse::dse::{run_dse_with_engine, DseConfig};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, ExecEngine, Predictor};
use gdse_gnn::{ModelConfig, ModelKind};
use hls_ir::kernels;
use merlin_sim::MerlinSimulator;
use proggraph::build_graph_bidirectional;

fn main() {
    // Train on three matrix/vector kernels...
    let train_kernels = vec![kernels::gemm_ncubed(), kernels::atax(), kernels::mvt()];
    let db = dbgen::generate_database(
        &train_kernels,
        &[("gemm-ncubed", 150), ("atax", 150), ("mvt", 150)],
        150,
        11,
    );
    println!("training database: {} designs from 3 kernels", db.len());
    let (predictor, _) = Predictor::train(
        &db,
        &train_kernels,
        ModelKind::Full,
        ModelConfig { hidden: 32, gnn_layers: 4, mlp_layers: 4, seed: 42 },
        &TrainConfig { epochs: 40, batch_size: 32, lr: 1e-3, seed: 0, grad_clip: 5.0 },
    );

    // ...then optimize gesummv, which the model has never seen.
    let unseen = kernels::gesummv();
    let space = DesignSpace::from_kernel(&unseen);
    println!(
        "\nunseen kernel `{}`: {} pragmas, {} configurations",
        unseen.name(),
        space.num_slots(),
        space.size()
    );

    let graph = build_graph_bidirectional(&unseen, &space);
    let cfg = DseConfig::default();
    let outcome =
        run_dse_with_engine(&predictor, &unseen, &space, &graph, &cfg, &ExecEngine::serial());
    println!(
        "DSE: {} inferences in {:?} ({})",
        outcome.inferences,
        outcome.wall,
        if outcome.exhaustive { "exhaustive" } else { "heuristic order" }
    );

    // Validate the top designs with the HLS tool (top-10, run in parallel in
    // the paper's flow).
    let sim = MerlinSimulator::new();
    let baseline = sim.evaluate(&unseen, &space, &space.default_point());
    println!("\nbaseline (no pragmas): {} cycles", baseline.cycles);
    println!("top designs after HLS validation:");
    let mut best = u64::MAX;
    for (rank, (point, pred)) in outcome.top.iter().enumerate() {
        let truth = sim.evaluate(&unseen, &space, point);
        if truth.is_valid() {
            best = best.min(truth.cycles);
        }
        println!(
            "  #{:<2} predicted {:>9} cycles | actual {:>9} ({}) | {}",
            rank + 1,
            pred.cycles,
            truth.cycles,
            truth.validity,
            point.describe(space.slots())
        );
    }
    if best != u64::MAX {
        println!(
            "\nbest validated design: {} cycles — {:.0}x faster than the unoptimized kernel",
            best,
            baseline.cycles as f64 / best as f64
        );
    }
}
