//! Database generation with the explorers of §4.1 and Pareto analysis of
//! the result.
//!
//! ```sh
//! cargo run --release --example explore_database
//! ```

use design_space::DesignSpace;
use gnn_dse::explorer::{BottleneckExplorer, Budget, HybridExplorer, RandomExplorer};
use gnn_dse::{pareto_front, Database, Evaluated, ExecEngine, Explorer, Objective};
use hls_ir::kernels;
use merlin_sim::MerlinSimulator;

fn main() {
    let kernel = kernels::stencil();
    let space = DesignSpace::from_kernel(&kernel);
    let sim = MerlinSimulator::new();
    let mut db = Database::new();
    // Every explorer is parameterized by an Objective; the default latency
    // objective reproduces the classic "minimize cycles under eq. 7".
    let objective = Objective::latency();

    // 1. The AutoDSE-style bottleneck optimizer finds high-quality designs.
    let log = BottleneckExplorer::new().explore_scored_with(
        &ExecEngine::serial(),
        &sim,
        &kernel,
        &space,
        &mut db,
        Budget::evals(80),
        &objective,
    );
    println!(
        "bottleneck: {} evals, {:.0} modelled tool-minutes, best = {:?} cycles",
        log.evals,
        log.tool_minutes,
        log.best.as_ref().map(|(_, r)| r.cycles)
    );

    // 2. The hybrid explorer adds neighbors of the incumbents.
    let log = HybridExplorer::with_seed(1).explore_scored_with(
        &ExecEngine::serial(),
        &sim,
        &kernel,
        &space,
        &mut db,
        Budget::evals(60),
        &objective,
    );
    println!("hybrid    : db now {} entries (best {:?})", db.len(), log.best.map(|(_, r)| r.cycles));

    // 3. The random explorer covers what the guided ones skip.
    RandomExplorer::new(2).explore_scored_with(
        &ExecEngine::serial(),
        &sim,
        &kernel,
        &space,
        &mut db,
        Budget::evals(60),
        &objective,
    );
    println!("random    : db now {} entries", db.len());

    // Database statistics (the Table 1 shape).
    for (name, stats) in db.stats() {
        println!("\nkernel {name}: {} total / {} valid designs", stats.total, stats.valid);
    }
    if let Some((lo, hi)) = db.latency_range() {
        println!("latency range: {lo} .. {hi} cycles ({}x spread)", hi / lo.max(1));
    }

    // Pareto frontier over (cycles, DSP, BRAM, LUT, FF).
    let results: Vec<Evaluated> = db
        .of_kernel(kernel.name())
        .map(|e| Evaluated::new(e.point.clone(), e.result, 0, &objective))
        .collect();
    let front = pareto_front(&results);
    println!("\nPareto-optimal designs ({} of {}):", front.len(), results.len());
    let mut rows: Vec<_> = front
        .iter()
        .map(|&i| (results[i].result.cycles, results[i].result.counts.dsp, results[i].point.clone()))
        .collect();
    rows.sort_by_key(|(c, d, _)| (*c, *d));
    for (cycles, dsp, point) in rows.iter().take(8) {
        println!("  {:>9} cycles, {:>5} DSPs  {}", cycles, dsp, point.describe(space.slots()));
    }
}
