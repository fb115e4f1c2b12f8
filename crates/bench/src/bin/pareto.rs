//! **Multi-objective Pareto DSE** — validated fronts vs. the latency-only
//! pick, and the learned GFlowNet-style sampler vs. random exploration.
//!
//! For every one of the 13 kernels, the bench runs the random explorer and
//! the GFlowNet trajectory sampler against the analytical oracle at the
//! *same* evaluation budget and seed, then builds Pareto fronts over
//! (cycles, DSP, BRAM, LUT, FF) from each explorer's evaluations.
//!
//! Asserts, per kernel:
//!
//! * the union front is non-empty and contains a point that **weakly
//!   dominates the latency-only pick** (the min-cycles feasible design seen
//!   by either explorer) — multi-objective search never costs latency;
//!
//! and in aggregate:
//!
//! * the GFlowNet sampler's front hypervolume (normalized per kernel,
//!   deterministic Monte-Carlo estimate against a shared reference point)
//!   is **at least the random explorer's** at the same budget.
//!
//! Writes `BENCH_pareto.json` with every figure printed. `GNNDSE_SCALE`
//! selects the evaluation budget as for every other harness binary.

use design_space::DesignSpace;
use gnn_dse::explorer::{Budget, GFlowExplorer, RandomExplorer};
use gnn_dse::pareto::{hypervolume, weakly_dominates, AXES};
use gnn_dse::{Database, Evaluated, ExecEngine, Explorer, Objective, ParetoArchive};
use gnn_dse_bench::{init_obs_from_env, out, rule, Scale};
use merlin_sim::MerlinSimulator;

/// Monte-Carlo samples per hypervolume estimate (seeded, deterministic).
const HV_SAMPLES: usize = 8192;
/// Shared explorer seed: both explorers start from the same stream.
const SEED: u64 = 7;

#[derive(serde::Serialize)]
struct KernelReport {
    kernel: String,
    eval_budget: usize,
    front_size: usize,
    latency_pick_cycles: u64,
    front_dominates_latency_pick: bool,
    hv_random: f64,
    hv_gflow: f64,
}

#[derive(serde::Serialize)]
struct ParetoBenchReport {
    scale: String,
    eval_budget: usize,
    hv_samples: usize,
    kernels: Vec<KernelReport>,
    /// Per-kernel max-normalized hypervolume totals: each kernel
    /// contributes hv/max(hv_random, hv_gflow), so no kernel's absolute
    /// cycle scale dominates the aggregate.
    hv_random_norm_total: f64,
    hv_gflow_norm_total: f64,
}

/// The feasible-front axes of one kernel's evaluations in `db`.
fn front_axes_of(db: &Database, kernel: &str, objective: &Objective) -> Vec<[f64; AXES]> {
    let mut archive: ParetoArchive<()> = ParetoArchive::unbounded();
    for e in db.of_kernel(kernel) {
        if objective.feasible_result(&e.result) {
            let ev = Evaluated::new(e.point.clone(), e.result, 0, objective);
            archive.insert(ev.axes(), ());
        }
    }
    archive.front_axes()
}

fn main() {
    init_obs_from_env();
    let scale = Scale::from_env();
    // The sampler needs a few waves of online updates before its policy
    // departs from uniform, so even the smoke scale grants 120 evals (the
    // oracle is analytical — this is still seconds of wall clock).
    let eval_budget = match scale.label() {
        "paper" => 240,
        _ => 120,
    };
    let sim = MerlinSimulator::new();
    let objective = Objective::latency();
    let ks = hls_ir::kernels::all_kernels();
    assert_eq!(ks.len(), 13, "the paper's 13 kernels");

    out!("Multi-objective Pareto DSE (scale: {}, budget: {eval_budget} evals/explorer)", scale.label());
    out!();
    out!(
        "{:<14} {:>6} {:>12} {:>10} {:>14} {:>14}",
        "kernel",
        "front",
        "latency pick",
        "dominated",
        "hv(random)",
        "hv(gflow)"
    );
    rule(76);

    let mut reports = Vec::new();
    let (mut nr_total, mut ng_total) = (0.0f64, 0.0f64);
    for kernel in &ks {
        let space = DesignSpace::from_kernel(kernel);

        let mut db_random = Database::new();
        RandomExplorer::new(SEED).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            kernel,
            &space,
            &mut db_random,
            Budget::evals(eval_budget),
            &objective,
        );
        let mut db_gflow = Database::new();
        GFlowExplorer::with_seed(SEED).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            kernel,
            &space,
            &mut db_gflow,
            Budget::evals(eval_budget),
            &objective,
        );

        let mut union = db_random.clone();
        union.merge(&db_gflow);

        // The latency-only pick: min feasible cycles over everything either
        // explorer evaluated.
        let pick = union
            .of_kernel(kernel.name())
            .filter(|e| objective.feasible_result(&e.result))
            .min_by_key(|e| e.result.cycles)
            .unwrap_or_else(|| panic!("{}: no feasible design in {} evals", kernel.name(), 2 * eval_budget));
        let pick_axes = Evaluated::new(pick.point.clone(), pick.result, 0, &objective).axes();
        let pick_cycles = pick.result.cycles;

        let union_front = front_axes_of(&union, kernel.name(), &objective);
        assert!(!union_front.is_empty(), "{}: empty Pareto front", kernel.name());
        let dominated = union_front.iter().any(|f| weakly_dominates(f, &pick_axes));
        assert!(
            dominated,
            "{}: no front point weakly dominates the latency-only pick",
            kernel.name()
        );

        // Hypervolume of each explorer's own front against one shared
        // reference that strictly exceeds both fronts on every axis.
        let front_r = front_axes_of(&db_random, kernel.name(), &objective);
        let front_g = front_axes_of(&db_gflow, kernel.name(), &objective);
        let mut reference = [0.0f64; AXES];
        for p in front_r.iter().chain(&front_g) {
            for (i, v) in p.iter().enumerate() {
                reference[i] = reference[i].max(*v);
            }
        }
        for r in &mut reference {
            *r += 1.0;
        }
        let hv_r = hypervolume(&front_r, &reference, HV_SAMPLES, SEED);
        let hv_g = hypervolume(&front_g, &reference, HV_SAMPLES, SEED);
        let m = hv_r.max(hv_g);
        if m > 0.0 {
            nr_total += hv_r / m;
            ng_total += hv_g / m;
        }

        out!(
            "{:<14} {:>6} {:>12} {:>10} {:>14.3e} {:>14.3e}",
            kernel.name(),
            union_front.len(),
            pick_cycles,
            "yes",
            hv_r,
            hv_g
        );
        reports.push(KernelReport {
            kernel: kernel.name().to_string(),
            eval_budget,
            front_size: union_front.len(),
            latency_pick_cycles: pick_cycles,
            front_dominates_latency_pick: dominated,
            hv_random: hv_r,
            hv_gflow: hv_g,
        });
    }
    rule(76);
    out!(
        "normalized hypervolume totals: random {:.3} | gflow {:.3} (higher is better)",
        nr_total,
        ng_total
    );
    assert!(
        ng_total >= nr_total,
        "gflow sampler must reach at least the random explorer's hypervolume \
         at equal budget: gflow {ng_total:.3} < random {nr_total:.3}"
    );

    let report = ParetoBenchReport {
        scale: scale.label().to_string(),
        eval_budget,
        hv_samples: HV_SAMPLES,
        kernels: reports,
        hv_random_norm_total: nr_total,
        hv_gflow_norm_total: ng_total,
    };
    let out_path = "BENCH_pareto.json";
    std::fs::write(out_path, serde_json::to_string_pretty(&report).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    out!();
    out!("wrote {out_path}");
}
