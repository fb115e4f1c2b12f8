//! Initial-database generation (§4.1 / Fig. 2): run the three explorers on
//! every training kernel with per-kernel budgets sized like Table 1.

use crate::db::Database;
use crate::explorer::{BottleneckExplorer, Budget, Explorer, HybridExplorer, RandomExplorer};
use crate::harness::{EvalBackend, Harness, RetryPolicy};
use crate::objective::Objective;
use crate::parallel::ExecEngine;
use design_space::DesignSpace;
use gdse_obs as obs;
use hls_ir::Kernel;
use merlin_sim::{FaultConfig, FaultyOracle, MerlinSimulator};

/// Per-kernel evaluation budgets of the paper's *initial* database
/// (Table 1, "Initial database # Total").
pub fn table1_budgets() -> Vec<(&'static str, usize)> {
    vec![
        ("aes", 15),
        ("atax", 605),
        ("gemm-blocked", 616),
        ("gemm-ncubed", 432),
        ("mvt", 571),
        ("spmv-crs", 98),
        ("spmv-ellpack", 114),
        ("stencil", 1066),
        ("nw", 911),
    ]
}

/// Scaled-down budgets for fast tests and examples (~15% of Table 1).
pub fn small_budgets() -> Vec<(&'static str, usize)> {
    table1_budgets()
        .into_iter()
        .map(|(k, n)| (k, (n / 7).max(12)))
        .collect()
}

/// Runs the three explorers on one kernel: 40% of the budget to the
/// bottleneck optimizer, 30% to the hybrid explorer, the rest to random
/// sampling, every candidate frontier scored through the engine's worker
/// pool (one batch per frontier, database hits skipped).
fn explore_kernel_with<B: EvalBackend + Sync>(
    engine: &ExecEngine,
    eval: &B,
    kernel: &Kernel,
    space: &DesignSpace,
    db: &mut Database,
    budget: usize,
    seed: u64,
) {
    let before = db.len();
    let greedy_share = (budget * 4) / 10;
    let hybrid_share = (budget * 3) / 10;
    let objective = Objective::latency();
    BottleneckExplorer::new().explore_scored_with(
        engine,
        eval,
        kernel,
        space,
        db,
        Budget::evals(greedy_share),
        &objective,
    );
    HybridExplorer::with_seed(seed).explore_scored_with(
        engine,
        eval,
        kernel,
        space,
        db,
        Budget::evals(hybrid_share),
        &objective,
    );
    let used = db.len() - before;
    let rest = budget.saturating_sub(used);
    RandomExplorer::new(seed ^ 0x9e37_79b9).explore_scored_with(
        engine,
        eval,
        kernel,
        space,
        db,
        Budget::evals(rest),
        &objective,
    );
}

/// Generates the initial database for a set of kernels with the analytical
/// simulator, one kernel after another on a single worker.
///
/// `budgets` maps kernel names to evaluation budgets; kernels without an
/// entry get `default_budget`.
pub fn generate_database(
    kernels: &[Kernel],
    budgets: &[(&str, usize)],
    default_budget: usize,
    seed: u64,
) -> Database {
    let _stage = obs::span::stage("explore");
    let sim = MerlinSimulator::new();
    let mut db = Database::new();
    for (i, k) in kernels.iter().enumerate() {
        let space = DesignSpace::from_kernel(k);
        let budget = budgets
            .iter()
            .find(|(name, _)| *name == k.name())
            .map(|&(_, b)| b)
            .unwrap_or(default_budget);
        let before = db.len();
        let seed = seed.wrapping_add(i as u64);
        explore_kernel_with(&ExecEngine::serial(), &sim, k, &space, &mut db, budget, seed);
        obs::debug!(
            "dbgen.kernel",
            "{}: {} designs recorded (budget {budget})",
            k.name(),
            db.len() - before;
            kernel = k.name(),
            budget = budget,
            recorded = db.len() - before,
        );
    }
    db
}

/// Generates the initial database against an arbitrary evaluation backend
/// (e.g. a retrying [`Harness`] over a fault-injecting oracle) across the
/// engine's worker pool: kernels fan out over the pool (one private
/// database per kernel, merged back in kernel order), and within each
/// kernel the explorers batch their candidate frontiers through the same
/// pool. Points the backend loses to tool failure are skipped; the rest of
/// the campaign proceeds.
///
/// Because each kernel's exploration is independent — keys in the shared
/// database are namespaced by kernel name, and the serial generator
/// processes kernels one after another — the merged database is identical
/// to the serial one at any worker count.
pub fn generate_database_par<B: EvalBackend + Sync>(
    engine: &ExecEngine,
    eval: &B,
    kernels: &[Kernel],
    budgets: &[(&str, usize)],
    default_budget: usize,
    seed: u64,
) -> Database {
    let _stage = obs::span::stage("explore");
    let per_kernel = engine.pool().map(kernels, |i, k| {
        let space = DesignSpace::from_kernel(k);
        let budget = budgets
            .iter()
            .find(|(name, _)| *name == k.name())
            .map(|&(_, b)| b)
            .unwrap_or(default_budget);
        let mut db = Database::new();
        explore_kernel_with(engine, eval, k, &space, &mut db, budget, seed.wrapping_add(i as u64));
        (db, budget)
    });

    let mut db = Database::new();
    for (k, (kernel_db, budget)) in kernels.iter().zip(per_kernel) {
        let added = db.merge(&kernel_db);
        obs::debug!(
            "dbgen.kernel",
            "{}: {} designs recorded (budget {budget})",
            k.name(),
            added;
            kernel = k.name(),
            budget = budget,
            recorded = added,
        );
    }
    db
}

/// Builds the standard resilient backend: the analytical simulator behind a
/// fault injector (per `faults`) behind a retrying harness.
pub fn fault_injected_harness(
    faults: FaultConfig,
    policy: RetryPolicy,
) -> Harness<FaultyOracle<MerlinSimulator>> {
    Harness::new(FaultyOracle::new(MerlinSimulator::new(), faults), policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::kernels;

    #[test]
    fn generates_mixed_quality_database() {
        let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
        let db = generate_database(&ks, &[("gemm-ncubed", 80), ("spmv-ellpack", 40)], 50, 7);
        let stats = db.stats();
        assert_eq!(stats.len(), 2);
        // Both valid and invalid designs should be present for gemm.
        let gemm: Vec<_> = db.of_kernel("gemm-ncubed").collect();
        assert!(gemm.iter().any(|e| e.result.is_valid()));
        assert!(gemm.len() >= 60);
        // Latency diversity: at least 10x between best and worst.
        let (lo, hi) = db.latency_range().unwrap();
        assert!(hi > 10 * lo, "database should span bad-to-good designs: {lo}..{hi}");
    }

    #[test]
    fn budgets_are_approximately_respected() {
        let ks = vec![kernels::stencil()];
        let db = generate_database(&ks, &[("stencil", 60)], 60, 1);
        let total = db.len();
        assert!(total <= 66, "close to the budget, got {total}");
        assert!(total >= 40, "should use most of the budget, got {total}");
    }

    #[test]
    fn deterministic_under_seed() {
        let ks = vec![kernels::spmv_crs()];
        let a = generate_database(&ks, &[], 30, 5);
        let b = generate_database(&ks, &[], 30, 5);
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn parallel_generation_matches_serial_generation() {
        let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack(), kernels::atax()];
        let serial = generate_database(&ks, &[], 30, 5);
        for jobs in [1, 4] {
            let engine = ExecEngine::with_jobs(jobs);
            let par =
                generate_database_par(&engine, &MerlinSimulator::new(), &ks, &[], 30, 5);
            assert_eq!(par.entries(), serial.entries(), "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_generation_is_jobs_invariant_under_faults() {
        let ks = vec![kernels::spmv_crs(), kernels::stencil()];
        let faults = FaultConfig::uniform(0.25, 99);
        let policy = RetryPolicy::with_max_retries(3);
        let mut reference = None;
        for jobs in [1, 8] {
            let engine = ExecEngine::with_jobs(jobs);
            let h = fault_injected_harness(faults, policy);
            let db = generate_database_par(&engine, &h, &ks, &[], 25, 3);
            match &reference {
                None => reference = Some(db),
                Some(r) => assert_eq!(db.entries(), r.entries(), "jobs={jobs}"),
            }
        }
    }
}
