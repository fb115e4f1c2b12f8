//! Random explorer (§4.1): uniform configurations the guided explorers skip.

use super::{evaluate_frontier, Budget, Explorer};
use crate::db::Database;
use crate::harness::EvalBackend;
use crate::objective::Objective;
use crate::parallel::ExecEngine;
use design_space::DesignSpace;
use gdse_obs as obs;
use hls_ir::Kernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniform random sampler over the design space (deduplicated, canonical).
#[derive(Debug, Clone)]
pub struct RandomExplorer {
    /// RNG seed.
    pub seed: u64,
}

impl RandomExplorer {
    /// Creates a random explorer.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Explorer for RandomExplorer {
    /// The number of fresh evaluations spent.
    type Log = usize;

    /// Samples random points until the budget is spent, drawing fixed-size
    /// waves and scoring each wave as one batch on the engine's pool.
    ///
    /// The wave size is a constant (not a function of the worker count), so
    /// the RNG stream — and with it the sampled points, the database, and
    /// the eval count — is identical at every `--jobs` setting. Uniform
    /// sampling optimizes nothing, so the objective is ignored: the same
    /// configurations are drawn under every [`Objective`].
    fn explore_scored_with<B: EvalBackend + Sync>(
        &self,
        engine: &ExecEngine,
        eval: &B,
        kernel: &Kernel,
        space: &DesignSpace,
        db: &mut Database,
        budget: Budget,
        _objective: &Objective,
    ) -> usize {
        const WAVE: usize = 64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut evals = 0;
        // Sampling may hit duplicates; bound the attempts so tiny spaces
        // terminate.
        let max_attempts = budget.max_evals.saturating_mul(20).max(64);
        let mut attempts = 0;
        while evals < budget.max_evals && attempts < max_attempts {
            let n = WAVE.min(max_attempts - attempts);
            let wave: Vec<_> = (0..n).map(|_| space.random_point(&mut rng)).collect();
            attempts += n;
            let items =
                evaluate_frontier(engine, eval, kernel, space, &wave, db, evals, budget.max_evals);
            evals += items.iter().filter(|i| i.fresh).count();
        }
        obs::metrics::counter_add_labeled("explorer.evals", "explorer", "random", evals as u64);
        obs::debug!(
            "explorer.done",
            "random: {} evals on {}",
            evals,
            kernel.name();
            explorer = "random",
            kernel = kernel.name(),
            evals = evals,
        );
        evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::kernels;
    use merlin_sim::MerlinSimulator;

    #[test]
    fn random_fills_the_budget_on_large_spaces() {
        let k = kernels::stencil();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let n = RandomExplorer::new(3).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(40),
            &Objective::latency(),
        );
        assert_eq!(n, 40);
        assert_eq!(db.len(), 40);
    }

    #[test]
    fn random_terminates_on_tiny_spaces() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        // Budget exceeds the canonical space; attempts cap must stop it.
        let n = RandomExplorer::new(4).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(1000),
            &Objective::latency(),
        );
        assert!(n <= 45);
        assert!(db.len() <= 45);
    }

    #[test]
    fn wave_sampling_is_jobs_invariant_and_respects_budget() {
        let k = kernels::stencil();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();

        let mut reference: Option<Vec<crate::db::DbEntry>> = None;
        for jobs in [1, 4, 8] {
            let engine = ExecEngine::with_jobs(jobs);
            let mut db = Database::new();
            let n = RandomExplorer::new(3).explore_scored_with(
                &engine,
                &sim,
                &k,
                &space,
                &mut db,
                Budget::evals(40),
                &Objective::latency(),
            );
            assert_eq!(n, 40, "jobs={jobs}");
            match &reference {
                None => reference = Some(db.entries().to_vec()),
                Some(r) => assert_eq!(db.entries(), &r[..], "jobs={jobs}"),
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let k = kernels::spmv_ellpack();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut a = Database::new();
        let mut b = Database::new();
        let obj = Objective::latency();
        RandomExplorer::new(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut a,
            Budget::evals(20),
            &obj,
        );
        RandomExplorer::new(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut b,
            Budget::evals(20),
            &obj,
        );
        assert_eq!(a.entries(), b.entries());
    }
}
