//! Simulated-annealing explorer — the classic model-free DSE baseline the
//! paper's related work cites (Mahapatra & Schafer's ML-SA line), included
//! for baseline comparisons against the bottleneck optimizer and the
//! GNN-driven DSE.

use super::{evaluate_into_db_with, Budget, Explorer};
use crate::db::Database;
use crate::explorer::ExplorationLog;
use crate::harness::EvalBackend;
use crate::objective::Objective;
use crate::parallel::ExecEngine;
use design_space::{DesignPoint, DesignSpace};
use gdse_obs as obs;
use hls_ir::Kernel;
use merlin_sim::HlsResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated annealing over the pragma space: single-slot mutations,
/// objective-scalar energy (latency under the default objective), geometric
/// cooling. Infeasible designs (invalid, over the utilization threshold, or
/// over the resource budget) get a large penalty energy instead of outright
/// rejection so the walk can traverse them.
#[derive(Debug, Clone)]
pub struct AnnealingExplorer {
    /// Initial temperature as a fraction of the default design's latency.
    pub initial_temp_frac: f64,
    /// Geometric cooling factor per evaluation.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingExplorer {
    fn default() -> Self {
        Self { initial_temp_frac: 0.5, cooling: 0.97, seed: 0 }
    }
}

impl AnnealingExplorer {
    /// Creates an annealing explorer with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Walk energy: the objective's scalar view for feasible designs
    /// (cycles under latency/Pareto, the sum under weighted), the penalty
    /// otherwise.
    fn energy(objective: &Objective, r: &HlsResult, penalty: f64) -> f64 {
        objective.score_result(r).scalar().unwrap_or(penalty)
    }
}

impl Explorer for AnnealingExplorer {
    type Log = ExplorationLog;

    /// Runs the annealing walk, recording every evaluation into `db`. The
    /// walk is inherently sequential — each step depends on the previous
    /// acceptance — so this submits single-point batches; routing them
    /// through the engine still buys the oracle cache and the merged
    /// per-worker accounting, and lets a parallel campaign share one engine
    /// across all explorers.
    fn explore_scored_with<B: EvalBackend + Sync>(
        &self,
        engine: &ExecEngine,
        eval: &B,
        kernel: &Kernel,
        space: &DesignSpace,
        db: &mut Database,
        budget: Budget,
        objective: &Objective,
    ) -> ExplorationLog {
        let mut log = ExplorationLog::default();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Keep the walk state canonical: mutations are compared in canonical
        // form, so a raw candidate that collapses onto the current config is
        // skipped instead of scored a second time.
        let mut current: DesignPoint =
            design_space::rules::canonicalize(kernel, space, &space.default_point());
        let (first, fresh) = evaluate_into_db_with(engine, eval, kernel, space, &current, db);
        if fresh {
            log.evals += 1;
        }
        // Without a starting energy there is nothing to anneal from.
        let Some(cur_res) = first else { return log };
        if fresh {
            log.tool_minutes += cur_res.synth_minutes;
        }
        let penalty = (cur_res.cycles.max(1) as f64) * 10.0;
        let mut cur_energy = Self::energy(objective, &cur_res, penalty);
        let mut temp = penalty * self.initial_temp_frac;

        let mut best_score = objective.score_result(&cur_res);
        let mut best: Option<(DesignPoint, HlsResult)> = if best_score.is_feasible() {
            log.trace.push((log.evals, cur_res.cycles));
            Some((current.clone(), cur_res))
        } else {
            None
        };

        while log.evals < budget.max_evals {
            // Single-slot mutation.
            let slot = rng.gen_range(0..space.num_slots());
            let opts = &space.slots()[slot].options;
            let cand = design_space::rules::canonicalize(
                kernel,
                space,
                &current.with_value(slot, opts[rng.gen_range(0..opts.len())]),
            );
            if cand == current {
                continue;
            }
            let (r, fresh) = evaluate_into_db_with(engine, eval, kernel, space, &cand, db);
            if fresh {
                log.evals += 1;
            }
            let Some(r) = r else { continue };
            if fresh {
                log.tool_minutes += r.synth_minutes;
            }
            let e = Self::energy(objective, &r, penalty);
            let accept = e <= cur_energy
                || rng.gen::<f64>() < ((cur_energy - e) / temp.max(1e-9)).exp();
            if accept {
                current = cand.clone();
                cur_energy = e;
                let score = objective.score_result(&r);
                let improved = match &best {
                    None => score.is_feasible(),
                    Some(_) => score.better_than(&best_score),
                };
                if improved {
                    log.trace.push((log.evals, r.cycles));
                    best = Some((cand, r));
                    best_score = score;
                }
            }
            temp *= self.cooling;
        }
        log.best = best;
        obs::metrics::counter_add_labeled("explorer.evals", "explorer", "annealing", log.evals as u64);
        obs::debug!(
            "explorer.done",
            "annealing: {} evals on {}",
            log.evals,
            kernel.name();
            explorer = "annealing",
            kernel = kernel.name(),
            evals = log.evals,
        );
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::kernels;
    use merlin_sim::MerlinSimulator;

    #[test]
    fn annealing_improves_over_default() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let log = AnnealingExplorer::with_seed(3).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(150),
            &Objective::latency(),
        );
        let default = sim.evaluate(&k, &space, &space.default_point());
        let (_, best) = log.best.expect("finds a valid design");
        assert!(best.cycles < default.cycles, "{} !< {}", best.cycles, default.cycles);
        assert!(best.util.fits(0.8));
    }

    #[test]
    fn respects_budget_and_records_evals() {
        let k = kernels::stencil();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let log = AnnealingExplorer::with_seed(5).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(40),
            &Objective::latency(),
        );
        assert!(log.evals <= 40);
        assert_eq!(db.len(), log.evals);
    }

    #[test]
    fn engine_routed_walk_reproduces_the_serial_walk() {
        let k = kernels::spmv_ellpack();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let obj = Objective::latency();

        let mut db_serial = Database::new();
        let serial = AnnealingExplorer::with_seed(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db_serial,
            Budget::evals(30),
            &obj,
        );

        for jobs in [1, 4] {
            let engine = ExecEngine::with_jobs(jobs);
            let mut db = Database::new();
            let log = AnnealingExplorer::with_seed(9).explore_scored_with(
                &engine,
                &sim,
                &k,
                &space,
                &mut db,
                Budget::evals(30),
                &obj,
            );
            assert_eq!(log.evals, serial.evals, "jobs={jobs}");
            assert_eq!(log.trace, serial.trace, "jobs={jobs}");
            assert_eq!(db.entries(), db_serial.entries(), "jobs={jobs}");
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
        let la = AnnealingExplorer::with_seed(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut a,
            Budget::evals(30),
            &obj,
        );
        let lb = AnnealingExplorer::with_seed(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut b,
            Budget::evals(30),
            &obj,
        );
        assert_eq!(a.entries(), b.entries());
        assert_eq!(la.best.map(|(_, r)| r.cycles), lb.best.map(|(_, r)| r.cycles));
    }
}
