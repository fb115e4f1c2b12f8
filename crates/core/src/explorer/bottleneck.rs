//! AutoDSE-style bottleneck-based greedy optimizer.
//!
//! The original AutoDSE repeatedly identifies the performance bottleneck and
//! tweaks the pragma responsible for it. Our analog sweeps the pragmas in
//! the §4.4 priority order (innermost loops first, parallel > pipeline >
//! tile — the pragmas that address the hot inner loops *are* the bottleneck
//! pragmas), commits every improving option, and repeats until a full pass
//! yields no improvement or the budget runs out. "Improving" is judged by
//! the [`Objective`]'s [`Score`](crate::objective::Score): under the default
//! latency objective that is the exact cycle comparison the pre-objective
//! explorer used, so default behavior is bit-identical.
//!
//! This explorer doubles as the **AutoDSE baseline** of Table 3: its
//! modelled tool runtime is the sum of the synthesis minutes of everything
//! it evaluated.

use super::{evaluate_frontier, Budget, Explorer};
use crate::db::Database;
use crate::harness::EvalBackend;
use crate::objective::{Objective, Score};
use crate::parallel::ExecEngine;
use design_space::{order::ordered_slots, DesignPoint, DesignSpace};
use gdse_obs as obs;
use hls_ir::Kernel;
use merlin_sim::HlsResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one explorer run did: evaluations spent and the incumbent trace.
#[derive(Debug, Clone, Default)]
pub struct ExplorationLog {
    /// Fresh tool evaluations spent.
    pub evals: usize,
    /// Modelled tool wall-clock spent, in minutes.
    pub tool_minutes: f64,
    /// Incumbent (best-so-far) trace: `(eval index, cycles)`. Cycles are
    /// recorded under every objective — the trace is a latency trajectory,
    /// not an objective value.
    pub trace: Vec<(usize, u64)>,
    /// The best point found, if any feasible one exists.
    pub best: Option<(DesignPoint, HlsResult)>,
}

/// AutoDSE-like greedy explorer with random restarts: when a greedy sweep
/// converges with budget remaining, the search restarts from a random
/// configuration (AutoDSE similarly keeps exploring new bottleneck
/// hypotheses for its full time budget instead of stopping at the first
/// local optimum).
#[derive(Debug, Clone, Default)]
pub struct BottleneckExplorer {
    /// Seed for the restart points.
    pub seed: u64,
}

impl BottleneckExplorer {
    /// Creates an explorer with seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// One greedy pass from `start`, scoring each slot's option frontier as
    /// a batch. The frontier is folded in candidate order, so acceptance,
    /// budget, and trace bookkeeping match a point-by-point sweep.
    #[allow(clippy::too_many_arguments)]
    fn greedy_sweep<B: EvalBackend + Sync>(
        &self,
        engine: &ExecEngine,
        eval: &B,
        kernel: &Kernel,
        space: &DesignSpace,
        db: &mut Database,
        budget: Budget,
        objective: &Objective,
        start: DesignPoint,
        log: &mut ExplorationLog,
    ) -> Option<(DesignPoint, HlsResult)> {
        let order = ordered_slots(kernel, space);

        let mut current = start;
        let first = evaluate_frontier(
            engine,
            eval,
            kernel,
            space,
            std::slice::from_ref(&current),
            db,
            log.evals,
            budget.max_evals,
        )
        .into_iter()
        .next()?;
        if first.fresh {
            log.evals += 1;
        }
        // A lost sweep start leaves nothing to improve on; the caller will
        // restart from another point with the remaining budget.
        let mut best_result = first.result?;
        if first.fresh {
            log.tool_minutes += best_result.synth_minutes;
        }
        if objective.feasible_result(&best_result) {
            log.trace.push((log.evals, best_result.cycles));
        }

        loop {
            let mut improved = false;
            for &slot in &order {
                if log.evals >= budget.max_evals {
                    break;
                }
                let cands: Vec<DesignPoint> = space.slots()[slot]
                    .options
                    .iter()
                    .filter(|&&opt| opt != current.value(slot))
                    .map(|&opt| current.with_value(slot, opt))
                    .collect();
                let items = evaluate_frontier(
                    engine,
                    eval,
                    kernel,
                    space,
                    &cands,
                    db,
                    log.evals,
                    budget.max_evals,
                );
                let mut best_here = current.clone();
                let mut best_here_result = best_result;
                let mut best_here_score = objective.score_result(&best_here_result);
                for (item, cand) in items.iter().zip(&cands) {
                    if item.fresh {
                        log.evals += 1;
                    }
                    let Some(r) = item.result else { continue };
                    if item.fresh {
                        log.tool_minutes += r.synth_minutes;
                    }
                    let score = objective.score_result(&r);
                    if score.better_than(&best_here_score) {
                        best_here = cand.clone();
                        best_here_result = r;
                        best_here_score = score;
                    }
                }
                if best_here != current {
                    current = best_here;
                    best_result = best_here_result;
                    improved = true;
                    log.trace.push((log.evals, best_result.cycles));
                }
            }
            if !improved || log.evals >= budget.max_evals {
                break;
            }
        }

        objective.feasible_result(&best_result).then_some((current, best_result))
    }
}

impl Explorer for BottleneckExplorer {
    type Log = ExplorationLog;

    /// Runs greedy sweeps (with random restarts on convergence) until the
    /// budget is spent, recording every evaluation into `db`. Each greedy
    /// slot's candidate frontier is scored through the engine's worker pool
    /// (one batch, database hits skipped); with an infallible backend any
    /// worker count visits exactly the same points in the same order.
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
        let mut start = space.default_point();
        let mut global_best: Option<(DesignPoint, HlsResult)> = None;
        let mut global_best_score = Score::Infeasible;

        while log.evals < budget.max_evals {
            let before = log.evals;
            let best = self.greedy_sweep(
                engine, eval, kernel, space, db, budget, objective, start, &mut log,
            );
            if let Some((pt, r)) = best {
                // The sweep only returns feasible results, so a strict
                // score comparison suffices (ties keep the earlier best).
                let score = objective.score_result(&r);
                if score.better_than(&global_best_score) {
                    global_best = Some((pt, r));
                    global_best_score = score;
                }
            }
            if log.evals == before {
                // The restart point was already fully explored; avoid
                // spinning without spending budget.
                break;
            }
            start = space.random_point(&mut rng);
        }

        // Restarts can locally regress; the published trace is the *global*
        // incumbent (monotone prefix-minimum), which is what the hybrid
        // explorer's improvement anchors and callers expect.
        let mut mono: Vec<(usize, u64)> = Vec::with_capacity(log.trace.len());
        for &(e, c) in &log.trace {
            if mono.last().is_none_or(|&(_, best)| c < best) {
                mono.push((e, c));
            }
        }
        log.trace = mono;
        log.best = global_best;
        obs::metrics::counter_add_labeled("explorer.evals", "explorer", "bottleneck", log.evals as u64);
        obs::debug!(
            "explorer.done",
            "bottleneck: {} evals on {}",
            log.evals,
            kernel.name();
            explorer = "bottleneck",
            kernel = kernel.name(),
            evals = log.evals,
        );
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ResourceBudget;
    use hls_ir::kernels;
    use merlin_sim::MerlinSimulator;

    #[test]
    fn finds_a_much_better_design_than_default() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let log = BottleneckExplorer::new().explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(150),
            &Objective::latency(),
        );
        let (_, best) = log.best.expect("gemm has valid optimized designs");
        let default = sim.evaluate(&k, &space, &space.default_point());
        assert!(
            best.cycles * 10 < default.cycles,
            "greedy should find >10x: {} vs {}",
            best.cycles,
            default.cycles
        );
        assert!(best.util.fits(0.8));
        assert!(db.len() > 20, "evaluations are recorded");
    }

    #[test]
    fn respects_budget() {
        let k = kernels::stencil();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let log = BottleneckExplorer::new().explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(25),
            &Objective::latency(),
        );
        assert!(log.evals <= 25);
        assert!(log.tool_minutes > 0.0);
    }

    #[test]
    fn batched_sweep_reproduces_the_serial_sweep() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let obj = Objective::latency();

        let mut db_serial = Database::new();
        let serial = BottleneckExplorer::new().explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db_serial,
            Budget::evals(80),
            &obj,
        );

        for jobs in [1, 4] {
            let engine = ExecEngine::with_jobs(jobs);
            let mut db = Database::new();
            let log = BottleneckExplorer::new().explore_scored_with(
                &engine,
                &sim,
                &k,
                &space,
                &mut db,
                Budget::evals(80),
                &obj,
            );
            assert_eq!(log.evals, serial.evals, "jobs={jobs}");
            assert_eq!(log.trace, serial.trace, "jobs={jobs}");
            assert_eq!(
                log.best.as_ref().map(|(p, r)| (p.clone(), r.cycles)),
                serial.best.as_ref().map(|(p, r)| (p.clone(), r.cycles)),
                "jobs={jobs}"
            );
            assert_eq!(db.entries(), db_serial.entries(), "jobs={jobs}");
        }
    }

    #[test]
    fn incumbent_trace_is_monotonic() {
        let k = kernels::atax();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let log = BottleneckExplorer::new().explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(120),
            &Objective::latency(),
        );
        for w in log.trace.windows(2) {
            assert!(w[1].1 <= w[0].1, "incumbent cycles must not regress");
        }
    }

    #[test]
    fn budgeted_objective_constrains_the_returned_best() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let budget = ResourceBudget::parse("dsp=0.5,lut=0.5").unwrap();
        let obj = Objective::latency().with_budget(budget);
        let log = BottleneckExplorer::new().explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(120),
            &obj,
        );
        if let Some((_, best)) = log.best {
            assert!(budget.admits(&best.util), "best must respect the budget: {:?}", best.util);
        }
    }
}
