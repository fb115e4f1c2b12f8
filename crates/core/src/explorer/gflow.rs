//! GFlowNet-style trajectory sampler — a learned, zero-dependency explorer.
//!
//! A design is built as a trajectory of slot assignments in fixed slot
//! order; a tabular policy (one logit per `(slot, option)` pair) samples
//! each step from its softmax. The policy is trained online from harness
//! evaluations with the trajectory-balance objective
//!
//! ```text
//! L(τ) = (log Z + Σᵢ log P_F(oᵢ | sᵢ) − log R(τ))²
//! ```
//!
//! so at convergence the sampler draws configurations **in proportion to
//! their reward** rather than collapsing onto one argmax — exactly the
//! diversity a database generator and a Pareto front need. Logits start at
//! zero (uniform), so early waves match uniform random sampling and the
//! learner can only sharpen from there.
//!
//! Everything is plain arithmetic on `Vec<f64>` — no tensor dependency —
//! and every wave is evaluated through
//! [`evaluate_frontier`](super::evaluate_frontier), which keeps the search
//! byte-identical at any `--jobs` setting.

use super::{evaluate_frontier, Budget, Explorer, ExplorationLog};
use crate::db::Database;
use crate::harness::EvalBackend;
use crate::objective::{Objective, Score};
use crate::parallel::ExecEngine;
use design_space::{DesignPoint, DesignSpace};
use gdse_obs as obs;
use hls_ir::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Floor reward for infeasible designs: small but positive so log-space
/// updates stay finite and the sampler keeps a nonzero escape probability.
const MIN_REWARD: f64 = 1e-4;
/// Reward ceiling, bounding the trajectory-balance error on outliers.
const MAX_REWARD: f64 = 1e6;

/// The tabular trajectory policy: per-(slot, option) logits plus the
/// trajectory-balance partition estimate `log Z`. Shared between the
/// [`GFlowExplorer`] (oracle rewards) and the DSE candidate sampler
/// (surrogate rewards).
#[derive(Debug, Clone)]
pub(crate) struct GFlowSampler {
    /// `logits[slot][option]`, initialized to zero (uniform policy).
    logits: Vec<Vec<f64>>,
    /// Trajectory-balance `log Z` estimate.
    log_z: f64,
    /// SGD step size.
    lr: f64,
}

impl GFlowSampler {
    /// A uniform policy over `space`.
    pub fn new(space: &DesignSpace, lr: f64) -> Self {
        let logits = space.slots().iter().map(|s| vec![0.0; s.options.len()]).collect();
        Self { logits, log_z: 0.0, lr }
    }

    /// Softmax probabilities of one slot's options (numerically stable).
    fn probs(&self, slot: usize) -> Vec<f64> {
        let l = &self.logits[slot];
        let m = l.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = l.iter().map(|v| (v - m).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    /// Samples one trajectory: a full slot assignment in fixed slot order.
    /// Returns the design point and the option index chosen at each slot.
    pub fn sample(&self, space: &DesignSpace, rng: &mut StdRng) -> (DesignPoint, Vec<usize>) {
        let mut point = space.default_point();
        let mut choices = Vec::with_capacity(self.logits.len());
        for (slot, pragma) in space.slots().iter().enumerate() {
            let p = self.probs(slot);
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut pick = p.len() - 1;
            for (j, pj) in p.iter().enumerate() {
                acc += pj;
                if u < acc {
                    pick = j;
                    break;
                }
            }
            point.set_value(slot, pragma.options[pick]);
            choices.push(pick);
        }
        (point, choices)
    }

    /// One trajectory-balance SGD step for a trajectory with the given
    /// per-slot choices and reward. Gradients are taken at the *current*
    /// parameters (on-policy within a wave, slightly stale across one —
    /// standard for online TB training).
    pub fn update(&mut self, choices: &[usize], reward: f64) {
        let reward = reward.clamp(MIN_REWARD, MAX_REWARD);
        // delta = log Z + sum_i log P_F(o_i) - log R
        let mut sum_logp = 0.0;
        let mut slot_probs = Vec::with_capacity(choices.len());
        for (slot, &o) in choices.iter().enumerate() {
            let p = self.probs(slot);
            sum_logp += p[o].max(1e-300).ln();
            slot_probs.push(p);
        }
        let delta = self.log_z + sum_logp - reward.ln();
        // d delta / d logit[slot][j] = 1{j = o} - p_j; squared loss gives
        // the extra factor 2 * delta.
        let step = self.lr * 2.0 * delta;
        for (slot, &o) in choices.iter().enumerate() {
            let p = &slot_probs[slot];
            for (j, pj) in p.iter().enumerate() {
                let indicator = if j == o { 1.0 } else { 0.0 };
                self.logits[slot][j] -= step * (indicator - pj);
            }
        }
        self.log_z -= step;
    }
}

/// A GFlowNet-style learned explorer: samples design trajectories from a
/// tabular softmax policy and trains it online (trajectory balance) on the
/// rewards of the oracle evaluations it spends — the fifth [`Explorer`],
/// pluggable wherever the §4.1 explorers are.
#[derive(Debug, Clone)]
pub struct GFlowExplorer {
    /// RNG seed (sampling stream).
    pub seed: u64,
    /// Trajectories sampled per wave. A constant (never a function of the
    /// worker count) so the run is `--jobs`-invariant.
    pub wave: usize,
    /// Trajectory-balance SGD step size.
    pub lr: f64,
}

impl Default for GFlowExplorer {
    fn default() -> Self {
        Self { seed: 0, wave: 32, lr: 0.05 }
    }
}

impl GFlowExplorer {
    /// Creates a sampler explorer with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Trajectory reward: how many times faster than `baseline` cycles the
    /// design's objective scalar is (clamped). Infeasible designs earn the
    /// floor reward — still positive, so the policy keeps mass everywhere.
    fn reward(score: &Score, baseline: f64) -> f64 {
        match score.scalar() {
            Some(v) => (baseline / v.max(1.0)).clamp(MIN_REWARD, MAX_REWARD),
            None => MIN_REWARD,
        }
    }
}

impl Explorer for GFlowExplorer {
    type Log = ExplorationLog;

    /// Samples fixed-size waves of trajectories, scores each wave as one
    /// batch on the engine's pool, and applies one trajectory-balance
    /// update per trajectory. Duplicate and database-hit trajectories
    /// still train the policy (their result is known and free), they just
    /// spend no budget.
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
        let mut sampler = GFlowSampler::new(space, self.lr);
        let mut best_score = Score::Infeasible;

        // The default design anchors the reward scale.
        let first = evaluate_frontier(
            engine,
            eval,
            kernel,
            space,
            std::slice::from_ref(&space.default_point()),
            db,
            log.evals,
            budget.max_evals,
        )
        .into_iter()
        .next();
        let mut baseline = 1e9;
        if let Some(item) = first {
            if item.fresh {
                log.evals += 1;
            }
            if let Some(r) = item.result {
                if item.fresh {
                    log.tool_minutes += r.synth_minutes;
                }
                if r.is_valid() {
                    baseline = (r.cycles.max(1)) as f64;
                }
                let score = objective.score_result(&r);
                if score.better_than(&best_score) {
                    log.trace.push((log.evals, r.cycles));
                    log.best = Some((item.point, r));
                    best_score = score;
                }
            }
        }

        // Sampling may concentrate; bound the attempts so tiny spaces and
        // converged policies terminate.
        let max_attempts = budget.max_evals.saturating_mul(20).max(64);
        let mut attempts = 0;
        while log.evals < budget.max_evals && attempts < max_attempts {
            let n = self.wave.max(1).min(max_attempts - attempts);
            let trajectories: Vec<(DesignPoint, Vec<usize>)> =
                (0..n).map(|_| sampler.sample(space, &mut rng)).collect();
            attempts += n;
            let wave: Vec<DesignPoint> =
                trajectories.iter().map(|(p, _)| p.clone()).collect();
            let items = evaluate_frontier(
                engine,
                eval,
                kernel,
                space,
                &wave,
                db,
                log.evals,
                budget.max_evals,
            );
            // `items` can be shorter than the wave when the budget cuts the
            // frontier; the zip drops the unevaluated tail (it spent no
            // budget and yields no reward signal).
            for (item, (_, choices)) in items.iter().zip(&trajectories) {
                if item.fresh {
                    log.evals += 1;
                }
                let Some(r) = item.result else { continue };
                if item.fresh {
                    log.tool_minutes += r.synth_minutes;
                }
                let score = objective.score_result(&r);
                if score.better_than(&best_score) {
                    log.trace.push((log.evals, r.cycles));
                    log.best = Some((item.point.clone(), r));
                    best_score = score;
                }
                sampler.update(choices, Self::reward(&score, baseline));
            }
        }

        obs::metrics::counter_add_labeled("explorer.evals", "explorer", "gflow", log.evals as u64);
        obs::debug!(
            "explorer.done",
            "gflow: {} evals on {}",
            log.evals,
            kernel.name();
            explorer = "gflow",
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
    fn sampler_starts_uniform_and_sharpens_toward_reward() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let mut s = GFlowSampler::new(&space, 0.1);
        let p0 = s.probs(0);
        let uniform = 1.0 / p0.len() as f64;
        assert!(p0.iter().all(|p| (p - uniform).abs() < 1e-12), "zero logits = uniform");

        // Repeatedly reward option 0 of every slot; its probability must
        // grow past uniform.
        let choices: Vec<usize> = vec![0; space.num_slots()];
        for _ in 0..50 {
            s.update(&choices, 100.0);
        }
        let p = s.probs(0);
        assert!(p[0] > uniform, "rewarded option should gain mass: {} vs {uniform}", p[0]);
    }

    #[test]
    fn finds_a_better_design_than_default() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let log = GFlowExplorer::with_seed(3).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(120),
            &Objective::latency(),
        );
        let default = sim.evaluate(&k, &space, &space.default_point());
        let (_, best) = log.best.expect("finds a valid design");
        assert!(best.cycles < default.cycles, "{} !< {}", best.cycles, default.cycles);
        assert!(best.util.fits(0.8));
        assert!(log.evals <= 120);
    }

    #[test]
    fn wave_sampling_is_jobs_invariant() {
        let k = kernels::stencil();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();

        let mut reference: Option<Vec<crate::db::DbEntry>> = None;
        for jobs in [1, 4] {
            let engine = ExecEngine::with_jobs(jobs);
            let mut db = Database::new();
            let log = GFlowExplorer::with_seed(3).explore_scored_with(
                &engine,
                &sim,
                &k,
                &space,
                &mut db,
                Budget::evals(40),
                &Objective::latency(),
            );
            assert!(log.evals <= 40, "jobs={jobs}");
            match &reference {
                None => reference = Some(db.entries().to_vec()),
                Some(r) => assert_eq!(db.entries(), &r[..], "jobs={jobs}"),
            }
        }
    }

    #[test]
    fn deterministic_under_seed_and_terminates_on_tiny_spaces() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut a = Database::new();
        let mut b = Database::new();
        let obj = Objective::latency();
        let la = GFlowExplorer::with_seed(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut a,
            Budget::evals(500),
            &obj,
        );
        let lb = GFlowExplorer::with_seed(9).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut b,
            Budget::evals(500),
            &obj,
        );
        assert_eq!(a.entries(), b.entries());
        assert_eq!(la.evals, lb.evals);
        assert!(la.evals <= 45, "tiny canonical space bounds the evals");
    }

    #[test]
    fn budgeted_objective_constrains_the_returned_best() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        let budget = crate::objective::ResourceBudget::parse("dsp=0.5").unwrap();
        let obj = Objective::latency().with_budget(budget);
        let log = GFlowExplorer::with_seed(1).explore_scored_with(
            &ExecEngine::serial(),
            &sim,
            &k,
            &space,
            &mut db,
            Budget::evals(80),
            &obj,
        );
        if let Some((_, best)) = log.best {
            assert!(budget.admits(&best.util));
        }
    }
}
