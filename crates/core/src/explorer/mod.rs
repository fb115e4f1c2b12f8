//! The database-generation explorers of §4.1.
//!
//! GNN-DSE extends AutoDSE with three explorers so the training set contains
//! designs "from bad to good":
//!
//! * [`BottleneckExplorer`] — AutoDSE's greedy bottleneck-based optimizer
//!   (also the Table 3 baseline);
//! * [`HybridExplorer`] — the bottleneck optimizer plus a local search over
//!   neighbors of the incumbent after significant improvements;
//! * [`RandomExplorer`] — uniform random configurations that the other two
//!   skip.
//!
//! [`GFlowExplorer`] adds a learned trajectory sampler that draws diverse
//! high-reward configurations in proportion to their reward.
//!
//! All four implement the [`Explorer`] trait — one engine-taking,
//! [`Objective`]-parameterized entry point,
//! [`Explorer::explore_scored_with`] — so campaigns can drive any mix of
//! explorers through one shared [`ExecEngine`] under any objective (scalar
//! latency, weighted sum, or Pareto, with optional resource budgets).
//! `ExecEngine::serial()` runs the same code on one worker.

mod bottleneck;
mod gflow;
mod hybrid;
mod random;

pub use bottleneck::{BottleneckExplorer, ExplorationLog};
pub use gflow::GFlowExplorer;
pub use hybrid::HybridExplorer;
pub use random::RandomExplorer;

pub(crate) use gflow::GFlowSampler;

use crate::db::Database;
use crate::harness::EvalBackend;
use crate::objective::Objective;
use crate::parallel::ExecEngine;
use design_space::{DesignPoint, DesignSpace};
use hls_ir::Kernel;
use merlin_sim::HlsResult;
use std::collections::HashMap;

/// Shared exploration limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of HLS-tool evaluations.
    pub max_evals: usize,
}

impl Budget {
    /// A budget of `max_evals` evaluations.
    pub fn evals(max_evals: usize) -> Self {
        Self { max_evals }
    }
}

/// The unified exploration interface.
///
/// Every explorer has exactly one implementation of its search, written
/// against an [`ExecEngine`] and an [`Objective`]: the points of a candidate
/// frontier that the database lacks are scored on the engine's worker pool,
/// comparisons go through the objective's ordered, dominance-aware
/// [`Score`](crate::objective::Score) (never raw `f64` cycles), and the
/// serial behavior is just the same code on a single-worker engine.
/// The utilization threshold, like every other constraint, comes from the
/// objective.
pub trait Explorer {
    /// What one run returns: an [`ExplorationLog`] for the guided
    /// explorers, the fresh-evaluation count for [`RandomExplorer`].
    type Log;

    /// Explores `kernel`'s `space` within `budget` under `objective`,
    /// scoring candidates through `engine` and recording every evaluation
    /// into `db`.
    #[allow(clippy::too_many_arguments)]
    fn explore_scored_with<B: EvalBackend + Sync>(
        &self,
        engine: &ExecEngine,
        eval: &B,
        kernel: &Kernel,
        space: &DesignSpace,
        db: &mut Database,
        budget: Budget,
        objective: &Objective,
    ) -> Self::Log;
}

/// Canonicalizes `points` and drops canonical duplicates (first occurrence
/// wins, order otherwise preserved).
///
/// The explorers assemble candidate lists whose raw entries can collapse to
/// the same canonical configuration (e.g. two Hamming-1 neighbors that only
/// differ in a masked pragma); deduplicating *before* submission keeps them
/// from scoring the same config twice in one step.
pub(crate) fn dedupe_canonical(
    kernel: &Kernel,
    space: &DesignSpace,
    points: &[DesignPoint],
) -> Vec<DesignPoint> {
    let mut seen = std::collections::HashSet::new();
    points
        .iter()
        .map(|p| design_space::rules::canonicalize(kernel, space, p))
        .filter(|c| seen.insert(c.clone()))
        .collect()
}

/// One candidate's outcome from [`evaluate_frontier`].
#[derive(Debug, Clone)]
pub(crate) struct FrontierItem {
    /// The canonical form of the candidate.
    pub point: DesignPoint,
    /// The HLS result (`None` when the backend lost the point).
    pub result: Option<HlsResult>,
    /// Whether a fresh tool evaluation was spent on this candidate.
    pub fresh: bool,
}

/// Scores a whole candidate frontier through the engine's worker pool,
/// replicating the serial explorer semantics item by item.
///
/// Candidates are scanned in order. Scanning stops as soon as the budget
/// (`evals_so_far` plus the fresh evaluations already planned) reaches
/// `max_evals` — exactly where the serial per-candidate loop would `break`,
/// so the returned list can be shorter than `candidates`. A candidate
/// already in `db` is a free hit; a canonical duplicate of an earlier
/// candidate in the same frontier reuses that candidate's outcome without
/// spending budget (the duplicate-neighbor fix). Everything else is a
/// planned fresh evaluation: planned points run through
/// [`ExecEngine::evaluate_ordered`] and successes are recorded into `db` in
/// plan order, so any worker count yields the same database as `--jobs 1`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_frontier<B: EvalBackend + Sync>(
    engine: &ExecEngine,
    eval: &B,
    kernel: &Kernel,
    space: &DesignSpace,
    candidates: &[DesignPoint],
    db: &mut Database,
    evals_so_far: usize,
    max_evals: usize,
) -> Vec<FrontierItem> {
    // Per scanned candidate: either a finished item or an index into
    // `planned` to splice once the batch comes back.
    enum Slot {
        Done(FrontierItem),
        Planned(usize),
        Duplicate(usize),
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut planned: Vec<DesignPoint> = Vec::new();
    let mut planned_idx: HashMap<DesignPoint, usize> = HashMap::new();

    for cand in candidates {
        if evals_so_far + planned.len() >= max_evals {
            break;
        }
        let canonical = design_space::rules::canonicalize(kernel, space, cand);
        if let Some(e) = db.get(kernel.name(), &canonical) {
            slots.push(Slot::Done(FrontierItem {
                point: canonical,
                result: Some(e.result),
                fresh: false,
            }));
            continue;
        }
        if let Some(&idx) = planned_idx.get(&canonical) {
            slots.push(Slot::Duplicate(idx));
            continue;
        }
        planned_idx.insert(canonical.clone(), planned.len());
        planned.push(canonical);
        slots.push(Slot::Planned(planned.len() - 1));
    }

    let results = engine.evaluate_ordered(eval, kernel, space, &planned);
    for (point, result) in planned.iter().zip(&results) {
        if let Ok(r) = result {
            db.insert(kernel.name(), point.clone(), *r);
        }
    }

    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(item) => item,
            Slot::Planned(i) => FrontierItem {
                point: planned[i].clone(),
                result: results[i].as_ref().ok().copied(),
                fresh: true,
            },
            Slot::Duplicate(i) => FrontierItem {
                point: planned[i].clone(),
                result: results[i].as_ref().ok().copied(),
                fresh: false,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::kernels;
    use merlin_sim::MerlinSimulator;

    #[test]
    fn evaluate_into_db_dedups_canonical_forms() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let engine = ExecEngine::serial();
        let mut db = Database::new();
        let p = [space.default_point()];
        let first = evaluate_frontier(&engine, &sim, &k, &space, &p, &mut db, 0, 1).remove(0);
        let second = evaluate_frontier(&engine, &sim, &k, &space, &p, &mut db, 0, 1).remove(0);
        assert!(first.result.is_some() && second.result.is_some());
        assert!(first.fresh);
        assert!(!second.fresh);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn frontier_respects_budget_db_hits_and_duplicates() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let engine = ExecEngine::with_jobs(4);
        let mut db = Database::new();
        let p0 = space.default_point();
        // Pre-seed the db with p0 so it becomes a free hit.
        evaluate_frontier(&engine, &sim, &k, &space, std::slice::from_ref(&p0), &mut db, 0, 1);

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let p1 = space.random_point(&mut rng);
        let p2 = space.random_point(&mut rng);
        let cands =
            vec![p0.clone(), p1.clone(), p1.clone(), p2.clone(), space.random_point(&mut rng)];
        // Budget allows 2 fresh evals: p1 and p2. The final candidate must
        // be cut off; the duplicate p1 must be free.
        let items = evaluate_frontier(&engine, &sim, &k, &space, &cands, &mut db, 0, 2);
        assert_eq!(items.len(), 4, "fifth candidate is over budget");
        assert!(!items[0].fresh, "db hit is free");
        assert!(items[1].fresh);
        assert!(!items[2].fresh, "in-frontier duplicate is free");
        assert_eq!(items[1].result, items[2].result);
        assert!(items[3].fresh);
        assert_eq!(items.iter().filter(|i| i.fresh).count(), 2);
    }

    #[test]
    fn dedupe_canonical_keeps_first_occurrence_order() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let p = space.default_point();
        let q = p.with_value(0, space.slots()[0].options[1]);
        let out = dedupe_canonical(&k, &space, &[p.clone(), q.clone(), p.clone()]);
        let pc = design_space::rules::canonicalize(&k, &space, &p);
        let qc = design_space::rules::canonicalize(&k, &space, &q);
        if pc == qc {
            assert_eq!(out, vec![pc]);
        } else {
            assert_eq!(out, vec![pc, qc]);
        }
    }

    #[test]
    fn lost_points_spend_budget_but_stay_out_of_the_db() {
        use crate::harness::{Harness, RetryPolicy};
        use merlin_sim::{FaultConfig, FaultyOracle};

        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        // 100% crash rate with no retries: every point is lost.
        let cfg = FaultConfig { crash_rate: 1.0, ..FaultConfig::none() };
        let h = Harness::new(
            FaultyOracle::new(MerlinSimulator::new(), cfg),
            RetryPolicy::with_max_retries(0),
        );
        let mut db = Database::new();
        let engine = ExecEngine::serial();
        let p = [space.default_point()];
        let item = evaluate_frontier(&engine, &h, &k, &space, &p, &mut db, 0, 1).remove(0);
        assert!(item.result.is_none());
        assert!(item.fresh, "failed attempts still consume tool budget");
        assert_eq!(db.len(), 0, "a lost point must not pollute the database");
    }
}
