//! Model-driven design space exploration (§4.4).
//!
//! With millisecond inference the DSE enumerates small spaces exhaustively;
//! enormous spaces are swept in the ordered-pragma priority order (innermost
//! loops first, parallel > pipeline > tile, dependencies promoted) so the
//! most promising candidates are evaluated before the budget or time limit
//! runs out — or, with [`CandidateSampler::Gflow`], sampled from a learned
//! trajectory policy trained online on surrogate rewards.
//!
//! What "promising" means is the [`Objective`]: scalar latency (the paper's
//! contract), a weighted sum, or true Pareto exploration, each optionally
//! constrained by a per-device [`ResourceBudget`](crate::objective::ResourceBudget)
//! enforced through the validity head plus predicted utilization. In Pareto
//! mode the run additionally maintains an incremental
//! [`ParetoArchive`](crate::pareto::ParetoArchive) whose front is returned
//! in [`DseOutcome::front`].

use crate::evaluated::Evaluated;
use crate::explorer::GFlowSampler;
use crate::inference::{Prediction, Predictor, Template};
use crate::objective::{Objective, ObjectiveKind, ResourceBudget};
use crate::parallel::ExecEngine;
use crate::pareto::{prediction_axes, strictly_dominates, ParetoArchive};
use design_space::{order::ordered_slots, rules, DesignPoint, DesignSpace};
use gdse_exec::{evaluate_cached, ShardedCache};
use gdse_obs as obs;
use hls_ir::Kernel;
use proggraph::ProgramGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// How the heuristic DSE generates candidates for spaces too large to
/// enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateSampler {
    /// Priority-ordered mixed-radix sweep (§4.4 order) — the default.
    #[default]
    PrioritySweep,
    /// GFlowNet-style trajectory sampler trained online on surrogate
    /// rewards: samples diverse high-reward configurations in proportion
    /// to reward (`--explorer gflow`).
    Gflow,
}

impl std::str::FromStr for CandidateSampler {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sweep" | "priority" => Ok(Self::PrioritySweep),
            "gflow" => Ok(Self::Gflow),
            other => Err(format!("unknown explorer `{other}` (sweep|gflow)")),
        }
    }
}

/// DSE limits and constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseConfig {
    /// Utilization constraint `T_u` (eq. 7).
    pub util_threshold: f64,
    /// How many top designs to return for HLS validation (§5.3: top 10).
    pub top_m: usize,
    /// Spaces up to this size are enumerated exhaustively.
    pub exhaustive_limit: u128,
    /// Cap on surrogate inferences for huge spaces. A sweep stops once whole
    /// 64-point batches reach it, and the GFlow sampler once its 64-point
    /// waves do, so a run passes it by less than one batch.
    pub max_inferences: usize,
    /// Wall-clock limit (the paper uses 1 hour for `mvt` and `2mm`).
    pub time_limit: Duration,
    /// What to minimize.
    pub kind: ObjectiveKind,
    /// Per-axis resource caps on top of the utilization threshold.
    pub budget: ResourceBudget,
    /// Candidate generation for non-exhaustive spaces.
    pub sampler: CandidateSampler,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            util_threshold: 0.8,
            top_m: 10,
            exhaustive_limit: 100_000,
            max_inferences: 60_000,
            time_limit: Duration::from_secs(3600),
            kind: ObjectiveKind::Latency,
            budget: ResourceBudget::none(),
            sampler: CandidateSampler::PrioritySweep,
        }
    }
}

impl DseConfig {
    /// A tiny configuration for tests.
    pub fn quick() -> Self {
        Self {
            exhaustive_limit: 2_000,
            max_inferences: 1_500,
            time_limit: Duration::from_secs(30),
            ..Self::default()
        }
    }

    /// The objective the search enforces: [`DseConfig::kind`] under
    /// [`DseConfig::util_threshold`] and [`DseConfig::budget`].
    pub fn objective(&self) -> Objective {
        Objective { kind: self.kind, util_threshold: self.util_threshold, budget: self.budget }
    }
}

/// Outcome of one DSE run.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The top-M designs among usable predictions, best first — by
    /// predicted cycles under the latency and Pareto objectives, by the
    /// weighted sum under the weighted objective.
    pub top: Vec<(DesignPoint, Prediction)>,
    /// The predicted Pareto front (sorted by cycles, then resources) under
    /// [`ObjectiveKind::Pareto`]; empty for the scalar objectives.
    pub front: Vec<(DesignPoint, Prediction)>,
    /// Surrogate inferences performed.
    pub inferences: usize,
    /// Wall-clock spent.
    pub wall: Duration,
    /// Whether the whole (canonical) space was covered.
    pub exhaustive: bool,
    /// Whether `top` is the *fallback* list: the model marked nothing as
    /// usable, so the best predictions regardless of constraints are
    /// returned for validation to refute. Fallback candidates may violate
    /// a resource budget; non-fallback candidates never do.
    pub used_fallback: bool,
}

/// Runs the surrogate-driven DSE for one kernel over its program graph
/// (`proggraph::build_graph_bidirectional`), scoring candidates through the
/// engine, which chunks each scoring call across its worker pool.
/// `ExecEngine::serial()` runs the same code on one worker.
///
/// The sweep and exhaustive candidate streams do not depend on any
/// prediction and skip every canonical point they have seen, so their
/// candidates are collected into windows of whole 64-point batches, up to
/// 512 points and 2^15 node rows (points × graph nodes), and each window is
/// scored by one `predict_ordered` call: the more points a batch holds, the
/// more of them share a node's row. The cap still counts whole batches,
/// and the outcome is the one a batch-by-batch run gives, since the
/// candidate lists are stable-sorted and the Pareto archive takes points in
/// stream order. The GFlow sampler scores one 64-point wave at a time,
/// because each wave's rewards steer the next; its waves repeat points, so
/// it scores them through a memo that lasts the run (`exec.cache_hits` /
/// `exec.cache_misses`).
///
/// Prediction is item-independent, so the outcome is identical at any
/// worker count — provided the run is not truncated by `cfg.time_limit`
/// (the one wall-clock-dependent cut, checked per candidate; a run that
/// hits it still scores the window it was filling, so it can overrun the
/// limit by one window. Campaigns that need bit-identical reruns should
/// size `max_inferences` instead).
pub fn run_dse_with_engine(
    predictor: &Predictor,
    kernel: &Kernel,
    space: &DesignSpace,
    graph: &ProgramGraph,
    cfg: &DseConfig,
    engine: &ExecEngine,
) -> DseOutcome {
    let _stage = obs::span::stage("dse");
    let start = Instant::now();
    let objective = cfg.objective();
    let pareto_mode = objective.kind == ObjectiveKind::Pareto;
    let exhaustive = space.size() <= cfg.exhaustive_limit;
    let mut top: Vec<(DesignPoint, Prediction)> = Vec::new();
    // Best-by-cycles regardless of the usability filter: returned when the
    // model (e.g. early in the rounds loop) marks nothing as usable, so the
    // tool validation step always has candidates to refute.
    let mut fallback: Vec<(DesignPoint, Prediction)> = Vec::new();
    let mut archive: ParetoArchive<(DesignPoint, Prediction)> =
        ParetoArchive::new(cfg.top_m.max(64));
    let mut inferences = 0usize;
    let mut seen: HashSet<DesignPoint> = HashSet::new();
    let template = Template::new(predictor, graph);

    // Rank `top` by the objective (exact cycle sort for latency/Pareto —
    // bit-identical to the pre-objective code — weighted sum otherwise) and
    // `fallback` always by predicted cycles.
    let sort_top = |v: &mut Vec<(DesignPoint, Prediction)>| match objective.kind {
        ObjectiveKind::Weighted(w) => v.sort_by(|a, b| {
            w.combine(a.1.cycles, &a.1.util)
                .total_cmp(&w.combine(b.1.cycles, &b.1.util))
                .then(a.1.cycles.cmp(&b.1.cycles))
        }),
        _ => v.sort_by_key(|(_, pr)| pr.cycles),
    };

    // Classify predicted candidates and keep both lists bounded.
    let absorb = |pairs: &mut Vec<(DesignPoint, Prediction)>,
                      top: &mut Vec<(DesignPoint, Prediction)>,
                      fallback: &mut Vec<(DesignPoint, Prediction)>,
                      archive: &mut ParetoArchive<(DesignPoint, Prediction)>| {
        for (p, pred) in pairs.drain(..) {
            if objective.feasible_prediction(&pred) {
                if pareto_mode {
                    archive.insert(prediction_axes(&pred), (p.clone(), pred));
                }
                top.push((p, pred));
            } else {
                fallback.push((p, pred));
            }
        }
        sort_top(top);
        top.truncate(cfg.top_m.max(64));
        fallback.sort_by_key(|(_, pr)| pr.cycles);
        fallback.truncate(cfg.top_m);
    };

    let flush = |pending: &mut Vec<DesignPoint>,
                     top: &mut Vec<(DesignPoint, Prediction)>,
                     fallback: &mut Vec<(DesignPoint, Prediction)>,
                     archive: &mut ParetoArchive<(DesignPoint, Prediction)>,
                     inferences: &mut usize| {
        if pending.is_empty() {
            return;
        }
        let preds = engine.predict_ordered(&template, pending);
        *inferences += pending.len();
        let mut pairs: Vec<(DesignPoint, Prediction)> =
            pending.drain(..).zip(preds).collect();
        absorb(&mut pairs, top, fallback, archive);
    };

    if !exhaustive && cfg.sampler == CandidateSampler::Gflow {
        // Learned candidate generation: sample trajectory waves from a
        // tabular policy and train it on surrogate rewards. The policy
        // starts uniform and sharpens toward configurations the surrogate
        // rewards; duplicates still update the policy (the run's memo makes
        // them cheap) but only unseen canonical configs count as inferences
        // or enter the candidate lists.
        let memo = ShardedCache::default();
        let predict = |points: &[DesignPoint]| {
            evaluate_cached(
                |misses: &[DesignPoint]| engine.predict_ordered(&template, misses),
                &memo,
                DesignPoint::clone,
                points,
            )
        };
        let mut policy = GFlowSampler::new(space, 0.05);
        let mut rng = StdRng::seed_from_u64(fnv1a(kernel.name()));
        let default = rules::canonicalize(kernel, space, &space.default_point());
        let baseline_pred = predict(std::slice::from_ref(&default))
            .pop()
            .expect("one prediction per submitted point");
        inferences += 1;
        seen.insert(default.clone());
        let mut pairs = vec![(default, baseline_pred)];
        absorb(&mut pairs, &mut top, &mut fallback, &mut archive);
        let baseline = baseline_pred.cycles.max(1) as f64;

        let max_attempts = cfg.max_inferences.saturating_mul(4).max(64);
        let mut attempts = 0usize;
        while inferences < cfg.max_inferences
            && attempts < max_attempts
            && start.elapsed() <= cfg.time_limit
        {
            let n = BATCH.min(max_attempts - attempts);
            let trajectories: Vec<(DesignPoint, Vec<usize>)> =
                (0..n).map(|_| policy.sample(space, &mut rng)).collect();
            attempts += n;
            let wave: Vec<DesignPoint> = trajectories
                .iter()
                .map(|(p, _)| rules::canonicalize(kernel, space, p))
                .collect();
            let preds = predict(&wave);
            let mut pairs: Vec<(DesignPoint, Prediction)> = Vec::new();
            for ((canonical, pred), (_, choices)) in
                wave.into_iter().zip(preds).zip(&trajectories)
            {
                if seen.insert(canonical.clone()) {
                    inferences += 1;
                    pairs.push((canonical, pred));
                }
                let reward = match objective.score_prediction(&pred).scalar() {
                    Some(v) => (baseline / v.max(1.0)).clamp(1e-4, 1e6),
                    None => 1e-4,
                };
                policy.update(choices, reward);
            }
            absorb(&mut pairs, &mut top, &mut fallback, &mut archive);
        }
    } else {
        let window = window_len(graph.num_nodes());
        let mut pending: Vec<DesignPoint> = Vec::with_capacity(window);
        let candidates = candidate_order(kernel, space, exhaustive, cfg);
        for point in candidates {
            // The cap counts the candidates taken so far in whole batches.
            let taken = (inferences + pending.len()) / BATCH * BATCH;
            if start.elapsed() > cfg.time_limit || taken >= cfg.max_inferences && !exhaustive {
                break;
            }
            let canonical = rules::canonicalize(kernel, space, &point);
            if !seen.insert(canonical.clone()) {
                continue;
            }
            pending.push(canonical);
            if pending.len() >= window {
                flush(&mut pending, &mut top, &mut fallback, &mut archive, &mut inferences);
            }
        }
        flush(&mut pending, &mut top, &mut fallback, &mut archive, &mut inferences);
    }

    let used_fallback = top.is_empty();
    if used_fallback {
        top = fallback;
    }
    top.truncate(cfg.top_m);
    let front: Vec<(DesignPoint, Prediction)> =
        archive.front().into_iter().map(|m| m.item.clone()).collect();
    let budget_violations =
        top.iter().filter(|(_, pr)| !objective.budget.admits(&pr.util)).count();
    obs::metrics::counter_add("dse.points_explored", inferences as u64);
    obs::metrics::counter_add("dse.candidates_returned", top.len() as u64);
    obs::metrics::counter_add("dse.front_points", front.len() as u64);
    obs::metrics::counter_add("dse.budget_violations", budget_violations as u64);
    obs::debug!(
        "dse.done",
        "explored {inferences} candidates for {} ({})",
        kernel.name(),
        if exhaustive { "exhaustive" } else { "heuristic" };
        kernel = kernel.name(),
        inferences = inferences,
        top = top.len(),
        front = front.len(),
        exhaustive = exhaustive,
        wall_us = start.elapsed(),
    );
    DseOutcome { top, front, inferences, wall: start.elapsed(), exhaustive, used_fallback }
}

/// Candidates per batch: the unit of the inference cap, and the wave size
/// of the GFlow sampler.
const BATCH: usize = 64;
/// The most points one scoring window of a sweep or exhaustive run holds.
const WINDOW_POINTS: usize = 512;
/// The most node rows, points × graph nodes, one window holds, so kernels
/// of more than 64 nodes get fewer points.
const WINDOW_ROWS: usize = 1 << 15;

/// Points per scoring window on a graph of `nodes` nodes: whole batches
/// within [`WINDOW_POINTS`] and [`WINDOW_ROWS`], and at least one.
fn window_len(nodes: usize) -> usize {
    let fits = WINDOW_POINTS.min(WINDOW_ROWS / nodes.max(1));
    (fits / BATCH * BATCH).max(BATCH)
}

/// FNV-1a of a kernel name: a stable per-kernel RNG seed for the learned
/// sampler (no global seed plumbing required, identical across runs).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The candidate stream: full enumeration for small spaces, priority-ordered
/// mixed-radix sweep for large ones.
fn candidate_order<'a>(
    kernel: &Kernel,
    space: &'a DesignSpace,
    exhaustive: bool,
    cfg: &DseConfig,
) -> Box<dyn Iterator<Item = DesignPoint> + 'a> {
    if exhaustive {
        return Box::new(space.iter());
    }
    // Reordered mixed-radix enumeration: the highest-priority slot varies
    // fastest, so early candidates sweep the pragmas that matter most while
    // the rest stay at their defaults.
    let order = ordered_slots(kernel, space);
    let limit = (cfg.max_inferences as u128 * 4).min(space.size());
    let default = space.default_point();
    Box::new((0..limit).map(move |i| {
        let mut point = default.clone();
        let mut rem = i;
        for &slot in &order {
            let radix = space.slots()[slot].options.len() as u128;
            point.set_value(slot, space.slots()[slot].options[(rem % radix) as usize]);
            rem /= radix;
            if rem == 0 {
                break;
            }
        }
        point
    }))
}

/// Indices of the Pareto-optimal entries, minimizing cycles and every
/// resource count jointly.
///
/// Dominance semantics (deterministic, order-independent membership):
///
/// * invalid results never make the front;
/// * a valid entry is excluded iff some valid entry **strictly dominates**
///   it — no worse on all five axes (cycles, DSP, BRAM18, LUT, FF) and
///   strictly better on at least one. Weak dominance that is not strict
///   means the two objective vectors are *identical*, which is handled by:
/// * exact ties (identical cycles and resource counts): only the
///   lowest-index entry is kept. The historical scan kept every duplicate,
///   making front size depend on arrival order; now the front is a set of
///   distinct objective vectors plus one deterministic representative each.
pub fn pareto_front(results: &[Evaluated]) -> Vec<usize> {
    let axes: Vec<Option<[f64; 5]>> =
        results.iter().map(|e| e.result.is_valid().then(|| e.axes())).collect();
    (0..results.len())
        .filter(|&i| {
            let Some(a) = axes[i] else { return false };
            !axes.iter().enumerate().any(|(j, b)| {
                let Some(b) = b else { return false };
                j != i && (strictly_dominates(b, &a) || (*b == a && j < i))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate_database;
    use crate::trainer::TrainConfig;
    use gdse_gnn::{ModelConfig, ModelKind};
    use hls_ir::kernels;
    use merlin_sim::MerlinSimulator;
    use proggraph::build_graph_bidirectional;

    fn trained(kernel_fn: fn() -> Kernel, budget: usize) -> (Predictor, Kernel, DesignSpace) {
        let k = kernel_fn();
        let ks = vec![kernel_fn()];
        let db = generate_database(&ks, &[], budget, 23);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(5),
        );
        let space = DesignSpace::from_kernel(&k);
        (p, k, space)
    }

    /// The search on a single-worker engine.
    fn serial_dse(
        p: &Predictor,
        k: &Kernel,
        space: &DesignSpace,
        cfg: &DseConfig,
    ) -> DseOutcome {
        let graph = build_graph_bidirectional(k, space);
        run_dse_with_engine(p, k, space, &graph, cfg, &ExecEngine::serial())
    }

    fn evaluated_all(kernel: &Kernel, space: &DesignSpace) -> Vec<Evaluated> {
        let sim = MerlinSimulator::new();
        (0..space.size())
            .map(|i| {
                let pt = space.point_at(i);
                let r = sim.evaluate(kernel, space, &pt);
                Evaluated::new(pt, r, 0, &Objective::latency())
            })
            .collect()
    }

    #[test]
    fn exhaustive_dse_covers_small_space() {
        let (p, k, space) = trained(kernels::aes, 30);
        let out = serial_dse(&p, &k, &space, &DseConfig::quick());
        assert!(out.exhaustive);
        assert!(out.inferences > 0);
        assert!(out.top.len() <= 10);
        assert!(out.front.is_empty(), "latency mode publishes no front");
    }

    #[test]
    fn heuristic_dse_respects_inference_cap() {
        let (p, k, space) = trained(kernels::gemm_ncubed, 40);
        let mut cfg = DseConfig::quick();
        cfg.exhaustive_limit = 10; // force the heuristic path
        cfg.max_inferences = 300;
        let out = serial_dse(&p, &k, &space, &cfg);
        assert!(!out.exhaustive);
        assert!(out.inferences <= 300 + BATCH);
    }

    /// The sweep and exhaustive path as it ran before windows: score and
    /// absorb every 64 candidates, on one worker.
    fn batch_by_batch(
        p: &Predictor,
        k: &Kernel,
        space: &DesignSpace,
        graph: &ProgramGraph,
        cfg: &DseConfig,
    ) -> DseOutcome {
        let (start, objective) = (Instant::now(), cfg.objective());
        let exhaustive = space.size() <= cfg.exhaustive_limit;
        let (mut top, mut fallback) = (Vec::new(), Vec::new());
        let mut archive = ParetoArchive::new(cfg.top_m.max(64));
        let (mut inferences, mut seen, mut pending) = (0, HashSet::new(), Vec::new());
        let mut flush = |pending: &mut Vec<DesignPoint>, inferences: &mut usize| {
            if pending.is_empty() {
                return;
            }
            let preds = p.predict_batch(graph, pending);
            *inferences += pending.len();
            for (point, pred) in pending.drain(..).zip(preds) {
                if objective.feasible_prediction(&pred) {
                    if objective.kind == ObjectiveKind::Pareto {
                        archive.insert(prediction_axes(&pred), (point.clone(), pred));
                    }
                    top.push((point, pred));
                } else {
                    fallback.push((point, pred));
                }
            }
            match objective.kind {
                ObjectiveKind::Weighted(w) => top.sort_by(|a, b| {
                    w.combine(a.1.cycles, &a.1.util)
                        .total_cmp(&w.combine(b.1.cycles, &b.1.util))
                        .then(a.1.cycles.cmp(&b.1.cycles))
                }),
                _ => top.sort_by_key(|(_, pr)| pr.cycles),
            }
            top.truncate(cfg.top_m.max(64));
            fallback.sort_by_key(|(_, pr)| pr.cycles);
            fallback.truncate(cfg.top_m);
        };
        for point in candidate_order(k, space, exhaustive, cfg) {
            if start.elapsed() > cfg.time_limit || inferences >= cfg.max_inferences && !exhaustive {
                break;
            }
            let canonical = rules::canonicalize(k, space, &point);
            if seen.insert(canonical.clone()) {
                pending.push(canonical);
                if pending.len() >= BATCH {
                    flush(&mut pending, &mut inferences);
                }
            }
        }
        flush(&mut pending, &mut inferences);
        let used_fallback = top.is_empty();
        if used_fallback {
            top = fallback;
        }
        top.truncate(cfg.top_m);
        let front = archive.front().into_iter().map(|m| m.item.clone()).collect();
        DseOutcome { top, front, inferences, wall: start.elapsed(), exhaustive, used_fallback }
    }

    /// Points and every predicted bit of a candidate list.
    fn outcome_bits(list: &[(DesignPoint, Prediction)]) -> Vec<(DesignPoint, [u64; 6])> {
        list.iter()
            .map(|(point, p)| {
                let u = &p.util;
                let bits = [p.valid_prob, u.dsp, u.lut, u.ff, u.bram].map(f64::to_bits);
                (point.clone(), [bits[0], p.cycles, bits[1], bits[2], bits[3], bits[4]])
            })
            .collect()
    }

    /// Windows change which points share a `predict_batch` call, and when
    /// the candidate lists are sorted and cut; neither may change a
    /// returned design, a predicted bit or the inference count.
    #[test]
    fn windowed_scoring_matches_the_batch_by_batch_loop() {
        let ks = vec![kernels::mm2(), kernels::mvt(), kernels::stencil()];
        let db = generate_database(&ks, &[], 30, 23);
        let config = TrainConfig::quick().with_epochs(5);
        let (p, _) =
            Predictor::train(&db, &ks, ModelKind::Transformer, ModelConfig::small(), &config);
        let objectives = [
            ObjectiveKind::Latency,
            ObjectiveKind::Weighted(crate::objective::ObjectiveWeights::default()),
            ObjectiveKind::Pareto,
        ];
        // Heuristic sweeps under caps that are no multiple of the batch,
        // and stencil's exhaustive stream: 4,015 canonical points.
        let runs = [
            (kernels::mm2 as fn() -> Kernel, 300),
            (kernels::mm2, 1_500),
            (kernels::mvt, 300),
            (kernels::mvt, 1_500),
            (kernels::stencil, 0),
        ];
        let mut fallbacks = 0;
        for (kernel_fn, cap) in runs {
            let k = kernel_fn();
            let space = DesignSpace::from_kernel(&k);
            let graph = build_graph_bidirectional(&k, &space);
            for kind in objectives {
                let cfg = DseConfig { max_inferences: cap, kind, ..DseConfig::default() };
                let want = batch_by_batch(&p, &k, &space, &graph, &cfg);
                assert_eq!(want.exhaustive, cap == 0, "{}", k.name());
                for jobs in [1, 3] {
                    let case = format!("{}, cap {cap}, {kind:?}, {jobs} workers", k.name());
                    let engine = ExecEngine::with_jobs(jobs);
                    let got = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &engine);
                    assert_eq!(got.inferences, want.inferences, "{case}");
                    assert_eq!(got.used_fallback, want.used_fallback, "{case}");
                    assert_eq!(outcome_bits(&got.top), outcome_bits(&want.top), "{case}");
                    assert_eq!(outcome_bits(&got.front), outcome_bits(&want.front), "{case}");
                }
                fallbacks += usize::from(want.used_fallback);
                if cap > 0 {
                    assert_eq!(want.inferences, cap.div_ceil(64) * 64, "{}", k.name());
                } else {
                    assert_eq!(want.inferences, 4_015);
                }
                if kind == ObjectiveKind::Pareto && !want.used_fallback {
                    assert!(!want.front.is_empty(), "{}: the front is compared", k.name());
                }
            }
        }
        // Both ways of filling `top` are compared.
        assert!(fallbacks > 0 && fallbacks < runs.len() * objectives.len(), "{fallbacks}");
    }

    #[test]
    fn windows_hold_whole_batches_within_both_bounds() {
        // 2mm's 59 nodes: 512 points. 100 nodes: 327 fit, 5 batches of 64.
        assert_eq!(window_len(59), 512);
        assert_eq!(window_len(64), 512);
        assert_eq!(window_len(100), 320);
        // Always at least one batch, however large the graph.
        assert_eq!(window_len(1_000), 64);
    }

    #[test]
    fn parallel_dse_matches_serial_dse() {
        let (p, k, space) = trained(kernels::spmv_ellpack, 40);
        let graph = build_graph_bidirectional(&k, &space);
        let cfg = DseConfig::quick();
        let serial = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &ExecEngine::serial());
        for jobs in [4, 8] {
            let engine = ExecEngine::with_jobs(jobs);
            let par = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &engine);
            assert_eq!(par.inferences, serial.inferences, "jobs={jobs}");
            assert_eq!(par.exhaustive, serial.exhaustive);
            assert_eq!(par.top.len(), serial.top.len(), "jobs={jobs}");
            for ((pp, ppred), (sp, spred)) in par.top.iter().zip(&serial.top) {
                assert_eq!(pp, sp, "jobs={jobs}");
                assert_eq!(ppred.cycles, spred.cycles, "jobs={jobs}");
                assert_eq!(
                    ppred.valid_prob.to_bits(),
                    spred.valid_prob.to_bits(),
                    "jobs={jobs}: predictions must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn gflow_sampler_dse_is_jobs_invariant() {
        let (p, k, space) = trained(kernels::gemm_ncubed, 40);
        let graph = build_graph_bidirectional(&k, &space);
        let mut cfg = DseConfig::quick();
        cfg.exhaustive_limit = 10; // force the heuristic path
        cfg.max_inferences = 400;
        cfg.sampler = CandidateSampler::Gflow;
        let serial = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &ExecEngine::serial());
        assert!(!serial.exhaustive);
        assert!(serial.inferences <= cfg.max_inferences + BATCH);
        assert!(!serial.top.is_empty());
        for jobs in [1, 2, 3, 4] {
            obs::metrics::reset();
            let engine = ExecEngine::with_jobs(jobs);
            let par = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &engine);
            assert_eq!(par.inferences, serial.inferences, "jobs={jobs}");
            assert_eq!(par.top, serial.top, "jobs={jobs}");
            // The run's memo predicts each distinct point once, and the
            // waves repeat points.
            let count = obs::metrics::counter_value;
            assert_eq!(count("surrogate.inferences"), par.inferences as u64, "jobs={jobs}");
            assert!(count("exec.cache_hits") > 0, "jobs={jobs}");
        }
        obs::metrics::reset();
    }

    #[test]
    fn top_designs_are_sorted_by_predicted_cycles() {
        let (p, k, space) = trained(kernels::spmv_ellpack, 40);
        let out = serial_dse(&p, &k, &space, &DseConfig::quick());
        for w in out.top.windows(2) {
            assert!(w[0].1.cycles <= w[1].1.cycles);
        }
    }

    #[test]
    fn impossible_threshold_falls_back_to_best_predicted() {
        // With an unsatisfiable utilization threshold nothing is "usable",
        // but the DSE must still return ranked candidates so the validation
        // step has something to refute.
        let (p, k, space) = trained(kernels::spmv_ellpack, 30);
        let mut cfg = DseConfig::quick();
        cfg.util_threshold = -1.0;
        let out = serial_dse(&p, &k, &space, &cfg);
        assert!(!out.top.is_empty(), "fallback candidates expected");
        assert!(out.used_fallback);
        for w in out.top.windows(2) {
            assert!(w[0].1.cycles <= w[1].1.cycles, "fallback is sorted too");
        }
    }

    #[test]
    fn pareto_objective_publishes_a_mutually_non_dominated_front() {
        let (p, k, space) = trained(kernels::spmv_ellpack, 40);
        let mut cfg = DseConfig::quick();
        cfg.kind = ObjectiveKind::Pareto;
        let out = serial_dse(&p, &k, &space, &cfg);
        if out.used_fallback {
            return; // nothing usable predicted; nothing to check
        }
        assert!(!out.front.is_empty(), "usable predictions imply a front");
        for (i, (_, a)) in out.front.iter().enumerate() {
            for (j, (_, b)) in out.front.iter().enumerate() {
                if i != j {
                    assert!(
                        !strictly_dominates(&prediction_axes(b), &prediction_axes(a)),
                        "front member {i} dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_constrained_dse_returns_no_violating_candidate() {
        let (p, k, space) = trained(kernels::spmv_ellpack, 40);
        let mut cfg = DseConfig::quick();
        let budget = ResourceBudget::parse("dsp=0.6,bram=0.6").unwrap();
        cfg.kind = ObjectiveKind::Pareto;
        cfg.budget = budget;
        let out = serial_dse(&p, &k, &space, &cfg);
        if !out.used_fallback {
            for (_, pred) in &out.top {
                assert!(budget.admits(&pred.util), "top candidate violates the budget");
            }
        }
        for (_, pred) in &out.front {
            assert!(budget.admits(&pred.util), "front member violates the budget");
        }
    }

    #[test]
    fn pareto_front_filters_dominated() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let results = evaluated_all(&k, &space);
        let front = pareto_front(&results);
        assert!(!front.is_empty());
        // No front member strictly dominates another.
        for &i in &front {
            for &j in &front {
                if i != j {
                    assert!(
                        !strictly_dominates(&results[j].axes(), &results[i].axes()),
                        "front member {i} dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn pareto_front_keeps_one_deterministic_representative_per_tie() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let mut results = evaluated_all(&k, &space);
        let n = results.len();
        // Duplicate the whole set: every entry now has an exact objective
        // tie at index i + n. The front must keep only the low-index copy.
        results.extend(results.clone());
        let front = pareto_front(&results);
        assert!(!front.is_empty());
        assert!(front.iter().all(|&i| i < n), "ties resolve to the lowest index");
        // Membership equals the single-copy front.
        assert_eq!(front, pareto_front(&results[..n]));
        // And distinct objective vectors: no two front members tie exactly.
        for (a, &i) in front.iter().enumerate() {
            for &j in front.iter().skip(a + 1) {
                assert_ne!(results[i].axes(), results[j].axes());
            }
        }
    }
}
