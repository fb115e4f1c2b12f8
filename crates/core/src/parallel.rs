//! The execution engine: one [`ExecEngine`] threads the [`gdse_exec`]
//! worker pool and caches through the whole pipeline.
//!
//! The engine bundles three things every parallel stage needs:
//!
//! * a [`WorkerPool`] sized by `--jobs` (results always come back in
//!   submission order, so any worker count reproduces the serial output);
//! * an **oracle cache** keyed by `(kernel, pragma-config)` holding
//!   successful [`HlsResult`]s — losses are *not* cached, so a config that
//!   failed through the fault-injecting harness is evaluated again when it
//!   is resubmitted;
//! * a **prediction cache** with the same key shape for surrogate
//!   [`Prediction`]s, cleared whenever the model retrains
//!   ([`ExecEngine::clear_predictions`]).
//!
//! Cache lookups and result splicing happen on the calling thread; only the
//! actual oracle/surrogate work fans out. Per-worker observability counters
//! are folded back into the caller's registry by the pool, so
//! `run_report.json` sees one consistent total regardless of `--jobs`.

use crate::harness::{EvalBackend, EvalError};
use crate::inference::{Prediction, Predictor};
use design_space::{DesignPoint, DesignSpace};
use gdse_exec::{evaluate_cached, ShardedCache, WorkerPool};
use hls_ir::Kernel;
use merlin_sim::HlsResult;
use proggraph::ProgramGraph;

/// Cache key: kernel name + full pragma configuration.
type ConfigKey = (String, DesignPoint);

/// Worker pool plus the two pipeline-wide caches (see module docs).
#[derive(Debug)]
pub struct ExecEngine {
    pool: WorkerPool,
    /// Only `Ok` results are inserted (see [`ExecEngine::evaluate_ordered`]).
    oracle_cache: ShardedCache<ConfigKey, Result<HlsResult, EvalError>>,
    prediction_cache: ShardedCache<ConfigKey, Prediction>,
}

/// Shard count of each of the engine's two caches.
const CACHE_SHARDS: usize = 16;

impl ExecEngine {
    /// An engine running on `jobs` workers (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        ExecEngine {
            pool: WorkerPool::new(jobs),
            oracle_cache: ShardedCache::new(CACHE_SHARDS),
            prediction_cache: ShardedCache::new(CACHE_SHARDS),
        }
    }

    /// A single-worker engine: batched code paths, serial execution.
    pub fn serial() -> Self {
        ExecEngine::with_jobs(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// The underlying pool, for stages that fan out non-evaluation work.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Drops every cached prediction. Must be called whenever the surrogate
    /// retrains — predictions from the previous model are stale.
    pub fn clear_predictions(&self) {
        self.prediction_cache.clear();
    }

    /// Evaluates `points` through `eval`, in parallel, returning results in
    /// input order.
    ///
    /// Previously seen successful configs are served from the oracle cache;
    /// duplicate configs *within* the batch are evaluated once and their
    /// result copied to every occurrence. Misses run on the worker pool.
    /// Only successes are cached: a lost point (retries exhausted, fatal
    /// tool error) is re-attempted the next time it is submitted, exactly
    /// like the serial harness would.
    pub fn evaluate_ordered<B: EvalBackend + Sync>(
        &self,
        eval: &B,
        kernel: &Kernel,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<Result<HlsResult, EvalError>> {
        evaluate_cached(
            |items: &[DesignPoint]| {
                self.pool.map(items, |_, p| eval.try_evaluate(kernel, space, p))
            },
            &self.oracle_cache,
            |p| (kernel.name().to_string(), p.clone()),
            Result::is_ok,
            points,
        )
    }

    /// Runs the surrogate over `points`, in parallel, returning predictions
    /// in input order.
    ///
    /// Misses are split into one contiguous chunk per worker and scored with
    /// [`Predictor::predict_batch`], which amortizes graph encoding over the
    /// chunk. Prediction is item-independent, so any chunking (any `--jobs`)
    /// produces the same numbers as one serial batch.
    pub fn predict_ordered(
        &self,
        predictor: &Predictor,
        graph: &ProgramGraph,
        kernel_name: &str,
        points: &[DesignPoint],
    ) -> Vec<Prediction> {
        let chunked = |items: &[DesignPoint]| -> Vec<Prediction> {
            if items.is_empty() {
                return Vec::new();
            }
            let per_worker = items.len().div_ceil(self.pool.jobs()).max(1);
            let chunks: Vec<&[DesignPoint]> = items.chunks(per_worker).collect();
            self.pool
                .map(&chunks, |_, chunk| predictor.predict_batch(graph, chunk))
                .into_iter()
                .flatten()
                .collect()
        };
        evaluate_cached(
            chunked,
            &self.prediction_cache,
            |p| (kernel_name.to_string(), p.clone()),
            |_| true,
            points,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Harness, RetryPolicy};
    use gdse_obs as obs;
    use hls_ir::kernels;
    use merlin_sim::{FaultConfig, FaultyOracle, MerlinSimulator};

    fn setup() -> (Kernel, DesignSpace) {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        (k, space)
    }

    fn sample(space: &DesignSpace, n: usize, seed: u64) -> Vec<DesignPoint> {
        (0..n as u64)
            .map(|i| {
                let mut z = (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                space.point_at(u128::from(z ^ (z >> 31)) % space.size())
            })
            .collect()
    }

    #[test]
    fn parallel_evaluation_matches_serial_order() {
        let (k, space) = setup();
        let sim = MerlinSimulator::new();
        let points = sample(&space, 40, 11);

        let serial: Vec<_> =
            points.iter().map(|p| Ok(sim.evaluate(&k, &space, p))).collect::<Vec<_>>();
        for jobs in [1, 4, 8] {
            let engine = ExecEngine::with_jobs(jobs);
            let got = engine.evaluate_ordered(&sim, &k, &space, &points);
            assert_eq!(got, serial, "jobs={jobs} must reproduce serial results in order");
        }
    }

    #[test]
    fn repeated_evaluation_is_served_from_the_cache() {
        let (k, space) = setup();
        let sim = MerlinSimulator::new();
        let points = sample(&space, 10, 3);
        let engine = ExecEngine::with_jobs(4);

        let first = engine.evaluate_ordered(&sim, &k, &space, &points);
        let second = engine.evaluate_ordered(&sim, &k, &space, &points);
        assert_eq!(first, second);
        // All 10 points hit on the second pass (sample() may repeat a point,
        // so the first pass can contribute hits of its own).
        let hit_points: usize =
            points.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(engine.oracle_cache.len(), hit_points);
    }

    #[test]
    fn duplicate_points_in_one_batch_are_evaluated_once() {
        let (k, space) = setup();
        let sim = MerlinSimulator::new();
        let p = space.default_point();
        let engine = ExecEngine::serial();
        let out = engine.evaluate_ordered(&sim, &k, &space, &[p.clone(), p.clone(), p]);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        assert_eq!(engine.oracle_cache.len(), 1);
    }

    #[test]
    fn a_lost_point_is_evaluated_again_when_resubmitted() {
        let (k, space) = setup();
        let fatal = FaultConfig { fatal_rate: 1.0, ..FaultConfig::none() };
        let harness = Harness::new(
            FaultyOracle::new(MerlinSimulator::new(), fatal),
            RetryPolicy::with_max_retries(2),
        );
        let points = sample(&space, 6, 13);
        let engine = ExecEngine::with_jobs(2);
        let count = obs::metrics::counter_value;
        obs::metrics::reset();

        let first = engine.evaluate_ordered(&harness, &k, &space, &points);
        assert!(first.iter().all(Result::is_err), "every point is lost");
        let attempts = count("oracle.attempts");
        assert!(attempts > 0);
        let second = engine.evaluate_ordered(&harness, &k, &space, &points);
        assert_eq!(second, first);
        assert_eq!(count("oracle.attempts"), 2 * attempts, "each lost point is tried again");
        assert_eq!(count("exec.cache_hits"), 0, "a loss is never served from the cache");
        assert!(engine.oracle_cache.is_empty());
        obs::metrics::reset();
    }

    #[test]
    fn chunked_prediction_matches_one_serial_batch() {
        let (k, space) = setup();
        let graph = proggraph::build_graph_bidirectional(&k, &space);
        let predictor = Predictor::untrained(
            gdse_gnn::ModelKind::Transformer,
            gdse_gnn::ModelConfig::small(),
            crate::dataset::Normalizer::with_factor(1_000_000.0),
        );
        let points = sample(&space, 17, 5);

        let reference = predictor.predict_batch(&graph, &points);
        for jobs in [1, 3, 8] {
            let engine = ExecEngine::with_jobs(jobs);
            let got = engine.predict_ordered(&predictor, &graph, k.name(), &points);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.valid_prob.to_bits(), r.valid_prob.to_bits(), "jobs={jobs}");
                assert_eq!(g.cycles, r.cycles, "jobs={jobs}");
            }
            // Second call: everything cached, same values.
            let again = engine.predict_ordered(&predictor, &graph, k.name(), &points);
            for (g, r) in again.iter().zip(&reference) {
                assert_eq!(g.valid_prob.to_bits(), r.valid_prob.to_bits());
            }
            engine.clear_predictions();
        }
    }
}
