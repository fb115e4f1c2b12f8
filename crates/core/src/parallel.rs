//! The execution engine: one [`ExecEngine`] threads the [`gdse_exec`]
//! worker pool through the whole pipeline.
//!
//! The engine holds a [`WorkerPool`] sized by `--jobs`. Results always come
//! back in submission order, so any worker count reproduces the serial
//! output. It caches nothing: every oracle result lands in the
//! [`Database`](crate::db::Database), which each oracle caller consults
//! before it submits a batch, and a caller that can ask for a prediction
//! twice keeps its own memo for as long as its model lives (the GFlow
//! sampler in [`run_dse_with_engine`](crate::dse::run_dse_with_engine) and
//! [`PredictService`](crate::serving::PredictService)).
//!
//! Per-worker observability counters are folded back into the caller's
//! registry by the pool, so `run_report.json` sees one consistent total
//! regardless of `--jobs`.

use crate::harness::{EvalBackend, EvalError};
use crate::inference::{Prediction, Predictor, Template};
use design_space::{DesignPoint, DesignSpace};
use gdse_exec::WorkerPool;
use hls_ir::Kernel;
use merlin_sim::HlsResult;
use std::ops::Deref;

/// The worker pool every parallel stage runs on (see module docs).
#[derive(Debug)]
pub struct ExecEngine {
    pool: WorkerPool,
}

impl ExecEngine {
    /// An engine running on `jobs` workers (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        ExecEngine { pool: WorkerPool::new(jobs) }
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

    /// Evaluates `points` through `eval`, one task per point on the worker
    /// pool, returning results in input order. Every point is evaluated, a
    /// repeated one as often as it appears: callers skip what the database
    /// holds and deduplicate their batch first.
    pub fn evaluate_ordered<B: EvalBackend + Sync>(
        &self,
        eval: &B,
        kernel: &Kernel,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<Result<HlsResult, EvalError>> {
        self.pool.map(points, |_, p| eval.try_evaluate(kernel, space, p))
    }

    /// Runs the surrogate over `points` of the `template`'s kernel, in
    /// parallel, returning predictions in input order.
    ///
    /// The points are split into one contiguous chunk per worker and scored
    /// with [`Template::predict_batch`], which amortizes lowering over the
    /// chunk and reads the rows no point changes from the template.
    /// Prediction is item-independent, so any chunking (any `--jobs`)
    /// produces the same numbers as one serial batch.
    pub fn predict_ordered<P: Deref<Target = Predictor> + Sync>(
        &self,
        template: &Template<P>,
        points: &[DesignPoint],
    ) -> Vec<Prediction> {
        if points.is_empty() {
            return Vec::new();
        }
        let per_worker = points.len().div_ceil(self.pool.jobs());
        let chunks: Vec<&[DesignPoint]> = points.chunks(per_worker).collect();
        self.pool
            .map(&chunks, |_, chunk| template.predict_batch(chunk))
            .into_iter()
            .flatten()
            .collect()
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
        let template = Template::new(&predictor, &graph);
        for jobs in [1, 3, 8] {
            let engine = ExecEngine::with_jobs(jobs);
            let got = engine.predict_ordered(&template, &points);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.valid_prob.to_bits(), r.valid_prob.to_bits(), "jobs={jobs}");
                assert_eq!(g.cycles, r.cycles, "jobs={jobs}");
            }
        }
    }
}
