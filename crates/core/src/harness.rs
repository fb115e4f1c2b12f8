//! Resilient evaluation harness: retry, backoff, and failure accounting
//! around any [`HlsOracle`].
//!
//! The explorers and the rounds loop do not talk to an oracle directly; they
//! go through an [`EvalBackend`]. The plain [`MerlinSimulator`] is an
//! infallible backend (what every existing call site uses), while
//! [`Harness`] wraps a fallible [`HlsOracle`] and turns its transient
//! failures into retried attempts with capped exponential backoff, and its
//! permanent failures into typed [`EvalError`]s the caller can degrade
//! gracefully on.
//!
//! Backoff is *virtual*: the harness books how long a real driver would
//! have slept (the `oracle.virtual_backoff_ms` counter) without actually
//! sleeping, keeping simulated campaigns fast and fully deterministic.
//!
//! Every attempt, success, failure and backoff is counted once, in the
//! `oracle.*` counters of the calling thread's metrics registry; the run
//! report's `oracle` section and the CLI's oracle log lines read them.

use merlin_sim::{HlsOracle, HlsResult, MerlinSimulator, OracleFailure};

use design_space::{DesignPoint, DesignSpace};
use gdse_obs as obs;
use hls_ir::Kernel;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Why an evaluation could not produce a result, after the harness did all
/// it could.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalError {
    /// The oracle reported a non-retryable failure.
    Permanent {
        /// The underlying failure.
        failure: OracleFailure,
    },
    /// Every allowed attempt failed with a (retryable) transient failure.
    Exhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The failure of the final attempt.
        last: OracleFailure,
    },
}

impl EvalError {
    /// The underlying oracle failure.
    pub fn failure(&self) -> &OracleFailure {
        match self {
            EvalError::Permanent { failure } => failure,
            EvalError::Exhausted { last, .. } => last,
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Permanent { failure } => {
                write!(f, "permanent oracle failure: {failure}")
            }
            EvalError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last failure: {last}")
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.failure())
    }
}

/// Retry discipline: how many times to re-run a failed invocation and how
/// long to (virtually) wait between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Upper bound on a single backoff, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_backoff_ms: 1_000, max_backoff_ms: 60_000 }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` retries and the default backoff curve.
    pub fn with_max_retries(max_retries: u32) -> Self {
        RetryPolicy { max_retries, ..RetryPolicy::default() }
    }

    /// Backoff before retry number `retry` (1-based): capped exponential,
    /// `base * 2^(retry-1)` clamped to `max_backoff_ms`.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        debug_assert!(retry >= 1, "backoff happens before a retry, not the first attempt");
        self.base_backoff_ms
            .saturating_mul(1u64 << (retry - 1).min(62))
            .min(self.max_backoff_ms)
    }

    /// Total attempts allowed (first try + retries), saturating at
    /// `u32::MAX`.
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }
}

/// Anything the explorers can evaluate design points against.
///
/// The two implementations are the bare [`MerlinSimulator`] (infallible,
/// zero overhead — the default everywhere) and [`Harness`] (fallible oracle
/// plus retry).
pub trait EvalBackend {
    /// Evaluates one design point, retrying/cleaning up as the backend sees
    /// fit. `Err` means the point produced *no* usable result.
    fn try_evaluate(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> Result<HlsResult, EvalError>;
}

impl EvalBackend for MerlinSimulator {
    fn try_evaluate(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> Result<HlsResult, EvalError> {
        Ok(self.evaluate(kernel, space, point))
    }
}

impl<T: EvalBackend + ?Sized> EvalBackend for &T {
    fn try_evaluate(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> Result<HlsResult, EvalError> {
        (**self).try_evaluate(kernel, space, point)
    }
}

/// Drives an [`HlsOracle`] with bounded retries and failure accounting.
///
/// The harness holds no mutable state, so one harness can be shared across
/// the worker pool: per-point retry decisions are independent (fault
/// outcomes are stateless per attempt), and each worker's `oracle.*`
/// counters fold back into the caller's registry.
#[derive(Debug)]
pub struct Harness<O> {
    oracle: O,
    policy: RetryPolicy,
}

impl<O: HlsOracle> Harness<O> {
    /// Wraps `oracle` under `policy`.
    pub fn new(oracle: O, policy: RetryPolicy) -> Self {
        Harness { oracle, policy }
    }

    /// Runs the oracle on one point, retrying transient failures with
    /// capped exponential (virtual) backoff.
    pub fn evaluate(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> Result<HlsResult, EvalError> {
        let max_attempts = self.policy.max_attempts();
        let mut attempt = 0u32;
        loop {
            obs::metrics::counter_inc("oracle.attempts");
            let started = Instant::now();
            let outcome = self.oracle.run(kernel, space, point, attempt);
            obs::metrics::observe_us("oracle.eval_us", started.elapsed().as_micros() as u64);
            match outcome {
                Ok(result) => {
                    obs::metrics::counter_inc("oracle.successes");
                    return Ok(result);
                }
                Err(failure) if !failure.is_retryable() => {
                    obs::metrics::counter_inc("oracle.permanent_failures");
                    obs::metrics::counter_add_labeled("harness.faults", "kind", failure.kind(), 1);
                    obs::warn!(
                        "oracle.permanent_failure",
                        "evaluation abandoned: {failure}";
                        kernel = kernel.name(),
                        kind = failure.kind(),
                    );
                    return Err(EvalError::Permanent { failure });
                }
                Err(failure) => {
                    attempt += 1;
                    obs::metrics::counter_inc("oracle.transient_failures");
                    obs::metrics::counter_add_labeled("harness.faults", "kind", failure.kind(), 1);
                    if attempt >= max_attempts {
                        obs::metrics::counter_inc("oracle.exhausted");
                        obs::warn!(
                            "oracle.exhausted",
                            "gave up after {attempt} attempts: {failure}";
                            kernel = kernel.name(),
                            kind = failure.kind(),
                            attempts = attempt,
                        );
                        return Err(EvalError::Exhausted { attempts: attempt, last: failure });
                    }
                    let backoff_ms = self.policy.backoff_ms(attempt);
                    obs::metrics::counter_add("oracle.retries", 1);
                    obs::metrics::counter_add("oracle.virtual_backoff_ms", backoff_ms);
                    obs::debug!(
                        "oracle.retry",
                        "transient failure, retrying: {failure}";
                        kernel = kernel.name(),
                        kind = failure.kind(),
                        retry = attempt,
                        backoff_ms = backoff_ms,
                    );
                }
            }
        }
    }
}

impl<O: HlsOracle> EvalBackend for Harness<O> {
    fn try_evaluate(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> Result<HlsResult, EvalError> {
        self.evaluate(kernel, space, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use merlin_sim::{FaultConfig, FaultyOracle};
    use std::sync::Arc;

    fn setup() -> (Kernel, DesignSpace) {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        (k, space)
    }

    fn count(name: &str) -> u64 {
        obs::metrics::counter_value(name)
    }

    /// Oracle that always fails the same retryable way.
    struct AlwaysCrash;

    impl HlsOracle for AlwaysCrash {
        fn run(
            &self,
            _kernel: &Kernel,
            _space: &DesignSpace,
            _point: &DesignPoint,
            attempt: u32,
        ) -> Result<HlsResult, OracleFailure> {
            Err(OracleFailure::ToolCrash { detail: format!("attempt {attempt}") })
        }
    }

    /// Oracle that fails fatally on every invocation.
    struct BrokenInstall;

    impl HlsOracle for BrokenInstall {
        fn run(
            &self,
            _kernel: &Kernel,
            _space: &DesignSpace,
            _point: &DesignPoint,
            _attempt: u32,
        ) -> Result<HlsResult, OracleFailure> {
            Err(OracleFailure::Fatal { detail: "no toolchain".into() })
        }
    }

    /// Oracle that crashes on the first attempt and succeeds on the next.
    struct CrashOnce;

    impl HlsOracle for CrashOnce {
        fn run(
            &self,
            kernel: &Kernel,
            space: &DesignSpace,
            point: &DesignPoint,
            attempt: u32,
        ) -> Result<HlsResult, OracleFailure> {
            if attempt == 0 {
                return Err(OracleFailure::ToolCrash { detail: "first try".into() });
            }
            Ok(MerlinSimulator::new().evaluate(kernel, space, point))
        }
    }

    #[test]
    fn gives_up_after_max_retries() {
        let (k, space) = setup();
        obs::metrics::reset();
        let h = Harness::new(AlwaysCrash, RetryPolicy::with_max_retries(2));
        let err = h.evaluate(&k, &space, &space.default_point()).unwrap_err();
        match err {
            EvalError::Exhausted { attempts, ref last } => {
                assert_eq!(attempts, 3, "1 try + 2 retries");
                assert_eq!(last.kind(), "tool-crash");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(count("oracle.attempts"), 3);
        assert_eq!(count("oracle.successes"), 0);
        assert_eq!(count("oracle.exhausted"), 1);
        assert_eq!(count("oracle.transient_failures"), 3);
        assert_eq!(count("oracle.retries"), 2, "the last failure is not retried");
    }

    #[test]
    fn fatal_failures_are_not_retried() {
        let (k, space) = setup();
        obs::metrics::reset();
        let h = Harness::new(BrokenInstall, RetryPolicy::with_max_retries(5));
        let err = h.evaluate(&k, &space, &space.default_point()).unwrap_err();
        assert!(matches!(err, EvalError::Permanent { .. }));
        assert_eq!(count("oracle.attempts"), 1, "fatal failure must not burn retries");
        assert_eq!(count("oracle.permanent_failures"), 1);
        assert_eq!(count("oracle.retries"), 0);
    }

    #[test]
    fn the_largest_retry_count_still_retries() {
        let (k, space) = setup();
        obs::metrics::reset();
        let h = Harness::new(CrashOnce, RetryPolicy::with_max_retries(u32::MAX));
        assert_eq!(h.policy.max_attempts(), u32::MAX, "saturates instead of wrapping to 0");
        let r = h.evaluate(&k, &space, &space.default_point()).expect("the retry succeeds");
        assert_eq!(r, MerlinSimulator::new().evaluate(&k, &space, &space.default_point()));
        assert_eq!(count("oracle.attempts"), 2);
        assert_eq!(count("oracle.retries"), 1);
        assert_eq!(count("oracle.successes"), 1);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy { max_retries: 10, base_backoff_ms: 100, max_backoff_ms: 1_500 };
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff_ms(4), 800);
        assert_eq!(p.backoff_ms(5), 1_500, "capped");
        assert_eq!(p.backoff_ms(10), 1_500, "stays capped");
    }

    #[test]
    fn virtual_backoff_accumulates() {
        let (k, space) = setup();
        obs::metrics::reset();
        let policy = RetryPolicy { max_retries: 3, base_backoff_ms: 10, max_backoff_ms: 1_000 };
        let h = Harness::new(AlwaysCrash, policy);
        let _ = h.evaluate(&k, &space, &space.default_point());
        // Backoffs before retries 1..=3: 10 + 20 + 40.
        assert_eq!(count("oracle.virtual_backoff_ms"), 70);
    }

    #[test]
    fn retries_recover_transient_faults() {
        let (k, space) = setup();
        obs::metrics::reset();
        // At a 30% transient rate with 5 retries, nearly every point should
        // eventually evaluate; and the harness result must equal the bare
        // simulator's (faults never corrupt results, only delay them).
        let sim = MerlinSimulator::new();
        let h = Harness::new(
            FaultyOracle::new(MerlinSimulator::new(), FaultConfig::uniform(0.3, 11)),
            RetryPolicy::with_max_retries(5),
        );
        let mut evaluated = 0usize;
        for i in 0..40u64 {
            let idx = u128::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % space.size();
            let p = space.point_at(idx);
            if let Ok(r) = h.evaluate(&k, &space, &p) {
                evaluated += 1;
                let expect = sim.evaluate(&k, &space, &p);
                assert_eq!(r.validity, expect.validity);
                assert_eq!(r.cycles, expect.cycles);
            }
        }
        assert!(evaluated >= 38, "only {evaluated}/40 recovered at 30% transient rate");
        assert!(count("oracle.transient_failures") > 0, "faults should have fired at 30% rate");
    }

    #[test]
    fn harness_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Harness<FaultyOracle<MerlinSimulator>>>();
        assert_send_sync::<Harness<AlwaysCrash>>();

        // Concurrent evaluations through one shared harness must account
        // every point exactly once.
        let (k, space) = setup();
        let h = Harness::new(
            FaultyOracle::new(MerlinSimulator::new(), FaultConfig::uniform(0.3, 5)),
            RetryPolicy::with_max_retries(4),
        );
        let shared = Arc::new(obs::metrics::SharedMetrics::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (h, k, space, shared) = (&h, &k, &space, &shared);
                s.spawn(move || {
                    let _bound = obs::metrics::bind(shared);
                    for i in 0..10u64 {
                        let idx = u128::from((t * 10 + i).wrapping_mul(0x9E37_79B9)) % space.size();
                        let _ = h.evaluate(k, space, &space.point_at(idx));
                    }
                });
            }
        });
        let snap = shared.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(
            c("oracle.successes") + c("oracle.permanent_failures") + c("oracle.exhausted"),
            40,
            "every point accounted once"
        );
        assert!(c("oracle.attempts") >= 40);
    }

    #[test]
    fn bare_simulator_backend_is_infallible() {
        let (k, space) = setup();
        let sim = MerlinSimulator::new();
        assert!(sim.try_evaluate(&k, &space, &space.default_point()).is_ok());
    }
}
