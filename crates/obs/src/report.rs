//! The end-of-campaign run report.
//!
//! [`RunReport`] is the `run_report.json` artifact a campaign writes when
//! `--metrics-out` is set: a distilled, schema-versioned view of the metrics
//! registry with the quantities the paper's evaluation cares about pulled
//! into first-class fields — per-stage wall time, oracle retry/fault
//! accounting, and the modelled-HLS vs. surrogate throughput comparison
//! (the Table 4 headline) — plus the full counter/gauge/histogram dump for
//! anything else.
//!
//! The report is built from a [`MetricsSnapshot`] so it can be produced
//! from the live registry (campaign end) or from a checkpointed snapshot
//! (post-mortem of a crashed run).

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Current value of [`RunReport::schema_version`].
pub const SCHEMA_VERSION: u32 = 1;

/// Cumulative busy time of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTime {
    /// Stage name (`train`, `dse`, `validate`, ...).
    pub stage: String,
    /// Total time spent in the stage, microseconds.
    pub busy_us: u64,
}

/// Oracle-side accounting: evaluations, retries, faults, losses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct OracleSummary {
    /// Oracle invocations, including retries.
    pub attempts: u64,
    /// Evaluations that produced a result.
    pub successes: u64,
    /// Transient failures, retried or not: the last one of an exhausted
    /// evaluation is not (the `oracle.retries` counter counts retries).
    pub transient_failures: u64,
    /// Evaluations abandoned on a non-retryable failure.
    pub permanent_failures: u64,
    /// Evaluations abandoned after exhausting retries.
    pub exhausted: u64,
    /// Evaluations that produced no result (permanent + exhausted).
    pub lost: u64,
    /// Milliseconds a real driver would have spent backing off.
    pub virtual_backoff_ms: u64,
    /// Injected/observed fault counts by kind (`tool-crash`, ...).
    pub faults: Vec<(String, u64)>,
}

/// Surrogate-side accounting and the modelled speedup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SurrogateSummary {
    /// Surrogate (predictor) inferences performed.
    pub inferences: u64,
    /// Wall time spent inside the surrogate, microseconds.
    pub busy_us: u64,
    /// Mean microseconds per inference (0 when no inferences ran).
    pub mean_inference_us: f64,
    /// Total modelled HLS synthesis time of the evaluations that ran,
    /// minutes (what the real toolchain would have cost).
    pub modelled_hls_minutes: f64,
    /// Modelled per-evaluation HLS time over per-inference surrogate time —
    /// the "minutes vs. milliseconds" claim, computed from this run
    /// (0 when either side is unmeasured).
    pub modelled_vs_surrogate_speedup: f64,
}

/// Multi-objective accounting: Pareto-front sizes and resource-budget
/// enforcement. All zeros for single-objective, unbudgeted runs (and for
/// reports written before this summary existed — the field deserializes
/// with a default, so the schema version is unchanged).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ParetoSummary {
    /// Front points published: predicted fronts from the DSE
    /// (`dse.front_points`) plus tool-validated fronts from the rounds loop
    /// (`rounds.front_points`).
    pub front_points: u64,
    /// Returned DSE candidates that violated the resource budget. Stays 0
    /// by construction unless a run found *no* budget-admissible candidate
    /// and fell back to best-predicted.
    pub budget_violations: u64,
}

/// The `run_report.json` schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The command that produced the report (`gendb`, `rounds`, `dse`).
    pub command: String,
    /// Total wall time of the command, microseconds.
    pub total_wall_us: u64,
    /// Per-stage cumulative busy time, sorted by stage name.
    pub stages: Vec<StageTime>,
    /// Oracle/harness accounting.
    pub oracle: OracleSummary,
    /// Surrogate accounting and modelled speedup.
    pub surrogate: SurrogateSummary,
    /// Multi-objective (Pareto/budget) accounting.
    #[serde(default)]
    pub pareto: ParetoSummary,
    /// Every counter in the registry, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Every gauge in the registry, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram in the registry, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RunReport {
    /// Distills `snap` into a report for `command` that took `total_wall`.
    pub fn from_snapshot(command: &str, total_wall: Duration, snap: &MetricsSnapshot) -> Self {
        let stages = snap
            .counters_with_prefix("stage.")
            .filter_map(|(name, v)| {
                let stage = name.strip_prefix("stage.")?.strip_suffix(".busy_us")?;
                Some(StageTime { stage: stage.to_string(), busy_us: v })
            })
            .collect();

        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let oracle = OracleSummary {
            attempts: c("oracle.attempts"),
            successes: c("oracle.successes"),
            transient_failures: c("oracle.transient_failures"),
            permanent_failures: c("oracle.permanent_failures"),
            exhausted: c("oracle.exhausted"),
            lost: c("oracle.permanent_failures") + c("oracle.exhausted"),
            virtual_backoff_ms: c("oracle.virtual_backoff_ms"),
            faults: snap
                .counters_with_prefix("harness.faults{kind=")
                .filter_map(|(name, v)| {
                    let kind = name
                        .strip_prefix("harness.faults{kind=")?
                        .strip_suffix('}')?;
                    Some((kind.to_string(), v))
                })
                .collect(),
        };

        let inferences = c("surrogate.inferences");
        let busy_us = c("surrogate.busy_us");
        let modelled_hls_minutes = snap.gauge("sim.modelled_hls_minutes").unwrap_or(0.0);
        let sim_evals = c("sim.evals");
        let mean_inference_us =
            if inferences > 0 { busy_us as f64 / inferences as f64 } else { 0.0 };
        // Per-evaluation modelled HLS time vs. per-inference surrogate time:
        // "minutes of synthesis vs. milliseconds of inference".
        let modelled_vs_surrogate_speedup = if inferences > 0 && sim_evals > 0 && busy_us > 0 {
            let hls_us_per_eval = modelled_hls_minutes * 60e6 / sim_evals as f64;
            hls_us_per_eval / mean_inference_us
        } else {
            0.0
        };
        let surrogate = SurrogateSummary {
            inferences,
            busy_us,
            mean_inference_us,
            modelled_hls_minutes,
            modelled_vs_surrogate_speedup,
        };

        let pareto = ParetoSummary {
            front_points: c("dse.front_points") + c("rounds.front_points"),
            budget_violations: c("dse.budget_violations"),
        };

        RunReport {
            schema_version: SCHEMA_VERSION,
            command: command.to_string(),
            total_wall_us: total_wall.as_micros() as u64,
            stages,
            oracle,
            surrogate,
            pareto,
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            histograms: snap.histograms.clone(),
        }
    }

    /// Builds the report from the live thread-local registry.
    pub fn from_current_metrics(command: &str, total_wall: Duration) -> Self {
        Self::from_snapshot(command, total_wall, &crate::metrics::snapshot())
    }

    /// Cumulative busy time of `stage`, microseconds (0 when absent).
    pub fn stage_us(&self, stage: &str) -> u64 {
        self.stages.iter().find(|s| s.stage == stage).map_or(0, |s| s.busy_us)
    }

    /// Sum of all stage busy times, microseconds. For a fully-instrumented
    /// single-threaded command with non-nesting stages this approaches
    /// [`RunReport::total_wall_us`] from below.
    pub fn stages_total_us(&self) -> u64 {
        self.stages.iter().map(|s| s.busy_us).sum()
    }

    /// Serializes the report as indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run report always serializes")
    }

    /// Parses a report produced by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input or a schema
    /// mismatch message on an unknown `schema_version`.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let report: RunReport = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if report.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "run report schema version {} unsupported (expected {})",
                report.schema_version, SCHEMA_VERSION
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn populated_snapshot() -> MetricsSnapshot {
        metrics::reset();
        metrics::counter_add("stage.train.busy_us", 900);
        metrics::counter_add("stage.dse.busy_us", 80);
        metrics::counter_add("stage.validate.busy_us", 15);
        metrics::counter_add("oracle.attempts", 12);
        metrics::counter_add("oracle.successes", 9);
        metrics::counter_add("oracle.transient_failures", 3);
        metrics::counter_add("oracle.exhausted", 1);
        metrics::counter_add("oracle.virtual_backoff_ms", 700);
        metrics::counter_add_labeled("harness.faults", "kind", "tool-crash", 2);
        metrics::counter_add_labeled("harness.faults", "kind", "spurious-timeout", 1);
        metrics::counter_add("surrogate.inferences", 1000);
        metrics::counter_add("surrogate.busy_us", 2_000);
        metrics::counter_add("sim.evals", 10);
        metrics::counter_add("dse.front_points", 4);
        metrics::counter_add("rounds.front_points", 3);
        metrics::gauge_add("sim.modelled_hls_minutes", 50.0);
        metrics::observe_us("oracle.eval_us", 120);
        metrics::snapshot()
    }

    #[test]
    fn report_extracts_stages_oracle_and_speedup() {
        let snap = populated_snapshot();
        let r = RunReport::from_snapshot("rounds", Duration::from_micros(1_100), &snap);
        assert_eq!(r.schema_version, SCHEMA_VERSION);
        assert_eq!(r.command, "rounds");
        assert_eq!(r.total_wall_us, 1_100);
        assert_eq!(r.stage_us("train"), 900);
        assert_eq!(r.stage_us("dse"), 80);
        assert_eq!(r.stages_total_us(), 995);
        assert_eq!(r.oracle.attempts, 12);
        assert_eq!(r.oracle.lost, 1);
        assert_eq!(r.oracle.faults.len(), 2);
        let crash = r.oracle.faults.iter().find(|(k, _)| k == "tool-crash").unwrap();
        assert_eq!(crash.1, 2);
        // 50 modelled minutes over 10 evals = 5 min/eval = 3e8 us/eval;
        // 2000us over 1000 inferences = 2us/inference; speedup = 1.5e8.
        assert_eq!(r.surrogate.mean_inference_us, 2.0);
        assert!((r.surrogate.modelled_vs_surrogate_speedup - 1.5e8).abs() < 1.0);
        assert_eq!(r.pareto.front_points, 7, "dse + rounds front points");
        assert_eq!(r.pareto.budget_violations, 0);
    }

    #[test]
    fn pre_pareto_reports_still_parse() {
        // A report serialized before the pareto summary existed must load
        // with the default summary — same schema version.
        let snap = MetricsSnapshot::default();
        let r = RunReport::from_snapshot("dse", Duration::ZERO, &snap);
        let json = r.to_json();
        // Splice the "pareto" object (and its trailing comma) out of the
        // serialized report, as if written by an older binary.
        let start = json.find("\"pareto\"").expect("field serializes");
        let brace = json[start..].find('}').expect("object closes") + start + 1;
        let after = if json[brace..].starts_with(',') { brace + 1 } else { brace };
        let stripped = format!("{}{}", &json[..start], &json[after..]);
        let back = RunReport::from_json(&stripped).expect("parses without the field");
        assert_eq!(back.pareto, ParetoSummary::default());
    }

    #[test]
    fn report_round_trips_through_json() {
        let snap = populated_snapshot();
        let r = RunReport::from_snapshot("gendb", Duration::from_secs(2), &snap);
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parses back");
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let snap = MetricsSnapshot::default();
        let mut r = RunReport::from_snapshot("dse", Duration::ZERO, &snap);
        r.schema_version = 99;
        let err = RunReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    #[test]
    fn empty_registry_reports_zeros_not_errors() {
        let snap = MetricsSnapshot::default();
        let r = RunReport::from_snapshot("rounds", Duration::ZERO, &snap);
        assert_eq!(r.stages_total_us(), 0);
        assert_eq!(r.oracle.attempts, 0);
        assert_eq!(r.surrogate.modelled_vs_surrogate_speedup, 0.0);
        assert!(RunReport::from_json(&r.to_json()).is_ok());
    }
}
