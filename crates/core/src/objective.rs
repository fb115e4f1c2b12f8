//! Multi-objective DSE: what "better" means.
//!
//! The paper's DSE loop (§4.4) minimizes a single latency objective, but the
//! surrogate already predicts DSP/BRAM/LUT/FF and validity. This module
//! makes the objective explicit and pluggable:
//!
//! * [`Objective`] — the contract an exploration optimizes: an
//!   [`ObjectiveKind`] (scalar latency, weighted sum, or true Pareto), the
//!   eq. 7 utilization threshold, and an optional per-device
//!   [`ResourceBudget`];
//! * [`Score`] — an ordered, dominance-aware value replacing the implicit
//!   raw-`f64` (cycles) comparisons the explorers were hard-wired to;
//! * [`ResourceBudget`] — optional per-axis utilization caps
//!   (`dsp=0.8,bram=0.7`), enforced on oracle results directly and on
//!   surrogate candidates through the validity head plus predicted
//!   utilization.
//!
//! With the default objective (latency, threshold 0.8, no budget) every
//! comparison reduces exactly to the pre-multi-objective behavior, so the
//! four §4.1 explorers remain bit-identical through the new API.

use crate::inference::Prediction;
use merlin_sim::{HlsResult, Utilization};
use serde::{Deserialize, Serialize};

/// Optional per-axis utilization caps, checked on top of the global eq. 7
/// threshold. `None` on an axis means "no cap beyond the threshold".
///
/// Budgets model per-device headroom: a board whose DSPs are shared with
/// another kernel can cap `dsp` at 0.5 while leaving BRAM free.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceBudget {
    /// DSP utilization cap (fraction of the device).
    pub dsp: Option<f64>,
    /// BRAM utilization cap.
    pub bram: Option<f64>,
    /// LUT utilization cap.
    pub lut: Option<f64>,
    /// FF utilization cap.
    pub ff: Option<f64>,
}

impl ResourceBudget {
    /// No caps on any axis.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether no axis is capped.
    pub fn is_unbounded(&self) -> bool {
        self.dsp.is_none() && self.bram.is_none() && self.lut.is_none() && self.ff.is_none()
    }

    /// Whether `util` stays within every capped axis.
    pub fn admits(&self, util: &Utilization) -> bool {
        self.dsp.is_none_or(|b| util.dsp <= b)
            && self.bram.is_none_or(|b| util.bram <= b)
            && self.lut.is_none_or(|b| util.lut <= b)
            && self.ff.is_none_or(|b| util.ff <= b)
    }

    /// Parses the CLI form `dsp=0.8,bram=0.7` (axes: `dsp`, `bram`, `lut`,
    /// `ff`; each at most once; fractions in `(0, 1]`).
    ///
    /// # Errors
    ///
    /// Unknown axis, bad number, out-of-range fraction, or duplicate axis.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut budget = ResourceBudget::none();
        for item in s.split(',').filter(|i| !i.is_empty()) {
            let (axis, value) = item
                .split_once('=')
                .ok_or_else(|| format!("bad budget item `{item}` (want axis=fraction)"))?;
            let v: f64 = value
                .parse()
                .map_err(|e| format!("bad budget fraction in `{item}`: {e}"))?;
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("budget fraction in `{item}` must be in (0, 1]"));
            }
            let slot = match axis {
                "dsp" => &mut budget.dsp,
                "bram" => &mut budget.bram,
                "lut" => &mut budget.lut,
                "ff" => &mut budget.ff,
                other => return Err(format!("unknown budget axis `{other}` (dsp|bram|lut|ff)")),
            };
            if slot.replace(v).is_some() {
                return Err(format!("budget axis `{axis}` given twice"));
            }
        }
        Ok(budget)
    }
}

impl std::fmt::Display for ResourceBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, v) in
            [("dsp", self.dsp), ("bram", self.bram), ("lut", self.lut), ("ff", self.ff)]
        {
            if let Some(v) = v {
                if !first {
                    f.write_str(",")?;
                }
                write!(f, "{name}={v}")?;
                first = false;
            }
        }
        if first {
            f.write_str("unbounded")?;
        }
        Ok(())
    }
}

/// Weights of the weighted-sum objective. Latency enters as `log2(cycles)`
/// (the same transform the trainer uses, eq. 11) so one objective unit means
/// "halve the latency"; utilizations enter as raw fractions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveWeights {
    /// Weight on `log2(cycles)`.
    pub cycles: f64,
    /// Weight on DSP utilization.
    pub dsp: f64,
    /// Weight on BRAM utilization.
    pub bram: f64,
    /// Weight on LUT utilization.
    pub lut: f64,
    /// Weight on FF utilization.
    pub ff: f64,
}

impl Default for ObjectiveWeights {
    /// Latency-dominant: one halving of latency outweighs 25% of any
    /// resource axis.
    fn default() -> Self {
        Self { cycles: 1.0, dsp: 0.25, bram: 0.25, lut: 0.25, ff: 0.25 }
    }
}

impl ObjectiveWeights {
    /// The weighted objective value (lower is better).
    pub fn combine(&self, cycles: u64, util: &Utilization) -> f64 {
        self.cycles * (cycles.max(1) as f64).log2()
            + self.dsp * util.dsp
            + self.bram * util.bram
            + self.lut * util.lut
            + self.ff * util.ff
    }
}

/// Which quantity an exploration minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObjectiveKind {
    /// Minimize latency alone — the paper's implicit contract.
    Latency,
    /// Minimize a weighted sum of `log2(cycles)` and the four utilizations.
    Weighted(ObjectiveWeights),
    /// True multi-objective: minimize (cycles, dsp, bram, lut, ff) jointly;
    /// outcomes are Pareto fronts, not single winners.
    Pareto,
}

/// The full objective an exploration optimizes: kind, eq. 7 utilization
/// threshold, and optional per-axis resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// What to minimize.
    pub kind: ObjectiveKind,
    /// Utilization constraint `T_u` (eq. 7): infeasible above it.
    pub util_threshold: f64,
    /// Per-axis caps on top of the threshold.
    pub budget: ResourceBudget,
}

impl Default for Objective {
    fn default() -> Self {
        Objective::latency()
    }
}

impl Objective {
    /// Minimize cycles under the default 0.8 threshold, no budget — exactly
    /// the pre-multi-objective contract.
    pub fn latency() -> Self {
        Self { kind: ObjectiveKind::Latency, util_threshold: 0.8, budget: ResourceBudget::none() }
    }

    /// Minimize a weighted sum under the default threshold.
    pub fn weighted(weights: ObjectiveWeights) -> Self {
        Self { kind: ObjectiveKind::Weighted(weights), ..Self::latency() }
    }

    /// True Pareto exploration under the default threshold.
    pub fn pareto() -> Self {
        Self { kind: ObjectiveKind::Pareto, ..Self::latency() }
    }

    /// Replaces the resource budget.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Whether an oracle result satisfies every constraint: synthesized,
    /// under the threshold, within the budget.
    pub fn feasible_result(&self, r: &HlsResult) -> bool {
        r.is_valid() && r.util.fits(self.util_threshold) && self.budget.admits(&r.util)
    }

    /// Whether a surrogate prediction satisfies every constraint: the
    /// validity head says valid (p >= 0.5), predicted utilization under the
    /// threshold and within the budget.
    pub fn feasible_prediction(&self, p: &Prediction) -> bool {
        p.usable(self.util_threshold) && self.budget.admits(&p.util)
    }

    /// Scores an oracle result.
    pub fn score_result(&self, r: &HlsResult) -> Score {
        if !self.feasible_result(r) {
            return Score::Infeasible;
        }
        self.score_axes(r.cycles, &r.util)
    }

    /// Scores a surrogate prediction.
    pub fn score_prediction(&self, p: &Prediction) -> Score {
        if !self.feasible_prediction(p) {
            return Score::Infeasible;
        }
        self.score_axes(p.cycles, &p.util)
    }

    fn score_axes(&self, cycles: u64, util: &Utilization) -> Score {
        match self.kind {
            ObjectiveKind::Latency => Score::Cycles(cycles),
            ObjectiveKind::Weighted(w) => Score::Weighted(w.combine(cycles, util)),
            ObjectiveKind::Pareto => {
                Score::Front { cycles, util: [util.dsp, util.bram, util.lut, util.ff] }
            }
        }
    }
}

/// An ordered, dominance-aware objective value — what the redesigned
/// [`Explorer`](crate::explorer::Explorer) trait compares instead of raw
/// `f64` cycles.
///
/// Within one objective mode the variants form a total preference
/// ([`Score::better_than`]): exact `u64` cycle comparison for latency (so
/// the default objective reproduces the old explorers bit for bit),
/// `total_cmp` for weighted sums, and lexicographic (cycles first) for
/// Pareto vectors — hill climbers need a total order to move; dominance
/// proper lives in [`ParetoArchive`](crate::pareto::ParetoArchive).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Score {
    /// Fails a constraint (invalid, over threshold, or over budget).
    /// Never preferred over anything.
    Infeasible,
    /// Latency objective: exact cycle count, lower is better.
    Cycles(u64),
    /// Weighted-sum objective value, lower is better.
    Weighted(f64),
    /// Pareto objective vector: cycles plus the four utilization axes.
    Front {
        /// Latency in cycles.
        cycles: u64,
        /// (dsp, bram, lut, ff) utilization fractions.
        util: [f64; 4],
    },
}

impl Score {
    /// Whether the score passed every constraint.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, Score::Infeasible)
    }

    /// Strict total preference within one objective mode. A feasible score
    /// always beats [`Score::Infeasible`]; scores of different feasible
    /// modes are incomparable (`false`).
    pub fn better_than(&self, other: &Score) -> bool {
        use std::cmp::Ordering::Less;
        match (self, other) {
            (Score::Infeasible, _) => false,
            (_, Score::Infeasible) => true,
            (Score::Cycles(a), Score::Cycles(b)) => a < b,
            (Score::Weighted(a), Score::Weighted(b)) => a.total_cmp(b) == Less,
            (Score::Front { cycles: ca, util: ua }, Score::Front { cycles: cb, util: ub }) => {
                match ca.cmp(cb) {
                    Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        ua.iter().zip(ub).find_map(|(a, b)| match a.total_cmp(b) {
                            std::cmp::Ordering::Equal => None,
                            ord => Some(ord == Less),
                        }) == Some(true)
                    }
                }
            }
            _ => false,
        }
    }

    /// A scalar view for code that needs one number (sampler rewards):
    /// cycles for [`Score::Cycles`] and [`Score::Front`], the sum for
    /// [`Score::Weighted`], `None` when infeasible.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            Score::Infeasible => None,
            Score::Cycles(c) | Score::Front { cycles: c, .. } => Some(*c as f64),
            Score::Weighted(w) => Some(*w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn util(dsp: f64, bram: f64, lut: f64, ff: f64) -> Utilization {
        Utilization { dsp, bram, lut, ff }
    }

    fn valid_result(cycles: u64, u: Utilization) -> HlsResult {
        HlsResult {
            validity: merlin_sim::Validity::Valid,
            cycles,
            counts: merlin_sim::ResourceCounts::default(),
            util: u,
            synth_minutes: 5.0,
        }
    }

    #[test]
    fn budget_parses_and_admits() {
        let b = ResourceBudget::parse("dsp=0.8,bram=0.7").unwrap();
        assert_eq!(b.dsp, Some(0.8));
        assert_eq!(b.bram, Some(0.7));
        assert!(b.lut.is_none() && b.ff.is_none());
        assert!(b.admits(&util(0.8, 0.7, 0.99, 0.99)));
        assert!(!b.admits(&util(0.81, 0.1, 0.1, 0.1)));
        assert!(!b.admits(&util(0.1, 0.71, 0.1, 0.1)));
        assert_eq!(b.to_string(), "dsp=0.8,bram=0.7");
        assert!(ResourceBudget::none().is_unbounded());
        assert_eq!(ResourceBudget::none().to_string(), "unbounded");
    }

    #[test]
    fn budget_rejects_bad_input() {
        assert!(ResourceBudget::parse("dsp=1.5").is_err());
        assert!(ResourceBudget::parse("dsp=0").is_err());
        assert!(ResourceBudget::parse("gpu=0.5").is_err());
        assert!(ResourceBudget::parse("dsp=0.5,dsp=0.6").is_err());
        assert!(ResourceBudget::parse("dsp").is_err());
        assert!(ResourceBudget::parse("dsp=abc").is_err());
    }

    #[test]
    fn default_objective_matches_the_legacy_contract() {
        let obj = Objective::latency();
        let good = valid_result(100, util(0.5, 0.5, 0.5, 0.5));
        let hot = valid_result(50, util(0.9, 0.1, 0.1, 0.1));
        assert!(obj.feasible_result(&good));
        assert!(!obj.feasible_result(&hot), "threshold 0.8 rejects 0.9 dsp");
        assert_eq!(obj.score_result(&good), Score::Cycles(100));
        assert_eq!(obj.score_result(&hot), Score::Infeasible);
        // Exact cycle ordering, feasible beats infeasible.
        assert!(Score::Cycles(99).better_than(&Score::Cycles(100)));
        assert!(!Score::Cycles(100).better_than(&Score::Cycles(100)));
        assert!(Score::Cycles(u64::MAX).better_than(&Score::Infeasible));
        assert!(!Score::Infeasible.better_than(&Score::Cycles(u64::MAX)));
    }

    #[test]
    fn budget_tightens_feasibility() {
        let obj = Objective::latency().with_budget(ResourceBudget::parse("dsp=0.4").unwrap());
        let r = valid_result(100, util(0.5, 0.1, 0.1, 0.1));
        assert!(!obj.feasible_result(&r), "fits the threshold but not the budget");
        assert!(Objective::latency().feasible_result(&r));
    }

    #[test]
    fn weighted_scores_order_by_the_sum() {
        let obj = Objective::weighted(ObjectiveWeights::default());
        let cheap = obj.score_result(&valid_result(200, util(0.1, 0.1, 0.1, 0.1)));
        let pricey = obj.score_result(&valid_result(200, util(0.7, 0.7, 0.7, 0.7)));
        assert!(cheap.better_than(&pricey));
        // Halving latency (weight 1 on log2) beats 25% of one resource axis.
        let fast = obj.score_result(&valid_result(100, util(0.35, 0.1, 0.1, 0.1)));
        assert!(fast.better_than(&cheap));
    }

    #[test]
    fn front_scores_prefer_lexicographically() {
        let obj = Objective::pareto();
        let a = obj.score_result(&valid_result(100, util(0.3, 0.3, 0.3, 0.3)));
        let b = obj.score_result(&valid_result(100, util(0.3, 0.4, 0.3, 0.3)));
        let c = obj.score_result(&valid_result(99, util(0.9, 0.9, 0.9, 0.9)).clone());
        assert!(a.better_than(&b), "same cycles, lower bram wins");
        assert!(!b.better_than(&a));
        assert!(!a.better_than(&a));
        assert_eq!(c, Score::Infeasible, "threshold still applies in pareto mode");
    }

    #[test]
    fn prediction_feasibility_uses_the_validity_head() {
        let obj = Objective::latency().with_budget(ResourceBudget::parse("lut=0.5").unwrap());
        let mut p = Prediction { valid_prob: 0.9, cycles: 100, util: util(0.2, 0.2, 0.4, 0.2) };
        assert!(obj.feasible_prediction(&p));
        p.valid_prob = 0.4;
        assert!(!obj.feasible_prediction(&p), "validity head gates the budget check");
        p.valid_prob = 0.9;
        p.util.lut = 0.6;
        assert!(!obj.feasible_prediction(&p), "budget applies to predicted util");
    }

    #[test]
    fn scalar_views() {
        assert_eq!(Score::Cycles(42).scalar(), Some(42.0));
        assert_eq!(Score::Front { cycles: 42, util: [0.0; 4] }.scalar(), Some(42.0));
        assert_eq!(Score::Weighted(1.5).scalar(), Some(1.5));
        assert_eq!(Score::Infeasible.scalar(), None);
    }
}
