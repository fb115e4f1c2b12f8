//! The four workloads and what they share: the run context and the timed
//! loop that repeats a unit of work for the run's duration.

pub mod dse;
pub mod rounds;
pub mod serve;
pub mod train;

use crate::report::{median, owned_by, peak_rss_mb, reset_peak_rss, Outcome, END_TO_END};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["dse-sweep", "train-epochs", "serve-open", "rounds-campaign"];

/// Runs the named workload and checks it measured exactly its metrics: the
/// end-to-end ones untraced, the per-layer ones it owns traced.
///
/// # Panics
///
/// On an unknown name (the CLI checks names first).
pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    let mut out = match name {
        "dse-sweep" => dse::run(ctx),
        "train-epochs" => train::run(ctx),
        "serve-open" => serve::run(ctx),
        "rounds-campaign" => rounds::run(ctx),
        other => panic!("unknown workload `{other}`"),
    };
    let expected = match ctx.tracer {
        None => END_TO_END.iter().map(|m| m.0).collect(),
        Some(_) => owned_by(name),
    };
    out.check_measured(&expected);
    out
}

/// Everything a workload needs to know about the run.
pub struct Ctx {
    /// Seeds database generation, request streams and faults.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Short phases and small set-ups, for tests.
    pub smoke: bool,
    /// Present in traced runs.
    pub tracer: Option<Tracer>,
    /// Scratch directory for artifacts and checkpoints.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// The tracer, in traced runs.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Repeats `unit` until the run's duration has passed, at least twice.
    /// `unit` returns the wall time, in seconds, of the work it measures
    /// (its checks run outside that time). In a traced run every second
    /// unit runs under the tracer (the others get `None`), so
    /// `trace.overhead` compares the two under the same conditions.
    pub fn repeat(&self, mut unit: impl FnMut(Option<&Tracer>) -> f64) -> Units {
        let mut units = Units::default();
        let start = Instant::now();
        let mut i = 0usize;
        while i < 2 || start.elapsed().as_secs_f64() < self.seconds {
            let t = self.tracer().filter(|_| i % 2 == 1);
            reset_peak_rss();
            let secs = unit(t);
            if t.is_some() {
                units.traced.push(secs);
            } else {
                units.plain.push(secs);
                units.peak_mb.push(peak_rss_mb());
            }
            i += 1;
        }
        units
    }
}

/// Wall times and memory of the units [`Ctx::repeat`] ran.
#[derive(Debug, Default)]
pub struct Units {
    /// Wall time of each untraced unit, s.
    pub plain: Vec<f64>,
    /// Wall time of each traced unit, s.
    pub traced: Vec<f64>,
    /// Peak resident set during each untraced unit, MiB.
    pub peak_mb: Vec<f64>,
}

impl Units {
    /// `trace.overhead`: the median traced unit over the median untraced
    /// one.
    pub fn overhead(&self, out: &mut Outcome) {
        out.push("trace.overhead", median(&self.traced) / median(&self.plain));
    }
}
