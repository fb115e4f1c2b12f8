//! # gdse-obs
//!
//! The observability substrate of the GNN-DSE reproduction: every crate in
//! the workspace reports *what it did and how long it took* through this one
//! facade, so a campaign can be attributed stage by stage (graph encoding,
//! GNN forward/backward, oracle evaluation, explorer search) instead of
//! guessed at from interleaved `println!` output.
//!
//! Three cooperating layers, all dependency-free (the serde/serde_json
//! workspace shims are the only imports):
//!
//! * [`log`] — a leveled, structured logging facade. Events carry a stable
//!   machine name (`"rounds.round"`), a human message, and typed `key=value`
//!   fields. Two sinks: a human sink on stdout (plain or tagged) and an
//!   optional JSONL sink (one self-describing JSON object per line).
//! * [`metrics`] — a per-thread registry of named counters, gauges, and
//!   fixed-bucket histograms (e.g. `oracle.eval_us`, `train.epoch_loss`,
//!   `dse.points_explored`). A thread can bind itself to a shared,
//!   live-readable registry instead ([`metrics::bind`]). Snapshots are
//!   serializable, so checkpoints can carry them across a crash and a
//!   resumed campaign's accounting matches an uninterrupted run's.
//! * [`span`] — scoped stage timers. Dropping a [`span::StageTimer`] adds
//!   the elapsed time to the `stage.<name>.busy_us` counter and the
//!   `span.<name>_us` histogram, giving every rounds-loop iteration a
//!   per-stage wall-time breakdown.
//!
//! Two further layers serve the live serving tier:
//!
//! * [`trace`] — per-request span timelines: a [`trace::TraceId`] travels
//!   with each request, every hop appends [`trace::Span`]s, and completed
//!   [`trace::RequestTrace`]s land in a bounded [`trace::FlightRecorder`]
//!   a running server answers `admin trace` queries from.
//! * [`prom`] — renders any [`MetricsSnapshot`] in the Prometheus text
//!   exposition format for scraping.
//!
//! [`report::RunReport`] distills a metrics snapshot into the
//! `run_report.json` artifact written at campaign end: per-stage wall time,
//! evaluation/retry/fault counts, and the modelled-HLS vs. surrogate
//! speedup that is the paper's headline claim.
//!
//! ## Quickstart
//!
//! ```
//! use gdse_obs as obs;
//!
//! obs::metrics::reset();
//! {
//!     let _t = obs::span::stage("train");
//!     obs::info!("train.start", "training started"; epochs = 4u64);
//!     obs::metrics::counter_add("train.epochs", 4);
//! }
//! let snap = obs::metrics::snapshot();
//! assert_eq!(snap.counter("train.epochs"), Some(4));
//! assert!(snap.counter("stage.train.busy_us").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod span;
pub mod trace;

pub use log::{HumanStyle, Level, LogConfig};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, SharedMetrics};
pub use report::{OracleSummary, RunReport, StageTime, SurrogateSummary};
pub use span::{stage, StageTimer};
pub use trace::{FlightRecorder, RequestTrace, Span, TraceBuilder, TraceId};

/// Logs at [`Level::Error`]: `obs::error!(event, fmt-args...; field = value, ...)`.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::__log_at!($crate::Level::Error, $($t)*) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::__log_at!($crate::Level::Warn, $($t)*) };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::__log_at!($crate::Level::Info, $($t)*) };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::__log_at!($crate::Level::Debug, $($t)*) };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => { $crate::__log_at!($crate::Level::Trace, $($t)*) };
}

/// Shared expansion of the level macros. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __log_at {
    // event, format string + args, then `; k = v, ...` fields.
    ($lvl:expr, $event:expr, $fmt:expr $(, $arg:expr)* ; $($k:ident = $v:expr),+ $(,)?) => {{
        if $crate::log::enabled($lvl) {
            $crate::log::emit(
                $lvl,
                $event,
                &format!($fmt $(, $arg)*),
                &[$((stringify!($k), $crate::log::FieldValue::from($v))),+],
            );
        }
    }};
    // event + format string + args, no fields.
    ($lvl:expr, $event:expr, $fmt:expr $(, $arg:expr)* $(,)?) => {{
        if $crate::log::enabled($lvl) {
            $crate::log::emit($lvl, $event, &format!($fmt $(, $arg)*), &[]);
        }
    }};
    // event only, fields only.
    ($lvl:expr, $event:expr ; $($k:ident = $v:expr),+ $(,)?) => {{
        if $crate::log::enabled($lvl) {
            $crate::log::emit(
                $lvl,
                $event,
                "",
                &[$((stringify!($k), $crate::log::FieldValue::from($v))),+],
            );
        }
    }};
    // bare event.
    ($lvl:expr, $event:expr) => {{
        if $crate::log::enabled($lvl) {
            $crate::log::emit($lvl, $event, "", &[]);
        }
    }};
}
