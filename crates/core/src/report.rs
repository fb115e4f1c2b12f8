//! Run-report assembly: turn the metric registry into a [`RunReport`] and
//! persist it crash-safely.
//!
//! The CLI calls [`write_run_report`] at the end of `gendb` / `rounds` /
//! `dse` when `--metrics-out` is given; tests and library users can call it
//! around any instrumented pipeline. The report is written through
//! [`crate::persist::atomic_write`], so a crash mid-write leaves either the
//! previous report or the new one — never a truncated file.

use crate::persist::atomic_write;
use gdse_obs::RunReport;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Builds a report from the current registry and atomically writes it to
/// `path` as pretty-printed JSON.
///
/// # Errors
///
/// Any I/O error from the atomic write; the registry is left untouched.
pub fn write_run_report(path: &Path, command: &str, total_wall: Duration) -> io::Result<RunReport> {
    let report = RunReport::from_current_metrics(command, total_wall);
    atomic_write(path, &report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_disk() {
        gdse_obs::metrics::reset();
        gdse_obs::metrics::counter_add("stage.train.busy_us", 1_000);
        gdse_obs::metrics::counter_add("oracle.attempts", 4);
        gdse_obs::metrics::counter_add("oracle.successes", 4);

        let dir = std::env::temp_dir().join("gnn_dse_run_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run_report.json");
        let written =
            write_run_report(&path, "test", Duration::from_micros(2_000)).unwrap();
        let loaded = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded, written);
        assert_eq!(loaded.command, "test");
        assert_eq!(loaded.stage_us("train"), 1_000);
        assert_eq!(loaded.oracle.attempts, 4);
        std::fs::remove_file(&path).ok();
    }
}
