//! `gdse-bench`: the benchmark of the GNN-DSE stack.
//!
//! ```text
//! gdse-bench run     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                    [--out FILE] [--spans DIR] [--smoke]
//! gdse-bench trace   --workload <name> ...            (= run --trace 1)
//! gdse-bench compare <parent.jsonl> <change.jsonl> [--spec BENCHMARK.json]
//! gdse-bench calibrate <runs.jsonl>
//! ```
//!
//! `run` prints one line per metric and exact result and, as its last
//! line, the result object `{"correct", "attempted", "failed", "metrics"}`;
//! untraced runs report the end-to-end metrics, traced runs the per-layer
//! ones and write their spans to `<spans>/spans-<workload>.jsonl`. `--out`
//! appends the record (the measured metrics and the exact results, tagged
//! with workload, seed and mode) to a JSON-lines file that `compare` reads
//! and from which `calibrate` derives the bounds. See README.md for the
//! workloads and metrics.

mod compare;
mod profile;
mod report;
mod setup;
mod trace;
mod workloads;

use report::{per_layer_specs, Outcome, END_TO_END};
use serde::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use trace::Tracer;
use workloads::Ctx;

const USAGE: &str = "usage:
  gdse-bench run --workload <dse-sweep|train-epochs|serve-open|rounds-campaign|all>
                 [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans DIR] [--smoke]
  gdse-bench trace --workload <name> [same options]
  gdse-bench compare <parent.jsonl> <change.jsonl> [--spec BENCHMARK.json]
  gdse-bench calibrate <runs.jsonl>";

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;

/// An untraced run measures in this many fresh processes, one after
/// another, each for its share of the time, and reports the median of
/// their results: a process's allocator state alone moves the DSE time by
/// up to half, and the set-up time is a median of as many set-ups.
const PARTS: usize = 5;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: PathBuf,
    smoke: bool,
    /// Measure in this process: set by a run for its parts.
    part: bool,
}

fn parse(args: &[String], trace: bool) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace,
        out: None,
        spans: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        smoke: false,
        part: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" || flag == "--part" {
            o.smoke |= flag == "--smoke";
            o.part |= flag == "--part";
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            "--spans" => o.spans = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.workload != "all" && !workloads::NAMES.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload `{}`", o.workload));
    }
    if o.seconds == 0.0 {
        o.seconds = if o.smoke { 1.0 } else { DEFAULT_SECONDS };
    }
    if !(o.seconds > 0.0 && o.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", o.seconds));
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], false),
        Some("trace") => run(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        Some("calibrate") => compare::calibrate(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String], trace: bool) -> i32 {
    let opts = match parse(args, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gdse-bench: {e}\n{USAGE}");
            return 2;
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let outcome = if opts.trace || opts.part {
        measure(&opts)
    } else {
        run_parts(&opts)
    };
    match outcome {
        Ok(outcome) => report(&opts, &outcome),
        Err(e) => {
            eprintln!("gdse-bench: {e}");
            2
        }
    }
}

/// Runs the workload in this process.
fn measure(opts: &Opts) -> Result<Outcome, String> {
    // Keep stdout for results: the program's progress lines are Info.
    gdse_obs::log::init(gdse_obs::LogConfig {
        level: gdse_obs::Level::Warn,
        human: gdse_obs::HumanStyle::Plain,
        json_path: None,
    })
    .expect("a log config without a JSON sink cannot fail");
    let work_dir = opts.spans.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        smoke: opts.smoke,
        tracer: opts.trace.then(Tracer::default),
        work_dir,
    };
    let outcome = workloads::run(&opts.workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Some(t) = ctx.tracer() {
        let path = opts.spans.join(format!("spans-{}.jsonl", opts.workload));
        t.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(outcome)
}

/// A `run` of this executable for `workload`, with this run's seed, spans
/// directory and size.
fn child(opts: &Opts, workload: &str, seconds: f64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
    ]);
    cmd.args(["--seconds", &seconds.to_string()]);
    cmd.arg("--spans").arg(&opts.spans);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// Runs the workload in [`PARTS`] child processes, one after another, and
/// merges their results.
fn run_parts(opts: &Opts) -> Result<Outcome, String> {
    let mut parts = Vec::with_capacity(PARTS);
    for _ in 0..PARTS {
        let output = child(opts, &opts.workload, opts.seconds / PARTS as f64)?
            .arg("--part")
            .output()
            .map_err(|e| format!("cannot start a part: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let part = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<Value>(l).ok())
            .and_then(|v| Outcome::from_value(&v))
            .ok_or_else(|| format!("a part printed no result ({})", output.status))?;
        parts.push(part);
    }
    Ok(Outcome::merge(&parts))
}

/// Prints the result (metric and exact-result lines, then the result
/// object as the last line; a part prints its record there instead),
/// appends the tagged record to `--out`, and returns the exit code.
fn report(opts: &Opts, outcome: &Outcome) -> i32 {
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let record = outcome.record();
    if let Some(path) = &opts.out {
        let Value::Map(fields) = &record else {
            unreachable!("records are objects")
        };
        let mut record = vec![
            ("workload".to_string(), Value::Str(opts.workload.clone())),
            ("seed".to_string(), Value::Int(i128::from(opts.seed))),
            ("trace".to_string(), Value::Bool(opts.trace)),
        ];
        record.extend(fields.iter().cloned());
        let line = serde_json::to_string(&Value::Map(record)).expect("records serialize");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("gdse-bench: cannot append to {}: {e}", path.display());
            return 2;
        }
    }
    println!(
        "{} seed {} ({}): {} attempted, {} failed",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<36} {value:>14.4}");
    }
    for (name, value) in &outcome.exact {
        println!("  exact {name:<30} {value:>14}");
    }
    let last = if opts.part {
        record
    } else if opts.trace {
        outcome.result(&per_layer_specs())
    } else {
        outcome.result(END_TO_END)
    };
    println!(
        "{}",
        serde_json::to_string(&last).expect("results serialize")
    );
    i32::from(!outcome.correct())
}

/// `--workload all`: each workload in its own child process, one after
/// another.
fn run_all(opts: &Opts) -> i32 {
    let mut code = 0;
    for w in workloads::NAMES {
        let status = child(opts, w, opts.seconds).and_then(|mut cmd| {
            cmd.args(["--trace", if opts.trace { "1" } else { "0" }]);
            if let Some(out) = &opts.out {
                cmd.arg("--out").arg(out);
            }
            cmd.status()
                .map_err(|e| format!("cannot start workload {w}: {e}"))
        });
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("gdse-bench: workload {w} exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("gdse-bench: {e}");
                code = 2;
            }
        }
    }
    code
}
