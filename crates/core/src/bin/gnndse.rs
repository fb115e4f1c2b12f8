//! `gnndse` — command-line front end for the GNN-DSE framework.
//!
//! ```text
//! gnndse kernels                                   list kernels and design spaces
//! gnndse evaluate <kernel> <index>                 evaluate one design with the HLS model
//! gnndse report <kernel> <index>                   per-loop synthesis report (II, cycles)
//! gnndse emit <kernel> [index]                     Merlin-annotated C (placeholders or filled)
//! gnndse gendb <out.json> [budget] [seed]          generate a training database
//! gnndse train <db.json> --save model.gdse        train the surrogate (M7) [--epochs N]
//! gnndse dse <model> <kernel> [top_m]              surrogate-driven DSE (or --model model.gdse)
//! gnndse predict <model> <kernel> <index>          predict one design point locally
//! gnndse predict <kernel> <index> --addr H:P       ... or against a running server
//! gnndse rounds <db.json>                          iterative DSE rounds (Fig. 7);
//!                                                  --model model.gdse seeds round 1
//! gnndse serve --model model.gdse                  serve predictions over JSON-lines TCP
//! gnndse daemon --db db.json --model model.gdse    serve + background fine-tune/hot-swap
//! gnndse admin <addr> <reload|kill-replica N|shutdown>   control a running server
//! gnndse admin <addr> stats [--prom]               live telemetry (JSON or Prometheus text)
//! gnndse admin <addr> trace <id|slow>              span timelines from the flight recorder
//! gnndse admin <addr> learn-status                 continuous-learning driver status
//! gnndse chaos-proxy --upstream H:P                TCP fault-injection proxy (tests/CI)
//! ```
//!
//! Every model path names a binary `.gdse` artifact, written by `train
//! --save`: a checksummed envelope whose predictions after load are
//! byte-identical to the trained model's. Any other file is rejected with
//! a typed error.
//!
//! `gendb` and `rounds` drive a *fault-injected* oracle when `--fault-rate`
//! is set: evaluations randomly crash / time out / return garbled reports
//! (reproducibly, per `--fault-seed`), a retrying harness absorbs the
//! transient failures (`--max-retries`), and losses are reported instead of
//! aborting the run. `rounds` additionally supports crash-safe
//! `--checkpoint <file>` persistence and `--resume`.
//!
//! `dse` and `rounds` share the multi-objective flags: `--objective
//! latency|weighted|pareto` picks what "better" means (scalar latency, a
//! weighted latency/resource sum, or a true Pareto front over cycles and
//! the four resource axes), `--budget dsp=0.8,bram=0.7` adds per-device
//! resource-budget constraints enforced through the surrogate's validity
//! head, and `--explorer sweep|gflow` chooses between the priority-order
//! candidate sweep and the learned GFlowNet-style trajectory sampler. In
//! `pareto` mode the DSE also logs the predicted front, and every round
//! report carries its validated front.
//!
//! `serve` answers concurrent clients through a supervised pool of
//! `--replicas N` workers, each owning its own copy of the model behind a
//! bounded queue with micro-batched inference (`--queue`, `--batch`); a full
//! queue rejects with a 429-style response instead of stalling, a crashed
//! or wedged replica restarts under supervision while its requests are
//! re-routed to siblings, and `--max-requests N` stops the server
//! gracefully after N answers (useful for smoke tests). `--reload` watches
//! the artifact and hot-swaps the model with zero downtime whenever it
//! changes (a `gnndse admin <addr> reload` forces the same swap); a corrupt
//! replacement is rejected — checksum plus canary prediction — and the
//! previous model keeps serving.
//! `serve.*` metrics land in `--metrics-out`.
//!
//! Every request is traced end to end: the server adopts the client's
//! `trace_id` (or mints one), stamps `ingress`/`route`/`queue_wait`/
//! `batch_wait`/`infer`/`write` spans, echoes the id on the response, and
//! remembers recent timelines in a bounded in-memory flight recorder
//! (`--trace-capacity N` per replica). `--trace-slow-ms MS` dumps a Warn
//! log line with the full span timeline for any slower request. `admin
//! <addr> stats` reads live per-replica depth/epoch/restart state and
//! interpolated p50/p95/p99 latency quantiles from the *running* server
//! (`--prom` renders Prometheus text exposition); `admin <addr> trace
//! slow` (or a concrete id) fetches remembered span timelines.
//!
//! `daemon` is the continuous-learning mode: the same replicated server as
//! `serve`, plus a background campaign driver that interleaves DSE, oracle
//! validation, and fine-tuning with serving. Each round's freshly validated
//! results enter a bounded, dedup-by-config replay buffer; the fine-tuned
//! model is written atomically over the served `.gdse` artifact and
//! hot-swapped (canary-validated, rolled back on rejection while the old
//! epoch keeps serving). Campaign checkpoint and replay window are
//! crash-safe: a killed daemon restarted on the same paths resumes
//! learning where it stopped. `gnndse admin <addr> learn-status` reads the
//! driver state, and `learn.*` metrics ride the live telemetry plane.
//!
//! `chaos-proxy` places deterministic TCP faults (drop / delay / truncate
//! / mid-response-kill) between a client and a server — how the chaos
//! tests and the CI smoke prove the resilience story end to end.
//!
//! `gendb`, `rounds` and `dse` also take the observability flags
//! `--log-level <error|warn|info|debug|trace>`, `--log-json <log.jsonl>`
//! (mirror every log record to a JSONL file) and
//! `--metrics-out <report.json>` (write a [`gdse_obs::RunReport`] with
//! per-stage wall-time, oracle retry/fault counts, and the surrogate's
//! modelled speedup at the end of the run).

use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_obs as obs;
use gdse_serve::{ChaosConfig, ChaosProxy, Client, ClientConfig, Response, ServeConfig, Server};
use gnn_dse::dse::{run_dse_with_engine, CandidateSampler, DseConfig};
use gnn_dse::harness::RetryPolicy;
use gnn_dse::objective::{ObjectiveKind, ObjectiveWeights, ResourceBudget};
use gnn_dse::parallel::ExecEngine;
use gnn_dse::rounds::{run_rounds_with_engine, RoundsConfig};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, ArtifactMeta, ArtifactProvider, Database, Predictor};
use hls_ir::kernels;
use merlin_sim::{FaultConfig, MerlinSimulator};
use proggraph::build_graph_bidirectional;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("kernels") => cmd_kernels(),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("emit") => cmd_emit(&args[1..]),
        Some("gendb") => cmd_gendb(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("dse") => cmd_dse(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("rounds") => cmd_rounds(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("daemon") => cmd_daemon(&args[1..]),
        Some("admin") => cmd_admin(&args[1..]),
        Some("chaos-proxy") => cmd_chaos_proxy(&args[1..]),
        _ => {
            eprintln!(
                "usage: gnndse <kernels|evaluate|report|emit|gendb|train|dse|predict|rounds|serve|daemon|admin|chaos-proxy> ..."
            );
            eprintln!("see the crate docs for details");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), String>;

/// Splits `args` into positionals and `--name value` options (`--name`
/// alone for the flags listed in `boolean`). Unknown flags are rejected so
/// typos fail loudly instead of being silently ignored.
fn split_flags(
    args: &[String],
    valued: &[&str],
    boolean: &[&str],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if boolean.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
            } else if valued.contains(&name) {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.insert(name.to_string(), v.clone());
            } else {
                return Err(format!(
                    "unknown flag --{name} (known: {})",
                    valued
                        .iter()
                        .chain(boolean)
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    Ok((positional, flags))
}

/// Parses flag `name` as `T`, or returns `default` when absent.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        Some(v) => v.parse().map_err(|e| format!("bad value for --{name}: {e}")),
        None => Ok(default),
    }
}

/// The observability flags shared by `gendb`, `rounds` and `dse`:
/// `--log-level` sets the verbosity, `--log-json` mirrors every record to a
/// JSONL file. Returns the `--metrics-out` path, if any.
fn obs_args(flags: &HashMap<String, String>) -> Result<Option<PathBuf>, String> {
    let level: obs::Level = flag_or(flags, "log-level", obs::Level::Info)?;
    let json_path = flags.get("log-json").map(PathBuf::from);
    obs::log::init(obs::LogConfig { level, human: obs::HumanStyle::Plain, json_path })
        .map_err(|e| format!("cannot open --log-json file: {e}"))?;
    Ok(flags.get("metrics-out").map(PathBuf::from))
}

/// Builds the run report from everything the command recorded and writes it
/// atomically to `path`.
fn write_metrics(path: &Path, command: &str, started: Instant) -> CliResult {
    let report = gnn_dse::report::write_run_report(path, command, started.elapsed())
        .map_err(|e| format!("cannot write --metrics-out file: {e}"))?;
    obs::info!(
        "metrics.written",
        "wrote run report ({} stages, {} counters) to {}",
        report.stages.len(),
        report.counters.len(),
        path.display()
    );
    Ok(())
}

/// Parses count flag `name`, or returns `default` when absent; 0 is an
/// error.
fn count_flag(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, String> {
    match flag_or(flags, name, default)? {
        0 => Err(format!("--{name} must be at least 1")),
        n => Ok(n),
    }
}

/// The `--jobs N` worker count (default: the machine's available
/// parallelism).
fn jobs_flag(flags: &HashMap<String, String>) -> Result<usize, String> {
    count_flag(flags, "jobs", std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Builds the execution engine from `--jobs N`. `--jobs 1` runs the same
/// batched code paths serially, so any jobs count produces byte-identical
/// outputs for the same seed.
fn jobs_arg(flags: &HashMap<String, String>) -> Result<ExecEngine, String> {
    let jobs = jobs_flag(flags)?;
    obs::debug!("exec.jobs", "running on {jobs} workers"; jobs = jobs);
    Ok(ExecEngine::with_jobs(jobs))
}

/// The `--objective`/`--budget`/`--explorer` triple shared by `dse` and
/// `rounds`: what "better" means (`latency`, `weighted`, or a true `pareto`
/// front), the per-device resource budget (`dsp=0.8,bram=0.7`, enforced via
/// the validity head), and which candidate sampler proposes configurations
/// (`sweep` or the learned `gflow` trajectory sampler).
fn objective_args(
    flags: &HashMap<String, String>,
) -> Result<(ObjectiveKind, ResourceBudget, CandidateSampler), String> {
    let kind = match flags.get("objective").map(String::as_str) {
        None | Some("latency") => ObjectiveKind::Latency,
        Some("weighted") => ObjectiveKind::Weighted(ObjectiveWeights::default()),
        Some("pareto") => ObjectiveKind::Pareto,
        Some(other) => {
            return Err(format!("--objective must be latency|weighted|pareto, got '{other}'"))
        }
    };
    let budget = match flags.get("budget") {
        Some(spec) => ResourceBudget::parse(spec).map_err(|e| format!("bad --budget: {e}"))?,
        None => ResourceBudget::none(),
    };
    let sampler: CandidateSampler = flag_or(flags, "explorer", CandidateSampler::default())?;
    Ok((kind, budget, sampler))
}

/// The `--fault-rate`/`--fault-seed`/`--max-retries` triple shared by
/// `gendb` and `rounds`: what to inject and how to retry it
/// (`dbgen::fault_injected_harness` builds the harness from both).
fn fault_args(flags: &HashMap<String, String>) -> Result<(FaultConfig, RetryPolicy), String> {
    let rate: f64 = flag_or(flags, "fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate must be in [0, 1], got {rate}"));
    }
    let seed: u64 = flag_or(flags, "fault-seed", 0)?;
    let max_retries: u32 = flag_or(flags, "max-retries", 3)?;
    Ok((FaultConfig::uniform(rate, seed), RetryPolicy::with_max_retries(max_retries)))
}

/// Logs the oracle's accounting as `event`. It reads the `oracle.*`
/// counters, as the run report does, so both tell the same totals (after
/// `rounds --resume`, those of the whole campaign).
fn log_oracle(event: &str) {
    let [attempts, retries, exhausted, permanent, backoff_ms] = [
        "oracle.attempts",
        "oracle.retries",
        "oracle.exhausted",
        "oracle.permanent_failures",
        "oracle.virtual_backoff_ms",
    ]
    .map(obs::metrics::counter_value);
    let lost = exhausted + permanent;
    obs::info!(
        event,
        "oracle: {attempts} attempts, {retries} transient failures retried, {lost} evaluations \
         lost ({exhausted} exhausted retries, {permanent} permanent), {:.1}s virtual backoff",
        backoff_ms as f64 / 1e3;
        attempts = attempts,
        retries = retries,
        lost = lost,
        exhausted = exhausted,
        permanent_failures = permanent,
        virtual_backoff_ms = backoff_ms,
    );
}

/// The serving flags shared by `serve` and `daemon` — `--queue`, `--batch`,
/// `--replicas`, `--max-requests`, `--request-timeout` — as a server
/// configuration, plus the `--jobs` worker budget.
fn serve_args(flags: &HashMap<String, String>) -> Result<(ServeConfig, usize), String> {
    let defaults = ServeConfig::default();
    let max_requests: Option<u64> = match flags.get("max-requests") {
        Some(v) => Some(v.parse().map_err(|e| format!("bad value for --max-requests: {e}"))?),
        None => None,
    };
    let request_timeout_ms: u64 = flag_or(flags, "request-timeout", 60_000)?;
    let config = ServeConfig {
        queue_capacity: count_flag(flags, "queue", defaults.queue_capacity)?,
        max_batch: count_flag(flags, "batch", defaults.max_batch)?,
        replicas: count_flag(flags, "replicas", defaults.replicas)?,
        max_requests,
        request_timeout: Duration::from_millis(request_timeout_ms),
        ..defaults
    };
    Ok((config, jobs_flag(flags)?))
}

/// Loads the `.gdse` artifact at `path` and logs its training provenance.
fn load_artifact(path: &str) -> Result<Predictor, String> {
    let (predictor, meta) =
        Predictor::load_artifact(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    log_loaded(path, &meta);
    Ok(predictor)
}

/// Logs the training provenance of the artifact loaded from `path`.
fn log_loaded(path: &str, meta: &ArtifactMeta) {
    obs::info!(
        "model.loaded",
        "loaded artifact {path} ({}, {} kernels, {} epochs, seed {})",
        meta.model,
        meta.kernels.len(),
        meta.epochs,
        meta.seed;
        model = meta.model.as_str(),
        kernels = meta.kernels.len(),
        epochs = meta.epochs,
    );
}

fn cmd_kernels() -> CliResult {
    println!("{:<14} {:>9} {:>18} {:>7} {:>7}", "kernel", "#pragmas", "#configs", "loops", "role");
    for k in kernels::all_kernels() {
        let space = DesignSpace::from_kernel(&k);
        let unseen = kernels::unseen_kernels().iter().any(|u| u.name() == k.name());
        println!(
            "{:<14} {:>9} {:>18} {:>7} {:>7}",
            k.name(),
            space.num_slots(),
            space.size(),
            k.loops().len(),
            if unseen { "unseen" } else { "train" }
        );
    }
    Ok(())
}

fn lookup_kernel(name: &str) -> Result<hls_ir::Kernel, String> {
    if name == "toy" {
        return Ok(kernels::toy());
    }
    kernels::kernel_by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))
}

fn cmd_evaluate(args: &[String]) -> CliResult {
    let [kernel, index] = args else {
        return Err("usage: gnndse evaluate <kernel> <index>".into());
    };
    let kernel = lookup_kernel(kernel)?;
    let space = DesignSpace::from_kernel(&kernel);
    let index: u128 = index.parse().map_err(|e| format!("bad index: {e}"))?;
    if index >= space.size() {
        return Err(format!("index {index} out of space of size {}", space.size()));
    }
    let point = space.point_at(index);
    let r = MerlinSimulator::new().evaluate(&kernel, &space, &point);
    println!("design : {}", point.describe(space.slots()));
    println!("status : {}", r.validity);
    if r.is_valid() {
        println!("cycles : {}", r.cycles);
        println!(
            "counts : {} DSP, {} BRAM18, {} LUT, {} FF",
            r.counts.dsp, r.counts.bram18, r.counts.lut, r.counts.ff
        );
        println!(
            "util   : dsp {:.3}, bram {:.3}, lut {:.3}, ff {:.3} (fits<0.8: {})",
            r.util.dsp,
            r.util.bram,
            r.util.lut,
            r.util.ff,
            r.util.fits(0.8)
        );
        println!("tool   : {:.1} modelled minutes", r.synth_minutes);
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> CliResult {
    let [kernel, index] = args else {
        return Err("usage: gnndse report <kernel> <index>".into());
    };
    let kernel = lookup_kernel(kernel)?;
    let space = DesignSpace::from_kernel(&kernel);
    let index: u128 = index.parse().map_err(|e| format!("bad index: {e}"))?;
    if index >= space.size() {
        return Err(format!("index {index} out of space of size {}", space.size()));
    }
    let point = space.point_at(index);
    println!("design: {}\n", point.describe(space.slots()));
    let Some(rows) = MerlinSimulator::new().report(&kernel, &space, &point) else {
        return Err("design is invalid; no report".into());
    };
    println!(
        "{:<6} {:>8} {:>9} {:>5} {:>9} {:>6} {:>12}",
        "loop", "trip", "parallel", "tile", "pipeline", "II", "cycles"
    );
    for r in &rows {
        println!(
            "{:<6} {:>8} {:>9} {:>5} {:>9} {:>6} {:>12}",
            r.label, r.trip_count, r.parallel, r.tile, r.pipeline, r.ii, r.cycles
        );
    }
    Ok(())
}

fn cmd_emit(args: &[String]) -> CliResult {
    let kernel_name = args.first().ok_or("usage: gnndse emit <kernel> [index]")?;
    let kernel = lookup_kernel(kernel_name)?;
    match args.get(1) {
        None => print!("{}", hls_ir::emit::emit_c(&kernel)),
        Some(index) => {
            let space = DesignSpace::from_kernel(&kernel);
            let index: u128 = index.parse().map_err(|e| format!("bad index: {e}"))?;
            if index >= space.size() {
                return Err(format!("index {index} out of space of size {}", space.size()));
            }
            let point = space.point_at(index);
            print!("{}", design_space::emit::emit_configured(&kernel, &space, &point));
        }
    }
    Ok(())
}

fn cmd_gendb(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(
        args,
        &[
            "jobs",
            "fault-rate",
            "fault-seed",
            "max-retries",
            "log-level",
            "log-json",
            "metrics-out",
        ],
        &[],
    )?;
    let usage = "usage: gnndse gendb <out.json> [budget] [seed] [--jobs N] \
                 [--fault-rate F] [--fault-seed S] [--max-retries N] \
                 [--log-level L] [--log-json log.jsonl] [--metrics-out report.json]";
    let out = pos.first().ok_or(usage)?;
    let budget: usize = pos.get(1).map_or(Ok(60), |s| s.parse()).map_err(|e| format!("{e}"))?;
    let seed: u64 = pos.get(2).map_or(Ok(42), |s| s.parse()).map_err(|e| format!("{e}"))?;
    let metrics_out = obs_args(&flags)?;
    let started = Instant::now();
    let (faults, policy) = fault_args(&flags)?;
    let engine = jobs_arg(&flags)?;
    let ks = kernels::training_kernels();
    let db = if faults.is_disabled() {
        dbgen::generate_database_par(&engine, &MerlinSimulator::new(), &ks, &[], budget, seed)
    } else {
        let harness = dbgen::fault_injected_harness(faults, policy);
        let db = dbgen::generate_database_par(&engine, &harness, &ks, &[], budget, seed);
        log_oracle("gendb.oracle");
        db
    };
    {
        let _io = obs::span::stage("io");
        db.save(Path::new(out)).map_err(|e| e.to_string())?;
    }
    obs::info!(
        "gendb.done",
        "wrote {} designs ({} valid) to {out}",
        db.len(),
        db.valid_count();
        designs = db.len(),
        valid = db.valid_count(),
        out = out.as_str(),
    );
    if let Some(p) = metrics_out {
        write_metrics(&p, "gendb", started)?;
    }
    Ok(())
}

fn cmd_rounds(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(
        args,
        &[
            "rounds",
            "out",
            "jobs",
            "model",
            "fault-rate",
            "fault-seed",
            "max-retries",
            "checkpoint",
            "stop-after",
            "objective",
            "budget",
            "explorer",
            "log-level",
            "log-json",
            "metrics-out",
        ],
        &["resume"],
    )?;
    let usage = "usage: gnndse rounds <db.json> [--rounds N] [--out out.json] [--jobs N] \
                 [--model model.gdse] \
                 [--fault-rate F] [--fault-seed S] [--max-retries N] \
                 [--checkpoint ck.json] [--resume] [--stop-after N] \
                 [--objective latency|weighted|pareto] [--budget dsp=0.8,bram=0.7] \
                 [--explorer sweep|gflow] \
                 [--log-level L] [--log-json log.jsonl] [--metrics-out report.json]";
    let db_path = pos.first().ok_or(usage)?;
    let n_rounds: usize = flag_or(&flags, "rounds", 4)?;
    let out = flags.get("out").cloned().unwrap_or_else(|| db_path.clone());
    let metrics_out = obs_args(&flags)?;
    let started = Instant::now();
    let (faults, policy) = fault_args(&flags)?;
    let checkpoint = flags.get("checkpoint").cloned();
    let resume = flags.contains_key("resume");
    if resume && checkpoint.is_none() {
        return Err("--resume requires --checkpoint <file>".into());
    }
    let stop_after: Option<usize> = match flags.get("stop-after") {
        Some(v) => Some(v.parse().map_err(|e| format!("bad value for --stop-after: {e}"))?),
        None => None,
    };
    let mut model_ignored = false;
    let initial_model = match flags.get("model") {
        Some(p) if resume => {
            obs::warn!(
                "rounds.model",
                "--model {p} is ignored when resuming: the checkpoint already \
                 carries the training state"
            );
            model_ignored = true;
            None
        }
        Some(p) => Some(load_artifact(p)?),
        None => None,
    };

    let mut db = {
        let _io = obs::span::stage("io");
        Database::load(Path::new(db_path)).map_err(|e| e.to_string())?
    };
    let ks = db.training_kernels().map_err(|e| format!("{db_path} {e}"))?;
    let (kind, budget, sampler) = objective_args(&flags)?;
    let mut cfg =
        RoundsConfig { rounds: n_rounds, stop_after, initial_model, ..RoundsConfig::quick() };
    cfg.dse = DseConfig { kind, budget, sampler, ..cfg.dse };

    obs::info!(
        "rounds.start",
        "running {n_rounds} rounds over {} kernels ({} designs to start)...",
        ks.len(),
        db.len();
        rounds = n_rounds,
        kernels = ks.len(),
        designs = db.len(),
    );
    let engine = jobs_arg(&flags)?;
    let harness = dbgen::fault_injected_harness(faults, policy);
    run_rounds_with_engine(
        &mut db,
        &ks,
        &cfg,
        &harness,
        checkpoint.as_deref().map(Path::new),
        resume,
        &engine,
    )
    .map_err(|e| e.to_string())?;
    if model_ignored {
        // Surface the ignored flag in run_report.json too, not only on
        // stderr — scripted runs read the report, not the log. Booked
        // *after* the campaign: resuming restores the checkpoint's metrics
        // snapshot, which would wipe a counter booked earlier.
        obs::metrics::counter_inc("rounds.model_ignored");
    }

    if !faults.is_disabled() && obs::metrics::counter_value("oracle.attempts") > 0 {
        log_oracle("rounds.oracle");
    }
    {
        let _io = obs::span::stage("io");
        db.save(Path::new(&out)).map_err(|e| e.to_string())?;
    }
    obs::info!(
        "rounds.done",
        "wrote {} designs ({} valid) to {out}",
        db.len(),
        db.valid_count();
        designs = db.len(),
        valid = db.valid_count(),
        out = out.as_str(),
    );
    if let Some(p) = metrics_out {
        write_metrics(&p, "rounds", started)?;
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(args, &["save", "epochs"], &[])?;
    let usage = "usage: gnndse train <db.json> --save model.gdse [--epochs N]";
    let ([db_path], Some(save)) = (&pos[..], flags.get("save")) else {
        return Err(usage.into());
    };
    let epochs = count_flag(&flags, "epochs", 40)?;
    let db = Database::load(Path::new(db_path)).map_err(|e| e.to_string())?;
    let referenced = db.training_kernels().map_err(|e| format!("{db_path} {e}"))?;
    let cfg = TrainConfig { epochs, ..TrainConfig::paper() };
    println!("training M7 on {} designs for {epochs} epochs...", db.len());
    let model_cfg = ModelConfig { hidden: 32, gnn_layers: 4, mlp_layers: 4, seed: 42 };
    let (p, _) = Predictor::train(&db, &referenced, ModelKind::Full, model_cfg, &cfg);
    let trained_on: Vec<String> = referenced.iter().map(|k| k.name().to_string()).collect();
    let meta = ArtifactMeta::describe(&p, &trained_on, epochs);
    p.save_artifact(Path::new(save), &meta).map_err(|e| e.to_string())?;
    println!(
        "saved artifact ({}, {} kernels, schema v{}) to {save}",
        meta.model,
        meta.kernels.len(),
        meta.schema_version
    );
    Ok(())
}

fn cmd_dse(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(
        args,
        &[
            "top-m",
            "jobs",
            "model",
            "objective",
            "budget",
            "explorer",
            "log-level",
            "log-json",
            "metrics-out",
        ],
        &[],
    )?;
    let usage = "usage: gnndse dse <model> <kernel> [top_m] (or: gnndse dse <kernel> \
                 --model model.gdse) [--jobs N] \
                 [--objective latency|weighted|pareto] [--budget dsp=0.8,bram=0.7] \
                 [--explorer sweep|gflow] [--log-level L] \
                 [--log-json log.jsonl] [--metrics-out report.json]";
    let (model_path, kernel, rest) = match flags.get("model") {
        Some(m) => {
            let [kernel, rest @ ..] = &pos[..] else {
                return Err(usage.into());
            };
            (m.clone(), kernel, rest)
        }
        None => {
            let [model_path, kernel, rest @ ..] = &pos[..] else {
                return Err(usage.into());
            };
            (model_path.clone(), kernel, rest)
        }
    };
    let top_m: usize = match rest.first() {
        Some(s) => s.parse().map_err(|e| format!("{e}"))?,
        None => flag_or(&flags, "top-m", 10)?,
    };
    let metrics_out = obs_args(&flags)?;
    let started = Instant::now();
    let predictor = {
        let _io = obs::span::stage("io");
        load_artifact(&model_path)?
    };
    let kernel = lookup_kernel(kernel)?;
    let space = DesignSpace::from_kernel(&kernel);
    let (kind, budget, sampler) = objective_args(&flags)?;
    let cfg = DseConfig { top_m, kind, budget, sampler, ..DseConfig::default() };
    let engine = jobs_arg(&flags)?;
    let graph = build_graph_bidirectional(&kernel, &space);
    let outcome = run_dse_with_engine(&predictor, &kernel, &space, &graph, &cfg, &engine);
    obs::info!(
        "dse.summary",
        "{} inferences in {:?} ({})",
        outcome.inferences,
        outcome.wall,
        if outcome.exhaustive { "exhaustive" } else { "heuristic" };
        kernel = kernel.name(),
        inferences = outcome.inferences,
        wall_us = outcome.wall,
        exhaustive = outcome.exhaustive,
    );
    let sim = MerlinSimulator::new();
    let _validate = obs::span::stage("validate");
    for (rank, (point, pred)) in outcome.top.iter().enumerate() {
        let truth = sim.evaluate(&kernel, &space, point);
        obs::info!(
            "dse.candidate",
            "#{:<3} predicted {:>10} | actual {:>10} ({}) | {}",
            rank + 1,
            pred.cycles,
            truth.cycles,
            truth.validity,
            point.describe(space.slots());
            rank = rank + 1,
            predicted_cycles = pred.cycles,
            actual_cycles = truth.cycles,
            validity = truth.validity.to_string(),
        );
    }
    drop(_validate);
    if kind == ObjectiveKind::Pareto {
        obs::info!(
            "dse.front",
            "predicted Pareto front: {} mutually non-dominated designs",
            outcome.front.len();
            front_points = outcome.front.len(),
        );
        for (point, pred) in &outcome.front {
            obs::info!(
                "dse.front_point",
                "front: {:>10} cycles | dsp {:.2} bram {:.2} lut {:.2} ff {:.2} | {}",
                pred.cycles,
                pred.util.dsp,
                pred.util.bram,
                pred.util.lut,
                pred.util.ff,
                point.describe(space.slots());
                predicted_cycles = pred.cycles,
            );
        }
    }
    if let Some(p) = metrics_out {
        write_metrics(&p, "dse", started)?;
    }
    Ok(())
}

fn cmd_predict(args: &[String]) -> CliResult {
    let (pos, flags) =
        split_flags(args, &["addr", "id", "retries", "timeout", "connect-timeout"], &[])?;
    let usage = "usage: gnndse predict <model> <kernel> <index> \
                 (or: gnndse predict <kernel> <index> --addr HOST:PORT \
                 [--id N] [--retries N] [--timeout MS] [--connect-timeout MS])";
    if let Some(addr) = flags.get("addr") {
        let [kernel, index] = &pos[..] else {
            return Err(usage.into());
        };
        let index: u128 = index.parse().map_err(|e| format!("bad index: {e}"))?;
        let id: u64 = flag_or(&flags, "id", 1)?;
        let retries: u32 = flag_or(&flags, "retries", 3)?;
        let timeout_ms: u64 = flag_or(&flags, "timeout", 30_000)?;
        let connect_ms: u64 = flag_or(&flags, "connect-timeout", 5_000)?;
        let client_config = ClientConfig {
            connect_timeout: Duration::from_millis(connect_ms),
            read_timeout: Some(Duration::from_millis(timeout_ms)),
            retries,
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, client_config).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let response = client.predict(id, kernel, index).map_err(|e| e.to_string())?;
        match response {
            Response::Ok { id, epoch, row } => {
                println!("id        : {id}");
                println!("epoch     : {epoch}");
                println!("valid prob: {:.3}", row.valid_prob);
                println!("cycles    : {}", row.cycles);
                println!(
                    "util      : dsp {:.3}, bram {:.3}, lut {:.3}, ff {:.3}",
                    row.dsp, row.bram, row.lut, row.ff
                );
                println!("latency   : {:?} (round trip)", start.elapsed());
                Ok(())
            }
            Response::Rejected { retry_after_ms, .. } => Err(format!(
                "rejected (429): prediction queue full, retry in {retry_after_ms} ms"
            )),
            Response::Error { code, message, .. } => Err(format!("server error {code}: {message}")),
            other => Err(format!("unexpected response: {other:?}")),
        }
    } else {
        let [model_path, kernel, index] = &pos[..] else {
            return Err(usage.into());
        };
        let predictor = load_artifact(model_path)?;
        let kernel = lookup_kernel(kernel)?;
        let space = DesignSpace::from_kernel(&kernel);
        let index: u128 = index.parse().map_err(|e| format!("bad index: {e}"))?;
        if index >= space.size() {
            return Err(format!("index {index} out of space of size {}", space.size()));
        }
        let point = space.point_at(index);
        let graph = build_graph_bidirectional(&kernel, &space);
        let start = Instant::now();
        let pred = predictor.predict(&graph, &point);
        println!("design    : {}", point.describe(space.slots()));
        println!("valid prob: {:.3}", pred.valid_prob);
        println!("cycles    : {}", pred.cycles);
        println!(
            "util      : dsp {:.3}, bram {:.3}, lut {:.3}, ff {:.3}",
            pred.util.dsp, pred.util.bram, pred.util.lut, pred.util.ff
        );
        println!("latency   : {:?} (surrogate wall-clock)", start.elapsed());
        Ok(())
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(
        args,
        &[
            "model",
            "addr",
            "jobs",
            "queue",
            "batch",
            "max-requests",
            "replicas",
            "request-timeout",
            "idle-timeout",
            "trace-slow-ms",
            "trace-capacity",
            "log-level",
            "log-json",
            "metrics-out",
        ],
        &["reload"],
    )?;
    let usage = "usage: gnndse serve --model model.gdse [--addr 127.0.0.1:7878] [--jobs N] \
                 [--queue N] [--batch N] [--max-requests N] [--replicas N] [--reload] \
                 [--request-timeout MS] [--idle-timeout MS] \
                 [--trace-slow-ms MS] [--trace-capacity N] \
                 [--log-level L] [--log-json log.jsonl] [--metrics-out report.json]";
    if !pos.is_empty() {
        return Err(format!("unexpected positional arguments\n{usage}"));
    }
    let model_path = flags.get("model").ok_or(usage)?;
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let metrics_out = obs_args(&flags)?;
    let started = Instant::now();
    let (base, total_jobs) = serve_args(&flags)?;
    let idle_timeout: Option<Duration> = match flags.get("idle-timeout") {
        Some(v) => Some(Duration::from_millis(
            v.parse().map_err(|e| format!("bad value for --idle-timeout: {e}"))?,
        )),
        None => None,
    };
    let watch = flags.contains_key("reload");
    let trace_slow: Option<Duration> = match flags.get("trace-slow-ms") {
        Some(v) => Some(Duration::from_millis(
            v.parse().map_err(|e| format!("bad value for --trace-slow-ms: {e}"))?,
        )),
        None => None,
    };
    let trace_capacity: usize = flag_or(&flags, "trace-capacity", 256)?;

    // Split the worker budget across replicas: each replica owns a private
    // engine, so N replicas × per-replica jobs ≈ the machine budget.
    let per_replica_jobs = (total_jobs / base.replicas).max(1);

    let config = ServeConfig {
        idle_timeout,
        reload_watch: watch.then(|| Duration::from_millis(500)),
        trace_slow,
        trace_capacity,
        ..base
    };

    let provider = {
        let _io = obs::span::stage("io");
        ArtifactProvider::open(Path::new(model_path), per_replica_jobs)?
    };
    log_loaded(model_path, &provider.meta());
    let server = Server::bind_with_provider(&addr, config, std::sync::Arc::new(provider))
        .map_err(|e| e.to_string())?;
    let local = server.local_addr();
    obs::info!(
        "serve.listening",
        "serving predictions on {local} ({} replica(s) × {per_replica_jobs} job(s), \
         queue {}, batch {}{})",
        config.replicas,
        config.queue_capacity,
        config.max_batch,
        if watch { ", watching artifact for hot swap" } else { "" };
        addr = local.to_string(),
        replicas = config.replicas,
        queue = config.queue_capacity,
        batch = config.max_batch,
    );
    // Scripts block on this line to learn the (possibly ephemeral) port.
    println!("listening on {local}");
    std::io::stdout().flush().ok();

    {
        let _serve = obs::span::stage("serve");
        server.run();
    }
    // `run` folded the server's counters into this thread's registry.
    let [served, rejected, errors, rerouted, replica_restarts, reloads, reload_failures] = [
        "serve.predictions",
        "serve.rejected",
        "serve.errors",
        "serve.rerouted",
        "serve.replica_restarts",
        "serve.reloads",
        "serve.reload_failures",
    ]
    .map(obs::metrics::counter_value);
    obs::info!(
        "serve.done",
        "served {served} predictions ({rejected} rejected, {errors} errors, {rerouted} rerouted, \
         {replica_restarts} replica restarts, {reloads} reloads, {reload_failures} reload failures)";
        served = served,
        rejected = rejected,
        errors = errors,
        rerouted = rerouted,
        replica_restarts = replica_restarts,
        reloads = reloads,
        reload_failures = reload_failures,
    );
    if let Some(p) = metrics_out {
        write_metrics(&p, "serve", started)?;
    }
    Ok(())
}

/// `gnndse daemon` — the continuous-learning service: the replicated
/// prediction server plus a background DSE/fine-tune driver that hot-swaps
/// the served artifact after every round.
fn cmd_daemon(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(
        args,
        &[
            "db",
            "model",
            "addr",
            "rounds",
            "checkpoint",
            "replay",
            "replay-capacity",
            "train-epochs",
            "pause-ms",
            "jobs",
            "queue",
            "batch",
            "replicas",
            "max-requests",
            "request-timeout",
            "watch-ms",
            "log-level",
            "log-json",
            "metrics-out",
        ],
        &[],
    )?;
    let usage = "usage: gnndse daemon --db db.json --model model.gdse \
                 [--addr 127.0.0.1:7878] [--rounds N] [--checkpoint ck.json] \
                 [--replay replay.json] [--replay-capacity N] [--train-epochs N] \
                 [--pause-ms MS] [--jobs N] [--queue N] [--batch N] [--replicas N] \
                 [--max-requests N] [--request-timeout MS] [--watch-ms MS] \
                 [--log-level L] [--log-json log.jsonl] [--metrics-out report.json]";
    if !pos.is_empty() {
        return Err(format!("unexpected positional arguments\n{usage}"));
    }
    let db = flags.get("db").ok_or(usage)?;
    let model = flags.get("model").ok_or(usage)?;
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let replay_capacity = count_flag(&flags, "replay-capacity", 512)?;
    let train_epochs = count_flag(&flags, "train-epochs", 4)?;
    let metrics_out = obs_args(&flags)?;
    let started = Instant::now();
    let n_rounds: usize = flag_or(&flags, "rounds", 4)?;
    let checkpoint =
        flags.get("checkpoint").cloned().unwrap_or_else(|| format!("{model}.ck.json"));
    let replay = flags.get("replay").cloned().unwrap_or_else(|| format!("{model}.replay.json"));
    let pause_ms: u64 = flag_or(&flags, "pause-ms", 500)?;
    let (base, jobs) = serve_args(&flags)?;
    let watch: Option<Duration> = match flags.get("watch-ms") {
        Some(v) => Some(Duration::from_millis(
            v.parse().map_err(|e| format!("bad value for --watch-ms: {e}"))?,
        )),
        None => None,
    };
    let serve = ServeConfig { reload_watch: watch, ..base };
    let rounds = RoundsConfig {
        rounds: n_rounds,
        train_cfg: gnn_dse::TrainConfig::quick().with_epochs(train_epochs),
        ..RoundsConfig::quick()
    };
    let cfg = gnn_dse::DaemonConfig {
        addr,
        db: PathBuf::from(db),
        artifact: PathBuf::from(model),
        checkpoint: PathBuf::from(checkpoint),
        replay: PathBuf::from(replay),
        replay_capacity,
        rounds,
        serve,
        jobs,
        round_pause: Duration::from_millis(pause_ms),
    };
    let daemon = gnn_dse::Daemon::start(cfg)?;
    let local = daemon.addr();
    // Scripts block on this line to learn the (possibly ephemeral) port.
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    let report = daemon.run()?;
    // `run` folded the server's counters into this thread's registry.
    let [served, errors, reloads, reload_failures] =
        ["serve.predictions", "serve.errors", "serve.reloads", "serve.reload_failures"]
            .map(obs::metrics::counter_value);
    obs::info!(
        "daemon.done",
        "served {served} predictions ({errors} errors, {reloads} reloads, \
         {reload_failures} reload failures); completed {} learning round(s){}",
        report.rounds.len(),
        match &report.learner_error {
            Some(e) => format!("; learner failed: {e}"),
            None => String::new(),
        };
        served = served,
        errors = errors,
        reloads = reloads,
        rounds = report.rounds.len(),
    );
    if let Some(p) = metrics_out {
        write_metrics(&p, "daemon", started)?;
    }
    match report.learner_error {
        Some(e) => Err(format!("learning plane failed: {e}")),
        None => Ok(()),
    }
}

/// `gnndse admin <addr> <command>` — poke a running server over its own
/// protocol: force a hot swap, run a kill drill, read live telemetry and
/// traces, or stop it.
fn cmd_admin(args: &[String]) -> CliResult {
    let usage = "usage: gnndse admin <addr> \
                 <reload | kill-replica N | stats [--prom] | trace <id|slow> | \
                 learn-status | shutdown>";
    let [addr, command, rest @ ..] = args else {
        return Err(usage.into());
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match (command.as_str(), rest) {
        ("stats", rest) => {
            let prom = match rest {
                [] => false,
                [f] if f == "--prom" => true,
                _ => return Err(usage.into()),
            };
            let body = client.stats().map_err(|e| e.to_string())?;
            if prom {
                // The snapshot rides inside the stats document; re-render
                // it as Prometheus text exposition for scrapers.
                let metrics = body
                    .as_map()
                    .and_then(|m| m.iter().find(|(k, _)| k == "metrics"))
                    .map(|(_, v)| v.clone())
                    .ok_or("stats response carries no `metrics` snapshot")?;
                let json = serde_json::to_string(&metrics)
                    .map_err(|e| format!("metrics re-serialize: {e}"))?;
                let snap: obs::MetricsSnapshot = serde_json::from_str(&json)
                    .map_err(|e| format!("metrics snapshot decode: {e}"))?;
                print!("{}", obs::prom::render(&snap));
            } else {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&body)
                        .map_err(|e| format!("stats serialize: {e}"))?
                );
            }
            Ok(())
        }
        ("learn-status", []) => {
            let body = client.learn_status().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string_pretty(&body)
                    .map_err(|e| format!("learn-status serialize: {e}"))?
            );
            Ok(())
        }
        ("trace", [query]) => {
            let body = client.trace(query).map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string_pretty(&body)
                    .map_err(|e| format!("trace serialize: {e}"))?
            );
            Ok(())
        }
        ("reload", []) => match client.reload_server().map_err(|e| e.to_string())? {
            Response::Reloaded { epoch } => {
                println!("reloaded: serving epoch {epoch}");
                Ok(())
            }
            Response::Error { code, message, .. } => {
                Err(format!("reload rejected ({code}): {message}"))
            }
            other => Err(format!("unexpected response: {other:?}")),
        },
        ("kill-replica", [replica]) => {
            let replica: usize =
                replica.parse().map_err(|e| format!("bad replica index: {e}"))?;
            match client.kill_replica(replica).map_err(|e| e.to_string())? {
                Response::Killed { replica } => {
                    println!("killed replica {replica} (it will restart under supervision)");
                    Ok(())
                }
                Response::Error { code, message, .. } => {
                    Err(format!("kill rejected ({code}): {message}"))
                }
                other => Err(format!("unexpected response: {other:?}")),
            }
        }
        ("shutdown", []) => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server is shutting down");
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

/// `gnndse chaos-proxy` — a TCP fault-injection proxy between a client and
/// a running server, for chaos tests and the CI smoke.
fn cmd_chaos_proxy(args: &[String]) -> CliResult {
    let (pos, flags) = split_flags(
        args,
        &[
            "listen",
            "upstream",
            "drop",
            "delay-rate",
            "delay-ms",
            "truncate",
            "kill",
            "seed",
            "duration-secs",
        ],
        &[],
    )?;
    let usage = "usage: gnndse chaos-proxy --upstream HOST:PORT [--listen 127.0.0.1:0] \
                 [--drop F] [--delay-rate F] [--delay-ms N] [--truncate F] [--kill F] \
                 [--seed N] [--duration-secs N]";
    if !pos.is_empty() {
        return Err(format!("unexpected positional arguments\n{usage}"));
    }
    let upstream = flags.get("upstream").ok_or(usage)?;
    let listen = flags.get("listen").cloned().unwrap_or_else(|| "127.0.0.1:0".to_string());
    let config = ChaosConfig {
        drop_rate: flag_or(&flags, "drop", 0.0)?,
        delay_rate: flag_or(&flags, "delay-rate", 0.0)?,
        truncate_rate: flag_or(&flags, "truncate", 0.0)?,
        kill_rate: flag_or(&flags, "kill", 0.0)?,
        delay: Duration::from_millis(flag_or(&flags, "delay-ms", 100)?),
        seed: flag_or(&flags, "seed", 7)?,
    };
    for (name, rate) in [
        ("drop", config.drop_rate),
        ("delay-rate", config.delay_rate),
        ("truncate", config.truncate_rate),
        ("kill", config.kill_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{name} must be in [0, 1], got {rate}"));
        }
    }
    let duration_secs: u64 = flag_or(&flags, "duration-secs", 0)?;
    let mut proxy = ChaosProxy::start(&listen, upstream, config).map_err(|e| e.to_string())?;
    // Scripts block on this line to learn the (possibly ephemeral) port.
    println!("proxying on {} -> {upstream}", proxy.addr());
    std::io::stdout().flush().ok();
    if duration_secs == 0 {
        // Run until killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration_secs));
    let stats = proxy.stats();
    proxy.shutdown();
    println!(
        "proxied {} connection(s): {} dropped, {} delayed, {} truncated, {} killed",
        stats.connections, stats.dropped, stats.delayed, stats.truncated, stats.killed
    );
    Ok(())
}
