//! **Execution-engine speedup** — serial vs `--jobs N` throughput for
//! database generation and surrogate-driven DSE.
//!
//! Reports two numbers per stage:
//!
//! * **Measured wall-clock** for the in-process analytical oracle. On a
//!   single-CPU host this hovers around 1x and is informational only.
//! * **Modelled tool-time makespan**: each oracle evaluation is costed at a
//!   nominal HLS run time and the per-kernel workloads are scheduled onto
//!   `jobs` workers with the engine's greedy least-loaded policy
//!   ([`gdse_exec::virtual_makespan`]). This is the quantity that matters
//!   against a real HLS tool, where a run takes minutes, not microseconds —
//!   and it is deterministic, so the bench can assert on it.
//!
//! Asserts that (a) the parallel database is byte-identical to the serial
//! one, (b) the parallel DSE top list is bit-identical to the serial one,
//! and (c) the modelled dbgen speedup at `jobs` workers is at least 2.5x.
//! Writes `BENCH_exec.json` with every figure printed.
//!
//! `GNNDSE_JOBS` selects the worker count (default 4); `GNNDSE_SCALE`
//! selects the workload size as for every other harness binary.

use design_space::DesignSpace;
use gdse_exec::virtual_makespan;
use gnn_dse::dbgen;
use gnn_dse::dse::{run_dse_with_engine, DseConfig};
use gnn_dse::{ExecEngine, Normalizer, Predictor};
use gnn_dse_bench::{init_obs_from_env, out, rule, Scale};
use merlin_sim::MerlinSimulator;
use proggraph::build_graph_bidirectional;
use std::time::Instant;

/// Nominal minutes per HLS evaluation used by the makespan model. The paper
/// budgets tool runs in this range; the constant cancels out of the speedup
/// ratio, so its exact value only affects the reported absolute minutes.
const TOOL_MINUTES_PER_EVAL: f64 = 9.0;

#[derive(serde::Serialize)]
struct DbgenReport {
    designs: usize,
    kernels: usize,
    byte_identical: bool,
    serial_wall_us: u64,
    parallel_wall_us: u64,
    modelled_serial_minutes: f64,
    modelled_parallel_minutes: f64,
    modelled_speedup: f64,
}

#[derive(serde::Serialize)]
struct DseReport {
    kernel: String,
    inferences: usize,
    identical_top: bool,
    serial_wall_us: u64,
    parallel_wall_us: u64,
    modelled_speedup: f64,
}

#[derive(serde::Serialize)]
struct ExecBenchReport {
    scale: String,
    jobs: usize,
    tool_minutes_per_eval: f64,
    dbgen: DbgenReport,
    dse: DseReport,
}

fn jobs_from_env() -> usize {
    match std::env::var("GNNDSE_JOBS") {
        Ok(s) => s.parse().unwrap_or_else(|e| panic!("GNNDSE_JOBS: {e}")),
        Err(_) => 4,
    }
}

fn main() {
    init_obs_from_env();
    let scale = Scale::from_env();
    let jobs = jobs_from_env();
    let seed = 42u64;
    out!("Execution engine speedup (scale: {}, jobs: {jobs})", scale.label());
    out!();

    // --- dbgen: serial vs pooled ---------------------------------------
    let ks = hls_ir::kernels::training_kernels();
    let budgets = scale.budgets();

    let t = Instant::now();
    let serial_db = dbgen::generate_database(&ks, &budgets, 60, seed);
    let dbgen_serial_wall = t.elapsed();

    let engine = ExecEngine::with_jobs(jobs);
    let t = Instant::now();
    let par_db =
        dbgen::generate_database_par(&engine, &MerlinSimulator::new(), &ks, &budgets, 60, seed);
    let dbgen_par_wall = t.elapsed();

    let serial_bytes = serde_json::to_string(serial_db.entries()).expect("serialize");
    let par_bytes = serde_json::to_string(par_db.entries()).expect("serialize");
    assert_eq!(serial_bytes, par_bytes, "jobs={jobs} database must be byte-identical to serial");

    // Modelled tool time: each kernel's campaign costs (evaluations x
    // nominal tool minutes); kernels are the unit the pool schedules.
    let costs: Vec<f64> = ks
        .iter()
        .map(|k| serial_db.of_kernel(k.name()).count() as f64 * TOOL_MINUTES_PER_EVAL)
        .collect();
    let serial_minutes: f64 = costs.iter().sum();
    let par_minutes = virtual_makespan(&costs, jobs);
    let dbgen_speedup = serial_minutes / par_minutes;

    out!("dbgen  ({} designs over {} kernels)", serial_db.len(), ks.len());
    rule(72);
    out!("  measured wall      serial {:>10.1?} | jobs={jobs} {:>10.1?}", dbgen_serial_wall, dbgen_par_wall);
    out!(
        "  modelled tool time serial {:>8.0} min | jobs={jobs} {:>8.0} min  ({dbgen_speedup:.2}x)",
        serial_minutes,
        par_minutes
    );
    out!("  byte-identical output: yes");
    assert!(
        dbgen_speedup >= 2.5,
        "modelled dbgen speedup at jobs={jobs} must be >= 2.5x, got {dbgen_speedup:.2}x"
    );

    // --- DSE: serial vs chunked batched inference ----------------------
    let kernel = hls_ir::kernels::gemm_ncubed();
    let space = DesignSpace::from_kernel(&kernel);
    let graph = build_graph_bidirectional(&kernel, &space);
    let predictor = Predictor::untrained(
        gdse_gnn::ModelKind::Transformer,
        scale.model_config(),
        Normalizer::with_factor(1_000_000.0),
    );
    let cfg = DseConfig::default();

    let t = Instant::now();
    let serial_dse =
        run_dse_with_engine(&predictor, &kernel, &space, &graph, &cfg, &ExecEngine::serial());
    let dse_serial_wall = t.elapsed();

    let t = Instant::now();
    let par_dse = run_dse_with_engine(&predictor, &kernel, &space, &graph, &cfg, &engine);
    let dse_par_wall = t.elapsed();

    assert_eq!(par_dse.inferences, serial_dse.inferences, "same surrogate work");
    let key = |o: &gnn_dse::DseOutcome| {
        o.top
            .iter()
            .map(|(p, pred)| (p.clone(), pred.cycles, pred.valid_prob.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&par_dse), key(&serial_dse), "jobs={jobs} top list must match serial");

    // The engine splits each inference batch into at most `jobs` contiguous
    // chunks, so the modelled makespan of N unit-cost inferences is the
    // largest chunk.
    let n = serial_dse.inferences;
    let dse_speedup = n as f64 / n.div_ceil(jobs) as f64;
    out!();
    out!("dse    ({n} surrogate inferences, {})", kernel.name());
    rule(72);
    out!("  measured wall      serial {:>10.1?} | jobs={jobs} {:>10.1?}", dse_serial_wall, dse_par_wall);
    out!("  modelled batch speedup at jobs={jobs}: {dse_speedup:.2}x");
    out!("  identical top list: yes");

    // --- report ---------------------------------------------------------
    let report = ExecBenchReport {
        scale: scale.label().to_string(),
        jobs,
        tool_minutes_per_eval: TOOL_MINUTES_PER_EVAL,
        dbgen: DbgenReport {
            designs: serial_db.len(),
            kernels: ks.len(),
            byte_identical: true,
            serial_wall_us: dbgen_serial_wall.as_micros() as u64,
            parallel_wall_us: dbgen_par_wall.as_micros() as u64,
            modelled_serial_minutes: serial_minutes,
            modelled_parallel_minutes: par_minutes,
            modelled_speedup: dbgen_speedup,
        },
        dse: DseReport {
            kernel: kernel.name().to_string(),
            inferences: n,
            identical_top: true,
            serial_wall_us: dse_serial_wall.as_micros() as u64,
            parallel_wall_us: dse_par_wall.as_micros() as u64,
            modelled_speedup: dse_speedup,
        },
    };
    let out_path = "BENCH_exec.json";
    std::fs::write(out_path, serde_json::to_string_pretty(&report).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    out!();
    out!("wrote {out_path}");
}
