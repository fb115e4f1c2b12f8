//! **Raw-inference microbench** — the speed story of the dense forward
//! path, measured three ways on the same shapes:
//!
//! * `naive` — the historical triple-loop kernel, kept verbatim as
//!   [`Matrix::matmul_reference`]. This is the pre-optimization baseline.
//! * `blocked` — the cache-blocked, autovectorized f32 GEMM behind
//!   [`Matrix::matmul`] today (bit-identical results to `naive`).
//! * `quant` — the int8 weight-quantized FMA kernel behind
//!   `QuantMatrix`/`Graph::with_quant` (bounded drift, not bit-identical).
//!
//! Writes `BENCH_infer.json`:
//!
//! * `shapes`: per-shape timings and speedups of all three kernels;
//! * `headline`: the dense-forward shape (batch 1024 x NODE_FEATS -> 64,
//!   the per-node transform every GNN layer runs) with the asserted
//!   `quant_speedup >= 4` threshold;
//! * `end_to_end`: a full `Predictor::predict_batch` (the tape-free f32
//!   path) vs `QuantPredictor::predict_batch` (the int8 tape path) on a real
//!   kernel, graph encoding, message passing and heads included. The two
//!   calls alternate for [`E2E_PAIRS`] pairs; `f32_us` and `quant_us` are
//!   each side's median and `speedup` the median of the per-pair ratios, so
//!   a noisy neighbour slows both sides of a pair instead of one;
//! * `accuracy`: quantized-vs-f32 prediction drift over **all 13 paper
//!   kernels** (valid-probability RMSE, mean |log2 cycles ratio|, max
//!   absolute utilization drift), with the bounds the run enforces.
//!
//! Kernel timings are min-of-batches (`GNNDSE_INFER_BATCHES` x
//! `GNNDSE_INFER_REPS`, default 15 x 10): on shared/noisy machines the
//! minimum is the robust estimator of the achievable time.
//! `GNNDSE_INFER_ENFORCE=0` downgrades the kernel-speedup and accuracy
//! asserts to report-only (CI uses this; the numbers are still written for
//! jq-level schema checks). The end-to-end ratio is never asserted: it is
//! the measurement that decides whether the int8 path earns its keep.

use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_tensor::{Activation, Matrix, QuantMatrix};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, Predictor, QuantPredictor};
use gnn_dse_bench::{init_obs_from_env, out, rule};
use proggraph::{build_graph_bidirectional, NODE_FEATS};
use std::time::Instant;

#[derive(serde::Serialize)]
struct ShapeReport {
    m: usize,
    k: usize,
    n: usize,
    naive_us: f64,
    blocked_us: f64,
    quant_us: f64,
    /// naive / blocked
    blocked_speedup: f64,
    /// naive / quant
    quant_speedup: f64,
    /// Effective throughput of the quant kernel, in GMAC/s.
    quant_gmacs: f64,
}

#[derive(serde::Serialize)]
struct Headline {
    m: usize,
    k: usize,
    n: usize,
    quant_speedup: f64,
    blocked_speedup: f64,
    threshold: f64,
    enforced: bool,
}

#[derive(serde::Serialize)]
struct EndToEnd {
    kernel: String,
    points: usize,
    f32_us: f64,
    quant_us: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct KernelAccuracy {
    kernel: String,
    points: usize,
    /// RMSE of the validity probability against the f32 pipeline.
    valid_rmse: f64,
    /// Mean |log2(quant cycles / f32 cycles)|.
    cycles_log2_mad: f64,
    /// Max absolute drift over dsp/lut/ff/bram utilization predictions.
    util_max_abs: f64,
}

#[derive(serde::Serialize)]
struct AccuracyBounds {
    valid_rmse: f64,
    cycles_log2_mad: f64,
    util_max_abs: f64,
}

#[derive(serde::Serialize)]
struct InferBenchReport {
    batches: usize,
    reps: usize,
    shapes: Vec<ShapeReport>,
    headline: Headline,
    end_to_end: EndToEnd,
    accuracy: Vec<KernelAccuracy>,
    accuracy_bounds: AccuracyBounds,
}

fn env_or(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|e| panic!("{name}: {e}")),
        Err(_) => default,
    }
}

/// Min-of-batches timing: run `reps` calls per batch, keep the fastest
/// batch. The minimum estimates the noise-free time on shared machines.
fn min_time(batches: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        if us < best {
            best = us;
        }
    }
    best
}

/// Alternating f32/int8 pairs behind the end-to-end ratio (odd, so each
/// median is one measured value).
const E2E_PAIRS: usize = 31;

/// Median of an odd number of values.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times `a` and `b` in `pairs` alternating pairs, swapping which runs
/// first every pair. Returns the medians of `a` and `b` in microseconds and
/// the median of the per-pair ratios `a / b`.
fn paired_medians(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let (mut ta, mut tb) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        if i % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    let ratios: Vec<f64> = ta.iter().zip(&tb).map(|(x, y)| x / y).collect();
    (median(&ta), median(&tb), median(&ratios))
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Splitmix-style fill: deterministic, cheap, full of non-zeros so the
    // old kernel's zero-skip branch never fires on the fast path.
    let mut s = seed;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((s >> 33) & 0xFFFF) as f32 / 65536.0;
        data.push(u - 0.5);
    }
    Matrix::from_vec(rows, cols, data)
}

fn bench_shape(m: usize, k: usize, n: usize, batches: usize, reps: usize) -> ShapeReport {
    let x = random_matrix(m, k, 3 + m as u64);
    let w = random_matrix(k, n, 7 + n as u64);
    let qw = QuantMatrix::quantize(&w);

    let mut sink = 0.0f32;
    let naive_us = min_time(batches, reps, || {
        sink += x.matmul_reference(&w).get(0, 0);
    });
    let blocked_us = min_time(batches, reps, || {
        sink += x.matmul(&w).get(0, 0);
    });
    let quant_us = min_time(batches, reps, || {
        sink += gdse_tensor::quant::linear(&x, &qw, None, Activation::None).get(0, 0);
    });
    assert!(sink.is_finite(), "kernels must produce finite values");

    let macs = (m * k * n) as f64;
    ShapeReport {
        m,
        k,
        n,
        naive_us,
        blocked_us,
        quant_us,
        blocked_speedup: naive_us / blocked_us,
        quant_speedup: naive_us / quant_us,
        quant_gmacs: macs / quant_us / 1e3,
    }
}

fn train(seed: u64) -> Predictor {
    let ks = vec![hls_ir::kernels::gemm_ncubed(), hls_ir::kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[], 30, seed);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(3),
    );
    p
}

fn main() {
    init_obs_from_env();
    let batches = env_or("GNNDSE_INFER_BATCHES", 15) as usize;
    let reps = env_or("GNNDSE_INFER_REPS", 10) as usize;
    let enforce = env_or("GNNDSE_INFER_ENFORCE", 1) != 0;

    out!("Raw-inference microbench (min of {batches} batches x {reps} reps)");
    out!();

    // The dense-forward shapes of this codebase: the headline is the
    // per-node linear transform of a 1024-node batch (NODE_FEATS -> 64),
    // then a mid-size hidden layer and a small head.
    let shape_list = [(1024usize, NODE_FEATS, 64usize), (512, 64, 64), (64, 32, 16)];
    let shapes: Vec<ShapeReport> = shape_list
        .iter()
        .map(|&(m, k, n)| bench_shape(m, k, n, batches, reps))
        .collect();

    out!("  {:>20} | {:>10} | {:>10} | {:>10} | {:>7} | {:>7}", "shape m*k*n", "naive us", "blocked us", "quant us", "blk x", "quant x");
    rule(86);
    for s in &shapes {
        out!(
            "  {:>20} | {:>10.1} | {:>10.1} | {:>10.1} | {:>6.2}x | {:>6.2}x",
            format!("{}x{}x{}", s.m, s.k, s.n),
            s.naive_us,
            s.blocked_us,
            s.quant_us,
            s.blocked_speedup,
            s.quant_speedup
        );
    }
    out!();

    const THRESHOLD: f64 = 4.0;
    let head = &shapes[0];
    let headline = Headline {
        m: head.m,
        k: head.k,
        n: head.n,
        quant_speedup: head.quant_speedup,
        blocked_speedup: head.blocked_speedup,
        threshold: THRESHOLD,
        enforced: enforce,
    };
    out!(
        "  headline: dense forward {}x{}x{} quant speedup {:.2}x (threshold {}x, {})",
        head.m,
        head.k,
        head.n,
        head.quant_speedup,
        THRESHOLD,
        if enforce { "enforced" } else { "report-only" }
    );

    // End-to-end: the full surrogate pipeline, f32 (tape-free) vs quantized
    // (int8 weights on the tape), so this ratio is the honest end-to-end
    // number, not the kernel one.
    let p = train(23);
    let qp = QuantPredictor::quantize(&p);
    let k = hls_ir::kernels::gemm_ncubed();
    let space = DesignSpace::from_kernel(&k);
    let graph = build_graph_bidirectional(&k, &space);
    let points: Vec<_> = (0..64u128).map(|i| space.point_at(i * 13 % space.size())).collect();
    // One untimed call each fills the thread's scratch arena for both paths.
    let _ = (p.predict_batch(&graph, &points), qp.predict_batch(&graph, &points));
    let (f32_us, quant_us, speedup) = paired_medians(
        E2E_PAIRS,
        || drop(std::hint::black_box(p.predict_batch(&graph, &points))),
        || drop(std::hint::black_box(qp.predict_batch(&graph, &points))),
    );
    let end_to_end = EndToEnd {
        kernel: k.name().to_string(),
        points: points.len(),
        f32_us,
        quant_us,
        speedup,
    };
    out!(
        "  end-to-end: {} x{} points, median of {E2E_PAIRS} alternating pairs: \
         f32 {:.0} us vs quant {:.0} us ({:.2}x)",
        end_to_end.kernel,
        end_to_end.points,
        f32_us,
        quant_us,
        end_to_end.speedup
    );
    out!();

    // Quantized accuracy across every paper kernel: one predictor, 8
    // design points per kernel, quant vs f32 prediction drift.
    let bounds = AccuracyBounds { valid_rmse: 0.15, cycles_log2_mad: 1.0, util_max_abs: 0.5 };
    let mut accuracy = Vec::new();
    out!("  quantized accuracy over all paper kernels (vs f32 pipeline):");
    out!("  {:>16} | {:>10} | {:>14} | {:>12}", "kernel", "valid rmse", "cycles log2Δ", "util maxΔ");
    rule(64);
    for kernel in hls_ir::kernels::all_kernels() {
        let space = DesignSpace::from_kernel(&kernel);
        let graph = build_graph_bidirectional(&kernel, &space);
        let pts: Vec<_> = (0..8u128).map(|i| space.point_at(i * 37 % space.size())).collect();
        let f = p.predict_batch(&graph, &pts);
        let q = qp.predict_batch(&graph, &pts);
        let n = pts.len() as f64;
        let valid_rmse = (f
            .iter()
            .zip(&q)
            .map(|(a, b)| (a.valid_prob - b.valid_prob).powi(2))
            .sum::<f64>()
            / n)
            .sqrt();
        let cycles_log2_mad = f
            .iter()
            .zip(&q)
            .map(|(a, b)| ((b.cycles.max(1) as f64) / (a.cycles.max(1) as f64)).log2().abs())
            .sum::<f64>()
            / n;
        let util_max_abs = f
            .iter()
            .zip(&q)
            .flat_map(|(a, b)| {
                [
                    (a.util.dsp - b.util.dsp).abs(),
                    (a.util.lut - b.util.lut).abs(),
                    (a.util.ff - b.util.ff).abs(),
                    (a.util.bram - b.util.bram).abs(),
                ]
            })
            .fold(0.0f64, f64::max);
        out!(
            "  {:>16} | {:>10.4} | {:>14.4} | {:>12.4}",
            kernel.name(),
            valid_rmse,
            cycles_log2_mad,
            util_max_abs
        );
        accuracy.push(KernelAccuracy {
            kernel: kernel.name().to_string(),
            points: pts.len(),
            valid_rmse,
            cycles_log2_mad,
            util_max_abs,
        });
    }
    out!();

    let report = InferBenchReport {
        batches,
        reps,
        shapes,
        headline,
        end_to_end,
        accuracy,
        accuracy_bounds: bounds,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_infer.json", json).expect("BENCH_infer.json");
    out!("wrote BENCH_infer.json");

    if enforce {
        assert!(
            report.headline.quant_speedup >= THRESHOLD,
            "quant kernel speedup {:.2}x below the {}x floor on the dense forward shape",
            report.headline.quant_speedup,
            THRESHOLD
        );
        for a in &report.accuracy {
            assert!(
                a.valid_rmse <= report.accuracy_bounds.valid_rmse,
                "{}: valid-probability drift {:.4} above bound",
                a.kernel,
                a.valid_rmse
            );
            assert!(
                a.cycles_log2_mad <= report.accuracy_bounds.cycles_log2_mad,
                "{}: cycles drift {:.4} above bound",
                a.kernel,
                a.cycles_log2_mad
            );
            assert!(
                a.util_max_abs <= report.accuracy_bounds.util_max_abs,
                "{}: utilization drift {:.4} above bound",
                a.kernel,
                a.util_max_abs
            );
        }
        out!("all thresholds enforced and met");
    } else {
        out!("report-only run (GNNDSE_INFER_ENFORCE=0): thresholds not enforced");
    }
}
