//! The int8-quantized path, which only the benchmark measures now: weight
//! quantization and its kernel stay within analytic error bounds, and the
//! quantized predictor stays within bounded drift of the f32 pipeline on
//! every paper kernel. The f32 GEMM parity checks live in
//! `tests/gemm_parity.rs`.

use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_tensor::{Activation, Matrix, QuantMatrix};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, Predictor, QuantPredictor};
use hls_ir::kernels;
use proggraph::build_graph_bidirectional;
use proptest::prelude::*;

fn tiny_predictor(seed: u64) -> Predictor {
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[], 25, seed);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(2),
    );
    p
}

/// A deterministic matrix with roughly one zero entry in four (the same
/// generator as `tests/gemm_parity.rs`).
fn zero_salted(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    Matrix::from_fn(rows, cols, |_, _| {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        if x & 3 == 0 {
            0.0
        } else {
            ((x >> 40) as f32 / (1u64 << 22) as f32) - 2.0
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weight quantization round trip: every element of `dequantize()` is
    /// within half a quantization step of the original, and the quantized
    /// linear kernel stays within the analytic weight-only error bound of
    /// the exact f32 product.
    #[test]
    fn quant_round_trip_and_kernel_error_are_bounded(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let w = zero_salted(k, n, seed);
        let q = QuantMatrix::quantize(&w);
        let back = q.dequantize();
        let half_step = q.scale() * 0.5 + 1e-6;
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= half_step, "{} vs {}", a, b);
        }

        let x = zero_salted(m, k, seed.wrapping_add(13));
        let y_q = gdse_tensor::quant::linear(&x, &q, None, Activation::None);
        let y_f = x.matmul(&w);
        for i in 0..m {
            // |x . w - x . dequant(w)| <= sum_k |x_k| * scale / 2, plus
            // headroom for FMA-vs-serial float accumulation differences.
            let bound: f32 =
                x.row(i).iter().map(|v| v.abs()).sum::<f32>() * q.scale() * 0.5 * 1.5 + 1e-4;
            for j in 0..n {
                let err = (y_q.get(i, j) - y_f.get(i, j)).abs();
                prop_assert!(err <= bound, "({}, {}): err {} > bound {}", i, j, err, bound);
            }
        }
    }
}

#[test]
fn quantized_predictions_stay_bounded_on_every_kernel() {
    let p = tiny_predictor(41);
    let qp = QuantPredictor::quantize(&p);
    let all = kernels::all_kernels();
    assert!(all.len() >= 13, "expected the full kernel suite, got {}", all.len());
    for k in all {
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let points: Vec<_> =
            (0..8u128).map(|i| space.point_at(i * 37 % space.size())).collect();
        let f = p.predict_batch(&graph, &points);
        let q = qp.predict_batch(&graph, &points);
        let n = points.len() as f64;
        let valid_rmse = (f
            .iter()
            .zip(&q)
            .map(|(a, b)| (a.valid_prob - b.valid_prob).powi(2))
            .sum::<f64>()
            / n)
            .sqrt();
        assert!(valid_rmse < 0.15, "{}: valid_prob RMSE {valid_rmse:.4}", k.name());
        let cycles_drift = f
            .iter()
            .zip(&q)
            .map(|(a, b)| ((b.cycles.max(1) as f64) / (a.cycles.max(1) as f64)).log2().abs())
            .sum::<f64>()
            / n;
        assert!(cycles_drift < 1.0, "{}: cycles log2 drift {cycles_drift:.4}", k.name());
        let util_drift = f
            .iter()
            .zip(&q)
            .flat_map(|(a, b)| {
                let (a, b) = (&a.util, &b.util);
                [a.dsp - b.dsp, a.lut - b.lut, a.ff - b.ff, a.bram - b.bram].map(f64::abs)
            })
            .fold(0.0, f64::max);
        assert!(util_drift < 0.5, "{}: utilization drift {util_drift:.4}", k.name());
    }
}
