//! The raw-speed inference path end-to-end: the blocked f32 GEMM must be
//! *bit-identical* to the historical naive kernel on arbitrary shapes
//! (including the zero-heavy inputs the old kernel special-cased), and the
//! int8-quantized path must stay within bounded drift of the f32 pipeline
//! on every paper kernel — through the artifact round trip and the TCP
//! serving tier included.

use design_space::DesignSpace;
use gdse_gnn::artifact::ArtifactError;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_serve::{Client, Response, ServeConfig, Server};
use gdse_tensor::gemm::gemm_tn;
use gdse_tensor::{Activation, Graph, Matrix, QuantMatrix};
use gnn_dse::artifact::{decode_quant_predictor, encode_quant_predictor};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{
    dbgen, decode_predictor, ArtifactMeta, Error, ExecEngine, PredictService, Predictor,
    QuantPredictor,
};
use hls_ir::kernels;
use proggraph::build_graph_bidirectional;
use proptest::prelude::*;

fn tiny_predictor(seed: u64) -> (Predictor, ArtifactMeta) {
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[], 25, seed);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(2),
    );
    let names: Vec<String> = ks.iter().map(|k| k.name().to_string()).collect();
    let meta = ArtifactMeta::describe(&p, &names, 2);
    (p, meta)
}

/// Like the one-hot node and edge features: about seven entries in eight
/// are zero, half of them `-0.0`, so the zero-skipping loops run.
fn one_hot_like(rows: usize, cols: usize, seed: u64) -> Matrix {
    let dense = zero_salted(rows, cols, seed ^ 0x00dd_ba11);
    let mut z = seed;
    Matrix::from_fn(rows, cols, |i, j| {
        z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        match z >> 61 {
            0 => dense.get(i, j),
            1..=3 => -0.0,
            _ => 0.0,
        }
    })
}

/// A deterministic matrix with roughly one zero entry in four, so the
/// parity tests exercise exactly the inputs the old kernel's zero-skip
/// branch special-cased.
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

    /// The blocked GEMM is bit-identical to the historical naive kernel on
    /// arbitrary shapes: degenerate `k` (0 and 1 land in range), dims that
    /// are not multiples of any block size, and zero-rich inputs where the
    /// old kernel skipped work. So are the tape's zero-skipping product and
    /// `gemm_tn` against the transpose it replaces.
    #[test]
    fn blocked_gemm_is_bit_identical_to_the_naive_kernel(
        m in 0usize..48,
        k in 0usize..48,
        n in 0usize..48,
        seed in any::<u64>(),
    ) {
        let a = zero_salted(m, k, seed);
        let b = zero_salted(k, n, seed.wrapping_mul(31).wrapping_add(7));
        let fast = a.matmul(&b);
        let slow = a.matmul_reference(&b);
        prop_assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // The tape's product on a one-hot-like operand takes the
        // zero-skipping loop and still gives the blocked GEMM's bits.
        let sparse = one_hot_like(m, k, seed.wrapping_add(3));
        let mut g = Graph::new();
        let (xs, ws) = (g.input(sparse.clone()), g.input(b.clone()));
        let taped = g.matmul(xs, ws);
        let blocked = sparse.matmul(&b);
        for (x, y) in g.value(taped).as_slice().iter().zip(blocked.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // Weight gradients `aᵀ · b` for `a: [k, m]`, without the transpose:
        // dense (packed and matrix-vector paths) and one-hot-like
        // (zero-skipping path).
        for at in [zero_salted(k, m, seed.wrapping_add(5)), one_hot_like(k, m, seed)] {
            let fast = gemm_tn(&at, &b);
            let slow = at.transpose().matmul_reference(&b);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

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
    let (p, _) = tiny_predictor(41);
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
    }
}

#[test]
fn quant_artifact_round_trips_and_future_versions_are_typed_errors() {
    let (p, meta) = tiny_predictor(43);
    let qp = QuantPredictor::quantize(&p);
    let bytes = encode_quant_predictor(&qp, &meta).expect("encodes");

    // Round trip reproduces the quantized predictions bitwise.
    let (loaded, loaded_meta) = decode_quant_predictor(&bytes).expect("decodes");
    assert!(loaded_meta.quant, "quant artifacts must be flagged in metadata");
    let k = kernels::atax();
    let space = DesignSpace::from_kernel(&k);
    let graph = build_graph_bidirectional(&k, &space);
    let points: Vec<_> = (0..6u128).map(|i| space.point_at(i * 11 % space.size())).collect();
    assert_eq!(qp.predict_batch(&graph, &points), loaded.predict_batch(&graph, &points));

    // The f32 decoder refuses it with actionable guidance, not garbage.
    match decode_predictor(&bytes) {
        Err(e) => assert!(
            e.to_string().contains("--quant"),
            "rejection must point at --quant, got: {e}"
        ),
        Ok(_) => panic!("f32 decoder must reject a quant artifact"),
    }

    // A reader from before this format version sees a *future* envelope
    // version and must reject it typed; so must this reader for versions
    // it does not know.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    match decode_quant_predictor(&future) {
        Err(Error::Artifact(ArtifactError::UnsupportedVersion { found: 99 })) => {}
        other => panic!("expected unsupported envelope version, got {other:?}"),
    }
}

#[test]
fn quant_serving_absorbs_concurrent_load_with_zero_failures() {
    let (p, _) = tiny_predictor(47);
    let qp = QuantPredictor::quantize(&p);
    let k = kernels::spmv_ellpack();
    let space = DesignSpace::from_kernel(&k);
    let graph = build_graph_bidirectional(&k, &space);
    let indices: Vec<u128> = (0..6).collect();
    let points: Vec<_> = indices.iter().map(|&i| space.point_at(i % space.size())).collect();
    let expected = qp.predict_batch(&graph, &points);

    let service = PredictService::new_quant(qp, ExecEngine::with_jobs(2));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), service).expect("bind");
    let handle = server.handle();
    // The run thread returns its registry, into which `run` folded the
    // server's counters.
    let join = std::thread::spawn(move || {
        server.run();
        gdse_obs::metrics::snapshot()
    });
    let addr = handle.addr().to_string();

    std::thread::scope(|s| {
        for c in 0..3u64 {
            let addr = addr.clone();
            let indices = &indices;
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for (slot, &i) in indices.iter().enumerate() {
                    let id = c * 1000 + i as u64;
                    match client.predict(id, "spmv-ellpack", i).expect("roundtrip") {
                        Response::Ok { id: rid, row, .. } => {
                            assert_eq!(rid, id);
                            let exp = &expected[slot];
                            assert_eq!(
                                row.valid_prob.to_bits(),
                                exp.valid_prob.to_bits(),
                                "served quant valid_prob must equal predict_batch"
                            );
                            assert_eq!(row.cycles, exp.cycles);
                        }
                        other => panic!("request failed: {other:?}"),
                    }
                }
            });
        }
    });
    handle.shutdown();
    let snap = join.join().unwrap();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(count("serve.predictions"), 3 * 6, "every request must be served");
    assert_eq!(count("serve.rejected"), 0, "no request may be rejected");
    assert_eq!(count("serve.errors"), 0, "no request may fail");
}
