//! Int8 weight quantization for the forward-only serving path.
//!
//! Scheme (documented in DESIGN.md):
//!
//! - **Weights** are quantized *statically* from a trained f32 model with
//!   per-tensor symmetric calibration: `scale = max|w| / 127`,
//!   `q = clamp(round(w / scale), -127, 127)` stored as `i8`
//!   ([`QuantMatrix::quantize`]). This is what serving artifacts persist —
//!   a 4x smaller, checksummed `i8` payload per weight tensor.
//! - **At load time** each tensor is dequantized once into packed,
//!   panel-major f32 (`packed[j] = q[j] * scale`), so serving pays the
//!   rounding error of weight quantization but no per-call conversion.
//! - **Activations stay f32**; [`linear`] multiplies them against the
//!   packed panels with an explicit fused-multiply-add microkernel and
//!   applies the f32 bias + activation epilogue in the same pass.
//!
//! # Why FMA here and not in [`crate::Matrix::matmul`]
//!
//! The default f32 path promises bit-identical results to the historical
//! naive kernel, which rules out contraction of `mul + add` into `fma`.
//! The quantized path makes no such promise — its contract is *bounded
//! drift* against the f32 model — so it is free to use `f32::mul_add`,
//! which doubles the sustained multiply-add rate on every x86 part since
//! Haswell and is still fully deterministic run-to-run.
//!
//! # Kernel layout
//!
//! Weights are packed k-major into [`NRQ`]-lane panels (tail lanes
//! zero-padded, computed and discarded). The microkernel drives [`MRQ`]
//! activation rows against one panel, broadcasting `a[r][k]` and keeping
//! the `MRQ x NRQ` accumulator block in registers for the whole `k`
//! extent.
//!
//! A [`QuantParamSet`] maps [`ParamId`]s to quantized weights; a
//! [`crate::Graph`] carrying one intercepts `matmul`/`linear` calls whose
//! right-hand side is a quantized parameter. That makes the int8 path
//! *forward-only*: intercepted nodes record no gradient function.

use crate::gemm::Activation;
use crate::matrix::Matrix;
use crate::params::ParamId;

/// Panel width of the quantized kernel: 32 f32 lanes = two AVX-512 or
/// four AVX2 registers per driven row.
pub const NRQ: usize = 32;

/// Activation rows driven per microkernel call; `MRQ` row accumulators x
/// `NRQ` lanes stay resident in registers.
pub const MRQ: usize = 4;

/// One 64-byte-aligned cache line of 16 f32 lanes.
///
/// The packed panels are stored as `Vec<Line>` rather than `Vec<f32>` so
/// the kernel's panel loads are *provably* cache-line aligned. This is not
/// cosmetic: a `Vec<f32>` lands wherever the allocator puts it, and a
/// 32-byte-off base makes every 64-byte panel load split two cache lines —
/// measured at ~1.7x slower on the dense forward shape, varying run to run
/// with allocator luck. The aligned type survives `Clone` (unlike an
/// offset-into-overallocated-buffer trick, which loses alignment when the
/// clone reallocates).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct Line([f32; 16]);

/// Cache lines per `NRQ`-lane panel row.
const LINES: usize = NRQ / 16;

/// Dequantizes row-major `i8` weights into k-major `NRQ`-lane f32 panels
/// with the per-tensor scale folded in.
fn pack_panels(data: &[i8], scale: f32, k: usize, n: usize) -> Vec<Line> {
    let npanels = n.div_ceil(NRQ);
    let mut packed = vec![Line([0f32; 16]); npanels * k * LINES];
    for p in 0..npanels {
        for kk in 0..k {
            let base = (p * k + kk) * LINES;
            for jj in 0..NRQ {
                let j = p * NRQ + jj;
                if j >= n {
                    break;
                }
                packed[base + jj / 16].0[jj % 16] = data[kk * n + j] as f32 * scale;
            }
        }
    }
    packed
}

/// A per-tensor symmetrically quantized `i8` matrix.
///
/// Not serde-serializable on purpose: the persistence format is the
/// artifact codec's explicit `(scale, i8 bytes)` payload, decoded back
/// through [`QuantMatrix::from_parts`], which rebuilds the packed panels.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    scale: f32,
    data: Vec<i8>,
    /// Dequantized panel packing of `data` for the kernel (not serialized).
    packed: Vec<Line>,
}

impl PartialEq for QuantMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.scale == other.scale
            && self.data == other.data
    }
}

impl QuantMatrix {
    /// Quantizes `m` with per-tensor symmetric calibration.
    ///
    /// An all-zero matrix gets `scale = 1.0` so dequantization stays exact.
    pub fn quantize(m: &Matrix) -> Self {
        let amax = m
            .as_slice()
            .iter()
            .fold(0.0f32, |acc, &v| acc.max(v.abs()));
        let scale = if amax > 0.0 { amax / 127.0 } else { 1.0 };
        let data: Vec<i8> = m
            .as_slice()
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        let packed = pack_panels(&data, scale, m.rows(), m.cols());
        Self { rows: m.rows(), cols: m.cols(), scale, data, packed }
    }

    /// Rebuilds a `rows x cols` quantized matrix from raw parts (artifact
    /// decoding).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or `scale` is not finite and
    /// positive.
    pub fn from_parts(rows: usize, cols: usize, scale: f32, data: Vec<i8>) -> Self {
        assert_eq!(data.len(), rows * cols, "quant buffer length mismatch");
        assert!(
            scale.is_finite() && scale > 0.0,
            "quant scale must be finite and positive, got {scale}"
        );
        let packed = pack_panels(&data, scale, rows, cols);
        Self { rows, cols, scale, data, packed }
    }

    /// Reconstructs the f32 matrix `q * scale`.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| q as f32 * self.scale).collect(),
        )
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-tensor scale (`max|w| / 127` at calibration time).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw quantized values, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }
}

/// Quantized weights for a model, indexed by [`ParamId`].
///
/// Only parameters present in the set are served through the quantized
/// kernel; everything else (biases, any parameter left out of
/// calibration) runs in f32.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantParamSet {
    entries: Vec<Option<QuantMatrix>>,
}

impl QuantParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the quantized value of parameter `id`.
    pub fn insert(&mut self, id: ParamId, q: QuantMatrix) {
        let idx = id.index();
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        self.entries[idx] = Some(q);
    }

    /// The quantized value of `id`, if it was calibrated.
    pub fn get(&self, id: ParamId) -> Option<&QuantMatrix> {
        self.entries.get(id.index()).and_then(|e| e.as_ref())
    }

    /// Number of quantized parameters in the set.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Whether no parameter is quantized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(param_index, quantized_value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &QuantMatrix)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|q| (i, q)))
    }
}

/// FMA microkernel: `MRQ` activation rows against one `NRQ`-lane panel.
///
/// Kept out-of-line so its codegen (register-resident accumulators, packed
/// `vfmadd`) is independent of the caller.
#[inline(never)]
fn micro_mrq(rows: [&[f32]; MRQ], panel: &[Line], out: &mut [[f32; NRQ]; MRQ]) {
    let mut acc = [[0f32; NRQ]; MRQ];
    for (kk, bk) in panel.chunks_exact(LINES).enumerate() {
        for r in 0..MRQ {
            let a = rows[r][kk];
            for (h, line) in bk.iter().enumerate() {
                for j in 0..16 {
                    acc[r][h * 16 + j] = a.mul_add(line.0[j], acc[r][h * 16 + j]);
                }
            }
        }
    }
    *out = acc;
}

/// FMA microkernel for a single activation row (row-tail case).
#[inline(never)]
fn micro_1q(row: &[f32], panel: &[Line], out: &mut [f32; NRQ]) {
    let mut acc = [0f32; NRQ];
    for (kk, bk) in panel.chunks_exact(LINES).enumerate() {
        let a = row[kk];
        for (h, line) in bk.iter().enumerate() {
            for j in 0..16 {
                acc[h * 16 + j] = a.mul_add(line.0[j], acc[h * 16 + j]);
            }
        }
    }
    *out = acc;
}

/// Writes one accumulator panel into an output row, applying the fused
/// bias + activation epilogue and discarding zero-padded tail lanes.
#[inline]
fn store_panel(
    acc: &[f32; NRQ],
    out_row: &mut [f32],
    j0: usize,
    bias: Option<&[f32]>,
    act: Activation,
) {
    let valid = (out_row.len() - j0).min(NRQ);
    let dst = &mut out_row[j0..j0 + valid];
    match (bias, act) {
        (None, Activation::None) => dst.copy_from_slice(&acc[..valid]),
        (bs, act) => {
            let bs = bs.unwrap_or(&[]);
            for (jj, (o, &a)) in dst.iter_mut().zip(acc.iter()).enumerate() {
                let mut v = a + bs.get(j0 + jj).copied().unwrap_or(0.0);
                if act == Activation::Relu {
                    v = v.max(0.0);
                }
                *o = v;
            }
        }
    }
}

/// Quantized linear layer: `act(x * dequant(w) + bias)` through the FMA
/// panel kernel.
///
/// # Panics
///
/// Panics if `x.cols() != w.rows()` or `bias.len() != w.cols()`.
pub fn linear(x: &Matrix, w: &QuantMatrix, bias: Option<&[f32]>, act: Activation) -> Matrix {
    assert_eq!(
        x.cols(),
        w.rows(),
        "quant linear shape mismatch: {:?} * ({}, {})",
        x.shape(),
        w.rows(),
        w.cols()
    );
    if let Some(bs) = bias {
        assert_eq!(bs.len(), w.cols(), "quant linear bias length mismatch");
    }
    let started = std::time::Instant::now();
    let (m, k, n) = (x.rows(), x.cols(), w.cols());
    let npanels = n.div_ceil(NRQ);
    let mut out = crate::arena::zeros(m, n);
    let mut acc = [[0f32; NRQ]; MRQ];
    let mut i = 0;
    while i + MRQ <= m {
        let rows = [x.row(i), x.row(i + 1), x.row(i + 2), x.row(i + 3)];
        for p in 0..npanels {
            let panel = &w.packed[p * k * LINES..(p + 1) * k * LINES];
            micro_mrq(rows, panel, &mut acc);
            for (r, a) in acc.iter().enumerate() {
                store_panel(a, out.row_mut(i + r), p * NRQ, bias, act);
            }
        }
        i += MRQ;
    }
    while i < m {
        for p in 0..npanels {
            let panel = &w.packed[p * k * LINES..(p + 1) * k * LINES];
            micro_1q(x.row(i), panel, &mut acc[0]);
            store_panel(&acc[0], out.row_mut(i), p * NRQ, bias, act);
        }
        i += 1;
    }
    gdse_obs::metrics::counter_add(
        "infer.quant_us",
        started.elapsed().as_micros() as u64,
    );
    gdse_obs::metrics::counter_inc("infer.quant_calls");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Matrix::from_fn(rows, cols, |_, _| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            ((x >> 40) as f32 / (1u64 << 22) as f32) - 2.0
        })
    }

    #[test]
    fn round_trip_error_is_within_half_step() {
        let m = pseudo(6, 9, 11);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        // Each element is off by at most half a quantization step.
        let bound = q.scale() * 0.5 + 1e-6;
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn all_zero_matrix_survives() {
        let m = Matrix::zeros(3, 3);
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn packed_kernel_matches_dequantized_matmul() {
        // The panel kernel computes x * dequant(w); against the reference
        // kernel on the dequantized weights only summation order and FMA
        // contraction differ, so results agree to float-accumulation noise:
        // odd/even k, panel-boundary and sub-panel n, row-block tails.
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 5),
            (5, 7, 32),
            (4, 124, 33),
            (3, 16, 70),
            (9, 31, 100),
            (6, 2, 64),
            (8, 0, 4),
        ] {
            let x = pseudo(m, k, (m * 1000 + k * 10 + n) as u64);
            let wf = pseudo(k, n, (m * 7 + k * 3 + n) as u64);
            let qw = QuantMatrix::quantize(&wf);
            let fast = linear(&x, &qw, None, Activation::None);
            let slow = x.matmul_reference(&qw.dequantize());
            for i in 0..m {
                for j in 0..n {
                    let (a, b) = (fast.get(i, j), slow.get(i, j));
                    let tol = 1e-5 * (1.0 + a.abs().max(b.abs())) * (1 + k) as f32;
                    assert!((a - b).abs() <= tol, "({m},{k},{n})@({i},{j}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn linear_tracks_f32_within_analytic_bound() {
        let x = pseudo(5, 16, 21);
        let wf = pseudo(16, 8, 22);
        let qw = QuantMatrix::quantize(&wf);
        let y_q = linear(&x, &qw, None, Activation::None);
        let y_f = x.matmul(&wf);
        // Weight-only quantization: |x.w - x.dequant(w)| <= sum_k |x|*sw/2.
        for i in 0..x.rows() {
            for j in 0..wf.cols() {
                let mut bound = 0.0f32;
                for kk in 0..x.cols() {
                    bound += x.get(i, kk).abs() * qw.scale() * 0.5;
                }
                let err = (y_q.get(i, j) - y_f.get(i, j)).abs();
                assert!(
                    err <= bound * 1.5 + 1e-5,
                    "({i},{j}): err {err} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn bias_and_relu_epilogue_applied() {
        let x = pseudo(2, 4, 31);
        let wf = pseudo(4, 3, 32);
        let qw = QuantMatrix::quantize(&wf);
        let bias = [10.0, -100.0, 0.5];
        let y = linear(&x, &qw, Some(&bias), Activation::Relu);
        let plain = linear(&x, &qw, None, Activation::None);
        for i in 0..2 {
            for (j, &b) in bias.iter().enumerate() {
                let expect = (plain.get(i, j) + b).max(0.0);
                assert!((y.get(i, j) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn zero_k_still_applies_epilogue() {
        let x = Matrix::zeros(3, 0);
        let qw = QuantMatrix::from_parts(0, 2, 1.0, vec![]);
        let bias = [2.5, -1.0];
        let y = linear(&x, &qw, Some(&bias), Activation::Relu);
        for i in 0..3 {
            assert_eq!(y.get(i, 0), 2.5);
            assert_eq!(y.get(i, 1), 0.0);
        }
    }

    #[test]
    fn from_parts_rebuilds_packed_panels() {
        // The persistence round trip (artifact codec) ships only
        // (rows, cols, scale, i8 data); from_parts must reconstruct the
        // exact packed panels quantize() built.
        let wf = pseudo(9, 70, 51);
        let qw = QuantMatrix::quantize(&wf);
        let back =
            QuantMatrix::from_parts(qw.rows(), qw.cols(), qw.scale(), qw.data().to_vec());
        assert_eq!(back, qw);
        assert_eq!(back.packed, qw.packed);
        // And the rebuilt copy computes bitwise-identical results.
        let x = pseudo(3, 9, 52);
        let a = linear(&x, &qw, None, Activation::None);
        let b = linear(&x, &back, None, Activation::None);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn param_set_insert_get() {
        let mut store = crate::ParamStore::new(3);
        let a = store.add("a", 4, 4, crate::Init::XavierUniform);
        let b = store.add("b", 1, 4, crate::Init::Zeros);
        let mut qs = QuantParamSet::new();
        qs.insert(a, QuantMatrix::quantize(store.value(a)));
        assert_eq!(qs.len(), 1);
        assert!(qs.get(a).is_some());
        assert!(qs.get(b).is_none());
        assert_eq!(qs.iter().count(), 1);
    }

    #[test]
    fn books_quant_counters() {
        let before = gdse_obs::metrics::counter_value("infer.quant_calls");
        let x = pseudo(2, 4, 41);
        let qw = QuantMatrix::quantize(&pseudo(4, 4, 42));
        let _ = linear(&x, &qw, None, Activation::None);
        assert_eq!(
            gdse_obs::metrics::counter_value("infer.quant_calls"),
            before + 1
        );
    }
}
