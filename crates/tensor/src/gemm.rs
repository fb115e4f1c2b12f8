//! Cache-blocked, autovectorization-friendly dense GEMM.
//!
//! This is the single dense kernel behind [`Matrix::matmul`] and the fused
//! [`crate::Graph::linear`] op. It replaces the branchy i-k-j triple loop
//! (kept as [`Matrix::matmul_reference`], the parity tests' reference)
//! with the classic pack-and-tile scheme:
//!
//! - `B` is packed into `NR`-column-wide, k-major panels so the microkernel
//!   reads one contiguous `NR`-float row per `k` step (tail panels are
//!   zero-padded; the padded lanes are computed and discarded).
//! - The microkernel holds an `MR x NR` block of `C` in register
//!   accumulators, broadcasting `a[i][k]` against the panel row. There is no
//!   per-element zero test, so the inner loop is straight-line multiply-add
//!   code the compiler can vectorize.
//! - Row tails run a 1 x `NR` variant; small or skinny products fall back to
//!   a branchless scalar i-k-j loop that shares the epilogue.
//! - Matrix–vector products (`n == 1`: the TransformerConv gate, the
//!   attention pool's score layer, the heads' last layer) sum `MV_ROWS`
//!   rows at a time as independent add chains.
//! - [`gemm_tn`] computes the weight gradient `aᵀ · g` of the tape's
//!   products straight from `a`: the microkernel reads `a[kk][i0..i0 + MR]`
//!   for each `kk`, so `aᵀ` is never materialized.
//!
//! **Bit-identity contract:** every output element is accumulated over the
//! full `k` extent in increasing-`k` order, starting from +0.0, with
//! individual `f32` adds — the exact float-op sequence of the reference
//! kernel — so results are bit-identical to the pre-blocking implementation
//! for finite inputs. There is deliberately no k-splitting of the
//! accumulation and no FMA contraction. The fused bias+activation epilogue
//! applies after the full sum, matching the unfused
//! `matmul -> add_bias -> relu` chain exactly.
//!
//! Skipping a zero entry of `a` (the reference kernel's `a[i][k] == 0.0`
//! test, and the [`Nonzeros`] products over one-hot inputs) drops a `±0`
//! product. An accumulator that starts at +0.0 never becomes −0.0
//! under round-to-nearest (`x + y` is −0.0 only when both are −0.0), and
//! `s + ±0 == s` for every other `s`, so the skip cannot change a sum unless
//! the zero meets a non-finite `b` entry, which finite-weight models never
//! produce.
//!
//! Packing scratch and output buffers come from the thread-local
//! [`crate::arena`], so steady-state forward passes do not touch the global
//! allocator.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul
//! [`Matrix::matmul_reference`]: crate::Matrix::matmul_reference

use crate::arena;
use crate::matrix::Matrix;

/// Microkernel tile width (output columns per packed panel).
///
/// 16 f32 lanes = one AVX-512 register or two AVX2 registers per panel row —
/// wide enough to saturate either vector unit from straight-line code.
pub const NR: usize = 16;
/// Microkernel tile height (output rows per register block).
pub const MR: usize = 4;
/// Square tile edge shared by the blocked transpose and panel packing.
pub const TILE: usize = 32;
/// Rows the matrix–vector path sums at once, one add chain each.
const MV_ROWS: usize = 8;

/// Epilogue applied element-wise after the full-`k` accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity: `y = acc (+ bias)`.
    None,
    /// Rectified linear unit: `y = max(acc (+ bias), 0)`.
    Relu,
}

#[inline]
fn apply_epilogue(v: f32, bias: f32, act: Activation) -> f32 {
    let v = v + bias;
    match act {
        Activation::None => v,
        Activation::Relu => v.max(0.0),
    }
}

/// Matrix product `a * b` through the blocked kernel.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    gemm_bias_act(a, b, None, Activation::None)
}

/// Fused `act(a * b + bias)`.
///
/// `bias`, when present, must have one entry per output column and is added
/// after the full-`k` sum, followed by the activation — the same float-op
/// sequence as the unfused `matmul` / `add_bias` / `relu` chain.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `bias.len() != b.cols()`.
pub fn gemm_bias_act(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f32]>,
    act: Activation,
) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm shape mismatch: {:?} * {:?}",
        a.shape(),
        b.shape()
    );
    if let Some(bs) = bias {
        assert_eq!(bs.len(), b.cols(), "gemm bias length mismatch");
    }
    let started = std::time::Instant::now();
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = arena::zeros(m, n);
    if m > 0 && n > 0 {
        // Packing pays for itself once enough rows reuse the panels; skinny
        // or tiny products take the branchless scalar path instead.
        if n == 1 {
            gemm_mv(a, b.as_slice(), bias, act, out.as_mut_slice());
        } else if packs(m, k, n) {
            gemm_packed(a, b, bias, act, &mut out);
        } else {
            gemm_scalar(a, b, bias, act, &mut out);
        }
    }
    gdse_obs::metrics::counter_add(
        "infer.gemm_us",
        started.elapsed().as_micros() as u64,
    );
    gdse_obs::metrics::counter_inc("infer.gemm_calls");
    out
}

/// Whether an `[m, k] · [k, n]` product is large enough for the packed path.
fn packs(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= 4 && k >= 4 && m * n * k >= 2048
}

/// The nonzero entries of a mostly-zero matrix, row by row: the one-hot
/// node and edge features, which the tape finds once when it records them.
///
/// Its products visit only these entries, in the order of the kernels they
/// replace, so they give those kernels' bits for finite inputs (see the
/// module docs): [`matmul`](Self::matmul) sums like
/// [`Matrix::matmul_reference`], and [`tn`](Self::tn) like [`gemm_tn`]. A
/// `-0.0` entry counts as zero, as the reference kernel's `== 0.0` test
/// counts it.
///
/// [`Matrix::matmul_reference`]: crate::Matrix::matmul_reference
#[derive(Debug, Clone, PartialEq)]
pub struct Nonzeros {
    rows: usize,
    cols: usize,
    /// Row `r`'s entries are `entries[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    /// `(column, value)`, in increasing column order within a row.
    entries: Vec<(usize, f32)>,
}

impl Nonzeros {
    /// The nonzeros of `a` when fewer than a quarter of its entries are
    /// nonzero; `None` otherwise.
    pub fn of(a: &Matrix) -> Option<Self> {
        let nonzero = a.as_slice().iter().filter(|&&v| v != 0.0).count();
        if nonzero * 4 >= a.len() {
            return None;
        }
        let mut offsets = Vec::with_capacity(a.rows() + 1);
        let mut entries = Vec::with_capacity(nonzero);
        offsets.push(0);
        for r in 0..a.rows() {
            let row = a.row(r).iter().enumerate();
            entries.extend(row.filter(|&(_, &v)| v != 0.0).map(|(c, &v)| (c, v)));
            offsets.push(entries.len());
        }
        Some(Self { rows: a.rows(), cols: a.cols(), offsets, entries })
    }

    /// Number of nonzero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every entry is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn row(&self, r: usize) -> &[(usize, f32)] {
        &self.entries[self.offsets[r]..self.offsets[r + 1]]
    }

    /// `a · b`, summed like [`Matrix::matmul_reference`]: each output row
    /// from +0.0 over the row's nonzeros in increasing `k`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    ///
    /// [`Matrix::matmul_reference`]: crate::Matrix::matmul_reference
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows(), "nonzero product shape mismatch");
        let mut out = arena::zeros(self.rows, b.cols());
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for &(kk, a_ik) in self.row(i) {
                for (o, &b_kj) in out_row.iter_mut().zip(b.row(kk)) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// `aᵀ · b` for `b: [a.rows(), n]`, the weight gradient of `a · w`:
    /// summed like [`gemm_tn`], each output element from +0.0 in increasing
    /// row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()`.
    pub fn tn(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows(), "nonzero weight-gradient shape mismatch");
        let mut out = arena::zeros(self.cols, b.cols());
        for kk in 0..self.rows {
            let b_row = b.row(kk);
            for &(i, a_ki) in self.row(kk) {
                for (o, &b_kj) in out.row_mut(i).iter_mut().zip(b_row) {
                    *o += a_ki * b_kj;
                }
            }
        }
        out
    }
}

/// Matrix–vector product `a · x` (`n == 1`). Each row is an in-order dot
/// product from +0.0; `MV_ROWS` rows run side by side so their add chains
/// overlap instead of waiting on one another.
fn gemm_mv(a: &Matrix, x: &[f32], bias: Option<&[f32]>, act: Activation, out: &mut [f32]) {
    let k = a.cols();
    if k > 0 {
        let blocks = a.as_slice().chunks_exact(MV_ROWS * k);
        let tail_rows = blocks.remainder().chunks_exact(k);
        let mut outs = out.chunks_exact_mut(MV_ROWS);
        for (rows, o) in blocks.zip(&mut outs) {
            let rows: [&[f32]; MV_ROWS] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
            let mut acc = [0.0f32; MV_ROWS];
            for (kk, &xk) in x.iter().enumerate() {
                for r in 0..MV_ROWS {
                    acc[r] += rows[r][kk] * xk;
                }
            }
            o.copy_from_slice(&acc);
        }
        for (row, o) in tail_rows.zip(outs.into_remainder()) {
            let mut acc = 0.0f32;
            for (&av, &xk) in row.iter().zip(x) {
                acc += av * xk;
            }
            *o = acc;
        }
    }
    if bias.is_some() || act != Activation::None {
        let b0 = bias.map_or(0.0, |bs| bs[0]);
        for o in out.iter_mut() {
            *o = apply_epilogue(*o, b0, act);
        }
    }
}

/// `aᵀ · b` for `a: [k, m]` and `b: [k, n]`, without materializing `aᵀ`:
/// the weight gradient of a product `a · w` whose output adjoint is `b`.
///
/// Same float-op sequence as `a.transpose().matmul(b)`: every output element
/// sums over `k` in increasing order from +0.0. Three paths, by shape:
///
/// - `n == 1`: an axpy of each row of `a` into the output column;
/// - products large enough to pack: `b` packs into `NR`-wide panels and the
///   `MR x NR` microkernel reads `a[kk][i0..i0 + MR]`, contiguous in `a`;
/// - otherwise the `k`-outer loop of the reference kernel.
///
/// The tape sends one-hot inputs to [`Nonzeros::tn`] instead.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "gemm_tn shape mismatch: {:?}ᵀ * {:?}",
        a.shape(),
        b.shape()
    );
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = arena::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    if n == 1 {
        let col = out.as_mut_slice();
        for (a_row, &bk) in a.as_slice().chunks_exact(m).zip(b.as_slice()) {
            for (o, &a_ki) in col.iter_mut().zip(a_row) {
                *o += a_ki * bk;
            }
        }
    } else if packs(m, k, n) {
        gemm_tn_packed(a, b, &mut out);
    } else {
        for kk in 0..k {
            let b_row = b.row(kk);
            for (i, &a_ki) in a.row(kk).iter().enumerate() {
                for (o, &b_kj) in out.row_mut(i).iter_mut().zip(b_row) {
                    *o += a_ki * b_kj;
                }
            }
        }
    }
    out
}

/// Packed path of [`gemm_tn`]: output rows `i0..i0 + MR` are columns
/// `i0..i0 + MR` of `a`, read in place one `a` row per step.
fn gemm_tn_packed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let npanels = n.div_ceil(NR);
    let mut packed = arena::take(npanels * k * NR);
    pack_b(b, &mut packed);

    let ad = a.as_slice();
    let full_blocks = m / MR;
    for blk in 0..full_blocks {
        let i0 = blk * MR;
        for p in 0..npanels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let steps = ad
                .chunks_exact(m)
                .map(|row| row[i0..i0 + MR].try_into().expect("MR columns"));
            let acc = micro_mr(panel, steps);
            store_block(out, &acc, i0, MR, p, n, None, Activation::None);
        }
    }
    for i in full_blocks * MR..m {
        for p in 0..npanels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let acc = micro_1(panel, ad.chunks_exact(m).map(|row| row[i]));
            store_row(out, &acc, i, p, n, None, Activation::None);
        }
    }
    arena::give(packed);
}

/// Branchless scalar i-k-j fallback (same accumulation order, same epilogue).
fn gemm_scalar(a: &Matrix, b: &Matrix, bias: Option<&[f32]>, act: Activation, out: &mut Matrix) {
    let (k, n) = (a.cols(), b.cols());
    let bd = b.as_slice();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (kk, &a_ik) in a_row.iter().enumerate() {
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
        if bias.is_some() || act != Activation::None {
            let bs = bias.unwrap_or(&[]);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = apply_epilogue(*o, bs.get(j).copied().unwrap_or(0.0), act);
            }
        }
        let _ = k;
    }
}

/// Packed panel + register-tiled main path.
fn gemm_packed(a: &Matrix, b: &Matrix, bias: Option<&[f32]>, act: Activation, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let npanels = n.div_ceil(NR);
    let mut packed = arena::take(npanels * k * NR);
    pack_b(b, &mut packed);

    let ad = a.as_slice();
    let full_blocks = m / MR;
    for blk in 0..full_blocks {
        let i0 = blk * MR;
        let rows: [&[f32]; MR] = [
            &ad[i0 * k..(i0 + 1) * k],
            &ad[(i0 + 1) * k..(i0 + 2) * k],
            &ad[(i0 + 2) * k..(i0 + 3) * k],
            &ad[(i0 + 3) * k..(i0 + 4) * k],
        ];
        for p in 0..npanels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let steps = rows[0].iter().zip(rows[1]).zip(rows[2]).zip(rows[3]);
            let acc = micro_mr(
                panel,
                steps.map(|(((&a0, &a1), &a2), &a3)| [a0, a1, a2, a3]),
            );
            store_block(out, &acc, i0, MR, p, n, bias, act);
        }
    }
    for i in full_blocks * MR..m {
        let row = &ad[i * k..(i + 1) * k];
        for p in 0..npanels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let acc = micro_1(panel, row.iter().copied());
            store_row(out, &acc, i, p, n, bias, act);
        }
    }
    arena::give(packed);
}

/// Packs `b` into `NR`-wide k-major panels (`panel[k * NR + jj] = b[k][p*NR + jj]`),
/// zero-padding tail columns. Shares the [`TILE`]-row blocking of
/// [`transpose_into`] so wide matrices stream `b`'s rows cache-tile by
/// cache-tile instead of one full sweep per panel.
fn pack_b(b: &Matrix, packed: &mut [f32]) {
    let (k, n) = (b.rows(), b.cols());
    let npanels = n.div_ceil(NR);
    let bd = b.as_slice();
    for k0 in (0..k).step_by(TILE) {
        let k1 = (k0 + TILE).min(k);
        for p in 0..npanels {
            let jb = p * NR;
            let w = NR.min(n - jb);
            let base = p * k * NR;
            for kk in k0..k1 {
                let src = &bd[kk * n + jb..kk * n + jb + w];
                packed[base + kk * NR..base + kk * NR + w].copy_from_slice(src);
            }
        }
    }
}

/// `MR x NR` register-tiled microkernel: full-`k`, in-order accumulation
/// over one packed panel. `steps` yields the block's `MR` left-operand
/// entries for each `k`, so the same kernel serves `a · b` (entries from
/// `MR` rows of `a`) and [`gemm_tn`] (`MR` adjacent entries of each row).
/// Feeding it an iterator instead of indexing keeps bounds checks out of
/// the loop.
#[inline(always)]
fn micro_mr(panel: &[f32], steps: impl Iterator<Item = [f32; MR]>) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (bp, av) in panel.chunks_exact(NR).zip(steps) {
        let bp: &[f32; NR] = bp.try_into().expect("panel rows are NR wide");
        for r in 0..MR {
            for j in 0..NR {
                acc[r][j] += av[r] * bp[j];
            }
        }
    }
    acc
}

/// `1 x NR` row-tail microkernel; `steps` yields the row's entry per `k`.
#[inline(always)]
fn micro_1(panel: &[f32], steps: impl Iterator<Item = f32>) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    for (bp, av) in panel.chunks_exact(NR).zip(steps) {
        let bp: &[f32; NR] = bp.try_into().expect("panel rows are NR wide");
        for j in 0..NR {
            acc[j] += av * bp[j];
        }
    }
    acc
}

#[allow(clippy::too_many_arguments)]
fn store_block(
    out: &mut Matrix,
    acc: &[[f32; NR]; MR],
    i0: usize,
    mr: usize,
    p: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
) {
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        store_row(out, acc_row, i0 + r, p, n, bias, act);
    }
}

fn store_row(
    out: &mut Matrix,
    acc: &[f32; NR],
    i: usize,
    p: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
) {
    let jb = p * NR;
    let w = NR.min(n - jb);
    let out_row = &mut out.as_mut_slice()[i * n + jb..i * n + jb + w];
    match (bias, act) {
        (None, Activation::None) => out_row.copy_from_slice(&acc[..w]),
        (bs, act) => {
            let bs = bs.unwrap_or(&[]);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = apply_epilogue(acc[j], bs.get(jb + j).copied().unwrap_or(0.0), act);
            }
        }
    }
}

/// Blocked out-of-place transpose: `dst[j * rows + i] = src[i * cols + j]`,
/// walked in [`TILE`] x [`TILE`] tiles so both the strided writes and the
/// contiguous reads stay within a cache-resident working set.
///
/// # Panics
///
/// Panics if the buffer lengths do not match `rows * cols`.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            let j1 = (j0 + TILE).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
        // SplitMix64-driven values in [-2, 2), deterministic per seed.
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
    fn matches_reference_bitwise_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (4, 8, 8),
            (5, 7, 9),
            (17, 33, 12),
            (64, 124, 64),
            (3, 0, 5),
            (4, 1, 8),
            (1, 64, 1),
            (40, 16, 3),
        ] {
            let a = pseudo(m, k, (m * 1000 + k * 10 + n) as u64);
            let b = pseudo(k, n, (n * 777 + k) as u64);
            let fast = gemm(&a, &b);
            let slow = a.matmul_reference(&b);
            assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "shape ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn zeros_in_a_do_not_change_result() {
        // The reference kernel skips zero entries of `a`; the blocked kernel
        // multiplies through. For finite inputs both round identically.
        let mut a = pseudo(9, 13, 3);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
            if i % 7 == 0 {
                *v = -0.0;
            }
        }
        let b = pseudo(13, 11, 4);
        let fast = gemm(&a, &b);
        let slow = a.matmul_reference(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused_chain_bitwise() {
        let a = pseudo(10, 24, 5);
        let b = pseudo(24, 17, 6);
        let bias = pseudo(1, 17, 7);
        let fused = gemm_bias_act(&a, &b, Some(bias.row(0)), Activation::Relu);
        let mut unfused = a.matmul(&b);
        for r in 0..unfused.rows() {
            for (x, bv) in unfused.row_mut(r).iter_mut().zip(bias.row(0)) {
                *x += bv;
            }
        }
        let unfused = unfused.map(|x| x.max(0.0));
        for (x, y) in fused.as_slice().iter().zip(unfused.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn k_zero_with_bias_still_applies_epilogue() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let bias = [1.0, -2.0, 3.0, -4.0];
        let y = gemm_bias_act(&a, &b, Some(&bias), Activation::Relu);
        assert_eq!(y.shape(), (3, 4));
        for r in 0..3 {
            assert_eq!(y.row(r), &[1.0, 0.0, 3.0, 0.0]);
        }
    }

    #[test]
    fn transpose_into_matches_naive() {
        for &(r, c) in &[(1, 1), (3, 5), (33, 64), (70, 31)] {
            let a = pseudo(r, c, (r * 31 + c) as u64);
            let mut dst = vec![0.0f32; r * c];
            transpose_into(a.as_slice(), r, c, &mut dst);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(dst[j * r + i], a.get(i, j));
                }
            }
        }
    }

    #[test]
    fn books_gemm_counters() {
        let before = gdse_obs::metrics::counter_value("infer.gemm_calls");
        let a = pseudo(8, 8, 1);
        let b = pseudo(8, 8, 2);
        let _ = gemm(&a, &b);
        assert_eq!(
            gdse_obs::metrics::counter_value("infer.gemm_calls"),
            before + 1
        );
    }
}
