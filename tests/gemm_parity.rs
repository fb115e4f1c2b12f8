//! The f32 products against the naive reference kernel, bit for bit: the
//! blocked GEMM on arbitrary shapes (including the zero-heavy inputs the
//! old kernel special-cased), the tape's zero-skipping product on one-hot
//! operands, and `gemm_tn`'s transpose-free weight gradients.

use gdse_tensor::gemm::gemm_tn;
use gdse_tensor::{Graph, Matrix};
use proptest::prelude::*;

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
}
