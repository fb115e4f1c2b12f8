//! The f32 products against the naive reference kernel, bit for bit: the
//! blocked GEMM on arbitrary shapes (including the zero-heavy inputs the
//! old kernel special-cased), the tape's products over a one-hot input's
//! nonzeros, and `gemm_tn`'s transpose-free weight gradients.

use gdse_tensor::gemm::{gemm_tn, Nonzeros};
use gdse_tensor::{Graph, Init, Matrix, ParamStore};
use proptest::prelude::*;

/// Like the one-hot node and edge features: about seven entries in eight
/// are zero, half of them `-0.0`, so the tape keeps their nonzeros and the
/// reference kernel skips the rest.
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
    /// old kernel skipped work. So are the tape's product over a one-hot
    /// input's nonzeros and `gemm_tn` against the transpose it replaces.
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

        // The tape's product on a one-hot-like input sums over its
        // nonzeros and still gives the blocked GEMM's bits.
        let sparse = one_hot_like(m, k, seed.wrapping_add(3));
        let mut g = Graph::new();
        let (xs, ws) = (g.input(sparse.clone()), g.input(b.clone()));
        let taped = g.matmul(xs, ws);
        let blocked = sparse.matmul(&b);
        for (x, y) in g.value(taped).as_slice().iter().zip(blocked.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // Weight gradients `aᵀ · b` for `a: [k, m]`, without the transpose,
        // against the zero-skipping reference: on dense and on one-hot-like
        // `a`.
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

/// Like the layer-0 node features (`cols` >= 13): a few one-hot entries per
/// row, some of them `-0.0` (which count as zero), every third row with no
/// nonzero, and the last column holding a raw option value instead of a 1
/// (column 123 of the node features).
fn node_features(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut z = seed | 1;
    let mut draw = move || {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        z
    };
    let mut m = Matrix::zeros(rows, cols);
    for r in (0..rows).filter(|r| r % 3 != 2) {
        for _ in 0..2 {
            let c = (draw() % (cols as u64 - 1)) as usize;
            m.set(r, c, if draw() % 4 == 0 { -0.0 } else { 1.0 });
        }
        if draw() % 2 == 0 {
            m.set(r, cols - 1, (draw() % 64) as f32 * 0.75 + 0.5);
        }
    }
    m
}

/// `rows x cols` with exactly the most nonzeros that stay under a quarter:
/// `(len - 1) / 4` entries of non-unit values, placed at random.
fn just_under_a_quarter(rows: usize, cols: usize, seed: u64) -> Matrix {
    let len = rows * cols;
    let mut m = Matrix::zeros(rows, cols);
    let mut z = seed | 1;
    let mut placed = 0;
    while placed < (len - 1) / 4 {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        let at = (z % len as u64) as usize;
        if m.as_slice()[at] == 0.0 {
            m.as_mut_slice()[at] = (z >> 40) as f32 / (1u64 << 22) as f32 - 1.9;
            placed += 1;
        }
    }
    m
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

/// The products over `a`'s nonzeros against the kernels they replace and
/// the zero-skipping reference, and the tape's product and weight gradient
/// on `a` as an input against the same.
fn check_nonzero_products(a: &Matrix, seed: u64) {
    let nz = Nonzeros::of(a).expect("fewer than a quarter nonzero");
    let nonzero = a.as_slice().iter().filter(|&&v| v != 0.0).count();
    assert_eq!(nz.len(), nonzero);
    let b = zero_salted(a.cols(), 9, seed);
    let g = zero_salted(a.rows(), 9, seed ^ 0xfeed);
    assert_bits_eq(&nz.matmul(&b), &a.matmul_reference(&b), "a · b against the reference");
    assert_bits_eq(&nz.matmul(&b), &a.matmul(&b), "a · b against the blocked GEMM");
    assert_bits_eq(&nz.tn(&g), &gemm_tn(a, &g), "aᵀ · g against gemm_tn");
    assert_bits_eq(&nz.tn(&g), &a.transpose().matmul_reference(&g), "aᵀ · g against the transpose");

    // On the tape: the product's value, and its weight gradient under an
    // MSE loss, `aᵀ · dy`.
    let mut store = ParamStore::new(seed);
    let w = store.add("w", a.cols(), 9, Init::Uniform(1.0));
    let mut tape = Graph::new();
    let (x, wv) = (tape.input(a.clone()), tape.param(&store, w));
    let y = tape.matmul(x, wv);
    assert_bits_eq(tape.value(y), &a.matmul_reference(store.value(w)), "the tape's product");
    let loss = tape.mse_loss(y, g.clone());
    let mut grads = store.zero_grads();
    tape.backward(loss, &mut grads);
    let n = g.len() as f32;
    let dy = tape.value(y).zip_map(&g, |p, t| 1.0 * 2.0 * (p - t) / n);
    assert_bits_eq(grads.grad(w), &gemm_tn(a, &dy), "the tape's weight gradient");
}

#[test]
fn nonzero_products_match_the_kernels_they_replace() {
    for (rows, cols, seed) in [(1, 13, 1), (7, 13, 2), (40, 124, 3), (33, 13, 4), (128, 124, 5)] {
        check_nonzero_products(&node_features(rows, cols, seed), seed);
    }
    for (rows, cols, seed) in [(1, 5, 6), (3, 7, 7), (17, 13, 8), (64, 124, 9)] {
        check_nonzero_products(&just_under_a_quarter(rows, cols, seed), seed);
    }
    // Nothing but a row of zeros.
    check_nonzero_products(&Matrix::zeros(1, 4), 10);
}

#[test]
fn a_quarter_nonzero_is_dense() {
    let mut a = just_under_a_quarter(8, 13, 12);
    let zero = a.as_slice().iter().position(|&v| v == 0.0).unwrap();
    a.as_mut_slice()[zero] = 0.5;
    assert_eq!(a.as_slice().iter().filter(|&&v| v != 0.0).count() * 4, a.len());
    assert!(Nonzeros::of(&a).is_none());
    assert!(Nonzeros::of(&just_under_a_quarter(8, 13, 12)).is_some());
}
