//! Scalar and row kernels shared by the tape ([`crate::Graph`]) and the
//! tape-free inference path in `gdse-gnn`.
//!
//! Both paths call these functions, so every activation, dot product and
//! normalization runs the same float ops in the same order whichever path
//! computes it. That is what keeps tape-free predictions bit-identical to
//! the tape's.

/// Logistic sigmoid, evaluated on the side of zero where `exp` cannot
/// overflow.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Exponential linear unit.
#[inline]
pub fn elu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * (x.exp() - 1.0)
    }
}

/// Leaky ReLU with negative slope `slope`.
#[inline]
pub fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        slope * x
    }
}

/// Dot product of two equal-length slices, summed left to right.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Softmax over one segment, in place: a running max by `>`, `exp(x - max)`
/// summed left to right from +0.0, then one division per entry. This is the
/// tape's segment softmax on the entries of one segment, in row order.
pub fn softmax_in_place(xs: &mut [f32]) {
    let mut max = f32::NEG_INFINITY;
    for &x in xs.iter() {
        if x > max {
            max = x;
        }
    }
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// The TransformerConv gate logit of one row, `[a | r | a - r] · w`: a GEMM
/// sum from +0.0 in increasing-`k` order, so `w` holds `3 * a.len()`
/// weights.
#[inline]
pub fn gate_logit(a: &[f32], r: &[f32], w: &[f32]) -> f32 {
    let d = a.len();
    let mut logit = 0.0f32;
    for (x, w) in a.iter().zip(&w[..d]) {
        logit += x * w;
    }
    for (x, w) in r.iter().zip(&w[d..2 * d]) {
        logit += x * w;
    }
    for ((x, y), w) in a.iter().zip(r).zip(&w[2 * d..]) {
        logit += (x - y) * w;
    }
    logit
}

/// The gated residual of one row, `r·β + a·(1 - β) + bias`, into `out`.
#[inline]
pub fn gated_row(out: &mut [f32], a: &[f32], r: &[f32], beta: f32, bias: &[f32]) {
    let inv_beta = 1.0 - beta;
    for (((o, &x), &y), &b) in out.iter_mut().zip(a).zip(r).zip(bias) {
        *o = y * beta + x * inv_beta + b;
    }
}

/// Normalizes `row` in place to zero mean and unit variance (`eps` keeps a
/// constant row finite) and returns the inverse standard deviation used.
pub fn layer_norm_row(row: &mut [f32], eps: f32) -> f32 {
    let d = row.len() as f32;
    let mean: f32 = row.iter().sum::<f32>() / d;
    let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / d;
    let istd = 1.0 / (var + eps).sqrt();
    for x in row.iter_mut() {
        *x = (*x - mean) * istd;
    }
    istd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_symmetric_and_finite_at_extremes() {
        assert_eq!(stable_sigmoid(0.0), 0.5);
        assert!((stable_sigmoid(2.0) + stable_sigmoid(-2.0) - 1.0).abs() < 1e-6);
        assert_eq!(stable_sigmoid(-1000.0), 0.0);
        assert_eq!(stable_sigmoid(1000.0), 1.0);
    }

    #[test]
    fn softmax_in_place_sums_to_one_and_survives_extremes() {
        let mut xs = [1000.0, 999.0, -1000.0];
        softmax_in_place(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        softmax_in_place(&mut []);
    }

    #[test]
    fn gated_row_blends_root_and_aggregate() {
        let (a, r) = ([1.0, 2.0], [3.0, -1.0]);
        // w picks a[0] - r[0] only: logit = (1 - 3) * 0.5.
        assert_eq!(gate_logit(&a, &r, &[0.0, 0.0, 0.0, 0.0, 0.5, 0.0]), -1.0);
        let mut out = [0.0; 2];
        gated_row(&mut out, &a, &r, 0.25, &[0.5, 0.0]);
        assert_eq!(out, [3.0 * 0.25 + 0.75 + 0.5, -0.25 + 1.5]);
    }

    #[test]
    fn layer_norm_row_centres_and_scales() {
        let mut row = [1.0, 2.0, 3.0, 4.0];
        let istd = layer_norm_row(&mut row, 0.0);
        assert!((istd - 1.0 / 1.25f32.sqrt()).abs() < 1e-6);
        assert!(row.iter().sum::<f32>().abs() < 1e-6);
    }
}
