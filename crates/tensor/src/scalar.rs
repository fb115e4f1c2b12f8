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
    fn layer_norm_row_centres_and_scales() {
        let mut row = [1.0, 2.0, 3.0, 4.0];
        let istd = layer_norm_row(&mut row, 0.0);
        assert!((istd - 1.0 / 1.25f32.sqrt()).abs() < 1e-6);
        assert!(row.iter().sum::<f32>().abs() < 1e-6);
    }
}
