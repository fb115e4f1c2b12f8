//! Dense row-major `f32` matrix.
//!
//! This is the single numeric container used throughout the GNN-DSE
//! reproduction: node-feature tables (`N x F`), weight matrices
//! (`F_in x F_out`), per-edge message blocks and `1 x 1` scalar losses are all
//! [`Matrix`] values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use gdse_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} (expected {cols})", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates an `n x 1` column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds (debug assertions give a clearer message).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {:?}", self.shape());
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {:?}", self.shape());
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to the entry at `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of all entries.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of all entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single entry of a `1 x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `1 x 1`.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar() on a {:?} matrix", self.shape());
        self.data[0]
    }

    /// Matrix product `self * rhs` through the blocked kernel in
    /// [`crate::gemm`].
    ///
    /// Bit-identical to [`Matrix::matmul_reference`] for finite inputs: both
    /// accumulate each output element over the full `k` extent in
    /// increasing-`k` order with individual `f32` adds.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        crate::gemm::gemm(self, rhs)
    }

    /// The pre-blocking scalar i-k-j kernel (with its per-element zero skip),
    /// kept as the parity baseline for tests. The skip also makes it the
    /// faster kernel for one-hot rows, such as the node features the
    /// tape-free inference path projects in layer 0. Like the GEMM, it
    /// takes its output buffer from the [`crate::arena`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = crate::arena::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Transposed copy (tile-blocked; see [`crate::gemm::TILE`]).
    pub fn transpose(&self) -> Matrix {
        let mut out = crate::arena::zeros(self.cols, self.rows);
        crate::gemm::transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combination of two same-shape matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// In-place multiply by a scalar.
    pub fn scale_in_place(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sets all entries to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest entry (negative infinity for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Concatenates matrices horizontally (same number of rows).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat requires at least one part");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            assert_eq!(p.rows, rows, "hcat row mismatch");
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[i * cols + offset..i * cols + offset + p.cols]
                    .copy_from_slice(p.row(i));
                offset += p.cols;
            }
        }
        out
    }

    /// Stacks matrices vertically (same number of columns).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vcat requires at least one part");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vcat column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Dot product of two rows (possibly from different matrices).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn row_dot(&self, r: usize, other: &Matrix, r_other: usize) -> f32 {
        assert_eq!(self.cols, other.cols, "row_dot column mismatch");
        crate::scalar::dot(self.row(r), other.row(r_other))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            writeln!(f, " [")?;
            for i in 0..self.rows {
                writeln!(f, "  {:?}", self.row(i))?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let h = Matrix::hcat(&[&a, &b]);
        assert_eq!(h, Matrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
        let v = Matrix::vcat(&[&b, &b]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), &[5.0, 6.0]);
    }

    #[test]
    fn scalar_extraction() {
        let m = Matrix::filled(1, 1, 7.5);
        assert_eq!(m.scalar(), 7.5);
    }

    #[test]
    #[should_panic(expected = "scalar()")]
    fn scalar_on_non_scalar_panics() {
        let _ = Matrix::zeros(2, 2).scalar();
    }

    #[test]
    fn map_and_zip_map() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::from_rows(&[&[3.0, 3.0]]);
        assert_eq!(a.zip_map(&b, |x, y| x + y), Matrix::from_rows(&[&[4.0, 1.0]]));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let g = Matrix::from_rows(&[&[2.0, 4.0]]);
        a.add_scaled(&g, 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert!((a.frobenius_norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn row_dot_across_matrices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]]);
        assert_eq!(a.row_dot(0, &b, 1), 11.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
