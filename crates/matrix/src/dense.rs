//! Row-major dense `f64` matrices.
//!
//! [`DenseMatrix`] is the workhorse value type of the local runtime: the
//! federated backend ships these between the coordinator and workers, and
//! every Table-1 kernel has a dense implementation in [`crate::kernels`].

use crate::error::{MatrixError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// Invariants: `data.len() == rows * cols`. Vectors are represented as
/// `n x 1` (column vector) or `1 x n` (row vector) matrices, matching the
/// SystemDS convention the paper's plans assume.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix from a row-major value buffer.
    ///
    /// Returns [`MatrixError::InvalidArgument`] when the buffer length does
    /// not equal `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidArgument {
                op: "DenseMatrix::new",
                msg: format!(
                    "buffer length {} does not match {}x{}",
                    data.len(),
                    rows,
                    cols
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a column vector `from, from+incr, ...` up to and including
    /// `to` (SystemDS `seq`).
    pub fn seq(from: f64, to: f64, incr: f64) -> Result<Self> {
        if incr == 0.0 {
            return Err(MatrixError::InvalidArgument {
                op: "seq",
                msg: "increment must be non-zero".into(),
            });
        }
        let n = (((to - from) / incr).floor().max(-1.0) as i64 + 1).max(0) as usize;
        let data: Vec<f64> = (0..n).map(|i| from + i as f64 * incr).collect();
        Ok(Self {
            rows: n,
            cols: 1,
            data,
        })
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

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when the matrix is a row or column vector.
    #[inline]
    pub fn is_vector(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }

    /// True when the matrix is `1 x 1`.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Underlying row-major buffer.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major buffer.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_values(self) -> Vec<f64> {
        self.data
    }

    /// Unchecked cell access (debug-asserted).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Unchecked cell assignment (debug-asserted).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Checked cell access.
    pub fn try_get(&self, r: usize, c: usize) -> Result<f64> {
        if r >= self.rows {
            return Err(MatrixError::IndexOutOfBounds {
                op: "get",
                index: r,
                bound: self.rows,
            });
        }
        if c >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                op: "get",
                index: c,
                bound: self.cols,
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The value of a `1 x 1` matrix.
    pub fn as_scalar(&self) -> Result<f64> {
        if self.is_scalar() {
            Ok(self.data[0])
        } else {
            Err(MatrixError::InvalidArgument {
                op: "as_scalar",
                msg: format!("matrix is {}x{}, not 1x1", self.rows, self.cols),
            })
        }
    }

    /// Number of non-zero cells.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of non-zero cells (1.0 for empty matrices).
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            1.0
        } else {
            self.nnz() as f64 / self.data.len() as f64
        }
    }

    /// Applies `f` to every cell, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every cell in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination with an equally-shaped matrix.
    pub fn zip(&self, other: &Self, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Self> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute element-wise difference to another matrix
    /// (`f64::INFINITY` on shape mismatch). Used pervasively by tests to
    /// compare federated against local results.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Reinterprets the buffer with a new shape of equal cell count
    /// (row-major `reshape`).
    pub fn reshape(&self, rows: usize, cols: usize) -> Result<Self> {
        if rows * cols != self.data.len() {
            return Err(MatrixError::DimensionMismatch {
                op: "reshape",
                lhs: self.shape(),
                rhs: (rows, cols),
            });
        }
        Ok(Self {
            rows,
            cols,
            data: self.data.clone(),
        })
    }

    /// Estimated in-memory size in bytes (buffer only).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DenseMatrix {}x{}", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { " ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_buffer_length() {
        assert!(DenseMatrix::new(2, 3, vec![0.0; 6]).is_ok());
        assert!(DenseMatrix::new(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = DenseMatrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn seq_inclusive_bounds() {
        let s = DenseMatrix::seq(1.0, 5.0, 2.0).unwrap();
        assert_eq!(s.values(), &[1.0, 3.0, 5.0]);
        let s = DenseMatrix::seq(1.0, 6.0, 2.0).unwrap();
        assert_eq!(s.values(), &[1.0, 3.0, 5.0]);
        let s = DenseMatrix::seq(5.0, 1.0, -2.0).unwrap();
        assert_eq!(s.values(), &[5.0, 3.0, 1.0]);
    }

    #[test]
    fn seq_empty_when_unreachable() {
        let s = DenseMatrix::seq(5.0, 1.0, 1.0).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn reshape_preserves_row_major_order() {
        let m = DenseMatrix::new(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = m.reshape(3, 2).unwrap();
        assert_eq!(r.row(0), &[1., 2.]);
        assert_eq!(r.row(2), &[5., 6.]);
        assert!(m.reshape(4, 2).is_err());
    }

    #[test]
    fn sparsity_counts_nonzeros() {
        let m = DenseMatrix::new(2, 2, vec![0., 1., 0., 2.]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert!((m.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(2, 3);
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
    }
}
