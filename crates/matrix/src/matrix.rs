//! Representation-polymorphic matrix wrapper.
//!
//! [`Matrix`] is what flows through worker symbol tables: values arrive
//! dense, and workers may transparently compact cached intermediates into
//! the compressed representation (see [`crate::compress`]).

use std::borrow::Cow;

use crate::compress::CompressedMatrix;
use crate::dense::DenseMatrix;

/// A matrix in one of the runtime's physical representations.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Row-major dense representation.
    Dense(DenseMatrix),
    /// Losslessly compressed column groups (cached intermediates).
    Compressed(CompressedMatrix),
}

impl Matrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows(),
            Matrix::Compressed(c) => c.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.cols(),
            Matrix::Compressed(c) => c.cols(),
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Number of non-zero cells.
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.nnz(),
            Matrix::Compressed(c) => c.decompress().nnz(),
        }
    }

    /// The dense representation, borrowed for `Dense` and decompressed for
    /// `Compressed`.
    pub fn dense(&self) -> Cow<'_, DenseMatrix> {
        match self {
            Matrix::Dense(d) => Cow::Borrowed(d),
            Matrix::Compressed(c) => Cow::Owned(c.decompress()),
        }
    }

    /// Materializes the dense representation (cloning for `Dense`).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(d) => d.clone(),
            Matrix::Compressed(c) => c.decompress(),
        }
    }

    /// Physical representation name (for explain output and stats).
    pub fn repr_name(&self) -> &'static str {
        match self {
            Matrix::Dense(_) => "dense",
            Matrix::Compressed(_) => "compressed",
        }
    }

    /// Estimated in-memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.size_bytes(),
            Matrix::Compressed(c) => c.size_bytes(),
        }
    }
}

impl From<DenseMatrix> for Matrix {
    fn from(d: DenseMatrix) -> Self {
        Matrix::Dense(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rand_matrix;

    #[test]
    fn size_reporting() {
        let d = rand_matrix(10, 10, 0.0, 1.0, 5);
        let m = Matrix::Dense(d);
        assert_eq!(m.size_bytes(), 800);
        assert_eq!(m.shape(), (10, 10));
    }
}
