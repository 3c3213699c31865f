//! Reorganization kernels (Table 1 "Transform/Reorg" row): `t`, `rbind`,
//! `cbind`, `removeEmpty`, `replace`, matrix indexing, `diag`, `order`,
//! and permutation application (used by the federated train/test split's
//! selection-matrix-multiply).

use super::elementwise::{map_cells, InPlace};
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Cache-blocking tile edge for transpose.
const TILE: usize = 32;

/// Blocked transpose.
pub fn transpose(x: &DenseMatrix) -> DenseMatrix {
    let (r, c) = x.shape();
    let mut out = DenseMatrix::zeros(c, r);
    for rb in (0..r).step_by(TILE) {
        for cb in (0..c).step_by(TILE) {
            for i in rb..(rb + TILE).min(r) {
                for j in cb..(cb + TILE).min(c) {
                    out.set(j, i, x.get(i, j));
                }
            }
        }
    }
    out
}

/// Vertical concatenation (`rbind`).
pub fn rbind(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.cols() && !a.is_empty() && !b.is_empty() {
        return Err(MatrixError::DimensionMismatch {
            op: "rbind",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if a.is_empty() {
        return Ok(b.clone());
    }
    if b.is_empty() {
        return Ok(a.clone());
    }
    let mut data = Vec::with_capacity(a.len() + b.len());
    data.extend_from_slice(a.values());
    data.extend_from_slice(b.values());
    DenseMatrix::new(a.rows() + b.rows(), a.cols(), data)
}

/// Horizontal concatenation (`cbind`).
pub fn cbind(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != b.rows() && !a.is_empty() && !b.is_empty() {
        return Err(MatrixError::DimensionMismatch {
            op: "cbind",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if a.is_empty() {
        return Ok(b.clone());
    }
    if b.is_empty() {
        return Ok(a.clone());
    }
    let cols = a.cols() + b.cols();
    let mut data = Vec::with_capacity(a.rows() * cols);
    for r in 0..a.rows() {
        data.extend_from_slice(a.row(r));
        data.extend_from_slice(b.row(r));
    }
    DenseMatrix::new(a.rows(), cols, data)
}

/// Margin for [`remove_empty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Margin {
    /// Remove all-zero rows.
    Rows,
    /// Remove all-zero columns.
    Cols,
}

/// `removeEmpty`: drops all-zero rows or columns. An optional 0/1 `select`
/// vector overrides the emptiness test (a row/column is kept iff the
/// corresponding select entry is non-zero).
pub fn remove_empty(
    x: &DenseMatrix,
    margin: Margin,
    select: Option<&DenseMatrix>,
) -> Result<DenseMatrix> {
    let n = match margin {
        Margin::Rows => x.rows(),
        Margin::Cols => x.cols(),
    };
    if let Some(s) = select {
        if s.len() != n {
            return Err(MatrixError::DimensionMismatch {
                op: "removeEmpty",
                lhs: x.shape(),
                rhs: s.shape(),
            });
        }
    }
    let keep: Vec<usize> = (0..n)
        .filter(|&i| match select {
            Some(s) => s.values()[i] != 0.0,
            None => match margin {
                Margin::Rows => x.row(i).iter().any(|&v| v != 0.0),
                Margin::Cols => (0..x.rows()).any(|r| x.get(r, i) != 0.0),
            },
        })
        .collect();
    match margin {
        Margin::Rows => {
            let mut data = Vec::with_capacity(keep.len() * x.cols());
            for &r in &keep {
                data.extend_from_slice(x.row(r));
            }
            DenseMatrix::new(keep.len(), x.cols(), data)
        }
        Margin::Cols => {
            let mut out = DenseMatrix::zeros(x.rows(), keep.len());
            for r in 0..x.rows() {
                let row = x.row(r);
                let orow = out.row_mut(r);
                for (o, &c) in orow.iter_mut().zip(&keep) {
                    *o = row[c];
                }
            }
            Ok(out)
        }
    }
}

/// `replace(target, pattern, replacement)`; `pattern` may be NaN, which
/// matches NaN cells (the usual missing-value encoding in raw imports).
pub fn replace(x: &DenseMatrix, pattern: f64, replacement: f64) -> DenseMatrix {
    // Collected, not written into a zero-filled matrix: a cell this cheap
    // costs less than the zeroing of a reused heap chunk.
    x.map(replace_cell(pattern, replacement))
}

/// [`replace`] written over `x`'s own cells: the same rule per cell, so
/// the same bits.
pub fn replace_in_place(x: &mut DenseMatrix, pattern: f64, replacement: f64) {
    map_cells(x.values_mut(), InPlace, replace_cell(pattern, replacement));
}

/// The per-cell rule of [`replace`], which the column groups' `replace`
/// applies to their distinct values.
pub(crate) fn replace_cell(pattern: f64, replacement: f64) -> impl Fn(f64) -> f64 + Sync {
    let nan = pattern.is_nan();
    move |v| {
        if v == pattern || (nan && v.is_nan()) {
            replacement
        } else {
            v
        }
    }
}

/// Right matrix indexing `X[rl:ru, cl:cu]` with half-open 0-based ranges
/// (the runtime translates SystemDS' 1-based inclusive ranges).
pub fn index(
    x: &DenseMatrix,
    row_lo: usize,
    row_hi: usize,
    col_lo: usize,
    col_hi: usize,
) -> Result<DenseMatrix> {
    if row_lo > row_hi || row_hi > x.rows() {
        return Err(MatrixError::IndexOutOfBounds {
            op: "index",
            index: row_hi,
            bound: x.rows(),
        });
    }
    if col_lo > col_hi || col_hi > x.cols() {
        return Err(MatrixError::IndexOutOfBounds {
            op: "index",
            index: col_hi,
            bound: x.cols(),
        });
    }
    let rows = row_hi - row_lo;
    let cols = col_hi - col_lo;
    let mut data = Vec::with_capacity(rows * cols);
    for r in row_lo..row_hi {
        data.extend_from_slice(&x.row(r)[col_lo..col_hi]);
    }
    DenseMatrix::new(rows, cols, data)
}

/// Left matrix indexing `X[rl:ru, cl:cu] = Y`: returns a copy of `x` with
/// the given half-open region overwritten by `y`.
pub fn index_assign(
    x: &DenseMatrix,
    row_lo: usize,
    col_lo: usize,
    y: &DenseMatrix,
) -> Result<DenseMatrix> {
    if row_lo + y.rows() > x.rows() || col_lo + y.cols() > x.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "index_assign",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    let mut out = x.clone();
    for r in 0..y.rows() {
        let dst = &mut out.row_mut(row_lo + r)[col_lo..col_lo + y.cols()];
        dst.copy_from_slice(y.row(r));
    }
    Ok(out)
}

/// `diag`: for a vector input, builds the diagonal matrix; for a square
/// matrix input, extracts the diagonal as a column vector.
pub fn diag(x: &DenseMatrix) -> Result<DenseMatrix> {
    if x.cols() == 1 {
        let n = x.rows();
        let mut out = DenseMatrix::zeros(n, n);
        for i in 0..n {
            out.set(i, i, x.get(i, 0));
        }
        Ok(out)
    } else if x.rows() == x.cols() {
        let mut out = DenseMatrix::zeros(x.rows(), 1);
        for i in 0..x.rows() {
            out.set(i, 0, x.get(i, i));
        }
        Ok(out)
    } else {
        Err(MatrixError::InvalidArgument {
            op: "diag",
            msg: format!(
                "need vector or square matrix, got {}x{}",
                x.rows(),
                x.cols()
            ),
        })
    }
}

/// `order`: sorts rows of `x` by column `by` (0-based), ascending or
/// descending. When `index_return` is true, returns the 1-based permutation
/// instead of the reordered data. The sort is stable.
pub fn order(
    x: &DenseMatrix,
    by: usize,
    decreasing: bool,
    index_return: bool,
) -> Result<DenseMatrix> {
    if by >= x.cols() {
        return Err(MatrixError::IndexOutOfBounds {
            op: "order",
            index: by,
            bound: x.cols(),
        });
    }
    let mut perm: Vec<usize> = (0..x.rows()).collect();
    perm.sort_by(|&a, &b| {
        let va = x.get(a, by);
        let vb = x.get(b, by);
        let ord = va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
        if decreasing {
            ord.reverse()
        } else {
            ord
        }
    });
    if index_return {
        let data: Vec<f64> = perm.iter().map(|&p| (p + 1) as f64).collect();
        return DenseMatrix::new(x.rows(), 1, data);
    }
    let mut data = Vec::with_capacity(x.len());
    for &p in &perm {
        data.extend_from_slice(x.row(p));
    }
    DenseMatrix::new(x.rows(), x.cols(), data)
}

/// Gathers rows by a 1-based index vector (`X[idx, ]`), the dense equivalent
/// of multiplying by a selection matrix.
pub fn gather_rows(x: &DenseMatrix, idx: &DenseMatrix) -> Result<DenseMatrix> {
    if idx.cols() != 1 {
        return Err(MatrixError::InvalidArgument {
            op: "gather_rows",
            msg: "index must be a column vector".into(),
        });
    }
    let mut data = Vec::with_capacity(idx.rows() * x.cols());
    for i in 0..idx.rows() {
        let v = idx.get(i, 0);
        if v < 1.0 || v.fract() != 0.0 || v as usize > x.rows() {
            return Err(MatrixError::IndexOutOfBounds {
                op: "gather_rows",
                index: v as usize,
                bound: x.rows(),
            });
        }
        data.extend_from_slice(x.row(v as usize - 1));
    }
    DenseMatrix::new(idx.rows(), x.cols(), data)
}

/// Rows `lo..hi` of `x` taken in the order of the seeded permutation of
/// its rows ([`crate::rng::rand_permutation`]), in one gather. Two ranges
/// under one seed split the rows disjointly: `0..cut` and `cut..n` are
/// the train and test sides of the federated split.
pub fn shuffled_rows(x: &DenseMatrix, seed: u64, lo: usize, hi: usize) -> Result<DenseMatrix> {
    let perm = crate::rng::rand_permutation(x.rows(), seed);
    gather_rows(x, &index(&perm, lo, hi, 0, 1)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rand_matrix;

    #[test]
    fn transpose_involution() {
        let x = rand_matrix(17, 43, -1.0, 1.0, 31);
        let tt = transpose(&transpose(&x));
        assert!(tt.max_abs_diff(&x) < 1e-15);
        assert_eq!(transpose(&x).shape(), (43, 17));
    }

    #[test]
    fn rbind_cbind_roundtrip_with_index() {
        let a = rand_matrix(3, 4, 0.0, 1.0, 32);
        let b = rand_matrix(2, 4, 0.0, 1.0, 33);
        let ab = rbind(&a, &b).unwrap();
        assert_eq!(ab.shape(), (5, 4));
        assert!(index(&ab, 0, 3, 0, 4).unwrap().max_abs_diff(&a) < 1e-15);
        assert!(index(&ab, 3, 5, 0, 4).unwrap().max_abs_diff(&b) < 1e-15);

        let c = rand_matrix(3, 2, 0.0, 1.0, 34);
        let ac = cbind(&a, &c).unwrap();
        assert_eq!(ac.shape(), (3, 6));
        assert!(index(&ac, 0, 3, 4, 6).unwrap().max_abs_diff(&c) < 1e-15);
    }

    #[test]
    fn rbind_with_empty_operand() {
        let a = rand_matrix(3, 4, 0.0, 1.0, 35);
        let e = DenseMatrix::zeros(0, 0);
        assert!(rbind(&a, &e).unwrap().max_abs_diff(&a) < 1e-15);
        assert!(rbind(&e, &a).unwrap().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn remove_empty_rows_and_cols() {
        let x = DenseMatrix::new(3, 3, vec![1., 0., 0., 0., 0., 0., 2., 0., 3.]).unwrap();
        let rows = remove_empty(&x, Margin::Rows, None).unwrap();
        assert_eq!(rows.shape(), (2, 3));
        assert_eq!(rows.row(1), &[2., 0., 3.]);
        let cols = remove_empty(&x, Margin::Cols, None).unwrap();
        assert_eq!(cols.shape(), (3, 2));
    }

    #[test]
    fn remove_empty_with_select() {
        let x = DenseMatrix::new(3, 1, vec![1., 2., 3.]).unwrap();
        let sel = DenseMatrix::col_vector(&[1., 0., 1.]);
        let got = remove_empty(&x, Margin::Rows, Some(&sel)).unwrap();
        assert_eq!(got.values(), &[1., 3.]);
    }

    #[test]
    fn replace_handles_nan_pattern() {
        let x = DenseMatrix::new(1, 3, vec![1.0, f64::NAN, 3.0]).unwrap();
        let got = replace(&x, f64::NAN, 0.0);
        assert_eq!(got.values(), &[1., 0., 3.]);
        let got2 = replace(&x, 1.0, 9.0);
        assert_eq!(got2.values()[0], 9.0);
    }

    #[test]
    fn index_assign_overwrites_region() {
        let x = DenseMatrix::zeros(3, 3);
        let y = DenseMatrix::filled(2, 2, 7.0);
        let got = index_assign(&x, 1, 1, &y).unwrap();
        assert_eq!(got.get(0, 0), 0.0);
        assert_eq!(got.get(1, 1), 7.0);
        assert_eq!(got.get(2, 2), 7.0);
        assert!(index_assign(&x, 2, 2, &y).is_err());
    }

    #[test]
    fn diag_both_directions() {
        let v = DenseMatrix::col_vector(&[1., 2., 3.]);
        let d = diag(&v).unwrap();
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        let back = diag(&d).unwrap();
        assert_eq!(back.values(), v.values());
    }

    #[test]
    fn order_rows_and_indexes() {
        let x = DenseMatrix::new(3, 2, vec![3., 30., 1., 10., 2., 20.]).unwrap();
        let sorted = order(&x, 0, false, false).unwrap();
        assert_eq!(sorted.row(0), &[1., 10.]);
        assert_eq!(sorted.row(2), &[3., 30.]);
        let idx = order(&x, 0, true, true).unwrap();
        assert_eq!(idx.values(), &[1., 3., 2.]);
    }

    #[test]
    fn gather_rows_one_based() {
        let x = DenseMatrix::new(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let idx = DenseMatrix::col_vector(&[3., 1.]);
        let got = gather_rows(&x, &idx).unwrap();
        assert_eq!(got.row(0), &[5., 6.]);
        assert_eq!(got.row(1), &[1., 2.]);
        let bad = DenseMatrix::col_vector(&[4.]);
        assert!(gather_rows(&x, &bad).is_err());
    }
}
