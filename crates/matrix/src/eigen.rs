//! Numerical routines: symmetric eigen-decomposition (Householder
//! tridiagonalisation + implicit-shift QL) and a Cholesky solver.
//!
//! PCA in the paper computes "an Eigen decomposition of XᵀX"; LM's direct
//! solver (used when `ncol(X) <= 1024`) needs a symmetric positive-definite
//! solve. Both are implemented here without external numeric dependencies.
//!
//! The eigen solver is the EISPACK pair `tred2` + `tql2` (public domain,
//! via JAMA; what SystemDS reaches through commons-math): O(d³) with a
//! small constant and no sweep count, so the `d x d` aggregate never costs
//! as much as the `tsmm` that produced it (DESIGN.md §4 substitutions).

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::kernels::reorg::transpose;

/// Result of a symmetric eigen-decomposition: `values[i]` belongs to column
/// `i` of `vectors`, sorted by descending eigenvalue.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as matrix columns, aligned with `values`.
    pub vectors: DenseMatrix,
}

/// QL iterations allowed per eigenvalue before giving up (EISPACK's cap;
/// two or three are typical).
const MAX_QL_ITERATIONS: usize = 30;

/// Eigen-decomposition of a symmetric matrix (only the upper triangle is
/// read). A non-finite cell, an overflow, or an eigenvalue that does not
/// converge within `MAX_QL_ITERATIONS`, is a [`MatrixError::Numerical`].
pub fn eigen_symmetric(a: &DenseMatrix) -> Result<EigenDecomposition> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "eigen_symmetric",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    if let Some(bad) = a.values().iter().position(|v| !v.is_finite()) {
        return Err(MatrixError::Numerical {
            op: "eigen_symmetric",
            msg: format!("non-finite cell at ({}, {})", bad / n, bad % n),
        });
    }
    // Both phases work on the transposed transformation `vt`, whose row `c`
    // is column `c`: a symmetric input is its own transpose, every column
    // walk below is a contiguous one, and a QL rotation mixes two rows.
    let mut vt = a.clone();
    let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
    if n > 0 {
        tridiagonalize(vt.values_mut(), n, &mut d, &mut e);
    }
    if !implicit_ql(vt.values_mut(), n, &mut d, &mut e) || d.iter().any(|v| !v.is_finite()) {
        return Err(MatrixError::Numerical {
            op: "eigen_symmetric",
            msg: format!("no convergence in {MAX_QL_ITERATIONS} QL steps, or overflow"),
        });
    }
    // Sort by descending eigenvalue; row `c` of `vt` is eigenvector `c`.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[y].total_cmp(&d[x]));
    let sorted = order.iter().flat_map(|&c| vt.row(c)).copied().collect();
    Ok(EigenDecomposition {
        values: order.iter().map(|&c| d[c]).collect(),
        vectors: transpose(&DenseMatrix::new(n, n, sorted)?),
    })
}

/// Householder reduction of a symmetric `n x n` matrix to tridiagonal
/// form (EISPACK `tred2`, on columns stored as the rows of `vt`): on
/// return `d` holds the diagonal, `e[1..]` the sub-diagonal, and `vt` the
/// accumulated orthogonal transformation, transposed.
fn tridiagonalize(vt: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        // Row i left of the diagonal, scaled to avoid under/overflow.
        for (x, col) in d[..i].iter_mut().zip(vt.chunks_exact(n)) {
            *x = col[i];
        }
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            vt[i * n..][..i].fill(0.0);
        } else {
            // Generate the Householder vector, kept in column i.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            vt[i * n..][..i].copy_from_slice(&d[..i]);
            // Apply the similarity transformation to the remaining columns.
            e[..i].fill(0.0);
            for j in 0..i {
                let (f, col) = (d[j], &vt[j * n..][..i]);
                let mut g = e[j] + col[j] * f;
                for k in j + 1..i {
                    g += col[k] * d[k];
                    e[k] += col[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                for k in j..i {
                    vt[j * n + k] -= f * e[k] + g * d[k];
                }
            }
        }
        for col in vt.chunks_exact_mut(n).take(i) {
            col[i] = 0.0;
        }
        d[i] = h;
    }
    // Accumulate the transformations, moving the diagonal into `d` as
    // each `h` has been used.
    for i in 0..n - 1 {
        let (done, rest) = vt.split_at_mut((i + 1) * n);
        let (h, u) = (d[i + 1], &mut rest[..=i]);
        d[i] = std::mem::replace(&mut done[i * n + i], 1.0);
        if h != 0.0 {
            for col in done.chunks_exact_mut(n) {
                let g: f64 = u.iter().zip(&col[..=i]).map(|(a, b)| a * b).sum();
                for (x, a) in col.iter_mut().zip(u.iter()) {
                    *x -= g * (a / h);
                }
            }
        }
        u.fill(0.0);
    }
    d[n - 1] = std::mem::replace(&mut vt[n * n - 1], 1.0);
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` (EISPACK `tql2`),
/// rotating the rows of `vt` (the transposed transformation) along: on
/// return `d` holds the eigenvalues and row `c` of `vt` eigenvector `c`.
/// `false` when an eigenvalue exhausts [`MAX_QL_ITERATIONS`].
fn implicit_ql(vt: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) -> bool {
    e.rotate_left(1.min(n));
    let (mut f, mut tst1) = (0.0f64, 0.0f64);
    for l in 0..n {
        // Find a negligible sub-diagonal element; e[n - 1] == 0 ends the scan.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * tst1;
        let m = (l..n).find(|&m| e[m].abs() <= small).unwrap_or(n - 1);
        let mut iter = 0;
        while m > l && (iter == 0 || e[l].abs() > small) {
            iter += 1;
            if iter > MAX_QL_ITERATIONS {
                return false;
            }
            // Compute the implicit shift.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            f += h;
            // The implicit QL transformation.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                (c3, c2, s2) = (c2, c, s);
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // Accumulate the rotation into eigenvectors i and i + 1.
                let (lo, hi) = vt[i * n..(i + 2) * n].split_at_mut(n);
                for (a, b) in lo.iter_mut().zip(hi) {
                    let h = *b;
                    *b = s * *a + c * h;
                    *a = c * *a - s * h;
                }
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    true
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix; returns the lower factor.
pub fn cholesky(a: &DenseMatrix) -> Result<DenseMatrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "cholesky",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let mut l = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(MatrixError::Numerical {
                        op: "cholesky",
                        msg: format!("matrix not positive definite at pivot {i} ({sum})"),
                    });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
pub fn solve_spd(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    let l = cholesky(a)?;
    let n = a.rows();
    if b.rows() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "solve_spd",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let m = b.cols();
    // Forward substitution: L y = b.
    let mut y = DenseMatrix::zeros(n, m);
    for col in 0..m {
        for i in 0..n {
            let mut sum = b.get(i, col);
            for k in 0..i {
                sum -= l.get(i, k) * y.get(k, col);
            }
            y.set(i, col, sum / l.get(i, i));
        }
    }
    // Back substitution: Lᵀ x = y.
    let mut x = DenseMatrix::zeros(n, m);
    for col in 0..m {
        for i in (0..n).rev() {
            let mut sum = y.get(i, col);
            for k in (i + 1)..n {
                sum -= l.get(k, i) * x.get(k, col);
            }
            x.set(i, col, sum / l.get(i, i));
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::aggregates::{aggregate, AggDir, AggOp};
    use crate::kernels::matmul::{matmul, matmul_naive, tsmm};
    use crate::rng::rand_matrix;

    /// Random symmetric positive-definite matrix `XᵀX + n I`.
    fn spd(n: usize, seed: u64) -> DenseMatrix {
        let x = rand_matrix(n + 5, n, -1.0, 1.0, seed);
        let mut g = tsmm(&x, true).unwrap();
        for i in 0..n {
            let v = g.get(i, i);
            g.set(i, i, v + n as f64);
        }
        g
    }

    #[test]
    fn eigen_known_2x2() {
        let a = DenseMatrix::new(2, 2, vec![2., 1., 1., 2.]).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    /// `‖A V − V Λ‖∞ < 1e-9·‖A‖∞` and `‖VᵀV − I‖∞ < 1e-9`, descending.
    fn assert_decomposes(a: &DenseMatrix) {
        let n = a.rows();
        let e = eigen_symmetric(a).unwrap();
        let scale = a.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let av = matmul_naive(a, &e.vectors).unwrap();
        for r in 0..n {
            for c in 0..n {
                let resid = av.get(r, c) - e.vectors.get(r, c) * e.values[c];
                assert!(
                    resid.abs() <= 1e-9 * scale,
                    "residual {resid} at ({r}, {c})"
                );
            }
        }
        let vtv = matmul(&transpose(&e.vectors), &e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&DenseMatrix::identity(n)) < 1e-9);
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn eigen_decomposes_clustered_repeated_and_deficient_spectra() {
        // The benchmark's shape: covariance of 80 i.i.d. columns (80
        // eigenvalues clustered near 1/3) beside a 20-way one-hot block.
        let (rows, d) = (2_000, 100);
        let mut x = rand_matrix(rows, d, -1.0, 1.0, 47);
        for r in 0..rows {
            let hot = 80 + (x.get(r, 80).abs() * 20.0) as usize % 20;
            for c in 80..d {
                x.set(r, c, f64::from(u8::from(c == hot)));
            }
        }
        let mut cov = tsmm(&x, true).unwrap();
        let mu = aggregate(&x, AggOp::Mean, AggDir::Col).unwrap();
        let nf = rows as f64;
        for i in 0..d {
            for j in 0..d {
                let v = (cov.get(i, j) - nf * mu.get(0, i) * mu.get(0, j)) / (nf - 1.0);
                cov.set(i, j, v);
            }
        }
        assert_decomposes(&cov);
        for (n, seed) in [(8, 41), (10, 42), (12, 43)] {
            assert_decomposes(&spd(n, seed));
        }
        // Repeated eigenvalues, in a rotated basis and as a bare diagonal.
        let diag = |vals: &[f64]| {
            let mut m = DenseMatrix::zeros(vals.len(), vals.len());
            for (i, &v) in vals.iter().enumerate() {
                m.set(i, i, v);
            }
            m
        };
        let lambda = diag(&[2.0, 2.0, 1.0, 1.0, 0.0]);
        let q = eigen_symmetric(&spd(5, 48)).unwrap().vectors;
        let rotated = matmul(&matmul(&q, &lambda).unwrap(), &transpose(&q)).unwrap();
        assert_decomposes(&rotated);
        let e = eigen_symmetric(&rotated).unwrap();
        for (got, want) in e.values.iter().zip([2.0, 2.0, 1.0, 1.0, 0.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert_decomposes(&lambda);
        // Rank-deficient Gram (rank 5 of 12), identity, zero.
        let gram = tsmm(&rand_matrix(5, 12, -1.0, 1.0, 49), true).unwrap();
        assert_decomposes(&gram);
        let e = eigen_symmetric(&gram).unwrap();
        assert!(
            e.values[5..].iter().all(|v| v.abs() < 1e-12),
            "{:?}",
            e.values
        );
        assert_decomposes(&DenseMatrix::identity(100));
        assert_decomposes(&DenseMatrix::zeros(100, 100));
    }

    #[test]
    fn eigen_handles_degenerate_sizes_and_rejects_non_finite_input() {
        let e = eigen_symmetric(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty() && e.vectors.shape() == (0, 0));
        let e = eigen_symmetric(&DenseMatrix::new(1, 1, vec![-3.5]).unwrap()).unwrap();
        assert_eq!((e.values, e.vectors.get(0, 0)), (vec![-3.5], 1.0));
        assert!(eigen_symmetric(&DenseMatrix::zeros(2, 3)).is_err());
        // 1e200 is finite, but its products overflow inside the QL step.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            let mut a = spd(6, 50);
            a.set(2, 4, bad);
            let err = eigen_symmetric(&a).unwrap_err();
            assert!(
                matches!(
                    err,
                    MatrixError::Numerical {
                        op: "eigen_symmetric",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(9, 44);
        let l = cholesky(&a).unwrap();
        let llt = matmul_naive(&l, &transpose(&l)).unwrap();
        assert!(llt.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::new(2, 2, vec![1., 2., 2., 1.]).unwrap();
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn solve_spd_matches_direct() {
        let a = spd(7, 45);
        let xtrue = rand_matrix(7, 2, -1.0, 1.0, 46);
        let b = matmul_naive(&a, &xtrue).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.max_abs_diff(&xtrue) < 1e-8);
    }
}
