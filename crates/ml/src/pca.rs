//! Principal component analysis (SystemDS `pca`).
//!
//! Non-iterative: the covariance is assembled from a federated `tsmm`
//! (`XᵀX`) and federated column means, the eigen decomposition runs at the
//! coordinator (`cols x cols` is aggregate-sized, O(d³) tridiagonal QL),
//! and the projection is another federated matrix multiplication — "with
//! large number of rows, the two matrix multiplications dominate the
//! runtime" (paper §6.2). Nothing else touches `n x d` cells: centring is
//! folded into the covariance (`XᵀX - n μᵀμ`) and into the projection
//! (`X V - μ V`).

use exdra_core::{Result, Tensor};
use exdra_matrix::eigen::eigen_symmetric;
use exdra_matrix::kernels::elementwise::BinaryOp;
use exdra_matrix::kernels::matmul::matmul;
use exdra_matrix::DenseMatrix;

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct PcaModel {
    /// Column means used for centering (`1 x d`).
    pub means: DenseMatrix,
    /// Principal components as columns (`d x k`).
    pub components: DenseMatrix,
    /// Eigenvalues of the kept components, descending.
    pub eigenvalues: Vec<f64>,
    /// Fraction of total variance captured by the kept components.
    pub explained_variance: f64,
}

/// Fits PCA with `k` components on (possibly federated) data.
pub fn pca(x: &Tensor, k: usize) -> Result<PcaModel> {
    let n = x.rows();
    let d = x.cols();
    assert!(k >= 1 && k <= d, "1 <= k <= cols required");
    // Federated aggregates: XᵀX and column means.
    let gram = x.tsmm()?;
    let mu = x.col_means()?.to_local()?;
    // Cov = (XᵀX - n muᵀmu) / (n - 1)
    let mut cov = gram;
    let nf = n as f64;
    for i in 0..d {
        for j in 0..d {
            let v = (cov.get(i, j) - nf * mu.get(0, i) * mu.get(0, j)) / (nf - 1.0);
            cov.set(i, j, v);
        }
    }
    let eig = eigen_symmetric(&cov)?;
    let total: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();
    let kept: f64 = eig.values.iter().take(k).map(|v| v.max(0.0)).sum();
    let components = exdra_matrix::kernels::reorg::index(&eig.vectors, 0, d, 0, k)?;
    Ok(PcaModel {
        means: mu,
        components,
        eigenvalues: eig.values[..k].to_vec(),
        explained_variance: if total > 0.0 { kept / total } else { 0.0 },
    })
}

/// Projects (possibly federated) data onto the principal components:
/// `(X - mu) %*% V` computed as `X %*% V - (mu %*% V)` — one federated
/// matrix multiplication and a broadcast subtraction of a `1 x k` row on
/// the `n x k` result, so no centred `n x d` copy of `X` ever exists.
pub fn transform(x: &Tensor, model: &PcaModel) -> Result<Tensor> {
    let shift = matmul(&model.means, &model.components)?;
    x.matmul(&Tensor::Local(model.components.clone()))?
        .binary(BinaryOp::Sub, &Tensor::Local(shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_core::fed::FedMatrix;
    use exdra_core::testutil::mem_federation;
    use exdra_core::PrivacyLevel;
    use exdra_matrix::rng::{rand_matrix, randn_matrix};

    /// Data with strong variance along a planted direction.
    fn planted(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let dir = rand_matrix(1, d, -1.0, 1.0, seed);
        let coef = randn_matrix(n, 1, seed + 1);
        let noise = randn_matrix(n, d, seed + 2);
        let mut x = matmul(&coef, &dir).unwrap();
        for (xv, nv) in x.values_mut().iter_mut().zip(noise.values()) {
            *xv = 5.0 * *xv + 0.1 * nv;
        }
        x
    }

    #[test]
    fn first_component_captures_planted_direction() {
        let x = planted(500, 6, 61);
        let model = pca(&Tensor::Local(x), 2).unwrap();
        assert!(model.explained_variance > 0.95);
        assert!(model.eigenvalues[0] > 10.0 * model.eigenvalues[1].max(1e-9));
    }

    #[test]
    fn federated_equals_local() {
        for (n, d, seed) in [(300, 5, 62), (301, 13, 65)] {
            federated_equals_local_on(planted(n, d, seed));
        }
    }

    /// Ragged `d = 13` puts partitions and `tsmm` blocks off every tile.
    fn federated_equals_local_on(x: DenseMatrix) {
        let local = pca(&Tensor::Local(x.clone()), 3).unwrap();
        let (ctx, _workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let fed_model = pca(&Tensor::Fed(fed.clone()), 3).unwrap();
        // Eigenvectors are sign-ambiguous: compare absolute values.
        let a = local.components.map(f64::abs);
        let b = fed_model.components.map(f64::abs);
        assert!(a.max_abs_diff(&b) < 1e-7, "diff {}", a.max_abs_diff(&b));
        // Projections agree up to sign per column.
        let pl = transform(&Tensor::Local(x), &local)
            .unwrap()
            .to_local()
            .unwrap();
        let pf = transform(&Tensor::Fed(fed), &fed_model)
            .unwrap()
            .to_local()
            .unwrap();
        assert!(pl.map(f64::abs).max_abs_diff(&pf.map(f64::abs)) < 1e-6);
    }

    #[test]
    fn projection_shape_and_centering() {
        let x = planted(200, 4, 63);
        let model = pca(&Tensor::Local(x.clone()), 2).unwrap();
        let p = transform(&Tensor::Local(x), &model)
            .unwrap()
            .to_local()
            .unwrap();
        assert_eq!(p.shape(), (200, 2));
        // Projected data is centered.
        for c in 0..2 {
            let mean: f64 = (0..200).map(|r| p.get(r, c)).sum::<f64>() / 200.0;
            assert!(mean.abs() < 1e-8, "column {c} mean {mean}");
        }
        // And it is the explicit `(X - mu) %*% V`, never materialised.
        let mut centered = planted(200, 4, 63);
        for r in 0..200 {
            for (v, m) in centered.row_mut(r).iter_mut().zip(model.means.values()) {
                *v -= m;
            }
        }
        let want = matmul(&centered, &model.components).unwrap();
        let scale = want.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(p.max_abs_diff(&want) <= 1e-9 * scale);
    }

    #[test]
    fn components_are_orthonormal() {
        let x = planted(150, 5, 64);
        let model = pca(&Tensor::Local(x), 3).unwrap();
        let vt = exdra_matrix::kernels::reorg::transpose(&model.components);
        let gram = matmul(&vt, &model.components).unwrap();
        assert!(gram.max_abs_diff(&DenseMatrix::identity(3)) < 1e-9);
    }
}
