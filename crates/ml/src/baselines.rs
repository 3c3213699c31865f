//! Specialized single-algorithm baselines standing in for Scikit-learn and
//! TensorFlow in the Figure 7 comparison (see DESIGN.md §4).
//!
//! Figure 7's purpose is to ground the generic declarative system against
//! best-of-breed specialized implementations. These baselines therefore
//! skip the instruction/plan layer entirely: tight loops over raw slices,
//! algorithm-specific memory layouts, no dispatch — the same structural
//! advantage sklearn/TF have over SystemDS.

// Parallel-array index loops are intentional in the hot kernels below:
// iterator zips over 3+ arrays obscure the access pattern.
#![allow(clippy::needless_range_loop)]

use exdra_matrix::rng::rand_permutation;
use exdra_matrix::{DenseMatrix, MatrixError, Result};

/// Direct Lloyd K-Means over raw buffers (Scikit-learn stand-in).
/// Returns `(centroids, wcss, iterations)`.
pub fn kmeans_direct(
    x: &DenseMatrix,
    k: usize,
    max_iter: usize,
    seed: u64,
) -> Result<(DenseMatrix, f64, usize)> {
    let (n, d) = x.shape();
    if k == 0 || k > n {
        return Err(MatrixError::InvalidArgument {
            op: "kmeans_direct",
            msg: format!("k={k} out of range for n={n}"),
        });
    }
    let perm = rand_permutation(n, seed);
    let mut centroids = DenseMatrix::zeros(k, d);
    for c in 0..k {
        let r = perm.get(c, 0) as usize - 1;
        centroids.row_mut(c).copy_from_slice(x.row(r));
    }
    let mut assign = vec![0usize; n];
    let mut wcss = f64::INFINITY;
    let mut iterations = 0usize;
    for _ in 0..max_iter {
        // Assignment step with partial-distance early exit.
        let mut new_wcss = 0.0;
        for i in 0..n {
            let row = x.row(i);
            let mut best = f64::INFINITY;
            let mut best_c = 0usize;
            for c in 0..k {
                let crow = centroids.row(c);
                let mut dist = 0.0;
                for (a, b) in row.iter().zip(crow) {
                    dist += (a - b) * (a - b);
                    if dist >= best {
                        break;
                    }
                }
                if dist < best {
                    best = dist;
                    best_c = c;
                }
            }
            assign[i] = best_c;
            new_wcss += best;
        }
        // Update step.
        let mut sums = DenseMatrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assign[i];
            counts[c] += 1;
            let srow = sums.row_mut(c);
            for (s, &v) in srow.iter_mut().zip(x.row(i)) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                let crow = centroids.row_mut(c);
                for (cv, &sv) in crow.iter_mut().zip(sums.row(c)) {
                    *cv = sv * inv;
                }
            }
        }
        iterations += 1;
        if (wcss - new_wcss).abs() < 1e-9 * wcss.abs().max(1.0) {
            wcss = new_wcss;
            break;
        }
        wcss = new_wcss;
    }
    Ok((centroids, wcss, iterations))
}

/// Direct PCA via the covariance Gram matrix and its eigen-decomposition
/// (Scikit-learn stand-in). Returns `(components d x k, eigenvalues)`.
pub fn pca_direct(x: &DenseMatrix, k: usize) -> Result<(DenseMatrix, Vec<f64>)> {
    let (n, d) = x.shape();
    if k == 0 || k > d || n < 2 {
        return Err(MatrixError::InvalidArgument {
            op: "pca_direct",
            msg: format!("bad k={k} for {n}x{d}"),
        });
    }
    // Single fused pass: column means and Gram accumulation.
    let mut mean = vec![0.0; d];
    for i in 0..n {
        for (m, &v) in mean.iter_mut().zip(x.row(i)) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut cov = DenseMatrix::zeros(d, d);
    let mut centered = vec![0.0; d];
    for i in 0..n {
        for (c, (&v, &m)) in centered.iter_mut().zip(x.row(i).iter().zip(&mean)) {
            *c = v - m;
        }
        for a in 0..d {
            let ca = centered[a];
            if ca == 0.0 {
                continue;
            }
            let crow = cov.row_mut(a);
            for b in a..d {
                crow[b] += ca * centered[b];
            }
        }
    }
    for a in 0..d {
        for b in a..d {
            let v = cov.get(a, b) / (n as f64 - 1.0);
            cov.set(a, b, v);
            cov.set(b, a, v);
        }
    }
    let eig = exdra_matrix::eigen::eigen_symmetric(&cov)?;
    let comps = exdra_matrix::kernels::reorg::index(&eig.vectors, 0, d, 0, k)?;
    Ok((comps, eig.values[..k].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use exdra_core::Tensor;

    #[test]
    fn kmeans_direct_agrees_with_system_kmeans() {
        let (x, _) = synth::blobs(300, 4, 3, 0.3, 81);
        let (_, wcss_direct, _) = kmeans_direct(&x, 3, 25, 9).unwrap();
        let sys = crate::kmeans::kmeans(
            &Tensor::Local(x),
            &crate::kmeans::KMeansParams {
                k: 3,
                max_iter: 25,
                runs: 1,
                tol: 0.0,
                seed: 9,
            },
        )
        .unwrap();
        // Same init seed, same algorithm: same clustering quality.
        assert!(
            (wcss_direct - sys.wcss).abs() / sys.wcss < 1e-6,
            "direct {wcss_direct} vs system {}",
            sys.wcss
        );
    }

    #[test]
    fn pca_direct_agrees_with_system_pca() {
        let (x, _) = synth::blobs(200, 5, 2, 0.5, 82);
        let (comps, vals) = pca_direct(&x, 3).unwrap();
        let sys = crate::pca::pca(&Tensor::Local(x), 3).unwrap();
        assert!(
            comps
                .map(f64::abs)
                .max_abs_diff(&sys.components.map(f64::abs))
                < 1e-8
        );
        for (a, b) in vals.iter().zip(&sys.eigenvalues) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn kmeans_direct_input_validation() {
        let x = DenseMatrix::zeros(3, 2);
        assert!(kmeans_direct(&x, 0, 5, 1).is_err());
        assert!(kmeans_direct(&x, 4, 5, 1).is_err());
    }
}
