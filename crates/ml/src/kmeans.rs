//! K-Means clustering (SystemDS `kmeans`), the paper's Example 3.
//!
//! The inner loop is a verbatim transcription of the paper's DML snippet:
//! distances via `X %*% t(C)` (federated matrix-matrix), assignment via
//! `rowMins`/comparison (federated element-wise), and the new centroids via
//! `colSums(P)` and the *aligned* federated `t(P) %*% X` — the only values
//! that ever reach the coordinator are `k x d` and `1 x k` aggregates.

use exdra_core::{Result, Tensor};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::BinaryOp;
use exdra_matrix::kernels::reorg::transpose;
use exdra_matrix::DenseMatrix;

/// Hyperparameters for K-Means.
#[derive(Debug, Clone, Copy)]
pub struct KMeansParams {
    /// Number of centroids.
    pub k: usize,
    /// Maximum iterations per run.
    pub max_iter: usize,
    /// Number of independent runs (best WCSS wins).
    pub runs: usize,
    /// Relative WCSS-decrease tolerance for convergence.
    pub tol: f64,
    /// RNG seed for centroid initialization.
    pub seed: u64,
}

impl Default for KMeansParams {
    fn default() -> Self {
        Self {
            k: 5,
            max_iter: 25,
            runs: 1,
            tol: 1e-6,
            seed: 7,
        }
    }
}

/// A fitted K-Means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Centroids (`k x d`).
    pub centroids: DenseMatrix,
    /// Within-cluster sum of squares of the winning run.
    pub wcss: f64,
    /// Iterations of the winning run.
    pub iterations: usize,
}

/// Centroid initialization: k rows sampled without replacement when the
/// privacy constraint permits raw-row transfer, moment-jitter otherwise.
fn init_centroids(x: &Tensor, k: usize, seed: u64) -> Result<DenseMatrix> {
    crate::init::rows_or_moments(x, k, seed)
}

/// One Lloyd iteration following the paper's script. Returns the new
/// centroids and the current WCSS. `x2_sum` is the loop-invariant
/// `sum(X^2)` term of the WCSS, computed once per run.
fn lloyd_step(x: &Tensor, c: &DenseMatrix, x2_sum: f64) -> Result<(DenseMatrix, f64)> {
    let k = c.rows();
    // D = -2 * (X %*% t(C)) + t(rowSums(C ^ 2))
    let ct = transpose(c);
    let c2 =
        exdra_matrix::kernels::aggregates::aggregate(&c.map(|v| v * v), AggOp::Sum, AggDir::Row)?;
    let c2t = transpose(&c2);
    let xc = x.matmul(&Tensor::Local(ct))?;
    let d = xc
        .scalar_op(BinaryOp::Mul, -2.0, false)?
        .binary(BinaryOp::Add, &Tensor::Local(c2t))?;
    // P = (D <= rowMins(D)); P = P / rowSums(P)
    let mins = d.row_mins()?;
    let p = d.binary(BinaryOp::Le, &mins)?;
    let psum = p.row_sums()?;
    let p = p.binary(BinaryOp::Div, &psum)?;
    // WCSS = sum(P ⊙ D) + sum(X^2) (D omits the loop-invariant x² term).
    let pd = p.binary(BinaryOp::Mul, &d)?;
    let wcss = pd.sum()? + x2_sum;
    // P_denom = colSums(P); C_new = (t(P) %*% X) / t(P_denom)
    let pdenom = p.col_sums()?.to_local()?;
    let ptx = p.t_matmul(x)?.to_local()?;
    let mut c_new = ptx;
    for r in 0..k {
        let denom = pdenom.get(0, r);
        if denom > 0.0 {
            for j in 0..c_new.cols() {
                let v = c_new.get(r, j) / denom;
                c_new.set(r, j, v);
            }
        } else {
            // Empty cluster: keep the previous centroid.
            for j in 0..c_new.cols() {
                c_new.set(r, j, c.get(r, j));
            }
        }
    }
    Ok((c_new, wcss))
}

/// `sum(X^2)` as one aggregate: the same `v*v` terms in the same order as
/// summing a materialized `X^2`, without the n x d temporary (which a
/// federated `X` would bind and drop at every site).
fn sum_of_squares(x: &Tensor) -> Result<f64> {
    x.agg(AggOp::SumSq, AggDir::Full)?.scalar_value()
}

/// Trains K-Means on (possibly federated) data, running
/// [`KMeansParams::runs`] independent initializations and keeping the best.
pub fn kmeans(x: &Tensor, params: &KMeansParams) -> Result<KMeansModel> {
    let mut best: Option<KMeansModel> = None;
    let x2_sum = sum_of_squares(x)?;
    for run in 0..params.runs {
        let mut c = init_centroids(x, params.k, params.seed.wrapping_add(run as u64))?;
        let mut wcss = f64::INFINITY;
        let mut iterations = 0usize;
        while iterations < params.max_iter {
            let (c_new, w) = lloyd_step(x, &c, x2_sum)?;
            c = c_new;
            iterations += 1;
            if (wcss - w).abs() <= params.tol * wcss.abs().min(f64::MAX) {
                wcss = w;
                break;
            }
            wcss = w;
        }
        if best.as_ref().is_none_or(|b| wcss < b.wcss) {
            best = Some(KMeansModel {
                centroids: c,
                wcss,
                iterations,
            });
        }
    }
    Ok(best.expect("at least one run"))
}

/// Assigns each row its 1-based nearest-centroid index.
pub fn assign(x: &Tensor, model: &KMeansModel) -> Result<DenseMatrix> {
    let ct = transpose(&model.centroids);
    let c2 = exdra_matrix::kernels::aggregates::aggregate(
        &model.centroids.map(|v| v * v),
        AggOp::Sum,
        AggDir::Row,
    )?;
    let c2t = transpose(&c2);
    let d = x
        .matmul(&Tensor::Local(ct))?
        .scalar_op(BinaryOp::Mul, -2.0, false)?
        .binary(BinaryOp::Add, &Tensor::Local(c2t))?;
    // argmin = argmax of negated distances
    let neg = d.scalar_op(BinaryOp::Mul, -1.0, false)?;
    neg.row_index_max()?.to_local()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use exdra_core::fed::FedMatrix;
    use exdra_core::testutil::mem_federation;
    use exdra_core::PrivacyLevel;

    #[test]
    fn separates_well_spread_blobs() {
        let (x, truth) = synth::blobs(400, 4, 3, 0.2, 51);
        let model = kmeans(
            &Tensor::Local(x.clone()),
            &KMeansParams {
                k: 3,
                runs: 3,
                ..KMeansParams::default()
            },
        )
        .unwrap();
        let labels = assign(&Tensor::Local(x), &model).unwrap();
        // Cluster purity: each found cluster dominated by one true class.
        let mut counts = [[0usize; 4]; 4];
        for i in 0..labels.rows() {
            counts[labels.get(i, 0) as usize][truth.get(i, 0) as usize] += 1;
        }
        let pure: usize = counts
            .iter()
            .skip(1)
            .map(|row| row.iter().max().copied().unwrap_or(0))
            .sum();
        assert!(pure as f64 / labels.rows() as f64 > 0.95);
    }

    #[test]
    fn federated_equals_local() {
        let (x, _) = synth::blobs(240, 3, 4, 0.5, 52);
        let params = KMeansParams {
            k: 4,
            max_iter: 10,
            runs: 1,
            tol: 0.0,
            seed: 9,
        };
        let local = kmeans(&Tensor::Local(x.clone()), &params).unwrap();
        let (ctx, _workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let fed_model = kmeans(&Tensor::Fed(fed), &params).unwrap();
        assert!(
            fed_model.centroids.max_abs_diff(&local.centroids) < 1e-8,
            "diff {}",
            fed_model.centroids.max_abs_diff(&local.centroids)
        );
        assert!((fed_model.wcss - local.wcss).abs() < 1e-6);
    }

    #[test]
    fn sum_of_squares_has_the_bits_of_summing_a_materialized_square() {
        // Low-cardinality data, so the compressed form has real groups.
        let x = synth::blobs(90, 5, 3, 0.4, 55)
            .0
            .map(|v| (v * 4.0).round() / 4.0);
        let (ctx, _workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let local = Tensor::Local(x);
        for t in [local.compress(), Tensor::Fed(fed), local] {
            let materialized = t
                .unary(exdra_matrix::kernels::elementwise::UnaryOp::Square)
                .unwrap()
                .sum()
                .unwrap();
            let got = sum_of_squares(&t).unwrap();
            assert_eq!(got.to_bits(), materialized.to_bits());
        }
    }

    #[test]
    fn wcss_decreases_over_iterations() {
        let (x, _) = synth::blobs(300, 4, 5, 0.8, 53);
        let t = Tensor::Local(x);
        let x2 = sum_of_squares(&t).unwrap();
        let mut c = init_centroids(&t, 5, 1).unwrap();
        let (_, w1) = lloyd_step(&t, &c, x2).unwrap();
        let (c2, _) = lloyd_step(&t, &c, x2).unwrap();
        c = c2;
        let (_, w2) = lloyd_step(&t, &c, x2).unwrap();
        assert!(w2 <= w1 + 1e-9, "WCSS must not increase: {w1} -> {w2}");
    }

    #[test]
    fn multiple_runs_never_worse() {
        let (x, _) = synth::blobs(200, 3, 4, 1.0, 54);
        let one = kmeans(
            &Tensor::Local(x.clone()),
            &KMeansParams {
                k: 4,
                runs: 1,
                seed: 3,
                ..KMeansParams::default()
            },
        )
        .unwrap();
        let many = kmeans(
            &Tensor::Local(x),
            &KMeansParams {
                k: 4,
                runs: 5,
                seed: 3,
                ..KMeansParams::default()
            },
        )
        .unwrap();
        assert!(many.wcss <= one.wcss + 1e-9);
    }
}
