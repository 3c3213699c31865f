//! L2-regularized support vector machine (SystemDS `l2svm`).
//!
//! Nonlinear conjugate gradient on the squared-hinge objective with an
//! exact Newton line search — "two nested while loops, where each outer
//! iteration computes gradients, and the inner loop performs a line search
//! along the gradient" (paper §6.2). The federated matrix is touched only
//! by `X %*% s` (matrix-vector) and `t(X) %*% v` (vector-matrix) in the
//! outer loop; all inner-loop vector arithmetic is coordinator-local,
//! which is why the paper observes small federated overhead for L2SVM.

use exdra_core::{Result, Tensor};
use exdra_matrix::DenseMatrix;

/// Hyperparameters for L2SVM.
#[derive(Debug, Clone, Copy)]
pub struct L2SvmParams {
    /// L2 regularization strength.
    pub lambda: f64,
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Maximum inner line-search iterations.
    pub max_inner_iter: usize,
    /// Convergence tolerance on the relative objective decrease.
    pub tol: f64,
}

impl Default for L2SvmParams {
    fn default() -> Self {
        Self {
            lambda: 1e-2,
            max_iter: 50,
            max_inner_iter: 20,
            tol: 1e-9,
        }
    }
}

/// A fitted L2SVM model.
#[derive(Debug, Clone)]
pub struct L2SvmModel {
    /// Learned weights (`d x 1`).
    pub weights: DenseMatrix,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Final objective value.
    pub objective: f64,
}

fn dot(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    a.values()
        .iter()
        .zip(b.values())
        .map(|(&x, &y)| x * y)
        .sum()
}

/// Trains L2SVM on (possibly federated) features with local ±1 labels.
pub fn l2svm(x: &Tensor, y: &DenseMatrix, params: &L2SvmParams) -> Result<L2SvmModel> {
    let n = x.rows();
    let d = x.cols();
    assert_eq!(y.shape(), (n, 1), "labels must be n x 1 in {{-1, +1}}");

    let mut w = DenseMatrix::zeros(d, 1);
    // g_old = t(X) %*% y
    let mut g_old = x.t_matmul(&Tensor::Local(y.clone()))?.to_local()?;
    let mut s = g_old.clone();
    let mut xw = DenseMatrix::zeros(n, 1);
    let mut objective = f64::INFINITY;
    let mut iterations = 0usize;

    while iterations < params.max_iter {
        // Xd = X %*% s — the only federated access of the outer loop;
        // the result is a vector in the number of rows (paper §6.2).
        let xd = x.matmul(&Tensor::Local(s.clone()))?.to_local()?;
        let wd = params.lambda * dot(&w, &s);
        let dd = params.lambda * dot(&s, &s);

        // Exact Newton line search on step size.
        let mut step = 0.0f64;
        let mut inner = 0usize;
        loop {
            // out = 1 - y ⊙ (Xw + step Xd); sv = out > 0
            let mut g = wd + step * dd;
            let mut h = dd;
            for i in 0..n {
                let out = 1.0 - y.get(i, 0) * (xw.get(i, 0) + step * xd.get(i, 0));
                if out > 0.0 {
                    g -= out * y.get(i, 0) * xd.get(i, 0);
                    h += xd.get(i, 0) * xd.get(i, 0);
                }
            }
            if h <= 0.0 || (g * g / h) <= params.tol || inner >= params.max_inner_iter {
                break;
            }
            step -= g / h;
            inner += 1;
        }

        for (wv, sv) in w.values_mut().iter_mut().zip(s.values()) {
            *wv += step * sv;
        }
        for (xv, dv) in xw.values_mut().iter_mut().zip(xd.values()) {
            *xv += step * dv;
        }

        // Objective and new gradient from the hinge residuals.
        let mut out = DenseMatrix::zeros(n, 1);
        let mut obj = 0.5 * params.lambda * dot(&w, &w);
        for i in 0..n {
            let o = 1.0 - y.get(i, 0) * xw.get(i, 0);
            if o > 0.0 {
                out.set(i, 0, o * y.get(i, 0)); // out ⊙ y ⊙ sv, fused
                obj += 0.5 * o * o;
            }
        }
        iterations += 1;
        let rel_decrease = (objective - obj).abs() / obj.abs().max(1e-30);
        objective = obj;
        // Both exits before the gradient: the last iteration's would
        // cost a federated round that nothing reads.
        if rel_decrease < params.tol || iterations >= params.max_iter {
            break;
        }
        // g_new = t(X) %*% (out ⊙ y ⊙ sv) - lambda w
        let mut g_new = x.t_matmul(&Tensor::Local(out))?.to_local()?;
        for (gv, wv) in g_new.values_mut().iter_mut().zip(w.values()) {
            *gv -= params.lambda * wv;
        }
        // Fletcher–Reeves conjugate direction update.
        let beta = dot(&g_new, &g_new) / dot(&g_old, &g_old).max(1e-300);
        for (sv, gv) in s.values_mut().iter_mut().zip(g_new.values()) {
            *sv = gv + beta * *sv;
        }
        g_old = g_new;
    }
    Ok(L2SvmModel {
        weights: w,
        iterations,
        objective,
    })
}

/// Predicts ±1 labels.
pub fn predict(x: &Tensor, model: &L2SvmModel) -> Result<DenseMatrix> {
    let scores = x
        .matmul(&Tensor::Local(model.weights.clone()))?
        .to_local()?;
    Ok(scores.map(|v| if v >= 0.0 { 1.0 } else { -1.0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::accuracy;
    use crate::synth;
    use exdra_core::fed::FedMatrix;
    use exdra_core::testutil::mem_federation;
    use exdra_core::PrivacyLevel;

    #[test]
    fn separable_data_high_accuracy() {
        let (x, y) = synth::two_class(400, 6, 0.0, 31);
        let model = l2svm(&Tensor::Local(x.clone()), &y, &L2SvmParams::default()).unwrap();
        let pred = predict(&Tensor::Local(x), &model).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.97);
        assert!(model.iterations > 0);
    }

    #[test]
    fn noisy_data_still_learns() {
        let (x, y) = synth::two_class(500, 5, 0.1, 32);
        let model = l2svm(&Tensor::Local(x.clone()), &y, &L2SvmParams::default()).unwrap();
        let pred = predict(&Tensor::Local(x), &model).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.8);
    }

    #[test]
    fn federated_equals_local() {
        let (x, y) = synth::two_class(300, 6, 0.05, 33);
        let params = L2SvmParams::default();
        let local = l2svm(&Tensor::Local(x.clone()), &y, &params).unwrap();
        let (ctx, _workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let fed_model = l2svm(&Tensor::Fed(fed), &y, &params).unwrap();
        assert!(fed_model.weights.max_abs_diff(&local.weights) < 1e-8);
        assert_eq!(fed_model.iterations, local.iterations);
        assert!((fed_model.objective - local.objective).abs() < 1e-8);
    }

    #[test]
    fn objective_decreases_with_iterations() {
        let (x, y) = synth::two_class(300, 4, 0.05, 34);
        let short = l2svm(
            &Tensor::Local(x.clone()),
            &y,
            &L2SvmParams {
                max_iter: 1,
                ..L2SvmParams::default()
            },
        )
        .unwrap();
        let long = l2svm(
            &Tensor::Local(x),
            &y,
            &L2SvmParams {
                max_iter: 30,
                ..L2SvmParams::default()
            },
        )
        .unwrap();
        assert!(long.objective <= short.objective + 1e-12);
    }
}
