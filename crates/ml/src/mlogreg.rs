//! Multinomial (multi-class) logistic regression (SystemDS `multiLogReg`).
//!
//! Newton-CG in spirit: each outer iteration computes class probabilities
//! and a gradient; the inner conjugate-gradient loop solves the Newton
//! system, where "each inner iteration performs an `Xᵀ(w ⊙ (Xv))` on the
//! federated X" (paper §6.2) — the weighted `mmchain` instruction. We run
//! one CG solve per class block against the diagonal Fisher approximation,
//! all classes in lock-step, so each inner iteration is one `k`-column
//! `mmchain`: one sweep of X (one `MmChain` per partition on federated
//! data, one federated round) whatever the number of classes.

use exdra_core::{Result, Tensor};
use exdra_matrix::kernels::elementwise::BinaryOp;
use exdra_matrix::DenseMatrix;

use crate::synth::one_hot;

/// Hyperparameters for multinomial logistic regression.
#[derive(Debug, Clone, Copy)]
pub struct MLogRegParams {
    /// L2 regularization strength.
    pub lambda: f64,
    /// Maximum outer (Newton) iterations.
    pub max_outer: usize,
    /// Maximum inner (CG) iterations per class and outer step.
    pub max_inner: usize,
    /// Gradient-norm convergence tolerance.
    pub tol: f64,
}

impl Default for MLogRegParams {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            max_outer: 10,
            max_inner: 5,
            tol: 1e-6,
        }
    }
}

/// A fitted multinomial logistic regression model.
#[derive(Debug, Clone)]
pub struct MLogRegModel {
    /// Weights (`d x k`).
    pub weights: DenseMatrix,
    /// Number of classes.
    pub classes: usize,
    /// Outer iterations performed.
    pub iterations: usize,
}

/// Class probabilities `softmax(X W)`; stays federated for federated `x`.
fn probabilities(x: &Tensor, w: &DenseMatrix) -> Result<Tensor> {
    x.matmul(&Tensor::Local(w.clone()))?.softmax()
}

/// Trains multinomial logistic regression on (possibly federated) features
/// with local 1-based labels.
///
/// On federated `x` one outer iteration costs `1 + max_inner` request
/// rounds: the gradient, then one `mmchain` round per CG iteration for all
/// classes together, which each site answers with one sweep of its rows.
/// Probabilities, residuals and Fisher weights stay at the sites; only
/// `d x k` aggregates reach the coordinator.
pub fn mlogreg(
    x: &Tensor,
    y: &DenseMatrix,
    classes: usize,
    params: &MLogRegParams,
) -> Result<MLogRegModel> {
    fit(x, y, classes, params, newton_directions)
}

/// Solves `H_c s_c = g_c` for every class `c` (the columns of `g`), with
/// `H_c v = Xᵀ (q_c ⊙ (X v)) / n + lambda v` and the Fisher weights
/// `q = max(P ⊙ (1 - P), 1e-6)` of the probabilities `P` (second argument).
type Solver = fn(&Tensor, &Tensor, &DenseMatrix, &MLogRegParams) -> Result<DenseMatrix>;

fn fit(
    x: &Tensor,
    y: &DenseMatrix,
    classes: usize,
    params: &MLogRegParams,
    solve: Solver,
) -> Result<MLogRegModel> {
    let n = x.rows();
    let d = x.cols();
    assert_eq!(y.shape(), (n, 1), "labels must be n x 1, 1-based");
    let y1h = one_hot(y, classes);
    let mut w = DenseMatrix::zeros(d, classes);
    let mut iterations = 0usize;

    while iterations < params.max_outer {
        // P = softmax(X W) — federated when X is federated.
        let p = probabilities(x, &w)?;
        // Residual R = P - Y (co-partitioned with X when federated).
        let r = p.binary(BinaryOp::Sub, &Tensor::Local(y1h.clone()))?;
        // Gradient G = t(X) %*% R / n + lambda W — aligned federated
        // matmul of two co-partitioned matrices (paper §4.2).
        let mut g = x.t_matmul(&r)?.to_local()?;
        for (gv, wv) in g.values_mut().iter_mut().zip(w.values()) {
            *gv = *gv / n as f64 + params.lambda * wv;
        }
        let gnorm: f64 = g.values().iter().map(|v| v * v).sum::<f64>().sqrt();
        if gnorm < params.tol {
            break;
        }
        // Newton direction per class block via CG on the diagonal Fisher
        // approximation.
        let s = solve(x, &p, &g, params)?;
        for (wv, sv) in w.values_mut().iter_mut().zip(s.values()) {
            *wv -= sv;
        }
        iterations += 1;
    }
    Ok(MLogRegModel {
        weights: w,
        classes,
        iterations,
    })
}

/// The per-class CG solves run in lock-step: they are independent, so
/// iteration `t` of all of them shares one `Xᵀ(q ⊙ (X dir))` over the
/// `d x k` direction matrix, one pass over X for all `k` columns. Each class keeps its own `alpha`, `beta` and
/// `rr`, and a class whose `rr` fell below `1e-18` is frozen, exactly as
/// if it had been solved on its own (few iterations suffice for a
/// Newton-CG step). The weights are computed where `P` lives, so for
/// federated data no `n`-row object ever reaches the coordinator.
fn newton_directions(
    x: &Tensor,
    p: &Tensor,
    g: &DenseMatrix,
    params: &MLogRegParams,
) -> Result<DenseMatrix> {
    let q = p
        .binary(BinaryOp::Mul, &p.scalar_op(BinaryOp::Sub, 1.0, true)?)?
        .scalar_op(BinaryOp::Max, 1e-6, false)?;
    let (d, k) = g.shape();
    let n = x.rows() as f64;
    let col_dot = |a: &DenseMatrix, b: &DenseMatrix, c: usize| {
        (0..d).map(|j| a.get(j, c) * b.get(j, c)).sum()
    };
    let mut s = DenseMatrix::zeros(d, k);
    let mut resid = g.clone();
    let mut dir = g.clone();
    let mut rr: Vec<f64> = (0..k).map(|c| col_dot(&resid, &resid, c)).collect();
    for _ in 0..params.max_inner {
        if rr.iter().all(|&r| r < 1e-18) {
            break;
        }
        // Hd = Xᵀ (q ⊙ (X dir)) / n + lambda dir — weighted mmchain.
        let mut hd = x.mmchain_weighted(&dir, &q)?;
        for (c, rr) in rr.iter_mut().enumerate().filter(|(_, rr)| **rr >= 1e-18) {
            for j in 0..d {
                hd.set(j, c, hd.get(j, c) / n + params.lambda * dir.get(j, c));
            }
            let dh: f64 = col_dot(&dir, &hd, c);
            let alpha = *rr / dh.max(1e-300);
            for j in 0..d {
                s.set(j, c, s.get(j, c) + alpha * dir.get(j, c));
                resid.set(j, c, resid.get(j, c) - alpha * hd.get(j, c));
            }
            let rr_new: f64 = col_dot(&resid, &resid, c);
            let beta = rr_new / *rr;
            for j in 0..d {
                dir.set(j, c, resid.get(j, c) + beta * dir.get(j, c));
            }
            *rr = rr_new;
        }
    }
    Ok(s)
}

/// Predicts 1-based class labels.
pub fn predict(x: &Tensor, model: &MLogRegModel) -> Result<DenseMatrix> {
    let p = probabilities(x, &model.weights)?;
    p.row_index_max()?.to_local()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::accuracy;
    use crate::synth;
    use exdra_core::fed::FedMatrix;
    use exdra_core::testutil::mem_federation;
    use exdra_core::PrivacyLevel;
    use exdra_matrix::rng::rand_matrix;

    /// The solver as it was before the classes ran in lock-step, kept as
    /// the oracle: probabilities consolidated, one class at a time, one
    /// single-vector `mmchain` per class and CG iteration.
    fn one_class_at_a_time(
        x: &Tensor,
        p: &Tensor,
        g: &DenseMatrix,
        params: &MLogRegParams,
    ) -> Result<DenseMatrix> {
        let (d, classes) = g.shape();
        let n = x.rows();
        let pl = p.to_local()?;
        let mut out = DenseMatrix::zeros(d, classes);
        for c in 0..classes {
            let mut q = DenseMatrix::zeros(n, 1);
            for i in 0..n {
                let pc = pl.get(i, c);
                q.set(i, 0, (pc * (1.0 - pc)).max(1e-6));
            }
            let mut gc = DenseMatrix::zeros(d, 1);
            for j in 0..d {
                gc.set(j, 0, g.get(j, c));
            }
            let mut s = DenseMatrix::zeros(d, 1);
            let mut resid = gc.clone();
            let mut dir = resid.clone();
            let mut rr: f64 = resid.values().iter().map(|v| v * v).sum();
            for _ in 0..params.max_inner {
                if rr < 1e-18 {
                    break;
                }
                let mut hd = x.mmchain(&dir, Some(&q))?;
                for (hv, dv) in hd.values_mut().iter_mut().zip(dir.values()) {
                    *hv = *hv / n as f64 + params.lambda * dv;
                }
                let dh: f64 = dir
                    .values()
                    .iter()
                    .zip(hd.values())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let alpha = rr / dh.max(1e-300);
                for (sv, dv) in s.values_mut().iter_mut().zip(dir.values()) {
                    *sv += alpha * dv;
                }
                for (rv, hv) in resid.values_mut().iter_mut().zip(hd.values()) {
                    *rv -= alpha * hv;
                }
                let rr_new: f64 = resid.values().iter().map(|v| v * v).sum();
                let beta = rr_new / rr;
                for (dv, rv) in dir.values_mut().iter_mut().zip(resid.values()) {
                    *dv = rv + beta * *dv;
                }
                rr = rr_new;
            }
            for j in 0..d {
                out.set(j, c, s.get(j, 0));
            }
        }
        Ok(out)
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lock_step_equals_one_class_at_a_time_bitwise() {
        let (x, y) = synth::multi_class(500, 6, 4, 0.6, 45);
        let params = MLogRegParams::default();
        let x = Tensor::Local(x);
        let got = mlogreg(&x, &y, 4, &params).unwrap();
        let want = fit(&x, &y, 4, &params, one_class_at_a_time).unwrap();
        assert_eq!(got.iterations, want.iterations);
        assert_eq!(bits(&got.weights), bits(&want.weights));
    }

    #[test]
    fn a_class_that_stops_early_is_frozen_like_a_solo_solve() {
        let x = Tensor::Local(rand_matrix(200, 8, -1.0, 1.0, 46));
        let p = Tensor::Local(rand_matrix(200, 4, -1.0, 1.0, 47))
            .softmax()
            .unwrap();
        // Class 0 never starts (zero gradient), class 1 starts just above
        // the 1e-18 threshold and falls below it while 2 and 3 go on.
        let mut g = rand_matrix(8, 4, -1.0, 1.0, 48);
        for j in 0..8 {
            g.set(j, 0, 0.0);
            g.set(j, 1, g.get(j, 1) * 2e-9);
        }
        let params = MLogRegParams {
            max_inner: 3,
            ..MLogRegParams::default()
        };
        let got = newton_directions(&x, &p, &g, &params).unwrap();
        let want = one_class_at_a_time(&x, &p, &g, &params).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert!((0..8).all(|j| got.get(j, 0) == 0.0), "class 0 never moved");
        // Class 1 really did stop before the others: one more allowed
        // iteration changes their directions but not its own.
        let more = MLogRegParams {
            max_inner: 4,
            ..params
        };
        let longer = newton_directions(&x, &p, &g, &more).unwrap();
        assert!((0..8).all(|j| longer.get(j, 1).to_bits() == got.get(j, 1).to_bits()));
        assert!((0..8).any(|j| longer.get(j, 2).to_bits() != got.get(j, 2).to_bits()));
    }

    #[test]
    fn blobs_classified_accurately() {
        let (x, y) = synth::multi_class(600, 5, 3, 0.4, 41);
        let model = mlogreg(&Tensor::Local(x.clone()), &y, 3, &MLogRegParams::default()).unwrap();
        let pred = predict(&Tensor::Local(x), &model).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.95, "acc too low");
    }

    #[test]
    fn federated_equals_local() {
        let (x, y) = synth::multi_class(300, 4, 3, 0.5, 42);
        let params = MLogRegParams {
            max_outer: 4,
            ..MLogRegParams::default()
        };
        let local = mlogreg(&Tensor::Local(x.clone()), &y, 3, &params).unwrap();
        let (ctx, _workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let fed_model = mlogreg(&Tensor::Fed(fed), &y, 3, &params).unwrap();
        assert!(
            fed_model.weights.max_abs_diff(&local.weights) < 1e-7,
            "diff {}",
            fed_model.weights.max_abs_diff(&local.weights)
        );
    }

    #[test]
    fn trains_on_data_whose_probabilities_may_not_be_consolidated() {
        // Under an aggregate-only constraint the n x k probabilities
        // cannot come to the coordinator; the Fisher weights are computed
        // at the sites, so nothing of that size has to.
        let (x, y) = synth::multi_class(300, 4, 3, 0.5, 42);
        let params = MLogRegParams {
            max_outer: 3,
            ..MLogRegParams::default()
        };
        let local = mlogreg(&Tensor::Local(x.clone()), &y, 3, &params).unwrap();
        let (ctx, _workers) = mem_federation(3);
        let constraint = PrivacyLevel::PrivateAggregate { min_group: 10 };
        let fed = FedMatrix::scatter_rows(&ctx, &x, constraint).unwrap();
        assert!(fed.consolidate().is_err());
        let model = mlogreg(&Tensor::Fed(fed), &y, 3, &params).unwrap();
        assert!(model.weights.max_abs_diff(&local.weights) < 1e-7);
    }

    #[test]
    fn more_outer_iterations_do_not_hurt() {
        let (x, y) = synth::multi_class(400, 4, 4, 0.6, 43);
        let short = mlogreg(
            &Tensor::Local(x.clone()),
            &y,
            4,
            &MLogRegParams {
                max_outer: 1,
                ..MLogRegParams::default()
            },
        )
        .unwrap();
        let long = mlogreg(&Tensor::Local(x.clone()), &y, 4, &MLogRegParams::default()).unwrap();
        let acc_s = accuracy(&predict(&Tensor::Local(x.clone()), &short).unwrap(), &y).unwrap();
        let acc_l = accuracy(&predict(&Tensor::Local(x), &long).unwrap(), &y).unwrap();
        assert!(acc_l >= acc_s - 0.02, "long {acc_l} vs short {acc_s}");
    }

    #[test]
    fn probabilities_rows_sum_to_one() {
        let (x, y) = synth::multi_class(100, 3, 3, 0.5, 44);
        let model = mlogreg(&Tensor::Local(x.clone()), &y, 3, &MLogRegParams::default()).unwrap();
        let p = probabilities(&Tensor::Local(x), &model.weights)
            .unwrap()
            .to_local()
            .unwrap();
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }
}
