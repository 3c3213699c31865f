//! Synthetic data generators for tests, examples, and the benchmark
//! harness (the paper itself evaluates on synthetic data resembling the
//! paper-production use case, §6.1).

use exdra_matrix::kernels::matmul::matmul;
use exdra_matrix::rng::{rand_matrix, randn_matrix};
use exdra_matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Regression data: `y = X beta + noise`. Returns `(X, y, beta)`.
pub fn regression(
    n: usize,
    d: usize,
    noise: f64,
    seed: u64,
) -> (DenseMatrix, DenseMatrix, DenseMatrix) {
    let x = rand_matrix(n, d, -1.0, 1.0, seed);
    let beta = rand_matrix(d, 1, -2.0, 2.0, seed.wrapping_add(1));
    let eps = randn_matrix(n, 1, seed.wrapping_add(2));
    let mut y = matmul(&x, &beta).expect("shapes");
    for (yv, ev) in y.values_mut().iter_mut().zip(eps.values()) {
        *yv += noise * ev;
    }
    (x, y, beta)
}

/// Binary classification with labels in {-1, +1}, linearly separable up to
/// `flip` label noise. Returns `(X, y)`.
pub fn two_class(n: usize, d: usize, flip: f64, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let x = rand_matrix(n, d, -1.0, 1.0, seed);
    let w = rand_matrix(d, 1, -1.0, 1.0, seed.wrapping_add(1));
    let score = matmul(&x, &w).expect("shapes");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let mut y = DenseMatrix::zeros(n, 1);
    for i in 0..n {
        let mut label = if score.get(i, 0) >= 0.0 { 1.0 } else { -1.0 };
        if rng.gen::<f64>() < flip {
            label = -label;
        }
        y.set(i, 0, label);
    }
    (x, y)
}

/// Multi-class classification with labels `1..=k` from Gaussian blobs.
/// Returns `(X, y)`.
pub fn multi_class(
    n: usize,
    d: usize,
    k: usize,
    spread: f64,
    seed: u64,
) -> (DenseMatrix, DenseMatrix) {
    let centers = rand_matrix(k, d, -5.0, 5.0, seed);
    let noise = randn_matrix(n, d, seed.wrapping_add(1));
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let mut x = DenseMatrix::zeros(n, d);
    let mut y = DenseMatrix::zeros(n, 1);
    for i in 0..n {
        let c = rng.gen_range(0..k);
        y.set(i, 0, (c + 1) as f64);
        for j in 0..d {
            x.set(i, j, centers.get(c, j) + spread * noise.get(i, j));
        }
    }
    (x, y)
}

/// Gaussian blobs for clustering (K-Means / GMM): `k` clusters of equal
/// size with per-cluster spread. Returns `(X, assignment)` with 1-based
/// assignments.
pub fn blobs(n: usize, d: usize, k: usize, spread: f64, seed: u64) -> (DenseMatrix, DenseMatrix) {
    multi_class(n, d, k, spread, seed)
}

/// Synthetic image-classification data standing in for MNIST (see
/// DESIGN.md §4): `side x side` images of `k` classes, each class a
/// distinct bright rectangle pattern on a mostly-zero background — the same
/// shape and sparsity regime ("just below the internal sparsity threshold")
/// that drives the paper's CNN measurements. Returns `(X, y)` with X of
/// shape `n x side*side` and 1-based labels.
pub fn images(n: usize, side: usize, k: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = DenseMatrix::zeros(n, side * side);
    let mut y = DenseMatrix::zeros(n, 1);
    for i in 0..n {
        let c = rng.gen_range(0..k);
        y.set(i, 0, (c + 1) as f64);
        // Class-specific rectangle position derived from the class index.
        let base_r = (c * 3) % (side / 2);
        let base_c = (c * 5) % (side / 2);
        let h = side / 3;
        let w = side / 3;
        // Small jitter keeps the task non-trivial.
        let jr = rng.gen_range(0..3.min(side - base_r - h));
        let jc = rng.gen_range(0..3.min(side - base_c - w));
        for r in 0..h {
            for cc in 0..w {
                let val = 0.5 + 0.5 * rng.gen::<f64>();
                x.set(i, (base_r + jr + r) * side + (base_c + jc + cc), val);
            }
        }
    }
    (x, y)
}

/// One-hot encodes 1-based labels into an `n x k` indicator matrix.
pub fn one_hot(y: &DenseMatrix, k: usize) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(y.rows(), k);
    for i in 0..y.rows() {
        let c = y.get(i, 0) as usize;
        debug_assert!((1..=k).contains(&c));
        out.set(i, c - 1, 1.0);
    }
    out
}

/// The paper-production-style raw frame of §6.3: `num_cat` categorical
/// signals (recipe IDs etc.) and `num_cont` continuous sensor signals, with
/// a missing-value rate. Returns the frame and a noisy linear target.
pub fn paper_production_frame(
    n: usize,
    num_cat: usize,
    cat_domain: usize,
    num_cont: usize,
    missing_rate: f64,
    seed: u64,
) -> (exdra_matrix::Frame, DenseMatrix) {
    use exdra_matrix::frame::{Cells, FrameColumn, StrCells};
    use std::fmt::Write;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut columns = Vec::new();
    let mut token = String::new();
    for c in 0..num_cat {
        let mut vals = StrCells::with_capacity(n, 4 * n);
        for _ in 0..n {
            if rng.gen::<f64>() < missing_rate {
                vals.push(None);
            } else {
                token.clear();
                write!(token, "R{}", rng.gen_range(0..cat_domain)).expect("writes to a String");
                vals.push(Some(&token));
            }
        }
        columns.push((format!("recipe_{c}"), FrameColumn::Str(vals)));
    }
    let mut target = DenseMatrix::zeros(n, 1);
    for c in 0..num_cont {
        let weight = ((c % 7) as f64 - 3.0) / 3.0;
        let vals: Cells<f64> = (0..n)
            .map(|i| {
                if rng.gen::<f64>() < missing_rate {
                    None
                } else {
                    let v: f64 = rng.gen_range(-3.0..3.0);
                    let cur = target.get(i, 0);
                    target.set(i, 0, cur + weight * v);
                    Some(v * 100.0 + 2000.0) // sensor-style magnitudes
                }
            })
            .collect();
        columns.push((format!("signal_{c}"), FrameColumn::F64(vals)));
    }
    let frame = exdra_matrix::Frame::new(columns).expect("consistent columns");
    (frame, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_recoverable() {
        let (x, y, beta) = regression(500, 5, 0.0, 1);
        // Noise-free: y == X beta exactly.
        let yhat = matmul(&x, &beta).unwrap();
        assert!(y.max_abs_diff(&yhat) < 1e-12);
    }

    #[test]
    fn two_class_labels_pm_one() {
        let (_, y) = two_class(200, 4, 0.1, 2);
        assert!(y.values().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn multi_class_labels_in_range() {
        let (x, y) = multi_class(300, 6, 4, 0.5, 3);
        assert_eq!(x.shape(), (300, 6));
        assert!(y.values().iter().all(|&v| (1.0..=4.0).contains(&v)));
        // Every class appears.
        for c in 1..=4 {
            assert!(y.values().contains(&(c as f64)), "class {c}");
        }
    }

    #[test]
    fn images_are_sparse_and_labeled() {
        let (x, y) = images(100, 28, 10, 4);
        assert_eq!(x.cols(), 784);
        let sp = x.sparsity();
        assert!(sp < 0.4, "images mostly zero, sparsity {sp}");
        assert!(y.values().iter().all(|&v| (1.0..=10.0).contains(&v)));
    }

    #[test]
    fn one_hot_rows_sum_to_one() {
        let y = DenseMatrix::col_vector(&[1., 3., 2.]);
        let oh = one_hot(&y, 3);
        assert_eq!(oh.values(), &[1., 0., 0., 0., 0., 1., 0., 1., 0.]);
    }

    #[test]
    fn paper_frame_has_missing_and_schema() {
        let (f, y) = paper_production_frame(200, 2, 5, 3, 0.1, 5);
        assert_eq!(f.cols(), 5);
        assert_eq!(y.rows(), 200);
        let missing: usize = (0..f.cols())
            .map(|c| f.column(c).unwrap().missing_count())
            .sum();
        assert!(missing > 0, "expected some missing cells");
    }
}
