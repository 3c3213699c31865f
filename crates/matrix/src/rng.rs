//! Seeded random matrix generation (SystemDS `rand`), used by data
//! generators, model initialization, and tests.

use crate::dense::DenseMatrix;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random matrix in `[lo, hi)` with a fixed seed.
pub fn rand_matrix(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(lo, hi);
    let data: Vec<f64> = (0..rows * cols).map(|_| dist.sample(&mut rng)).collect();
    DenseMatrix::new(rows, cols, data).expect("consistent dims")
}

/// Standard-normal random matrix (Box-Muller over the seeded generator).
pub fn randn_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        data.push(r * theta.cos());
        if data.len() < n {
            data.push(r * theta.sin());
        }
    }
    DenseMatrix::new(rows, cols, data).expect("consistent dims")
}

/// A uniformly sampled permutation of `1..=n` as a column vector, used for
/// shuffling and for the selection-matrix train/test split of pipeline P2.
pub fn rand_permutation(n: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (1..=n).collect();
    // Fisher-Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    DenseMatrix::new(n, 1, idx.into_iter().map(|v| v as f64).collect()).expect("consistent dims")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_matrix_is_deterministic_per_seed() {
        let a = rand_matrix(5, 5, 0.0, 1.0, 42);
        let b = rand_matrix(5, 5, 0.0, 1.0, 42);
        let c = rand_matrix(5, 5, 0.0, 1.0, 43);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn rand_matrix_respects_range() {
        let a = rand_matrix(20, 20, -2.0, 3.0, 1);
        assert!(a.values().iter().all(|&v| (-2.0..=3.0).contains(&v)));
    }

    #[test]
    fn randn_has_roughly_zero_mean() {
        let a = randn_matrix(100, 100, 7);
        let mean = a.values().iter().sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn permutation_contains_all_indices() {
        let p = rand_permutation(100, 5);
        let mut seen = [false; 101];
        for &v in p.values() {
            seen[v as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
    }
}
