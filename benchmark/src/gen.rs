//! Seeded input generation. Everything a workload feeds the program is
//! made here from `--seed`: the program receives only these matrices,
//! frames and plans, never the seed or the workload's name. The matrix
//! generators are copies of `crates/bench`'s `paper_*` helpers (the
//! benchmark package imports nothing from the bench crate).

use exdra::fault::splitmix64;
use exdra::matrix::kernels::matmul::matmul;
use exdra::matrix::kernels::reorg::cbind;
use exdra::matrix::rng::{rand_matrix, randn_matrix};
use exdra::matrix::DenseMatrix;

/// The seed a run uses when none is given, and the held-out seed a claim
/// must also hold on (choosing-metrics §6.3). Both go into result files.
pub const DEFAULT_SEED: u64 = 0xEDDA;
pub const HELD_OUT_SEED: u64 = 0x5EED_2021;

/// The sub-seed of stream `salt` under `master`: each input of a workload
/// draws from its own stream, so adding an input never perturbs another.
pub fn sub_seed(master: u64, salt: u64) -> u64 {
    let mut state = master ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut state)
}

/// The synthetic "paper production" feature matrix of §6.1: 80 %
/// continuous sensor signals in `[-1, 1]`, 20 % one-hot recipe columns.
pub fn paper_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let onehot_cols = cols / 5;
    let cont = rand_matrix(rows, cols - onehot_cols, -1.0, 1.0, seed);
    if onehot_cols == 0 {
        return cont;
    }
    cbind(
        &cont,
        &one_hot_block(rows, onehot_cols, seed.wrapping_add(1)),
    )
    .expect("aligned rows")
}

/// `rows x width` indicator block with exactly one 1 per row.
fn one_hot_block(rows: usize, width: usize, seed: u64) -> DenseMatrix {
    let labels = rand_matrix(rows, 1, 0.0, width as f64, seed);
    let mut oh = DenseMatrix::zeros(rows, width);
    for r in 0..rows {
        oh.set(r, (labels.get(r, 0) as usize).min(width - 1), 1.0);
    }
    oh
}

/// Low-cardinality data for compressed execution: 80 % sensor columns
/// quantised to 16 levels, 20 % one-hot columns. Every column has at
/// most 16 distinct values, so DDC/RLE column groups pay off.
pub fn low_cardinality_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let onehot_cols = cols / 5;
    let quantised = rand_matrix(rows, cols - onehot_cols, 0.0, 16.0, seed)
        .map(|v| (v.floor().min(15.0)) / 8.0 - 1.0);
    if onehot_cols == 0 {
        return quantised;
    }
    cbind(
        &quantised,
        &one_hot_block(rows, onehot_cols, seed.wrapping_add(1)),
    )
    .expect("aligned rows")
}

/// Regression labels `X beta + 0.1 noise`.
pub fn regression_labels(x: &DenseMatrix, seed: u64) -> DenseMatrix {
    let beta = rand_matrix(x.cols(), 1, -1.0, 1.0, seed);
    let mut y = matmul(x, &beta).expect("shapes");
    let noise = randn_matrix(x.rows(), 1, seed.wrapping_add(1));
    for (yv, nv) in y.values_mut().iter_mut().zip(noise.values()) {
        *yv += 0.1 * nv;
    }
    y
}

/// Binary ±1 labels from the sign of [`regression_labels`].
pub fn binary_labels(x: &DenseMatrix, seed: u64) -> DenseMatrix {
    regression_labels(x, seed).map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
}

/// Quantile-balanced 1-based class labels.
pub fn class_labels(x: &DenseMatrix, classes: usize, seed: u64) -> DenseMatrix {
    let y = regression_labels(x, seed);
    let mut sorted = y.values().to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite labels"));
    let thresholds: Vec<f64> = (1..classes)
        .map(|c| sorted[c * sorted.len() / classes])
        .collect();
    y.map(|v| 1.0 + thresholds.iter().filter(|t| v >= **t).count() as f64)
}

/// The labelled inputs of the Fig. 5 algorithm suite.
#[derive(Clone)]
pub struct AlgoInputs {
    pub x: DenseMatrix,
    pub y_reg: DenseMatrix,
    pub y_bin: DenseMatrix,
    pub y_cls: DenseMatrix,
    /// Seed of K-Means' centroid sampling: an input of the algorithm.
    pub kmeans_seed: u64,
}

/// Number of classes of [`AlgoInputs::y_cls`].
pub const CLASSES: usize = 3;

impl AlgoInputs {
    /// Labels for a given feature matrix, all drawn from `seed`.
    pub fn for_matrix(x: DenseMatrix, seed: u64) -> Self {
        Self {
            y_reg: regression_labels(&x, sub_seed(seed, 2)),
            y_bin: binary_labels(&x, sub_seed(seed, 3)),
            y_cls: class_labels(&x, CLASSES, sub_seed(seed, 4)),
            kmeans_seed: sub_seed(seed, 5),
            x,
        }
    }
}

/// FNV-1a over the bit patterns of a sequence of numbers: the cheap
/// per-pass checksum (bitwise-equal outputs have equal checksums).
#[derive(Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    pub fn push_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn push_matrix(&mut self, m: &DenseMatrix) {
        self.push_u64(m.rows() as u64);
        self.push_u64(m.cols() as u64);
        for v in m.values() {
            self.push_u64(v.to_bits());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Checksum of a list of matrices.
    pub fn of(ms: &[DenseMatrix]) -> u64 {
        let mut c = Checksum::default();
        for m in ms {
            c.push_matrix(m);
        }
        c.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = AlgoInputs::for_matrix(paper_matrix(200, 20, sub_seed(9, 1)), 9);
        let b = AlgoInputs::for_matrix(paper_matrix(200, 20, sub_seed(9, 1)), 9);
        let sum = |i: &AlgoInputs| {
            Checksum::of(&[
                i.x.clone(),
                i.y_reg.clone(),
                i.y_bin.clone(),
                i.y_cls.clone(),
            ])
        };
        assert_eq!(sum(&a), sum(&b));
        assert_eq!(a.kmeans_seed, b.kmeans_seed);
        let c = AlgoInputs::for_matrix(paper_matrix(200, 20, sub_seed(10, 1)), 10);
        assert_ne!(sum(&a), sum(&c));
        assert_eq!(
            Checksum::of(&[low_cardinality_matrix(300, 10, 4)]),
            Checksum::of(&[low_cardinality_matrix(300, 10, 4)])
        );
    }

    #[test]
    fn paper_matrix_has_one_hot_tail_and_low_cardinality_is_low() {
        let x = paper_matrix(100, 50, 1);
        assert_eq!(x.shape(), (100, 50));
        for r in 0..100 {
            assert_eq!((40..50).map(|c| x.get(r, c)).sum::<f64>(), 1.0);
        }
        let q = low_cardinality_matrix(500, 10, 2);
        for c in 0..10 {
            let mut vals: Vec<u64> = (0..500).map(|r| q.get(r, c).to_bits()).collect();
            vals.sort_unstable();
            vals.dedup();
            assert!(vals.len() <= 16, "column {c}: {} values", vals.len());
        }
    }

    #[test]
    fn sub_seeds_differ_by_salt_and_master() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn class_labels_are_balanced() {
        let x = paper_matrix(900, 20, 2);
        let y = class_labels(&x, 3, 3);
        for c in 1..=3 {
            let n = y.values().iter().filter(|&&v| v == f64::from(c)).count();
            assert!((250..=350).contains(&n), "class {c}: {n}");
        }
    }
}
