//! Property tests for the determinism contract of every parallelized
//! kernel (DESIGN.md §4f): at any pool width the output is bitwise
//! identical to the width-1 serial schedule, across ragged shapes that
//! land on both sides of each kernel's parallelization threshold.
//!
//! Widths are pinned per-run via `exdra_par::with_threads`, so the tests
//! hold regardless of `EXDRA_THREADS` (the CI par-determinism job runs
//! this suite under several settings on top).

use exdra::matrix::kernels::aggregates::{aggregate, AggDir, AggOp};
use exdra::matrix::kernels::elementwise::{binary, scalar, softmax, unary, BinaryOp, UnaryOp};
use exdra::matrix::kernels::matmul::{matmul, matmul_naive, mmchain, tsmm};
use exdra::matrix::kernels::quaternary::wsigmoid;
use exdra::matrix::kernels::ternary::{axpy, ifelse};
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;
use proptest::prelude::*;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pool widths exercised against the serial schedule: an odd width that
/// leaves ragged tails and one wider than the chunks-per-thread target.
const WIDTHS: [usize; 2] = [3, 8];

fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` at width 1 and at each test width, asserting bitwise-equal
/// dense outputs, and returns the serial result for oracle checks.
fn widths_agree(label: &str, f: impl Fn() -> DenseMatrix) -> DenseMatrix {
    let serial = exdra_par::with_threads(1, &f);
    for w in WIDTHS {
        let par = exdra_par::with_threads(w, &f);
        assert!(
            same_bits(&serial, &par),
            "{label}: width {w} differs bitwise from serial ({:?} vs {:?})",
            serial.shape(),
            par.shape()
        );
    }
    serial
}

/// Uniform random matrix in `[lo, hi]` whose cells are non-zero with
/// probability `density`: both sides of `ifelse`'s condition, and the
/// zero weights `wsigmoid` skips.
fn with_zeros(rows: usize, cols: usize, lo: f64, hi: f64, density: f64, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(lo, hi);
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f64>() < density {
                dist.sample(&mut rng)
            } else {
                0.0
            }
        })
        .collect();
    DenseMatrix::new(rows, cols, data).expect("consistent dims")
}

fn scalar_m(v: f64) -> DenseMatrix {
    DenseMatrix::new(1, 1, vec![v]).expect("1x1")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_bitwise_and_matches_naive_oracle(
        m in 1usize..=97,
        k in 1usize..=64,
        n in 1usize..=64,
        seed in 0u64..1_000_000,
    ) {
        let a = rand_matrix(m, k, -1.0, 1.0, seed);
        let b = rand_matrix(k, n, -1.0, 1.0, seed + 1);
        let out = widths_agree("matmul", || matmul(&a, &b).expect("shapes"));
        // The tiled kernel keeps k-ascending per-cell accumulation, so it
        // agrees with the naive triple loop exactly (not just to an eps).
        let oracle = matmul_naive(&a, &b).expect("shapes");
        prop_assert_eq!(out.shape(), oracle.shape());
        prop_assert_eq!(out.max_abs_diff(&oracle), 0.0);
    }

    #[test]
    fn matvec_fast_path_bitwise(m in 1usize..=400, k in 1usize..=97, seed in 0u64..1_000_000) {
        let a = rand_matrix(m, k, -1.0, 1.0, seed);
        let v = rand_matrix(k, 1, -1.0, 1.0, seed + 1);
        let out = widths_agree("matvec", || matmul(&a, &v).expect("shapes"));
        let oracle = matmul_naive(&a, &v).expect("shapes");
        prop_assert_eq!(out.max_abs_diff(&oracle), 0.0);
    }

    #[test]
    fn tsmm_bitwise(m in 1usize..=200, n in 1usize..=97, seed in 0u64..1_000_000) {
        let x = rand_matrix(m, n, -1.0, 1.0, seed);
        widths_agree("tsmm-left", || tsmm(&x, true).expect("shapes"));
        widths_agree("tsmm-right", || tsmm(&x, false).expect("shapes"));
    }

    #[test]
    fn mmchain_bitwise(
        m in 1usize..=300,
        n in 1usize..=97,
        weighted in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let x = rand_matrix(m, n, -1.0, 1.0, seed);
        let v = rand_matrix(n, 1, -1.0, 1.0, seed + 1);
        let w = weighted.then(|| rand_matrix(m, 1, 0.0, 1.0, seed + 2));
        widths_agree("mmchain", || mmchain(&x, &v, w.as_ref()).expect("shapes"));
    }

    #[test]
    fn elementwise_unary_and_scalar_bitwise(
        r in 1usize..=400,
        c in 1usize..=200,
        seed in 0u64..1_000_000,
        s in -2.0f64..2.0,
    ) {
        let x = rand_matrix(r, c, -2.0, 2.0, seed);
        for op in [UnaryOp::Exp, UnaryOp::Sigmoid, UnaryOp::Abs, UnaryOp::Round] {
            widths_agree("unary", || unary(&x, op));
        }
        widths_agree("scalar", || scalar(&x, BinaryOp::Mul, s, false));
        widths_agree("scalar-swap", || scalar(&x, BinaryOp::Sub, s, true));
        widths_agree("softmax", || softmax(&x));
    }

    #[test]
    fn elementwise_binary_broadcasts_bitwise(
        r in 1usize..=400,
        c in 1usize..=200,
        seed in 0u64..1_000_000,
    ) {
        let x = rand_matrix(r, c, -2.0, 2.0, seed);
        let full = rand_matrix(r, c, -2.0, 2.0, seed + 1);
        let rowv = rand_matrix(1, c, -2.0, 2.0, seed + 2);
        let colv = rand_matrix(r, 1, -2.0, 2.0, seed + 3);
        let one = scalar_m(1.5);
        for rhs in [&full, &rowv, &colv, &one] {
            widths_agree("binary", || binary(&x, BinaryOp::Add, rhs).expect("shapes"));
            widths_agree("binary-max", || binary(&x, BinaryOp::Max, rhs).expect("shapes"));
        }
    }

    #[test]
    fn aggregates_row_col_bitwise(
        r in 1usize..=400,
        c in 1usize..=64,
        seed in 0u64..1_000_000,
    ) {
        let x = rand_matrix(r, c, -2.0, 2.0, seed);
        for op in [AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max, AggOp::Var] {
            widths_agree("agg-row", || aggregate(&x, op, AggDir::Row).expect("shapes"));
            widths_agree("agg-col", || aggregate(&x, op, AggDir::Col).expect("shapes"));
        }
    }

    #[test]
    fn ternary_ifelse_axpy_bitwise(
        r in 1usize..=300,
        c in 1usize..=150,
        factor in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let cond = with_zeros(r, c, 1.0, 2.0, 0.5, seed);
        let a = rand_matrix(r, c, -2.0, 2.0, seed + 1);
        let b = rand_matrix(r, c, -2.0, 2.0, seed + 2);
        widths_agree("ifelse", || ifelse(&cond, &a, &b).expect("shapes"));
        widths_agree("ifelse-scalar", || {
            ifelse(&cond, &scalar_m(1.0), &b).expect("shapes")
        });
        widths_agree("axpy", || axpy(&a, factor, &b, false).expect("shapes"));
        widths_agree("axpy-sub", || axpy(&a, factor, &b, true).expect("shapes"));
    }

    #[test]
    fn wsigmoid_bitwise(
        m in 1usize..=200,
        n in 1usize..=64,
        rank in 1usize..=8,
        seed in 0u64..1_000_000,
    ) {
        let w = with_zeros(m, n, -1.0, 1.0, 0.5, seed);
        let u = rand_matrix(m, rank, -1.0, 1.0, seed + 1);
        let v = rand_matrix(n, rank, -1.0, 1.0, seed + 2);
        widths_agree("wsigmoid", || wsigmoid(&w, &u, &v).expect("shapes"));
    }

    #[test]
    fn compression_identical_at_any_width(
        r in 1usize..=80,
        c in 1usize..=500,
        card in 1.0f64..16.0,
        seed in 0u64..1_000_000,
    ) {
        use exdra::matrix::compress::CompressedMatrix;
        // Low-cardinality columns so DDC/RLE groups actually form.
        let x = rand_matrix(r, c, 0.0, card, seed).map(f64::floor);
        let f = || CompressedMatrix::compress(&x);
        let serial = exdra_par::with_threads(1, f);
        for w in WIDTHS {
            let par = exdra_par::with_threads(w, f);
            prop_assert_eq!(&serial, &par);
            prop_assert!(same_bits(&serial.decompress(), &par.decompress()));
        }
    }
}
