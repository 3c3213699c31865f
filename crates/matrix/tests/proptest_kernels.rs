//! Property tests for the blocked GEMM micro-kernels and the
//! compressed-domain execution paths (DESIGN.md §4k).
//!
//! Two oracles, both bitwise:
//!
//! * the register-blocked `matmul`/`tsmm` agree with `matmul_naive`
//!   exactly — the packed panels preserve the k-ascending per-cell
//!   reduction chain — across ragged shapes that straddle the `MR`/`NR`
//!   tile and `KC` slab boundaries (with NaN, ±Inf and -0.0 planted in
//!   the operands: padded and stale packed lanes never leak), at pool
//!   widths {1, 3, 8}; `tsmm`'s triangular sweep agrees with naive on the
//!   materialized transpose across its block height and slab; so do the
//!   `t(A) %*% B` row sweep (against naive on the materialized
//!   transpose) and the one-pass `mmchain` (against the two-phase
//!   schedule), whose splits only ever divide the output;
//! * every compressed op agrees with decompress-then-dense-op exactly,
//!   so the worker may execute on column groups without changing a
//!   single output bit.
//!
//! The element-wise and aggregate kernels, which pick their operator once
//! per call, are checked against the per-cell loops of `oracle` for every
//! op, broadcast shape and direction, on ragged shapes with NaN, ±Inf and
//! ±0.0 planted.

mod oracle;

use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::kernels::aggregates::{aggregate, AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{binary, scalar, unary, BinaryOp, UnaryOp};
use exdra_matrix::kernels::matmul::{
    matmul, matmul_naive, matmul_tn, mmchain, mmchain_two_phase, tsmm, KC, MR, NR,
};
use exdra_matrix::kernels::reorg::transpose;
use exdra_matrix::rng::rand_matrix;
use exdra_matrix::DenseMatrix;
use proptest::prelude::*;

/// Pool widths exercised against the serial schedule (same contract as
/// `proptest_par.rs`): odd width with ragged tails, and a wide one.
const WIDTHS: [usize; 2] = [3, 8];

fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` at width 1 and at each test width, asserting bitwise-equal
/// outputs, and returns the serial result for oracle comparison.
fn widths_agree(label: &str, f: impl Fn() -> DenseMatrix) -> DenseMatrix {
    let serial = exdra_par::with_threads(1, &f);
    for w in WIDTHS {
        let par = exdra_par::with_threads(w, &f);
        assert!(
            same_bits(&serial, &par),
            "{label}: width {w} differs bitwise from serial"
        );
    }
    serial
}

/// Shapes biased toward micro-kernel boundaries: exact multiples of the
/// register tile, one off either side, and tiny degenerate sizes.
fn tile_dim(scale: usize) -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=(2 * MR.max(NR) + 1),
        Just(scale * MR),
        Just(scale * MR + 1),
        Just(scale * NR - 1),
        (scale * MR)..=(scale * MR + 2 * NR),
    ]
}

/// Reduction depths on both sides of the `KC` cache slab.
fn depth_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=24,
        (KC - 3)..=(KC + 3),
        (2 * KC - 2)..=(2 * KC + 2),
    ]
}

/// Shared-index depths of the row sweep: empty, below / on / above its
/// 4-row unroll, and long enough to carry cells across many passes.
fn sweep_depth() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        3usize..=5,
        Just(257usize),
        6usize..=300
    ]
}

/// Operand widths of the row sweep: thin, the unroll's edges, wide.
fn sweep_width() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=5, Just(8usize), Just(9usize), Just(100usize)]
}

/// A compressible mix: categorical, constant, run-structured, and
/// incompressible columns, so DDC, RLE and UC groups all participate.
fn mixed_matrix(rows: usize, seed: u64) -> DenseMatrix {
    let noise = rand_matrix(rows, 1, -1.0, 1.0, seed);
    let mut x = DenseMatrix::zeros(rows, 4);
    for r in 0..rows {
        x.set(r, 0, (r % 5) as f64 - 2.0);
        x.set(r, 1, 3.25);
        x.set(r, 2, if r < rows / 2 { -1.5 } else { 4.0 });
        x.set(r, 3, noise.get(r, 0));
    }
    x
}

/// Bitwise equality, except that any NaN equals any NaN: when two NaNs
/// meet in one add or multiply the hardware keeps the first operand's
/// payload, and operand order is the compiler's choice per code path.
fn same_cells(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

const UNARY_OPS: [UnaryOp; 16] = [
    UnaryOp::Abs,
    UnaryOp::Cos,
    UnaryOp::Sin,
    UnaryOp::Tan,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Sqrt,
    UnaryOp::Round,
    UnaryOp::Floor,
    UnaryOp::Ceil,
    UnaryOp::Sign,
    UnaryOp::Not,
    UnaryOp::IsNa,
    UnaryOp::Sigmoid,
    UnaryOp::Neg,
    UnaryOp::Square,
];

const BINARY_OPS: [BinaryOp; 19] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::IntDiv,
    BinaryOp::Mod,
    BinaryOp::Pow,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Eq,
    BinaryOp::Neq,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::LogBase,
];

const AGG_OPS: [AggOp; 7] = [
    AggOp::Sum,
    AggOp::SumSq,
    AggOp::Min,
    AggOp::Max,
    AggOp::Mean,
    AggOp::Var,
    AggOp::Sd,
];

/// Random cells, every other one on a half-unit grid (so comparisons and
/// logical ops meet ties, `+0.0` and `-0.0`), with NaN, ±Inf and ±0.0
/// planted when `plant` is set.
fn special_matrix(rows: usize, cols: usize, seed: u64, plant: bool) -> DenseMatrix {
    let mut x = rand_matrix(rows, cols, -2.0, 2.0, seed);
    let cells = x.values_mut();
    for v in cells.iter_mut().skip(seed as usize % 2).step_by(2) {
        *v = (*v * 2.0).round() / 2.0;
    }
    if plant && !cells.is_empty() {
        let n = cells.len();
        for (k, v) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0]
            .into_iter()
            .enumerate()
        {
            cells[(k * 7 + seed as usize) % n] = v;
        }
    }
    x
}

/// Cells of `{+0.0, -0.0, s}` only: with `s > 0` a min that sees both
/// zeros is a tie between them, with `s < 0` a max.
fn zero_ties(rows: usize, cols: usize, seed: u64, s: f64) -> DenseMatrix {
    let r = rand_matrix(rows, cols, 0.0, 3.0, seed);
    r.map(|v| [0.0, -0.0, s][(v as usize).min(2)])
}

/// Every element-wise kernel (all ops, the four broadcast shapes, both
/// scalar sides) and every aggregate (all ops and directions, dense and
/// compressed) against the per-cell oracle on `rows x cols` operands.
fn kernels_match_oracle(rows: usize, cols: usize, seed: u64, plant: bool) {
    let x = special_matrix(rows, cols, seed, plant);
    let at = |what: &str| format!("{what} on {rows}x{cols} (seed {seed}, plant {plant})");
    for op in UNARY_OPS {
        let got = widths_agree("unary", || unary(&x, op));
        assert!(same_bits(&got, &oracle::unary(&x, op)), "{}", at(op.name()));
    }
    let shapes = [(rows, cols), (1, 1), (1, cols), (rows, 1)];
    let rhs: Vec<DenseMatrix> = (0u64..)
        .zip(shapes)
        .map(|(i, (r, c))| special_matrix(r, c, seed + 1 + i, plant))
        .collect();
    for op in BINARY_OPS {
        for y in &rhs {
            let got = widths_agree("binary", || binary(&x, op, y).expect("broadcast"));
            let label = format!("{} against {:?}", op.name(), y.shape());
            assert!(
                same_bits(&got, &oracle::binary(&x, op, y)),
                "{}",
                at(&label)
            );
        }
        for s in [1.5, -0.5, 0.0, -0.0, f64::NAN, f64::INFINITY] {
            for swap in [false, true] {
                let got = widths_agree("scalar", || scalar(&x, op, s, swap));
                let label = format!("{} with scalar {s} (swap {swap})", op.name());
                assert!(
                    same_bits(&got, &oracle::scalar(&x, op, s, swap)),
                    "{}",
                    at(&label)
                );
            }
        }
    }
    let ties = [
        x,
        zero_ties(rows, cols, seed, 0.5),
        zero_ties(rows, cols, seed, -0.5),
    ];
    for m in &ties {
        let c = CompressedMatrix::compress(m);
        for op in AGG_OPS {
            for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
                let label = format!("{}/{dir:?}", op.name());
                if m.is_empty() && !matches!(op, AggOp::Sum | AggOp::SumSq) {
                    assert!(aggregate(m, op, dir).is_err() && c.aggregate(op, dir).is_err());
                    continue;
                }
                let want = oracle::aggregate(m, op, dir);
                let got = widths_agree("agg", || aggregate(m, op, dir).expect("agg"));
                assert!(same_bits(&got, &want), "dense {}", at(&label));
                // The column groups push the same cells into the same
                // chains, but compile them on their own code path: where
                // an Inf - Inf NaN meets a stored NaN, the payload kept
                // is that path's operand order.
                let got = widths_agree("c-agg", || c.aggregate(op, dir).expect("agg"));
                assert!(same_cells(&got, &want), "compressed {}", at(&label));
            }
        }
    }
}

#[test]
fn elementwise_and_aggregates_are_bitwise_the_per_cell_oracle() {
    // One row, one column, lengths off every multiple of 4 and 8, empty
    // operands, and one shape large enough to fan out across the pool.
    let shapes = [
        (1, 1),
        (1, 9),
        (9, 1),
        (1, 13),
        (7, 13),
        (13, 7),
        (31, 5),
        (5, 37),
        (0, 3),
        (3, 0),
        (301, 123),
    ];
    for (rows, cols) in shapes {
        for plant in [true, false] {
            kernels_match_oracle(rows, cols, (rows * 131 + cols) as u64, plant);
        }
    }
}

#[test]
fn triangular_sweep_is_bitwise_naive_across_block_and_slab() {
    // Columns straddle the 16-column block, rows the 64-row slab and the
    // sweep's 4-row unroll; the lower triangle is the upper one's mirror,
    // which is the naive cell too (`x * y` commutes bit for bit).
    for n in [1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 33, 100] {
        for m in [0, 1, 63, 64, 65, 257] {
            let x = rand_matrix(m, n, -1.0, 1.0, (m * 101 + n) as u64);
            let xt = transpose(&x);
            for left in [true, false] {
                let out = widths_agree("tsmm", || tsmm(&x, left).expect("shapes"));
                let oracle = if left {
                    matmul_naive(&xt, &x)
                } else {
                    matmul_naive(&x, &xt)
                };
                assert!(
                    same_bits(&out, &oracle.expect("shapes")),
                    "tsmm {m}x{n} left={left} differs from the naive chain"
                );
            }
        }
    }
}

#[test]
fn ragged_gemm_with_special_values_is_bitwise_naive() {
    // Edge tiles run the full micro-tile on padded panels: a NaN or Inf in
    // a live lane must reach exactly the cells naive gives it, and the
    // dead lanes (zero rhs padding, stale lhs rows) must reach none.
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    for n in [1, 3, 10, 20] {
        for m in [1, 2, 3, 5, 7, 61, 67] {
            for k in [1, 5, KC + 3] {
                let seed = (m * 10_007 + n * 101 + k) as u64;
                let mut a = rand_matrix(m, k, -1.0, 1.0, seed);
                let mut b = rand_matrix(k, n, -1.0, 1.0, seed + 1);
                for (i, &v) in special.iter().enumerate() {
                    a.set((i * 3 + 1) % m, (i * 5 + 2) % k, v);
                    b.set((i * 7 + 3) % k, (i * 2 + 1) % n, v);
                }
                let out = widths_agree("ragged-gemm", || matmul(&a, &b).expect("shapes"));
                let oracle = matmul_naive(&a, &b).expect("shapes");
                assert!(same_cells(&out, &oracle), "{m}x{k}x{n} differs from naive");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_gemm_is_bitwise_naive_over_ragged_shapes(
        m in tile_dim(9),
        k in depth_dim(),
        n in tile_dim(7),
        seed in 0u64..1_000_000,
    ) {
        let a = rand_matrix(m, k, -1.0, 1.0, seed);
        let b = rand_matrix(k, n, -1.0, 1.0, seed + 1);
        let out = widths_agree("blocked-gemm", || matmul(&a, &b).expect("shapes"));
        let oracle = matmul_naive(&a, &b).expect("shapes");
        prop_assert!(same_bits(&out, &oracle), "blocked differs from naive chain");
    }

    #[test]
    fn row_sweep_is_bitwise_naive_on_the_materialized_transpose(
        k in sweep_depth(),
        p in sweep_width(),
        n in sweep_width(),
        seed in 0u64..1_000_000,
    ) {
        let a = rand_matrix(k, p, -1.0, 1.0, seed);
        let b = rand_matrix(k, n, -1.0, 1.0, seed + 1);
        let out = widths_agree("row-sweep", || matmul_tn(&a, &b).expect("shapes"));
        let oracle = matmul_naive(&transpose(&a), &b).expect("shapes");
        prop_assert!(same_bits(&out, &oracle), "t(A) B differs from naive on t(A)");
        // A 1-row lhs is the same sweep with p = 1.
        if k > 0 {
            let row = rand_matrix(1, k, -1.0, 1.0, seed + 2);
            let out = widths_agree("vector-matrix", || matmul(&row, &b).expect("shapes"));
            prop_assert!(same_bits(&out, &matmul_naive(&row, &b).expect("shapes")));
        }
    }

    #[test]
    fn one_pass_mmchain_is_bitwise_two_phase(
        m in prop_oneof![1usize..=70, 95usize..=130],
        n in sweep_width(),
        weighted in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // Rows on and off the 32-row block of the sweep.
        let x = rand_matrix(m, n, -1.0, 1.0, seed);
        let v = rand_matrix(n, 1, -1.0, 1.0, seed + 1);
        let w = rand_matrix(m, 1, 0.0, 1.0, seed + 2);
        let wm = weighted.then_some(&w);
        let out = widths_agree("mmchain", || mmchain(&x, &v, wm).expect("shapes"));
        let oracle = widths_agree("mmchain-2p", || mmchain_two_phase(&x, &v, wm).expect("shapes"));
        prop_assert!(same_bits(&out, &oracle), "one pass differs from two phases");
    }

    #[test]
    fn blocked_tsmm_is_bitwise_explicit_product(
        m in depth_dim(),
        n in tile_dim(6),
        left in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let x = rand_matrix(m, n, -1.0, 1.0, seed);
        let out = widths_agree("blocked-tsmm", || tsmm(&x, left).expect("shapes"));
        // The mirrored lower triangle must hold exactly the upper bits.
        for i in 0..out.rows() {
            for j in 0..i {
                prop_assert_eq!(out.get(i, j).to_bits(), out.get(j, i).to_bits());
            }
        }
        let xt = transpose(&x);
        let oracle = if left {
            matmul_naive(&xt, &x).expect("shapes")
        } else {
            matmul_naive(&x, &xt).expect("shapes")
        };
        // Upper triangle comes straight out of the k-ascending kernel.
        for i in 0..out.rows() {
            for j in i..out.cols() {
                prop_assert_eq!(out.get(i, j).to_bits(), oracle.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn elementwise_and_aggregates_match_the_oracle_on_random_shapes(
        rows in 1usize..=40,
        cols in 1usize..=40,
        plant in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        kernels_match_oracle(rows, cols, seed, plant);
    }

    #[test]
    fn compressed_aggregates_match_decompressed_oracle(
        rows in 2usize..=300,
        seed in 0u64..1_000_000,
    ) {
        let d = mixed_matrix(rows, seed);
        let c = CompressedMatrix::compress(&d);
        for op in [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max, AggOp::Mean, AggOp::Var, AggOp::Sd] {
            for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
                let got = widths_agree("c-agg", || c.aggregate(op, dir).expect("agg"));
                let want = aggregate(&d, op, dir).expect("agg");
                prop_assert!(same_bits(&got, &want), "{}/{:?} differs", op.name(), dir);
            }
        }
    }

    #[test]
    fn compressed_map_cells_matches_decompressed_elementwise(
        rows in 1usize..=300,
        s in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let d = mixed_matrix(rows, seed);
        let c = CompressedMatrix::compress(&d);
        for op in [UnaryOp::Exp, UnaryOp::Sigmoid, UnaryOp::Abs, UnaryOp::Round] {
            let got = widths_agree("c-unary", || c.map_cells(|v| op.apply(v)).decompress());
            prop_assert!(same_bits(&got, &unary(&d, op)));
        }
        let got = widths_agree("c-scalar", || {
            c.map_cells(move |v| BinaryOp::Mul.apply(v, s)).decompress()
        });
        prop_assert!(same_bits(&got, &scalar(&d, BinaryOp::Mul, s, false)));
    }

    #[test]
    fn compressed_products_match_dense_kernels(
        rows in 1usize..=300,
        weighted in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let d = mixed_matrix(rows, seed);
        let c = CompressedMatrix::compress(&d);
        let v = rand_matrix(d.cols(), 1, -1.0, 1.0, seed + 1);
        let w = rand_matrix(rows, 1, 0.0, 1.0, seed + 2);

        let got = widths_agree("c-matvec", || c.matvec(&v).expect("shapes"));
        prop_assert!(same_bits(&got, &matmul(&d, &v).expect("shapes")));

        let got = widths_agree("c-vecmat", || c.t_vecmat(&w).expect("shapes"));
        prop_assert!(same_bits(&got, &matmul(&transpose(&w), &d).expect("shapes")));

        let wm = weighted.then_some(&w);
        let got = widths_agree("c-mmchain", || c.mmchain(&v, wm).expect("shapes"));
        prop_assert!(same_bits(&got, &mmchain(&d, &v, wm).expect("shapes")));
    }
}
