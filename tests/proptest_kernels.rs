//! Property tests for the blocked GEMM micro-kernels and the
//! compressed-domain execution paths (DESIGN.md §4k).
//!
//! Two oracles, both bitwise:
//!
//! * the register-blocked `matmul`/`tsmm` agree with `matmul_naive`
//!   exactly — the packed panels preserve each cell's reduction chain —
//!   across ragged shapes that straddle the `MR`/`NR` tile, the `KC` slab
//!   and the 2048-row reduction block boundaries (with NaN, ±Inf and -0.0
//!   planted in the operands: padded and stale packed lanes never leak),
//!   at pool widths {1, 3, 8}; `tsmm`'s triangular sweep agrees with
//!   naive on the materialized transpose across its band height and
//!   slab; so do the `t(A) %*% B` row sweep (against naive on the
//!   materialized transpose) and the one-pass `mmchain` (against the
//!   two-phase schedule); a k-column `mmchain`, local or compressed, is k
//!   single-column ones;
//! * every compressed op agrees with decompress-then-dense-op exactly,
//!   so the worker may execute on column groups without changing a
//!   single output bit.
//!
//! The element-wise and aggregate kernels, which pick their operator once
//! per call, are checked against the per-cell loops of `oracle` for every
//! op, broadcast shape and direction, on ragged shapes with NaN, ±Inf and
//! ±0.0 planted. Every row reduction, dense and compressed, is checked
//! against `oracle`'s serial loops written from the blocked reduction
//! rule at widths 1 to 4, on row counts across the block boundaries; and
//! inputs of at most one block keep the single chain they always had.

mod oracle;

use exdra_core::Tensor;
use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::kernels::aggregates::{aggregate, AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{binary, scalar, unary, BinaryOp, UnaryOp};
use exdra_matrix::kernels::matmul::{
    matmul, matmul_naive, matmul_tn, mmchain, mmchain_two_phase, tsmm, KC, MR, NR,
};
use exdra_matrix::kernels::reorg::{replace, transpose};
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
    widths_agree_at(label, &WIDTHS, f)
}

/// [`widths_agree`] at width 1 and each of `widths`.
fn widths_agree_at(label: &str, widths: &[usize], f: impl Fn() -> DenseMatrix) -> DenseMatrix {
    let serial = exdra_par::with_threads(1, &f);
    for &w in widths {
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

/// Row counts across the 2048-row reduction blocks: either side of the
/// first and the second boundary, and a ragged four blocks.
fn block_edge() -> impl Strategy<Value = usize> {
    prop_oneof![2047usize..=2049, 4095usize..=4097, Just(6500usize)]
}

/// Reduction depths on both sides of the `KC` cache slab and of the
/// reduction blocks.
fn depth_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=24,
        (KC - 3)..=(KC + 3),
        (2 * KC - 2)..=(2 * KC + 2),
        block_edge(),
    ]
}

/// Shared-index depths of the row sweep: empty, short, on and around its
/// 256-row slabs, and across the reduction blocks.
fn sweep_depth() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        3usize..=5,
        Just(257usize),
        6usize..=300,
        510usize..=514,
        block_edge(),
    ]
}

/// Operand widths of the row sweep: thin, on and off the 8-row and the
/// 16-, 40-, 48- and 128-wide register tiles, wide.
fn sweep_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=5,
        Just(8usize),
        Just(9usize),
        Just(100usize),
        15usize..=17,
        Just(20usize),
        Just(56usize),
        39usize..=41,
        47usize..=49,
        63usize..=65,
        127usize..=129,
    ]
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

/// The scheme a generated column is shaped for.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    /// 16 levels, one random level per row.
    Ddc8,
    /// 17 levels: a u8 code, but too many for a dictionary in registers.
    Ddc8Wide,
    /// 300 levels (more than a u8 code holds), one random level per row.
    Ddc16,
    /// Runs of 97 to 300 equal rows.
    Rle,
    /// Continuous noise.
    Uc,
}

/// Schemes with a run of 8 to 17 adjacent 16-level DDC8 columns, the
/// unit of the products' AVX-512 twin, maybe broken by a 17-level one
/// it leaves to the portable body, between columns of any scheme.
fn ddc8_runs() -> impl Strategy<Value = Vec<Scheme>> {
    (
        proptest::collection::vec(scheme(), 0..=3),
        8usize..=17,
        proptest::bool::ANY,
        0usize..=9,
        proptest::collection::vec(scheme(), 0..=3),
    )
        .prop_map(|(head, run, wide, more, tail)| {
            let mut schemes = head;
            schemes.extend(std::iter::repeat_n(Scheme::Ddc8, run));
            if wide {
                schemes.push(Scheme::Ddc8Wide);
            }
            schemes.extend(std::iter::repeat_n(Scheme::Ddc8, more));
            schemes.extend(tail);
            schemes
        })
}

fn scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Ddc8),
        Just(Scheme::Ddc8),
        Just(Scheme::Ddc8),
        Just(Scheme::Ddc16),
        Just(Scheme::Rle),
        Just(Scheme::Uc),
    ]
}

/// `rows x schemes.len()`, column `c` shaped for `schemes[c]`; with
/// `special`, NaN, ±Inf and -0.0 stand in for some dictionary levels, run
/// values and cells (0.0 is a level of every palette).
fn scheme_matrix(rows: usize, schemes: &[Scheme], seed: u64, special: bool) -> DenseMatrix {
    let mut x = DenseMatrix::zeros(rows, schemes.len());
    for (c, &s) in schemes.iter().enumerate() {
        let seed = seed.wrapping_add(17 * c as u64);
        let levels = match s {
            Scheme::Ddc16 => 300,
            Scheme::Ddc8Wide => 17,
            _ => 16,
        };
        let mut palette: Vec<f64> = (0..levels).map(|i| i as f64 / 8.0 - 1.0).collect();
        if special {
            let k = seed as usize % 4;
            palette[k..k + 4].copy_from_slice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
        }
        let pick = rand_matrix(rows, 1, 0.0, levels as f64, seed);
        let noise = rand_matrix(rows, 1, -1.0, 1.0, seed + 1);
        let mut run_end = 0;
        let mut run_value = 0.0;
        for r in 0..rows {
            let level = palette[(pick.get(r, 0) as usize).min(levels - 1)];
            let v = match s {
                Scheme::Ddc8 | Scheme::Ddc8Wide | Scheme::Ddc16 => level,
                Scheme::Rle => {
                    if r == run_end {
                        run_end = r + 97 + (r * 31 + seed as usize) % 204;
                        run_value = level;
                    }
                    run_value
                }
                Scheme::Uc if special && r % 211 == 5 => level,
                Scheme::Uc => noise.get(r, 0),
            };
            x.set(r, c, v);
        }
    }
    x
}

/// `X v`, `t(w) X`, `t(X) Y` (`k` columns) and `mmchain` with and without
/// weights on the compressed `d`, at widths 1 to 4, against the dense
/// kernels: bitwise, NaN payloads aside.
fn products_match_dense_kernels(d: &DenseMatrix, k: usize, seed: u64) {
    let rows = d.rows();
    let c = CompressedMatrix::compress(d);
    let v = rand_matrix(d.cols(), 1, -1.0, 1.0, seed + 1);
    let w = rand_matrix(rows, 1, 0.0, 1.0, seed + 2);
    let y = rand_matrix(rows, k, -1.0, 1.0, seed + 3);

    let got = widths_agree("c-matvec", || c.matvec(&v).expect("shapes"));
    prop_assert!(same_cells(&got, &matmul(d, &v).expect("shapes")), "matvec");

    let got = widths_agree("c-vecmat", || c.t_vecmat(&w).expect("shapes"));
    let want = matmul(&transpose(&w), d).expect("shapes");
    prop_assert!(same_cells(&got, &want), "t_vecmat");

    let got = widths_agree("c-t-matmul", || c.t_matmul(&y).expect("shapes"));
    prop_assert!(
        same_cells(&got, &matmul_tn(d, &y).expect("shapes")),
        "t_matmul, k = {}",
        k
    );

    for wm in [None, Some(&w)] {
        let got = widths_agree("c-mmchain", || c.mmchain(&v, wm).expect("shapes"));
        let want = mmchain(d, &v, wm).expect("shapes");
        prop_assert!(
            same_cells(&got, &want),
            "mmchain, weighted: {}",
            wm.is_some()
        );
    }
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
                // NaN payloads are outside the bitwise contract (DESIGN.md
                // §4f): where an Inf - Inf NaN meets a stored NaN, the
                // payload kept is the operand order of the code path, the
                // kernel's, the column groups' or the oracle's.
                let want = oracle::aggregate(m, op, dir);
                let got = widths_agree("agg", || aggregate(m, op, dir).expect("agg"));
                assert!(same_cells(&got, &want), "dense {}", at(&label));
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
    // A column sum where an Inf - Inf NaN meets a planted NaN: the kernel
    // and the oracle keep different NaN payloads.
    kernels_match_oracle(11, 1, 504_171, true);
}

#[test]
fn triangular_sweep_is_bitwise_naive_across_block_and_slab() {
    // Columns straddle the 8 x 16 register tile (and, at 129, the wide
    // output's runs of tile rows), rows the 256-row slab; the lower
    // triangle is the upper one's mirror, which is the naive cell too
    // (`x * y` commutes bit for bit).
    for n in [1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 33, 56, 100, 129] {
        for m in [0, 1, 63, 64, 65, 255, 256, 257] {
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

/// Widths of the reduction-order checks, besides 1.
const RULE_WIDTHS: [usize; 3] = [2, 3, 4];

/// Every listed row reduction on `x`, dense and compressed, against the
/// serial loops of `oracle` at widths 1 to 4; `y` is a `rows x k`
/// right-hand side. With `special`, NaN payloads may differ by code path
/// (`same_cells`).
fn reductions_match_the_rule(x: &DenseMatrix, y: &DenseMatrix, special: bool, seed: u64) {
    let (rows, k) = y.shape();
    let at = |what: &str| format!("{what}: {rows}x{} with k = {k} (seed {seed})", x.cols());
    let agree = |a: &DenseMatrix, b: &DenseMatrix| {
        if special {
            same_cells(a, b)
        } else {
            same_bits(a, b)
        }
    };
    let check = |what: &str, want: &DenseMatrix, f: &dyn Fn() -> DenseMatrix| {
        let got = widths_agree_at(what, &RULE_WIDTHS, f);
        assert!(agree(&got, want), "{}", at(what));
    };
    let c = CompressedMatrix::compress(x);
    let want = oracle::t_matmul(x, y);
    check("t(X) Y", &want, &|| matmul_tn(x, y).expect("shapes"));
    check("compressed t(X) Y", &want, &|| {
        c.t_matmul(y).expect("shapes")
    });
    let want = oracle::t_matmul(y, x);
    check("t(Y) X", &want, &|| matmul_tn(y, x).expect("shapes"));
    check("tsmm", &oracle::t_matmul(x, x), &|| {
        tsmm(x, true).expect("shapes")
    });
    let v = rand_matrix(x.cols(), k, -1.0, 1.0, seed + 5);
    let w = rand_matrix(rows, k, 0.0, 1.0, seed + 6);
    for wm in [None, Some(&w)] {
        let want = oracle::mmchain(x, &v, wm);
        check("mmchain", &want, &|| mmchain(x, &v, wm).expect("shapes"));
        check("compressed mmchain", &want, &|| {
            c.mmchain(&v, wm).expect("shapes")
        });
    }
    for op in [AggOp::Sum, AggOp::Mean, AggOp::SumSq, AggOp::Var, AggOp::Sd] {
        for dir in [AggDir::Full, AggDir::Col] {
            let want = oracle::aggregate(x, op, dir);
            check(op.name(), &want, &|| aggregate(x, op, dir).expect("agg"));
            check(op.name(), &want, &|| c.aggregate(op, dir).expect("agg"));
        }
    }
}

#[test]
fn wide_outputs_and_deep_products_follow_the_reduction_order() {
    // Outputs of more than 2^14 cells split into tiles that walk every
    // row block; depths past one block fold on the GEMM, the
    // matrix-vector and the vector-matrix paths, and in `X Xᵀ`. NaN,
    // ±Inf and -0.0 sit in both row blocks of the wide operands.
    let rule = |what: &str, want: &DenseMatrix, f: &dyn Fn() -> DenseMatrix| {
        let got = widths_agree_at(what, &RULE_WIDTHS, f);
        assert!(same_cells(&got, want), "{what}");
    };
    let rows = 2049;
    let mut a = rand_matrix(rows, 130, -1.0, 1.0, 1);
    for (r, c, v) in [(5, 7, f64::NAN), (2048, 9, f64::INFINITY), (100, 20, -0.0)] {
        a.set(r, c, v);
    }
    a.set(2048, 120, f64::NEG_INFINITY);
    let want = oracle::t_matmul(&a, &a);
    rule("wide t(A) A", &want, &|| matmul_tn(&a, &a).expect("shapes"));
    rule("wide tsmm", &want, &|| tsmm(&a, true).expect("shapes"));
    let x = scheme_matrix(rows, &[Scheme::Ddc8; 13], 3, true);
    let y = rand_matrix(rows, 1261, -1.0, 1.0, 4);
    let c = CompressedMatrix::compress(&x);
    rule("wide compressed t(X) Y", &oracle::t_matmul(&x, &y), &|| {
        c.t_matmul(&y).expect("shapes")
    });
    let depth = 4100;
    let lhs = rand_matrix(9, depth, -1.0, 1.0, 5);
    let row = rand_matrix(1, depth, -1.0, 1.0, 6);
    for rhs in [
        rand_matrix(depth, 10, -1.0, 1.0, 7),
        rand_matrix(depth, 1, -1.0, 1.0, 8),
    ] {
        for l in [&lhs, &row] {
            let want = oracle::matmul(l, &rhs);
            rule("deep matmul", &want, &|| matmul(l, &rhs).expect("shapes"));
            rule("deep naive", &want, &|| {
                matmul_naive(l, &rhs).expect("shapes")
            });
        }
    }
    let want = oracle::matmul(&lhs, &transpose(&lhs));
    rule("deep X t(X)", &want, &|| tsmm(&lhs, false).expect("shapes"));
    let wide = scheme_matrix(3, &[Scheme::Ddc8; 4100], 9, false);
    let v = rand_matrix(depth, 1, -1.0, 1.0, 10);
    let c = CompressedMatrix::compress(&wide);
    rule("deep compressed X v", &oracle::matmul(&wide, &v), &|| {
        c.matvec(&v).expect("shapes")
    });
}

/// The one r-ascending chain from 0.0 that every row reduction ran over
/// all of its rows before reductions were cut into blocks.
fn single_chain(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(0.0, |acc, t| acc + t)
}

/// `t(a) %*% b` as one single chain per cell.
fn single_chain_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            out.set(
                i,
                j,
                single_chain((0..a.rows()).map(|r| a.get(r, i) * b.get(r, j))),
            );
        }
    }
    out
}

/// `t(x) (w ⊙ (x v))` with each row dot and each output cell one chain.
fn single_chain_mmchain(x: &DenseMatrix, v: &DenseMatrix, w: Option<&DenseMatrix>) -> DenseMatrix {
    let mut q = DenseMatrix::zeros(x.rows(), v.cols());
    for r in 0..x.rows() {
        for j in 0..v.cols() {
            let dot = single_chain((0..x.cols()).map(|c| x.get(r, c) * v.get(c, j)));
            q.set(r, j, w.map_or(dot, |w| dot * w.get(r, j)));
        }
    }
    single_chain_tn(x, &q)
}

/// The sum-type aggregates as one chain per output cell, row-major for
/// `Full`, top to bottom for `Col`.
fn single_chain_aggregate(x: &DenseMatrix, op: AggOp, dir: AggDir) -> DenseMatrix {
    let finish = |cells: &[f64]| {
        let n = cells.len() as f64;
        let sum = single_chain(cells.iter().copied());
        let sumsq = single_chain(cells.iter().map(|v| v * v));
        match op {
            AggOp::Sum => sum,
            AggOp::SumSq => sumsq,
            AggOp::Mean => sum / n,
            _ if n < 2.0 => f64::NAN,
            _ => {
                let var = ((sumsq - sum * sum / n) / (n - 1.0)).max(0.0);
                if op == AggOp::Var {
                    var
                } else {
                    var.sqrt()
                }
            }
        }
    };
    match dir {
        AggDir::Full => DenseMatrix::filled(1, 1, finish(x.values())),
        _ => {
            let cols: Vec<f64> = (0..x.cols())
                .map(|c| finish(&(0..x.rows()).map(|r| x.get(r, c)).collect::<Vec<_>>()))
                .collect();
            DenseMatrix::row_vector(&cols)
        }
    }
}

#[test]
fn inputs_of_at_most_one_block_keep_the_single_chain_bits() {
    // Up to 2048 rows a row reduction is one block: each cell is the one
    // chain it always was, dense and compressed, at every width. The
    // second scheme mix plants NaN, ±Inf and -0.0 (NaN payloads may
    // differ by code path, see `same_cells`).
    let schemes = [Scheme::Ddc8, Scheme::Rle, Scheme::Ddc8, Scheme::Ddc8];
    let schemes = [&schemes[..], &[Scheme::Ddc8, Scheme::Uc, Scheme::Ddc16][..]];
    for rows in [1, 33, 2047, 2048] {
        for (s, special) in [(schemes[0], false), (schemes[1], true)] {
            let at = format!("{rows} rows, special {special}");
            let agree = |a: &DenseMatrix, b: &DenseMatrix| {
                if special {
                    same_cells(a, b)
                } else {
                    same_bits(a, b)
                }
            };
            let mut schemes = s.to_vec();
            schemes.extend([Scheme::Ddc8, Scheme::Ddc8, Scheme::Uc]);
            let x = scheme_matrix(rows, &schemes, rows as u64, special);
            let c = CompressedMatrix::compress(&x);
            let n = x.cols();
            // Thin products on the dense and compressed forms.
            for k in [1, 3] {
                let y = rand_matrix(rows, k, -1.0, 1.0, 7 + k as u64);
                let want = single_chain_tn(&x, &y);
                let got = widths_agree("pin-tn", || matmul_tn(&x, &y).expect("shapes"));
                assert!(agree(&got, &want), "t(X) y, k = {k}, {at}");
                let got = widths_agree("pin-c-tn", || c.t_matmul(&y).expect("shapes"));
                assert!(agree(&got, &want), "compressed t(X) y, k = {k}, {at}");
                let got =
                    widths_agree("pin-t-gemm", || matmul(&transpose(&x), &y).expect("shapes"));
                assert!(agree(&got, &want), "matmul(t(X), y), k = {k}, {at}");
                let v = rand_matrix(n, k, -1.0, 1.0, 11);
                let w = rand_matrix(rows, k, 0.0, 1.0, 12);
                for wm in [None, Some(&w)] {
                    let want = single_chain_mmchain(&x, &v, wm);
                    let got = widths_agree("pin-mmchain", || mmchain(&x, &v, wm).expect("shapes"));
                    assert!(agree(&got, &want), "mmchain k = {k}, {at}");
                    let got = widths_agree("pin-c-mmchain", || {
                        Tensor::Compressed(c.clone())
                            .mmchain(&v, wm)
                            .expect("shapes")
                    });
                    assert!(agree(&got, &want), "compressed mmchain k = {k}, {at}");
                }
            }
            // Wide products: t(P) X with 20 rows of P, and an output of
            // more than 2^14 cells.
            let p = rand_matrix(rows, 20, 0.0, 1.0, 13);
            let got = widths_agree("pin-tpx", || matmul_tn(&p, &x).expect("shapes"));
            assert!(agree(&got, &single_chain_tn(&p, &x)), "t(P) X, {at}");
            if !special && rows == 2048 {
                let a = rand_matrix(rows, 130, -1.0, 1.0, 14);
                let got = widths_agree("pin-wide", || matmul_tn(&a, &a).expect("shapes"));
                assert!(same_bits(&got, &single_chain_tn(&a, &a)), "130 x 130, {at}");
            }
            let got = widths_agree("pin-tsmm", || tsmm(&x, true).expect("shapes"));
            assert!(agree(&got, &single_chain_tn(&x, &x)), "tsmm, {at}");
            for op in [AggOp::Sum, AggOp::Mean, AggOp::SumSq, AggOp::Var, AggOp::Sd] {
                for dir in [AggDir::Full, AggDir::Col] {
                    let want = single_chain_aggregate(&x, op, dir);
                    let got = widths_agree("pin-agg", || aggregate(&x, op, dir).expect("agg"));
                    assert!(agree(&got, &want), "{}/{dir:?}, {at}", op.name());
                    let got = widths_agree("pin-c-agg", || c.aggregate(op, dir).expect("agg"));
                    assert!(agree(&got, &want), "compressed {}/{dir:?}, {at}", op.name());
                }
            }
        }
    }
    // The depth of `matmul`, on the GEMM, the matrix-vector and the
    // vector-matrix paths.
    for depth in [1, 257, 2047, 2048] {
        let a = rand_matrix(5, depth, -1.0, 1.0, 21);
        let row = rand_matrix(1, depth, -1.0, 1.0, 22);
        for b in [
            rand_matrix(depth, 9, -1.0, 1.0, 23),
            rand_matrix(depth, 1, -1.0, 1.0, 24),
        ] {
            for a in [&a, &row] {
                let want = single_chain_tn(&transpose(a), &b);
                let got = widths_agree("pin-gemm", || matmul(a, &b).expect("shapes"));
                assert!(
                    same_bits(&got, &want),
                    "matmul depth {depth}, {:?}",
                    b.shape()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_reductions_follow_the_blocked_rule_at_widths_1_to_4(
        rows in prop_oneof![1usize..=40, block_edge()],
        schemes in proptest::collection::vec(scheme(), 1..=9),
        k in 1usize..=4,
        special in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // Dense and compressed, columns of every scheme, NaN, ±Inf and
        // -0.0 among the cells with `special`.
        let x = scheme_matrix(rows, &schemes, seed, special);
        let y = rand_matrix(rows, k, -1.0, 1.0, seed + 1);
        reductions_match_the_rule(&x, &y, special, seed);
    }

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
        m in prop_oneof![1usize..=70, 95usize..=130, block_edge()],
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
    fn k_column_mmchain_is_bitwise_k_single_columns(
        rows in prop_oneof![1usize..=40, 508usize..=520, 1usize..=2500, block_edge()],
        schemes in proptest::collection::vec(scheme(), 1..=13),
        k in 1usize..=9,
        weighted in proptest::bool::ANY,
        special in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // Local and compressed `X`, 1..=13 columns (off the 4-column
        // transposes), rows across the 16-row lane groups and the row
        // block: every column of one k-column call is the single-column
        // two-phase kernel on its own `(v_j, w_j)`.
        let d = scheme_matrix(rows, &schemes, seed, special);
        let v = rand_matrix(d.cols(), k, -1.0, 1.0, seed + 1);
        let w = rand_matrix(rows, k, 0.0, 1.0, seed + 2);
        let wm = weighted.then_some(&w);
        let column = |m: &DenseMatrix, j: usize| {
            DenseMatrix::new(m.rows(), 1, (0..m.rows()).map(|r| m.get(r, j)).collect())
                .expect("one column")
        };
        let mut want = DenseMatrix::zeros(d.cols(), k);
        for j in 0..k {
            let wj = wm.map(|w| column(w, j));
            let col = mmchain_two_phase(&d, &column(&v, j), wj.as_ref()).expect("shapes");
            for r in 0..d.cols() {
                want.set(r, j, col.get(r, 0));
            }
        }
        // NaN payloads are the one thing a code path may pick (see
        // `same_cells`); without planted specials the bits are exact.
        let agree = |a: &DenseMatrix, b: &DenseMatrix| {
            if special { same_cells(a, b) } else { same_bits(a, b) }
        };
        let local = Tensor::Local(d.clone());
        let got = widths_agree("k-mmchain", || local.mmchain(&v, wm).expect("shapes"));
        prop_assert!(agree(&got, &want), "local, k = {}, weighted: {}", k, weighted);
        let compressed = Tensor::Compressed(CompressedMatrix::compress(&d));
        let got = widths_agree("c-k-mmchain", || compressed.mmchain(&v, wm).expect("shapes"));
        prop_assert!(agree(&got, &want), "compressed, k = {}, weighted: {}", k, weighted);
    }

    #[test]
    fn blocked_tsmm_is_bitwise_explicit_product(
        m in depth_dim(),
        n in tile_dim(6),
        left in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // `X Xᵀ` is m x m: rows across the reduction blocks take the
        // left product, whose shared index they are.
        let left = left || m > 2 * KC + 2;
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
        rows in prop_oneof![2usize..=300, block_edge()],
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
    fn compressed_elementwise_ops_match_their_dense_kernels(
        rows in 1usize..=300,
        s in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let d = mixed_matrix(rows, seed);
        let c = CompressedMatrix::compress(&d);
        for op in [UnaryOp::Exp, UnaryOp::Sigmoid, UnaryOp::Abs, UnaryOp::Round] {
            let got = widths_agree("c-unary", || c.unary(op).decompress());
            prop_assert!(same_bits(&got, &unary(&d, op)));
        }
        for (op, swap) in [(BinaryOp::Mul, false), (BinaryOp::Sub, true), (BinaryOp::Div, true)] {
            let got = widths_agree("c-scalar", || c.scalar(op, s, swap).decompress());
            prop_assert!(same_bits(&got, &scalar(&d, op, s, swap)), "{:?} swap {}", op, swap);
        }
        // Column 1 is the constant 3.25, column 0 takes -2..=2.
        for pattern in [3.25, 0.0, f64::NAN] {
            let got = widths_agree("c-replace", || c.replace(pattern, s).decompress());
            prop_assert!(same_bits(&got, &replace(&d, pattern, s)));
        }
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

    #[test]
    fn tiled_compressed_products_match_dense_kernels_on_every_scheme_mix(
        rows in prop_oneof![
            1usize..=40,
            508usize..=520,
            1020usize..=1030,
            1usize..=2500,
            block_edge(),
        ],
        schemes in proptest::collection::vec(scheme(), 1..=13),
        k in 1usize..=9,
        special in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // Up to 13 columns: four-column sweeps over runs of DDC8 groups
        // and their tails; rows across the row tile and the 4-row unroll.
        let d = scheme_matrix(rows, &schemes, seed, special);
        products_match_dense_kernels(&d, k, seed);
    }

    #[test]
    fn compressed_products_on_ddc8_runs_match_dense_kernels(
        rows in prop_oneof![1usize..=40, 508usize..=520, 1usize..=2500, block_edge()],
        schemes in ddc8_runs(),
        k in prop_oneof![Just(1usize), Just(3usize), 1usize..=9],
        special in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // Runs of 8 and more DDC8 groups of at most 16 entries, decoded
        // in registers where the CPU has AVX-512, and their leftovers.
        let d = scheme_matrix(rows, &schemes, seed, special);
        products_match_dense_kernels(&d, k, seed);
    }
}
