//! Reference element-wise, aggregate and product kernels: one serial
//! loop per kernel that calls `op.apply` for every cell and carries all
//! four aggregate chains (sum, sum of squares, min, max) through every
//! cell whatever the op returns. The library kernels specialise both per
//! op and fan reductions out; they must reproduce these loops bit for bit.
//!
//! Every reduction over a row index follows the one reduction order,
//! written out here from its rule: the rows are cut into blocks of
//! [`BLOCK_ROWS`] counted from row 0, each output cell runs one ascending
//! chain per block starting from 0.0, and the block partials fold in
//! ascending block order starting from block 0's.

use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::DenseMatrix;

/// Rows per block of the reduction order.
pub const BLOCK_ROWS: usize = 2048;

/// The rows of each block of `0..rows`, ascending.
fn blocks(rows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..rows)
        .step_by(BLOCK_ROWS)
        .map(move |b0| b0..(b0 + BLOCK_ROWS).min(rows))
}

/// One output cell of a sum over rows `0..rows`: a chain of `term(r)`
/// per block, the block sums folded in order.
pub fn reduce_rows(rows: usize, term: impl Fn(usize) -> f64) -> f64 {
    blocks(rows)
        .map(|block| block.fold(0.0, |acc, r| acc + term(r)))
        .reduce(|total, part| total + part)
        .unwrap_or(0.0)
}

/// `lhs %*% rhs`, each cell reduced over the depth.
pub fn matmul(lhs: &DenseMatrix, rhs: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(lhs.rows(), rhs.cols());
    for i in 0..lhs.rows() {
        for j in 0..rhs.cols() {
            out.set(
                i,
                j,
                reduce_rows(lhs.cols(), |k| lhs.get(i, k) * rhs.get(k, j)),
            );
        }
    }
    out
}

/// `t(a) %*% b`, each cell reduced over the shared rows.
pub fn t_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            out.set(i, j, reduce_rows(a.rows(), |r| a.get(r, i) * b.get(r, j)));
        }
    }
    out
}

/// `t(x) (w ⊙ (x v))`: the row dots reduced over the columns, weighted,
/// then reduced over the rows.
pub fn mmchain(x: &DenseMatrix, v: &DenseMatrix, w: Option<&DenseMatrix>) -> DenseMatrix {
    let xv = matmul(x, v);
    let q = match w {
        Some(w) => xv.zip(w, "mmchain", |d, w| d * w).expect("w is rows x k"),
        None => xv,
    };
    t_matmul(x, &q)
}

/// `op` on every cell.
pub fn unary(x: &DenseMatrix, op: UnaryOp) -> DenseMatrix {
    x.map(|v| op.apply(v))
}

/// `x op s`, or `s op x` with `swap`.
pub fn scalar(x: &DenseMatrix, op: BinaryOp, s: f64, swap: bool) -> DenseMatrix {
    x.map(|v| if swap { op.apply(s, v) } else { op.apply(v, s) })
}

/// `lhs op rhs` with `rhs` an equally shaped matrix, a `1 x 1` scalar, a
/// `1 x c` row vector or an `r x 1` column vector, in that order of
/// precedence.
pub fn binary(lhs: &DenseMatrix, op: BinaryOp, rhs: &DenseMatrix) -> DenseMatrix {
    let (rows, cols) = lhs.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let b = if rhs.shape() == (rows, cols) {
                rhs.get(r, c)
            } else if rhs.shape() == (1, 1) {
                rhs.get(0, 0)
            } else if rhs.shape() == (1, cols) {
                rhs.get(0, c)
            } else {
                assert_eq!(rhs.shape(), (rows, 1), "no broadcast fits");
                rhs.get(r, 0)
            };
            out.set(r, c, op.apply(lhs.get(r, c), b));
        }
    }
    out
}

/// The four running chains of one aggregate output cell.
struct Stats {
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Stats {
    fn new() -> Self {
        Stats {
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Strict comparisons for min and max: a NaN cell or a zero of the
    /// other sign never replaces the running value. (The row and full
    /// loops called `f64::min` / `f64::max`, which compile to the same
    /// pick on x86-64; Rust leaves their `+0.0`/`-0.0` tie to the target.)
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.sumsq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Folds the next row block's chains into these.
    fn merge(&mut self, next: &Stats) {
        self.sum += next.sum;
        self.sumsq += next.sumsq;
        if next.min < self.min {
            self.min = next.min;
        }
        if next.max > self.max {
            self.max = next.max;
        }
    }

    /// The chains over rows `0..rows`, `cells(r, push)` pushing row `r`'s
    /// cells in order: one `Stats` per block, folded.
    fn over_rows(rows: usize, cells: impl Fn(usize, &mut Stats)) -> Stats {
        let parts = blocks(rows).map(|block| {
            let mut s = Stats::new();
            block.for_each(|r| cells(r, &mut s));
            s
        });
        parts
            .reduce(|mut total, part| {
                total.merge(&part);
                total
            })
            .unwrap_or_else(Stats::new)
    }

    fn finish(&self, op: AggOp, n: f64) -> f64 {
        match op {
            AggOp::Sum => self.sum,
            AggOp::SumSq => self.sumsq,
            AggOp::Min => self.min,
            AggOp::Max => self.max,
            AggOp::Mean => self.sum / n,
            AggOp::Var | AggOp::Sd => {
                if n < 2.0 {
                    return f64::NAN;
                }
                let var = ((self.sumsq - self.sum * self.sum / n) / (n - 1.0)).max(0.0);
                if op == AggOp::Var {
                    var
                } else {
                    var.sqrt()
                }
            }
        }
    }
}

/// `op` along `dir`: full and row aggregates row-major, each column
/// top to bottom; full and column ones in row blocks.
pub fn aggregate(x: &DenseMatrix, op: AggOp, dir: AggDir) -> DenseMatrix {
    let (rows, cols) = x.shape();
    match dir {
        AggDir::Full => {
            let s = Stats::over_rows(rows, |r, s| x.row(r).iter().for_each(|&v| s.push(v)));
            DenseMatrix::filled(1, 1, s.finish(op, (rows * cols) as f64))
        }
        AggDir::Row => {
            let mut out = DenseMatrix::zeros(rows, 1);
            for r in 0..rows {
                let mut s = Stats::new();
                x.row(r).iter().for_each(|&v| s.push(v));
                out.set(r, 0, s.finish(op, cols as f64));
            }
            out
        }
        AggDir::Col => {
            let mut out = DenseMatrix::zeros(1, cols);
            for c in 0..cols {
                let s = Stats::over_rows(rows, |r, s| s.push(x.get(r, c)));
                out.set(0, c, s.finish(op, rows as f64));
            }
            out
        }
    }
}
