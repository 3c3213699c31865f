//! Reference element-wise and aggregate kernels: one serial loop per
//! kernel that calls `op.apply` for every cell and carries all four
//! aggregate chains (sum, sum of squares, min, max) through every cell
//! whatever the op returns. The library kernels specialise both per op;
//! they must reproduce these loops bit for bit.

use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::DenseMatrix;

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
/// top to bottom.
pub fn aggregate(x: &DenseMatrix, op: AggOp, dir: AggDir) -> DenseMatrix {
    let (rows, cols) = x.shape();
    match dir {
        AggDir::Full => {
            let mut s = Stats::new();
            x.values().iter().for_each(|&v| s.push(v));
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
                let mut s = Stats::new();
                (0..rows).for_each(|r| s.push(x.get(r, c)));
                out.set(0, c, s.finish(op, rows as f64));
            }
            out
        }
    }
}
