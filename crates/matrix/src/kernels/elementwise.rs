//! Element-wise unary and binary kernels (Table 1 "Unary"/"Binary" rows),
//! including row/column-vector broadcasting as used by the federated plans
//! (e.g. `X - colMeans(X)` broadcasts a `1 x c` vector over rows).

use super::PAR_MIN_WORK;
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// A fresh matrix shaped like `x`, filled by `body(first cell, cells)` over
/// disjoint output chunks of `chunk` cells fanned out across the pool.
/// `body` is the per-op loop; the fan-out around it is compiled once.
fn fill(x: &DenseMatrix, chunk: usize, body: &(dyn Fn(usize, &mut [f64]) + Sync)) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(x.rows(), x.cols());
    exdra_par::par_chunks_mut(out.values_mut(), chunk, |_, c0, part| body(c0, part));
    out
}

/// Cells per chunk of a cell-wise kernel over `x`.
fn cell_chunk(x: &DenseMatrix) -> usize {
    exdra_par::chunk_len(x.len(), PAR_MIN_WORK)
}

/// Cell-parallel map: fills a fresh matrix from `x`'s cells through `f`.
/// Each cell depends on exactly one input cell, so the result is bitwise
/// identical at any thread count.
fn map_cells(x: &DenseMatrix, f: impl Fn(f64) -> f64 + Sync) -> DenseMatrix {
    let xv = x.values();
    fill(x, cell_chunk(x), &|c0, part| {
        for (o, &v) in part.iter_mut().zip(&xv[c0..]) {
            *o = f(v);
        }
    })
}

/// Unary element-wise operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Absolute value.
    Abs,
    /// Cosine.
    Cos,
    /// Sine.
    Sin,
    /// Tangent.
    Tan,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Round half away from zero.
    Round,
    /// Floor.
    Floor,
    /// Ceiling.
    Ceil,
    /// Sign (-1, 0, 1).
    Sign,
    /// Logical negation: `x == 0 -> 1`, else `0`.
    Not,
    /// 1.0 where the value is NaN, 0.0 otherwise (`isNA`).
    IsNa,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Unary minus.
    Neg,
    /// Square (`x * x`), a common fused shorthand.
    Square,
}

impl UnaryOp {
    /// Scalar semantics of the operation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Abs => x.abs(),
            UnaryOp::Cos => x.cos(),
            UnaryOp::Sin => x.sin(),
            UnaryOp::Tan => x.tan(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Log => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Round => {
                if x >= 0.0 {
                    (x + 0.5).floor()
                } else {
                    (x - 0.5).ceil()
                }
            }
            UnaryOp::Floor => x.floor(),
            UnaryOp::Ceil => x.ceil(),
            UnaryOp::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Not => {
                if x == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::IsNa => {
                if x.is_nan() {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Neg => -x,
            UnaryOp::Square => x * x,
        }
    }

    /// Canonical instruction name (used by plan explain strings).
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Abs => "abs",
            UnaryOp::Cos => "cos",
            UnaryOp::Sin => "sin",
            UnaryOp::Tan => "tan",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Round => "round",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Sign => "sign",
            UnaryOp::Not => "!",
            UnaryOp::IsNa => "isNA",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Neg => "-",
            UnaryOp::Square => "sq",
        }
    }
}

/// Applies a unary operation cell-wise. The op is matched once per call:
/// each arm compiles its own loop with `apply` fixed to one variant.
pub fn unary(x: &DenseMatrix, op: UnaryOp) -> DenseMatrix {
    macro_rules! per_op {
        ($($v:ident)+) => {
            match op {
                $(UnaryOp::$v => map_cells(x, |v| UnaryOp::$v.apply(v)),)+
            }
        };
    }
    per_op!(Abs Cos Sin Tan Exp Log Sqrt Round Floor Ceil Sign Not IsNa Sigmoid Neg Square)
}

/// Row-wise softmax: `exp(x - rowMax) / rowSum(exp(..))`, numerically stable.
///
/// Listed in Table 1's unary row; operates per row as in SystemDS. Rows are
/// independent, so they fan out in row-aligned blocks.
pub fn softmax(x: &DenseMatrix) -> DenseMatrix {
    let (rows, cols) = x.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    if rows == 0 || cols == 0 {
        return out;
    }
    let xv = x.values();
    let rows_per_chunk = exdra_par::chunk_len(rows, super::par_floor(3 * cols));
    exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk * cols, |_, cell0, part| {
        let r0 = cell0 / cols;
        for (dr, orow) in part.chunks_mut(cols).enumerate() {
            let row = &xv[(r0 + dr) * cols..(r0 + dr + 1) * cols];
            let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = (v - mx).exp();
                sum += *o;
            }
            if sum > 0.0 {
                for o in orow.iter_mut() {
                    *o /= sum;
                }
            }
        }
    });
    out
}

/// Binary element-wise operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (Hadamard).
    Mul,
    /// Division.
    Div,
    /// Integer division (`%/%`).
    IntDiv,
    /// Modulus (`%%`).
    Mod,
    /// Power (`^`).
    Pow,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Equality comparison producing 0/1.
    Eq,
    /// Inequality comparison producing 0/1.
    Neq,
    /// Less-than producing 0/1.
    Lt,
    /// Less-or-equal producing 0/1.
    Le,
    /// Greater-than producing 0/1.
    Gt,
    /// Greater-or-equal producing 0/1.
    Ge,
    /// Logical and (non-zero = true) producing 0/1.
    And,
    /// Logical or producing 0/1.
    Or,
    /// Logical xor producing 0/1.
    Xor,
    /// Logarithm of `lhs` to base `rhs` (`log(x, base)`).
    LogBase,
}

impl BinaryOp {
    /// Scalar semantics of the operation.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        let t = |c: bool| if c { 1.0 } else { 0.0 };
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::IntDiv => (a / b).floor(),
            BinaryOp::Mod => a - (a / b).floor() * b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::Eq => t(a == b),
            BinaryOp::Neq => t(a != b),
            BinaryOp::Lt => t(a < b),
            BinaryOp::Le => t(a <= b),
            BinaryOp::Gt => t(a > b),
            BinaryOp::Ge => t(a >= b),
            BinaryOp::And => t(a != 0.0 && b != 0.0),
            BinaryOp::Or => t(a != 0.0 || b != 0.0),
            BinaryOp::Xor => t((a != 0.0) ^ (b != 0.0)),
            BinaryOp::LogBase => a.ln() / b.ln(),
        }
    }

    /// Canonical instruction name.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::IntDiv => "%/%",
            BinaryOp::Mod => "%%",
            BinaryOp::Pow => "^",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
            BinaryOp::Xor => "xor",
            BinaryOp::LogBase => "log",
        }
    }

    /// True when the op is commutative (used by plan canonicalization for
    /// lineage-based reuse).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinaryOp::Add
                | BinaryOp::Mul
                | BinaryOp::Min
                | BinaryOp::Max
                | BinaryOp::Eq
                | BinaryOp::Neq
                | BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Xor
        )
    }
}

/// The right operand of a binary kernel, as it broadcasts over the left.
#[derive(Debug, Clone, Copy)]
enum Rhs<'a> {
    /// An equally shaped matrix.
    Cells(&'a [f64]),
    /// A `1 x c` row vector broadcast over rows.
    RowVector(&'a [f64]),
    /// An `r x 1` column vector broadcast over columns.
    ColVector(&'a [f64]),
    /// A scalar: `X op s`, or `s op X` when the flag (`swap`) is set.
    Scalar(f64, bool),
}

fn classify<'a>(lhs: &DenseMatrix, rhs: &'a DenseMatrix) -> Option<Rhs<'a>> {
    let bv = rhs.values();
    if lhs.shape() == rhs.shape() {
        Some(Rhs::Cells(bv))
    } else if rhs.is_scalar() {
        Some(Rhs::Scalar(bv[0], false))
    } else if rhs.rows() == 1 && rhs.cols() == lhs.cols() {
        Some(Rhs::RowVector(bv))
    } else if rhs.cols() == 1 && rhs.rows() == lhs.rows() {
        Some(Rhs::ColVector(bv))
    } else {
        None
    }
}

/// `op` over `lhs` and the broadcast `rhs`. The op is matched once per
/// call: each arm compiles [`zip_with`]'s loops with `apply` fixed to one
/// variant, so they vectorise wherever the op does.
fn binary_kernel(lhs: &DenseMatrix, op: BinaryOp, rhs: Rhs) -> DenseMatrix {
    macro_rules! per_op {
        ($($v:ident)+) => {
            match op {
                $(BinaryOp::$v => zip_with(lhs, rhs, |a, b| BinaryOp::$v.apply(a, b)),)+
            }
        };
    }
    per_op!(Add Sub Mul Div IntDiv Mod Pow Min Max Eq Neq Lt Le Gt Ge And Or Xor LogBase)
}

/// Fills a fresh matrix with `f(lhs cell, rhs cell)`. Each arm fans
/// disjoint output chunks (cell-aligned, or row-aligned when a vector
/// broadcasts) out across the pool; every cell reads fixed inputs, so
/// bits are identical at any thread count.
fn zip_with(lhs: &DenseMatrix, rhs: Rhs, f: impl Fn(f64, f64) -> f64 + Sync) -> DenseMatrix {
    let lv = lhs.values();
    let cols = lhs.cols();
    let row_chunk = || exdra_par::chunk_len(lhs.rows(), super::par_floor(cols)) * cols;
    match rhs {
        Rhs::Scalar(b, false) => map_cells(lhs, |a| f(a, b)),
        Rhs::Scalar(a, true) => map_cells(lhs, |b| f(a, b)),
        Rhs::Cells(bv) => fill(lhs, cell_chunk(lhs), &|c0, part| {
            for ((o, &a), &b) in part.iter_mut().zip(&lv[c0..]).zip(&bv[c0..]) {
                *o = f(a, b);
            }
        }),
        Rhs::RowVector(bv) => fill(lhs, row_chunk(), &|c0, part| {
            for (orow, lrow) in part.chunks_mut(cols).zip(lv[c0..].chunks(cols)) {
                for ((o, &a), &b) in orow.iter_mut().zip(lrow).zip(bv) {
                    *o = f(a, b);
                }
            }
        }),
        Rhs::ColVector(bv) => fill(lhs, row_chunk(), &|c0, part| {
            let rows = part.chunks_mut(cols).zip(lv[c0..].chunks(cols));
            for ((orow, lrow), &b) in rows.zip(&bv[c0 / cols..]) {
                for (o, &a) in orow.iter_mut().zip(lrow) {
                    *o = f(a, b);
                }
            }
        }),
    }
}

/// Matrix-matrix binary operation with SystemDS-style broadcasting: the right
/// operand may be an equally-shaped matrix, a row vector (`1 x c`), a column
/// vector (`r x 1`), or a `1 x 1` scalar.
pub fn binary(lhs: &DenseMatrix, op: BinaryOp, rhs: &DenseMatrix) -> Result<DenseMatrix> {
    let rhs = classify(lhs, rhs).ok_or(MatrixError::DimensionMismatch {
        op: "binary",
        lhs: lhs.shape(),
        rhs: rhs.shape(),
    })?;
    Ok(binary_kernel(lhs, op, rhs))
}

/// Matrix-scalar binary operation; `swap` computes `scalar op matrix`
/// instead of `matrix op scalar` (needed for non-commutative ops like `1-X`).
pub fn scalar(lhs: &DenseMatrix, op: BinaryOp, s: f64, swap: bool) -> DenseMatrix {
    binary_kernel(lhs, op, Rhs::Scalar(s, swap))
}

/// Covariance between two equal-length vectors (Table 1 `cov`), using the
/// unbiased (n-1) estimator.
pub fn cov(a: &DenseMatrix, b: &DenseMatrix) -> Result<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return Err(MatrixError::InvalidArgument {
            op: "cov",
            msg: format!(
                "need equal-length vectors of >=2 cells, got {} and {}",
                a.len(),
                b.len()
            ),
        });
    }
    let n = a.len() as f64;
    let ma = a.values().iter().sum::<f64>() / n;
    let mb = b.values().iter().sum::<f64>() / n;
    let s: f64 = a
        .values()
        .iter()
        .zip(b.values())
        .map(|(&x, &y)| (x - ma) * (y - mb))
        .sum();
    Ok(s / (n - 1.0))
}

/// Central moment of order 2..4 of a vector (Table 1 `cm`).
pub fn central_moment(a: &DenseMatrix, order: u32) -> Result<f64> {
    if a.is_empty() {
        return Err(MatrixError::InvalidArgument {
            op: "cm",
            msg: "empty input".into(),
        });
    }
    if !(2..=4).contains(&order) {
        return Err(MatrixError::InvalidArgument {
            op: "cm",
            msg: format!("order {order} not in 2..=4"),
        });
    }
    let n = a.len() as f64;
    let mean = a.values().iter().sum::<f64>() / n;
    let s: f64 = a
        .values()
        .iter()
        .map(|&x| (x - mean).powi(order as i32))
        .sum();
    Ok(s / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rand_matrix;

    #[test]
    fn unary_ops_scalar_semantics() {
        assert_eq!(UnaryOp::Round.apply(2.5), 3.0);
        assert_eq!(UnaryOp::Round.apply(-2.5), -3.0);
        assert_eq!(UnaryOp::Sign.apply(-0.3), -1.0);
        assert_eq!(UnaryOp::Not.apply(0.0), 1.0);
        assert_eq!(UnaryOp::IsNa.apply(f64::NAN), 1.0);
        assert_eq!(UnaryOp::IsNa.apply(1.0), 0.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = rand_matrix(5, 7, -3.0, 3.0, 11);
        let s = softmax(&x);
        for r in 0..5 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn binary_broadcast_row_vector() {
        let x = DenseMatrix::new(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let v = DenseMatrix::row_vector(&[10., 20., 30.]);
        let got = binary(&x, BinaryOp::Add, &v).unwrap();
        assert_eq!(got.values(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn binary_broadcast_col_vector() {
        let x = DenseMatrix::new(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let v = DenseMatrix::col_vector(&[10., 100.]);
        let got = binary(&x, BinaryOp::Mul, &v).unwrap();
        assert_eq!(got.values(), &[10., 20., 30., 400., 500., 600.]);
    }

    #[test]
    fn binary_broadcast_scalar_matrix() {
        let x = DenseMatrix::new(1, 3, vec![1., 2., 3.]).unwrap();
        let s = DenseMatrix::filled(1, 1, 2.0);
        let got = binary(&x, BinaryOp::Pow, &s).unwrap();
        assert_eq!(got.values(), &[1., 4., 9.]);
    }

    #[test]
    fn binary_rejects_incompatible_shapes() {
        let x = DenseMatrix::zeros(2, 3);
        let y = DenseMatrix::zeros(3, 2);
        assert!(binary(&x, BinaryOp::Add, &y).is_err());
    }

    #[test]
    fn scalar_swap_order() {
        let x = DenseMatrix::new(1, 2, vec![1., 4.]).unwrap();
        let a = scalar(&x, BinaryOp::Sub, 1.0, false);
        assert_eq!(a.values(), &[0., 3.]);
        let b = scalar(&x, BinaryOp::Sub, 1.0, true);
        assert_eq!(b.values(), &[0., -3.]);
    }

    #[test]
    fn modulus_matches_r_semantics() {
        // R-style %%: result has the sign of the divisor.
        assert_eq!(BinaryOp::Mod.apply(5.0, 3.0), 2.0);
        assert_eq!(BinaryOp::Mod.apply(-5.0, 3.0), 1.0);
        assert_eq!(BinaryOp::IntDiv.apply(-5.0, 3.0), -2.0);
    }

    #[test]
    fn cov_matches_manual() {
        let a = DenseMatrix::col_vector(&[1., 2., 3., 4.]);
        let b = DenseMatrix::col_vector(&[2., 4., 6., 8.]);
        // cov(a, 2a) = 2 var(a); var([1..4]) = 5/3
        assert!((cov(&a, &b).unwrap() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn central_moment_order2_is_population_variance() {
        let a = DenseMatrix::col_vector(&[1., 2., 3., 4.]);
        assert!((central_moment(&a, 2).unwrap() - 1.25).abs() < 1e-12);
        assert!(central_moment(&a, 5).is_err());
    }
}
