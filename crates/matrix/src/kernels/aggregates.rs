//! Aggregate kernels (Table 1 "Aggregates" row): full, row-wise, and
//! column-wise `sum/min/max/mean/var/sd`, plus index-of aggregates.
//!
//! The federated runtime decomposes these over partitions; the partial
//! statistics combined by the coordinator (count/sum/sum-of-squares for
//! variance) are produced by the same kernels, so partition-combine laws are
//! property-tested here.
//!
//! Full and Col aggregates reduce over the row index, so they follow the
//! one reduction order (DESIGN.md §4f): a chain per
//! [`REDUCE_BLOCK_ROWS`](super::REDUCE_BLOCK_ROWS) block of rows, the
//! block partials folded in order (`Chains::merge`), the row blocks
//! fanned out over the pool. Row aggregates reduce along a row and keep
//! one chain per row.

use super::fold_row_blocks;
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Aggregate function selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean.
    Mean,
    /// Unbiased sample variance.
    Var,
    /// Unbiased sample standard deviation.
    Sd,
    /// Sum of squared values (internal partial for Var/Sd; also `sumSq`).
    SumSq,
}

impl AggOp {
    /// Canonical instruction name.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Mean => "mean",
            AggOp::Var => "var",
            AggOp::Sd => "sd",
            AggOp::SumSq => "sumSq",
        }
    }
}

/// Aggregation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggDir {
    /// Aggregate over all cells to a `1 x 1` result.
    Full,
    /// Aggregate each row to an `r x 1` column vector (`rowSums`, ...).
    Row,
    /// Aggregate each column to a `1 x c` row vector (`colSums`, ...).
    Col,
}

/// The running chains of one aggregate: only those its op returns, each
/// extended one cell at a time in the order the caller visits the cells.
/// The dense kernel and the column-group kernel share these, so they share
/// the definition of every chain.
pub(crate) trait Chains: Copy + Send + Sync {
    /// Every chain before its first cell.
    const START: Self;
    /// Extends every chain by one cell.
    fn push(&mut self, v: f64);
    /// Folds the chains of the next row block into these: sums add,
    /// min and max compare as one more cell would.
    fn merge(&mut self, next: Self);
    /// The value of `op` over the `n` cells pushed.
    fn finish(self, op: AggOp, n: f64) -> f64;
}

/// `sum` and `mean`.
#[derive(Clone, Copy)]
struct Sum(f64);

/// `sumSq`.
#[derive(Clone, Copy)]
struct SumSq(f64);

/// `var` and `sd`: the sum and sum-of-squares chains side by side.
#[derive(Clone, Copy)]
struct Moments(f64, f64);

/// `min`: neither a NaN cell nor a zero of the other sign replaces the
/// running value.
#[derive(Clone, Copy)]
struct Min(f64);

/// `max`: neither a NaN cell nor a zero of the other sign replaces the
/// running value.
#[derive(Clone, Copy)]
struct Max(f64);

impl Chains for Sum {
    const START: Self = Sum(0.0);
    fn push(&mut self, v: f64) {
        self.0 += v;
    }
    fn merge(&mut self, next: Self) {
        self.0 += next.0;
    }
    fn finish(self, op: AggOp, n: f64) -> f64 {
        if op == AggOp::Mean {
            self.0 / n
        } else {
            self.0
        }
    }
}

impl Chains for SumSq {
    const START: Self = SumSq(0.0);
    fn push(&mut self, v: f64) {
        self.0 += v * v;
    }
    fn merge(&mut self, next: Self) {
        self.0 += next.0;
    }
    fn finish(self, _: AggOp, _: f64) -> f64 {
        self.0
    }
}

impl Chains for Moments {
    const START: Self = Moments(0.0, 0.0);
    fn push(&mut self, v: f64) {
        self.0 += v;
        self.1 += v * v;
    }
    fn merge(&mut self, next: Self) {
        self.0 += next.0;
        self.1 += next.1;
    }
    fn finish(self, op: AggOp, n: f64) -> f64 {
        if n < 2.0 {
            return f64::NAN;
        }
        let Moments(sum, sumsq) = self;
        let var = (sumsq - sum * sum / n) / (n - 1.0);
        let var = var.max(0.0); // guard tiny negative from cancellation
        if op == AggOp::Var {
            var
        } else {
            var.sqrt()
        }
    }
}

impl Chains for Min {
    const START: Self = Min(f64::INFINITY);
    fn push(&mut self, v: f64) {
        // A comparison, not `f64::min`, whose pick on a `+0.0`/`-0.0`
        // tie Rust leaves to the target.
        if v < self.0 {
            self.0 = v;
        }
    }
    fn merge(&mut self, next: Self) {
        self.push(next.0);
    }
    fn finish(self, _: AggOp, _: f64) -> f64 {
        self.0
    }
}

impl Chains for Max {
    const START: Self = Max(f64::NEG_INFINITY);
    fn push(&mut self, v: f64) {
        if v > self.0 {
            self.0 = v;
        }
    }
    fn merge(&mut self, next: Self) {
        self.push(next.0);
    }
    fn finish(self, _: AggOp, _: f64) -> f64 {
        self.0
    }
}

/// One representation's cell walk for every aggregate, generic over the
/// chains so that each op compiles a loop carrying only its own.
pub(crate) trait AggKernel: Copy {
    /// `(rows, cols)` of the input.
    fn shape(self) -> (usize, usize);
    /// `op` along `dir` over a non-empty input (or an empty one for the
    /// ops that allow it), cells visited in the dense kernel's order.
    fn walk<C: Chains>(self, op: AggOp, dir: AggDir) -> DenseMatrix;
}

/// Every column's chains over `0..rows` in the one reduction order, with
/// `step(rows, acc)` extending all `cols` chains over one row block: the
/// row blocks fan out over the pool and their partials fold in order. A
/// partial is one chain per column, 1/2048 of its block's cells, so no
/// width of input needs a column split.
pub(crate) fn col_chains<C: Chains>(
    rows: usize,
    cols: usize,
    step: impl Fn(std::ops::Range<usize>, &mut [C]) + Sync,
) -> Vec<C> {
    if cols == 0 {
        return Vec::new();
    }
    let fold = fold_row_blocks(
        rows,
        cols,
        |block| {
            let mut acc = vec![C::START; cols];
            step(block, &mut acc);
            acc
        },
        |total, next| total.iter_mut().zip(next).for_each(|(t, n)| t.merge(n)),
    );
    fold.unwrap_or_else(|| vec![C::START; cols])
}

/// Rejects an empty input for min/max/mean/var/sd, then walks `x` with the
/// chains `op` returns — the op is matched once per call, not per cell.
pub(crate) fn run(x: impl AggKernel, op: AggOp, dir: AggDir) -> Result<DenseMatrix> {
    let (r, c) = x.shape();
    if r * c == 0 && !matches!(op, AggOp::Sum | AggOp::SumSq) {
        return Err(MatrixError::InvalidArgument {
            op: op.name(),
            msg: "aggregate of empty matrix".into(),
        });
    }
    Ok(match op {
        AggOp::Sum | AggOp::Mean => x.walk::<Sum>(op, dir),
        AggOp::SumSq => x.walk::<SumSq>(op, dir),
        AggOp::Var | AggOp::Sd => x.walk::<Moments>(op, dir),
        AggOp::Min => x.walk::<Min>(op, dir),
        AggOp::Max => x.walk::<Max>(op, dir),
    })
}

/// Computes an aggregate of `x` along `dir`.
///
/// Full and Col aggregates reduce over the rows in 2048-row blocks fanned
/// out over the pool, a chain per block, the blocks folded in order (the
/// module docs); Row aggregates split the rows. Either way the bits are
/// the same at every thread count. Full aggregates return a `1 x 1`
/// matrix so the result can flow through matrix-typed plans (the runtime
/// unwraps scalars where needed). Empty inputs are rejected for
/// min/max/mean/var/sd.
pub fn aggregate(x: &DenseMatrix, op: AggOp, dir: AggDir) -> Result<DenseMatrix> {
    run(x, op, dir)
}

impl AggKernel for &DenseMatrix {
    fn shape(self) -> (usize, usize) {
        DenseMatrix::shape(self)
    }

    fn walk<C: Chains>(self, op: AggOp, dir: AggDir) -> DenseMatrix {
        let (r, c) = self.shape();
        let xv = self.values();
        match dir {
            AggDir::Full => {
                // Row-major cells, a chain per row block.
                let fold = fold_row_blocks(
                    r,
                    c,
                    |rows| {
                        let mut acc = C::START;
                        xv[rows.start * c..rows.end * c]
                            .iter()
                            .for_each(|&v| acc.push(v));
                        acc
                    },
                    C::merge,
                );
                let acc = fold.unwrap_or(C::START);
                DenseMatrix::filled(1, 1, acc.finish(op, (r * c) as f64))
            }
            AggDir::Row => {
                // One output cell per row: fan row blocks out across the
                // pool; each row reduces left-to-right as the serial loop.
                let mut out = DenseMatrix::zeros(r, 1);
                let rows_per_chunk = exdra_par::chunk_len(r, super::par_floor(4 * c));
                exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk, |_, i0, chunk| {
                    for (i, o) in (i0..).zip(chunk) {
                        let mut acc = C::START;
                        xv[i * c..(i + 1) * c].iter().for_each(|&v| acc.push(v));
                        *o = acc.finish(op, c as f64);
                    }
                });
                out
            }
            AggDir::Col => {
                // Each row block scans its rows top to bottom with one
                // accumulator per column, so one vector loop extends all
                // of a row segment's columns.
                let chains = col_chains::<C>(r, c, |rows, acc| {
                    for row in xv[rows.start * c..rows.end * c].chunks_exact(c) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            a.push(v);
                        }
                    }
                });
                let cells = chains.into_iter().map(|a| a.finish(op, r as f64)).collect();
                DenseMatrix::new(1, c, cells).expect("one cell per column")
            }
        }
    }
}

/// Row-wise index of the maximum value, 1-based as in SystemDS `rowIndexMax`.
pub fn row_index_max(x: &DenseMatrix) -> Result<DenseMatrix> {
    row_index_by(x, |a, b| a > b)
}

/// Row-wise index of the minimum value, 1-based (`rowIndexMin`).
pub fn row_index_min(x: &DenseMatrix) -> Result<DenseMatrix> {
    row_index_by(x, |a, b| a < b)
}

fn row_index_by(x: &DenseMatrix, better: impl Fn(f64, f64) -> bool) -> Result<DenseMatrix> {
    if x.cols() == 0 {
        return Err(MatrixError::InvalidArgument {
            op: "rowIndex",
            msg: "matrix has zero columns".into(),
        });
    }
    let mut out = DenseMatrix::zeros(x.rows(), 1);
    for r in 0..x.rows() {
        let row = x.row(r);
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if better(v, row[best]) {
                best = j;
            }
        }
        out.set(r, 0, (best + 1) as f64);
    }
    Ok(out)
}

/// Trace of a square matrix.
pub fn trace(x: &DenseMatrix) -> Result<f64> {
    if x.rows() != x.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "trace",
            lhs: x.shape(),
            rhs: x.shape(),
        });
    }
    Ok((0..x.rows()).map(|i| x.get(i, i)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rand_matrix;

    fn sample() -> DenseMatrix {
        DenseMatrix::new(2, 3, vec![1., 5., 3., 2., 4., 6.]).unwrap()
    }

    #[test]
    fn full_aggregates() {
        let x = sample();
        assert_eq!(
            aggregate(&x, AggOp::Sum, AggDir::Full).unwrap().get(0, 0),
            21.0
        );
        assert_eq!(
            aggregate(&x, AggOp::Min, AggDir::Full).unwrap().get(0, 0),
            1.0
        );
        assert_eq!(
            aggregate(&x, AggOp::Max, AggDir::Full).unwrap().get(0, 0),
            6.0
        );
        assert_eq!(
            aggregate(&x, AggOp::Mean, AggDir::Full).unwrap().get(0, 0),
            3.5
        );
        assert!((aggregate(&x, AggOp::Var, AggDir::Full).unwrap().get(0, 0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_aggregates() {
        let x = sample();
        assert_eq!(
            aggregate(&x, AggOp::Sum, AggDir::Row).unwrap().values(),
            &[9.0, 12.0]
        );
        assert_eq!(
            aggregate(&x, AggOp::Max, AggDir::Col).unwrap().values(),
            &[2.0, 5.0, 6.0]
        );
        assert_eq!(
            aggregate(&x, AggOp::Mean, AggDir::Col).unwrap().values(),
            &[1.5, 4.5, 4.5]
        );
    }

    #[test]
    fn variance_matches_two_pass_reference() {
        let x = rand_matrix(31, 9, -5.0, 5.0, 13);
        let got = aggregate(&x, AggOp::Var, AggDir::Full).unwrap().get(0, 0);
        let n = x.len() as f64;
        let mean = x.values().iter().sum::<f64>() / n;
        let want = x.values().iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn row_index_max_is_one_based() {
        let x = sample();
        assert_eq!(row_index_max(&x).unwrap().values(), &[2.0, 3.0]);
        assert_eq!(row_index_min(&x).unwrap().values(), &[1.0, 1.0]);
    }

    #[test]
    fn row_index_max_ties_pick_first() {
        let x = DenseMatrix::new(1, 3, vec![7., 7., 1.]).unwrap();
        assert_eq!(row_index_max(&x).unwrap().get(0, 0), 1.0);
    }

    #[test]
    fn empty_min_rejected_empty_sum_zero() {
        let x = DenseMatrix::zeros(0, 3);
        assert!(aggregate(&x, AggOp::Min, AggDir::Full).is_err());
        assert_eq!(
            aggregate(&x, AggOp::Sum, AggDir::Full).unwrap().get(0, 0),
            0.0
        );
    }

    #[test]
    fn trace_square_only() {
        let x = DenseMatrix::new(2, 2, vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(trace(&x).unwrap(), 5.0);
        assert!(trace(&sample()).is_err());
    }
}
