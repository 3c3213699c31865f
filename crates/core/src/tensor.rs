//! The locality-agnostic tensor handle.
//!
//! [`Tensor`] is what ML algorithms are written against: the same code
//! executes on a local in-memory matrix or on federated data, mirroring the
//! paper's claim that "this built-in function script is agnostic of local,
//! distributed, or federated input matrices" (Example 3). Local inputs run
//! the in-memory kernels; federated inputs dispatch to the federated
//! instructions of [`crate::fed::ops`]; compressed inputs execute
//! directly on the DDC/RLE column groups where a compressed-domain
//! kernel exists (element-wise ops, aggregates, `X v`, `t(X) Y`,
//! `mmchain` — DESIGN.md §4k) and transparently decompress otherwise.
//! Every compressed-domain result is bitwise identical to the
//! decompress-then-operate path.

use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::kernels::aggregates::{self, AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{self, BinaryOp, UnaryOp};
use exdra_matrix::kernels::matmul;
use exdra_matrix::kernels::reorg;
use exdra_matrix::DenseMatrix;

use crate::error::{Result, RuntimeError};
use crate::fed::{FedMatrix, MmWeights};

/// A matrix that is local, federated, or compressed-local.
#[derive(Debug, Clone)]
pub enum Tensor {
    /// In-memory matrix at the coordinator.
    Local(DenseMatrix),
    /// Federated matrix (raw data at the sites).
    Fed(FedMatrix),
    /// Losslessly compressed in-memory matrix; supported ops execute
    /// directly on the column groups, the rest decompress on demand.
    Compressed(CompressedMatrix),
}

impl Tensor {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Tensor::Local(m) => m.rows(),
            Tensor::Fed(f) => f.rows(),
            Tensor::Compressed(c) => c.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Tensor::Local(m) => m.cols(),
            Tensor::Fed(f) => f.cols(),
            Tensor::Compressed(c) => c.cols(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// True for federated tensors.
    pub fn is_fed(&self) -> bool {
        matches!(self, Tensor::Fed(_))
    }

    /// True for compressed tensors.
    pub fn is_compressed(&self) -> bool {
        matches!(self, Tensor::Compressed(_))
    }

    /// Borrows the local matrix (error for federated tensors — use
    /// [`Tensor::to_local`] for an explicit, privacy-checked transfer —
    /// and for compressed tensors, which have no dense buffer to borrow).
    pub fn as_local(&self) -> Result<&DenseMatrix> {
        match self {
            Tensor::Local(m) => Ok(m),
            Tensor::Fed(_) => Err(RuntimeError::Unsupported(
                "tensor is federated; consolidate explicitly via to_local()".into(),
            )),
            Tensor::Compressed(_) => Err(RuntimeError::Unsupported(
                "tensor is compressed; materialize explicitly via to_local()".into(),
            )),
        }
    }

    /// Materializes the tensor locally; federated data is transparently
    /// transferred *unless it violates privacy constraints* (paper §4.1).
    pub fn to_local(&self) -> Result<DenseMatrix> {
        match self {
            Tensor::Local(m) => Ok(m.clone()),
            Tensor::Fed(f) => f.consolidate(),
            Tensor::Compressed(c) => Ok(c.decompress()),
        }
    }

    /// Compresses a local tensor column by column (lossless); federated
    /// and already-compressed tensors are returned unchanged.
    pub fn compress(&self) -> Tensor {
        match self {
            Tensor::Local(m) => Tensor::Compressed(CompressedMatrix::compress(m)),
            other => other.clone(),
        }
    }

    /// Decompress-fallback for ops without a compressed-domain kernel.
    fn decompressed(c: &CompressedMatrix) -> Tensor {
        Tensor::Local(c.decompress())
    }

    /// The scalar value of a 1x1 tensor.
    pub fn scalar_value(&self) -> Result<f64> {
        let m = self.to_local()?;
        Ok(m.as_scalar()?)
    }

    /// Matrix multiplication `self %*% rhs`. For two federated inputs, the
    /// smaller side is consolidated first ("some of them are consolidated
    /// in the coordinator, or a privacy exception is thrown", §4.2).
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        match (self, rhs) {
            // Compressed lhs times a vector runs directly on the column
            // groups; other compressed operands decompress and retry.
            (Tensor::Compressed(a), Tensor::Local(b)) if b.cols() == 1 => {
                Ok(Tensor::Local(a.matvec(b)?))
            }
            (Tensor::Compressed(a), _) => Self::decompressed(a).matmul(rhs),
            (_, Tensor::Compressed(b)) => self.matmul(&Self::decompressed(b)),
            (Tensor::Local(a), Tensor::Local(b)) => Ok(Tensor::Local(matmul::matmul(a, b)?)),
            (Tensor::Fed(a), Tensor::Local(b)) => a.matmul_rhs_local(b),
            (Tensor::Local(a), Tensor::Fed(b)) => b.matmul_lhs_local(a),
            (Tensor::Fed(a), Tensor::Fed(b)) => {
                // Consolidate the smaller operand (privacy-checked).
                if a.rows() * a.cols() <= b.rows() * b.cols() {
                    let al = a.consolidate()?;
                    b.matmul_lhs_local(&al)
                } else {
                    let bl = b.consolidate()?;
                    a.matmul_rhs_local(&bl)
                }
            }
        }
    }

    /// `t(self) %*% rhs`, with "transposed" a property of the product:
    /// no arm materializes `t(self)`. Local operands run the row-sweep
    /// kernel, a compressed `self` its column groups, federated ones the
    /// `t_lhs` matmul instruction on the partitions as stored. The aligned
    /// federated-federated case runs fully federated (K-Means'
    /// `t(P) %*% X`, Example 3).
    pub fn t_matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        match (self, rhs) {
            (Tensor::Compressed(a), Tensor::Local(b)) => Ok(Tensor::Local(a.t_matmul(b)?)),
            (Tensor::Compressed(a), _) => Self::decompressed(a).t_matmul(rhs),
            (_, Tensor::Compressed(b)) => self.t_matmul(&Self::decompressed(b)),
            (Tensor::Fed(a), Tensor::Fed(b)) if a.aligned_with(b) => {
                Ok(Tensor::Local(a.aligned_matmul_t(b)?))
            }
            (Tensor::Local(a), Tensor::Local(b)) => Ok(Tensor::Local(matmul::matmul_tn(a, b)?)),
            (Tensor::Fed(a), Tensor::Local(b)) => a.t_matmul_rhs_local(b),
            (Tensor::Local(a), Tensor::Fed(b)) => b.t_matmul_lhs_local(a),
            (Tensor::Fed(_), Tensor::Fed(b)) => {
                // Non-co-partitioned federated inputs: consolidate the
                // right side (privacy-checked) and go through the
                // (Fed, Local) sliced-broadcast path (paper §4.2: "some of
                // them are consolidated in the coordinator, or a privacy
                // exception is thrown").
                let bl = b.consolidate()?;
                self.t_matmul(&Tensor::Local(bl))
            }
        }
    }

    /// Fused `t(self) %*% (w ⊙ (self %*% v))` (mmchain), column by column:
    /// `v` is `d x k`, `w` (if any) `n x k`, and column `j` of the `d x k`
    /// result is the single-vector kernel applied to `(v_j, w_j)`. On
    /// federated data all `k` columns share one request round.
    pub fn mmchain(&self, v: &DenseMatrix, w: Option<&DenseMatrix>) -> Result<DenseMatrix> {
        let single = |vj: &DenseMatrix, wj: Option<&DenseMatrix>| match self {
            Tensor::Local(x) => Ok(matmul::mmchain(x, vj, wj)?),
            Tensor::Compressed(x) => Ok(x.mmchain(vj, wj)?),
            Tensor::Fed(x) => x.mmchain(vj, wj.map(MmWeights::Local)),
        };
        let k = v.cols();
        if k == 1 || self.is_fed() {
            return single(v, w);
        }
        if let Some(w) = w.filter(|w| w.cols() != k) {
            return Err(exdra_matrix::MatrixError::DimensionMismatch {
                op: "mmchain",
                lhs: v.shape(),
                rhs: w.shape(),
            }
            .into());
        }
        let mut out = DenseMatrix::zeros(v.rows(), k);
        for j in 0..k {
            let vj = reorg::index(v, 0, v.rows(), j, j + 1)?;
            let wj = match w {
                Some(w) => Some(reorg::index(w, 0, w.rows(), j, j + 1)?),
                None => None,
            };
            let col = single(&vj, wj.as_ref())?;
            for (i, &val) in col.values().iter().enumerate() {
                out.set(i, j, val);
            }
        }
        Ok(out)
    }

    /// [`Tensor::mmchain`] with the weights as a tensor. Federated weights
    /// co-partitioned with a federated `self` are used where they are;
    /// anything else is materialized first (privacy-checked).
    pub fn mmchain_weighted(&self, v: &DenseMatrix, w: &Tensor) -> Result<DenseMatrix> {
        match (self, w) {
            (Tensor::Fed(x), Tensor::Fed(w)) if x.aligned_with(w) => {
                x.mmchain(v, Some(MmWeights::Fed(w)))
            }
            (_, Tensor::Local(w)) => self.mmchain(v, Some(w)),
            _ => self.mmchain(v, Some(&w.to_local()?)),
        }
    }

    /// `t(self) %*% self` (tsmm).
    pub fn tsmm(&self) -> Result<DenseMatrix> {
        match self {
            Tensor::Local(x) => Ok(matmul::tsmm(x, true)?),
            Tensor::Fed(x) => x.tsmm(),
            Tensor::Compressed(x) => Ok(matmul::tsmm(&x.decompress(), true)?),
        }
    }

    /// Element-wise unary op.
    pub fn unary(&self, op: UnaryOp) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(elementwise::unary(m, op))),
            Tensor::Fed(f) => Ok(Tensor::Fed(f.unary(op)?)),
            Tensor::Compressed(c) => Ok(Tensor::Compressed(c.map_cells(|v| op.apply(v)))),
        }
    }

    /// Row-wise softmax.
    pub fn softmax(&self) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(elementwise::softmax(m))),
            Tensor::Fed(f) => Ok(Tensor::Fed(f.softmax()?)),
            Tensor::Compressed(c) => Self::decompressed(c).softmax(),
        }
    }

    /// Matrix-scalar op (`swap` computes `scalar op self`).
    pub fn scalar_op(&self, op: BinaryOp, value: f64, swap: bool) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(elementwise::scalar(m, op, value, swap))),
            Tensor::Compressed(c) => {
                // O(distinct) per column: only the dictionary / run values
                // are transformed, exactly `elementwise::scalar` per cell.
                let f = move |v: f64| {
                    if swap {
                        op.apply(value, v)
                    } else {
                        op.apply(v, value)
                    }
                };
                Ok(Tensor::Compressed(c.map_cells(f)))
            }
            Tensor::Fed(f) => Ok(Tensor::Fed(f.scalar_op(op, value, swap)?)),
        }
    }

    /// Element-wise binary op with SystemDS broadcasting semantics.
    pub fn binary(&self, op: BinaryOp, rhs: &Tensor) -> Result<Tensor> {
        match (self, rhs) {
            // Compressed lhs with a 1x1 rhs is the scalar-broadcast case
            // and runs on the dictionaries; anything else decompresses.
            (Tensor::Compressed(_), Tensor::Local(b)) if b.is_scalar() => {
                self.scalar_op(op, b.get(0, 0), false)
            }
            (Tensor::Compressed(a), _) => Self::decompressed(a).binary(op, rhs),
            (_, Tensor::Compressed(b)) => self.binary(op, &Self::decompressed(b)),
            (Tensor::Local(a), Tensor::Local(b)) => {
                Ok(Tensor::Local(elementwise::binary(a, op, b)?))
            }
            (Tensor::Fed(a), Tensor::Local(b)) => Ok(Tensor::Fed(a.binary_local(op, b)?)),
            (Tensor::Fed(a), Tensor::Fed(b)) => Ok(Tensor::Fed(a.binary_fed(op, b)?)),
            // A scalar or an operand of `b`'s shape stays on the left: its
            // slices are each partition's left operand, exact for every op.
            (Tensor::Local(a), Tensor::Fed(b)) if a.is_scalar() || a.shape() == b.shape() => {
                Ok(Tensor::Fed(b.binary_with_local(op, a, true)?))
            }
            (Tensor::Local(a), Tensor::Fed(b)) if op.is_commutative() => {
                Ok(Tensor::Fed(b.binary_local(op, a)?))
            }
            // What the local kernel says of a vector on the left.
            (Tensor::Local(a), Tensor::Fed(b)) => {
                Err(exdra_matrix::MatrixError::DimensionMismatch {
                    op: "binary",
                    lhs: a.shape(),
                    rhs: b.shape(),
                }
                .into())
            }
        }
    }

    /// Aggregate along a direction.
    pub fn agg(&self, op: AggOp, dir: AggDir) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(aggregates::aggregate(m, op, dir)?)),
            Tensor::Fed(f) => f.agg(op, dir),
            Tensor::Compressed(c) => Ok(Tensor::Local(c.aggregate(op, dir)?)),
        }
    }

    /// Full sum as a scalar.
    pub fn sum(&self) -> Result<f64> {
        self.agg(AggOp::Sum, AggDir::Full)?.scalar_value()
    }

    /// Full mean as a scalar.
    pub fn mean(&self) -> Result<f64> {
        self.agg(AggOp::Mean, AggDir::Full)?.scalar_value()
    }

    /// Row sums (`rowSums`).
    pub fn row_sums(&self) -> Result<Tensor> {
        self.agg(AggOp::Sum, AggDir::Row)
    }

    /// Column sums (`colSums`).
    pub fn col_sums(&self) -> Result<Tensor> {
        self.agg(AggOp::Sum, AggDir::Col)
    }

    /// Column means (`colMeans`).
    pub fn col_means(&self) -> Result<Tensor> {
        self.agg(AggOp::Mean, AggDir::Col)
    }

    /// Row-wise minima (`rowMins`).
    pub fn row_mins(&self) -> Result<Tensor> {
        self.agg(AggOp::Min, AggDir::Row)
    }

    /// 1-based row-wise argmax.
    pub fn row_index_max(&self) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(aggregates::row_index_max(m)?)),
            Tensor::Fed(f) => Ok(Tensor::Fed(f.row_index_max()?)),
            Tensor::Compressed(c) => Self::decompressed(c).row_index_max(),
        }
    }

    /// Transpose.
    pub fn t(&self) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(reorg::transpose(m))),
            Tensor::Fed(f) => Ok(Tensor::Fed(f.transpose()?)),
            Tensor::Compressed(c) => Self::decompressed(c).t(),
        }
    }

    /// Right indexing with half-open, 0-based ranges.
    pub fn index(
        &self,
        row_lo: usize,
        row_hi: usize,
        col_lo: usize,
        col_hi: usize,
    ) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(reorg::index(
                m, row_lo, row_hi, col_lo, col_hi,
            )?)),
            Tensor::Fed(f) => Ok(Tensor::Fed(f.index(row_lo, row_hi, col_lo, col_hi)?)),
            Tensor::Compressed(c) => Self::decompressed(c).index(row_lo, row_hi, col_lo, col_hi),
        }
    }

    /// Vertical concatenation.
    pub fn rbind(&self, other: &Tensor) -> Result<Tensor> {
        match (self, other) {
            (Tensor::Compressed(a), _) => Self::decompressed(a).rbind(other),
            (_, Tensor::Compressed(b)) => self.rbind(&Self::decompressed(b)),
            (Tensor::Local(a), Tensor::Local(b)) => Ok(Tensor::Local(reorg::rbind(a, b)?)),
            (Tensor::Fed(a), Tensor::Fed(b)) => Ok(Tensor::Fed(a.rbind_fed(b)?)),
            _ => Err(RuntimeError::Unsupported(
                "rbind of mixed local/federated tensors".into(),
            )),
        }
    }

    /// Horizontal concatenation (aligned for federated inputs).
    pub fn cbind(&self, other: &Tensor) -> Result<Tensor> {
        match (self, other) {
            (Tensor::Compressed(a), _) => Self::decompressed(a).cbind(other),
            (_, Tensor::Compressed(b)) => self.cbind(&Self::decompressed(b)),
            (Tensor::Local(a), Tensor::Local(b)) => Ok(Tensor::Local(reorg::cbind(a, b)?)),
            (Tensor::Fed(a), Tensor::Fed(b)) => Ok(Tensor::Fed(a.cbind_aligned(b)?)),
            _ => Err(RuntimeError::Unsupported(
                "cbind of mixed local/federated tensors".into(),
            )),
        }
    }

    /// Value replacement (`replace`; pattern may be NaN).
    pub fn replace(&self, pattern: f64, replacement: f64) -> Result<Tensor> {
        match self {
            Tensor::Local(m) => Ok(Tensor::Local(reorg::replace(m, pattern, replacement))),
            Tensor::Fed(f) => Ok(Tensor::Fed(f.replace(pattern, replacement)?)),
            Tensor::Compressed(c) => {
                // Same per-cell rule as `reorg::replace`, on the
                // dictionaries only (result stays compressed).
                let f = move |v: f64| {
                    if pattern.is_nan() {
                        if v.is_nan() {
                            replacement
                        } else {
                            v
                        }
                    } else if v == pattern {
                        replacement
                    } else {
                        v
                    }
                };
                Ok(Tensor::Compressed(c.map_cells(f)))
            }
        }
    }
}

impl From<DenseMatrix> for Tensor {
    fn from(m: DenseMatrix) -> Self {
        Tensor::Local(m)
    }
}

impl From<CompressedMatrix> for Tensor {
    fn from(c: CompressedMatrix) -> Self {
        Tensor::Compressed(c)
    }
}

impl From<FedMatrix> for Tensor {
    fn from(f: FedMatrix) -> Self {
        Tensor::Fed(f)
    }
}
