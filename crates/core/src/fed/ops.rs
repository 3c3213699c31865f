//! Federated linear algebra (paper §4.2).
//!
//! Operations on [`FedMatrix`] compose the six request types into the
//! paper's dispatch patterns: *broadcast* side inputs (full or sliced by
//! partition range), *local execution* per partition via `EXEC_INST`, and
//! *aggregation* of partial results at the coordinator. Each op is one
//! `FedMatrix::map`, whose output stays federated with a "logical rbind"
//! federation map (paper Example 2), or one `FedMatrix::gather`, whose
//! partials are combined here.

use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::kernels::reorg;
use exdra_matrix::{DenseMatrix, MatrixError};

use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
use crate::privacy::PrivacyLevel;
use crate::tensor::Tensor;
use crate::value::DataValue;

use super::{FedMatrix, PartitionScheme};

/// The row weights `w` of [`FedMatrix::mmchain`].
#[derive(Debug, Clone, Copy)]
pub enum MmWeights<'a> {
    /// At the coordinator: sliced per partition and shipped.
    Local(&'a DenseMatrix),
    /// Already at the sites, co-partitioned with `X`: nothing moves.
    Fed(&'a FedMatrix),
}

fn mismatch(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> RuntimeError {
    RuntimeError::Matrix(MatrixError::DimensionMismatch { op, lhs, rhs })
}

/// Combines what every partition fetched, slot by slot in partition order:
/// slot `j` of the result folds the `j`-th value of each partition with
/// `combine(j, acc, next)`.
fn fold_partials(
    partials: Vec<Vec<DataValue>>,
    combine: impl Fn(usize, &DenseMatrix, &DenseMatrix) -> exdra_matrix::Result<DenseMatrix>,
) -> Result<Vec<DenseMatrix>> {
    let mut acc: Vec<DenseMatrix> = Vec::new();
    for values in partials {
        for (j, value) in values.iter().enumerate() {
            let value = value.to_dense()?;
            match acc.get_mut(j) {
                Some(a) => *a = combine(j, a, &value)?,
                None => acc.push(value),
            }
        }
    }
    Ok(acc)
}

/// Adds up, in partition order, the one partial each partition fetched.
fn sum_partials(partials: Vec<Vec<DataValue>>) -> Result<DenseMatrix> {
    let sum = fold_partials(partials, |_, a, b| a.zip(b, "+", |x, y| x + y))?;
    Ok(sum.into_iter().next().expect("at least one partition"))
}

impl FedMatrix {
    /// The stricter privacy constraint of `self` and `other`.
    fn joint_privacy(&self, other: &FedMatrix) -> PrivacyLevel {
        self.privacy().max(other.privacy())
    }

    /// `self %*% rhs` with a local right-hand side.
    ///
    /// Row scheme (paper's matrix-vector case): broadcast `rhs`, multiply
    /// per partition, output federated with the same row map.
    /// Col scheme: sliced broadcast of `rhs` rows per column range, partial
    /// products summed at the coordinator (local output).
    pub fn matmul_rhs_local(&self, rhs: &DenseMatrix) -> Result<Tensor> {
        self.rhs_local(rhs, false)
    }

    /// `t(self) %*% rhs` with a local right-hand side, on the partitions
    /// as stored (`MatMul` with `t_lhs`): nothing is transposed at the
    /// sites or at the coordinator.
    ///
    /// Row scheme (LM's and L2SVM's `t(X) %*% y`): the row slice of `rhs`
    /// matching each partition is shipped as is, the `cols x k` partials
    /// are summed in partition order. Col scheme: broadcast `rhs`, output
    /// federated by rows over the same ranges.
    pub fn t_matmul_rhs_local(&self, rhs: &DenseMatrix) -> Result<Tensor> {
        self.rhs_local(rhs, true)
    }

    /// `op(self) %*% rhs` with `op = t` when `t_self`. When `op(self)` is
    /// partitioned by rows every site computes its rows of the output
    /// from a broadcast `rhs`; when by columns, a partial product from
    /// its row slice of `rhs`.
    fn rhs_local(&self, rhs: &DenseMatrix, t_self: bool) -> Result<Tensor> {
        let (out_rows, inner) = if t_self {
            (self.cols(), self.rows())
        } else {
            self.shape()
        };
        if inner != rhs.rows() {
            return Err(mismatch("fed_matmul", (out_rows, inner), rhs.shape()));
        }
        if (self.scheme() == PartitionScheme::Row) != t_self {
            let shape = (out_rows, rhs.cols());
            let out = self.map(
                PartitionScheme::Row,
                shape,
                self.privacy(),
                |_, p, out, b| {
                    let rhs = b.broadcast(rhs);
                    b.exec(Instruction::MatMul {
                        lhs: p.id,
                        rhs,
                        t_lhs: t_self,
                        out,
                    });
                },
            )?;
            return Ok(Tensor::Fed(out));
        }
        let partials = self.gather(|_, p, b| {
            let slice = reorg::index(rhs, p.lo, p.hi, 0, rhs.cols()).expect("validated range");
            let rhs = b.put(slice);
            b.fetch(|out| Instruction::MatMul {
                lhs: p.id,
                rhs,
                t_lhs: t_self,
                out,
            });
        })?;
        Ok(Tensor::Local(sum_partials(partials)?))
    }

    /// `lhs %*% self` with a local left-hand side.
    ///
    /// Row scheme (paper's vector-matrix case): *sliced* broadcast of the
    /// `lhs` columns matching each row range, partial products aggregated
    /// by element-wise addition at the coordinator.
    /// Col scheme: broadcast `lhs`, output federated with the same col map.
    pub fn matmul_lhs_local(&self, lhs: &DenseMatrix) -> Result<Tensor> {
        self.lhs_local(lhs, false)
    }

    /// `t(lhs) %*% self` with a local left-hand side, shipped as stored
    /// (row-sliced under the row scheme) and multiplied with `t_lhs`.
    pub fn t_matmul_lhs_local(&self, lhs: &DenseMatrix) -> Result<Tensor> {
        self.lhs_local(lhs, true)
    }

    /// `op(lhs) %*% self` with `op = t` when `t_lhs`.
    fn lhs_local(&self, lhs: &DenseMatrix, t_lhs: bool) -> Result<Tensor> {
        let (out_rows, inner) = if t_lhs {
            (lhs.cols(), lhs.rows())
        } else {
            lhs.shape()
        };
        if inner != self.rows() {
            return Err(mismatch("fed_matmul", (out_rows, inner), self.shape()));
        }
        if self.scheme() == PartitionScheme::Col {
            let shape = (out_rows, self.cols());
            let out = self.map(
                PartitionScheme::Col,
                shape,
                self.privacy(),
                |_, p, out, b| {
                    let lhs = b.broadcast(lhs);
                    b.exec(Instruction::MatMul {
                        lhs,
                        rhs: p.id,
                        t_lhs,
                        out,
                    });
                },
            )?;
            return Ok(Tensor::Fed(out));
        }
        let partials = self.gather(|_, p, b| {
            // The contracted index of `op(lhs)`: its columns, which are
            // the rows of a transposed `lhs`.
            let slice = if t_lhs {
                reorg::index(lhs, p.lo, p.hi, 0, lhs.cols())
            } else {
                reorg::index(lhs, 0, lhs.rows(), p.lo, p.hi)
            };
            let lhs = b.put(slice.expect("validated range"));
            b.fetch(|out| Instruction::MatMul {
                lhs,
                rhs: p.id,
                t_lhs,
                out,
            });
        })?;
        Ok(Tensor::Local(sum_partials(partials)?))
    }

    /// `t(self) %*% self` (tsmm) for row-partitioned data: per-partition
    /// `XᵀX`, partial Gram matrices summed at the coordinator.
    pub fn tsmm(&self) -> Result<DenseMatrix> {
        if self.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "tsmm currently requires row-partitioned federated data".into(),
            ));
        }
        sum_partials(self.gather(|_, p, b| {
            b.fetch(|out| Instruction::Tsmm {
                x: p.id,
                left: true,
                out,
            })
        })?)
    }

    /// Fused `t(self) %*% (w ⊙ (self %*% v))` (mmchain) for row-partitioned
    /// data: `v` is `d x k`, `w` (if any) `n x k`, and column `j` of the
    /// `d x k` result is the single-vector chain on `(v_j, w_j)` — LM's
    /// inner loop at `k = 1`, MLogReg's per-class CG systems at `k =
    /// classes`. Each partition gets one broadcast of `v` and one
    /// `MmChain` instruction that sweeps its rows once for all `k`
    /// columns; a local `w` travels as one `PUT` of the partition's row
    /// range, a federated one is already in place. The partial results
    /// are added up in partition order: one round in all.
    pub fn mmchain(&self, v: &DenseMatrix, w: Option<MmWeights<'_>>) -> Result<DenseMatrix> {
        if self.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "mmchain requires row-partitioned federated data".into(),
            ));
        }
        let k = v.cols();
        if v.rows() != self.cols() || k == 0 {
            return Err(mismatch("fed_mmchain", self.shape(), v.shape()));
        }
        let w_shape = w.map(|w| match w {
            MmWeights::Local(m) => m.shape(),
            MmWeights::Fed(f) => f.shape(),
        });
        if let Some(shape) = w_shape.filter(|s| *s != (self.rows(), k)) {
            return Err(mismatch("fed_mmchain", self.shape(), shape));
        }
        if matches!(w, Some(MmWeights::Fed(f)) if !self.aligned_with(f)) {
            return Err(RuntimeError::Unsupported(
                "mmchain needs weights co-partitioned with X".into(),
            ));
        }
        sum_partials(self.gather(|i, p, b| {
            let v = b.broadcast(v);
            let w = w.map(|w| match w {
                MmWeights::Local(w) => {
                    b.put(reorg::index(w, p.lo, p.hi, 0, k).expect("validated range"))
                }
                MmWeights::Fed(w) => w.parts()[i].id,
            });
            b.fetch(|out| Instruction::MmChain { x: p.id, v, w, out });
        })?)
    }

    /// Aligned `t(self) %*% other` over two co-partitioned (row) federated
    /// matrices — the `t(P) %*% X` aggregation of K-Means (Example 3).
    pub fn aligned_matmul_t(&self, other: &FedMatrix) -> Result<DenseMatrix> {
        if !self.aligned_with(other) {
            return Err(RuntimeError::Unsupported(
                "t(A) %*% B needs co-partitioned federated inputs".into(),
            ));
        }
        if self.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "aligned t(A) %*% B requires row partitioning".into(),
            ));
        }
        sum_partials(self.gather(|i, p, b| {
            b.fetch(|out| Instruction::MatMul {
                lhs: p.id,
                rhs: other.parts()[i].id,
                t_lhs: true,
                out,
            })
        })?)
    }

    /// Element-wise unary op; output stays federated.
    pub fn unary(&self, op: UnaryOp) -> Result<FedMatrix> {
        self.map(
            self.scheme(),
            self.shape(),
            self.privacy(),
            |_, p, out, b| b.exec(Instruction::Unary { x: p.id, op, out }),
        )
    }

    /// Row-wise softmax (row-partitioned only; rows are site-local).
    pub fn softmax(&self) -> Result<FedMatrix> {
        if self.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "softmax requires row-partitioned federated data".into(),
            ));
        }
        self.map(
            self.scheme(),
            self.shape(),
            self.privacy(),
            |_, p, out, b| b.exec(Instruction::Softmax { x: p.id, out }),
        )
    }

    /// Matrix-scalar op with a literal scalar; output stays federated.
    pub fn scalar_op(&self, op: BinaryOp, value: f64, swap: bool) -> Result<FedMatrix> {
        self.map(
            self.scheme(),
            self.shape(),
            self.privacy(),
            |_, p, out, b| {
                b.exec(Instruction::Scalar {
                    x: p.id,
                    op,
                    value,
                    swap,
                    out,
                })
            },
        )
    }

    /// Element-wise binary op with a co-partitioned federated right-hand
    /// side ("whenever two federated inputs are co-partitioned ... we
    /// directly execute federated operations on them").
    pub fn binary_fed(&self, op: BinaryOp, other: &FedMatrix) -> Result<FedMatrix> {
        if !self.aligned_with(other) {
            return Err(RuntimeError::Unsupported(
                "binary op on non-co-partitioned federated matrices".into(),
            ));
        }
        // Broadcasting: other may be an aligned vector (e.g. row sums).
        let shapes_ok = other.shape() == self.shape()
            || (self.scheme() == PartitionScheme::Row
                && other.cols() == 1
                && other.rows() == self.rows())
            || (self.scheme() == PartitionScheme::Col
                && other.rows() == 1
                && other.cols() == self.cols());
        if !shapes_ok {
            return Err(mismatch("fed_binary", self.shape(), other.shape()));
        }
        let privacy = self.joint_privacy(other);
        self.map(self.scheme(), self.shape(), privacy, |i, p, out, b| {
            b.exec(Instruction::Binary {
                lhs: p.id,
                rhs: other.parts()[i].id,
                op,
                out,
            })
        })
    }

    /// Element-wise binary op with a local right-hand side (scalar, row
    /// vector, column vector, or full matrix): broadcast fully or sliced
    /// according to the partition ranges.
    pub fn binary_local(&self, op: BinaryOp, rhs: &DenseMatrix) -> Result<FedMatrix> {
        self.binary_with_local(op, rhs, false)
    }

    /// `self op m`, or `m op self` when `local_left`. A 1x1 `m` is a
    /// literal scalar; a vector along the unpartitioned dimension goes
    /// whole to every partition; anything else is sliced by partition
    /// range, so with `local_left` it must have `self`'s shape.
    pub(crate) fn binary_with_local(
        &self,
        op: BinaryOp,
        m: &DenseMatrix,
        local_left: bool,
    ) -> Result<FedMatrix> {
        if m.shape() == (1, 1) {
            return self.scalar_op(op, m.get(0, 0), local_left);
        }
        let row = self.scheme() == PartitionScheme::Row;
        // `m`'s extent along and across the partitioned dimension.
        let (along, across) = if row { m.shape() } else { (m.cols(), m.rows()) };
        let (extent, width) = if row {
            self.shape()
        } else {
            (self.cols(), self.rows())
        };
        let whole = along == 1 && across == width;
        if !whole && !(along == extent && (across == 1 || across == width)) {
            return Err(mismatch("fed_binary", self.shape(), m.shape()));
        }
        self.map(
            self.scheme(),
            self.shape(),
            self.privacy(),
            |_, p, out, b| {
                let slice = match (whole, row) {
                    (true, _) => Ok(m.clone()),
                    (false, true) => reorg::index(m, p.lo, p.hi, 0, m.cols()),
                    (false, false) => reorg::index(m, 0, m.rows(), p.lo, p.hi),
                };
                let m = b.put(slice.expect("validated range"));
                let (lhs, rhs) = if local_left { (m, p.id) } else { (p.id, m) };
                b.exec(Instruction::Binary { lhs, rhs, op, out });
            },
        )
    }

    /// Federated aggregate. Aggregation *along* the partitioned dimension's
    /// orthogonal axis stays federated (e.g. `rowSums` of row-partitioned
    /// data); aggregation *across* partitions combines partial statistics
    /// at the coordinator (e.g. `colSums`, `sum`, `var`).
    pub fn agg(&self, op: AggOp, dir: AggDir) -> Result<Tensor> {
        let stays_federated = matches!(
            (self.scheme(), dir),
            (PartitionScheme::Row, AggDir::Row) | (PartitionScheme::Col, AggDir::Col)
        );
        if stays_federated {
            let shape = match dir {
                AggDir::Row => (self.rows(), 1),
                _ => (1, self.cols()),
            };
            let out = self.map(self.scheme(), shape, self.privacy(), |_, p, out, b| {
                b.exec(Instruction::Agg {
                    x: p.id,
                    op,
                    dir,
                    out,
                })
            })?;
            return Ok(Tensor::Fed(out));
        }

        // Cross-partition aggregation via partial statistics.
        let needs_sumsq = matches!(op, AggOp::Var | AggOp::Sd);
        let base_op = match op {
            AggOp::Min => AggOp::Min,
            AggOp::Max => AggOp::Max,
            AggOp::SumSq => AggOp::SumSq,
            _ => AggOp::Sum,
        };
        let partials = self.gather(|_, p, b| {
            b.fetch(|out| Instruction::Agg {
                x: p.id,
                op: base_op,
                dir,
                out,
            });
            if needs_sumsq {
                b.fetch(|out| Instruction::Agg {
                    x: p.id,
                    op: AggOp::SumSq,
                    dir,
                    out,
                });
            }
        })?;
        let mut stats = fold_partials(partials, |slot, a, b| match (slot, base_op) {
            (0, AggOp::Min) => a.zip(b, "min", f64::min),
            (0, AggOp::Max) => a.zip(b, "max", f64::max),
            _ => a.zip(b, "+", |x, y| x + y),
        })?
        .into_iter();
        let sums = stats.next().expect("at least one partition");
        // Number of cells aggregated into each output cell.
        let n = match dir {
            AggDir::Full => self.rows() * self.cols(),
            AggDir::Col => self.rows(),
            AggDir::Row => self.cols(),
        } as f64;
        let out = match op {
            AggOp::Sum | AggOp::SumSq | AggOp::Min | AggOp::Max => sums,
            AggOp::Mean => sums.map(|v| v / n),
            AggOp::Var | AggOp::Sd => {
                let sq = stats.next().expect("sumsq collected");
                let var = sq.zip(&sums, "var", |sq, s| {
                    ((sq - s * s / n) / (n - 1.0)).max(0.0)
                })?;
                if op == AggOp::Var {
                    var
                } else {
                    var.map(f64::sqrt)
                }
            }
        };
        Ok(Tensor::Local(out))
    }

    /// 1-based row-wise argmax (row-partitioned; rows are site-local).
    pub fn row_index_max(&self) -> Result<FedMatrix> {
        if self.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "rowIndexMax/Min require row-partitioned federated data".into(),
            ));
        }
        let shape = (self.rows(), 1);
        self.map(self.scheme(), shape, self.privacy(), |_, p, out, b| {
            b.exec(Instruction::RowIndexMax { x: p.id, out })
        })
    }

    /// Federated transpose: per-partition transpose with the scheme
    /// flipped (row partitions become column partitions).
    pub fn transpose(&self) -> Result<FedMatrix> {
        let flipped = match self.scheme() {
            PartitionScheme::Row => PartitionScheme::Col,
            PartitionScheme::Col => PartitionScheme::Row,
        };
        let shape = (self.cols(), self.rows());
        self.map(flipped, shape, self.privacy(), |_, p, out, b| {
            b.exec(Instruction::Transpose { x: p.id, out })
        })
    }

    /// Federated right indexing `self[rl:ru, cl:cu]` (half-open).
    /// Row-partitioned: intersects the row range with the federation map,
    /// slicing only the overlapping partitions — no data leaves the sites.
    pub fn index(
        &self,
        row_lo: usize,
        row_hi: usize,
        col_lo: usize,
        col_hi: usize,
    ) -> Result<FedMatrix> {
        if self.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "federated indexing currently requires row partitioning".into(),
            ));
        }
        if row_lo >= row_hi || row_hi > self.rows() || col_lo >= col_hi || col_hi > self.cols() {
            return Err(RuntimeError::Invalid(format!(
                "index [{row_lo}:{row_hi}, {col_lo}:{col_hi}] out of {:?}",
                self.shape()
            )));
        }
        let shape = (row_hi - row_lo, col_hi - col_lo);
        self.map(
            PartitionScheme::Row,
            shape,
            self.privacy(),
            |_, p, out, b| {
                let (lo, hi) = (p.lo.max(row_lo), p.hi.min(row_hi));
                if lo < hi {
                    b.range(lo - row_lo, hi - row_lo);
                    b.exec(Instruction::Index {
                        x: p.id,
                        row_lo: (lo - p.lo) as u64,
                        row_hi: (hi - p.lo) as u64,
                        col_lo: col_lo as u64,
                        col_hi: col_hi as u64,
                        out,
                    });
                }
            },
        )
    }

    /// Logical `rbind` of two row-partitioned federated matrices: pure
    /// metadata concatenation, no data movement (paper Example 2's
    /// "logical rbind").
    pub fn rbind_fed(&self, other: &FedMatrix) -> Result<FedMatrix> {
        if self.scheme() != PartitionScheme::Row || other.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "rbind requires row-partitioned federated inputs".into(),
            ));
        }
        if self.cols() != other.cols() {
            return Err(mismatch("fed_rbind", self.shape(), other.shape()));
        }
        let mut parts = self.parts().to_vec();
        for p in other.parts() {
            parts.push(super::FedPartition {
                lo: p.lo + self.rows(),
                hi: p.hi + self.rows(),
                ..*p
            });
        }
        FedMatrix::from_parts_aliasing(
            std::sync::Arc::clone(self.ctx()),
            PartitionScheme::Row,
            self.rows() + other.rows(),
            self.cols(),
            parts,
            self.joint_privacy(other),
            vec![self.guard(), other.guard()],
        )
    }

    /// Aligned `cbind` of two co-partitioned row-federated matrices: each
    /// site concatenates its local parts.
    pub fn cbind_aligned(&self, other: &FedMatrix) -> Result<FedMatrix> {
        if !self.aligned_with(other) {
            return Err(RuntimeError::Unsupported(
                "cbind needs co-partitioned federated inputs".into(),
            ));
        }
        let shape = (self.rows(), self.cols() + other.cols());
        let privacy = self.joint_privacy(other);
        self.map(self.scheme(), shape, privacy, |i, p, out, b| {
            b.exec(Instruction::Cbind {
                a: p.id,
                b: other.parts()[i].id,
                out,
            })
        })
    }

    /// Federated `replace` (pattern may be NaN for missing values).
    pub fn replace(&self, pattern: f64, replacement: f64) -> Result<FedMatrix> {
        self.map(
            self.scheme(),
            self.shape(),
            self.privacy(),
            |_, p, out, b| {
                b.exec(Instruction::Replace {
                    x: p.id,
                    pattern,
                    replacement,
                    out,
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::testutil::mem_federation;
    use exdra_matrix::kernels::aggregates;
    use exdra_matrix::kernels::matmul;
    use exdra_matrix::rng::rand_matrix;

    fn fed_of(n_workers: usize, x: &DenseMatrix) -> (std::sync::Arc<crate::FedContext>, FedMatrix) {
        let (ctx, _workers) = mem_federation(n_workers);
        let fed = FedMatrix::scatter_rows(&ctx, x, PrivacyLevel::Public).unwrap();
        (ctx, fed)
    }

    #[test]
    fn fed_matvec_matches_local() {
        let x = rand_matrix(90, 12, -1.0, 1.0, 101);
        let v = rand_matrix(12, 1, -1.0, 1.0, 102);
        let (_ctx, fed) = fed_of(3, &x);
        let got = fed.matmul_rhs_local(&v).unwrap();
        assert!(got.is_fed(), "matrix-vector output stays federated");
        let want = matmul::matmul(&x, &v).unwrap();
        assert!(got.to_local().unwrap().max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fed_vecmat_matches_local() {
        let x = rand_matrix(90, 12, -1.0, 1.0, 103);
        let vt = rand_matrix(1, 90, -1.0, 1.0, 104);
        let (_ctx, fed) = fed_of(3, &x);
        let got = fed.matmul_lhs_local(&vt).unwrap();
        assert!(!got.is_fed(), "vector-matrix output is aggregated locally");
        let want = matmul::matmul(&vt, &x).unwrap();
        assert!(got.to_local().unwrap().max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fed_tsmm_matches_local() {
        let x = rand_matrix(77, 9, -1.0, 1.0, 105);
        let (_ctx, fed) = fed_of(4, &x);
        let got = fed.tsmm().unwrap();
        let want = matmul::tsmm(&x, true).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fed_mmchain_matches_local() {
        let x = rand_matrix(60, 8, -1.0, 1.0, 106);
        let v = rand_matrix(8, 1, -1.0, 1.0, 107);
        let w = rand_matrix(60, 1, 0.0, 1.0, 108);
        let (_ctx, fed) = fed_of(3, &x);
        let got = fed.mmchain(&v, Some(MmWeights::Local(&w))).unwrap();
        let want = matmul::mmchain(&x, &v, Some(&w)).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
        let got2 = fed.mmchain(&v, None).unwrap();
        let want2 = matmul::mmchain(&x, &v, None).unwrap();
        assert!(got2.max_abs_diff(&want2) < 1e-10);
    }

    #[test]
    fn fed_aligned_tmatmul_matches_local() {
        let x = rand_matrix(50, 6, -1.0, 1.0, 109);
        let (_ctx, fed) = fed_of(2, &x);
        // P = sigmoid(X) is co-partitioned with X.
        let p = fed.unary(UnaryOp::Sigmoid).unwrap();
        let got = p.aligned_matmul_t(&fed).unwrap();
        let pl = exdra_matrix::kernels::elementwise::unary(&x, UnaryOp::Sigmoid);
        let want = matmul::matmul(&reorg::transpose(&pl), &x).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fed_aggregates_match_local() {
        let x = rand_matrix(66, 5, -2.0, 2.0, 110);
        let (_ctx, fed) = fed_of(3, &x);
        for op in [
            AggOp::Sum,
            AggOp::Min,
            AggOp::Max,
            AggOp::Mean,
            AggOp::Var,
            AggOp::Sd,
        ] {
            for dir in [AggDir::Full, AggDir::Col] {
                let got = fed.agg(op, dir).unwrap().to_local().unwrap();
                let want = aggregates::aggregate(&x, op, dir).unwrap();
                assert!(
                    got.max_abs_diff(&want) < 1e-9,
                    "{:?} {:?}: {}",
                    op,
                    dir,
                    got.max_abs_diff(&want)
                );
            }
        }
        // Row direction stays federated under row partitioning.
        let got = fed.agg(AggOp::Sum, AggDir::Row).unwrap();
        assert!(got.is_fed());
        let want = aggregates::aggregate(&x, AggOp::Sum, AggDir::Row).unwrap();
        assert!(got.to_local().unwrap().max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fed_binary_broadcast_matches_local() {
        let x = rand_matrix(40, 6, -1.0, 1.0, 111);
        let (_ctx, fed) = fed_of(2, &x);
        // Row vector broadcast (colMeans subtraction — normalization).
        let mu = aggregates::aggregate(&x, AggOp::Mean, AggDir::Col).unwrap();
        let got = fed.binary_local(BinaryOp::Sub, &mu).unwrap();
        let want = exdra_matrix::kernels::elementwise::binary(&x, BinaryOp::Sub, &mu).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
        // Column vector: sliced broadcast.
        let rv = rand_matrix(40, 1, 0.5, 1.5, 112);
        let got = fed.binary_local(BinaryOp::Div, &rv).unwrap();
        let want = exdra_matrix::kernels::elementwise::binary(&x, BinaryOp::Div, &rv).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
        // Full matrix: sliced rows.
        let fm = rand_matrix(40, 6, 1.0, 2.0, 113);
        let got = fed.binary_local(BinaryOp::Mul, &fm).unwrap();
        let want = exdra_matrix::kernels::elementwise::binary(&x, BinaryOp::Mul, &fm).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn fed_binary_fed_aligned() {
        let x = rand_matrix(30, 4, -1.0, 1.0, 114);
        let (_ctx, fed) = fed_of(3, &x);
        let sq = fed.unary(UnaryOp::Square).unwrap();
        let got = fed.binary_fed(BinaryOp::Add, &sq).unwrap();
        let want = x.zip(&x.map(|v| v * v), "+", |a, b| a + b).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
        // Aligned vector broadcast: X / rowSums(X).
        let rs = match fed.agg(AggOp::Sum, AggDir::Row).unwrap() {
            Tensor::Fed(f) => f,
            _ => panic!("rowSums should stay federated"),
        };
        let got = fed.binary_fed(BinaryOp::Div, &rs).unwrap();
        let rsl = aggregates::aggregate(&x, AggOp::Sum, AggDir::Row).unwrap();
        let want = exdra_matrix::kernels::elementwise::binary(&x, BinaryOp::Div, &rsl).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn fed_transpose_flips_scheme() {
        let x = rand_matrix(20, 5, -1.0, 1.0, 115);
        let (_ctx, fed) = fed_of(2, &x);
        let t = fed.transpose().unwrap();
        assert_eq!(t.scheme(), PartitionScheme::Col);
        assert_eq!(t.shape(), (5, 20));
        let want = reorg::transpose(&x);
        assert!(t.consolidate().unwrap().max_abs_diff(&want) < 1e-15);
        // Transposed (col-partitioned) matvec aggregates locally.
        let v = rand_matrix(20, 1, -1.0, 1.0, 116);
        let got = t.matmul_rhs_local(&v).unwrap();
        assert!(!got.is_fed());
        let want = matmul::matmul(&reorg::transpose(&x), &v).unwrap();
        assert!(got.to_local().unwrap().max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn fed_indexing_slices_partitions() {
        let x = rand_matrix(60, 8, -1.0, 1.0, 117);
        let (_ctx, fed) = fed_of(3, &x); // parts of 20 rows each
                                         // Range spanning two partitions.
        let got = fed.index(10, 35, 2, 6).unwrap();
        assert_eq!(got.shape(), (25, 4));
        assert_eq!(got.parts().len(), 2);
        let want = reorg::index(&x, 10, 35, 2, 6).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-15);
        // Range inside one partition.
        let got = fed.index(42, 55, 0, 8).unwrap();
        assert_eq!(got.parts().len(), 1);
        let want = reorg::index(&x, 42, 55, 0, 8).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-15);
    }

    #[test]
    fn fed_rbind_is_metadata_only() {
        let x = rand_matrix(30, 4, -1.0, 1.0, 118);
        let y = rand_matrix(30, 4, 2.0, 3.0, 119);
        let (ctx, _workers) = mem_federation(2);
        let fx = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let fy = FedMatrix::scatter_rows(&ctx, &y, PrivacyLevel::Public).unwrap();
        let bytes_before = ctx.stats().bytes_sent();
        let cat = fx.rbind_fed(&fy).unwrap();
        assert_eq!(
            ctx.stats().bytes_sent(),
            bytes_before,
            "logical rbind moves no data"
        );
        assert_eq!(cat.shape(), (60, 4));
        let want = reorg::rbind(&x, &y).unwrap();
        assert!(cat.consolidate().unwrap().max_abs_diff(&want) < 1e-15);
        // Parents' symbols survive even after the parents drop.
        drop(fx);
        drop(fy);
        assert!(cat.consolidate().is_ok());
    }

    #[test]
    fn fed_cbind_aligned() {
        let x = rand_matrix(24, 3, -1.0, 1.0, 120);
        let (_ctx, fed) = fed_of(2, &x);
        let sq = fed.unary(UnaryOp::Square).unwrap();
        let got = fed.cbind_aligned(&sq).unwrap();
        assert_eq!(got.shape(), (24, 6));
        let want = reorg::cbind(&x, &x.map(|v| v * v)).unwrap();
        assert!(got.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn fed_softmax_and_rowindexmax() {
        let x = rand_matrix(22, 7, -2.0, 2.0, 121);
        let (_ctx, fed) = fed_of(2, &x);
        let sm = fed.softmax().unwrap();
        let want = exdra_matrix::kernels::elementwise::softmax(&x);
        assert!(sm.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
        let am = fed.row_index_max().unwrap();
        let want = aggregates::row_index_max(&x).unwrap();
        assert!(am.consolidate().unwrap().max_abs_diff(&want) < 1e-15);
    }

    #[test]
    fn privacy_blocks_partial_gets_for_small_partitions() {
        // 3 rows per worker with min_group 5: colSums partials not releasable.
        let (ctx, _workers) = mem_federation(2);
        let x = rand_matrix(6, 3, 0.0, 1.0, 122);
        let fed =
            FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 5 })
                .unwrap();
        assert!(matches!(
            fed.agg(AggOp::Sum, AggDir::Col),
            Err(RuntimeError::Privacy(_))
        ));
        // With enough rows per partition, the same op succeeds.
        let y = rand_matrix(20, 3, 0.0, 1.0, 123);
        let fed =
            FedMatrix::scatter_rows(&ctx, &y, PrivacyLevel::PrivateAggregate { min_group: 5 })
                .unwrap();
        let got = fed
            .agg(AggOp::Sum, AggDir::Col)
            .unwrap()
            .to_local()
            .unwrap();
        let want = aggregates::aggregate(&y, AggOp::Sum, AggDir::Col).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn kmeans_inner_loop_federated_equals_local() {
        // Paper Example 3: one inner iteration of K-Means on federated X.
        let x = rand_matrix(80, 5, 0.0, 1.0, 124);
        let c = rand_matrix(4, 5, 0.0, 1.0, 125); // centroids
        let (_ctx, fed) = fed_of(3, &x);

        let run = |xt: &Tensor| -> DenseMatrix {
            // D = -2 * (X %*% t(C)) + t(rowSums(C^2))
            let ct = reorg::transpose(&c);
            let xc = xt.matmul(&Tensor::Local(ct)).unwrap();
            let c2 = aggregates::aggregate(&c.map(|v| v * v), AggOp::Sum, AggDir::Row).unwrap();
            let c2t = reorg::transpose(&c2);
            let d = xc
                .scalar_op(BinaryOp::Mul, -2.0, false)
                .unwrap()
                .binary(BinaryOp::Add, &Tensor::Local(c2t))
                .unwrap();
            // P = (D <= rowMins(D)); P = P / rowSums(P)
            let mins = d.row_mins().unwrap();
            let p = d.binary(BinaryOp::Le, &mins).unwrap();
            let psum = p.row_sums().unwrap();
            let p = p.binary(BinaryOp::Div, &psum).unwrap();
            // P_denom = colSums(P); C_new = (t(P) %*% X) / t(P_denom)
            let pdenom = p.col_sums().unwrap().to_local().unwrap();
            let ptx = p.t_matmul(xt).unwrap().to_local().unwrap();
            // C_new = ptx / t(P_denom): divide each row by its denominator.
            let mut cn = ptx.clone();
            for r in 0..cn.rows() {
                let dv = pdenom.get(0, r);
                for cc in 0..cn.cols() {
                    let v = cn.get(r, cc) / dv;
                    cn.set(r, cc, v);
                }
            }
            cn
        };
        let fed_c = run(&Tensor::Fed(fed));
        let loc_c = run(&Tensor::Local(x));
        assert!(fed_c.max_abs_diff(&loc_c) < 1e-9);
    }
}
