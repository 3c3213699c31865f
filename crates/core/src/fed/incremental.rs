//! Incremental maintenance of cached aggregates (paper §4.4, third future-
//! work bullet: "the cached and reorganized intermediates can be — in case
//! of applicable operations — incrementally maintained for new or deleted
//! data").
//!
//! Streaming sinks append new windows between training sessions (§5.1);
//! re-scanning the full federated data for every normalization pass wastes
//! the workers' time. [`IncrementalColStats`] maintains the distributive
//! column statistics (count, sums, sums of squares, min, max) of a
//! row-partitioned federated matrix: appends ship only the *new* rows, and
//! the statistics are updated from partial aggregates over the appended
//! block alone — mean/variance/min/max queries never rescan.

use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::DenseMatrix;

use crate::coordinator::expect_ok;
use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
use crate::protocol::Request;
use crate::tensor::Tensor;
use crate::value::DataValue;

use super::{FedMatrix, FedPartition, PartitionScheme};

/// Incrementally maintained column statistics of a growing federated
/// matrix.
pub struct IncrementalColStats {
    fed: FedMatrix,
    count: usize,
    col_sums: DenseMatrix,
    col_sumsq: DenseMatrix,
    col_min: DenseMatrix,
    col_max: DenseMatrix,
    /// Full rescans performed (1 at construction; appends must not add any).
    pub rescans: usize,
}

impl IncrementalColStats {
    /// Builds the statistics with one initial scan of the federated data.
    pub fn build(fed: FedMatrix) -> Result<Self> {
        if fed.scheme() != PartitionScheme::Row {
            return Err(RuntimeError::Unsupported(
                "incremental stats require row-partitioned data".into(),
            ));
        }
        let t = Tensor::Fed(fed.clone());
        let col_sums = t.agg(AggOp::Sum, AggDir::Col)?.to_local()?;
        let col_sumsq = t.agg(AggOp::SumSq, AggDir::Col)?.to_local()?;
        let col_min = t.agg(AggOp::Min, AggDir::Col)?.to_local()?;
        let col_max = t.agg(AggOp::Max, AggDir::Col)?.to_local()?;
        Ok(Self {
            count: fed.rows(),
            fed,
            col_sums,
            col_sumsq,
            col_min,
            col_max,
            rescans: 1,
        })
    }

    /// The underlying federated matrix (grows with appends).
    pub fn fed(&self) -> &FedMatrix {
        &self.fed
    }

    /// Rows currently covered by the statistics.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Appends `new_rows` at the given worker's partition: the block is
    /// shipped once, concatenated at the site, and the statistics are
    /// updated from aggregates over the new block only — no rescan.
    pub fn append(&mut self, worker: usize, new_rows: &DenseMatrix) -> Result<()> {
        if new_rows.cols() != self.fed.cols() {
            return Err(RuntimeError::Invalid(format!(
                "append has {} cols, federated matrix {}",
                new_rows.cols(),
                self.fed.cols()
            )));
        }
        let part_idx = self
            .fed
            .parts()
            .iter()
            .position(|p| p.worker == worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no partition at worker {worker}")))?;
        let ctx = self.fed.ctx().clone();
        let old = self.fed.parts()[part_idx].clone();
        let block_id = ctx.fresh_id();
        let merged_id = ctx.fresh_id();
        // Ship block, rbind at the site, drop the block. (The old partition
        // symbol is garbage-collected through the dropped handle below.)
        let rs = ctx.call(
            worker,
            &[
                Request::Put {
                    id: block_id,
                    data: DataValue::from(new_rows.clone()),
                    privacy: self.fed.privacy(),
                },
                Request::ExecInst {
                    inst: Instruction::Rbind {
                        a: old.id,
                        b: block_id,
                        out: merged_id,
                    },
                },
                Request::ExecInst {
                    inst: Instruction::Rmvar {
                        ids: vec![block_id],
                    },
                },
            ],
        )?;
        for r in &rs {
            expect_ok(r, worker)?;
        }
        // Rebuild the federation map with the grown partition; ranges after
        // the grown partition shift by the appended length.
        let grow = new_rows.rows();
        let mut parts = Vec::with_capacity(self.fed.parts().len());
        for (i, p) in self.fed.parts().iter().enumerate() {
            let (lo, hi, id) = match i.cmp(&part_idx) {
                std::cmp::Ordering::Less => (p.lo, p.hi, p.id),
                std::cmp::Ordering::Equal => (p.lo, p.hi + grow, merged_id),
                std::cmp::Ordering::Greater => (p.lo + grow, p.hi + grow, p.id),
            };
            parts.push(FedPartition {
                lo,
                hi,
                worker: p.worker,
                id,
            });
        }
        // The new handle owns the merged symbol; the old handle's drop
        // garbage-queues the pre-append partition symbols. The still-shared
        // ids of untouched partitions are re-owned by the new handle, so
        // transfer ownership by replacing the old handle *before* cleanup
        // can run (the old guard only queues ids at drop, and queues are
        // drained on the next RPC — re-owned ids must not be queued).
        let privacy = self.fed.privacy();
        let rows = self.fed.rows() + grow;
        let cols = self.fed.cols();
        // Prevent the old guard from retiring ids that the new map reuses,
        // then retire the replaced pre-append symbol explicitly.
        self.fed.disown();
        ctx.defer_rmvar(worker, old.id);
        self.fed =
            FedMatrix::from_parts(ctx, PartitionScheme::Row, rows, cols, parts, privacy, true)?;

        // Incremental statistics update from the new block only.
        let bs = exdra_matrix::kernels::aggregates::aggregate(new_rows, AggOp::Sum, AggDir::Col)?;
        let bq = exdra_matrix::kernels::aggregates::aggregate(new_rows, AggOp::SumSq, AggDir::Col)?;
        let bmin = exdra_matrix::kernels::aggregates::aggregate(new_rows, AggOp::Min, AggDir::Col)?;
        let bmax = exdra_matrix::kernels::aggregates::aggregate(new_rows, AggOp::Max, AggDir::Col)?;
        self.col_sums = self.col_sums.zip(&bs, "+", |a, b| a + b)?;
        self.col_sumsq = self.col_sumsq.zip(&bq, "+", |a, b| a + b)?;
        self.col_min = self.col_min.zip(&bmin, "min", f64::min)?;
        self.col_max = self.col_max.zip(&bmax, "max", f64::max)?;
        self.count += grow;
        Ok(())
    }

    /// Column means from the maintained statistics (no data access).
    pub fn col_means(&self) -> DenseMatrix {
        self.col_sums.map(|s| s / self.count as f64)
    }

    /// Unbiased column variances from the maintained statistics.
    pub fn col_vars(&self) -> DenseMatrix {
        let n = self.count as f64;
        self.col_sumsq
            .zip(&self.col_sums, "var", |sq, s| {
                ((sq - s * s / n) / (n - 1.0)).max(0.0)
            })
            .expect("aligned statistics")
    }

    /// Column minima.
    pub fn col_mins(&self) -> &DenseMatrix {
        &self.col_min
    }

    /// Column maxima.
    pub fn col_maxs(&self) -> &DenseMatrix {
        &self.col_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyLevel;
    use crate::testutil::mem_federation;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn appends_update_stats_without_rescan() {
        let (ctx, _w) = mem_federation(2);
        let x = rand_matrix(60, 4, -1.0, 1.0, 1);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let mut stats = IncrementalColStats::build(fed).unwrap();
        assert_eq!(stats.rescans, 1);

        // Stream three appends to alternating workers.
        let mut reference = x.clone();
        for (i, worker) in [0usize, 1, 0].into_iter().enumerate() {
            let block = rand_matrix(15, 4, -2.0, 2.0, 10 + i as u64);
            stats.append(worker, &block).unwrap();
            reference = exdra_matrix::kernels::reorg::rbind(&reference, &block).unwrap();
        }
        assert_eq!(stats.count(), 105);
        assert_eq!(stats.rescans, 1, "appends must not rescan");

        // Maintained statistics equal full recomputation...
        let want_mean =
            exdra_matrix::kernels::aggregates::aggregate(&reference, AggOp::Mean, AggDir::Col)
                .unwrap();
        assert!(stats.col_means().max_abs_diff(&want_mean) < 1e-10);
        let want_var =
            exdra_matrix::kernels::aggregates::aggregate(&reference, AggOp::Var, AggDir::Col)
                .unwrap();
        assert!(stats.col_vars().max_abs_diff(&want_var) < 1e-9);
        let want_min =
            exdra_matrix::kernels::aggregates::aggregate(&reference, AggOp::Min, AggDir::Col)
                .unwrap();
        assert!(stats.col_mins().max_abs_diff(&want_min) < 1e-12);

        // ...and the grown federated matrix matches the reference rows as a
        // multiset (append order differs from rbind order across workers).
        let grown = stats.fed().consolidate().unwrap();
        assert_eq!(grown.rows(), 105);
        let sum_got: f64 = grown.values().iter().sum();
        let sum_want: f64 = reference.values().iter().sum();
        assert!((sum_got - sum_want).abs() < 1e-9);
    }

    #[test]
    fn append_validates_inputs() {
        let (ctx, _w) = mem_federation(2);
        let x = rand_matrix(20, 3, 0.0, 1.0, 2);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let mut stats = IncrementalColStats::build(fed).unwrap();
        let bad_cols = rand_matrix(5, 4, 0.0, 1.0, 3);
        assert!(stats.append(0, &bad_cols).is_err());
        assert!(stats.append(9, &rand_matrix(5, 3, 0.0, 1.0, 4)).is_err());
    }

    #[test]
    fn maintained_normalization_matches_recomputed() {
        // The exploratory use: normalize with maintained stats after
        // streaming appends, identical to recomputing from scratch.
        let (ctx, _w) = mem_federation(2);
        let x = rand_matrix(40, 3, 0.0, 10.0, 5);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let mut stats = IncrementalColStats::build(fed).unwrap();
        stats.append(1, &rand_matrix(20, 3, 5.0, 15.0, 6)).unwrap();

        let mu = stats.col_means();
        let sd = stats.col_vars().map(f64::sqrt);
        let normalized = Tensor::Fed(stats.fed().clone())
            .binary(
                exdra_matrix::kernels::elementwise::BinaryOp::Sub,
                &Tensor::Local(mu),
            )
            .unwrap()
            .binary(
                exdra_matrix::kernels::elementwise::BinaryOp::Div,
                &Tensor::Local(sd),
            )
            .unwrap();
        let mu2 = normalized
            .agg(AggOp::Mean, AggDir::Col)
            .unwrap()
            .to_local()
            .unwrap();
        assert!(mu2.values().iter().all(|v| v.abs() < 1e-9));
    }
}
