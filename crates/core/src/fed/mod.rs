//! Federated data objects.
//!
//! A [`FedMatrix`] is the coordinator-side handle of a virtual matrix
//! composed of non-overlapping row or column partitions living at the
//! federated sites (paper §4.1, Figure 2). The coordinator holds only the
//! federation map — dimensions, scheme, ranges, worker locations, symbol
//! IDs — plus the privacy constraint; the raw partitions never move unless
//! explicitly consolidated (and then only if privacy allows it).
//!
//! Submodules: [`ops`] implements federated linear algebra (paper §4.2) and
//! [`prep`] federated data preparation (§4.4).

pub mod incremental;
pub mod ops;

pub use ops::MmWeights;
pub mod prep;

use std::sync::Arc;

use exdra_matrix::kernels::reorg;
use exdra_matrix::DenseMatrix;

use crate::coordinator::{expect_data, expect_ok, FedContext};
use crate::error::{Result, RuntimeError};
use crate::privacy::PrivacyLevel;
use crate::protocol::{ReadFormat, Request, Response};
use crate::value::DataValue;

/// Partitioning scheme of a federated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Horizontal federated data: every site holds a subset of rows.
    Row,
    /// Vertical federated data: every site holds a subset of columns.
    Col,
}

/// One entry of a federation map: a half-open index range located at a
/// worker under a symbol ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedPartition {
    /// Start of the range (row or column index, inclusive).
    pub lo: usize,
    /// End of the range (exclusive).
    pub hi: usize,
    /// Worker index in the [`FedContext`].
    pub worker: usize,
    /// Symbol ID at that worker.
    pub id: u64,
}

impl FedPartition {
    /// Range length.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True for an empty range.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }
}

/// Owns the worker-side symbols of one federated object; when the last
/// handle drops, their `rmvar`s join each worker's outbox and travel
/// with the next RPC to it.
#[derive(Debug)]
pub(crate) struct PartsGuard {
    ctx: Arc<FedContext>,
    ids: Vec<(usize, u64)>,
    /// When false, the symbols are externally owned (e.g. installed
    /// directly by an embedding application) and never cleaned up.
    /// Atomic so ownership can be transferred (see [`FedMatrix::disown`]).
    owned: std::sync::atomic::AtomicBool,
    /// Parent guards kept alive by derived handles that alias their
    /// worker symbols (e.g. logical rbind), preventing premature cleanup.
    /// Never read: holding the Arc is the point.
    #[allow(dead_code)]
    keepalive: Vec<Arc<PartsGuard>>,
}

impl Drop for PartsGuard {
    fn drop(&mut self) {
        if self.owned.load(std::sync::atomic::Ordering::SeqCst) {
            for (worker, id) in &self.ids {
                self.ctx.defer_rmvar(*worker, *id);
            }
        }
    }
}

/// A federated matrix handle (coordinator-side metadata only).
#[derive(Debug, Clone)]
pub struct FedMatrix {
    ctx: Arc<FedContext>,
    rows: usize,
    cols: usize,
    scheme: PartitionScheme,
    parts: Vec<FedPartition>,
    privacy: PrivacyLevel,
    guard: Arc<PartsGuard>,
}

impl FedMatrix {
    /// Wraps worker-side symbols that already exist. `owned` controls
    /// whether dropping the handle cleans up the worker symbols.
    pub fn from_parts(
        ctx: Arc<FedContext>,
        scheme: PartitionScheme,
        rows: usize,
        cols: usize,
        parts: Vec<FedPartition>,
        privacy: PrivacyLevel,
        owned: bool,
    ) -> Result<Self> {
        validate_parts(&parts, scheme, rows, cols, ctx.num_workers())?;
        let ids = parts.iter().map(|p| (p.worker, p.id)).collect();
        Ok(Self {
            guard: Arc::new(PartsGuard {
                ctx: Arc::clone(&ctx),
                ids,
                owned: std::sync::atomic::AtomicBool::new(owned),
                keepalive: Vec::new(),
            }),
            ctx,
            rows,
            cols,
            scheme,
            parts,
            privacy,
        })
    }

    /// Builds a derived handle that aliases the worker symbols of its
    /// parents (e.g. logical `rbind`): no cleanup of its own, but keeps the
    /// parents' symbols alive for its lifetime.
    pub(crate) fn from_parts_aliasing(
        ctx: Arc<FedContext>,
        scheme: PartitionScheme,
        rows: usize,
        cols: usize,
        parts: Vec<FedPartition>,
        privacy: PrivacyLevel,
        parents: Vec<Arc<PartsGuard>>,
    ) -> Result<Self> {
        validate_parts(&parts, scheme, rows, cols, ctx.num_workers())?;
        Ok(Self {
            guard: Arc::new(PartsGuard {
                ctx: Arc::clone(&ctx),
                ids: Vec::new(),
                owned: std::sync::atomic::AtomicBool::new(false),
                keepalive: parents,
            }),
            ctx,
            rows,
            cols,
            scheme,
            parts,
            privacy,
        })
    }

    /// The handle's guard (for derived aliasing handles).
    pub(crate) fn guard(&self) -> Arc<PartsGuard> {
        Arc::clone(&self.guard)
    }

    /// Transfers ownership of the worker symbols away from this handle:
    /// dropping it (and its clones) no longer garbage-collects them. Used
    /// when a successor handle re-owns (a superset of) the same symbols,
    /// e.g. after an in-place append.
    pub fn disown(&self) {
        self.guard
            .owned
            .store(false, std::sync::atomic::Ordering::SeqCst);
    }

    /// Scatters a local matrix into evenly-sized row partitions across all
    /// workers (test/bench convenience mirroring the paper's balanced
    /// setup).
    pub fn scatter_rows(
        ctx: &Arc<FedContext>,
        x: &DenseMatrix,
        privacy: PrivacyLevel,
    ) -> Result<Self> {
        let n = ctx.num_workers();
        if x.rows() < n {
            return Err(RuntimeError::Invalid(format!(
                "cannot scatter {} rows over {n} workers",
                x.rows()
            )));
        }
        let mut parts = Vec::with_capacity(n);
        let mut batches = Vec::with_capacity(n);
        let base = x.rows() / n;
        let extra = x.rows() % n;
        let mut lo = 0usize;
        for w in 0..n {
            let len = base + usize::from(w < extra);
            let hi = lo + len;
            let id = ctx.fresh_id();
            let slice = reorg::index(x, lo, hi, 0, x.cols())?;
            batches.push(vec![Request::Put {
                id,
                data: DataValue::from(slice),
                privacy,
            }]);
            parts.push(FedPartition {
                lo,
                hi,
                worker: w,
                id,
            });
            lo = hi;
        }
        let responses = ctx.call_all(batches)?;
        for (w, rs) in responses.iter().enumerate() {
            expect_ok(&rs[0], w)?;
        }
        FedMatrix::from_parts(
            Arc::clone(ctx),
            PartitionScheme::Row,
            x.rows(),
            x.cols(),
            parts,
            privacy,
            true,
        )
    }

    /// Scatters a local matrix into evenly-sized *column* partitions across
    /// all workers — vertical federated data (paper §2.3: "every federated
    /// site holds a — potentially overlapping — subset of features", here
    /// disjoint as in the runtime's federation maps).
    pub fn scatter_cols(
        ctx: &Arc<FedContext>,
        x: &DenseMatrix,
        privacy: PrivacyLevel,
    ) -> Result<Self> {
        let n = ctx.num_workers();
        if x.cols() < n {
            return Err(RuntimeError::Invalid(format!(
                "cannot scatter {} columns over {n} workers",
                x.cols()
            )));
        }
        let mut parts = Vec::with_capacity(n);
        let mut batches = Vec::with_capacity(n);
        let base = x.cols() / n;
        let extra = x.cols() % n;
        let mut lo = 0usize;
        for w in 0..n {
            let len = base + usize::from(w < extra);
            let hi = lo + len;
            let id = ctx.fresh_id();
            let slice = reorg::index(x, 0, x.rows(), lo, hi)?;
            batches.push(vec![Request::Put {
                id,
                data: DataValue::from(slice),
                privacy,
            }]);
            parts.push(FedPartition {
                lo,
                hi,
                worker: w,
                id,
            });
            lo = hi;
        }
        let responses = ctx.call_all(batches)?;
        for (w, rs) in responses.iter().enumerate() {
            expect_ok(&rs[0], w)?;
        }
        FedMatrix::from_parts(
            Arc::clone(ctx),
            PartitionScheme::Col,
            x.rows(),
            x.cols(),
            parts,
            privacy,
            true,
        )
    }

    /// Creates a federated matrix from per-worker files (`READ` on demand,
    /// paper Figure 2): `files[w] = (fname, format, rows_in_file)`.
    pub fn read_row_partitioned(
        ctx: &Arc<FedContext>,
        files: &[(String, ReadFormat, usize)],
        cols: usize,
        privacy: PrivacyLevel,
    ) -> Result<Self> {
        if files.len() != ctx.num_workers() {
            return Err(RuntimeError::Invalid(format!(
                "{} files for {} workers",
                files.len(),
                ctx.num_workers()
            )));
        }
        let mut parts = Vec::new();
        let mut batches = Vec::new();
        let mut lo = 0usize;
        for (w, (fname, format, rows)) in files.iter().enumerate() {
            let id = ctx.fresh_id();
            batches.push(vec![Request::Read {
                id,
                fname: fname.clone(),
                format: format.clone(),
                privacy,
            }]);
            parts.push(FedPartition {
                lo,
                hi: lo + rows,
                worker: w,
                id,
            });
            lo += rows;
        }
        let responses = ctx.call_all(batches)?;
        for (w, rs) in responses.iter().enumerate() {
            expect_ok(&rs[0], w)?;
        }
        FedMatrix::from_parts(
            Arc::clone(ctx),
            PartitionScheme::Row,
            lo,
            cols,
            parts,
            privacy,
            true,
        )
    }

    /// Number of rows of the virtual matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the virtual matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the virtual matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The partitioning scheme.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// The federation map entries.
    pub fn parts(&self) -> &[FedPartition] {
        &self.parts
    }

    /// The privacy constraint of the federated raw data.
    pub fn privacy(&self) -> PrivacyLevel {
        self.privacy
    }

    /// The shared context.
    pub fn ctx(&self) -> &Arc<FedContext> {
        &self.ctx
    }

    /// Renders the federation map like the paper's Figure 2 annotation.
    pub fn describe(&self) -> String {
        let dims = format!("Matrix, FP64 {}x{}", self.rows, self.cols);
        let ranges: Vec<String> = self
            .parts
            .iter()
            .map(|p| match self.scheme {
                PartitionScheme::Row => {
                    format!("[{}:{},], id {}, worker{}", p.lo, p.hi, p.id, p.worker)
                }
                PartitionScheme::Col => {
                    format!("[,{}:{}], id {}, worker{}", p.lo, p.hi, p.id, p.worker)
                }
            })
            .collect();
        format!(
            "{dims} {{ {} }} [{}]",
            ranges.join("; "),
            self.privacy.name()
        )
    }

    /// Allocates an output federation map with the same ranges/workers and
    /// fresh symbol IDs (the common shape-preserving case).
    pub(crate) fn fresh_like(&self) -> Vec<FedPartition> {
        self.parts
            .iter()
            .map(|p| FedPartition {
                id: self.ctx.fresh_id(),
                ..*p
            })
            .collect()
    }

    /// Builds the sibling handle for an op output with the same federation
    /// map (owned).
    pub(crate) fn sibling(
        &self,
        rows: usize,
        cols: usize,
        parts: Vec<FedPartition>,
        privacy: PrivacyLevel,
    ) -> Result<FedMatrix> {
        FedMatrix::from_parts(
            Arc::clone(&self.ctx),
            self.scheme,
            rows,
            cols,
            parts,
            privacy,
            true,
        )
    }

    /// True when two federated matrices are co-partitioned (same scheme,
    /// ranges, and workers) so ops can execute without data movement.
    pub fn aligned_with(&self, other: &FedMatrix) -> bool {
        self.scheme == other.scheme
            && self.parts.len() == other.parts.len()
            && self
                .parts
                .iter()
                .zip(&other.parts)
                .all(|(a, b)| a.lo == b.lo && a.hi == b.hi && a.worker == b.worker)
    }

    /// Issues one request sequence per partition in parallel; `make`
    /// produces the batch for each partition. Returns responses per
    /// partition in partition order. Effect-only batches cost no round trip
    /// (see [`FedContext::submit`]).
    pub(crate) fn per_part(
        &self,
        mut make: impl FnMut(&FedPartition) -> Vec<Request>,
    ) -> Result<Vec<Vec<Response>>> {
        let mut batches = vec![Vec::new(); self.ctx.num_workers()];
        // Partition order within each worker's batch is preserved; remember
        // where each partition's responses start.
        let mut offsets = Vec::with_capacity(self.parts.len());
        for p in &self.parts {
            let batch = make(p);
            offsets.push((p.worker, batches[p.worker].len(), batch.len()));
            batches[p.worker].extend(batch);
        }
        let all = self.ctx.submit(batches)?;
        let mut out = Vec::with_capacity(self.parts.len());
        for (w, off, len) in offsets {
            let rs = &all[w];
            for r in &rs[off..off + len] {
                expect_ok(r, w)?;
            }
            out.push(rs[off..off + len].to_vec());
        }
        Ok(out)
    }

    /// Transfers and consolidates the federated data into a local matrix —
    /// "transparently transferred unless it violates privacy constraints".
    pub fn consolidate(&self) -> Result<DenseMatrix> {
        let responses = self.per_part(|p| vec![Request::Get { id: p.id }])?;
        let mut pieces: Vec<(usize, DenseMatrix)> = Vec::with_capacity(self.parts.len());
        for (p, rs) in self.parts.iter().zip(&responses) {
            let v = expect_data(&rs[0], p.worker)?;
            pieces.push((p.lo, v.to_dense()?));
        }
        pieces.sort_by_key(|(lo, _)| *lo);
        let mut out: Option<DenseMatrix> = None;
        for (_, piece) in pieces {
            out = Some(match out {
                None => piece,
                Some(acc) => match self.scheme {
                    PartitionScheme::Row => reorg::rbind(&acc, &piece)?,
                    PartitionScheme::Col => reorg::cbind(&acc, &piece)?,
                },
            });
        }
        let out = out.ok_or_else(|| RuntimeError::Invalid("empty federation map".into()))?;
        if out.shape() != (self.rows, self.cols) {
            return Err(RuntimeError::Protocol(format!(
                "consolidated shape {:?} != federated {:?}",
                out.shape(),
                (self.rows, self.cols)
            )));
        }
        Ok(out)
    }
}

fn validate_parts(
    parts: &[FedPartition],
    scheme: PartitionScheme,
    rows: usize,
    cols: usize,
    num_workers: usize,
) -> Result<()> {
    if parts.is_empty() {
        return Err(RuntimeError::Invalid("federation map is empty".into()));
    }
    let extent = match scheme {
        PartitionScheme::Row => rows,
        PartitionScheme::Col => cols,
    };
    let mut sorted: Vec<&FedPartition> = parts.iter().collect();
    sorted.sort_by_key(|p| p.lo);
    let mut expected = 0usize;
    for p in sorted {
        if p.worker >= num_workers {
            return Err(RuntimeError::Invalid(format!(
                "partition references worker {} of {num_workers}",
                p.worker
            )));
        }
        if p.lo != expected || p.hi <= p.lo {
            return Err(RuntimeError::Invalid(format!(
                "federation ranges must be disjoint and contiguous; got [{}, {}) expecting start {expected}",
                p.lo, p.hi
            )));
        }
        expected = p.hi;
    }
    if expected != extent {
        return Err(RuntimeError::Invalid(format!(
            "federation ranges cover {expected} of {extent}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::mem_federation;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn scatter_and_consolidate_roundtrip() {
        let (ctx, _workers) = mem_federation(3);
        let x = rand_matrix(100, 7, -1.0, 1.0, 11);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        assert_eq!(fed.shape(), (100, 7));
        assert_eq!(fed.parts().len(), 3);
        assert_eq!(fed.parts()[0].len(), 34); // 100 = 34 + 33 + 33
        let back = fed.consolidate().unwrap();
        assert!(back.max_abs_diff(&x) < 1e-15);
    }

    #[test]
    fn consolidate_denied_for_private_data() {
        let (ctx, _workers) = mem_federation(2);
        let x = rand_matrix(50, 3, 0.0, 1.0, 12);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Private).unwrap();
        assert!(matches!(fed.consolidate(), Err(RuntimeError::Privacy(_))));
        let fed2 =
            FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 5 })
                .unwrap();
        assert!(matches!(fed2.consolidate(), Err(RuntimeError::Privacy(_))));
    }

    #[test]
    fn validation_rejects_bad_maps() {
        let (ctx, _workers) = mem_federation(2);
        // Gap in coverage.
        let bad = vec![
            FedPartition {
                lo: 0,
                hi: 10,
                worker: 0,
                id: 1,
            },
            FedPartition {
                lo: 20,
                hi: 30,
                worker: 1,
                id: 2,
            },
        ];
        assert!(FedMatrix::from_parts(
            Arc::clone(&ctx),
            PartitionScheme::Row,
            30,
            2,
            bad,
            PrivacyLevel::Public,
            false
        )
        .is_err());
        // Worker out of range.
        let bad = vec![FedPartition {
            lo: 0,
            hi: 30,
            worker: 5,
            id: 1,
        }];
        assert!(FedMatrix::from_parts(
            Arc::clone(&ctx),
            PartitionScheme::Row,
            30,
            2,
            bad,
            PrivacyLevel::Public,
            false
        )
        .is_err());
    }

    #[test]
    fn drop_queues_garbage_for_amortized_cleanup() {
        let (ctx, workers) = mem_federation(2);
        let x = rand_matrix(20, 2, 0.0, 1.0, 13);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let ids: Vec<(usize, u64)> = fed.parts().iter().map(|p| (p.worker, p.id)).collect();
        drop(fed);
        // Symbols still exist (cleanup is lazy)...
        for (w, id) in &ids {
            assert!(workers[*w].table().contains(*id));
        }
        // ...and are removed by the next per-part RPC through a new object.
        let y = rand_matrix(20, 2, 0.0, 1.0, 14);
        let fed2 = FedMatrix::scatter_rows(&ctx, &y, PrivacyLevel::Public).unwrap();
        let _ = fed2.consolidate().unwrap();
        for (w, id) in &ids {
            assert!(
                !workers[*w].table().contains(*id),
                "worker {w} id {id} not cleaned"
            );
        }
    }

    #[test]
    fn describe_mentions_ranges_and_privacy() {
        let (ctx, _workers) = mem_federation(2);
        let x = rand_matrix(10, 4, 0.0, 1.0, 15);
        let fed =
            FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 3 })
                .unwrap();
        let d = fed.describe();
        assert!(d.contains("10x4"));
        assert!(d.contains("[0:5,]"));
        assert!(d.contains("private-aggregate"));
    }
}
