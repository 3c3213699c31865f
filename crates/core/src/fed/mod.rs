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
//! [`prep`] federated data preparation (§4.4). Every op of both lowers
//! through the three primitives defined here: `place` installs sources,
//! `map` leaves one output per partition at the sites, `gather` fetches
//! per-partition values; each partition's requests come from one `Batch`.

pub mod ops;

pub use ops::MmWeights;
pub mod prep;

use std::sync::Arc;

use exdra_matrix::kernels::reorg;
use exdra_matrix::DenseMatrix;

use crate::coordinator::{expect_ok, FedContext};
use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
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
        Self::scatter(ctx, x, privacy, PartitionScheme::Row)
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
        Self::scatter(ctx, x, privacy, PartitionScheme::Col)
    }

    fn scatter(
        ctx: &Arc<FedContext>,
        x: &DenseMatrix,
        privacy: PrivacyLevel,
        scheme: PartitionScheme,
    ) -> Result<Self> {
        let n = ctx.num_workers();
        let (extent, other, what) = match scheme {
            PartitionScheme::Row => (x.rows(), x.cols(), "rows"),
            PartitionScheme::Col => (x.cols(), x.rows(), "columns"),
        };
        if extent < n {
            return Err(RuntimeError::Invalid(format!(
                "cannot scatter {extent} {what} over {n} workers"
            )));
        }
        let lens: Vec<usize> = (0..n)
            .map(|w| extent / n + usize::from(w < extent % n))
            .collect();
        Self::place(ctx, scheme, other, privacy, &lens, |p| {
            let slice = match scheme {
                PartitionScheme::Row => reorg::index(x, p.lo, p.hi, 0, x.cols()),
                PartitionScheme::Col => reorg::index(x, 0, x.rows(), p.lo, p.hi),
            }?;
            Ok(Request::Put {
                id: p.id,
                data: DataValue::from(slice),
                privacy,
            })
        })
    }

    /// Creates a federated matrix from per-worker files (`READ` on demand,
    /// paper Figure 2): `files[w] = (fname, format, rows_in_file)`.
    pub fn read_row_partitioned(
        ctx: &Arc<FedContext>,
        files: &[(String, ReadFormat, usize)],
        cols: usize,
        privacy: PrivacyLevel,
    ) -> Result<Self> {
        let lens: Vec<usize> = files.iter().map(|(_, _, rows)| *rows).collect();
        Self::place(ctx, PartitionScheme::Row, cols, privacy, &lens, |p| {
            let (fname, format, _) = &files[p.worker];
            Ok(Request::Read {
                id: p.id,
                fname: fname.clone(),
                format: format.clone(),
                privacy,
            })
        })
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

    /// Installs one source per worker and returns the federation map over
    /// them: worker `w` holds the next `lens[w]` rows (or columns) under a
    /// fresh id, and `source` makes the `PUT` or `READ` that installs it.
    /// Data installation goes through [`FedContext::call_all`], so every
    /// site has acknowledged its source when this returns.
    pub(crate) fn place(
        ctx: &Arc<FedContext>,
        scheme: PartitionScheme,
        other: usize,
        privacy: PrivacyLevel,
        lens: &[usize],
        mut source: impl FnMut(&FedPartition) -> Result<Request>,
    ) -> Result<Self> {
        if lens.len() != ctx.num_workers() {
            return Err(RuntimeError::Invalid(format!(
                "{} sources for {} workers",
                lens.len(),
                ctx.num_workers()
            )));
        }
        let mut parts = Vec::with_capacity(lens.len());
        let mut batches = Vec::with_capacity(lens.len());
        let mut lo = 0usize;
        for (worker, len) in lens.iter().enumerate() {
            let p = FedPartition {
                lo,
                hi: lo + len,
                worker,
                id: ctx.fresh_id(),
            };
            batches.push(vec![source(&p)?]);
            lo = p.hi;
            parts.push(p);
        }
        for (w, rs) in ctx.call_all(batches)?.iter().enumerate() {
            for r in rs {
                expect_ok(r, w)?;
            }
        }
        let (rows, cols) = match scheme {
            PartitionScheme::Row => (lo, other),
            PartitionScheme::Col => (other, lo),
        };
        FedMatrix::from_parts(Arc::clone(ctx), scheme, rows, cols, parts, privacy, true)
    }

    /// Runs one federated op whose outputs stay at the sites: `build` gets
    /// each partition's index, the partition, the id of its output and its
    /// batch. The outputs form a new map with the given scheme, shape and
    /// privacy, over the same ranges unless a batch sets its own
    /// ([`Batch::range`]); a partition whose batch stays empty has no
    /// output. An effect-only op costs no round trip
    /// ([`FedContext::submit`]).
    pub(crate) fn map(
        &self,
        scheme: PartitionScheme,
        (rows, cols): (usize, usize),
        privacy: PrivacyLevel,
        mut build: impl FnMut(usize, &FedPartition, u64, &mut Batch),
    ) -> Result<FedMatrix> {
        let mut parts = Vec::with_capacity(self.parts.len());
        self.gather(|i, p, b| {
            let out = b.output();
            build(i, p, out, b);
            if !b.requests.is_empty() {
                let (lo, hi) = b.range;
                parts.push(FedPartition {
                    lo,
                    hi,
                    worker: p.worker,
                    id: out,
                });
            }
        })?;
        FedMatrix::from_parts(
            Arc::clone(&self.ctx),
            scheme,
            rows,
            cols,
            parts,
            privacy,
            true,
        )
    }

    /// Runs one federated op and returns, per partition in partition
    /// order, the values its batch fetched, in request order. `build` gets
    /// each partition's index, the partition and its batch. All batches
    /// travel in one [`FedContext::submit`]; the op's broadcasts are
    /// retired behind it.
    pub(crate) fn gather(
        &self,
        mut build: impl FnMut(usize, &FedPartition, &mut Batch),
    ) -> Result<Vec<Vec<DataValue>>> {
        let mut broadcasts = Broadcasts::default();
        let mut batches = vec![Vec::new(); self.ctx.num_workers()];
        let mut lens = Vec::with_capacity(self.parts.len());
        for (i, p) in self.parts.iter().enumerate() {
            let mut b = Batch {
                ctx: &self.ctx,
                worker: p.worker,
                requests: Vec::new(),
                temps: Vec::new(),
                broadcasts: &mut broadcasts,
                calls: 0,
                range: (p.lo, p.hi),
            };
            build(i, p, &mut b);
            let batch = b.finish();
            lens.push((p.worker, batch.len()));
            batches[p.worker].extend(batch);
        }
        let responses = self.ctx.submit(batches)?;
        for &(w, n) in &broadcasts.sent {
            self.ctx.defer_rmvar(w, broadcasts.ids[n]);
        }
        // Each worker's responses, consumed partition by partition.
        let mut responses: Vec<_> = responses.into_iter().map(Vec::into_iter).collect();
        lens.into_iter()
            .map(|(w, len)| {
                responses[w]
                    .by_ref()
                    .take(len)
                    .filter_map(|r| match r {
                        Response::Data(v) => Some(Ok(v)),
                        r => expect_ok(&r, w).err().map(Err),
                    })
                    .collect()
            })
            .collect()
    }

    /// Transfers and consolidates the federated data into a local matrix —
    /// "transparently transferred unless it violates privacy constraints".
    pub fn consolidate(&self) -> Result<DenseMatrix> {
        let values = self.gather(|_, p, b| b.get(p.id))?;
        let mut pieces = Vec::with_capacity(self.parts.len());
        for (p, v) in self.parts.iter().zip(values.into_iter().flatten()) {
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

/// The broadcasts of one op: their ids in call order, and which
/// `(worker, call)` pairs have been sent.
#[derive(Default)]
struct Broadcasts {
    ids: Vec<u64>,
    sent: Vec<(usize, usize)>,
}

/// The requests of one partition in a [`FedMatrix::map`] or
/// [`FedMatrix::gather`]. Every id it hands out through [`Batch::put`] or
/// [`Batch::temp`] is removed by one `Rmvar` at the end of the batch; a
/// [`Batch::broadcast`] reaches each worker once and is retired after the
/// op.
pub(crate) struct Batch<'a> {
    ctx: &'a FedContext,
    worker: usize,
    requests: Vec<Request>,
    temps: Vec<u64>,
    broadcasts: &'a mut Broadcasts,
    /// `broadcast` calls made by this batch so far.
    calls: usize,
    /// This partition's range in a `map`'s output.
    range: (usize, usize),
}

impl Batch<'_> {
    /// Ships a side input for this batch only; returns its id.
    pub(crate) fn put(&mut self, value: impl Into<DataValue>) -> u64 {
        let id = self.temp();
        self.requests.push(Request::Put {
            id,
            data: value.into(),
            privacy: PrivacyLevel::Public,
        });
        id
    }

    /// Returns the id of a side input shared by every partition: the
    /// `n`-th `broadcast` of each batch of one op names the same value,
    /// which is shipped the first time a worker needs it.
    pub(crate) fn broadcast(&mut self, value: &DenseMatrix) -> u64 {
        let call = self.calls;
        self.calls += 1;
        if call == self.broadcasts.ids.len() {
            self.broadcasts.ids.push(self.ctx.fresh_id());
        }
        let id = self.broadcasts.ids[call];
        if !self.broadcasts.sent.contains(&(self.worker, call)) {
            self.broadcasts.sent.push((self.worker, call));
            self.requests.push(Request::Put {
                id,
                data: DataValue::from(value.clone()),
                privacy: PrivacyLevel::Public,
            });
        }
        id
    }

    /// Runs an instruction at the site.
    pub(crate) fn exec(&mut self, inst: Instruction) {
        self.requests.push(Request::ExecInst { inst });
    }

    /// Fetches a symbol (privacy-checked at the site).
    pub(crate) fn get(&mut self, id: u64) {
        self.requests.push(Request::Get { id });
    }

    /// Computes `inst(out)` into a temp and fetches it.
    pub(crate) fn fetch(&mut self, inst: impl FnOnce(u64) -> Instruction) {
        let out = self.temp();
        self.exec(inst(out));
        self.get(out);
    }

    /// A fresh id for an intermediate of this batch.
    pub(crate) fn temp(&mut self) -> u64 {
        let id = self.output();
        self.temps.push(id);
        id
    }

    /// A fresh id for a result the batch leaves at the site.
    pub(crate) fn output(&self) -> u64 {
        self.ctx.fresh_id()
    }

    /// Sets this partition's range in a [`FedMatrix::map`]'s output.
    pub(crate) fn range(&mut self, lo: usize, hi: usize) {
        self.range = (lo, hi);
    }

    fn finish(mut self) -> Vec<Request> {
        if !self.temps.is_empty() {
            let ids = std::mem::take(&mut self.temps);
            self.exec(Instruction::Rmvar { ids });
        }
        self.requests
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
