//! The local instruction executor.
//!
//! Executes [`Instruction`]s against a [`SymbolTable`], used verbatim by
//! the coordinator (local operations) and by every federated worker
//! (`EXEC_INST` requests). The executor also maintains the two pieces of
//! cross-cutting state the paper's standing workers rely on:
//!
//! * **privacy propagation** — every output inherits the strictest input
//!   constraint, and becomes *releasable* only once each private input has
//!   been aggregated over at least its `min_group` observations;
//! * **lineage tracing + reuse** — outputs are bound with a lineage hash
//!   and repeated sub-plans are served from the [`LineageCache`].
//!
//! A compressed input (from [`crate::worker`] compaction) answers each
//! opcode in its faster form (DESIGN.md §4k). Element-wise ops and
//! aggregates run on the column groups (`inst.c.<opcode>` histograms,
//! `compress.exec.direct`). The contraction ops `X v`, `t(X) Y` and
//! mmchain are slower there than on a dense matrix, so they run the
//! dense kernels on the entry's **dense twin** once it has been worth
//! decompressing — the twin lives in the executing worker's
//! [`LineageCache`], within its byte budget — and on the column groups
//! until then (see `contraction_twin`). Every other opcode needs the
//! dense form anyway: it takes the twin, or decompresses into one
//! (`compress.exec.fallback`, timed under `inst.decompress`).

use std::cell::Cell;
use std::ops::Deref;
use std::sync::Arc;

use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::kernels::aggregates::{self, AggDir};
use exdra_matrix::kernels::elementwise;
use exdra_matrix::kernels::matmul;
use exdra_matrix::kernels::quaternary;
use exdra_matrix::kernels::reorg::{self, Margin};
use exdra_matrix::kernels::ternary;
use exdra_matrix::{DenseMatrix, Matrix};

use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
use crate::lineage::{self, CachedEntry, LineageCache};
use crate::privacy::PrivacyLevel;
use crate::symbol::{Entry, SymbolTable};
use crate::value::DataValue;

/// Executes one instruction against the symbol table, with optional
/// lineage-based reuse.
pub fn execute(
    inst: &Instruction,
    table: &SymbolTable,
    cache: Option<&LineageCache>,
) -> Result<()> {
    if let Instruction::Rmvar { ids } = inst {
        table.remove(ids);
        return Ok(());
    }
    let out_id = inst
        .output()
        .expect("non-rmvar instructions bind an output");

    // One span per executed instruction, parenting under the worker's
    // batch span (same thread). The per-opcode latency histogram feeds
    // the "top instructions" section of the run report.
    let obs_on = exdra_obs::enabled();
    let mut span = exdra_obs::span(exdra_obs::SpanKind::Instruction, inst.name());
    let t_inst = obs_on.then(std::time::Instant::now);

    // Resolve inputs in declaration order.
    let input_ids = inst.inputs();
    let mut inputs = Vec::with_capacity(input_ids.len());
    for id in &input_ids {
        inputs.push((*id, table.get(*id)?));
    }
    if span.is_active() {
        for (i, (_, e)) in inputs.iter().enumerate().take(2) {
            if let DataValue::Matrix(m) = &*e.value {
                let (r, c) = m.shape();
                span.attr(if i == 0 { "in0_rows" } else { "in1_rows" }, r);
                span.attr(if i == 0 { "in0_cols" } else { "in1_cols" }, c);
            }
        }
    }

    let h = inst.lineage(inputs.iter().map(|(_, e)| e.meta.lineage));

    // Reuse probe.
    if let Some(cache) = cache {
        if let Some(hit) = cache.probe(h) {
            table.bind(out_id, hit.value, hit.privacy, hit.releasable, h);
            span.attr("reuse", true);
            if let Some(t) = t_inst {
                record_inst_nanos(inst.name(), t.elapsed().as_nanos() as u64, false);
            }
            return Ok(());
        }
    }
    span.attr("reuse", false);

    // Privacy propagation.
    let dims = |id: u64| -> (usize, usize) {
        inputs
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, e)| match &*e.value {
                DataValue::Matrix(m) => m.shape(),
                _ => (1, 1),
            })
            .unwrap_or((0, 0))
    };
    let mut privacy = PrivacyLevel::Public;
    let mut releasable = true;
    for (id, e) in &inputs {
        privacy = privacy.max(e.meta.privacy);
        match e.meta.privacy {
            PrivacyLevel::Public => {}
            PrivacyLevel::PrivateAggregate { min_group } => {
                if !e.meta.releasable && !aggregates_input(inst, *id, &dims, min_group) {
                    releasable = false;
                }
            }
            PrivacyLevel::Private => {
                // Strictly private inputs make the output strictly private;
                // the releasable flag is irrelevant but kept consistent.
                releasable = false;
            }
        }
    }

    // Reset the thread's parallel-region stats so the delta after
    // compute() is attributable to this instruction alone.
    if obs_on {
        let _ = exdra_par::take_region_stats();
    }
    COMPRESSED_DIRECT.with(|c| c.set(false));
    DECOMPRESS_NANOS.with(|c| c.set(0));
    let value = compute(inst, &inputs, table, cache)?;
    let compressed_exec = COMPRESSED_DIRECT.with(|c| c.get());
    if obs_on {
        record_inst_parallelism(inst.name(), &mut span, exdra_par::take_region_stats());
        if compressed_exec {
            exdra_obs::global().inc("compress.exec.direct");
            span.attr("compressed", true);
        }
    }
    if span.is_active() {
        if let DataValue::Matrix(m) = &value {
            let (r, c) = m.shape();
            span.attr("out_rows", r);
            span.attr("out_cols", c);
        }
    }
    let value = Arc::new(value);
    if let Some(cache) = cache {
        cache.insert(
            h,
            CachedEntry {
                value: Arc::clone(&value),
                privacy,
                releasable,
            },
        );
    }
    table.bind(out_id, value, privacy, releasable, h);
    if let Some(t) = t_inst {
        // A decompression is its own `inst.decompress` sample: the opcode
        // that happened to carry it is priced without it.
        let own = (t.elapsed().as_nanos() as u64).saturating_sub(DECOMPRESS_NANOS.with(Cell::get));
        record_inst_nanos(inst.name(), own, compressed_exec);
    }
    Ok(())
}

thread_local! {
    /// Batch-scope rollup of (regions, chunks, max threads) across the
    /// instructions this thread executed, for the `worker.batch` span —
    /// the fine-grained `exdra_par` thread-local is consumed per
    /// instruction by [`record_inst_parallelism`].
    static BATCH_PAR: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };

    /// Set by [`compute`] when the instruction executed directly on a
    /// compressed operand (no decompression). Routes the latency sample
    /// into the `inst.c.<opcode>` histogram so the plan optimizer can
    /// price compressed-domain execution separately from dense.
    static COMPRESSED_DIRECT: Cell<bool> = const { Cell::new(false) };

    /// Time the current instruction spent decompressing an input, when
    /// observability is on.
    static DECOMPRESS_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Marks the current instruction as executed in the compressed domain.
fn compressed_direct() {
    COMPRESSED_DIRECT.with(|c| c.set(true));
}

/// Returns and resets this thread's batch-scope parallelism rollup.
pub(crate) fn take_batch_parallelism() -> (u64, u64, u64) {
    BATCH_PAR.with(|c| c.replace((0, 0, 0)))
}

/// Attaches the pool activity observed during one instruction to its
/// span (`par.*` attrs) and the per-opcode `par.inst.<opcode>.*`
/// counters consumed by `RunReport`'s parallelism section. Only called
/// when observability is on.
fn record_inst_parallelism(
    name: &str,
    span: &mut exdra_obs::SpanGuard,
    stats: exdra_par::RegionStats,
) {
    if stats.total_regions() == 0 {
        return;
    }
    BATCH_PAR.with(|c| {
        let (r, ch, t) = c.get();
        c.set((
            r + stats.regions,
            ch + stats.chunks,
            t.max(stats.max_threads),
        ));
    });
    if span.is_active() {
        span.attr("par.regions", stats.regions);
        span.attr("par.chunks", stats.chunks);
        span.attr("par.threads", stats.max_threads);
    }
    let g = exdra_obs::global();
    let mut metric = String::with_capacity(16 + name.len());
    metric.push_str("par.inst.");
    metric.push_str(name);
    let base = metric.len();
    metric.push_str(".calls");
    g.inc(&metric);
    metric.truncate(base);
    metric.push_str(".regions");
    g.add(&metric, stats.regions);
    metric.truncate(base);
    metric.push_str(".chunks");
    g.add(&metric, stats.chunks);
    metric.truncate(base);
    metric.push_str(".threads");
    g.add(&metric, stats.threads_engaged);
}

/// Feeds one instruction execution into the per-opcode latency
/// histogram — `inst.<opcode>`, or `inst.c.<opcode>` when the kernel ran
/// directly on compressed column groups. Only called when observability
/// is on.
fn record_inst_nanos(name: &str, nanos: u64, compressed: bool) {
    let mut metric = String::with_capacity(7 + name.len());
    metric.push_str(if compressed { "inst.c." } else { "inst." });
    metric.push_str(name);
    exdra_obs::global().record(&metric, nanos);
}

/// True when every output cell of `inst` combines at least `k` cells of
/// the given input along the observation (row) or feature (column)
/// direction — the paper's release condition: "if these aggregates include
/// sufficiently many observations and/or features, such aggregates share
/// information on distributions but do not reveal the raw data" (§2.3).
fn aggregates_input(
    inst: &Instruction,
    input: u64,
    dims: &impl Fn(u64) -> (usize, usize),
    k: usize,
) -> bool {
    use Instruction::*;
    match inst {
        Agg { x, dir, .. } if *x == input => match dir {
            AggDir::Full => dims(*x).0 >= k || dims(*x).1 >= k,
            AggDir::Col => dims(*x).0 >= k,
            AggDir::Row => dims(*x).1 >= k,
        },
        // tsmm contracts rows (left) or columns (right).
        Tsmm { x, left, .. } if *x == input => {
            if *left {
                dims(*x).0 >= k
            } else {
                dims(*x).1 >= k
            }
        }
        // mmchain contracts both directions of x, and sums its row
        // weights over the observations like a matmul's right operand.
        MmChain { x, .. } if *x == input => dims(*x).0 >= k || dims(*x).1 >= k,
        MmChain { w: Some(w), .. } if *w == input => dims(*w).0 >= k,
        // A matmul contracts the columns of its LEFT operand (each output
        // cell combines one full row of features) and the rows of its
        // RIGHT operand (each output cell sums over observations); with a
        // transposed left operand it contracts the rows of both.
        MatMul { lhs, t_lhs, .. } if *lhs == input => {
            if *t_lhs {
                dims(*lhs).0 >= k
            } else {
                dims(*lhs).1 >= k
            }
        }
        MatMul { rhs, .. } if *rhs == input => dims(*rhs).0 >= k,
        Cov { a, b, .. } if *a == input || *b == input => dims(*a).0 >= k,
        CentralMoment { a, .. } if *a == input => dims(*a).0 >= k,
        _ => false,
    }
}

/// Dense view of an entry: zero-copy when the value is a dense matrix
/// (the common case) or has a dense twin, materializing only scalars.
/// Instruction inputs can be multi-MB partitions, so the per-instruction
/// clone this avoids dominated federated element-wise ops.
enum Dense<'a> {
    Borrowed(&'a DenseMatrix),
    Twin(Arc<DataValue>),
    Owned(DenseMatrix),
}

impl Deref for Dense<'_> {
    type Target = DenseMatrix;

    fn deref(&self) -> &DenseMatrix {
        match self {
            Dense::Borrowed(d) => d,
            Dense::Owned(d) => d,
            Dense::Twin(t) => match &**t {
                DataValue::Matrix(Matrix::Dense(d)) => d,
                _ => unreachable!("a twin is a dense matrix"),
            },
        }
    }
}

/// What a contraction op reads its matrix operand from.
enum Form<'a> {
    Dense(Dense<'a>),
    Groups(&'a CompressedMatrix),
}

/// Direct cell-passes over its column groups a compressed entry accrues
/// before the next contraction op decompresses it instead: the measured
/// decompression cost per cell over the direct kernels' penalty per cell
/// and pass, ≈ 2.5 ns / 0.4 ns (DESIGN.md §4k). Counted in cells, not in
/// time, so the form an op runs in is deterministic.
const TWIN_BREAK_EVEN_PASSES: u64 = 6;

/// The dense view of `e`. A compressed entry yields its twin: the one the
/// cache holds, else its decompression, which is left there.
fn dense<'a>(e: &'a Entry, cache: Option<&LineageCache>) -> Result<Dense<'a>> {
    Ok(match &*e.value {
        DataValue::Matrix(Matrix::Dense(d)) => Dense::Borrowed(d),
        DataValue::Matrix(Matrix::Compressed(c)) => {
            Dense::Twin(held_twin(e, cache).unwrap_or_else(|| decompress_into_twin(e, c, cache)))
        }
        other => Dense::Owned(other.to_dense()?),
    })
}

/// The dense twin the cache holds for a compressed entry, if any.
fn held_twin(e: &Entry, cache: Option<&LineageCache>) -> Option<Arc<DataValue>> {
    let twin = cache?.twin(lineage::twin_of(e.meta.lineage))?;
    if exdra_obs::enabled() {
        exdra_obs::global().inc("compress.twin.hits");
    }
    Some(twin.value)
}

/// Decompresses a compressed entry and leaves the result with the cache
/// as the entry's twin (same privacy and release flag), budget permitting.
fn decompress_into_twin(
    e: &Entry,
    c: &CompressedMatrix,
    cache: Option<&LineageCache>,
) -> Arc<DataValue> {
    let t = exdra_obs::enabled().then(std::time::Instant::now);
    let twin = Arc::new(DataValue::from(c.decompress()));
    let held = cache.is_some_and(|cache| {
        cache.insert_twin(
            lineage::twin_of(e.meta.lineage),
            CachedEntry {
                value: Arc::clone(&twin),
                privacy: e.meta.privacy,
                releasable: e.meta.releasable,
            },
        )
    });
    if let Some(t) = t {
        let nanos = t.elapsed().as_nanos() as u64;
        DECOMPRESS_NANOS.with(|c| c.set(c.get() + nanos));
        let g = exdra_obs::global();
        g.record("inst.decompress", nanos);
        g.inc("compress.exec.fallback");
        if held {
            g.inc("compress.twin.materialized");
        }
    }
    twin
}

/// The form a contraction op (`X v`, `t(X) Y`, mmchain) that walks
/// `passes × rows·cols` cells runs in on the compressed input `id`: its
/// dense twin (`Some`) or the column groups (`None`).
///
/// The dense kernels are about twice as fast, a decompression costs about
/// [`TWIN_BREAK_EVEN_PASSES`] direct passes. Whether more contractions
/// will follow is unknown, so the entry rents until renting has cost as
/// much as buying: each direct op accrues its cells on the entry, and the
/// op that would carry the accrual past the break-even decompresses
/// first. A one-shot `t(X) y` never pays for a twin, a solver's loop pays
/// once, and a twin evicted under memory pressure is earned back the same
/// way. Without a cache, or with a budget smaller than the twin, the
/// entry stays direct.
fn contraction_twin(
    (id, e): &(u64, Entry),
    c: &CompressedMatrix,
    passes: usize,
    table: &SymbolTable,
    cache: Option<&LineageCache>,
) -> Option<Arc<DataValue>> {
    let cache = cache?;
    if let Some(twin) = held_twin(e, Some(cache)) {
        return Some(twin);
    }
    let cells = (c.rows() * c.cols()) as u64;
    let buy = cache.fits(cells as usize * std::mem::size_of::<f64>())
        && table.charge_rent(
            *id,
            e.meta.lineage,
            cells.saturating_mul(passes as u64),
            cells.saturating_mul(TWIN_BREAK_EVEN_PASSES),
        );
    buy.then(|| decompress_into_twin(e, c, Some(cache)))
}

/// Computes the output value of a non-rmvar instruction.
#[allow(clippy::collapsible_match)]
fn compute(
    inst: &Instruction,
    inputs: &[(u64, Entry)],
    table: &SymbolTable,
    cache: Option<&LineageCache>,
) -> Result<DataValue> {
    use Instruction::*;
    let input = |id: u64| -> &(u64, Entry) {
        inputs
            .iter()
            .find(|(i, _)| *i == id)
            .expect("input resolved")
    };
    let m = |id: u64| -> Result<Dense<'_>> { dense(&input(id).1, cache) };
    // Compressed view of an input, when the opcode has a direct
    // column-group kernel (bitwise-identical to its dense counterpart).
    let comp = |id: u64| -> Option<&CompressedMatrix> {
        match &*input(id).1.value {
            DataValue::Matrix(Matrix::Compressed(c)) => Some(c),
            _ => None,
        }
    };
    // The form a contraction op over `passes` cell-passes reads `id` in.
    let form = |id: u64, passes: usize| -> Result<Form<'_>> {
        Ok(match comp(id) {
            Some(c) => match contraction_twin(input(id), c, passes, table, cache) {
                Some(twin) => Form::Dense(Dense::Twin(twin)),
                None => {
                    compressed_direct();
                    Form::Groups(c)
                }
            },
            None => Form::Dense(m(id)?),
        })
    };
    Ok(match inst {
        MatMul {
            lhs, rhs, t_lhs, ..
        } => {
            // A compressed left operand runs `X v` and `t(X) Y` on its
            // twin or on its column groups, and has no kernel for `X R`
            // with a wide R: that is dense, through `m`. The left operand
            // is never transposed: `t_lhs` picks the kernel.
            let r = m(*rhs)?;
            let out = if !*t_lhs && r.cols() != 1 {
                matmul::matmul(&*m(*lhs)?, &r)?
            } else {
                match (form(*lhs, r.cols())?, *t_lhs) {
                    (Form::Dense(x), false) => matmul::matmul(&x, &r)?,
                    (Form::Dense(x), true) => matmul::matmul_tn(&x, &r)?,
                    (Form::Groups(c), false) => c.matvec(&r)?,
                    (Form::Groups(c), true) => c.t_matmul(&r)?,
                }
            };
            DataValue::from(out)
        }
        Tsmm { x, left, .. } => DataValue::from(matmul::tsmm(&*m(*x)?, *left)?),
        MmChain { x, v, w, .. } => {
            let wm = w.map(&m).transpose()?;
            DataValue::from(match form(*x, 2)? {
                Form::Dense(x) => matmul::mmchain(&x, &*m(*v)?, wm.as_deref())?,
                Form::Groups(c) => c.mmchain(&*m(*v)?, wm.as_deref())?,
            })
        }
        Unary { x, op, .. } => {
            if let Some(c) = comp(*x) {
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.map_cells(|v| op.apply(v))))
            } else {
                DataValue::from(elementwise::unary(&*m(*x)?, *op))
            }
        }
        Softmax { x, .. } => DataValue::from(elementwise::softmax(&*m(*x)?)),
        Binary { lhs, rhs, op, .. } => {
            // A 1x1 right operand broadcasts as a scalar, which keeps the
            // left side compressed (dict-only transform).
            let scalar_rhs = comp(*lhs).is_some()
                && matches!(&*input(*rhs).1.value, DataValue::Matrix(mm) if mm.shape() == (1, 1));
            if scalar_rhs {
                let b = m(*rhs)?.get(0, 0);
                let c = comp(*lhs).expect("checked above");
                let op = *op;
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.map_cells(move |v| op.apply(v, b))))
            } else {
                DataValue::from(elementwise::binary(&*m(*lhs)?, *op, &*m(*rhs)?)?)
            }
        }
        Scalar {
            x, op, value, swap, ..
        } => {
            if let Some(c) = comp(*x) {
                let (op, value, swap) = (*op, *value, *swap);
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.map_cells(move |v| {
                    if swap {
                        op.apply(value, v)
                    } else {
                        op.apply(v, value)
                    }
                })))
            } else {
                DataValue::from(elementwise::scalar(&*m(*x)?, *op, *value, *swap))
            }
        }
        Agg { x, op, dir, .. } => {
            if let Some(c) = comp(*x) {
                compressed_direct();
                DataValue::from(c.aggregate(*op, *dir)?)
            } else {
                DataValue::from(aggregates::aggregate(&*m(*x)?, *op, *dir)?)
            }
        }
        RowIndexMax { x, .. } => DataValue::from(aggregates::row_index_max(&*m(*x)?)?),
        RowIndexMin { x, .. } => DataValue::from(aggregates::row_index_min(&*m(*x)?)?),
        CTable { a, b, w, dims, .. } => {
            let wm = w.map(&m).transpose()?;
            let d = dims.map(|(r, c)| (r as usize, c as usize));
            DataValue::from(ternary::ctable(&*m(*a)?, &*m(*b)?, wm.as_deref(), d)?)
        }
        IfElse {
            cond,
            then_v,
            else_v,
            ..
        } => DataValue::from(ternary::ifelse(&*m(*cond)?, &*m(*then_v)?, &*m(*else_v)?)?),
        Axpy { x, s, y, sub, .. } => DataValue::from(ternary::axpy(&*m(*x)?, *s, &*m(*y)?, *sub)?),
        WsLoss { x, w, u, v, .. } => {
            DataValue::Scalar(quaternary::wsloss(&*m(*x)?, &*m(*w)?, &*m(*u)?, &*m(*v)?)?)
        }
        WSigmoid { w, u, v, .. } => {
            DataValue::from(quaternary::wsigmoid(&*m(*w)?, &*m(*u)?, &*m(*v)?)?)
        }
        WDivMm { w, u, v, .. } => {
            DataValue::from(quaternary::wdivmm_left(&*m(*w)?, &*m(*u)?, &*m(*v)?)?)
        }
        WCeMm { w, u, v, eps, .. } => {
            DataValue::Scalar(quaternary::wcemm(&*m(*w)?, &*m(*u)?, &*m(*v)?, *eps)?)
        }
        Transpose { x, .. } => DataValue::from(reorg::transpose(&*m(*x)?)),
        Rbind { a, b, .. } => DataValue::from(reorg::rbind(&*m(*a)?, &*m(*b)?)?),
        Cbind { a, b, .. } => DataValue::from(reorg::cbind(&*m(*a)?, &*m(*b)?)?),
        RemoveEmpty {
            x, rows, select, ..
        } => {
            let sel = select.map(&m).transpose()?;
            let margin = if *rows { Margin::Rows } else { Margin::Cols };
            DataValue::from(reorg::remove_empty(&*m(*x)?, margin, sel.as_deref())?)
        }
        Replace {
            x,
            pattern,
            replacement,
            ..
        } => {
            if let Some(c) = comp(*x) {
                let (pattern, replacement) = (*pattern, *replacement);
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.map_cells(move |v| {
                    let hit = if pattern.is_nan() {
                        v.is_nan()
                    } else {
                        v == pattern
                    };
                    if hit {
                        replacement
                    } else {
                        v
                    }
                })))
            } else {
                DataValue::from(reorg::replace(&*m(*x)?, *pattern, *replacement))
            }
        }
        Index {
            x,
            row_lo,
            row_hi,
            col_lo,
            col_hi,
            ..
        } => DataValue::from(reorg::index(
            &*m(*x)?,
            *row_lo as usize,
            *row_hi as usize,
            *col_lo as usize,
            *col_hi as usize,
        )?),
        IndexAssign {
            x,
            row_lo,
            col_lo,
            y,
            ..
        } => DataValue::from(reorg::index_assign(
            &*m(*x)?,
            *row_lo as usize,
            *col_lo as usize,
            &*m(*y)?,
        )?),
        Diag { x, .. } => DataValue::from(reorg::diag(&*m(*x)?)?),
        Order {
            x,
            by,
            decreasing,
            index_return,
            ..
        } => DataValue::from(reorg::order(
            &*m(*x)?,
            *by as usize,
            *decreasing,
            *index_return,
        )?),
        GatherRows { x, idx, .. } => DataValue::from(reorg::gather_rows(&*m(*x)?, &*m(*idx)?)?),
        Reshape { x, rows, cols, .. } => {
            DataValue::from(m(*x)?.reshape(*rows as usize, *cols as usize)?)
        }
        Cov { a, b, .. } => DataValue::Scalar(elementwise::cov(&*m(*a)?, &*m(*b)?)?),
        CentralMoment { a, order, .. } => {
            DataValue::Scalar(elementwise::central_moment(&*m(*a)?, *order)?)
        }
        Rmvar { .. } => return Err(RuntimeError::Invalid("rmvar handled earlier".into())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::kernels::aggregates::AggOp;
    use exdra_matrix::kernels::elementwise::BinaryOp;
    use exdra_matrix::rng::rand_matrix;

    fn table_with(values: &[(u64, DenseMatrix)]) -> SymbolTable {
        let t = SymbolTable::new();
        for (id, m) in values {
            t.bind_public(*id, DataValue::from(m.clone()));
        }
        t
    }

    #[test]
    fn matmul_executes_and_binds() {
        let a = rand_matrix(5, 3, -1.0, 1.0, 1);
        let b = rand_matrix(3, 2, -1.0, 1.0, 2);
        let t = table_with(&[(1, a.clone()), (2, b.clone())]);
        execute(
            &Instruction::MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: false,
                out: 3,
            },
            &t,
            None,
        )
        .unwrap();
        let got = t.value(3).unwrap().to_dense().unwrap();
        let want = matmul::matmul_naive(&a, &b).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn unknown_input_reports_symbol() {
        let t = SymbolTable::new();
        let err = execute(&Instruction::Transpose { x: 9, out: 10 }, &t, None).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownSymbol(9)));
    }

    #[test]
    fn rmvar_drops_variables() {
        let t = table_with(&[(1, DenseMatrix::zeros(2, 2)), (2, DenseMatrix::zeros(2, 2))]);
        execute(&Instruction::Rmvar { ids: vec![1] }, &t, None).unwrap();
        assert!(!t.contains(1));
        assert!(t.contains(2));
    }

    #[test]
    fn privacy_propagates_strictest_level() {
        let t = SymbolTable::new();
        let x = rand_matrix(100, 4, 0.0, 1.0, 3);
        t.bind(
            1,
            Arc::new(DataValue::from(x)),
            PrivacyLevel::PrivateAggregate { min_group: 10 },
            false,
            11,
        );
        t.bind_public(2, DataValue::from(rand_matrix(100, 4, 0.0, 1.0, 4)));
        execute(
            &Instruction::Binary {
                lhs: 1,
                rhs: 2,
                op: BinaryOp::Add,
                out: 3,
            },
            &t,
            None,
        )
        .unwrap();
        let e = t.get(3).unwrap();
        assert_eq!(
            e.meta.privacy,
            PrivacyLevel::PrivateAggregate { min_group: 10 }
        );
        assert!(!e.meta.releasable, "element-wise op does not aggregate");
    }

    #[test]
    fn aggregation_unlocks_release() {
        let t = SymbolTable::new();
        let x = rand_matrix(100, 4, 0.0, 1.0, 5);
        t.bind(
            1,
            Arc::new(DataValue::from(x)),
            PrivacyLevel::PrivateAggregate { min_group: 10 },
            false,
            11,
        );
        execute(
            &Instruction::Agg {
                x: 1,
                op: AggOp::Sum,
                dir: AggDir::Col,
                out: 2,
            },
            &t,
            None,
        )
        .unwrap();
        assert!(t.get(2).unwrap().meta.releasable, "colSums over 100 rows");

        // Row sums aggregate within a row, not across observations.
        execute(
            &Instruction::Agg {
                x: 1,
                op: AggOp::Sum,
                dir: AggDir::Row,
                out: 3,
            },
            &t,
            None,
        )
        .unwrap();
        assert!(!t.get(3).unwrap().meta.releasable);
    }

    #[test]
    fn small_groups_stay_unreleasable() {
        let t = SymbolTable::new();
        let x = rand_matrix(5, 4, 0.0, 1.0, 6);
        t.bind(
            1,
            Arc::new(DataValue::from(x)),
            PrivacyLevel::PrivateAggregate { min_group: 10 },
            false,
            11,
        );
        execute(
            &Instruction::Agg {
                x: 1,
                op: AggOp::Sum,
                dir: AggDir::Col,
                out: 2,
            },
            &t,
            None,
        )
        .unwrap();
        assert!(
            !t.get(2).unwrap().meta.releasable,
            "only 5 rows < min_group 10"
        );
    }

    #[test]
    fn strictly_private_stays_private_through_aggregation() {
        let t = SymbolTable::new();
        t.bind(
            1,
            Arc::new(DataValue::from(rand_matrix(100, 4, 0.0, 1.0, 7))),
            PrivacyLevel::Private,
            false,
            11,
        );
        execute(
            &Instruction::Agg {
                x: 1,
                op: AggOp::Sum,
                dir: AggDir::Full,
                out: 2,
            },
            &t,
            None,
        )
        .unwrap();
        let e = t.get(2).unwrap();
        assert_eq!(e.meta.privacy, PrivacyLevel::Private);
        assert!(!crate::privacy::may_release(
            e.meta.privacy,
            e.meta.releasable
        ));
    }

    #[test]
    fn lineage_reuse_hits_on_identical_subplan() {
        let cache = LineageCache::new(1 << 20, true);
        let a = rand_matrix(10, 10, -1.0, 1.0, 8);
        // Two runs with fresh IDs but identical data lineage.
        for run in 0..2 {
            let t = SymbolTable::new();
            let base = run * 100;
            t.bind(
                base + 1,
                Arc::new(DataValue::from(a.clone())),
                PrivacyLevel::Public,
                true,
                777, // same source lineage across runs
            );
            execute(
                &Instruction::Tsmm {
                    x: base + 1,
                    left: true,
                    out: base + 2,
                },
                &t,
                Some(&cache),
            )
            .unwrap();
        }
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lineage_distinguishes_literals() {
        let cache = LineageCache::new(1 << 20, true);
        let t = SymbolTable::new();
        t.bind(
            1,
            Arc::new(DataValue::from(rand_matrix(4, 4, 0.0, 1.0, 9))),
            PrivacyLevel::Public,
            true,
            42,
        );
        for (out, v) in [(2u64, 1.0f64), (3, 2.0)] {
            execute(
                &Instruction::Scalar {
                    x: 1,
                    op: BinaryOp::Mul,
                    value: v,
                    swap: false,
                    out,
                },
                &t,
                Some(&cache),
            )
            .unwrap();
        }
        assert_eq!(cache.hits(), 0, "different literals must not collide");
        assert_eq!(
            t.value(3).unwrap().to_dense().unwrap().get(0, 0),
            2.0 * t.value(1).unwrap().to_dense().unwrap().get(0, 0)
        );
    }

    #[test]
    fn lineage_and_opcode_tell_a_transposed_left_matmul_apart() {
        // Square A and B: `A %*% B` and `t(A) %*% B` read the same inputs.
        let cache = LineageCache::new(1 << 20, true);
        let a = rand_matrix(6, 6, -1.0, 1.0, 10);
        let b = rand_matrix(6, 6, -1.0, 1.0, 11);
        let t = table_with(&[(1, a.clone()), (2, b.clone())]);
        let product = |t_lhs, out| Instruction::MatMul {
            lhs: 1,
            rhs: 2,
            t_lhs,
            out,
        };
        assert_eq!(product(false, 3).name(), "ba+*");
        assert_eq!(product(true, 4).name(), "t-ba+*");
        execute(&product(false, 3), &t, Some(&cache)).unwrap();
        execute(&product(true, 4), &t, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 0, "the flag is part of the lineage");
        let plain = t.value(3).unwrap().to_dense().unwrap();
        let transposed = t.value(4).unwrap().to_dense().unwrap();
        assert_eq!(
            plain.values(),
            matmul::matmul_naive(&a, &b).unwrap().values()
        );
        assert_eq!(
            transposed.values(),
            matmul::matmul_naive(&reorg::transpose(&a), &b)
                .unwrap()
                .values()
        );
        assert_ne!(plain.values(), transposed.values());
    }

    #[test]
    fn compressed_left_operand_keeps_its_kernels_when_transposed() {
        let mut x = DenseMatrix::zeros(120, 3);
        for r in 0..120 {
            x.set(r, 0, (r % 4) as f64);
            x.set(r, 2, if r % 5 == 0 { 1.5 } else { 0.0 });
        }
        let y = rand_matrix(120, 2, -1.0, 1.0, 12);
        let want = matmul::matmul_naive(&reorg::transpose(&x), &y).unwrap();
        let t = SymbolTable::new();
        t.bind_public(
            1,
            DataValue::Matrix(Matrix::Compressed(CompressedMatrix::compress(&x))),
        );
        t.bind_public(3, DataValue::from(y));
        let inst = Instruction::MatMul {
            lhs: 1,
            rhs: 3,
            t_lhs: true,
            out: 10,
        };
        execute(&inst, &t, None).unwrap();
        let got = t.value(10).unwrap().to_dense().unwrap();
        assert_eq!(got.values(), want.values());
    }

    #[test]
    fn compressed_inputs_execute_in_the_compressed_domain() {
        // A compressible frame: categorical + constant + noisy columns.
        let mut x = DenseMatrix::zeros(200, 3);
        for r in 0..200 {
            x.set(r, 0, (r % 4) as f64);
            x.set(r, 1, 7.0);
            x.set(r, 2, (r as f64 * 0.37).sin());
        }
        let c = CompressedMatrix::compress(&x);
        let t = SymbolTable::new();
        t.bind_public(1, DataValue::Matrix(Matrix::Compressed(c)));
        t.bind_public(2, DataValue::from(x.clone()));

        // Element-wise op keeps the compressed representation...
        for (id, out) in [(1u64, 10u64), (2, 11)] {
            execute(
                &Instruction::Scalar {
                    x: id,
                    op: BinaryOp::Mul,
                    value: 2.0,
                    swap: false,
                    out,
                },
                &t,
                None,
            )
            .unwrap();
        }
        let cv = t.value(10).unwrap();
        assert!(
            matches!(&*cv, DataValue::Matrix(Matrix::Compressed(_))),
            "element-wise output must stay compressed"
        );
        // ...and is bitwise identical to the dense execution.
        let (cd, dd) = (
            cv.to_dense().unwrap(),
            t.value(11).unwrap().to_dense().unwrap(),
        );
        assert!(cd
            .values()
            .iter()
            .zip(dd.values())
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // Aggregates reduce column groups directly, same bits as dense.
        for (id, out) in [(1u64, 20u64), (2, 21)] {
            execute(
                &Instruction::Agg {
                    x: id,
                    op: AggOp::Var,
                    dir: AggDir::Col,
                    out,
                },
                &t,
                None,
            )
            .unwrap();
        }
        let (ca, da) = (
            t.value(20).unwrap().to_dense().unwrap(),
            t.value(21).unwrap().to_dense().unwrap(),
        );
        assert!(ca
            .values()
            .iter()
            .zip(da.values())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// A compacted 120 x 3 partition under lineage 77 (private-aggregate),
    /// a 3 x 1 vector and a 120 x 2 block.
    fn compacted_table() -> SymbolTable {
        let mut x = DenseMatrix::zeros(120, 3);
        for r in 0..120 {
            x.set(r, 0, (r % 4) as f64);
            x.set(r, 1, 7.0);
            x.set(r, 2, if r % 5 == 0 { 1.5 } else { 0.0 });
        }
        let t = SymbolTable::new();
        t.bind(
            1,
            Arc::new(DataValue::Matrix(Matrix::Compressed(
                CompressedMatrix::compress(&x),
            ))),
            PrivacyLevel::PrivateAggregate { min_group: 10 },
            false,
            77,
        );
        t.bind_public(2, DataValue::from(rand_matrix(3, 1, -1.0, 1.0, 13)));
        t.bind_public(3, DataValue::from(rand_matrix(120, 2, -1.0, 1.0, 14)));
        t
    }

    fn mmchain(out: u64) -> Instruction {
        Instruction::MmChain {
            x: 1,
            v: 2,
            w: None,
            out,
        }
    }

    fn t_matmul(out: u64) -> Instruction {
        Instruction::MatMul {
            lhs: 1,
            rhs: 3,
            t_lhs: true,
            out,
        }
    }

    fn bits(t: &SymbolTable, id: u64) -> Vec<u64> {
        let d = t.value(id).unwrap().to_dense().unwrap();
        d.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn contraction_ops_rent_the_column_groups_then_buy_the_twin() {
        let (t, oracle) = (compacted_table(), compacted_table());
        let cache = LineageCache::new(1 << 20, false);
        let cells = 120 * 3;
        // Three mmchains are six cell-passes: at the break-even, not past it.
        for i in 0..3 {
            execute(&mmchain(10 + i), &t, Some(&cache)).unwrap();
            assert!(cache.twin(lineage::twin_of(77)).is_none());
            assert_eq!(t.get(1).unwrap().meta.rent, 2 * cells * (i + 1));
        }
        // The fourth would make it eight: it decompresses first.
        execute(&mmchain(13), &t, Some(&cache)).unwrap();
        let twin = cache.twin(lineage::twin_of(77)).expect("twin held");
        assert!(matches!(
            &*twin.value,
            DataValue::Matrix(Matrix::Dense(d)) if d.shape() == (120, 3)
        ));
        assert_eq!(
            twin.privacy,
            PrivacyLevel::PrivateAggregate { min_group: 10 }
        );
        assert!(!twin.releasable);
        assert_eq!(t.get(1).unwrap().meta.rent, 0, "rent starts over");
        // On the twin the entry accrues nothing, and every form has the
        // bits of the cache-less (always direct) executor.
        execute(&t_matmul(14), &t, Some(&cache)).unwrap();
        assert_eq!(t.get(1).unwrap().meta.rent, 0);
        execute(&mmchain(13), &oracle, None).unwrap();
        execute(&t_matmul(14), &oracle, None).unwrap();
        assert_eq!(oracle.get(1).unwrap().meta.rent, 0);
        assert_eq!(bits(&t, 12), bits(&t, 13));
        assert_eq!(bits(&t, 13), bits(&oracle, 13));
        assert_eq!(bits(&t, 14), bits(&oracle, 14));
        // An evicted twin is earned back the same way.
        cache.clear();
        execute(&t_matmul(15), &t, Some(&cache)).unwrap();
        assert!(cache.twin(lineage::twin_of(77)).is_none());
        assert_eq!(t.get(1).unwrap().meta.rent, 2 * cells);
    }

    #[test]
    fn an_op_without_a_column_group_kernel_leaves_its_decompression_as_the_twin() {
        let (t, oracle) = (compacted_table(), compacted_table());
        // Reuse off: twins are held all the same.
        let cache = LineageCache::new(1 << 20, false);
        let tsmm = Instruction::Tsmm {
            x: 1,
            left: true,
            out: 10,
        };
        execute(&tsmm, &t, Some(&cache)).unwrap();
        assert_eq!(cache.bytes(), 120 * 3 * 8);
        execute(&mmchain(11), &t, Some(&cache)).unwrap();
        assert_eq!(t.get(1).unwrap().meta.rent, 0, "ran on the twin");
        execute(&tsmm, &oracle, None).unwrap();
        execute(&mmchain(11), &oracle, None).unwrap();
        assert_eq!(bits(&t, 10), bits(&oracle, 10));
        assert_eq!(bits(&t, 11), bits(&oracle, 11));
        // Element-wise ops and aggregates stay on the column groups.
        let abs = Instruction::Unary {
            x: 1,
            op: elementwise::UnaryOp::Abs,
            out: 12,
        };
        execute(&abs, &t, Some(&cache)).unwrap();
        assert!(matches!(
            &*t.value(12).unwrap(),
            DataValue::Matrix(Matrix::Compressed(_))
        ));
    }

    #[test]
    fn a_twin_larger_than_the_budget_is_never_held_and_accrues_nothing() {
        let t = compacted_table();
        let cache = LineageCache::new(120 * 3 * 8 - 1, false);
        for i in 0..5 {
            execute(&mmchain(10 + i), &t, Some(&cache)).unwrap();
        }
        execute(
            &Instruction::Tsmm {
                x: 1,
                left: true,
                out: 20,
            },
            &t,
            Some(&cache),
        )
        .unwrap();
        assert!(cache.twin(lineage::twin_of(77)).is_none());
        assert_eq!(t.get(1).unwrap().meta.rent, 0);
    }

    #[test]
    fn scalar_results_flow_into_matrix_ops() {
        let t = table_with(&[
            (1, DenseMatrix::col_vector(&[1., 2., 3., 4.])),
            (2, DenseMatrix::col_vector(&[2., 4., 6., 8.])),
        ]);
        execute(&Instruction::Cov { a: 1, b: 2, out: 3 }, &t, None).unwrap();
        assert!((t.value(3).unwrap().as_scalar().unwrap() - 10.0 / 3.0).abs() < 1e-12);
        // The 1x1 scalar can be used as a broadcast operand.
        execute(
            &Instruction::Binary {
                lhs: 1,
                rhs: 3,
                op: BinaryOp::Mul,
                out: 4,
            },
            &t,
            None,
        )
        .unwrap();
        assert_eq!(t.value(4).unwrap().to_dense().unwrap().rows(), 4);
    }
}
