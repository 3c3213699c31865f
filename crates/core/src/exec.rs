//! The local instruction executor.
//!
//! Executes [`Instruction`]s against a [`SymbolTable`]: what every
//! federated worker runs for an `EXEC_INST` request. The coordinator does
//! not run it; its local operations go through [`crate::Tensor`], which
//! calls the same kernels. The executor also maintains the two pieces of
//! cross-cutting state the paper's standing workers rely on:
//!
//! * **privacy propagation** — every output inherits the strictest input
//!   constraint, and becomes *releasable* only once each private input has
//!   been aggregated over at least its `min_group` observations;
//! * **lineage tracing + reuse** — outputs are bound with a lineage hash
//!   and repeated sub-plans are served from the [`LineageCache`].
//!
//! A compressed input (from [`crate::worker`] compaction) has one stored
//! form, its column groups (DESIGN.md §4k). Element-wise ops, aggregates
//! and the contraction ops `X v`, `t(X) Y` and mmchain run on them
//! (`inst.c.<opcode>` histograms, `compress.exec.direct`). Every other
//! opcode decompresses the input for that op alone and drops the copy
//! with it (`compress.exec.fallback`, timed under `inst.decompress`).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::frame::{Frame, FrameColumn};
use exdra_matrix::kernels::aggregates::{self, AggDir};
use exdra_matrix::kernels::elementwise;
use exdra_matrix::kernels::matmul;
use exdra_matrix::kernels::quaternary;
use exdra_matrix::kernels::reorg::{self, Margin};
use exdra_matrix::kernels::ternary;
use exdra_matrix::{DenseMatrix, Matrix};
use exdra_transform::encoders::PartialColumnMeta;

use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
use crate::lineage::{CachedEntry, LineageCache};
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
    execute_in_batch(inst, table, cache, None)
}

/// The operand a cell-wise instruction can write its result over: the
/// left operand of `Binary` (unless it is also the right one), the one
/// operand of `Scalar`, `Unary` and `Replace`. Over a dense matrix, the
/// output has its shape.
pub fn in_place_operand(inst: &Instruction) -> Option<u64> {
    match inst {
        Instruction::Binary { lhs, rhs, .. } if lhs != rhs => Some(*lhs),
        Instruction::Scalar { x, .. }
        | Instruction::Unary { x, .. }
        | Instruction::Replace { x, .. } => Some(*x),
        _ => None,
    }
}

/// [`execute`] for one request of a batch. `dying` is an operand that no
/// later request of the batch reads and a later `rmvar` of it removes
/// (the worker's batch scan): when it is `inst`'s
/// [`in_place_operand`], dense, and held by the table alone, it leaves
/// the table and the result is written over its cells.
pub fn execute_in_batch(
    inst: &Instruction,
    table: &SymbolTable,
    cache: Option<&LineageCache>,
    dying: Option<u64>,
) -> Result<()> {
    if let Instruction::Rmvar { ids } = inst {
        table.remove(ids);
        return Ok(());
    }
    let out_id = inst
        .output()
        .expect("non-rmvar instructions bind an output");

    // One span per executed instruction, parenting under the worker's
    // batch span (same thread). Its own time folds into the per-opcode
    // latency histogram behind the "top instructions" section of the run
    // report.
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
                span.attr("own_nanos", t.elapsed().as_nanos() as u64);
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
    DECOMPRESSIONS.with(|c| c.set(0));
    DECOMPRESS_NANOS.with(|c| c.set(0));
    let value = match dying.filter(|&x| in_place_operand(inst) == Some(x)) {
        Some(x) => compute_in_place(inst, x, &mut inputs, table)?,
        None => compute(inst, &inputs)?,
    };
    let compressed_exec = COMPRESSED_DIRECT.with(|c| c.get());
    // The pool activity of this instruction alone, folded into the
    // per-opcode `par.inst.<opcode>.*` counters of `RunReport`.
    let par = obs_on.then(exdra_par::take_region_stats);
    if let Some(par) = par.filter(|p| p.total_regions() > 0) {
        span.attr("par.regions", par.regions);
        span.attr("par.chunks", par.chunks);
        span.attr("par.threads", par.max_threads);
        span.attr("par.threads_engaged", par.threads_engaged);
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
        // that happened to carry it is priced without it. On column groups
        // the time is `inst.c.<opcode>`'s.
        let own = (t.elapsed().as_nanos() as u64).saturating_sub(DECOMPRESS_NANOS.with(Cell::get));
        let key = if compressed_exec {
            "c.own_nanos"
        } else {
            "own_nanos"
        };
        span.attr(key, own);
    }
    Ok(())
}

thread_local! {
    /// Set by [`compute`] when the instruction executed directly on a
    /// compressed operand (no decompression). Routes the latency sample
    /// into the `inst.c.<opcode>` histogram so the plan optimizer can
    /// price compressed-domain execution separately from dense.
    static COMPRESSED_DIRECT: Cell<bool> = const { Cell::new(false) };

    /// Inputs the current instruction decompressed.
    static DECOMPRESSIONS: Cell<u32> = const { Cell::new(0) };

    /// Time the current instruction spent decompressing an input, when
    /// observability is on.
    static DECOMPRESS_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Marks the current instruction as executed in the compressed domain.
fn compressed_direct() {
    COMPRESSED_DIRECT.with(|c| c.set(true));
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
        // Encoder metadata and category counts hold only the categories
        // seen at least `k` times (`releasable_counts`).
        EncodeBuildPartial { frame, .. } | CategoryCounts { frame, .. } if *frame == input => true,
        _ => false,
    }
}

/// The categories of a frame column its site may release, with their
/// counts: under a private-aggregate constraint a category seen fewer
/// than `min_group` times stays at the site. The one release rule of the
/// metadata rows; a recode token it drops encodes as unknown.
fn releasable_counts(col: &FrameColumn, privacy: PrivacyLevel) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::<String, u64>::new();
    col.for_each_token(0..col.len(), |_, tok| {
        if let Some(tok) = tok {
            match counts.get_mut(tok) {
                Some(n) => *n += 1,
                None => {
                    counts.insert(tok.to_string(), 1);
                }
            }
        }
    });
    if let PrivacyLevel::PrivateAggregate { min_group } = privacy {
        counts.retain(|_, n| *n >= min_group as u64);
    }
    counts
}

/// The dense form of `e`, for an op without a column-group kernel:
/// borrowed for a dense matrix, zero-copy (instruction inputs can be
/// multi-MB partitions). A compressed entry decompresses for this op
/// alone (`compress.exec.fallback`, timed under `inst.decompress`), and
/// the copy is dropped with the op.
fn dense(e: &Entry) -> Result<Cow<'_, DenseMatrix>> {
    let DataValue::Matrix(m) = &*e.value else {
        return Ok(Cow::Owned(e.value.to_dense()?));
    };
    if !matches!(m, Matrix::Compressed(_)) {
        return Ok(m.dense());
    }
    DECOMPRESSIONS.with(|c| c.set(c.get() + 1));
    let t = exdra_obs::enabled().then(std::time::Instant::now);
    let d = m.dense();
    if let Some(t) = t {
        let nanos = t.elapsed().as_nanos() as u64;
        DECOMPRESS_NANOS.with(|c| c.set(c.get() + nanos));
        let g = exdra_obs::global();
        g.record("inst.decompress", nanos);
        g.inc("compress.exec.fallback");
    }
    Ok(d)
}

/// Computes a cell-wise `inst` over the cells of its operand `x`, which
/// dies at it: `x` leaves the table when it is a dense matrix that `inst`
/// maps onto its own shape and that no one but the table and `inputs`
/// holds. Otherwise `inst` computes into a fresh output like any other
/// instruction. The kernels run one loop for either buffer, so the bits
/// are the same.
fn compute_in_place(
    inst: &Instruction,
    x: u64,
    inputs: &mut Vec<(u64, Entry)>,
    table: &SymbolTable,
) -> Result<DataValue> {
    use Instruction::*;
    let pos = inputs
        .iter()
        .position(|(id, _)| *id == x)
        .expect("input resolved");
    let DataValue::Matrix(Matrix::Dense(d)) = &*inputs[pos].1.value else {
        return compute(inst, inputs);
    };
    let shape = d.shape();
    let rhs_entry = match inst {
        Binary { rhs, .. } => inputs
            .iter()
            .find(|(id, _)| id == rhs)
            .map(|(_, e)| e.clone()),
        _ => None,
    };
    let rhs = rhs_entry.as_ref().map(dense).transpose()?;
    if rhs
        .as_ref()
        .is_some_and(|r| !elementwise::broadcasts(shape, r))
    {
        return compute(inst, inputs);
    }
    let (_, Entry { value, meta }) = inputs.swap_remove(pos);
    let mut d = match table.take_unique(x, value) {
        Ok(DataValue::Matrix(Matrix::Dense(d))) => d,
        Ok(_) => unreachable!("the table's value is the dense one resolved"),
        Err(value) => {
            inputs.push((x, Entry { value, meta }));
            return compute(inst, inputs);
        }
    };
    match inst {
        Binary { op, .. } => {
            let r = rhs.as_deref().expect("resolved above");
            elementwise::binary_in_place(&mut d, *op, r)?;
        }
        Scalar {
            op, value, swap, ..
        } => elementwise::scalar_in_place(&mut d, *op, *value, *swap),
        Unary { op, .. } => elementwise::unary_in_place(&mut d, *op),
        Replace {
            pattern,
            replacement,
            ..
        } => reorg::replace_in_place(&mut d, *pattern, *replacement),
        _ => unreachable!("in_place_operand names cell-wise instructions only"),
    }
    Ok(DataValue::from(d))
}

/// Computes the output value of a non-rmvar instruction.
#[allow(clippy::collapsible_match)]
fn compute(inst: &Instruction, inputs: &[(u64, Entry)]) -> Result<DataValue> {
    use Instruction::*;
    let input = |id: u64| -> &(u64, Entry) {
        inputs
            .iter()
            .find(|(i, _)| *i == id)
            .expect("input resolved")
    };
    let m = |id: u64| -> Result<Cow<'_, DenseMatrix>> { dense(&input(id).1) };
    let as_frame = |id: u64| input(id).1.value.as_frame();
    // Compressed view of an input, when the opcode has a direct
    // column-group kernel (bitwise-identical to its dense counterpart).
    let comp = |id: u64| -> Option<&CompressedMatrix> {
        match &*input(id).1.value {
            DataValue::Matrix(Matrix::Compressed(c)) => Some(c),
            _ => None,
        }
    };
    // A contraction op's compressed operand, marked as run on its groups.
    let groups = |id: u64| -> Option<&CompressedMatrix> {
        let c = comp(id)?;
        compressed_direct();
        Some(c)
    };
    Ok(match inst {
        MatMul {
            lhs, rhs, t_lhs, ..
        } => {
            // A compressed left operand runs `X v` and `t(X) Y` on its
            // column groups, and has no kernel for `X R` with a wide R:
            // that is dense, through `m`. The left operand is never
            // transposed: `t_lhs` picks the kernel.
            let r = m(*rhs)?;
            let c = if *t_lhs || r.cols() == 1 {
                groups(*lhs)
            } else {
                None
            };
            let out = match (c, *t_lhs) {
                (Some(c), false) => c.matvec(&r)?,
                (Some(c), true) => c.t_matmul(&r)?,
                (None, false) => matmul::matmul(&*m(*lhs)?, &r)?,
                (None, true) => matmul::matmul_tn(&*m(*lhs)?, &r)?,
            };
            DataValue::from(out)
        }
        Tsmm { x, left, .. } => DataValue::from(matmul::tsmm(&*m(*x)?, *left)?),
        MmChain { x, v, w, .. } => {
            let (v, wm) = (m(*v)?, w.map(&m).transpose()?);
            DataValue::from(match groups(*x) {
                Some(c) => c.mmchain(&v, wm.as_deref())?,
                None => matmul::mmchain(&*m(*x)?, &v, wm.as_deref())?,
            })
        }
        Unary { x, op, .. } => {
            if let Some(c) = comp(*x) {
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.unary(*op)))
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
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.scalar(*op, b, false)))
            } else {
                DataValue::from(elementwise::binary(&*m(*lhs)?, *op, &*m(*rhs)?)?)
            }
        }
        Scalar {
            x, op, value, swap, ..
        } => {
            if let Some(c) = comp(*x) {
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.scalar(*op, *value, *swap)))
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
                compressed_direct();
                DataValue::from(Matrix::Compressed(c.replace(*pattern, *replacement)))
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
        EncodeBuildPartial { frame, spec, .. } => {
            let f = as_frame(*frame)?;
            let privacy = input(*frame).1.meta.privacy;
            let mut partial = exdra_transform::build_partial(f, spec)?;
            if matches!(privacy, PrivacyLevel::PrivateAggregate { .. }) {
                for (cs, col) in spec.columns.iter().zip(&mut partial.columns) {
                    if let PartialColumnMeta::Recode { distincts } = col {
                        let counts = releasable_counts(f.column_by_name(&cs.name)?, privacy);
                        *distincts = counts.into_keys().collect();
                    }
                }
            }
            DataValue::PartialMeta(partial)
        }
        EncodeApply { frame, meta, .. } => {
            let meta = match &*input(*meta).1.value {
                DataValue::TransformMeta(m) => m,
                other => {
                    return Err(RuntimeError::Invalid(format!(
                        "expected transform-meta, found {}",
                        other.type_name()
                    )))
                }
            };
            DataValue::from(exdra_transform::apply(as_frame(*frame)?, meta)?)
        }
        FrameSelect { frame, columns, .. } => {
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            DataValue::Frame(as_frame(*frame)?.select(&names)?)
        }
        Shuffle {
            x,
            seed,
            row_lo,
            row_hi,
            ..
        } => DataValue::from(reorg::shuffled_rows(
            &*m(*x)?,
            *seed,
            *row_lo as usize,
            *row_hi as usize,
        )?),
        Replicate { x, times, .. } => {
            if *times == 0 {
                return Err(RuntimeError::Invalid("replication factor 0".into()));
            }
            let x = m(*x)?;
            let mut out = DenseMatrix::clone(&x);
            for _ in 1..*times {
                out = reorg::rbind(&out, &x)?;
            }
            DataValue::from(out)
        }
        CategoryCounts { frame, column, .. } => {
            let privacy = input(*frame).1.meta.privacy;
            let counts = releasable_counts(as_frame(*frame)?.column_by_name(column)?, privacy);
            DataValue::Frame(Frame::new(vec![
                (
                    "token".into(),
                    FrameColumn::Str(counts.keys().map(Some).collect()),
                ),
                (
                    "count".into(),
                    FrameColumn::F64(counts.values().map(|&n| Some(n as f64)).collect()),
                ),
            ])?)
        }
        FillMissing {
            frame,
            column,
            value,
            ..
        } => {
            let f = as_frame(*frame)?;
            let idx = f.column_index(column)?;
            let mut columns = Vec::with_capacity(f.cols());
            for (c, (name, _)) in f.schema().into_iter().enumerate() {
                let col = match f.column(c)? {
                    FrameColumn::Str(v) if c == idx => {
                        FrameColumn::Str(v.iter().map(|cell| Some(cell.unwrap_or(value))).collect())
                    }
                    other if c == idx => {
                        return Err(RuntimeError::Invalid(format!(
                            "fill-missing targets string columns, '{column}' is {}",
                            other.value_type().name()
                        )))
                    }
                    other => other.clone(),
                };
                columns.push((name, col));
            }
            DataValue::Frame(Frame::new(columns)?)
        }
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

        // A fill of another column, and an encode under other metadata.
        let frame = Frame::new(vec![
            ("a".into(), FrameColumn::from(vec![Some("x"), None])),
            ("b".into(), FrameColumn::from(vec![None, Some("y")])),
        ])
        .unwrap();
        t.bind(
            10,
            Arc::new(DataValue::Frame(frame)),
            PrivacyLevel::Public,
            true,
            43,
        );
        let spec = exdra_transform::TransformSpec {
            columns: vec![exdra_transform::ColumnSpec {
                name: "b".into(),
                kind: exdra_transform::EncodeKind::Recode,
                one_hot: false,
            }],
        };
        for (id, tokens) in [(11, ["x", "z"]), (12, ["x", "y"])] {
            let partial = exdra_transform::PartialMeta {
                columns: vec![PartialColumnMeta::Recode {
                    distincts: tokens.map(String::from).to_vec(),
                }],
                rows: 2,
            };
            let meta = exdra_transform::merge_partials(&[partial], &spec).unwrap();
            t.bind_public(id, DataValue::TransformMeta(meta));
        }
        let fill = |column: &str, out| Instruction::FillMissing {
            frame: 10,
            column: column.into(),
            value: "v".into(),
            out,
        };
        let encode = |meta, out| Instruction::EncodeApply {
            frame: 10,
            meta,
            out,
        };
        for inst in [fill("a", 20), fill("b", 21), encode(11, 30), encode(12, 31)] {
            execute(&inst, &t, Some(&cache)).unwrap();
        }
        assert_eq!(cache.hits(), 0, "the column and the metadata enter lineage");
        let frame = t.value(21).unwrap();
        let filled = frame.as_frame().unwrap().column_by_name("b").unwrap();
        assert_eq!(filled.token(0).as_deref(), Some("v"));
        let code = |id| t.value(id).unwrap().to_dense().unwrap().get(1, 0);
        assert!(code(30).is_nan(), "y is unknown to the first metadata");
        assert_eq!(code(31), 2.0);
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
        bits_of(&t.value(id).unwrap().to_dense().unwrap())
    }

    fn bits_of(d: &DenseMatrix) -> Vec<u64> {
        d.values().iter().map(|v| v.to_bits()).collect()
    }

    /// Whether the last instruction executed on this thread ran on
    /// column groups.
    fn ran_direct() -> bool {
        COMPRESSED_DIRECT.with(Cell::get)
    }

    fn tsmm(out: u64) -> Instruction {
        Instruction::Tsmm {
            x: 1,
            left: true,
            out,
        }
    }

    /// Inputs the last instruction executed on this thread decompressed.
    fn decompressions() -> u32 {
        DECOMPRESSIONS.with(Cell::get)
    }

    #[test]
    fn contraction_ops_run_on_the_column_groups() {
        let (t, oracle) = (compacted_table(), compacted_table());
        let cache = LineageCache::new(1 << 20, false);
        // Ten mmchains and a `t(X) Y`: 22 cell-passes, none decompresses.
        for i in 0..10 {
            execute(&mmchain(10 + i), &t, Some(&cache)).unwrap();
            assert!(ran_direct(), "mmchain {i} on the column groups");
            assert_eq!(decompressions(), 0);
        }
        execute(&t_matmul(20), &t, Some(&cache)).unwrap();
        assert!(ran_direct());
        // A tsmm has no column-group kernel, and the contractions after
        // it still run on the groups.
        execute(&tsmm(21), &t, Some(&cache)).unwrap();
        assert!(!ran_direct());
        execute(&mmchain(22), &t, Some(&cache)).unwrap();
        assert!(ran_direct());
        execute(&t_matmul(23), &t, Some(&cache)).unwrap();
        assert!(ran_direct());
        assert_eq!(cache.bytes(), 0, "reuse off: the cache holds nothing");
        // Every op has the bits of the cache-less executor.
        for inst in [mmchain(10), t_matmul(20), tsmm(21)] {
            execute(&inst, &oracle, None).unwrap();
        }
        assert_eq!(bits(&t, 10), bits(&oracle, 10));
        assert_eq!(bits(&t, 10), bits(&t, 22));
        assert_eq!(bits(&t, 20), bits(&oracle, 20));
        assert_eq!(bits(&t, 20), bits(&t, 23));
        assert_eq!(bits(&t, 21), bits(&oracle, 21));
    }

    #[test]
    fn an_op_without_a_column_group_kernel_decompresses_once_per_call() {
        let t = compacted_table();
        let x = t.value(1).unwrap().to_dense().unwrap();
        let want = matmul::tsmm(&x, true).unwrap();
        let cache = LineageCache::new(1 << 20, false);
        for out in 10..13 {
            execute(&tsmm(out), &t, Some(&cache)).unwrap();
            assert!(!ran_direct());
            assert_eq!(decompressions(), 1, "call {out}: one decompression");
            assert_eq!(bits(&t, out), bits_of(&want));
        }
        assert_eq!(cache.bytes(), 0, "no decompression is kept");
        // The entry keeps its one stored form.
        assert!(matches!(
            &*t.value(1).unwrap(),
            DataValue::Matrix(Matrix::Compressed(_))
        ));
        // Element-wise ops and aggregates stay on the column groups.
        let abs = Instruction::Unary {
            x: 1,
            op: elementwise::UnaryOp::Abs,
            out: 14,
        };
        execute(&abs, &t, Some(&cache)).unwrap();
        assert!(ran_direct());
        assert_eq!(decompressions(), 0);
        assert!(matches!(
            &*t.value(14).unwrap(),
            DataValue::Matrix(Matrix::Compressed(_))
        ));
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
