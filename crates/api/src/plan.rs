//! The explicit logical-plan IR between [`Lazy`] DAG construction and
//! coordinator dispatch.
//!
//! A [`Plan`] is an immutable arena of [`PlanOp`] nodes in topological
//! order (operands strictly before the nodes that read them, the root last
//! reachable), lowered from a [`Lazy`] expression by [`Plan::from_lazy`].
//! Every node that is not a source is a row of the runtime's instruction
//! table ([`Instruction`]) whose operand fields hold arena indices, so a
//! node's opcode name, literals, operands and lineage are those of the
//! instruction a worker runs. It is what the [`crate::optimizer`] rule
//! pipeline rewrites: every rule consumes a `&Plan` and produces a fresh
//! `Plan`, so plans are snapshots — the before/after pair a
//! [`Session::explain`](crate::Session::explain) renders side by side.
//!
//! Besides the structure itself, a plan knows how to
//!
//! * fingerprint each node ([`Plan::lineages`]; CSE keys on it, and the
//!   root's entry is the plan-cache key [`Lazy::lineage_hash`] computes
//!   from the DAG with the same function, [`Instruction::lineage`] for
//!   every operator),
//! * render itself as the numbered generated-DML script of the paper
//!   ([`Plan::render`]), one runtime opcode per line,
//! * estimate its execution cost against a
//!   [`CostModel`] ([`Plan::estimate`]) by
//!   replaying the federated dispatch rules of `exdra_core::Tensor`
//!   symbolically (shape + locality inference), and
//! * execute itself ([`Plan::execute`]): one [`Tensor`] call per node,
//!   in arena order. This is the only evaluator; [`Lazy::eval`] is the
//!   unoptimized plan executed. The fused `mmchain` is only introduced by
//!   a rule whose rewrite is bitwise identical to the unfused execution
//!   (see DESIGN.md §4j).

use std::collections::HashMap;
use std::sync::Arc;

use exdra_core::instruction::Instruction;
use exdra_core::{Result, RuntimeError, Tensor};
use exdra_matrix::kernels::aggregates::AggDir;
use exdra_matrix::DenseMatrix;
use exdra_obs::PlanEstimate;

use crate::dag::{Expr, Lazy};
use crate::optimizer::CostModel;

/// One node of a [`Plan`] (and of a [`Lazy`] DAG): a source, or an
/// instruction row.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Local source matrix (shared, never copied by lowering).
    SourceLocal(Arc<DenseMatrix>),
    /// Federated source.
    SourceFed(exdra_core::FedMatrix),
    /// An instruction whose operand fields are the arena indices of the
    /// nodes it reads (in a [`Lazy`] DAG node, positions in its operand
    /// list). Its output field is unused: the node is its output.
    Inst(Instruction),
}

impl PlanOp {
    /// The operands, in operand order: arena indices in a plan.
    pub fn children(&self) -> Vec<usize> {
        match self {
            PlanOp::Inst(inst) => inst.inputs().into_iter().map(|id| id as usize).collect(),
            PlanOp::SourceLocal(_) | PlanOp::SourceFed(_) => Vec::new(),
        }
    }

    /// Rewrites every operand through `map`: the one operand rewrite
    /// behind lowering, compaction and CSE.
    pub(crate) fn map_operands(&mut self, mut map: impl FnMut(usize) -> usize) {
        if let PlanOp::Inst(inst) = self {
            inst.map_operands(|id| map(id as usize) as u64);
        }
    }

    /// The lineage fingerprint of this node over its operands' lineages
    /// (in operand order): a source's from its content or partitions, an
    /// instruction's from [`Instruction::lineage`]. The one hashing scheme
    /// behind both [`Plan::lineages`] and [`Lazy::lineage_hash`], and the
    /// plan-cache key, so it must never move.
    pub(crate) fn lineage(&self, operands: impl IntoIterator<Item = u64>) -> u64 {
        use exdra_core::lineage::{mix, of_dense, seed};
        match self {
            // By content, every cell: the plan cache is shared across
            // sessions, and a sampled fingerprint would let two sources
            // that differ in the middle share a result.
            PlanOp::SourceLocal(m) => mix(seed("src.local"), of_dense(m)),
            PlanOp::SourceFed(f) => {
                let mut h = mix(mix(seed("src.fed"), f.rows() as u64), f.cols() as u64);
                for p in f.parts() {
                    h = mix(
                        mix(mix(mix(h, p.lo as u64), p.hi as u64), p.worker as u64),
                        p.id,
                    );
                }
                h
            }
            PlanOp::Inst(inst) => inst.lineage(operands),
        }
    }
}

/// An immutable logical plan: a topologically ordered node arena plus
/// the root index. See the module docs.
#[derive(Debug, Clone)]
pub struct Plan {
    nodes: Vec<PlanOp>,
    root: usize,
}

/// Statically inferred locality of a plan node's result, mirroring the
/// federated dispatch rules of `exdra_core::Tensor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Materialized at the coordinator.
    Local,
    /// Row-partitioned federated data.
    FedRow,
    /// Column-partitioned federated data.
    FedCol,
}

impl Loc {
    pub(crate) fn is_fed(self) -> bool {
        self != Loc::Local
    }
}

/// Shape + locality of one node, when statically inferable. `None` in
/// the meta vector means the node would error at runtime (or its
/// locality cannot be decided statically); rules must not fire there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeMeta {
    pub rows: usize,
    pub cols: usize,
    pub loc: Loc,
    /// Partition count while federated (0 when local).
    pub parts: usize,
}

impl NodeMeta {
    pub(crate) fn cells(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }
}

impl Plan {
    /// Flattens a [`Lazy`] expression into a plan: a child-first
    /// depth-first walk, operands in order, in which shared sub-DAGs
    /// (same `Arc` identity) become one shared node.
    pub fn from_lazy(lazy: &Lazy) -> Plan {
        let mut ids = HashMap::new();
        let mut nodes = Vec::new();
        let root = lower(lazy, &mut ids, &mut nodes);
        Plan { nodes, root }
    }

    /// Rebuilds a plan from raw parts, keeping only nodes reachable from
    /// `root` (in the original relative order, which stays topological).
    pub(crate) fn compacted(nodes: Vec<PlanOp>, root: usize) -> Plan {
        let mut live = vec![false; nodes.len()];
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut live[i], true) {
                stack.extend(nodes[i].children());
            }
        }
        let mut remap = vec![usize::MAX; nodes.len()];
        let mut kept = Vec::with_capacity(nodes.len());
        for (i, mut op) in nodes.into_iter().enumerate() {
            if live[i] {
                remap[i] = kept.len();
                op.map_operands(|c| remap[c]);
                kept.push(op);
            }
        }
        Plan {
            root: remap[root],
            nodes: kept,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a plan with no nodes (never produced by lowering).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Arena index of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The node at arena index `i`.
    pub fn node(&self, i: usize) -> &PlanOp {
        &self.nodes[i]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[PlanOp] {
        &self.nodes
    }

    /// How many parents reference each node (the root counts once), the
    /// gate fusion rules use to avoid duplicating shared work.
    pub fn refcounts(&self) -> Vec<usize> {
        let mut refs = vec![0usize; self.nodes.len()];
        refs[self.root] += 1;
        for node in &self.nodes {
            for c in node.children() {
                refs[c] += 1;
            }
        }
        refs
    }

    /// Per-node lineage fingerprints (`PlanOp::lineage` over the arena;
    /// on a plan lowered from a [`Lazy`], the root's entry is its
    /// [`Lazy::lineage_hash`]): structurally identical subtrees over the
    /// same sources hash equal. This is the CSE pre-filter key; exact
    /// structural equality is still verified before merging.
    pub fn lineages(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let h = node.lineage(node.children().into_iter().map(|c| out[c]));
            out.push(h);
        }
        out
    }

    /// Renders the plan as the numbered generated-DML script — one
    /// assignment per node: the runtime opcode, the operands as `X<n>`,
    /// then the literals.
    pub fn render(&self) -> String {
        let mut lines = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let rhs = match node {
                PlanOp::SourceLocal(m) => format!("matrix({}x{})", m.rows(), m.cols()),
                PlanOp::SourceFed(f) => format!(
                    "federated({}x{}, {} partitions, {})",
                    f.rows(),
                    f.cols(),
                    f.parts().len(),
                    f.privacy().name()
                ),
                PlanOp::Inst(inst) => {
                    let operands: Vec<String> = node
                        .children()
                        .iter()
                        .map(|c| format!("X{}", c + 1))
                        .collect();
                    let literals = inst.literals();
                    if literals.is_empty() {
                        format!("{}({})", inst.name(), operands.join(", "))
                    } else {
                        format!(
                            "{}({}; {})",
                            inst.name(),
                            operands.join(", "),
                            literals.join(", ")
                        )
                    }
                }
            };
            lines.push(format!("X{} = {rhs}", i + 1));
        }
        lines.join("\n")
    }

    /// Statically infers shape and locality per node by replaying the
    /// `Tensor` dispatch rules. `None` entries mark nodes that would
    /// error at runtime or whose placement cannot be decided statically;
    /// optimizer rules must leave those subtrees untouched.
    pub(crate) fn meta(&self) -> Vec<Option<NodeMeta>> {
        let mut out: Vec<Option<NodeMeta>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let m = infer(node, &out);
            out.push(m);
        }
        out
    }

    /// Estimates execution cost against a [`CostModel`] by walking the
    /// arena and charging each operator the transfers, request rounds,
    /// and kernel time its dispatch implies (including the final
    /// consolidation when the root stays federated). A node whose output
    /// stays federated costs no round: its requests are deferred and ride
    /// with the next node that fetches something. Each operator's kernel
    /// is priced under its runtime opcode name. Nodes whose meta is
    /// unknown contribute nothing — estimates are advisory.
    pub fn estimate(&self, cost: &dyn CostModel) -> PlanEstimate {
        let meta = self.meta();
        let mut est = Estimator::default();
        for (node, out) in self.nodes.iter().zip(&meta) {
            if let (PlanOp::Inst(inst), Some(out)) = (node, out) {
                estimate_node(inst, &meta, *out, cost, &mut est);
            }
        }
        if let Some(Some(root)) = meta.get(self.root) {
            if root.loc.is_fed() {
                // `compute()` consolidates the federated result locally.
                est.bytes += root.cells() * 8;
                est.rounds += 1;
            }
        }
        PlanEstimate {
            bytes_moved: est.bytes,
            round_trips: est.rounds,
            compute_nanos: est.compute,
            total_nanos: est.compute
                + cost.transfer_nanos(est.bytes)
                + est.rounds as f64 * cost.round_trip_nanos(),
        }
    }

    /// Executes the plan: evaluates every node once in arena order (the
    /// arena is compacted, so all nodes are live) and returns the root
    /// tensor, kept federated when dispatch permits.
    pub fn execute(&self) -> Result<Tensor> {
        let mut vals: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let v = eval_op(node, &vals)?;
            vals[i] = Some(v);
        }
        vals[self.root]
            .take()
            .ok_or_else(|| RuntimeError::Invalid("empty plan".into()))
    }

    /// Executes the plan and consolidates the result locally (the
    /// `compute()` of the paper's Python API, privacy-checked).
    pub fn compute(&self) -> Result<DenseMatrix> {
        self.execute()?.to_local()
    }
}

/// Lowers one DAG node after its operands: its operand positions become
/// the operands' arena indices.
fn lower(lazy: &Lazy, ids: &mut HashMap<*const Expr, usize>, nodes: &mut Vec<PlanOp>) -> usize {
    let key = Arc::as_ptr(&lazy.expr);
    if let Some(&id) = ids.get(&key) {
        return id;
    }
    let children: Vec<usize> = lazy
        .expr
        .children
        .iter()
        .map(|c| lower(c, ids, nodes))
        .collect();
    let mut op = lazy.expr.op.clone();
    op.map_operands(|k| children[k]);
    let id = nodes.len();
    nodes.push(op);
    ids.insert(key, id);
    id
}

fn fed_loc(scheme: exdra_core::PartitionScheme) -> Loc {
    match scheme {
        exdra_core::PartitionScheme::Row => Loc::FedRow,
        exdra_core::PartitionScheme::Col => Loc::FedCol,
    }
}

/// Replays the `Tensor::matmul` consolidate-smaller-side rule: returns
/// the effective operand localities and the surviving partition count.
fn matmul_effective(a: NodeMeta, b: NodeMeta) -> (Loc, Loc, usize) {
    match (a.loc, b.loc) {
        (Loc::Local, Loc::Local) => (Loc::Local, Loc::Local, 0),
        (al, Loc::Local) => (al, Loc::Local, a.parts),
        (Loc::Local, bl) => (Loc::Local, bl, b.parts),
        (al, bl) => {
            if a.cells() <= b.cells() {
                (Loc::Local, bl, b.parts)
            } else {
                (al, Loc::Local, a.parts)
            }
        }
    }
}

fn infer(node: &PlanOp, meta: &[Option<NodeMeta>]) -> Option<NodeMeta> {
    use Instruction::*;
    let m = |id: &u64| meta[*id as usize];
    let some = |rows, cols, loc, parts| {
        Some(NodeMeta {
            rows,
            cols,
            loc,
            parts: if loc == Loc::Local { 0 } else { parts },
        })
    };
    let inst = match node {
        PlanOp::SourceLocal(x) => return some(x.rows(), x.cols(), Loc::Local, 0),
        PlanOp::SourceFed(f) => {
            return some(f.rows(), f.cols(), fed_loc(f.scheme()), f.parts().len())
        }
        PlanOp::Inst(inst) => inst,
    };
    match inst {
        MatMul {
            lhs,
            rhs,
            t_lhs: false,
            ..
        } => {
            let (a, b) = (m(lhs)?, m(rhs)?);
            if a.cols != b.rows {
                return None;
            }
            let (al, bl, parts) = matmul_effective(a, b);
            let loc = match (al, bl) {
                (Loc::Local, Loc::Local) => Loc::Local,
                (Loc::FedRow, Loc::Local) => Loc::FedRow,
                (Loc::FedCol, Loc::Local) => Loc::Local,
                (Loc::Local, Loc::FedRow) => Loc::Local,
                (Loc::Local, Loc::FedCol) => Loc::FedCol,
                _ => return None,
            };
            some(a.rows, b.cols, loc, parts)
        }
        MatMul {
            lhs,
            rhs,
            t_lhs: true,
            ..
        } => {
            let (a, b) = (m(lhs)?, m(rhs)?);
            if a.rows != b.rows {
                return None;
            }
            let (loc, parts) = match (a.loc, b.loc) {
                // Aligned row partitions run fully federated with local
                // partial aggregation; non-aligned consolidates the rhs
                // and lands local either way.
                (Loc::FedRow, Loc::FedRow) => (Loc::Local, 0),
                (Loc::Local, Loc::Local) => (Loc::Local, 0),
                (Loc::FedRow, Loc::Local) => (Loc::Local, 0),
                (Loc::FedCol, Loc::Local) => (Loc::FedRow, a.parts),
                (Loc::Local, Loc::FedRow) => (Loc::Local, 0),
                (Loc::Local, Loc::FedCol) => (Loc::FedCol, b.parts),
                (Loc::FedRow, Loc::FedCol) => (Loc::Local, 0),
                (Loc::FedCol, Loc::FedRow) => (Loc::FedRow, a.parts),
                // Col×Col: aligned-ness decides error vs consolidate —
                // not statically knowable.
                (Loc::FedCol, Loc::FedCol) => return None,
            };
            some(a.cols, b.cols, loc, parts)
        }
        Tsmm { x, left: true, .. } => {
            let a = m(x)?;
            if a.loc == Loc::FedCol {
                return None; // federated tsmm requires row partitioning
            }
            some(a.cols, a.cols, Loc::Local, 0)
        }
        Binary { lhs, rhs, .. } => {
            let (a, b) = (m(lhs)?, m(rhs)?);
            let (rows, cols) = broadcast_shape(a, b)?;
            let (loc, parts) = match (a.loc, b.loc) {
                (Loc::Local, Loc::Local) => (Loc::Local, 0),
                (al, Loc::Local) => (al, a.parts),
                (Loc::Local, bl) => (bl, b.parts),
                // Fed×Fed requires co-partitioning; keep the lhs shape.
                (al, _) => (al, a.parts),
            };
            some(rows, cols, loc, parts)
        }
        Scalar { x, .. } | Unary { x, .. } | Replace { x, .. } => {
            let a = m(x)?;
            some(a.rows, a.cols, a.loc, a.parts)
        }
        Softmax { x, .. } | RowIndexMax { x, .. } => {
            let a = m(x)?;
            if a.loc == Loc::FedCol {
                return None; // row-wise ops require row partitioning
            }
            let cols = if let Softmax { .. } = inst { a.cols } else { 1 };
            some(a.rows, cols, a.loc, a.parts)
        }
        Agg { x, dir, .. } => {
            let a = m(x)?;
            let (rows, cols) = match dir {
                AggDir::Full => (1, 1),
                AggDir::Row => (a.rows, 1),
                AggDir::Col => (1, a.cols),
            };
            let stays_fed = (a.loc == Loc::FedRow && *dir == AggDir::Row)
                || (a.loc == Loc::FedCol && *dir == AggDir::Col);
            if stays_fed {
                some(rows, cols, a.loc, a.parts)
            } else {
                some(rows, cols, Loc::Local, 0)
            }
        }
        Transpose { x, .. } => {
            let a = m(x)?;
            let loc = match a.loc {
                Loc::Local => Loc::Local,
                Loc::FedRow => Loc::FedCol,
                Loc::FedCol => Loc::FedRow,
            };
            some(a.cols, a.rows, loc, a.parts)
        }
        Index {
            x,
            row_lo,
            row_hi,
            col_lo,
            col_hi,
            ..
        } => {
            let a = m(x)?;
            let (rl, ru, cl, cu) = (*row_lo, *row_hi, *col_lo, *col_hi);
            if rl >= ru || cl >= cu || ru > a.rows as u64 || cu > a.cols as u64 {
                return None;
            }
            if a.loc == Loc::FedCol {
                return None;
            }
            some((ru - rl) as usize, (cu - cl) as usize, a.loc, a.parts)
        }
        Rbind { a, b, .. } => {
            let (a, b) = (m(a)?, m(b)?);
            if a.cols != b.cols {
                return None;
            }
            match (a.loc, b.loc) {
                (Loc::Local, Loc::Local) => some(a.rows + b.rows, a.cols, Loc::Local, 0),
                (Loc::FedRow, Loc::FedRow) => {
                    some(a.rows + b.rows, a.cols, Loc::FedRow, a.parts + b.parts)
                }
                _ => None,
            }
        }
        Cbind { a, b, .. } => {
            let (a, b) = (m(a)?, m(b)?);
            if a.rows != b.rows {
                return None;
            }
            match (a.loc, b.loc) {
                (Loc::Local, Loc::Local) => some(a.rows, a.cols + b.cols, Loc::Local, 0),
                (Loc::FedRow, Loc::FedRow) => some(a.rows, a.cols + b.cols, Loc::FedRow, a.parts),
                _ => None,
            }
        }
        MmChain { x, .. } => {
            let x = m(x)?;
            some(x.cols, 1, Loc::Local, 0)
        }
        // No Lazy call builds the other rows: they do not execute here.
        _ => None,
    }
}

/// Broadcast result shape with lhs-major semantics (rhs may be a scalar
/// or a conforming row/col vector; a scalar lhs broadcasts over the rhs).
fn broadcast_shape(a: NodeMeta, b: NodeMeta) -> Option<(usize, usize)> {
    if (a.rows, a.cols) == (1, 1) && (b.rows, b.cols) != (1, 1) {
        Some((b.rows, b.cols))
    } else if (b.rows, b.cols) == (1, 1)
        || (a.rows, a.cols) == (b.rows, b.cols)
        || (b.rows == a.rows && b.cols == 1)
        || (b.rows == 1 && b.cols == a.cols)
    {
        Some((a.rows, a.cols))
    } else {
        None
    }
}

#[derive(Default)]
struct Estimator {
    bytes: u64,
    rounds: u64,
    compute: f64,
}

/// Charges one node's dispatch to the estimator, its kernel priced under
/// the instruction's name. Kernel time for ops executing at the sites is
/// divided by the partition count (perfectly parallel sites) so placement
/// decisions see the compute shift.
fn estimate_node(
    inst: &Instruction,
    meta: &[Option<NodeMeta>],
    out: NodeMeta,
    cost: &dyn CostModel,
    est: &mut Estimator,
) {
    use Instruction::*;
    const B: u64 = 8;
    let m = |id: &u64| meta[*id as usize];
    let sites = |parts: usize| parts.max(1) as f64;
    let name = inst.name();
    match inst {
        MatMul {
            lhs,
            rhs,
            t_lhs: false,
            ..
        } => {
            let (Some(a), Some(b)) = (m(lhs), m(rhs)) else {
                return;
            };
            let work = 2 * a.rows as u64 * a.cols as u64 * b.cols as u64;
            let (al, bl, parts) = matmul_effective(a, b);
            let kernel = cost.op_nanos(name, out.cells(), work);
            match (al, bl) {
                (Loc::Local, Loc::Local) => est.compute += kernel,
                _ => {
                    if a.loc.is_fed() && b.loc.is_fed() {
                        // Consolidation of the smaller operand.
                        est.bytes += a.cells().min(b.cells()) * B;
                        est.rounds += 1;
                    }
                    let local_cells = if al == Loc::Local {
                        a.cells()
                    } else {
                        b.cells()
                    };
                    let sliced = matches!(
                        (al, bl),
                        (Loc::FedCol, Loc::Local) | (Loc::Local, Loc::FedRow)
                    );
                    // Broadcast (full per site, or sliced once) and
                    // execution share one batch; partial outputs return,
                    // and cost the round, when the result lands local.
                    est.bytes += if sliced {
                        local_cells * B
                    } else {
                        parts as u64 * local_cells * B
                    };
                    if out.loc == Loc::Local {
                        est.bytes += parts as u64 * out.cells() * B;
                        est.rounds += 1;
                    }
                    est.compute += kernel / sites(parts);
                }
            }
        }
        MatMul {
            lhs,
            rhs,
            t_lhs: true,
            ..
        } => {
            let (Some(a), Some(b)) = (m(lhs), m(rhs)) else {
                return;
            };
            let work = 2 * a.rows as u64 * a.cols as u64 * b.cols as u64;
            let kernel = cost.op_nanos(name, out.cells(), work);
            match (a.loc, b.loc) {
                (Loc::Local, Loc::Local) => est.compute += kernel,
                (Loc::FedRow, Loc::FedRow) => {
                    // Aligned: one exec round, partial gets.
                    est.bytes += a.parts as u64 * out.cells() * B;
                    est.rounds += 1;
                    est.compute += kernel / sites(a.parts);
                }
                _ => {
                    let (fed, local_cells) = if a.loc.is_fed() {
                        (a, b.cells())
                    } else {
                        (b, a.cells())
                    };
                    if a.loc.is_fed() && b.loc.is_fed() {
                        est.bytes += b.cells() * B;
                        est.rounds += 1;
                    }
                    est.bytes += local_cells * B;
                    if out.loc == Loc::Local {
                        est.bytes += fed.parts as u64 * out.cells() * B;
                        est.rounds += 1;
                    }
                    est.compute += kernel / sites(fed.parts);
                }
            }
        }
        Tsmm { x, .. } => {
            let Some(a) = m(x) else { return };
            let work = a.rows as u64 * a.cols as u64 * a.cols as u64;
            let kernel = cost.op_nanos(name, out.cells(), work);
            if a.loc.is_fed() {
                est.bytes += a.parts as u64 * out.cells() * B;
                est.rounds += 1;
                est.compute += kernel / sites(a.parts);
            } else {
                est.compute += kernel;
            }
        }
        MmChain { x, v, w, .. } => {
            let Some(x) = m(x) else { return };
            let work = 4 * x.rows as u64 * x.cols as u64;
            let kernel = cost.op_nanos(name, out.cells(), work);
            if x.loc.is_fed() {
                // `v` is broadcast whole to every worker; `w` is sliced
                // per partition, so it crosses the wire exactly once.
                let v_cells = m(v).map_or(0, |v| v.cells());
                let w_cells = w.as_ref().and_then(m).map_or(0, |w| w.cells());
                est.bytes +=
                    x.parts as u64 * v_cells * B + w_cells * B + x.parts as u64 * out.cells() * B;
                est.rounds += 1;
                est.compute += kernel / sites(x.parts);
            } else {
                est.compute += kernel;
            }
        }
        Binary { lhs, rhs, .. } => {
            let (Some(a), Some(b)) = (m(lhs), m(rhs)) else {
                return;
            };
            let kernel = cost.op_nanos(name, out.cells(), out.cells());
            if out.loc.is_fed() {
                let local_cells = if a.loc == Loc::Local {
                    a.cells()
                } else if b.loc == Loc::Local {
                    b.cells()
                } else {
                    0 // co-partitioned: no movement
                };
                est.bytes += local_cells * B;
                est.compute += kernel / sites(out.parts);
            } else {
                est.compute += kernel;
            }
        }
        Scalar { .. } | Unary { .. } | Softmax { .. } | Replace { .. } | RowIndexMax { .. } => {
            let kernel = cost.op_nanos(name, out.cells(), out.cells());
            est.compute += kernel / sites(out.parts);
        }
        Agg { x, .. } => {
            let Some(a) = m(x) else { return };
            let kernel = cost.op_nanos(name, out.cells(), a.cells());
            if a.loc.is_fed() {
                if out.loc == Loc::Local {
                    // Partial stats return per partition.
                    est.bytes += a.parts as u64 * out.cells() * B;
                    est.rounds += 1;
                }
                est.compute += kernel / sites(a.parts);
            } else {
                est.compute += kernel;
            }
        }
        Transpose { x, .. } | Index { x, .. } | Cbind { a: x, .. } => {
            let Some(a) = m(x) else { return };
            let kernel = cost.op_nanos(name, out.cells(), out.cells());
            if a.loc.is_fed() || out.loc.is_fed() {
                est.compute += kernel / sites(out.parts.max(a.parts));
            } else {
                est.compute += kernel;
            }
        }
        // Federated rbind is metadata-only; `infer` leaves every other
        // row without a meta, so it is never charged.
        _ => {}
    }
}

fn eval_op(node: &PlanOp, vals: &[Option<Tensor>]) -> Result<Tensor> {
    use Instruction::*;
    let val = |id: &u64| -> &Tensor {
        vals[*id as usize]
            .as_ref()
            .expect("topological arena order: operands evaluated first")
    };
    let inst = match node {
        PlanOp::SourceLocal(m) => return Ok(Tensor::Local(DenseMatrix::clone(m))),
        PlanOp::SourceFed(f) => return Ok(Tensor::Fed(f.clone())),
        PlanOp::Inst(inst) => inst,
    };
    match inst {
        MatMul {
            lhs, rhs, t_lhs, ..
        } if *t_lhs => val(lhs).t_matmul(val(rhs)),
        MatMul { lhs, rhs, .. } => val(lhs).matmul(val(rhs)),
        Tsmm { x, left: true, .. } => Ok(Tensor::Local(val(x).tsmm()?)),
        Binary { lhs, rhs, op, .. } => val(lhs).binary(*op, val(rhs)),
        Scalar {
            x, op, value, swap, ..
        } => val(x).scalar_op(*op, *value, *swap),
        Unary { x, op, .. } => val(x).unary(*op),
        Softmax { x, .. } => val(x).softmax(),
        Agg { x, op, dir, .. } => val(x).agg(*op, *dir),
        RowIndexMax { x, .. } => val(x).row_index_max(),
        Transpose { x, .. } => val(x).t(),
        Index {
            x,
            row_lo,
            row_hi,
            col_lo,
            col_hi,
            ..
        } => val(x).index(
            *row_lo as usize,
            *row_hi as usize,
            *col_lo as usize,
            *col_hi as usize,
        ),
        Rbind { a, b, .. } => val(a).rbind(val(b)),
        Cbind { a, b, .. } => val(a).cbind(val(b)),
        Replace {
            x,
            pattern,
            replacement,
            ..
        } => val(x).replace(*pattern, *replacement),
        // The fusion rule fires only on local `v` and `w`.
        MmChain { x, v, w, .. } => {
            let local = |id: &u64| match val(id) {
                Tensor::Local(m) => Ok(m),
                _ => Err(RuntimeError::Invalid(
                    "mmchain: v and w must be local".into(),
                )),
            };
            let w = w.as_ref().map(local).transpose()?;
            Ok(Tensor::Local(val(x).mmchain(local(v)?, w)?))
        }
        other => Err(RuntimeError::Invalid(format!(
            "{} is not a plan operator",
            other.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::kernels::elementwise::BinaryOp;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn lowering_renders_numbered_script() {
        let a = Lazy::from_local(rand_matrix(5, 2, 0.0, 1.0, 5));
        let plan = a.t().matmul(&a).scalar(BinaryOp::Mul, 2.0, false);
        let script = Plan::from_lazy(&plan).render();
        let lines: Vec<&str> = script.lines().collect();
        assert_eq!(lines.len(), 4, "{script}");
        assert!(lines[0].starts_with("X1 = matrix(5x2)"));
        assert_eq!(lines[1], "X2 = r'(X1)");
        assert_eq!(lines[2], "X3 = ba+*(X2, X1; t_lhs=false)");
        assert_eq!(lines[3], "X4 = *(X3; value=2.0, swap=false)");
        // Shared source appears once.
        assert_eq!(script.matches("matrix(5x2)").count(), 1);
    }

    #[test]
    fn plan_executes_like_lazy() {
        let x = rand_matrix(30, 4, -1.0, 1.0, 9);
        let lx = Lazy::from_local(x);
        let expr = lx
            .sub(&lx.col_means().unwrap())
            .unwrap()
            .tsmm()
            .unwrap()
            .scalar(BinaryOp::Mul, 0.5, false);
        let want = expr.compute().unwrap();
        let got = Plan::from_lazy(&expr).compute().unwrap();
        assert_eq!(
            want.values(),
            got.values(),
            "plan executes bitwise like Lazy"
        );
    }

    #[test]
    fn compaction_drops_unreachable_nodes() {
        let x = rand_matrix(6, 2, 0.0, 1.0, 7);
        let lx = Lazy::from_local(x);
        let expr = lx.sum();
        let plan = Plan::from_lazy(&expr);
        // Graft in a dead node and compact it away.
        let mut nodes = plan.nodes().to_vec();
        nodes.push(PlanOp::Inst(Instruction::Transpose { x: 0, out: 0 }));
        let compacted = Plan::compacted(nodes, plan.root());
        assert_eq!(compacted.len(), plan.len());
        assert_eq!(compacted.render(), plan.render());
    }
}
