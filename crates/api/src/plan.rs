//! The explicit logical-plan IR between [`Lazy`] DAG construction and
//! coordinator dispatch.
//!
//! A [`Plan`] is an immutable arena of [`PlanNode`]s in topological order
//! (children strictly before parents, the root last reachable), lowered
//! from a [`Lazy`] expression by [`Plan::from_lazy`]. It is what the
//! [`crate::optimizer`] rule pipeline rewrites: every rule consumes a
//! `&Plan` and produces a fresh `Plan`, so plans are snapshots — the
//! before/after pair a [`Session::explain`](crate::Session::explain)
//! renders side by side.
//!
//! Besides the structure itself, a plan knows how to
//!
//! * fingerprint each node ([`Plan::lineages`]; CSE keys on it, and the
//!   root's entry is the plan-cache key [`Lazy::lineage_hash`] computes
//!   from the DAG with the same per-operator function),
//! * render itself as the numbered generated-DML script of the paper
//!   ([`Plan::render`]),
//! * estimate its execution cost against a
//!   [`CostModel`] ([`Plan::estimate`]) by
//!   replaying the federated dispatch rules of `exdra_core::Tensor`
//!   symbolically (shape + locality inference), and
//! * execute itself ([`Plan::execute`]): one [`Tensor`] call per node,
//!   in arena order. This is the only evaluator; [`Lazy::eval`] is the
//!   unoptimized plan executed. The fused operator ([`PlanOp::MmChain`])
//!   is only introduced by a rule whose rewrite is bitwise identical to
//!   the unfused execution (see DESIGN.md §4j).

use std::collections::HashMap;
use std::sync::Arc;

use exdra_core::{Result, RuntimeError, Tensor};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::DenseMatrix;
use exdra_obs::PlanEstimate;

use crate::dag::{Expr, Lazy};
use crate::optimizer::CostModel;

/// A logical-plan operator: what every [`Lazy`] DAG node and every
/// [`PlanNode`] applies, plus the fused operator only the optimizer
/// introduces.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Local source matrix (shared, never copied by lowering).
    SourceLocal(Arc<DenseMatrix>),
    /// Federated source.
    SourceFed(exdra_core::FedMatrix),
    /// `lhs %*% rhs`.
    MatMul,
    /// `t(lhs) %*% rhs`.
    TMatMul,
    /// `t(x) %*% x`.
    Tsmm,
    /// Element-wise binary with broadcasting.
    Binary(BinaryOp),
    /// Matrix-scalar op (`bool` = scalar on the left).
    Scalar(BinaryOp, f64, bool),
    /// Element-wise unary.
    Unary(UnaryOp),
    /// Row-wise softmax.
    Softmax,
    /// Aggregate.
    Agg(AggOp, AggDir),
    /// 1-based row argmax.
    RowIndexMax,
    /// Transpose.
    Transpose,
    /// Right indexing (half-open).
    Index(usize, usize, usize, usize),
    /// Vertical concat.
    Rbind,
    /// Horizontal concat.
    Cbind,
    /// Value replacement.
    Replace(f64, f64),
    /// Fused matrix-multiply chain `t(x) %*% (w ⊙ (x %*% v))` over
    /// children `[x, v]` or `[x, v, w]`. `w_on_left` remembers which
    /// side of the original element-wise multiply held `w` (only used
    /// by the defensive unfused fallback).
    MmChain {
        /// `w` was the left operand of the fused multiply.
        w_on_left: bool,
    },
}

impl PlanOp {
    /// The lineage fingerprint of this operator applied to operands with
    /// fingerprints `children` (in operand order): the operator's own
    /// opcode and literals, then each operand mixed in. The one hashing
    /// scheme behind both [`Plan::lineages`] and [`Lazy::lineage_hash`],
    /// and the plan-cache key, so it must never move.
    pub(crate) fn lineage(&self, children: &[u64]) -> u64 {
        use exdra_core::lineage::{mix, of_dense, seed};
        let own = match self {
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
            PlanOp::MatMul => seed("ba+*"),
            PlanOp::TMatMul => seed("t-ba+*"),
            PlanOp::Tsmm => seed("tsmm"),
            PlanOp::Binary(op) => seed(op.name()),
            PlanOp::Scalar(op, v, swap) => mix(
                mix(mix(seed("scalar"), seed(op.name())), v.to_bits()),
                *swap as u64,
            ),
            PlanOp::Unary(op) => mix(seed("unary"), seed(op.name())),
            PlanOp::Softmax => seed("softmax"),
            PlanOp::Agg(op, dir) => mix(mix(seed("agg"), seed(op.name())), *dir as u64),
            PlanOp::RowIndexMax => seed("rowIndexMax"),
            PlanOp::Transpose => seed("t"),
            PlanOp::Index(rl, ru, cl, cu) => mix(
                mix(mix(mix(seed("ix"), *rl as u64), *ru as u64), *cl as u64),
                *cu as u64,
            ),
            PlanOp::Rbind => seed("rbind"),
            PlanOp::Cbind => seed("cbind"),
            PlanOp::Replace(p, r) => mix(mix(seed("replace"), p.to_bits()), r.to_bits()),
            PlanOp::MmChain { w_on_left } => mix(seed("mmchain"), *w_on_left as u64),
        };
        children.iter().fold(own, |h, &c| mix(h, c))
    }
}

/// One node of a [`Plan`]: an operator plus the arena indices of its
/// inputs (always strictly smaller than the node's own index).
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Arena indices of the operands, in operand order.
    pub children: Vec<usize>,
}

/// An immutable logical plan: a topologically ordered node arena plus
/// the root index. See the module docs.
#[derive(Debug, Clone)]
pub struct Plan {
    nodes: Vec<PlanNode>,
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
    pub(crate) fn compacted(nodes: Vec<PlanNode>, root: usize) -> Plan {
        let mut live = vec![false; nodes.len()];
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut live[i], true) {
                continue;
            }
            stack.extend(nodes[i].children.iter().copied());
        }
        let mut remap = vec![usize::MAX; nodes.len()];
        let mut kept = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.into_iter().enumerate() {
            if live[i] {
                remap[i] = kept.len();
                kept.push(PlanNode {
                    op: node.op,
                    children: node.children.iter().map(|&c| remap[c]).collect(),
                });
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
    pub fn node(&self, i: usize) -> &PlanNode {
        &self.nodes[i]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// How many parents reference each node (the root counts once), the
    /// gate fusion rules use to avoid duplicating shared work.
    pub fn refcounts(&self) -> Vec<usize> {
        let mut refs = vec![0usize; self.nodes.len()];
        refs[self.root] += 1;
        for node in &self.nodes {
            for &c in &node.children {
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
            let children: Vec<u64> = node.children.iter().map(|&c| out[c]).collect();
            out.push(node.op.lineage(&children));
        }
        out
    }

    /// Renders the plan as the numbered generated-DML script — one
    /// assignment per node, children referenced as `X<n>`.
    pub fn render(&self) -> String {
        let mut lines = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let refs: Vec<String> = node
                .children
                .iter()
                .map(|c| format!("X{}", c + 1))
                .collect();
            let line = if refs.is_empty() {
                format!("X{} = {}", i + 1, opcode(&node.op))
            } else {
                format!("X{} = {}({})", i + 1, opcode(&node.op), refs.join(", "))
            };
            lines.push(line);
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
            let m = infer(&node.op, &node.children, &out);
            out.push(m);
        }
        out
    }

    /// Estimates execution cost against a [`CostModel`] by walking the
    /// arena and charging each operator the transfers, request rounds,
    /// and kernel time its dispatch implies (including the final
    /// consolidation when the root stays federated). A node whose output
    /// stays federated costs no round: its requests are deferred and ride
    /// with the next node that fetches something. Nodes whose meta is
    /// unknown contribute nothing — estimates are advisory.
    pub fn estimate(&self, cost: &dyn CostModel) -> PlanEstimate {
        let meta = self.meta();
        let mut est = Estimator::default();
        for (i, node) in self.nodes.iter().enumerate() {
            estimate_node(&node.op, &node.children, &meta, i, cost, &mut est);
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
            let v = eval_op(&node.op, &node.children, &vals)?;
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

fn lower(lazy: &Lazy, ids: &mut HashMap<*const Expr, usize>, nodes: &mut Vec<PlanNode>) -> usize {
    let key = Arc::as_ptr(&lazy.expr);
    if let Some(&id) = ids.get(&key) {
        return id;
    }
    let children = lazy
        .expr
        .children
        .iter()
        .map(|c| lower(c, ids, nodes))
        .collect();
    let id = nodes.len();
    nodes.push(PlanNode {
        op: lazy.expr.op.clone(),
        children,
    });
    ids.insert(key, id);
    id
}

/// The opcode string of one operator, so the script view is stable
/// across optimization for untouched nodes.
fn opcode(op: &PlanOp) -> String {
    match op {
        PlanOp::SourceLocal(m) => format!("matrix({}x{})", m.rows(), m.cols()),
        PlanOp::SourceFed(f) => format!(
            "federated({}x{}, {} partitions, {})",
            f.rows(),
            f.cols(),
            f.parts().len(),
            f.privacy().name()
        ),
        PlanOp::MatMul => "ba+*".into(),
        PlanOp::TMatMul => "t-ba+*".into(),
        PlanOp::Tsmm => "tsmm".into(),
        PlanOp::Binary(op) => op.name().into(),
        PlanOp::Scalar(op, v, swap) => {
            if *swap {
                format!("{v} {} _", op.name())
            } else {
                format!("_ {} {v}", op.name())
            }
        }
        PlanOp::Unary(op) => op.name().into(),
        PlanOp::Softmax => "softmax".into(),
        PlanOp::Agg(op, dir) => match dir {
            AggDir::Full => op.name().into(),
            AggDir::Row => format!("row{}", op.name()),
            AggDir::Col => format!("col{}", op.name()),
        },
        PlanOp::RowIndexMax => "rowIndexMax".into(),
        PlanOp::Transpose => "t".into(),
        PlanOp::Index(rl, ru, cl, cu) => format!("[{rl}:{ru},{cl}:{cu}]"),
        PlanOp::Rbind => "rbind".into(),
        PlanOp::Cbind => "cbind".into(),
        PlanOp::Replace(p, r) => format!("replace({p}->{r})"),
        PlanOp::MmChain { .. } => "mmchain".into(),
    }
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

fn infer(op: &PlanOp, children: &[usize], meta: &[Option<NodeMeta>]) -> Option<NodeMeta> {
    let m = |k: usize| meta[children[k]];
    let some = |rows, cols, loc, parts| {
        Some(NodeMeta {
            rows,
            cols,
            loc,
            parts: if loc == Loc::Local { 0 } else { parts },
        })
    };
    match op {
        PlanOp::SourceLocal(x) => some(x.rows(), x.cols(), Loc::Local, 0),
        PlanOp::SourceFed(f) => some(f.rows(), f.cols(), fed_loc(f.scheme()), f.parts().len()),
        PlanOp::MatMul => {
            let (a, b) = (m(0)?, m(1)?);
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
        PlanOp::TMatMul => {
            let (a, b) = (m(0)?, m(1)?);
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
        PlanOp::Tsmm => {
            let a = m(0)?;
            if a.loc == Loc::FedCol {
                return None; // federated tsmm requires row partitioning
            }
            some(a.cols, a.cols, Loc::Local, 0)
        }
        PlanOp::Binary(_) => {
            let (a, b) = (m(0)?, m(1)?);
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
        PlanOp::Scalar(..) | PlanOp::Unary(_) | PlanOp::Replace(..) => {
            let a = m(0)?;
            some(a.rows, a.cols, a.loc, a.parts)
        }
        PlanOp::Softmax | PlanOp::RowIndexMax => {
            let a = m(0)?;
            if a.loc == Loc::FedCol {
                return None; // row-wise ops require row partitioning
            }
            let (rows, cols) = match op {
                PlanOp::Softmax => (a.rows, a.cols),
                _ => (a.rows, 1),
            };
            some(rows, cols, a.loc, a.parts)
        }
        PlanOp::Agg(_, dir) => {
            let a = m(0)?;
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
        PlanOp::Transpose => {
            let a = m(0)?;
            let loc = match a.loc {
                Loc::Local => Loc::Local,
                Loc::FedRow => Loc::FedCol,
                Loc::FedCol => Loc::FedRow,
            };
            some(a.cols, a.rows, loc, a.parts)
        }
        PlanOp::Index(rl, ru, cl, cu) => {
            let a = m(0)?;
            if *rl >= *ru || *cl >= *cu || *ru > a.rows || *cu > a.cols {
                return None;
            }
            if a.loc == Loc::FedCol {
                return None;
            }
            some(ru - rl, cu - cl, a.loc, a.parts)
        }
        PlanOp::Rbind => {
            let (a, b) = (m(0)?, m(1)?);
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
        PlanOp::Cbind => {
            let (a, b) = (m(0)?, m(1)?);
            if a.rows != b.rows {
                return None;
            }
            match (a.loc, b.loc) {
                (Loc::Local, Loc::Local) => some(a.rows, a.cols + b.cols, Loc::Local, 0),
                (Loc::FedRow, Loc::FedRow) => some(a.rows, a.cols + b.cols, Loc::FedRow, a.parts),
                _ => None,
            }
        }
        PlanOp::MmChain { .. } => {
            let x = m(0)?;
            some(x.cols, 1, Loc::Local, 0)
        }
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

/// Charges one node's dispatch to the estimator. Kernel time for ops
/// executing at the sites is divided by the partition count (perfectly
/// parallel sites) so placement decisions see the compute shift.
fn estimate_node(
    op: &PlanOp,
    children: &[usize],
    meta: &[Option<NodeMeta>],
    i: usize,
    cost: &dyn CostModel,
    est: &mut Estimator,
) {
    const B: u64 = 8;
    let m = |k: usize| meta[children[k]];
    let Some(out) = meta[i] else { return };
    let sites = |parts: usize| parts.max(1) as f64;
    match op {
        PlanOp::SourceLocal(_) | PlanOp::SourceFed(_) => {}
        PlanOp::MatMul => {
            let (Some(a), Some(b)) = (m(0), m(1)) else {
                return;
            };
            let work = 2 * a.rows as u64 * a.cols as u64 * b.cols as u64;
            let (al, bl, parts) = matmul_effective(a, b);
            let kernel = cost.op_nanos("ba+*", out.cells(), work);
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
        PlanOp::TMatMul => {
            let (Some(a), Some(b)) = (m(0), m(1)) else {
                return;
            };
            let work = 2 * a.rows as u64 * a.cols as u64 * b.cols as u64;
            let kernel = cost.op_nanos("ba+*", out.cells(), work);
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
        PlanOp::Tsmm => {
            let Some(a) = m(0) else { return };
            let work = a.rows as u64 * a.cols as u64 * a.cols as u64;
            let kernel = cost.op_nanos("tsmm", out.cells(), work);
            if a.loc.is_fed() {
                est.bytes += a.parts as u64 * out.cells() * B;
                est.rounds += 1;
                est.compute += kernel / sites(a.parts);
            } else {
                est.compute += kernel;
            }
        }
        PlanOp::MmChain { .. } => {
            let Some(x) = m(0) else { return };
            let work = 4 * x.rows as u64 * x.cols as u64;
            let kernel = cost.op_nanos("mmchain", out.cells(), work);
            if x.loc.is_fed() {
                // `v` is broadcast whole to every worker; `w` is sliced
                // per partition, so it crosses the wire exactly once.
                let v_cells = meta[children[1]].map_or(0, |v| v.cells());
                let w_cells = children
                    .get(2)
                    .and_then(|&c| meta[c])
                    .map_or(0, |w| w.cells());
                est.bytes +=
                    x.parts as u64 * v_cells * B + w_cells * B + x.parts as u64 * out.cells() * B;
                est.rounds += 1;
                est.compute += kernel / sites(x.parts);
            } else {
                est.compute += kernel;
            }
        }
        PlanOp::Binary(op) => {
            let (Some(a), Some(b)) = (m(0), m(1)) else {
                return;
            };
            let kernel = cost.op_nanos(op.name(), out.cells(), out.cells());
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
        PlanOp::Scalar(op, ..) => {
            let Some(a) = m(0) else { return };
            let kernel = cost.op_nanos(op.name(), out.cells(), out.cells());
            if a.loc.is_fed() {
                est.compute += kernel / sites(a.parts);
            } else {
                est.compute += kernel;
            }
        }
        PlanOp::Unary(op) => {
            elementwise_estimate(op.name(), out, cost, est);
        }
        PlanOp::Softmax => elementwise_estimate("softmax", out, cost, est),
        PlanOp::Replace(..) => elementwise_estimate("replace", out, cost, est),
        PlanOp::RowIndexMax => elementwise_estimate("rowIndexMax", out, cost, est),
        PlanOp::Agg(op, _) => {
            let Some(a) = m(0) else { return };
            let kernel = cost.op_nanos(op.name(), out.cells(), a.cells());
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
        PlanOp::Transpose | PlanOp::Index(..) | PlanOp::Cbind => {
            let Some(a) = m(0) else { return };
            let kernel = cost.op_nanos("r'", out.cells(), out.cells());
            if a.loc.is_fed() || out.loc.is_fed() {
                est.compute += kernel / sites(out.parts.max(a.parts));
            } else {
                est.compute += kernel;
            }
        }
        PlanOp::Rbind => {} // federated rbind is metadata-only
    }
}

fn elementwise_estimate(name: &str, out: NodeMeta, cost: &dyn CostModel, est: &mut Estimator) {
    let kernel = cost.op_nanos(name, out.cells(), out.cells());
    if out.loc.is_fed() {
        est.compute += kernel / out.parts.max(1) as f64;
    } else {
        est.compute += kernel;
    }
}

fn eval_op(op: &PlanOp, children: &[usize], vals: &[Option<Tensor>]) -> Result<Tensor> {
    let v = |k: usize| -> &Tensor {
        vals[children[k]]
            .as_ref()
            .expect("topological arena order: children evaluated first")
    };
    match op {
        PlanOp::SourceLocal(m) => Ok(Tensor::Local(DenseMatrix::clone(m))),
        PlanOp::SourceFed(f) => Ok(Tensor::Fed(f.clone())),
        PlanOp::MatMul => v(0).matmul(v(1)),
        PlanOp::TMatMul => v(0).t_matmul(v(1)),
        PlanOp::Tsmm => Ok(Tensor::Local(v(0).tsmm()?)),
        PlanOp::Binary(op) => v(0).binary(*op, v(1)),
        PlanOp::Scalar(op, val, swap) => v(0).scalar_op(*op, *val, *swap),
        PlanOp::Unary(op) => v(0).unary(*op),
        PlanOp::Softmax => v(0).softmax(),
        PlanOp::Agg(op, dir) => v(0).agg(*op, *dir),
        PlanOp::RowIndexMax => v(0).row_index_max(),
        PlanOp::Transpose => v(0).t(),
        PlanOp::Index(rl, ru, cl, cu) => v(0).index(*rl, *ru, *cl, *cu),
        PlanOp::Rbind => v(0).rbind(v(1)),
        PlanOp::Cbind => v(0).cbind(v(1)),
        PlanOp::Replace(p, r) => v(0).replace(*p, *r),
        PlanOp::MmChain { w_on_left } => {
            let x = v(0);
            let w = children.get(2).map(|&c| {
                vals[c]
                    .as_ref()
                    .expect("topological arena order: children evaluated first")
            });
            match (v(1), w) {
                (Tensor::Local(vl), None) => Ok(Tensor::Local(x.mmchain(vl, None)?)),
                (Tensor::Local(vl), Some(Tensor::Local(wl))) => {
                    Ok(Tensor::Local(x.mmchain(vl, Some(wl))?))
                }
                (vv, ww) => {
                    // Defensive fallback (the fusion rule gates v/w local):
                    // replay the exact unfused sequence.
                    let q = x.matmul(vv)?;
                    let prod = match ww {
                        None => q,
                        Some(w) => {
                            if *w_on_left {
                                w.binary(BinaryOp::Mul, &q)?
                            } else {
                                q.binary(BinaryOp::Mul, w)?
                            }
                        }
                    };
                    x.t_matmul(&prod)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn lowering_renders_numbered_script() {
        let a = Lazy::from_local(rand_matrix(5, 2, 0.0, 1.0, 5));
        let plan = a.t().matmul(&a).scalar(BinaryOp::Mul, 2.0, false);
        let script = Plan::from_lazy(&plan).render();
        let lines: Vec<&str> = script.lines().collect();
        assert_eq!(lines.len(), 4, "{script}");
        assert!(lines[0].starts_with("X1 = matrix(5x2)"));
        assert!(lines[1].contains("t(X1)"));
        assert!(lines[2].contains("ba+*(X2, X1)"));
        assert!(lines[3].contains("_ * 2"));
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
        nodes.push(PlanNode {
            op: PlanOp::Transpose,
            children: vec![0],
        });
        let compacted = Plan::compacted(nodes, plan.root());
        assert_eq!(compacted.len(), plan.len());
        assert_eq!(compacted.render(), plan.render());
    }
}
