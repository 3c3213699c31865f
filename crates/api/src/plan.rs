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
//! * replay the federated dispatch of `exdra_core::Tensor` once per node,
//!   which says both where the result lands (`Plan::meta`, what the rules
//!   read) and what crosses the wire (priced against a [`CostModel`] by
//!   [`Plan::estimate`]), and
//! * execute itself ([`Plan::execute`]): one [`Tensor`] call per node,
//!   in arena order. This is the only evaluator; [`Lazy::eval`] is the
//!   unoptimized plan executed. The fused `mmchain` is only introduced by
//!   a rule whose rewrite is bitwise identical to the unfused execution
//!   (see DESIGN.md §4j).

use std::collections::HashMap;
use std::sync::Arc;

use exdra_core::instruction::Instruction;
use exdra_core::{PartitionScheme, Result, RuntimeError, Tensor};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
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
    fn new(rows: usize, cols: usize, loc: Loc, parts: usize) -> NodeMeta {
        let parts = if loc.is_fed() { parts } else { 0 };
        NodeMeta {
            rows,
            cols,
            loc,
            parts,
        }
    }

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

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

    /// Runs [`dispatch`] over the arena in order, hands every node it
    /// places to `visit`, and returns the per-node metas.
    fn walk(&self, mut visit: impl FnMut(&PlanOp, NodeMeta, Charges)) -> Vec<Option<NodeMeta>> {
        let mut metas = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let placed = dispatch(node, &metas);
            if let Some((out, charges)) = placed {
                visit(node, out, charges);
            }
            metas.push(placed.map(|(out, _)| out));
        }
        metas
    }

    /// Shape and locality per node, from [`dispatch`]. `None` entries
    /// mark nodes that would error at runtime or whose placement cannot
    /// be decided statically; optimizer rules must leave those subtrees
    /// untouched. Prices nothing: the optimizer calls it on every compute.
    pub(crate) fn meta(&self) -> Vec<Option<NodeMeta>> {
        self.walk(|_, _, _| {})
    }

    /// Estimates execution cost against a [`CostModel`] by pricing every
    /// node's [`Charges`]: each cell moved is 8 bytes, a consolidation
    /// and a gather one round each, and the kernel is priced under the
    /// instruction's runtime opcode name, divided over the sites it runs
    /// at. The final consolidation of a federated root is one more round.
    /// A node whose output stays federated costs no round: its requests
    /// are deferred and ride with the next node that fetches something.
    /// Nodes without a meta contribute nothing — estimates are advisory.
    pub fn estimate(&self, cost: &dyn CostModel) -> PlanEstimate {
        const B: u64 = 8;
        let (mut bytes, mut rounds, mut compute) = (0u64, 0u64, 0.0);
        let meta = self.walk(|node, out, c| {
            let PlanOp::Inst(inst) = node else { return };
            if let Some(cells) = c.consolidated {
                bytes += cells * B;
                rounds += 1;
            }
            bytes += c.shipped * B;
            if c.partials > 0 {
                bytes += (c.sites * c.partials) as u64 * out.cells() * B;
                rounds += 1;
            }
            if c.sites > 0 {
                compute += cost.op_nanos(inst.name(), out.cells(), c.work) / c.sites as f64;
            }
        });
        if let Some(Some(root)) = meta.get(self.root) {
            if root.loc.is_fed() {
                // `compute()` consolidates the federated result locally.
                bytes += root.cells() * B;
                rounds += 1;
            }
        }
        PlanEstimate {
            bytes_moved: bytes,
            round_trips: rounds,
            compute_nanos: compute,
            total_nanos: compute
                + cost.transfer_nanos(bytes)
                + rounds as f64 * cost.round_trip_nanos(),
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

/// What one node's execution moves and runs, before any pricing: what
/// [`Plan::estimate`] prices and [`Plan::meta`] drops.
#[derive(Debug, Clone, Copy, Default)]
struct Charges {
    /// Local-operand cells shipped to the sites: once when sliced by
    /// partition range, once per partition when sent whole.
    shipped: u64,
    /// Cells of a federated operand consolidated at the coordinator
    /// first, in a round of their own.
    consolidated: Option<u64>,
    /// Partial results of the output's shape each site sends back, in
    /// one round (0: the output stays where it is).
    partials: usize,
    /// Scalar operations of the kernel.
    work: u64,
    /// Where the kernel runs: at each of the partitions, at the
    /// coordinator (1), or nowhere (0: a federated `rbind` is metadata).
    sites: usize,
}

/// The one replay of `Tensor`'s federated dispatch for a plan node, over
/// its operands' metas: where its result lands and what it costs to get
/// there. `None` where `Tensor` would error, or where placement cannot be
/// decided statically (aligned-ness of two column-partitioned operands).
fn dispatch(node: &PlanOp, meta: &[Option<NodeMeta>]) -> Option<(NodeMeta, Charges)> {
    use Instruction::*;
    use Loc::{FedCol, FedRow, Local};
    let m = |id: &u64| meta[*id as usize];
    let at = NodeMeta::new;
    // A kernel of `work` operations run where `x` lives (each partition,
    // or the coordinator); a federated output stays there, no round.
    let kernel = |x: NodeMeta, work: u64| Charges {
        work,
        sites: x.parts.max(1),
        ..Charges::default()
    };
    let inst = match node {
        PlanOp::Inst(inst) => inst,
        PlanOp::SourceLocal(x) => {
            return Some((at(x.rows(), x.cols(), Local, 0), Charges::default()))
        }
        PlanOp::SourceFed(f) => {
            let loc = if f.scheme() == PartitionScheme::Row {
                FedRow
            } else {
                FedCol
            };
            let out = at(f.rows(), f.cols(), loc, f.parts().len());
            return Some((out, Charges::default()));
        }
    };
    Some(match inst {
        MatMul {
            lhs, rhs, t_lhs, ..
        } => {
            let (a, b) = (m(lhs)?, m(rhs)?);
            let (rows, inner) = if *t_lhs {
                (a.cols, a.rows)
            } else {
                (a.rows, a.cols)
            };
            if inner != b.rows {
                return None;
            }
            let work = 2 * a.cells() * b.cols as u64;
            let local = |x: NodeMeta| at(x.rows, x.cols, Local, 0);
            // Two federated operands: `t-ba+*` runs row partitions where
            // they are (taken as aligned: unaligned ones land local too);
            // otherwise the smaller operand (`ba+*`) or the right one
            // (`t-ba+*`) is consolidated first.
            let (a, b, consolidated) = match (a.loc, b.loc) {
                (Local, _) | (_, Local) => (a, b, None),
                (FedRow, FedRow) if *t_lhs => {
                    let c = Charges {
                        partials: 1,
                        ..kernel(a, work)
                    };
                    return Some((at(rows, b.cols, Local, 0), c));
                }
                (FedCol, FedCol) if *t_lhs => return None,
                _ if !*t_lhs && a.cells() <= b.cells() => (local(a), b, Some(a.cells())),
                _ => (a, local(b), Some(b.cells())),
            };
            if !a.loc.is_fed() && !b.loc.is_fed() {
                return Some((at(rows, b.cols, Local, 0), kernel(a, work)));
            }
            // One federated operand `f`: when the output is partitioned
            // like it, the local one goes whole to every partition;
            // otherwise each partition gets its slice and the partial
            // products come back.
            let (f, l, loc) = if a.loc.is_fed() {
                let by_rows = (a.loc == FedRow) != *t_lhs;
                (a, b, if by_rows { FedRow } else { Local })
            } else {
                (b, a, if b.loc == FedCol { FedCol } else { Local })
            };
            let whole = loc.is_fed();
            let c = Charges {
                shipped: if whole { f.parts as u64 } else { 1 } * l.cells(),
                consolidated,
                partials: usize::from(!whole),
                ..kernel(f, work)
            };
            (at(rows, b.cols, loc, f.parts), c)
        }
        Tsmm { x, left: true, .. } => {
            let a = m(x)?;
            if a.loc == FedCol {
                return None; // federated tsmm requires row partitioning
            }
            let c = Charges {
                partials: usize::from(a.loc.is_fed()),
                ..kernel(a, a.cells() * a.cols as u64)
            };
            (at(a.cols, a.cols, Local, 0), c)
        }
        MmChain { x, v, w, .. } => {
            let (x, v) = (m(x)?, m(v)?);
            let w = match w {
                Some(w) => Some(m(w)?),
                None => None,
            };
            let w_fits = |w: NodeMeta| w.loc == Local && w.shape() == (x.rows, v.cols);
            if x.loc == FedCol || v.loc != Local || v.rows != x.cols || !w.is_none_or(w_fits) {
                return None;
            }
            // `v` goes whole to every partition, `w` one slice to each.
            let fed = x.loc.is_fed();
            let w_cells = w.filter(|_| fed).map_or(0, |w| w.cells());
            let c = Charges {
                shipped: x.parts as u64 * v.cells() + w_cells,
                partials: usize::from(fed),
                ..kernel(x, 4 * x.cells())
            };
            (at(x.cols, v.cols, Local, 0), c)
        }
        Binary { lhs, rhs, op, .. } => {
            let (a, b) = (m(lhs)?, m(rhs)?);
            let (out, shipped) = match (a.loc, b.loc) {
                // The local kernel broadcasts a scalar or vector `b` only.
                (Local, Local) => {
                    let fits = [a.shape(), (1, 1), (1, a.cols), (a.rows, 1)].contains(&b.shape());
                    (fits.then_some(a)?, 0)
                }
                (_, Local) => with_local(a, b)?,
                // A scalar or an operand of `b`'s shape stays on the left;
                // any other local left operand only commutes there.
                (Local, _)
                    if a.shape() == (1, 1) || a.shape() == b.shape() || op.is_commutative() =>
                {
                    with_local(b, a)?
                }
                (Local, _) => return None,
                // Co-partitioned: `b` may be an aligned vector.
                (al, bl) => {
                    let vector = if al == FedRow {
                        (a.rows, 1)
                    } else {
                        (1, a.cols)
                    };
                    let fits = b.shape() == a.shape() || b.shape() == vector;
                    ((al == bl && a.parts == b.parts && fits).then_some(a)?, 0)
                }
            };
            let c = Charges {
                shipped,
                ..kernel(out, out.cells())
            };
            (out, c)
        }
        Scalar { x, .. } | Unary { x, .. } | Replace { x, .. } => {
            let a = m(x)?;
            (a, kernel(a, a.cells()))
        }
        Softmax { x, .. } | RowIndexMax { x, .. } => {
            let a = m(x)?;
            if a.loc == FedCol {
                return None; // row-wise ops require row partitioning
            }
            let cols = if let Softmax { .. } = inst { a.cols } else { 1 };
            let out = at(a.rows, cols, a.loc, a.parts);
            (out, kernel(a, out.cells()))
        }
        Agg { x, op, dir, .. } => {
            let a = m(x)?;
            let (rows, cols) = match dir {
                AggDir::Full => (1, 1),
                AggDir::Row => (a.rows, 1),
                AggDir::Col => (1, a.cols),
            };
            // Along the partitioned dimension the output stays at the
            // sites; across it, partial statistics come back (sums and
            // sums of squares for a variance).
            let stays = matches!((a.loc, dir), (FedRow, AggDir::Row) | (FedCol, AggDir::Col));
            let loc = if stays { a.loc } else { Local };
            let stats = 1 + usize::from(matches!(op, AggOp::Var | AggOp::Sd));
            let c = Charges {
                partials: if a.loc.is_fed() && !stays { stats } else { 0 },
                ..kernel(a, a.cells())
            };
            (at(rows, cols, loc, a.parts), c)
        }
        Transpose { x, .. } => {
            let a = m(x)?;
            let loc = match a.loc {
                Local => Local,
                FedRow => FedCol,
                FedCol => FedRow,
            };
            (at(a.cols, a.rows, loc, a.parts), kernel(a, a.cells()))
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
            if rl >= ru || cl >= cu || ru > a.rows as u64 || cu > a.cols as u64 || a.loc == FedCol {
                return None;
            }
            let out = at((ru - rl) as usize, (cu - cl) as usize, a.loc, a.parts);
            (out, kernel(a, out.cells()))
        }
        Rbind { a, b, .. } | Cbind { a, b, .. } => {
            let (a, b) = (m(a)?, m(b)?);
            let stack = matches!(inst, Rbind { .. });
            let (rows, cols, parts, fits) = if stack {
                (a.rows + b.rows, a.cols, a.parts + b.parts, a.cols == b.cols)
            } else {
                (a.rows, a.cols + b.cols, a.parts, a.rows == b.rows)
            };
            let out = match (a.loc, b.loc) {
                (Local, Local) | (FedRow, FedRow) if fits => at(rows, cols, a.loc, parts),
                _ => return None,
            };
            // A federated rbind concatenates federation maps: no kernel runs.
            let c = if stack && out.loc.is_fed() {
                Charges::default()
            } else {
                kernel(a, out.cells())
            };
            (out, c)
        }
        // No Lazy call builds the other rows: they do not execute here.
        _ => return None,
    })
}

/// `FedMatrix::binary_with_local` over federated `f` and local `l`: a
/// 1x1 `l` travels as the instruction's literal, a vector along the
/// unpartitioned dimension goes whole to every partition, and anything
/// else of `f`'s extent is sliced by partition range. Returns the output
/// meta and the cells shipped.
fn with_local(f: NodeMeta, l: NodeMeta) -> Option<(NodeMeta, u64)> {
    if l.shape() == (1, 1) {
        return Some((f, 0));
    }
    // `l`'s extent along and across the partitioned dimension.
    let ((along, across), (extent, width)) = if f.loc == Loc::FedRow {
        (l.shape(), f.shape())
    } else {
        ((l.cols, l.rows), (f.cols, f.rows))
    };
    if along == 1 && across == width {
        return Some((f, f.parts as u64 * l.cells()));
    }
    (along == extent && (across == 1 || across == width)).then_some((f, l.cells()))
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
    fn a_scalar_left_of_a_larger_local_matrix_has_no_meta() {
        let s = Lazy::from_local(rand_matrix(1, 1, 0.0, 1.0, 3));
        let x = Lazy::from_local(rand_matrix(4, 2, 0.0, 1.0, 4));
        let expr = s.add(&x).unwrap();
        assert!(expr.compute().is_err(), "the local kernel rejects it");
        let plan = Plan::from_lazy(&expr);
        assert!(plan.meta()[plan.root()].is_none());
        // On the right it broadcasts.
        let plan = Plan::from_lazy(&x.add(&s).unwrap());
        assert!(plan.meta()[plan.root()].is_some());
    }

    #[test]
    fn a_local_vector_left_of_a_federated_matrix_needs_a_commutative_op() {
        let (ctx, _workers) = exdra_core::testutil::mem_federation(2);
        let x = rand_matrix(6, 3, 0.0, 1.0, 5);
        let public = exdra_core::PrivacyLevel::Public;
        let fed = Lazy::from_fed(exdra_core::FedMatrix::scatter_rows(&ctx, &x, public).unwrap());
        let row = Lazy::from_local(rand_matrix(1, 3, 0.0, 1.0, 6));
        for (op, runs) in [(BinaryOp::Add, true), (BinaryOp::Sub, false)] {
            let expr = row.binary(op, &fed);
            assert_eq!(expr.compute().is_ok(), runs, "{op:?}");
            let plan = Plan::from_lazy(&expr);
            assert_eq!(plan.meta()[plan.root()].is_some(), runs, "{op:?}");
        }
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
