//! The rule-based logical-plan optimizer.
//!
//! An [`Optimizer`] owns an ordered pipeline of [`OptimizerRule`]s.
//! [`Optimizer::optimize`] runs each rule once, in order, over an
//! immutable [`Plan`] and records per-rule hit counts — the
//! DataFusion-style shape where rules are trait objects and users can
//! append their own via [`Optimizer::with_rule`] and
//! [`SessionBuilder::optimizer`](crate::SessionBuilder::optimizer).
//!
//! The built-in pipeline (in order):
//!
//! 1. **`cse`** — common-subexpression elimination, pre-filtered by the
//!    same lineage fingerprints as [`crate::Lazy::lineage_hash`]
//!    (exact structural equality is verified before merging, since two
//!    different subtrees may still collide on a 64-bit hash);
//! 2. **`fuse-ops`** — operator fusion: `ba+*(t(X), Y)` → `t-ba+*`,
//!    `t-ba+*(X, X)` → `tsmm`, and the generalized SystemDS-style
//!    mmchain `t-ba+*(X, w ⊙ ba+*(X, v))` → `mmchain` (with or without
//!    the weight vector);
//!
//! Element-wise chains need no rule: a federated op whose output stays
//! federated costs no request round (the coordinator defers it to the
//! next result-bearing exchange, DESIGN.md §4m), so there is nothing for
//! folding to save and nothing for a coordinator-side placement to win.
//!
//! Every rewrite is bitwise-exact by construction: rules only fire where
//! DESIGN.md §4j proves the fused execution produces identical IEEE-754
//! bit patterns. No rule reads a [`CostModel`]: rules fire on plan shape
//! and placement alone, and the cost model prices EXPLAIN's estimates.

use exdra_core::instruction::{Instruction::*, Wire};
use exdra_matrix::kernels::elementwise::BinaryOp;
use exdra_obs::RuleFire;

use crate::plan::{Loc, Plan, PlanOp};

/// A cost model mapping plan shapes to estimated nanoseconds, fed to
/// [`Plan::estimate`] for EXPLAIN; no optimizer rule consults it.
pub trait CostModel: Send + Sync {
    /// Estimated nanos to execute one `opcode` instance producing
    /// `out_cells` cells with `work` scalar operations.
    fn op_nanos(&self, opcode: &str, out_cells: u64, work: u64) -> f64;
    /// Estimated nanos to move `bytes` across the federation boundary.
    fn transfer_nanos(&self, bytes: u64) -> f64;
    /// Estimated nanos for one coordinator-to-site request round.
    fn round_trip_nanos(&self) -> f64;
}

/// The profile-guided default [`CostModel`]: per-opcode mean own times
/// from the global `inst.<opcode>` histograms that closing instruction
/// spans fold into (EXPLAIN ANALYZE's `profile` folds one trace through
/// the same rows), with a work-proportional fallback for opcodes never
/// yet observed.
#[derive(Debug, Clone)]
pub struct ProfileCostModel {
    /// Fallback nanos per scalar operation for unobserved opcodes.
    pub nanos_per_op: f64,
    /// Sustained transfer cost, nanos per byte.
    pub nanos_per_byte: f64,
    /// One request round, nanos (WAN-shaped default).
    pub rtt_nanos: f64,
}

impl Default for ProfileCostModel {
    fn default() -> Self {
        ProfileCostModel {
            nanos_per_op: 0.5,
            // ~10 GbB/s effective — intentionally cheap relative to the
            // WAN round trip, so estimates rank plans by rounds first.
            nanos_per_byte: 0.1,
            // 5 ms: a WAN-shaped round trip.
            rtt_nanos: 5e6,
        }
    }
}

impl CostModel for ProfileCostModel {
    fn op_nanos(&self, opcode: &str, _out_cells: u64, work: u64) -> f64 {
        let snap = exdra_obs::global().snapshot();
        if let Some(h) = snap.histograms.get(&format!("inst.{opcode}")) {
            if h.count > 0 {
                return h.sum as f64 / h.count as f64;
            }
        }
        // Compressed-domain opcodes ("c.<op>", from workers executing on
        // column groups) fall back to the dense profile of the same op
        // before the work-proportional guess. Measured (DESIGN.md §4k),
        // the dense mean is an upper bound for element-wise ops,
        // aggregates (0.05–0.45x of dense on the groups) and the
        // contraction ops (`X v`, `t(X) y`, mmchain: 0.3–0.7x).
        if let Some(dense_op) = opcode.strip_prefix("c.") {
            if let Some(h) = snap.histograms.get(&format!("inst.{dense_op}")) {
                if h.count > 0 {
                    return h.sum as f64 / h.count as f64;
                }
            }
        }
        work as f64 * self.nanos_per_op
    }

    fn transfer_nanos(&self, bytes: u64) -> f64 {
        bytes as f64 * self.nanos_per_byte
    }

    fn round_trip_nanos(&self) -> f64 {
        self.rtt_nanos
    }
}

/// One rewrite rule over the immutable [`Plan`] IR.
///
/// Rules are pure: they take a plan and return either a rewritten plan
/// with the number of rewrites performed, or `None` when nothing
/// applied. Rewrites MUST preserve bitwise-identical execution results.
pub trait OptimizerRule: Send + Sync {
    /// Stable rule name, shown in EXPLAIN output.
    fn name(&self) -> &'static str;
    /// Applies the rule once. `None` means no rewrite opportunity.
    fn apply(&self, plan: &Plan) -> Option<(Plan, u64)>;
}

/// The rule-pipeline optimizer. See the module docs.
pub struct Optimizer {
    rules: Vec<Box<dyn OptimizerRule>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new()
    }
}

impl Optimizer {
    /// The default pipeline: `cse`, `fuse-ops`.
    pub fn new() -> Optimizer {
        Optimizer {
            rules: vec![Box::new(Cse), Box::new(OperatorFusion)],
        }
    }

    /// An optimizer with no rules, which passes plans through untouched
    /// — the A/B baseline for benches.
    pub fn disabled() -> Optimizer {
        Optimizer { rules: Vec::new() }
    }

    /// Appends a custom rule to the end of the pipeline.
    pub fn with_rule(mut self, rule: Box<dyn OptimizerRule>) -> Optimizer {
        self.rules.push(rule);
        self
    }

    /// Runs the pipeline: each rule once, in order. Returns the
    /// optimized plan and the hit counts of the rules that fired
    /// (an optimizer with no rules returns a clone and an empty list).
    pub fn optimize(&self, plan: &Plan) -> (Plan, Vec<RuleFire>) {
        let mut current = plan.clone();
        let mut fires = Vec::new();
        for rule in &self.rules {
            if let Some((next, hits)) = rule.apply(&current) {
                current = next;
                if hits > 0 {
                    fires.push(RuleFire {
                        rule: rule.name().to_string(),
                        hits,
                    });
                }
            }
        }
        (current, fires)
    }
}

// ---------------------------------------------------------------------
// Rule 1: common-subexpression elimination
// ---------------------------------------------------------------------

/// CSE keyed by lineage fingerprints with exact structural verification.
struct Cse;

/// True when two nodes, their operands already remapped, are exactly
/// interchangeable (same results, bit for bit): instruction rows by their
/// wire bytes, operands included, so literals compare by their bits (`NaN`
/// patterns and `-0.0` are told apart); local sources by every cell's
/// bits and federated ones by their partitions (equal lineage hashes may
/// still be a collision).
fn interchangeable(a: &PlanOp, b: &PlanOp) -> bool {
    use PlanOp::*;
    match (a, b) {
        (Inst(x), Inst(y)) => x.to_bytes() == y.to_bytes(),
        (SourceLocal(x), SourceLocal(y)) => {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (SourceFed(x), SourceFed(y)) => {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.scheme() == y.scheme()
                && x.privacy() == y.privacy()
                && x.parts().len() == y.parts().len()
                && x.parts().iter().zip(y.parts()).all(|(p, q)| {
                    p.lo == q.lo && p.hi == q.hi && p.worker == q.worker && p.id == q.id
                })
        }
        _ => false,
    }
}

impl OptimizerRule for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn apply(&self, plan: &Plan) -> Option<(Plan, u64)> {
        let lineages = plan.lineages();
        // lineage -> representative new ids (usually one; a hash
        // collision may hold several).
        let mut canon: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        let mut remap = vec![usize::MAX; plan.len()];
        let mut nodes: Vec<PlanOp> = Vec::with_capacity(plan.len());
        let mut hits = 0u64;
        for (i, node) in plan.nodes().iter().enumerate() {
            let mut node = node.clone();
            node.map_operands(|c| remap[c]);
            let candidates = canon.entry(lineages[i]).or_default();
            if let Some(&id) = candidates
                .iter()
                .find(|&&id| interchangeable(&nodes[id], &node))
            {
                remap[i] = id;
                hits += 1;
                continue;
            }
            let id = nodes.len();
            nodes.push(node);
            canon.get_mut(&lineages[i]).expect("just inserted").push(id);
            remap[i] = id;
        }
        if hits == 0 {
            return None;
        }
        Some((Plan::compacted(nodes, remap[plan.root()]), hits))
    }
}

// ---------------------------------------------------------------------
// Rule 2: operator fusion
// ---------------------------------------------------------------------

/// Matrix-op fusion: transpose-matmul, tsmm, and the generalized
/// mmchain pattern. Runs to fixpoint (one fusion can expose the next:
/// `ba+*(t(X), q)` → `t-ba+*(X, q)` → `mmchain`).
struct OperatorFusion;

impl OperatorFusion {
    /// One bottom-up pass. Returns the rewritten plan and its hit count
    /// (0 = fixpoint reached).
    fn fuse_pass(plan: &Plan) -> (Plan, u64) {
        let meta = plan.meta();
        let refs = plan.refcounts();
        let mut nodes = plan.nodes().to_vec();
        let mut hits = 0u64;
        let local = |k: u64| meta[k as usize].is_some_and(|m| m.loc == Loc::Local);
        let local_or_fedrow =
            |k: u64| meta[k as usize].is_some_and(|m| matches!(m.loc, Loc::Local | Loc::FedRow));
        let col_vec = |k: u64| meta[k as usize].is_some_and(|m| m.cols == 1);
        let inst = |k: u64, nodes: &[PlanOp]| match &nodes[k as usize] {
            PlanOp::Inst(inst) => Some(inst.clone()),
            _ => None,
        };
        for i in 0..nodes.len() {
            let fused = match inst(i as u64, &nodes) {
                // ba+*(t(X), Y) -> t-ba+*(X, Y): Tensor::t_matmul runs
                // `matmul_tn`, whose cells are the r-ascending chains the
                // GEMM builds on a materialized t(X), so this is
                // bitwise-free — and saves the transpose. Fires regardless
                // of the Transpose's refcount — the orphan is GC'd by
                // compaction if unused.
                Some(MatMul {
                    lhs,
                    rhs,
                    t_lhs: false,
                    ..
                }) => match inst(lhs, &nodes) {
                    Some(Transpose { x, .. }) if local(x) && local(rhs) => Some(MatMul {
                        lhs: x,
                        rhs,
                        t_lhs: true,
                        out: 0,
                    }),
                    _ => None,
                },
                Some(MatMul {
                    lhs: a,
                    rhs: b,
                    t_lhs: true,
                    ..
                }) => {
                    // t-ba+*(X, ba+*(X, v)) -> mmchain(X, v).
                    let chain = |q: u64| match inst(q, &nodes) {
                        Some(MatMul {
                            lhs: x2,
                            rhs: v,
                            t_lhs: false,
                            ..
                        }) if refs[q as usize] == 1
                            && x2 == a
                            && local(v)
                            && col_vec(v)
                            && local_or_fedrow(a) =>
                        {
                            Some(v)
                        }
                        _ => None,
                    };
                    if a == b && local_or_fedrow(a) {
                        // t-ba+*(X, X) -> tsmm(X): same r-ascending
                        // upper-triangle accumulation order.
                        Some(Tsmm {
                            x: a,
                            left: true,
                            out: 0,
                        })
                    } else if let Some(v) = chain(b) {
                        Some(MmChain {
                            x: a,
                            v,
                            w: None,
                            out: 0,
                        })
                    } else if let Some(Binary {
                        lhs: l,
                        rhs: r,
                        op: BinaryOp::Mul,
                        ..
                    }) = inst(b, &nodes)
                    {
                        // t-ba+*(X, w ⊙ ba+*(X, v)) -> mmchain(X, v, w),
                        // with `w` on either side: `w ⊙ q` and `q ⊙ w`
                        // have the same bits (DESIGN.md §4j).
                        [(l, r), (r, l)].into_iter().find_map(|(q, w)| {
                            let v = chain(q)?;
                            (refs[b as usize] == 1
                                && local(w)
                                && col_vec(w)
                                && meta[w as usize].map(|m| m.rows)
                                    == meta[q as usize].map(|m| m.rows))
                            .then_some(MmChain {
                                x: a,
                                v,
                                w: Some(w),
                                out: 0,
                            })
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(fused) = fused {
                nodes[i] = PlanOp::Inst(fused);
                hits += 1;
            }
        }
        (Plan::compacted(nodes, plan.root()), hits)
    }
}

impl OptimizerRule for OperatorFusion {
    fn name(&self) -> &'static str {
        "fuse-ops"
    }

    fn apply(&self, plan: &Plan) -> Option<(Plan, u64)> {
        let mut current = plan.clone();
        let mut total = 0u64;
        for _ in 0..8 {
            let (next, hits) = Self::fuse_pass(&current);
            if hits == 0 {
                break;
            }
            total += hits;
            current = next;
        }
        (total > 0).then_some((current, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Lazy;
    use exdra_matrix::kernels::elementwise::UnaryOp;
    use exdra_matrix::rng::rand_matrix;

    fn optimize(lazy: &Lazy) -> (Plan, Vec<RuleFire>) {
        Optimizer::new().optimize(&Plan::from_lazy(lazy))
    }

    fn hits(fires: &[RuleFire], rule: &str) -> u64 {
        fires.iter().find(|f| f.rule == rule).map_or(0, |f| f.hits)
    }

    #[test]
    fn compressed_opcodes_price_from_dense_profile() {
        let g = exdra_obs::global();
        g.record("inst.zzz_probe_op", 5_000);
        g.record("inst.zzz_probe_op", 7_000);
        let m = ProfileCostModel::default();
        // "c.<op>" has no histogram of its own yet: the dense profile of
        // the same opcode is used before the work-proportional guess.
        assert_eq!(m.op_nanos("c.zzz_probe_op", 1, 1), 6_000.0);
        // Once compressed samples exist they take precedence.
        g.record("inst.c.zzz_probe_op", 1_000);
        assert_eq!(m.op_nanos("c.zzz_probe_op", 1, 1), 1_000.0);
        // Never-seen compressed opcode falls back to work scaling.
        let unseen = m.op_nanos("c.zzz_never_seen", 1, 100);
        assert_eq!(unseen, 100.0 * m.nanos_per_op);
    }

    #[test]
    fn cse_collapses_duplicate_lineage_subtrees() {
        let x = rand_matrix(20, 3, -1.0, 1.0, 11);
        // Two structurally identical subtrees built independently: the
        // Arc-identity memoization in Lazy cannot see they are equal,
        // but lineage-keyed CSE can.
        let a = Lazy::from_local(x.clone()).tsmm().unwrap();
        let b = Lazy::from_local(x.clone()).tsmm().unwrap();
        let sum = a.add(&b).unwrap();
        let logical = Plan::from_lazy(&sum);
        assert_eq!(logical.len(), 5, "two copies of source+tsmm, plus add");
        let (optimized, fires) = optimize(&sum);
        assert_eq!(hits(&fires, "cse"), 2, "source and tsmm both merged");
        assert_eq!(optimized.len(), 3, "source, tsmm, add");
        let want = sum.compute().unwrap();
        let got = optimized.compute().unwrap();
        assert_eq!(want.values(), got.values(), "bitwise-identical after CSE");
    }

    #[test]
    fn fusion_fires_on_generalized_mmchain() {
        let x = rand_matrix(30, 4, -1.0, 1.0, 12);
        let v = rand_matrix(4, 1, -1.0, 1.0, 13);
        let w = rand_matrix(30, 1, 0.0, 1.0, 14);
        let lx = Lazy::from_local(x);
        let lv = Lazy::from_local(v);
        let lw = Lazy::from_local(w);
        // t(X) %*% (w * (X %*% v)): the generalized mmchain pattern,
        // written with an explicit transpose so fusion has to derive
        // t-ba+* first.
        let q = lx.matmul(&lv);
        let expr = lx.t().matmul(&lw.mul(&q).unwrap());
        let (optimized, fires) = optimize(&expr);
        assert!(
            hits(&fires, "fuse-ops") >= 2,
            "t-ba+* then mmchain: {fires:?}"
        );
        assert!(
            optimized
                .nodes()
                .iter()
                .any(|n| matches!(n, PlanOp::Inst(MmChain { w: Some(_), .. }))),
            "mmchain present:\n{}",
            optimized.render()
        );
        let want = expr.compute().unwrap();
        let got = optimized.compute().unwrap();
        assert_eq!(
            want.values(),
            got.values(),
            "bitwise-identical after fusion"
        );
    }

    #[test]
    fn fusion_derives_tsmm_from_transpose_matmul() {
        let x = rand_matrix(15, 3, -1.0, 1.0, 15);
        let lx = Lazy::from_local(x);
        let expr = lx.t().matmul(&lx);
        let (optimized, fires) = optimize(&expr);
        assert!(hits(&fires, "fuse-ops") >= 2, "{fires:?}");
        assert!(
            optimized
                .nodes()
                .iter()
                .any(|n| matches!(n, PlanOp::Inst(Tsmm { .. }))),
            "{}",
            optimized.render()
        );
        let want = expr.compute().unwrap();
        let got = optimized.compute().unwrap();
        assert_eq!(want.values(), got.values());
    }

    #[test]
    fn fusion_skips_shared_intermediates() {
        let x = rand_matrix(10, 3, -1.0, 1.0, 16);
        let v = rand_matrix(3, 1, -1.0, 1.0, 17);
        let lx = Lazy::from_local(x);
        let lv = Lazy::from_local(v);
        let q = lx.matmul(&lv); // used twice: must not be fused away
        let expr = lx.t().matmul(&q).add(&q.col_sums().unwrap()).unwrap();
        let (optimized, fires) = optimize(&expr);
        assert!(
            optimized
                .nodes()
                .iter()
                .any(|n| matches!(n, PlanOp::Inst(MatMul { t_lhs: false, .. }))),
            "shared ba+* survives:\n{}",
            optimized.render()
        );
        let want = expr.compute().unwrap();
        let got = optimized.compute().unwrap();
        assert_eq!(want.values(), got.values(), "{fires:?}");
    }

    #[test]
    fn disabled_optimizer_is_identity() {
        let x = rand_matrix(8, 2, -1.0, 1.0, 18);
        let lx = Lazy::from_local(x);
        let expr = lx.t().matmul(&lx).unary(UnaryOp::Abs);
        let plan = Plan::from_lazy(&expr);
        let (out, fires) = Optimizer::disabled().optimize(&plan);
        assert!(fires.is_empty());
        assert_eq!(out.render(), plan.render());
    }
}
