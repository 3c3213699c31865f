//! The lazy operation DAG.
//!
//! Every API call appends a node (a [`PlanOp`] over its operands: an
//! instruction row whose operand fields are positions in the node's
//! operand list);
//! nothing executes until [`Lazy::compute`]. [`Plan::from_lazy`] flattens
//! the DAG by a depth-first traversal "for ordering according to data
//! dependencies" (paper §3.2), shared sub-DAGs once, into the plan IR the
//! optimizer rewrites; `Lazy::compute` executes that plan unoptimized and
//! consolidates the result. [`crate::Session::explain`] renders the
//! numbered-script (generated-DML) view before and after optimization.

use std::collections::HashMap;
use std::sync::Arc;

use exdra_core::instruction::Instruction::{self, *};
use exdra_core::{Result, RuntimeError, Tensor};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::DenseMatrix;

use crate::plan::{Plan, PlanOp};

/// One DAG node: a plan operator applied to its operand expressions.
#[derive(Debug)]
pub(crate) struct Expr {
    pub(crate) op: PlanOp,
    pub(crate) children: Vec<Lazy>,
}

/// A lazy matrix expression: a shared handle on one DAG node. Cloning a
/// `Lazy` shares the node, and shared nodes are evaluated once.
#[derive(Debug, Clone)]
pub struct Lazy {
    pub(crate) expr: Arc<Expr>,
}

impl Lazy {
    fn new(op: PlanOp, children: Vec<Lazy>) -> Self {
        Self {
            expr: Arc::new(Expr { op, children }),
        }
    }

    /// Wraps a local matrix as a source.
    pub fn from_local(m: DenseMatrix) -> Self {
        Self::new(PlanOp::SourceLocal(Arc::new(m)), Vec::new())
    }

    /// Wraps a federated matrix as a source.
    pub fn from_fed(f: exdra_core::FedMatrix) -> Self {
        Self::new(PlanOp::SourceFed(f), Vec::new())
    }

    /// A node reading `self` as operand 0 (`inst`'s first operand field).
    fn unary_node(&self, inst: Instruction) -> Lazy {
        Lazy::new(PlanOp::Inst(inst), vec![self.clone()])
    }

    /// A node reading `self` and `other` as operands 0 and 1.
    fn binary_node(&self, inst: Instruction, other: &Lazy) -> Lazy {
        Lazy::new(PlanOp::Inst(inst), vec![self.clone(), other.clone()])
    }

    /// `self %*% rhs`, or `t(self) %*% rhs` with `t_lhs`.
    fn matmul_node(&self, rhs: &Lazy, t_lhs: bool) -> Lazy {
        self.binary_node(
            MatMul {
                lhs: 0,
                rhs: 1,
                t_lhs,
                out: 0,
            },
            rhs,
        )
    }

    /// Matrix multiplication.
    pub fn matmul(&self, rhs: &Lazy) -> Lazy {
        self.matmul_node(rhs, false)
    }

    /// `t(self) %*% rhs`.
    pub fn t_matmul(&self, rhs: &Lazy) -> Lazy {
        self.matmul_node(rhs, true)
    }

    /// `t(self) %*% self`.
    pub fn tsmm(&self) -> Result<Lazy> {
        Ok(self.unary_node(Tsmm {
            x: 0,
            left: true,
            out: 0,
        }))
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary(BinaryOp::Add, rhs))
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary(BinaryOp::Sub, rhs))
    }

    /// Element-wise multiplication.
    pub fn mul(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary(BinaryOp::Mul, rhs))
    }

    /// Element-wise division.
    pub fn div(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary(BinaryOp::Div, rhs))
    }

    /// Generic element-wise binary op.
    pub fn binary(&self, op: BinaryOp, rhs: &Lazy) -> Lazy {
        self.binary_node(
            Binary {
                lhs: 0,
                rhs: 1,
                op,
                out: 0,
            },
            rhs,
        )
    }

    /// Matrix-scalar op (`swap` = scalar on the left).
    pub fn scalar(&self, op: BinaryOp, value: f64, swap: bool) -> Lazy {
        self.unary_node(Scalar {
            x: 0,
            op,
            value,
            swap,
            out: 0,
        })
    }

    /// Element-wise unary op.
    pub fn unary(&self, op: UnaryOp) -> Lazy {
        self.unary_node(Unary { x: 0, op, out: 0 })
    }

    /// Row-wise softmax.
    pub fn softmax(&self) -> Lazy {
        self.unary_node(Softmax { x: 0, out: 0 })
    }

    /// Full sum.
    pub fn sum(&self) -> Lazy {
        self.agg(AggOp::Sum, AggDir::Full)
    }

    /// Column sums.
    pub fn col_sums(&self) -> Result<Lazy> {
        Ok(self.agg(AggOp::Sum, AggDir::Col))
    }

    /// Column means.
    pub fn col_means(&self) -> Result<Lazy> {
        Ok(self.agg(AggOp::Mean, AggDir::Col))
    }

    /// Column standard deviations.
    pub fn col_sds(&self) -> Result<Lazy> {
        Ok(self.agg(AggOp::Sd, AggDir::Col))
    }

    /// Row sums.
    pub fn row_sums(&self) -> Result<Lazy> {
        Ok(self.agg(AggOp::Sum, AggDir::Row))
    }

    /// Row minima.
    pub fn row_mins(&self) -> Result<Lazy> {
        Ok(self.agg(AggOp::Min, AggDir::Row))
    }

    /// Generic aggregate.
    pub fn agg(&self, op: AggOp, dir: AggDir) -> Lazy {
        self.unary_node(Agg {
            x: 0,
            op,
            dir,
            out: 0,
        })
    }

    /// 1-based row argmax.
    pub fn row_index_max(&self) -> Lazy {
        self.unary_node(RowIndexMax { x: 0, out: 0 })
    }

    /// Transpose.
    pub fn t(&self) -> Lazy {
        self.unary_node(Transpose { x: 0, out: 0 })
    }

    /// Right indexing with half-open ranges.
    pub fn index(&self, row_lo: usize, row_hi: usize, col_lo: usize, col_hi: usize) -> Lazy {
        self.unary_node(Index {
            x: 0,
            row_lo: row_lo as u64,
            row_hi: row_hi as u64,
            col_lo: col_lo as u64,
            col_hi: col_hi as u64,
            out: 0,
        })
    }

    /// Vertical concatenation.
    pub fn rbind(&self, other: &Lazy) -> Lazy {
        self.binary_node(Rbind { a: 0, b: 1, out: 0 }, other)
    }

    /// Horizontal concatenation.
    pub fn cbind(&self, other: &Lazy) -> Lazy {
        self.binary_node(Cbind { a: 0, b: 1, out: 0 }, other)
    }

    /// Value replacement (pattern may be NaN).
    pub fn replace(&self, pattern: f64, replacement: f64) -> Lazy {
        self.unary_node(Replace {
            x: 0,
            pattern,
            replacement,
            out: 0,
        })
    }

    /// Evaluates the DAG, unoptimized, to a [`Tensor`]: every node once,
    /// children first, shared sub-DAGs once. The result stays federated
    /// when the plan permits.
    pub fn eval(&self) -> Result<Tensor> {
        Plan::from_lazy(self).execute()
    }

    /// Lineage hash of the whole plan: opcodes, literal parameters, and
    /// source identities (local data by the content of every cell,
    /// federated data by partition symbol IDs). Two structurally
    /// identical plans over the same sources hash equal even when rebuilt
    /// from scratch, which is what lets a coordinator-side
    /// [`exdra_core::lineage::LineageCache`] memoize consolidated results
    /// across repeated `compute()` calls. Equal to the root entry of
    /// [`Plan::lineages`], without lowering the DAG.
    pub fn lineage_hash(&self) -> u64 {
        fn walk(lazy: &Lazy, memo: &mut HashMap<*const Expr, u64>) -> u64 {
            let key = Arc::as_ptr(&lazy.expr);
            if let Some(&h) = memo.get(&key) {
                return h;
            }
            let operands: Vec<u64> = lazy.expr.children.iter().map(|c| walk(c, memo)).collect();
            let op = &lazy.expr.op;
            let h = op.lineage(op.children().into_iter().map(|k| operands[k]));
            memo.insert(key, h);
            h
        }
        walk(self, &mut HashMap::new())
    }

    /// Evaluates the DAG, unoptimized, and consolidates the result
    /// locally (federated results are transferred, subject to privacy
    /// constraints) — the `compute()` of the paper's Python API.
    pub fn compute(&self) -> Result<DenseMatrix> {
        Plan::from_lazy(self).compute()
    }

    /// The scalar value of a `1 x 1` result.
    pub fn compute_scalar(&self) -> Result<f64> {
        self.compute()?.as_scalar().map_err(RuntimeError::Matrix)
    }

    // --- higher-level builtins (materialize inputs, then train) ---------

    /// Trains linear regression on this expression with local labels.
    pub fn lm(&self, y: &DenseMatrix) -> Result<exdra_ml::lm::LmModel> {
        exdra_ml::lm::lm(&self.eval()?, y, &exdra_ml::lm::LmParams::default())
    }

    /// Trains an L2SVM on this expression with local ±1 labels.
    pub fn l2svm(&self, y: &DenseMatrix) -> Result<exdra_ml::l2svm::L2SvmModel> {
        exdra_ml::l2svm::l2svm(&self.eval()?, y, &exdra_ml::l2svm::L2SvmParams::default())
    }

    /// Trains K-Means with `k` centroids on this expression.
    pub fn kmeans(&self, k: usize) -> Result<exdra_ml::kmeans::KMeansModel> {
        exdra_ml::kmeans::kmeans(
            &self.eval()?,
            &exdra_ml::kmeans::KMeansParams {
                k,
                ..exdra_ml::kmeans::KMeansParams::default()
            },
        )
    }

    /// Fits PCA with `k` components on this expression.
    pub fn pca(&self, k: usize) -> Result<exdra_ml::pca::PcaModel> {
        exdra_ml::pca::pca(&self.eval()?, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn lazy_does_not_execute_until_compute() {
        // Build an invalid plan: error surfaces at compute, not build.
        let a = Lazy::from_local(rand_matrix(3, 3, 0.0, 1.0, 1));
        let b = Lazy::from_local(rand_matrix(4, 4, 0.0, 1.0, 2));
        let bad = a.matmul(&b); // 3x3 * 4x4 is invalid
        assert!(bad.compute().is_err());
    }

    #[test]
    fn normalization_plan_matches_manual() {
        let x = rand_matrix(50, 4, -2.0, 2.0, 3);
        let lx = Lazy::from_local(x.clone());
        let normalized = lx.sub(&lx.col_means().unwrap()).unwrap();
        let got = normalized.compute().unwrap();
        let mu =
            exdra_matrix::kernels::aggregates::aggregate(&x, AggOp::Mean, AggDir::Col).unwrap();
        let want = exdra_matrix::kernels::elementwise::binary(&x, BinaryOp::Sub, &mu).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn shared_subdag_evaluated_once_via_memo() {
        // (X^T X) used twice: memoization means identical object reuse —
        // verify correctness of the shared evaluation.
        let x = rand_matrix(20, 3, 0.0, 1.0, 4);
        let lx = Lazy::from_local(x.clone());
        let gram = lx.tsmm().unwrap();
        let twice = gram.add(&gram).unwrap();
        let got = twice.compute().unwrap();
        let g = exdra_matrix::kernels::matmul::tsmm(&x, true).unwrap();
        let want = g.zip(&g, "+", |a, b| a + b).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn scalar_result_extraction() {
        let a = Lazy::from_local(DenseMatrix::filled(4, 4, 2.0));
        assert_eq!(a.sum().compute_scalar().unwrap(), 32.0);
        assert!(a.compute_scalar().is_err(), "4x4 is not scalar");
    }

    #[test]
    fn builtin_training_through_dag() {
        let (x, y, _) = exdra_ml::synth::regression(100, 4, 0.1, 6);
        let lx = Lazy::from_local(x);
        let model = lx.lm(&y).unwrap();
        assert_eq!(model.weights.rows(), 4);
    }
}
