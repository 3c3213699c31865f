//! The lazy operation DAG.
//!
//! Every API call appends a node; nothing executes until
//! [`Lazy::compute`], which performs a depth-first traversal "for ordering
//! according to data dependencies" (paper §3.2), evaluates each node once
//! (shared sub-DAGs are memoized), and consolidates the final result.
//! [`crate::plan::Plan::from_lazy`] lowers the same DAG into the explicit
//! plan IR the optimizer rewrites; [`crate::Session::explain`] renders the
//! numbered-script (generated-DML) view before and after optimization.

use std::collections::HashMap;
use std::sync::Arc;

use exdra_core::{Result, RuntimeError, Tensor};
use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::DenseMatrix;

/// A DAG node.
#[derive(Debug)]
pub(crate) enum Node {
    /// Local source matrix.
    SourceLocal(DenseMatrix),
    /// Federated source.
    SourceFed(exdra_core::FedMatrix),
    /// `lhs %*% rhs`.
    MatMul(Arc<Node>, Arc<Node>),
    /// `t(lhs) %*% rhs`.
    TMatMul(Arc<Node>, Arc<Node>),
    /// `t(x) %*% x`.
    Tsmm(Arc<Node>),
    /// Element-wise binary with broadcasting.
    Binary(BinaryOp, Arc<Node>, Arc<Node>),
    /// Matrix-scalar op.
    Scalar(BinaryOp, f64, bool, Arc<Node>),
    /// Element-wise unary.
    Unary(UnaryOp, Arc<Node>),
    /// Row-wise softmax.
    Softmax(Arc<Node>),
    /// Aggregate.
    Agg(AggOp, AggDir, Arc<Node>),
    /// 1-based row argmax.
    RowIndexMax(Arc<Node>),
    /// Transpose.
    Transpose(Arc<Node>),
    /// Right indexing (half-open).
    Index(usize, usize, usize, usize, Arc<Node>),
    /// Vertical concat.
    Rbind(Arc<Node>, Arc<Node>),
    /// Horizontal concat.
    Cbind(Arc<Node>, Arc<Node>),
    /// Value replacement.
    Replace(f64, f64, Arc<Node>),
}

impl Node {
    pub(crate) fn children(&self) -> Vec<&Arc<Node>> {
        use Node::*;
        match self {
            SourceLocal(_) | SourceFed(_) => vec![],
            Tsmm(a)
            | Unary(_, a)
            | Softmax(a)
            | Agg(_, _, a)
            | RowIndexMax(a)
            | Transpose(a)
            | Index(_, _, _, _, a)
            | Replace(_, _, a)
            | Scalar(_, _, _, a) => {
                vec![a]
            }
            MatMul(a, b) | TMatMul(a, b) | Binary(_, a, b) | Rbind(a, b) | Cbind(a, b) => {
                vec![a, b]
            }
        }
    }
}

/// A lazy matrix expression.
#[derive(Debug, Clone)]
pub struct Lazy {
    pub(crate) node: Arc<Node>,
}

impl Lazy {
    pub(crate) fn new(node: Node) -> Self {
        Self {
            node: Arc::new(node),
        }
    }

    /// Wraps a local matrix as a source.
    pub fn from_local(m: DenseMatrix) -> Self {
        Self::new(Node::SourceLocal(m))
    }

    /// Wraps a federated matrix as a source.
    pub fn from_fed(f: exdra_core::FedMatrix) -> Self {
        Self::new(Node::SourceFed(f))
    }

    fn unary_node(&self, f: impl FnOnce(Arc<Node>) -> Node) -> Lazy {
        Lazy::new(f(Arc::clone(&self.node)))
    }

    fn binary_node(&self, other: &Lazy, f: impl FnOnce(Arc<Node>, Arc<Node>) -> Node) -> Lazy {
        Lazy::new(f(Arc::clone(&self.node), Arc::clone(&other.node)))
    }

    /// Matrix multiplication.
    pub fn matmul(&self, rhs: &Lazy) -> Lazy {
        self.binary_node(rhs, Node::MatMul)
    }

    /// `t(self) %*% rhs`.
    pub fn t_matmul(&self, rhs: &Lazy) -> Lazy {
        self.binary_node(rhs, Node::TMatMul)
    }

    /// `t(self) %*% self`.
    pub fn tsmm(&self) -> Result<Lazy> {
        Ok(self.unary_node(Node::Tsmm))
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary_node(rhs, |a, b| Node::Binary(BinaryOp::Add, a, b)))
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary_node(rhs, |a, b| Node::Binary(BinaryOp::Sub, a, b)))
    }

    /// Element-wise multiplication.
    pub fn mul(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary_node(rhs, |a, b| Node::Binary(BinaryOp::Mul, a, b)))
    }

    /// Element-wise division.
    pub fn div(&self, rhs: &Lazy) -> Result<Lazy> {
        Ok(self.binary_node(rhs, |a, b| Node::Binary(BinaryOp::Div, a, b)))
    }

    /// Generic element-wise binary op.
    pub fn binary(&self, op: BinaryOp, rhs: &Lazy) -> Lazy {
        self.binary_node(rhs, |a, b| Node::Binary(op, a, b))
    }

    /// Matrix-scalar op (`swap` = scalar on the left).
    pub fn scalar(&self, op: BinaryOp, value: f64, swap: bool) -> Lazy {
        self.unary_node(|a| Node::Scalar(op, value, swap, a))
    }

    /// Element-wise unary op.
    pub fn unary(&self, op: UnaryOp) -> Lazy {
        self.unary_node(|a| Node::Unary(op, a))
    }

    /// Row-wise softmax.
    pub fn softmax(&self) -> Lazy {
        self.unary_node(Node::Softmax)
    }

    /// Full sum.
    pub fn sum(&self) -> Lazy {
        self.unary_node(|a| Node::Agg(AggOp::Sum, AggDir::Full, a))
    }

    /// Column sums.
    pub fn col_sums(&self) -> Result<Lazy> {
        Ok(self.unary_node(|a| Node::Agg(AggOp::Sum, AggDir::Col, a)))
    }

    /// Column means.
    pub fn col_means(&self) -> Result<Lazy> {
        Ok(self.unary_node(|a| Node::Agg(AggOp::Mean, AggDir::Col, a)))
    }

    /// Column standard deviations.
    pub fn col_sds(&self) -> Result<Lazy> {
        Ok(self.unary_node(|a| Node::Agg(AggOp::Sd, AggDir::Col, a)))
    }

    /// Row sums.
    pub fn row_sums(&self) -> Result<Lazy> {
        Ok(self.unary_node(|a| Node::Agg(AggOp::Sum, AggDir::Row, a)))
    }

    /// Row minima.
    pub fn row_mins(&self) -> Result<Lazy> {
        Ok(self.unary_node(|a| Node::Agg(AggOp::Min, AggDir::Row, a)))
    }

    /// Generic aggregate.
    pub fn agg(&self, op: AggOp, dir: AggDir) -> Lazy {
        self.unary_node(|a| Node::Agg(op, dir, a))
    }

    /// 1-based row argmax.
    pub fn row_index_max(&self) -> Lazy {
        self.unary_node(Node::RowIndexMax)
    }

    /// Transpose.
    pub fn t(&self) -> Lazy {
        self.unary_node(Node::Transpose)
    }

    /// Right indexing with half-open ranges.
    pub fn index(&self, row_lo: usize, row_hi: usize, col_lo: usize, col_hi: usize) -> Lazy {
        self.unary_node(|a| Node::Index(row_lo, row_hi, col_lo, col_hi, a))
    }

    /// Vertical concatenation.
    pub fn rbind(&self, other: &Lazy) -> Lazy {
        self.binary_node(other, Node::Rbind)
    }

    /// Horizontal concatenation.
    pub fn cbind(&self, other: &Lazy) -> Lazy {
        self.binary_node(other, Node::Cbind)
    }

    /// Value replacement (pattern may be NaN).
    pub fn replace(&self, pattern: f64, replacement: f64) -> Lazy {
        self.unary_node(|a| Node::Replace(pattern, replacement, a))
    }

    /// Evaluates the DAG to a [`Tensor`] (memoizing shared sub-DAGs); the
    /// result stays federated when the plan permits.
    pub fn eval(&self) -> Result<Tensor> {
        let mut memo: HashMap<*const Node, Tensor> = HashMap::new();
        eval_node(&self.node, &mut memo)
    }

    /// Lineage hash of the whole plan: opcodes, literal parameters, and
    /// source identities (local data by content sample, federated data by
    /// partition symbol IDs). Two structurally identical plans over the
    /// same sources hash equal even when rebuilt from scratch, which is
    /// what lets a coordinator-side [`exdra_core::lineage::LineageCache`]
    /// memoize consolidated results across repeated `compute()` calls.
    pub fn lineage_hash(&self) -> u64 {
        let mut memo: HashMap<*const Node, u64> = HashMap::new();
        lineage_of(&self.node, &mut memo)
    }

    /// Evaluates the DAG and consolidates the result locally (federated
    /// results are transferred, subject to privacy constraints) — the
    /// `compute()` of the paper's Python API.
    pub fn compute(&self) -> Result<DenseMatrix> {
        self.eval()?.to_local()
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

fn eval_node(node: &Arc<Node>, memo: &mut HashMap<*const Node, Tensor>) -> Result<Tensor> {
    let key = Arc::as_ptr(node);
    if let Some(t) = memo.get(&key) {
        return Ok(t.clone());
    }
    use Node::*;
    let result = match &**node {
        SourceLocal(m) => Tensor::Local(m.clone()),
        SourceFed(f) => Tensor::Fed(f.clone()),
        MatMul(a, b) => eval_node(a, memo)?.matmul(&eval_node(b, memo)?)?,
        TMatMul(a, b) => eval_node(a, memo)?.t_matmul(&eval_node(b, memo)?)?,
        Tsmm(a) => Tensor::Local(eval_node(a, memo)?.tsmm()?),
        Binary(op, a, b) => eval_node(a, memo)?.binary(*op, &eval_node(b, memo)?)?,
        Scalar(op, v, swap, a) => eval_node(a, memo)?.scalar_op(*op, *v, *swap)?,
        Unary(op, a) => eval_node(a, memo)?.unary(*op)?,
        Softmax(a) => eval_node(a, memo)?.softmax()?,
        Agg(op, dir, a) => eval_node(a, memo)?.agg(*op, *dir)?,
        RowIndexMax(a) => eval_node(a, memo)?.row_index_max()?,
        Transpose(a) => eval_node(a, memo)?.t()?,
        Index(rl, ru, cl, cu, a) => eval_node(a, memo)?.index(*rl, *ru, *cl, *cu)?,
        Rbind(a, b) => eval_node(a, memo)?.rbind(&eval_node(b, memo)?)?,
        Cbind(a, b) => eval_node(a, memo)?.cbind(&eval_node(b, memo)?)?,
        Replace(p, r, a) => eval_node(a, memo)?.replace(*p, *r)?,
    };
    memo.insert(key, result.clone());
    Ok(result)
}

fn lineage_of(node: &Arc<Node>, memo: &mut HashMap<*const Node, u64>) -> u64 {
    use exdra_core::lineage::{mix, seed};
    let key = Arc::as_ptr(node);
    if let Some(&h) = memo.get(&key) {
        return h;
    }
    use Node::*;
    let h = match &**node {
        // By content, every cell: the plan cache is shared across
        // sessions, and a sampled fingerprint would let two sources that
        // differ in the middle share a result.
        SourceLocal(m) => mix(seed("src.local"), exdra_core::lineage::of_dense(m)),
        SourceFed(f) => {
            let mut h = mix(mix(seed("src.fed"), f.rows() as u64), f.cols() as u64);
            for p in f.parts() {
                h = mix(
                    mix(mix(mix(h, p.lo as u64), p.hi as u64), p.worker as u64),
                    p.id,
                );
            }
            h
        }
        MatMul(a, b) => mix(mix(seed("ba+*"), lineage_of(a, memo)), lineage_of(b, memo)),
        TMatMul(a, b) => mix(
            mix(seed("t-ba+*"), lineage_of(a, memo)),
            lineage_of(b, memo),
        ),
        Tsmm(a) => mix(seed("tsmm"), lineage_of(a, memo)),
        Binary(op, a, b) => mix(
            mix(seed(op.name()), lineage_of(a, memo)),
            lineage_of(b, memo),
        ),
        Scalar(op, v, swap, a) => mix(
            mix(
                mix(mix(seed("scalar"), seed(op.name())), v.to_bits()),
                *swap as u64,
            ),
            lineage_of(a, memo),
        ),
        Unary(op, a) => mix(mix(seed("unary"), seed(op.name())), lineage_of(a, memo)),
        Softmax(a) => mix(seed("softmax"), lineage_of(a, memo)),
        Agg(op, dir, a) => mix(
            mix(mix(seed("agg"), seed(op.name())), *dir as u64),
            lineage_of(a, memo),
        ),
        RowIndexMax(a) => mix(seed("rowIndexMax"), lineage_of(a, memo)),
        Transpose(a) => mix(seed("t"), lineage_of(a, memo)),
        Index(rl, ru, cl, cu, a) => mix(
            mix(
                mix(mix(mix(seed("ix"), *rl as u64), *ru as u64), *cl as u64),
                *cu as u64,
            ),
            lineage_of(a, memo),
        ),
        Rbind(a, b) => mix(mix(seed("rbind"), lineage_of(a, memo)), lineage_of(b, memo)),
        Cbind(a, b) => mix(mix(seed("cbind"), lineage_of(a, memo)), lineage_of(b, memo)),
        Replace(p, r, a) => mix(
            mix(mix(seed("replace"), p.to_bits()), r.to_bits()),
            lineage_of(a, memo),
        ),
    };
    memo.insert(key, h);
    h
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
