//! `lan_compressed`: low-cardinality data (one-hot + 16-level quantised
//! sensors) row-partitioned over two loopback-TCP workers and compacted
//! there with `Worker::compact` during set-up, then LM-CG, L2SVM, column
//! `sum` / `var`, `X*2` and one unary op per pass. The kernel layer in
//! its other representation: `matrix::compress` direct ops and the
//! worker's dense fallback decide pass time; compaction lands in
//! `setup_s`.

use std::time::Duration;

use exdra::core::Tensor;
use exdra::matrix::compress::CompressedMatrix;
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;

use super::algos::{run_suite, Algo, SuiteSizes};
use super::{
    check_close, err, first_partition, Counters, Federation, LayerMetrics, Link, PassOutput,
    PassStats, Recipe, Workload,
};
use crate::gen::{low_cardinality_matrix, sub_seed, AlgoInputs, Checksum};
use crate::probes::{self, time_median};
use crate::trace::Tracer;

const ALGOS: [Algo; 2] = [Algo::LmCg, Algo::L2Svm];

pub struct CompressedRecipe {
    inputs: AlgoInputs,
    sizes: SuiteSizes,
}

impl CompressedRecipe {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (rows, cols) = if smoke { (2_000, 20) } else { (40_000, 100) };
        Self {
            inputs: AlgoInputs::for_matrix(
                low_cardinality_matrix(rows, cols, sub_seed(seed, 1)),
                seed,
            ),
            sizes: SuiteSizes {
                lm_iters: 30,
                svm_iters: 3,
                mlr_outer: 0,
                mlr_inner: 0,
                kmeans_k: 0,
                kmeans_iters: 0,
                pca_k: 0,
            },
        }
    }
}

/// One pass over `x`: the two solvers, then the aggregate, scalar and
/// unary ops. Returns every output.
fn outputs(
    x: &Tensor,
    inputs: &AlgoInputs,
    sizes: &SuiteSizes,
    tr: &Tracer,
) -> Result<Vec<DenseMatrix>, String> {
    let mut out = run_suite(x, inputs, sizes, &ALGOS, tr)?;
    let local = |t: exdra::core::Result<Tensor>| t.and_then(|t| t.to_local()).map_err(err);
    out.push(tr.span("agg.col_sum", || local(x.agg(AggOp::Sum, AggDir::Col)))?);
    out.push(tr.span("agg.col_var", || local(x.agg(AggOp::Var, AggDir::Col)))?);
    // The n x d results stay at the sites; their column sums come back.
    out.push(tr.span("ew.scalar_mul", || {
        local(
            x.scalar_op(BinaryOp::Mul, 2.0, false)
                .and_then(|t| t.col_sums()),
        )
    })?);
    out.push(tr.span("ew.unary_abs", || {
        local(x.unary(UnaryOp::Abs).and_then(|t| t.col_sums()))
    })?);
    Ok(out)
}

impl Recipe for CompressedRecipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
        let fed = Federation::spawn(Link::LanTcp);
        let x = Tensor::Fed(fed.scatter(&self.inputs.x));
        let compacted: usize = tr.span("compress.compact", || {
            fed.workers
                .iter()
                .map(|w| w.compact(0, Duration::ZERO))
                .sum()
        });
        if compacted != fed.workers.len() {
            return Err(format!(
                "compaction kept {compacted} of {} partitions compressed",
                fed.workers.len()
            ));
        }
        let mut w = CompressedWorkload {
            inputs: self.inputs.clone(),
            sizes: self.sizes,
            fed,
            x,
            expected: 0,
        };
        let got = outputs(&w.x, &w.inputs, &w.sizes, tr)?;
        // Oracle: the same pass on the dense local matrix. Compressed ops
        // are bitwise equal to decompress-then-operate on a partition;
        // across partitions the sums associate differently.
        let want = tr.span("oracle.local_dense", || {
            outputs(
                &Tensor::Local(w.inputs.x.clone()),
                &w.inputs,
                &w.sizes,
                &Tracer::new(),
            )
        })?;
        check_close("lan_compressed", &got, &want)?;
        w.expected = Checksum::of(&got);
        Ok(Box::new(w))
    }
}

struct CompressedWorkload {
    inputs: AlgoInputs,
    sizes: SuiteSizes,
    fed: Federation,
    x: Tensor,
    expected: u64,
}

impl Workload for CompressedWorkload {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String> {
        Ok(PassOutput {
            checksum: Checksum::of(&outputs(&self.x, &self.inputs, &self.sizes, tr)?),
            ..PassOutput::default()
        })
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn counters(&self) -> Counters {
        self.fed.counters()
    }

    fn probe_layers(&mut self, tr: &Tracer, _stats: &PassStats, out: &mut LayerMetrics) {
        let xp = first_partition(&self.inputs.x);
        tr.span("probe.matrix.compress", || {
            compress_metrics(&xp, &self.sizes, out)
        });
        tr.span("probe.net.codec", || {
            probes::codec_metrics(&probes::matrix_payloads(&xp), out)
        });
        tr.span("probe.core", || probes::rpc_metrics(&self.fed, "lan", out));
    }

    fn teardown(self: Box<Self>) {
        let Self { fed, x, .. } = *self;
        drop(x);
        fed.shutdown();
    }
}

/// `matrix::compress` on one partition: `compress_s`, `compress_ratio`,
/// and `c_vs_dense`, the pass's op mix on the compressed partition over
/// the same mix on the dense one. The dense time of the mix is this
/// workload's `kernel_busy_s`.
fn compress_metrics(xp: &DenseMatrix, sizes: &SuiteSizes, out: &mut LayerMetrics) {
    exdra_par::set_threads(1);
    let compress_s = time_median(3, || {
        std::hint::black_box(CompressedMatrix::compress(xp));
    });
    let c = CompressedMatrix::compress(xp);
    out.insert("compress_s", compress_s);
    out.insert("compress_ratio", c.ratio());

    let (dense, comp) = (Tensor::Local(xp.clone()), Tensor::Compressed(c));
    let v = rand_matrix(xp.cols(), 1, -1.0, 1.0, 1);
    let y = Tensor::Local(rand_matrix(xp.rows(), 1, -1.0, 1.0, 2));
    // (name, calls per pass, op)
    type Op<'a> = Box<dyn Fn(&Tensor) + 'a>;
    let ops: Vec<(&str, f64, Op)> = vec![
        (
            "mmchain",
            sizes.lm_iters as f64,
            Box::new(|x| drop(x.mmchain(&v, None))),
        ),
        (
            "matvec",
            sizes.svm_iters as f64,
            Box::new(|x| drop(x.matmul(&Tensor::Local(v.clone())))),
        ),
        (
            "t_matvec",
            (2 + sizes.svm_iters) as f64,
            Box::new(|x| drop(x.t_matmul(&y))),
        ),
        (
            "col_sum",
            3.0,
            Box::new(|x| drop(x.agg(AggOp::Sum, AggDir::Col))),
        ),
        (
            "col_var",
            1.0,
            Box::new(|x| drop(x.agg(AggOp::Var, AggDir::Col))),
        ),
        (
            "scalar_mul",
            1.0,
            Box::new(|x| drop(x.scalar_op(BinaryOp::Mul, 2.0, false))),
        ),
        ("unary_abs", 1.0, Box::new(|x| drop(x.unary(UnaryOp::Abs)))),
    ];
    let (mut dense_s, mut comp_s, mut flops) = (0.0, 0.0, 0.0);
    for (name, count, op) in &ops {
        let d = time_median(3, || op(&dense));
        let c = time_median(3, || op(&comp));
        println!(
            "    c_vs_dense {name:<11} {:>8.3} ms dense {:>8.3} ms compressed  {:.2}x",
            d * 1e3,
            c * 1e3,
            c / d
        );
        dense_s += count * d;
        comp_s += count * c;
        flops += count * 2.0 * (xp.rows() * xp.cols()) as f64;
    }
    out.insert(
        "c_vs_dense",
        if dense_s > 0.0 { comp_s / dense_s } else { 0.0 },
    );
    // What the workers really run is the compressed mix.
    out.insert("kernel_busy_s", comp_s);
    out.insert(
        "kernel_gflops",
        if comp_s > 0.0 {
            flops / comp_s / 1e9
        } else {
            0.0
        },
    );
}
