//! `local_algos` and `lan_algos`: the Fig. 5 algorithm suite — LM-CG,
//! L2SVM, MLogReg, K-Means, PCA — with fixed iteration counts, on one
//! paper-production matrix that is either local or row-partitioned over
//! two loopback-TCP workers. Their ratio is Fig. 5's Local-vs-LAN
//! overhead. The suite itself ([`run_suite`]) is shared with
//! `wan_rounds` and `lan_compressed`.

use exdra::core::Tensor;
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::DenseMatrix;
use exdra::ml::{kmeans, l2svm, lm, mlogreg, pca};

use super::{
    check_close, err, first_partition, Counters, Federation, LayerMetrics, Link, PassOutput,
    PassStats, Recipe, Workload,
};
use crate::gen::{paper_matrix, sub_seed, AlgoInputs, Checksum, CLASSES};
use crate::probes::{self, KernelOp};
use crate::trace::Tracer;

/// One algorithm of the suite; the value is its traced phase name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    LmCg,
    L2Svm,
    MLogReg,
    KMeans,
    Pca,
}

impl Algo {
    pub const ALL: [Algo; 5] = [
        Algo::LmCg,
        Algo::L2Svm,
        Algo::MLogReg,
        Algo::KMeans,
        Algo::Pca,
    ];

    pub fn phase(self) -> &'static str {
        match self {
            Algo::LmCg => "ml.lm_cg",
            Algo::L2Svm => "ml.l2svm",
            Algo::MLogReg => "ml.mlogreg",
            Algo::KMeans => "ml.kmeans",
            Algo::Pca => "ml.pca",
        }
    }
}

/// Fixed iteration counts, so every pass does identical work (the paper
/// fixes the maximum iterations, §6.1). Tolerances are 0.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSizes {
    pub lm_iters: usize,
    pub svm_iters: usize,
    pub mlr_outer: usize,
    pub mlr_inner: usize,
    pub kmeans_k: usize,
    pub kmeans_iters: usize,
    pub pca_k: usize,
}

/// Runs `algos` on `x` and returns every model output (weights,
/// centroids, components, eigenvalues, projection column sums).
pub fn run_suite(
    x: &Tensor,
    inp: &AlgoInputs,
    sz: &SuiteSizes,
    algos: &[Algo],
    tr: &Tracer,
) -> Result<Vec<DenseMatrix>, String> {
    let mut out = Vec::new();
    for algo in algos {
        tr.span(algo.phase(), || -> Result<(), String> {
            match algo {
                Algo::LmCg => {
                    let p = lm::LmParams {
                        lambda: 1e-3,
                        max_iter: sz.lm_iters,
                        tol: 0.0,
                        cg_threshold: 0,
                    };
                    out.push(lm::lm_cg(x, &inp.y_reg, &p).map_err(err)?.weights);
                }
                Algo::L2Svm => {
                    let p = l2svm::L2SvmParams {
                        max_iter: sz.svm_iters,
                        tol: 0.0,
                        ..l2svm::L2SvmParams::default()
                    };
                    out.push(l2svm::l2svm(x, &inp.y_bin, &p).map_err(err)?.weights);
                }
                Algo::MLogReg => {
                    let p = mlogreg::MLogRegParams {
                        max_outer: sz.mlr_outer,
                        max_inner: sz.mlr_inner,
                        tol: 0.0,
                        ..mlogreg::MLogRegParams::default()
                    };
                    let m = mlogreg::mlogreg(x, &inp.y_cls, CLASSES, &p).map_err(err)?;
                    out.push(m.weights);
                }
                Algo::KMeans => {
                    let p = kmeans::KMeansParams {
                        k: sz.kmeans_k,
                        max_iter: sz.kmeans_iters,
                        runs: 1,
                        tol: 0.0,
                        seed: inp.kmeans_seed,
                    };
                    out.push(kmeans::kmeans(x, &p).map_err(err)?.centroids);
                }
                Algo::Pca => {
                    let model = pca::pca(x, sz.pca_k).map_err(err)?;
                    // Projection is part of the measured algorithm (§6.2);
                    // its column sums stand in for the n x k result.
                    let proj = pca::transform(x, &model).map_err(err)?;
                    out.push(proj.col_sums().and_then(|t| t.to_local()).map_err(err)?);
                    out.push(DenseMatrix::row_vector(&model.eigenvalues));
                    out.push(model.components);
                }
            }
            Ok(())
        })?;
    }
    Ok(out)
}

/// The `matrix`-kernel calls one pass of the suite makes on a partition
/// `xp`, with per-pass call counts and floating-point operation counts:
/// the mix `kernel_busy_s`, `kernel_gflops` and `par_speedup` replay.
pub fn suite_kernel_mix(xp: &DenseMatrix, sz: &SuiteSizes, algos: &[Algo]) -> Vec<KernelOp> {
    use exdra::matrix::rng::rand_matrix;
    let (n, d) = (xp.rows() as f64, xp.cols() as f64);
    let x = Tensor::Local(xp.clone());
    let vec_n = |m: usize| Tensor::Local(rand_matrix(xp.rows(), m, -1.0, 1.0, 1));
    let vec_d = |m: usize| rand_matrix(xp.cols(), m, -1.0, 1.0, 2);
    let mut ops: Vec<KernelOp> = Vec::new();
    let mut add = |name: &'static str, count: usize, flops: f64, f: Box<dyn Fn()>| {
        if count > 0 {
            ops.push(KernelOp {
                name,
                count: count as f64,
                flops,
                run: f,
            });
        }
    };
    let mut t_matvec = 0usize;
    let mut matvec = 0usize;
    let mut mmchain = 0usize;
    let mut mmchain_w = 0usize;
    for algo in algos {
        match algo {
            Algo::LmCg => {
                t_matvec += 1;
                mmchain += sz.lm_iters;
            }
            Algo::L2Svm => {
                t_matvec += 1 + sz.svm_iters;
                matvec += sz.svm_iters;
            }
            Algo::MLogReg => {
                mmchain_w += sz.mlr_outer * CLASSES * sz.mlr_inner;
                let (xk, w, r) = (x.clone(), vec_d(CLASSES), vec_n(CLASSES));
                add(
                    "matmul.classes",
                    sz.mlr_outer,
                    2.0 * n * d * CLASSES as f64,
                    Box::new(move || drop(xk.matmul(&Tensor::Local(w.clone())))),
                );
                let (xk, r2) = (x.clone(), r.clone());
                add(
                    "t_matmul.classes",
                    sz.mlr_outer,
                    2.0 * n * d * CLASSES as f64,
                    Box::new(move || drop(xk.t_matmul(&r2))),
                );
                let r3 = r.clone();
                add(
                    "softmax",
                    sz.mlr_outer,
                    4.0 * n * CLASSES as f64,
                    Box::new(move || drop(r3.softmax())),
                );
                add(
                    "ew.sub.classes",
                    sz.mlr_outer,
                    n * CLASSES as f64,
                    Box::new(move || drop(r.binary(BinaryOp::Sub, &r))),
                );
            }
            Algo::KMeans => {
                let k = sz.kmeans_k;
                let kf = k as f64;
                let xk = x.clone();
                add(
                    "ew.square+sum",
                    1,
                    2.0 * n * d,
                    Box::new(move || drop(xk.unary(UnaryOp::Square).and_then(|t| t.sum()))),
                );
                let (xk, ct) = (x.clone(), vec_d(k));
                add(
                    "matmul.centroids",
                    sz.kmeans_iters,
                    2.0 * n * d * kf,
                    Box::new(move || drop(xk.matmul(&Tensor::Local(ct.clone())))),
                );
                let (xk, p) = (x.clone(), vec_n(k));
                add(
                    "t_matmul.assign",
                    sz.kmeans_iters,
                    2.0 * n * d * kf,
                    Box::new(move || drop(p.t_matmul(&xk))),
                );
                // Per Lloyd step: scale, add, <=, /, * over n x k, plus
                // row mins, row sums, sum and column sums of it.
                let dist = vec_n(k);
                add(
                    "ew+agg.distances",
                    sz.kmeans_iters,
                    9.0 * n * kf,
                    Box::new(move || {
                        let run = || -> exdra::core::Result<()> {
                            let s = dist.scalar_op(BinaryOp::Mul, -2.0, false)?;
                            let mins = s.row_mins()?;
                            let p = s.binary(BinaryOp::Le, &mins)?;
                            let psum = p.row_sums()?;
                            let p = p.binary(BinaryOp::Div, &psum)?;
                            let pd = p.binary(BinaryOp::Mul, &s)?;
                            pd.sum()?;
                            p.col_sums()?;
                            s.binary(BinaryOp::Add, &s)?;
                            Ok(())
                        };
                        drop(run());
                    }),
                );
            }
            Algo::Pca => {
                let xk = x.clone();
                add("tsmm", 1, n * d * d, Box::new(move || drop(xk.tsmm())));
                let (xk, v, mu) = (
                    x.clone(),
                    vec_d(sz.pca_k),
                    rand_matrix(1, xp.cols(), -1.0, 1.0, 3),
                );
                add(
                    "center+project",
                    1,
                    n * d + 2.0 * n * d * sz.pca_k as f64 + n * d,
                    Box::new(move || {
                        let run = || -> exdra::core::Result<()> {
                            xk.col_means()?;
                            let c = xk.binary(BinaryOp::Sub, &Tensor::Local(mu.clone()))?;
                            c.matmul(&Tensor::Local(v.clone()))?.col_sums()?;
                            Ok(())
                        };
                        drop(run());
                    }),
                );
            }
        }
    }
    let (xk, y) = (x.clone(), vec_n(1));
    add(
        "t_matvec",
        t_matvec,
        2.0 * n * d,
        Box::new(move || drop(xk.t_matmul(&y))),
    );
    let (xk, s) = (x.clone(), vec_d(1));
    add(
        "matvec",
        matvec,
        2.0 * n * d,
        Box::new(move || drop(xk.matmul(&Tensor::Local(s.clone())))),
    );
    let (xk, v) = (x.clone(), vec_d(1));
    add(
        "mmchain",
        mmchain,
        4.0 * n * d,
        Box::new(move || drop(xk.mmchain(&v, None))),
    );
    let (xk, v, q) = (x, vec_d(1), rand_matrix(xp.rows(), 1, 0.0, 1.0, 4));
    add(
        "mmchain.weighted",
        mmchain_w,
        4.0 * n * d + n,
        Box::new(move || drop(xk.mmchain(&v, Some(&q)))),
    );
    ops
}

/// Where the suite's matrix lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Placement {
    /// `Tensor::Local`, kernels at `par_width` threads.
    Local { par_width: usize },
    /// Row-partitioned over two unshaped loopback-TCP workers, width 1.
    Lan,
}

/// Inputs and pinned sizes of `local_algos` / `lan_algos`.
pub struct AlgosRecipe {
    inputs: AlgoInputs,
    sizes: SuiteSizes,
    placement: Placement,
}

/// The `exdra-par` width of `local_algos`: `min(nproc, 4)`, set
/// explicitly and never read from `EXDRA_THREADS`.
pub fn local_par_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

impl AlgosRecipe {
    fn new(seed: u64, smoke: bool, placement: Placement) -> Self {
        let (rows, cols) = if smoke { (2_000, 20) } else { (40_000, 100) };
        Self {
            inputs: AlgoInputs::for_matrix(paper_matrix(rows, cols, sub_seed(seed, 1)), seed),
            sizes: SuiteSizes {
                lm_iters: 10,
                svm_iters: 3,
                mlr_outer: 1,
                mlr_inner: 3,
                kmeans_k: if smoke { 5 } else { 20 },
                kmeans_iters: 2,
                pca_k: 10,
            },
            placement,
        }
    }

    pub fn local(seed: u64, smoke: bool) -> Self {
        Self::new(
            seed,
            smoke,
            Placement::Local {
                par_width: local_par_width(),
            },
        )
    }

    pub fn lan(seed: u64, smoke: bool) -> Self {
        Self::new(seed, smoke, Placement::Lan)
    }
}

impl Recipe for AlgosRecipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
        let (fed, x, par_width) = match self.placement {
            Placement::Local { par_width } => {
                (None, Tensor::Local(self.inputs.x.clone()), par_width)
            }
            Placement::Lan => {
                let fed = Federation::spawn(Link::LanTcp);
                let x = Tensor::Fed(fed.scatter(&self.inputs.x));
                (Some(fed), x, 1)
            }
        };
        let mut w = AlgosWorkload {
            inputs: self.inputs.clone(),
            sizes: self.sizes,
            fed,
            x,
            par_width,
            expected: 0,
        };
        // Warm-up pass, checked against the oracle: the serial local run.
        // `local_algos` must equal it bitwise (the repo's invariant: same
        // bits at every thread count); `lan_algos` sums partitions in a
        // different order and must agree to FED_VS_LOCAL_TOL.
        exdra_par::set_threads(par_width);
        let got = run_suite(&w.x, &w.inputs, &w.sizes, &Algo::ALL, tr)?;
        exdra_par::set_threads(1);
        let local = Tensor::Local(w.inputs.x.clone());
        let want = tr.span("oracle.local_serial", || {
            run_suite(&local, &w.inputs, &w.sizes, &Algo::ALL, &Tracer::new())
        })?;
        exdra_par::set_threads(par_width);
        if w.fed.is_some() {
            check_close("lan_algos", &got, &want)?;
        } else if Checksum::of(&got) != Checksum::of(&want) {
            return Err(format!(
                "local_algos: width-{par_width} outputs are not bitwise equal to the serial run"
            ));
        }
        w.expected = Checksum::of(&got);
        Ok(Box::new(w))
    }
}

struct AlgosWorkload {
    inputs: AlgoInputs,
    sizes: SuiteSizes,
    fed: Option<Federation>,
    x: Tensor,
    par_width: usize,
    expected: u64,
}

impl Workload for AlgosWorkload {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String> {
        let out = run_suite(&self.x, &self.inputs, &self.sizes, &Algo::ALL, tr)?;
        Ok(PassOutput {
            checksum: Checksum::of(&out),
            ..PassOutput::default()
        })
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn counters(&self) -> Counters {
        self.fed
            .as_ref()
            .map(Federation::counters)
            .unwrap_or_default()
    }

    fn probe_layers(&mut self, tr: &Tracer, _stats: &PassStats, out: &mut LayerMetrics) {
        // One worker's share of the kernels: the whole matrix when local,
        // the first row partition when federated.
        let xp = match self.fed {
            Some(_) => first_partition(&self.inputs.x),
            None => self.inputs.x.clone(),
        };
        let mix = suite_kernel_mix(&xp, &self.sizes, &Algo::ALL);
        tr.span("probe.matrix", || probes::kernel_metrics(&mix, out));
        if self.fed.is_none() {
            tr.span("probe.par", || {
                probes::par_metrics(&mix, self.par_width, out)
            });
            exdra_par::set_threads(self.par_width);
        }
        if let Some(fed) = &self.fed {
            tr.span("probe.net.codec", || {
                probes::codec_metrics(&probes::matrix_payloads(&xp), out)
            });
            tr.span("probe.core", || probes::rpc_metrics(fed, "lan", out));
        }
    }

    fn teardown(self: Box<Self>) {
        let Self { fed, x, .. } = *self;
        drop(x);
        if let Some(fed) = fed {
            fed.shutdown();
        }
    }
}
