//! `wan_rounds`: LM-CG, L2SVM, MLogReg on a small X plus the three
//! `plan_opt` lazy plans through `Session::compute`, over links shaped
//! to the paper's WAN (`NetProfile::wan()`: 1.7 MB/s and 20 ms one-way,
//! which the repo's `ShapedChannel` charges once per reply). Round
//! trips, the RPC window and plan fusion decide the time; kernels are a
//! few percent of it, so a kernel or `par` change must not move it.

use exdra::api::{Lazy, Session};
use exdra::core::Tensor;
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;
use exdra::net::sim::NetProfile;

use super::algos::{run_suite, suite_kernel_mix, Algo, SuiteSizes};
use super::{
    check_close, err, first_partition, Counters, Federation, LayerMetrics, Link, PassOutput,
    PassStats, Recipe, Workload, WORKERS,
};
use crate::gen::{paper_matrix, sub_seed, AlgoInputs, Checksum};
use crate::probes;
use crate::trace::Tracer;

const ALGOS: [Algo; 3] = [Algo::LmCg, Algo::L2Svm, Algo::MLogReg];

/// Operands of the three lazy plans besides X.
#[derive(Clone)]
pub struct PlanInputs {
    pub v: DenseMatrix,
    pub w: DenseMatrix,
}

/// The three `plan_opt` plans over a source, one per rewrite family.
pub fn lazy_plans(src: &Lazy, p: &PlanInputs) -> Vec<(&'static str, Lazy)> {
    // LM-CG step t(X) %*% (w * (X %*% v)): three federated rounds that
    // mmchain fusion collapses into one.
    let q = src.matmul(&Lazy::from_local(p.v.clone()));
    let lmcg = src.t_matmul(&q.mul(&Lazy::from_local(p.w.clone())).expect("shapes"));
    // t(Y) %*% Y with Y = X - colMeans(X) built twice: CSE, then tsmm.
    let norm = |s: &Lazy| s.sub(&s.col_means().expect("vector")).expect("shapes");
    let norm_tsmm = norm(src).t_matmul(&norm(src));
    // Four element-wise steps that fold into one federated round.
    let scale_chain = src
        .scalar(BinaryOp::Mul, 2.0, false)
        .scalar(BinaryOp::Add, 1.0, false)
        .unary(UnaryOp::Abs)
        .scalar(BinaryOp::Max, 0.5, false)
        .col_sums()
        .expect("vector");
    vec![
        ("api.compute.lmcg_step", lmcg),
        ("api.compute.norm_tsmm", norm_tsmm),
        ("api.compute.scale_chain", scale_chain),
    ]
}

pub struct WanRecipe {
    inputs: AlgoInputs,
    plans: PlanInputs,
    sizes: SuiteSizes,
    profile: NetProfile,
}

impl WanRecipe {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (rows, cols) = if smoke { (1_000, 10) } else { (10_000, 50) };
        let profile = if smoke {
            NetProfile::wan().scaled(0.05)
        } else {
            NetProfile::wan()
        };
        Self {
            inputs: AlgoInputs::for_matrix(paper_matrix(rows, cols, sub_seed(seed, 1)), seed),
            plans: PlanInputs {
                v: rand_matrix(cols, 1, -1.0, 1.0, sub_seed(seed, 6)),
                w: rand_matrix(rows, 1, 0.0, 1.0, sub_seed(seed, 7)),
            },
            sizes: SuiteSizes {
                lm_iters: 5,
                svm_iters: 2,
                mlr_outer: 1,
                mlr_inner: 2,
                kmeans_k: 0,
                kmeans_iters: 0,
                pca_k: 0,
            },
            profile,
        }
    }
}

impl Recipe for WanRecipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
        let fed = Federation::spawn(Link::WanTcp(self.profile));
        let x = fed.scatter(&self.inputs.x);
        // No supervisor: heartbeats would add messages of their own.
        let session = Session::builder()
            .context(fed.ctx.clone())
            .no_supervision()
            .build()
            .map_err(err)?;
        let plans = lazy_plans(&Lazy::from_fed(x.clone()), &self.plans);
        let mut w = WanWorkload {
            inputs: self.inputs.clone(),
            plan_inputs: self.plans.clone(),
            sizes: self.sizes,
            profile: self.profile,
            fed,
            x: Tensor::Fed(x),
            session,
            plans,
            expected: 0,
        };
        let got = w.outputs(tr)?;
        // Oracle: the same suite and the same plans on the local matrix,
        // plans evaluated raw (no optimizer).
        let want = tr.span("oracle.local", || -> Result<_, String> {
            let local = Tensor::Local(w.inputs.x.clone());
            let mut out = run_suite(&local, &w.inputs, &w.sizes, &ALGOS, &Tracer::new())?;
            for (_, plan) in lazy_plans(&Lazy::from_local(w.inputs.x.clone()), &w.plan_inputs) {
                out.push(plan.compute().map_err(err)?);
            }
            Ok(out)
        })?;
        check_close("wan_rounds", &got, &want)?;
        w.expected = Checksum::of(&got);
        Ok(Box::new(w))
    }
}

struct WanWorkload {
    inputs: AlgoInputs,
    plan_inputs: PlanInputs,
    sizes: SuiteSizes,
    profile: NetProfile,
    fed: Federation,
    x: Tensor,
    session: Session,
    plans: Vec<(&'static str, Lazy)>,
    expected: u64,
}

impl WanWorkload {
    fn outputs(&self, tr: &Tracer) -> Result<Vec<DenseMatrix>, String> {
        let mut out = run_suite(&self.x, &self.inputs, &self.sizes, &ALGOS, tr)?;
        for (phase, plan) in &self.plans {
            out.push(tr.span(phase, || self.session.compute(plan).map_err(err))?);
        }
        Ok(out)
    }
}

impl Workload for WanWorkload {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String> {
        Ok(PassOutput {
            checksum: Checksum::of(&self.outputs(tr)?),
            ..PassOutput::default()
        })
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn counters(&self) -> Counters {
        self.fed.counters()
    }

    fn probe_layers(&mut self, tr: &Tracer, stats: &PassStats, out: &mut LayerMetrics) {
        let xp = first_partition(&self.inputs.x);
        let mix = suite_kernel_mix(&xp, &self.sizes, &ALGOS);
        tr.span("probe.matrix", || probes::kernel_metrics(&mix, out));
        tr.span("probe.net.codec", || {
            probes::codec_metrics(&probes::matrix_payloads(&xp), out)
        });
        tr.span("probe.core", || probes::rpc_metrics(&self.fed, "wan", out));
        tr.span("probe.api", || {
            probes::plan_metrics(&self.plans, &self.fed, out);
        });

        // The link's floor for one pass: every reply pays the one-way
        // latency, and the bytes a worker sends back pay its bandwidth.
        // Both workers' links run in parallel, so each carries 1/WORKERS.
        let c = stats.counters;
        let round_trips = c.messages_received as f64 / WORKERS as f64;
        let floor = round_trips * self.profile.latency().as_secs_f64()
            + c.bytes_received as f64 / WORKERS as f64 / self.profile.bandwidth_bytes_per_sec;
        if stats.p50_s > 0.0 {
            out.insert("wan_floor_share", floor / stats.p50_s);
        }
        println!(
            "    wan floor {:.4} s = {round_trips:.0} round trips x {:.1} ms + {:.0} bytes / {:.2} MB/s; \
             residual {:.4} s of pass_p50 {:.4} s",
            floor,
            self.profile.one_way_latency_ms,
            c.bytes_received as f64 / WORKERS as f64,
            self.profile.bandwidth_bytes_per_sec / 1e6,
            stats.p50_s - floor,
            stats.p50_s,
        );
    }

    fn teardown(self: Box<Self>) {
        let Self {
            fed,
            x,
            session,
            plans,
            ..
        } = *self;
        drop((plans, session, x));
        fed.shutdown();
    }
}
