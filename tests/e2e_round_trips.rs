//! Round-trip pins. On a WAN the round trip, not the kernel, is the cost
//! of a federated iteration (paper §6.2, Fig. 5 Fed-WAN), so the number
//! of request rounds each algorithm and plan makes is part of its
//! contract: one per result the coordinator actually needs. Ops whose
//! output stays federated are deferred and ride with the next fetch
//! (DESIGN.md §4m), and `Plan::estimate` prices exactly that.
//!
//! Counted on in-memory channels through `NetStatsSnapshot::delta`: one
//! round to every worker is `WORKERS` messages each way. Nothing here
//! enables tracing, so reply frames carry no per-request timings and
//! their sizes repeat exactly.

use std::sync::Arc;

use exdra::api::{Lazy, Optimizer, Plan, ProfileCostModel, Session};
use exdra::core::testutil::mem_federation;
use exdra::core::{FedContext, FedMatrix, Tensor};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;
use exdra::ml::{l2svm, lm, mlogreg, synth};
use exdra::net::stats::NetStatsSnapshot;
use exdra::PrivacyLevel;

const WORKERS: usize = 2;

fn federated(x: &DenseMatrix) -> (Arc<FedContext>, Tensor) {
    let (ctx, workers) = mem_federation(WORKERS);
    // The workers live as long as their connection threads; the handles
    // are not needed.
    drop(workers);
    let fed = FedMatrix::scatter_rows(&ctx, x, PrivacyLevel::Public).unwrap();
    (ctx, Tensor::Fed(fed))
}

/// Runs `f` and returns its result with the traffic it caused.
fn traffic<T>(ctx: &FedContext, f: impl FnOnce() -> T) -> (T, NetStatsSnapshot) {
    let before = ctx.stats().snapshot();
    let out = f();
    (out, ctx.stats().snapshot().delta(&before))
}

fn rounds(t: &NetStatsSnapshot) -> u64 {
    assert_eq!(t.messages_sent, t.messages_received);
    assert_eq!(
        t.messages_sent % WORKERS as u64,
        0,
        "every round reaches every worker"
    );
    t.messages_sent / WORKERS as u64
}

#[test]
fn lm_cg_makes_one_round_per_iteration_plus_one() {
    let x = rand_matrix(300, 8, -1.0, 1.0, 1);
    let y = rand_matrix(300, 1, -1.0, 1.0, 2);
    let (ctx, fed) = federated(&x);
    for iters in [1, 5] {
        let params = lm::LmParams {
            max_iter: iters,
            tol: 0.0,
            ..lm::LmParams::default()
        };
        let (model, t) = traffic(&ctx, || lm::lm_cg(&fed, &y, &params).unwrap());
        assert_eq!(model.iterations, iters);
        assert_eq!(
            rounds(&t),
            iters as u64 + 1,
            "t(X) y, then one mmchain each"
        );
    }
}

#[test]
fn l2svm_makes_two_rounds_per_iteration_plus_one() {
    let (x, y) = synth::two_class(300, 6, 0.1, 3);
    let (ctx, fed) = federated(&x);
    for iters in [1, 3] {
        let params = l2svm::L2SvmParams {
            max_iter: iters,
            tol: 0.0,
            ..l2svm::L2SvmParams::default()
        };
        let (model, t) = traffic(&ctx, || l2svm::l2svm(&fed, &y, &params).unwrap());
        assert_eq!(model.iterations, iters);
        // t(X) y up front; per iteration X s comes back with its fetch
        // (the matmul itself is deferred) and t(X) out is one more.
        assert_eq!(rounds(&t), 2 * iters as u64 + 1);
    }
}

fn mlogreg_traffic(
    n: usize,
    outer: usize,
    inner: usize,
) -> (mlogreg::MLogRegModel, NetStatsSnapshot) {
    let (x, y) = synth::multi_class(n, 6, 3, 0.8, 4);
    let (ctx, fed) = federated(&x);
    let params = mlogreg::MLogRegParams {
        max_outer: outer,
        max_inner: inner,
        tol: 0.0,
        ..mlogreg::MLogRegParams::default()
    };
    traffic(&ctx, || mlogreg::mlogreg(&fed, &y, 3, &params).unwrap())
}

#[test]
fn mlogreg_makes_one_round_per_cg_iteration_whatever_the_class_count() {
    for (outer, inner) in [(1, 2), (2, 3)] {
        let (model, t) = mlogreg_traffic(600, outer, inner);
        assert_eq!(model.iterations, outer);
        // Per outer iteration: the gradient t(X) (P - Y), then one
        // weighted mmchain round per CG iteration for all three classes.
        // Probabilities, residuals and Fisher weights never come back.
        assert_eq!(rounds(&t), (outer * (1 + inner)) as u64);
    }
}

#[test]
fn mlogreg_returns_no_object_with_n_rows() {
    let (_, small) = mlogreg_traffic(1_000, 2, 2);
    let (_, large) = mlogreg_traffic(4_000, 2, 2);
    assert_eq!(rounds(&small), rounds(&large));
    assert_eq!(
        small.bytes_received, large.bytes_received,
        "what the coordinator receives depends on d and k only"
    );
    assert!(
        large.bytes_sent > small.bytes_sent,
        "the one-hot labels do go out"
    );
}

/// The three lazy plans of the benchmark's `wan_rounds` workload.
fn wan_plans(src: &Lazy, rows: usize, cols: usize) -> Vec<(&'static str, Lazy)> {
    let v = Lazy::from_local(rand_matrix(cols, 1, -1.0, 1.0, 6));
    let w = Lazy::from_local(rand_matrix(rows, 1, 0.0, 1.0, 7));
    let lmcg = src.t_matmul(&src.matmul(&v).mul(&w).unwrap());
    let norm = |s: &Lazy| s.sub(&s.col_means().unwrap()).unwrap();
    let norm_tsmm = norm(src).t_matmul(&norm(src));
    let scale_chain = src
        .scalar(BinaryOp::Mul, 2.0, false)
        .scalar(BinaryOp::Add, 1.0, false)
        .unary(UnaryOp::Abs)
        .scalar(BinaryOp::Max, 0.5, false)
        .col_sums()
        .unwrap();
    vec![
        ("lmcg_step", lmcg),
        ("norm_tsmm", norm_tsmm),
        ("scale_chain", scale_chain),
    ]
}

/// `Lazy::compute` and the unoptimized `Plan` route issue the same
/// requests in the same order: same rounds, messages and bytes, and the
/// same result bits, on every `wan_rounds` plan.
#[test]
fn lazy_and_plan_evaluation_send_the_same_wire() {
    let (rows, cols) = (400, 10);
    let x = rand_matrix(rows, cols, -1.0, 1.0, 5);
    // One federation per route, so both allocate the same symbol ids.
    let run = |route: fn(&Lazy) -> DenseMatrix| {
        let (ctx, fed) = federated(&x);
        let Tensor::Fed(fed) = fed else {
            unreachable!()
        };
        wan_plans(&Lazy::from_fed(fed), rows, cols)
            .into_iter()
            .map(|(name, lazy)| {
                let (out, t) = traffic(&ctx, || route(&lazy));
                (name, out, t)
            })
            .collect::<Vec<_>>()
    };
    let via_lazy = run(|lazy| lazy.compute().unwrap());
    let via_plan = run(|lazy| Plan::from_lazy(lazy).compute().unwrap());
    let bits = |m: &DenseMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for ((name, a, ta), (_, b, tb)) in via_lazy.iter().zip(&via_plan) {
        assert_eq!(rounds(ta), rounds(tb), "{name}");
        assert_eq!(ta.messages_sent, tb.messages_sent, "{name}");
        assert_eq!(ta.bytes_sent, tb.bytes_sent, "{name}");
        assert_eq!(a.shape(), b.shape(), "{name}");
        assert_eq!(bits(a), bits(b), "{name}");
    }
}

#[test]
fn plans_take_at_most_two_rounds_and_the_estimate_says_so() {
    let (rows, cols) = (400, 10);
    let x = rand_matrix(rows, cols, -1.0, 1.0, 5);
    let (ctx, fed) = federated(&x);
    let Tensor::Fed(fed) = fed else {
        unreachable!()
    };
    let session = Session::builder()
        .context(Arc::clone(&ctx))
        .no_supervision()
        .build()
        .unwrap();
    let cost = ProfileCostModel::default();
    let want = [("lmcg_step", 1), ("norm_tsmm", 2), ("scale_chain", 1)];
    for ((name, lazy), (_, expected)) in wan_plans(&Lazy::from_fed(fed), rows, cols)
        .into_iter()
        .zip(want)
    {
        let logical = Plan::from_lazy(&lazy);
        let (optimized, _) = Optimizer::new().optimize(&logical);
        assert_eq!(optimized.estimate(&cost).round_trips, expected, "{name}");
        let (out, opt) = traffic(&ctx, || session.compute(&lazy).unwrap());
        assert_eq!(rounds(&opt), expected, "{name}");
        // Unfused, the intermediates stay federated and are deferred:
        // the optimizer saves bytes and instructions, not rounds, except
        // where CSE removes a whole result-bearing subtree.
        let raw_rounds = logical.estimate(&cost).round_trips;
        let (raw, t) = traffic(&ctx, || logical.compute().unwrap());
        assert_eq!(rounds(&t), raw_rounds, "{name} unoptimized");
        assert!(raw_rounds >= expected, "{name}");
        assert_eq!(out.values(), raw.values(), "{name}");
        assert!(
            opt.bytes_sent <= t.bytes_sent,
            "{name}: optimizing costs bytes"
        );
        if name == "lmcg_step" {
            // Fusion ships one instruction where the raw plan ships a chain.
            assert!(opt.bytes_sent < t.bytes_sent, "{name}");
            assert!(opt.messages_sent <= t.messages_sent, "{name}");
        }
    }
}
