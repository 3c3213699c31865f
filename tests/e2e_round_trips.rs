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
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
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
fn l2svm_makes_two_rounds_per_iteration() {
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
        // (the matmul itself is deferred), and every iteration but the
        // last one more for the next gradient t(X) out.
        assert_eq!(rounds(&t), 2 * iters as u64);
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

/// `Plan::estimate` against the wire on every instruction row and operand
/// placement it accepts, over row- and column-partitioned `X`: the
/// estimate counts the rounds exactly and, for the rows that ship a
/// local operand (`ba+*`, `t-ba+*`, `mmchain`, `binary`), the bytes.
#[test]
fn estimates_match_the_wire_on_every_row_and_placement() {
    /// Largest relative gap between estimated bytes (8 a cell) and the
    /// bytes on the wire, which add framing, opcodes and ids.
    const BYTES_BOUND: f64 = 0.02;
    let (n, d) = (2_000, 50);
    let (ctx, workers) = mem_federation(WORKERS);
    drop(workers);
    let local = |rows, cols, seed| Lazy::from_local(rand_matrix(rows, cols, -1.0, 1.0, seed));
    let fed = |m: &DenseMatrix, by_rows: bool| {
        let f = if by_rows {
            FedMatrix::scatter_rows(&ctx, m, PrivacyLevel::Public)
        } else {
            FedMatrix::scatter_cols(&ctx, m, PrivacyLevel::Public)
        };
        Lazy::from_fed(f.unwrap())
    };
    let xm = rand_matrix(n, d, -1.0, 1.0, 20);
    let (x, xr, xc) = (
        Lazy::from_local(xm.clone()),
        fed(&xm, true),
        fed(&xm, false),
    );
    let gm = rand_matrix(d, d, -1.0, 1.0, 21);
    let (gr, gc) = (fed(&gm, true), fed(&gm, false));
    // A wide `W`, so that the vectors it ships whole (a row vector, the
    // `v` of an mmchain) are large.
    let wm = rand_matrix(10, 10_000, -1.0, 1.0, 22);
    let (wl, wr) = (Lazy::from_local(wm.clone()), fed(&wm, true));
    let (y, b, bt) = (local(n, d, 23), local(d, d, 24), local(d, n, 25));
    let (row, col, s) = (local(1, d, 26), local(n, 1, 27), local(1, 1, 28));
    let (v, w) = (local(10_000, 1, 29), local(10, 1, 30));
    let add = |a: &Lazy, b: &Lazy| a.binary(BinaryOp::Add, b);
    let sub = |a: &Lazy, b: &Lazy| a.binary(BinaryOp::Sub, b);

    // (what, plan, whether its bytes are held to the bound)
    let mut cases: Vec<(String, Plan, bool)> = Vec::new();
    let mut push = |what: &str, lazy: &Lazy, bytes: bool| {
        cases.push((what.to_string(), Plan::from_lazy(lazy), bytes))
    };
    push("X %*% B", &x.matmul(&b), true);
    push("Xr %*% B", &xr.matmul(&b), true);
    push("Xc %*% B", &xc.matmul(&b), true);
    push("Bt %*% Xr", &bt.matmul(&xr), true);
    push("Bt %*% Xc", &bt.matmul(&xc), true);
    push("Xr %*% Gr", &xr.matmul(&gr), true);
    push("Xr %*% Gc", &xr.matmul(&gc), true);
    push("Xc %*% Gr", &xc.matmul(&gr), true);
    push("Xc %*% Gc", &xc.matmul(&gc), true);
    push("t(Xc) %*% Xr", &xc.t().matmul(&xr), true);
    push("t(Xr) %*% Xc", &xr.t().matmul(&xc), true);
    push("t-ba+*(X, Y)", &x.t_matmul(&y), true);
    push("t-ba+*(Xr, Y)", &xr.t_matmul(&y), true);
    push("t-ba+*(Xc, Y)", &xc.t_matmul(&y), true);
    push("t-ba+*(Y, Xr)", &y.t_matmul(&xr), true);
    push("t-ba+*(Y, Xc)", &y.t_matmul(&xc), true);
    push("t-ba+*(Xr, Xr)", &xr.t_matmul(&xr), true);
    push("t-ba+*(Xr, Xc)", &xr.t_matmul(&xc), true);
    push("t-ba+*(Xc, Xr)", &xc.t_matmul(&xr), true);
    push("X + Y", &add(&x, &y), true);
    push("X - row", &sub(&x, &row), true);
    push("X - col", &sub(&x, &col), true);
    push("X - s", &sub(&x, &s), true);
    push("Wr - row", &sub(&wr, &local(1, 10_000, 31)), true);
    push("Xr + abs(Xr)", &add(&xr, &xr.unary(UnaryOp::Abs)), true);
    push("Xc + abs(Xc)", &add(&xc, &xc.unary(UnaryOp::Abs)), true);
    let by_row_sums = xr.div(&xr.row_sums().unwrap()).unwrap();
    push("Xr / rowSums(Xr)", &by_row_sums, true);
    let by_col_sums = xc.div(&xc.col_sums().unwrap()).unwrap();
    push("Xc / colSums(Xc)", &by_col_sums, true);
    for (f, src) in [("Xr", &xr), ("Xc", &xc)] {
        for (l, other) in [("s", &s), ("row", &row), ("col", &col), ("Y", &y)] {
            push(&format!("{f} - {l}"), &sub(src, other), true);
            // Local on the left: a scalar or `Y` as is, a vector commuted.
            if matches!(l, "s" | "Y") {
                push(&format!("{l} - {f}"), &sub(other, src), true);
            } else {
                push(&format!("{l} + {f}"), &add(other, src), true);
            }
        }
    }
    for (what, src) in [("X", &x), ("Xr", &xr), ("Xc", &xc)] {
        push(
            &format!("2 * {what}"),
            &src.scalar(BinaryOp::Mul, 2.0, true),
            false,
        );
        push(&format!("abs({what})"), &src.unary(UnaryOp::Abs), false);
        push(&format!("replace({what})"), &src.replace(0.0, 1.0), false);
        push(&format!("t({what})"), &src.t(), false);
        for (op, dir) in [
            (AggOp::Sum, AggDir::Full),
            (AggOp::Sum, AggDir::Row),
            (AggOp::Mean, AggDir::Col),
            (AggOp::Sd, AggDir::Col),
            (AggOp::Var, AggDir::Row),
        ] {
            push(&format!("{op:?}/{dir:?}({what})"), &src.agg(op, dir), false);
        }
        if what != "Xc" {
            let abs = src.unary(UnaryOp::Abs);
            push(&format!("softmax({what})"), &src.softmax(), false);
            push(&format!("rowIndexMax({what})"), &src.row_index_max(), false);
            // Rows 500..1500 span both partitions.
            push(
                &format!("{what}[500:1500, 10:40]"),
                &src.index(500, 1_500, 10, 40),
                false,
            );
            push(&format!("rbind({what}, abs)"), &src.rbind(&abs), false);
            push(&format!("cbind({what}, abs)"), &src.cbind(&abs), false);
        }
    }
    push("tsmm(X)", &x.tsmm().unwrap(), false);
    push("tsmm(Xr)", &xr.tsmm().unwrap(), false);
    // The fusion rule is the only way to an `mmchain` row.
    for (what, src) in [("W", &wl), ("Wr", &wr)] {
        let q = src.matmul(&v);
        let chains = [
            (format!("mmchain({what}, v)"), src.t_matmul(&q)),
            (
                format!("mmchain({what}, v, w)"),
                src.t_matmul(&q.mul(&w).unwrap()),
            ),
        ];
        for (name, lazy) in chains {
            let (plan, _) = Optimizer::new().optimize(&Plan::from_lazy(&lazy));
            assert!(plan.render().contains("mmchain"), "{}", plan.render());
            cases.push((name, plan, true));
        }
    }

    let cost = ProfileCostModel::default();
    let mut wrong = Vec::new();
    for (what, plan, bytes_held) in &cases {
        let est = plan.estimate(&cost);
        let (_, t) = traffic(&ctx, || plan.compute().unwrap());
        let wire = t.bytes_sent + t.bytes_received;
        let gap = (est.bytes_moved as f64 - wire as f64).abs() / (wire.max(1) as f64);
        if est.round_trips != rounds(&t) || (*bytes_held && gap > BYTES_BOUND) {
            wrong.push(format!(
                "{what}: estimated {} rounds and {} B, measured {} rounds and {wire} B",
                est.round_trips,
                est.bytes_moved,
                rounds(&t)
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
