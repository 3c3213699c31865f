//! Property tests for the plan optimizer's bitwise contract: for random
//! DAGs over local and federated sources, the optimized plan produces
//! results bitwise identical to raw unoptimized [`Lazy::compute`] — the
//! same oracle approach as the `matmul_naive` kernel proptests, with the
//! unfused execution (the plan as written, no rule applied) as the
//! oracle.
//!
//! The generator deliberately builds the shapes the rules rewrite:
//! duplicate independently-built subtrees (CSE), explicit
//! transpose-matmul and the generalized mmchain pattern (fusion), runs
//! of scalar/unary/replace steps over federated data (deferred to the
//! next result-bearing request), at several thread counts.

use exdra_api::{Lazy, Optimizer, Plan};
use exdra_core::testutil::mem_federation;
use exdra_core::{FedMatrix, PrivacyLevel};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::rng::rand_matrix;
use exdra_matrix::DenseMatrix;
use proptest::prelude::*;

fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One element-wise step of the generated chain.
#[derive(Debug, Clone, Copy)]
enum EwStep {
    Scalar(BinaryOp, f64, bool),
    Unary(UnaryOp),
    Replace(f64, f64),
}

fn ew_step() -> impl Strategy<Value = EwStep> {
    prop_oneof![
        (
            prop_oneof![
                Just(BinaryOp::Add),
                Just(BinaryOp::Sub),
                Just(BinaryOp::Mul),
                Just(BinaryOp::Max),
            ],
            -2.0f64..2.0,
            proptest::bool::ANY,
        )
            .prop_map(|(op, v, swap)| EwStep::Scalar(op, v, swap)),
        prop_oneof![
            Just(UnaryOp::Abs),
            Just(UnaryOp::Sigmoid),
            Just(UnaryOp::Round)
        ]
        .prop_map(EwStep::Unary),
        Just(EwStep::Replace(0.0, 1.0)),
    ]
}

fn apply_steps(mut cur: Lazy, steps: &[EwStep]) -> Lazy {
    for s in steps {
        cur = match *s {
            EwStep::Scalar(op, v, swap) => cur.scalar(op, v, swap),
            EwStep::Unary(op) => cur.unary(op),
            EwStep::Replace(p, r) => cur.replace(p, r),
        };
    }
    cur
}

/// The final shape of the generated DAG on top of the chained source.
#[derive(Debug, Clone, Copy)]
enum Finale {
    /// `t(X) %*% X` — the tsmm fusion pattern.
    TsmmPattern,
    /// `t(X) %*% (w * (X %*% v))` — the generalized mmchain pattern.
    MmChainPattern { w_on_left: bool },
    /// `colSums(X)` — federated partial aggregation.
    ColSums,
    /// Consolidate the chain itself.
    Identity,
}

fn finale() -> impl Strategy<Value = Finale> {
    prop_oneof![
        Just(Finale::TsmmPattern),
        proptest::bool::ANY.prop_map(|w_on_left| Finale::MmChainPattern { w_on_left }),
        Just(Finale::ColSums),
        Just(Finale::Identity),
    ]
}

/// Builds the full expression over a source, so the same recipe can be
/// instantiated twice (independently built duplicate subtrees for CSE).
fn build(source: &Lazy, steps: &[EwStep], fin: Finale, cols: usize, seed: u64) -> Lazy {
    let x = apply_steps(source.clone(), steps);
    match fin {
        Finale::TsmmPattern => x.t().matmul(&x),
        Finale::MmChainPattern { w_on_left } => {
            let v = Lazy::from_local(rand_matrix(cols, 1, -1.0, 1.0, seed + 7));
            let rows = 24; // generator-fixed row count
            let w = Lazy::from_local(rand_matrix(rows, 1, 0.0, 1.0, seed + 8));
            let q = x.matmul(&v);
            let prod = if w_on_left {
                w.mul(&q).expect("shapes")
            } else {
                q.mul(&w).expect("shapes")
            };
            x.t().matmul(&prod)
        }
        Finale::ColSums => x.col_sums().expect("shapes"),
        Finale::Identity => x,
    }
}

/// The raw unoptimized result is the oracle; optimized plans (default
/// pipeline AND a disabled optimizer) must match it bitwise.
fn assert_optimized_matches(expr: &Lazy) {
    let want = expr.compute().expect("unoptimized computes");
    let logical = Plan::from_lazy(expr);
    let (optimized, _fires) = Optimizer::new().optimize(&logical);
    let got = optimized.compute().expect("optimized computes");
    assert!(
        same_bits(&want, &got),
        "optimized differs bitwise from unoptimized:\nlogical:\n{}\noptimized:\n{}",
        logical.render(),
        optimized.render()
    );
    let (passthrough, fires) = Optimizer::disabled().optimize(&logical);
    assert!(fires.is_empty());
    let got = passthrough.compute().expect("passthrough computes");
    assert!(
        same_bits(&want, &got),
        "disabled optimizer must be identity"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimized_plans_bitwise_match_unoptimized_local(
        steps in proptest::collection::vec(ew_step(), 0..5),
        fin in finale(),
        duplicate in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let cols = 4usize;
        let x = rand_matrix(24, cols, -1.0, 1.0, seed);
        let source = Lazy::from_local(x.clone());
        let expr = build(&source, &steps, fin, cols, seed);
        let expr = if duplicate {
            // Same recipe built twice from scratch: distinct Arc nodes,
            // equal lineage — the CSE-by-lineage case.
            let source2 = Lazy::from_local(x);
            let twin = build(&source2, &steps, fin, cols, seed);
            expr.add(&twin).expect("shapes")
        } else {
            expr
        };
        assert_optimized_matches(&expr);
    }

    #[test]
    fn optimized_plans_bitwise_match_unoptimized_federated(
        steps in proptest::collection::vec(ew_step(), 0..5),
        fin in finale(),
        threads in prop_oneof![Just(1usize), Just(3), Just(8)],
        seed in 0u64..1_000_000,
    ) {
        let (ctx, _workers) = mem_federation(2);
        let cols = 4usize;
        let x = rand_matrix(24, cols, -1.0, 1.0, seed);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).expect("scatter");
        let source = Lazy::from_fed(fed);
        let expr = build(&source, &steps, fin, cols, seed);
        exdra_par::with_threads(threads, || assert_optimized_matches(&expr));
    }
}
