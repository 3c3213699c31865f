//! Property test for the per-op form rule on compacted partitions
//! (DESIGN.md §4k): contractions, element-wise ops and aggregates run on
//! a partition's column groups; an op without a column-group kernel
//! decompresses the partition for itself and keeps nothing. Random
//! sequences of `X v`, `t(X) Y`, mmchain, tsmm, scalar, unary and
//! column-aggregate ops on a mem federation fetch equal bits under three
//! worker configurations (a cache too small to hold a decompression;
//! reuse off, every instruction executes; the default, with reuse) and
//! on partitions that were never compacted. Workers run their kernels at
//! the process's pool width, so CI's `par-determinism` job repeats this
//! at `EXDRA_THREADS` 1 / 3 / max.

use std::time::Duration;

use exdra::core::testutil::mem_federation_with;
use exdra::core::worker::WorkerConfig;
use exdra::core::{FedMatrix, Tensor};
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::PrivacyLevel;
use proptest::prelude::*;

const WORKERS: usize = 2;
const ROWS: usize = 96;
const COLS: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `X %*% v`.
    MatVec(u64),
    /// `t(X) %*% Y` for a `k`-column Y: `k` chains per column group.
    TMatMul(usize, u64),
    /// `t(X) %*% (w * (X %*% v))`.
    MmChain(u64, bool),
    /// No column-group kernel: the dense fallback.
    Tsmm,
    Scalar(BinaryOp, f64),
    Unary(UnaryOp),
    ColAgg(AggOp),
    /// The workers go idle: compaction sweeps again.
    Idle,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1000).prop_map(Op::MatVec),
        (1usize..9, 0u64..1000).prop_map(|(k, s)| Op::TMatMul(k, s)),
        (0u64..1000, proptest::bool::ANY).prop_map(|(s, w)| Op::MmChain(s, w)),
        (0u64..1000, proptest::bool::ANY).prop_map(|(s, w)| Op::MmChain(s, w)),
        Just(Op::Tsmm),
        (
            prop_oneof![
                Just(BinaryOp::Mul),
                Just(BinaryOp::Add),
                Just(BinaryOp::Max)
            ],
            -2.0f64..2.0
        )
            .prop_map(|(op, v)| Op::Scalar(op, v)),
        prop_oneof![Just(UnaryOp::Abs), Just(UnaryOp::Sigmoid)].prop_map(Op::Unary),
        prop_oneof![Just(AggOp::Sum), Just(AggOp::Var), Just(AggOp::Max)].prop_map(Op::ColAgg),
        Just(Op::Idle),
    ]
}

/// Runs the program on a fresh federation; returns what it fetched and
/// the largest cache footprint any worker reached.
fn run(
    ops: &[Op],
    seed: u64,
    compacted: bool,
    config: fn() -> WorkerConfig,
) -> (Vec<Vec<u64>>, usize) {
    let (ctx, workers) = mem_federation_with(WORKERS, config);
    // Low-cardinality columns: every partition compacts to column groups.
    let x = rand_matrix(ROWS, COLS, 0.0, 4.0, seed).map(f64::floor);
    let x = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    if compacted {
        let n: usize = workers.iter().map(|w| w.compact(0, Duration::ZERO)).sum();
        assert_eq!(n, WORKERS);
    }
    let mut fetched = Vec::new();
    let mut cache_peak = 0;
    let mut fetch = |m: exdra::DenseMatrix| {
        fetched.push(m.values().iter().map(|v| v.to_bits()).collect());
    };
    for op in ops {
        match *op {
            Op::MatVec(s) => {
                let v = Tensor::Local(rand_matrix(COLS, 1, -1.0, 1.0, s));
                fetch(x.matmul(&v).unwrap().to_local().unwrap());
            }
            Op::TMatMul(k, s) => {
                let y = Tensor::Local(rand_matrix(ROWS, k, -1.0, 1.0, s));
                fetch(x.t_matmul(&y).unwrap().to_local().unwrap());
            }
            Op::MmChain(s, weighted) => {
                let v = rand_matrix(COLS, 1, -1.0, 1.0, s);
                let w = weighted.then(|| rand_matrix(ROWS, 1, 0.0, 1.0, s + 1));
                fetch(x.mmchain(&v, w.as_ref()).unwrap());
            }
            Op::Tsmm => fetch(x.tsmm().unwrap()),
            Op::Scalar(op, v) => {
                let y = x.scalar_op(op, v, false).unwrap();
                fetch(y.col_sums().unwrap().to_local().unwrap());
            }
            Op::Unary(op) => {
                let y = x.unary(op).unwrap();
                fetch(y.col_sums().unwrap().to_local().unwrap());
            }
            Op::ColAgg(op) => fetch(x.agg(op, AggDir::Col).unwrap().to_local().unwrap()),
            Op::Idle => {
                for w in &workers {
                    w.compact(0, Duration::ZERO);
                }
            }
        }
        let held = workers.iter().map(|w| w.cache().bytes()).max();
        cache_peak = cache_peak.max(held.unwrap_or(0));
    }
    (fetched, cache_peak)
}

/// A budget smaller than one partition's decompression.
const SMALL_CACHE_BYTES: usize = 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_form_of_a_compacted_partition_answers_with_the_same_bits(
        ops in proptest::collection::vec(op(), 1..20),
        threads in prop_oneof![Just(1usize), Just(3), Just(8)],
        seed in 0u64..1_000_000,
    ) {
        let (dense, small, off, on) = exdra_par::with_threads(threads, || {
            (
                run(&ops, seed, false, WorkerConfig::default),
                run(&ops, seed, true, || WorkerConfig {
                    cache_bytes: SMALL_CACHE_BYTES,
                    ..WorkerConfig::default()
                }),
                run(&ops, seed, true, || WorkerConfig {
                    reuse_enabled: false,
                    ..WorkerConfig::default()
                }),
                run(&ops, seed, true, WorkerConfig::default),
            )
        });
        prop_assert!(small.1 <= SMALL_CACHE_BYTES, "the cache keeps to its budget");
        prop_assert_eq!(&small.0, &dense.0, "column groups vs dense partitions");
        prop_assert_eq!(&off.0, &dense.0, "reuse off");
        prop_assert_eq!(off.1, 0, "reuse off: the cache holds nothing");
        prop_assert_eq!(&on.0, &dense.0, "reuse on");
    }
}
