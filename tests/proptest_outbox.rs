//! Property test for the coordinator's write-behind outbox (DESIGN.md
//! §4m): deferring effect-only requests changes how many envelopes a
//! worker receives, never what it executes. For random sequences of
//! `Tensor` operations on a mem federation, deferred execution and the
//! oracle "flush every worker after every op" (an empty `call` drains an
//! outbox) fetch bitwise-equal results and leave bitwise-equal worker
//! symbol tables, at several thread counts.

use std::sync::Arc;

use exdra::core::testutil::mem_federation;
use exdra::core::worker::Worker;
use exdra::core::{FedContext, FedMatrix, Tensor};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::net::codec::Wire;
use exdra::PrivacyLevel;
use proptest::prelude::*;

const WORKERS: usize = 2;
const ROWS: usize = 24;
const COLS: usize = 4;

/// One step of a generated program over a current federated tensor and
/// a stash of older handles.
#[derive(Debug, Clone, Copy)]
enum Op {
    // Effect-only: the output stays federated, nothing comes back.
    Scalar(BinaryOp, f64, bool),
    Unary(UnaryOp),
    Softmax,
    /// `cur %*% W` with a local `COLS x COLS` W (ships a side input).
    MatMul(u64),
    /// `cur + r` with a local row vector (ships a side input).
    AddRowVector(u64),
    /// `cur * stash[i]`, co-partitioned federated operands.
    MulStashed(usize),
    /// Keeps the current handle alive under another name.
    Stash,
    /// Drops a stashed handle: its rmvars join the outboxes.
    DropStashed(usize),
    // Result-bearing: these carry whatever was deferred.
    Fetch,
    ColSums,
    MmChain(u64),
}

fn op() -> impl Strategy<Value = Op> {
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
            .prop_map(|(op, v, swap)| Op::Scalar(op, v, swap)),
        prop_oneof![Just(UnaryOp::Abs), Just(UnaryOp::Sigmoid)].prop_map(Op::Unary),
        Just(Op::Softmax),
        (0u64..1000).prop_map(Op::MatMul),
        (0u64..1000).prop_map(Op::AddRowVector),
        (0usize..4).prop_map(Op::MulStashed),
        Just(Op::Stash),
        (0usize..4).prop_map(Op::DropStashed),
        Just(Op::Fetch),
        Just(Op::ColSums),
        (0u64..1000).prop_map(Op::MmChain),
    ]
}

/// Every binding of every worker, as wire bytes (bit-exact, NaN-safe).
fn tables(workers: &[Arc<Worker>]) -> Vec<Vec<(u64, Vec<u8>)>> {
    workers
        .iter()
        .map(|w| {
            let (_, entries, _) = w.table().delta_since(0);
            let mut t: Vec<(u64, Vec<u8>)> = entries
                .into_iter()
                .map(|(id, e)| (id, e.value.to_bytes()))
                .collect();
            t.sort();
            t
        })
        .collect()
}

fn flush(ctx: &FedContext) {
    for w in 0..WORKERS {
        ctx.call(w, &[]).expect("flush");
    }
}

/// What a program fetched, and the worker tables while its handles were
/// still alive.
type Outcome = (Vec<Vec<u64>>, Vec<Vec<(u64, Vec<u8>)>>);

/// Runs the program; `eager` flushes every outbox after every op.
fn run(ops: &[Op], seed: u64, eager: bool) -> Outcome {
    let (ctx, workers) = mem_federation(WORKERS);
    let x = rand_matrix(ROWS, COLS, -1.0, 1.0, seed);
    let mut cur = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let mut stash: Vec<Tensor> = Vec::new();
    let mut fetched: Vec<Vec<u64>> = Vec::new();
    let bits = |m: exdra::DenseMatrix| m.values().iter().map(|v| v.to_bits()).collect();
    for op in ops {
        match *op {
            Op::Scalar(op, v, swap) => cur = cur.scalar_op(op, v, swap).unwrap(),
            Op::Unary(op) => cur = cur.unary(op).unwrap(),
            Op::Softmax => cur = cur.softmax().unwrap(),
            Op::MatMul(s) => {
                let w = rand_matrix(COLS, COLS, -1.0, 1.0, s);
                cur = cur.matmul(&Tensor::Local(w)).unwrap();
            }
            Op::AddRowVector(s) => {
                let r = rand_matrix(1, COLS, -1.0, 1.0, s);
                cur = cur.binary(BinaryOp::Add, &Tensor::Local(r)).unwrap();
            }
            Op::MulStashed(i) => {
                if let Some(other) = stash.get(i) {
                    cur = cur.binary(BinaryOp::Mul, other).unwrap();
                }
            }
            Op::Stash => stash.push(cur.clone()),
            Op::DropStashed(i) => {
                if i < stash.len() {
                    stash.remove(i);
                }
            }
            Op::Fetch => fetched.push(bits(cur.to_local().unwrap())),
            Op::ColSums => fetched.push(bits(cur.col_sums().unwrap().to_local().unwrap())),
            Op::MmChain(s) => {
                let v = rand_matrix(COLS, 1, -1.0, 1.0, s);
                fetched.push(bits(cur.mmchain(&v, None).unwrap()));
            }
        }
        if eager {
            flush(&ctx);
        }
    }
    fetched.push(bits(cur.to_local().unwrap()));
    flush(&ctx);
    let live = tables(&workers);
    drop((cur, stash));
    flush(&ctx);
    assert!(
        workers.iter().all(|w| w.table().is_empty()),
        "every handle dropped, every symbol removed"
    );
    (fetched, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn deferred_execution_equals_flush_after_every_op(
        ops in proptest::collection::vec(op(), 0..16),
        threads in prop_oneof![Just(1usize), Just(3)],
        seed in 0u64..1_000_000,
    ) {
        let (deferred, oracle) = exdra_par::with_threads(threads, || {
            (run(&ops, seed, false), run(&ops, seed, true))
        });
        prop_assert_eq!(&deferred.0, &oracle.0, "fetched results differ");
        prop_assert_eq!(&deferred.1, &oracle.1, "final symbol tables differ");
    }
}
