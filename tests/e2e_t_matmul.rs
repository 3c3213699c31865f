//! `t(X) %*% Y` on federated data runs as one `t-ba+*` instruction on the
//! partitions as stored (DESIGN.md §4k): no transpose at the sites or at
//! the coordinator, no decompression behind a compacted partition, and
//! exactly the bits of summing `matmul_naive(&transpose(X_i), Y_i)` in
//! partition order — each cell is the same r-ascending chain.
//!
//! The compacted test reads process-global counters; it is the only test
//! in this binary that touches a compressed partition.

use std::time::Duration;

use exdra::core::instruction::Instruction;
use exdra::core::protocol::{CheckpointDelta, Request, Response};
use exdra::core::testutil::mem_federation;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{FedError, FedMatrix, Tensor};
use exdra::matrix::kernels::elementwise::UnaryOp;
use exdra::matrix::kernels::matmul::matmul_naive;
use exdra::matrix::kernels::reorg::{index, transpose};
use exdra::matrix::rng::rand_matrix;
use exdra::net::codec::Wire;
use exdra::{DataValue, DenseMatrix, PrivacyLevel};

const WORKERS: usize = 3;

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// `Σ_i matmul_naive(&transpose(X_i), Y_i)` over the row ranges of
/// `fed`'s partitions, partials added in partition order.
fn partition_sum(fed: &FedMatrix, x: &DenseMatrix, y: &DenseMatrix) -> DenseMatrix {
    let mut acc: Option<DenseMatrix> = None;
    for p in fed.parts() {
        let xi = index(x, p.lo, p.hi, 0, x.cols()).unwrap();
        let yi = index(y, p.lo, p.hi, 0, y.cols()).unwrap();
        let partial = matmul_naive(&transpose(&xi), &yi).unwrap();
        acc = Some(match acc {
            None => partial,
            Some(a) => a.zip(&partial, "+", |u, v| u + v).unwrap(),
        });
    }
    acc.unwrap()
}

#[test]
fn row_partitioned_t_matmul_sums_partition_chains() {
    let (ctx, _workers) = mem_federation(WORKERS);
    let x = rand_matrix(97, 7, -1.0, 1.0, 1);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    for k in [1, 3] {
        let y = rand_matrix(97, k, -1.0, 1.0, 2);
        let got = Tensor::Fed(fed.clone())
            .t_matmul(&Tensor::Local(y.clone()))
            .unwrap();
        assert!(!got.is_fed(), "partials are aggregated at the coordinator");
        let got = got.to_local().unwrap();
        assert_eq!(got.shape(), (7, k));
        assert_eq!(bits(&got), bits(&partition_sum(&fed, &x, &y)));
    }
    // A local left operand is shipped row-sliced, as stored.
    let a = rand_matrix(97, 4, -1.0, 1.0, 3);
    let got = Tensor::Local(a.clone())
        .t_matmul(&Tensor::Fed(fed.clone()))
        .unwrap()
        .to_local()
        .unwrap();
    assert_eq!(bits(&got), bits(&partition_sum(&fed, &a, &x)));
}

#[test]
fn column_partitioned_t_matmul_stays_federated_by_rows() {
    let (ctx, _workers) = mem_federation(WORKERS);
    let x = rand_matrix(40, 11, -1.0, 1.0, 4);
    let y = rand_matrix(40, 3, -1.0, 1.0, 5);
    let fed = FedMatrix::scatter_cols(&ctx, &x, PrivacyLevel::Public).unwrap();
    let got = Tensor::Fed(fed)
        .t_matmul(&Tensor::Local(y.clone()))
        .unwrap();
    assert!(got.is_fed(), "each site owns its rows of t(X) %*% Y");
    let want = matmul_naive(&transpose(&x), &y).unwrap();
    assert_eq!(bits(&got.to_local().unwrap()), bits(&want));
}

#[test]
fn aligned_fed_fed_t_matmul_needs_no_transpose_request() {
    let (ctx, _workers) = mem_federation(WORKERS);
    let x = rand_matrix(61, 6, -1.0, 1.0, 6);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let p = fed.unary(UnaryOp::Sigmoid).unwrap();
    let requests_before = ctx.stats().snapshot();
    let got = Tensor::Fed(p)
        .t_matmul(&Tensor::Fed(fed.clone()))
        .unwrap()
        .to_local()
        .unwrap();
    let pl = exdra::matrix::kernels::elementwise::unary(&x, UnaryOp::Sigmoid);
    assert_eq!(bits(&got), bits(&partition_sum(&fed, &pl, &x)));
    // One round: every worker got one message and answered it.
    let t = ctx.stats().snapshot().delta(&requests_before);
    assert_eq!(t.messages_sent, WORKERS as u64);
}

#[test]
fn compacted_partitions_compute_t_matmul_without_decompressing() {
    let (ctx, workers) = mem_federation(WORKERS);
    // Low-cardinality columns: every partition compacts to column groups.
    let x = rand_matrix(300, 6, 0.0, 8.0, 7).map(f64::floor);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let compacted: usize = workers.iter().map(|w| w.compact(0, Duration::ZERO)).sum();
    assert_eq!(compacted, WORKERS);

    exdra::obs::set_enabled(true);
    let before = exdra::obs::global().snapshot();
    for k in [1, 3] {
        let y = rand_matrix(300, k, -1.0, 1.0, 8);
        let got = Tensor::Fed(fed.clone())
            .t_matmul(&Tensor::Local(y.clone()))
            .unwrap()
            .to_local()
            .unwrap();
        assert_eq!(bits(&got), bits(&partition_sum(&fed, &x, &y)));
    }
    let after = exdra::obs::global().snapshot();
    exdra::obs::set_enabled(false);
    assert_eq!(
        after.counter("compress.exec.fallback"),
        before.counter("compress.exec.fallback"),
        "t(X) %*% y must run on the column groups"
    );
    assert_eq!(
        after.counter("compress.exec.direct") - before.counter("compress.exec.direct"),
        2 * WORKERS as u64
    );
}

#[test]
fn private_aggregate_t_matmul_is_released_only_at_min_group_rows() {
    // Every output cell of t(X_i) %*% Y_i sums over the partition's rows.
    let level = PrivacyLevel::PrivateAggregate { min_group: 5 };
    for (rows, released) in [(4 * WORKERS, false), (5 * WORKERS, true)] {
        let (ctx, _workers) = mem_federation(WORKERS);
        let x = rand_matrix(rows, 9, 0.0, 1.0, 9);
        let y = rand_matrix(rows, 2, 0.0, 1.0, 10);
        let fed = FedMatrix::scatter_rows(&ctx, &x, level).unwrap();
        let got = Tensor::Fed(fed.clone()).t_matmul(&Tensor::Local(y.clone()));
        if released {
            let got = got.unwrap().to_local().unwrap();
            assert_eq!(bits(&got), bits(&partition_sum(&fed, &x, &y)));
        } else {
            assert!(
                matches!(got, Err(FedError::Privacy(_))),
                "{rows} rows over {WORKERS} workers: {got:?}"
            );
        }
    }
}

#[test]
fn t_lhs_batch_replays_on_a_worker_restored_from_its_checkpoint() {
    let x = rand_matrix(50, 4, -1.0, 1.0, 11);
    let y = rand_matrix(50, 2, -1.0, 1.0, 12);
    let batch = || {
        vec![
            Request::ExecInst {
                inst: Instruction::MatMul {
                    lhs: 1,
                    rhs: 2,
                    t_lhs: true,
                    out: 3,
                },
            },
            Request::Get { id: 3 },
        ]
    };
    let fetched = |rs: &[Response]| match &rs[1] {
        Response::Data(DataValue::Matrix(m)) => m.to_dense(),
        other => panic!("expected the product, got {other:?}"),
    };

    let first = Worker::new(WorkerConfig::default());
    first.install_matrix(1, x.clone(), PrivacyLevel::Public, "x");
    first.install_matrix(2, y.clone(), PrivacyLevel::Public, "y");
    let want = fetched(&first.handle_batch(batch()));
    assert_eq!(
        bits(&want),
        bits(&matmul_naive(&transpose(&x), &y).unwrap())
    );

    // The checkpoint travels as bytes, like the batch that follows it.
    let delta = match &first.handle_batch(vec![Request::Checkpoint { since_seq: 0 }])[0] {
        Response::Checkpoint(d) => CheckpointDelta::from_bytes(&d.to_bytes()).unwrap(),
        other => panic!("expected a checkpoint, got {other:?}"),
    };
    let second = Worker::new(WorkerConfig::default());
    let restored = second.handle_batch(vec![Request::Restore {
        entries: delta.entries,
    }]);
    assert_eq!(restored, vec![Response::Ok]);
    let replayed: Vec<Request> = batch()
        .iter()
        .map(|r| Request::from_bytes(&r.to_bytes()).unwrap())
        .collect();
    assert_eq!(bits(&fetched(&second.handle_batch(replayed))), bits(&want));
}
