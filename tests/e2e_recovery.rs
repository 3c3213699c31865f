//! End-to-end self-healing scenarios: a real TCP worker killed mid-run is
//! restored from its background checkpoint onto a replacement channel with
//! bitwise-identical results, and checkpoint round-trips preserve every
//! [`DataValue`] variant (property-tested).
//!
//! The tracing flag, metrics registry, and span collector are process
//! globals, so the observability-asserting tests serialize on one gate
//! and reset the layer while holding it (same pattern as `e2e_obs.rs`).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use exdra::core::protocol::{Request, Response};
use exdra::core::supervision::{HealthState, Supervisor};
use exdra::core::testutil::{mem_federation, tcp_federation};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::DataValue;
use exdra::matrix::compress::CompressedMatrix;
use exdra::matrix::frame::FrameColumn;
use exdra::matrix::rng::rand_matrix;
use exdra::net::codec::Wire;
use exdra::net::transport::{Channel, TcpChannel};
use exdra::obs::{RunReport, SpanKind};
use exdra::transform::encoders::PartialColumnMeta;
use exdra::transform::{ColumnMeta, ColumnSpec, EncodeKind, PartialMeta, TransformMeta};
use exdra::{DenseMatrix, Frame, Matrix, PrivacyLevel, Session, SupervisionPolicy};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

static GATE: Mutex<()> = Mutex::new(());

/// Claims the global observability layer for one test: waits out any
/// concurrently running obs test, clears spans + metrics, enables tracing.
fn obs_test() -> MutexGuard<'static, ()> {
    let g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    exdra::obs::reset();
    exdra::obs::set_enabled(true);
    g
}

/// The tentpole acceptance arc over the production transport: a session
/// with background supervision scatters data over real loopback TCP, one
/// worker process dies mid-run, and the next computation completes with
/// bitwise-identical results because the supervisor restored the dead
/// worker's variable environment from its latest checkpoint onto a
/// replacement TCP channel. The run profile records the recovery.
#[test]
fn tcp_worker_killed_mid_run_recovers_from_checkpoint() {
    let _g = obs_test();
    let (ctx, workers) = tcp_federation(2);
    let policy = SupervisionPolicy {
        heartbeat_interval: Duration::from_millis(30),
        checkpoint_interval: Some(Duration::from_millis(40)),
    };
    let sds = Session::builder()
        .context(Arc::clone(&ctx))
        .supervision(policy)
        .build()
        .unwrap();

    let m = rand_matrix(60, 5, -1.0, 1.0, 17);
    let fed = sds.federated(&m).unwrap();
    let plan = fed.tsmm().unwrap();
    let expected = sds.compute(&plan).unwrap();

    // Wait for a background checkpoint of the scattered partitions —
    // sweep-gated barrier, not a wall-clock poll, so the test holds up
    // under load.
    let sup = sds.supervisor().unwrap();
    assert!(
        sup.wait_until(Duration::from_secs(5), || sup.checkpoint_store().has(0)),
        "background checkpoint landed"
    );

    // Stand in for a restarted worker process: a fresh, empty worker
    // behind a fresh loopback TCP socket; the reconnector dials it.
    let replacement = Worker::new(WorkerConfig::default());
    let addr = replacement.serve_tcp("127.0.0.1:0").unwrap();
    sup.set_reconnector(Box::new(move |_w| {
        TcpChannel::connect(addr)
            .ok()
            .map(|c| Box::new(c) as Box<dyn Channel>)
    }));

    // Kill worker 0 mid-run, then recompute the same plan.
    workers[0].shutdown();
    let after = sds.compute(&plan).unwrap();
    assert_eq!(
        expected.values(),
        after.values(),
        "recovered computation is bitwise identical"
    );

    // The replacement worker really holds the restored partition, and the
    // transport layer counted the channel re-establishment.
    assert!(
        !replacement.table().is_empty(),
        "checkpointed state restored onto the replacement worker"
    );
    assert!(ctx.stats().recoveries() >= 1, "NetStats counted recovery");
    assert!(
        replacement.epoch() > workers[0].epoch(),
        "restart = new epoch"
    );

    // The run profile shows the self-healing work: recovery.restore spans
    // and checkpoint/recovery metrics.
    exdra::obs::set_enabled(false);
    let spans = exdra::obs::take_spans();
    let restore: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "recovery.restore")
        .collect();
    assert!(!restore.is_empty(), "recovery.restore span recorded");
    assert!(
        restore.iter().all(|s| s.kind == SpanKind::Recovery),
        "restore spans carry the recovery kind"
    );
    assert!(
        spans.iter().any(|s| s.name == "recovery.checkpoint"),
        "background checkpoint spans recorded"
    );

    let report = RunReport::from_global();
    let rec = report
        .recovery
        .expect("RunReport surfaces a recovery summary");
    assert!(rec.recovered >= 1, "one worker recovered: {rec:?}");
    assert!(rec.restores >= 1, "restored from checkpoint: {rec:?}");
    assert!(rec.restored_entries >= 1, "entries shipped back: {rec:?}");
    assert!(rec.checkpoint_deltas >= 1, "checkpoints taken: {rec:?}");
    assert!(
        rec.checkpoint_bytes >= 1,
        "checkpoint bytes counted: {rec:?}"
    );
    let json = report.to_json();
    assert!(json.contains("\"recovery\""), "recovery summary in JSON");
}

/// A worker dies while the coordinator still holds deferred requests for
/// it (effect-only ops waiting in its outbox for the next result-bearing
/// exchange). The exchange that carries them fails like an eager op would
/// have, what was queued for the dead incarnation is dropped (its rmvars
/// aside), and the session's recovery retry recomputes the plan from its
/// source symbols on the restored worker, bit for bit.
#[test]
fn worker_killed_with_a_non_empty_outbox_recovers_bitwise() {
    use exdra::core::{FedMatrix, Tensor};
    use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
    use exdra::Lazy;

    let (ctx, workers) = mem_federation(2);
    let policy = SupervisionPolicy {
        heartbeat_interval: Duration::from_millis(30),
        checkpoint_interval: Some(Duration::from_millis(40)),
    };
    let sds = Session::builder()
        .context(Arc::clone(&ctx))
        .supervision(policy)
        .build()
        .unwrap();
    let m = rand_matrix(60, 5, -1.0, 1.0, 23);
    let fed = FedMatrix::scatter_rows(&ctx, &m, PrivacyLevel::Public).unwrap();
    // Three deferred element-wise steps, then a fetch that carries them.
    let plan = Lazy::from_fed(fed.clone())
        .scalar(BinaryOp::Mul, 2.0, false)
        .unary(UnaryOp::Abs)
        .scalar(BinaryOp::Add, 1.0, false)
        .col_sums()
        .unwrap();
    let expected = sds.compute(&plan).unwrap();

    let sup = sds.supervisor().unwrap();
    assert!(
        sup.wait_until(Duration::from_secs(5), || sup.checkpoint_store().has(0)),
        "background checkpoint landed"
    );
    let replacement = Worker::new(WorkerConfig::default());
    let r2 = Arc::clone(&replacement);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
    }));

    // Leave work in both outboxes: an op whose output stays federated is
    // not sent, and heartbeats and checkpoints never carry it.
    let pending = fed.unary(UnaryOp::Sigmoid).unwrap();
    let on_live_worker = pending.parts()[1].id;
    assert!(!workers[1].table().contains(on_live_worker), "still queued");
    workers[0].shutdown();
    let after = sds.compute(&plan).unwrap();
    assert_eq!(
        expected.values(),
        after.values(),
        "recovered computation is bitwise identical"
    );
    assert!(ctx.stats().recoveries() >= 1, "NetStats counted recovery");
    assert!(!replacement.table().is_empty(), "sources were restored");
    // The live worker ran its half when the compute carried it; the half
    // queued for the dead incarnation died with it, exactly as if it had
    // been sent eagerly and lost.
    assert!(workers[1].table().contains(on_live_worker));
    assert!(Tensor::Fed(pending).to_local().is_err());
}

/// The whole arc on an endpoint-less federation, driven by hand: kill,
/// the failing call, `notify_worker_dead`, restore, the retried op. The
/// closed channel has nothing behind it to redial, so its first error is
/// the verdict: not one retry is spent on it anywhere along the way.
#[test]
fn a_killed_mem_worker_is_reported_and_restored_without_a_retry() {
    use exdra::core::{FedError, FedMatrix};

    let (ctx, workers) = mem_federation(2);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    let m = rand_matrix(60, 5, -1.0, 1.0, 29);
    let fed = FedMatrix::scatter_rows(&ctx, &m, PrivacyLevel::Public).unwrap();
    let expected = fed.tsmm().unwrap();
    assert_eq!(sup.checkpoint_once(), vec![0, 1]);

    let replacement = Worker::new(WorkerConfig::default());
    let r2 = Arc::clone(&replacement);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
    }));
    workers[1].shutdown();
    let err = fed.tsmm().unwrap_err();
    assert!(
        matches!(err, FedError::WorkerDead { worker: 1, .. }),
        "{err}"
    );
    sup.notify_worker_dead(1);
    sup.wait_recoveries();
    assert_eq!(sup.detector().state(1), HealthState::Healthy);
    let after = fed.tsmm().unwrap();
    assert_eq!(
        expected.values(),
        after.values(),
        "the retried op is bitwise the fault-free result"
    );
    assert_eq!(
        ctx.stats().retries(),
        0,
        "nothing slept on the dead channel"
    );
    assert_eq!(ctx.stats().recoveries(), 1);
}

/// A dense twin is a worker's private, re-derivable form of a compacted
/// entry: it is in no checkpoint (a checkpoint carries the logical value,
/// as it travels on the wire). A worker killed while it holds one is
/// restored dense with an empty cache; once its idle sweep has compacted
/// the entry again it answers with the same bits from the column groups
/// and earns the twin back.
#[test]
fn worker_killed_holding_a_dense_twin_recovers_bitwise_without_it() {
    use exdra::core::lineage::twin_of;
    use exdra::core::FedMatrix;
    use exdra::Lazy;

    let (ctx, workers) = mem_federation(2);
    let m = rand_matrix(200, 5, 0.0, 4.0, 29).map(f64::floor);
    let fed = FedMatrix::scatter_rows(&ctx, &m, PrivacyLevel::Public).unwrap();
    let compacted: usize = workers.iter().map(|w| w.compact(0, Duration::ZERO)).sum();
    assert_eq!(compacted, 2);
    let policy = SupervisionPolicy {
        heartbeat_interval: Duration::from_millis(30),
        checkpoint_interval: Some(Duration::from_millis(40)),
    };
    let sds = Session::builder()
        .context(Arc::clone(&ctx))
        .supervision(policy)
        .build()
        .unwrap();
    let x = Lazy::from_fed(fed.clone());
    let v = Lazy::from_local(rand_matrix(5, 1, -1.0, 1.0, 30));
    // tsmm has no column-group kernel: its decompression stays as the twin.
    let gram = x.tsmm().unwrap();
    let chain = x.t_matmul(&x.matmul(&v));
    let expected = (sds.compute(&gram).unwrap(), sds.compute(&chain).unwrap());
    // (partition 0 is compressed, its twin is held)
    let forms = |w: &Worker| {
        let e = w.table().get(fed.parts()[0].id).unwrap();
        (
            e.value.as_matrix().unwrap().repr_name() == "compressed",
            w.cache().twin(twin_of(e.meta.lineage)).is_some(),
        )
    };
    assert_eq!(forms(&workers[0]), (true, true));

    let sup = sds.supervisor().unwrap();
    assert!(
        sup.wait_until(Duration::from_secs(5), || sup.checkpoint_store().has(0)),
        "background checkpoint landed"
    );
    let replacement = Worker::new(WorkerConfig::default());
    let r2 = Arc::clone(&replacement);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
    }));
    workers[0].shutdown();

    let chain_after = sds.compute(&chain).unwrap();
    assert!(ctx.stats().recoveries() >= 1, "NetStats counted recovery");
    assert_eq!(forms(&replacement), (false, false), "restored dense");
    assert!(replacement.compact(0, Duration::ZERO) >= 1);
    // Two cell-passes: below break-even, on the column groups.
    assert_eq!(expected.1.values(), sds.compute(&chain).unwrap().values());
    assert_eq!(forms(&replacement), (true, false));
    let gram_after = sds.compute(&gram).unwrap();
    assert_eq!(forms(&replacement), (true, true), "the twin is back");
    assert_eq!(expected.0.values(), gram_after.values());
    assert_eq!(expected.1.values(), chain_after.values());
}

/// An arbitrary dense matrix of proptest-chosen shape and content.
fn arb_dense(max_dim: usize) -> BoxedStrategy<DenseMatrix> {
    (1..=max_dim, 1..=max_dim)
        .prop_flat_map(|(r, c)| {
            proptest::collection::vec(-100.0f64..100.0, r * c)
                .prop_map(move |data| DenseMatrix::new(r, c, data).unwrap())
        })
        .boxed()
}

/// An arbitrary raw frame exercising all four column types with missing
/// cells in the categorical and integer columns.
fn arb_frame(max_rows: usize) -> BoxedStrategy<Frame> {
    (1..=max_rows)
        .prop_flat_map(|rows| {
            let cats = proptest::collection::vec(proptest::option::weighted(0.85, 0u8..5), rows);
            let nums = proptest::collection::vec(-50.0f64..50.0, rows);
            let ints =
                proptest::collection::vec(proptest::option::weighted(0.9, -1000i64..1000), rows);
            let bools = proptest::collection::vec(0..2u8, rows);
            (cats, nums, ints, bools).prop_map(|(cats, nums, ints, bools)| {
                Frame::new(vec![
                    (
                        "cat".into(),
                        FrameColumn::Str(
                            cats.into_iter()
                                .map(|c| c.map(|v| format!("c{v}")))
                                .collect(),
                        ),
                    ),
                    (
                        "num".into(),
                        FrameColumn::F64(nums.into_iter().map(Some).collect()),
                    ),
                    ("cnt".into(), FrameColumn::from(ints)),
                    (
                        "flag".into(),
                        FrameColumn::Bool(bools.into_iter().map(|b| Some(b == 1)).collect()),
                    ),
                ])
                .unwrap()
            })
        })
        .boxed()
}

/// Consolidated transform metadata covering all four [`ColumnMeta`] kinds.
fn arb_transform_meta() -> BoxedStrategy<DataValue> {
    (1..5usize, 2..6usize)
        .prop_map(|(ncodes, bins)| {
            DataValue::TransformMeta(TransformMeta {
                columns: vec![
                    (
                        ColumnSpec {
                            name: "cat".into(),
                            kind: EncodeKind::Recode,
                            one_hot: true,
                        },
                        ColumnMeta::Recode {
                            codes: (0..ncodes).map(|i| format!("c{i}")).collect(),
                        },
                    ),
                    (
                        ColumnSpec {
                            name: "num".into(),
                            kind: EncodeKind::Bin { num_bins: bins },
                            one_hot: false,
                        },
                        ColumnMeta::Bin {
                            min: -1.0,
                            max: 1.0,
                            num_bins: bins,
                        },
                    ),
                    (
                        ColumnSpec {
                            name: "raw".into(),
                            kind: EncodeKind::PassThrough,
                            one_hot: false,
                        },
                        ColumnMeta::PassThrough,
                    ),
                    (
                        ColumnSpec {
                            name: "h".into(),
                            kind: EncodeKind::Hash { num_features: 16 },
                            one_hot: false,
                        },
                        ColumnMeta::Hash { num_features: 16 },
                    ),
                ],
            })
        })
        .boxed()
}

/// Site-local transform metadata covering all four [`PartialColumnMeta`]
/// kinds.
fn arb_partial_meta() -> BoxedStrategy<DataValue> {
    (1..40usize, -10.0f64..0.0, 0.0f64..10.0, 1..4usize)
        .prop_map(|(rows, min, max, ndistinct)| {
            DataValue::PartialMeta(PartialMeta {
                columns: vec![
                    PartialColumnMeta::PassThrough,
                    PartialColumnMeta::Recode {
                        distincts: (0..ndistinct).map(|i| format!("d{i}")).collect(),
                    },
                    PartialColumnMeta::Bin { min, max },
                    PartialColumnMeta::Hash,
                ],
                rows,
            })
        })
        .boxed()
}

/// Any [`DataValue`] variant: dense / compressed matrices, frames,
/// scalars, both transform-metadata kinds, and nested lists.
fn arb_value() -> BoxedStrategy<DataValue> {
    (0..7u8)
        .prop_flat_map(|variant| match variant {
            0 => arb_dense(6)
                .prop_map(|d| DataValue::Matrix(Matrix::Dense(d)))
                .boxed(),
            1 => arb_dense(5)
                .prop_map(|d| DataValue::Matrix(Matrix::Compressed(CompressedMatrix::compress(&d))))
                .boxed(),
            2 => arb_frame(12).prop_map(DataValue::Frame).boxed(),
            3 => (-1e6f64..1e6).prop_map(DataValue::Scalar).boxed(),
            4 => arb_transform_meta(),
            5 => arb_partial_meta(),
            _ => (
                arb_dense(3),
                proptest::collection::vec(-10.0f64..10.0, 1..4),
            )
                .prop_map(|(d, vs)| {
                    let mut items: Vec<DataValue> = vs.into_iter().map(DataValue::Scalar).collect();
                    items.push(DataValue::Matrix(Matrix::Dense(d)));
                    DataValue::List(items)
                })
                .boxed(),
        })
        .boxed()
}

/// Compressed intermediates are a worker-local storage optimization and
/// travel decompressed (see the `Matrix` wire codec), so a checkpointed
/// compressed matrix is restored as the numerically identical dense form.
fn wire_canonical(v: &DataValue) -> DataValue {
    match v {
        DataValue::Matrix(Matrix::Compressed(c)) => {
            DataValue::Matrix(Matrix::Dense(c.decompress()))
        }
        DataValue::List(items) => DataValue::List(items.iter().map(wire_canonical).collect()),
        other => other.clone(),
    }
}

/// Any privacy constraint.
fn arb_privacy() -> BoxedStrategy<PrivacyLevel> {
    (0..3u8, 2..20usize)
        .prop_map(|(v, min_group)| match v {
            0 => PrivacyLevel::Public,
            1 => PrivacyLevel::Private,
            _ => PrivacyLevel::PrivateAggregate { min_group },
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CHECKPOINT → (wire) → RESTORE is the identity on the variable
    /// environment for every value variant and privacy constraint: the
    /// restored entry on a second worker matches the original value,
    /// privacy level, releasability, and lineage tag bit-for-bit.
    #[test]
    fn checkpoint_round_trip_preserves_every_value_variant(
        value in arb_value(),
        privacy in arb_privacy(),
        releasable in 0..2u8,
        lineage in any::<u64>(),
    ) {
        let (ctx, workers) = mem_federation(2);
        let releasable = releasable == 1;
        workers[0]
            .table()
            .bind(41, Arc::new(value.clone()), privacy, releasable, lineage);

        // Take a full checkpoint over the real protocol.
        let rs = ctx.call(0, &[Request::Checkpoint { since_seq: 0 }]).unwrap();
        let delta = match rs.into_iter().next().unwrap() {
            Response::Checkpoint(d) => d,
            other => panic!("expected checkpoint delta, got {other:?}"),
        };
        prop_assert_eq!(delta.entries.len(), 1);

        // The RESTORE request survives an explicit wire round-trip.
        let bytes = vec![Request::Restore { entries: delta.entries.clone() }].to_bytes();
        let decoded = Vec::<Request>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), 1);

        // Restore onto the second (empty) worker and compare the binding.
        ctx.call(1, &[Request::Restore { entries: delta.entries }]).unwrap();
        let entry = workers[1].table().get(41).unwrap();
        prop_assert!(*entry.value == wire_canonical(&value), "restored value differs");
        prop_assert_eq!(entry.meta.privacy, privacy);
        prop_assert_eq!(entry.meta.releasable, releasable);
        prop_assert_eq!(entry.meta.lineage, lineage);
    }
}
