//! End-to-end privacy semantics over real TCP federations: the paper's
//! §2.3 spectrum — aggregates-only release, encrypted channels, and
//! differential privacy — enforced by the standing workers.

use exdra::core::coordinator::WorkerEndpoint;
use exdra::core::fed::prep::FedFrame;
use exdra::core::fed::FedMatrix;
use exdra::core::testutil::{tcp_federation, tcp_federation_with};
use exdra::core::worker::WorkerConfig;
use exdra::core::{PrivacyLevel, RuntimeError, Tensor};
use exdra::matrix::frame::{Frame, FrameColumn};
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::rng::rand_matrix;
use exdra::net::crypto::ChannelKey;
use exdra::transform::encoders::{ColumnMeta, ColumnSpec, EncodeKind, TransformSpec};

#[test]
fn raw_transfer_denied_aggregates_released() {
    let (ctx, _w) = tcp_federation(2);
    let x = rand_matrix(200, 30, 0.0, 1.0, 1);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 20 })
        .unwrap();
    // Raw consolidation: denied.
    assert!(matches!(fed.consolidate(), Err(RuntimeError::Privacy(_))));
    // Column means over 100-row partitions: released and correct.
    let mu = Tensor::Fed(fed.clone())
        .agg(AggOp::Mean, AggDir::Col)
        .unwrap()
        .to_local()
        .unwrap();
    let want = exdra::matrix::kernels::aggregates::aggregate(&x, AggOp::Mean, AggDir::Col).unwrap();
    assert!(mu.max_abs_diff(&want) < 1e-10);
}

#[test]
fn strictly_private_data_never_leaves() {
    let (ctx, _w) = tcp_federation(2);
    let x = rand_matrix(100, 10, 0.0, 1.0, 2);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Private).unwrap();
    let t = Tensor::Fed(fed);
    // Neither raw data nor any aggregate may be released.
    assert!(matches!(t.to_local(), Err(RuntimeError::Privacy(_))));
    assert!(matches!(t.sum(), Err(RuntimeError::Privacy(_))));
    // Cross-partition aggregation already fails at the partial GETs.
    assert!(matches!(
        t.agg(AggOp::Mean, AggDir::Col),
        Err(RuntimeError::Privacy(_))
    ));
}

#[test]
fn min_group_threshold_is_enforced_per_partition() {
    // 30 rows over 3 workers = 10 rows/partition. min_group 15 blocks the
    // per-partition partials even though the global count (30) exceeds it.
    let (ctx, _w) = tcp_federation(3);
    let x = rand_matrix(30, 4, 0.0, 1.0, 3);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 15 })
        .unwrap();
    assert!(matches!(
        Tensor::Fed(fed).agg(AggOp::Sum, AggDir::Col),
        Err(RuntimeError::Privacy(_))
    ));
    // With min_group 8 the same query passes.
    let fed =
        FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 8 }).unwrap();
    assert!(Tensor::Fed(fed).agg(AggOp::Sum, AggDir::Col).is_ok());
}

#[test]
fn derived_federated_data_inherits_constraints() {
    let (ctx, _w) = tcp_federation(2);
    let x = rand_matrix(100, 12, 0.0, 1.0, 4);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 10 })
        .unwrap();
    // A derived element-wise result is still private raw data.
    let sq = Tensor::Fed(fed)
        .unary(exdra::matrix::kernels::elementwise::UnaryOp::Square)
        .unwrap();
    assert!(matches!(sq.to_local(), Err(RuntimeError::Privacy(_))));
    // But its aggregate is releasable.
    assert!(sq.sum().is_ok());
}

#[test]
fn a_category_smaller_than_min_group_never_leaves_its_site() {
    // One "alice" among 12 rows: a site that releases only groups of 10
    // keeps her count, so mode imputation has no category to choose.
    let (ctx, _w) = tcp_federation(1);
    let cells: Vec<Option<&str>> = (0..12).map(|r| (r == 5).then_some("alice")).collect();
    let frame = Frame::new(vec![("name".into(), FrameColumn::from(cells))]).unwrap();
    let privacy = PrivacyLevel::PrivateAggregate { min_group: 10 };
    let fed = FedFrame::from_site_frames(&ctx, &[frame], privacy).unwrap();
    match fed.impute_mode("name") {
        Ok((_, mode)) => panic!("the mode '{mode}' left a site"),
        Err(e) => {
            assert!(!e.to_string().contains("alice"), "{e}");
            assert!(matches!(e, RuntimeError::Invalid(_)), "{e}");
        }
    }
}

#[test]
fn a_recode_token_smaller_than_min_group_never_leaves_its_site() {
    // "bob" appears once, at a site that releases only groups of 3: he is
    // not in the merged metadata, and his row encodes as unknown.
    let (ctx, _w) = tcp_federation(2);
    let site = |cells: &[&str]| {
        let cells: Vec<Option<&str>> = cells.iter().map(|c| Some(*c)).collect();
        Frame::new(vec![("name".into(), FrameColumn::from(cells))]).unwrap()
    };
    let frames = [
        site(&["ann", "bob", "ann", "ann"]),
        site(&["ann", "cid", "cid", "ann", "cid", "ann"]),
    ];
    let privacy = PrivacyLevel::PrivateAggregate { min_group: 3 };
    let fed = FedFrame::from_site_frames(&ctx, &frames, privacy).unwrap();
    let spec = TransformSpec {
        columns: vec![ColumnSpec {
            name: "name".into(),
            kind: EncodeKind::Recode,
            one_hot: true,
        }],
    };
    let (x, meta) = fed.transform_encode(&spec).unwrap();
    let codes = ColumnMeta::Recode {
        codes: vec!["ann".into(), "cid".into()],
    };
    assert_eq!(meta.columns, [(spec.columns[0].clone(), codes)]);
    // Column sums over 4 and 6 rows may leave: bob's one-hot row is zero.
    let counts = Tensor::Fed(x)
        .agg(AggOp::Sum, AggDir::Col)
        .unwrap()
        .to_local()
        .unwrap();
    assert_eq!(counts.values(), [6.0, 3.0]);
}

#[test]
fn laplace_mechanism_on_released_aggregates() {
    let (ctx, _w) = tcp_federation(2);
    let x = rand_matrix(500, 6, 0.0, 1.0, 5);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 50 })
        .unwrap();
    let sums = Tensor::Fed(fed)
        .agg(AggOp::Sum, AggDir::Col)
        .unwrap()
        .to_local()
        .unwrap();
    let noisy = exdra::core::privacy::laplace_mechanism(&sums, 1.0, 1.0, 7);
    let max_noise = noisy.max_abs_diff(&sums);
    assert!(max_noise > 0.0, "noise must be added");
    assert!(max_noise < 25.0, "noise scale 1/eps=1 should stay moderate");
}

#[test]
fn encrypted_federation_end_to_end() {
    // Full algorithm over encrypted TCP channels (the Figure 6 "SSL"
    // configuration), verified against plaintext execution.
    let key = ChannelKey::from_passphrase("e2e-privacy-test");
    let (ctx, _w) = tcp_federation_with(
        2,
        move || WorkerConfig {
            channel_key: Some(key),
            ..WorkerConfig::default()
        },
        move |addr| WorkerEndpoint::tcp_with(addr, exdra::net::sim::NetProfile::lan(), Some(key)),
    );
    let (x, y, _) = exdra::ml::synth::regression(300, 8, 0.1, 6);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let params = exdra::ml::lm::LmParams::default();
    let enc_model = exdra::ml::lm::lm(&Tensor::Fed(fed), &y, &params).unwrap();
    let plain_model = exdra::ml::lm::lm(&Tensor::Local(x), &y, &params).unwrap();
    assert!(enc_model.weights.max_abs_diff(&plain_model.weights) < 1e-9);
}

#[test]
fn wrong_key_cannot_join_federation() {
    let good = ChannelKey::from_passphrase("right");
    let bad = ChannelKey::from_passphrase("wrong");
    let worker = exdra::core::worker::Worker::new(WorkerConfig {
        channel_key: Some(good),
        ..WorkerConfig::default()
    });
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    let ctx = exdra::FedContext::connect(&[WorkerEndpoint::tcp_with(
        addr.to_string(),
        exdra::net::sim::NetProfile::lan(),
        Some(bad),
    )])
    .unwrap();
    let x = rand_matrix(10, 2, 0.0, 1.0, 7);
    // The first RPC fails authentication (either direction).
    assert!(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).is_err());
}
