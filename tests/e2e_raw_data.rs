//! The full raw-data story (paper §1/§4.4): heterogeneous CSV files live
//! at the federated sites; workers READ them on demand (schema inference
//! included), the pipeline encodes and trains federated — the coordinator
//! never sees a raw file.

use exdra::core::coordinator::WorkerEndpoint;
use exdra::core::fed::prep::FedFrame;
use exdra::core::protocol::ReadFormat;
use exdra::core::testutil::tcp_federation_with;
use exdra::core::worker::WorkerConfig;
use exdra::core::{PrivacyLevel, Tensor};
use exdra::matrix::io::write_frame_csv;
use exdra::ml::synth;
use exdra::transform::TransformSpec;

fn site_dirs(tag: &str, frames: &[exdra::Frame]) -> Vec<std::path::PathBuf> {
    let root = std::env::temp_dir().join(format!("exdra-raw-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let dir = root.join(format!("site{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            write_frame_csv(f, &dir.join("raw.csv")).unwrap();
            dir
        })
        .collect()
}

#[test]
fn raw_csv_to_federated_model() {
    // Per-site raw frames with categoricals, numerics, and missing cells.
    let frames: Vec<exdra::Frame> = (0..2)
        .map(|s| synth::paper_production_frame(250, 1, 5, 4, 0.05, 300 + s).0)
        .collect();
    let dirs = site_dirs("model", &frames);
    let mut it = dirs.into_iter();
    let (ctx, _workers) = tcp_federation_with(
        2,
        move || WorkerConfig {
            data_dir: it.next().unwrap(),
            ..WorkerConfig::default()
        },
        WorkerEndpoint::tcp,
    );

    // READ with schema inference at the sites (FrameCsvInfer): the
    // coordinator supplies only the file name and expected row count.
    let fed_frame = FedFrame::read_row_partitioned(
        &ctx,
        &[
            ("raw.csv".into(), ReadFormat::FrameCsvInfer, 250),
            ("raw.csv".into(), ReadFormat::FrameCsvInfer, 250),
        ],
        frames[0].names().to_vec(),
        PrivacyLevel::PrivateAggregate { min_group: 20 },
    )
    .unwrap();
    assert_eq!(fed_frame.rows(), 500);

    // Federated encode straight off the raw files; verify against the
    // centralized reference.
    let spec = TransformSpec::auto(&frames[0]);
    let (encoded, meta) = fed_frame.transform_encode(&spec).unwrap();
    let mut all = frames[0].clone();
    all = all.rbind(&frames[1]).unwrap();
    let (want, want_meta) = exdra::transform::transform_encode(&all, &spec).unwrap();
    assert_eq!(meta, want_meta);
    assert_eq!(encoded.shape(), want.shape());

    // Aggregate-only checks (the raw frame is private-aggregate): the
    // federated column means of the encoded data match the central ones.
    let got_mu = Tensor::Fed(encoded)
        .replace(f64::NAN, 0.0)
        .unwrap()
        .col_means()
        .unwrap()
        .to_local()
        .unwrap();
    let want_clean = exdra::matrix::kernels::reorg::replace(&want, f64::NAN, 0.0);
    let want_mu = exdra::matrix::kernels::aggregates::aggregate(
        &want_clean,
        exdra::matrix::kernels::aggregates::AggOp::Mean,
        exdra::matrix::kernels::aggregates::AggDir::Col,
    )
    .unwrap();
    assert!(got_mu.max_abs_diff(&want_mu) < 1e-10);
}

#[test]
fn schema_inference_handles_heterogeneous_columns() {
    use exdra::matrix::frame::{FrameColumn, ValueType};
    let frame = exdra::Frame::new(vec![
        ("id".into(), FrameColumn::I64((0..50).map(Some).collect())),
        (
            "temp".into(),
            FrameColumn::F64((0..50).map(|i| Some(20.0 + i as f64 * 0.1)).collect()),
        ),
        (
            "state".into(),
            FrameColumn::Str((0..50).map(|i| Some(format!("s{}", i % 3))).collect()),
        ),
        (
            "ok".into(),
            FrameColumn::Bool((0..50).map(|i| Some(i % 2 == 0)).collect()),
        ),
    ])
    .unwrap();
    let dirs = site_dirs("schema", std::slice::from_ref(&frame));
    let path = dirs[0].join("raw.csv");
    let schema = exdra::matrix::io::infer_schema(&path, 100).unwrap();
    assert_eq!(
        schema,
        vec![
            ValueType::I64,
            ValueType::F64,
            ValueType::Str,
            ValueType::Bool
        ]
    );
    let back = exdra::matrix::io::read_frame_csv(&path, &schema).unwrap();
    assert_eq!(back.rows(), 50);
    assert_eq!(
        back.column_by_name("state").unwrap().token(4).as_deref(),
        Some("s1")
    );
}

#[test]
fn positional_maps_enable_partial_federated_reads() {
    // NoDB-style partial parsing: a worker serves row ranges of a large raw
    // file without parsing the whole file per request.
    use exdra::matrix::io::{write_matrix_csv, PositionalMap};
    let x = exdra::matrix::rng::rand_matrix(10_000, 6, -1.0, 1.0, 5);
    let dir = std::env::temp_dir().join(format!("exdra-raw-pm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.csv");
    write_matrix_csv(&x, &path).unwrap();
    let pm = PositionalMap::build(&path, false).unwrap();
    assert_eq!(pm.rows(), 10_000);
    // Read three disjoint ranges; verify contents and that they compose.
    for (lo, hi) in [(0usize, 100usize), (5_000, 5_250), (9_900, 10_000)] {
        let got = pm.read_rows_matrix(&path, lo, hi).unwrap();
        let want = exdra::matrix::kernels::reorg::index(&x, lo, hi, 0, 6).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-12, "range {lo}..{hi}");
    }
}

/// A site directory holding `x.csv`, rewritten with `m` on every call.
fn write_site_csv(dir: &std::path::Path, m: &exdra::DenseMatrix) {
    std::fs::create_dir_all(dir).unwrap();
    exdra::matrix::io::write_matrix_csv(m, &dir.join("x.csv")).unwrap();
}

fn assert_sum(got: f64, files: &[exdra::DenseMatrix], what: &str) {
    let want: f64 = files.iter().flat_map(|m| m.values()).sum();
    assert!(
        (got - want).abs() < 1e-9,
        "{what}: sum {got}, file sums to {want}"
    );
}

#[test]
fn rereading_a_changed_file_sees_its_new_contents() {
    // A raw file edited at the site and READ again into a fresh id must
    // not be served the reuse cache's results for the old bytes.
    use exdra::core::instruction::Instruction;
    use exdra::core::protocol::{Request, Response};
    use exdra::core::worker::Worker;
    use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
    use exdra::matrix::rng::rand_matrix;

    let dir = std::env::temp_dir().join(format!("exdra-raw-reread-{}", std::process::id()));
    let w = Worker::new(WorkerConfig {
        data_dir: dir.clone(),
        ..WorkerConfig::default()
    });
    let sum = |id: u64| -> f64 {
        let rs = w.handle_batch(vec![
            Request::Read {
                id,
                fname: "x.csv".into(),
                format: ReadFormat::MatrixCsv,
                privacy: PrivacyLevel::Public,
            },
            Request::ExecInst {
                inst: Instruction::Agg {
                    x: id,
                    op: AggOp::Sum,
                    dir: AggDir::Full,
                    out: id + 1,
                },
            },
            Request::Get { id: id + 1 },
        ]);
        match &rs[2] {
            Response::Data(v) => v.as_scalar().unwrap(),
            other => panic!("unexpected {other:?}"),
        }
    };
    let before = rand_matrix(20, 3, -1.0, 1.0, 41);
    write_site_csv(&dir, &before);
    assert_sum(sum(1), std::slice::from_ref(&before), "first READ");
    let after = rand_matrix(20, 3, 5.0, 9.0, 42);
    write_site_csv(&dir, &after);
    assert_sum(
        sum(3),
        std::slice::from_ref(&after),
        "READ after the rewrite",
    );
}

#[test]
fn rereading_changed_federated_files_sees_their_new_contents() {
    use exdra::core::testutil::mem_federation_with;
    use exdra::matrix::rng::rand_matrix;
    use exdra::FedMatrix;

    let root = std::env::temp_dir().join(format!("exdra-raw-reread-fed-{}", std::process::id()));
    let dirs: Vec<_> = (0..2).map(|s| root.join(format!("site{s}"))).collect();
    let mut it = dirs.clone().into_iter();
    let (ctx, _workers) = mem_federation_with(2, move || WorkerConfig {
        data_dir: it.next().unwrap(),
        ..WorkerConfig::default()
    });
    let files: Vec<_> = (0..2)
        .map(|_| ("x.csv".to_string(), ReadFormat::MatrixCsv, 20))
        .collect();
    let read_sum = || {
        let fed = FedMatrix::read_row_partitioned(&ctx, &files, 3, PrivacyLevel::Public).unwrap();
        Tensor::Fed(fed).sum().unwrap()
    };
    for (round, (lo, hi)) in [(-1.0, 1.0), (5.0, 9.0)].into_iter().enumerate() {
        let parts: Vec<_> = (0..2)
            .map(|s| rand_matrix(20, 3, lo, hi, 50 + 2 * round as u64 + s))
            .collect();
        for (dir, m) in dirs.iter().zip(&parts) {
            write_site_csv(dir, m);
        }
        assert_sum(read_sum(), &parts, &format!("READ round {round}"));
    }
}
