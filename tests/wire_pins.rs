//! Literal pins for every message that crosses the coordinator–worker
//! wire outside the instruction table: the request and reply envelopes,
//! each request, response, UDF and value variant, the checkpoint structs
//! and the transform metadata. One sample per variant, with its bytes as
//! hex, plus each enum's unknown-tag error text. Workers and coordinators
//! of one build talk only to each other, but a codec refactor may move no
//! byte of any of them.

use std::fmt::Debug;

use exdra::core::instruction::Instruction;
use exdra::core::protocol::{
    BatchFooter, CheckpointDelta, CheckpointEntry, ReadFormat, Request, Response, RpcEnvelope,
    RpcReply, TraceContext,
};
use exdra::core::udf::Udf;
use exdra::core::{DataValue, PrivacyLevel};
use exdra::matrix::frame::{Frame, FrameColumn};
use exdra::matrix::ValueType;
use exdra::net::codec::Wire;
use exdra::transform::encoders::{
    ColumnMeta, ColumnSpec, EncodeKind, PartialColumnMeta, PartialMeta, TransformMeta,
    TransformSpec,
};
use exdra::DenseMatrix;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks one sample against its pinned bytes and that the bytes decode
/// back to the sample. Mismatches are collected, so a failure prints
/// every moved sample with its measured bytes.
fn pin<T: Wire + PartialEq + Debug>(moved: &mut Vec<String>, value: T, want: &str) {
    let bytes = value.to_bytes();
    assert_eq!(T::from_bytes(&bytes).unwrap(), value, "round trip");
    if hex(&bytes) != want {
        moved.push(format!("{value:?}\n    got {}", hex(&bytes)));
    }
}

fn assert_none_moved(moved: Vec<String>) {
    assert!(moved.is_empty(), "moved wire bytes:\n{}", moved.join("\n"));
}

fn matrix() -> DataValue {
    DataValue::from(DenseMatrix::new(1, 2, vec![1.5, -2.0]).unwrap())
}

fn frame() -> Frame {
    Frame::new(vec![
        ("f".into(), FrameColumn::from(vec![Some(0.5), None])),
        ("i".into(), FrameColumn::from(vec![None, Some(-3)])),
        ("s".into(), FrameColumn::from(vec![Some("ab"), None])),
        ("b".into(), FrameColumn::from(vec![Some(true), Some(false)])),
    ])
    .unwrap()
}

fn spec(kind: EncodeKind) -> ColumnSpec {
    ColumnSpec {
        name: "c".into(),
        kind,
        one_hot: true,
    }
}

fn transform_spec() -> TransformSpec {
    TransformSpec {
        columns: vec![
            spec(EncodeKind::PassThrough),
            spec(EncodeKind::Recode),
            spec(EncodeKind::Bin { num_bins: 3 }),
            spec(EncodeKind::Hash { num_features: 5 }),
        ],
    }
}

fn partial_meta() -> PartialMeta {
    PartialMeta {
        columns: vec![
            PartialColumnMeta::PassThrough,
            PartialColumnMeta::Recode {
                distincts: vec!["x".into()],
            },
            PartialColumnMeta::Bin { min: 1.0, max: 2.0 },
            PartialColumnMeta::Hash,
        ],
        rows: 7,
    }
}

fn transform_meta() -> TransformMeta {
    TransformMeta {
        columns: vec![
            (spec(EncodeKind::PassThrough), ColumnMeta::PassThrough),
            (
                spec(EncodeKind::Recode),
                ColumnMeta::Recode {
                    codes: vec!["x".into()],
                },
            ),
            (
                spec(EncodeKind::Bin { num_bins: 2 }),
                ColumnMeta::Bin {
                    min: 0.0,
                    max: 1.0,
                    num_bins: 2,
                },
            ),
            (
                spec(EncodeKind::Hash { num_features: 4 }),
                ColumnMeta::Hash { num_features: 4 },
            ),
        ],
    }
}

fn entry(releasable: bool) -> CheckpointEntry {
    CheckpointEntry {
        id: 5,
        value: DataValue::Scalar(2.5),
        privacy: PrivacyLevel::PrivateAggregate { min_group: 10 },
        releasable,
        lineage: 0xfeed,
    }
}

fn delta() -> CheckpointDelta {
    CheckpointDelta {
        seq: 17,
        epoch: 3,
        entries: vec![entry(true)],
        removed: vec![1, 4],
    }
}

fn read(format: ReadFormat) -> Request {
    Request::Read {
        id: 1,
        fname: "x.csv".into(),
        format,
        privacy: PrivacyLevel::Private,
    }
}

#[test]
fn requests_and_envelopes_keep_their_bytes() {
    let mut moved = Vec::new();
    let m = &mut moved;
    pin(
        m,
        read(ReadFormat::MatrixCsv),
        "0001000000000000000500000000000000782e63737600020000000000000000",
    );
    pin(
        m,
        read(ReadFormat::MatrixBin),
        "0001000000000000000500000000000000782e63737601020000000000000000",
    );
    let schema = vec![
        ValueType::F64,
        ValueType::I64,
        ValueType::Str,
        ValueType::Bool,
    ];
    pin(
        m,
        read(ReadFormat::FrameCsv { schema }),
        "0001000000000000000500000000000000782e63737602040000000000000000010203020000000000000000",
    );
    pin(
        m,
        read(ReadFormat::FrameCsvInfer),
        "0001000000000000000500000000000000782e63737603020000000000000000",
    );
    let put = Request::Put {
        id: 2,
        data: DataValue::Scalar(1.0),
        privacy: PrivacyLevel::Public,
    };
    pin(
        m,
        put.clone(),
        "01020000000000000002000000000000f03f000000000000000000",
    );
    pin(m, Request::Get { id: 2 }, "020200000000000000");
    let inst = Instruction::Rmvar { ids: vec![3, 4] };
    pin(
        m,
        Request::ExecInst { inst },
        "031e020000000000000003000000000000000400000000000000",
    );
    let udf = Udf::Registered {
        name: "g".into(),
        args: vec![],
        arg_ids: vec![],
        out: None,
    };
    pin(
        m,
        Request::ExecUdf { udf },
        "04070100000000000000670000000000000000000000000000000000",
    );
    pin(m, Request::Clear, "05");
    pin(m, Request::Heartbeat, "06");
    pin(
        m,
        Request::Checkpoint { since_seq: 9 },
        "070900000000000000",
    );
    let entries = vec![entry(false), entry(true)];
    pin(m, Request::Restore { entries }, "0802000000000000000500000000000000020000000000000440010a0000000000000000edfe0000000000000500000000000000020000000000000440010a0000000000000001edfe000000000000");
    pin(m, Request::ClearNamespace { ns: 6 }, "090600000000000000");
    let trace = TraceContext {
        trace_id: 42,
        parent_span: 7,
    };
    pin(m, trace, "2a000000000000000700000000000000");
    let requests = vec![Request::Heartbeat, put];
    pin(m, RpcEnvelope { trace, requests }, "2a00000000000000070000000000000002000000000000000601020000000000000002000000000000f03f000000000000000000");
    assert_none_moved(moved);
}

#[test]
fn responses_and_replies_keep_their_bytes() {
    let mut moved = Vec::new();
    let m = &mut moved;
    pin(m, Response::Ok, "00");
    pin(
        m,
        Response::Data(DataValue::Scalar(1.5)),
        "0102000000000000f83f",
    );
    pin(m, Response::Error("no".into()), "0202000000000000006e6f");
    pin(
        m,
        Response::Alive { epoch: 3, load: 17 },
        "03030000000000000011000000",
    );
    pin(m, Response::Checkpoint(delta()), "041100000000000000030000000000000001000000000000000500000000000000020000000000000440010a0000000000000001edfe000000000000020000000000000001000000000000000400000000000000");
    pin(
        m,
        entry(true),
        "0500000000000000020000000000000440010a0000000000000001edfe000000000000",
    );
    pin(m, delta(), "1100000000000000030000000000000001000000000000000500000000000000020000000000000440010a0000000000000001edfe000000000000020000000000000001000000000000000400000000000000");
    let footer = BatchFooter {
        exec_nanos: 1000,
        request_nanos: vec![600, 400],
        cache_hits: 1,
        cache_misses: 2,
    };
    pin(m, footer.clone(), "e80300000000000002000000000000005802000000000000900100000000000001000000000000000200000000000000");
    let responses = vec![Response::Ok, Response::Error("x".into())];
    pin(m, RpcReply { responses, footer }, "02000000000000000002010000000000000078e80300000000000002000000000000005802000000000000900100000000000001000000000000000200000000000000");
    assert_none_moved(moved);
}

#[test]
fn udfs_keep_their_bytes() {
    let mut moved = Vec::new();
    let m = &mut moved;
    pin(
        m,
        Udf::Registered {
            name: "g".into(),
            args: vec![DataValue::Scalar(0.5)],
            arg_ids: vec![5, 6],
            out: Some(7),
        },
        "07010000000000000067010000000000000002000000000000e03f020000000000000005000000000000000600000000000000010700000000000000",
    );
    assert_none_moved(moved);
}

#[test]
fn values_and_transform_metadata_keep_their_bytes() {
    let mut moved = Vec::new();
    let m = &mut moved;
    pin(
        m,
        matrix(),
        "000001000000000000000200000000000000000000000000f83f00000000000000c0",
    );
    pin(m, DataValue::Frame(frame()), "0104000000000000000100000000000000660100000000000000690100000000000000730100000000000000620002000000000000000100000000000000000000000000e03f000000000000000001020000000000000002000000000000000000000000000000fdffffffffffffff0202000000000000000100000000000000000000000000000002000000000000000200000000000000616203020000000000000003000000000000000100");
    pin(m, DataValue::Scalar(-0.25), "02000000000000d0bf");
    pin(m, DataValue::TransformMeta(transform_meta()), "030400000000000000010000000000000063000100010000000000000063010101010000000000000001000000000000007801000000000000006302020000000000000001020000000000000000000000000000f03f020000000000000001000000000000006303040000000000000001030400000000000000");
    pin(m, DataValue::PartialMeta(partial_meta()), "0404000000000000000001010000000000000001000000000000007802000000000000f03f0000000000000040030700000000000000");
    let list = vec![DataValue::Scalar(1.0), DataValue::List(vec![])];
    pin(
        m,
        DataValue::List(list),
        "05020000000000000002000000000000f03f050000000000000000",
    );
    pin(
        m,
        FrameColumn::from(vec![Some(0.5), None]),
        "0002000000000000000100000000000000000000000000e03f0000000000000000",
    );
    pin(
        m,
        FrameColumn::from(vec![None, Some(-3)]),
        "01020000000000000002000000000000000000000000000000fdffffffffffffff",
    );
    pin(
        m,
        FrameColumn::from(vec![Some("ab"), None]),
        "02020000000000000001000000000000000000000000000000020000000000000002000000000000006162",
    );
    pin(
        m,
        FrameColumn::from(vec![Some(true), Some(false)]),
        "03020000000000000003000000000000000100",
    );
    pin(m, EncodeKind::PassThrough, "00");
    pin(m, EncodeKind::Recode, "01");
    pin(m, EncodeKind::Bin { num_bins: 3 }, "020300000000000000");
    pin(
        m,
        EncodeKind::Hash { num_features: 5 },
        "030500000000000000",
    );
    pin(m, spec(EncodeKind::Recode), "0100000000000000630101");
    pin(m, transform_spec(), "0400000000000000010000000000000063000101000000000000006301010100000000000000630203000000000000000101000000000000006303050000000000000001");
    pin(m, PartialColumnMeta::PassThrough, "00");
    pin(m, PartialColumnMeta::Hash, "03");
    pin(m, partial_meta(), "04000000000000000001010000000000000001000000000000007802000000000000f03f0000000000000040030700000000000000");
    pin(m, ColumnMeta::PassThrough, "00");
    pin(
        m,
        ColumnMeta::Hash { num_features: 4 },
        "030400000000000000",
    );
    pin(m, transform_meta(), "0400000000000000010000000000000063000100010000000000000063010101010000000000000001000000000000007801000000000000006302020000000000000001020000000000000000000000000000f03f020000000000000001000000000000006303040000000000000001030400000000000000");
    assert_none_moved(moved);
}

fn decode_error<T: Wire + Debug>(bytes: &[u8]) -> String {
    T::from_bytes(bytes).unwrap_err().0
}

#[test]
fn unknown_tags_keep_their_error_text() {
    let ten = [0xa];
    assert_eq!(
        decode_error::<ReadFormat>(&ten),
        "invalid ReadFormat tag 10"
    );
    // A one-column `FrameCsv` schema whose value type is tag 10.
    let schema = [2, 1, 0, 0, 0, 0, 0, 0, 0, 0xa];
    assert_eq!(
        decode_error::<ReadFormat>(&schema),
        "invalid ValueType tag 10"
    );
    assert_eq!(decode_error::<Request>(&ten), "invalid Request tag 10");
    assert_eq!(decode_error::<Response>(&ten), "invalid Response tag 10");
    // `Registered` is tag 7; every other tag, the retired built-ins'
    // 0–6 and 8–10 included, is unknown.
    for t in (0..=6).chain(8..=11) {
        assert_eq!(decode_error::<Udf>(&[t]), format!("invalid Udf tag {t}"));
    }
    assert_eq!(decode_error::<DataValue>(&ten), "invalid DataValue tag 10");
    assert_eq!(
        decode_error::<FrameColumn>(&ten),
        "invalid FrameColumn tag 10"
    );
    assert_eq!(
        decode_error::<EncodeKind>(&ten),
        "invalid EncodeKind tag 10"
    );
    assert_eq!(
        decode_error::<PartialColumnMeta>(&ten),
        "invalid PartialColumnMeta tag 10"
    );
    assert_eq!(
        decode_error::<ColumnMeta>(&ten),
        "invalid ColumnMeta tag 10"
    );
}
