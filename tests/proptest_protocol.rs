//! Protocol-robustness properties: whatever bytes arrive at a worker, the
//! decoders return errors instead of panicking or over-allocating, and the
//! channel stacks deliver payloads verbatim under all compositions.

use exdra::core::instruction::Instruction;
use exdra::core::protocol::{ReadFormat, Request, Response, RpcEnvelope, RpcReply, TraceContext};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::DataValue;
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::DenseMatrix;
use exdra::net::codec::Wire;
use exdra::net::crypto::ChannelKey;
use exdra::net::sim::NetProfile;
use exdra::net::transport::{mem_pair, Channel, EncryptedChannel, ShapedChannel};
use exdra::PrivacyLevel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding arbitrary bytes to every decoder must never panic — a worker
    /// cannot be crashed by a malformed or malicious request frame.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Vec::<Request>::from_bytes(&bytes);
        let _ = Vec::<Response>::from_bytes(&bytes);
        let _ = Instruction::from_bytes(&bytes);
        let _ = DataValue::from_bytes(&bytes);
        let _ = exdra::DenseMatrix::from_bytes(&bytes);
        let _ = exdra::Frame::from_bytes(&bytes);
        // Behind a valid tag every value decoder sees the garbage, not
        // only the 1 in ~65 k cases whose first bytes happen to form one.
        // `[0, 1]` is a matrix with tag 1, the removed CSR form.
        for prefix in [&[0u8][..], &[1], &[2], &[3], &[4], &[5], &[0, 0], &[0, 1]] {
            let _ = DataValue::from_bytes(&[prefix, &bytes[..]].concat());
        }
    }

    /// Truncating a valid encoding at any point yields an error, never a
    /// silently-wrong value of the same type with trailing acceptance.
    #[test]
    fn truncated_requests_rejected(cut_frac in 0.0f64..1.0) {
        let batch = vec![
            Request::Put {
                id: 7,
                data: DataValue::from(exdra::matrix::rng::rand_matrix(5, 4, 0.0, 1.0, 1)),
                privacy: exdra::PrivacyLevel::Public,
            },
            Request::Get { id: 7 },
        ];
        let bytes = batch.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Vec::<Request>::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Payloads survive every channel-stack composition bit-exactly.
    #[test]
    fn channel_stacks_deliver_verbatim(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        encrypt in any::<bool>(),
        shape in any::<bool>(),
    ) {
        let (a, b) = mem_pair();
        let key = ChannelKey::from_passphrase("prop");
        let mut tx: Box<dyn Channel> = if encrypt {
            Box::new(EncryptedChannel::new(a, key, true))
        } else {
            Box::new(a)
        };
        let mut rx: Box<dyn Channel> = if encrypt {
            Box::new(EncryptedChannel::new(b, key, false))
        } else {
            Box::new(b)
        };
        if shape {
            tx = Box::new(ShapedChannel::new(tx, NetProfile::custom(0.2, 10_000.0)));
        }
        tx.send(&payload).unwrap();
        prop_assert_eq!(rx.recv().unwrap(), payload);
    }

    /// Flipping any single byte of an encrypted frame fails authentication.
    #[test]
    fn encrypted_frames_tamper_evident(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip_frac in 0.0f64..1.0,
    ) {
        let key = ChannelKey::from_passphrase("tamper");
        let mut tx = exdra::net::crypto::CipherState::new(key, 0);
        let mut rx = exdra::net::crypto::CipherState::new(key, 0);
        let mut sealed = tx.seal(&payload);
        let idx = ((sealed.len() as f64 - 1.0) * flip_frac) as usize;
        sealed[idx] ^= 0x01;
        prop_assert!(rx.open(&sealed).is_none());
    }

    /// DataValue round-trips for nested structures.
    #[test]
    fn data_value_roundtrip(
        scalars in proptest::collection::vec(-1e6f64..1e6, 0..8),
        rows in 1usize..10,
        cols in 1usize..10,
    ) {
        let m = exdra::matrix::rng::rand_matrix(rows, cols, -1.0, 1.0, 42);
        let v = DataValue::List(
            scalars
                .iter()
                .map(|&s| DataValue::Scalar(s))
                .chain([DataValue::from(m)])
                .collect(),
        );
        prop_assert_eq!(DataValue::from_bytes(&v.to_bytes()).unwrap(), v);
    }
}

fn envelope(requests: Vec<Request>) -> Vec<u8> {
    RpcEnvelope {
        trace: TraceContext::NONE,
        requests,
    }
    .to_bytes()
}

/// A `PUT` of a matrix with tag 1 (the removed CSR form) and a
/// 2^18 x 2^18 shape, 25 bytes that once made a worker allocate 512 GiB
/// and abort: the worker rejects the tag before reading a size, answers
/// the envelope with an error, and the same connection keeps serving.
#[test]
fn worker_rejects_a_tag_1_matrix_put_and_keeps_serving() {
    let worker = Worker::new(WorkerConfig::default());
    let mut ch = worker.serve_mem();
    let marker = DataValue::from(exdra::DenseMatrix::new(1, 3, vec![1.25, -7.5, 3e9]).unwrap());
    let frame = envelope(vec![Request::Put {
        id: 1,
        data: marker.clone(),
        privacy: exdra::PrivacyLevel::Public,
    }]);
    let value = marker.to_bytes();
    let at = frame
        .windows(value.len())
        .position(|w| w == value)
        .expect("the value's bytes are in the frame");
    let mut matrix = vec![1u8];
    for v in [1u64 << 18, 1 << 18, 0] {
        matrix.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(matrix.len(), 25);
    let frame = [&frame[..at], &[0u8], &matrix, &frame[at + value.len()..]].concat();

    ch.send(&frame).unwrap();
    let reply = RpcReply::from_bytes(&ch.recv().unwrap()).unwrap();
    match &reply.responses[..] {
        [Response::Error(e)] => assert!(e.contains("invalid matrix tag 1"), "{e}"),
        other => panic!("expected one error, got {other:?}"),
    }
    ch.send(&envelope(vec![Request::Heartbeat])).unwrap();
    let reply = RpcReply::from_bytes(&ch.recv().unwrap()).unwrap();
    assert!(
        matches!(reply.responses[..], [Response::Alive { .. }]),
        "{:?}",
        reply.responses
    );
}

/// A 24-byte `EXDRAMT1` file whose header claims 2^20 x 2^20 cells once
/// made a worker allocate 8 TiB and abort on `READ`: the worker checks
/// the shape against the bytes in the file, answers the envelope with an
/// error, and the same connection keeps serving.
#[test]
fn worker_rejects_a_bin_matrix_larger_than_its_file_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("exdra-bin-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut file = b"EXDRAMT1".to_vec();
    for dim in [1u64 << 20, 1 << 20] {
        file.extend_from_slice(&dim.to_le_bytes());
    }
    assert_eq!(file.len(), 24);
    std::fs::write(dir.join("huge.bin"), &file).unwrap();
    let worker = Worker::new(WorkerConfig {
        data_dir: dir.clone(),
        ..WorkerConfig::default()
    });
    let mut ch = worker.serve_mem();

    ch.send(&envelope(vec![Request::Read {
        id: 1,
        fname: "huge.bin".into(),
        format: ReadFormat::MatrixBin,
        privacy: exdra::PrivacyLevel::Public,
    }]))
    .unwrap();
    let reply = RpcReply::from_bytes(&ch.recv().unwrap()).unwrap();
    match &reply.responses[..] {
        [Response::Error(e)] => assert!(e.contains("1048576x1048576"), "{e}"),
        other => panic!("expected one error, got {other:?}"),
    }
    ch.send(&envelope(vec![Request::Heartbeat])).unwrap();
    let reply = RpcReply::from_bytes(&ch.recv().unwrap()).unwrap();
    assert!(
        matches!(reply.responses[..], [Response::Alive { .. }]),
        "{:?}",
        reply.responses
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The kernel behind `MmChain` takes a `d x k` `v` and an `n x k` `w`, so
/// a worker checks more shapes than one column's. A `v` whose rows miss
/// `X`'s columns, or a `w` whose rows or columns miss `X`'s rows or `v`'s
/// columns, comes back as a typed `FedError::Worker` naming the mismatch
/// (never a panic) on a dense partition and on a compacted one, and the
/// worker goes on serving the well-formed chain bit for bit.
#[test]
fn malformed_mmchain_is_a_typed_error_and_the_worker_keeps_serving() {
    use exdra::core::coordinator::expect_ok;
    use exdra::core::{FedError, FedMatrix, Tensor};
    use exdra::matrix::kernels::matmul::mmchain;
    use exdra::matrix::rng::rand_matrix;

    let (ctx, workers) = exdra::core::testutil::mem_federation(1);
    let x = rand_matrix(60, 4, 0.0, 4.0, 7).map(f64::floor);
    let fed = FedMatrix::scatter_rows(&ctx, &x, exdra::PrivacyLevel::Public).unwrap();
    let v = rand_matrix(4, 2, -1.0, 1.0, 8);
    let w = rand_matrix(60, 2, 0.0, 1.0, 9);
    let put = |id: u64, m: exdra::DenseMatrix| Request::Put {
        id,
        data: DataValue::from(m),
        privacy: exdra::PrivacyLevel::Public,
    };
    let bits = |m: &exdra::DenseMatrix| m.values().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    let mut id = 9_000;
    for compacted in [false, true] {
        if compacted {
            assert!(workers[0].compact(0, std::time::Duration::ZERO) >= 1);
        }
        for (what, bad_v, bad_w) in [
            ("v with 5 rows", rand_matrix(5, 2, -1.0, 1.0, 10), None),
            (
                "w with 3 columns",
                v.clone(),
                Some(rand_matrix(60, 3, 0.0, 1.0, 11)),
            ),
            (
                "w with 59 rows",
                v.clone(),
                Some(rand_matrix(59, 2, 0.0, 1.0, 12)),
            ),
        ] {
            id += 10;
            let mut batch = vec![put(id, bad_v)];
            batch.extend(bad_w.map(|bw| put(id + 1, bw)));
            batch.push(Request::ExecInst {
                inst: Instruction::MmChain {
                    x: fed.parts()[0].id,
                    v: id,
                    w: (batch.len() == 2).then_some(id + 1),
                    out: id + 2,
                },
            });
            let responses = ctx.call(0, &batch).unwrap();
            let err = responses
                .iter()
                .find_map(|r| expect_ok(r, 0).err())
                .unwrap_or_else(|| panic!("{what}, compacted {compacted}: no error"));
            assert!(
                matches!(&err, FedError::Worker { msg, .. }
                    if msg.contains("mmchain") && !msg.contains("panicked")),
                "{what}, compacted {compacted}: {err:?}"
            );
        }
        let got = Tensor::Fed(fed.clone()).mmchain(&v, Some(&w)).unwrap();
        assert_eq!(bits(&got), bits(&mmchain(&x, &v, Some(&w)).unwrap()));
    }
}

/// A cell worth a cell-wise op: NaN, both zeros, both infinities, or a
/// plain value.
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1.0),
        -4.0f64..4.0,
        -4.0f64..4.0,
    ]
}

const BINARY_OPS: [BinaryOp; 19] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::IntDiv,
    BinaryOp::Mod,
    BinaryOp::Pow,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Eq,
    BinaryOp::Neq,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::LogBase,
];

const UNARY_OPS: [UnaryOp; 16] = [
    UnaryOp::Abs,
    UnaryOp::Cos,
    UnaryOp::Sin,
    UnaryOp::Tan,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Sqrt,
    UnaryOp::Round,
    UnaryOp::Floor,
    UnaryOp::Ceil,
    UnaryOp::Sign,
    UnaryOp::Not,
    UnaryOp::IsNa,
    UnaryOp::Sigmoid,
    UnaryOp::Neg,
    UnaryOp::Square,
];

/// One link of a cell-wise chain `X[i+1] = f(X[i], ...)`: `kind` picks
/// `Binary`, `Scalar`, `Unary` or `Replace`, `op` the operator, `shape`
/// a `Binary`'s right operand (same-shape, row, column, 1 x 1, or an
/// earlier link of the chain, which reads that link again), `lit` and
/// `swap` the literals, and `removed` whether the chain's final `rmvar`
/// names `X[i]`.
#[derive(Debug, Clone)]
struct Link {
    kind: u8,
    op: usize,
    shape: u8,
    lit: f64,
    swap: bool,
    removed: bool,
}

fn link() -> impl Strategy<Value = Link> {
    (
        (0u8..4, 0usize..64, 0u8..5),
        (cell(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((kind, op, shape), (lit, swap, removed))| Link {
            kind,
            op,
            shape,
            lit,
            swap,
            removed,
        })
}

/// The requests of a chain over `x` (id 1), links bound as 2, 3, ...,
/// right operands PUT as 100 + i and removed right after their use, the
/// removed links in one final `rmvar`, and with `fetch` a GET of the last
/// link followed by its `rmvar`.
fn chain(
    x: DenseMatrix,
    pool: &[f64],
    links: &[Link],
    privacy: PrivacyLevel,
    fetch: bool,
) -> Vec<Request> {
    let (rows, cols) = x.shape();
    let mut reqs = vec![Request::Put {
        id: 1,
        data: DataValue::from(x),
        privacy,
    }];
    let rhs = |i: usize, r: usize, c: usize| {
        let cells = (0..r * c).map(|k| pool[(i + k) % pool.len()]).collect();
        DataValue::from(DenseMatrix::new(r, c, cells).unwrap())
    };
    for (i, l) in links.iter().enumerate() {
        let (x, out) = (1 + i as u64, 2 + i as u64);
        let put_id = 100 + i as u64;
        let inst = match l.kind {
            0 => {
                let other = match l.shape {
                    0 => Some(rhs(i, rows, cols)),
                    1 => Some(rhs(i, 1, cols)),
                    2 => Some(rhs(i, rows, 1)),
                    3 => Some(rhs(i, 1, 1)),
                    _ => None,
                };
                let rhs_id = match other {
                    Some(data) => {
                        reqs.push(Request::Put {
                            id: put_id,
                            data,
                            privacy: PrivacyLevel::Public,
                        });
                        put_id
                    }
                    None => 1 + (l.op as u64 % (i as u64 + 1)),
                };
                Instruction::Binary {
                    lhs: x,
                    rhs: rhs_id,
                    op: BINARY_OPS[l.op % BINARY_OPS.len()],
                    out,
                }
            }
            1 => Instruction::Scalar {
                x,
                op: BINARY_OPS[l.op % BINARY_OPS.len()],
                value: l.lit,
                swap: l.swap,
                out,
            },
            2 => Instruction::Unary {
                x,
                op: UNARY_OPS[l.op % UNARY_OPS.len()],
                out,
            },
            _ => Instruction::Replace {
                x,
                pattern: if l.swap {
                    f64::NAN
                } else {
                    pool[i % pool.len()]
                },
                replacement: l.lit,
                out,
            },
        };
        let put_rhs = matches!(inst, Instruction::Binary { rhs, .. } if rhs == put_id);
        reqs.push(Request::ExecInst { inst });
        if put_rhs {
            reqs.push(Request::ExecInst {
                inst: Instruction::Rmvar { ids: vec![put_id] },
            });
        }
    }
    let removed: Vec<u64> = (0..links.len())
        .filter(|&i| links[i].removed)
        .map(|i| 1 + i as u64)
        .collect();
    reqs.push(Request::ExecInst {
        inst: Instruction::Rmvar { ids: removed },
    });
    if fetch {
        let last = 1 + links.len() as u64;
        reqs.push(Request::Get { id: last });
        reqs.push(Request::ExecInst {
            inst: Instruction::Rmvar { ids: vec![last] },
        });
    }
    reqs
}

/// A bound value's wire bytes, its lineage and its privacy metadata.
type Binding = (Vec<u8>, u64, PrivacyLevel, bool);

/// Everything a chain leaves bound, by id.
fn bound(w: &Worker, links: usize) -> Vec<(u64, Option<Binding>)> {
    (1..=1 + links as u64)
        .chain(100..100 + links as u64)
        .map(|id| {
            let e = w.table().get(id).ok();
            let e = e.map(|e| {
                (
                    e.value.to_bytes(),
                    e.meta.lineage,
                    e.meta.privacy,
                    e.meta.releasable,
                )
            });
            (id, e)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A worker that writes a cell-wise result over the operand its batch
    /// removes answers a chain sent as one batch exactly as it answers the
    /// same chain sent one request per batch, where nothing dies inside a
    /// batch: the same responses, and every bound value with the same
    /// bits, lineage and privacy metadata.
    #[test]
    fn a_chain_in_one_batch_matches_the_chain_one_request_at_a_time(
        (rows, cols, cells, pool) in (1usize..12, 1usize..6).prop_flat_map(|(r, c)| {
            (
                Just(r),
                Just(c),
                proptest::collection::vec(cell(), r * c),
                proptest::collection::vec(cell(), r * c),
            )
        }),
        links in proptest::collection::vec(link(), 1..8),
        privacy in 0u8..3,
        fetch in any::<bool>(),
    ) {
        let privacy = match privacy {
            0 => PrivacyLevel::Public,
            1 => PrivacyLevel::PrivateAggregate { min_group: 2 },
            _ => PrivacyLevel::Private,
        };
        let x = DenseMatrix::new(rows, cols, cells).unwrap();
        // A private link fails its GET, which skips the rest of a batch.
        let reqs = chain(x, &pool, &links, privacy, fetch && privacy == PrivacyLevel::Public);
        let config = || WorkerConfig {
            reuse_enabled: false,
            ..WorkerConfig::default()
        };
        let (batched, single) = (Worker::new(config()), Worker::new(config()));
        let together = batched.handle_batch(reqs.clone());
        let apart: Vec<Response> = reqs
            .into_iter()
            .flat_map(|r| single.handle_batch(vec![r]))
            .collect();
        prop_assert_eq!(together.to_bytes(), apart.to_bytes());
        prop_assert_eq!(bound(&batched, links.len()), bound(&single, links.len()));
    }
}
