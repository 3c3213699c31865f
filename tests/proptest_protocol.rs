//! Protocol-robustness properties: whatever bytes arrive at a worker, the
//! decoders return errors instead of panicking or over-allocating, and the
//! channel stacks deliver payloads verbatim under all compositions.

use exdra::core::instruction::Instruction;
use exdra::core::protocol::{Request, Response, RpcEnvelope, RpcReply, TraceContext};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::DataValue;
use exdra::net::codec::Wire;
use exdra::net::crypto::ChannelKey;
use exdra::net::sim::NetProfile;
use exdra::net::transport::{mem_pair, Channel, EncryptedChannel, ShapedChannel};
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
