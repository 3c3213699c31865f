//! Pipelined-RPC conformance properties, checked against
//! `FedContext::call_streamed` (the one production sliding window):
//! correlation-ID routing survives arbitrary reply reorderings, unknown
//! correlation ids and duplicated replies, and the window=1 configuration
//! stays byte-for-byte compatible with the legacy lock-step protocol.

use std::io;
use std::sync::{Arc, Mutex};

use exdra::core::protocol::{BatchFooter, Request, Response, RpcEnvelope, RpcReply};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{DataValue, FedContext, PrivacyLevel};
use exdra::net::codec::Wire;
use exdra::net::framing::{tag_reply, untag_request};
use exdra::net::transport::{mem_pair, Channel, Duplex, MemChannel, SendHalf};
use proptest::prelude::*;

/// The reply frame a worker would send for `GET id`, carrying `value`.
fn reply_frame(corr: u64, value: f64) -> Vec<u8> {
    let reply = RpcReply {
        responses: vec![Response::Data(DataValue::Scalar(value))],
        footer: BatchFooter::default(),
    };
    tag_reply(corr, &reply.to_bytes())
}

/// A scripted worker peer for a stream of `n` single-`GET` envelopes
/// through a window of `window`. It collects each window-full of
/// requests, then answers them in the order `keys` dictates — an
/// arbitrary permutation under proptest's control — with `GET id`
/// answered by the scalar `id`. With `noise`, every real reply is
/// preceded by a reply for a correlation id the coordinator never issued
/// and followed by a duplicate of itself carrying a poisoned value.
fn scripted_peer(
    mut ch: MemChannel,
    n: usize,
    window: usize,
    keys: Vec<u64>,
    noise: bool,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut answered = 0;
        while answered < n {
            let round = window.min(n - answered);
            let mut held: Vec<(u64, f64)> = (0..round)
                .map(|_| {
                    let frame = ch.recv().unwrap();
                    let (corr, body) = untag_request(&frame).expect("tagged request frame");
                    let env = RpcEnvelope::from_bytes(body).unwrap();
                    match env.requests.as_slice() {
                        [Request::Get { id }] => (corr, *id as f64),
                        other => panic!("unexpected requests {other:?}"),
                    }
                })
                .collect();
            held.sort_by_key(|&(corr, _)| keys[corr as usize % keys.len()]);
            for (corr, value) in held {
                if noise {
                    ch.send(&reply_frame(corr + 10_000, -1.0)).unwrap();
                }
                ch.send(&reply_frame(corr, value)).unwrap();
                if noise {
                    ch.send(&reply_frame(corr, -2.0)).unwrap();
                }
            }
            answered += round;
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// However the peer permutes the replies of a window, and whatever
    /// unknown-correlation or duplicate replies it mixes in, every
    /// response lands at the request that originated it, in submission
    /// order, and the window bound is respected (window 1 is lock-step:
    /// never more than one request in flight).
    #[test]
    fn replies_route_to_their_requests_under_reordering_and_noise(
        ids in proptest::collection::vec(1u64..1000, 1..20),
        window in 1usize..10,
        keys in proptest::collection::vec(any::<u64>(), 20),
        noise in any::<bool>(),
    ) {
        let (a, b) = mem_pair();
        let peer = scripted_peer(b, ids.len(), window, keys, noise);
        let ctx = FedContext::from_channels(vec![Box::new(a)]).unwrap();
        let batch: Vec<Request> = ids.iter().map(|&id| Request::Get { id }).collect();

        let responses = ctx.call_streamed(0, &batch, window).unwrap();
        let want: Vec<Response> = ids
            .iter()
            .map(|&id| Response::Data(DataValue::Scalar(id as f64)))
            .collect();
        prop_assert_eq!(responses, want);
        prop_assert_eq!(ctx.stats().max_inflight() as usize, window.min(ids.len()));
        peer.join().unwrap();
    }
}

/// Send half that logs every frame it puts on the wire.
struct RecordingSendHalf {
    inner: Box<dyn SendHalf>,
    log: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl SendHalf for RecordingSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.log.lock().unwrap().push(payload.to_vec());
        self.inner.send(payload)
    }
}

/// Coordinator-side channel that logs every frame it sends into `log`.
fn recording_channel(inner: MemChannel, log: Arc<Mutex<Vec<Vec<u8>>>>) -> Box<dyn Channel> {
    let (inner, rx) = Box::new(inner).split();
    Box::new(Duplex::from_halves(RecordingSendHalf { inner, log }, rx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At window 1 the coordinator speaks the legacy protocol byte for
    /// byte: one untagged envelope per batch, no correlation header. The
    /// streamed path produces identical responses from tagged
    /// single-request envelopes carrying the same batch in order.
    #[test]
    fn window_one_is_byte_identical_to_legacy_lockstep(
        ids in proptest::collection::vec(1u64..40, 1..8),
    ) {
        let worker = Worker::new(WorkerConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let rec = recording_channel(worker.serve_mem(), Arc::clone(&log));
        let ctx = FedContext::from_channels(vec![rec]).unwrap();

        // Repeated ids are allowed: conflicting puts/gets must still
        // serialize identically on both paths.
        let mut batch = Vec::new();
        for &id in &ids {
            batch.push(Request::Put {
                id,
                data: DataValue::Scalar(id as f64 * 0.5 - 3.0),
                privacy: PrivacyLevel::Public,
            });
            batch.push(Request::Get { id });
        }

        prop_assert_eq!(ctx.rpc_window(), 1, "lock-step is the default");
        let legacy = ctx.call(0, &batch).unwrap();
        {
            let frames = log.lock().unwrap();
            prop_assert_eq!(frames.len(), 1, "legacy batch is one envelope");
            prop_assert!(
                untag_request(&frames[0]).is_none(),
                "no correlation header on the legacy wire"
            );
            let env = RpcEnvelope::from_bytes(&frames[0]).unwrap();
            prop_assert_eq!(&env.requests, &batch);
        }

        log.lock().unwrap().clear();
        let streamed = ctx.call_streamed(0, &batch, 8).unwrap();
        prop_assert_eq!(&streamed, &legacy, "streamed responses identical");
        {
            let frames = log.lock().unwrap();
            prop_assert_eq!(frames.len(), batch.len(), "one frame per request");
            for (frame, want) in frames.iter().zip(&batch) {
                let (_, body) = untag_request(frame).expect("streamed frames tagged");
                let env = RpcEnvelope::from_bytes(body).unwrap();
                prop_assert_eq!(env.requests.len(), 1);
                prop_assert_eq!(&env.requests[0], want);
            }
        }
        worker.shutdown();
    }
}
