//! End-to-end RPC framing and transport-stack scenarios. One exchange is
//! one `RpcEnvelope` frame out and one bare `RpcReply` frame back, with
//! the worker's outbox riding in front of the batch. A worker killed
//! under a batch fails it as `WorkerDead` and recovers through the
//! supervisor with bitwise-identical results. Plain envelopes sent
//! several ahead of their replies are served in order over the full
//! encrypted+shaped+instrumented production stack and over split
//! shaped halves. An in-memory check pins the transport stack itself:
//! the full stack behaves identically held whole and held split.

use std::io;
use std::sync::{Arc, Mutex};

use exdra::core::coordinator::WorkerEndpoint;
use exdra::core::instruction::Instruction;
use exdra::core::protocol::{Request, Response, RpcEnvelope, RpcReply, TraceContext};
use exdra::core::supervision::Supervisor;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{DataValue, FedContext, FedMatrix};
use exdra::fault::{FaultPlan, FaultyChannel};
use exdra::matrix::rng::rand_matrix;
use exdra::net::codec::Wire;
use exdra::net::crypto::ChannelKey;
use exdra::net::sim::NetProfile;
use exdra::net::stats::NetStats;
use exdra::net::transport::{
    mem_pair, Channel, Duplex, EncryptedChannel, InstrumentedChannel, RecvHalf, SendHalf,
    ShapedChannel, TcpChannel,
};
use exdra::{FedError, PrivacyLevel, SupervisionPolicy};

/// Requests per batch.
const BATCH: u64 = 16;

/// Envelopes a pipelining client keeps ahead of their replies.
const DEPTH: usize = 8;

fn puts(base: u64) -> Vec<Request> {
    (0..BATCH)
        .map(|i| Request::Put {
            id: base + i,
            data: DataValue::Scalar(i as f64 * 2.5 - 7.0),
            privacy: PrivacyLevel::Public,
        })
        .collect()
}

fn gets(base: u64) -> Vec<Request> {
    (0..BATCH).map(|i| Request::Get { id: base + i }).collect()
}

fn scalar_bits(responses: &[Response]) -> Vec<u64> {
    responses
        .iter()
        .map(|r| match r {
            Response::Data(DataValue::Scalar(v)) => v.to_bits(),
            other => panic!("expected scalar response, got {other:?}"),
        })
        .collect()
}

fn envelope(requests: Vec<Request>) -> Vec<u8> {
    RpcEnvelope {
        trace: TraceContext::NONE,
        requests,
    }
    .to_bytes()
}

/// Sends `requests` one plain envelope each, keeping up to [`DEPTH`]
/// sent ahead of their replies, and returns the responses in order.
fn pipelined(ch: &mut dyn Channel, requests: Vec<Request>) -> Vec<Response> {
    let n = requests.len();
    let mut pending = requests.into_iter();
    let mut responses = Vec::with_capacity(n);
    let mut sent = 0;
    while responses.len() < n {
        if sent < n && sent - responses.len() < DEPTH {
            let req = pending.next().expect("one request per send");
            ch.send(&envelope(vec![req])).unwrap();
            sent += 1;
            continue;
        }
        let reply = RpcReply::from_bytes(&ch.recv().unwrap()).unwrap();
        assert_eq!(reply.responses.len(), 1);
        responses.extend(reply.responses);
    }
    responses
}

/// One logged frame per direction.
type Log = Arc<Mutex<Vec<Vec<u8>>>>;

struct RecordingSendHalf {
    inner: Box<dyn SendHalf>,
    log: Log,
}

impl SendHalf for RecordingSendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.log.lock().unwrap().push(payload.to_vec());
        self.inner.send(payload)
    }
}

struct RecordingRecvHalf {
    inner: Box<dyn RecvHalf>,
    log: Log,
}

impl RecvHalf for RecordingRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv()?;
        self.log.lock().unwrap().push(frame.clone());
        Ok(frame)
    }
}

/// A coordinator's call with a queued outbox puts exactly one frame on
/// the wire, `RpcEnvelope { trace, outbox ++ batch }` byte for byte, and
/// the worker answers with exactly one frame that is a bare `RpcReply`.
#[test]
fn one_call_is_one_envelope_frame_and_one_bare_reply() {
    let worker = Worker::new(WorkerConfig::default());
    let (sent, received): (Log, Log) = Default::default();
    let (tx, rx) = Box::new(worker.serve_mem()).split();
    let recording = Duplex::from_halves(
        RecordingSendHalf {
            inner: tx,
            log: Arc::clone(&sent),
        },
        RecordingRecvHalf {
            inner: rx,
            log: Arc::clone(&received),
        },
    );
    let ctx = FedContext::from_channels(vec![Box::new(recording)]).unwrap();

    // Dropping a federated handle queues its removal in the outbox.
    let x = rand_matrix(6, 2, -1.0, 1.0, 3);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let part = fed.parts()[0].id;
    drop(fed);
    sent.lock().unwrap().clear();
    received.lock().unwrap().clear();

    // Repeated ids: conflicting writes and reads in one batch.
    let mut batch = Vec::new();
    for id in [5u64, 9, 5] {
        batch.push(Request::Put {
            id,
            data: DataValue::Scalar(id as f64 * 0.5 - 3.0),
            privacy: PrivacyLevel::Public,
        });
        batch.push(Request::Get { id });
    }
    let responses = ctx.call(0, &batch).unwrap();
    assert_eq!(
        responses.len(),
        batch.len(),
        "the carried response is stripped"
    );

    let sent = sent.lock().unwrap();
    assert_eq!(sent.len(), 1, "one frame out");
    let mut requests = vec![Request::ExecInst {
        inst: Instruction::Rmvar { ids: vec![part] },
    }];
    requests.extend(batch);
    assert_eq!(
        sent[0],
        envelope(requests),
        "outbox ++ batch, byte for byte"
    );

    let received = received.lock().unwrap();
    assert_eq!(received.len(), 1, "one frame back");
    let reply = RpcReply::from_bytes(&received[0]).expect("a bare RpcReply");
    assert_eq!(reply.to_bytes(), received[0]);
    assert_eq!(reply.responses[0], Response::Ok, "the carried rmvar");
    assert_eq!(reply.responses[1..], responses[..]);
    assert!(!worker.table().contains(part));
    worker.shutdown();
}

/// Killing the worker fails the next batch as `WorkerDead` (not a hang,
/// not a misrouted reply), and after the supervisor's checkpoint recovery
/// the same batch returns bitwise-identical results from the replacement
/// worker.
#[test]
fn killed_worker_fails_its_batch_and_recovers_through_supervisor() {
    let worker = Worker::new(WorkerConfig::default());
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    let profile = NetProfile::custom(4.0, 1000.0);
    let ctx =
        FedContext::connect(&[WorkerEndpoint::tcp_with(addr.to_string(), profile, None)]).unwrap();
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    sup.heartbeat_once();

    // Install state, checkpoint it synchronously, and take the baseline.
    ctx.call(0, &puts(100)).unwrap();
    sup.checkpoint_worker(0).unwrap();
    let baseline = scalar_bits(&ctx.call(0, &gets(100)).unwrap());

    // Stand in for a restarted worker process, then kill the original.
    let replacement = Worker::new(WorkerConfig::default());
    let raddr = replacement.serve_tcp("127.0.0.1:0").unwrap();
    sup.set_reconnector(Box::new(move |_w| {
        TcpChannel::connect(raddr)
            .ok()
            .map(|c| Box::new(c) as Box<dyn Channel>)
    }));
    worker.shutdown();

    let err = ctx
        .call(0, &gets(100))
        .expect_err("a dead worker fails the batch");
    assert!(
        matches!(err, FedError::WorkerDead { .. }),
        "failed as WorkerDead, got {err:?}"
    );

    // Supervisor recovery restores the checkpoint onto the replacement;
    // the identical batch then recomputes bitwise-identically.
    sup.notify_worker_dead(0);
    sup.wait_recoveries();
    let after = scalar_bits(&ctx.call(0, &gets(100)).unwrap());
    assert_eq!(baseline, after, "recovered batch is bitwise identical");
    assert!(
        !replacement.table().is_empty(),
        "checkpointed state restored onto the replacement"
    );
    assert!(ctx.stats().recoveries() >= 1, "NetStats counted recovery");
    replacement.shutdown();
}

/// Regression for the encrypted stack: ChaCha20 channel encryption must
/// not assume strict send/recv alternation. A client seals eight plain
/// envelopes before opening any reply, over the full production stack
/// (encrypted + WAN-shaped + instrumented), and every frame still
/// authenticates and answers in order, bitwise equal to one envelope
/// carrying the whole batch.
#[test]
fn encrypted_shaped_stack_pipelines_at_window_8() {
    let key = ChannelKey::from_passphrase("pipeline-e2e");
    let worker = Worker::new(WorkerConfig {
        channel_key: Some(key),
        ..WorkerConfig::default()
    });
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    let profile = NetProfile::custom(2.0, 1000.0);
    let ctx = FedContext::connect(&[WorkerEndpoint::tcp_with(
        addr.to_string(),
        profile,
        Some(key),
    )])
    .unwrap();

    ctx.call(0, &puts(500)).unwrap();
    let whole = scalar_bits(&ctx.call(0, &gets(500)).unwrap());
    let mut stack = ctx.connect_extra(0).unwrap();
    let before = ctx.stats().snapshot();
    let piped = scalar_bits(&pipelined(&mut *stack, gets(500)));
    let delta = ctx.stats().snapshot().delta(&before);

    assert_eq!(piped, whole, "encrypted pipelining is bitwise identical");
    assert_eq!(delta.messages_sent, BATCH);
    assert_eq!(delta.messages_received, BATCH);
    worker.shutdown();
}

/// A `ShapedChannel` over the unshaped LAN profile is a layer like any
/// other: it splits, and the halves carry eight envelopes ahead of their
/// replies to a worker serving behind another shaped channel. While
/// `split` could still refuse, this stack came back whole and `coordd`
/// marked the link down.
#[test]
fn lan_shaped_channel_splits_and_pipelines_at_window_8() {
    let worker = Worker::new(WorkerConfig::default());
    let (coord_side, worker_side) = mem_pair();
    let served = {
        let worker = Arc::clone(&worker);
        std::thread::spawn(move || {
            let shaped = ShapedChannel::new(worker_side, NetProfile::lan());
            worker.serve_connection(Box::new(shaped));
        })
    };
    let (tx, rx) = Box::new(ShapedChannel::new(coord_side, NetProfile::lan())).split();
    let mut coord = Duplex::from_halves(tx, rx);

    coord.send(&envelope(puts(900))).unwrap();
    let installed = RpcReply::from_bytes(&coord.recv().unwrap()).unwrap();
    assert!(installed.responses.iter().all(|r| *r == Response::Ok));
    let piped = scalar_bits(&pipelined(&mut coord, gets(900)));
    coord.send(&envelope(gets(900))).unwrap();
    let whole = RpcReply::from_bytes(&coord.recv().unwrap()).unwrap();
    assert_eq!(
        piped,
        scalar_bits(&whole.responses),
        "eight ahead is bitwise identical to one envelope"
    );
    drop(coord);
    served.join().unwrap();
}

/// Every layer is written once, on halves, so the same traffic over the
/// full stack `Instrumented(Shaped(Encrypted(Faulty(Mem))))` yields the
/// same payloads, the same injected failure and the same `NetStats`
/// whether the stack is used whole or through its split halves.
#[test]
fn full_stack_behaves_identically_whole_and_split() {
    /// Echoes delivered before the fault plan kills the link.
    const ALIVE: usize = 3;
    let run = |split: bool| {
        let stats = NetStats::shared();
        let key = ChannelKey::from_passphrase("stack");
        let (a, b) = mem_pair();
        let stack: Box<dyn Channel> = Box::new(InstrumentedChannel::new(
            ShapedChannel::new(
                EncryptedChannel::new(
                    FaultyChannel::new(a, FaultPlan::kill_after(7, ALIVE as u64)),
                    key,
                    true,
                ),
                NetProfile::custom(2.0, 100.0),
            ),
            Arc::clone(&stats),
        ));
        let mut held: Box<dyn Channel> = if split {
            let (tx, rx) = stack.split();
            Box::new(Duplex::from_halves(tx, rx))
        } else {
            stack
        };
        let peer = std::thread::spawn(move || {
            let mut server = EncryptedChannel::new(b, key, false);
            for _ in 0..ALIVE {
                let mut echo = server.recv().unwrap();
                echo.push(0xEC);
                server.send(&echo).unwrap();
            }
        });
        let mut echoes = Vec::new();
        for i in 0..ALIVE {
            held.send(&vec![i as u8; 100 * (i + 1)]).unwrap();
            echoes.push(held.recv().unwrap());
        }
        // The fourth send trips the kill; the peer is gone, so the
        // receive side fails too.
        let killed = held.send(b"one too many").unwrap_err().kind();
        peer.join().unwrap();
        assert!(held.recv().is_err());
        let counts = [
            stats.messages_sent(),
            stats.bytes_sent(),
            stats.messages_received(),
            stats.bytes_received(),
        ];
        (echoes, killed, counts)
    };
    let whole = run(false);
    assert_eq!(whole.0.len(), ALIVE);
    assert_eq!(
        whole.0[2].len(),
        301,
        "payloads survive seal, shape and echo"
    );
    assert_eq!(whole.1, io::ErrorKind::BrokenPipe);
    assert_eq!(
        whole.2[0],
        ALIVE as u64 + 1,
        "the killed send is still counted"
    );
    assert_eq!(
        whole,
        run(true),
        "split halves behave exactly like the whole"
    );
}
