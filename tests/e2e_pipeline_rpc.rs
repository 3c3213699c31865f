//! End-to-end pipelined-RPC scenarios over real loopback TCP: a WAN-shaped
//! channel shows the sliding window collapsing per-request round trips, a
//! worker killed mid-window drains into `WorkerDead` and recovers through
//! the supervisor with bitwise-identical results, and the full
//! encrypted+shaped+instrumented production stack pipelines correctly at
//! window 8. Two in-memory checks pin the transport stack itself: every
//! layer splits (even a shaped channel over the unshaped LAN profile), and
//! the full stack behaves identically held whole and held split.

use std::io;
use std::sync::Arc;

use exdra::core::coordinator::WorkerEndpoint;
use exdra::core::protocol::{Request, Response};
use exdra::core::supervision::Supervisor;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{DataValue, FedContext};
use exdra::fault::{FaultPlan, FaultyChannel};
use exdra::net::crypto::ChannelKey;
use exdra::net::sim::NetProfile;
use exdra::net::stats::NetStats;
use exdra::net::transport::{
    mem_pair, Channel, Duplex, EncryptedChannel, InstrumentedChannel, ShapedChannel, TcpChannel,
};
use exdra::{FedError, PrivacyLevel, SupervisionPolicy};

/// Requests per streamed batch.
const BATCH: u64 = 16;

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

/// The tentpole arc: a real TCP worker behind a WAN-shaped channel. The
/// transport-measured round-trip count of a 16-request batch (blocked
/// network time over one-way latency, via `NetStatsSnapshot::delta`)
/// shrinks at least 2x when the window opens from 1 to 8, with
/// bitwise-identical responses.
#[test]
fn wan_batch_round_trips_shrink_at_window_8() {
    let worker = Worker::new(WorkerConfig::default());
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    // 10 ms RTT, ample bandwidth: latency-bound like the paper's WAN,
    // scaled to keep the test under a second.
    let profile = NetProfile::custom(10.0, 1000.0);
    let one_way = profile.latency().as_nanos().max(1) as f64;
    let ctx =
        FedContext::connect(&[WorkerEndpoint::tcp_with(addr.to_string(), profile, None)]).unwrap();

    ctx.call(0, &puts(1)).unwrap();

    let trips_at = |window: usize| {
        let before = ctx.stats().snapshot();
        let responses = ctx.call_streamed(0, &gets(1), window).unwrap();
        let delta = ctx.stats().snapshot().delta(&before);
        (
            delta.network_nanos as f64 / one_way,
            scalar_bits(&responses),
            delta,
        )
    };

    let (trips_lockstep, bits_lockstep, _) = trips_at(1);
    let (trips_piped, bits_piped, delta_piped) = trips_at(8);

    assert_eq!(
        bits_lockstep, bits_piped,
        "pipelined responses bitwise identical to lock-step"
    );
    assert!(
        trips_piped * 2.0 <= trips_lockstep,
        "window 8 must halve measured round trips: {trips_piped:.2} vs {trips_lockstep:.2}"
    );
    assert_eq!(
        delta_piped.pipelined_messages, BATCH,
        "every streamed request counted"
    );
    assert!(
        delta_piped.max_inflight >= 2,
        "window actually opened: {}",
        delta_piped.max_inflight
    );
    worker.shutdown();
}

/// Killing the worker mid-window drains the in-flight requests into
/// `WorkerDead` (not a hang, not a misrouted reply), and after the
/// supervisor's checkpoint recovery the same streamed batch returns
/// bitwise-identical results from the replacement worker.
#[test]
fn killed_worker_mid_window_recovers_through_supervisor() {
    let worker = Worker::new(WorkerConfig::default());
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    let profile = NetProfile::custom(4.0, 1000.0);
    let ctx =
        FedContext::connect(&[WorkerEndpoint::tcp_with(addr.to_string(), profile, None)]).unwrap();
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    sup.heartbeat_once();

    // Install state, checkpoint it synchronously, and take the streamed
    // baseline through the open window.
    ctx.call(0, &puts(100)).unwrap();
    sup.checkpoint_worker(0).unwrap();
    let baseline = scalar_bits(&ctx.call_streamed(0, &gets(100), 8).unwrap());

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
        .call_streamed(0, &gets(100), 8)
        .expect_err("dead worker drains the window into an error");
    assert!(
        matches!(err, FedError::WorkerDead { .. }),
        "drained as WorkerDead, got {err:?}"
    );

    // Supervisor recovery restores the checkpoint onto the replacement;
    // the identical streamed batch then recomputes bitwise-identically.
    sup.notify_worker_dead(0);
    sup.wait_recoveries();
    let after = scalar_bits(&ctx.call_streamed(0, &gets(100), 8).unwrap());
    assert_eq!(baseline, after, "recovered stream is bitwise identical");
    assert!(
        !replacement.table().is_empty(),
        "checkpointed state restored onto the replacement"
    );
    assert!(ctx.stats().recoveries() >= 1, "NetStats counted recovery");
    replacement.shutdown();
}

/// Regression for the encrypted stack: ChaCha20 channel encryption must
/// not assume strict send/recv alternation. At window 8 the coordinator
/// seals eight request frames before opening any reply, over the full
/// production stack (encrypted + WAN-shaped + instrumented), and every
/// frame still authenticates and routes.
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
    let before = ctx.stats().snapshot();
    let piped = scalar_bits(&ctx.call_streamed(0, &gets(500), 8).unwrap());
    let delta = ctx.stats().snapshot().delta(&before);
    let lockstep = scalar_bits(&ctx.call_streamed(0, &gets(500), 1).unwrap());

    assert_eq!(piped, lockstep, "encrypted pipelining is bitwise identical");
    assert_eq!(delta.pipelined_messages, BATCH);
    assert!(
        delta.max_inflight >= 2,
        "burst sends actually overlapped on the encrypted stack: {}",
        delta.max_inflight
    );
    worker.shutdown();
}

/// A `ShapedChannel` over the unshaped LAN profile is a layer like any
/// other: it splits, so the coordinator in front of one opens a window of
/// 8 against a worker serving behind one. While `split` could still
/// refuse, this stack came back whole and `coordd` marked the link down.
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
    let coord = ShapedChannel::new(coord_side, NetProfile::lan());

    let ctx = FedContext::from_channels(vec![Box::new(coord)]).unwrap();
    ctx.call(0, &puts(900)).unwrap();
    let piped = scalar_bits(&ctx.call_streamed(0, &gets(900), 8).unwrap());
    let lockstep = scalar_bits(&ctx.call(0, &gets(900)).unwrap());
    assert_eq!(
        piped, lockstep,
        "window 8 is bitwise identical to lock-step"
    );
    assert_eq!(ctx.stats().pipelined_messages(), BATCH);
    assert_eq!(ctx.stats().max_inflight(), 8, "the window opened fully");
    drop(ctx);
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
