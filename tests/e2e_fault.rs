//! End-to-end fault-tolerance scenarios: typed failures instead of hangs,
//! quorum training with dead workers, and the full seeded
//! kill → detect → recover → retry arc of the supervision subsystem.

use std::sync::Arc;

use exdra::core::coordinator::FaultPolicy;
use exdra::core::fed::FedMatrix;
use exdra::core::protocol::Request;
use exdra::core::supervision::{SupervisionPolicy, Supervisor};
use exdra::core::testutil::{mem_federation, tcp_federation};
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{DataValue, FedContext, PrivacyLevel, RuntimeError};
use exdra::fault::{FaultPlan, FaultyChannel, HealthState, RetryPolicy};
use exdra::ml::{scoring::accuracy, synth};
use exdra::net::transport::Channel;
use exdra::paramserv::{fed as psfed, AggregationMode, PsConfig};

/// Retry budget sized for tests: fail fast, still exercising retries.
fn fast_policy() -> FaultPolicy {
    FaultPolicy {
        retry: RetryPolicy::new(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(5),
            3,
        ),
        rpc_deadline: std::time::Duration::from_secs(5),
        ..FaultPolicy::default()
    }
}

#[test]
fn heartbeat_round_trips_over_mem_and_tcp() {
    let (mem_ctx, _mem_workers) = mem_federation(2);
    let (tcp_ctx, _tcp_workers) = tcp_federation(2);
    for ctx in [&mem_ctx, &tcp_ctx] {
        for w in 0..2 {
            let (epoch, load) = ctx.heartbeat(w).expect("heartbeat answers");
            assert!(epoch > 0, "epochs start at 1");
            assert_eq!(load, 0, "no data-path requests executed yet");
        }
        assert_eq!(ctx.stats().heartbeats(), 2);
    }
    // Heartbeats don't count as worker load; data requests do.
    mem_ctx
        .call(
            0,
            &[Request::Put {
                id: 1,
                data: DataValue::Scalar(1.0),
                privacy: PrivacyLevel::Public,
            }],
        )
        .unwrap();
    let (_, load) = mem_ctx.heartbeat(0).unwrap();
    assert_eq!(load, 1);
}

#[test]
fn killed_worker_mid_matmul_is_typed_worker_dead_mem() {
    let (ctx, workers) = mem_federation(2);
    ctx.set_fault_policy(fast_policy());
    let x = exdra::matrix::rng::rand_matrix(40, 6, -1.0, 1.0, 11);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let rhs = exdra::matrix::rng::rand_matrix(6, 3, -1.0, 1.0, 12);
    // Healthy matmul first.
    fed.matmul_rhs_local(&rhs).expect("healthy matmul");
    // Kill worker 1, then the same matmul must fail *typed*, not hang.
    // Its output stays federated, so the matmul itself is deferred: the
    // failure surfaces at the fetch that carries it.
    workers[1].shutdown();
    let err = fed
        .matmul_rhs_local(&rhs)
        .and_then(|t| t.to_local())
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerDead { worker: 1, .. }),
        "expected WorkerDead for worker 1, got {err:?}"
    );
}

#[test]
fn killed_worker_mid_matmul_is_typed_worker_dead_tcp() {
    let (ctx, workers) = tcp_federation(2);
    ctx.set_fault_policy(fast_policy());
    let x = exdra::matrix::rng::rand_matrix(40, 6, -1.0, 1.0, 13);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let rhs = exdra::matrix::rng::rand_matrix(6, 3, -1.0, 1.0, 14);
    fed.matmul_rhs_local(&rhs).expect("healthy matmul");
    workers[0].shutdown();
    let err = fed
        .matmul_rhs_local(&rhs)
        .and_then(|t| t.to_local())
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerDead { worker: 0, .. }),
        "expected WorkerDead for worker 0, got {err:?}"
    );
    // The retry machinery ran (reconnect attempts count as retries).
    assert!(ctx.stats().retries() > 0);
}

#[test]
fn paramserv_quorum_converges_with_one_of_three_workers_dead() {
    let (x, y) = synth::multi_class(300, 5, 3, 0.4, 31);
    let y1h = synth::one_hot(&y, 3);
    let net = exdra::ml::nn::Network::ffn(5, &[12], 3, 32);
    let (ctx, workers) = mem_federation(3);
    ctx.set_fault_policy(fast_policy());
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    // Setup (UDF shipment + label scatter) happens while all workers live.
    for w in &workers {
        psfed::install_ps_udf(w, net.clone());
    }
    let labels = psfed::scatter_labels(&fed, &y1h).unwrap();
    let sizes: Vec<usize> = fed.parts().iter().map(|p| p.len()).collect();
    let plan =
        exdra::paramserv::balance::plan(&sizes, exdra::paramserv::balance::BalanceStrategy::None);
    let data_ids = psfed::apply_balance(&fed, &labels, &plan).unwrap();
    // Worker 2 dies before training; quorum (≥ 1/2 of weight) tolerates it.
    workers[2].shutdown();
    let cfg = PsConfig {
        epochs: 6,
        seed: 33,
        aggregation: AggregationMode::Quorum { min_weight: 0.5 },
        ..PsConfig::default()
    };
    let run = psfed::train(fed.ctx(), &data_ids, &net, &cfg, &plan.weights).unwrap();
    // One partition skipped per epoch, and the run reports it.
    assert_eq!(run.skipped_updates, cfg.epochs);
    assert_eq!(run.epoch_losses.len(), cfg.epochs);
    // Still learns from the surviving two thirds of the data.
    let mut trained = net.clone();
    trained.set_params(&run.params).unwrap();
    let pred = trained.predict(&x).unwrap();
    assert!(accuracy(&pred, &y).unwrap() > 0.8);

    // Strict aggregation over the same dead federation fails typed.
    let strict = PsConfig {
        aggregation: AggregationMode::Strict,
        ..cfg
    };
    let err = psfed::train(fed.ctx(), &data_ids, &net, &strict, &plan.weights).unwrap_err();
    assert!(matches!(err, RuntimeError::WorkerDead { .. }));
}

#[test]
fn paramserv_quorum_fails_when_too_many_workers_die() {
    let (x, y) = synth::multi_class(120, 4, 2, 0.4, 41);
    let y1h = synth::one_hot(&y, 2);
    let net = exdra::ml::nn::Network::ffn(4, &[8], 2, 42);
    let (ctx, workers) = mem_federation(3);
    ctx.set_fault_policy(fast_policy());
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    for w in &workers {
        psfed::install_ps_udf(w, net.clone());
    }
    let labels = psfed::scatter_labels(&fed, &y1h).unwrap();
    let sizes: Vec<usize> = fed.parts().iter().map(|p| p.len()).collect();
    let plan =
        exdra::paramserv::balance::plan(&sizes, exdra::paramserv::balance::BalanceStrategy::None);
    let data_ids = psfed::apply_balance(&fed, &labels, &plan).unwrap();
    workers[1].shutdown();
    workers[2].shutdown();
    let cfg = PsConfig {
        epochs: 2,
        aggregation: AggregationMode::Quorum { min_weight: 0.5 },
        ..PsConfig::default()
    };
    let err = psfed::train(fed.ctx(), &data_ids, &net, &cfg, &plan.weights).unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerDead { .. }),
        "quorum loss must surface as WorkerDead, got {err:?}"
    );
}

/// The acceptance arc: a seeded [`FaultPlan`] kills the transport after N
/// sends; the detector walks `Healthy → Suspect → Dead`; the supervisor
/// re-establishes the channel to a restarted worker, replays its
/// initialization, and a retried RPC then succeeds.
#[test]
fn seeded_fault_plan_full_recovery_arc() {
    let worker = Worker::new(WorkerConfig::default());
    let mem = worker.serve_mem();
    // Deterministic plan: transport dies after 3 sends.
    let plan = FaultPlan::kill_after(0xfa17, 3);
    let faulty: Box<dyn Channel> =
        Box::new(FaultyChannel::new(Box::new(mem) as Box<dyn Channel>, plan));
    let ctx = FedContext::from_channels(vec![faulty]).unwrap();
    ctx.set_fault_policy(fast_policy());

    // Initialization the application would replay on recovery.
    let put = Request::Put {
        id: 7,
        data: DataValue::Scalar(7.7),
        privacy: PrivacyLevel::Public,
    };
    ctx.call(0, std::slice::from_ref(&put))
        .expect("send 1: put succeeds");
    ctx.call(0, &[Request::Get { id: 7 }])
        .expect("send 2: get succeeds");
    ctx.call(0, &[Request::Get { id: 7 }])
        .expect("send 3: last frame before the injected kill");

    let sup = Supervisor::new(
        Arc::clone(&ctx),
        SupervisionPolicy {
            checkpoint_interval: None,
            ..SupervisionPolicy::default()
        },
    );
    sup.on_recovery(Arc::new(move |w, ctx| {
        ctx.call(w, std::slice::from_ref(&put)).map(|_| ())
    }));

    // Send 4 trips the kill: every retry fails and the error is typed.
    let err = ctx
        .call(0, &[Request::Get { id: 7 }, Request::Get { id: 7 }])
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerDead { worker: 0, .. }),
        "got {err:?}"
    );

    // Healthy → Suspect → Dead via missed heartbeats.
    assert_eq!(sup.detector().state(0), HealthState::Healthy);
    for _ in 0..4 {
        sup.heartbeat_once();
    }
    assert_eq!(sup.detector().state(0), HealthState::Dead);

    // "Restart" the worker process (fresh epoch, empty symbol table) and
    // hand the supervisor a way to reach it.
    worker.shutdown();
    let restarted = Worker::new(WorkerConfig::default());
    let r = Arc::clone(&restarted);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r.serve_mem()) as Box<dyn Channel>)
    }));
    assert!(sup.recover(0).expect("recovery arc completes"));
    assert_eq!(sup.detector().state(0), HealthState::Healthy);
    assert!(restarted.epoch() > worker.epoch(), "restart = new epoch");

    // The retried RPC now succeeds against the replayed state.
    let rs = ctx.call(0, &[Request::Get { id: 7 }]).unwrap();
    match &rs[0] {
        exdra::core::protocol::Response::Data(DataValue::Scalar(v)) => {
            assert_eq!(*v, 7.7, "replayed value survived recovery");
        }
        other => panic!("expected replayed scalar, got {other:?}"),
    }
}

/// Fault injection composes with retries: a lossy-but-alive TCP channel
/// (drops + read timeouts) still completes every RPC transparently.
#[test]
fn dropped_frames_are_absorbed_by_retries_over_tcp() {
    use exdra::net::transport::{ChannelConfig, TcpChannel};
    let worker = Worker::new(WorkerConfig::default());
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    // Short read timeout: a dropped frame surfaces as TimedOut (transient)
    // instead of blocking forever.
    let cfg = ChannelConfig::all(std::time::Duration::from_millis(100));
    let tcp = TcpChannel::connect_with(addr, &cfg).unwrap();
    // Seeded 30% send-drop.
    let faulty: Box<dyn Channel> = Box::new(FaultyChannel::new(
        Box::new(tcp) as Box<dyn Channel>,
        FaultPlan::dropping(0xd10, 0.3),
    ));
    let ctx = FedContext::from_channels(vec![faulty]).unwrap();
    ctx.set_fault_policy(FaultPolicy {
        retry: RetryPolicy::new(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(10),
            8,
        ),
        rpc_deadline: std::time::Duration::from_secs(30),
        ..FaultPolicy::default()
    });
    for i in 0..20 {
        ctx.call(
            0,
            &[Request::Put {
                id: i,
                data: DataValue::Scalar(i as f64),
                privacy: PrivacyLevel::Public,
            }],
        )
        .expect("retries absorb injected drops");
    }
    assert!(
        ctx.stats().retries() > 0,
        "the seeded plan dropped at least one frame in 20 RPCs"
    );
}
