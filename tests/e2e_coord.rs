//! End-to-end multi-tenant coordinator scenarios: eight concurrent
//! sessions over one shared two-worker fleet produce results bitwise
//! identical to serial isolated runs — while one session is killed
//! mid-run (its namespace reaped, the others unaffected) and one worker
//! is killed mid-run (the service's supervisor restores every
//! namespace from checkpoints). Plus: typed admission rejection, the
//! TCP attach path, and cross-session plan-cache sharing.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use exdra::coord::{
    ChannelFactory, CoordConfig, CoordServer, CoordService, FairnessConfig, FleetSource,
};
use exdra::core::symbol::NS_SHIFT;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::matrix::rng::rand_matrix;
use exdra::{DenseMatrix, FedError, Lazy, Session, SupervisionPolicy};

const N_SESSIONS: usize = 8;
const N_WORKERS: usize = 2;

/// A swappable mem-worker fleet: the factory always serves channels to
/// the worker currently installed in each slot, so tests replace a
/// killed worker by swapping the slot.
struct Fleet {
    slots: Arc<std::sync::Mutex<Vec<Arc<Worker>>>>,
}

impl Fleet {
    fn new(n: usize) -> Self {
        let workers = (0..n)
            .map(|_| Worker::new(WorkerConfig::default()))
            .collect();
        Fleet {
            slots: Arc::new(std::sync::Mutex::new(workers)),
        }
    }

    fn factory(&self) -> ChannelFactory {
        let slots = Arc::clone(&self.slots);
        Arc::new(move |w: usize| {
            let worker = Arc::clone(&slots.lock().expect("fleet slots")[w]);
            Ok(Box::new(worker.serve_mem()) as _)
        })
    }

    fn worker(&self, w: usize) -> Arc<Worker> {
        Arc::clone(&self.slots.lock().expect("fleet slots")[w])
    }

    fn replace(&self, w: usize) -> Arc<Worker> {
        let fresh = Worker::new(WorkerConfig::default());
        self.slots.lock().expect("fleet slots")[w] = Arc::clone(&fresh);
        fresh
    }
}

fn fast_supervision() -> SupervisionPolicy {
    SupervisionPolicy {
        heartbeat_interval: Duration::from_millis(30),
        checkpoint_interval: Some(Duration::from_millis(40)),
    }
}

fn service_over(fleet: &Fleet, config: CoordConfig) -> Arc<CoordService> {
    CoordService::start(
        FleetSource::Factory {
            n_workers: N_WORKERS,
            factory: fleet.factory(),
        },
        config,
    )
    .expect("start coordinator service")
}

/// The per-session workload: scatter a seeded matrix and run two plans.
fn session_plans(sds: &Session, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let m = rand_matrix(60, 5, -1.0, 1.0, seed);
    let fed = sds.federated(&m).expect("scatter");
    let a = sds
        .compute(&fed.tsmm().expect("tsmm plan"))
        .expect("tsmm compute");
    let b = sds
        .compute(&fed.col_sums().expect("col_sums plan"))
        .expect("col_sums compute");
    (a, b)
}

/// Two plans over an already-scattered matrix, distinct per phase so
/// later phases carry fresh lineage (a cached plan would be answered
/// without ever touching the workers, which must not mask a kill).
fn phase_plans(sds: &Session, fed: &Lazy, phase: usize) -> (DenseMatrix, DenseMatrix) {
    let (pa, pb) = match phase {
        0 => (fed.tsmm().expect("plan a"), fed.col_sums().expect("plan b")),
        1 => (
            fed.col_means().expect("plan a"),
            fed.row_sums().expect("plan b"),
        ),
        _ => (
            fed.col_sds().expect("plan a"),
            fed.row_mins().expect("plan b"),
        ),
    };
    let a = sds.compute(&pa).expect("phase compute a");
    let b = sds.compute(&pb).expect("phase compute b");
    (a, b)
}

/// Serial baseline: the same workload on a dedicated single-tenant
/// federation (fresh workers, no coordinator).
fn serial_baseline(seed: u64) -> (DenseMatrix, DenseMatrix) {
    let (ctx, _workers) = exdra::core::testutil::mem_federation(N_WORKERS);
    let sds = Session::builder()
        .context(ctx)
        .no_supervision()
        .build()
        .expect("isolated session");
    session_plans(&sds, seed)
}

/// Serial baseline for the full three-phase workload: one scatter, all
/// six plans, on a dedicated single-tenant federation.
fn serial_baseline_phases(seed: u64) -> Vec<(DenseMatrix, DenseMatrix)> {
    let (ctx, _workers) = exdra::core::testutil::mem_federation(N_WORKERS);
    let sds = Session::builder()
        .context(ctx)
        .no_supervision()
        .build()
        .expect("isolated session");
    let m = rand_matrix(60, 5, -1.0, 1.0, seed);
    let fed = sds.federated(&m).expect("scatter");
    (0..3).map(|p| phase_plans(&sds, &fed, p)).collect()
}

/// The tentpole acceptance arc: ≥8 concurrent sessions on a shared
/// 2-worker fleet, bitwise identical to serial isolated runs, with one
/// session killed mid-run and one worker killed mid-run.
#[test]
fn eight_concurrent_sessions_match_serial_isolated_runs() {
    let fleet = Fleet::new(N_WORKERS);
    let service = service_over(
        &fleet,
        CoordConfig {
            supervision: fast_supervision(),
            ..CoordConfig::default()
        },
    );

    let expected: Vec<Vec<(DenseMatrix, DenseMatrix)>> =
        (0..N_SESSIONS as u64).map(serial_baseline_phases).collect();

    // Three synchronization points: after every session's first pass,
    // after the mid-run session kill, and after the mid-run worker kill.
    let after_first = Arc::new(Barrier::new(N_SESSIONS + 1));
    let after_session_kill = Arc::new(Barrier::new(N_SESSIONS)); // victim not included
    let after_worker_kill = Arc::new(Barrier::new(N_SESSIONS));
    const VICTIM: usize = 3;

    let handles: Vec<_> = (0..N_SESSIONS)
        .map(|i| {
            let service = Arc::clone(&service);
            let want = expected[i].clone();
            let after_first = Arc::clone(&after_first);
            let after_session_kill = Arc::clone(&after_session_kill);
            let after_worker_kill = Arc::clone(&after_worker_kill);
            std::thread::spawn(move || {
                let tenant = service.open_session().expect("admitted");
                let ns = tenant.namespace();
                let sds = Session::from_tenant(tenant).expect("tenant session");
                // Scatter once; the same federated partitions live
                // through both kill phases (restored from checkpoints
                // after the worker kill).
                let m = rand_matrix(60, 5, -1.0, 1.0, i as u64);
                let fed = sds.federated(&m).expect("scatter");
                let (a, b) = phase_plans(&sds, &fed, 0);
                assert_eq!(a.values(), want[0].0.values(), "session {i}: first pass");
                assert_eq!(b.values(), want[0].1.values(), "session {i}: first pass");
                after_first.wait();
                if i == VICTIM {
                    // Killed mid-run: drop without any cooperative wind-
                    // down; Drop reaps the namespace on the workers.
                    drop(sds);
                    return ns;
                }
                after_session_kill.wait();
                // Survivors keep computing after the victim died.
                let (a, b) = phase_plans(&sds, &fed, 1);
                assert_eq!(
                    a.values(),
                    want[1].0.values(),
                    "session {i}: after session kill"
                );
                assert_eq!(
                    b.values(),
                    want[1].1.values(),
                    "session {i}: after session kill"
                );
                after_worker_kill.wait();
                // ...and again after a worker was killed and restored
                // from checkpoints by the shared supervisor. Fresh plan
                // lineage forces real worker execution here.
                let (a, b) = phase_plans(&sds, &fed, 2);
                assert_eq!(
                    a.values(),
                    want[2].0.values(),
                    "session {i}: after worker kill"
                );
                assert_eq!(
                    b.values(),
                    want[2].1.values(),
                    "session {i}: after worker kill"
                );
                ns
            })
        })
        .collect();

    after_first.wait();

    // Phase 2 gate: wait until the victim's namespace is reaped on every
    // worker, then release the survivors.
    let mut victim_ns = 0;
    service.supervisor().wait_until(Duration::from_secs(5), || {
        victim_ns = (1..=N_SESSIONS as u64)
            .find(|ns| {
                (0..N_WORKERS).all(|w| fleet.worker(w).table().namespace_len(*ns) == 0)
                    && (0..N_WORKERS).any(|w| !fleet.worker(w).table().is_empty())
            })
            .unwrap_or(0);
        victim_ns != 0
    });
    // The victim thread returns its namespace; cross-check below.
    let survivors: Vec<u64> = (1..=N_SESSIONS as u64)
        .filter(|ns| *ns != victim_ns)
        .collect();
    for ns in &survivors {
        assert!(
            (0..N_WORKERS).any(|w| fleet.worker(w).table().namespace_len(*ns) > 0),
            "surviving namespace {ns} still holds worker state"
        );
    }
    after_session_kill.wait();

    // Phase 3 gate: wait for a checkpoint of worker 0 that covers every
    // survivor's partition AND has already folded in the victim's
    // removal (else the restore would either lose a survivor or
    // resurrect the reaped namespace). Then kill the worker and stand
    // in a replacement through the swapped factory.
    let checkpoint_settled = || {
        service
            .supervisor()
            .checkpoint_store()
            .snapshot(0)
            .is_some_and(|entries| {
                survivors
                    .iter()
                    .all(|ns| entries.iter().any(|e| e.id >> NS_SHIFT == *ns))
                    && !entries.iter().any(|e| e.id >> NS_SHIFT == victim_ns)
            })
    };
    assert!(
        service
            .supervisor()
            .wait_until(Duration::from_secs(5), checkpoint_settled),
        "background checkpoint of worker 0 covers all survivors and no victim state"
    );
    let doomed = fleet.worker(0);
    fleet.replace(0);
    doomed.shutdown();
    after_worker_kill.wait();

    let mut reaped = Vec::new();
    for h in handles {
        reaped.push(h.join().expect("session thread"));
    }
    assert_eq!(
        reaped[VICTIM], victim_ns,
        "observed reap matches the victim"
    );

    // The victim's namespace never resurrects — not even from restored
    // checkpoints — while every survivor's state did come back.
    for w in 0..N_WORKERS {
        assert_eq!(fleet.worker(w).table().namespace_len(victim_ns), 0);
    }
    service.stop();
}

#[test]
fn admission_control_rejects_with_typed_error() {
    let fleet = Fleet::new(N_WORKERS);
    let service = service_over(
        &fleet,
        CoordConfig {
            max_sessions: 2,
            admission_queue: 0,
            ..CoordConfig::default()
        },
    );
    let t1 = service.open_session().expect("first");
    let _t2 = service.open_session().expect("second");
    match service.open_session() {
        Err(FedError::SessionRejected { active, max }) => {
            assert_eq!(active, 2);
            assert_eq!(max, 2);
        }
        Ok(_) => panic!("expected SessionRejected, session was admitted"),
        Err(other) => panic!("expected SessionRejected, got {other:?}"),
    }
    // Freeing a slot re-admits.
    t1.close();
    let _t3 = service.open_session().expect("slot freed");
    service.stop();
}

#[test]
fn tcp_attach_rejection_and_namespace_isolation() {
    let fleet = Fleet::new(N_WORKERS);
    let service = service_over(
        &fleet,
        CoordConfig {
            max_sessions: 2,
            admission_queue: 0,
            supervision: fast_supervision(),
            ..CoordConfig::default()
        },
    );
    let server = CoordServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("serve");
    let addr = server.addr().to_string();

    let s1 = Session::attach(&addr).expect("attach 1");
    let s2 = Session::attach(&addr).expect("attach 2");
    match Session::attach(&addr) {
        Err(FedError::SessionRejected { active, max }) => {
            assert_eq!(active, 2);
            assert_eq!(max, 2);
        }
        Ok(_) => panic!("expected SessionRejected over TCP, session was admitted"),
        Err(other) => panic!("expected SessionRejected over TCP, got {other:?}"),
    }

    // Namespaced IDs: both sessions' symbols land in disjoint ranges.
    let ns1 = s1.attached().unwrap().namespace();
    let ns2 = s2.attached().unwrap().namespace();
    assert_ne!(ns1, ns2);
    let (a1, _) = session_plans(&s1, 100);
    let (a2, _) = session_plans(&s2, 200);
    let (e1, _) = serial_baseline(100);
    let (e2, _) = serial_baseline(200);
    assert_eq!(a1.values(), e1.values());
    assert_eq!(a2.values(), e2.values());
    let held1: usize = (0..N_WORKERS)
        .map(|w| fleet.worker(w).table().namespace_len(ns1))
        .sum();
    assert!(held1 > 0, "attached session state is namespaced");
    assert!(ns1 << NS_SHIFT > 0, "namespace occupies the high bits");

    // Killing the socket (drop without detach) reaps the namespace.
    drop(s1);
    let reaped = service.supervisor().wait_until(Duration::from_secs(5), || {
        (0..N_WORKERS)
            .map(|w| fleet.worker(w).table().namespace_len(ns1))
            .sum::<usize>()
            == 0
    });
    assert!(reaped, "abnormal disconnect reaps the namespace");
    // The other session is unaffected.
    let (a2b, _) = session_plans(&s2, 200);
    assert_eq!(a2b.values(), e2.values());

    drop(s2);
    server.stop();
    service.stop();
}

#[test]
fn tcp_attach_survives_worker_kill_via_server_side_recovery() {
    let fleet = Fleet::new(N_WORKERS);
    let service = service_over(
        &fleet,
        CoordConfig {
            supervision: fast_supervision(),
            ..CoordConfig::default()
        },
    );
    let server = CoordServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("serve");
    let sds = Session::attach(&server.addr().to_string()).expect("attach");

    let m = rand_matrix(50, 4, -1.0, 1.0, 77);
    let fed = sds.federated(&m).expect("scatter");
    let plan = fed.tsmm().expect("plan");
    let before = sds.compute(&plan).expect("first compute");

    // What col_sums over the same partitions should produce, from a
    // dedicated serial federation with the identical row split.
    let expect_cs = {
        let (ctx, _w) = exdra::core::testutil::mem_federation(N_WORKERS);
        let s = Session::builder()
            .context(ctx)
            .no_supervision()
            .build()
            .expect("baseline session");
        let f = s.federated(&m).expect("baseline scatter");
        s.compute(&f.col_sums().expect("baseline plan"))
            .expect("baseline compute")
    };

    // Wait for a checkpoint that actually covers this session's
    // partition (an early empty snapshot predating the scatter would
    // make the restore lose it), then kill worker 0 behind the
    // server's back.
    let ns = sds.attached().expect("attached").namespace();
    let checkpointed = || {
        service
            .supervisor()
            .checkpoint_store()
            .snapshot(0)
            .is_some_and(|entries| entries.iter().any(|e| e.id >> NS_SHIFT == ns))
    };
    assert!(
        service
            .supervisor()
            .wait_until(Duration::from_secs(5), checkpointed),
        "checkpoint covers the attached namespace"
    );
    let doomed = fleet.worker(0);
    fleet.replace(0);
    doomed.shutdown();

    // A fresh-lineage plan (never cached) trips over the dead worker;
    // recovery runs entirely server-side (checkpoint restore + fresh
    // tunnel) and the result is bitwise identical to the serial run.
    let after_cs = sds
        .compute(&fed.col_sums().expect("plan"))
        .expect("compute after worker kill");
    assert_eq!(expect_cs.values(), after_cs.values());
    // The pre-kill plan still answers with identical bytes.
    let again = sds.compute(&plan).expect("recompute");
    assert_eq!(before.values(), again.values());

    drop(sds);
    server.stop();
    service.stop();
}

/// Satellite acceptance: a real TCP worker killed mid-run leaves a
/// forensic record. The flight recorder dumps a `worker_death` incident
/// bundle that parses as JSON and contains the dead worker's last spans
/// (the rpc traffic that talked to it and the batches it executed),
/// while the computation itself completes through server-side recovery.
#[test]
fn tcp_worker_kill_dumps_incident_bundle() {
    use exdra::net::transport::{Channel, TcpChannel};
    use exdra::obs::export::Json;

    // Unique bundle directory: the recorder is process-global and other
    // tests in this binary kill worker 0 concurrently, so this test
    // kills worker 1 and filters incidents by detail.
    let dir = std::env::temp_dir().join(format!(
        "exdra-incidents-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    exdra::obs::recorder::set_output_dir(&dir);
    exdra::obs::recorder::set_enabled(true);
    exdra::obs::set_enabled(true);

    // A real TCP fleet: every slot serves loopback TCP and the factory
    // dials whatever worker currently owns the slot, so recovery after
    // a kill reconnects to the replacement.
    type TcpSlots = Arc<std::sync::Mutex<Vec<(Arc<Worker>, std::net::SocketAddr)>>>;
    let slots: TcpSlots = Arc::new(std::sync::Mutex::new(
        (0..N_WORKERS)
            .map(|_| {
                let w = Worker::new(WorkerConfig::default());
                let addr = w.serve_tcp("127.0.0.1:0").expect("serve tcp");
                (w, addr)
            })
            .collect(),
    ));
    let dial = Arc::clone(&slots);
    let factory: ChannelFactory = Arc::new(move |w: usize| {
        let addr = dial.lock().expect("slots")[w].1;
        TcpChannel::connect(addr)
            .map(|c| Box::new(c) as Box<dyn Channel>)
            .map_err(|e| FedError::Network(e.to_string()))
    });
    let service = CoordService::start(
        FleetSource::Factory {
            n_workers: N_WORKERS,
            factory,
        },
        CoordConfig {
            supervision: fast_supervision(),
            ..CoordConfig::default()
        },
    )
    .expect("start coordinator service");

    let tenant = service.open_session().expect("admitted");
    let ns = tenant.namespace();
    let sds = Session::from_tenant(tenant).expect("tenant session");
    let m = rand_matrix(60, 5, -1.0, 1.0, 91);
    let fed = sds.federated(&m).expect("scatter");
    let before = sds
        .compute(&fed.tsmm().expect("plan"))
        .expect("compute before kill");

    let expect_cs = {
        let (ctx, _w) = exdra::core::testutil::mem_federation(N_WORKERS);
        let s = Session::builder()
            .context(ctx)
            .no_supervision()
            .build()
            .expect("baseline session");
        let f = s.federated(&m).expect("baseline scatter");
        s.compute(&f.col_sums().expect("baseline plan"))
            .expect("baseline compute")
    };

    // Wait until worker 1's checkpoint covers this namespace, then kill
    // it behind the service's back and stand in a replacement on a
    // fresh loopback socket.
    let checkpointed = || {
        service
            .supervisor()
            .checkpoint_store()
            .snapshot(1)
            .is_some_and(|entries| entries.iter().any(|e| e.id >> NS_SHIFT == ns))
    };
    assert!(
        service
            .supervisor()
            .wait_until(Duration::from_secs(5), checkpointed),
        "checkpoint covers the tenant namespace"
    );
    let (doomed, _old_addr) = {
        let fresh = Worker::new(WorkerConfig::default());
        let addr = fresh.serve_tcp("127.0.0.1:0").expect("serve tcp");
        std::mem::replace(&mut slots.lock().expect("slots")[1], (fresh, addr))
    };
    doomed.shutdown();

    // A fresh-lineage plan trips over the dead worker; recovery restores
    // it server-side and the result matches the serial baseline.
    let after_cs = sds
        .compute(&fed.col_sums().expect("plan"))
        .expect("compute after worker kill");
    assert_eq!(expect_cs.values(), after_cs.values());
    let again = sds.compute(&fed.tsmm().expect("plan")).expect("recompute");
    assert_eq!(before.values(), again.values());

    // The recorder dumped a worker_death bundle for worker 1 — block on
    // the incident-ring signal instead of polling wall clock.
    let inc = exdra::obs::recorder::wait_for_incident(Duration::from_secs(5), |i| {
        i.kind == "worker_death" && i.detail.contains("worker 1") && !i.path.is_empty()
    })
    .expect("worker_death incident dumped a bundle");
    assert!(
        std::path::Path::new(&inc.path).starts_with(&dir),
        "bundle landed in the configured directory: {}",
        inc.path
    );
    let text = std::fs::read_to_string(&inc.path).expect("bundle readable");
    let doc = Json::parse(&text).expect("bundle parses as JSON");
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("worker_death"));
    assert!(doc
        .get("detail")
        .and_then(Json::as_str)
        .is_some_and(|d| d.contains("worker 1")));
    let Some(Json::Arr(spans)) = doc.get("spans") else {
        panic!("bundle carries a spans array");
    };
    assert!(!spans.is_empty(), "bundle preserves the pre-death spans");
    // The dead worker's last spans: rpc traffic addressed to worker 1
    // and the batches the fleet executed for this tenant.
    assert!(
        spans.iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("rpc.call")
                && s.get("attrs")
                    .and_then(|a| a.get("worker"))
                    .and_then(Json::as_f64)
                    == Some(1.0)
        }),
        "bundle contains rpc spans addressed to the dead worker"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("worker.batch")),
        "bundle contains the executed worker batches"
    );

    exdra::obs::recorder::set_enabled(false);
    exdra::obs::set_enabled(false);
    drop(sds);
    service.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_plan_cache_spans_in_process_and_tcp_sessions() {
    let fleet = Fleet::new(N_WORKERS);
    let service = service_over(&fleet, CoordConfig::default());
    let server = CoordServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("serve");

    // Tenant A computes a local-source plan (content-hashed lineage, so
    // every session producing this plan shares one cache key).
    let m = rand_matrix(40, 6, -1.0, 1.0, 55);
    let ta = service.open_session().expect("tenant a");
    let sa = Session::from_tenant(Arc::clone(&ta)).expect("session a");
    let pa = sa.matrix(m.clone()).matmul(&sa.matrix(m.clone()).t());
    let ra = sa.compute(&pa).expect("compute a");
    assert_eq!(ta.stats().cache_misses.load(Ordering::Relaxed), 1);

    // An attached session building the identical plan hits the shared
    // cache over the wire.
    let sb = Session::attach(&server.addr().to_string()).expect("attach b");
    let pb = sb.matrix(m.clone()).matmul(&sb.matrix(m.clone()).t());
    let hits_before = service.plan_cache().hits();
    let rb = sb.compute(&pb).expect("compute b");
    assert_eq!(ra.values(), rb.values());
    assert_eq!(
        service.plan_cache().hits(),
        hits_before + 1,
        "attached session served from the shared plan cache"
    );

    drop(sb);
    drop(sa);
    server.stop();
    service.stop();
}

#[test]
fn fair_scheduler_bounds_a_saturating_tenant() {
    // A fleet-level sanity check of the fairness path end to end: one
    // heavy tenant floods its credit budget while a light tenant's small
    // plans keep completing (the scheduler never lets the heavy tenant
    // hold more than its per-tenant cap).
    let fleet = Fleet::new(N_WORKERS);
    let service = service_over(
        &fleet,
        CoordConfig {
            fairness: FairnessConfig {
                per_tenant_inflight: 4,
                global_inflight: 8,
            },
            ..CoordConfig::default()
        },
    );
    let heavy = Session::from_tenant(service.open_session().expect("heavy")).expect("heavy");
    let light = Session::from_tenant(service.open_session().expect("light")).expect("light");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let flood = std::thread::spawn(move || {
        let m = rand_matrix(80, 6, -1.0, 1.0, 1);
        let fed = heavy.federated(&m).expect("heavy scatter");
        while !stop2.load(Ordering::Relaxed) {
            heavy
                .compute(&fed.tsmm().expect("plan"))
                .expect("heavy compute");
        }
    });

    let m = rand_matrix(20, 3, -1.0, 1.0, 2);
    let expect = {
        let (ctx, _w) = exdra::core::testutil::mem_federation(N_WORKERS);
        let s = Session::builder()
            .context(ctx)
            .no_supervision()
            .build()
            .unwrap();
        let fed = s.federated(&m).unwrap();
        s.compute(&fed.tsmm().unwrap()).unwrap()
    };
    let fed = light.federated(&m).expect("light scatter");
    for _ in 0..20 {
        let got = light
            .compute(&fed.tsmm().expect("plan"))
            .expect("light compute");
        assert_eq!(got.values(), expect.values());
    }
    assert!(
        service.scheduler().inflight() <= 8,
        "global in-flight bound holds"
    );
    stop.store(true, Ordering::Relaxed);
    flood.join().expect("heavy tenant thread");
    service.stop();
}
