//! End-to-end observability: trace-context propagation across the RPC
//! boundary (in-memory and TCP), well-formed span trees, metrics counters
//! that agree with the actual request traffic — also under injected
//! faults — and span-derived network time cross-checked against the
//! transport-level `NetStats` accounting.
//!
//! The tracing flag, metrics registry, and span collector are process
//! globals, so every test in this binary serializes on one gate and
//! resets the observability layer while holding it.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

use exdra::core::coordinator::FaultPolicy;
use exdra::core::fed::FedMatrix;
use exdra::core::protocol::Request;
use exdra::core::testutil::{mem_federation, tcp_federation};
use exdra::core::{DataValue, FedContext, PrivacyLevel, Tensor};
use exdra::fault::{FaultPlan, FaultyChannel, RetryPolicy};
use exdra::matrix::rng::rand_matrix;
use exdra::net::transport::Channel;
use exdra::obs::{SpanKind, SpanRecord};

static GATE: Mutex<()> = Mutex::new(());

/// Claims the global observability layer for one test: waits out any
/// concurrently running obs test, clears spans + metrics, enables tracing.
fn obs_test() -> MutexGuard<'static, ()> {
    let g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    exdra::obs::reset();
    exdra::obs::set_enabled(true);
    g
}

/// Every span naming a parent must find that parent in the collected set,
/// in the same trace — no orphans, no cross-trace edges.
fn assert_well_formed_forest(spans: &[SpanRecord]) {
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        spans.iter().map(|s| (s.span_id, s)).collect();
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    for s in spans {
        if s.parent_id != 0 {
            let parent = by_id
                .get(&s.parent_id)
                .unwrap_or_else(|| panic!("span {} ({}) has unknown parent", s.span_id, s.name));
            assert_eq!(
                parent.trace_id, s.trace_id,
                "child {} crossed traces from its parent {}",
                s.name, parent.name
            );
        }
        assert_ne!(s.trace_id, 0, "recorded span {} carries a trace id", s.name);
    }
}

#[test]
fn trace_ids_propagate_coordinator_to_worker_mem_and_tcp() {
    for tcp in [false, true] {
        let _g = obs_test();
        let (ctx, _workers) = if tcp {
            tcp_federation(2)
        } else {
            mem_federation(2)
        };
        let x = rand_matrix(40, 4, -1.0, 1.0, 5);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let s = Tensor::Fed(fed).sum().unwrap();
        assert!(s.is_finite());
        exdra::obs::set_enabled(false);
        let spans = exdra::obs::take_spans();
        assert_well_formed_forest(&spans);

        let rpcs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "rpc.call").collect();
        let batches: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "worker.batch").collect();
        assert!(
            !rpcs.is_empty(),
            "coordinator recorded rpc spans (tcp={tcp})"
        );
        assert_eq!(
            rpcs.len(),
            batches.len(),
            "every rpc.call produced exactly one worker.batch (tcp={tcp})"
        );
        // The propagated context stitches worker spans under the exact
        // coordinator span that carried their envelope.
        for b in &batches {
            let parent = rpcs
                .iter()
                .find(|r| r.span_id == b.parent_id)
                .expect("worker.batch is parented by an rpc.call across the wire");
            assert_eq!(parent.trace_id, b.trace_id);
        }
        // Instructions executed inside the batch nest one level deeper.
        let insts: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Instruction))
            .collect();
        assert!(
            !insts.is_empty(),
            "the sum executed instructions (tcp={tcp})"
        );
        for i in &insts {
            let parent = batches
                .iter()
                .find(|b| b.span_id == i.parent_id)
                .expect("instruction span is parented by a worker.batch");
            assert_eq!(parent.trace_id, i.trace_id);
        }
    }
}

#[test]
fn remote_attach_stitches_spans_like_in_process() {
    use exdra::core::worker::{Worker, WorkerConfig};
    use std::sync::Arc;

    let _g = obs_test();
    // In-process fleet behind a real TCP attach front door. The service
    // supervisor is quieted down so every RPC in the collected forest
    // comes from the attached client.
    let workers: Vec<Arc<Worker>> = (0..2)
        .map(|_| Worker::new(WorkerConfig::default()))
        .collect();
    let fleet = workers.clone();
    let factory: exdra::coord::ChannelFactory = Arc::new(move |w: usize| {
        Ok(Box::new(fleet[w].serve_mem()) as Box<dyn exdra::net::transport::Channel>)
    });
    let service = exdra::coord::CoordService::start(
        exdra::coord::FleetSource::Factory {
            n_workers: 2,
            factory,
        },
        exdra::coord::CoordConfig {
            supervision: exdra::SupervisionPolicy {
                heartbeat_interval: std::time::Duration::from_secs(60),
                checkpoint_interval: None,
            },
            ..exdra::coord::CoordConfig::default()
        },
    )
    .unwrap();
    let server = exdra::coord::CoordServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();

    let sds = exdra::Session::attach(&server.addr().to_string()).unwrap();
    let m = rand_matrix(60, 5, -1.0, 1.0, 41);
    let fed = sds.federated(&m).unwrap();
    let plan = fed.tsmm().unwrap();
    let got = sds.compute(&plan).unwrap();
    let want = exdra::Session::local()
        .matrix(m)
        .tsmm()
        .unwrap()
        .compute()
        .unwrap();
    assert!(got.max_abs_diff(&want) < 1e-10);
    drop(sds);
    server.stop();
    service.stop();
    exdra::obs::set_enabled(false);

    let spans = exdra::obs::take_spans();
    assert_well_formed_forest(&spans);

    // The client's rpc spans stitch to worker.batch spans exactly like
    // an in-process from_tenant session: every batch is parented by the
    // rpc span whose envelope carried it, in the same trace.
    let rpcs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "rpc.call").collect();
    let batches: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "worker.batch").collect();
    assert!(!rpcs.is_empty(), "attached session recorded rpc spans");
    assert!(!batches.is_empty(), "fleet recorded worker.batch spans");
    for b in &batches {
        let parent = rpcs
            .iter()
            .find(|r| r.span_id == b.parent_id)
            .expect("worker.batch is parented by a client rpc span across two hops");
        assert_eq!(parent.trace_id, b.trace_id);
    }
    // The coordinator hop itself shows up in the same forest: one
    // coord.forward span per forwarded frame, a sibling of the batch
    // under the same rpc span.
    let fwds: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "coord.forward").collect();
    assert!(
        !fwds.is_empty(),
        "the coordinator recorded its forwarding hop"
    );
    for f in &fwds {
        let parent = rpcs
            .iter()
            .find(|r| r.span_id == f.parent_id)
            .expect("coord.forward is parented by the client rpc span it forwarded");
        assert_eq!(parent.trace_id, f.trace_id);
    }
}

#[test]
fn explain_analyze_attributes_lm_wall_time() {
    let _g = obs_test();
    // explain_analyze force-enables tracing itself; start from off to
    // prove the restore works on an untraced session.
    exdra::obs::set_enabled(false);
    let (ctx, _workers) = mem_federation(2);
    let sds = exdra::Session::builder()
        .context(ctx)
        .no_supervision()
        .build()
        .unwrap();
    // The lmDS normal-equations core (paper fig. 5): X^T X | X^T y over
    // a row-partitioned federated X.
    let x = rand_matrix(400, 8, -1.0, 1.0, 29);
    let y = rand_matrix(400, 1, -1.0, 1.0, 30);
    let fx = sds.federated(&x).unwrap();
    let plan = fx
        .tsmm()
        .unwrap()
        .cbind(&fx.t_matmul(&sds.matrix(y.clone())));
    let (result, ex) = sds.explain_analyze(&plan).unwrap();

    let local = exdra::Session::local().matrix(x);
    let want = local
        .tsmm()
        .unwrap()
        .cbind(&local.t_matmul(&exdra::Session::local().matrix(y)))
        .compute()
        .unwrap();
    assert!(result.max_abs_diff(&want) < 1e-10);

    // The unified report carries the plan sections and the analysis.
    assert!(ex.logical.contains("tsmm"), "{}", ex.logical);
    let an = ex.analysis().expect("analyzed section present after run");
    assert!(
        an.attribution() >= 0.95,
        "explain attributed only {:.1}% of wall time",
        an.attribution() * 100.0
    );
    assert!(an.wall_nanos > 0);
    assert!(!an.critical_path.is_empty(), "critical path extracted");
    assert!(
        !an.per_opcode.is_empty(),
        "instruction spans rolled up into per-opcode costs"
    );
    assert!(an.dominant_opcode().is_some());
    assert!(
        !an.per_worker.is_empty(),
        "rpc spans rolled up into per-worker costs"
    );
    // The rendered report and persisted profile are well-formed.
    let rendered = format!("{ex}");
    assert!(rendered.contains("EXPLAIN"), "{rendered}");
    assert!(rendered.contains("EXPLAIN ANALYZE"), "{rendered}");
    assert!(exdra::obs::export::Json::parse(&ex.to_json()).is_ok());
    assert!(exdra::obs::export::Json::parse(&an.cost_profile_json()).is_ok());
    assert!(
        !exdra::obs::enabled(),
        "explain_analyze restored the tracing flag"
    );
}

#[test]
fn the_legs_of_one_op_are_sibling_spans_under_the_callers() {
    let _g = obs_test();
    let (ctx, _workers) = mem_federation(3);
    let x = rand_matrix(30, 4, -1.0, 1.0, 21);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    exdra::obs::take_spans();
    let op = exdra::obs::span(SpanKind::Session, "test.op");
    let op_id = op.context().span_id;
    Tensor::Fed(fed).sum().unwrap();
    drop(op);
    // Closing in opening order left the thread's span stack balanced.
    assert!(exdra::obs::current().is_none());
    exdra::obs::set_enabled(false);
    let spans = exdra::obs::take_spans();
    assert_well_formed_forest(&spans);
    let legs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "rpc.call").collect();
    assert_eq!(legs.len(), 3, "one leg per worker");
    for leg in &legs {
        assert_eq!(leg.parent_id, op_id, "a leg is the caller's child");
    }
    // Scatter then gather: every leg was open before the first closed.
    let last_start = legs.iter().map(|s| s.start_unix_nanos).max().unwrap();
    let first_end = legs.iter().map(|s| s.start_unix_nanos + s.duration_nanos);
    assert!(last_start <= first_end.min().unwrap());
}

#[test]
fn deferred_requests_are_counted_and_attributed_to_their_carrier() {
    let _g = obs_test();
    let (ctx, _workers) = mem_federation(2);
    let x = rand_matrix(20, 3, -1.0, 1.0, 77);
    let fed = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let w = Tensor::Local(rand_matrix(3, 3, -1.0, 1.0, 78));
    let calls = exdra::obs::global().snapshot().counter("rpc.calls");
    // Per worker: PUT w + ba+*, then softmax: three deferred requests and
    // no RPC; the two rmvars (w, the matmul output) ride along uncounted.
    let p = fed.matmul(&w).unwrap().softmax().unwrap();
    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("rpc.deferred"), 6);
    assert_eq!(m.counter("rpc.calls"), calls, "nothing sent yet");
    p.to_local().unwrap();
    exdra::obs::set_enabled(false);
    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("rpc.calls"), calls + 2, "one carrier per worker");
    assert_eq!(m.counter("rpc.deferred"), 6);
    let spans = exdra::obs::take_spans();
    let attr = |s: &SpanRecord, key: &str| {
        let found = s.attrs.iter().find(|(k, _)| *k == key);
        found.map(|(_, v)| v.to_string())
    };
    let carriers: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "rpc.call" && attr(s, "deferred").as_deref() == Some("5"))
        .collect();
    assert_eq!(carriers.len(), 2, "each fetch carried its worker's five");
    for c in carriers {
        assert_eq!(attr(c, "requests").as_deref(), Some("6"));
        assert_eq!(attr(c, "kinds").as_deref(), Some("PUT,EXEC_INST x4,GET"));
    }
}

#[test]
fn metrics_say_which_form_of_a_compacted_partition_ran() {
    let _g = obs_test();
    let (ctx, workers) = mem_federation(2);
    let x = rand_matrix(200, 4, 0.0, 4.0, 79).map(f64::floor);
    let fed = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let compact = || -> usize {
        let idle = std::time::Duration::ZERO;
        workers.iter().map(|w| w.compact(0, idle)).sum()
    };
    assert_eq!(compact(), 2);
    // A solver's loop, per worker: three mmchains rent the column groups
    // (six cell-passes), the fourth decompresses first and runs on the
    // twin it leaves behind, the other six find the twin, and so does the
    // tsmm, which has no column-group kernel.
    for i in 0..10 {
        let v = rand_matrix(4, 1, -1.0, 1.0, 80 + i);
        fed.mmchain(&v, None).unwrap();
    }
    fed.tsmm().unwrap();
    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("compress.exec.direct"), 2 * 3);
    assert_eq!(m.counter("compress.twin.materialized"), 2);
    assert_eq!(
        m.counter("compress.exec.fallback"),
        2,
        "one decompression each"
    );
    assert_eq!(m.counter("compress.twin.hits"), 2 * (6 + 1));
    assert_eq!(m.counter("compress.twin.dropped"), 0);
    let samples = |name: &str| m.histograms.get(name).map_or(0, |h| h.count);
    assert_eq!(samples("inst.decompress"), 2);
    assert_eq!(samples("inst.c.mmchain"), 2 * 3);
    assert_eq!(
        samples("inst.mmchain"),
        2 * 7,
        "on the twin: the dense opcode"
    );
    assert_eq!(samples("inst.tsmm"), 2);
    // Looking for a twin is not a reuse probe.
    assert_eq!(m.counter("lineage.worker.hits"), 0);
    assert_eq!(m.counter("lineage.worker.misses"), 2 * 11);
    // Idle workers let go of their twins.
    assert_eq!(compact(), 0);
    exdra::obs::set_enabled(false);
    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("compress.twin.dropped"), 2);
}

#[test]
fn metrics_counters_match_issued_request_counts() {
    let _g = obs_test();
    let (ctx, _workers) = mem_federation(2);
    // Hand-issued puts: no federated values go out of scope here, so the
    // outboxes stay empty, nothing rides along in the envelopes and the
    // request math is exact.
    for i in 0..7u64 {
        ctx.call(
            0,
            &[Request::Put {
                id: 1000 + i,
                data: DataValue::Scalar(i as f64),
                privacy: PrivacyLevel::Public,
            }],
        )
        .unwrap();
    }
    ctx.call(1, &[Request::Get { id: 9999 }, Request::Get { id: 9998 }])
        .ok(); // failed gets still count as served requests
    ctx.heartbeat(0).unwrap();
    exdra::obs::set_enabled(false);

    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("rpc.calls"), 8);
    assert_eq!(m.counter("rpc.requests"), 9);
    assert_eq!(m.counter("rpc.heartbeats"), 1);
    assert_eq!(m.counter("worker.0.rpcs"), 7);
    assert_eq!(m.counter("worker.0.requests"), 7);
    assert_eq!(m.counter("worker.1.rpcs"), 1);
    assert_eq!(m.counter("worker.1.requests"), 2);
    assert_eq!(m.counter("rpc.retries"), 0);
    let lat = m
        .histograms
        .get("rpc.latency")
        .expect("rpc latency histogram recorded");
    assert_eq!(lat.count, 8);

    let spans = exdra::obs::take_spans();
    assert_well_formed_forest(&spans);
    assert_eq!(
        spans.iter().filter(|s| s.name == "rpc.call").count() as u64,
        m.counter("rpc.calls"),
        "one rpc.call span per counted call"
    );
    assert_eq!(
        spans.iter().filter(|s| s.name == "rpc.heartbeat").count(),
        1
    );
}

#[test]
fn counters_and_spans_stay_consistent_under_injected_drops() {
    let _g = obs_test();
    // Lossy-but-alive TCP link, exactly the fault-tolerance e2e setup:
    // drops surface as read timeouts and are absorbed by retries.
    use exdra::net::transport::{ChannelConfig, TcpChannel};
    let worker = exdra::core::worker::Worker::new(exdra::core::worker::WorkerConfig::default());
    let addr = worker.serve_tcp("127.0.0.1:0").unwrap();
    let cfg = ChannelConfig::all(std::time::Duration::from_millis(100));
    let tcp = TcpChannel::connect_with(addr, &cfg).unwrap();
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
    for i in 0..20u64 {
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
    exdra::obs::set_enabled(false);

    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("rpc.calls"), 20);
    assert_eq!(m.counter("rpc.requests"), 20);
    assert!(m.counter("rpc.retries") > 0, "seeded plan dropped frames");
    // The metrics registry and the transport-level NetStats count the
    // same retry events through independent code paths.
    assert_eq!(m.counter("rpc.retries"), ctx.stats().retries());
    assert_eq!(m.counter("worker.0.retries"), ctx.stats().retries());
    assert_eq!(m.counter("worker.0.rpcs"), 20);

    let spans = exdra::obs::take_spans();
    assert_well_formed_forest(&spans);
    assert_eq!(spans.iter().filter(|s| s.name == "rpc.call").count(), 20);
}

#[test]
fn span_network_time_agrees_with_netstats_over_tcp() {
    let _g = obs_test();
    let (ctx, _workers) = tcp_federation(2);
    // Enough traffic for timing noise to average out.
    let x = rand_matrix(2000, 32, -1.0, 1.0, 17);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    for _ in 0..5 {
        let s = Tensor::Fed(fed.clone()).sum().unwrap();
        assert!(s.is_finite());
    }
    exdra::obs::set_enabled(false);

    let m = exdra::obs::global().snapshot();
    let span_net: u64 = (0..2)
        .map(|w| m.counter(&format!("worker.{w}.net_nanos")))
        .sum();
    let stats_net = ctx.stats().network_nanos();
    assert!(stats_net > 0 && span_net > 0);
    // The coordinator's per-RPC timer brackets the same send+recv window
    // the instrumented channel measures; the acceptance bound is ±20%.
    let ratio = span_net as f64 / stats_net as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "span-derived network time diverged from NetStats: \
         spans {span_net}ns vs transport {stats_net}ns (ratio {ratio:.3})"
    );
}

#[test]
fn disabled_layer_records_nothing() {
    let _g = obs_test();
    exdra::obs::set_enabled(false);
    exdra::obs::reset();
    let (ctx, _workers) = mem_federation(1);
    ctx.call(
        0,
        &[Request::Put {
            id: 1,
            data: DataValue::Scalar(1.0),
            privacy: PrivacyLevel::Public,
        }],
    )
    .unwrap();
    ctx.heartbeat(0).unwrap();
    assert!(
        exdra::obs::take_spans().is_empty(),
        "no spans when disabled"
    );
    let m = exdra::obs::global().snapshot();
    assert_eq!(m.counter("rpc.calls"), 0);
    assert_eq!(m.counter("rpc.heartbeats"), 0);
    // Transport accounting is orthogonal and still works.
    assert_eq!(ctx.stats().heartbeats(), 1);
}
