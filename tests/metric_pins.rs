//! Pins every metric series one fixed workload emits: its name and kind,
//! the value of each counter that is not a time, and the sample count of
//! each histogram. A change to how the runtime records a fact (which
//! site writes it, under which name, on which path) shows up here as a
//! changed line.
//!
//! The workload runs on a two-worker in-memory federation at pool width
//! 1, so every count is a function of the workload alone:
//! - tensor ops, including a lineage reuse hit and an op on a compacted
//!   partition;
//! - a consolidate;
//! - a full and a delta checkpoint;
//! - a heartbeat sweep;
//! - one recovery from the checkpoint and one by initialization replay.
//!
//! This file is its own test binary with a single test: it owns the
//! process-global tracing flag and metrics registry.

use std::sync::Arc;
use std::time::Duration;

use exdra::core::supervision::HealthState;
use exdra::core::testutil::mem_federation;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::net::transport::Channel;
use exdra::{FedMatrix, PrivacyLevel, SupervisionPolicy, Supervisor, Tensor};

/// One line per registered series: `counter <name> = <value>` (just
/// `counter <name>` for a `_nanos` counter), `histogram <name> n=<count>`.
fn series_lines() -> Vec<String> {
    let snap = exdra::obs::global().snapshot();
    let mut lines: Vec<String> = snap
        .counters
        .iter()
        .map(|(name, v)| match name.ends_with("_nanos") {
            true => format!("counter {name}"),
            false => format!("counter {name} = {v}"),
        })
        .chain(
            snap.histograms
                .iter()
                .map(|(name, h)| format!("histogram {name} n={}", h.count)),
        )
        .collect();
    lines.sort();
    lines
}

/// A stand-in for a restarted worker: a fresh, empty one on a new
/// in-memory channel.
fn replacement() -> Box<exdra::core::supervision::ReconnectFn> {
    let fresh = Worker::new(WorkerConfig::default());
    Box::new(move |_w| Some(Box::new(fresh.serve_mem()) as Box<dyn Channel>))
}

fn run_workload() {
    let (ctx, workers) = mem_federation(2);
    let x = rand_matrix(40, 4, 0.0, 4.0, 11).map(f64::floor);
    let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
    let t = Tensor::Fed(fed.clone());

    // The second tsmm is served from each worker's lineage cache.
    let gram = t.tsmm().unwrap();
    assert_eq!(gram, t.tsmm().unwrap());
    // Three deferred element-wise steps, carried by the fetch.
    t.scalar_op(BinaryOp::Mul, 2.0, false)
        .unwrap()
        .unary(UnaryOp::Abs)
        .unwrap()
        .col_sums()
        .unwrap()
        .to_local()
        .unwrap();
    t.matmul(&Tensor::Local(rand_matrix(4, 2, -1.0, 1.0, 12)))
        .unwrap()
        .to_local()
        .unwrap();

    // Compact every idle partition, then aggregate on the column groups.
    let compacted: usize = workers.iter().map(|w| w.compact(0, Duration::ZERO)).sum();
    assert!(compacted >= 2, "both partitions compacted");
    t.col_sums().unwrap().to_local().unwrap();
    assert_eq!(fed.consolidate().unwrap(), x);

    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    assert_eq!(sup.checkpoint_once(), vec![0, 1], "full snapshots");
    let shifted = t.scalar_op(BinaryOp::Add, 1.0, false).unwrap();
    let shifted_sums = shifted.col_sums().unwrap().to_local().unwrap();
    assert_eq!(sup.checkpoint_once(), vec![0, 1], "deltas");
    assert_eq!(sup.heartbeat_once(), vec![HealthState::Healthy; 2]);

    // Worker 1 comes back from its checkpoint.
    sup.set_reconnector(replacement());
    workers[1].shutdown();
    sup.notify_worker_dead(1);
    sup.wait_recoveries();
    assert_eq!(sup.detector().state(1), HealthState::Healthy);
    assert_eq!(
        shifted.col_sums().unwrap().to_local().unwrap(),
        shifted_sums,
        "the restored partition"
    );

    // Worker 0 is recovered by a supervisor that never checkpointed it:
    // initialization replay.
    let fresh = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    fresh.on_recovery(Arc::new(|_w, _ctx| Ok(())));
    fresh.set_reconnector(replacement());
    workers[0].shutdown();
    fresh.notify_worker_dead(0);
    fresh.wait_recoveries();
    assert_eq!(fresh.detector().state(0), HealthState::Healthy);
}

#[test]
fn the_pin_workload_emits_exactly_these_series() {
    exdra_par::set_threads(1);
    exdra::obs::reset();
    exdra::obs::set_enabled(true);
    run_workload();
    exdra::obs::set_enabled(false);
    let got = series_lines();
    let want: &[&str] = &[
        "counter checkpoint.bytes = 2560",
        "counter checkpoint.deltas = 4",
        "counter checkpoint.entries = 4",
        "counter checkpoint.full_snapshots = 2",
        "counter compress.exec.direct = 6",
        "counter fault.transitions.dead = 2",
        "counter fault.transitions.healthy = 2",
        "counter fault.transitions.recovering = 2",
        "counter lineage.worker.evictions = 0",
        "counter lineage.worker.hits = 3",
        "counter lineage.worker.misses = 17",
        "counter par.inst.*.calls = 2",
        "counter par.inst.*.chunks = 2",
        "counter par.inst.*.regions = 0",
        "counter par.inst.*.threads = 2",
        "counter par.inst.+.calls = 2",
        "counter par.inst.+.chunks = 2",
        "counter par.inst.+.regions = 0",
        "counter par.inst.+.threads = 2",
        "counter par.inst.abs.calls = 2",
        "counter par.inst.abs.chunks = 2",
        "counter par.inst.abs.regions = 0",
        "counter par.inst.abs.threads = 2",
        "counter par.inst.ba+*.calls = 2",
        "counter par.inst.ba+*.chunks = 2",
        "counter par.inst.ba+*.regions = 0",
        "counter par.inst.ba+*.threads = 2",
        "counter par.inst.sum.calls = 7",
        "counter par.inst.sum.chunks = 7",
        "counter par.inst.sum.regions = 0",
        "counter par.inst.sum.threads = 7",
        "counter par.inst.tsmm.calls = 2",
        "counter par.inst.tsmm.chunks = 2",
        "counter par.inst.tsmm.regions = 0",
        "counter par.inst.tsmm.threads = 2",
        "counter par.serial_regions = 24",
        "counter recovery.recovered = 2",
        "counter recovery.replays = 1",
        "counter recovery.restored_bytes = 1280",
        "counter recovery.restored_entries = 2",
        "counter recovery.restores = 1",
        "counter rpc.calls = 23",
        "counter rpc.deferred = 10",
        "counter rpc.heartbeats = 4",
        "counter rpc.requests = 67",
        "counter rpc.retries = 0",
        "counter worker.0.bytes_recv = 3753",
        "counter worker.0.bytes_sent = 1522",
        "counter worker.0.exec_nanos",
        "counter worker.0.net_nanos",
        "counter worker.0.requests = 33",
        "counter worker.0.retries = 0",
        "counter worker.0.rpcs = 11",
        "counter worker.0.serde_nanos",
        "counter worker.1.bytes_recv = 3802",
        "counter worker.1.bytes_sent = 2923",
        "counter worker.1.exec_nanos",
        "counter worker.1.net_nanos",
        "counter worker.1.requests = 34",
        "counter worker.1.retries = 0",
        "counter worker.1.rpcs = 12",
        "counter worker.1.serde_nanos",
        "histogram checkpoint.age_nanos n=2",
        "histogram checkpoint.delta_bytes n=4",
        "histogram inst.* n=2",
        "histogram inst.abs n=2",
        "histogram inst.ba+* n=2",
        "histogram inst.c.+ n=2",
        "histogram inst.c.sum n=4",
        "histogram inst.sum n=4",
        "histogram inst.tsmm n=4",
        "histogram recovery.checkpoint_age_nanos n=1",
        "histogram recovery.latency n=2",
        "histogram rpc.gate_wait n=23",
        "histogram rpc.latency n=23",
    ];
    assert_eq!(
        got,
        want,
        "\nseries now:\n{}\n",
        got.iter()
            .map(|l| format!("        {l:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
