//! The seven workloads. Each module turns generated inputs into a ready
//! [`Workload`]: federation spawned, partitions installed, one warm-up
//! pass run and checked against its oracle. The harness then times
//! [`Workload::pass`] in a closed loop.

use std::collections::BTreeMap;
use std::sync::Arc;

use exdra::core::coordinator::WorkerEndpoint;
use exdra::core::fed::{FedMatrix, FedPartition};
use exdra::core::testutil::mem_federation_with;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{FedContext, PartitionScheme, PrivacyLevel};
use exdra::matrix::kernels::reorg;
use exdra::matrix::DenseMatrix;
use exdra::net::sim::NetProfile;

use crate::trace::Tracer;

pub mod algos;
pub mod churn;
pub mod compressed;
pub mod p2;
pub mod tenants;
pub mod wan;

/// Every federated workload runs over this many in-process workers.
pub const WORKERS: usize = 2;

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Checksum over the bits of every output of the pass.
    pub checksum: u64,
    /// Operations attempted inside the pass besides the pass itself
    /// (computes on `tenants`, training rounds on `churn_stream`).
    pub ops: u64,
    /// How many of those failed (an `Err` or a refused session).
    pub failed_ops: u64,
    /// Per-operation latencies in milliseconds, where the workload has a
    /// per-request latency (`tenants`).
    pub op_latencies_ms: Vec<f64>,
    /// Wall time of each training round that absorbed a worker kill.
    pub recovery_ms: Vec<f64>,
}

/// Cumulative counters of the layers below a workload, read before and
/// after a pass; the per-pass value is the difference.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    pub wire_bytes: u64,
    pub bytes_received: u64,
    pub messages: u64,
    pub messages_received: u64,
    pub requests: u64,
    pub max_inflight: u64,
}

impl Counters {
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes.saturating_sub(earlier.wire_bytes),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            messages: self.messages.saturating_sub(earlier.messages),
            messages_received: self
                .messages_received
                .saturating_sub(earlier.messages_received),
            requests: self.requests.saturating_sub(earlier.requests),
            // High-water marks do not subtract.
            max_inflight: self.max_inflight,
        }
    }
}

/// What the passes of a traced run measured, handed to the layer probes.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    /// Median untraced pass time of this run.
    pub p50_s: f64,
    /// Median per-pass counter deltas.
    pub counters: Counters,
}

/// Per-layer metric values by name; see `spec::PER_LAYER`.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// A workload that is set up and verified, ready to be timed.
pub trait Workload {
    /// Runs the workload's fixed unit of work once. An `Err` is a failed
    /// pass; it must leave the workload usable for the next one.
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String>;

    /// The checksum every pass must reproduce (set by the warm-up pass
    /// after it was checked against the oracle).
    fn expected(&self) -> u64;

    /// Cumulative counters of the federation under this workload.
    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// Times calls into the layers this workload exercises, on inputs
    /// captured from it, and reads their public counters.
    fn probe_layers(&mut self, tr: &Tracer, stats: &PassStats, out: &mut LayerMetrics);

    /// Stops every worker and thread the workload started.
    fn teardown(self: Box<Self>);
}

/// The generated inputs and pinned sizes of one workload; `build` is the
/// set-up the benchmark times.
pub trait Recipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String>;
}

/// Generates the inputs of workload `name` from `seed`.
pub fn recipe(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Recipe>> {
    Some(match name {
        "local_algos" => Box::new(algos::AlgosRecipe::local(seed, smoke)),
        "lan_algos" => Box::new(algos::AlgosRecipe::lan(seed, smoke)),
        "wan_rounds" => Box::new(wan::WanRecipe::new(seed, smoke)),
        "lan_compressed" => Box::new(compressed::CompressedRecipe::new(seed, smoke)),
        "p2_pipeline" => Box::new(p2::P2Recipe::new(seed, smoke)),
        "tenants" => Box::new(tenants::TenantsRecipe::new(seed, smoke)),
        "churn_stream" => Box::new(churn::ChurnRecipe::new(seed, smoke)),
        _ => return None,
    })
}

/// How a federation's coordinator reaches its in-process workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Link {
    /// Unshaped loopback TCP on ephemeral ports.
    LanTcp,
    /// Loopback TCP shaped to a WAN profile.
    WanTcp(NetProfile),
    /// In-memory channels.
    Mem,
}

/// An in-process federation: a coordinator context and its workers.
pub struct Federation {
    pub ctx: Arc<FedContext>,
    pub workers: Vec<Arc<Worker>>,
    /// Listening addresses of TCP workers (ephemeral loopback ports).
    addrs: Vec<std::net::SocketAddr>,
    /// Whether the coordinator's channels are WAN-shaped.
    shaped: bool,
}

impl Federation {
    /// Spawns [`WORKERS`] workers behind `link`. Worker-side lineage reuse
    /// is off so every repetition of a deterministic plan really executes.
    pub fn spawn(link: Link) -> Self {
        let config = || WorkerConfig {
            reuse_enabled: false,
            ..WorkerConfig::default()
        };
        if link == Link::Mem {
            let (ctx, workers) = mem_federation_with(WORKERS, config);
            return Self {
                ctx,
                workers,
                addrs: Vec::new(),
                shaped: false,
            };
        }
        let workers: Vec<Arc<Worker>> = (0..WORKERS).map(|_| Worker::new(config())).collect();
        let addrs: Vec<std::net::SocketAddr> = workers
            .iter()
            .map(|w| w.serve_tcp("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let endpoints: Vec<WorkerEndpoint> = addrs
            .iter()
            .map(|a| match link {
                Link::WanTcp(profile) => WorkerEndpoint::tcp_with(a.to_string(), profile, None),
                Link::LanTcp | Link::Mem => WorkerEndpoint::tcp(a.to_string()),
            })
            .collect();
        let ctx = FedContext::connect(&endpoints).expect("connect to workers");
        Self {
            ctx,
            workers,
            addrs,
            shaped: matches!(link, Link::WanTcp(_)),
        }
    }

    /// Installs row partitions of `x` directly into the workers: the data
    /// already lives at the sites, as in the paper's deployment (§5.1).
    pub fn scatter(&self, x: &DenseMatrix) -> FedMatrix {
        let n = self.workers.len();
        let (base, extra) = (x.rows() / n, x.rows() % n);
        let mut parts = Vec::with_capacity(n);
        let mut lo = 0usize;
        for (w, worker) in self.workers.iter().enumerate() {
            let hi = lo + base + usize::from(w < extra);
            let id = self.ctx.fresh_id();
            let slice = reorg::index(x, lo, hi, 0, x.cols()).expect("row slice");
            worker.install_matrix(id, slice, PrivacyLevel::Public, &format!("bench-{w}-{id}"));
            parts.push(FedPartition {
                lo,
                hi,
                worker: w,
                id,
            });
            lo = hi;
        }
        FedMatrix::from_parts(
            Arc::clone(&self.ctx),
            PartitionScheme::Row,
            x.rows(),
            x.cols(),
            parts,
            PrivacyLevel::Public,
            false,
        )
        .expect("federation map")
    }

    /// Network and request counters of this federation so far.
    pub fn counters(&self) -> Counters {
        let s = self.ctx.stats().snapshot();
        Counters {
            wire_bytes: s.bytes_sent + s.bytes_received,
            bytes_received: s.bytes_received,
            messages: s.messages_sent + s.messages_received,
            messages_received: s.messages_received,
            requests: self.workers.iter().map(|w| u64::from(w.load())).sum(),
            max_inflight: s.max_inflight,
        }
    }

    /// Stops the workers and waits until they have released what they
    /// held, so the next set-up starts from the same memory every time.
    /// The caller drops its other handles on the context (federated
    /// matrices, sessions) first. A worker's accept loop only notices the
    /// shutdown flag when a connection arrives: knock once on every
    /// listener after raising it.
    pub fn shutdown(self) {
        let _ = self.ctx.clear_all();
        for w in &self.workers {
            w.shutdown();
        }
        // Closing the coordinator's side ends the connection threads.
        drop(self.ctx);
        for a in &self.addrs {
            let _ = std::net::TcpStream::connect(a);
        }
        // A shaped channel's pump thread keeps its socket half open, so a
        // WAN worker's connection thread never sees the close: do not
        // wait for those (their tables are already empty).
        let wait = if self.shaped { 0 } else { 2 };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait);
        while self.workers.iter().any(|w| Arc::strong_count(w) > 1)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// The first row partition of `x` under [`Federation::scatter`]: what one
/// worker's kernels see.
pub fn first_partition(x: &DenseMatrix) -> DenseMatrix {
    let rows = x.rows() / WORKERS + usize::from(!x.rows().is_multiple_of(WORKERS));
    reorg::index(x, 0, rows, 0, x.cols()).expect("row slice")
}

/// Renders a program error for a failed pass or set-up.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Largest absolute difference between two equally shaped matrices,
/// relative to the larger of 1 and the reference's largest magnitude.
pub fn rel_diff(got: &DenseMatrix, want: &DenseMatrix) -> f64 {
    if got.shape() != want.shape() {
        return f64::INFINITY;
    }
    let scale = want.values().iter().fold(1.0f64, |m, v| m.max(v.abs()));
    got.max_abs_diff(want) / scale
}

/// Tolerance of a federated result against the local run where the two
/// sum partitions in a different order (the repo's tests use 1e-7..1e-9
/// on small inputs).
pub const FED_VS_LOCAL_TOL: f64 = 1e-9;

/// Checks a federated output list against the local oracle's.
pub fn check_close(what: &str, got: &[DenseMatrix], want: &[DenseMatrix]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} outputs, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let d = rel_diff(g, w);
        if d.is_nan() || d > FED_VS_LOCAL_TOL {
            return Err(format!(
                "{what}: output {i} differs from the oracle by {d:e} (> {FED_VS_LOCAL_TOL:e})"
            ));
        }
    }
    Ok(())
}
