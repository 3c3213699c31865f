//! `tenants`: one `CoordService` over two mem-channel workers, eight open
//! sessions driven by two closed-loop driver threads (each cycles over
//! four sessions). A pass is 400 computes mixing a fresh-lineage
//! federated plan, a fusable 3-op plan, and shared-lineage plans drawn
//! from a `hot` pool that fits the plan cache and a `cold` pool twice
//! its byte budget. Many tiny requests: `api` plan build and optimise,
//! the plan cache, `coord` scheduling and the per-request fixed cost of
//! `core` dominate; kernels and the wire do not.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exdra::api::{Lazy, Session};
use exdra::coord::{CoordConfig, CoordService, FleetSource};
use exdra::core::supervision::SupervisionPolicy;
use exdra::core::testutil::mem_federation_with;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::Tensor;
use exdra::matrix::kernels::elementwise::BinaryOp;
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;
use exdra::net::transport::Channel;

use super::{err, Counters, LayerMetrics, PassOutput, PassStats, Recipe, Workload, WORKERS};
use crate::gen::{sub_seed, Checksum};
use crate::probes::{self, latency_us, KernelOp};
use crate::trace::Tracer;

const SESSIONS: usize = 8;
const DRIVERS: usize = 2;
const SESSIONS_PER_DRIVER: usize = SESSIONS / DRIVERS;
/// Side of the square pool matrices: one cached result is 8 KiB.
const POOL_SIDE: usize = 32;
const POOL_ENTRY_BYTES: usize = POOL_SIDE * POOL_SIDE * 8;
const HOT_POOL: usize = 4;
const COLD_POOL: usize = 16;
/// The plan cache holds eight pool results: the hot pool fits twice
/// over, the cold pool is twice the budget.
const PLAN_CACHE_BYTES: usize = 8 * POOL_ENTRY_BYTES;

/// The four kinds of compute a session cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Fusable,
    Hot,
    Cold,
}

#[derive(Clone)]
pub struct TenantsInputs {
    /// Each session's private matrix, federated over the fleet.
    data: Vec<DenseMatrix>,
    /// Operands of the fusable plan.
    v: DenseMatrix,
    w: DenseMatrix,
    hot: Vec<DenseMatrix>,
    cold: Vec<DenseMatrix>,
    /// Computes per session per pass.
    steps: usize,
}

pub struct TenantsRecipe {
    inputs: TenantsInputs,
}

impl TenantsRecipe {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (rows, cols, steps) = if smoke { (200, 8, 8) } else { (2_000, 16, 50) };
        let pool = |n: usize, salt: u64| {
            (0..n)
                .map(|i| {
                    rand_matrix(
                        POOL_SIDE,
                        POOL_SIDE,
                        -1.0,
                        1.0,
                        sub_seed(seed, salt + i as u64),
                    )
                })
                .collect()
        };
        Self {
            inputs: TenantsInputs {
                data: (0..SESSIONS)
                    .map(|i| rand_matrix(rows, cols, -1.0, 1.0, sub_seed(seed, 20 + i as u64)))
                    .collect(),
                v: rand_matrix(cols, 1, -1.0, 1.0, sub_seed(seed, 11)),
                w: rand_matrix(rows, 1, 0.0, 1.0, sub_seed(seed, 12)),
                hot: pool(HOT_POOL, 200),
                cold: pool(COLD_POOL, 300),
                steps,
            },
        }
    }
}

fn kind_of(session: usize, step: usize) -> Kind {
    match (step + session) % 4 {
        0 => Kind::Fresh,
        1 => Kind::Fusable,
        2 => Kind::Hot,
        _ => Kind::Cold,
    }
}

/// Builds the plan of compute `step` of `session`. Fresh and fusable
/// plans carry the step in an operand, so their lineage is new on every
/// step; pool plans have the same lineage in every session.
fn plan_for(inp: &TenantsInputs, sds: &Session, fed: &Lazy, session: usize, step: usize) -> Lazy {
    let pick = step / 4 + 3 * session;
    match kind_of(session, step) {
        Kind::Fresh => fed
            .scalar(BinaryOp::Mul, 1.0 + step as f64, false)
            .col_sums()
            .expect("vector"),
        Kind::Fusable => {
            // t(X) %*% (w * (X %*% v)): fuses into one mmchain round.
            let v = inp.v.map(|x| x * (1.0 + step as f64));
            let q = fed.matmul(&Lazy::from_local(v));
            fed.t_matmul(&q.mul(&Lazy::from_local(inp.w.clone())).expect("shapes"))
        }
        Kind::Hot => sds
            .matrix(inp.hot[pick % HOT_POOL].clone())
            .scalar(BinaryOp::Mul, 2.0, false),
        Kind::Cold => {
            sds.matrix(inp.cold[pick % COLD_POOL].clone())
                .scalar(BinaryOp::Mul, 2.0, false)
        }
    }
}

/// The oracle: every session's computes, one session at a time, on a
/// plain single-session federation with no coordinator and no plan
/// cache. Returns the checksum of each result, session-major: compute
/// `step` of session `s` is at `s * steps + step`.
fn serial_oracle(inp: &TenantsInputs) -> Result<Vec<u64>, String> {
    let (ctx, workers) = mem_federation_with(WORKERS, || WorkerConfig {
        reuse_enabled: false,
        ..WorkerConfig::default()
    });
    let mut table = Vec::with_capacity(SESSIONS * inp.steps);
    for (s, m) in inp.data.iter().enumerate() {
        let sds = Session::builder()
            .context(ctx.clone())
            .no_supervision()
            .build()
            .map_err(err)?;
        let fed = sds.federated(m).map_err(err)?;
        for step in 0..inp.steps {
            let r = sds
                .compute(&plan_for(inp, &sds, &fed, s, step))
                .map_err(err)?;
            table.push(Checksum::of(&[r]));
        }
    }
    for w in workers {
        w.shutdown();
    }
    Ok(table)
}

struct OpenSession {
    sds: Session,
    fed: Lazy,
}

/// What one driver thread measured in a pass.
#[derive(Default)]
struct DriverOut {
    sums: Vec<(usize, usize, u64)>,
    latencies_ms: Vec<f64>,
    failed: u64,
    /// `(hits, probes)` of the hot and the cold pool.
    hot: (u64, u64),
    cold: (u64, u64),
}

struct TenantsWorkload {
    inputs: TenantsInputs,
    fleet: Vec<Arc<Worker>>,
    service: Arc<CoordService>,
    sessions: Vec<OpenSession>,
    /// Oracle checksum of every compute, session-major.
    oracle: Vec<u64>,
    expected: u64,
    /// Pool hit counts summed over all passes so far.
    hot: (u64, u64),
    cold: (u64, u64),
    passes: u64,
    waits: u64,
}

impl Recipe for TenantsRecipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
        let fleet: Vec<Arc<Worker>> = (0..WORKERS)
            .map(|_| {
                Worker::new(WorkerConfig {
                    reuse_enabled: false,
                    ..WorkerConfig::default()
                })
            })
            .collect();
        let slots = fleet.clone();
        let service = CoordService::start(
            FleetSource::Factory {
                n_workers: WORKERS,
                factory: Arc::new(move |w| Ok(Box::new(slots[w].serve_mem()) as Box<dyn Channel>)),
            },
            CoordConfig {
                plan_cache_bytes: PLAN_CACHE_BYTES,
                // Supervision heartbeats and checkpoints off: they would
                // add requests of their own at wall-clock cadences.
                supervision: SupervisionPolicy {
                    heartbeat_interval: Duration::from_secs(3600),
                    checkpoint_interval: None,
                    ..SupervisionPolicy::default()
                },
                ..CoordConfig::default()
            },
        )
        .map_err(err)?;
        let mut sessions = Vec::with_capacity(SESSIONS);
        for m in &self.inputs.data {
            let tenant = service.open_session().map_err(err)?;
            let sds = Session::from_tenant(tenant).map_err(err)?;
            let fed = sds.federated(m).map_err(err)?;
            sessions.push(OpenSession { sds, fed });
        }
        let oracle = tr.span("oracle.serial_single_session", || {
            serial_oracle(&self.inputs)
        })?;
        let mut expected = Checksum::default();
        for sum in &oracle {
            expected.push_u64(*sum);
        }
        let mut w = TenantsWorkload {
            inputs: self.inputs.clone(),
            fleet,
            service,
            sessions,
            oracle,
            expected: expected.value(),
            hot: (0, 0),
            cold: (0, 0),
            passes: 0,
            waits: 0,
        };
        // Warm-up pass: every concurrent result must equal the serial
        // single-session run bitwise.
        let out = w.pass(tr)?;
        if out.failed_ops > 0 || out.checksum != w.expected {
            return Err(format!(
                "tenants: {} of {} computes differ from the serial single-session run",
                out.failed_ops, out.ops
            ));
        }
        (w.hot, w.cold, w.passes, w.waits) = ((0, 0), (0, 0), 0, 0);
        Ok(Box::new(w))
    }
}

/// One driver's closed loop over its own sessions (`first` is the index
/// of `sessions[0]`): build a plan, compute it, check it, next.
fn drive(
    inputs: &TenantsInputs,
    oracle: &[u64],
    sessions: &mut [OpenSession],
    first: usize,
    tr: &Tracer,
    parent: Option<usize>,
) -> DriverOut {
    let mut out = DriverOut::default();
    {
        tr.span_under(parent, "driver", || {
            for step in 0..inputs.steps {
                for (i, open) in sessions.iter().enumerate() {
                    let s = first + i;
                    let stats = open.sds.tenant().expect("tenant session").stats();
                    let hits_before = stats.cache_hits.load(Ordering::Relaxed);
                    let t0 = Instant::now();
                    let result = tr.span("api.compute", || {
                        let plan = tr.span("api.plan_build", || {
                            plan_for(inputs, &open.sds, &open.fed, s, step)
                        });
                        open.sds.compute(&plan)
                    });
                    out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    let hit = stats.cache_hits.load(Ordering::Relaxed) - hits_before;
                    match kind_of(s, step) {
                        Kind::Hot => out.hot = (out.hot.0 + hit, out.hot.1 + 1),
                        Kind::Cold => out.cold = (out.cold.0 + hit, out.cold.1 + 1),
                        Kind::Fresh | Kind::Fusable => {}
                    }
                    match result {
                        Ok(m) => {
                            let sum = Checksum::of(&[m]);
                            if sum != oracle[s * inputs.steps + step] {
                                out.failed += 1;
                            }
                            out.sums.push((s, step, sum));
                        }
                        Err(_) => out.failed += 1,
                    }
                }
            }
        });
    }
    out
}

impl Workload for TenantsWorkload {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String> {
        // Every pass starts from an empty plan cache, so passes repeat.
        self.service.plan_cache().clear();
        let waits_before = self.service.scheduler().waits();
        let parent = tr.current();
        let (inputs, oracle) = (&self.inputs, &self.oracle);
        let outs: Vec<DriverOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .chunks_mut(SESSIONS_PER_DRIVER)
                .enumerate()
                .map(|(d, own)| {
                    scope.spawn(move || {
                        drive(inputs, oracle, own, d * SESSIONS_PER_DRIVER, tr, parent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        let mut table = vec![vec![0u64; self.inputs.steps]; SESSIONS];
        let mut pass = PassOutput {
            ops: (SESSIONS * self.inputs.steps) as u64,
            ..PassOutput::default()
        };
        for out in outs {
            for (s, step, sum) in out.sums {
                table[s][step] = sum;
            }
            pass.op_latencies_ms.extend(out.latencies_ms);
            pass.failed_ops += out.failed;
            self.hot = (self.hot.0 + out.hot.0, self.hot.1 + out.hot.1);
            self.cold = (self.cold.0 + out.cold.0, self.cold.1 + out.cold.1);
        }
        let mut sum = Checksum::default();
        for v in table.iter().flatten() {
            sum.push_u64(*v);
        }
        pass.checksum = sum.value();
        self.passes += 1;
        self.waits += self.service.scheduler().waits() - waits_before;
        Ok(pass)
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn counters(&self) -> Counters {
        // Each session has its own connections and statistics.
        let mut total = Counters {
            requests: self.fleet.iter().map(|w| u64::from(w.load())).sum(),
            ..Counters::default()
        };
        for open in &self.sessions {
            if let Some(ctx) = open.sds.ctx() {
                let s = ctx.stats().snapshot();
                total.wire_bytes += s.bytes_sent + s.bytes_received;
                total.bytes_received += s.bytes_received;
                total.messages += s.messages_sent + s.messages_received;
                total.messages_received += s.messages_received;
                total.max_inflight = total.max_inflight.max(s.max_inflight);
            }
        }
        total
    }

    fn probe_layers(&mut self, tr: &Tracer, _stats: &PassStats, out: &mut LayerMetrics) {
        let share = |(hits, probes): (u64, u64)| {
            if probes > 0 {
                hits as f64 / probes as f64
            } else {
                0.0
            }
        };
        out.insert("plan_cache_hit_share_hot", share(self.hot));
        out.insert("plan_cache_hit_share_cold", share(self.cold));
        let computes = (self.passes * (SESSIONS * self.inputs.steps) as u64).max(1);
        out.insert("queue_wait_share", self.waits as f64 / computes as f64);
        // Every session of the run was admitted; a refusal would have
        // failed set-up.
        out.insert("admission_rejects", 0.0);

        tr.span("probe.coord", || {
            let service = &self.service;
            let us = latency_us(50, || {
                let tenant = service.open_session().expect("admitted");
                tenant.close();
            });
            out.insert("open_session_us", us);
        });
        tr.span("probe.api", || {
            // One plan of each kind, through the optimizer and once executed.
            let open = &self.sessions[0];
            let plans: Vec<(&'static str, Lazy)> = (0..4)
                .map(|step| {
                    (
                        "plan",
                        plan_for(&self.inputs, &open.sds, &open.fed, 0, step),
                    )
                })
                .collect();
            let stats = open.sds.ctx().expect("tenant context").stats();
            let bytes = || {
                let s = stats.snapshot();
                s.bytes_sent + s.bytes_received
            };
            probes::plan_metrics_with(&plans, &bytes, out);
            // Per pass: every session runs `steps` plans, a quarter of each kind.
            let scale = (SESSIONS * self.inputs.steps) as f64 / 4.0;
            for name in ["plan_build_us", "optimize_us", "rule_fires"] {
                if let Some(v) = out.get_mut(name) {
                    *v *= scale;
                }
            }
        });
        tr.span("probe.matrix", || {
            // The kernels behind one pass, on one worker's partition of
            // one session's matrix.
            let xp = super::first_partition(&self.inputs.data[0]);
            let per_kind = (SESSIONS * self.inputs.steps) as f64 / 4.0;
            let (x1, x2) = (Tensor::Local(xp.clone()), Tensor::Local(xp.clone()));
            let (v, w) = (
                self.inputs.v.clone(),
                super::first_partition(&self.inputs.w),
            );
            let pool = Tensor::Local(self.inputs.hot[0].clone());
            let cells = (xp.rows() * xp.cols()) as f64;
            let mix = vec![
                KernelOp {
                    name: "scale+col_sums",
                    count: per_kind,
                    flops: 2.0 * cells,
                    run: Box::new(move || {
                        drop(
                            x1.scalar_op(BinaryOp::Mul, 3.0, false)
                                .and_then(|t| t.col_sums()),
                        )
                    }),
                },
                KernelOp {
                    name: "mmchain.weighted",
                    count: per_kind,
                    flops: 4.0 * cells,
                    run: Box::new(move || drop(x2.mmchain(&v, Some(&w)))),
                },
                KernelOp {
                    name: "pool.scale",
                    // Pool plans that miss the cache run at the coordinator.
                    count: 2.0 * per_kind,
                    flops: (POOL_SIDE * POOL_SIDE) as f64,
                    run: Box::new(move || drop(pool.scalar_op(BinaryOp::Mul, 2.0, false))),
                },
            ];
            probes::kernel_metrics(&mix, out);
        });
        tr.span("probe.core", || {
            let open = &self.sessions[0];
            let ctx = open.sds.ctx().expect("tenant context");
            probes::rpc_metrics_on(ctx, &self.fleet[0], "mem", out);
        });
    }

    fn teardown(self: Box<Self>) {
        let Self {
            sessions,
            service,
            fleet,
            ..
        } = *self;
        drop(sessions);
        service.stop();
        drop(service);
        for w in fleet {
            w.shutdown();
        }
    }
}
