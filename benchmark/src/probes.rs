//! Layer probes: timed calls into one layer's public functions on inputs
//! captured from a workload. They run only in the traced run, after the
//! passes, and fill the per-layer metrics of `spec::PER_LAYER`.

use std::hint::black_box;
use std::time::Instant;

use exdra::api::{Lazy, Optimizer, Plan, ProfileCostModel};
use exdra::core::instruction::Instruction;
use exdra::core::protocol::{Request, RpcEnvelope, TraceContext};
use exdra::core::worker::Worker;
use exdra::core::{DataValue, FedContext, PrivacyLevel};
use exdra::matrix::kernels::elementwise::UnaryOp;
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::{DenseMatrix, Frame};
use exdra::ml::nn::Network;
use exdra::net::Wire;
use exdra::paramserv::balance::BalanceStrategy;
use exdra::paramserv::{fed as psfed, PsConfig};

use crate::stats::median;
use crate::workloads::{Federation, LayerMetrics};

/// Median wall time of `f` in seconds over `reps` runs after one warm-up.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median latency of `f` in microseconds over `n` closed-loop calls.
pub fn latency_us(n: usize, f: impl FnMut()) -> f64 {
    time_median(n, f) * 1e6
}

/// One kernel call of a workload's mix.
pub struct KernelOp {
    pub name: &'static str,
    /// Calls per pass.
    pub count: f64,
    /// Floating-point operations per call.
    pub flops: f64,
    pub run: Box<dyn Fn()>,
}

const KERNEL_REPS: usize = 3;

/// Seconds one pass's kernel mix takes at the current `exdra-par` width.
fn mix_seconds(mix: &[KernelOp]) -> f64 {
    mix.iter()
        .map(|op| {
            let s = time_median(KERNEL_REPS, || (op.run)());
            println!(
                "    kernel {:<18} {:>6.0} x {:>9.3} ms (width {})",
                op.name,
                op.count,
                s * 1e3,
                exdra_par::threads()
            );
            op.count * s
        })
        .sum()
}

/// `matrix`: `kernel_busy_s` (one pass's kernel mix on one partition at
/// width 1) and `kernel_gflops`.
pub fn kernel_metrics(mix: &[KernelOp], out: &mut LayerMetrics) {
    exdra_par::set_threads(1);
    let busy = mix_seconds(mix);
    let flops: f64 = mix.iter().map(|op| op.count * op.flops).sum();
    out.insert("kernel_busy_s", busy);
    out.insert(
        "kernel_gflops",
        if busy > 0.0 { flops / busy / 1e9 } else { 0.0 },
    );
}

/// `par`: the same mix at `width` threads against `kernel_busy_s`, plus
/// how many regions fanned out and how many fell back to serial.
/// Leaves the pool at width 1.
pub fn par_metrics(mix: &[KernelOp], width: usize, out: &mut LayerMetrics) {
    exdra_par::set_threads(width);
    let wide = mix_seconds(mix);
    let _ = exdra_par::take_region_stats();
    let (mut regions, mut serial) = (0.0, 0.0);
    for op in mix {
        (op.run)();
        let s = exdra_par::take_region_stats();
        regions += op.count * s.regions as f64;
        serial += op.count * s.serial_regions as f64;
    }
    exdra_par::set_threads(1);
    let narrow = out.get("kernel_busy_s").copied().unwrap_or(0.0);
    out.insert("par_speedup", if wide > 0.0 { narrow / wide } else { 0.0 });
    out.insert("par_regions", regions);
    out.insert("par_serial_fallbacks", serial);
}

type Decoder = Box<dyn Fn(&[u8])>;

/// One wire payload of a workload with its encoder and decoder.
pub struct Payload {
    pub name: &'static str,
    pub encode: Box<dyn Fn() -> Vec<u8>>,
    pub decode: Decoder,
}

fn value_payload(name: &'static str, v: DataValue) -> Payload {
    Payload {
        name,
        encode: Box::new(move || v.to_bytes()),
        decode: Box::new(|b| {
            black_box(DataValue::from_bytes(b).expect("decode own encoding"));
        }),
    }
}

/// The request batch of one fused federated round (ship a vector, run an
/// instruction on it, fetch the result), as it travels in an envelope.
fn envelope_payload(cols: usize) -> Payload {
    let env = RpcEnvelope {
        trace: TraceContext::NONE,
        requests: vec![
            Request::Put {
                id: 2,
                data: DataValue::from(rand_matrix(cols, 1, -1.0, 1.0, 5)),
                privacy: PrivacyLevel::Public,
            },
            Request::ExecInst {
                inst: Instruction::MmChain {
                    x: 1,
                    v: 2,
                    w: None,
                    out: 3,
                },
            },
            Request::Get { id: 3 },
        ],
    };
    Payload {
        name: "envelope",
        encode: Box::new(move || env.to_bytes()),
        decode: Box::new(|b| {
            black_box(RpcEnvelope::from_bytes(b).expect("decode own encoding"));
        }),
    }
}

/// The payloads the algorithm suite moves for a partition `xp`: a dense
/// block (one partition's `n x 3` residuals), a small vector (`d x 1`
/// weights) and a request envelope.
pub fn matrix_payloads(xp: &DenseMatrix) -> Vec<Payload> {
    vec![
        value_payload(
            "dense_block",
            DataValue::from(rand_matrix(xp.rows(), 3, -1.0, 1.0, 6)),
        ),
        value_payload(
            "small_vector",
            DataValue::from(rand_matrix(xp.cols(), 1, -1.0, 1.0, 7)),
        ),
        envelope_payload(xp.cols()),
    ]
}

/// [`matrix_payloads`] plus one site's raw frame, for `p2_pipeline`.
pub fn frame_payloads(frame: &Frame, encoded: &DenseMatrix) -> Vec<Payload> {
    let mut p = matrix_payloads(encoded);
    p.push(value_payload(
        "frame_block",
        DataValue::Frame(frame.clone()),
    ));
    p
}

/// `net::codec`: `encode_mb_s` and `decode_mb_s` over the payload set,
/// each payload weighted by its size.
pub fn codec_metrics(payloads: &[Payload], out: &mut LayerMetrics) {
    let (mut bytes, mut enc_s, mut dec_s) = (0.0, 0.0, 0.0);
    for p in payloads {
        let wire = (p.encode)();
        // Small payloads are timed in batches so a clock read is not the
        // measurement.
        let batch = (1 << 20) / wire.len().max(1) + 1;
        enc_s += time_median(5, || {
            for _ in 0..batch {
                black_box((p.encode)());
            }
        }) / batch as f64;
        dec_s += time_median(5, || {
            for _ in 0..batch {
                (p.decode)(black_box(&wire));
            }
        }) / batch as f64;
        bytes += wire.len() as f64;
        println!("    codec payload {:<13} {:>9} bytes", p.name, wire.len());
    }
    out.insert(
        "encode_mb_s",
        if enc_s > 0.0 {
            bytes / enc_s / 1e6
        } else {
            0.0
        },
    );
    out.insert(
        "decode_mb_s",
        if dec_s > 0.0 {
            bytes / dec_s / 1e6
        } else {
            0.0
        },
    );
}

/// `core`: `rpc_small_us`, one `EXEC_INST` on a 1x1 symbol at worker 0,
/// issue to reply, over the workload's own channel. The same exchange is
/// the channel's small-message round-trip time (`rtt_small_us`).
pub fn rpc_metrics(fed: &Federation, link: &str, out: &mut LayerMetrics) {
    rpc_metrics_on(&fed.ctx, &fed.workers[0], link, out);
}

/// [`rpc_metrics`] over an explicit context (a tenant's) and its worker 0.
pub fn rpc_metrics_on(ctx: &FedContext, worker0: &Worker, link: &str, out: &mut LayerMetrics) {
    let id = ctx.fresh_id();
    let out_id = ctx.fresh_id();
    worker0.install_matrix(
        id,
        DenseMatrix::filled(1, 1, 2.0),
        PrivacyLevel::Public,
        "probe-1x1",
    );
    let batch = [Request::ExecInst {
        inst: Instruction::Unary {
            x: id,
            op: UnaryOp::Abs,
            out: out_id,
        },
    }];
    // A shaped link sleeps for every reply: fewer samples there.
    let n = if link == "wan" { 20 } else { 500 };
    let us = latency_us(n, || {
        black_box(ctx.call(0, &batch).expect("1x1 EXEC_INST"));
    });
    out.insert("rpc_small_us", us);
    out.insert("rtt_small_us", us);
    println!("    rtt_small_us[{link}] = {us:.1}");
}

/// `api`: per pass of `plans`, the time to lower them to the plan IR
/// (`plan_build_us`) and to optimize them (`optimize_us`), the rewrites
/// that fired (`rule_fires`), and how far the cost model's byte estimate
/// is from the bytes one execution really moves (`est_bytes_error`).
pub fn plan_metrics(plans: &[(&'static str, Lazy)], fed: &Federation, out: &mut LayerMetrics) {
    plan_metrics_with(plans, &|| fed.counters().wire_bytes, out);
}

/// [`plan_metrics`] with the cumulative wire bytes read through `bytes`.
pub fn plan_metrics_with(
    plans: &[(&'static str, Lazy)],
    bytes: &dyn Fn() -> u64,
    out: &mut LayerMetrics,
) {
    let optimizer = Optimizer::new();
    let cost = ProfileCostModel::default();
    let (mut build_us, mut opt_us, mut fires) = (0.0, 0.0, 0.0);
    let (mut est_bytes, mut real_bytes) = (0.0, 0.0);
    for (_, lazy) in plans {
        build_us += latency_us(50, || {
            black_box(Plan::from_lazy(lazy));
        });
        let logical = Plan::from_lazy(lazy);
        opt_us += latency_us(50, || {
            black_box(optimizer.optimize(&logical));
        });
        let (optimized, fired) = optimizer.optimize(&logical);
        fires += fired.iter().map(|f| f.hits as f64).sum::<f64>();
        est_bytes += optimized.estimate(&cost).bytes_moved as f64;
        let before = bytes();
        if optimized.compute().is_ok() {
            real_bytes += bytes().saturating_sub(before) as f64;
        }
    }
    out.insert("plan_build_us", build_us);
    out.insert("optimize_us", opt_us);
    out.insert("rule_fires", fires);
    if real_bytes > 0.0 {
        out.insert(
            "est_bytes_error",
            (est_bytes - real_bytes).abs() / real_bytes,
        );
    }
}

/// `paramserv`: one BSP synchronization round (an epoch) of a two-class
/// FFN over a matrix of the workload's shape scattered on `fed`:
/// `ps_round_ms` and the bytes it moves, `ps_bytes_per_round`.
pub fn ps_metrics(
    fed: &Federation,
    (rows, cols): (usize, usize),
    hidden: usize,
    batch: usize,
    out: &mut LayerMetrics,
) {
    const ROUNDS: usize = 2;
    let x = rand_matrix(rows, cols, -1.0, 1.0, 8);
    let mut y1h = DenseMatrix::zeros(rows, 2);
    for r in 0..rows {
        y1h.set(r, usize::from(x.get(r, 0) < 0.0), 1.0);
    }
    let fx = fed.scatter(&x);
    let net = Network::ffn(cols, &[hidden], 2, 9);
    let cfg = PsConfig {
        epochs: ROUNDS,
        batch_size: batch,
        ..PsConfig::default()
    };
    let before = fed.counters();
    let t0 = Instant::now();
    let run = psfed::train_federated(&fx, &y1h, &fed.workers, &net, &cfg, BalanceStrategy::None);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if run.is_ok() {
        out.insert("ps_round_ms", ms / ROUNDS as f64);
        out.insert(
            "ps_bytes_per_round",
            fed.counters().delta(&before).wire_bytes as f64 / ROUNDS as f64,
        );
    }
}
