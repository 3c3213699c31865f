//! Plan-optimizer ablation: the same lazy DAGs executed with the
//! cost-based optimizer on vs. off over a WAN-shaped federation,
//! measuring bytes moved, messages, and effective round trips
//! (transport-blocked time over one-way latency).
//!
//! Three Figure-5-style workloads:
//!
//! * LM-CG step — `t(X) %*% (w * (X %*% v))`, the generalized mmchain
//!   fusion (the unfused form is one round too since its intermediates
//!   stay federated and are deferred, but it ships `X %*% v`'s weights
//!   and runs three instructions instead of one),
//! * norm + tsmm — `t(Y) %*% Y` with `Y = X - colMeans(X)` built twice
//!   from scratch (CSE by lineage, then tsmm fusion),
//! * scale chain — a four-step element-wise pipeline before `colSums`:
//!   the control, no rule applies and deferral makes it one round.
//!
//!     cargo run --release -p exdra-bench --bin plan_opt [-- --quick]
//!
//! Writes `results/plan_opt.json` plus the usual metrics sidecar and
//! asserts (1) every workload is bitwise identical with the optimizer on,
//! (2) no workload moves more bytes with the optimizer on, and (3) the
//! LM-CG step moves strictly fewer bytes in no more messages.

use exdra_api::{Lazy, Optimizer, Plan, ProfileCostModel};
use exdra_bench::{
    federation, obs_init, scatter, write_metrics_sidecar, BenchConfig, NetSetting, Table,
};
use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra_matrix::rng::rand_matrix;
use exdra_matrix::DenseMatrix;

/// Speed factor applied to the paper WAN profile (one-way 20 ms -> 5 ms)
/// so the sweep stays fast; byte counts are unaffected and round-trip
/// ratios are latency-scale invariant.
const WAN_SCALE: f64 = 0.25;

/// Measured execution of one plan variant, mean over reps.
struct Measured {
    wall_ms: f64,
    bytes: f64,
    messages: f64,
    trips: f64,
    bits: Vec<u64>,
    rules: String,
    est_bytes: u64,
    est_rounds: u64,
}

fn run_variant(
    name: &str,
    build: &dyn Fn(&Lazy) -> Lazy,
    x: &DenseMatrix,
    optimize: bool,
    cfg: &BenchConfig,
    workers: usize,
) -> Measured {
    // A fresh federation per variant: byte accounting never leaks between
    // the on/off runs, and worker-side lineage reuse is disabled by the
    // bench harness so every repetition really executes.
    let (ctx, ws) = federation(
        workers,
        NetSetting::Wan,
        cfg.wan_profile().scaled(WAN_SCALE),
    );
    let one_way = cfg
        .wan_profile()
        .scaled(WAN_SCALE)
        .latency()
        .as_nanos()
        .max(1) as f64;
    let fed = scatter(&ctx, &ws, x);
    let expr = build(&Lazy::from_fed(fed));
    let logical = Plan::from_lazy(&expr);
    let optimizer = if optimize {
        Optimizer::new()
    } else {
        Optimizer::disabled()
    };
    let (plan, fires) = optimizer.optimize(&logical);
    let rules = if fires.is_empty() {
        "-".to_string()
    } else {
        fires
            .iter()
            .map(|f| format!("{} x{}", f.rule, f.hits))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let est = plan.estimate(&ProfileCostModel::default());

    let reps = cfg.reps.max(1);
    let mut wall_ms = 0.0;
    let mut bytes = 0.0;
    let mut messages = 0.0;
    let mut trips = 0.0;
    let mut bits: Vec<u64> = Vec::new();
    for rep in 0..reps {
        let before = ctx.stats().snapshot();
        let t0 = std::time::Instant::now();
        let out = plan
            .compute()
            .unwrap_or_else(|e| panic!("{name}: plan compute failed: {e}"));
        wall_ms += t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let delta = ctx.stats().snapshot().delta(&before);
        bytes += (delta.bytes_sent + delta.bytes_received) as f64 / reps as f64;
        messages += (delta.messages_sent + delta.messages_received) as f64 / reps as f64;
        trips += delta.network_nanos as f64 / one_way / reps as f64;
        let rep_bits: Vec<u64> = out.values().iter().map(|v| v.to_bits()).collect();
        if rep == 0 {
            bits = rep_bits;
        } else {
            assert_eq!(bits, rep_bits, "{name}: repetitions must be deterministic");
        }
    }
    Measured {
        wall_ms,
        bytes,
        messages,
        trips,
        bits,
        rules,
        est_bytes: est.bytes_moved,
        est_rounds: est.round_trips,
    }
}

fn main() {
    obs_init();
    let cfg = BenchConfig::from_args();
    let workers = 3usize;
    let profile = cfg.wan_profile().scaled(WAN_SCALE);
    println!(
        "Plan optimizer | X: {}x{} | {} workers | one-way {:.1} ms | reps {}",
        cfg.rows,
        cfg.cols,
        workers,
        profile.latency().as_secs_f64() * 1e3,
        cfg.reps
    );

    let x = rand_matrix(cfg.rows, cfg.cols, -1.0, 1.0, 11);
    let v = rand_matrix(cfg.cols, 1, -1.0, 1.0, 12);
    let w = rand_matrix(cfg.rows, 1, 0.0, 1.0, 13);

    type BuildFn<'a> = Box<dyn Fn(&Lazy) -> Lazy + 'a>;
    let workloads: Vec<(&str, BuildFn)> = vec![
        (
            "LM-CG step",
            Box::new(|src: &Lazy| {
                // The conjugate-gradient inner product of LM: unfused this
                // is matmul + element-wise scale + aligned t-matmul (two
                // deferred, one round); fused it is one mmchain.
                let q = src.matmul(&Lazy::from_local(v.clone()));
                let prod = q.mul(&Lazy::from_local(w.clone())).expect("shapes");
                src.t_matmul(&prod)
            }),
        ),
        (
            "norm + tsmm",
            Box::new(|src: &Lazy| {
                // The normalization subtree is built twice from scratch:
                // CSE merges the lineage-equal halves, then tsmm fusion
                // turns t(Y) %*% Y into federated partial aggregation.
                let norm = |s: &Lazy| s.sub(&s.col_means().expect("vector")).expect("shapes");
                norm(src).t_matmul(&norm(src))
            }),
        ),
        (
            "scale chain",
            Box::new(|src: &Lazy| {
                // Four element-wise steps, all deferred: one federated round.
                src.scalar(BinaryOp::Mul, 2.0, false)
                    .scalar(BinaryOp::Add, 1.0, false)
                    .unary(UnaryOp::Abs)
                    .scalar(BinaryOp::Max, 0.5, false)
                    .col_sums()
                    .expect("vector")
            }),
        ),
    ];

    let mut table = Table::new(
        &format!(
            "Plan optimizer on WAN ({workers} workers, mean of {})",
            cfg.reps
        ),
        &[
            "workload",
            "rules fired",
            "bytes off",
            "bytes on",
            "trips off",
            "trips on",
            "wall off",
            "wall on",
        ],
    );
    let mut json_rows = Vec::new();
    let mut lmcg_strict = false;
    for (name, build) in &workloads {
        let off = run_variant(name, build.as_ref(), &x, false, &cfg, workers);
        let on = run_variant(name, build.as_ref(), &x, true, &cfg, workers);
        assert_eq!(
            off.bits, on.bits,
            "{name}: optimized result differs bitwise from unoptimized"
        );
        assert!(
            on.bytes <= off.bytes,
            "{name}: optimizer moved MORE bytes ({:.0} vs {:.0})",
            on.bytes,
            off.bytes
        );
        if *name == "LM-CG step" {
            // Wall-clock "trips" are too close to call at one round each;
            // messages are exact.
            lmcg_strict = on.bytes < off.bytes && on.messages <= off.messages;
        }
        table.row(&[
            name.to_string(),
            on.rules.clone(),
            format!("{:.1} KB", off.bytes / 1e3),
            format!("{:.1} KB", on.bytes / 1e3),
            format!("{:.1}", off.trips),
            format!("{:.1}", on.trips),
            format!("{:.0} ms", off.wall_ms),
            format!("{:.0} ms", on.wall_ms),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{name}\", \"rules\": \"{}\", \
             \"bytes_off\": {:.0}, \"bytes_on\": {:.0}, \
             \"messages_off\": {:.1}, \"messages_on\": {:.1}, \
             \"round_trips_off\": {:.2}, \"round_trips_on\": {:.2}, \
             \"wall_ms_off\": {:.1}, \"wall_ms_on\": {:.1}, \
             \"estimated_bytes_on\": {}, \"estimated_rounds_on\": {}, \
             \"bitwise_identical\": true}}",
            on.rules,
            off.bytes,
            on.bytes,
            off.messages,
            on.messages,
            off.trips,
            on.trips,
            off.wall_ms,
            on.wall_ms,
            on.est_bytes,
            on.est_rounds,
        ));
    }
    table.print();
    assert!(
        lmcg_strict,
        "LM-CG step must move strictly fewer bytes in no more messages"
    );
    println!("\nall workloads bitwise identical with the optimizer on");

    let json = format!(
        "{{\n  \"workers\": {workers},\n  \"rows\": {},\n  \"cols\": {},\n  \
         \"one_way_ms\": {:.3},\n  \"reps\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        cfg.rows,
        cfg.cols,
        profile.latency().as_secs_f64() * 1e3,
        cfg.reps,
        json_rows.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let path = dir.join("plan_opt.json");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, json)) {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
    write_metrics_sidecar("plan_opt");
}
