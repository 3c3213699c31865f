//! Micro-kernel throughput sweep: blocked GEMM vs the naive reference
//! (the test oracle), tsmm, mmchain, the thin `X %*% V` products on and
//! off the panel width with PCA's tall `tsmm` and 100 x 100
//! `eigen_symmetric` (report only), the element-wise and aggregate
//! kernels on K-Means' shapes against their per-cell oracle (`ew_agg`,
//! bitwise-checked), the `t(A) %*% B` row sweep vs
//! transpose-then-GEMM, one-pass vs two-phase mmchain, and
//! compressed-domain operators (dense, column groups, and the form a
//! worker holding the dense twin picks), plus two end-to-end worker
//! workloads on a compacted frame: one-shot ops, which must all execute
//! on the column groups without a single decompression, and a solver's
//! loop, which must decompress exactly once (DESIGN.md §4k).
//!
//!     cargo run --release -p exdra-bench --bin kernel_bench
//!
//! Writes `results/kernels.json` (GFLOP/s and bytes/s per kernel and
//! size) plus the usual metrics sidecar, whose `inst.c.*` histograms are
//! exactly what `ProfileCostModel` consumes to price compressed
//! execution. `--quick` shrinks the sweep for CI smoke runs.

use std::sync::Arc;
use std::time::Duration;

use exdra_bench::{obs_init, secs, time, time_reps, write_metrics_sidecar, BenchConfig, Table};
use exdra_core::instruction::Instruction;
use exdra_core::protocol::{Request, Response};
use exdra_core::worker::{Worker, WorkerConfig};
use exdra_core::PrivacyLevel;
use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::eigen::eigen_symmetric;
use exdra_matrix::kernels::aggregates::{aggregate, AggDir, AggOp};
use exdra_matrix::kernels::elementwise::{binary, scalar, BinaryOp};
use exdra_matrix::kernels::matmul::{
    matmul, matmul_naive, matmul_tn, mmchain, mmchain_two_phase, tsmm,
};
use exdra_matrix::kernels::reorg::transpose;
use exdra_matrix::rng::rand_matrix;
use exdra_matrix::DenseMatrix;

// The per-cell reference kernels of `proptest_kernels.rs`; this binary
// times and checks a few of them.
#[allow(dead_code)]
#[path = "../../../matrix/tests/oracle/mod.rs"]
mod oracle;

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs.max(1e-12) / 1e9
}

/// Low-cardinality frame (categorical + constant + run + noise columns)
/// on which DDC/RLE column groups actually form.
fn compressible(rows: usize, cols: usize) -> DenseMatrix {
    let noise = rand_matrix(rows, 1, -1.0, 1.0, 9);
    let mut x = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = match c % 4 {
                0 => (r % 7) as f64,
                1 => 2.5,
                2 => {
                    if r < rows / 2 {
                        -1.0
                    } else {
                        3.0
                    }
                }
                _ => noise.get(r, 0) + c as f64,
            };
            x.set(r, c, v);
        }
    }
    x
}

fn main() {
    obs_init();
    let cfg = BenchConfig::from_args();
    let quick = cfg.rows <= 10_000;
    exdra_par::set_threads(0);
    let hw = exdra_par::threads();
    let mut json = Vec::new();

    // ---- blocked GEMM vs the naive reference --------------------------
    // Single-threaded ratio isolates the packing + register-tile win;
    // the full-pool number shows end throughput.
    let sizes: &[usize] = if quick {
        &[96, 192, 256]
    } else {
        &[256, 512, 1024]
    };
    let mut table = Table::new(
        "Blocked GEMM vs naive reference (square n^3)",
        &[
            "n",
            "blocked t1",
            "naive t1",
            "speedup",
            "GF/s t1",
            "GF/s pool",
        ],
    );
    let mut gemm_rows = Vec::new();
    let mut speedup_at_largest = 0.0;
    for &n in sizes {
        let a = rand_matrix(n, n, -1.0, 1.0, 1);
        let b = rand_matrix(n, n, -1.0, 1.0, 2);
        let flops = 2.0 * (n as f64).powi(3);
        let (blocked_t1, _) = exdra_par::with_threads(1, || {
            time_reps(cfg.reps, || matmul(&a, &b).expect("shapes"))
        });
        let (base_t1, _) = exdra_par::with_threads(1, || {
            time_reps(cfg.reps, || matmul_naive(&a, &b).expect("shapes"))
        });
        let (pool_t, _) = time_reps(cfg.reps, || matmul(&a, &b).expect("shapes"));
        let speedup = base_t1 / blocked_t1.max(1e-12);
        speedup_at_largest = speedup;
        table.row(&[
            n.to_string(),
            secs(blocked_t1),
            secs(base_t1),
            format!("{speedup:.2}x"),
            format!("{:.2}", gflops(flops, blocked_t1)),
            format!("{:.2}", gflops(flops, pool_t)),
        ]);
        gemm_rows.push(format!(
            "    {{\"n\": {n}, \"blocked_gflops_t1\": {:.3}, \"naive_gflops_t1\": {:.3}, \
             \"blocked_gflops_pool\": {:.3}, \"speedup_vs_naive\": {:.3}}}",
            gflops(flops, blocked_t1),
            gflops(flops, base_t1),
            gflops(flops, pool_t),
            speedup
        ));
    }
    table.print();
    if !quick {
        assert!(
            speedup_at_largest >= 1.5,
            "blocked GEMM must beat the naive reference by >=1.5x at {}^3 (got {speedup_at_largest:.2}x)",
            sizes[sizes.len() - 1]
        );
    }

    // ---- tsmm and mmchain ---------------------------------------------
    let (tr, tc) = if quick { (4_000, 128) } else { (20_000, 256) };
    let x = rand_matrix(tr, tc, -1.0, 1.0, 3);
    let v = rand_matrix(tc, 1, -1.0, 1.0, 4);
    let w = rand_matrix(tr, 1, 0.0, 1.0, 5);
    let (tsmm_t, _) = time_reps(cfg.reps, || tsmm(&x, true).expect("shapes"));
    let tsmm_flops = (tr as f64) * (tc as f64) * (tc as f64 + 1.0);
    let (mm_t, _) = time_reps(cfg.reps, || mmchain(&x, &v, Some(&w)).expect("shapes"));
    let mm_flops = 5.0 * (tr as f64) * (tc as f64);
    let mut table = Table::new(
        "Fused kernels (pool threads)",
        &["kernel", "dims", "mean", "GF/s"],
    );
    table.row(&[
        "tsmm".into(),
        format!("t(X)*X, X {tr}x{tc}"),
        secs(tsmm_t),
        format!("{:.2}", gflops(tsmm_flops, tsmm_t)),
    ]);
    table.row(&[
        "mmchain".into(),
        format!("t(X)*(w.*(X*v)), X {tr}x{tc}"),
        secs(mm_t),
        format!("{:.2}", gflops(mm_flops, mm_t)),
    ]);
    table.print();
    json.push(format!(
        "  \"tsmm\": {{\"rows\": {tr}, \"cols\": {tc}, \"gflops\": {:.3}}}",
        gflops(tsmm_flops, tsmm_t)
    ));
    json.push(format!(
        "  \"mmchain\": {{\"rows\": {tr}, \"cols\": {tc}, \"gflops\": {:.3}}}",
        gflops(mm_flops, mm_t)
    ));

    // ---- the Fig. 5 suite's thin products and PCA's aggregate ---------
    // X (40k x 100) %*% V (100 x n) on one thread, n on and off the NR = 8
    // panel (K-Means n = 20, PCA n = 10, MLogReg n = 3): an edge tile is a
    // full tile on zero-padded lanes, so time grows with the panel count.
    // Then PCA's two coordinator-visible costs: the triangular row sweep
    // at widths 1 and nproc, and the 100 x 100 eigen decomposition.
    let tall_rows = if quick { 10_000 } else { 40_000 };
    let x = exdra_bench::paper_matrix(tall_rows, 100, 15);
    let mut table = Table::new(
        &format!("Thin products and PCA's aggregate, X {tall_rows}x100"),
        &["kernel", "shape", "width", "mean", "GF/s"],
    );
    let mut ragged_rows = Vec::new();
    for n in [3, 8, 10, 16, 20, 24] {
        let v = rand_matrix(100, n, -1.0, 1.0, 16);
        let (t, _) = exdra_par::with_threads(1, || {
            matmul(&x, &v).expect("shapes"); // first touch of x is not the kernel's
            time_reps(cfg.reps, || matmul(&x, &v).expect("shapes"))
        });
        let gf = gflops(200.0 * (tall_rows * n) as f64, t);
        table.row(&[
            "gemm".into(),
            format!("X %*% V, n = {n}"),
            "1".into(),
            secs(t),
            format!("{gf:.2}"),
        ]);
        ragged_rows.push(format!(
            "    {{\"rows\": {tall_rows}, \"n\": {n}, \"secs\": {t:.6}, \"gflops\": {gf:.3}}}"
        ));
    }
    let mut tsmm_rows = Vec::new();
    for width in [1, hw] {
        let (t, _) = exdra_par::with_threads(width, || {
            time_reps(cfg.reps, || tsmm(&x, true).expect("shapes"))
        });
        let gf = gflops(101.0 * (tall_rows * 100) as f64, t);
        table.row(&[
            "tsmm".into(),
            "t(X) %*% X".into(),
            width.to_string(),
            secs(t),
            format!("{gf:.2}"),
        ]);
        tsmm_rows.push(format!(
            "    {{\"rows\": {tall_rows}, \"width\": {width}, \"secs\": {t:.6}, \"gflops\": {gf:.3}}}"
        ));
    }
    let gram = tsmm(&x, true).expect("shapes");
    let (eig_t, _) = time_reps(cfg.reps, || eigen_symmetric(&gram).expect("finite"));
    table.row(&[
        "eigen_symmetric".into(),
        "100 x 100 Gram".into(),
        "1".into(),
        secs(eig_t),
        "-".into(),
    ]);
    table.print();

    // ---- element-wise and aggregate kernels on K-Means' shapes --------
    // PCA's and K-Means' `sumSq` / `colMeans` on X, and a Lloyd step's
    // passes over the n x 20 distance matrix D. Each kernel matches its
    // operator once per call and carries only the chains its op returns;
    // the per-cell oracle (`op.apply` per cell, all four aggregate chains
    // per cell) is what they replaced, and its bits are theirs.
    let d = rand_matrix(tall_rows, 20, 0.0, 10.0, 17);
    let mins = aggregate(&d, AggOp::Min, AggDir::Row).expect("agg");
    let mut ew_rows = Vec::new();
    let mut table = Table::new(
        &format!("Element-wise and aggregate kernels on K-Means' shapes, {tall_rows} rows"),
        &["kernel", "input", "pool", "1 thread", "per-cell oracle"],
    );
    let mut measure = |name: &str,
                       input: &DenseMatrix,
                       kernel: &dyn Fn() -> DenseMatrix,
                       reference: &dyn Fn() -> DenseMatrix| {
        assert_eq!(
            bits(&kernel()),
            bits(&reference()),
            "{name}: differs bitwise from the per-cell oracle"
        );
        let (pool_t, _) = time_reps(cfg.reps, kernel);
        let (t1, _) = exdra_par::with_threads(1, || time_reps(cfg.reps, kernel));
        let (oracle_t, _) = time_reps(cfg.reps, reference);
        let (r, c) = input.shape();
        table.row(&[
            name.into(),
            format!("{r}x{c}"),
            secs(pool_t),
            secs(t1),
            secs(oracle_t),
        ]);
        ew_rows.push(format!(
            "    {{\"kernel\": \"{name}\", \"rows\": {r}, \"cols\": {c}, \"secs\": {pool_t:.6}, \
             \"secs_t1\": {t1:.6}, \"oracle_secs\": {oracle_t:.6}, \"bitwise_identical\": true}}"
        ));
    };
    for (name, m, op, dir) in [
        ("sumSq", &x, AggOp::SumSq, AggDir::Full),
        ("colMeans", &x, AggOp::Mean, AggDir::Col),
        ("rowMins", &d, AggOp::Min, AggDir::Row),
        ("rowSums", &d, AggOp::Sum, AggDir::Row),
        ("colSums", &d, AggOp::Sum, AggDir::Col),
    ] {
        measure(name, m, &|| aggregate(m, op, dir).expect("agg"), &|| {
            oracle::aggregate(m, op, dir)
        });
    }
    measure(
        "D <= rowMins(D)",
        &d,
        &|| binary(&d, BinaryOp::Le, &mins).expect("shapes"),
        &|| oracle::binary(&d, BinaryOp::Le, &mins),
    );
    measure(
        "D * -2",
        &d,
        &|| scalar(&d, BinaryOp::Mul, -2.0, false),
        &|| oracle::scalar(&d, BinaryOp::Mul, -2.0, false),
    );
    table.print();
    json.push(format!("  \"ew_agg\": [\n{}\n  ]", ew_rows.join(",\n")));
    json.push(format!("  \"ragged\": [\n{}\n  ]", ragged_rows.join(",\n")));
    json.push(format!(
        "  \"tsmm_tall\": [\n{}\n  ]",
        tsmm_rows.join(",\n")
    ));
    json.push(format!("  \"eigen\": {{\"n\": 100, \"secs\": {eig_t:.6}}}"));

    // ---- t(A) %*% B: row sweep vs transpose-then-GEMM -----------------
    // The three transposed-left shapes of the Fig. 5 suite on an n x 100
    // X, one thread: t(X) y (LM-CG, L2SVM), t(X) R with 3 classes
    // (MLogReg), t(P) X with 20 clusters (K-Means).
    let sweep_rows: &[usize] = if quick { &[20_000] } else { &[20_000, 40_000] };
    let mut table = Table::new(
        "t(A) %*% B, one thread: row sweep vs matmul(&transpose(A), B)",
        &["product", "rows", "sweep", "transpose+GEMM", "speedup"],
    );
    let mut tn_rows = Vec::new();
    for &rows in sweep_rows {
        let x = rand_matrix(rows, 100, -1.0, 1.0, 11);
        for (name, k) in [("t(X) y", 1), ("t(X) R", 3), ("t(P) X", 20)] {
            let y = rand_matrix(rows, k, -1.0, 1.0, 12);
            let (a, b) = if k == 20 { (&y, &x) } else { (&x, &y) };
            assert_eq!(
                bits(&matmul_tn(a, b).expect("shapes")),
                bits(&matmul(&transpose(a), b).expect("shapes")),
                "{name}: row sweep differs from transpose+GEMM"
            );
            let (sweep_t, _) = exdra_par::with_threads(1, || {
                time_reps(cfg.reps, || matmul_tn(a, b).expect("shapes"))
            });
            let (gemm_t, _) = exdra_par::with_threads(1, || {
                time_reps(cfg.reps, || matmul(&transpose(a), b).expect("shapes"))
            });
            let speedup = gemm_t / sweep_t.max(1e-12);
            table.row(&[
                format!("{name} (k={k})"),
                rows.to_string(),
                secs(sweep_t),
                secs(gemm_t),
                format!("{speedup:.2}x"),
            ]);
            tn_rows.push(format!(
                "    {{\"product\": \"{name}\", \"rows\": {rows}, \"k\": {k}, \"sweep_secs\": {sweep_t:.6}, \
                 \"transpose_gemm_secs\": {gemm_t:.6}, \"speedup\": {speedup:.3}}}"
            ));
            if k == 1 && rows == 20_000 {
                assert!(
                    speedup >= 1.5,
                    "t(X) y row sweep must beat matmul(&transpose(X), y) by >=1.5x at 20k x 100 \
                     (got {speedup:.2}x)"
                );
            }
        }
    }
    table.print();
    json.push(format!("  \"t_matmul\": [\n{}\n  ]", tn_rows.join(",\n")));

    // ---- mmchain: one pass vs two phases ------------------------------
    // The kernel runs the one-pass sweep when its region is one strip
    // and the two-phase schedule when it fans out (DESIGN.md §4k has the
    // width table this choice was calibrated on).
    let mut table = Table::new(
        "mmchain t(X)*(X*v), X rows x 100: schedule the kernel picks vs two-phase forced",
        &["rows", "width", "picked", "two-phase", "ratio"],
    );
    let mut mc_rows = Vec::new();
    let chain_rows: &[usize] = if quick { &[20_000] } else { &[40_000, 200_000] };
    for &rows in chain_rows {
        let x = rand_matrix(rows, 100, -1.0, 1.0, 13);
        let v = rand_matrix(100, 1, -1.0, 1.0, 14);
        for width in [1, 2, 4] {
            let (picked_t, two_t) = exdra_par::with_threads(width, || {
                assert_eq!(
                    bits(&mmchain(&x, &v, None).expect("shapes")),
                    bits(&mmchain_two_phase(&x, &v, None).expect("shapes")),
                    "one-pass mmchain differs from the two-phase oracle"
                );
                (
                    time_reps(cfg.reps, || mmchain(&x, &v, None).expect("shapes")).0,
                    time_reps(cfg.reps, || {
                        mmchain_two_phase(&x, &v, None).expect("shapes")
                    })
                    .0,
                )
            });
            table.row(&[
                rows.to_string(),
                width.to_string(),
                secs(picked_t),
                secs(two_t),
                format!("{:.2}x", two_t / picked_t.max(1e-12)),
            ]);
            mc_rows.push(format!(
                "    {{\"rows\": {rows}, \"width\": {width}, \"picked_secs\": {picked_t:.6}, \
                 \"two_phase_secs\": {two_t:.6}}}"
            ));
        }
    }
    table.print();
    json.push(format!(
        "  \"mmchain_schedules\": [\n{}\n  ]",
        mc_rows.join(",\n")
    ));

    // ---- compressed-domain operators ----------------------------------
    // Same op on the dense frame and on its column groups; bytes/s uses
    // the bytes each representation actually touches, which is where
    // compressed execution wins (the outputs are bitwise identical).
    let (crows, ccols) = (cfg.rows.max(20_000), 8);
    let d = compressible(crows, ccols);
    let c = CompressedMatrix::compress(&d);
    let dense_bytes = (d.len() * 8) as f64;
    let comp_bytes = c.size_bytes() as f64;
    let cv = rand_matrix(ccols, 1, -1.0, 1.0, 6);
    let cw = rand_matrix(crows, 1, 0.0, 1.0, 7);
    // (name, dense kernel, column-group kernel, the worker's instruction)
    type Pair<'a> = (
        &'a str,
        Box<dyn Fn() -> DenseMatrix + 'a>,
        Box<dyn Fn() -> DenseMatrix + 'a>,
        Instruction,
    );
    let (x_id, v_id, w_id, out_id) = (1, 2, 3, 9);
    let agg = |op, dir| Instruction::Agg {
        x: x_id,
        op,
        dir,
        out: out_id,
    };
    let product = |rhs, t_lhs| Instruction::MatMul {
        lhs: x_id,
        rhs,
        t_lhs,
        out: out_id,
    };
    let pairs: Vec<Pair> = vec![
        (
            "colSums",
            Box::new(|| aggregate(&d, AggOp::Sum, AggDir::Col).expect("agg")),
            Box::new(|| c.aggregate(AggOp::Sum, AggDir::Col).expect("agg")),
            agg(AggOp::Sum, AggDir::Col),
        ),
        (
            "var(X)",
            Box::new(|| aggregate(&d, AggOp::Var, AggDir::Full).expect("agg")),
            Box::new(|| c.aggregate(AggOp::Var, AggDir::Full).expect("agg")),
            agg(AggOp::Var, AggDir::Full),
        ),
        (
            "X*v",
            Box::new(|| matmul(&d, &cv).expect("shapes")),
            Box::new(|| c.matvec(&cv).expect("shapes")),
            product(v_id, false),
        ),
        (
            "t(X)*w",
            Box::new(|| matmul_tn(&d, &cw).expect("shapes")),
            Box::new(|| c.t_matmul(&cw).expect("shapes")),
            product(w_id, true),
        ),
        (
            "t(X)*(w.*(X*v))",
            Box::new(|| mmchain(&d, &cv, Some(&cw)).expect("shapes")),
            Box::new(|| c.mmchain(&cv, Some(&cw)).expect("shapes")),
            Instruction::MmChain {
                x: x_id,
                v: v_id,
                w: Some(w_id),
                out: out_id,
            },
        ),
        (
            "X*2",
            Box::new(|| scalar(&d, BinaryOp::Mul, 2.0, false)),
            Box::new(|| c.map_cells(|v| v * 2.0).decompress()),
            Instruction::Scalar {
                x: x_id,
                op: BinaryOp::Mul,
                value: 2.0,
                swap: false,
                out: out_id,
            },
        ),
    ];
    // The "twin" column is the op as a worker answers it on the compacted
    // frame once the frame's dense twin is held: the dense kernel for the
    // contraction ops, the column groups for everything else (DESIGN.md
    // §4k), request handling included. Reuse is off so every repetition
    // executes; a tsmm (no column-group kernel) leaves the twin behind.
    let tw = compacted_worker(&d, &[(v_id, &cv), (w_id, &cw)], |c| c.reuse_enabled = false);
    run(
        &tw,
        vec![Instruction::Tsmm {
            x: x_id,
            left: true,
            out: out_id,
        }],
    );
    assert_eq!(tw.cache().bytes(), d.len() * 8, "the twin is held");
    let mut table = Table::new(
        &format!(
            "Compressed-domain ops, X {crows}x{ccols} (ratio {:.1}x)",
            c.ratio()
        ),
        &[
            "op",
            "dense",
            "compressed",
            "twin",
            "speedup",
            "dense GB/s",
            "comp GB/s",
        ],
    );
    let mut comp_rows = Vec::new();
    for (name, dense_f, comp_f, inst) in &pairs {
        assert_eq!(
            bits(&comp_f()),
            bits(&dense_f()),
            "{name}: compressed result differs bitwise"
        );
        run(&tw, vec![inst.clone()]);
        let on_worker = tw.table().value(out_id).expect("bound");
        assert_eq!(
            bits(&on_worker.to_dense().expect("matrix")),
            bits(&dense_f()),
            "{name}: the worker's result differs bitwise"
        );
        let (dt, _) = time_reps(cfg.reps, dense_f);
        let (ct, _) = time_reps(cfg.reps, comp_f);
        let (tt, _) = time_reps(cfg.reps, || run(&tw, vec![inst.clone()]));
        table.row(&[
            (*name).into(),
            secs(dt),
            secs(ct),
            secs(tt),
            format!("{:.2}x", dt / ct.max(1e-12)),
            format!("{:.2}", dense_bytes / dt.max(1e-12) / 1e9),
            format!("{:.2}", comp_bytes / ct.max(1e-12) / 1e9),
        ]);
        comp_rows.push(format!(
            "    {{\"op\": \"{name}\", \"dense_secs\": {dt:.6}, \"compressed_secs\": {ct:.6}, \
             \"twin_secs\": {tt:.6}, \
             \"dense_bytes_per_sec\": {:.0}, \"compressed_bytes_per_sec\": {:.0}, \
             \"bitwise_identical\": true}}",
            dense_bytes / dt.max(1e-12),
            comp_bytes / ct.max(1e-12)
        ));
    }
    table.print();

    // ---- end-to-end: LM-style workload on a compacted worker ----------
    // Install the frame, compact it to column groups, then run the ops a
    // linear-model iteration issues against X once each: four cell-passes
    // of contraction, below the break-even of a decompression, so every
    // op takes the direct compressed path, `compress.exec.fallback` stays
    // 0 and no twin is materialized.
    // [direct, decompressions, twins materialized, twin hits] so far.
    let form_counts = || {
        let snap = exdra_obs::global().snapshot();
        [
            "compress.exec.direct",
            "compress.exec.fallback",
            "compress.twin.materialized",
            "compress.twin.hits",
        ]
        .map(|name| snap.counters.get(name).copied().unwrap_or(0))
    };
    let since = |base: [u64; 4]| {
        let now = form_counts();
        [0, 1, 2, 3].map(|i| now[i] - base[i])
    };
    let base = form_counts();
    let w = compacted_worker(&d, &[(2, &cv), (3, &cw)], |_| {});
    run(
        &w,
        vec![
            Instruction::MmChain {
                x: 1,
                v: 2,
                w: Some(3),
                out: 10,
            },
            Instruction::MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: false,
                out: 11,
            },
            // L2SVM's and LM-CG's gradient `t(X) %*% y` on the partition
            // as stored.
            Instruction::MatMul {
                lhs: 1,
                rhs: 3,
                t_lhs: true,
                out: 15,
            },
            Instruction::Agg {
                x: 1,
                op: AggOp::Sum,
                dir: AggDir::Col,
                out: 12,
            },
            Instruction::Scalar {
                x: 1,
                op: BinaryOp::Mul,
                value: 0.5,
                swap: false,
                out: 13,
            },
            Instruction::Agg {
                x: 13,
                op: AggOp::SumSq,
                dir: AggDir::Full,
                out: 14,
            },
        ],
    );
    let [direct, fallback, materialized, _] = since(base);
    let c_opcodes: Vec<String> = exdra_obs::global()
        .snapshot()
        .histograms
        .keys()
        .filter(|k| k.starts_with("inst.c."))
        .cloned()
        .collect();
    assert_eq!(direct, 6, "expected 6 direct compressed executions");
    assert_eq!(fallback, 0, "workload must not decompress the frame");
    assert_eq!(materialized, 0, "one-shot ops must not buy a twin");
    assert!(!c_opcodes.is_empty(), "no inst.c.* histograms recorded");
    println!(
        "\nworkload: {direct} compressed-direct instructions, {fallback} fallbacks; \
         histograms: {}",
        c_opcodes.join(", ")
    );

    // ---- end-to-end: a solver's loop on a compacted worker ------------
    // Ten mmchains with fresh vectors, then a tsmm. The first three rent
    // the column groups, the fourth decompresses once and leaves the twin,
    // everything after (the tsmm's dense fallback included) finds it. A
    // worker whose cache cannot hold the twin runs the same loop direct.
    let base = form_counts();
    let vs: Vec<DenseMatrix> = (0..10)
        .map(|i| rand_matrix(ccols, 1, -1.0, 1.0, 20 + i))
        .collect();
    let inputs: Vec<(u64, &DenseMatrix)> = (100u64..).zip(&vs).collect();
    let mut looped: Vec<Instruction> = (0..10)
        .map(|i| Instruction::MmChain {
            x: 1,
            v: 100 + i,
            w: None,
            out: 200 + i,
        })
        .collect();
    looped.push(Instruction::Tsmm {
        x: 1,
        left: true,
        out: 210,
    });
    let w = compacted_worker(&d, &inputs, |_| {});
    let (_, loop_t) = time(|| run(&w, looped.clone()));
    let [loop_direct, loop_fallback, loop_materialized, loop_hits] = since(base);
    assert_eq!(loop_materialized, 1, "the loop buys exactly one twin");
    assert_eq!(loop_fallback, 1, "and decompresses nothing else");
    assert_eq!((loop_direct, loop_hits), (3, 7));
    let all_direct = compacted_worker(&d, &inputs, |c| c.cache_bytes = 0);
    let (_, direct_t) = time(|| run(&all_direct, looped.clone()));
    for out in 200..=210 {
        let of = |w: &Arc<Worker>| {
            bits(
                &w.table()
                    .value(out)
                    .expect("bound")
                    .to_dense()
                    .expect("matrix"),
            )
        };
        assert_eq!(of(&w), of(&all_direct), "symbol {out}: twin vs all-direct");
    }
    println!(
        "loop (10 mmchain + tsmm): {} with the twin ({loop_direct} direct, 1 decompression, \
         {loop_hits} twin hits), {} all direct",
        secs(loop_t),
        secs(direct_t)
    );

    // ---- results ------------------------------------------------------
    json.insert(0, format!("  \"gemm\": [\n{}\n  ]", gemm_rows.join(",\n")));
    json.push(format!(
        "  \"compressed\": {{\"rows\": {crows}, \"cols\": {ccols}, \"ratio\": {:.3}, \"ops\": [\n{}\n  ]}}",
        c.ratio(),
        comp_rows.join(",\n")
    ));
    json.push(format!(
        "  \"workload\": {{\"direct\": {direct}, \"fallback\": {fallback}, \
         \"materialized\": {materialized}, \"compressed_opcodes\": [{}]}}",
        c_opcodes
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push(format!(
        "  \"loop_workload\": {{\"mmchains\": 10, \"tsmms\": 1, \"direct\": {loop_direct}, \
         \"decompressions\": {loop_fallback}, \"materialized\": {loop_materialized}, \
         \"twin_hits\": {loop_hits}, \"secs\": {loop_t:.6}, \"all_direct_secs\": {direct_t:.6}, \
         \"bitwise_identical\": true}}"
    ));
    let body = format!(
        "{{\n  \"host_cpus\": {hw},\n  \"reps\": {},\n  \"quick\": {quick},\n{}\n}}\n",
        cfg.reps,
        json.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let path = dir.join("kernels.json");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
    write_metrics_sidecar("kernel_bench");
}

/// A worker holding `frame` as symbol 1, compacted to column groups, and
/// the dense `inputs`, each under its own lineage.
fn compacted_worker(
    frame: &DenseMatrix,
    inputs: &[(u64, &DenseMatrix)],
    configure: impl FnOnce(&mut WorkerConfig),
) -> Arc<Worker> {
    let mut config = WorkerConfig::default();
    configure(&mut config);
    let w = Worker::new(config);
    let install = |id: u64, m: &DenseMatrix| {
        w.install_matrix(
            id,
            m.clone(),
            PrivacyLevel::Public,
            &format!("kernel_bench:{id}"),
        );
    };
    install(1, frame);
    assert_eq!(
        w.compact(1024, Duration::ZERO),
        1,
        "frame must compress under compaction"
    );
    for (id, m) in inputs {
        install(*id, m);
    }
    w
}

/// Executes the instructions as one batch; every one must succeed.
fn run(w: &Arc<Worker>, batch: Vec<Instruction>) {
    let responses = w.handle_batch(
        batch
            .into_iter()
            .map(|inst| Request::ExecInst { inst })
            .collect(),
    );
    assert!(
        responses.iter().all(|r| *r == Response::Ok),
        "workload failed: {responses:?}"
    );
}
