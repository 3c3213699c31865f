//! Ablation A2 — worker-side compression of cached intermediates
//! (paper §4.4, "Compression": free cycles compact intermediates
//! losslessly).
//!
//! Measures (a) the space saving of DDC/RLE column compression on the
//! one-hot-heavy paper-production matrix, (b) the cost of compaction, and
//! (c) op time on compressed vs dense representations (matrix-vector and
//! colSums execute directly on the compressed form).
//!
//! `cargo run -p exdra-bench --bin ablation_compress --release [-- --quick]`

use std::time::Duration;

use exdra_bench::*;
use exdra_core::PrivacyLevel;
use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::kernels::matmul;
use exdra_matrix::rng::rand_matrix;

fn main() {
    obs_init();
    let cfg = BenchConfig::from_args();
    println!(
        "Ablation A2 (compression) | X: {}x{} (one-hot heavy)",
        cfg.rows, cfg.cols
    );
    // The federated-cached intermediate: encoded features (80% continuous,
    // 20% one-hot — highly compressible), as produced by transformencode.
    let x = paper_matrix(cfg.rows, cfg.cols, 1);
    let v = rand_matrix(cfg.cols, 1, -1.0, 1.0, 2);
    let w = rand_matrix(cfg.rows, 1, -1.0, 1.0, 3);

    let (compressed, t_compress) = time(|| CompressedMatrix::compress(&x));
    let dense_bytes = x.size_bytes();
    let comp_bytes = compressed.size_bytes();

    let mut table = Table::new(
        "Ablation A2: compressed cached intermediates",
        &["metric", "dense", "compressed"],
    );
    table.row(&[
        "size".into(),
        format!("{:.1} MB", dense_bytes as f64 / 1e6),
        format!(
            "{:.1} MB ({:.1}x)",
            comp_bytes as f64 / 1e6,
            compressed.ratio()
        ),
    ]);
    // Scheme histogram.
    let mut ddc = 0usize;
    let mut rle = 0usize;
    let mut uc = 0usize;
    for p in compressed.plan() {
        match p.scheme {
            "DDC8" | "DDC16" => ddc += 1,
            "RLE" => rle += 1,
            _ => uc += 1,
        }
    }
    table.row(&[
        "columns by scheme".into(),
        format!("{} total", cfg.cols),
        format!("{ddc} DDC / {rle} RLE / {uc} UC"),
    ]);
    table.row(&["compaction time".into(), "-".into(), secs(t_compress)]);

    // Ops on compressed vs dense.
    let (want_mv, t_dense_mv) = time_reps_result(cfg.reps, || matmul::matmul(&x, &v).unwrap());
    let (got_mv, t_comp_mv) = time_reps_result(cfg.reps, || compressed.matvec(&v).unwrap());
    assert!(
        got_mv.max_abs_diff(&want_mv) < 1e-9,
        "compressed matvec wrong"
    );
    table.row(&["X %*% v".into(), secs(t_dense_mv), secs(t_comp_mv)]);

    let xt = exdra_matrix::kernels::reorg::transpose(&x);
    let wt = exdra_matrix::kernels::reorg::transpose(&w);
    let (want_vm, t_dense_vm) = time_reps_result(cfg.reps, || matmul::matmul(&wt, &x).unwrap());
    let (got_vm, t_comp_vm) = time_reps_result(cfg.reps, || compressed.t_vecmat(&w).unwrap());
    let _ = xt;
    assert!(
        got_vm.max_abs_diff(&want_vm) < 1e-7,
        "compressed vecmat wrong"
    );
    table.row(&["t(w) %*% X".into(), secs(t_dense_vm), secs(t_comp_vm)]);

    let (want_cs, t_dense_cs) = time_reps_result(cfg.reps, || {
        exdra_matrix::kernels::aggregates::aggregate(
            &x,
            exdra_matrix::kernels::aggregates::AggOp::Sum,
            exdra_matrix::kernels::aggregates::AggDir::Col,
        )
        .unwrap()
    });
    let (got_cs, t_comp_cs) = time_reps_result(cfg.reps, || compressed.col_sums());
    assert!(got_cs.max_abs_diff(&want_cs) < 1e-7);
    table.row(&["colSums".into(), secs(t_dense_cs), secs(t_comp_cs)]);
    table.print();

    // Worker-integrated path: each in-process worker compacts its symbol
    // table.
    let (ctx, workers) = federation(2, NetSetting::Lan, cfg.wan_profile());
    let fed =
        exdra_core::fed::FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).expect("scatter");
    let before: usize = workers.iter().map(|w| w.table().total_bytes()).sum();
    for w in &workers {
        w.compact(1024, Duration::ZERO);
    }
    let after: usize = workers.iter().map(|w| w.table().total_bytes()).sum();
    println!(
        "\nworker symbol tables: {:.1} MB -> {:.1} MB after compaction ({:.1}x)",
        before as f64 / 1e6,
        after as f64 / 1e6,
        before as f64 / after.max(1) as f64
    );
    // Federated op on the compacted representation still works.
    let s = exdra_core::Tensor::Fed(fed)
        .sum()
        .expect("sum over compressed");
    println!("federated sum over compacted partitions: {s:.3} (verified non-NaN)");
    assert!(s.is_finite());
    write_metrics_sidecar("ablation_compress");
}

/// Times `reps` runs of a result-producing closure, returning the last
/// result and the mean time.
fn time_reps_result<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = None;
    let mut total = 0.0;
    for _ in 0..reps.max(1) {
        let (r, t) = time(&mut f);
        out = Some(r);
        total += t;
    }
    (out.expect("at least one rep"), total / reps.max(1) as f64)
}
