//! End-to-end tests of the lazy front-end API over real TCP federations,
//! including `READ`-on-demand from worker-local raw files (paper Figure 2's
//! "Read on Demand") and the generated-script view of plans.

use std::sync::Mutex;

use exdra::api::{CostModel, Lazy, Plan};
use exdra::core::coordinator::WorkerEndpoint;
use exdra::core::instruction::Instruction::{self, *};
use exdra::core::testutil::{tcp_federation, tcp_federation_with};
use exdra::core::worker::WorkerConfig;
use exdra::matrix::io::write_matrix_csv;
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::kernels::elementwise::BinaryOp;
use exdra::matrix::kernels::matmul::matmul;
use exdra::matrix::kernels::reorg;
use exdra::matrix::rng::rand_matrix;
use exdra::Session;

#[test]
fn read_on_demand_from_worker_files() {
    // Raw CSV partitions live in per-site directories; the coordinator
    // never sees the files, only issues READ requests.
    let root = std::env::temp_dir().join(format!("exdra-e2e-api-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let x = rand_matrix(90, 6, -1.0, 1.0, 1);
    let splits = [(0usize, 40usize), (40, 90)];
    let mut dirs = Vec::new();
    for (w, (lo, hi)) in splits.iter().enumerate() {
        let dir = root.join(format!("site{w}"));
        std::fs::create_dir_all(&dir).unwrap();
        let part = reorg::index(&x, *lo, *hi, 0, 6).unwrap();
        write_matrix_csv(&part, &dir.join("x.csv")).unwrap();
        dirs.push(dir);
    }
    let mut it = dirs.into_iter();
    let (ctx, _workers) = tcp_federation_with(
        2,
        move || WorkerConfig {
            data_dir: it.next().unwrap(),
            ..WorkerConfig::default()
        },
        WorkerEndpoint::tcp,
    );
    let sds = Session::builder().context(ctx).build().unwrap();
    let fed = sds
        .read_federated_csv(&[("x.csv".into(), 40), ("x.csv".into(), 50)], 6)
        .unwrap();
    // The lazily-read federated matrix computes like the original.
    let got = fed.tsmm().unwrap().compute().unwrap();
    let want = exdra::matrix::kernels::matmul::tsmm(&x, true).unwrap();
    assert!(got.max_abs_diff(&want) < 1e-9);
}

#[test]
fn read_rejects_missing_files() {
    let (ctx, _workers) = tcp_federation(2);
    let sds = Session::builder().context(ctx).build().unwrap();
    let err = sds
        .read_federated_csv(&[("nope.csv".into(), 10), ("nope.csv".into(), 10)], 3)
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("io error") || err.to_string().contains("worker"));
}

#[test]
fn explain_shows_federated_plan_once_per_source() {
    let (ctx, _workers) = tcp_federation(3);
    let sds = Session::builder().context(ctx).build().unwrap();
    let x = rand_matrix(60, 4, 0.0, 1.0, 2);
    let fed = sds.federated(&x).unwrap();
    // Normalization plan reusing the source twice.
    let plan = fed.sub(&fed.col_means().unwrap()).unwrap();
    let explain = sds.explain(&plan);
    let script = &explain.logical;
    assert_eq!(
        script.matches("federated(60x4, 3 partitions").count(),
        1,
        "shared source must appear once:\n{script}"
    );
    assert!(script.contains("mean(X1; dir=Col)"), "{script}");
    assert_eq!(
        explain
            .optimized
            .matches("federated(60x4, 3 partitions")
            .count(),
        1,
        "optimization keeps the source shared:\n{}",
        explain.optimized
    );
    // The plan computes correctly too.
    let got = plan.compute().unwrap();
    let mu = exdra::matrix::kernels::aggregates::aggregate(
        &x,
        exdra::matrix::kernels::aggregates::AggOp::Mean,
        exdra::matrix::kernels::aggregates::AggDir::Col,
    )
    .unwrap();
    let want = exdra::matrix::kernels::elementwise::binary(
        &x,
        exdra::matrix::kernels::elementwise::BinaryOp::Sub,
        &mu,
    )
    .unwrap();
    assert!(got.max_abs_diff(&want) < 1e-12);
}

/// A cost model that records the opcode of every kernel it prices.
#[derive(Default)]
struct OpcodeRecorder(Mutex<Vec<String>>);

impl CostModel for OpcodeRecorder {
    fn op_nanos(&self, opcode: &str, _out_cells: u64, _work: u64) -> f64 {
        self.0.lock().unwrap().push(opcode.to_string());
        0.0
    }
    fn transfer_nanos(&self, _bytes: u64) -> f64 {
        0.0
    }
    fn round_trip_nanos(&self) -> f64 {
        0.0
    }
}

/// The cost model prices each node under the opcode name of the
/// instruction it runs as, the name a worker profiles it under.
#[test]
fn every_plan_node_prices_under_its_instructions_name() {
    let x = Lazy::from_local(rand_matrix(6, 3, -1.0, 1.0, 31));
    let y = Lazy::from_local(rand_matrix(6, 3, -1.0, 1.0, 32));
    let cases: [(&str, Lazy, Instruction); 6] = [
        (
            "t(X) %*% Y",
            x.t_matmul(&y),
            MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: true,
                out: 3,
            },
        ),
        (
            "X[1:4, 0:2]",
            x.index(1, 4, 0, 2),
            Index {
                x: 1,
                row_lo: 1,
                row_hi: 4,
                col_lo: 0,
                col_hi: 2,
                out: 2,
            },
        ),
        ("cbind(X, Y)", x.cbind(&y), Cbind { a: 1, b: 2, out: 3 }),
        ("t(X)", x.t(), Transpose { x: 1, out: 2 }),
        (
            "colMeans(X)",
            x.col_means().unwrap(),
            Agg {
                x: 1,
                op: AggOp::Mean,
                dir: AggDir::Col,
                out: 2,
            },
        ),
        (
            "0.5 - X",
            x.scalar(BinaryOp::Sub, 0.5, true),
            Scalar {
                x: 1,
                op: BinaryOp::Sub,
                value: 0.5,
                swap: true,
                out: 2,
            },
        ),
    ];
    for (what, expr, row) in cases {
        let cost = OpcodeRecorder::default();
        Plan::from_lazy(&expr).estimate(&cost);
        assert_eq!(*cost.0.lock().unwrap(), [row.name()], "{what}");
    }
}

#[test]
fn dag_chains_through_federated_and_local_stages() {
    let (ctx, _workers) = tcp_federation(2);
    let sds = Session::builder().context(ctx).build().unwrap();
    let x = rand_matrix(50, 5, -1.0, 1.0, 3);
    let w = rand_matrix(5, 2, -1.0, 1.0, 4);
    let fed = sds.federated(&x).unwrap();
    let local_w = sds.matrix(w.clone());
    // (X %*% W) row-index-max: the matmul stays federated, argmax too,
    // only the n x 1 labels consolidate.
    let labels = fed.matmul(&local_w).row_index_max().compute().unwrap();
    let want = exdra::matrix::kernels::aggregates::row_index_max(&matmul(&x, &w).unwrap()).unwrap();
    assert!(labels.max_abs_diff(&want) < 1e-15);
}

#[test]
fn kmeans_builtin_through_session() {
    let (ctx, _workers) = tcp_federation(2);
    let sds = Session::builder().context(ctx).build().unwrap();
    let (x, _) = exdra::ml::synth::blobs(200, 3, 3, 0.3, 5);
    let fed = sds.federated(&x).unwrap();
    let model = fed.kmeans(3).unwrap();
    assert_eq!(model.centroids.shape(), (3, 3));
    assert!(model.wcss.is_finite());
}

#[test]
fn worker_clear_resets_session_state() {
    let (ctx, workers) = tcp_federation(2);
    let sds = Session::builder().context(ctx.clone()).build().unwrap();
    let x = rand_matrix(20, 3, 0.0, 1.0, 6);
    let fed = sds.federated(&x).unwrap();
    assert!(fed.sum().compute_scalar().is_ok());
    ctx.clear_all().unwrap();
    for w in &workers {
        assert!(w.table().is_empty());
    }
    // The stale handle now fails cleanly instead of returning garbage.
    assert!(fed.sum().compute_scalar().is_err());
}
