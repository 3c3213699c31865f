//! Literal pins for what crosses a process boundary or a cache: each
//! instruction's wire bytes, its opcode name and the lineage a worker
//! binds its output under, plus the front end's plan-cache keys. Encoded
//! instructions travel between coordinator and workers, worker lineages
//! key the reuse cache and its checkpoints, and plan-cache keys are shared
//! by an attached client and its `CoordServer`: a refactor may move none
//! of them.

use std::sync::Arc;

use exdra::api::{Lazy, Optimizer, Plan, PlanOp};
use exdra::core::exec;
use exdra::core::instruction::Instruction::{self, *};
use exdra::core::symbol::SymbolTable;
use exdra::core::{DataValue, FedMatrix, PrivacyLevel};
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::rng::rand_matrix;
use exdra::net::codec::Wire;
use exdra::DenseMatrix;

/// One sample of every opcode (both `t_lhs` forms, both `MmChain`
/// weightings) with its wire bytes, name and output lineage.
fn pins() -> Vec<(Instruction, &'static str, &'static str, Option<u64>)> {
    vec![
        (
            MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: false,
                out: 3,
            },
            "0001000000000000000200000000000000000300000000000000",
            "ba+*",
            Some(0xd45000919cd8f6ae),
        ),
        (
            MatMul {
                lhs: 1,
                rhs: 2,
                t_lhs: true,
                out: 3,
            },
            "0001000000000000000200000000000000010300000000000000",
            "t-ba+*",
            Some(0x7ad2c02d6996b107),
        ),
        (
            Tsmm {
                x: 1,
                left: true,
                out: 2,
            },
            "010100000000000000010200000000000000",
            "tsmm",
            Some(0x308b9d64ecf0bca3),
        ),
        (
            MmChain {
                x: 1,
                v: 2,
                w: Some(3),
                out: 4,
            },
            "02010000000000000002000000000000000103000000000000000400000000000000",
            "mmchain",
            Some(0x08346aea68ecaf43),
        ),
        (
            MmChain {
                x: 1,
                v: 2,
                w: None,
                out: 4,
            },
            "0201000000000000000200000000000000000400000000000000",
            "mmchain",
            Some(0x7495eb4ba4d1e2b1),
        ),
        (
            Unary {
                x: 1,
                op: UnaryOp::Sigmoid,
                out: 2,
            },
            "0301000000000000000d0200000000000000",
            "sigmoid",
            Some(0x843cf547adf0ac65),
        ),
        (
            Softmax { x: 1, out: 2 },
            "0401000000000000000200000000000000",
            "softmax",
            Some(0xb3102721d05f36a6),
        ),
        (
            Binary {
                lhs: 1,
                rhs: 2,
                op: BinaryOp::LogBase,
                out: 3,
            },
            "0501000000000000000200000000000000120300000000000000",
            "log",
            Some(0x4efeddd15d42b546),
        ),
        (
            Scalar {
                x: 1,
                op: BinaryOp::Pow,
                value: 2.5,
                swap: true,
                out: 2,
            },
            "060100000000000000060000000000000440010200000000000000",
            "^",
            Some(0xcf0e038c469e790d),
        ),
        (
            Agg {
                x: 1,
                op: AggOp::Var,
                dir: AggDir::Col,
                out: 2,
            },
            "07010000000000000004020200000000000000",
            "var",
            Some(0x2a913510a02300c2),
        ),
        (
            RowIndexMax { x: 1, out: 2 },
            "0801000000000000000200000000000000",
            "rowIndexMax",
            Some(0xeaf5b6d5efad33a7),
        ),
        (
            RowIndexMin { x: 1, out: 2 },
            "0901000000000000000200000000000000",
            "rowIndexMin",
            Some(0x43283cad6fadfc28),
        ),
        (
            CTable {
                a: 1,
                b: 2,
                w: Some(3),
                dims: Some((4, 5)),
                out: 6,
            },
            "0a0100000000000000020000000000000001030000000000000001040000000000000005000000000000000600000000000000",
            "ctable",
            Some(0x5223f78e7594fc46),
        ),
        (
            IfElse {
                cond: 1,
                then_v: 2,
                else_v: 3,
                out: 4,
            },
            "0b0100000000000000020000000000000003000000000000000400000000000000",
            "ifelse",
            Some(0x4e8d7a67df56b1d8),
        ),
        (
            Axpy {
                x: 1,
                s: -0.5,
                y: 2,
                sub: true,
                out: 3,
            },
            "0c0100000000000000000000000000e0bf0200000000000000010300000000000000",
            "-*",
            Some(0x76de26963c8afe54),
        ),
        (
            WsLoss {
                x: 1,
                w: 2,
                u: 3,
                v: 4,
                out: 5,
            },
            "0d01000000000000000200000000000000030000000000000004000000000000000500000000000000",
            "wsloss",
            Some(0x707459fb9b65479a),
        ),
        (
            WSigmoid {
                w: 1,
                u: 2,
                v: 3,
                out: 4,
            },
            "0e0100000000000000020000000000000003000000000000000400000000000000",
            "wsigmoid",
            Some(0x377d64edb0266d0e),
        ),
        (
            WDivMm {
                w: 1,
                u: 2,
                v: 3,
                out: 4,
            },
            "0f0100000000000000020000000000000003000000000000000400000000000000",
            "wdivmm",
            Some(0x77c709c12184f4eb),
        ),
        (
            WCeMm {
                w: 1,
                u: 2,
                v: 3,
                eps: 1e-12,
                out: 4,
            },
            "1001000000000000000200000000000000030000000000000011ea2d819997713d0400000000000000",
            "wcemm",
            Some(0xe5904eca444cce5c),
        ),
        (
            Transpose { x: 1, out: 2 },
            "1101000000000000000200000000000000",
            "r'",
            Some(0xf6879d549b0ee4ac),
        ),
        (
            Rbind { a: 1, b: 2, out: 3 },
            "12010000000000000002000000000000000300000000000000",
            "rbind",
            Some(0x0256c010b8178ee1),
        ),
        (
            Cbind { a: 1, b: 2, out: 3 },
            "13010000000000000002000000000000000300000000000000",
            "cbind",
            Some(0xf6f192dc1531b14d),
        ),
        (
            RemoveEmpty {
                x: 1,
                rows: false,
                select: Some(2),
                out: 3,
            },
            "140100000000000000000102000000000000000300000000000000",
            "removeEmpty",
            Some(0xda6ee88c29bf218a),
        ),
        (
            Replace {
                x: 1,
                pattern: f64::NAN,
                replacement: 0.0,
                out: 2,
            },
            "150100000000000000000000000000f87f00000000000000000200000000000000",
            "replace",
            Some(0x056a89a9f592758c),
        ),
        (
            Index {
                x: 1,
                row_lo: 0,
                row_hi: 10,
                col_lo: 2,
                col_hi: 5,
                out: 2,
            },
            "16010000000000000000000000000000000a00000000000000020000000000000005000000000000000200000000000000",
            "rightIndex",
            Some(0xfa39b4ca074c6067),
        ),
        (
            IndexAssign {
                x: 1,
                row_lo: 3,
                col_lo: 4,
                y: 2,
                out: 5,
            },
            "1701000000000000000300000000000000040000000000000002000000000000000500000000000000",
            "leftIndex",
            Some(0x5e9d45434903a524),
        ),
        (
            Diag { x: 1, out: 2 },
            "1801000000000000000200000000000000",
            "rdiag",
            Some(0x50409b44590b0f49),
        ),
        (
            Order {
                x: 1,
                by: 0,
                decreasing: true,
                index_return: false,
                out: 2,
            },
            "190100000000000000000000000000000001000200000000000000",
            "order",
            Some(0x61387d9a3699289a),
        ),
        (
            GatherRows {
                x: 1,
                idx: 2,
                out: 3,
            },
            "1a010000000000000002000000000000000300000000000000",
            "gather",
            Some(0xbf2e4b7cb30904e4),
        ),
        (
            Reshape {
                x: 1,
                rows: 4,
                cols: 6,
                out: 2,
            },
            "1b0100000000000000040000000000000006000000000000000200000000000000",
            "rshape",
            Some(0xf8b31f7944656d96),
        ),
        (
            Cov { a: 1, b: 2, out: 3 },
            "1c010000000000000002000000000000000300000000000000",
            "cov",
            Some(0x03a1093073201fe8),
        ),
        (
            CentralMoment {
                a: 1,
                order: 3,
                out: 2,
            },
            "1d0100000000000000030000000200000000000000",
            "cm",
            Some(0xf60b936d34b4503c),
        ),
        (
            Rmvar { ids: vec![1, 2, 3] },
            "1e0300000000000000010000000000000002000000000000000300000000000000",
            "rmvar",
            None,
        ),
    ]
}

/// The value symbol `id` holds when `inst` runs: ones, 1 x 1 unless the
/// sample's literals index further.
fn operand(inst: &Instruction, id: u64) -> DenseMatrix {
    let (rows, cols) = match inst {
        Index { .. } => (10, 5),
        IndexAssign { x, .. } if *x == id => (5, 5),
        Reshape { .. } => (4, 6),
        Cov { .. } => (2, 1),
        _ => (1, 1),
    };
    DenseMatrix::filled(rows, cols, 1.0)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_instruction_keeps_its_bytes_name_and_worker_lineage() {
    let pins = pins();
    assert_eq!(pins.len(), 33);
    for (inst, bytes, name, lineage) in pins {
        assert_eq!(hex(&inst.to_bytes()), bytes, "{inst:?}: wire bytes");
        assert_eq!(inst.name(), name, "{inst:?}: name");
        // Every sample names symbols 1..=6 only; each is bound under a
        // fixed lineage of its own, whatever the sample reads.
        let table = SymbolTable::new();
        for id in 1..=6 {
            let value = Arc::new(DataValue::from(operand(&inst, id)));
            table.bind(id, value, PrivacyLevel::Public, true, 0x5eed_0000 + id);
        }
        exec::execute(&inst, &table, None).unwrap();
        let got = inst
            .output()
            .map(|out| table.get(out).unwrap().meta.lineage);
        assert_eq!(got, lineage, "{inst:?}: output lineage");
    }
}

/// Plan-cache keys cross process boundaries (an attached client and
/// its `CoordServer` share one cache), so every operator's lineage is
/// pinned to a literal: a refactor may not move any of them.
#[test]
fn lineage_keys_are_pinned_for_every_op() {
    let (ctx, _workers) = exdra::core::testutil::mem_federation(2);
    let x = Lazy::from_local(rand_matrix(6, 3, -1.0, 1.0, 21));
    let y = Lazy::from_local(rand_matrix(6, 3, -1.0, 1.0, 22));
    let v = Lazy::from_local(rand_matrix(3, 1, -1.0, 1.0, 23));
    let w = Lazy::from_local(rand_matrix(6, 1, 0.0, 1.0, 24));
    let fed = rand_matrix(6, 3, -1.0, 1.0, 25);
    let fed = Lazy::from_fed(FedMatrix::scatter_rows(&ctx, &fed, PrivacyLevel::Public).unwrap());
    let table = [
        ("src.local", x.clone(), 0xa565566afd8c7c7a_u64),
        ("src.fed", fed.clone(), 0xcefed16ba1f0ce0f),
        ("ba+*", x.matmul(&v), 0x6cb7b71dc17950c3),
        ("t-ba+*", x.t_matmul(&y), 0x37c5eaaf8f5e772f),
        ("tsmm", fed.tsmm().unwrap(), 0x82d59511759eb6e9),
        ("binary", x.div(&y).unwrap(), 0xe1077b85969a388d),
        (
            "scalar",
            x.scalar(BinaryOp::Sub, 0.5, true),
            0x8dfc118fbde8cc11,
        ),
        ("unary", x.unary(UnaryOp::Exp), 0x4733205e17fbd96b),
        ("softmax", x.softmax(), 0x9da0f12b86d504d4),
        ("agg", x.agg(AggOp::Mean, AggDir::Col), 0xb58a059964fbf46b),
        ("rowIndexMax", x.row_index_max(), 0x06a1c0474c565deb),
        ("t", x.t(), 0xcf2182580e4f59e0),
        ("ix", x.index(1, 4, 0, 2), 0x66bf0562d0a2ed15),
        ("rbind", x.rbind(&y), 0xe8f5f9b325a5589e),
        ("cbind", x.cbind(&y), 0x6498a74ea85c030f),
        ("replace", x.replace(f64::NAN, 0.0), 0x9b7218ebc0911820),
    ];
    for (name, expr, want) in &table {
        assert_eq!(expr.lineage_hash(), *want, "{name}: Lazy::lineage_hash");
        let plan = Plan::from_lazy(expr);
        assert_eq!(
            plan.lineages()[plan.root()],
            *want,
            "{name}: Plan::lineages"
        );
    }
    // The fused operator only exists in optimized plans.
    let chain = x.t_matmul(&w.mul(&x.matmul(&v)).unwrap());
    let (fused, _) = Optimizer::new().optimize(&Plan::from_lazy(&chain));
    assert!(matches!(
        fused.node(fused.root()).op,
        PlanOp::MmChain { w_on_left: true }
    ));
    assert_eq!(fused.lineages()[fused.root()], 0x9f9cc5c6e055ffec);
}
