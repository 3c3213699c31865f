//! Wire pins for every federated arm of the `Tensor`, `FedFrame` and `prep`
//! API. Each case runs one op plus one fetch of its result on a fresh
//! 3-worker in-memory federation and pins, as literals:
//!
//! - the messages, bytes sent and bytes received of the op and the fetch;
//! - a hash of the result's bits (or of the error it returns);
//! - the symbols each worker still holds once every handle is dropped and
//!   every outbox is flushed.
//!
//! A change to how federated ops are lowered into requests must leave every
//! literal here as it is. Observability stays off in this file, so reply
//! footers carry no per-request timings and byte counts repeat exactly.

use std::sync::{Arc, OnceLock};

use exdra::core::fed::prep::{impute_mean, split_rows_per_partition, FedFrame};
use exdra::core::fed::{FedMatrix, FedPartition, PartitionScheme};
use exdra::core::protocol::ReadFormat;
use exdra::core::testutil::mem_federation_with;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{FedContext, FedError, PrivacyLevel, Tensor};
use exdra::matrix::frame::{Frame, FrameColumn};
use exdra::matrix::io::{write_frame_csv, write_matrix_csv};
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::kernels::elementwise::{BinaryOp, UnaryOp};
use exdra::matrix::kernels::reorg;
use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;
use exdra::transform::TransformSpec;

/// Uneven row cuts of the 24 x 5 row-partitioned inputs.
const ROW_CUTS: [usize; 4] = [0, 5, 16, 24];
/// Uneven column cuts of the column-partitioned copy of `X`.
const COL_CUTS: [usize; 4] = [0, 1, 3, 5];
/// Rows of the three site frames (and of the three site CSV files).
const FRAME_ROWS: [usize; 3] = [5, 11, 8];

/// What one case measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    msgs: u64,
    sent: u64,
    recv: u64,
    hash: u64,
    left: [usize; 3],
}

const fn p(msgs: u64, sent: u64, recv: u64, hash: u64, left: [usize; 3]) -> Pin {
    Pin {
        msgs,
        sent,
        recv,
        hash,
        left,
    }
}

type Out = Result<Vec<u64>, FedError>;
type Case = (String, Box<dyn Fn(&In) -> Out>);

/// The inputs of every case, installed at the workers directly (no wire
/// traffic) except the frame, whose `PUT`s are flushed before measuring.
struct In {
    ctx: Arc<FedContext>,
    /// `X`, 24 x 5, rows cut at [`ROW_CUTS`].
    x: FedMatrix,
    /// The same `X`, columns cut at [`COL_CUTS`].
    xc: FedMatrix,
    /// 24 x 2 weights co-partitioned with `x`.
    w: FedMatrix,
    /// 24 x 1 weights co-partitioned with `x`.
    w1: FedMatrix,
    /// 5 x 2, rows cut at 0, 2, 4, 5.
    v: FedMatrix,
    /// Three site frames of [`FRAME_ROWS`] rows.
    frame: FedFrame,
}

fn x_local() -> DenseMatrix {
    let mut x = rand_matrix(24, 5, -2.0, 2.0, 1);
    x.set(3, 2, 1.0);
    x.set(20, 4, 1.0);
    x.set(9, 0, 0.0);
    x
}

fn site_frame(site: usize) -> Frame {
    let rows = FRAME_ROWS[site];
    let recipe = (0..rows)
        .map(|r| ((r + site) % 4 != 1).then(|| format!("R{}", (r * 7 + site) % 3)))
        .collect();
    let power = (0..rows)
        .map(|r| Some(((r * 13 + site * 5) % 17) as f64 * 1.5))
        .collect();
    Frame::new(vec![
        ("recipe".into(), FrameColumn::Str(recipe)),
        ("power".into(), FrameColumn::F64(power)),
    ])
    .unwrap()
}

fn install(
    ctx: &Arc<FedContext>,
    workers: &[Arc<Worker>],
    m: &DenseMatrix,
    scheme: PartitionScheme,
    cuts: &[usize],
) -> FedMatrix {
    let parts = (0..workers.len())
        .map(|w| {
            let (lo, hi) = (cuts[w], cuts[w + 1]);
            let slice = match scheme {
                PartitionScheme::Row => reorg::index(m, lo, hi, 0, m.cols()),
                PartitionScheme::Col => reorg::index(m, 0, m.rows(), lo, hi),
            }
            .unwrap();
            let id = ctx.fresh_id();
            workers[w].install_matrix(id, slice, PrivacyLevel::Public, &format!("pin{id}"));
            FedPartition {
                lo,
                hi,
                worker: w,
                id,
            }
        })
        .collect();
    FedMatrix::from_parts(
        Arc::clone(ctx),
        scheme,
        m.rows(),
        m.cols(),
        parts,
        PrivacyLevel::Public,
        true,
    )
    .unwrap()
}

/// One directory per site holding `x.csv` (the site's rows of `X`) and
/// `raw.csv` (its frame), written once per process into a fresh temp dir.
fn site_dirs() -> &'static [std::path::PathBuf] {
    static DIRS: OnceLock<Vec<std::path::PathBuf>> = OnceLock::new();
    DIRS.get_or_init(|| {
        let root = std::env::temp_dir().join(format!("exdra-fed-wire-pins-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let x = x_local();
        (0..3)
            .map(|s| {
                let dir = root.join(format!("site{s}"));
                std::fs::create_dir_all(&dir).unwrap();
                let rows = reorg::index(&x, ROW_CUTS[s], ROW_CUTS[s + 1], 0, 5).unwrap();
                write_matrix_csv(&rows, &dir.join("x.csv")).unwrap();
                write_frame_csv(&site_frame(s), &dir.join("raw.csv")).unwrap();
                dir
            })
            .collect()
    })
}

fn flush(ctx: &FedContext) {
    for w in 0..ctx.num_workers() {
        ctx.call(w, &[]).unwrap();
    }
}

/// Runs one case on a fresh federation.
fn measure(op: &dyn Fn(&In) -> Out) -> Pin {
    let mut dirs = site_dirs().iter();
    let (ctx, workers) = mem_federation_with(3, || WorkerConfig {
        data_dir: dirs.next().unwrap().clone(),
        ..WorkerConfig::default()
    });
    let x = x_local();
    let frames: Vec<Frame> = (0..3).map(site_frame).collect();
    let inputs = In {
        x: install(&ctx, &workers, &x, PartitionScheme::Row, &ROW_CUTS),
        xc: install(&ctx, &workers, &x, PartitionScheme::Col, &COL_CUTS),
        w: install(
            &ctx,
            &workers,
            &rand_matrix(24, 2, 0.1, 1.0, 2),
            PartitionScheme::Row,
            &ROW_CUTS,
        ),
        w1: install(
            &ctx,
            &workers,
            &rand_matrix(24, 1, 0.1, 1.0, 3),
            PartitionScheme::Row,
            &ROW_CUTS,
        ),
        v: install(
            &ctx,
            &workers,
            &rand_matrix(5, 2, -1.0, 1.0, 4),
            PartitionScheme::Row,
            &[0, 2, 4, 5],
        ),
        frame: FedFrame::from_site_frames(&ctx, &frames, PrivacyLevel::Public).unwrap(),
        ctx: Arc::clone(&ctx),
    };
    flush(&ctx);
    let before = ctx.stats().snapshot();
    let hash = match op(&inputs) {
        Ok(words) => fnv(words),
        Err(e) => fnv(e.to_string().bytes().map(u64::from)) ^ 0xe77,
    };
    let d = ctx.stats().snapshot().delta(&before);
    drop(inputs);
    flush(&ctx);
    let left = [0, 1, 2].map(|w| workers[w].table().len());
    p(d.messages_sent, d.bytes_sent, d.bytes_received, hash, left)
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    let mut out = vec![m.rows() as u64, m.cols() as u64];
    out.extend(m.values().iter().map(|v| v.to_bits()));
    out
}

fn text(s: &str) -> Vec<u64> {
    s.bytes().map(u64::from).collect()
}

/// Fetches a tensor result and returns its bits.
fn fetch(t: Tensor) -> Out {
    Ok(bits(&t.to_local()?))
}

fn fed(f: &FedMatrix) -> Tensor {
    Tensor::Fed(f.clone())
}

fn local(r: usize, c: usize, seed: u64) -> DenseMatrix {
    rand_matrix(r, c, -1.0, 1.0, seed)
}

fn case(name: impl Into<String>, op: impl Fn(&In) -> Out + 'static) -> Case {
    (name.into(), Box::new(op))
}

/// Runs every case and fails with the full table of what was measured
/// when any case differs from its pin.
fn check(pins: &[(&str, Pin)], cases: Vec<Case>) {
    let mut table = String::new();
    let mut bad = Vec::new();
    for (name, op) in &cases {
        let got = measure(op.as_ref());
        let want = pins.iter().find(|(n, _)| n == name).map(|(_, p)| *p);
        if want != Some(got) {
            bad.push(format!("{name}: want {want:?}, got {got:?}"));
        }
        table.push_str(&format!(
            "        (\"{name}\", p({}, {}, {}, {:#018x}, {:?})),\n",
            got.msgs, got.sent, got.recv, got.hash, got.left
        ));
    }
    assert_eq!(cases.len(), pins.len(), "one pin per case:\n{table}");
    assert!(bad.is_empty(), "{}\nmeasured:\n{table}", bad.join("\n"));
}

#[test]
fn matmul_and_mmchain_arms_are_pinned() {
    let cases = vec![
        case("fed_row %*% local", |i| {
            fetch(fed(&i.x).matmul(&Tensor::Local(local(5, 2, 10)))?)
        }),
        case("fed_col %*% local", |i| {
            fetch(fed(&i.xc).matmul(&Tensor::Local(local(5, 2, 10)))?)
        }),
        case("local %*% fed_row", |i| {
            fetch(Tensor::Local(local(3, 24, 11)).matmul(&fed(&i.x))?)
        }),
        case("local %*% fed_col", |i| {
            fetch(Tensor::Local(local(3, 24, 11)).matmul(&fed(&i.xc))?)
        }),
        case("fed %*% fed, rhs consolidated", |i| {
            fetch(fed(&i.x).matmul(&fed(&i.v))?)
        }),
        case("fed %*% fed, lhs consolidated", |i| {
            fetch(fed(&i.x).t()?.matmul(&fed(&i.x))?)
        }),
        case("t(fed_row) %*% local", |i| {
            fetch(fed(&i.x).t_matmul(&Tensor::Local(local(24, 2, 12)))?)
        }),
        case("t(fed_col) %*% local", |i| {
            fetch(fed(&i.xc).t_matmul(&Tensor::Local(local(24, 2, 12)))?)
        }),
        case("t(local) %*% fed_row", |i| {
            fetch(Tensor::Local(local(24, 3, 13)).t_matmul(&fed(&i.x))?)
        }),
        case("t(local) %*% fed_col", |i| {
            fetch(Tensor::Local(local(24, 3, 13)).t_matmul(&fed(&i.xc))?)
        }),
        case("t(fed) %*% fed, aligned", |i| {
            fetch(fed(&i.w).t_matmul(&fed(&i.x))?)
        }),
        case("t(fed) %*% fed, consolidated", |i| {
            fetch(fed(&i.x).t_matmul(&fed(&i.xc))?)
        }),
        case("tsmm fed_row", |i| Ok(bits(&fed(&i.x).tsmm()?))),
        case("tsmm fed_col", |i| Ok(bits(&fed(&i.xc).tsmm()?))),
        case("mmchain k=1", |i| {
            Ok(bits(&fed(&i.x).mmchain(&local(5, 1, 14), None)?))
        }),
        case("mmchain k=2", |i| {
            Ok(bits(&fed(&i.x).mmchain(&local(5, 2, 14), None)?))
        }),
        case("mmchain k=1 local w", |i| {
            let w = rand_matrix(24, 1, 0.1, 1.0, 15);
            Ok(bits(&fed(&i.x).mmchain(&local(5, 1, 14), Some(&w))?))
        }),
        case("mmchain k=2 local w", |i| {
            let w = rand_matrix(24, 2, 0.1, 1.0, 15);
            Ok(bits(&fed(&i.x).mmchain(&local(5, 2, 14), Some(&w))?))
        }),
        case("mmchain k=1 fed w", |i| {
            Ok(bits(
                &fed(&i.x).mmchain_weighted(&local(5, 1, 14), &fed(&i.w1))?,
            ))
        }),
        case("mmchain k=2 fed w", |i| {
            Ok(bits(
                &fed(&i.x).mmchain_weighted(&local(5, 2, 14), &fed(&i.w))?,
            ))
        }),
        case("rbind(X, X) %*% local", |i| {
            fetch(fed(&i.x.rbind_fed(&i.x)?).matmul(&Tensor::Local(local(5, 2, 10)))?)
        }),
        case("local %*% rbind(X, X)", |i| {
            fetch(Tensor::Local(local(3, 48, 16)).matmul(&fed(&i.x.rbind_fed(&i.x)?))?)
        }),
        case("t(rbind(X, X)) %*% local", |i| {
            fetch(fed(&i.x.rbind_fed(&i.x)?).t_matmul(&Tensor::Local(local(48, 2, 17)))?)
        }),
        case("tsmm rbind(X, X)", |i| {
            Ok(bits(&i.x.rbind_fed(&i.x)?.tsmm()?))
        }),
        case("mmchain k=2 local w on rbind(X, X)", |i| {
            let w = rand_matrix(48, 2, 0.1, 1.0, 18);
            let xx = fed(&i.x.rbind_fed(&i.x)?);
            Ok(bits(&xx.mmchain(&local(5, 2, 14), Some(&w))?))
        }),
        case("mmchain k=2 fed w on rbind(X, X)", |i| {
            let xx = fed(&i.x.rbind_fed(&i.x)?);
            let ww = fed(&i.w.rbind_fed(&i.w)?);
            Ok(bits(&xx.mmchain_weighted(&local(5, 2, 14), &ww)?))
        }),
        case("mmchain fed_col", |i| {
            Ok(bits(&i.xc.mmchain(&local(5, 1, 14), None)?))
        }),
    ];
    check(MATMUL_PINS, cases);
}

#[test]
fn every_aggregate_op_dir_and_scheme_is_pinned() {
    let ops = [
        AggOp::Sum,
        AggOp::Min,
        AggOp::Max,
        AggOp::Mean,
        AggOp::Var,
        AggOp::Sd,
        AggOp::SumSq,
    ];
    let mut cases = Vec::new();
    for op in ops {
        for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
            cases.push(case(format!("agg {op:?} {dir:?} fed_row"), move |i| {
                fetch(fed(&i.x).agg(op, dir)?)
            }));
            cases.push(case(format!("agg {op:?} {dir:?} fed_col"), move |i| {
                fetch(fed(&i.xc).agg(op, dir)?)
            }));
        }
    }
    check(AGG_PINS, cases);
}

#[test]
fn element_wise_and_reorg_arms_are_pinned() {
    let cases = vec![
        case("unary fed_row", |i| fetch(fed(&i.x).unary(UnaryOp::Exp)?)),
        case("unary fed_col", |i| fetch(fed(&i.xc).unary(UnaryOp::Exp)?)),
        case("softmax fed_row", |i| fetch(fed(&i.x).softmax()?)),
        case("softmax fed_col", |i| fetch(fed(&i.xc).softmax()?)),
        case("X - s", |i| {
            fetch(fed(&i.x).scalar_op(BinaryOp::Sub, 1.5, false)?)
        }),
        case("s - X", |i| {
            fetch(fed(&i.x).scalar_op(BinaryOp::Sub, 1.5, true)?)
        }),
        case("fed_row - fed_row", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &fed(&i.x))?)
        }),
        case("fed_col - fed_col", |i| {
            fetch(fed(&i.xc).binary(BinaryOp::Sub, &fed(&i.xc))?)
        }),
        case("fed_row / fed col vector", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Div, &fed(&i.w1))?)
        }),
        case("fed_row - fed_col", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &fed(&i.xc))?)
        }),
        case("fed_row - local scalar", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &Tensor::Local(local(1, 1, 20)))?)
        }),
        case("fed_row - local row vector", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &Tensor::Local(local(1, 5, 21)))?)
        }),
        case("fed_row - local col vector", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &Tensor::Local(local(24, 1, 22)))?)
        }),
        case("fed_row - local matrix", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &Tensor::Local(local(24, 5, 23)))?)
        }),
        case("fed_row - local mismatch", |i| {
            fetch(fed(&i.x).binary(BinaryOp::Sub, &Tensor::Local(local(2, 5, 24)))?)
        }),
        case("fed_col - local row vector", |i| {
            fetch(fed(&i.xc).binary(BinaryOp::Sub, &Tensor::Local(local(1, 5, 21)))?)
        }),
        case("fed_col - local col vector", |i| {
            fetch(fed(&i.xc).binary(BinaryOp::Sub, &Tensor::Local(local(24, 1, 22)))?)
        }),
        case("fed_col - local matrix", |i| {
            fetch(fed(&i.xc).binary(BinaryOp::Sub, &Tensor::Local(local(24, 5, 23)))?)
        }),
        case("rowIndexMax fed_row", |i| fetch(fed(&i.x).row_index_max()?)),
        case("rowIndexMax fed_col", |i| {
            fetch(fed(&i.xc).row_index_max()?)
        }),
        case("t fed_row", |i| fetch(fed(&i.x).t()?)),
        case("t fed_col", |i| fetch(fed(&i.xc).t()?)),
        case("index across partitions", |i| {
            fetch(fed(&i.x).index(3, 18, 1, 4)?)
        }),
        case("index inside one partition", |i| {
            fetch(fed(&i.x).index(6, 12, 0, 5)?)
        }),
        case("index everything", |i| fetch(fed(&i.x).index(0, 24, 0, 5)?)),
        case("index fed_col", |i| fetch(fed(&i.xc).index(0, 4, 0, 2)?)),
        case("rbind fed_row fed_row", |i| {
            fetch(fed(&i.x).rbind(&fed(&i.x))?)
        }),
        case("cbind fed aligned", |i| fetch(fed(&i.x).cbind(&fed(&i.w))?)),
        case("cbind fed unaligned", |i| {
            fetch(fed(&i.x).cbind(&fed(&i.xc))?)
        }),
        case("rbind(X, X) - local matrix", |i| {
            let xx = fed(&i.x.rbind_fed(&i.x)?);
            fetch(xx.binary(BinaryOp::Sub, &Tensor::Local(local(48, 5, 25)))?)
        }),
        case("index rbind(X, X)", |i| {
            fetch(fed(&i.x.rbind_fed(&i.x)?).index(2, 45, 1, 5)?)
        }),
        case("var(rbind(X, X)) by column", |i| {
            fetch(fed(&i.x.rbind_fed(&i.x)?).agg(AggOp::Var, AggDir::Col)?)
        }),
        case("replace fed_row", |i| fetch(fed(&i.x).replace(1.0, 7.0)?)),
        case("replace fed_col", |i| fetch(fed(&i.xc).replace(1.0, 7.0)?)),
        case("consolidate fed_row", |i| fetch(fed(&i.x))),
        case("consolidate fed_col", |i| fetch(fed(&i.xc))),
    ];
    check(ELEMENT_WISE_PINS, cases);
}

/// Bits of a consolidated frame: its debug rendering.
fn frame_words(f: &Frame) -> Vec<u64> {
    text(&format!("{f:?}"))
}

#[test]
fn placement_and_preparation_arms_are_pinned() {
    let cases = vec![
        case("scatter_rows", |i| {
            fetch(Tensor::Fed(FedMatrix::scatter_rows(
                &i.ctx,
                &x_local(),
                PrivacyLevel::Public,
            )?))
        }),
        case("scatter_cols", |i| {
            fetch(Tensor::Fed(FedMatrix::scatter_cols(
                &i.ctx,
                &x_local(),
                PrivacyLevel::Public,
            )?))
        }),
        case("read_row_partitioned matrix", |i| {
            let files: Vec<_> = ROW_CUTS
                .windows(2)
                .map(|c| ("x.csv".to_string(), ReadFormat::MatrixCsv, c[1] - c[0]))
                .collect();
            fetch(Tensor::Fed(FedMatrix::read_row_partitioned(
                &i.ctx,
                &files,
                5,
                PrivacyLevel::Public,
            )?))
        }),
        case("read_row_partitioned frame", |i| {
            let files: Vec<_> = FRAME_ROWS
                .iter()
                .map(|&r| ("raw.csv".to_string(), ReadFormat::FrameCsvInfer, r))
                .collect();
            let names = vec!["recipe".to_string(), "power".to_string()];
            let f = FedFrame::read_row_partitioned(&i.ctx, &files, names, PrivacyLevel::Public)?;
            Ok(frame_words(&f.consolidate()?))
        }),
        case("from_site_frames", |i| {
            let frames: Vec<Frame> = (0..3).map(site_frame).collect();
            let f = FedFrame::from_site_frames(&i.ctx, &frames, PrivacyLevel::Public)?;
            Ok(frame_words(&f.consolidate()?))
        }),
        case("frame consolidate", |i| {
            Ok(frame_words(&i.frame.consolidate()?))
        }),
        case("frame select", |i| {
            Ok(frame_words(&i.frame.select(&["power"])?.consolidate()?))
        }),
        case("frame select unknown", |i| {
            Ok(frame_words(&i.frame.select(&["nope"])?.consolidate()?))
        }),
        case("transform_encode", |i| {
            let spec = TransformSpec::auto(&site_frame(0));
            let (x, meta) = i.frame.transform_encode(&spec)?;
            let mut words = bits(&x.consolidate()?);
            words.extend(text(&format!("{meta:?}")));
            Ok(words)
        }),
        case("impute_mode", |i| {
            let (f, mode) = i.frame.impute_mode("recipe")?;
            let mut words = frame_words(&f.consolidate()?);
            words.extend(text(&mode));
            Ok(words)
        }),
        case("impute_mean", |i| fetch(impute_mean(&fed(&i.x))?)),
        case("split with labels", |i| {
            let y = local(24, 1, 30);
            let s = split_rows_per_partition(&i.x, Some(&y), 0.7, 5)?;
            let mut words = bits(&s.x_train.consolidate()?);
            words.extend(bits(&s.x_test.consolidate()?));
            words.extend(bits(&s.y_train.unwrap()));
            words.extend(bits(&s.y_test.unwrap()));
            Ok(words)
        }),
        case("split without labels", |i| {
            let s = split_rows_per_partition(&i.x, None, 0.5, 6)?;
            let mut words = bits(&s.x_train.consolidate()?);
            words.extend(bits(&s.x_test.consolidate()?));
            Ok(words)
        }),
    ];
    check(PLACEMENT_PINS, cases);
}

const MATMUL_PINS: &[(&str, Pin)] = &[
    (
        "fed_row %*% local",
        p(3, 582, 570, 0x7479d90efb7338f6, [0, 0, 0]),
    ),
    (
        "fed_col %*% local",
        p(3, 446, 1338, 0x844565c6ad4f1733, [0, 0, 0]),
    ),
    (
        "local %*% fed_row",
        p(3, 942, 546, 0x9f009464041fa550, [0, 0, 0]),
    ),
    (
        "local %*% fed_col",
        p(3, 2070, 306, 0x8ae7835378d7381c, [0, 0, 0]),
    ),
    (
        "fed %*% fed, rhs consolidated",
        p(6, 681, 827, 0x73ee762fe82ba12d, [0, 0, 0]),
    ),
    (
        "fed %*% fed, lhs consolidated",
        p(6, 1479, 1926, 0x63e790009be2c793, [0, 0, 0]),
    ),
    (
        "t(fed_row) %*% local",
        p(3, 750, 426, 0x863ed5a3a038f06c, [0, 0, 0]),
    ),
    (
        "t(fed_col) %*% local",
        p(3, 1494, 266, 0xb7ef97d7ffbc9f7d, [0, 0, 0]),
    ),
    (
        "t(local) %*% fed_row",
        p(3, 942, 546, 0x48732234c568cc38, [0, 0, 0]),
    ),
    (
        "t(local) %*% fed_col",
        p(3, 2070, 306, 0x3be47a141a0ac176, [0, 0, 0]),
    ),
    (
        "t(fed) %*% fed, aligned",
        p(3, 234, 423, 0xb9ab00bfde48beb3, [0, 0, 0]),
    ),
    (
        "t(fed) %*% fed, consolidated",
        p(6, 1425, 1923, 0x63e790009be2c793, [0, 0, 0]),
    ),
    (
        "tsmm fed_row",
        p(3, 210, 783, 0x63e790009be2c793, [0, 0, 0]),
    ),
    ("tsmm fed_col", p(0, 0, 0, 0x14629465d8d2c0c8, [0, 0, 0])),
    ("mmchain k=1", p(3, 462, 306, 0x508a64d1efb723f1, [0, 0, 0])),
    ("mmchain k=2", p(3, 822, 489, 0x2f18de688d4f0345, [0, 0, 0])),
    (
        "mmchain k=1 local w",
        p(3, 810, 309, 0xc5f2d87bd18fe192, [0, 0, 0]),
    ),
    (
        "mmchain k=2 local w",
        p(3, 1518, 495, 0x9e912bf71c7fc01e, [0, 0, 0]),
    ),
    (
        "mmchain k=1 fed w",
        p(3, 486, 306, 0x8b08f58aff313ffd, [0, 0, 0]),
    ),
    (
        "mmchain k=2 fed w",
        p(3, 1218, 495, 0xaad4dc47509ab406, [0, 0, 0]),
    ),
    (
        "rbind(X, X) %*% local",
        p(3, 690, 1014, 0xfaf37736fc214d8b, [0, 0, 0]),
    ),
    (
        "local %*% rbind(X, X)",
        p(3, 1812, 972, 0x96cb60ee60476468, [0, 0, 0]),
    ),
    (
        "t(rbind(X, X)) %*% local",
        p(3, 1428, 732, 0xe587e15feb79b4a3, [0, 0, 0]),
    ),
    (
        "tsmm rbind(X, X)",
        p(3, 348, 1446, 0xe4d228569710e8eb, [0, 0, 0]),
    ),
    (
        "mmchain k=2 local w on rbind(X, X)",
        p(3, 2508, 864, 0x56eb58551c42b734, [0, 0, 0]),
    ),
    (
        "mmchain k=2 fed w on rbind(X, X)",
        p(3, 1908, 864, 0xe091ddcd493d46a5, [0, 0, 0]),
    ),
    ("mmchain fed_col", p(0, 0, 0, 0x16b43c677440c93e, [0, 0, 0])),
];

const AGG_PINS: &[(&str, Pin)] = &[
    (
        "agg Sum Full fed_row",
        p(3, 213, 207, 0x5b33808ed5226105, [0, 0, 0]),
    ),
    (
        "agg Sum Full fed_col",
        p(3, 213, 207, 0x43842ee25ee434fb, [0, 0, 0]),
    ),
    (
        "agg Sum Row fed_row",
        p(3, 159, 372, 0x26c405f15c0be9ba, [0, 0, 0]),
    ),
    (
        "agg Sum Row fed_col",
        p(3, 213, 759, 0x26c405f15c0be9ba, [0, 0, 0]),
    ),
    (
        "agg Sum Col fed_row",
        p(3, 213, 303, 0x398640778c34bd9d, [0, 0, 0]),
    ),
    (
        "agg Sum Col fed_col",
        p(3, 159, 220, 0xd958921905c69a38, [0, 0, 0]),
    ),
    (
        "agg Min Full fed_row",
        p(3, 213, 207, 0xd862b808c21d8d40, [0, 0, 0]),
    ),
    (
        "agg Min Full fed_col",
        p(3, 213, 207, 0xd862b808c21d8d40, [0, 0, 0]),
    ),
    (
        "agg Min Row fed_row",
        p(3, 159, 372, 0x53b78c4ccf99ee34, [0, 0, 0]),
    ),
    (
        "agg Min Row fed_col",
        p(3, 213, 759, 0x53b78c4ccf99ee34, [0, 0, 0]),
    ),
    (
        "agg Min Col fed_row",
        p(3, 213, 303, 0x2640db4518ed0544, [0, 0, 0]),
    ),
    (
        "agg Min Col fed_col",
        p(3, 159, 220, 0x2640db4518ed0544, [0, 0, 0]),
    ),
    (
        "agg Max Full fed_row",
        p(3, 213, 207, 0xf64a83395869fae4, [0, 0, 0]),
    ),
    (
        "agg Max Full fed_col",
        p(3, 213, 207, 0xf64a83395869fae4, [0, 0, 0]),
    ),
    (
        "agg Max Row fed_row",
        p(3, 159, 372, 0x90781ac3a29cfe07, [0, 0, 0]),
    ),
    (
        "agg Max Row fed_col",
        p(3, 213, 759, 0x90781ac3a29cfe07, [0, 0, 0]),
    ),
    (
        "agg Max Col fed_row",
        p(3, 213, 303, 0xaf7aa227db144975, [0, 0, 0]),
    ),
    (
        "agg Max Col fed_col",
        p(3, 159, 220, 0xaf7aa227db144975, [0, 0, 0]),
    ),
    (
        "agg Mean Full fed_row",
        p(3, 213, 207, 0xa4909ba6f40deeb6, [0, 0, 0]),
    ),
    (
        "agg Mean Full fed_col",
        p(3, 213, 207, 0x422b028a3fc2df78, [0, 0, 0]),
    ),
    (
        "agg Mean Row fed_row",
        p(3, 159, 372, 0x79dfb626e33d90d9, [0, 0, 0]),
    ),
    (
        "agg Mean Row fed_col",
        p(3, 213, 759, 0x79dfb626e33d90d9, [0, 0, 0]),
    ),
    (
        "agg Mean Col fed_row",
        p(3, 213, 303, 0x96bb70c2cd3aeca7, [0, 0, 0]),
    ),
    (
        "agg Mean Col fed_col",
        p(3, 159, 220, 0x3ee83090e3439f19, [0, 0, 0]),
    ),
    (
        "agg Var Full fed_row",
        p(3, 324, 291, 0xe345c336271261a4, [0, 0, 0]),
    ),
    (
        "agg Var Full fed_col",
        p(3, 324, 291, 0xe345c336271261a4, [0, 0, 0]),
    ),
    (
        "agg Var Row fed_row",
        p(3, 159, 372, 0x070e769d1ecced3d, [0, 0, 0]),
    ),
    (
        "agg Var Row fed_col",
        p(3, 324, 1395, 0x6891d572434b8535, [0, 0, 0]),
    ),
    (
        "agg Var Col fed_row",
        p(3, 324, 483, 0x0d2a3535a5ba6602, [0, 0, 0]),
    ),
    (
        "agg Var Col fed_col",
        p(3, 159, 220, 0x5b5dbc644b129cce, [0, 0, 0]),
    ),
    (
        "agg Sd Full fed_row",
        p(3, 324, 291, 0xa87a5e0eeeccf550, [0, 0, 0]),
    ),
    (
        "agg Sd Full fed_col",
        p(3, 324, 291, 0xa87a5e0eeeccf550, [0, 0, 0]),
    ),
    (
        "agg Sd Row fed_row",
        p(3, 159, 372, 0x454bb8aae93b522f, [0, 0, 0]),
    ),
    (
        "agg Sd Row fed_col",
        p(3, 324, 1395, 0xda3342e42862c6f8, [0, 0, 0]),
    ),
    (
        "agg Sd Col fed_row",
        p(3, 324, 483, 0xa88f7268552e1aa0, [0, 0, 0]),
    ),
    (
        "agg Sd Col fed_col",
        p(3, 159, 220, 0xa6e0ba5268a37526, [0, 0, 0]),
    ),
    (
        "agg SumSq Full fed_row",
        p(3, 213, 207, 0xe6329cba6251972d, [0, 0, 0]),
    ),
    (
        "agg SumSq Full fed_col",
        p(3, 213, 207, 0xe6329cba6251972d, [0, 0, 0]),
    ),
    (
        "agg SumSq Row fed_row",
        p(3, 159, 372, 0x008769aab0ace33c, [0, 0, 0]),
    ),
    (
        "agg SumSq Row fed_col",
        p(3, 213, 759, 0xb8be14d350b5d8ad, [0, 0, 0]),
    ),
    (
        "agg SumSq Col fed_row",
        p(3, 213, 303, 0x8a42bac0befabb8f, [0, 0, 0]),
    ),
    (
        "agg SumSq Col fed_col",
        p(3, 159, 220, 0x64e703897618f776, [0, 0, 0]),
    ),
];

const ELEMENT_WISE_PINS: &[(&str, Pin)] = &[
    (
        "unary fed_row",
        p(3, 156, 1140, 0xb2b1d83e47d840a2, [0, 0, 0]),
    ),
    (
        "unary fed_col",
        p(3, 156, 1140, 0xb2b1d83e47d840a2, [0, 0, 0]),
    ),
    (
        "softmax fed_row",
        p(3, 153, 1140, 0xbb8964648d654893, [0, 0, 0]),
    ),
    ("softmax fed_col", p(0, 0, 0, 0xc3001914dfe66189, [0, 0, 0])),
    ("X - s", p(3, 183, 1140, 0xf9f47a3ecb3707b4, [0, 0, 0])),
    ("s - X", p(3, 183, 1140, 0x72e88538c98065b4, [0, 0, 0])),
    (
        "fed_row - fed_row",
        p(3, 180, 1140, 0x4ba8ee18fb48dfd8, [0, 0, 0]),
    ),
    (
        "fed_col - fed_col",
        p(3, 180, 1140, 0x4ba8ee18fb48dfd8, [0, 0, 0]),
    ),
    (
        "fed_row / fed col vector",
        p(3, 180, 1140, 0xea520346516c0ec9, [0, 0, 0]),
    ),
    (
        "fed_row - fed_col",
        p(0, 0, 0, 0x26da2999107ec2be, [0, 0, 0]),
    ),
    (
        "fed_row - local scalar",
        p(3, 183, 1140, 0x2284f1abab87923d, [0, 0, 0]),
    ),
    (
        "fed_row - local row vector",
        p(3, 462, 1146, 0x5c984aaa97f042ac, [0, 0, 0]),
    ),
    (
        "fed_row - local col vector",
        p(3, 534, 1146, 0x103440c7ac9117b9, [0, 0, 0]),
    ),
    (
        "fed_row - local matrix",
        p(3, 1302, 1146, 0x0edf8bc0d55b3cdb, [0, 0, 0]),
    ),
    (
        "fed_row - local mismatch",
        p(0, 0, 0, 0x9a9c0a9e29ac9e5a, [0, 0, 0]),
    ),
    (
        "fed_col - local row vector",
        p(3, 382, 1146, 0x5c984aaa97f042ac, [0, 0, 0]),
    ),
    (
        "fed_col - local col vector",
        p(3, 918, 1146, 0x103440c7ac9117b9, [0, 0, 0]),
    ),
    (
        "fed_col - local matrix",
        p(3, 1302, 1146, 0x0edf8bc0d55b3cdb, [0, 0, 0]),
    ),
    (
        "rowIndexMax fed_row",
        p(3, 153, 372, 0x9abe30e2f4da2924, [0, 0, 0]),
    ),
    (
        "rowIndexMax fed_col",
        p(0, 0, 0, 0xf572af602e7f7485, [0, 0, 0]),
    ),
    ("t fed_row", p(3, 153, 1140, 0xb324fa78c04b7dd5, [0, 0, 0])),
    ("t fed_col", p(3, 153, 1140, 0xb324fa78c04b7dd5, [0, 0, 0])),
    (
        "index across partitions",
        p(3, 249, 540, 0x3ee89ee62dcf9210, [0, 0, 0]),
    ),
    (
        "index inside one partition",
        p(1, 83, 300, 0xb181011c7f910a94, [0, 0, 0]),
    ),
    (
        "index everything",
        p(3, 249, 1140, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
    ("index fed_col", p(0, 0, 0, 0x66139b0777bf852d, [0, 0, 0])),
    (
        "rbind fed_row fed_row",
        p(3, 126, 2154, 0x2c201ae54e4bed3c, [0, 0, 0]),
    ),
    (
        "cbind fed aligned",
        p(3, 177, 1524, 0xc3fbfa03bd077847, [0, 0, 0]),
    ),
    (
        "cbind fed unaligned",
        p(0, 0, 0, 0xa1a7fc688b63b365, [0, 0, 0]),
    ),
    (
        "rbind(X, X) - local matrix",
        p(3, 2532, 2172, 0x0ffb0b9b011c023c, [0, 0, 0]),
    ),
    (
        "index rbind(X, X)",
        p(3, 426, 1616, 0x3779e4ea13c98201, [0, 0, 0]),
    ),
    (
        "var(rbind(X, X)) by column",
        p(3, 576, 846, 0x3d46aa6fa8741b3b, [0, 0, 0]),
    ),
    (
        "replace fed_row",
        p(3, 201, 1140, 0x2fd2fc5a40992231, [0, 0, 0]),
    ),
    (
        "replace fed_col",
        p(3, 201, 1140, 0x2fd2fc5a40992231, [0, 0, 0]),
    ),
    (
        "consolidate fed_row",
        p(3, 99, 1137, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
    (
        "consolidate fed_col",
        p(3, 99, 1137, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
];

const PLACEMENT_PINS: &[(&str, Pin)] = &[
    (
        "scatter_rows",
        p(6, 1239, 1260, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
    (
        "scatter_cols",
        p(6, 1239, 1260, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
    (
        "read_row_partitioned matrix",
        p(6, 267, 1260, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
    (
        "read_row_partitioned frame",
        p(6, 273, 828, 0x0bb2b29fd469629c, [0, 0, 0]),
    ),
    (
        "from_site_frames",
        p(6, 807, 828, 0x0bb2b29fd469629c, [0, 0, 0]),
    ),
    (
        "frame consolidate",
        p(3, 99, 705, 0x0bb2b29fd469629c, [0, 0, 0]),
    ),
    (
        "frame select",
        p(6, 288, 555, 0x96f544ec1af0764a, [0, 0, 0]),
    ),
    (
        "frame select unknown",
        p(0, 0, 0, 0xfd4f31530263f8ca, [0, 0, 0]),
    ),
    (
        "transform_encode",
        p(9, 816, 1368, 0xcd7b6c74b60407eb, [0, 0, 0]),
    ),
    (
        "impute_mode",
        p(9, 441, 1350, 0x3c3aa6994bb490fe, [0, 0, 0]),
    ),
    (
        "impute_mean",
        p(9, 1230, 1764, 0x69ec0a6c2b9f5ebd, [0, 0, 0]),
    ),
    (
        "split with labels",
        p(9, 708, 1446, 0x226a95104cbaa46f, [0, 0, 0]),
    ),
    (
        "split without labels",
        p(9, 708, 1446, 0xbbdbed6f743d222a, [0, 0, 0]),
    ),
];
