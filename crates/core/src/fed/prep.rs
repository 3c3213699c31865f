//! Federated data preparation (paper §4.4): federated frames and the
//! two-pass `transformencode` over raw federated data.

use std::sync::Arc;

use exdra_matrix::frame::Frame;
use exdra_matrix::kernels::reorg;
use exdra_matrix::DenseMatrix;
use exdra_transform::{merge_partials, TransformMeta, TransformSpec};

use crate::coordinator::FedContext;
use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
use crate::privacy::PrivacyLevel;
use crate::protocol::{ReadFormat, Request};
use crate::value::DataValue;

use super::{FedMatrix, FedPartition, PartitionScheme};

/// A row-partitioned federated frame: raw heterogeneous data at the sites.
#[derive(Debug, Clone)]
pub struct FedFrame {
    inner: FedMatrix, // reuse map/guard plumbing; dims = (rows, #columns)
    names: Vec<String>,
}

impl FedFrame {
    /// Distributes per-site frames to the workers (one frame per worker,
    /// in worker order). All frames must share a schema.
    pub fn from_site_frames(
        ctx: &Arc<FedContext>,
        frames: &[Frame],
        privacy: PrivacyLevel,
    ) -> Result<Self> {
        if frames.windows(2).any(|f| f[0].schema() != f[1].schema()) {
            return Err(RuntimeError::Invalid(
                "site frames have differing schemas".into(),
            ));
        }
        let names = frames.first().map_or(Vec::new(), |f| f.names().to_vec());
        let lens: Vec<usize> = frames.iter().map(Frame::rows).collect();
        let inner = FedMatrix::place(
            ctx,
            PartitionScheme::Row,
            names.len(),
            privacy,
            &lens,
            |p| {
                Ok(Request::Put {
                    id: p.id,
                    data: DataValue::Frame(frames[p.worker].clone()),
                    privacy,
                })
            },
        )?;
        Ok(Self { inner, names })
    }

    /// Reads per-worker CSV files as a federated frame:
    /// `files[w] = (fname, format, rows_in_file)`.
    pub fn read_row_partitioned(
        ctx: &Arc<FedContext>,
        files: &[(String, ReadFormat, usize)],
        names: Vec<String>,
        privacy: PrivacyLevel,
    ) -> Result<Self> {
        let inner = FedMatrix::read_row_partitioned(ctx, files, names.len(), privacy)?;
        Ok(Self { inner, names })
    }

    /// Total number of rows.
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.inner.cols()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Federation map entries.
    pub fn parts(&self) -> &[FedPartition] {
        self.inner.parts()
    }

    /// Privacy constraint of the raw frame.
    pub fn privacy(&self) -> PrivacyLevel {
        self.inner.privacy()
    }

    /// The shared context.
    pub fn ctx(&self) -> &Arc<FedContext> {
        self.inner.ctx()
    }

    /// Federated feature selection: projects columns by name at the sites.
    pub fn select(&self, columns: &[&str]) -> Result<FedFrame> {
        for c in columns {
            if !self.names.iter().any(|n| n == c) {
                return Err(RuntimeError::Invalid(format!("no column named '{c}'")));
            }
        }
        let cols: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        let shape = (self.rows(), cols.len());
        let inner = self.inner.map(
            PartitionScheme::Row,
            shape,
            self.privacy(),
            |_, p, out, b| {
                b.exec(Instruction::FrameSelect {
                    frame: p.id,
                    columns: cols.clone(),
                    out,
                })
            },
        )?;
        Ok(Self { inner, names: cols })
    }

    /// Federated `transformencode` (paper Figure 3): first pass builds
    /// encoder metadata at every site, the coordinator merges/sorts/assigns
    /// codes, and the second pass applies the broadcast global metadata —
    /// yielding a federated encoded matrix plus the local metadata frame.
    pub fn transform_encode(&self, spec: &TransformSpec) -> Result<(FedMatrix, TransformMeta)> {
        // Pass 1: partial metadata per site.
        let partials = self.inner.gather(|_, p, b| {
            b.fetch(|out| Instruction::EncodeBuildPartial {
                frame: p.id,
                spec: spec.clone(),
                out,
            })
        })?;
        let partials = partials
            .into_iter()
            .flatten()
            .map(|v| match v {
                DataValue::PartialMeta(m) => Ok(m),
                other => Err(RuntimeError::Protocol(format!(
                    "expected partial-meta, got {}",
                    other.type_name()
                ))),
            })
            .collect::<Result<Vec<_>>>()?;
        // Merge, sort, assign codes.
        let meta = merge_partials(&partials, spec)?;
        // Pass 2: ship the global metadata and encode at the sites.
        let shape = (self.rows(), meta.out_cols());
        let fed = self.inner.map(
            PartitionScheme::Row,
            shape,
            self.privacy(),
            |_, p, out, b| {
                let meta = b.put(DataValue::TransformMeta(meta.clone()));
                b.exec(Instruction::EncodeApply {
                    frame: p.id,
                    meta,
                    out,
                });
            },
        )?;
        Ok((fed, meta))
    }

    /// Consolidates the raw federated frame (privacy-checked at workers).
    pub fn consolidate(&self) -> Result<Frame> {
        let values = self.inner.gather(|_, p, b| b.get(p.id))?;
        let mut pieces = Vec::with_capacity(values.len());
        for (p, v) in self.parts().iter().zip(values.into_iter().flatten()) {
            pieces.push((p.lo, v.as_frame()?.clone()));
        }
        pieces.sort_by_key(|(lo, _)| *lo);
        let mut it = pieces.into_iter();
        let (_, mut out) = it
            .next()
            .ok_or_else(|| RuntimeError::Invalid("empty federation map".into()))?;
        for (_, f) in it {
            out = out.rbind(&f)?;
        }
        Ok(out)
    }
}

/// Per-partition train/test split via locally-sampled selection (paper
/// §6.3: "in order to retain a balanced data distribution across federated
/// workers, we perform this splitting via a uniformly sampled
/// selection-matrix-multiply"): each site shuffles its rows with a
/// deterministic per-partition seed and takes the first `train_frac` as the
/// train split — so both splits remain federated with balanced partitions.
/// Each side is one ranged [`Instruction::Shuffle`] gather of the site's
/// rows; no shuffled copy of the whole partition is made.
///
/// When aligned coordinator-local labels `y` are supplied, they are
/// reordered with the *same* per-partition permutations and split
/// identically, keeping X/y row alignment without moving X.
pub fn split_rows_per_partition(
    x: &FedMatrix,
    y: Option<&DenseMatrix>,
    train_frac: f64,
    seed: u64,
) -> Result<TrainTestSplit> {
    if !(0.0..=1.0).contains(&train_frac) {
        return Err(RuntimeError::Invalid(format!(
            "train fraction {train_frac} not in [0, 1]"
        )));
    }
    if x.scheme() != PartitionScheme::Row {
        return Err(RuntimeError::Unsupported(
            "split requires row-partitioned federated data".into(),
        ));
    }
    if let Some(y) = y {
        if y.rows() != x.rows() {
            return Err(RuntimeError::Invalid(format!(
                "labels have {} rows, features {}",
                y.rows(),
                x.rows()
            )));
        }
    }
    // Partition `i` shuffles with seed `seed + i` and keeps its first
    // `n_train` rows for training.
    let part_seed = |i: usize| seed.wrapping_add(i as u64);
    let n_train = |p: &FedPartition| ((p.len() as f64) * train_frac).round() as usize;
    let (mut y_train, mut y_test) = (None, None);
    if let Some(y) = y {
        // Mirror each site's ranged gathers on the coordinator-local labels.
        for (i, p) in x.parts().iter().enumerate() {
            let y_part = reorg::index(y, p.lo, p.hi, 0, y.cols())?;
            let cut = n_train(p);
            for (acc, (lo, hi)) in [(&mut y_train, (0, cut)), (&mut y_test, (cut, p.len()))] {
                let piece = reorg::shuffled_rows(&y_part, part_seed(i), lo, hi)?;
                *acc = Some(match acc.take() {
                    None => piece,
                    Some(a) => reorg::rbind(&a, &piece)?,
                });
            }
        }
    }
    let (mut train, mut test) = (Vec::new(), Vec::new());
    x.gather(|i, p, b| {
        let cut = n_train(p);
        for (parts, (lo, hi)) in [(&mut train, (0, cut)), (&mut test, (cut, p.len()))] {
            let out = b.output();
            b.exec(Instruction::Shuffle {
                x: p.id,
                seed: part_seed(i),
                row_lo: lo as u64,
                row_hi: hi as u64,
                out,
            });
            let start = parts.last().map_or(0, |q: &FedPartition| q.hi);
            parts.push(FedPartition {
                lo: start,
                hi: start + hi - lo,
                worker: p.worker,
                id: out,
            });
        }
    })?;
    let fed = |parts: Vec<FedPartition>| {
        let rows = parts.last().map_or(0, |q| q.hi);
        FedMatrix::from_parts(
            Arc::clone(x.ctx()),
            PartitionScheme::Row,
            rows,
            x.cols(),
            parts,
            x.privacy(),
            true,
        )
    };
    Ok(TrainTestSplit {
        x_train: fed(train)?,
        x_test: fed(test)?,
        y_train,
        y_test,
    })
}

/// Output of [`split_rows_per_partition`].
pub struct TrainTestSplit {
    /// Federated train features.
    pub x_train: FedMatrix,
    /// Federated test features.
    pub x_test: FedMatrix,
    /// Aligned train labels (when labels were supplied).
    pub y_train: Option<DenseMatrix>,
    /// Aligned test labels (when labels were supplied).
    pub y_test: Option<DenseMatrix>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::mem_federation;
    use exdra_matrix::frame::FrameColumn;
    use exdra_matrix::rng::rand_matrix;
    use exdra_transform::{transform_encode, TransformSpec};

    fn site_frame(seed: u64, rows: usize) -> Frame {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cats: Vec<Option<String>> = (0..rows)
            .map(|_| Some(format!("R{}", rng.gen_range(0..5))))
            .collect();
        let vals: Vec<Option<f64>> = (0..rows).map(|_| Some(rng.gen_range(0.0..100.0))).collect();
        Frame::new(vec![
            ("recipe".into(), FrameColumn::from(cats)),
            ("power".into(), FrameColumn::from(vals)),
        ])
        .unwrap()
    }

    #[test]
    fn fed_frame_roundtrip_and_select() {
        let (ctx, _workers) = mem_federation(2);
        let frames = vec![site_frame(1, 10), site_frame(2, 15)];
        let fed = FedFrame::from_site_frames(&ctx, &frames, PrivacyLevel::Public).unwrap();
        assert_eq!(fed.rows(), 25);
        assert_eq!(fed.cols(), 2);
        let back = fed.consolidate().unwrap();
        assert_eq!(back.rows(), 25);
        assert_eq!(
            back.column_by_name("recipe").unwrap().token(0),
            frames[0].column_by_name("recipe").unwrap().token(0)
        );
        let projected = fed.select(&["power"]).unwrap();
        assert_eq!(projected.cols(), 1);
        assert!(fed.select(&["nope"]).is_err());
    }

    #[test]
    fn fed_transform_encode_equals_central() {
        let (ctx, _workers) = mem_federation(3);
        let frames = vec![site_frame(3, 12), site_frame(4, 8), site_frame(5, 20)];
        let fed = FedFrame::from_site_frames(&ctx, &frames, PrivacyLevel::Public).unwrap();
        let spec = TransformSpec::auto(&frames[0]);
        let (encoded, meta) = fed.transform_encode(&spec).unwrap();
        // Central reference over the concatenated frames.
        let mut all = frames[0].clone();
        for f in &frames[1..] {
            all = all.rbind(f).unwrap();
        }
        let (want, want_meta) = transform_encode(&all, &spec).unwrap();
        assert_eq!(meta, want_meta);
        assert_eq!(encoded.shape(), want.shape());
        assert!(encoded.consolidate().unwrap().max_abs_diff(&want) < 1e-15);
    }

    #[test]
    fn encode_metadata_exchange_denied_for_strictly_private() {
        let (ctx, _workers) = mem_federation(2);
        let frames = vec![site_frame(6, 10), site_frame(7, 10)];
        let fed = FedFrame::from_site_frames(&ctx, &frames, PrivacyLevel::Private).unwrap();
        let spec = TransformSpec::auto(&frames[0]);
        assert!(matches!(
            fed.transform_encode(&spec),
            Err(RuntimeError::Privacy(_))
        ));
    }

    #[test]
    fn split_keeps_partitions_balanced_and_aligned() {
        let (ctx, _workers) = mem_federation(2);
        let x = rand_matrix(100, 3, 0.0, 1.0, 8);
        // y = rowSums(x) so alignment is checkable after splitting.
        let y = exdra_matrix::kernels::aggregates::aggregate(
            &x,
            exdra_matrix::kernels::aggregates::AggOp::Sum,
            exdra_matrix::kernels::aggregates::AggDir::Row,
        )
        .unwrap();
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let split = split_rows_per_partition(&fed, Some(&y), 0.7, 99).unwrap();
        assert_eq!(split.x_train.rows(), 70);
        assert_eq!(split.x_test.rows(), 30);
        // Balanced: each worker holds 35 train rows.
        assert_eq!(split.x_train.parts()[0].len(), 35);
        assert_eq!(split.x_train.parts()[1].len(), 35);
        // Alignment: y_train[i] == rowSums(x_train[i]).
        let xt = split.x_train.consolidate().unwrap();
        let yt = split.y_train.unwrap();
        for r in 0..70 {
            let s: f64 = xt.row(r).iter().sum();
            assert!((s - yt.get(r, 0)).abs() < 1e-10, "row {r} misaligned");
        }
        // Train and test are disjoint and cover everything.
        let xe = split.x_test.consolidate().unwrap();
        let mut all: Vec<String> = Vec::new();
        for r in 0..70 {
            all.push(format!("{:?}", xt.row(r)));
        }
        for r in 0..30 {
            all.push(format!("{:?}", xe.row(r)));
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 100, "rows lost or duplicated in split");
    }
}

/// Fully-federated mean imputation over a (possibly federated) numeric
/// matrix with NaN missing cells (paper Example 4: missing values "might
/// be imputed" after encoding; the mean variant maps directly onto
/// federated linear algebra — masks, column aggregates, and broadcast
/// arithmetic — with no raw data movement).
pub fn impute_mean(x: &crate::tensor::Tensor) -> Result<crate::tensor::Tensor> {
    use crate::tensor::Tensor;
    use exdra_matrix::kernels::aggregates::{AggDir, AggOp};
    use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
    let n = x.rows() as f64;
    // mask = isNA(X); x0 = replace(X, NaN -> 0)
    let mask = x.unary(UnaryOp::IsNa)?;
    let x0 = x.replace(f64::NAN, 0.0)?;
    // Observed counts and means per column (releasable aggregates).
    let missing_per_col = mask.agg(AggOp::Sum, AggDir::Col)?.to_local()?;
    let counts = missing_per_col.map(|m| (n - m).max(1.0));
    let sums = x0.agg(AggOp::Sum, AggDir::Col)?.to_local()?;
    let means = sums.zip(&counts, "/", |s, c| s / c)?;
    // filled = x0 + mask ⊙ broadcast(means)
    let filler = mask.binary(BinaryOp::Mul, &Tensor::Local(means))?;
    x0.binary(BinaryOp::Add, &filler)
}

impl FedFrame {
    /// Federated mode imputation of a categorical column (paper Example 4:
    /// "the NULLs ... might be imputed with the mode"): sites return
    /// per-category counts (aggregate-sized metadata, like the encode
    /// partials of Figure 3), the coordinator merges them and broadcasts
    /// the global mode for site-local filling. Returns the repaired frame
    /// and the chosen mode.
    pub fn impute_mode(&self, column: &str) -> Result<(FedFrame, String)> {
        if !self.names.iter().any(|n| n == column) {
            return Err(RuntimeError::Invalid(format!("no column named '{column}'")));
        }
        // Pass 1: per-site category counts.
        let results = self.inner.gather(|_, p, b| {
            b.fetch(|out| Instruction::CategoryCounts {
                frame: p.id,
                column: column.to_string(),
                out,
            })
        })?;
        let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for v in results.into_iter().flatten() {
            match v {
                DataValue::Frame(f) => {
                    let tokens = f.column_by_name("token")?;
                    let cnt = f.column_by_name("count")?;
                    for r in 0..f.rows() {
                        if let Some(tok) = tokens.token(r) {
                            *counts.entry(tok.into_owned()).or_default() += cnt.numeric(r)? as u64;
                        }
                    }
                }
                other => {
                    return Err(RuntimeError::Protocol(format!(
                        "expected count frame, got {}",
                        other.type_name()
                    )))
                }
            }
        }
        let mode = counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(t, _)| t.clone())
            .ok_or_else(|| {
                RuntimeError::Invalid(format!(
                    "column '{column}' has no category the sites may release"
                ))
            })?;
        // Pass 2: ship the mode; sites fill locally.
        let inner = self.inner.map(
            PartitionScheme::Row,
            self.inner.shape(),
            self.privacy(),
            |_, p, out, b| {
                b.exec(Instruction::FillMissing {
                    frame: p.id,
                    column: column.to_string(),
                    value: mode.clone(),
                    out,
                })
            },
        )?;
        Ok((
            FedFrame {
                inner,
                names: self.names.clone(),
            },
            mode,
        ))
    }
}

#[cfg(test)]
mod impute_tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::testutil::mem_federation;
    use exdra_matrix::frame::FrameColumn;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn federated_mean_imputation_matches_local() {
        let (ctx, _w) = mem_federation(2);
        let mut x = rand_matrix(40, 3, 0.0, 10.0, 1);
        // Knock out some cells.
        for (r, c) in [(0usize, 0usize), (5, 1), (17, 2), (33, 0), (39, 1)] {
            x.set(r, c, f64::NAN);
        }
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let filled = impute_mean(&Tensor::Fed(fed)).unwrap();
        let got = filled.to_local().unwrap();
        // Local reference.
        let want = impute_mean(&Tensor::Local(x.clone()))
            .unwrap()
            .to_local()
            .unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
        // No NaNs remain; imputed cells hold their column's observed mean.
        assert!(got.values().iter().all(|v| !v.is_nan()));
        let observed: Vec<f64> = (0..40)
            .filter(|&r| !x.get(r, 0).is_nan())
            .map(|r| x.get(r, 0))
            .collect();
        let mean0 = observed.iter().sum::<f64>() / observed.len() as f64;
        assert!((got.get(0, 0) - mean0).abs() < 1e-10);
    }

    #[test]
    fn federated_mode_imputation_two_pass() {
        let (ctx, _w) = mem_federation(2);
        // Site 1 is Z-heavy, site 2 is X-heavy; X wins globally 5:4.
        let s1 = Frame::new(vec![(
            "c".into(),
            FrameColumn::from(vec![Some("Z"), Some("Z"), Some("Z"), None, Some("X")]),
        )])
        .unwrap();
        let s2 = Frame::new(vec![(
            "c".into(),
            FrameColumn::from(vec![
                Some("X"),
                Some("X"),
                Some("X"),
                Some("X"),
                None,
                Some("Z"),
            ]),
        )])
        .unwrap();
        let fed = FedFrame::from_site_frames(&ctx, &[s1, s2], PrivacyLevel::Public).unwrap();
        let (repaired, mode) = fed.impute_mode("c").unwrap();
        assert_eq!(mode, "X", "global mode (5 X vs 4 Z), not the local ones");
        let back = repaired.consolidate().unwrap();
        let col = back.column_by_name("c").unwrap();
        assert_eq!(col.missing_count(), 0);
        assert_eq!(
            col.token(3).as_deref(),
            Some("X"),
            "site-1 NULL -> global mode"
        );
        assert_eq!(
            col.token(9).as_deref(),
            Some("X"),
            "site-2 NULL -> global mode"
        );
        // Non-missing cells untouched.
        assert_eq!(col.token(0).as_deref(), Some("Z"));
    }

    #[test]
    fn mode_imputation_respects_strict_privacy() {
        let (ctx, _w) = mem_federation(2);
        let frames: Vec<Frame> = (0..2)
            .map(|i| {
                Frame::new(vec![(
                    "c".into(),
                    FrameColumn::from(vec![Some(format!("v{i}")), None]),
                )])
                .unwrap()
            })
            .collect();
        let fed = FedFrame::from_site_frames(&ctx, &frames, PrivacyLevel::Private).unwrap();
        assert!(matches!(
            fed.impute_mode("c"),
            Err(RuntimeError::Privacy(_))
        ));
    }

    #[test]
    fn impute_mode_unknown_column() {
        let (ctx, _w) = mem_federation(1);
        let f = Frame::new(vec![("c".into(), FrameColumn::from(vec![Some("a")]))]).unwrap();
        let fed = FedFrame::from_site_frames(&ctx, &[f], PrivacyLevel::Public).unwrap();
        assert!(fed.impute_mode("nope").is_err());
    }
}
