//! Feature transformation encoders: recode, equi-width binning, feature
//! hashing, one-hot (dummy) coding, and pass-through.
//!
//! The federated `transformencode` of the paper (§4.4, Figure 3) is a
//! two-pass protocol:
//!
//! 1. **partial build** — every site computes encoder-specific metadata over
//!    its local rows ([`build_partial`]): distinct items for recoded
//!    features, min/max for binned features;
//! 2. **merge, sort, assign codes** — the coordinator consolidates the
//!    partials ([`merge_partials`]) into global [`TransformMeta`] with
//!    contiguous, *sorted* integer codes and global bin boundaries;
//! 3. **apply** — the metadata is broadcast and every site encodes its rows
//!    ([`apply`]) into a numeric matrix with consistently aligned one-hot
//!    columns; categories absent at a site yield all-zero columns.
//!
//! [`decode`] implements `transformdecode` for recode/bin/pass-through
//! columns (feature hashing is intentionally lossy).

use std::collections::BTreeSet;

use exdra_matrix::frame::{Frame, FrameColumn};
use exdra_matrix::{DenseMatrix, MatrixError, Result};
use exdra_net::{wire_enum, wire_struct};

use crate::hashing::feature_bucket;

/// How one input column is transformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeKind {
    /// Numeric column copied unchanged.
    PassThrough,
    /// Categories mapped to contiguous, sorted integer codes.
    Recode,
    /// Numeric values mapped to `num_bins` equi-width bins.
    Bin {
        /// Number of equi-width bins.
        num_bins: usize,
    },
    /// Categories hashed to `num_features` buckets (no metadata exchange).
    Hash {
        /// Upper bound on the hashed domain.
        num_features: usize,
    },
}

/// Transformation spec for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Input column name (must exist in the frame).
    pub name: String,
    /// Transformation kind.
    pub kind: EncodeKind,
    /// Whether the (integer) result is additionally one-hot encoded.
    pub one_hot: bool,
}

/// A full `transformencode` specification: one [`ColumnSpec`] per encoded
/// column, in output order. Unlisted frame columns are ignored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransformSpec {
    /// Column specs in output order.
    pub columns: Vec<ColumnSpec>,
}

impl TransformSpec {
    /// Derives a default spec from a frame: string columns are recoded and
    /// one-hot encoded, numeric columns pass through.
    pub fn auto(frame: &Frame) -> Self {
        let columns = frame
            .schema()
            .into_iter()
            .map(|(name, vt)| match vt {
                exdra_matrix::ValueType::Str => ColumnSpec {
                    name,
                    kind: EncodeKind::Recode,
                    one_hot: true,
                },
                _ => ColumnSpec {
                    name,
                    kind: EncodeKind::PassThrough,
                    one_hot: false,
                },
            })
            .collect();
        Self { columns }
    }
}

/// Site-local (first-pass) metadata for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum PartialColumnMeta {
    /// Nothing to collect.
    PassThrough,
    /// Distinct category tokens observed at this site (sorted).
    Recode {
        /// Sorted distinct tokens.
        distincts: Vec<String>,
    },
    /// Local value range (ignoring missing values).
    Bin {
        /// Minimum observed value (`INFINITY` when all missing).
        min: f64,
        /// Maximum observed value (`NEG_INFINITY` when all missing).
        max: f64,
    },
    /// Hashing needs no metadata.
    Hash,
}

/// First-pass metadata over one site's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialMeta {
    /// Per-column partials aligned with the spec.
    pub columns: Vec<PartialColumnMeta>,
    /// Number of local rows (used for imbalance handling elsewhere).
    pub rows: usize,
}

/// Consolidated (global) metadata for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnMeta {
    /// Copy through.
    PassThrough,
    /// Sorted global category list; token at index `i` has code `i + 1`.
    Recode {
        /// Sorted global distinct tokens.
        codes: Vec<String>,
    },
    /// Global equi-width bin boundaries.
    Bin {
        /// Global minimum.
        min: f64,
        /// Global maximum.
        max: f64,
        /// Number of bins.
        num_bins: usize,
    },
    /// Hash domain size.
    Hash {
        /// Upper bound on the hashed domain.
        num_features: usize,
    },
}

impl ColumnMeta {
    /// Integer domain size of the encoded column (1 for pass-through).
    pub fn domain(&self) -> usize {
        match self {
            ColumnMeta::PassThrough => 1,
            ColumnMeta::Recode { codes } => codes.len(),
            ColumnMeta::Bin { num_bins, .. } => *num_bins,
            ColumnMeta::Hash { num_features } => *num_features,
        }
    }
}

/// Global `transformencode` metadata: the "metadata frame" of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformMeta {
    /// `(spec, consolidated meta)` per encoded column, in output order.
    pub columns: Vec<(ColumnSpec, ColumnMeta)>,
}

impl TransformMeta {
    /// Output width of one encoded column (domain size when one-hot).
    pub fn out_width(&self, idx: usize) -> usize {
        let (spec, meta) = &self.columns[idx];
        if spec.one_hot {
            meta.domain()
        } else {
            1
        }
    }

    /// Starting output-column offset of each encoded column.
    pub fn offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.columns.len());
        let mut acc = 0usize;
        for i in 0..self.columns.len() {
            offsets.push(acc);
            acc += self.out_width(i);
        }
        offsets
    }

    /// Total number of output matrix columns.
    pub fn out_cols(&self) -> usize {
        (0..self.columns.len()).map(|i| self.out_width(i)).sum()
    }
}

/// First pass: builds site-local metadata for `spec` over `frame`.
pub fn build_partial(frame: &Frame, spec: &TransformSpec) -> Result<PartialMeta> {
    let mut columns = Vec::with_capacity(spec.columns.len());
    for cs in &spec.columns {
        let col = frame.column_by_name(&cs.name)?;
        let partial = match cs.kind {
            EncodeKind::PassThrough => PartialColumnMeta::PassThrough,
            EncodeKind::Hash { .. } => PartialColumnMeta::Hash,
            EncodeKind::Recode => {
                let mut set = BTreeSet::new();
                for r in 0..col.len() {
                    if let Some(tok) = col.token(r) {
                        set.insert(tok);
                    }
                }
                PartialColumnMeta::Recode {
                    distincts: set.into_iter().collect(),
                }
            }
            EncodeKind::Bin { .. } => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for r in 0..col.len() {
                    let v = col.numeric(r)?;
                    if !v.is_nan() {
                        min = min.min(v);
                        max = max.max(v);
                    }
                }
                PartialColumnMeta::Bin { min, max }
            }
        };
        columns.push(partial);
    }
    Ok(PartialMeta {
        columns,
        rows: frame.rows(),
    })
}

/// Second pass (coordinator): merges site partials, sorts the distinct
/// items, assigns contiguous codes, and computes global bin boundaries.
pub fn merge_partials(partials: &[PartialMeta], spec: &TransformSpec) -> Result<TransformMeta> {
    if partials.is_empty() {
        return Err(MatrixError::InvalidArgument {
            op: "merge_partials",
            msg: "no partial metadata".into(),
        });
    }
    for p in partials {
        if p.columns.len() != spec.columns.len() {
            return Err(MatrixError::InvalidArgument {
                op: "merge_partials",
                msg: format!(
                    "partial has {} columns, spec has {}",
                    p.columns.len(),
                    spec.columns.len()
                ),
            });
        }
    }
    let mut columns = Vec::with_capacity(spec.columns.len());
    for (ci, cs) in spec.columns.iter().enumerate() {
        let meta = match cs.kind {
            EncodeKind::PassThrough => ColumnMeta::PassThrough,
            EncodeKind::Hash { num_features } => ColumnMeta::Hash { num_features },
            EncodeKind::Recode => {
                let mut set = BTreeSet::new();
                for p in partials {
                    match &p.columns[ci] {
                        PartialColumnMeta::Recode { distincts } => {
                            set.extend(distincts.iter().cloned())
                        }
                        other => {
                            return Err(MatrixError::InvalidArgument {
                                op: "merge_partials",
                                msg: format!("column {ci}: expected recode partial, got {other:?}"),
                            })
                        }
                    }
                }
                ColumnMeta::Recode {
                    codes: set.into_iter().collect(),
                }
            }
            EncodeKind::Bin { num_bins } => {
                let mut gmin = f64::INFINITY;
                let mut gmax = f64::NEG_INFINITY;
                for p in partials {
                    match &p.columns[ci] {
                        PartialColumnMeta::Bin { min, max } => {
                            gmin = gmin.min(*min);
                            gmax = gmax.max(*max);
                        }
                        other => {
                            return Err(MatrixError::InvalidArgument {
                                op: "merge_partials",
                                msg: format!("column {ci}: expected bin partial, got {other:?}"),
                            })
                        }
                    }
                }
                if gmin > gmax {
                    return Err(MatrixError::InvalidArgument {
                        op: "merge_partials",
                        msg: format!("column {ci}: no non-missing values to bin"),
                    });
                }
                ColumnMeta::Bin {
                    min: gmin,
                    max: gmax,
                    num_bins,
                }
            }
        };
        columns.push((cs.clone(), meta));
    }
    Ok(TransformMeta { columns })
}

/// Integer code (1-based) of one cell under consolidated metadata;
/// `None` for missing or (for recode) unknown categories.
fn cell_code(col: &FrameColumn, row: usize, meta: &ColumnMeta) -> Result<Option<usize>> {
    Ok(match meta {
        ColumnMeta::PassThrough => unreachable!("pass-through has no code"),
        ColumnMeta::Recode { codes } => col
            .token(row)
            .and_then(|tok| codes.binary_search(&tok).ok().map(|i| i + 1)),
        ColumnMeta::Bin { min, max, num_bins } => {
            let v = col.numeric(row)?;
            if v.is_nan() {
                None
            } else {
                let width = (max - min) / *num_bins as f64;
                let bin = if width <= 0.0 {
                    1
                } else {
                    (((v - min) / width).floor() as i64 + 1).clamp(1, *num_bins as i64) as usize
                };
                Some(bin)
            }
        }
        ColumnMeta::Hash { num_features } => col
            .token(row)
            .map(|tok| feature_bucket(&tok, *num_features)),
    })
}

/// Third pass (sites): encodes `frame` under the broadcast global metadata
/// into a numeric matrix with consistently aligned columns.
///
/// Missing/unknown cells produce NaN for plain integer outputs and all-zero
/// rows for one-hot outputs, preserving downstream imputability.
pub fn apply(frame: &Frame, meta: &TransformMeta) -> Result<DenseMatrix> {
    let rows = frame.rows();
    let offsets = meta.offsets();
    let mut out = DenseMatrix::zeros(rows, meta.out_cols());
    for (ci, (spec, cmeta)) in meta.columns.iter().enumerate() {
        let col = frame.column_by_name(&spec.name)?;
        let base = offsets[ci];
        match cmeta {
            ColumnMeta::PassThrough => {
                for r in 0..rows {
                    out.set(r, base, col.numeric(r)?);
                }
            }
            _ => {
                for r in 0..rows {
                    match cell_code(col, r, cmeta)? {
                        Some(code) if spec.one_hot => out.set(r, base + code - 1, 1.0),
                        Some(code) => out.set(r, base, code as f64),
                        None if spec.one_hot => {} // all-zero row segment
                        None => out.set(r, base, f64::NAN),
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Convenience single-site `transformencode`: build, merge, and apply.
pub fn transform_encode(
    frame: &Frame,
    spec: &TransformSpec,
) -> Result<(DenseMatrix, TransformMeta)> {
    let partial = build_partial(frame, spec)?;
    let meta = merge_partials(std::slice::from_ref(&partial), spec)?;
    let encoded = apply(frame, &meta)?;
    Ok((encoded, meta))
}

/// `transformdecode`: reconstructs a frame from an encoded matrix.
///
/// Recode columns decode to their category strings, bin columns to bin
/// centers, pass-through columns to raw values. Hash columns are lossy and
/// decode to `"h<bucket>"` placeholders. One-hot segments decode via the
/// (unique) hot position; all-zero segments decode to missing.
pub fn decode(encoded: &DenseMatrix, meta: &TransformMeta) -> Result<Frame> {
    let rows = encoded.rows();
    if encoded.cols() != meta.out_cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "transformdecode",
            lhs: encoded.shape(),
            rhs: (rows, meta.out_cols()),
        });
    }
    let offsets = meta.offsets();
    let mut out_cols = Vec::with_capacity(meta.columns.len());
    for (ci, (spec, cmeta)) in meta.columns.iter().enumerate() {
        let base = offsets[ci];
        let code_of = |r: usize| -> Option<usize> {
            if spec.one_hot {
                let width = meta.out_width(ci);
                (0..width)
                    .find(|&k| encoded.get(r, base + k) != 0.0)
                    .map(|k| k + 1)
            } else {
                let v = encoded.get(r, base);
                if v.is_nan() {
                    None
                } else {
                    Some(v as usize)
                }
            }
        };
        let col = match cmeta {
            ColumnMeta::PassThrough => FrameColumn::F64(
                (0..rows)
                    .map(|r| {
                        let v = encoded.get(r, base);
                        if v.is_nan() {
                            None
                        } else {
                            Some(v)
                        }
                    })
                    .collect(),
            ),
            ColumnMeta::Recode { codes } => FrameColumn::Str(
                (0..rows)
                    .map(|r| code_of(r).and_then(|c| codes.get(c - 1).cloned()))
                    .collect(),
            ),
            ColumnMeta::Bin { min, max, num_bins } => {
                let width = (max - min) / *num_bins as f64;
                FrameColumn::F64(
                    (0..rows)
                        .map(|r| code_of(r).map(|c| min + width * (c as f64 - 0.5)))
                        .collect(),
                )
            }
            ColumnMeta::Hash { .. } => FrameColumn::Str(
                (0..rows)
                    .map(|r| code_of(r).map(|c| format!("h{c}")))
                    .collect(),
            ),
        };
        out_cols.push((spec.name.clone(), col));
    }
    Frame::new(out_cols)
}

// ---------------------------------------------------------------------------
// Wire encodings (spec/metadata travel between coordinator and workers).
// ---------------------------------------------------------------------------

wire_enum! { EncodeKind {
    0 => PassThrough,
    1 => Recode,
    2 => Bin { num_bins },
    3 => Hash { num_features },
} }

wire_struct! { ColumnSpec { name, kind, one_hot } }

wire_struct! { TransformSpec { columns } }

wire_enum! { PartialColumnMeta {
    0 => PassThrough,
    1 => Recode { distincts },
    2 => Bin { min, max },
    3 => Hash,
} }

wire_struct! { PartialMeta { columns, rows } }

wire_enum! { ColumnMeta {
    0 => PassThrough,
    1 => Recode { codes },
    2 => Bin { min, max, num_bins },
    3 => Hash { num_features },
} }

wire_struct! { TransformMeta { columns } }

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::frame::FrameColumn;

    /// The Figure 3 scenario: two federated sites, columns A (recode +
    /// one-hot), B (3 equi-width bins + one-hot), C (recode + one-hot,
    /// with NULLs).
    fn site1() -> Frame {
        Frame::new(vec![
            (
                "A".into(),
                FrameColumn::Str(
                    ["R101", "R101", "C7", "R101", "C3", "R102"]
                        .iter()
                        .map(|s| Some(s.to_string()))
                        .collect(),
                ),
            ),
            (
                "B".into(),
                FrameColumn::F64(
                    [2100.0, 4350.0, 5500.0, 2500.0, 4900.0, 5200.0]
                        .iter()
                        .map(|&v| Some(v))
                        .collect(),
                ),
            ),
            (
                "C".into(),
                FrameColumn::Str(vec![
                    Some("X".into()),
                    None,
                    Some("Z".into()),
                    Some("X".into()),
                    Some("Z".into()),
                    Some("Y".into()),
                ]),
            ),
        ])
        .unwrap()
    }

    fn site2() -> Frame {
        Frame::new(vec![
            (
                "A".into(),
                FrameColumn::Str(
                    ["C5", "C91", "C5", "R101", "C5", "R101"]
                        .iter()
                        .map(|s| Some(s.to_string()))
                        .collect(),
                ),
            ),
            (
                "B".into(),
                FrameColumn::F64(
                    [3500.0, 2600.0, 4400.0, 5400.0, 1900.0, 5200.0]
                        .iter()
                        .map(|&v| Some(v))
                        .collect(),
                ),
            ),
            (
                "C".into(),
                FrameColumn::Str(vec![
                    Some("Z".into()),
                    Some("Z".into()),
                    Some("Z".into()),
                    Some("X".into()),
                    None,
                    Some("X".into()),
                ]),
            ),
        ])
        .unwrap()
    }

    fn fig3_spec() -> TransformSpec {
        TransformSpec {
            columns: vec![
                ColumnSpec {
                    name: "A".into(),
                    kind: EncodeKind::Recode,
                    one_hot: true,
                },
                ColumnSpec {
                    name: "B".into(),
                    kind: EncodeKind::Bin { num_bins: 3 },
                    one_hot: true,
                },
                ColumnSpec {
                    name: "C".into(),
                    kind: EncodeKind::Recode,
                    one_hot: true,
                },
            ],
        }
    }

    #[test]
    fn figure3_federated_encode_matches_paper() {
        let spec = fig3_spec();
        let p1 = build_partial(&site1(), &spec).unwrap();
        let p2 = build_partial(&site2(), &spec).unwrap();
        let meta = merge_partials(&[p1, p2], &spec).unwrap();
        // Global domain of A: sorted union {C3, C5, C7, C91, R101, R102}.
        match &meta.columns[0].1 {
            ColumnMeta::Recode { codes } => {
                assert_eq!(codes, &["C3", "C5", "C7", "C91", "R101", "R102"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Global bin range of B: [1900, 5500].
        match &meta.columns[1].1 {
            ColumnMeta::Bin { min, max, num_bins } => {
                assert_eq!((*min, *max, *num_bins), (1900.0, 5500.0, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Output: 6 (A) + 3 (B) + 3 (C) columns.
        assert_eq!(meta.out_cols(), 12);

        let e1 = apply(&site1(), &meta).unwrap();
        let e2 = apply(&site2(), &meta).unwrap();
        assert_eq!(e1.shape(), (6, 12));
        assert_eq!(e2.shape(), (6, 12));
        // Site 1, row 0: A=R101 -> code 5 -> column 4 hot.
        assert_eq!(e1.get(0, 4), 1.0);
        // Site 1, row 1: C is NULL -> all zeros in C segment (cols 9..12).
        for c in 9..12 {
            assert_eq!(e1.get(1, c), 0.0);
        }
        // Site 1 never sees C5 (code 2) -> column 1 all zero.
        for r in 0..6 {
            assert_eq!(e1.get(r, 1), 0.0);
        }
        // Site 2 sees C5 three times.
        let c5_count: f64 = (0..6).map(|r| e2.get(r, 1)).sum();
        assert_eq!(c5_count, 3.0);
        // B=1900 at site 2 row 4 -> bin 1 -> column 6 hot.
        assert_eq!(e2.get(4, 6), 1.0);
        // B=5500 at site 1 row 2 -> bin 3 -> column 8 hot.
        assert_eq!(e1.get(2, 8), 1.0);
        // Exactly one hot cell per one-hot segment with data.
        let a_row_sum: f64 = (0..6).map(|c| e1.get(0, c)).sum();
        assert_eq!(a_row_sum, 1.0);
    }

    #[test]
    fn federated_equals_centralized_encoding() {
        // Encoding the union locally must equal the two-pass result
        // (the paper's "equivalent to local encoding" claim).
        let spec = fig3_spec();
        let combined = site1().rbind(&site2()).unwrap();
        let (central, _) = transform_encode(&combined, &spec).unwrap();

        let p1 = build_partial(&site1(), &spec).unwrap();
        let p2 = build_partial(&site2(), &spec).unwrap();
        let meta = merge_partials(&[p1, p2], &spec).unwrap();
        let e1 = apply(&site1(), &meta).unwrap();
        let e2 = apply(&site2(), &meta).unwrap();
        let fed = exdra_matrix::kernels::reorg::rbind(&e1, &e2).unwrap();
        assert!(fed.max_abs_diff(&central) < 1e-15);
    }

    #[test]
    fn recode_without_one_hot_gives_codes() {
        let spec = TransformSpec {
            columns: vec![ColumnSpec {
                name: "C".into(),
                kind: EncodeKind::Recode,
                one_hot: false,
            }],
        };
        let (m, meta) = transform_encode(&site1(), &spec).unwrap();
        assert_eq!(m.cols(), 1);
        // Codes sorted: X=1, Y=2, Z=3.
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(5, 0), 2.0);
        assert!(m.get(1, 0).is_nan(), "missing -> NaN");
        match &meta.columns[0].1 {
            ColumnMeta::Recode { codes } => assert_eq!(codes, &["X", "Y", "Z"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binning_clamps_out_of_range_values() {
        // Apply global meta from a narrower range to a wider site.
        let meta = TransformMeta {
            columns: vec![(
                ColumnSpec {
                    name: "v".into(),
                    kind: EncodeKind::Bin { num_bins: 4 },
                    one_hot: false,
                },
                ColumnMeta::Bin {
                    min: 0.0,
                    max: 4.0,
                    num_bins: 4,
                },
            )],
        };
        let f = Frame::new(vec![(
            "v".into(),
            FrameColumn::F64(vec![
                Some(-5.0),
                Some(0.5),
                Some(3.99),
                Some(99.0),
                Some(4.0),
            ]),
        )])
        .unwrap();
        let m = apply(&f, &meta).unwrap();
        assert_eq!(
            m.values(),
            &[1.0, 1.0, 4.0, 4.0, 4.0],
            "clamped to [1, num_bins]"
        );
    }

    #[test]
    fn hashing_needs_no_metadata_exchange() {
        let spec = TransformSpec {
            columns: vec![ColumnSpec {
                name: "A".into(),
                kind: EncodeKind::Hash { num_features: 4 },
                one_hot: true,
            }],
        };
        // Each site can encode independently with identical layouts.
        let p1 = build_partial(&site1(), &spec).unwrap();
        assert_eq!(p1.columns[0], PartialColumnMeta::Hash);
        let meta = merge_partials(&[p1], &spec).unwrap();
        let e1 = apply(&site1(), &meta).unwrap();
        let e2 = apply(&site2(), &meta).unwrap();
        assert_eq!(e1.cols(), 4);
        assert_eq!(e2.cols(), 4);
        // Same category hashes to the same bucket at both sites.
        // R101 appears at both sites; find its bucket from row 0 of site 1.
        let bucket = (0..4).find(|&c| e1.get(0, c) == 1.0).unwrap();
        assert_eq!(e2.get(3, bucket), 1.0, "site2 row 3 is also R101");
    }

    #[test]
    fn decode_roundtrips_recode_and_bin_centers() {
        let spec = TransformSpec {
            columns: vec![
                ColumnSpec {
                    name: "A".into(),
                    kind: EncodeKind::Recode,
                    one_hot: true,
                },
                ColumnSpec {
                    name: "B".into(),
                    kind: EncodeKind::Bin { num_bins: 3 },
                    one_hot: false,
                },
            ],
        };
        let (m, meta) = transform_encode(&site1(), &spec).unwrap();
        let back = decode(&m, &meta).unwrap();
        // Categories roundtrip exactly.
        for r in 0..6 {
            assert_eq!(
                back.column_by_name("A").unwrap().token(r),
                site1().column_by_name("A").unwrap().token(r)
            );
        }
        // Bin decoding returns the bin center, within half a bin width.
        let width = (5500.0 - 2100.0) / 3.0;
        for r in 0..6 {
            let orig = site1().column_by_name("B").unwrap().numeric(r).unwrap();
            let dec = back.column_by_name("B").unwrap().numeric(r).unwrap();
            assert!((orig - dec).abs() <= width / 2.0 + 1e-9);
        }
    }

    #[test]
    fn merge_rejects_all_missing_bin_column() {
        let spec = TransformSpec {
            columns: vec![ColumnSpec {
                name: "v".into(),
                kind: EncodeKind::Bin { num_bins: 2 },
                one_hot: false,
            }],
        };
        let f = Frame::new(vec![("v".into(), FrameColumn::F64(vec![None, None]))]).unwrap();
        let p = build_partial(&f, &spec).unwrap();
        assert!(merge_partials(&[p], &spec).is_err());
    }

    #[test]
    fn spec_auto_recodes_strings_only() {
        let s = TransformSpec::auto(&site1());
        assert_eq!(s.columns[0].kind, EncodeKind::Recode);
        assert_eq!(s.columns[1].kind, EncodeKind::PassThrough);
        assert!(s.columns[0].one_hot);
    }

    #[test]
    fn metadata_wire_roundtrip() {
        use exdra_net::codec::Wire;
        let spec = fig3_spec();
        let p1 = build_partial(&site1(), &spec).unwrap();
        let meta = merge_partials(std::slice::from_ref(&p1), &spec).unwrap();
        assert_eq!(TransformSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);
        assert_eq!(PartialMeta::from_bytes(&p1.to_bytes()).unwrap(), p1);
        assert_eq!(TransformMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
    }
}
