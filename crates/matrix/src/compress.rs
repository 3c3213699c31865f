//! Lossless column compression for cached intermediates (paper §4.4,
//! "Compression": federated workers use free cycles for asynchronous,
//! lossless compression and compaction of intermediates).
//!
//! The scheme follows compressed linear algebra (Elgohary et al.): each
//! column is encoded independently with the cheapest of
//!
//! * **DDC** (dense dictionary coding) — a dictionary of distinct values plus
//!   one code per row (u8 or u16 depending on dictionary size),
//! * **RLE** (run-length encoding) — `(value, run_length)` pairs,
//! * **UC** (uncompressed) — fallback when neither pays off.
//!
//! The compressed form is an *execution* representation, not just
//! storage (DESIGN.md §4k): scalar/element-wise ops, row/col/full
//! aggregates, `matvec`/`t_vecmat`, and the fused `mmchain` all run
//! directly on the column groups. Element-wise ops transform only the
//! distinct values (dictionary entries / run values) in O(distinct)
//! per column; the reduction ops walk the codes in exactly the same
//! per-cell order as the corresponding dense kernel — no reassociation,
//! no shortcut over run lengths — so every result is bitwise identical
//! to decompress-then-operate. The wins are the 4-8x smaller memory
//! traffic of 1-2 byte codes and the avoided decompress allocation,
//! not a reduced op count.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::kernels::aggregates::{self, AggDir, AggKernel, AggOp, Chains};
use crate::kernels::par_floor;

/// One encoded column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnGroup {
    /// Dense dictionary coding with u8 codes (≤ 256 distinct values).
    Ddc8 {
        /// Distinct values, index = code.
        dict: Vec<f64>,
        /// One code per row.
        codes: Vec<u8>,
    },
    /// Dense dictionary coding with u16 codes (≤ 65,536 distinct values).
    Ddc16 {
        /// Distinct values, index = code.
        dict: Vec<f64>,
        /// One code per row.
        codes: Vec<u16>,
    },
    /// Run-length encoding as `(value, run_length)` pairs.
    Rle {
        /// Runs of equal values covering the column top to bottom.
        runs: Vec<(f64, u32)>,
    },
    /// Uncompressed fallback.
    Uc {
        /// Raw column values.
        values: Vec<f64>,
    },
}

impl ColumnGroup {
    /// Encoded size in bytes (used by the compression planner).
    pub fn size_bytes(&self) -> usize {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => dict.len() * 8 + codes.len(),
            ColumnGroup::Ddc16 { dict, codes } => dict.len() * 8 + codes.len() * 2,
            ColumnGroup::Rle { runs } => runs.len() * 12,
            ColumnGroup::Uc { values } => values.len() * 8,
        }
    }

    /// Scheme name for stats output.
    pub fn scheme(&self) -> &'static str {
        match self {
            ColumnGroup::Ddc8 { .. } => "DDC8",
            ColumnGroup::Ddc16 { .. } => "DDC16",
            ColumnGroup::Rle { .. } => "RLE",
            ColumnGroup::Uc { .. } => "UC",
        }
    }

    fn decode_into(&self, out: &mut [f64], stride: usize) {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                for (r, &code) in codes.iter().enumerate() {
                    out[r * stride] = dict[code as usize];
                }
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                for (r, &code) in codes.iter().enumerate() {
                    out[r * stride] = dict[code as usize];
                }
            }
            ColumnGroup::Rle { runs } => {
                let mut r = 0usize;
                for &(v, len) in runs {
                    for _ in 0..len {
                        out[r * stride] = v;
                        r += 1;
                    }
                }
            }
            ColumnGroup::Uc { values } => {
                for (r, &v) in values.iter().enumerate() {
                    out[r * stride] = v;
                }
            }
        }
    }

    /// Applies `f` to every *distinct* stored value, keeping the code /
    /// run structure — the O(distinct) element-wise fast path. Bitwise
    /// equivalent to decode-map-encode because decoding reads values
    /// straight out of the dictionary (or run) that `f` transformed.
    fn map_values(&self, f: &(impl Fn(f64) -> f64 + ?Sized)) -> ColumnGroup {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => ColumnGroup::Ddc8 {
                dict: dict.iter().map(|&v| f(v)).collect(),
                codes: codes.clone(),
            },
            ColumnGroup::Ddc16 { dict, codes } => ColumnGroup::Ddc16 {
                dict: dict.iter().map(|&v| f(v)).collect(),
                codes: codes.clone(),
            },
            ColumnGroup::Rle { runs } => ColumnGroup::Rle {
                runs: runs.iter().map(|&(v, len)| (f(v), len)).collect(),
            },
            ColumnGroup::Uc { values } => ColumnGroup::Uc {
                values: values.iter().map(|&v| f(v)).collect(),
            },
        }
    }

    /// Walks the decoded values of rows `lo..hi` in ascending row order,
    /// calling `f(r, value)` — the building block of every compressed
    /// reduction. Emitting rows strictly in order is what makes the
    /// compressed chains bitwise identical to the dense kernels'.
    fn for_each_range(&self, lo: usize, hi: usize, mut f: impl FnMut(usize, f64)) {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                for (d, &code) in codes[lo..hi].iter().enumerate() {
                    f(lo + d, dict[code as usize]);
                }
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                for (d, &code) in codes[lo..hi].iter().enumerate() {
                    f(lo + d, dict[code as usize]);
                }
            }
            ColumnGroup::Rle { runs } => {
                let mut r = 0usize;
                for &(v, len) in runs {
                    let end = r + len as usize;
                    if end > lo {
                        for rr in r.max(lo)..end.min(hi) {
                            f(rr, v);
                        }
                        if end >= hi {
                            break;
                        }
                    }
                    r = end;
                }
            }
            ColumnGroup::Uc { values } => {
                for (d, &v) in values[lo..hi].iter().enumerate() {
                    f(lo + d, v);
                }
            }
        }
    }

    /// `Σ_r w[r] * x[r]` over the whole column as one r-ascending chain
    /// from `0.0`, one term at a time — the per-cell chain of the dense
    /// `t(X) w` row sweep and of `mmchain` phase 2 (`w[r]` is the left
    /// factor there too). A plain slice loop per scheme: the decoded value
    /// never leaves a register.
    fn dot_rows(&self, w: &[f64]) -> f64 {
        let mut acc = 0.0;
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                for (&wr, &code) in w.iter().zip(codes) {
                    acc += wr * dict[code as usize];
                }
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                for (&wr, &code) in w.iter().zip(codes) {
                    acc += wr * dict[code as usize];
                }
            }
            ColumnGroup::Rle { runs } => {
                let mut rest = w;
                for &(v, len) in runs {
                    let (run, tail) = rest.split_at(len as usize);
                    for &wr in run {
                        acc += wr * v;
                    }
                    rest = tail;
                }
            }
            ColumnGroup::Uc { values } => {
                for (&wr, &x) in w.iter().zip(values) {
                    acc += wr * x;
                }
            }
        }
        acc
    }

    /// Visits each *distinct* stored value once, in order of first
    /// occurrence (dictionaries and runs are built top to bottom). Every
    /// one is present in at least one row, so a NaN-ignoring min or max
    /// over them equals the dense row walk's: a repeat cannot move it.
    fn for_each_distinct(&self, mut f: impl FnMut(f64)) {
        match self {
            ColumnGroup::Ddc8 { dict, .. } => dict.iter().for_each(|&v| f(v)),
            ColumnGroup::Ddc16 { dict, .. } => dict.iter().for_each(|&v| f(v)),
            ColumnGroup::Rle { runs } => runs.iter().for_each(|&(v, _)| f(v)),
            ColumnGroup::Uc { values } => values.iter().for_each(|&v| f(v)),
        }
    }
}

/// A losslessly compressed matrix: one [`ColumnGroup`] per column.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedMatrix {
    rows: usize,
    groups: Vec<ColumnGroup>,
}

/// Compression planner decision for one column (returned by
/// [`CompressedMatrix::plan`] for observability).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPlan {
    /// Chosen scheme name.
    pub scheme: &'static str,
    /// Encoded bytes under the chosen scheme.
    pub bytes: usize,
}

impl CompressedMatrix {
    /// Compresses a dense matrix column by column, choosing per column the
    /// scheme with the smallest encoded size.
    pub fn compress(d: &DenseMatrix) -> Self {
        let (rows, cols) = d.shape();
        // Columns encode independently: gather + encode fan out in column
        // blocks over the `exdra_par` pool, and `map_chunks` returns the
        // blocks in column order, so the group layout matches the serial
        // sweep exactly.
        let min_cols = (crate::kernels::PAR_MIN_WORK / rows.max(1)).max(1);
        let chunk = exdra_par::chunk_len(cols, min_cols);
        let groups = exdra_par::map_chunks(cols, chunk, |_, range| {
            range
                .map(|c| {
                    let col: Vec<f64> = (0..rows).map(|r| d.get(r, c)).collect();
                    Self::encode_column(col)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        Self { rows, groups }
    }

    fn encode_column(col: Vec<f64>) -> ColumnGroup {
        // Candidate 1: RLE.
        let mut runs: Vec<(f64, u32)> = Vec::new();
        for &v in &col {
            match runs.last_mut() {
                // Compare bit patterns so NaN runs compress too.
                Some((last, len)) if last.to_bits() == v.to_bits() && *len < u32::MAX => *len += 1,
                _ => runs.push((v, 1)),
            }
        }
        let rle_bytes = runs.len() * 12;

        // Candidate 2: DDC. Build dictionary on value bit patterns.
        let mut dict: Vec<f64> = Vec::new();
        let mut lookup = std::collections::HashMap::new();
        let mut codes: Vec<u32> = Vec::with_capacity(col.len());
        for &v in &col {
            let next = dict.len() as u32;
            let code = *lookup.entry(v.to_bits()).or_insert_with(|| {
                dict.push(v);
                next
            });
            codes.push(code);
        }
        let ddc_bytes = if dict.len() <= 256 {
            dict.len() * 8 + codes.len()
        } else if dict.len() <= 65_536 {
            dict.len() * 8 + codes.len() * 2
        } else {
            usize::MAX
        };

        let uc_bytes = col.len() * 8;
        let best = rle_bytes.min(ddc_bytes).min(uc_bytes);
        if best == uc_bytes {
            ColumnGroup::Uc { values: col }
        } else if best == ddc_bytes {
            if dict.len() <= 256 {
                ColumnGroup::Ddc8 {
                    dict,
                    codes: codes.into_iter().map(|c| c as u8).collect(),
                }
            } else {
                ColumnGroup::Ddc16 {
                    dict,
                    codes: codes.into_iter().map(|c| c as u16).collect(),
                }
            }
        } else {
            ColumnGroup::Rle { runs }
        }
    }

    /// Per-column planner decisions (scheme + size).
    pub fn plan(&self) -> Vec<ColumnPlan> {
        self.groups
            .iter()
            .map(|g| ColumnPlan {
                scheme: g.scheme(),
                bytes: g.size_bytes(),
            })
            .collect()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.groups.len()
    }

    /// Total encoded bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups.iter().map(ColumnGroup::size_bytes).sum()
    }

    /// Compression ratio relative to dense f64 storage.
    pub fn ratio(&self) -> f64 {
        let dense = (self.rows * self.groups.len() * 8) as f64;
        if dense == 0.0 {
            1.0
        } else {
            dense / self.size_bytes() as f64
        }
    }

    /// Materializes the dense matrix.
    pub fn decompress(&self) -> DenseMatrix {
        let cols = self.groups.len();
        let mut out = DenseMatrix::zeros(self.rows, cols);
        for (c, g) in self.groups.iter().enumerate() {
            g.decode_into(&mut out.values_mut()[c..], cols);
        }
        out
    }

    /// Per-group parallel chunk size: columns per block sized so each
    /// block carries at least `PAR_MIN_WORK` row visits.
    fn group_chunk(&self) -> usize {
        let min_cols = (crate::kernels::PAR_MIN_WORK / self.rows.max(1)).max(1);
        exdra_par::chunk_len(self.cols(), min_cols)
    }

    /// Applies an element-wise function to every cell *without decoding*:
    /// only the distinct values of each column group are transformed, in
    /// O(distinct) per column, and the result stays compressed. This is
    /// the compressed-domain execution path for scalar ops, unary ops,
    /// `replace`, and fused element-wise chains.
    pub fn map_cells(&self, f: impl Fn(f64) -> f64 + Sync) -> CompressedMatrix {
        let chunk = self.group_chunk();
        let groups = exdra_par::map_chunks(self.cols(), chunk, |_, range| {
            range
                .map(|c| self.groups[c].map_values(&f))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        CompressedMatrix {
            rows: self.rows,
            groups,
        }
    }

    /// Computes an aggregate directly on the compressed representation,
    /// bitwise identical to `aggregates::aggregate(&self.decompress(), ..)`:
    /// every cell is pushed into the same chains as in the dense kernel,
    /// in the same order (min/max column aggregates shortcut over distinct
    /// values, which a NaN-ignoring min or max cannot tell apart).
    pub fn aggregate(&self, op: AggOp, dir: AggDir) -> Result<DenseMatrix> {
        aggregates::run(self, op, dir)
    }

    /// Matrix-vector product `self * v` executed directly on the
    /// compressed representation: column-outer, every column visited in
    /// ascending order with no zero-skip, each term `x * v[c]` added
    /// individually — the dense matvec fast path's per-row k-ascending
    /// chain, bit for bit, reading 1-2 byte codes instead of 8-byte cells.
    pub fn matvec(&self, v: &DenseMatrix) -> Result<DenseMatrix> {
        if v.rows() != self.cols() || v.cols() != 1 {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_matvec",
                lhs: (self.rows, self.cols()),
                rhs: v.shape(),
            });
        }
        let vv = v.values();
        let mut out = vec![0.0; self.rows];
        let chunk = exdra_par::chunk_len(self.rows, par_floor(self.cols()));
        exdra_par::par_chunks_mut(&mut out, chunk, |_, lo, oseg| {
            let hi = lo + oseg.len();
            for (c, g) in self.groups.iter().enumerate() {
                let scale = vv[c];
                g.for_each_range(lo, hi, |row, x| oseg[row - lo] += x * scale);
            }
        });
        DenseMatrix::new(self.rows, 1, out)
    }

    /// `t(self) %*% w` on the compressed representation, returned as the
    /// `1 x cols` row vector `t(w) %*% self`: per column and per column of
    /// `w`, one r-ascending chain `acc += w[r] * x` (`ColumnGroup::dot_rows`)
    /// — the dense row sweep's per-cell order. For the `cols x k` product
    /// with a `rows x k` right-hand side see [`CompressedMatrix::t_matmul`].
    pub fn t_vecmat(&self, w: &DenseMatrix) -> Result<DenseMatrix> {
        if w.cols() != 1 {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_vecmat",
                lhs: (self.rows, self.cols()),
                rhs: w.shape(),
            });
        }
        let out = self.t_matmul(w)?;
        DenseMatrix::new(1, self.cols(), out.into_values())
    }

    /// `t(self) %*% y` (`cols x k`) for a dense `rows x k` right-hand
    /// side, column of `y` by column of `y` over the same per-group chain
    /// as [`CompressedMatrix::t_vecmat`] — bitwise the dense
    /// `matmul_tn(&self.decompress(), y)`, without decompressing.
    pub fn t_matmul(&self, y: &DenseMatrix) -> Result<DenseMatrix> {
        if y.rows() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_t_matmul",
                lhs: (self.cols(), self.rows),
                rhs: y.shape(),
            });
        }
        let k = y.cols();
        let mut out = DenseMatrix::zeros(self.cols(), k);
        if k == 0 {
            return Ok(out);
        }
        // The chain reads one contiguous column of y at a time; a
        // 1-column y already is one.
        let gathered: Vec<Vec<f64>>;
        let ycols: Vec<&[f64]> = if k == 1 {
            vec![y.values()]
        } else {
            gathered = (0..k)
                .map(|j| (0..self.rows).map(|r| y.get(r, j)).collect())
                .collect();
            gathered.iter().map(Vec::as_slice).collect()
        };
        let chunk = self.group_chunk();
        exdra_par::par_chunks_mut(out.values_mut(), chunk * k, |_, cell0, ochunk| {
            for (d, orow) in ochunk.chunks_exact_mut(k).enumerate() {
                let g = &self.groups[cell0 / k + d];
                for (o, yj) in orow.iter_mut().zip(&ycols) {
                    *o = g.dot_rows(yj);
                }
            }
        });
        Ok(out)
    }

    /// Fused chain `Xᵀ (w ⊙ (X v))` on the compressed representation,
    /// phase for phase the dense `mmchain` kernel: phase 1 accumulates
    /// each row's dot c-ascending (column-outer) then applies `w`; phase
    /// 2 reduces each output column r-ascending with `q[r]` as the left
    /// operand. Bitwise identical to decompress-then-`mmchain`.
    pub fn mmchain(&self, v: &DenseMatrix, w: Option<&DenseMatrix>) -> Result<DenseMatrix> {
        if v.rows() != self.cols() || v.cols() != 1 {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_mmchain",
                lhs: (self.rows, self.cols()),
                rhs: v.shape(),
            });
        }
        if let Some(w) = w {
            if w.rows() != self.rows || w.cols() != 1 {
                return Err(MatrixError::DimensionMismatch {
                    op: "compressed_mmchain",
                    lhs: (self.rows, self.cols()),
                    rhs: w.shape(),
                });
            }
        }
        let (m, n) = (self.rows, self.cols());
        let mut out = DenseMatrix::zeros(n, 1);
        if m == 0 || n == 0 {
            return Ok(out);
        }
        let vv = v.values();
        let wv = w.map(|w| w.values());
        // Phase 1: q = (X v) ⊙ w, column-outer over disjoint row blocks.
        let mut q = vec![0.0; m];
        let chunk = exdra_par::chunk_len(m, par_floor(n));
        exdra_par::par_chunks_mut(&mut q, chunk, |_, lo, qseg| {
            let hi = lo + qseg.len();
            for (c, g) in self.groups.iter().enumerate() {
                let scale = vv[c];
                g.for_each_range(lo, hi, |row, x| qseg[row - lo] += x * scale);
            }
            if let Some(wv) = wv {
                for (d, qi) in qseg.iter_mut().enumerate() {
                    *qi *= wv[lo + d];
                }
            }
        });
        // Phase 2: out = Xᵀ q, one r-ascending chain per column.
        let q = &q;
        let chunk = self.group_chunk();
        exdra_par::par_chunks_mut(out.values_mut(), chunk, |_, c0, ochunk| {
            for (d, o) in ochunk.iter_mut().enumerate() {
                *o = self.groups[c0 + d].dot_rows(q);
            }
        });
        Ok(out)
    }

    /// Column sums computed on the compressed representation.
    pub fn col_sums(&self) -> DenseMatrix {
        self.aggregate(AggOp::Sum, AggDir::Col)
            .expect("sum aggregate cannot fail")
    }

    /// Full sum computed on the compressed representation.
    pub fn sum(&self) -> f64 {
        self.aggregate(AggOp::Sum, AggDir::Full)
            .expect("sum aggregate cannot fail")
            .get(0, 0)
    }
}

impl AggKernel for &CompressedMatrix {
    fn shape(self) -> (usize, usize) {
        (self.rows, self.cols())
    }

    fn walk<C: Chains>(self, op: AggOp, dir: AggDir) -> DenseMatrix {
        let (r, c) = self.shape();
        match dir {
            AggDir::Full => {
                // Row-major cell order, the dense Full arm's one chain: a
                // block of rows at a time, decoded group by group into a
                // row-major tile of about one parallel region's cells.
                let tile_rows = par_floor(c);
                let mut tile = Vec::with_capacity(tile_rows.min(r) * c);
                let mut acc = C::START;
                for lo in (0..r).step_by(tile_rows) {
                    let hi = (lo + tile_rows).min(r);
                    tile.resize((hi - lo) * c, 0.0);
                    for (j, g) in self.groups.iter().enumerate() {
                        g.for_each_range(lo, hi, |row, v| tile[(row - lo) * c + j] = v);
                    }
                    tile.iter().for_each(|&v| acc.push(v));
                }
                DenseMatrix::filled(1, 1, acc.finish(op, (r * c) as f64))
            }
            AggDir::Row => {
                // Column-outer walk over disjoint row blocks: each row's
                // chains extend in c-ascending order — the dense Row arm's
                // left-to-right chain.
                let mut out = DenseMatrix::zeros(r, 1);
                let rows_per_chunk = exdra_par::chunk_len(r, par_floor(4 * c));
                exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk, |_, lo, chunk| {
                    let mut acc = vec![C::START; chunk.len()];
                    for g in &self.groups {
                        g.for_each_range(lo, lo + chunk.len(), |row, v| acc[row - lo].push(v));
                    }
                    for (o, a) in chunk.iter_mut().zip(acc) {
                        *o = a.finish(op, c as f64);
                    }
                });
                out
            }
            AggDir::Col => {
                // One output cell per group, groups disjoint. Sum-based
                // ops walk rows top-to-bottom (the dense Col arm's
                // i-ascending chain); min/max scan each distinct value
                // once, in order of first occurrence: a repeated value
                // cannot move a NaN-ignoring min or max.
                let mut out = DenseMatrix::zeros(1, c);
                let chunk = self.group_chunk();
                exdra_par::par_chunks_mut(out.values_mut(), chunk, |_, c0, ochunk| {
                    for (g, o) in self.groups[c0..].iter().zip(ochunk) {
                        let mut acc = C::START;
                        match op {
                            AggOp::Min | AggOp::Max => g.for_each_distinct(|v| acc.push(v)),
                            _ => g.for_each_range(0, r, |_, v| acc.push(v)),
                        }
                        *o = acc.finish(op, r as f64);
                    }
                });
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul::matmul_naive;
    use crate::kernels::reorg::transpose;
    use crate::rng::rand_matrix;

    /// Matrix with low-cardinality and constant columns (compressible) plus
    /// one random column (incompressible).
    fn mixed_matrix(rows: usize) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(rows, 4);
        for r in 0..rows {
            d.set(r, 0, (r % 3) as f64); // 3 distinct values -> DDC8
            d.set(r, 1, 7.0); // constant -> RLE
            d.set(r, 2, if r < rows / 2 { 1.0 } else { 2.0 }); // 2 runs -> RLE
        }
        let noise = rand_matrix(rows, 1, 0.0, 1.0, 99);
        for r in 0..rows {
            d.set(r, 3, noise.get(r, 0)); // random -> UC
        }
        d
    }

    #[test]
    fn roundtrip_lossless() {
        let d = mixed_matrix(500);
        let c = CompressedMatrix::compress(&d);
        assert!(c.decompress().max_abs_diff(&d) == 0.0);
    }

    #[test]
    fn planner_picks_expected_schemes() {
        let d = mixed_matrix(500);
        let c = CompressedMatrix::compress(&d);
        let plan = c.plan();
        assert_eq!(plan[0].scheme, "DDC8");
        assert_eq!(plan[1].scheme, "RLE");
        assert_eq!(plan[2].scheme, "RLE");
        assert_eq!(plan[3].scheme, "UC");
        assert!(c.ratio() > 2.0, "ratio {}", c.ratio());
    }

    #[test]
    fn nan_columns_roundtrip() {
        let mut d = DenseMatrix::zeros(10, 1);
        for r in 0..5 {
            d.set(r, 0, f64::NAN);
        }
        let c = CompressedMatrix::compress(&d);
        let back = c.decompress();
        for r in 0..10 {
            assert_eq!(back.get(r, 0).is_nan(), r < 5);
        }
    }

    #[test]
    fn compressed_matvec_matches_dense() {
        let d = mixed_matrix(100);
        let c = CompressedMatrix::compress(&d);
        let v = rand_matrix(4, 1, -1.0, 1.0, 5);
        let got = c.matvec(&v).unwrap();
        let want = matmul_naive(&d, &v).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn compressed_vecmat_matches_dense() {
        let d = mixed_matrix(100);
        let c = CompressedMatrix::compress(&d);
        let w = rand_matrix(100, 1, -1.0, 1.0, 6);
        let got = c.t_vecmat(&w).unwrap();
        let want = matmul_naive(&transpose(&w), &d).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn compressed_aggregates_match_dense() {
        let d = mixed_matrix(64);
        let c = CompressedMatrix::compress(&d);
        let want = crate::kernels::aggregates::aggregate(
            &d,
            crate::kernels::aggregates::AggOp::Sum,
            crate::kernels::aggregates::AggDir::Col,
        )
        .unwrap();
        assert!(c.col_sums().max_abs_diff(&want) < 1e-10);
        assert!((c.sum() - d.values().iter().sum::<f64>()).abs() < 1e-10);
    }

    fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
        a.shape() == b.shape()
            && a.values()
                .iter()
                .zip(b.values())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn every_aggregate_is_bitwise_identical_to_dense() {
        use crate::kernels::aggregates::{aggregate, AggDir, AggOp};
        let d = mixed_matrix(97);
        let c = CompressedMatrix::compress(&d);
        for op in [
            AggOp::Sum,
            AggOp::Min,
            AggOp::Max,
            AggOp::Mean,
            AggOp::Var,
            AggOp::Sd,
            AggOp::SumSq,
        ] {
            for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
                let got = c.aggregate(op, dir).unwrap();
                let want = aggregate(&d, op, dir).unwrap();
                assert!(same_bits(&got, &want), "{:?} {:?} differs", op, dir);
            }
        }
    }

    #[test]
    fn matvec_vecmat_mmchain_bitwise_match_dense_kernels() {
        use crate::kernels::matmul::{matmul, mmchain};
        let d = mixed_matrix(150);
        let c = CompressedMatrix::compress(&d);
        let v = rand_matrix(4, 1, -1.0, 1.0, 5);
        let w = rand_matrix(150, 1, 0.0, 1.0, 6);
        assert!(same_bits(&c.matvec(&v).unwrap(), &matmul(&d, &v).unwrap()));
        let want_vm = matmul(&transpose(&w), &d).unwrap();
        assert!(same_bits(&c.t_vecmat(&w).unwrap(), &want_vm));
        // A k-column right-hand side reuses the chain column by column.
        let y = rand_matrix(150, 3, -1.0, 1.0, 7);
        let want_tm = crate::kernels::matmul::matmul_tn(&d, &y).unwrap();
        assert!(same_bits(&c.t_matmul(&y).unwrap(), &want_tm));
        assert!(c.t_matmul(&rand_matrix(149, 3, -1.0, 1.0, 8)).is_err());
        for weights in [None, Some(&w)] {
            let got = c.mmchain(&v, weights).unwrap();
            let want = mmchain(&d, &v, weights).unwrap();
            assert!(same_bits(&got, &want));
        }
    }

    #[test]
    fn map_cells_stays_compressed_and_matches_dense_map() {
        let d = mixed_matrix(120);
        let c = CompressedMatrix::compress(&d);
        let got = c.map_cells(|v| (v * 2.0).abs());
        // Structure preserved: same schemes, no decode.
        let before: Vec<_> = c.plan().iter().map(|p| p.scheme).collect();
        let after: Vec<_> = got.plan().iter().map(|p| p.scheme).collect();
        assert_eq!(before, after);
        let want = d.map(|v| (v * 2.0).abs());
        assert!(same_bits(&got.decompress(), &want));
    }
}
