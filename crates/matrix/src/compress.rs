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
//! no shortcut over run lengths, the chains restarted at the same
//! [`REDUCE_BLOCK_ROWS`] boundaries (four row tiles) and the block
//! partials folded in the same order (DESIGN.md §4f) — so every result is
//! bitwise identical to decompress-then-operate. The products walk the
//! codes in L1-sized row tiles, four DDC8 columns per sweep, phase 1
//! adding pre-scaled dictionary entries (`dict[k]·v[c]`, the bits of
//! `x·v[c]`); the Col aggregates push four DDC8 columns per sweep too.
//! On a CPU with `avx512f` the products run an AVX-512 twin that holds a
//! DDC8 dictionary of at most 16 entries in two registers and decodes 8
//! codes per instruction: rows in lanes in phase 1, a transposed 8×8
//! block in phase 2, each lane the portable body's chain (DESIGN.md §4k).
//! The wins are the 4-8x smaller memory traffic of 1-2 byte codes (a
//! 20k×100 partition's 2 MB of codes stays in a core's L2, its 16 MB
//! dense form does not), the avoided decompress allocation, and, in the
//! twin, fewer instructions: one table lookup does the work of 8 cell
//! loads, and in phase 2 every column of `Y` reuses one decode.

use std::ops::Range;

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::kernels::aggregates::{self, col_chains, AggDir, AggKernel, AggOp, Chains};
#[cfg(target_arch = "x86_64")]
use crate::kernels::avx512_available;
use crate::kernels::elementwise::{BinaryOp, UnaryOp};
use crate::kernels::reorg;
use crate::kernels::{
    add_into, fold_blocks_into, fold_row_blocks, par_floor, REDUCE_BLOCK_ROWS, TN_BLOCK_CELLS,
};

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

    /// Writes rows `lo..hi`, row `r` at `tile[(r - lo) * stride]`: the one
    /// decoder of [`CompressedMatrix::decompress`] and of the Full
    /// aggregate's tile walk. An RLE group seeks from `cursor`.
    fn decode_rows(
        &self,
        lo: usize,
        hi: usize,
        cursor: &mut RunCursor,
        tile: &mut [f64],
        stride: usize,
    ) {
        self.visit(lo, hi, cursor, |d, v| tile[d * stride] = v);
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

    /// Calls `f(r - lo, x[r])` for rows `lo..hi` in ascending order — the
    /// building block of every compressed reduction: emitting rows strictly
    /// in order is what makes the compressed chains bitwise identical to
    /// the dense kernels'. An RLE group seeks from `cursor`.
    #[inline(always)]
    fn visit(&self, lo: usize, hi: usize, cursor: &mut RunCursor, mut f: impl FnMut(usize, f64)) {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                for (d, &code) in codes[lo..hi].iter().enumerate() {
                    f(d, dict[code as usize]);
                }
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                for (d, &code) in codes[lo..hi].iter().enumerate() {
                    f(d, dict[code as usize]);
                }
            }
            ColumnGroup::Rle { runs } => cursor.walk(runs, lo, hi, |from, to, v| {
                for r in from..to {
                    f(r - lo, v);
                }
            }),
            ColumnGroup::Uc { values } => {
                for (d, &v) in values[lo..hi].iter().enumerate() {
                    f(d, v);
                }
            }
        }
    }

    /// Extends the chain `acc += y[r - lo] * x[r]` over rows `lo..hi`, r
    /// ascending, one term at a time: the per-cell chain of the dense
    /// `t(X) Y` row sweep and of `mmchain` phase 2 (`y = q`).
    fn extend_chain(&self, y: &[f64], lo: usize, hi: usize, cursor: &mut RunCursor, acc: &mut f64) {
        let mut a = *acc;
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                for (&yr, &code) in y.iter().zip(&codes[lo..hi]) {
                    a += yr * dict[code as usize];
                }
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                for (&yr, &code) in y.iter().zip(&codes[lo..hi]) {
                    a += yr * dict[code as usize];
                }
            }
            ColumnGroup::Rle { runs } => cursor.walk(runs, lo, hi, |from, to, x| {
                for &yr in &y[from - lo..to - lo] {
                    a += yr * x;
                }
            }),
            ColumnGroup::Uc { values } => {
                for (&yr, &x) in y.iter().zip(&values[lo..hi]) {
                    a += yr * x;
                }
            }
        }
        *acc = a;
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

/// Rows per tile of the product walks: a tile of `q` (4 KiB) stays in L1
/// while every column group adds into it or reads from it.
const TILE_ROWS: usize = 512;

// A reduction block is a whole number of tiles: a tile never straddles a
// block boundary.
const _: () = assert!(REDUCE_BLOCK_ROWS.is_multiple_of(TILE_ROWS));

/// Cells per tile of the decompression walk (32 KiB: L1), whole rows.
const DECODE_TILE_CELLS: usize = 4096;

/// Where a walk in ascending row tiles stands in an RLE group: run `run`
/// starts at row `start`. Each tile resumes where the last one stopped,
/// so a tiled walk reads every run once.
#[derive(Debug, Clone, Copy, Default)]
struct RunCursor {
    run: usize,
    start: usize,
}

impl RunCursor {
    /// Calls `f(from, to, value)` for each run's overlap `from..to` with
    /// rows `lo..hi`, ascending, and stops at the run holding row `hi`.
    fn walk(
        &mut self,
        runs: &[(f64, u32)],
        lo: usize,
        hi: usize,
        mut f: impl FnMut(usize, usize, f64),
    ) {
        while let Some(&(v, len)) = runs.get(self.run) {
            if self.start >= hi {
                break;
            }
            let end = self.start + len as usize;
            if end > lo {
                f(self.start.max(lo), end.min(hi), v);
            }
            if end > hi {
                break;
            }
            self.start = end;
            self.run += 1;
        }
    }
}

/// The DDC8 groups' dictionaries, each padded to 256 entries so that a
/// `u8` code indexes it without a bounds check; for phase 1 of a product
/// scaled by `v[c]`: `dict[k] * v[c]` is the very product `x * v[c]` a
/// dense cell contributes, so adding it adds the same bits.
struct Dicts {
    /// Index into `tables` per column, `usize::MAX` for other schemes.
    slot: Vec<usize>,
    tables: Vec<[f64; 256]>,
}

/// One DDC8 column: its table and its codes.
type Coded<'a> = (&'a [f64; 256], &'a [u8]);

/// Four consecutive DDC8 columns.
type Quad<'a> = [Coded<'a>; 4];

/// Most entries a dictionary may have for the AVX-512 twin to decode its
/// codes in registers: the table fills two `zmm` registers, which one
/// `vpermt2pd` indexes by a 4-bit code.
const LANE_DICT: usize = 16;

impl Dicts {
    fn new(groups: &[ColumnGroup], scale: Option<&[f64]>) -> Self {
        let mut slot = vec![usize::MAX; groups.len()];
        let mut tables = Vec::new();
        for (c, g) in groups.iter().enumerate() {
            if let ColumnGroup::Ddc8 { dict, .. } = g {
                let mut t = [0.0; 256];
                for (o, &x) in t.iter_mut().zip(dict) {
                    *o = scale.map_or(x, |v| x * v[c]);
                }
                slot[c] = tables.len();
                tables.push(t);
            }
        }
        Self { slot, tables }
    }

    /// Column `c`, when it is DDC8 with at most `max` dictionary entries.
    fn column<'a>(&'a self, groups: &'a [ColumnGroup], c: usize, max: usize) -> Option<Coded<'a>> {
        match &groups[c] {
            ColumnGroup::Ddc8 { dict, codes } if dict.len() <= max => {
                Some((&self.tables[self.slot[c]], codes))
            }
            _ => None,
        }
    }

    /// Columns `c..c + N`, when all `N` are below `end` and DDC8 with at
    /// most `max` dictionary entries.
    fn run<'a, const N: usize>(
        &'a self,
        groups: &'a [ColumnGroup],
        c: usize,
        end: usize,
        max: usize,
    ) -> Option<[Coded<'a>; N]> {
        if c + N > end {
            return None;
        }
        let run: [Option<Coded>; N] = std::array::from_fn(|i| self.column(groups, c + i, max));
        run.iter()
            .all(Option::is_some)
            .then(|| run.map(Option::unwrap))
    }

    /// Columns `c..c + 4`, when all four are DDC8 and below `end`.
    fn quad<'a>(&'a self, groups: &'a [ColumnGroup], c: usize, end: usize) -> Option<Quad<'a>> {
        self.run(groups, c, end, 256)
    }
}

/// The body that runs the column-group products. Both add the same terms
/// in the same order, so the choice never changes a bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// The scalar loops: every host, and the twin's oracle.
    Portable,
    /// The AVX-512 twin, on x86-64 hosts with `avx512f`.
    Avx512,
}

impl Body {
    /// The widest body this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            return Body::Avx512;
        }
        Body::Portable
    }
}

/// `q[r] *= w[r]`: phase 1's row weights, applied once each row's chain
/// is complete.
fn weigh<'a>(q: &mut [f64], w: Option<impl Iterator<Item = &'a f64>>) {
    if let Some(w) = w {
        for (qi, &wi) in q.iter_mut().zip(w) {
            *qi *= wi;
        }
    }
}

/// Phase 1 of a product on four DDC8 columns: adds `t0[x0]`, `t1[x1]`,
/// `t2[x2]` and `t3[x3]` to `q[r - lo]` over rows `lo..hi`, one add at a
/// time in column order — the four next terms of each row's c-ascending
/// chain.
fn add_quad(quad: Quad, lo: usize, hi: usize, q: &mut [f64]) {
    let [(t0, c0), (t1, c1), (t2, c2), (t3, c3)] = quad;
    let codes = c0[lo..hi]
        .iter()
        .zip(&c1[lo..hi])
        .zip(&c2[lo..hi])
        .zip(&c3[lo..hi]);
    for (o, (((&k0, &k1), &k2), &k3)) in q.iter_mut().zip(codes) {
        let mut a = *o;
        a += t0[k0 as usize];
        a += t1[k1 as usize];
        a += t2[k2 as usize];
        a += t3[k3 as usize];
        *o = a;
    }
}

/// Phase 2 of a product on four DDC8 columns: extends their chains `acc`
/// by `y[r - lo] * x[r]` over rows `lo..hi`, r ascending.
fn extend_quad(quad: Quad, y: &[f64], lo: usize, hi: usize, acc: &mut [f64; 4]) {
    let [(t0, c0), (t1, c1), (t2, c2), (t3, c3)] = quad;
    let codes = c0[lo..hi]
        .iter()
        .zip(&c1[lo..hi])
        .zip(&c2[lo..hi])
        .zip(&c3[lo..hi]);
    let [mut a0, mut a1, mut a2, mut a3] = *acc;
    for (&yr, (((&k0, &k1), &k2), &k3)) in y.iter().zip(codes) {
        a0 += yr * t0[k0 as usize];
        a1 += yr * t1[k1 as usize];
        a2 += yr * t2[k2 as usize];
        a3 += yr * t3[k3 as usize];
    }
    *acc = [a0, a1, a2, a3];
}

/// Col aggregate chains of four DDC8 columns: pushes `t0[x0]`, `t1[x1]`,
/// `t2[x2]` and `t3[x3]` into `acc[0..4]` over rows `lo..hi`, r
/// ascending — each column's own chain, the four advancing side by side.
fn push_quad<C: Chains>(quad: Quad, lo: usize, hi: usize, acc: &mut [C]) {
    let [(t0, c0), (t1, c1), (t2, c2), (t3, c3)] = quad;
    let codes = c0[lo..hi]
        .iter()
        .zip(&c1[lo..hi])
        .zip(&c2[lo..hi])
        .zip(&c3[lo..hi]);
    let (mut a0, mut a1, mut a2, mut a3) = (acc[0], acc[1], acc[2], acc[3]);
    for (((&k0, &k1), &k2), &k3) in codes {
        a0.push(t0[k0 as usize]);
        a1.push(t1[k1 as usize]);
        a2.push(t2[k2 as usize]);
        a3.push(t3[k3 as usize]);
    }
    acc[..4].copy_from_slice(&[a0, a1, a2, a3]);
}

/// The 8 doubles of `src` as one vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load8(src: &[f64]) -> core::arch::x86_64::__m512d {
    let src: &[f64; 8] = src.try_into().expect("8 doubles");
    // SAFETY: `src` holds the 8 doubles the load reads.
    unsafe { core::arch::x86_64::_mm512_loadu_pd(src.as_ptr()) }
}

/// Decodes 8 codes of at most [`LANE_DICT`] entries from the table whose
/// entries `0..8` are `lo` and `8..16` are `hi`: lane `i` is
/// `table[codes[i]]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn lookup(
    lo: core::arch::x86_64::__m512d,
    hi: core::arch::x86_64::__m512d,
    codes: &[u8],
) -> core::arch::x86_64::__m512d {
    use core::arch::x86_64::*;
    let codes = u64::from_le_bytes(codes.try_into().expect("8 codes"));
    let idx = _mm512_srlv_epi64(
        _mm512_set1_epi64(codes as i64),
        _mm512_setr_epi64(0, 8, 16, 24, 32, 40, 48, 56),
    );
    _mm512_permutex2var_pd(lo, idx, hi)
}

/// Phase 1 of the AVX-512 twin on the `C` columns `cols` and the rows
/// `at..at + q.len()`, a multiple of 8: adds the columns in turn, decoded
/// in registers, to each vector of 8 chains of `q`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn add_lanes<const C: usize>(cols: &[Coded; C], at: usize, q: &mut [f64]) {
    use core::arch::x86_64::*;
    let mut tables = [(_mm512_setzero_pd(), _mm512_setzero_pd()); C];
    for (slot, &(t, _)) in tables.iter_mut().zip(cols) {
        *slot = (load8(&t[..8]), load8(&t[8..16]));
    }
    let codes = cols.map(|(_, codes)| &codes[at..at + q.len()]);
    for (r, chains) in q.chunks_exact_mut(8).enumerate() {
        let mut lanes = load8(chains);
        for (&(lo, hi), codes) in tables.iter().zip(&codes) {
            lanes = _mm512_add_pd(lanes, lookup(lo, hi, &codes[8 * r..8 * r + 8]));
        }
        // SAFETY: `chains` holds the 8 doubles the store writes.
        unsafe { _mm512_storeu_pd(chains.as_mut_ptr(), lanes) };
    }
}

/// Transposes the 8x8 block whose row `i` is `x[i]`: lane `i` of the
/// result's vector `d` is lane `d` of `x[i]`. Moves bits only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose8(x: [core::arch::x86_64::__m512d; 8]) -> [core::arch::x86_64::__m512d; 8] {
    use core::arch::x86_64::*;
    // Pairs of rows interleaved: t[2p] holds lanes 0, 2, 4, 6 of rows
    // 2p and 2p + 1, t[2p + 1] lanes 1, 3, 5, 7.
    let t: [__m512d; 8] = std::array::from_fn(|i| {
        let (a, b) = (x[i & !1], x[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_pd(a, b)
        } else {
            _mm512_unpackhi_pd(a, b)
        }
    });
    // Then pairs of pairs, 128 bits at a time, then the 256-bit halves.
    let (even, odd) = (
        _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
        _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15),
    );
    let (low, high) = (
        _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
        _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
    );
    // u[4h + m]: rows 4h..4h + 4, lanes m' and m' + 4 with m' = [0, 2, 1, 3][m].
    let u: [__m512d; 8] = std::array::from_fn(|i| {
        let (h, m) = (i / 4, i % 4);
        let (a, b) = (t[4 * h + m / 2], t[4 * h + 2 + m / 2]);
        _mm512_permutex2var_pd(a, if m % 2 == 0 { even } else { odd }, b)
    });
    std::array::from_fn(|d| {
        let m = [0, 2, 1, 3][d % 4];
        _mm512_permutex2var_pd(u[m], if d < 4 { low } else { high }, u[4 + m])
    })
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

    /// Materializes the dense matrix, one row tile at a time: every group
    /// writes its rows of the tile, so each output line is filled while it
    /// is in L1.
    pub fn decompress(&self) -> DenseMatrix {
        let cols = self.cols();
        let mut out = DenseMatrix::zeros(self.rows, cols);
        if cols == 0 {
            return out;
        }
        let tile_rows = (DECODE_TILE_CELLS / cols).max(1);
        let mut cursors = vec![RunCursor::default(); cols];
        for (t, tile) in out.values_mut().chunks_mut(tile_rows * cols).enumerate() {
            let lo = t * tile_rows;
            let hi = lo + tile.len() / cols;
            for ((c, g), cursor) in self.groups.iter().enumerate().zip(&mut cursors) {
                g.decode_rows(lo, hi, cursor, &mut tile[c..], cols);
            }
        }
        out
    }

    /// Per-group parallel chunk size: columns per block sized so each
    /// block carries at least `PAR_MIN_WORK` row visits.
    fn group_chunk(&self) -> usize {
        let min_cols = (crate::kernels::PAR_MIN_WORK / self.rows.max(1)).max(1);
        exdra_par::chunk_len(self.cols(), min_cols)
    }

    /// [`crate::kernels::elementwise::unary`] on the column groups: the result stays
    /// compressed, with the same bits as the dense kernel's.
    pub fn unary(&self, op: UnaryOp) -> CompressedMatrix {
        self.map_cells(|v| op.apply(v))
    }

    /// [`crate::kernels::elementwise::scalar`] on the column groups: `X op s`, or
    /// `s op X` when `swap` is set. The result stays compressed.
    pub fn scalar(&self, op: BinaryOp, s: f64, swap: bool) -> CompressedMatrix {
        if swap {
            self.map_cells(|v| op.apply(s, v))
        } else {
            self.map_cells(|v| op.apply(v, s))
        }
    }

    /// [`reorg::replace`] on the column groups (`pattern` may be NaN).
    /// The result stays compressed.
    pub fn replace(&self, pattern: f64, replacement: f64) -> CompressedMatrix {
        self.map_cells(reorg::replace_cell(pattern, replacement))
    }

    /// Applies an element-wise function to every cell *without decoding*:
    /// only the distinct values of each column group are transformed, in
    /// O(distinct) per column, and the result stays compressed. The one
    /// path of [`Self::unary`], [`Self::scalar`] and [`Self::replace`].
    fn map_cells(&self, f: impl Fn(f64) -> f64 + Sync) -> CompressedMatrix {
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
    /// in the same order and the same 2048-row blocks, folded the same
    /// way (min/max column aggregates shortcut over distinct values,
    /// which a NaN-ignoring min or max cannot tell apart).
    pub fn aggregate(&self, op: AggOp, dir: AggDir) -> Result<DenseMatrix> {
        aggregates::run(self, op, dir)
    }

    /// Phase 1 of a product on the row tile `a..a + q.len()` and the
    /// columns `cols`: adds `x[r][c] * v[c]` into `q[r - a]` for c
    /// ascending, one term at a time, with no zero-skip — the dense
    /// kernels' per-row chain — on `body`.
    #[allow(clippy::too_many_arguments)]
    fn add_xv_tile(
        &self,
        body: Body,
        scaled: &Dicts,
        v: &[f64],
        a: usize,
        cols: Range<usize>,
        cursors: &mut [RunCursor],
        q: &mut [f64],
    ) {
        match body {
            // SAFETY: the twin runs only where `avx512f` is detected.
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 if avx512_available() => unsafe {
                self.add_xv_tile_avx512(scaled, v, a, cols, cursors, q)
            },
            _ => {
                let mut c = cols.start;
                while c < cols.end {
                    c += self.add_xv_step(scaled, v, a, c, cols.end, cursors, q);
                }
            }
        }
    }

    /// The portable step of [`Self::add_xv_tile`] at column `c` (of
    /// `..n`): four DDC8 columns add their pre-scaled `scaled` entries,
    /// any other group multiplies inline. Returns the columns it added.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn add_xv_step(
        &self,
        scaled: &Dicts,
        v: &[f64],
        a: usize,
        c: usize,
        n: usize,
        cursors: &mut [RunCursor],
        q: &mut [f64],
    ) -> usize {
        let b = a + q.len();
        if let Some(quad) = scaled.quad(&self.groups, c, n) {
            add_quad(quad, a, b, q);
            4
        } else {
            let s = v[c];
            self.groups[c].visit(a, b, &mut cursors[c], |d, x| q[d] += x * s);
            1
        }
    }

    /// AVX-512 twin of [`Self::add_xv_tile`]. Each run of columns whose
    /// DDC8 dictionaries have at most [`LANE_DICT`] entries adds its
    /// pre-scaled tables, decoded in registers, to 8 rows per vector: lane
    /// `i` is row `r + i`'s chain, extended column by column in ascending
    /// order by a lane-wise `vaddpd` — the portable body's adds. Every
    /// other column takes the portable step at its own place in that
    /// order; a run's rows past the last whole vector add its columns one
    /// scalar term at a time.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn add_xv_tile_avx512(
        &self,
        scaled: &Dicts,
        v: &[f64],
        a: usize,
        cols: Range<usize>,
        cursors: &mut [RunCursor],
        q: &mut [f64],
    ) {
        let len = q.len();
        let mut run = Vec::new();
        let mut c = cols.start;
        while c < cols.end {
            run.clear();
            run.extend((c..cols.end).map_while(|c| scaled.column(&self.groups, c, LANE_DICT)));
            if run.is_empty() {
                c += self.add_xv_step(scaled, v, a, c, cols.end, cursors, q);
                continue;
            }
            let whole = len - len % 8;
            let mut quads = run.chunks_exact(4);
            for quad in &mut quads {
                add_lanes::<4>(quad.try_into().expect("four columns"), a, &mut q[..whole]);
            }
            for &one in quads.remainder() {
                add_lanes::<1>(&[one], a, &mut q[..whole]);
            }
            for (d, o) in q.iter_mut().enumerate().skip(whole) {
                for &(t, codes) in &run {
                    *o += t[codes[a + d] as usize];
                }
            }
            c += run.len();
        }
    }

    /// Phase 2 of a product on the row tile `rows` for the groups `g0..`
    /// that `out` (`k` cells a group) covers: extends each group's `k`
    /// independent chains `out[c][j] += y[r][j] * x[r][c]`, r ascending —
    /// the dense row sweep's per-cell chain — on `body`. `yt` holds the
    /// tile's rows of `y` column by column.
    #[allow(clippy::too_many_arguments)]
    fn extend_xty_tile(
        &self,
        body: Body,
        dicts: &Dicts,
        yt: &[f64],
        rows: Range<usize>,
        g0: usize,
        cursors: &mut [RunCursor],
        out: &mut [f64],
    ) {
        match body {
            // SAFETY: the twin runs only where `avx512f` is detected.
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 if avx512_available() => unsafe {
                self.extend_xty_tile_avx512(dicts, yt, rows, g0, cursors, out)
            },
            _ => {
                let end = g0 + out.len() / (yt.len() / rows.len());
                let mut c = g0;
                while c < end {
                    c += self.extend_xty_step(dicts, yt, rows.clone(), g0, c, cursors, out);
                }
            }
        }
    }

    /// The portable step of [`Self::extend_xty_tile`] at group `c`: four
    /// DDC8 groups side by side, or one group of any other kind. Returns
    /// the groups it extended.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn extend_xty_step(
        &self,
        dicts: &Dicts,
        yt: &[f64],
        rows: Range<usize>,
        g0: usize,
        c: usize,
        cursors: &mut [RunCursor],
        out: &mut [f64],
    ) -> usize {
        let (a, b, len) = (rows.start, rows.end, rows.len());
        let k = yt.len() / len;
        let cell = |i: usize, j: usize| (c - g0 + i) * k + j;
        if let Some(quad) = dicts.quad(&self.groups, c, g0 + out.len() / k) {
            for (j, yj) in yt.chunks_exact(len).enumerate() {
                let mut acc = [0, 1, 2, 3].map(|i| out[cell(i, j)]);
                extend_quad(quad, yj, a, b, &mut acc);
                for (i, v) in acc.into_iter().enumerate() {
                    out[cell(i, j)] = v;
                }
            }
            4
        } else {
            // Every chain of the group walks the tile from the same run
            // cursor.
            let start = cursors[c];
            for (j, yj) in yt.chunks_exact(len).enumerate() {
                cursors[c] = start;
                self.groups[c].extend_chain(yj, a, b, &mut cursors[c], &mut out[cell(0, j)]);
            }
            1
        }
    }

    /// AVX-512 twin of [`Self::extend_xty_tile`]. Each run of 8 groups
    /// whose DDC8 dictionaries have at most [`LANE_DICT`] entries is
    /// decoded in registers 8 rows at a time (one vector per group, lanes
    /// are rows) and transposed, so that lane `i` of row `r`'s vector is
    /// `x[r][c + i]`. For every column `j` of `y`, a vector of the 8
    /// groups' chains then adds `y[r][j] * x[r][c + i]` row by row,
    /// ascending — the portable body's products and adds, lane-wise, with
    /// one decode shared by all `k` columns. Every other group takes the
    /// portable step, and a run's rows past the last whole vector extend
    /// the same chains on the scalar body.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn extend_xty_tile_avx512(
        &self,
        dicts: &Dicts,
        yt: &[f64],
        rows: Range<usize>,
        g0: usize,
        cursors: &mut [RunCursor],
        out: &mut [f64],
    ) {
        use core::arch::x86_64::*;
        let (a, b, len) = (rows.start, rows.end, rows.len());
        let k = yt.len() / len;
        let end = g0 + out.len() / k;
        let whole = len - len % 8;
        let mut acc = vec![_mm512_setzero_pd(); k];
        let mut c = g0;
        while c < end {
            let Some(run) = dicts.run::<8>(&self.groups, c, end, LANE_DICT) else {
                c += self.extend_xty_step(dicts, yt, rows.clone(), g0, c, cursors, out);
                continue;
            };
            let cell = |i: usize, j: usize| (c - g0 + i) * k + j;
            let mut tables = [(_mm512_setzero_pd(), _mm512_setzero_pd()); 8];
            for (slot, &(t, _)) in tables.iter_mut().zip(&run) {
                *slot = (load8(&t[..8]), load8(&t[8..16]));
            }
            for (j, lanes) in acc.iter_mut().enumerate() {
                *lanes = load8(&std::array::from_fn::<f64, 8, _>(|i| out[cell(i, j)]));
            }
            for r in (0..whole).step_by(8) {
                let mut x = [_mm512_setzero_pd(); 8];
                for (xi, (&(lo, hi), &(_, codes))) in x.iter_mut().zip(tables.iter().zip(&run)) {
                    *xi = lookup(lo, hi, &codes[a + r..a + r + 8]);
                }
                let xt = transpose8(x);
                for (lanes, yj) in acc.iter_mut().zip(yt.chunks_exact(len)) {
                    let mut s = *lanes;
                    for (&yr, &xr) in yj[r..r + 8].iter().zip(&xt) {
                        s = _mm512_add_pd(s, _mm512_mul_pd(_mm512_set1_pd(yr), xr));
                    }
                    *lanes = s;
                }
            }
            for (j, (&lanes, yj)) in acc.iter().zip(yt.chunks_exact(len)).enumerate() {
                let mut chains = [0.0; 8];
                // SAFETY: `chains` holds the 8 doubles the store writes.
                unsafe { _mm512_storeu_pd(chains.as_mut_ptr(), lanes) };
                for (half, quad) in chains.chunks_exact_mut(4).zip(run.chunks_exact(4)) {
                    let quad: Quad = quad.try_into().expect("four groups");
                    let half: &mut [f64; 4] = half.try_into().expect("four chains");
                    extend_quad(quad, &yj[whole..], a + whole, b, half);
                }
                for (i, &v) in chains.iter().enumerate() {
                    out[cell(i, j)] = v;
                }
            }
            c += 8;
        }
    }

    /// Phase 1 over all rows, row chunks fanned out over the pool: `X v`,
    /// each row's chain then times `w[r]` when given. A row's chain runs
    /// over the columns — the depth of `X v` — so more than
    /// [`REDUCE_BLOCK_ROWS`] columns fold block partials like the dense
    /// kernel. Chunks are whole vectors of 8 rows, so a row takes the same
    /// instructions at every width, down to the payload of a NaN.
    fn xv(&self, body: Body, v: &[f64], w: Option<&[f64]>) -> Vec<f64> {
        let scaled = Dicts::new(&self.groups, Some(v));
        let mut q = vec![0.0; self.rows];
        let chunk = exdra_par::chunk_len(self.rows, par_floor(self.cols())).next_multiple_of(8);
        exdra_par::par_chunks_mut(&mut q, chunk, |_, lo, seg| {
            let mut cursors = vec![RunCursor::default(); self.cols()];
            for (t, qt) in seg.chunks_mut(TILE_ROWS).enumerate() {
                let a = lo + t * TILE_ROWS;
                fold_blocks_into(self.cols(), qt, |cols, acc| {
                    self.add_xv_tile(body, &scaled, v, a, cols, &mut cursors, acc)
                });
                weigh(qt, w.map(|w| w[a..].iter()));
            }
        });
        q
    }

    /// Phase 2 over all groups: `t(X) y` for a row-major `rows x k` `y`, as
    /// a `cols x k` matrix, in the dense row sweep's order: up to
    /// [`TN_BLOCK_CELLS`] cells the row blocks fan out over the pool and
    /// their partials fold in order; a wider output splits into runs of
    /// groups, each walking every row block in turn.
    fn xty(&self, body: Body, y: &[f64], k: usize) -> DenseMatrix {
        let cols = self.cols();
        let mut out = DenseMatrix::zeros(cols, k);
        if k == 0 || cols == 0 || self.rows == 0 {
            return out;
        }
        let dicts = Dicts::new(&self.groups, None);
        // Extends the chains of groups `g0..` (`k` cells a group in `acc`)
        // over `rows`, tile by tile.
        let sweep = |rows: Range<usize>, g0: usize, acc: &mut [f64]| {
            let mut cursors = vec![RunCursor::default(); cols];
            let mut ycols = Vec::new();
            for a in rows.clone().step_by(TILE_ROWS) {
                let b = (a + TILE_ROWS).min(rows.end);
                let yt = if k == 1 {
                    &y[a..b]
                } else {
                    // Lay the tile out column by column.
                    let len = b - a;
                    ycols.resize(len * k, 0.0);
                    for (d, row) in y[a * k..b * k].chunks_exact(k).enumerate() {
                        for (j, &v) in row.iter().enumerate() {
                            ycols[j * len + d] = v;
                        }
                    }
                    &ycols[..]
                };
                self.extend_xty_tile(body, &dicts, yt, a..b, g0, &mut cursors, acc);
            }
        };
        if cols * k <= TN_BLOCK_CELLS {
            let fold = fold_row_blocks(
                self.rows,
                cols * k,
                |rows| {
                    let mut part = vec![0.0f64; cols * k];
                    sweep(rows, 0, &mut part);
                    part
                },
                add_into,
            );
            out.values_mut().copy_from_slice(&fold.expect("rows > 0"));
        } else {
            let run = (TN_BLOCK_CELLS / k / 4).max(1) * 4;
            exdra_par::par_chunks_mut(out.values_mut(), run * k, |_, cell0, ochunk| {
                let step = |rows, acc: &mut [f64]| sweep(rows, cell0 / k, acc);
                fold_blocks_into(self.rows, ochunk, step);
            });
        }
        out
    }

    /// Matrix-vector product `self * v` executed directly on the
    /// compressed representation: per row the dense matvec fast path's
    /// k-ascending chain, bit for bit, reading 1-2 byte codes instead of
    /// 8-byte cells (phase 1 of [`CompressedMatrix::mmchain`]).
    pub fn matvec(&self, v: &DenseMatrix) -> Result<DenseMatrix> {
        if v.rows() != self.cols() || v.cols() != 1 {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_matvec",
                lhs: (self.rows, self.cols()),
                rhs: v.shape(),
            });
        }
        DenseMatrix::new(self.rows, 1, self.xv(Body::detect(), v.values(), None))
    }

    /// `t(self) %*% w` on the compressed representation, returned as the
    /// `1 x cols` row vector `t(w) %*% self`: [`CompressedMatrix::t_matmul`]
    /// with one column.
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
    /// side: per group `k` independent r-ascending chains `acc += y[r][j] *
    /// x` per row block, the blocks folded in order (phase 2 of
    /// [`CompressedMatrix::mmchain`]) — bitwise the dense
    /// `matmul_tn(&self.decompress(), y)`, without decompressing.
    pub fn t_matmul(&self, y: &DenseMatrix) -> Result<DenseMatrix> {
        if y.rows() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_t_matmul",
                lhs: (self.cols(), self.rows),
                rhs: y.shape(),
            });
        }
        Ok(self.xty(Body::detect(), y.values(), y.cols()))
    }

    /// Fused chain `Xᵀ (w ⊙ (X V))` on the compressed representation for a
    /// `cols x k` `V` and an optional `rows x k` `w`, phase for phase the
    /// dense `mmchain` kernel: phase 1 builds each row's dot c-ascending
    /// then applies `w`; phase 2 reduces every output cell r-ascending
    /// with `q[r][j]` as the left operand, its row blocks fanned out and
    /// folded in order. Up to [`TN_BLOCK_CELLS`] output cells the phases
    /// alternate tile by tile ([`Self::mmchain_tiles`]); a wider output
    /// runs them one after the other ([`Self::mmchain_phases`]), since its
    /// phase 2 walks the row blocks once per run of groups. Bitwise
    /// identical to decompress-then-`mmchain` at every pool width.
    pub fn mmchain(&self, v: &DenseMatrix, w: Option<&DenseMatrix>) -> Result<DenseMatrix> {
        let k = v.cols();
        if v.rows() != self.cols() {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_mmchain",
                lhs: (self.rows, self.cols()),
                rhs: v.shape(),
            });
        }
        if let Some(w) = w.filter(|w| w.shape() != (self.rows, k)) {
            return Err(MatrixError::DimensionMismatch {
                op: "compressed_mmchain",
                lhs: (self.rows, self.cols()),
                rhs: w.shape(),
            });
        }
        let body = Body::detect();
        Ok(if self.rows == 0 || self.cols() * k == 0 {
            DenseMatrix::zeros(self.cols(), k)
        } else if self.cols() * k <= TN_BLOCK_CELLS {
            self.mmchain_tiles(body, v, w)
        } else {
            self.mmchain_phases(body, v, w)
        })
    }

    /// [`Self::mmchain`] as its two phases: one `xv` per column of `V`,
    /// then one `xty` for all `k` columns.
    fn mmchain_phases(&self, body: Body, v: &DenseMatrix, w: Option<&DenseMatrix>) -> DenseMatrix {
        let k = v.cols();
        let column = |m: &DenseMatrix, j: usize| -> Vec<f64> {
            m.values().iter().skip(j).step_by(k).copied().collect()
        };
        let mut q = vec![0.0; self.rows * k];
        for j in 0..k {
            let wj = w.map(|w| column(w, j));
            let qj = self.xv(body, &column(v, j), wj.as_deref());
            for (i, val) in qj.into_iter().enumerate() {
                q[i * k + j] = val;
            }
        }
        self.xty(body, &q, k)
    }

    /// [`Self::mmchain`] in one pass over the row blocks: each tile's phase
    /// 1 runs into a tile of `q`, and its phase 2 follows at once, reading
    /// the codes phase 1 has just brought into cache. The chains, blocks
    /// and folds are the two phases' own; no row-long vector is allocated.
    fn mmchain_tiles(&self, body: Body, v: &DenseMatrix, w: Option<&DenseMatrix>) -> DenseMatrix {
        let (cols, k) = (self.cols(), v.cols());
        // Row `j` is column `j` of `V`.
        let vt = reorg::transpose(v);
        let scaled: Vec<Dicts> = vt
            .values()
            .chunks_exact(cols)
            .map(|vj| Dicts::new(&self.groups, Some(vj)))
            .collect();
        let dicts = Dicts::new(&self.groups, None);
        let block = |rows: Range<usize>| {
            let mut part = vec![0.0f64; cols * k];
            let mut phase1 = vec![vec![RunCursor::default(); cols]; k];
            let mut phase2 = vec![RunCursor::default(); cols];
            let mut qt = Vec::new();
            for a in rows.clone().step_by(TILE_ROWS) {
                let b = (a + TILE_ROWS).min(rows.end);
                // The tile's rows of `q`, column by column.
                qt.clear();
                qt.resize((b - a) * k, 0.0);
                for (j, qj) in qt.chunks_exact_mut(b - a).enumerate() {
                    let vj = &vt.values()[j * cols..(j + 1) * cols];
                    let cursors = &mut phase1[j];
                    fold_blocks_into(cols, qj, |cc, acc| {
                        self.add_xv_tile(body, &scaled[j], vj, a, cc, cursors, acc)
                    });
                    weigh(qj, w.map(|w| w.values()[a * k + j..].iter().step_by(k)));
                }
                self.extend_xty_tile(body, &dicts, &qt, a..b, 0, &mut phase2, &mut part);
            }
            part
        };
        let fold = fold_row_blocks(self.rows, 2 * cols * k, block, add_into);
        DenseMatrix::new(cols, k, fold.expect("rows > 0")).expect("one cell per group and column")
    }

    /// Col aggregate chains of every group over `rows`, r ascending: four
    /// DDC8 groups side by side ([`push_quad`]), every other group on its
    /// own.
    fn push_cols<C: Chains>(&self, dicts: &Dicts, rows: Range<usize>, acc: &mut [C]) {
        let end = self.cols();
        let mut c = 0;
        while c < end {
            if let Some(quad) = dicts.quad(&self.groups, c, end) {
                push_quad(quad, rows.start, rows.end, &mut acc[c..]);
                c += 4;
            } else {
                let a = &mut acc[c];
                let mut cursor = RunCursor::default();
                self.groups[c].visit(rows.start, rows.end, &mut cursor, |_, v| a.push(v));
                c += 1;
            }
        }
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
                // Row-major cell order, the dense Full arm's chain per row
                // block: a few rows at a time, decoded group by group into
                // a row-major tile of about one parallel region's cells.
                let tile_rows = par_floor(c).min(REDUCE_BLOCK_ROWS);
                let block_chain = |rows: Range<usize>| {
                    let mut tile = Vec::with_capacity(tile_rows.min(rows.len()) * c);
                    let mut cursors = vec![RunCursor::default(); c];
                    let mut acc = C::START;
                    for lo in rows.clone().step_by(tile_rows) {
                        let hi = (lo + tile_rows).min(rows.end);
                        tile.resize((hi - lo) * c, 0.0);
                        for ((j, g), cursor) in self.groups.iter().enumerate().zip(&mut cursors) {
                            g.decode_rows(lo, hi, cursor, &mut tile[j..], c);
                        }
                        tile.iter().for_each(|&v| acc.push(v));
                    }
                    acc
                };
                let acc = fold_row_blocks(r, c, block_chain, C::merge).unwrap_or(C::START);
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
                        let mut cursor = RunCursor::default();
                        g.visit(lo, lo + chunk.len(), &mut cursor, |d, v| acc[d].push(v));
                    }
                    for (o, a) in chunk.iter_mut().zip(acc) {
                        *o = a.finish(op, c as f64);
                    }
                });
                out
            }
            AggDir::Col if matches!(op, AggOp::Min | AggOp::Max) => {
                // Min/max scan each distinct value once, in order of first
                // occurrence: a repeated value cannot move a NaN-ignoring
                // min or max.
                let mut out = DenseMatrix::zeros(1, c);
                let chunk = self.group_chunk();
                exdra_par::par_chunks_mut(out.values_mut(), chunk, |_, c0, ochunk| {
                    for (g, o) in self.groups[c0..].iter().zip(ochunk) {
                        let mut acc = C::START;
                        g.for_each_distinct(|v| acc.push(v));
                        *o = acc.finish(op, r as f64);
                    }
                });
                out
            }
            AggDir::Col => {
                // Sum-based ops: the dense Col arm's chain per row block,
                // four DDC8 groups side by side.
                let dicts = Dicts::new(&self.groups, None);
                let chains = col_chains::<C>(r, c, |rows, acc| self.push_cols(&dicts, rows, acc));
                let cells = chains.into_iter().map(|a| a.finish(op, r as f64)).collect();
                DenseMatrix::new(1, c, cells).expect("one cell per column")
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
    fn row_blocks_of_phase_two_are_bitwise_serial() {
        use crate::kernels::matmul::matmul_tn;
        // 100k rows and 9 columns of `y`: 49 row blocks fanned out, each
        // walking a four-DDC8 sweep and its tail.
        let rows = 100_000;
        let noise = rand_matrix(rows, 1, -1.0, 1.0, 3);
        let mut d = DenseMatrix::zeros(rows, 13);
        for r in 0..rows {
            for c in 0..13 {
                let v = match c {
                    0..=7 | 12 => ((r * (c + 1)) % 5) as f64 - 2.0,
                    8 => noise.get(r, 0),
                    _ => (r / 997 % 3) as f64,
                };
                d.set(r, c, v);
            }
        }
        let c = CompressedMatrix::compress(&d);
        let y = rand_matrix(rows, 9, -1.0, 1.0, 4);
        let want = matmul_tn(&d, &y).unwrap();
        for threads in [1, 2] {
            let got = exdra_par::with_threads(threads, || c.t_matmul(&y).unwrap());
            assert!(same_bits(&got, &want), "width {threads}");
        }
    }

    /// 23 groups over `rows`: DDC8 dictionaries of 1, 2, 16 and 17
    /// entries in runs of 9, 8 and 3 broken by RLE, UC and the 17-entry
    /// group. Each row has at most one special cell — a NaN with its
    /// column's payload, ±Inf, or -0.0 — and each column one kind of
    /// special, so no chain has two NaN sources, or Inf and -Inf, when
    /// `y` is positive: every NaN's payload must come through.
    fn twin_matrix(rows: usize) -> CompressedMatrix {
        let sizes = [
            1, 2, 16, 1, 2, 16, 16, 2, 1, 0, 16, 2, 1, 16, 16, 2, 16, 1, 17, 0, 16, 2, 16,
        ];
        let cols = sizes.len();
        let noise = rand_matrix(rows, cols + 1, -1.0, 1.0, 41);
        let special = |c: usize| {
            let nan = f64::from_bits(0x7ff8_0000_0000_0000 | (c as u64 + 1));
            [nan, f64::INFINITY, f64::NEG_INFINITY, -0.0][c % 4]
        };
        let groups = sizes
            .iter()
            .enumerate()
            .map(|(c, &size)| match (size, c) {
                (0, 9) => ColumnGroup::Rle {
                    runs: (0..rows.div_ceil(97))
                        .map(|i| (noise.get(i, c), (97).min(rows - 97 * i) as u32))
                        .collect(),
                },
                (0, _) => ColumnGroup::Uc {
                    values: (0..rows).map(|r| noise.get(r, c)).collect(),
                },
                _ => {
                    let mut dict: Vec<f64> = (0..size).map(|i| noise.get(i, cols) * 4.0).collect();
                    dict[0] = [-0.0, 0.0, dict[0]][c % 3];
                    if size > 1 {
                        dict[size - 1] = special(c);
                    }
                    let codes = (0..rows)
                        .map(|r| match size {
                            1 => 0,
                            _ if (r * 5) % cols == c => size - 1,
                            _ => (r * 7 + r / 3 + c) % (size - 1),
                        } as u8)
                        .collect();
                    ColumnGroup::Ddc8 { dict, codes }
                }
            })
            .collect();
        CompressedMatrix { rows, groups }
    }

    #[test]
    fn product_twins_are_bitwise_equal() {
        use crate::kernels::matmul::{matmul, matmul_tn};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // One block, off the 8-row vector; two whole blocks and a partial
        // one of 4 rows; three whole blocks and a partial one of 11.
        for rows in [37, 4100, 6155] {
            let c = twin_matrix(rows);
            let d = c.decompress();
            let v = rand_matrix(c.cols(), 1, -1.0, 1.0, 42);
            let w = rand_matrix(rows, 1, 0.0, 1.0, 43);
            // The portable body is the dense kernels' chain.
            let want_xv = c.xv(Body::Portable, v.values(), None);
            assert_eq!(bits(&want_xv), bits(matmul(&d, &v).unwrap().values()));
            assert_eq!(bits(&want_xv), bits(c.matvec(&v).unwrap().values()));
            for k in [1, 3] {
                let y = rand_matrix(rows, k, 0.0, 1.0, 44 + k as u64);
                let want = matmul_tn(&d, &y).unwrap();
                assert!(same_bits(&c.xty(Body::Portable, y.values(), k), &want));
                assert!(
                    same_bits(&c.t_matmul(&y).unwrap(), &want),
                    "{rows} rows, k {k}"
                );
                #[cfg(target_arch = "x86_64")]
                if avx512_available() {
                    for width in [1, 2] {
                        let got =
                            exdra_par::with_threads(width, || c.xty(Body::Avx512, y.values(), k));
                        assert!(same_bits(&got, &want), "avx512 xty, {rows} rows, k {k}");
                    }
                }
            }
            for weights in [None, Some(w.values())] {
                let want = c.xv(Body::Portable, v.values(), weights);
                #[cfg(target_arch = "x86_64")]
                if avx512_available() {
                    let got = c.xv(Body::Avx512, v.values(), weights);
                    assert_eq!(bits(&got), bits(&want), "avx512 xv, {rows} rows");
                }
            }
            // One pass of tiles is the two phases, on either body.
            for (k, body) in [
                (1, Body::Portable),
                (3, Body::Portable),
                (1, Body::detect()),
                (3, Body::detect()),
            ] {
                let v = rand_matrix(c.cols(), k, -1.0, 1.0, 46);
                let w = rand_matrix(rows, k, 0.0, 1.0, 47);
                for weights in [None, Some(&w)] {
                    let want = c.mmchain_phases(body, &v, weights);
                    for width in [1, 2] {
                        let got =
                            exdra_par::with_threads(width, || c.mmchain_tiles(body, &v, weights));
                        assert!(
                            same_bits(&got, &want),
                            "{body:?} mmchain, {rows} rows, k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn elementwise_ops_stay_compressed_and_are_their_dense_kernels() {
        use crate::kernels::elementwise::{scalar, unary};
        let mut d = mixed_matrix(120);
        for r in (0..120).step_by(7) {
            d.set(r, 0, f64::NAN);
        }
        let c = CompressedMatrix::compress(&d);
        // Structure preserved: same schemes, no decode.
        let schemes = |c: &CompressedMatrix| c.plan().iter().map(|p| p.scheme).collect::<Vec<_>>();
        assert_eq!(schemes(&c.scalar(BinaryOp::Mul, 2.0, false)), schemes(&c));
        for op in [UnaryOp::Abs, UnaryOp::Sqrt, UnaryOp::IsNa, UnaryOp::Sign] {
            assert!(same_bits(&c.unary(op).decompress(), &unary(&d, op)));
        }
        for (op, s) in [
            (BinaryOp::Sub, 1.5),
            (BinaryOp::Div, 3.0),
            (BinaryOp::Pow, 2.0),
        ] {
            for swap in [false, true] {
                let got = c.scalar(op, s, swap).decompress();
                assert!(
                    same_bits(&got, &scalar(&d, op, s, swap)),
                    "{op:?} swap {swap}"
                );
            }
        }
        // A NaN pattern matches every NaN cell; -0.0 matches 0.0.
        for (pattern, replacement) in [(f64::NAN, -1.0), (7.0, 0.5), (-0.0, 9.0)] {
            let got = c.replace(pattern, replacement).decompress();
            assert!(same_bits(&got, &reorg::replace(&d, pattern, replacement)));
        }
        assert!(c
            .replace(f64::NAN, 0.0)
            .decompress()
            .values()
            .iter()
            .all(|v| !v.is_nan()));
    }
}
