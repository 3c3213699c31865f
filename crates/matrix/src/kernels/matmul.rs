//! Matrix multiplication kernels: `mm`, `tsmm` (transpose-self), and
//! `mmchain` (the fused `Xᵀ (w ⊙ (X v))` pattern used by LM and MLogReg).
//!
//! The general kernel is a cache- and register-blocked GEMM (DESIGN.md
//! §4k): `lhs` micro-panels and `rhs` column panels are packed into
//! contiguous buffers, tiled over `k` in [`KC`]-deep slabs, and reduced by
//! a fully-unrolled [`MR`]`x`[`NR`] register micro-tile (a ragged edge
//! tile is a full tile on zero-padded lanes). Every output cell follows
//! the one reduction order (DESIGN.md §4f): its `a*b` terms are added
//! one at a time, k ascending, in blocks of [`REDUCE_BLOCK_ROWS`] from
//! 0.0, and the block partials fold in ascending order — blocking changes
//! *where* the operands come from, never the order they are added — so
//! the result is bitwise identical to [`matmul_naive`] at every thread
//! count. `t(A) %*% B`, `tsmm` and `mmchain` are row sweeps over the
//! shared row index instead, with the same per-cell order; their row
//! blocks are the parallel unit.
//!
//! The hot bodies are compiled twice: once for the portable baseline and
//! once with AVX2 enabled (plus hand-vectorized AVX-512 twins of the
//! GEMM micro-tile and of the row sweep's register tile), selected by
//! runtime CPU detection. The wide paths perform the exact
//! same lane-wise multiplies and adds — no fused multiply-add is ever
//! emitted — so every dispatch target rounds identically; the proptest
//! oracle suite pins all of them to `matmul_naive` bit for bit.

// Parallel-array index loops are intentional in the hot kernels below:
// iterator zips over 3+ arrays obscure the access pattern.
#![allow(clippy::needless_range_loop)]

use std::ops::Range;

#[cfg(target_arch = "x86_64")]
use super::avx512_available;
use super::{
    add_into, fold_blocks_into, fold_row_blocks, par_floor, row_blocks, REDUCE_BLOCK_ROWS,
    TN_BLOCK_CELLS,
};
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Rows of the register micro-tile (unroll factor in the M direction).
pub const MR: usize = 4;
/// Columns of the register micro-tile (unroll factor in the N direction):
/// one AVX-512 lane group, or two AVX2 lane groups, per tile row. The
/// `MR x NR` accumulator gives eight independent AVX2 add chains, enough
/// to cover the `vaddpd` latency that a 4-wide tile stalls on.
pub const NR: usize = 8;
/// Depth of one packed k-slab: a [`NR`]-wide rhs panel is `KC * NR`
/// doubles (16 KiB) and stays L1-resident while every micro-tile of the
/// row block reduces against it.
pub const KC: usize = 256;

// A reduction block is a whole number of slabs, so a slab never straddles
// a block boundary.
const _: () = assert!(REDUCE_BLOCK_ROWS.is_multiple_of(KC));

/// The fully-unrolled `MR x NR` micro-kernel: `acc[i][j] += a[i] * b[j]`
/// for each of the `kc` packed depth steps. Terms are added one at a
/// time in t-ascending order, so each cell's accumulation chain is
/// exactly the k-ascending chain of the naive kernel. Dispatches to a
/// hand-vectorized twin when the CPU allows; all twins perform the same
/// lane-wise IEEE-754 multiplies and adds, so the choice never changes a
/// single output bit.
#[inline(always)]
fn micro_tile(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: each call is guarded by its runtime feature
        // detection; panel bounds are asserted inside the twins.
        if avx512_available() {
            unsafe { micro_tile_avx512(kc, ap, bp, acc) };
            return;
        }
        if avx2_available() {
            unsafe { micro_tile_avx2(kc, ap, bp, acc) };
            return;
        }
    }
    micro_tile_scalar(kc, ap, bp, acc);
}

/// Portable body of [`micro_tile`]: accumulates in a by-value copy so
/// the tile lives in registers for the whole depth loop instead of
/// round-tripping through the stack.
#[inline(always)]
fn micro_tile_scalar(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    let mut c = *acc;
    let panels = ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc);
    for (a, b) in panels {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                c[i][j] += ai * b[j];
            }
        }
    }
    *acc = c;
}

// The vector twins hard-code two 256-bit (one 512-bit) lane groups per
// tile row.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(MR == 4 && NR == 8, "vector micro-tiles assume a 4x8 tile");

/// AVX2 twin of [`micro_tile`]: the same 32 `acc[i][j] += a[i] * b[j]`
/// updates per depth step, issued as broadcast/`vmulpd`/`vaddpd` triples
/// over two 4-lane groups per tile row. Multiply and add are lane-wise
/// IEEE-754 operations — lane `j` computes exactly the scalar
/// `acc[i][j] + a[i] * b[j]` with the same rounding, and no fused
/// multiply-add is ever emitted — so the twin is bitwise identical to
/// [`micro_tile_scalar`] by construction (and the proptest oracle suite
/// pins it to `matmul_naive`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_tile_avx2(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    use core::arch::x86_64::*;
    assert!(
        ap.len() >= kc * MR && bp.len() >= kc * NR,
        "packed panel underflow"
    );
    // SAFETY (for the raw loads below): each row of `acc` is NR = 8
    // contiguous doubles, and every `ap`/`bp` offset stays inside the
    // panel lengths asserted above.
    let mut c00 = _mm256_loadu_pd(acc[0].as_ptr());
    let mut c01 = _mm256_loadu_pd(acc[0].as_ptr().add(4));
    let mut c10 = _mm256_loadu_pd(acc[1].as_ptr());
    let mut c11 = _mm256_loadu_pd(acc[1].as_ptr().add(4));
    let mut c20 = _mm256_loadu_pd(acc[2].as_ptr());
    let mut c21 = _mm256_loadu_pd(acc[2].as_ptr().add(4));
    let mut c30 = _mm256_loadu_pd(acc[3].as_ptr());
    let mut c31 = _mm256_loadu_pd(acc[3].as_ptr().add(4));
    for t in 0..kc {
        let b0 = _mm256_loadu_pd(bp.as_ptr().add(t * NR));
        let b1 = _mm256_loadu_pd(bp.as_ptr().add(t * NR + 4));
        let a = ap.as_ptr().add(t * MR);
        let a0 = _mm256_set1_pd(*a);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_set1_pd(*a.add(1));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_set1_pd(*a.add(2));
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_set1_pd(*a.add(3));
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
    }
    _mm256_storeu_pd(acc[0].as_mut_ptr(), c00);
    _mm256_storeu_pd(acc[0].as_mut_ptr().add(4), c01);
    _mm256_storeu_pd(acc[1].as_mut_ptr(), c10);
    _mm256_storeu_pd(acc[1].as_mut_ptr().add(4), c11);
    _mm256_storeu_pd(acc[2].as_mut_ptr(), c20);
    _mm256_storeu_pd(acc[2].as_mut_ptr().add(4), c21);
    _mm256_storeu_pd(acc[3].as_mut_ptr(), c30);
    _mm256_storeu_pd(acc[3].as_mut_ptr().add(4), c31);
}

/// AVX-512 twin of [`micro_tile`]: one 8-lane group per tile row, four
/// broadcast/`vmulpd`/`vaddpd` triples per depth step. Same lane-wise
/// rounding argument as [`micro_tile_avx2`] — no FMA, no reassociation —
/// so it too is bitwise identical to the scalar body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_tile_avx512(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    use core::arch::x86_64::*;
    assert!(
        ap.len() >= kc * MR && bp.len() >= kc * NR,
        "packed panel underflow"
    );
    // SAFETY: as in [`micro_tile_avx2`] — NR = 8 doubles per `acc` row,
    // offsets bounded by the assert above.
    let mut c0 = _mm512_loadu_pd(acc[0].as_ptr());
    let mut c1 = _mm512_loadu_pd(acc[1].as_ptr());
    let mut c2 = _mm512_loadu_pd(acc[2].as_ptr());
    let mut c3 = _mm512_loadu_pd(acc[3].as_ptr());
    for t in 0..kc {
        let b = _mm512_loadu_pd(bp.as_ptr().add(t * NR));
        let a = ap.as_ptr().add(t * MR);
        c0 = _mm512_add_pd(c0, _mm512_mul_pd(_mm512_set1_pd(*a), b));
        c1 = _mm512_add_pd(c1, _mm512_mul_pd(_mm512_set1_pd(*a.add(1)), b));
        c2 = _mm512_add_pd(c2, _mm512_mul_pd(_mm512_set1_pd(*a.add(2)), b));
        c3 = _mm512_add_pd(c3, _mm512_mul_pd(_mm512_set1_pd(*a.add(3)), b));
    }
    _mm512_storeu_pd(acc[0].as_mut_ptr(), c0);
    _mm512_storeu_pd(acc[1].as_mut_ptr(), c1);
    _mm512_storeu_pd(acc[2].as_mut_ptr(), c2);
    _mm512_storeu_pd(acc[3].as_mut_ptr(), c3);
}

/// True when the running CPU supports AVX2. The default `x86-64` target
/// only assumes SSE2, which halves f64 SIMD width; the blocked kernels
/// therefore carry a second compilation of the *same* Rust body gated on
/// AVX2 and dispatch here at runtime. Rust never contracts `a * b + c`
/// into a fused multiply-add, so both compilations round every term
/// identically — the wider path is bitwise-equal by construction (and
/// the proptest oracle suite enforces it).
#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Expands an AVX2-compiled twin of an `#[inline(always)]` kernel body
/// plus a dispatcher that picks it when the CPU allows. The body is
/// written once; the twin differs only in the instructions LLVM may
/// select, never in operation order or rounding.
macro_rules! avx2_twin {
    ($dispatch:ident / $twin:ident => $body:ident ($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $twin($($arg: $ty),*) {
            $body($($arg),*);
        }

        #[inline]
        fn $dispatch($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: guarded by the runtime AVX2 detection above;
                // the body itself is plain safe Rust.
                unsafe { $twin($($arg),*) };
                return;
            }
            $body($($arg),*);
        }
    };
}

/// General matrix multiplication `lhs (m x k) * rhs (k x n)`.
///
/// Blocked schedule: output rows split into disjoint blocks fanned out
/// across the `exdra_par` pool; within a block, `k` is tiled in [`KC`]
/// slabs, the rhs slab is packed into [`NR`]-wide column panels, each
/// [`MR`]-row lhs micro-panel is packed depth-major, and an `MR x NR`
/// register tile reduces the slab. Every cell's terms are added in
/// k-ascending order with the output cell carried through the slabs of
/// one [`REDUCE_BLOCK_ROWS`] block, and the blocks fold in order, so the
/// result is bitwise identical to [`matmul_naive`] at any thread count
/// and any block geometry.
pub fn matmul(lhs: &DenseMatrix, rhs: &DenseMatrix) -> Result<DenseMatrix> {
    if lhs.cols() != rhs.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "matmul",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let (m, k) = lhs.shape();
    let n = rhs.cols();
    let mut out = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let lv = lhs.values();
    let rv = rhs.values();
    // Fast path: matrix-vector. One dot product per output cell, written
    // straight through disjoint `values_mut()` chunks.
    if n == 1 {
        let rows_per_chunk = exdra_par::chunk_len(m, par_floor(k));
        exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk, |_, row0, chunk| {
            row_dots(&lv[row0 * k..], k, rv, chunk);
        });
        return Ok(out);
    }
    // Vector-matrix: a 1 x k lhs is, buffer for buffer, the k x 1 left
    // operand of `t(lhs) %*% rhs` — the row sweep, without packing all
    // of rhs to feed a one-row micro-tile.
    if m == 1 {
        tn_into(lv, 1, rv, n, k, out.values_mut());
        return Ok(out);
    }
    let rows_per_chunk = exdra_par::chunk_len(m, par_floor(k * n));
    let npanels = n.div_ceil(NR);
    exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk * n, |_, cell0, ochunk| {
        gemm_chunk(lv, rv, k, n, npanels, cell0 / n, ochunk);
    });
    Ok(out)
}

/// Rows per lane group of [`row_dots`]: four 4-lane vectors of rows, so
/// four independent add chains keep the `vaddpd` pipe busy.
const DOT_GROUP_ROWS: usize = 16;

/// Row dots `out[i] = x_i · v` for the first `out.len()` rows of the
/// row-major `x` (`n` columns): each row's chain `0 + x[i][0] v[0] +
/// x[i][1] v[1] + …`, c-ascending, one term at a time — the depth of
/// `matmul`, so cut into [`REDUCE_BLOCK_ROWS`]-column blocks whose
/// partials fold in order. Serves `X v` (the matrix-vector fast path) and
/// phase 1 of `mmchain`.
#[inline]
fn row_dots(x: &[f64], n: usize, v: &[f64], out: &mut [f64]) {
    fold_blocks_into(n, out, |cols, acc| {
        row_dots_block(&x[cols.start..], n, cols.len(), &v[cols.start..], acc)
    });
}

/// One column block of [`row_dots`]: `out[i]` is row `i`'s chain over
/// its first `n` cells, rows `stride` cells apart. The rows of a group
/// ride in vector lanes, one row per lane, so a group's chains advance
/// side by side instead of one latency-bound chain per row. Dispatches to
/// the AVX2 twin when the CPU allows; every twin performs the same
/// per-row multiplies and adds, so the choice never changes a bit.
#[inline]
fn row_dots_block(x: &[f64], stride: usize, n: usize, v: &[f64], out: &mut [f64]) {
    assert!(
        out.is_empty() || (x.len() >= (out.len() - 1) * stride + n && v.len() >= n),
        "row_dots operand underflow"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by the runtime AVX2 detection; operand bounds
        // are asserted above.
        unsafe { row_dots_avx2(x, stride, n, v, out) };
        return;
    }
    row_dots_scalar(x, stride, n, v, out);
}

/// Portable body of [`row_dots_block`]: a group's chains in an array,
/// extended column by column.
fn row_dots_scalar(x: &[f64], stride: usize, n: usize, v: &[f64], out: &mut [f64]) {
    for (g, o) in out.chunks_mut(DOT_GROUP_ROWS).enumerate() {
        let rows = &x[g * DOT_GROUP_ROWS * stride..];
        let mut acc = [0.0f64; DOT_GROUP_ROWS];
        for (c, &b) in v[..n].iter().enumerate() {
            for (i, a) in acc[..o.len()].iter_mut().enumerate() {
                *a += rows[i * stride + c] * b;
            }
        }
        o.copy_from_slice(&acc[..o.len()]);
    }
}

/// AVX2 twin of [`row_dots_block`]: 16-row groups as four 4-row quads (then
/// single quads, then scalar chains for the last `rows % 4`). Each quad's
/// 4 x 4 tile of `x` is transposed in registers — 128-bit row halves
/// paired by `vinsertf128`, split into columns by `vunpck{l,h}pd` — so
/// lane `i` extends row `i`'s chain with `x[i][c] * v[c]`, c ascending.
/// Separate `vmulpd`/`vaddpd`, no FMA: lane-wise the scalar body's
/// rounding.
///
/// # Safety
///
/// The CPU must support AVX2. Operand lengths are checked inside.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_dots_avx2(x: &[f64], stride: usize, n: usize, v: &[f64], out: &mut [f64]) {
    let rows = out.len();
    assert!(
        rows == 0 || (x.len() >= (rows - 1) * stride + n && v.len() >= n),
        "row_dots operand underflow"
    );
    // SAFETY (for the raw accesses below): every quad reads rows
    // `i..i + 4` and columns `0..n` of `x`, inside the asserted length,
    // and writes `out[i..i + 4]` with `i + 4 <= rows`.
    let (xp, op) = (x.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + DOT_GROUP_ROWS <= rows {
        dot_quads_avx2::<4>(xp.add(i * stride), stride, n, v, op.add(i));
        i += DOT_GROUP_ROWS;
    }
    while i + 4 <= rows {
        dot_quads_avx2::<1>(xp.add(i * stride), stride, n, v, op.add(i));
        i += 4;
    }
    for (r, o) in out.iter_mut().enumerate().skip(i) {
        let mut acc = 0.0;
        for (a, b) in x[r * stride..][..n].iter().zip(v) {
            acc += a * b;
        }
        *o = acc;
    }
}

/// Two rows `2s` cells apart side by side, two columns each: `[p[0],
/// p[1], p[2s], p[2s + 1]]`.
///
/// # Safety
///
/// The CPU must support AVX2, and `p[0..2]` and `p[2s..2s + 2]` must be
/// readable.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_pair(p: *const f64, s: usize) -> core::arch::x86_64::__m256d {
    use core::arch::x86_64::*;
    let lo = _mm256_castpd128_pd256(_mm_loadu_pd(p));
    _mm256_insertf128_pd::<1>(lo, _mm_loadu_pd(p.add(2 * s)))
}

/// `Q` quads (`4 Q` consecutive rows of `x`, `s` cells apart, `n`
/// columns each) of [`row_dots_avx2`], one accumulator vector per quad.
///
/// # Safety
///
/// The CPU must support AVX2, `x` must point to `4 Q` rows of `n`
/// readable cells, `out` to `4 Q` writable ones, and `v` must hold at
/// least `n`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dot_quads_avx2<const Q: usize>(
    x: *const f64,
    s: usize,
    n: usize,
    v: &[f64],
    out: *mut f64,
) {
    use core::arch::x86_64::*;
    let mut acc = [_mm256_setzero_pd(); Q];
    let mut c = 0;
    while c + 4 <= n {
        let b0 = _mm256_set1_pd(v[c]);
        let b1 = _mm256_set1_pd(v[c + 1]);
        let b2 = _mm256_set1_pd(v[c + 2]);
        let b3 = _mm256_set1_pd(v[c + 3]);
        for (q, a) in acc.iter_mut().enumerate() {
            let p = x.add(4 * q * s + c);
            let (lo02, lo13) = (row_pair(p, s), row_pair(p.add(s), s));
            let (hi02, hi13) = (row_pair(p.add(2), s), row_pair(p.add(s + 2), s));
            // Columns c..c+4 of the quad, one row per lane.
            let mut s = *a;
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_unpacklo_pd(lo02, lo13), b0));
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_unpackhi_pd(lo02, lo13), b1));
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_unpacklo_pd(hi02, hi13), b2));
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_unpackhi_pd(hi02, hi13), b3));
            *a = s;
        }
        c += 4;
    }
    while c < n {
        let b = _mm256_set1_pd(v[c]);
        for (q, a) in acc.iter_mut().enumerate() {
            let p = x.add(4 * q * s + c);
            let col = _mm256_set_pd(*p.add(3 * s), *p.add(2 * s), *p.add(s), *p);
            *a = _mm256_add_pd(*a, _mm256_mul_pd(col, b));
        }
        c += 1;
    }
    for (q, a) in acc.iter().enumerate() {
        _mm256_storeu_pd(out.add(4 * q), *a);
    }
}

/// One parallel chunk of the blocked GEMM: pack the rhs slab into
/// NR-wide column panels, each MR-row lhs micro-panel depth-major, and
/// reduce with the register micro-tile, carrying output cells through
/// the k-slabs of a reduction block. Slabs past the first block
/// accumulate into `part` from zero, which folds into the output at each
/// block's end.
#[inline(always)]
fn gemm_chunk_body(
    lv: &[f64],
    rv: &[f64],
    k: usize,
    n: usize,
    npanels: usize,
    i0: usize,
    ochunk: &mut [f64],
) {
    let rows = ochunk.len() / n;
    // Packed buffers are per chunk: no cross-thread sharing, and the
    // rhs panel layout is identical however the rows are split.
    let mut bpack = vec![0.0f64; npanels * KC * NR];
    let mut apack = vec![0.0f64; KC * MR];
    let part_len = if k > REDUCE_BLOCK_ROWS {
        ochunk.len()
    } else {
        0
    };
    let mut part = vec![0.0f64; part_len];
    for kb in (0..k).step_by(KC) {
        let kc = (kb + KC).min(k) - kb;
        let cells: &mut [f64] = if kb < REDUCE_BLOCK_ROWS {
            &mut *ochunk
        } else {
            &mut part
        };
        // Pack the rhs slab into NR-wide column panels, depth-major
        // within each panel. Ragged tail lanes stay at the buffer's
        // initial 0.0 and feed accumulator columns that are never stored.
        for t in 0..kc {
            let rrow = &rv[(kb + t) * n..(kb + t + 1) * n];
            for (jp, colseg) in rrow.chunks(NR).enumerate() {
                bpack[jp * KC * NR + t * NR..][..colseg.len()].copy_from_slice(colseg);
            }
        }
        for ip in (0..rows).step_by(MR) {
            let mr = (ip + MR).min(rows) - ip;
            // Pack the lhs micro-panel, MR-interleaved: apack[t*MR+i]
            // holds lhs[i0+ip+i][kb+t]. Stale tail lanes (mr < MR)
            // feed accumulator rows that are never stored.
            for lane in 0..mr {
                let lrow = &lv[(i0 + ip + lane) * k + kb..][..kc];
                for t in 0..kc {
                    apack[t * MR + lane] = lrow[t];
                }
            }
            for jp in 0..npanels {
                let j0 = jp * NR;
                let nr = (j0 + NR).min(n) - j0;
                let bp = &bpack[jp * KC * NR..][..kc * NR];
                // Carry the output micro-tile through the k-slabs:
                // load, extend each cell's chain term by term, store.
                let mut acc = [[0.0f64; NR]; MR];
                for i in 0..mr {
                    let orow = &cells[(ip + i) * n + j0..];
                    acc[i][..nr].copy_from_slice(&orow[..nr]);
                }
                // An edge tile is a full tile on the padded lanes: only
                // its live `mr x nr` cells are stored.
                micro_tile(kc, &apack, bp, &mut acc);
                for i in 0..mr {
                    let orow = &mut cells[(ip + i) * n + j0..];
                    orow[..nr].copy_from_slice(&acc[i][..nr]);
                }
            }
        }
        let block_end = (kb + kc).is_multiple_of(REDUCE_BLOCK_ROWS) || kb + kc == k;
        if kb >= REDUCE_BLOCK_ROWS && block_end {
            for (o, p) in ochunk.iter_mut().zip(&mut part) {
                *o += *p;
                *p = 0.0;
            }
        }
    }
}
avx2_twin!(gemm_chunk / gemm_chunk_avx2 => gemm_chunk_body(
    lv: &[f64], rv: &[f64], k: usize, n: usize, npanels: usize, i0: usize, ochunk: &mut [f64]
));

/// Transposed-left matrix multiplication `t(a) %*% b` for `a (k x p)` and
/// `b (k x n)`, without materializing `t(a)`.
///
/// One sweep over the shared row index `r`: row `r` of `a` and row `r`
/// of `b` add `a[r][i] * b[r][j]` into output cell `(i, j)`, r ascending
/// within each [`REDUCE_BLOCK_ROWS`] block, and the block partials fold
/// in order — the cell `matmul_naive(&transpose(a), b)` builds, at every
/// thread count. An output of at most `TN_BLOCK_CELLS` cells (`t(X) y`,
/// MLogReg's `t(X) R`, K-Means' `t(P) X`) fans the row blocks out over
/// the pool, each computing a whole partial; a wider one splits into
/// tiles of at most that many cells, each walking every block in turn.
///
/// The shapes pick the loop: the inner loop runs along the rows of the
/// wider operand (unit stride, vectorized) and the thinner operand
/// supplies the broadcast scalars. With a thin `b` that computes the
/// `n x p` transpose of the result, which is stored transposed back;
/// `x * y` commutes bit for bit, so the cells agree.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "matmul_tn",
            lhs: (a.cols(), a.rows()),
            rhs: b.shape(),
        });
    }
    let (k, p) = a.shape();
    let n = b.cols();
    let mut out = DenseMatrix::zeros(p, n);
    tn_into(a.values(), p, b.values(), n, k, out.values_mut());
    Ok(out)
}

/// [`matmul_tn`] on raw row-major buffers: `out (p x n) = t(av) %*% bv`
/// with `out` zeroed by the caller.
fn tn_into(av: &[f64], p: usize, bv: &[f64], n: usize, k: usize, out: &mut [f64]) {
    if p == 0 || n == 0 || k == 0 {
        return;
    }
    // `thin` supplies the scalars, `wide` the streamed rows; tiles are
    // (thin columns) x (wide columns), i.e. of `out` or of its transpose.
    let flipped = n < p;
    let (tv, nt, wv, nw) = if flipped {
        (bv, n, av, p)
    } else {
        (av, p, bv, n)
    };
    let ops = Operands {
        thin: tv,
        nt,
        wide: wv,
        nw,
    };
    // Extends the tile at thin column i0 and wide column j0, `w` wide,
    // over the rows `rows`.
    let sweep = |rows: Range<usize>, (i0, j0, w): (usize, usize, usize), acc: &mut [f64]| {
        tn_block(ops.at(rows.start, i0, j0), rows.len(), false, w, acc);
    };
    let mut store = |(i0, j0, w): (usize, usize, usize), tile: &[f64]| {
        for (di, trow) in tile.chunks_exact(w).enumerate() {
            if flipped {
                for (dj, &v) in trow.iter().enumerate() {
                    out[(j0 + dj) * n + i0 + di] = v;
                }
            } else {
                out[(i0 + di) * n + j0..][..w].copy_from_slice(trow);
            }
        }
    };
    if nt * nw <= TN_BLOCK_CELLS {
        let whole = (0, 0, nw);
        let tile = fold_row_blocks(
            k,
            p * n,
            |rows| {
                let mut part = vec![0.0f64; nt * nw];
                sweep(rows, whole, &mut part);
                part
            },
            add_into,
        );
        store(whole, &tile.expect("k > 0"));
        return;
    }
    let width = nw.min(TN_BLOCK_CELLS);
    let height = (TN_BLOCK_CELLS / width).clamp(1, nt);
    let (col_tiles, row_tiles) = (nw.div_ceil(width), nt.div_ceil(height));
    // Tile t starts at thin column i0 and wide column j0, w columns wide.
    let origin = |t: usize| {
        let (i0, j0) = (t / col_tiles * height, t % col_tiles * width);
        (i0, j0, width.min(nw - j0))
    };
    let tiles = exdra_par::map_chunks(col_tiles * row_tiles, 1, |t, _| {
        let (i0, j0, w) = origin(t);
        let mut tile = vec![0.0f64; height.min(nt - i0) * w];
        fold_blocks_into(k, &mut tile, |rows, acc| sweep(rows, (i0, j0, w), acc));
        tile
    });
    for (t, tile) in tiles.iter().enumerate() {
        store(origin(t), tile);
    }
}

/// Rows of `A` and `B` per slab of the row sweep: every register tile of
/// an output block walks one slab before the next one is read, and a slab
/// of a 100-column operand (200 KB) stays in the 2 MiB L2 meanwhile.
#[cfg(target_arch = "x86_64")]
const SWEEP_SLAB_ROWS: usize = 256;

// A reduction block is a whole number of slabs.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(REDUCE_BLOCK_ROWS.is_multiple_of(SWEEP_SLAB_ROWS));

/// Thin rows of a register tile once a block has at least four.
const TILE_ROWS: usize = 8;

/// 8-lane vectors per row of a register tile of `m` thin rows: two (16
/// add chains at `m = 8`) from four rows up; more below, so that `t(X) y`
/// and MLogReg's `t(X) R` keep 15 or 16 chains and `t(X) y` reads each
/// row of a 100-column X in one tile.
#[cfg(target_arch = "x86_64")]
const fn tile_vectors(m: usize) -> usize {
    match m {
        1 => 16,
        2 => 8,
        3 => 5,
        _ => 2,
    }
}

/// The operands of a row sweep: `thin` supplies the scalars (rows `nt`
/// cells apart), `wide` the streamed rows (`nw` cells apart).
#[derive(Clone, Copy)]
struct Operands<'a> {
    thin: &'a [f64],
    nt: usize,
    wide: &'a [f64],
    nw: usize,
}

impl Operands<'_> {
    /// The operands from row `r`, thin column `i` and wide column `j` on.
    fn at(self, r: usize, i: usize, j: usize) -> Self {
        let (thin, wide) = (&self.thin[r * self.nt + i..], &self.wide[r * self.nw + j..]);
        Operands { thin, wide, ..self }
    }
}

/// One register tile of the row sweep: thin rows `i0..i0 + m` by wide
/// columns `j0..j0 + w`, extended over the rows `r0..r0 + rows`.
#[cfg(target_arch = "x86_64")]
struct Tile {
    r0: usize,
    rows: usize,
    i0: usize,
    m: usize,
    j0: usize,
    w: usize,
}

/// The register tiles of an `h x width` row-sweep block over `k` rows, in
/// order: per slab of [`SWEEP_SLAB_ROWS`] rows, tile rows of
/// [`TILE_ROWS`] (all `h` rows below four), each cut into tiles of
/// [`tile_vectors`] vectors. With `upper`, tile row `i0` starts at column
/// `i0`: `tsmm`'s upper triangle, diagonal tiles included whole.
#[cfg(target_arch = "x86_64")]
fn tiles(k: usize, h: usize, width: usize, upper: bool) -> impl Iterator<Item = Tile> {
    let height = if h < 4 { h.max(1) } else { TILE_ROWS };
    (0..k).step_by(SWEEP_SLAB_ROWS).flat_map(move |r0| {
        (0..h).step_by(height).flat_map(move |i0| {
            let m = height.min(h - i0);
            let first = if upper { i0 } else { 0 };
            (first..width)
                .step_by(8 * tile_vectors(m))
                .map(move |j0| Tile {
                    r0,
                    rows: SWEEP_SLAB_ROWS.min(k - r0),
                    i0,
                    m,
                    j0,
                    w: (8 * tile_vectors(m)).min(width - j0),
                })
        })
    })
}

/// One output block of the row sweep: `block[i][j] += Σ_r thin[r][i] *
/// wide[r][j]` over `k` rows, with `ops` at the block's first row and
/// column and the block's rows `width` cells apart. Every cell stays one
/// chain, one term at a time, r ascending, so neither body changes a
/// bit. With `upper` (`tsmm`), row `i` of the block needs only its cells
/// from column `i`; the bodies may compute others, which the mirror
/// overwrites.
fn tn_block(ops: Operands, k: usize, upper: bool, width: usize, block: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: guarded by the runtime AVX-512 detection; every tile
        // asserts its bounds.
        unsafe { tn_block_avx512(ops, k, upper, width, block) };
        return;
    }
    tn_block_portable(ops, k, upper, width, block);
}

/// Portable body of [`tn_block`]: four shared-index rows per pass with
/// the cell held in a register between its four adds. (A by-value
/// register tile like the AVX-512 twin's spills on 16 `ymm` registers:
/// 1.7–3.8x slower with AVX2.)
#[inline(always)]
fn tn_block_body(ops: Operands, k: usize, upper: bool, width: usize, block: &mut [f64]) {
    let Operands { thin, nt, wide, nw } = ops;
    let mut r = 0;
    while r + 4 <= k {
        let w0 = &wide[r * nw..][..width];
        let w1 = &wide[(r + 1) * nw..][..width];
        let w2 = &wide[(r + 2) * nw..][..width];
        let w3 = &wide[(r + 3) * nw..][..width];
        for (i, orow) in block.chunks_exact_mut(width).enumerate() {
            let lo = if upper { i } else { 0 };
            let (t0, t1, t2, t3) = (
                thin[r * nt + i],
                thin[(r + 1) * nt + i],
                thin[(r + 2) * nt + i],
                thin[(r + 3) * nt + i],
            );
            let (w0, w1, w2, w3) = (&w0[lo..], &w1[lo..], &w2[lo..], &w3[lo..]);
            for (d, o) in orow[lo..].iter_mut().enumerate() {
                let mut c = *o;
                c += t0 * w0[d];
                c += t1 * w1[d];
                c += t2 * w2[d];
                c += t3 * w3[d];
                *o = c;
            }
        }
        r += 4;
    }
    while r < k {
        let wrow = &wide[r * nw..][..width];
        for (i, orow) in block.chunks_exact_mut(width).enumerate() {
            let (t, lo) = (thin[r * nt + i], if upper { i } else { 0 });
            for (o, &w) in orow[lo..].iter_mut().zip(&wrow[lo..]) {
                *o += t * w;
            }
        }
        r += 1;
    }
}
avx2_twin!(tn_block_portable / tn_block_avx2 => tn_block_body(
    ops: Operands, k: usize, upper: bool, width: usize, block: &mut [f64]
));

/// AVX-512 twin of [`tn_block_body`]: an `M x W` register tile of the
/// block walks a slab of rows between one load and one store of its
/// cells, reading both operands in place. The first tile row of each slab
/// also asks for its columns of the next slab's rows (`prefetcht1`, a
/// hint: no effect on any value), so the slab is in L2 when its tiles
/// start; without it, the tiles' strided reads of a large operand wait on
/// memory.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tn_block_avx512(ops: Operands, k: usize, upper: bool, width: usize, block: &mut [f64]) {
    for t in tiles(k, block.len() / width.max(1), width, upper) {
        let (src, out) = (ops.at(t.r0, t.i0, t.j0), &mut block[t.i0 * width + t.j0..]);
        let next = t.r0 + SWEEP_SLAB_ROWS;
        let ahead = if t.i0 == 0 {
            SWEEP_SLAB_ROWS.min(k.saturating_sub(next))
        } else {
            0
        };
        match t.m {
            1 => tile_avx512::<1, { tile_vectors(1) }>(src, t.rows, t.w, out, width, ahead),
            2 => tile_avx512::<2, { tile_vectors(2) }>(src, t.rows, t.w, out, width, ahead),
            3 => tile_avx512::<3, { tile_vectors(3) }>(src, t.rows, t.w, out, width, ahead),
            4 => tile_avx512::<4, { tile_vectors(4) }>(src, t.rows, t.w, out, width, ahead),
            5 => tile_avx512::<5, { tile_vectors(5) }>(src, t.rows, t.w, out, width, ahead),
            6 => tile_avx512::<6, { tile_vectors(6) }>(src, t.rows, t.w, out, width, ahead),
            7 => tile_avx512::<7, { tile_vectors(7) }>(src, t.rows, t.w, out, width, ahead),
            8 => tile_avx512::<8, { tile_vectors(8) }>(src, t.rows, t.w, out, width, ahead),
            m => unreachable!("tile height {m}"),
        }
    }
}

/// AVX-512 register tile of [`tn_block_avx512`]: `M x V` vectors of 8
/// cells, the lanes past `w` masked off on every load and store, so a
/// ragged right edge reads and writes its live cells only. `vmulpd`,
/// then `vaddpd`, never FMA: lane by lane the portable tile's rounding.
/// Row `r < ahead` also prefetches row `r` of the next slab.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn tile_avx512<const M: usize, const V: usize>(
    src: Operands,
    rows: usize,
    w: usize,
    out: &mut [f64],
    ldo: usize,
    ahead: usize,
) {
    use core::arch::x86_64::*;
    let Operands { thin, nt, wide, nw } = src;
    assert!(
        rows > 0
            && (1..=8 * V).contains(&w)
            && thin.len() >= (rows - 1) * nt + M
            && wide.len() >= (rows - 1) * nw + w
            && out.len() >= (M - 1) * ldo + w
            && (ahead == 0 || wide.len() >= (SWEEP_SLAB_ROWS + ahead - 1) * nw + w),
        "register tile underflow"
    );
    let live = w.div_ceil(8);
    let mut mask = [0u8; V];
    for (v, m) in mask.iter_mut().enumerate() {
        *m = (0xffu32 >> (8 - w.saturating_sub(8 * v).min(8))) as u8;
    }
    let (tp, wp, op) = (thin.as_ptr(), wide.as_ptr(), out.as_mut_ptr());
    let mut c = [[_mm512_setzero_pd(); V]; M];
    // SAFETY: lane `l` of vector `v` reads cell `8 v + l` of a row of
    // `out` or `wide` only when `8 v + l < w`; the rows touched (and
    // prefetched) and the `M` thin cells per row lie inside the lengths
    // asserted above, and masked-off lanes access no memory.
    unsafe {
        for (i, ci) in c.iter_mut().enumerate() {
            for v in 0..live {
                ci[v] = _mm512_maskz_loadu_pd(mask[v], op.add(i * ldo + 8 * v));
            }
        }
        for r in 0..rows {
            if r < ahead {
                let p = wp.add((SWEEP_SLAB_ROWS + r) * nw);
                for v in 0..live {
                    _mm_prefetch::<_MM_HINT_T1>(p.add(8 * v).cast());
                }
                _mm_prefetch::<_MM_HINT_T1>(p.add(w - 1).cast());
            }
            let mut b = [_mm512_setzero_pd(); V];
            for v in 0..live {
                b[v] = _mm512_maskz_loadu_pd(mask[v], wp.add(r * nw + 8 * v));
            }
            for (i, ci) in c.iter_mut().enumerate() {
                let t = _mm512_set1_pd(*tp.add(r * nt + i));
                for v in 0..live {
                    ci[v] = _mm512_add_pd(ci[v], _mm512_mul_pd(t, b[v]));
                }
            }
        }
        for (i, ci) in c.iter().enumerate() {
            for v in 0..live {
                _mm512_mask_storeu_pd(op.add(i * ldo + 8 * v), mask[v], ci[v]);
            }
        }
    }
}

/// Transpose-self matrix multiplication `tsmm`: computes `Xᵀ X` (`left=true`)
/// or `X Xᵀ` (`left=false`) exploiting the symmetry of the result.
///
/// `Xᵀ X` is the [`matmul_tn`] row sweep over the tiles of the upper
/// triangle, each tile row starting at its diagonal cell. Up to
/// `TN_BLOCK_CELLS` output cells (PCA's 100 x 100) the row blocks fan
/// out over the pool, each sweeping the triangle into a partial; a wider
/// output splits into runs of tile rows, each walking every row block in
/// turn. `X Xᵀ` is row-dot-row. Either way each upper cell is the cell
/// `matmul_naive` builds on the materialized transpose, blocks and fold
/// included, at every thread count, and the lower triangle is its
/// mirror.
pub fn tsmm(x: &DenseMatrix, left: bool) -> Result<DenseMatrix> {
    let (m, n) = x.shape();
    let xv = x.values();
    let side = if left { n } else { m };
    let mut out = DenseMatrix::zeros(side, side);
    // Extends the triangle's tile rows from output row `a` (`acc` holds
    // their cells from column `a`) over the rows `rows`.
    let x = Operands {
        thin: xv,
        nt: n,
        wide: xv,
        nw: n,
    };
    let sweep = |rows: Range<usize>, a: usize, acc: &mut [f64]| {
        tn_block(x.at(rows.start, a, a), rows.len(), true, n - a, acc);
    };
    if left && n * n <= TN_BLOCK_CELLS {
        let part = |rows| {
            let mut part = vec![0.0f64; n * n];
            sweep(rows, 0, &mut part);
            part
        };
        if let Some(total) = fold_row_blocks(m, n * (n + 1) / 2, part, add_into) {
            out.values_mut().copy_from_slice(&total);
        }
    } else if left {
        let tile_rows = n.div_ceil(TILE_ROWS);
        let per_job = exdra_par::chunk_len(tile_rows, 1);
        let runs = exdra_par::map_chunks(tile_rows, per_job, |_, run| {
            let (a, b) = (run.start * TILE_ROWS, (run.end * TILE_ROWS).min(n));
            let mut acc = vec![0.0f64; (b - a) * (n - a)];
            fold_blocks_into(m, &mut acc, |rows, acc| sweep(rows, a, acc));
            (a, acc)
        });
        for (a, acc) in runs {
            for (d, row) in acc.chunks_exact(n - a).enumerate() {
                out.row_mut(a + d)[a + d..].copy_from_slice(&row[d..]);
            }
        }
    } else {
        let rows_per_chunk = exdra_par::chunk_len(m, par_floor(n * (m / 2 + 1)));
        exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk * m, |_, cell0, ochunk| {
            for (orow, i) in ochunk.chunks_exact_mut(m).zip(cell0 / m..) {
                let xi = &xv[i * n..][..n];
                for (j, o) in orow.iter_mut().enumerate().skip(i) {
                    *o = dot(xi, &xv[j * n..][..n]);
                }
            }
        });
    }
    // Mirror the upper triangle onto the lower one.
    let ov = out.values_mut();
    for i in 1..side {
        for j in 0..i {
            ov[i * side + j] = ov[j * side + i];
        }
    }
    Ok(out)
}

/// `a · b` in the one reduction order: a chain per
/// [`REDUCE_BLOCK_ROWS`] block of terms, the block sums folded in order.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let blocks = a.chunks(REDUCE_BLOCK_ROWS).zip(b.chunks(REDUCE_BLOCK_ROWS));
    blocks
        .map(|(a, b)| a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y))
        .reduce(|total, part| total + part)
        .unwrap_or(0.0)
}

/// Fused matrix-multiplication chain `Xᵀ (w ⊙ (X V))` for a `d x k` `V`
/// and an optional `n x k` `w`: column `j` of the `d x k` result is the
/// chain on `(v_j, w_j)`, bit for bit what a one-column call computes.
///
/// With `w = None` this is `Xᵀ (X v)` — the conjugate-gradient inner step of
/// the paper's LM algorithm; MLogReg's Newton-CG runs one column per class.
/// The fusion avoids materializing `X v` twice and is the exact `mmchain`
/// instruction of Table 1.
///
/// Phase 1 builds each row's dot c-ascending (`row_dots`, rows in
/// vector lanes), then multiplies it by `w`; phase 2 extends each output
/// cell's r-ascending chain with `q[i] * x[i][c]`, one term at a time and
/// unconditionally — no zero-skip — so the compressed-domain `mmchain`
/// (DESIGN.md §4k) can reproduce the chain bit for bit.
///
/// The phases interleave over 32-row steps, so `X` is read once for all
/// `k` columns (`mmchain_sweep_body`). The [`REDUCE_BLOCK_ROWS`] row
/// blocks fan out over the pool, each sweeping its rows into a partial
/// of the output, and the partials fold in block order: the bits of
/// [`mmchain_two_phase`] at every width.
pub fn mmchain(x: &DenseMatrix, v: &DenseMatrix, w: Option<&DenseMatrix>) -> Result<DenseMatrix> {
    let k = v.cols();
    if x.cols() != v.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "mmchain",
            lhs: x.shape(),
            rhs: v.shape(),
        });
    }
    if let Some(w) = w.filter(|w| w.shape() != (x.rows(), k)) {
        return Err(MatrixError::DimensionMismatch {
            op: "mmchain",
            lhs: x.shape(),
            rhs: w.shape(),
        });
    }
    let (m, n) = x.shape();
    if m == 0 || n == 0 || k == 0 {
        return Ok(DenseMatrix::zeros(n, k));
    }
    // Each `v_j` contiguous: row `j` of `t(V)`.
    let vt = super::reorg::transpose(v);
    let (xv, vt, wv) = (x.values(), vt.values(), w.map(DenseMatrix::values));
    // Each block's partial of `t(out)`, folded in block order.
    let out_t = fold_row_blocks(
        m,
        2 * n * k,
        |rows| {
            let mut part = vec![0.0f64; k * n];
            mmchain_sweep(xv, vt, wv, rows, n, k, &mut part);
            part
        },
        add_into,
    );
    let out_t = DenseMatrix::new(k, n, out_t.expect("m > 0"))?;
    Ok(super::reorg::transpose(&out_t))
}

/// [`mmchain`] as two passes over `X` through the general kernels: `q =
/// (X V) ⊙ w` by [`matmul`], then `Xᵀ q` by [`matmul_tn`], each fanned
/// out over the pool. Every cell is the chain the one-pass sweep builds,
/// so this is the oracle the sweep is pinned to, and `kernel_bench`'s
/// other column.
#[doc(hidden)]
pub fn mmchain_two_phase(
    x: &DenseMatrix,
    v: &DenseMatrix,
    w: Option<&DenseMatrix>,
) -> Result<DenseMatrix> {
    let mut q = matmul(x, v)?;
    if let Some(w) = w {
        q = q.zip(w, "mmchain", |d, w| d * w)?;
    }
    matmul_tn(x, &q)
}

/// Phase 1 of mmchain on a block of rows: `q[i][j] = (x_i · v_j) *
/// w[i][j]`, `q` and `w` row-major `rows x k`, `vt` the `k` columns of
/// `V` one after another; `dots` is scratch for at least `rows` cells.
#[inline(always)]
fn block_q(
    x: &[f64],
    n: usize,
    vt: &[f64],
    k: usize,
    w: Option<&[f64]>,
    dots: &mut [f64],
    q: &mut [f64],
) {
    let rows = q.len() / k;
    for (j, vj) in vt.chunks_exact(n).enumerate() {
        row_dots(x, n, vj, &mut dots[..rows]);
        for (i, &d) in dots[..rows].iter().enumerate() {
            q[i * k + j] = d;
        }
    }
    if let Some(w) = w {
        for (qi, &wi) in q.iter_mut().zip(w) {
            *qi *= wi;
        }
    }
}

/// Rows per step of the one-pass mmchain sweep: a step's rows of `X`
/// (32 x 100 doubles = 25 KiB) are still in L1 when phase 2 re-reads
/// them.
const MMCHAIN_STEP_ROWS: usize = 32;

/// Cells of `X` (1 MiB) below which the sweep does not prefetch: such an
/// `X` stays in L2 from one call to the next, and the prefetches would
/// only add instructions and push the live block out of L1.
const PREFETCH_MIN_CELLS: usize = 1 << 17;

/// The one-pass mmchain over the rows `span` of `X`: per step, phase 1
/// on the step's rows for all `k` columns, then phase 2 of the same rows
/// into `out_t = t(out)` (`k x n`), carried across steps. Each `q[i][j]`
/// and each output cell is the chain the two-phase schedule builds, so
/// the bits are the same — and `X` is read from memory once, whatever
/// `k`. Phase 2 walks the step four rows at a time, and on an `X` too
/// large to stay in cache each step asks for the matching rows of the
/// next step, so they arrive while this step's arithmetic runs.
#[inline(always)]
fn mmchain_sweep_body(
    xv: &[f64],
    vt: &[f64],
    wv: Option<&[f64]>,
    span: Range<usize>,
    n: usize,
    k: usize,
    out_t: &mut [f64],
) {
    let mut q = vec![0.0f64; MMCHAIN_STEP_ROWS * k];
    let mut dots = [0.0f64; MMCHAIN_STEP_ROWS];
    for i0 in span.clone().step_by(MMCHAIN_STEP_ROWS) {
        let rows = MMCHAIN_STEP_ROWS.min(span.end - i0);
        let block = &xv[i0 * n..(i0 + rows) * n];
        let q = &mut q[..rows * k];
        let w = wv.map(|w| &w[i0 * k..(i0 + rows) * k]);
        block_q(block, n, vt, k, w, &mut dots, q);
        let next = if xv.len() >= PREFETCH_MIN_CELLS {
            &xv[(i0 + rows) * n..span.end * n]
        } else {
            &[]
        };
        for r in (0..rows).step_by(4) {
            let h = 4.min(rows - r);
            prefetch(&next[(r * n).min(next.len())..((r + h) * n).min(next.len())]);
            let (thin, wide) = (&q[r * k..], &block[r * n..]);
            let ops = Operands {
                thin,
                nt: k,
                wide,
                nw: n,
            };
            tn_block_body(ops, h, false, n, out_t);
        }
    }
}
avx2_twin!(mmchain_sweep / mmchain_sweep_avx2 => mmchain_sweep_body(
    xv: &[f64], vt: &[f64], wv: Option<&[f64]>, span: Range<usize>, n: usize, k: usize,
    out_t: &mut [f64]
));

/// Asks the cache hierarchy for every line of `cells` (a hint: no
/// effect on any value).
#[inline(always)]
fn prefetch(cells: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // Eight doubles per 64-byte line, plus the last cell's line.
        let lines = cells.iter().step_by(8).chain(cells.last());
        for c in lines {
            // SAFETY: a prefetch never faults; the address is a live cell.
            unsafe { _mm_prefetch::<_MM_HINT_T0>((c as *const f64).cast()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cells;
}

/// Naive triple-loop reference used by tests to validate the tiled
/// kernel: per cell, a chain per [`REDUCE_BLOCK_ROWS`] block of the
/// depth, the block sums folded in order (DESIGN.md §4f).
pub fn matmul_naive(lhs: &DenseMatrix, rhs: &DenseMatrix) -> Result<DenseMatrix> {
    if lhs.cols() != rhs.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "matmul_naive",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let (m, k) = lhs.shape();
    let n = rhs.cols();
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut total = 0.0;
            for (b, block) in row_blocks(k).enumerate() {
                let mut acc = 0.0;
                for kk in block {
                    acc += lhs.get(i, kk) * rhs.get(kk, j);
                }
                total = if b == 0 { acc } else { total + acc };
            }
            out.set(i, j, total);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rand_matrix;

    #[test]
    fn tiled_matches_naive() {
        let a = rand_matrix(37, 113, 0.0, 1.0, 1);
        let b = rand_matrix(113, 29, -1.0, 1.0, 2);
        let got = matmul(&a, &b).unwrap();
        let want = matmul_naive(&a, &b).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn blocked_is_bitwise_naive() {
        // The blocked kernel extends each cell's chain term by term in
        // k-ascending order: not just close to naive — identical bits.
        for (m, k, n, seed) in [
            (37, 513, 29, 1),
            (4, 4, 4, 2),
            (65, 256, 9, 3),
            (3, 700, 5, 4),
        ] {
            let a = rand_matrix(m, k, -1.0, 1.0, seed);
            let b = rand_matrix(k, n, -1.0, 1.0, seed + 100);
            let got = matmul(&a, &b).unwrap();
            let want = matmul_naive(&a, &b).unwrap();
            let same = got
                .values()
                .iter()
                .zip(want.values())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{m}x{k}x{n}: blocked != naive bitwise");
        }
    }

    #[test]
    fn matmul_dimension_check() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matrix_vector_fast_path() {
        let a = rand_matrix(64, 16, 0.0, 1.0, 3);
        let v = rand_matrix(16, 1, 0.0, 1.0, 4);
        let got = matmul(&a, &v).unwrap();
        let want = matmul_naive(&a, &v).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn tsmm_left_matches_explicit() {
        let x = rand_matrix(50, 7, -2.0, 2.0, 5);
        let got = tsmm(&x, true).unwrap();
        let xt = super::super::reorg::transpose(&x);
        let want = matmul_naive(&xt, &x).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn tsmm_mirror_is_exact() {
        // The parallel mirror must leave a perfectly symmetric matrix.
        let x = rand_matrix(300, 37, -2.0, 2.0, 13);
        let got = tsmm(&x, true).unwrap();
        for i in 0..37 {
            for j in 0..37 {
                assert_eq!(got.get(i, j).to_bits(), got.get(j, i).to_bits());
            }
        }
    }

    #[test]
    fn tsmm_right_matches_explicit() {
        let x = rand_matrix(9, 20, -2.0, 2.0, 6);
        let got = tsmm(&x, false).unwrap();
        let xt = super::super::reorg::transpose(&x);
        let want = matmul_naive(&x, &xt).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn micro_tile_twins_are_bitwise_equal() {
        // The dispatcher picks the widest available twin, so the
        // narrower paths need pinning explicitly: same packed panels,
        // same bits out of every implementation the CPU can run — on a
        // full tile, and on a ragged `3 x 5` edge tile as the GEMM packs
        // it: zero rhs lanes past `nr`, garbage (NaN, Inf) in the dead
        // lhs lanes past `mr`, which must stay out of the live cells.
        let kc = KC - 3;
        let noise = rand_matrix(kc, MR + NR, -1.0, 1.0, 99);
        let full_a: Vec<f64> = (0..kc * MR)
            .map(|i| noise.values()[i % noise.values().len()])
            .collect();
        let full_b: Vec<f64> = (0..kc * NR)
            .map(|i| noise.values()[(i * 7 + 3) % noise.values().len()])
            .collect();
        let (mr, nr) = (3, 5);
        let mut edge_a = full_a.clone();
        for (t, lanes) in edge_a.chunks_exact_mut(MR).enumerate() {
            lanes[mr..].fill([f64::NAN, f64::INFINITY, -0.0][t % 3]);
        }
        let mut edge_b = full_b.clone();
        for lanes in edge_b.chunks_exact_mut(NR) {
            lanes[nr..].fill(0.0);
        }
        let seed = |s: f64| {
            let mut acc = [[0.0f64; NR]; MR];
            for (i, row) in acc.iter_mut().enumerate() {
                for (j, c) in row.iter_mut().enumerate() {
                    *c = s * (i * NR + j) as f64;
                }
            }
            acc
        };
        // Dead accumulator rows hold NaNs whose payload may depend on
        // operand order: only the rows a GEMM stores are compared.
        let bits = |acc: &[[f64; NR]; MR], rows: usize| {
            acc[..rows]
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for (ap, bp, rows) in [(&full_a, &full_b, MR), (&edge_a, &edge_b, mr)] {
            let mut want = seed(0.25);
            micro_tile_scalar(kc, ap, bp, &mut want);
            #[cfg(target_arch = "x86_64")]
            {
                if avx2_available() {
                    let mut got = seed(0.25);
                    unsafe { micro_tile_avx2(kc, ap, bp, &mut got) };
                    assert_eq!(bits(&got, rows), bits(&want, rows), "avx2, {rows} rows");
                }
                if avx512_available() {
                    let mut got = seed(0.25);
                    unsafe { micro_tile_avx512(kc, ap, bp, &mut got) };
                    assert_eq!(bits(&got, rows), bits(&want, rows), "avx512, {rows} rows");
                }
            }
            let mut via_dispatch = seed(0.25);
            micro_tile(kc, ap, bp, &mut via_dispatch);
            assert_eq!(bits(&via_dispatch, rows), bits(&want, rows), "{rows} rows");
        }
        // The edge tile's live cells are the full tile's: dead lanes
        // never leak into them.
        let (mut full, mut edge) = (seed(0.25), seed(0.25));
        micro_tile(kc, &full_a, &full_b, &mut full);
        micro_tile(kc, &edge_a, &edge_b, &mut edge);
        for i in 0..mr {
            for j in 0..nr {
                assert_eq!(
                    edge[i][j].to_bits(),
                    full[i][j].to_bits(),
                    "cell ({i}, {j})"
                );
            }
        }
    }

    #[test]
    #[ignore = "manual perf probe"]
    fn gemm_speed_probe() {
        let n = 1024;
        let a = rand_matrix(n, n, -1.0, 1.0, 1);
        let b = rand_matrix(n, n, -1.0, 1.0, 2);
        let flops = 2.0 * (n as f64).powi(3);
        exdra_par::with_threads(1, || {
            for (name, f) in [
                (
                    "blocked",
                    &matmul as &dyn Fn(&DenseMatrix, &DenseMatrix) -> _,
                ),
                ("naive", &matmul_naive),
            ] {
                let mut best = f64::MAX;
                for _ in 0..3 {
                    let t0 = std::time::Instant::now();
                    let out = f(&a, &b).unwrap();
                    let dt = t0.elapsed().as_secs_f64();
                    assert!(out.get(0, 0).is_finite());
                    best = best.min(dt);
                }
                println!("{name}: {best:.3}s {:.2} GF/s", flops / best / 1e9);
            }
        });
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_sweep_is_bitwise_naive_on_the_transpose() {
        // Thin rhs, thin lhs, square, degenerate, k off the 4-row unroll.
        for (k, p, n, seed) in [
            (257, 100, 1, 1),
            (257, 100, 3, 2),
            (258, 20, 100, 3),
            (5, 9, 9, 4),
            (3, 1, 1, 5),
            (0, 4, 3, 6),
            (64, 130, 130, 7), // 16,900 cells: more than one output tile
            (4100, 3, 1, 8),   // three row blocks, the last one ragged
            (2049, 130, 130, 9),
        ] {
            let a = rand_matrix(k, p, -1.0, 1.0, seed);
            let b = rand_matrix(k, n, -1.0, 1.0, seed + 100);
            let want = matmul_naive(&super::super::reorg::transpose(&a), &b).unwrap();
            // The row blocks fan out, or the output splits: never a chain.
            for width in [1, 3] {
                let got = exdra_par::with_threads(width, || matmul_tn(&a, &b).unwrap());
                assert_eq!(got.shape(), (p, n));
                assert_eq!(bits(&got), bits(&want), "{k}x{p} / {k}x{n} width {width}");
            }
        }
        assert!(matmul_tn(&DenseMatrix::zeros(3, 2), &DenseMatrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn one_row_lhs_is_bitwise_naive() {
        for (k, n) in [(257, 100), (5, 2), (1, 9)] {
            let a = rand_matrix(1, k, -1.0, 1.0, 11);
            let b = rand_matrix(k, n, -1.0, 1.0, 12);
            let got = matmul(&a, &b).unwrap();
            assert_eq!(bits(&got), bits(&matmul_naive(&a, &b).unwrap()));
        }
    }

    #[test]
    fn one_pass_mmchain_is_bitwise_two_phase() {
        // Rows on and off the 32-row step, the 16-row lane group, the
        // 4-row step and the reduction blocks; one column and three.
        for m in [1, 31, 32, 33, 100, 131, 2049, 4200] {
            let n = 13;
            let x = rand_matrix(m, n, -1.0, 1.0, 21);
            for k in [1, 3] {
                let v = rand_matrix(n, k, -1.0, 1.0, 22);
                let w = rand_matrix(m, k, 0.0, 1.0, 23);
                for w in [None, Some(&w)] {
                    let got = mmchain(&x, &v, w).unwrap();
                    for width in [1, 3] {
                        let want = exdra_par::with_threads(width, || {
                            mmchain_two_phase(&x, &v, w).unwrap()
                        });
                        assert_eq!(bits(&got), bits(&want), "m {m} k {k} width {width}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_dots_twins_are_bitwise_equal() {
        // The dispatcher picks the widest twin, so the portable body is
        // pinned explicitly: rows off the 16-row group and the 4-row quad,
        // columns off the 4-column transpose, and one special per row —
        // NaNs with distinct payloads, ±Inf, -0.0 — so a row's NaN, if
        // any, has one source and its payload must come through.
        let payload = |p: u64| f64::from_bits(0x7ff8_0000_0000_0000 | p);
        for (rows, n) in [(37, 13), (16, 4), (5, 1), (21, 7), (64, 100), (3, 0)] {
            let mut x = rand_matrix(rows, n, -1.0, 1.0, 31 + n as u64);
            for r in (0..rows).filter(|_| n > 0) {
                let special = [
                    payload(r as u64 + 1),
                    f64::INFINITY,
                    -0.0,
                    f64::NEG_INFINITY,
                ];
                x.set(r, (r * 5) % n, special[r % 4]);
            }
            let v = rand_matrix(n, 1, -1.0, 1.0, 32);
            let mut want = vec![0.0; rows];
            row_dots_scalar(x.values(), n, n, v.values(), &mut want);
            let want: Vec<u64> = want.iter().map(|d| d.to_bits()).collect();
            // Every row is the one c-ascending chain.
            for (r, &b) in want.iter().enumerate() {
                let row = &x.values()[r * n..(r + 1) * n];
                let chain = row.iter().zip(v.values()).fold(0.0, |a, (x, v)| a + x * v);
                assert_eq!(b, chain.to_bits(), "{rows}x{n} row {r}");
            }
            let got_bits = |f: &dyn Fn(&mut [f64])| {
                let mut got = vec![0.0; rows];
                f(&mut got);
                got.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            };
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                // SAFETY: AVX2 was detected just above.
                let got = got_bits(&|o| unsafe { row_dots_avx2(x.values(), n, n, v.values(), o) });
                assert_eq!(got, want, "avx2, {rows}x{n}");
            }
            let got = got_bits(&|o| row_dots(x.values(), n, v.values(), o));
            assert_eq!(got, want, "dispatch, {rows}x{n}");
            // A column block: the chains over cells 1..n - 1 of each row.
            if n > 2 {
                let mut block = vec![0.0; rows];
                row_dots_block(&x.values()[1..], n, n - 2, &v.values()[1..], &mut block);
                for (r, &d) in block.iter().enumerate() {
                    let cells = &x.values()[r * n + 1..(r + 1) * n - 1];
                    let chain = cells
                        .iter()
                        .zip(&v.values()[1..])
                        .fold(0.0, |a, (x, v)| a + x * v);
                    assert_eq!(d.to_bits(), chain.to_bits(), "{rows}x{n} row {r}, block");
                }
            }
        }
    }

    /// One row-sweep body over every reduction block of `k` rows, the
    /// blocks folded in order: `t(thin) %*% wide` (`upper`: its tiles of
    /// the upper triangle, `thin` and `wide` the same matrix).
    type SweepBody = dyn Fn(Operands, usize, bool, usize, &mut [f64]);
    fn sweep_with(
        body: &SweepBody,
        thin: &DenseMatrix,
        wide: &DenseMatrix,
        upper: bool,
    ) -> Vec<u64> {
        let (k, nt, nw) = (thin.rows(), thin.cols(), wide.cols());
        let mut out = vec![0.0; nt * nw];
        let ops = Operands {
            thin: thin.values(),
            nt,
            wide: wide.values(),
            nw,
        };
        fold_blocks_into(k, &mut out, |rows, acc| {
            body(ops.at(rows.start, 0, 0), rows.len(), upper, nw, acc);
        });
        // Lower cells of an upper sweep are the mirror's to write.
        let keep = |c: usize| !upper || c % nw >= c / nw;
        (0..out.len())
            .filter(|&c| keep(c))
            .map(|c| out[c].to_bits())
            .collect()
    }

    #[test]
    fn row_sweep_twins_are_bitwise_naive() {
        // Both bodies against the naive product on the materialized
        // transpose: thin widths on and off the 8-row tile and the wide
        // tiles of 1 to 3 rows, wide widths of every `w % 8` and around
        // the 16-, 40-, 48-, 64- and 128-wide tiles (every wide-tile edge
        // of the 1- to 3-row tiles over a slab edge), rows around the
        // 256-row slab and the 2048-row block. The wide operand carries
        // one special per column — NaN with the column's own payload,
        // ±Inf, ±0.0 — so a cell meets at most one NaN source.
        let payload = |p: u64| f64::from_bits(0x7ff8_0000_0000_0000 | p);
        let thins = [1, 2, 3, 4, 7, 8, 9, 17, 20, 56, 100];
        let wides = [
            1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 39, 40, 41, 47, 48, 49, 63, 64, 65, 127, 128, 129,
        ];
        let rows = [1, 3, 255, 256, 257, 2047, 2048, 2049, 4100];
        let mut cases = Vec::new();
        for &k in &rows {
            for &nt in &thins {
                cases.push((k, nt, wides[(cases.len() * 5 + 5) % wides.len()]));
            }
        }
        #[cfg(target_arch = "x86_64")]
        for nt in 1..=3 {
            let w = 8 * tile_vectors(nt);
            cases.extend([w - 1, w, w + 1, 2 * w + 3].map(|nw| (257, nt, nw)));
        }
        for (at, (k, nt, nw)) in cases.into_iter().enumerate() {
            let thin = rand_matrix(k, nt, -1.0, 1.0, at as u64 + 1);
            let mut wide = rand_matrix(k, nw, -1.0, 1.0, 1001 + at as u64);
            for c in 0..nw {
                let special = [
                    payload(c as u64 + 1),
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -0.0,
                    0.0,
                ];
                wide.set((c * 7 + at) % k, c, special[c % 5]);
            }
            let want = bits(&matmul_naive(&super::super::reorg::transpose(&thin), &wide).unwrap());
            let what = format!("{k} rows, {nt} x {nw}");
            assert_eq!(
                sweep_with(&tn_block_body, &thin, &wide, false),
                want,
                "portable, {what}"
            );
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                // SAFETY: AVX-512 was detected just above.
                let twin: &SweepBody =
                    &|ops, k, u, width, acc| unsafe { tn_block_avx512(ops, k, u, width, acc) };
                assert_eq!(
                    sweep_with(twin, &thin, &wide, false),
                    want,
                    "avx512, {what}"
                );
            }
            assert_eq!(
                bits(&matmul_tn(&thin, &wide).unwrap()),
                want,
                "dispatch, {what}"
            );
        }
        // `tsmm`'s upper-triangle tiles, and its wide-output path at 129.
        for (k, n) in [(2049, 13), (300, 56), (4100, 100), (2049, 129)] {
            let x = rand_matrix(k, n, -1.0, 1.0, n as u64);
            let want = bits(&matmul_naive(&super::super::reorg::transpose(&x), &x).unwrap());
            let upper: Vec<u64> = (0..n * n)
                .filter(|c| c % n >= c / n)
                .map(|c| want[c])
                .collect();
            assert_eq!(
                sweep_with(&tn_block_body, &x, &x, true),
                upper,
                "portable tsmm {k}x{n}"
            );
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                // SAFETY: AVX-512 was detected just above.
                let twin: &SweepBody =
                    &|ops, k, u, width, acc| unsafe { tn_block_avx512(ops, k, u, width, acc) };
                assert_eq!(sweep_with(twin, &x, &x, true), upper, "avx512 tsmm {k}x{n}");
            }
            for width in [1, 2] {
                let got = exdra_par::with_threads(width, || tsmm(&x, true).unwrap());
                assert_eq!(bits(&got), want, "tsmm {k}x{n}, width {width}");
            }
        }
    }

    #[test]
    fn mmchain_matches_composition() {
        let x = rand_matrix(40, 11, -1.0, 1.0, 7);
        let v = rand_matrix(11, 1, -1.0, 1.0, 8);
        let w = rand_matrix(40, 1, 0.0, 1.0, 9);
        let xt = super::super::reorg::transpose(&x);

        let got = mmchain(&x, &v, None).unwrap();
        let want = matmul_naive(&xt, &matmul_naive(&x, &v).unwrap()).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-9);

        let got_w = mmchain(&x, &v, Some(&w)).unwrap();
        let xv = matmul_naive(&x, &v).unwrap();
        let wxv = w.zip(&xv, "mul", |a, b| a * b).unwrap();
        let want_w = matmul_naive(&xt, &wxv).unwrap();
        assert!(got_w.max_abs_diff(&want_w) < 1e-9);
    }
}
