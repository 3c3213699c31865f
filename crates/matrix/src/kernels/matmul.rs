//! Matrix multiplication kernels: `mm`, `tsmm` (transpose-self), and
//! `mmchain` (the fused `Xᵀ (w ⊙ (X v))` pattern used by LM and MLogReg).
//!
//! The general kernel is a cache- and register-blocked GEMM (DESIGN.md
//! §4k): `lhs` micro-panels and `rhs` column panels are packed into
//! contiguous buffers, tiled over `k` in [`KC`]-deep slabs, and reduced by
//! a fully-unrolled [`MR`]`x`[`NR`] register micro-tile (a ragged edge
//! tile is a full tile on zero-padded lanes). Every output cell still
//! accumulates its `a*b` terms as one left-to-right chain in k-ascending
//! order — blocking changes *where* the operands come from, never the
//! order they are added — so the result is bitwise identical to
//! [`matmul_naive`] at every thread count (the PR 4 determinism
//! contract). `t(A) %*% B` and `tsmm` are row sweeps over the shared row
//! index instead, with the same per-cell chain.
//!
//! The hot bodies are compiled twice: once for the portable baseline and
//! once with AVX2 enabled (plus a hand-vectorized AVX-512 micro-tile),
//! selected by runtime CPU detection. The wide paths perform the exact
//! same lane-wise multiplies and adds — no fused multiply-add is ever
//! emitted — so every dispatch target rounds identically; the proptest
//! oracle suite pins all of them to `matmul_naive` bit for bit.

// Parallel-array index loops are intentional in the hot kernels below:
// iterator zips over 3+ arrays obscure the access pattern.
#![allow(clippy::needless_range_loop)]

use super::par_floor;
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

/// True when the running CPU supports the AVX-512 foundation subset,
/// which is all [`micro_tile_avx512`] uses.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
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
/// k-ascending order with the output cell carried through the slabs, so
/// the result is bitwise identical to [`matmul_naive`] at any thread
/// count and any block geometry.
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
            matvec_chunk(lv, rv, k, row0, chunk);
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

/// One parallel chunk of the matrix-vector fast path.
#[inline(always)]
fn matvec_chunk_body(lv: &[f64], rv: &[f64], k: usize, row0: usize, chunk: &mut [f64]) {
    for (d, o) in chunk.iter_mut().enumerate() {
        let lrow = &lv[(row0 + d) * k..(row0 + d + 1) * k];
        let mut acc = 0.0;
        for (a, b) in lrow.iter().zip(rv) {
            acc += a * b;
        }
        *o = acc;
    }
}
avx2_twin!(matvec_chunk / matvec_chunk_avx2 => matvec_chunk_body(
    lv: &[f64], rv: &[f64], k: usize, row0: usize, chunk: &mut [f64]
));

/// One parallel chunk of the blocked GEMM: pack the rhs slab into
/// NR-wide column panels, each MR-row lhs micro-panel depth-major, and
/// reduce with the register micro-tile, carrying output cells through
/// the k-slabs.
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
    for kb in (0..k).step_by(KC) {
        let kc = (kb + KC).min(k) - kb;
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
                    let orow = &ochunk[(ip + i) * n + j0..];
                    acc[i][..nr].copy_from_slice(&orow[..nr]);
                }
                // An edge tile is a full tile on the padded lanes: only
                // its live `mr x nr` cells are stored.
                micro_tile(kc, &apack, bp, &mut acc);
                for i in 0..mr {
                    let orow = &mut ochunk[(ip + i) * n + j0..];
                    orow[..nr].copy_from_slice(&acc[i][..nr]);
                }
            }
        }
    }
}
avx2_twin!(gemm_chunk / gemm_chunk_avx2 => gemm_chunk_body(
    lv: &[f64], rv: &[f64], k: usize, n: usize, npanels: usize, i0: usize, ochunk: &mut [f64]
));

/// Largest output block (in cells) one row sweep accumulates into:
/// 128 KiB, so the block every shared-index row updates stays L2-resident
/// (and L1-resident for the thin products that dominate: `t(X) y` is 100
/// cells, K-Means' `t(P) X` 2000).
const TN_BLOCK_CELLS: usize = 1 << 14;

/// Transposed-left matrix multiplication `t(a) %*% b` for `a (k x p)` and
/// `b (k x n)`, without materializing `t(a)`.
///
/// One sweep over the shared row index `r`, ascending: row `r` of `a` and
/// row `r` of `b` add `a[r][i] * b[r][j]` into output cell `(i, j)`. Every
/// cell is therefore the r-ascending chain that
/// `matmul_naive(&transpose(a), b)` builds — bitwise identical to it at
/// every thread count, because parallel chunks split the *output*, never
/// a chain.
///
/// The shapes pick the loop: the inner loop runs along the rows of the
/// wider operand (unit stride, vectorized), the thinner operand supplies
/// the broadcast scalars, and the pool splits the wider operand's
/// columns. With a thin `b` (`t(X) y`, MLogReg's `t(X) R`) that computes
/// the `n x p` transpose of the result block by block, which is stored
/// transposed back; `x * y` commutes bit for bit, so the cells agree.
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
    let strip = strip_len(p.max(n), k * p.min(n));
    tn_strips(av, p, bv, n, k, strip, out);
}

/// [`tn_into`] with the wider operand's columns split into strips of
/// `strip` columns (the parallel unit), each strip cut into output
/// blocks of at most [`TN_BLOCK_CELLS`] cells.
fn tn_strips(av: &[f64], p: usize, bv: &[f64], n: usize, k: usize, strip: usize, out: &mut [f64]) {
    if p == 0 || n == 0 || k == 0 {
        return;
    }
    // `thin` supplies the scalars, `wide` the streamed rows; blocks are
    // (thin columns) x (wide columns), i.e. of `out` or of its transpose.
    let flipped = n < p;
    let (tv, nt, wv, nw) = if flipped {
        (bv, n, av, p)
    } else {
        (av, p, bv, n)
    };
    let width = strip.clamp(1, TN_BLOCK_CELLS);
    let height = (TN_BLOCK_CELLS / width).clamp(1, nt);
    let (col_blocks, row_blocks) = (nw.div_ceil(width), nt.div_ceil(height));
    // Block t starts at thin column i0 and wide column j0, w columns wide.
    let origin = |t: usize| {
        let (i0, j0) = (t / col_blocks * height, t % col_blocks * width);
        (i0, j0, width.min(nw - j0))
    };
    let blocks = exdra_par::map_chunks(col_blocks * row_blocks, 1, |t, _| {
        let (i0, j0, w) = origin(t);
        let mut block = vec![0.0f64; height.min(nt - i0) * w];
        tn_block(&tv[i0..], nt, &wv[j0..], nw, k, w, &mut block);
        block
    });
    for (t, block) in blocks.iter().enumerate() {
        let (i0, j0, w) = origin(t);
        for (di, brow) in block.chunks_exact(w).enumerate() {
            if flipped {
                for (dj, &v) in brow.iter().enumerate() {
                    out[(j0 + dj) * n + i0 + di] = v;
                }
            } else {
                out[(i0 + di) * n + j0..][..w].copy_from_slice(brow);
            }
        }
    }
}

/// One output block of the row sweep: `block[i][j] += Σ_r thin[r][i] *
/// wide[r][j]` with `thin` and `wide` already offset to the block's first
/// column, four shared-index rows per pass with the cell held in a
/// register between its four adds — one term at a time, r ascending, so
/// any split of the output leaves each chain alone.
#[inline(always)]
fn tn_block_body(
    thin: &[f64],
    nt: usize,
    wide: &[f64],
    nw: usize,
    k: usize,
    width: usize,
    block: &mut [f64],
) {
    let mut r = 0;
    while r + 4 <= k {
        let w0 = &wide[r * nw..][..width];
        let w1 = &wide[(r + 1) * nw..][..width];
        let w2 = &wide[(r + 2) * nw..][..width];
        let w3 = &wide[(r + 3) * nw..][..width];
        for (i, orow) in block.chunks_exact_mut(width).enumerate() {
            let (t0, t1, t2, t3) = (
                thin[r * nt + i],
                thin[(r + 1) * nt + i],
                thin[(r + 2) * nt + i],
                thin[(r + 3) * nt + i],
            );
            for (d, o) in orow.iter_mut().enumerate() {
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
            let t = thin[r * nt + i];
            for (o, &w) in orow.iter_mut().zip(wrow) {
                *o += t * w;
            }
        }
        r += 1;
    }
}
avx2_twin!(tn_block / tn_block_avx2 => tn_block_body(
    thin: &[f64], nt: usize, wide: &[f64], nw: usize, k: usize, width: usize, block: &mut [f64]
));

/// Rows of one output block of the triangular sweep (a `16 x 100`
/// accumulator block is 12.5 KiB: L1) and rows of `X` per slab (`64 x 100`
/// is 50 KiB: still in L2 when the job's next block reads it). Heights
/// 8..32 and slabs 32..256 time within the host's noise of each other
/// (DESIGN.md §4k): constants, not knobs.
const TSMM_BLOCK_ROWS: usize = 16;
const TSMM_SLAB_ROWS: usize = 64;

/// Transpose-self matrix multiplication `tsmm`: computes `Xᵀ X` (`left=true`)
/// or `X Xᵀ` (`left=false`) exploiting the symmetry of the result.
///
/// `Xᵀ X` is the [`matmul_tn`] row sweep restricted to the upper
/// triangle: output blocks of `TSMM_BLOCK_ROWS` rows reach from the
/// diagonal to the right edge and are dealt, largest first, to at most
/// one job per pool thread; every job walks `X` **once**, slab by slab,
/// extending its blocks' cells with `tn_block`. `X Xᵀ` is row-dot-row.
/// Either way each upper cell is the r-ascending chain of `matmul_naive`
/// on the materialized transpose at every thread count, and the lower
/// triangle is its mirror.
pub fn tsmm(x: &DenseMatrix, left: bool) -> Result<DenseMatrix> {
    let (m, n) = x.shape();
    let xv = x.values();
    let side = if left { n } else { m };
    let mut out = DenseMatrix::zeros(side, side);
    if left {
        // Deal the blocks, largest first, each to the least-loaded job.
        let njobs = exdra_par::threads().min((m * n * n / 2 / super::PAR_MIN_WORK).max(1));
        let mut jobs = vec![(0usize, Vec::new()); njobs];
        for i0 in (0..n).step_by(TSMM_BLOCK_ROWS) {
            let cells = TSMM_BLOCK_ROWS.min(n - i0) * (n - i0);
            let job = jobs.iter_mut().min_by_key(|j| j.0).expect("njobs >= 1");
            job.0 += cells;
            job.1.push((i0, vec![0.0f64; cells]));
        }
        exdra_par::par_chunks_mut(&mut jobs, 1, |_, _, job| {
            for r0 in (0..m).step_by(TSMM_SLAB_ROWS) {
                let slab = &xv[r0 * n..(r0 + TSMM_SLAB_ROWS).min(m) * n];
                for (i0, block) in &mut job[0].1 {
                    let cols = &slab[*i0..];
                    tn_block(cols, n, cols, n, slab.len() / n, n - *i0, block);
                }
            }
        });
        for &(i0, ref block) in jobs.iter().flat_map(|j| &j.1) {
            for (di, brow) in block.chunks_exact(n - i0).enumerate() {
                out.row_mut(i0 + di)[i0..].copy_from_slice(brow);
            }
        }
    } else {
        let rows_per_chunk = exdra_par::chunk_len(m, par_floor(n * (m / 2 + 1)));
        exdra_par::par_chunks_mut(out.values_mut(), rows_per_chunk * m, |_, cell0, ochunk| {
            for (orow, i) in ochunk.chunks_exact_mut(m).zip(cell0 / m..) {
                let xi = &xv[i * n..][..n];
                for (j, o) in orow.iter_mut().enumerate().skip(i) {
                    *o = xi
                        .iter()
                        .zip(&xv[j * n..])
                        .fold(0.0, |acc, (a, b)| acc + a * b);
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

/// Fused matrix-multiplication chain `Xᵀ (w ⊙ (X v))`.
///
/// With `w = None` this is `Xᵀ (X v)` — the conjugate-gradient inner step of
/// the paper's LM algorithm. The fusion avoids materializing `X v` twice and
/// is the exact `mmchain` instruction of Table 1.
///
/// Both phases unroll by 4 (rows in phase 1, reduction steps in phase 2)
/// without reordering any cell's chain, and phase 2 adds every `q[i]`
/// term unconditionally — no zero-skip — so the compressed-domain
/// `mmchain` (DESIGN.md §4k) can reproduce the chain bit for bit.
///
/// A region that runs as one chunk interleaves the phases over 32-row
/// blocks and reads `X` once (`mmchain_sweep_body`); one large enough
/// to fan out (`strip_len`) runs them back to back across the pool.
/// Same chains, same bits, either way.
pub fn mmchain(x: &DenseMatrix, v: &DenseMatrix, w: Option<&DenseMatrix>) -> Result<DenseMatrix> {
    mmchain_scheduled(x, v, w, false)
}

/// [`mmchain`] on the two-phase schedule whatever the region size: the
/// oracle the one-pass sweep is pinned to, and `kernel_bench`'s other
/// column.
#[doc(hidden)]
pub fn mmchain_two_phase(
    x: &DenseMatrix,
    v: &DenseMatrix,
    w: Option<&DenseMatrix>,
) -> Result<DenseMatrix> {
    mmchain_scheduled(x, v, w, true)
}

fn mmchain_scheduled(
    x: &DenseMatrix,
    v: &DenseMatrix,
    w: Option<&DenseMatrix>,
    two_phase: bool,
) -> Result<DenseMatrix> {
    if x.cols() != v.rows() || v.cols() != 1 {
        return Err(MatrixError::DimensionMismatch {
            op: "mmchain",
            lhs: x.shape(),
            rhs: v.shape(),
        });
    }
    if let Some(w) = w {
        if w.rows() != x.rows() || w.cols() != 1 {
            return Err(MatrixError::DimensionMismatch {
                op: "mmchain",
                lhs: x.shape(),
                rhs: w.shape(),
            });
        }
    }
    let (m, n) = x.shape();
    let vv = v.values();
    let xv = x.values();
    let wv = w.map(|w| w.values());
    let mut out = DenseMatrix::zeros(n, 1);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let strip = strip_len(n, 2 * m);
    if strip >= n && !two_phase {
        // One region chunk: a single sweep over X.
        exdra_par::par_chunks_mut(out.values_mut(), n, |_, _, ochunk| {
            mmchain_sweep(xv, vv, wv, m, n, ochunk);
        });
    } else {
        mmchain_phases(xv, vv, wv, m, n, strip, out.values_mut());
    }
    Ok(out)
}

/// Work (multiply-adds) one strip of a column-split row sweep must carry
/// before the sweep fans out. Far above [`super::PAR_MIN_WORK`]: every
/// strip re-streams all rows of its operand, so splitting a memory-bound
/// sweep buys traffic, not time. Calibrated on the measured width table
/// of DESIGN.md §4k: `t(X) y` and `mmchain` on 40k x 100 (4M / 8M
/// multiply-adds) are fastest as one strip at every width, K-Means'
/// `t(P) X` (80M) and `mmchain` on 200k x 100 (40M) as one strip per
/// thread.
const SWEEP_STRIP_MIN_WORK: usize = 1 << 23;

/// Columns per strip of a column-split row sweep whose every column
/// costs `work_per_col` multiply-adds: one strip per pool thread — strips
/// are the unit of memory traffic, so [`exdra_par::chunk_len`]'s several
/// chunks per thread would each pay a full pass over the rows — and never
/// less than [`SWEEP_STRIP_MIN_WORK`], which keeps small and memory-bound
/// sweeps a single, serial strip.
fn strip_len(cols: usize, work_per_col: usize) -> usize {
    cols.div_ceil(exdra_par::threads())
        .max(SWEEP_STRIP_MIN_WORK.div_ceil(work_per_col.max(1)))
}

/// The two-phase mmchain schedule for regions large enough to fan out:
/// `q = (X v) ⊙ w` over disjoint row blocks, then `out = Xᵀ q` over
/// disjoint column strips of `strip` columns. Two passes over `X`, each
/// shared by the pool.
fn mmchain_phases(
    xv: &[f64],
    vv: &[f64],
    wv: Option<&[f64]>,
    m: usize,
    n: usize,
    strip: usize,
    out: &mut [f64],
) {
    let mut q = vec![0.0; m];
    exdra_par::par_chunks_mut(
        &mut q,
        exdra_par::chunk_len(m, par_floor(n)),
        |_, i0, chunk| {
            mmchain_q_chunk(xv, vv, wv, n, i0, chunk);
        },
    );
    let q = &q;
    exdra_par::par_chunks_mut(out, strip, |_, j0, ochunk| {
        mmchain_xtq_chunk(xv, q, m, n, j0, ochunk);
    });
}

/// Rows per block of the one-pass mmchain sweep: a block of `X`
/// (32 x 100 doubles = 25 KiB) is still in L1 when phase 2 re-reads it.
const MMCHAIN_BLOCK_ROWS: usize = 32;

/// The one-pass mmchain: per row block, phase 1 on the block's rows, then
/// phase 2 of the same rows, `out` carried across blocks. Each `q[i]` and
/// each output cell is the chain the two-phase schedule builds, so the
/// bits are the same — and `X` is read from memory once.
#[inline(always)]
fn mmchain_sweep_body(
    xv: &[f64],
    vv: &[f64],
    wv: Option<&[f64]>,
    m: usize,
    n: usize,
    out: &mut [f64],
) {
    let mut q = [0.0f64; MMCHAIN_BLOCK_ROWS];
    for i0 in (0..m).step_by(MMCHAIN_BLOCK_ROWS) {
        let rows = MMCHAIN_BLOCK_ROWS.min(m - i0);
        mmchain_q_chunk_body(xv, vv, wv, n, i0, &mut q[..rows]);
        mmchain_xtq_chunk_body(&xv[i0 * n..(i0 + rows) * n], &q[..rows], rows, n, 0, out);
    }
}
avx2_twin!(mmchain_sweep / mmchain_sweep_avx2 => mmchain_sweep_body(
    xv: &[f64], vv: &[f64], wv: Option<&[f64]>, m: usize, n: usize, out: &mut [f64]
));

/// One parallel chunk of mmchain phase 1: `q[i] = w[i] * (x[i] · v)`.
#[inline(always)]
fn mmchain_q_chunk_body(
    xv: &[f64],
    vv: &[f64],
    wv: Option<&[f64]>,
    n: usize,
    i0: usize,
    chunk: &mut [f64],
) {
    let rows = chunk.len();
    let mut d = 0;
    while d + 4 <= rows {
        let base = (i0 + d) * n;
        let r0 = &xv[base..base + n];
        let r1 = &xv[base + n..base + 2 * n];
        let r2 = &xv[base + 2 * n..base + 3 * n];
        let r3 = &xv[base + 3 * n..base + 4 * n];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
        for (c, &b) in vv.iter().enumerate() {
            a0 += r0[c] * b;
            a1 += r1[c] * b;
            a2 += r2[c] * b;
            a3 += r3[c] * b;
        }
        if let Some(wv) = wv {
            a0 *= wv[i0 + d];
            a1 *= wv[i0 + d + 1];
            a2 *= wv[i0 + d + 2];
            a3 *= wv[i0 + d + 3];
        }
        chunk[d] = a0;
        chunk[d + 1] = a1;
        chunk[d + 2] = a2;
        chunk[d + 3] = a3;
        d += 4;
    }
    while d < rows {
        let row = &xv[(i0 + d) * n..(i0 + d + 1) * n];
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(vv) {
            acc += a * b;
        }
        if let Some(wv) = wv {
            acc *= wv[i0 + d];
        }
        chunk[d] = acc;
        d += 1;
    }
}
avx2_twin!(mmchain_q_chunk / mmchain_q_chunk_avx2 => mmchain_q_chunk_body(
    xv: &[f64], vv: &[f64], wv: Option<&[f64]>, n: usize, i0: usize, chunk: &mut [f64]
));

/// One parallel chunk of mmchain phase 2: `out[j] += Σ_i q[i]·x[i][j]`.
/// Each out[j] accumulates i-ascending, one term at a time (4 rows per
/// pass, cell held in a register between the adds), so bits match at any
/// split — and match the compressed-domain walk.
#[inline(always)]
fn mmchain_xtq_chunk_body(
    xv: &[f64],
    q: &[f64],
    m: usize,
    n: usize,
    j0: usize,
    ochunk: &mut [f64],
) {
    let width = ochunk.len();
    let mut i = 0;
    while i + 4 <= m {
        let (q0, q1, q2, q3) = (q[i], q[i + 1], q[i + 2], q[i + 3]);
        let r0 = &xv[i * n + j0..i * n + j0 + width];
        let r1 = &xv[(i + 1) * n + j0..(i + 1) * n + j0 + width];
        let r2 = &xv[(i + 2) * n + j0..(i + 2) * n + j0 + width];
        let r3 = &xv[(i + 3) * n + j0..(i + 3) * n + j0 + width];
        for (d, o) in ochunk.iter_mut().enumerate() {
            let mut t = *o;
            t += q0 * r0[d];
            t += q1 * r1[d];
            t += q2 * r2[d];
            t += q3 * r3[d];
            *o = t;
        }
        i += 4;
    }
    while i < m {
        let qi = q[i];
        let seg = &xv[i * n + j0..i * n + j0 + width];
        for (o, &a) in ochunk.iter_mut().zip(seg) {
            *o += qi * a;
        }
        i += 1;
    }
}
avx2_twin!(mmchain_xtq_chunk / mmchain_xtq_chunk_avx2 => mmchain_xtq_chunk_body(
    xv: &[f64], q: &[f64], m: usize, n: usize, j0: usize, ochunk: &mut [f64]
));

/// Naive triple-loop reference used by tests to validate the tiled kernel.
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
            let mut acc = 0.0;
            for kk in 0..k {
                acc += lhs.get(i, kk) * rhs.get(kk, j);
            }
            out.set(i, j, acc);
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
            (64, 130, 130, 7), // 16,900 cells: more than one output block
        ] {
            let a = rand_matrix(k, p, -1.0, 1.0, seed);
            let b = rand_matrix(k, n, -1.0, 1.0, seed + 100);
            let want = matmul_naive(&super::super::reorg::transpose(&a), &b).unwrap();
            let got = matmul_tn(&a, &b).unwrap();
            assert_eq!(got.shape(), (p, n));
            assert_eq!(bits(&got), bits(&want), "{k}x{p} / {k}x{n}");
            // Any strip width splits the output, never a chain.
            for strip in [1, 7, 64] {
                let mut out = DenseMatrix::zeros(p, n);
                tn_strips(a.values(), p, b.values(), n, k, strip, out.values_mut());
                assert_eq!(bits(&out), bits(&want), "{k}x{p} / {k}x{n} strip {strip}");
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
        // Rows on and off the 32-row block and the 4-row unroll.
        for m in [1, 31, 32, 33, 100, 131] {
            let n = 13;
            let x = rand_matrix(m, n, -1.0, 1.0, 21);
            let v = rand_matrix(n, 1, -1.0, 1.0, 22);
            let w = rand_matrix(m, 1, 0.0, 1.0, 23);
            for w in [None, Some(&w)] {
                let wv = w.map(|w| w.values());
                let got = mmchain(&x, &v, w).unwrap();
                for strip in [1, 5, n] {
                    let mut want = DenseMatrix::zeros(n, 1);
                    mmchain_phases(x.values(), v.values(), wv, m, n, strip, want.values_mut());
                    assert_eq!(bits(&got), bits(&want), "m {m} strip {strip}");
                }
            }
        }
    }

    #[test]
    fn sweeps_fan_out_only_above_the_strip_floor() {
        exdra_par::with_threads(4, || {
            // 4M multiply-adds: t(X) y on 40k x 100 stays one strip.
            assert!(strip_len(100, 40_000) >= 100);
            // 80M: K-Means' t(P) X splits one strip per thread.
            assert_eq!(strip_len(100, 40_000 * 20), 25);
            // 40M across 4 threads: 10M per strip clears the 8M floor.
            assert_eq!(strip_len(100, 2 * 200_000), 25);
        });
        exdra_par::with_threads(1, || assert_eq!(strip_len(100, usize::MAX / 4), 100));
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
