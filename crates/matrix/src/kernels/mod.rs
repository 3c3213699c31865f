//! Dense kernels backing the Table-1 instruction surface.
//!
//! Modules mirror the paper's operation-type rows:
//!
//! | Table 1 row            | Module |
//! |------------------------|--------|
//! | Matmult (mm/tsmm/mmchain) | [`matmul`] |
//! | Aggregates             | [`aggregates`] |
//! | Unary                  | [`elementwise`] ([`elementwise::unary`]) |
//! | Binary                 | [`elementwise`] (matrix/vector/scalar with broadcasting) |
//! | Ternary                | [`ternary`] (`ctable`, `ifelse`, `+*`, `-*`) |
//! | Quaternary             | [`quaternary`] (`wsloss`, `wsigmoid`, `wdivmm`, `wcemm`) |
//! | Transform/Reorg        | [`reorg`] (`rbind`, `cbind`, `t`, `removeEmpty`, `replace`, `reshape`, indexing) |

use std::ops::Range;

pub mod aggregates;
pub mod elementwise;
pub mod matmul;
pub mod quaternary;
pub mod reorg;
pub mod ternary;

/// Minimum per-chunk work (in multiply-add units) before a kernel fans
/// out across the [`exdra_par`] pool: below this, spawn/steal overhead
/// dominates and the kernels stay single-chunk (= exactly serial).
pub(crate) const PAR_MIN_WORK: usize = 1 << 15;

/// Smallest chunk size (in items) for a kernel whose per-item cost is
/// `cost_per_item` multiply-adds, derived from [`PAR_MIN_WORK`].
pub(crate) fn par_floor(cost_per_item: usize) -> usize {
    (PAR_MIN_WORK / cost_per_item.max(1)).max(1)
}

/// True when the running CPU supports the AVX-512 foundation subset,
/// which is all the hand-vectorized twins use: `matmul`'s micro-tile and
/// row-sweep tile, and the column-group products of [`crate::compress`].
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// The body the hand-vectorized kernels (the row sweep of `t(A) %*% B`,
/// `tsmm` and vector-matrix; the column-group products `X v`, `t(X) Y`
/// and `mmchain`) run on this CPU: `"avx512"` or `"portable"`.
pub fn simd_body() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        return "avx512";
    }
    "portable"
}

/// Rows per block of the one reduction order (DESIGN.md §4f): every
/// sum-type chain over a row index — the shared index of `t(A) %*% B`,
/// `tsmm` and `mmchain`, the depth of `matmul`, the Full and Col
/// aggregates — runs over blocks of this many rows counted from row 0,
/// each block's chain starting from 0.0, and the block partials fold in
/// ascending order starting from block 0's. No thread count, tile or ISA
/// enters the order, so the bits are the same at every width; an input
/// of at most one block is the one chain it always was.
pub const REDUCE_BLOCK_ROWS: usize = 2048;

/// Largest output (in cells) whose row reduction fans out over row
/// blocks, each block computing a whole partial: 128 KiB, so a partial
/// stays in L2 (in L1 for the thin products that dominate: `t(X) y` is
/// 100 cells, K-Means' `t(P) X` 2000). A wider output splits into tiles
/// of at most this many cells, each walking every row block in turn.
pub(crate) const TN_BLOCK_CELLS: usize = 1 << 14;

/// Row block `b` of `0..rows`.
fn row_block(rows: usize, b: usize) -> Range<usize> {
    let lo = b * REDUCE_BLOCK_ROWS;
    lo..(lo + REDUCE_BLOCK_ROWS).min(rows)
}

/// The row blocks of `0..rows`, ascending.
pub(crate) fn row_blocks(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows.div_ceil(REDUCE_BLOCK_ROWS)).map(move |b| row_block(rows, b))
}

/// The row reduction over `0..rows` as a fold of block partials fanned
/// out over the pool: `partial(block)` computes one block's partial from
/// scratch, `merge` folds the next one into the running total, in block
/// order (`exdra_par::fold_in_order`). `work_per_row` (multiply-adds)
/// sizes the jobs: light rows batch several blocks per job. `None` when
/// `rows` is 0.
pub(crate) fn fold_row_blocks<P: Send>(
    rows: usize,
    work_per_row: usize,
    partial: impl Fn(Range<usize>) -> P + Sync,
    merge: impl Fn(&mut P, P) + Sync,
) -> Option<P> {
    let blocks_per_job = par_floor(REDUCE_BLOCK_ROWS * work_per_row);
    exdra_par::fold_in_order(
        rows.div_ceil(REDUCE_BLOCK_ROWS),
        blocks_per_job,
        |b| partial(row_block(rows, b)),
        merge,
    )
}

/// The same reduction walked serially into one output tile: `step(block,
/// acc)` extends `acc`'s chains over one block's rows. Block 0 runs
/// straight into `acc` (zeros on entry); every later block starts a
/// partial from zeros and adds it into `acc` cell by cell.
pub(crate) fn fold_blocks_into(
    rows: usize,
    acc: &mut [f64],
    mut step: impl FnMut(Range<usize>, &mut [f64]),
) {
    let mut part = Vec::new();
    for (b, block) in row_blocks(rows).enumerate() {
        if b == 0 {
            step(block, acc);
        } else {
            part.clear();
            part.resize(acc.len(), 0.0);
            step(block, &mut part);
            for (a, p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
        }
    }
}

/// `total += part`, cell by cell: the fold of two f64 block partials,
/// typed to be [`fold_row_blocks`]'s `merge` for `Vec` partials.
#[allow(clippy::ptr_arg)]
pub(crate) fn add_into(total: &mut Vec<f64>, part: Vec<f64>) {
    for (t, p) in total.iter_mut().zip(part) {
        *t += p;
    }
}
