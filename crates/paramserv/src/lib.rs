#![warn(missing_docs)]
//! # exdra-paramserv
//!
//! Data-parallel parameter servers (paper §4.3): the classic architecture —
//! a server holding the model, workers computing mini-batch gradients over
//! disjoint partitions — in two deployments:
//!
//! * [`local`] — multi-threaded in-process workers (SystemDS' local PS),
//! * [`fed`] — the *federated* parameter server: workers are the standing
//!   federated sites; gradient/update functions are installed at setup
//!   (shipped by name over `EXEC_UDF`); per-epoch synchronization exchanges
//!   only models/gradients, never raw data.
//!
//! [`balance`] implements the paper's imbalance handling: replication of
//! small partitions with adjusted aggregation weights.

pub mod balance;
pub mod fed;
pub mod local;

use exdra_matrix::rng::rand_permutation;
use exdra_matrix::{DenseMatrix, MatrixError};
use exdra_ml::nn::{Network, Sgd};

/// Update strategy (paper: `utype`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateType {
    /// Bulk-synchronous parallel: the server waits for all workers each
    /// synchronization round.
    Bsp,
    /// Asynchronous parallel: updates apply as they arrive.
    Asp,
}

/// Partial-failure tolerance of the synchronization barrier (federated
/// deployments only; local workers share the coordinator's fate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregationMode {
    /// Every partition must contribute each round; any worker failure
    /// aborts training (exact BSP semantics).
    Strict,
    /// Straggler/failure tolerant: a round commits once partitions
    /// carrying at least `min_weight` of the total aggregation weight
    /// have contributed. Failed partitions are skipped for the round and
    /// the surviving weights renormalized; skipped contributions are
    /// counted in [`local::PsRun::skipped_updates`].
    Quorum {
        /// Minimum contributed weight fraction in `(0, 1]`.
        min_weight: f64,
    },
}

/// Parameter-server configuration (the `paramserv(...)` argument list).
#[derive(Debug, Clone, Copy)]
pub struct PsConfig {
    /// Update strategy. Workers push their accrued update once per epoch.
    pub update_type: UpdateType,
    /// Number of passes over the (local) data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// SGD momentum coefficient.
    pub momentum: f64,
    /// Nesterov momentum flag.
    pub nesterov: bool,
    /// Shuffle/init seed.
    pub seed: u64,
    /// Partial-failure tolerance of each synchronization round.
    pub aggregation: AggregationMode,
    /// Stale-synchronous bound for [`UpdateType::Asp`]: a partition at
    /// epoch `e` blocks until every active partition has completed at
    /// least epoch `e - bound`. `None` (the default) is fully
    /// asynchronous; `Some(0)` degenerates to BSP-like lockstep. Ignored
    /// under [`UpdateType::Bsp`], whose barrier is already exact.
    pub max_staleness: Option<usize>,
}

impl Default for PsConfig {
    fn default() -> Self {
        Self {
            update_type: UpdateType::Bsp,
            epochs: 5,
            batch_size: 64,
            lr: 0.05,
            momentum: 0.9,
            nesterov: true,
            seed: 42,
            aggregation: AggregationMode::Strict,
            max_staleness: None,
        }
    }
}

/// One worker's epoch, local or federated: mini-batch SGD from `snapshot`
/// over `(x, y)` in the order of the permutation drawn from `seed` (local
/// shuffling only, §4.3). Returns the model delta and the mean batch loss.
/// Each batch is gathered into one pair of buffers every batch reuses.
pub(crate) fn epoch(
    net: &Network,
    snapshot: &[DenseMatrix],
    x: &DenseMatrix,
    y: &DenseMatrix,
    cfg: &PsConfig,
    seed: u64,
) -> exdra_matrix::Result<(Vec<DenseMatrix>, f64)> {
    if cfg.batch_size == 0 || y.rows() != x.rows() {
        return Err(MatrixError::InvalidArgument {
            op: "ps epoch",
            msg: format!("batch {}, rows {}/{}", cfg.batch_size, x.rows(), y.rows()),
        });
    }
    let mut local = snapshot.to_vec();
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.nesterov);
    let mut net = net.clone();
    let perm = rand_permutation(x.rows(), seed);
    let (mut x_buf, mut y_buf) = (Vec::new(), Vec::new());
    let mut total = 0.0;
    let mut batches = 0usize;
    for rows in perm.values().chunks(cfg.batch_size) {
        let xb = gather(x, rows, &mut x_buf)?;
        let yb = gather(y, rows, &mut y_buf)?;
        net.set_params(&local)?;
        let (loss, grads) = net.loss_grad(&xb, &yb)?;
        sgd.step(&mut local, &grads);
        total += loss;
        batches += 1;
        x_buf = xb.into_values();
        y_buf = yb.into_values();
    }
    Ok((model_delta(&local, snapshot), total / batches.max(1) as f64))
}

/// The rows `rows` (1-based, as a permutation holds them) of `m`, written
/// into `buf`'s allocation.
fn gather(m: &DenseMatrix, rows: &[f64], buf: &mut Vec<f64>) -> exdra_matrix::Result<DenseMatrix> {
    buf.clear();
    for &r in rows {
        buf.extend_from_slice(m.row(r as usize - 1));
    }
    DenseMatrix::new(rows.len(), m.cols(), std::mem::take(buf))
}

/// Weighted in-place model aggregation: `acc += weight * delta`.
pub(crate) fn axpy_model(acc: &mut [DenseMatrix], delta: &[DenseMatrix], weight: f64) {
    for (a, d) in acc.iter_mut().zip(delta) {
        for (av, &dv) in a.values_mut().iter_mut().zip(d.values()) {
            *av += weight * dv;
        }
    }
}

/// Element-wise model difference `a - b`.
pub(crate) fn model_delta(a: &[DenseMatrix], b: &[DenseMatrix]) -> Vec<DenseMatrix> {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.zip(y, "delta", |p, q| p - q).expect("aligned models"))
        .collect()
}
