//! Local, multi-threaded parameter server (the `Local` FFN/CNN baseline):
//! data is partitioned horizontally among in-process workers; a shared
//! server model is updated under BSP (per-epoch barrier) or ASP.

use std::sync::Arc;

use exdra_matrix::kernels::reorg;
use exdra_matrix::{DenseMatrix, Result};
use parking_lot::Mutex;

use exdra_ml::nn::Network;

use crate::{axpy_model, PsConfig, UpdateType};

/// Result of a parameter-server training run.
#[derive(Debug, Clone)]
pub struct PsRun {
    /// Final model parameters.
    pub params: Vec<DenseMatrix>,
    /// Mean training loss per epoch, as reported by the workers.
    pub epoch_losses: Vec<f64>,
    /// Per-partition epoch contributions skipped by quorum aggregation
    /// (always 0 for local runs and strict federated runs).
    pub skipped_updates: usize,
    /// Largest epoch lag observed between the fastest and slowest active
    /// partition at any update-apply point. Always 0 for BSP (the barrier
    /// is exact) and for local runs; under federated ASP it measures the
    /// realized staleness, which [`crate::PsConfig::max_staleness`]
    /// mechanically bounds when set.
    pub max_observed_staleness: usize,
}

/// Runs the local multi-threaded parameter server over `parts` disjoint
/// `(X, y_onehot)` partitions.
pub fn train(net: &Network, parts: &[(DenseMatrix, DenseMatrix)], cfg: &PsConfig) -> Result<PsRun> {
    assert!(!parts.is_empty(), "at least one worker partition");
    let total_rows: usize = parts.iter().map(|(x, _)| x.rows()).sum();
    let weights: Vec<f64> = parts
        .iter()
        .map(|(x, _)| x.rows() as f64 / total_rows as f64)
        .collect();
    let model = Arc::new(Mutex::new(net.params()));
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    match cfg.update_type {
        UpdateType::Bsp => {
            for epoch in 0..cfg.epochs {
                let snapshot = model.lock().clone();
                let mut results: Vec<Result<(Vec<DenseMatrix>, f64)>> = Vec::new();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = parts
                        .iter()
                        .map(|(x, y)| {
                            let snap = &snapshot;
                            let seed = cfg.seed.wrapping_add(epoch as u64);
                            scope.spawn(move || crate::epoch(net, snap, x, y, cfg, seed))
                        })
                        .collect();
                    for h in handles {
                        results.push(h.join().expect("worker thread"));
                    }
                });
                let mut new_model = snapshot.clone();
                let mut loss = 0.0;
                for (w, r) in weights.iter().zip(results) {
                    let (delta, l) = r?;
                    axpy_model(&mut new_model, &delta, *w);
                    loss += w * l;
                }
                *model.lock() = new_model;
                epoch_losses.push(loss);
            }
        }
        UpdateType::Asp => {
            // Each worker loops epochs independently, applying its deltas
            // to the shared model as they complete (no barrier).
            let losses = Arc::new(Mutex::new(vec![0.0f64; cfg.epochs]));
            std::thread::scope(|scope| {
                for (wi, (x, y)) in parts.iter().enumerate() {
                    let model = Arc::clone(&model);
                    let losses = Arc::clone(&losses);
                    let weight = weights[wi];
                    scope.spawn(move || {
                        for epoch in 0..cfg.epochs {
                            let snapshot = model.lock().clone();
                            let seed = cfg.seed.wrapping_add(epoch as u64);
                            if let Ok((delta, l)) = crate::epoch(net, &snapshot, x, y, cfg, seed) {
                                let mut m = model.lock();
                                axpy_model(&mut m, &delta, weight);
                                losses.lock()[epoch] += weight * l;
                            }
                        }
                    });
                }
            });
            epoch_losses = Arc::try_unwrap(losses)
                .map(|m| m.into_inner())
                .unwrap_or_default();
        }
    }
    let params = Arc::try_unwrap(model)
        .map(|m| m.into_inner())
        .unwrap_or_else(|m| m.lock().clone());
    Ok(PsRun {
        params,
        epoch_losses,
        skipped_updates: 0,
        max_observed_staleness: 0,
    })
}

/// Splits `(X, y)` into `k` contiguous row partitions (shuffled first when
/// `shuffle_seed` is set) — the standard PS data partitioner.
pub fn partition(
    x: &DenseMatrix,
    y: &DenseMatrix,
    k: usize,
    shuffle_seed: Option<u64>,
) -> Result<Vec<(DenseMatrix, DenseMatrix)>> {
    // Each part is one gather (of its range of the permutation, when
    // shuffled): no shuffled copy of the whole input is made.
    let perm = shuffle_seed.map(|seed| exdra_matrix::rng::rand_permutation(x.rows(), seed));
    let take = |m: &DenseMatrix, lo, hi| match &perm {
        Some(perm) => reorg::gather_rows(m, &reorg::index(perm, lo, hi, 0, 1)?),
        None => reorg::index(m, lo, hi, 0, m.cols()),
    };
    let (base, extra) = (x.rows() / k, x.rows() % k);
    let mut out = Vec::with_capacity(k);
    let mut lo = 0usize;
    for i in 0..k {
        let hi = lo + base + usize::from(i < extra);
        out.push((take(x, lo, hi)?, take(y, lo, hi)?));
        lo = hi;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_ml::scoring::accuracy;
    use exdra_ml::synth;

    #[test]
    fn bsp_trains_ffn_to_high_accuracy() {
        let (x, y) = synth::multi_class(600, 6, 3, 0.4, 91);
        let y1h = synth::one_hot(&y, 3);
        let net = Network::ffn(6, &[16], 3, 92);
        let parts = partition(&x, &y1h, 3, Some(1)).unwrap();
        let run = train(
            &net,
            &parts,
            &PsConfig {
                epochs: 12,
                ..PsConfig::default()
            },
        )
        .unwrap();
        assert_eq!(run.epoch_losses.len(), 12);
        assert!(run.epoch_losses[11] < run.epoch_losses[0] * 0.5);
        let mut trained = net.clone();
        trained.set_params(&run.params).unwrap();
        let pred = trained.predict(&x).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.9);
    }

    #[test]
    fn asp_also_converges() {
        let (x, y) = synth::multi_class(400, 5, 2, 0.4, 93);
        let y1h = synth::one_hot(&y, 2);
        let net = Network::ffn(5, &[12], 2, 94);
        let parts = partition(&x, &y1h, 2, Some(2)).unwrap();
        let run = train(
            &net,
            &parts,
            &PsConfig {
                update_type: UpdateType::Asp,
                epochs: 10,
                ..PsConfig::default()
            },
        )
        .unwrap();
        let mut trained = net.clone();
        trained.set_params(&run.params).unwrap();
        let pred = trained.predict(&x).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.85);
    }

    #[test]
    fn epoch_rejects_a_zero_batch_and_misaligned_labels() {
        let (x, y) = synth::multi_class(40, 3, 2, 0.5, 98);
        let y1h = synth::one_hot(&y, 2);
        let net = Network::ffn(3, &[4], 2, 99);
        let zero = PsConfig {
            batch_size: 0,
            ..PsConfig::default()
        };
        assert!(crate::epoch(&net, &net.params(), &x, &y1h, &zero, 1).is_err());
        let short = reorg::index(&y1h, 0, 39, 0, 2).unwrap();
        let cfg = PsConfig::default();
        assert!(crate::epoch(&net, &net.params(), &x, &short, &cfg, 1).is_err());
    }

    #[test]
    fn partition_covers_all_rows() {
        let (x, y) = synth::multi_class(103, 4, 2, 0.5, 95);
        let y1h = synth::one_hot(&y, 2);
        let parts = partition(&x, &y1h, 4, None).unwrap();
        assert_eq!(parts.len(), 4);
        let rows: usize = parts.iter().map(|(p, _)| p.rows()).sum();
        assert_eq!(rows, 103);
        assert_eq!(parts[0].0.rows(), 26); // 103 = 26 + 26 + 26 + 25
        assert_eq!(parts[3].0.rows(), 25);
    }

    #[test]
    fn single_worker_bsp_equals_sequential_sgd() {
        let (x, y) = synth::multi_class(200, 4, 2, 0.5, 96);
        let y1h = synth::one_hot(&y, 2);
        let net = Network::ffn(4, &[8], 2, 97);
        let cfg = PsConfig {
            epochs: 3,
            seed: 5,
            ..PsConfig::default()
        };
        let run = train(&net, &[(x.clone(), y1h.clone())], &cfg).unwrap();
        // Sequential reference with the same shuffling per epoch.
        let mut params = net.params();
        let mut netc = net.clone();
        for epoch in 0..cfg.epochs {
            let snapshot = params.clone();
            let seed = cfg.seed.wrapping_add(epoch as u64);
            let (delta, _) = crate::epoch(&netc, &snapshot, &x, &y1h, &cfg, seed).unwrap();
            axpy_model(&mut params, &delta, 1.0);
        }
        netc.set_params(&params).unwrap();
        for (a, b) in run.params.iter().zip(&params) {
            assert!(a.max_abs_diff(b) < 1e-12);
        }
    }
}
