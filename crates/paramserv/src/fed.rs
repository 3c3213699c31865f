//! The federated parameter server (paper §4.3).
//!
//! Architecture: the server runs at the coordinator; workers at the
//! federated sites compute gradients on their private partitions. "During
//! setup, we serialize the gradient and update functions and send them to
//! the workers" — here the functions are installed by name
//! ([`install_ps_udf`], see DESIGN.md §4 on the substitution) and invoked
//! through `EXEC_UDF` requests. "Depending on the update frequency, the
//! model is updated at the worker, and after a fixed number of batches,
//! the accrued gradients are sent to the server for aggregation."
//!
//! Only models and model deltas cross the network; the raw federated
//! partitions never do.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use exdra_core::coordinator::expect_data;
use exdra_core::fed::FedMatrix;
use exdra_core::protocol::Request;
use exdra_core::udf::Udf;
use exdra_core::worker::Worker;
use exdra_core::{DataValue, FedContext, Result, RuntimeError};
use exdra_matrix::kernels::reorg;
use exdra_matrix::{DenseMatrix, Matrix};

use exdra_ml::nn::{Network, Sgd};

use crate::balance::BalancePlan;
use crate::local::PsRun;
use crate::{axpy_model, model_delta, AggregationMode, PsConfig, UpdateType};

/// Registry name of the parameter-server epoch function.
pub const PS_EPOCH_UDF: &str = "ps.epoch";

fn model_to_value(model: &[DenseMatrix]) -> DataValue {
    DataValue::List(
        model
            .iter()
            .map(|m| DataValue::Matrix(Matrix::Dense(m.clone())))
            .collect(),
    )
}

fn value_to_model(v: &DataValue) -> Result<Vec<DenseMatrix>> {
    match v {
        DataValue::List(items) => items.iter().map(|i| i.to_dense()).collect(),
        other => Err(RuntimeError::Invalid(format!(
            "expected model list, found {}",
            other.type_name()
        ))),
    }
}

/// Installs the gradient/update function on a worker (the setup-time
/// function shipment of §4.3). The network architecture is captured; model
/// parameters arrive with every invocation.
pub fn install_ps_udf(worker: &Worker, net: Network) {
    worker.register_udf(
        PS_EPOCH_UDF,
        Arc::new(move |symbols, args| {
            // symbols: [X partition, y one-hot partition]
            // args: [model list, lr, momentum, nesterov, batch_size,
            //        seed high half, seed low half] — an f64 scalar holds
            // 32 bits exactly, a whole u64 seed it would round.
            if symbols.len() != 2 || args.len() != 7 {
                return Err(RuntimeError::Invalid(format!(
                    "ps.epoch: expected 2 symbols + 7 args, got {} + {}",
                    symbols.len(),
                    args.len()
                )));
            }
            let x = symbols[0].to_dense()?;
            let y = symbols[1].to_dense()?;
            let snapshot = value_to_model(&args[0])?;
            let lr = args[1].as_scalar()?;
            let momentum = args[2].as_scalar()?;
            let nesterov = args[3].as_scalar()? != 0.0;
            let batch_size = args[4].as_scalar()? as usize;
            let seed = ((args[5].as_scalar()? as u64) << 32) | args[6].as_scalar()? as u64;

            let mut local = snapshot.clone();
            let mut sgd = Sgd::new(lr, momentum, nesterov);
            let mut net = net.clone();
            let n = x.rows();
            // Local shuffling only — the raw rows never leave the site.
            let perm = exdra_matrix::rng::rand_permutation(n, seed);
            let xs = reorg::gather_rows(&x, &perm)?;
            let ys = reorg::gather_rows(&y, &perm)?;
            let mut total = 0.0;
            let mut batches = 0usize;
            let mut lo = 0usize;
            while lo < n {
                let hi = (lo + batch_size).min(n);
                let xb = reorg::index(&xs, lo, hi, 0, xs.cols())?;
                let yb = reorg::index(&ys, lo, hi, 0, ys.cols())?;
                net.set_params(&local)?;
                let (loss, grads) = net.loss_grad(&xb, &yb)?;
                sgd.step(&mut local, &grads);
                total += loss;
                batches += 1;
                lo = hi;
            }
            let delta = model_delta(&local, &snapshot);
            Ok(Some(DataValue::List(vec![
                model_to_value(&delta),
                DataValue::Scalar(total / batches.max(1) as f64),
            ])))
        }),
    );
}

/// Labels aligned with a row-partitioned federated matrix: per-partition
/// label symbol IDs at the workers.
pub struct FedLabels {
    /// `(worker, symbol id)` per partition, in partition order.
    pub ids: Vec<(usize, u64)>,
}

/// Scatters coordinator-local one-hot labels to the workers, sliced to
/// align with the federated feature partitions.
pub fn scatter_labels(x: &FedMatrix, y_onehot: &DenseMatrix) -> Result<FedLabels> {
    if y_onehot.rows() != x.rows() {
        return Err(RuntimeError::Invalid(format!(
            "labels have {} rows, features {}",
            y_onehot.rows(),
            x.rows()
        )));
    }
    let ctx = x.ctx();
    let mut ids = Vec::with_capacity(x.parts().len());
    let mut batches = vec![Vec::new(); ctx.num_workers()];
    for p in x.parts() {
        let id = ctx.fresh_id();
        let slice = reorg::index(y_onehot, p.lo, p.hi, 0, y_onehot.cols())?;
        batches[p.worker].push(Request::Put {
            id,
            data: DataValue::from(slice),
            privacy: x.privacy(),
        });
        ids.push((p.worker, id));
    }
    let responses = ctx.call_all(batches)?;
    for (w, rs) in responses.iter().enumerate() {
        for r in rs {
            exdra_core::coordinator::expect_ok(r, w)?;
        }
    }
    Ok(FedLabels { ids })
}

/// Applies a balancing plan at the workers: replicates partitions in place
/// (fresh symbol IDs) per [`BalancePlan::replication`]. Returns the new
/// feature/label IDs per partition.
pub fn apply_balance(
    x: &FedMatrix,
    labels: &FedLabels,
    plan: &BalancePlan,
) -> Result<Vec<(usize, u64, u64)>> {
    let ctx = x.ctx();
    let mut out = Vec::with_capacity(x.parts().len());
    let mut batches = vec![Vec::new(); ctx.num_workers()];
    for (i, p) in x.parts().iter().enumerate() {
        let times = plan.replication[i] as u64;
        let (_, y_id) = labels.ids[i];
        if times <= 1 {
            out.push((p.worker, p.id, y_id));
            continue;
        }
        let new_x = ctx.fresh_id();
        let new_y = ctx.fresh_id();
        batches[p.worker].push(Request::ExecUdf {
            udf: Udf::Replicate {
                x: p.id,
                y: Some(y_id),
                times,
                out_x: new_x,
                out_y: Some(new_y),
            },
        });
        out.push((p.worker, new_x, new_y));
    }
    let responses = ctx.call_all(batches)?;
    for (w, rs) in responses.iter().enumerate() {
        for r in rs {
            exdra_core::coordinator::expect_ok(r, w)?;
        }
    }
    Ok(out)
}

/// True for failures quorum aggregation may skip: transport trouble and
/// dead workers, never data/protocol errors (those indicate a bug, not a
/// straggler).
fn quorum_tolerable(e: &RuntimeError) -> bool {
    e.is_transient() || matches!(e, RuntimeError::WorkerDead { .. })
}

/// Shared stale-synchronous state for the ASP arm: per-partition epoch
/// progress plus an active mask (a partition that finished, errored, or
/// dropped out under quorum must stop holding the minimum down).
/// Uses `std::sync` primitives because the gate needs a condvar.
struct SspState {
    /// Epochs completed per partition.
    progress: Vec<usize>,
    /// Whether the partition still participates in the staleness minimum.
    active: Vec<bool>,
}

impl SspState {
    /// Minimum completed epoch across active partitions; `None` when no
    /// partition is active any more (then nothing can be gated on).
    fn min_active_progress(&self) -> Option<usize> {
        self.progress
            .iter()
            .zip(&self.active)
            .filter(|&(_, &a)| a)
            .map(|(&p, _)| p)
            .min()
    }
}

/// Deactivates its partition in the SSP state on drop — every exit path
/// of a partition thread (finish, error, quorum drop-out, panic) must
/// wake gated siblings or they would wait on a dead minimum forever.
struct SspGuard<'a> {
    ssp: &'a (std::sync::Mutex<SspState>, std::sync::Condvar),
    slot: usize,
}

impl Drop for SspGuard<'_> {
    fn drop(&mut self) {
        let mut st = self
            .ssp
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.active[self.slot] = false;
        drop(st);
        self.ssp.1.notify_all();
    }
}

/// Trains a network with the federated parameter server over a
/// row-partitioned federated feature matrix and aligned federated labels.
///
/// `weights` are the per-partition aggregation weights (see
/// [`crate::balance::plan`]); they must sum to 1.
///
/// Under [`AggregationMode::Quorum`], a round tolerates worker failures
/// as long as surviving partitions carry at least the configured weight
/// fraction; their weights are renormalized for the round and the number
/// of skipped per-partition contributions is reported in
/// [`PsRun::skipped_updates`].
pub fn train(
    ctx: &Arc<FedContext>,
    data_ids: &[(usize, u64, u64)],
    net: &Network,
    cfg: &PsConfig,
    weights: &[f64],
) -> Result<PsRun> {
    if data_ids.is_empty() || data_ids.len() != weights.len() {
        return Err(RuntimeError::Invalid(
            "data ids and weights must be non-empty and aligned".into(),
        ));
    }
    if let AggregationMode::Quorum { min_weight } = cfg.aggregation {
        if !(min_weight > 0.0 && min_weight <= 1.0) {
            return Err(RuntimeError::Invalid(format!(
                "quorum min_weight must be in (0, 1], got {min_weight}"
            )));
        }
    }
    let model = Arc::new(Mutex::new(net.params()));
    let mut skipped_updates = 0usize;
    let mut max_observed_staleness = 0usize;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let make_udf = |snapshot: &[DenseMatrix], epoch: usize| {
        let seed = cfg.seed.wrapping_add(epoch as u64);
        Udf::Registered {
            name: PS_EPOCH_UDF.into(),
            args: vec![
                model_to_value(snapshot),
                DataValue::Scalar(cfg.lr),
                DataValue::Scalar(cfg.momentum),
                DataValue::Scalar(if cfg.nesterov { 1.0 } else { 0.0 }),
                DataValue::Scalar(cfg.batch_size as f64),
                DataValue::Scalar((seed >> 32) as f64),
                DataValue::Scalar((seed & 0xFFFF_FFFF) as f64),
            ],
            arg_ids: vec![],
            out: None,
        }
    };

    let obs_on = exdra_obs::enabled();
    let mut train_span = exdra_obs::span(exdra_obs::SpanKind::ParamServ, "ps.train");
    if train_span.is_active() {
        train_span.attr(
            "mode",
            match cfg.update_type {
                UpdateType::Bsp => "bsp",
                UpdateType::Asp => "asp",
            },
        );
        train_span.attr("epochs", cfg.epochs);
        train_span.attr("partitions", data_ids.len());
    }

    match cfg.update_type {
        UpdateType::Bsp => {
            for epoch in 0..cfg.epochs {
                let mut epoch_span = exdra_obs::span(exdra_obs::SpanKind::ParamServ, "ps.epoch");
                epoch_span.attr("epoch", epoch);
                let skipped_before = skipped_updates;

                // Push phase: snapshot the model and build the per-worker
                // epoch UDF batches (model serialization cost).
                let t_push = obs_on.then(Instant::now);
                let snapshot = model.lock().clone();
                // One server thread per worker (via parallel call_all).
                let mut batches = vec![Vec::new(); ctx.num_workers()];
                let mut slots = Vec::with_capacity(data_ids.len());
                for &(worker, x_id, y_id) in data_ids {
                    let mut udf = make_udf(&snapshot, epoch);
                    if let Udf::Registered { arg_ids, .. } = &mut udf {
                        *arg_ids = vec![x_id, y_id];
                    }
                    slots.push((worker, batches[worker].len()));
                    batches[worker].push(Request::ExecUdf { udf });
                }
                if let Some(t) = t_push {
                    exdra_obs::global().record("ps.push", t.elapsed().as_nanos() as u64);
                }

                // Pull phase: one round trip of gradient computation
                // across all workers.
                let t_round = obs_on.then(Instant::now);
                let results = ctx.call_all_tolerant(batches)?;
                if let Some(t) = t_round {
                    exdra_obs::global().record("ps.round", t.elapsed().as_nanos() as u64);
                }

                // Aggregate phase; under quorum, a tolerable worker
                // failure skips its partitions instead of aborting the
                // epoch.
                let t_agg = obs_on.then(Instant::now);
                let mut round: Vec<(Vec<DenseMatrix>, f64, f64)> = Vec::new();
                let mut contributed = 0.0;
                for (&(worker, idx), w) in slots.iter().zip(weights) {
                    let response = match &results[worker] {
                        Ok(rs) => &rs[idx],
                        Err(e) => match cfg.aggregation {
                            AggregationMode::Quorum { .. } if quorum_tolerable(e) => {
                                skipped_updates += 1;
                                continue;
                            }
                            _ => return Err(e.clone()),
                        },
                    };
                    let data = expect_data(response, worker)?;
                    let (delta, l) = split_epoch_result(&data)?;
                    round.push((delta, l, *w));
                    contributed += *w;
                }
                if let AggregationMode::Quorum { min_weight } = cfg.aggregation {
                    if contributed < min_weight {
                        return Err(RuntimeError::WorkerDead {
                            worker: usize::MAX,
                            msg: format!(
                                "quorum lost: only {contributed:.3} of required \
                                 {min_weight:.3} aggregation weight responded"
                            ),
                        });
                    }
                }
                // Renormalize surviving weights so the round's update has
                // the same magnitude regardless of who was skipped.
                let mut new_model = snapshot.clone();
                let mut loss = 0.0;
                for (delta, l, w) in &round {
                    let wn = w / contributed;
                    axpy_model(&mut new_model, delta, wn);
                    loss += wn * l;
                }
                *model.lock() = new_model;
                epoch_losses.push(loss);
                if let Some(t) = t_agg {
                    exdra_obs::global().record("ps.aggregate", t.elapsed().as_nanos() as u64);
                }
                if obs_on {
                    let reg = exdra_obs::global();
                    reg.inc("ps.epochs");
                    reg.add(
                        "ps.skipped_updates",
                        (skipped_updates - skipped_before) as u64,
                    );
                }
                if epoch_span.is_active() {
                    epoch_span.attr("loss", loss);
                    epoch_span.attr("skipped", skipped_updates - skipped_before);
                    epoch_span.attr("contributed_weight", contributed);
                }
            }
        }
        UpdateType::Asp => {
            let losses = Arc::new(Mutex::new(vec![0.0f64; cfg.epochs]));
            // (skipped contributions, weight of partitions that gave up)
            let dropped = Arc::new(Mutex::new((0usize, 0.0f64)));
            // Stale-synchronous bookkeeping: progress is always tracked
            // (so the run reports its realized staleness even unbounded);
            // the condvar gate only engages when `max_staleness` is set.
            let ssp = Arc::new((
                std::sync::Mutex::new(SspState {
                    progress: vec![0usize; data_ids.len()],
                    active: vec![true; data_ids.len()],
                }),
                std::sync::Condvar::new(),
            ));
            let staleness_seen = Arc::new(Mutex::new(0usize));
            let parent = train_span.context();
            std::thread::scope(|scope| -> Result<()> {
                let mut handles = Vec::new();
                for (i, &(worker, x_id, y_id)) in data_ids.iter().enumerate() {
                    let model = Arc::clone(&model);
                    let losses = Arc::clone(&losses);
                    let dropped = Arc::clone(&dropped);
                    let ssp = Arc::clone(&ssp);
                    let staleness_seen = Arc::clone(&staleness_seen);
                    let weight = weights[i];
                    let ctx = Arc::clone(ctx);
                    handles.push(scope.spawn(move || -> Result<()> {
                        let _trace = exdra_obs::propagate(parent);
                        let mut part_span =
                            exdra_obs::span(exdra_obs::SpanKind::ParamServ, "ps.partition");
                        part_span.attr("worker", worker);
                        let _deactivate = SspGuard { ssp: &ssp, slot: i };
                        for epoch in 0..cfg.epochs {
                            // SSP gate: block until no active partition is
                            // more than `max_staleness` epochs behind us,
                            // recording the lag we actually proceed with.
                            {
                                let (lock, cvar) = &*ssp;
                                let mut st = lock
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                if let Some(bound) = cfg.max_staleness {
                                    while st
                                        .min_active_progress()
                                        .is_some_and(|min| epoch > min + bound)
                                    {
                                        st = cvar
                                            .wait(st)
                                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    }
                                }
                                let lag =
                                    epoch.saturating_sub(st.min_active_progress().unwrap_or(epoch));
                                drop(st);
                                let mut seen = staleness_seen.lock();
                                if lag > *seen {
                                    *seen = lag;
                                }
                            }
                            let snapshot = model.lock().clone();
                            let mut udf = make_udf(&snapshot, epoch);
                            if let Udf::Registered { arg_ids, .. } = &mut udf {
                                *arg_ids = vec![x_id, y_id];
                            }
                            let rs = match ctx.call(worker, &[Request::ExecUdf { udf }]) {
                                Ok(rs) => rs,
                                Err(e) => match cfg.aggregation {
                                    AggregationMode::Quorum { .. } if quorum_tolerable(&e) => {
                                        // This partition drops out of the
                                        // run; quorum is checked at join.
                                        let mut d = dropped.lock();
                                        d.0 += cfg.epochs - epoch;
                                        d.1 += weight;
                                        return Ok(());
                                    }
                                    _ => return Err(e),
                                },
                            };
                            let data = expect_data(&rs[0], worker)?;
                            let (delta, l) = split_epoch_result(&data)?;
                            {
                                let mut m = model.lock();
                                axpy_model(&mut m, &delta, weight);
                            }
                            losses.lock()[epoch] += weight * l;
                            let (lock, cvar) = &*ssp;
                            lock.lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .progress[i] = epoch + 1;
                            cvar.notify_all();
                        }
                        Ok(())
                    }));
                }
                for h in handles {
                    h.join()
                        .map_err(|_| RuntimeError::Network("PS thread panicked".into()))??;
                }
                Ok(())
            })?;
            max_observed_staleness = *staleness_seen.lock();
            let (skips, lost_weight) = *dropped.lock();
            skipped_updates = skips;
            if obs_on {
                let reg = exdra_obs::global();
                reg.add("ps.epochs", cfg.epochs as u64);
                reg.add("ps.skipped_updates", skipped_updates as u64);
            }
            if let AggregationMode::Quorum { min_weight } = cfg.aggregation {
                let surviving = 1.0 - lost_weight;
                if surviving < min_weight {
                    return Err(RuntimeError::WorkerDead {
                        worker: usize::MAX,
                        msg: format!(
                            "quorum lost: only {surviving:.3} of required \
                             {min_weight:.3} aggregation weight survived"
                        ),
                    });
                }
            }
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
        skipped_updates,
        max_observed_staleness,
    })
}

fn split_epoch_result(v: &DataValue) -> Result<(Vec<DenseMatrix>, f64)> {
    match v {
        DataValue::List(items) if items.len() == 2 => {
            Ok((value_to_model(&items[0])?, items[1].as_scalar()?))
        }
        other => Err(RuntimeError::Protocol(format!(
            "malformed ps.epoch result: {}",
            other.type_name()
        ))),
    }
}

/// Convenience: full federated PS setup and training in one call — scatter
/// labels, optionally balance, and train. The `workers` slice is needed to
/// install the gradient UDF (setup-time function shipment).
pub fn train_federated(
    x: &FedMatrix,
    y_onehot: &DenseMatrix,
    workers: &[Arc<Worker>],
    net: &Network,
    cfg: &PsConfig,
    strategy: crate::balance::BalanceStrategy,
) -> Result<PsRun> {
    for w in workers {
        install_ps_udf(w, net.clone());
    }
    let labels = scatter_labels(x, y_onehot)?;
    let sizes: Vec<usize> = x.parts().iter().map(|p| p.len()).collect();
    let plan = crate::balance::plan(&sizes, strategy);
    let data_ids = apply_balance(x, &labels, &plan)?;
    train(x.ctx(), &data_ids, net, cfg, &plan.weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceStrategy;
    use crate::local;
    use exdra_core::testutil::mem_federation;
    use exdra_core::PrivacyLevel;
    use exdra_ml::scoring::accuracy;
    use exdra_ml::synth;

    #[test]
    fn federated_bsp_equals_local_bsp() {
        // The second seed is not representable in an f64: the shuffle seed
        // must reach the workers bit for bit.
        for seed in [7, u64::MAX - 3] {
            federated_bsp_equals_local_bsp_at(seed);
        }
    }

    fn federated_bsp_equals_local_bsp_at(seed: u64) {
        let (x, y) = synth::multi_class(300, 5, 3, 0.4, 201);
        let y1h = synth::one_hot(&y, 3);
        let net = Network::ffn(5, &[12], 3, 202);
        let cfg = PsConfig {
            epochs: 3,
            seed,
            ..PsConfig::default()
        };
        // Local reference with identical contiguous partitioning.
        let parts = local::partition(&x, &y1h, 3, None).unwrap();
        let local_run = local::train(&net, &parts, &cfg).unwrap();
        // Federated run over the same partitioning.
        let (ctx, workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let fed_run =
            train_federated(&fed, &y1h, &workers, &net, &cfg, BalanceStrategy::None).unwrap();
        for (a, b) in fed_run.params.iter().zip(&local_run.params) {
            assert!(a.max_abs_diff(b) < 1e-10, "diff {}", a.max_abs_diff(b));
        }
        for (a, b) in fed_run.epoch_losses.iter().zip(&local_run.epoch_losses) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn federated_ffn_learns() {
        let (x, y) = synth::multi_class(500, 6, 3, 0.4, 203);
        let y1h = synth::one_hot(&y, 3);
        let net = Network::ffn(6, &[16], 3, 204);
        let (ctx, workers) = mem_federation(3);
        let _ = ctx;
        let fed =
            FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::PrivateAggregate { min_group: 10 })
                .unwrap();
        let run = train_federated(
            &fed,
            &y1h,
            &workers,
            &net,
            &PsConfig {
                epochs: 10,
                ..PsConfig::default()
            },
            BalanceStrategy::None,
        )
        .unwrap();
        let mut trained = net.clone();
        trained.set_params(&run.params).unwrap();
        let pred = trained.predict(&x).unwrap();
        assert!(
            accuracy(&pred, &y).unwrap() > 0.9,
            "losses {:?}",
            run.epoch_losses
        );
    }

    #[test]
    fn asp_federated_converges() {
        let (x, y) = synth::multi_class(300, 4, 2, 0.4, 205);
        let y1h = synth::one_hot(&y, 2);
        let net = Network::ffn(4, &[10], 2, 206);
        let (_ctx, workers) = mem_federation(2);
        let fed = FedMatrix::scatter_rows(&_ctx, &x, PrivacyLevel::Public).unwrap();
        let run = train_federated(
            &fed,
            &y1h,
            &workers,
            &net,
            &PsConfig {
                update_type: UpdateType::Asp,
                epochs: 8,
                ..PsConfig::default()
            },
            BalanceStrategy::None,
        )
        .unwrap();
        let mut trained = net.clone();
        trained.set_params(&run.params).unwrap();
        let pred = trained.predict(&x).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.85);
    }

    #[test]
    fn asp_bounded_staleness_is_enforced_and_reported() {
        let (x, y) = synth::multi_class(300, 4, 2, 0.4, 215);
        let y1h = synth::one_hot(&y, 2);
        let net = Network::ffn(4, &[10], 2, 216);
        let (_ctx, workers) = mem_federation(3);
        let fed = FedMatrix::scatter_rows(&_ctx, &x, PrivacyLevel::Public).unwrap();
        for bound in [0usize, 1, 2] {
            let run = train_federated(
                &fed,
                &y1h,
                &workers,
                &net,
                &PsConfig {
                    update_type: UpdateType::Asp,
                    epochs: 8,
                    max_staleness: Some(bound),
                    ..PsConfig::default()
                },
                BalanceStrategy::None,
            )
            .unwrap();
            assert!(
                run.max_observed_staleness <= bound,
                "bound {bound} violated: observed {}",
                run.max_observed_staleness
            );
            assert_eq!(run.epoch_losses.len(), 8);
        }
        // max_staleness = Some(0) is BSP-like lockstep: every epoch slot
        // still accumulates all three weighted partition losses.
        let run = train_federated(
            &fed,
            &y1h,
            &workers,
            &net,
            &PsConfig {
                update_type: UpdateType::Asp,
                epochs: 6,
                max_staleness: Some(0),
                ..PsConfig::default()
            },
            BalanceStrategy::None,
        )
        .unwrap();
        assert!(run.epoch_losses.iter().all(|l| *l > 0.0));
        let mut trained = net.clone();
        trained.set_params(&run.params).unwrap();
        let pred = trained.predict(&x).unwrap();
        assert!(exdra_ml::scoring::accuracy(&pred, &y).unwrap() > 0.8);
    }

    #[test]
    fn imbalanced_partitions_with_replication() {
        // Build a skewed federation: worker 0 gets 20 rows, worker 1 gets
        // 280 — replication with adjusted weights must still learn class
        // structure present at both sites.
        let (x, y) = synth::multi_class(300, 4, 2, 0.4, 207);
        let y1h = synth::one_hot(&y, 2);
        let net = Network::ffn(4, &[10], 2, 208);
        let (ctx, workers) = mem_federation(2);
        // Manual skewed scatter.
        let x0 = reorg::index(&x, 0, 20, 0, 4).unwrap();
        let x1 = reorg::index(&x, 20, 300, 0, 4).unwrap();
        let id0 = ctx.fresh_id();
        let id1 = ctx.fresh_id();
        workers[0].install_matrix(id0, x0, PrivacyLevel::Public, "skew0");
        workers[1].install_matrix(id1, x1, PrivacyLevel::Public, "skew1");
        let fed = FedMatrix::from_parts(
            Arc::clone(&ctx),
            exdra_core::PartitionScheme::Row,
            300,
            4,
            vec![
                exdra_core::fed::FedPartition {
                    lo: 0,
                    hi: 20,
                    worker: 0,
                    id: id0,
                },
                exdra_core::fed::FedPartition {
                    lo: 20,
                    hi: 300,
                    worker: 1,
                    id: id1,
                },
            ],
            PrivacyLevel::Public,
            false,
        )
        .unwrap();
        let run = train_federated(
            &fed,
            &y1h,
            &workers,
            &net,
            &PsConfig {
                epochs: 10,
                ..PsConfig::default()
            },
            BalanceStrategy::ReplicateToMax,
        )
        .unwrap();
        let mut trained = net.clone();
        trained.set_params(&run.params).unwrap();
        let pred = trained.predict(&x).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.85);
    }

    #[test]
    fn scatter_labels_rejects_misaligned() {
        let (x, _) = synth::multi_class(100, 3, 2, 0.5, 209);
        let (ctx, _workers) = mem_federation(2);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let bad = DenseMatrix::zeros(50, 2);
        assert!(scatter_labels(&fed, &bad).is_err());
    }
}
