//! Continuous federated learning over streams.
//!
//! Wires the pieces built elsewhere in the workspace into one loop: each
//! federated site runs a windowed continuous query ([`exdra_stream`])
//! over its local sensor stream into a retention sink; every round the
//! fresh window aggregates are scattered as a new federated mini-batch
//! and the global model is retrained through the federated parameter
//! server ([`exdra_paramserv::fed`]); every model version is tracked in
//! the [`ExperimentDb`] with its parameter hash as lineage; and the
//! consolidated transform metadata is drift-checked against each round's
//! site-local partials ([`exdra_transform::drift`]), re-encoding (and
//! bumping the registered pipeline version) exactly when a site's data
//! escapes the encoded domain.

use std::path::PathBuf;
use std::sync::Arc;

use exdra_core::coordinator::expect_ok;
use exdra_core::fed::FedPartition;
use exdra_core::protocol::{Request, Response};
use exdra_core::{
    DataValue, FedContext, FedMatrix, PartitionScheme, PrivacyLevel, Result, RuntimeError,
};
use exdra_expdb::{DatasetMeta, ExperimentDb};
use exdra_matrix::frame::{Frame, FrameColumn};
use exdra_matrix::DenseMatrix;
use exdra_ml::nn::Network;
use exdra_ml::synth;
use exdra_paramserv::fed as psfed;
use exdra_paramserv::{balance, AggregationMode, PsConfig, UpdateFreq, UpdateType};
use exdra_stream::query::Query;
use exdra_stream::query::{Cmp, Operator, WindowAgg};
use exdra_stream::source::SensorConfig;
use exdra_stream::{FileSink, NesCoordinator, SensorSource};
use exdra_transform::{
    build_partial, max_drift, merge_partials, EncodeKind, PartialMeta, TransformMeta, TransformSpec,
};

/// Name under which the continuous pipeline is registered in the
/// [`ExperimentDb`]; every drift-triggered re-encode registers the next
/// version of this name.
pub const PIPELINE_NAME: &str = "continuous-sensor-ffn";

/// One site's streaming ingest: a seeded synthetic sensor pumped through
/// a filter → project → tumbling-window query into a segment-retention
/// file sink. [`SitePipeline::pump`] returns only the window aggregates
/// produced since the previous call, so each call yields one round's
/// fresh federated mini-batch.
pub struct SitePipeline {
    nes: NesCoordinator,
    source: SensorSource,
    query: Query,
    sink: FileSink,
    /// Snapshot rows already handed out by earlier `pump` calls.
    consumed_rows: usize,
}

impl SitePipeline {
    /// Builds the pipeline for one site. `seed` drives the sensor stream;
    /// `window` is the tumbling-window length in records; sink segments
    /// land under `dir` (recreated empty).
    pub fn new(site: usize, fields: usize, window: usize, seed: u64, dir: PathBuf) -> Result<Self> {
        let mut cfg = SensorConfig::signals(fields, seed);
        // A few injected anomalies give the filter stage something to drop.
        cfg.anomaly_rate = 0.05;
        let source = SensorSource::new(cfg);
        let query = Query::new(
            format!("site{site}-window"),
            vec![
                // Drop injected anomaly spikes (clean signal stays < 1.5).
                Operator::Filter {
                    field: 0,
                    cmp: Cmp::Lt,
                    value: 3.0,
                },
                // Identity projection keeps all fields (exercises the
                // stateless projection operator in the deployed plan).
                Operator::Project {
                    fields: (0..fields).collect(),
                    scale: vec![1.0; fields],
                    offset: vec![0.0; fields],
                },
                Operator::TumblingWindow {
                    size: window,
                    agg: WindowAgg::Mean,
                },
            ],
        );
        let _ = std::fs::remove_dir_all(&dir);
        let schema = query.output_schema(source.schema());
        // Retention is sized to hold every segment a scenario run writes,
        // so `consumed_rows` bookkeeping stays exact.
        let sink = FileSink::create(dir, schema, 256, 4096)?;
        Ok(Self {
            nes: NesCoordinator::new(format!("site{site}")),
            source,
            query,
            sink,
            consumed_rows: 0,
        })
    }

    /// Pumps `records` raw sensor records through the continuous query
    /// and returns the window-aggregate rows emitted by this call (the
    /// site's fresh mini-batch), as a features-only matrix.
    pub fn pump(&mut self, records: usize) -> Result<DenseMatrix> {
        self.nes
            .run_bounded(&mut self.source, &mut self.query, &self.sink, records)?;
        let all = self.sink.snapshot_features()?;
        let fresh = exdra_matrix::kernels::reorg::index(
            &all,
            self.consumed_rows,
            all.rows(),
            0,
            all.cols(),
        )?;
        self.consumed_rows = all.rows();
        Ok(fresh)
    }

    /// Records currently buffered in partially filled windows (carried
    /// across rounds rather than dropped).
    pub fn pending_window_records(&self) -> usize {
        self.query.pending_window_records()
    }
}

/// Deterministic labeling rule for the synthetic sensor task: 1-based
/// class 2 when the row's mean feature value is positive, else class 1
/// (matching the workspace's SystemDS-style label convention). Being a
/// pure function of the features, every site (and the oracle rerun) can
/// derive identical labels without exchanging them.
pub fn label_classes(x: &DenseMatrix) -> DenseMatrix {
    let (rows, cols) = (x.rows(), x.cols());
    let mut data = Vec::with_capacity(rows);
    for r in 0..rows {
        let sum: f64 = x.values()[r * cols..(r + 1) * cols].iter().sum();
        data.push(if sum > 0.0 { 2.0 } else { 1.0 });
    }
    DenseMatrix::new(rows, 1, data).expect("label vector shape")
}

/// Order-independent FNV-style fold of the exact parameter bits of a
/// model, for bitwise-identity assertions and lineage strings.
pub fn model_hash(params: &[DenseMatrix]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in params {
        for &v in m.values() {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Scatters one feature block and its label block per site to its worker,
/// both `PUT`s in one message sent by `send` (one batch per worker, as
/// [`FedContext::call_all`]), and wraps the features as a row-partitioned
/// [`FedMatrix`] (site `i` holds rows `lo_i..hi_i`, in site order) next to
/// every partition's label id. A supervised caller passes
/// `Supervisor::call_all_checkpointed`, so the round's checkpoint rides in
/// the same envelope behind the installs and its delta holds them; an
/// unsupervised one passes `ctx.call_all`. Not deferred: a control-only
/// checkpoint travels alone and would miss installs still queued. Blocks
/// must agree on the column count; empty blocks are rejected (a site that
/// produced no windows has nothing to train on).
pub fn scatter_site_blocks(
    ctx: &Arc<FedContext>,
    send: impl FnOnce(Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>>,
    blocks: &[DenseMatrix],
    labels: &[DenseMatrix],
    privacy: PrivacyLevel,
) -> Result<(FedMatrix, Vec<u64>)> {
    if blocks.is_empty() || blocks.len() != labels.len() {
        return Err(RuntimeError::Invalid(
            "no site blocks, or labels do not pair up".into(),
        ));
    }
    let cols = blocks[0].cols();
    let mut parts = Vec::with_capacity(blocks.len());
    let mut y_ids = Vec::with_capacity(blocks.len());
    let mut batches = vec![Vec::new(); ctx.num_workers()];
    let mut lo = 0usize;
    for (site, (b, y)) in blocks.iter().zip(labels).enumerate() {
        if b.rows() == 0 || b.cols() != cols || y.rows() != b.rows() {
            return Err(RuntimeError::Invalid(format!(
                "site {site}: block is {}x{}, expected non-empty with {cols} cols and as many labels",
                b.rows(),
                b.cols()
            )));
        }
        let (id, y_id) = (ctx.fresh_id(), ctx.fresh_id());
        for (id, m) in [(id, b), (y_id, y)] {
            batches[site].push(Request::Put {
                id,
                data: DataValue::from(m.clone()),
                privacy,
            });
        }
        parts.push(FedPartition {
            lo,
            hi: lo + b.rows(),
            worker: site,
            id,
        });
        y_ids.push(y_id);
        lo += b.rows();
    }
    let responses = send(batches)?;
    for (w, rs) in responses.iter().enumerate() {
        for r in rs {
            expect_ok(r, w)?;
        }
    }
    let x = FedMatrix::from_parts(
        Arc::clone(ctx),
        PartitionScheme::Row,
        lo,
        cols,
        parts,
        privacy,
        true,
    )?;
    Ok((x, y_ids))
}

/// Configuration of the continuous trainer.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Input feature count (sensor fields).
    pub fields: usize,
    /// Number of target classes.
    pub classes: usize,
    /// Hidden layer width of the FFN.
    pub hidden: usize,
    /// Parameter-server epochs per retraining round.
    pub epochs_per_round: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// BSP or ASP synchronization.
    pub update_type: UpdateType,
    /// Stale-synchronous bound under ASP (see [`PsConfig::max_staleness`]).
    pub max_staleness: Option<usize>,
    /// Base seed; round `r` trains with `seed + r`.
    pub seed: u64,
    /// Worst-site drift score above which the transform metadata is
    /// re-encoded (see [`exdra_transform::drift_score`]).
    pub drift_threshold: f64,
}

/// Outcome of one successful retraining round.
#[derive(Debug, Clone, Copy)]
pub struct RoundMetrics {
    /// Final epoch's aggregated training loss.
    pub loss: f64,
    /// Accuracy of the updated global model on this round's windows.
    pub accuracy: f64,
    /// Maximum staleness observed during the round (0 under BSP).
    pub staleness: usize,
}

/// One round's scattered mini-batch, kept alive so the worker symbols
/// survive until the round (including any post-recovery retry) is done.
pub struct PreparedRound {
    /// The federated feature matrix (site-partitioned rows).
    pub x: FedMatrix,
    /// `(worker, x id, y id)` per partition, ready for [`psfed::train`].
    pub data_ids: Vec<(usize, u64, u64)>,
    /// Aggregation weights (proportional to partition sizes).
    pub weights: Vec<f64>,
    /// Coordinator-side concatenation of the blocks, for evaluation.
    pub features: DenseMatrix,
    /// Class indices aligned with `features`.
    pub labels: DenseMatrix,
}

/// The continuous-learning driver: owns the global model, the experiment
/// store, and the consolidated transform metadata.
pub struct ContinuousTrainer {
    cfg: TrainerConfig,
    net: Network,
    expdb: ExperimentDb,
    pipeline_id: u64,
    spec: Option<TransformSpec>,
    meta: Option<TransformMeta>,
    /// Drift-triggered re-encodes so far.
    pub reencodes: usize,
    /// Worst drift score observed across all rounds.
    pub max_drift_seen: f64,
}

impl ContinuousTrainer {
    /// Fresh trainer with a seeded FFN and an empty experiment store.
    pub fn new(cfg: TrainerConfig) -> Self {
        let net = Network::ffn(cfg.fields, &[cfg.hidden], cfg.classes, cfg.seed);
        let expdb = ExperimentDb::new();
        let pipeline_id = expdb.register_pipeline(
            PIPELINE_NAME,
            &["sensor.window", "transformencode", "ffn.paramserv"],
        );
        Self {
            cfg,
            net,
            expdb,
            pipeline_id,
            spec: None,
            meta: None,
            reencodes: 0,
            max_drift_seen: 0.0,
        }
    }

    /// The current global model (architecture + parameters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The experiment store tracking every model version.
    pub fn expdb(&self) -> &ExperimentDb {
        &self.expdb
    }

    /// Hash of the current global model parameters.
    pub fn model_hash(&self) -> u64 {
        model_hash(&self.net.params())
    }

    /// Registered versions of the continuous pipeline (bumped by each
    /// drift-triggered re-encode).
    pub fn pipeline_versions(&self) -> usize {
        self.expdb.versions(PIPELINE_NAME).len()
    }

    fn frame_of(block: &DenseMatrix) -> Frame {
        let cols = (0..block.cols())
            .map(|c| {
                let vals = (0..block.rows())
                    .map(|r| Some(block.values()[r * block.cols() + c]))
                    .collect();
                (format!("f{c}"), FrameColumn::F64(vals))
            })
            .collect();
        Frame::new(cols).expect("aligned frame columns")
    }

    fn partials_of(
        &self,
        blocks: &[DenseMatrix],
        spec: &TransformSpec,
    ) -> Result<Vec<PartialMeta>> {
        blocks
            .iter()
            .map(|b| Ok(build_partial(&Self::frame_of(b), spec)?))
            .collect()
    }

    /// Drift-checks one round's fresh site blocks against the
    /// consolidated transform metadata. The first call consolidates the
    /// initial metadata; later calls re-encode (and register the next
    /// pipeline version) when the worst site's drift score crosses the
    /// configured threshold. Returns whether a re-encode happened.
    pub fn observe(&mut self, blocks: &[DenseMatrix]) -> Result<bool> {
        if blocks.is_empty() || blocks[0].rows() == 0 {
            return Ok(false);
        }
        if self.spec.is_none() {
            let mut spec = TransformSpec::auto(&Self::frame_of(&blocks[0]));
            for col in &mut spec.columns {
                col.kind = EncodeKind::Bin { num_bins: 8 };
                col.one_hot = false;
            }
            let partials = self.partials_of(blocks, &spec)?;
            self.meta = Some(merge_partials(&partials, &spec)?);
            self.spec = Some(spec);
            return Ok(false);
        }
        let spec = self.spec.as_ref().expect("spec initialized").clone();
        let meta = self.meta.as_ref().expect("meta initialized");
        let partials = self.partials_of(blocks, &spec)?;
        let score = max_drift(meta, &partials);
        self.max_drift_seen = self.max_drift_seen.max(score);
        if score <= self.cfg.drift_threshold {
            return Ok(false);
        }
        // Two-pass re-encode: fresh partials are merged into new
        // consolidated metadata and the pipeline artifact is re-registered
        // as its next version.
        self.meta = Some(merge_partials(&partials, &spec)?);
        self.reencodes += 1;
        self.pipeline_id = self.expdb.register_pipeline(
            PIPELINE_NAME,
            &["sensor.window", "transformencode", "ffn.paramserv"],
        );
        Ok(true)
    }

    /// Scatters one round's site blocks and labels through `send` (see
    /// [`scatter_site_blocks`]), returning the handle the round (and any
    /// retry of it) trains on.
    pub fn prepare(
        &self,
        ctx: &Arc<FedContext>,
        send: impl FnOnce(Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>>,
        blocks: &[DenseMatrix],
    ) -> Result<PreparedRound> {
        // Labels are row-wise in the features: a site's slice is its block's.
        let one_hot = |b| synth::one_hot(&label_classes(b), self.cfg.classes);
        let y1h: Vec<DenseMatrix> = blocks.iter().map(one_hot).collect();
        let (x, y_ids) = scatter_site_blocks(ctx, send, blocks, &y1h, PrivacyLevel::Public)?;
        let parts = x.parts().iter().zip(y_ids);
        let data_ids = parts.map(|(p, y_id)| (p.worker, p.id, y_id)).collect();
        let cols = x.cols();
        let mut data = Vec::with_capacity(x.rows() * cols);
        for b in blocks {
            data.extend_from_slice(b.values());
        }
        let features = DenseMatrix::new(x.rows(), cols, data)?;
        let labels = label_classes(&features);
        let sizes: Vec<usize> = x.parts().iter().map(|p| p.len()).collect();
        let plan = balance::plan(&sizes, balance::BalanceStrategy::None);
        Ok(PreparedRound {
            x,
            data_ids,
            weights: plan.weights,
            features,
            labels,
        })
    }

    /// The parameter-server configuration round `round` trains with.
    pub fn ps_config(&self, round: usize) -> PsConfig {
        PsConfig {
            update_type: self.cfg.update_type,
            freq: UpdateFreq::Epoch,
            epochs: self.cfg.epochs_per_round,
            batch_size: self.cfg.batch_size,
            seed: self.cfg.seed.wrapping_add(round as u64),
            aggregation: AggregationMode::Strict,
            max_staleness: self.cfg.max_staleness,
            ..PsConfig::default()
        }
    }

    /// Retrains the global model on one prepared round through the
    /// federated parameter server. On success the model advances and the
    /// new version is tracked in the experiment store; on error the model
    /// is untouched, so the identical call can be retried after recovery.
    pub fn train_round(
        &mut self,
        ctx: &Arc<FedContext>,
        prep: &PreparedRound,
        round: usize,
    ) -> Result<RoundMetrics> {
        let cfg = self.ps_config(round);
        let run = psfed::train(ctx, &prep.data_ids, &self.net, &cfg, &prep.weights)?;
        self.net.set_params(&run.params)?;
        let loss = run.epoch_losses.last().copied().unwrap_or(f64::NAN);
        let pred = self.net.predict(&prep.features)?;
        let accuracy = exdra_ml::scoring::accuracy(&pred, &prep.labels)?;
        let nnz = prep.features.values().iter().filter(|v| **v != 0.0).count();
        let dataset = DatasetMeta {
            rows: prep.features.rows(),
            cols: prep.features.cols(),
            sparsity: nnz as f64 / prep.features.values().len().max(1) as f64,
            num_classes: self.cfg.classes,
            missing_rate: 0.0,
        };
        let hash = self.model_hash();
        self.expdb.track_run(
            self.pipeline_id,
            &[
                ("round", &round.to_string()),
                ("epochs", &cfg.epochs.to_string()),
                ("batch_size", &cfg.batch_size.to_string()),
            ],
            dataset,
            &[("loss", loss), ("accuracy", accuracy)],
            &[&format!("model:{hash:016x}")],
        );
        Ok(RoundMetrics {
            loss,
            accuracy,
            staleness: run.max_observed_staleness,
        })
    }
}
