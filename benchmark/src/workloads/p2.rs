//! `p2_pipeline`: Fig. 8's P2 over two loopback-TCP workers. Per-site raw
//! frames are PUT to the sites, `transform_encode`d federated (recode +
//! one-hot), clipped to ±1.5σ and z-normalised, split 70/30 per
//! partition, an LM is trained, then a 1-epoch FFN on the parameter
//! server. The write-heavy use of the runtime: every stage PUTs new
//! federated objects and ships frames and metadata, where the `*_algos`
//! loops only read a fixed X.

use exdra::core::fed::prep::{split_rows_per_partition, FedFrame};
use exdra::core::{FedMatrix, PrivacyLevel, Tensor};
use exdra::matrix::kernels::aggregates::{AggDir, AggOp};
use exdra::matrix::kernels::elementwise::BinaryOp;
use exdra::matrix::kernels::reorg;
use exdra::matrix::rng::rand_permutation;
use exdra::matrix::{DenseMatrix, Frame};
use exdra::ml::nn::Network;
use exdra::ml::{lm, synth};
use exdra::net::Wire;
use exdra::paramserv::balance::BalanceStrategy;
use exdra::paramserv::{fed as psfed, local as pslocal, PsConfig};
use exdra::transform::{transform_encode, TransformSpec};

use super::{
    check_close, err, Counters, Federation, LayerMetrics, Link, PassOutput, PassStats, Recipe,
    Workload, WORKERS,
};
use crate::gen::{sub_seed, Checksum};
use crate::probes::{self, time_median};
use crate::trace::Tracer;

const TRAIN_FRAC: f64 = 0.7;
const HIDDEN: usize = 64;
const BATCH: usize = 512;

/// The generated inputs of the pipeline.
#[derive(Clone)]
pub struct P2Inputs {
    /// One raw frame per site.
    pub frames: Vec<Frame>,
    /// Regression target, aligned with the sites' rows in site order.
    pub y: DenseMatrix,
    pub split_seed: u64,
    pub net_seed: u64,
    pub ps_seed: u64,
}

pub struct P2Recipe {
    inputs: P2Inputs,
}

impl P2Recipe {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (rows_per_site, cont_cols) = if smoke { (600, 6) } else { (16_000, 40) };
        let mut frames = Vec::new();
        let mut y: Option<DenseMatrix> = None;
        for site in 0..WORKERS {
            let (f, t) = synth::paper_production_frame(
                rows_per_site,
                2,
                8,
                cont_cols,
                0.01,
                sub_seed(seed, 100 + site as u64),
            );
            frames.push(f);
            y = Some(match y {
                None => t,
                Some(acc) => reorg::rbind(&acc, &t).expect("one target column"),
            });
        }
        Self {
            inputs: P2Inputs {
                frames,
                y: y.expect("at least one site"),
                split_seed: sub_seed(seed, 8),
                net_seed: sub_seed(seed, 9),
                // The federated parameter server ships its shuffle seed as
                // an f64 scalar: keep it exactly representable.
                ps_seed: sub_seed(seed, 10) >> 32,
            },
        }
    }
}

/// Clip to ±1.5σ and z-normalise: identical code for local and federated
/// tensors (copied from `fig8_pipeline`).
fn preprocess(x: Tensor) -> exdra::core::Result<Tensor> {
    let x = x.replace(f64::NAN, 0.0)?;
    let mu = x.agg(AggOp::Mean, AggDir::Col)?.to_local()?;
    let sd = x
        .agg(AggOp::Sd, AggDir::Col)?
        .to_local()?
        .map(|v| if v > 1e-12 { v } else { 1.0 });
    let lower = mu.zip(&sd, "clip", |m, s| m - 1.5 * s)?;
    let upper = mu.zip(&sd, "clip", |m, s| m + 1.5 * s)?;
    let x = x.binary(BinaryOp::Max, &Tensor::Local(lower))?;
    let x = x.binary(BinaryOp::Min, &Tensor::Local(upper))?;
    let x = x.binary(BinaryOp::Sub, &Tensor::Local(mu))?;
    x.binary(BinaryOp::Div, &Tensor::Local(sd))
}

/// Two-class one-hot of the sign of the target.
fn sign_one_hot(y: &DenseMatrix) -> DenseMatrix {
    let pos = y.map(|v| if v >= 0.0 { 1.0 } else { 0.0 });
    reorg::cbind(&pos, &pos.map(|v| 1.0 - v)).expect("one column each")
}

fn ps_config(inp: &P2Inputs) -> PsConfig {
    PsConfig {
        epochs: 1,
        batch_size: BATCH,
        seed: inp.ps_seed,
        ..PsConfig::default()
    }
}

/// The federated pipeline. Outputs: LM weights, FFN parameters, FFN loss.
fn fed_pipeline(fed: &Federation, inp: &P2Inputs, tr: &Tracer) -> Result<Vec<DenseMatrix>, String> {
    let frame = tr.span("core.put_frames", || {
        FedFrame::from_site_frames(&fed.ctx, &inp.frames, PrivacyLevel::Public).map_err(err)
    })?;
    let spec = TransformSpec::auto(&inp.frames[0]);
    let (encoded, _meta) = tr.span("transform.encode", || {
        frame.transform_encode(&spec).map_err(err)
    })?;
    let x = tr.span("prep.clip_normalise", || {
        preprocess(Tensor::Fed(encoded)).map_err(err)
    })?;
    let Tensor::Fed(x) = x else {
        return Err("preprocessing consolidated the federated matrix".into());
    };
    let split = tr.span("prep.split", || {
        split_rows_per_partition(&x, Some(&inp.y), TRAIN_FRAC, inp.split_seed).map_err(err)
    })?;
    let y_train = split.y_train.ok_or("split returned no labels")?;
    train(&split.x_train, &y_train, fed, inp, tr)
}

/// LM, then the 1-epoch FFN, on the federated train split.
fn train(
    x_train: &FedMatrix,
    y_train: &DenseMatrix,
    fed: &Federation,
    inp: &P2Inputs,
    tr: &Tracer,
) -> Result<Vec<DenseMatrix>, String> {
    let model = tr.span("ml.lm", || {
        lm::lm(
            &Tensor::Fed(x_train.clone()),
            y_train,
            &lm::LmParams::default(),
        )
        .map_err(err)
    })?;
    let net = Network::ffn(x_train.cols(), &[HIDDEN], 2, inp.net_seed);
    let run = tr.span("paramserv.train", || {
        psfed::train_federated(
            x_train,
            &sign_one_hot(y_train),
            &fed.workers,
            &net,
            &ps_config(inp),
            BalanceStrategy::None,
        )
        .map_err(err)
    })?;
    let mut out = vec![model.weights];
    out.extend(run.params);
    out.push(DenseMatrix::row_vector(&run.epoch_losses));
    Ok(out)
}

/// The oracle: the same pipeline entirely local. It encodes the union of
/// the site frames centrally, preprocesses it as one matrix, and repeats
/// the per-partition shuffle of the federated split, so the train rows
/// and their order are the federated run's.
fn local_pipeline(inp: &P2Inputs) -> Result<Vec<DenseMatrix>, String> {
    let mut all = inp.frames[0].clone();
    for f in &inp.frames[1..] {
        all = all.rbind(f).map_err(err)?;
    }
    let spec = TransformSpec::auto(&inp.frames[0]);
    let (encoded, _) = transform_encode(&all, &spec).map_err(err)?;
    let x = preprocess(Tensor::Local(encoded))
        .and_then(|t| t.to_local())
        .map_err(err)?;
    let mut parts = Vec::new();
    let mut lo = 0usize;
    for (site, f) in inp.frames.iter().enumerate() {
        let len = f.rows();
        let n_train = (len as f64 * TRAIN_FRAC).round() as usize;
        let perm = rand_permutation(len, inp.split_seed.wrapping_add(site as u64));
        let take = |m: &DenseMatrix| -> Result<DenseMatrix, String> {
            let part = reorg::index(m, lo, lo + len, 0, m.cols()).map_err(err)?;
            let shuffled = reorg::gather_rows(&part, &perm).map_err(err)?;
            reorg::index(&shuffled, 0, n_train, 0, m.cols()).map_err(err)
        };
        parts.push((take(&x)?, take(&inp.y)?));
        lo += len;
    }
    let mut x_train = parts[0].0.clone();
    let mut y_train = parts[0].1.clone();
    for (xp, yp) in &parts[1..] {
        x_train = reorg::rbind(&x_train, xp).map_err(err)?;
        y_train = reorg::rbind(&y_train, yp).map_err(err)?;
    }
    let model = lm::lm(
        &Tensor::Local(x_train.clone()),
        &y_train,
        &lm::LmParams::default(),
    )
    .map_err(err)?;
    let net = Network::ffn(x_train.cols(), &[HIDDEN], 2, inp.net_seed);
    let ps_parts: Vec<(DenseMatrix, DenseMatrix)> = parts
        .into_iter()
        .map(|(xp, yp)| {
            let y1h = sign_one_hot(&yp);
            (xp, y1h)
        })
        .collect();
    let run = pslocal::train(&net, &ps_parts, &ps_config(inp)).map_err(err)?;
    let mut out = vec![model.weights];
    out.extend(run.params);
    out.push(DenseMatrix::row_vector(&run.epoch_losses));
    Ok(out)
}

impl Recipe for P2Recipe {
    fn build(&self, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
        let mut w = P2Workload {
            inputs: self.inputs.clone(),
            fed: Federation::spawn(Link::LanTcp),
            expected: 0,
        };
        let got = fed_pipeline(&w.fed, &w.inputs, tr)?;
        let want = tr.span("oracle.local_pipeline", || local_pipeline(&w.inputs))?;
        check_close("p2_pipeline", &got, &want)?;
        w.expected = Checksum::of(&got);
        Ok(Box::new(w))
    }
}

struct P2Workload {
    inputs: P2Inputs,
    fed: Federation,
    expected: u64,
}

impl Workload for P2Workload {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOutput, String> {
        Ok(PassOutput {
            checksum: Checksum::of(&fed_pipeline(&self.fed, &self.inputs, tr)?),
            ..PassOutput::default()
        })
    }

    fn expected(&self) -> u64 {
        self.expected
    }

    fn counters(&self) -> Counters {
        self.fed.counters()
    }

    fn probe_layers(&mut self, tr: &Tracer, _stats: &PassStats, out: &mut LayerMetrics) {
        let frame = &self.inputs.frames[0];
        let spec = TransformSpec::auto(frame);
        let (encoded, meta) = transform_encode(frame, &spec).expect("site frame encodes");
        tr.span("probe.transform", || {
            // One site's frame, both passes (build metadata, then apply).
            let s = time_median(3, || {
                std::hint::black_box(transform_encode(frame, &spec).expect("site frame encodes"));
            });
            out.insert("encode_rows_per_s", frame.rows() as f64 / s);
            out.insert("meta_bytes", meta.to_bytes().len() as f64);
        });
        tr.span("probe.net.codec", || {
            probes::codec_metrics(&probes::frame_payloads(frame, &encoded), out)
        });
        tr.span("probe.core", || probes::rpc_metrics(&self.fed, "lan", out));
        tr.span("probe.paramserv", || {
            probes::ps_metrics(&self.fed, encoded.shape(), HIDDEN, BATCH, out)
        });
    }

    fn teardown(self: Box<Self>) {
        self.fed.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra::core::DataValue;

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let bytes = |seed: u64| {
            let r = P2Recipe::new(seed, true);
            let mut out = r.inputs.y.to_bytes();
            for f in &r.inputs.frames {
                out.extend(DataValue::Frame(f.clone()).to_bytes());
            }
            (
                out,
                r.inputs.split_seed,
                r.inputs.net_seed,
                r.inputs.ps_seed,
            )
        };
        assert_eq!(bytes(5), bytes(5));
        assert_ne!(bytes(5).0, bytes(6).0);
    }
}
