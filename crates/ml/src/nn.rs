//! Neural networks for the mini-batch experiments: a fully-connected
//! feed-forward network (FFN) and a convolutional network (CNN), trained
//! with SGD and Nesterov momentum (paper §6.1).
//!
//! Models are lists of weight/bias matrices — the same
//! `list(W1, W2, ..., b1, b2, ...)` representation the paper's
//! `paramserv` builtin passes around — so the federated parameter server of
//! `exdra-paramserv` can ship parameters and gradients as plain matrix
//! lists over the six-request protocol.

// Parallel-array index loops are intentional in the hot kernels below:
// iterator zips over 3+ arrays obscure the access pattern.
#![allow(clippy::needless_range_loop)]

use exdra_matrix::kernels::matmul::{matmul, matmul_tn};
use exdra_matrix::kernels::reorg::transpose;
use exdra_matrix::rng::randn_matrix;
use exdra_matrix::{DenseMatrix, MatrixError, Result};

/// One network layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Affine layer `out = x W + b` with `W: in x out`, `b: 1 x out`.
    Dense {
        /// Weight matrix.
        w: DenseMatrix,
        /// Bias row vector.
        b: DenseMatrix,
    },
    /// Rectified linear activation.
    ReLU,
    /// 2D convolution over rows holding `(channels, h, w)` row-major
    /// feature maps, implemented via im2col.
    Conv2d {
        /// Filters as `out_ch x (in_ch * kh * kw)`.
        filters: DenseMatrix,
        /// Bias row vector `1 x out_ch`.
        bias: DenseMatrix,
        /// Input feature-map shape `(channels, height, width)`.
        in_shape: (usize, usize, usize),
        /// Kernel `(kh, kw)`.
        kernel: (usize, usize),
        /// Stride (same in both dimensions).
        stride: usize,
    },
    /// Max pooling over `(channels, h, w)` rows.
    MaxPool {
        /// Input feature-map shape `(channels, height, width)`.
        in_shape: (usize, usize, usize),
        /// Pool window edge (stride equals the window).
        size: usize,
    },
}

/// Output spatial size of a valid convolution/pool.
fn out_dim(input: usize, k: usize, stride: usize) -> usize {
    (input - k) / stride + 1
}

impl Layer {
    /// Output width (features per row) of this layer given its input width.
    pub fn out_features(&self, in_features: usize) -> usize {
        match self {
            Layer::Dense { w, .. } => w.cols(),
            Layer::ReLU => in_features,
            Layer::Conv2d {
                filters,
                in_shape,
                kernel,
                stride,
                ..
            } => {
                let oh = out_dim(in_shape.1, kernel.0, *stride);
                let ow = out_dim(in_shape.2, kernel.1, *stride);
                filters.rows() * oh * ow
            }
            Layer::MaxPool { in_shape, size } => {
                let oh = out_dim(in_shape.1, *size, *size);
                let ow = out_dim(in_shape.2, *size, *size);
                in_shape.0 * oh * ow
            }
        }
    }

    /// Number of trainable parameter matrices.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense { .. } | Layer::Conv2d { .. } => 2,
            Layer::ReLU | Layer::MaxPool { .. } => 0,
        }
    }
}

/// Saved forward state per layer for the backward pass.
enum Cache {
    Dense {
        input: DenseMatrix,
    },
    ReLU {
        input: DenseMatrix,
    },
    Conv {
        /// im2col patch matrices, one per sample.
        patches: Vec<DenseMatrix>,
    },
    Pool {
        /// Argmax positions into the input row per output cell.
        argmax: Vec<Vec<usize>>,
        in_features: usize,
    },
}

/// A sequential network.
#[derive(Debug, Clone)]
pub struct Network {
    /// Layers in forward order.
    pub layers: Vec<Layer>,
}

impl Network {
    /// Builds a fully-connected feed-forward classifier:
    /// `input -> hidden.. (ReLU) -> classes` logits.
    pub fn ffn(input: usize, hidden: &[usize], classes: usize, seed: u64) -> Network {
        let mut layers = Vec::new();
        let mut prev = input;
        let mut s = seed;
        for &h in hidden {
            layers.push(Layer::Dense {
                w: he_init(prev, h, s),
                b: DenseMatrix::zeros(1, h),
            });
            layers.push(Layer::ReLU);
            prev = h;
            s = s.wrapping_add(1);
        }
        layers.push(Layer::Dense {
            w: he_init(prev, classes, s),
            b: DenseMatrix::zeros(1, classes),
        });
        Network { layers }
    }

    /// Builds a small LeNet-style CNN over `side x side` single-channel
    /// images: conv(k=5) -> ReLU -> maxpool(2) -> dense -> ReLU -> logits.
    pub fn cnn(
        side: usize,
        conv_channels: usize,
        hidden: usize,
        classes: usize,
        seed: u64,
    ) -> Network {
        let k = 5usize;
        let oh = out_dim(side, k, 1);
        let pooled = out_dim(oh, 2, 2);
        let flat = conv_channels * pooled * pooled;
        Network {
            layers: vec![
                Layer::Conv2d {
                    filters: he_init(k * k, conv_channels, seed)
                        .reshape(conv_channels, k * k)
                        .expect("reshape"),
                    bias: DenseMatrix::zeros(1, conv_channels),
                    in_shape: (1, side, side),
                    kernel: (k, k),
                    stride: 1,
                },
                Layer::ReLU,
                Layer::MaxPool {
                    in_shape: (conv_channels, oh, oh),
                    size: 2,
                },
                Layer::Dense {
                    w: he_init(flat, hidden, seed.wrapping_add(1)),
                    b: DenseMatrix::zeros(1, hidden),
                },
                Layer::ReLU,
                Layer::Dense {
                    w: he_init(hidden, classes, seed.wrapping_add(2)),
                    b: DenseMatrix::zeros(1, classes),
                },
            ],
        }
    }

    /// Trainable parameters as a flat matrix list (`W1, b1, W2, b2, ...`).
    pub fn params(&self) -> Vec<DenseMatrix> {
        let mut out = Vec::new();
        for l in &self.layers {
            match l {
                Layer::Dense { w, b } => {
                    out.push(w.clone());
                    out.push(b.clone());
                }
                Layer::Conv2d { filters, bias, .. } => {
                    out.push(filters.clone());
                    out.push(bias.clone());
                }
                _ => {}
            }
        }
        out
    }

    /// Installs parameters from a flat matrix list (inverse of
    /// [`Network::params`]).
    pub fn set_params(&mut self, params: &[DenseMatrix]) -> Result<()> {
        let mut it = params.iter();
        for l in &mut self.layers {
            match l {
                Layer::Dense { w, b } => {
                    *w = next_param(&mut it, w.shape())?;
                    *b = next_param(&mut it, b.shape())?;
                }
                Layer::Conv2d { filters, bias, .. } => {
                    *filters = next_param(&mut it, filters.shape())?;
                    *bias = next_param(&mut it, bias.shape())?;
                }
                _ => {}
            }
        }
        if it.next().is_some() {
            return Err(MatrixError::InvalidArgument {
                op: "set_params",
                msg: "too many parameter matrices".into(),
            });
        }
        Ok(())
    }

    /// Forward pass to logits.
    pub fn forward(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let (out, _) = self.forward_cached(x, false)?;
        Ok(out)
    }

    fn forward_cached(&self, x: &DenseMatrix, keep: bool) -> Result<(DenseMatrix, Vec<Cache>)> {
        let mut cur = x.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer_forward(layer, &cur, keep)?;
            caches.push(cache);
            cur = next;
        }
        Ok((cur, caches))
    }

    /// Full forward + backward pass with softmax cross-entropy loss over
    /// one-hot targets. Returns `(mean loss, gradients)` with gradients
    /// aligned to [`Network::params`].
    pub fn loss_grad(
        &self,
        x: &DenseMatrix,
        y_onehot: &DenseMatrix,
    ) -> Result<(f64, Vec<DenseMatrix>)> {
        let n = x.rows() as f64;
        let (logits, caches) = self.forward_cached(x, true)?;
        if logits.shape() != y_onehot.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "loss_grad",
                lhs: logits.shape(),
                rhs: y_onehot.shape(),
            });
        }
        // Softmax + cross-entropy, fused for numerical stability.
        let probs = exdra_matrix::kernels::elementwise::softmax(&logits);
        let mut loss = 0.0;
        for r in 0..logits.rows() {
            for c in 0..logits.cols() {
                if y_onehot.get(r, c) != 0.0 {
                    loss -= probs.get(r, c).max(1e-300).ln();
                }
            }
        }
        loss /= n;
        // dLogits = (probs - y) / n
        let mut dout = probs;
        for (dv, yv) in dout.values_mut().iter_mut().zip(y_onehot.values()) {
            *dv = (*dv - yv) / n;
        }
        // Backward through layers, collecting parameter gradients.
        let mut grads_rev: Vec<DenseMatrix> = Vec::new();
        for (layer, cache) in self.layers.iter().zip(caches.iter()).rev() {
            let (din, mut pgrads) = layer_backward(layer, cache, &dout)?;
            pgrads.reverse(); // maintain (W, b) order after the final reverse
            grads_rev.extend(pgrads);
            dout = din;
        }
        grads_rev.reverse();
        Ok((loss, grads_rev))
    }

    /// Predicts 1-based class labels.
    pub fn predict(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let logits = self.forward(x)?;
        exdra_matrix::kernels::aggregates::row_index_max(&logits)
    }
}

fn next_param<'a>(
    it: &mut impl Iterator<Item = &'a DenseMatrix>,
    shape: (usize, usize),
) -> Result<DenseMatrix> {
    let m = it.next().ok_or(MatrixError::InvalidArgument {
        op: "set_params",
        msg: "too few parameter matrices".into(),
    })?;
    if m.shape() != shape {
        return Err(MatrixError::DimensionMismatch {
            op: "set_params",
            lhs: m.shape(),
            rhs: shape,
        });
    }
    Ok(m.clone())
}

fn he_init(fan_in: usize, fan_out: usize, seed: u64) -> DenseMatrix {
    let scale = (2.0 / fan_in as f64).sqrt();
    let mut m = randn_matrix(fan_in, fan_out, seed);
    m.map_inplace(|v| v * scale);
    m
}

fn layer_forward(layer: &Layer, x: &DenseMatrix, keep: bool) -> Result<(DenseMatrix, Cache)> {
    match layer {
        Layer::Dense { w, b } => {
            let mut out = matmul(x, w)?;
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                for (o, &bv) in row.iter_mut().zip(b.values()) {
                    *o += bv;
                }
            }
            Ok((
                out,
                Cache::Dense {
                    input: if keep {
                        x.clone()
                    } else {
                        DenseMatrix::zeros(0, 0)
                    },
                },
            ))
        }
        Layer::ReLU => {
            let out = x.map(|v| v.max(0.0));
            Ok((
                out,
                Cache::ReLU {
                    input: if keep {
                        x.clone()
                    } else {
                        DenseMatrix::zeros(0, 0)
                    },
                },
            ))
        }
        Layer::Conv2d {
            filters,
            bias,
            in_shape,
            kernel,
            stride,
        } => {
            let (c_in, h, w) = *in_shape;
            let (kh, kw) = *kernel;
            let oh = out_dim(h, kh, *stride);
            let ow = out_dim(w, kw, *stride);
            let oc = filters.rows();
            let l = oh * ow;
            let mut out = DenseMatrix::zeros(x.rows(), oc * l);
            let mut patches_cache = Vec::with_capacity(if keep { x.rows() } else { 0 });
            for s in 0..x.rows() {
                let patches = im2col(x.row(s), c_in, h, w, kh, kw, *stride);
                // out_map = patches (l x ckk) * filtersᵀ (ckk x oc)
                let pm = matmul(&patches, &transpose(filters))?;
                let orow = out.row_mut(s);
                for o in 0..oc {
                    let bv = bias.get(0, o);
                    for li in 0..l {
                        orow[o * l + li] = pm.get(li, o) + bv;
                    }
                }
                if keep {
                    patches_cache.push(patches);
                }
            }
            Ok((
                out,
                Cache::Conv {
                    patches: patches_cache,
                },
            ))
        }
        Layer::MaxPool { in_shape, size } => {
            let (c, h, w) = *in_shape;
            let oh = out_dim(h, *size, *size);
            let ow = out_dim(w, *size, *size);
            let mut out = DenseMatrix::zeros(x.rows(), c * oh * ow);
            let mut argmax = Vec::with_capacity(if keep { x.rows() } else { 0 });
            for s in 0..x.rows() {
                let row = x.row(s);
                let mut arg = vec![0usize; c * oh * ow];
                let orow = out.row_mut(s);
                for ch in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f64::NEG_INFINITY;
                            let mut best_idx = 0usize;
                            for dy in 0..*size {
                                for dx in 0..*size {
                                    let idx = ch * h * w + (oy * size + dy) * w + (ox * size + dx);
                                    if row[idx] > best {
                                        best = row[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                            let oidx = ch * oh * ow + oy * ow + ox;
                            orow[oidx] = best;
                            arg[oidx] = best_idx;
                        }
                    }
                }
                if keep {
                    argmax.push(arg);
                }
            }
            Ok((
                out,
                Cache::Pool {
                    argmax,
                    in_features: c * h * w,
                },
            ))
        }
    }
}

fn layer_backward(
    layer: &Layer,
    cache: &Cache,
    dout: &DenseMatrix,
) -> Result<(DenseMatrix, Vec<DenseMatrix>)> {
    match (layer, cache) {
        (Layer::Dense { w, .. }, Cache::Dense { input }) => {
            let dw = matmul_tn(input, dout)?;
            let db = exdra_matrix::kernels::aggregates::aggregate(
                dout,
                exdra_matrix::kernels::aggregates::AggOp::Sum,
                exdra_matrix::kernels::aggregates::AggDir::Col,
            )?;
            let din = matmul(dout, &transpose(w))?;
            Ok((din, vec![dw, db]))
        }
        (Layer::ReLU, Cache::ReLU { input }) => {
            let din = input.zip(dout, "relu_bw", |x, d| if x > 0.0 { d } else { 0.0 })?;
            Ok((din, vec![]))
        }
        (
            Layer::Conv2d {
                filters,
                in_shape,
                kernel,
                stride,
                ..
            },
            Cache::Conv { patches },
        ) => {
            let (c_in, h, w) = *in_shape;
            let (kh, kw) = *kernel;
            let oh = out_dim(h, kh, *stride);
            let ow = out_dim(w, kw, *stride);
            let oc = filters.rows();
            let l = oh * ow;
            let ckk = c_in * kh * kw;
            let mut dfilters = DenseMatrix::zeros(oc, ckk);
            let mut dbias = DenseMatrix::zeros(1, oc);
            let mut din = DenseMatrix::zeros(dout.rows(), c_in * h * w);
            for s in 0..dout.rows() {
                // Per-sample dout map as oc x l.
                let drow = dout.row(s);
                let mut dmap = DenseMatrix::zeros(oc, l);
                for o in 0..oc {
                    let mut bsum = 0.0;
                    for li in 0..l {
                        let v = drow[o * l + li];
                        dmap.set(o, li, v);
                        bsum += v;
                    }
                    let cur = dbias.get(0, o);
                    dbias.set(0, o, cur + bsum);
                }
                // dF += dmap (oc x l) * patches (l x ckk)
                let df = matmul(&dmap, &patches[s])?;
                for (a, b) in dfilters.values_mut().iter_mut().zip(df.values()) {
                    *a += b;
                }
                // dPatches = dmapᵀ (l x oc) * filters (oc x ckk); col2im.
                let dpatches = matmul_tn(&dmap, filters)?;
                col2im(&dpatches, din.row_mut(s), c_in, h, w, kh, kw, *stride);
            }
            Ok((din, vec![dfilters, dbias]))
        }
        (
            Layer::MaxPool { in_shape, .. },
            Cache::Pool {
                argmax,
                in_features,
            },
        ) => {
            let _ = in_shape;
            let mut din = DenseMatrix::zeros(dout.rows(), *in_features);
            for s in 0..dout.rows() {
                let drow = dout.row(s);
                let din_row = din.row_mut(s);
                for (oidx, &iidx) in argmax[s].iter().enumerate() {
                    din_row[iidx] += drow[oidx];
                }
            }
            Ok((din, vec![]))
        }
        _ => Err(MatrixError::InvalidArgument {
            op: "layer_backward",
            msg: "cache/layer mismatch".into(),
        }),
    }
}

/// Extracts convolution patches of one sample row into an
/// `(oh*ow) x (c*kh*kw)` matrix.
fn im2col(
    row: &[f64],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
) -> DenseMatrix {
    let oh = out_dim(h, kh, stride);
    let ow = out_dim(w, kw, stride);
    let mut out = DenseMatrix::zeros(oh * ow, c * kh * kw);
    for oy in 0..oh {
        for ox in 0..ow {
            let prow = out.row_mut(oy * ow + ox);
            let mut k = 0usize;
            for ch in 0..c {
                for dy in 0..kh {
                    for dx in 0..kw {
                        prow[k] = row[ch * h * w + (oy * stride + dy) * w + (ox * stride + dx)];
                        k += 1;
                    }
                }
            }
        }
    }
    out
}

/// Scatters patch gradients back into an input-row gradient (inverse of
/// [`im2col`], accumulating overlaps).
#[allow(clippy::too_many_arguments)]
fn col2im(
    dpatches: &DenseMatrix,
    din_row: &mut [f64],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
) {
    let oh = out_dim(h, kh, stride);
    let ow = out_dim(w, kw, stride);
    for oy in 0..oh {
        for ox in 0..ow {
            let prow = dpatches.row(oy * ow + ox);
            let mut k = 0usize;
            for ch in 0..c {
                for dy in 0..kh {
                    for dx in 0..kw {
                        din_row[ch * h * w + (oy * stride + dy) * w + (ox * stride + dx)] +=
                            prow[k];
                        k += 1;
                    }
                }
            }
        }
    }
}

/// SGD with (optionally Nesterov) momentum over a flat parameter list.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Use the Nesterov lookahead form.
    pub nesterov: bool,
    velocity: Vec<DenseMatrix>,
}

impl Sgd {
    /// Creates the optimizer; velocities initialize lazily to zeros.
    pub fn new(lr: f64, momentum: f64, nesterov: bool) -> Self {
        Self {
            lr,
            momentum,
            nesterov,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step in place.
    pub fn step(&mut self, params: &mut [DenseMatrix], grads: &[DenseMatrix]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| DenseMatrix::zeros(p.rows(), p.cols()))
                .collect();
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            for ((pv, &gv), vv) in p
                .values_mut()
                .iter_mut()
                .zip(g.values())
                .zip(v.values_mut())
            {
                let prev = *vv;
                *vv = self.momentum * *vv - self.lr * gv;
                if self.nesterov {
                    *pv += -self.momentum * prev + (1.0 + self.momentum) * *vv;
                } else {
                    *pv += *vv;
                }
            }
        }
    }
}

/// Local mini-batch training loop (the `Local` baseline for FFN/CNN).
/// Returns the per-epoch mean losses.
pub fn train_local(
    net: &mut Network,
    x: &DenseMatrix,
    y_onehot: &DenseMatrix,
    epochs: usize,
    batch_size: usize,
    sgd: &mut Sgd,
) -> Result<Vec<f64>> {
    let n = x.rows();
    let mut params = net.params();
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut total = 0.0;
        let mut batches = 0usize;
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch_size).min(n);
            let xb = exdra_matrix::kernels::reorg::index(x, lo, hi, 0, x.cols())?;
            let yb = exdra_matrix::kernels::reorg::index(y_onehot, lo, hi, 0, y_onehot.cols())?;
            net.set_params(&params)?;
            let (loss, grads) = net.loss_grad(&xb, &yb)?;
            sgd.step(&mut params, &grads);
            total += loss;
            batches += 1;
            lo = hi;
        }
        epoch_losses.push(total / batches.max(1) as f64);
    }
    net.set_params(&params)?;
    Ok(epoch_losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::accuracy;
    use crate::synth;

    #[test]
    fn params_roundtrip() {
        let net = Network::ffn(10, &[8, 6], 3, 1);
        let params = net.params();
        assert_eq!(params.len(), 6); // 3 dense layers x (W, b)
        let mut other = Network::ffn(10, &[8, 6], 3, 99);
        other.set_params(&params).unwrap();
        assert_eq!(other.params(), params);
        // Wrong count rejected.
        assert!(other.set_params(&params[..4]).is_err());
    }

    #[test]
    fn dense_gradient_matches_finite_differences() {
        let net = Network::ffn(4, &[5], 3, 2);
        let x = exdra_matrix::rng::rand_matrix(6, 4, -1.0, 1.0, 3);
        let y = synth::one_hot(&DenseMatrix::col_vector(&[1., 2., 3., 1., 2., 3.]), 3);
        check_gradients(net, &x, &y, 1e-5, 2e-4);
    }

    #[test]
    fn conv_gradient_matches_finite_differences() {
        let net = Network {
            layers: vec![
                Layer::Conv2d {
                    filters: exdra_matrix::rng::randn_matrix(2, 9, 4).map(|v| v * 0.5),
                    bias: DenseMatrix::zeros(1, 2),
                    in_shape: (1, 6, 6),
                    kernel: (3, 3),
                    stride: 1,
                },
                Layer::ReLU,
                Layer::MaxPool {
                    in_shape: (2, 4, 4),
                    size: 2,
                },
                Layer::Dense {
                    w: exdra_matrix::rng::randn_matrix(8, 2, 5).map(|v| v * 0.5),
                    b: DenseMatrix::zeros(1, 2),
                },
            ],
        };
        let x = exdra_matrix::rng::rand_matrix(3, 36, 0.0, 1.0, 6);
        let y = synth::one_hot(&DenseMatrix::col_vector(&[1., 2., 1.]), 2);
        check_gradients(net, &x, &y, 1e-5, 5e-4);
    }

    fn check_gradients(net: Network, x: &DenseMatrix, y: &DenseMatrix, eps: f64, tol: f64) {
        let params = net.params();
        let (_, grads) = net.loss_grad(x, y).unwrap();
        let mut net2 = net.clone();
        for (pi, p) in params.iter().enumerate() {
            // Probe a handful of coordinates per parameter matrix.
            let probes = [0usize, p.len() / 2, p.len() - 1];
            for &ci in probes.iter() {
                let mut plus = params.clone();
                plus[pi].values_mut()[ci] += eps;
                net2.set_params(&plus).unwrap();
                let (lp, _) = net2.loss_grad(x, y).unwrap();
                let mut minus = params.clone();
                minus[pi].values_mut()[ci] -= eps;
                net2.set_params(&minus).unwrap();
                let (lm, _) = net2.loss_grad(x, y).unwrap();
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[pi].values()[ci];
                assert!(
                    (numeric - analytic).abs() < tol,
                    "param {pi} cell {ci}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn ffn_learns_blobs() {
        let (x, y) = synth::multi_class(400, 6, 3, 0.4, 7);
        let y1h = synth::one_hot(&y, 3);
        let mut net = Network::ffn(6, &[16], 3, 8);
        let mut sgd = Sgd::new(0.1, 0.9, true);
        let losses = train_local(&mut net, &x, &y1h, 15, 32, &mut sgd).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.3),
            "losses {losses:?}"
        );
        let pred = net.predict(&x).unwrap();
        assert!(accuracy(&pred, &y).unwrap() > 0.9);
    }

    #[test]
    fn cnn_learns_synthetic_images() {
        let (x, y) = synth::images(200, 12, 3, 9);
        let y1h = synth::one_hot(&y, 3);
        let mut net = Network::cnn(12, 4, 16, 3, 10);
        let mut sgd = Sgd::new(0.05, 0.9, false);
        let losses = train_local(&mut net, &x, &y1h, 8, 32, &mut sgd).unwrap();
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");
        let pred = net.predict(&x).unwrap();
        assert!(
            accuracy(&pred, &y).unwrap() > 0.8,
            "cnn should fit train data"
        );
    }

    #[test]
    fn nesterov_differs_from_plain_momentum() {
        let (x, y) = synth::multi_class(100, 4, 2, 0.5, 11);
        let y1h = synth::one_hot(&y, 2);
        let mut a = Network::ffn(4, &[8], 2, 12);
        let mut b = a.clone();
        let mut sgd_a = Sgd::new(0.05, 0.9, true);
        let mut sgd_b = Sgd::new(0.05, 0.9, false);
        train_local(&mut a, &x, &y1h, 2, 32, &mut sgd_a).unwrap();
        train_local(&mut b, &x, &y1h, 2, 32, &mut sgd_b).unwrap();
        let diff: f64 = a
            .params()
            .iter()
            .zip(b.params())
            .map(|(pa, pb)| pa.max_abs_diff(&pb))
            .fold(0.0, f64::max);
        assert!(diff > 1e-9, "nesterov must change the trajectory");
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), p> == <x, col2im(p)> (adjointness).
        let x = exdra_matrix::rng::rand_matrix(1, 16, -1.0, 1.0, 13);
        let patches = im2col(x.row(0), 1, 4, 4, 2, 2, 1);
        let p = exdra_matrix::rng::rand_matrix(patches.rows(), patches.cols(), -1.0, 1.0, 14);
        let lhs: f64 = patches
            .values()
            .iter()
            .zip(p.values())
            .map(|(&a, &b)| a * b)
            .sum();
        let mut back = vec![0.0; 16];
        col2im(&p, &mut back, 1, 4, 4, 2, 2, 1);
        let rhs: f64 = x.row(0).iter().zip(&back).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
    }
}
