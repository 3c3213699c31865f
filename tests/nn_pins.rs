//! Bit pins of the neural-network training path: the loss and every
//! gradient `Network::loss_grad` returns for a P2-shaped FFN and a small
//! CNN, and the final parameters of a one-epoch local parameter server.
//!
//! Each pin is an FNV-1a hash of a result's shape and its `f64` bits. A
//! change to how the forward and backward passes or the epoch loop are
//! computed must leave every literal here as it is: those are speed-ups,
//! never numerical changes.

use exdra::matrix::rng::rand_matrix;
use exdra::matrix::DenseMatrix;
use exdra::ml::nn::Network;
use exdra::ml::synth;
use exdra::paramserv::{local as pslocal, PsConfig};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn hash(m: &DenseMatrix) -> u64 {
    let shape = [m.rows() as u64, m.cols() as u64];
    fnv(shape
        .into_iter()
        .chain(m.values().iter().map(|v| v.to_bits())))
}

/// `[loss, grad 0, grad 1, ...]` hashes of one `loss_grad` call.
fn loss_grad_hashes(net: &Network, x: &DenseMatrix, y: &DenseMatrix) -> Vec<u64> {
    let (loss, grads) = net.loss_grad(x, y).unwrap();
    let mut out = vec![fnv([loss.to_bits()])];
    out.extend(grads.iter().map(hash));
    out
}

/// Compares every hash and prints the whole table on a mismatch, so a
/// deliberate change can be reviewed (and re-pinned) in one run.
fn check(name: &str, got: &[u64], want: &[u64]) {
    if got != want {
        let table: Vec<String> = got.iter().map(|h| format!("{h:#018x},")).collect();
        panic!("{name}: pins moved; got\n{}", table.join("\n"));
    }
}

#[test]
fn ffn_loss_and_gradients_keep_their_bits() {
    // P2's FFN: 56 encoded features, one hidden layer of 64, 2 classes,
    // one 512-row batch.
    let net = Network::ffn(56, &[64], 2, 11);
    let x = rand_matrix(512, 56, -2.0, 2.0, 12);
    let labels: Vec<f64> = (0..512).map(|r| ((r * 7 + r / 3) % 2 + 1) as f64).collect();
    let y = synth::one_hot(&DenseMatrix::col_vector(&labels), 2);
    check(
        "ffn",
        &loss_grad_hashes(&net, &x, &y),
        &[
            0x9888bb69c5c25b61,
            0xaf9c3b786331481b,
            0x46ae51afa3a6c264,
            0xc80830e2c6e12159,
            0xe3e687d3b8769286,
        ],
    );
}

#[test]
fn cnn_loss_and_gradients_keep_their_bits() {
    let net = Network::cnn(12, 4, 16, 3, 21);
    let (x, y) = synth::images(8, 12, 3, 22);
    let y = synth::one_hot(&y, 3);
    check(
        "cnn",
        &loss_grad_hashes(&net, &x, &y),
        &[
            0x7bcb9e9ef469ef72,
            0x7b4a73f00c9c0671,
            0xc3df3a5009fbc5f1,
            0x94c7ddc73d6a87a7,
            0x89884fe63b0e0a1f,
            0x19aa266ae643a234,
            0xa55434bddbca4cb7,
        ],
    );
}

#[test]
fn one_local_ps_epoch_keeps_its_bits() {
    // Two unequal partitions, so the last batch of each is short and the
    // aggregation weights differ.
    let (x, y) = synth::multi_class(300, 6, 3, 0.4, 31);
    let y1h = synth::one_hot(&y, 3);
    let mid = 170;
    let take = |m: &DenseMatrix, lo: usize, hi: usize| {
        exdra::matrix::kernels::reorg::index(m, lo, hi, 0, m.cols()).unwrap()
    };
    let parts = vec![
        (take(&x, 0, mid), take(&y1h, 0, mid)),
        (take(&x, mid, 300), take(&y1h, mid, 300)),
    ];
    let net = Network::ffn(6, &[16], 3, 32);
    let cfg = PsConfig {
        epochs: 1,
        batch_size: 32,
        seed: 33,
        ..PsConfig::default()
    };
    let run = pslocal::train(&net, &parts, &cfg).unwrap();
    let mut got: Vec<u64> = run.params.iter().map(hash).collect();
    got.push(fnv(run.epoch_losses.iter().map(|l| l.to_bits())));
    check(
        "pslocal",
        &got,
        &[
            0xd3d0974cbaa9a112,
            0x8327cc1daf392164,
            0x1b8182fd14790a87,
            0xbe41e75a12f3aaaa,
            0x0c600b9866b19aaa,
        ],
    );
}
