//! Property-based tests on the core invariants: federated execution is
//! observationally equivalent to local execution for random shapes,
//! partitionings, and operations; codecs and compression round-trip.

use exdra::core::fed::{FedMatrix, FedPartition, PartitionScheme};
use exdra::core::testutil::mem_federation;
use exdra::core::{PrivacyLevel, Tensor};
use exdra::matrix::compress::CompressedMatrix;
use exdra::matrix::kernels::aggregates::{aggregate, AggDir, AggOp};
use exdra::matrix::kernels::elementwise::{binary, scalar, unary, BinaryOp, UnaryOp};
use exdra::matrix::kernels::matmul::{matmul, matmul_naive, mmchain, tsmm};
use exdra::matrix::DenseMatrix;
use exdra::net::codec::Wire;
use proptest::prelude::*;

/// Builds a matrix with proptest-chosen values.
fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| DenseMatrix::new(r, c, data).unwrap())
    })
}

/// A random contiguous partitioning of `rows` over up to 4 workers.
fn arb_cuts(rows: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::btree_set(1..rows.max(2), 0..3usize).prop_map(move |set| {
        let mut cuts: Vec<usize> = set.into_iter().filter(|&c| c < rows).collect();
        cuts.insert(0, 0);
        cuts.push(rows);
        cuts.dedup();
        cuts
    })
}

/// Scatters `x` with the given cut points over a fresh in-memory federation.
fn fed_with_cuts(
    x: &DenseMatrix,
    cuts: &[usize],
) -> (std::sync::Arc<exdra::FedContext>, FedMatrix) {
    let n = cuts.len() - 1;
    let (ctx, workers) = mem_federation(n);
    let mut parts = Vec::new();
    for w in 0..n {
        let (lo, hi) = (cuts[w], cuts[w + 1]);
        let id = ctx.fresh_id();
        let slice = exdra::matrix::kernels::reorg::index(x, lo, hi, 0, x.cols()).unwrap();
        workers[w].install_matrix(id, slice, PrivacyLevel::Public, &format!("prop{w}"));
        parts.push(FedPartition {
            lo,
            hi,
            worker: w,
            id,
        });
    }
    let fed = FedMatrix::from_parts(
        std::sync::Arc::clone(&ctx),
        PartitionScheme::Row,
        x.rows(),
        x.cols(),
        parts,
        PrivacyLevel::Public,
        false,
    )
    .unwrap();
    (ctx, fed)
}

#[test]
fn fed_swapped_scalar_is_local_bits_at_the_cost_of_an_unswapped_one() {
    // `s op X` runs as one `Scalar` instruction per partition with its
    // `swap` flag set, so it is the local kernel's bits, NaN and the sign
    // of zero included, and costs what `X op s` costs.
    let mut x = exdra::matrix::rng::rand_matrix(40, 5, -3.0, 3.0, 11);
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    for (i, v) in specials.into_iter().enumerate() {
        x.values_mut()[i * 37] = v;
    }
    let (ctx, workers) = mem_federation(2);
    let t = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let served = || workers.iter().map(|w| w.load()).sum::<u32>();

    let ops = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::IntDiv,
        BinaryOp::Mod,
        BinaryOp::Pow,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::Eq,
        BinaryOp::Neq,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::LogBase,
    ];
    for op in ops {
        for s in [2.5, 0.0, -0.0, f64::NAN] {
            let mut requests = [0; 2];
            for (n, swap) in requests.iter_mut().zip([false, true]) {
                // Deferred requests (the scatter, the last result's rmvar)
                // ride this fetch, not the measured one.
                t.to_local().unwrap();
                let before = served();
                let got = t.scalar_op(op, s, swap).unwrap().to_local().unwrap();
                *n = served() - before;
                let want = scalar(&x, op, s, swap);
                let bits =
                    |m: &DenseMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{op:?} s = {s} swap = {swap}");
            }
            assert_eq!(requests[1], requests[0], "{op:?}: s op X vs X op s");
        }
    }
}

#[test]
fn fed_local_left_operand_is_local_bits_at_the_cost_of_a_local_right_one() {
    // `A op X` with a local `A` of `X`'s shape ships `A`'s slices as the
    // left operand of one `Binary` instruction per partition, so it is
    // the local kernel's bits (NaN, the sign of zero, `49 / 49`) and
    // costs what `X op A` costs.
    let mut x = exdra::matrix::rng::rand_matrix(40, 5, -3.0, 3.0, 12);
    let mut a = exdra::matrix::rng::rand_matrix(40, 5, -3.0, 3.0, 13);
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    for (i, v) in specials.into_iter().enumerate() {
        x.values_mut()[i * 37] = v;
        a.values_mut()[i * 23 + 3] = v;
        a.values_mut()[i * 11 + 150] = specials[(i + 2) % specials.len()];
    }
    // Equal cells (`x - x` is +0.0) and the cell `49 / 49` must be 1.
    for i in [7, 60, 121] {
        a.values_mut()[i] = x.values()[i];
    }
    a.values_mut()[199] = 49.0;
    x.values_mut()[199] = 49.0;
    let (ctx, workers) = mem_federation(2);
    let t = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
    let served = || workers.iter().map(|w| w.load()).sum::<u32>();
    let bits = |m: &DenseMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    let ops = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::IntDiv,
        BinaryOp::Mod,
        BinaryOp::Pow,
        BinaryOp::Min,
        BinaryOp::Max,
        BinaryOp::Eq,
        BinaryOp::Neq,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::LogBase,
    ];
    for op in ops {
        // Deferred requests (the scatter, the last result's rmvar) ride
        // this fetch, not the measured one.
        t.to_local().unwrap();
        let before = served();
        let got = Tensor::Local(a.clone())
            .binary(op, &t)
            .unwrap_or_else(|e| panic!("{op:?}: {e}"))
            .to_local()
            .unwrap();
        let swapped = served() - before;
        let want = binary(&a, op, &x).unwrap();
        let diff = bits(&got)
            .iter()
            .zip(bits(&want))
            .position(|(g, w)| *g != w);
        assert_eq!(
            diff,
            None,
            "{op:?}: got {:?}, want {:?}",
            got.values()[diff.unwrap_or(0)],
            want.values()[diff.unwrap_or(0)]
        );

        t.to_local().unwrap();
        let before = served();
        t.binary(op, &Tensor::Local(a.clone()))
            .unwrap()
            .to_local()
            .unwrap();
        assert_eq!(swapped, served() - before, "{op:?}: A op X vs X op A");
    }
    assert_eq!(
        Tensor::Local(a.clone())
            .binary(BinaryOp::Div, &t)
            .unwrap()
            .to_local()
            .unwrap()
            .values()[199]
            .to_bits(),
        1.0f64.to_bits()
    );
    // A vector on the left of a non-commutative op is the local kernel's
    // shape error; a commutative one runs as `X op A`.
    let row = exdra::matrix::rng::rand_matrix(1, 5, -3.0, 3.0, 14);
    let local_err = binary(&row, BinaryOp::Sub, &x).unwrap_err().to_string();
    let fed_err = Tensor::Local(row.clone()).binary(BinaryOp::Sub, &t);
    assert!(fed_err.unwrap_err().to_string().contains(&local_err));
    let sum = Tensor::Local(row.clone())
        .binary(BinaryOp::Add, &t)
        .unwrap();
    let want = binary(&x, BinaryOp::Add, &row).unwrap();
    assert_eq!(bits(&sum.to_local().unwrap()), bits(&want));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fed_consolidate_is_identity(x in arb_matrix(40, 8), seed in 0u64..1000) {
        let cuts = {
            // Derive deterministic cuts from the seed for shrinkability.
            let n = (seed % 3 + 1) as usize;
            let mut cuts = vec![0];
            for i in 1..n {
                cuts.push(i * x.rows() / n);
            }
            cuts.push(x.rows());
            cuts.dedup();
            cuts
        };
        prop_assume!(cuts.len() >= 2);
        let (_ctx, fed) = fed_with_cuts(&x, &cuts);
        let back = fed.consolidate().unwrap();
        prop_assert!(back.max_abs_diff(&x) < 1e-15);
    }

    #[test]
    fn fed_matvec_equals_local(x in arb_matrix(40, 8), cuts in arb_cuts(40)) {
        prop_assume!(*cuts.last().unwrap() == x.rows() || x.rows() >= cuts.len());
        let cuts: Vec<usize> = cuts.iter().cloned().filter(|&c| c <= x.rows()).collect();
        let mut cuts = cuts;
        if *cuts.last().unwrap() != x.rows() { cuts.push(x.rows()); }
        cuts.dedup();
        prop_assume!(cuts.len() >= 2 && cuts.windows(2).all(|w| w[0] < w[1]));
        let v = DenseMatrix::filled(x.cols(), 1, 0.5);
        let (_ctx, fed) = fed_with_cuts(&x, &cuts);
        let got = Tensor::Fed(fed).matmul(&Tensor::Local(v.clone())).unwrap().to_local().unwrap();
        let want = matmul(&x, &v).unwrap();
        prop_assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn fed_aggregates_equal_local(x in arb_matrix(30, 6)) {
        prop_assume!(x.rows() >= 2);
        let cuts = vec![0, x.rows() / 2, x.rows()];
        let cuts: Vec<usize> = cuts.into_iter().collect();
        prop_assume!(cuts[1] > 0 && cuts[1] < x.rows());
        let (_ctx, fed) = fed_with_cuts(&x, &cuts);
        let t = Tensor::Fed(fed);
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Mean, AggOp::Var] {
            for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
                let got = t.agg(op, dir).unwrap().to_local().unwrap();
                let want = aggregate(&x, op, dir).unwrap();
                prop_assert!(got.max_abs_diff(&want) < 1e-7,
                    "{op:?} {dir:?}: {}", got.max_abs_diff(&want));
            }
        }
    }

    #[test]
    fn fed_elementwise_equals_local(x in arb_matrix(25, 5), s in -3.0f64..3.0) {
        prop_assume!(x.rows() >= 2);
        let cuts = vec![0, x.rows() / 2, x.rows()];
        prop_assume!(cuts[1] > 0);
        let (_ctx, fed) = fed_with_cuts(&x, &cuts);
        let t = Tensor::Fed(fed);
        let got = t.unary(UnaryOp::Abs).unwrap()
            .scalar_op(BinaryOp::Add, s, false).unwrap()
            .to_local().unwrap();
        let want = x.map(|v| v.abs() + s);
        prop_assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn matmul_tiled_equals_naive(a in arb_matrix(20, 12), b_cols in 1usize..8) {
        let b = exdra::matrix::rng::rand_matrix(a.cols(), b_cols, -1.0, 1.0, 7);
        let got = matmul(&a, &b).unwrap();
        let want = matmul_naive(&a, &b).unwrap();
        prop_assert!(got.max_abs_diff(&want) < 1e-8);
    }

    #[test]
    fn tsmm_is_symmetric_psd_diagonal(x in arb_matrix(20, 6)) {
        let g = tsmm(&x, true).unwrap();
        for i in 0..g.rows() {
            prop_assert!(g.get(i, i) >= -1e-9, "diagonal must be non-negative");
            for j in 0..g.cols() {
                prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mmchain_equals_composition(x in arb_matrix(15, 5)) {
        let v = exdra::matrix::rng::rand_matrix(x.cols(), 1, -1.0, 1.0, 3);
        let got = mmchain(&x, &v, None).unwrap();
        let xt = exdra::matrix::kernels::reorg::transpose(&x);
        let want = matmul(&xt, &matmul(&x, &v).unwrap()).unwrap();
        prop_assert!(got.max_abs_diff(&want) < 1e-8);
    }

    #[test]
    fn broadcast_binary_matches_explicit(x in arb_matrix(12, 6)) {
        let rv = exdra::matrix::rng::rand_matrix(1, x.cols(), 0.5, 2.0, 5);
        let got = binary(&x, BinaryOp::Div, &rv).unwrap();
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                prop_assert!((got.get(r, c) - x.get(r, c) / rv.get(0, c)).abs() < 1e-12);
            }
        }
        // Comparison ops produce only 0/1.
        let cmp = binary(&x, BinaryOp::Gt, &rv).unwrap();
        prop_assert!(cmp.values().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn wire_codec_roundtrips(x in arb_matrix(15, 10)) {
        let back = DenseMatrix::from_bytes(&x.to_bytes()).unwrap();
        prop_assert_eq!(back, x);
    }

    #[test]
    fn compression_is_lossless(x in arb_matrix(30, 6), quantize in proptest::bool::ANY) {
        // Quantized data exercises DDC/RLE; raw data exercises UC.
        let m = if quantize { x.map(|v| v.round()) } else { x };
        let c = CompressedMatrix::compress(&m);
        prop_assert_eq!(c.decompress(), m);
    }

    #[test]
    fn unary_not_is_involution_on_booleans(x in arb_matrix(10, 5)) {
        let b = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let back = unary(&unary(&b, UnaryOp::Not), UnaryOp::Not);
        prop_assert_eq!(back, b);
    }

    #[test]
    fn partitioned_aggregation_law(x in arb_matrix(30, 5), cut in 1usize..29) {
        // colSums(rbind(A, B)) == colSums(A) + colSums(B): the partial-
        // aggregation law the federated backend relies on.
        prop_assume!(cut < x.rows());
        let a = exdra::matrix::kernels::reorg::index(&x, 0, cut, 0, x.cols()).unwrap();
        let b = exdra::matrix::kernels::reorg::index(&x, cut, x.rows(), 0, x.cols()).unwrap();
        let whole = aggregate(&x, AggOp::Sum, AggDir::Col).unwrap();
        let pa = aggregate(&a, AggOp::Sum, AggDir::Col).unwrap();
        let pb = aggregate(&b, AggOp::Sum, AggDir::Col).unwrap();
        let combined = pa.zip(&pb, "+", |u, v| u + v).unwrap();
        prop_assert!(combined.max_abs_diff(&whole) < 1e-9);
    }
}
