//! The columnar frame layout against the per-cell one it replaced.
//!
//! A column used to be a `Vec<Option<T>>`, and its wire form was a tag
//! followed by that vector's own encoding. [`Oracle`] keeps that form.
//! Random frames (0 to 130 rows, so validity words straddle the 64-row
//! boundary; all four types; missing, all-missing, empty and multibyte
//! cells) must encode to the oracle's bytes, decode back to themselves,
//! fold to the lineage of those bytes, and slice, bind, select and convert
//! like their cells do. Mutated `PUT` payloads never panic the decoder,
//! and it fails with the oracle decoder's error text. (The codec's unit
//! tests decode the same columns from buffers that arrive in chunks.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exdra::core::lineage;
use exdra::core::protocol::Request;
use exdra::core::{DataValue, PrivacyLevel};
use exdra::matrix::frame::{Frame, FrameColumn};
use exdra::net::codec::{DecodeError, DecodeResult, Wire};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A column as a vector of cells: the layout the columnar one replaced.
#[derive(Debug, Clone, PartialEq)]
enum Oracle {
    F64(Vec<Option<f64>>),
    I64(Vec<Option<i64>>),
    Str(Vec<Option<String>>),
    Bool(Vec<Option<bool>>),
}

/// Applies one expression to the cell vector of any [`Oracle`] variant,
/// rebuilding the same variant when the expression yields a vector.
macro_rules! each_variant {
    ($o:expr, |$v:ident| $body:expr) => {
        match $o {
            Oracle::F64($v) => $body,
            Oracle::I64($v) => $body,
            Oracle::Str($v) => $body,
            Oracle::Bool($v) => $body,
        }
    };
    (map $o:expr, |$v:ident| $body:expr) => {
        match $o {
            Oracle::F64($v) => Oracle::F64($body),
            Oracle::I64($v) => Oracle::I64($body),
            Oracle::Str($v) => Oracle::Str($body),
            Oracle::Bool($v) => Oracle::Bool($body),
        }
    };
}

impl Oracle {
    fn of(col: &FrameColumn) -> Oracle {
        match col {
            FrameColumn::F64(c) => Oracle::F64(c.iter().collect()),
            FrameColumn::I64(c) => Oracle::I64(c.iter().collect()),
            FrameColumn::Str(c) => Oracle::Str(c.iter().map(|s| s.map(str::to_string)).collect()),
            FrameColumn::Bool(c) => Oracle::Bool(c.iter().collect()),
        }
    }

    fn column(&self) -> FrameColumn {
        each_variant!(self, |v| FrameColumn::from(v.clone()))
    }

    fn len(&self) -> usize {
        each_variant!(self, |v| v.len())
    }

    fn slice(&self, lo: usize, hi: usize) -> Oracle {
        each_variant!(map self, |v| v[lo..hi].to_vec())
    }

    fn concat(&self, other: &Oracle) -> Oracle {
        match (self, other) {
            (Oracle::F64(a), Oracle::F64(b)) => Oracle::F64([&a[..], b].concat()),
            (Oracle::I64(a), Oracle::I64(b)) => Oracle::I64([&a[..], b].concat()),
            (Oracle::Str(a), Oracle::Str(b)) => Oracle::Str([&a[..], b].concat()),
            (Oracle::Bool(a), Oracle::Bool(b)) => Oracle::Bool([&a[..], b].concat()),
            _ => panic!("concat of two types"),
        }
    }

    /// The numeric view of each cell (missing -> NaN), `None` for strings.
    fn numeric(&self) -> Option<Vec<f64>> {
        let nan = f64::NAN;
        match self {
            Oracle::F64(v) => Some(v.iter().map(|c| c.unwrap_or(nan)).collect()),
            Oracle::I64(v) => Some(v.iter().map(|c| c.map_or(nan, |x| x as f64)).collect()),
            Oracle::Bool(v) => Some(v.iter().map(|c| c.map_or(nan, f64::from)).collect()),
            Oracle::Str(_) => None,
        }
    }

    /// The per-cell encoder: a tag, then the cells as a `Vec<Option<T>>`.
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            Oracle::F64(_) => 0,
            Oracle::I64(_) => 1,
            Oracle::Str(_) => 2,
            Oracle::Bool(_) => 3,
        };
        tag.encode(buf);
        each_variant!(self, |v| v.encode(buf))
    }

    /// The per-cell decoder, for its results and error texts.
    fn decode(buf: &mut &[u8]) -> DecodeResult<Oracle> {
        Ok(match u8::decode(buf)? {
            0 => Oracle::F64(Wire::decode(buf)?),
            1 => Oracle::I64(Wire::decode(buf)?),
            2 => Oracle::Str(Wire::decode(buf)?),
            3 => Oracle::Bool(Wire::decode(buf)?),
            t => return Err(DecodeError(format!("invalid FrameColumn tag {t}"))),
        })
    }
}

fn oracles(f: &Frame) -> Vec<Oracle> {
    (0..f.cols())
        .map(|c| Oracle::of(f.column(c).unwrap()))
        .collect()
}

/// The per-cell bytes of a whole frame: its names, then its columns.
fn oracle_frame_bytes(f: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    (f.cols() as u64).encode(&mut buf);
    for name in f.names() {
        name.encode(&mut buf);
    }
    for o in oracles(f) {
        o.encode(&mut buf);
    }
    buf
}

/// `lineage::of_value`'s fold of a byte string: every whole 8-byte
/// little-endian word mixed in order, then the zero-padded tail word and
/// the length.
fn fold(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = 0x9E3779B97F4A7C15;
    for w in &mut words {
        h = lineage::mix(h, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    lineage::mix(
        lineage::mix(h, u64::from_le_bytes(tail)),
        bytes.len() as u64,
    )
}

/// The per-cell decoder over a whole byte string, as `Wire::from_bytes`.
fn oracle_from_bytes(bytes: &[u8]) -> DecodeResult<Oracle> {
    let mut buf = bytes;
    let o = Oracle::decode(&mut buf)?;
    match buf.len() {
        0 => Ok(o),
        n => Err(DecodeError(format!("{n} trailing bytes"))),
    }
}

const STRINGS: [&str; 8] = [
    "",
    "a",
    "R101",
    "é",
    "日本語",
    "🦀,x",
    "NA",
    "a longer cell",
];

/// A random column of `rows` cells of type `ty` (0 to 3): with no
/// missing cells, with only missing cells, or with some.
fn column(ty: u8, rows: usize, rng: &mut StdRng) -> FrameColumn {
    let p_missing = [0.0, 1.0, 0.3][rng.gen_range(0..3usize)];
    let cell = |rng: &mut StdRng| rng.gen::<f64>() >= p_missing;
    let o = match ty {
        0 => Oracle::F64(
            (0..rows)
                .map(|_| {
                    cell(rng).then(|| {
                        [rng.gen_range(-1e6..1e6), -0.0, f64::INFINITY][rng.gen_range(0..3usize)]
                    })
                })
                .collect(),
        ),
        1 => Oracle::I64(
            (0..rows)
                .map(|_| {
                    cell(rng).then(|| {
                        [rng.gen_range(-1000..1000), i64::MIN, i64::MAX][rng.gen_range(0..3usize)]
                    })
                })
                .collect(),
        ),
        2 => Oracle::Str(
            (0..rows)
                .map(|_| cell(rng).then(|| STRINGS[rng.gen_range(0..STRINGS.len())].to_string()))
                .collect(),
        ),
        _ => Oracle::Bool(
            (0..rows)
                .map(|_| cell(rng).then(|| rng.gen::<bool>()))
                .collect(),
        ),
    };
    o.column()
}

/// A random frame of `rows` rows with one column per type in `types`.
fn frame(types: &[u8], rows: usize, rng: &mut StdRng) -> Frame {
    let columns = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| (format!("c{i}"), column(ty, rows, rng)))
        .collect();
    Frame::new(columns).unwrap()
}

fn random_types(rng: &mut StdRng) -> Vec<u8> {
    (0..rng.gen_range(1..6usize))
        .map(|_| rng.gen_range(0..4u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bytes are the per-cell encoder's, they decode back to the
    /// frame from one slice and from small chunks, and the lineage is
    /// the fold of those bytes.
    #[test]
    fn frames_encode_and_fold_as_their_cells(rows in 0usize..=130, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = frame(&random_types(&mut rng), rows, &mut rng);
        for (c, o) in oracles(&f).iter().enumerate() {
            let mut want = Vec::new();
            o.encode(&mut want);
            let col = f.column(c).unwrap();
            prop_assert_eq!(col.to_bytes(), want.clone());
            prop_assert_eq!(&FrameColumn::from_bytes(&want).unwrap(), col);
            prop_assert_eq!(oracle_from_bytes(&want).unwrap(), o.clone());
            prop_assert_eq!(col.len(), o.len());
        }
        let want = oracle_frame_bytes(&f);
        prop_assert_eq!(f.to_bytes(), want.clone());
        prop_assert_eq!(Frame::from_bytes(&want).unwrap(), f.clone());
        let value = DataValue::Frame(f);
        prop_assert_eq!(lineage::of_value(&value), fold(&[&[1u8][..], &want].concat()));
    }

    /// `slice_rows`, `rbind`, `select` and `to_matrix` agree with their
    /// definitions on the cells.
    #[test]
    fn row_and_column_ops_match_the_cells(
        rows in 0usize..=130,
        more in 0usize..=70,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let types = random_types(&mut rng);
        let f = frame(&types, rows, &mut rng);
        let g = frame(&types, more, &mut rng);
        let (fo, go) = (oracles(&f), oracles(&g));

        let lo = rng.gen_range(0..=rows);
        let hi = rng.gen_range(lo..=rows);
        let s = f.slice_rows(lo, hi).unwrap();
        prop_assert_eq!(s.rows(), hi - lo);
        for (c, o) in fo.iter().enumerate() {
            prop_assert_eq!(Oracle::of(s.column(c).unwrap()), o.slice(lo, hi));
        }

        let both = f.rbind(&g).unwrap();
        for (c, (a, b)) in fo.iter().zip(&go).enumerate() {
            let want = a.concat(b);
            prop_assert_eq!(Oracle::of(both.column(c).unwrap()), want.clone());
            // The bound column's bitmap is the one its cells build.
            prop_assert_eq!(both.column(c).unwrap(), &want.column());
        }
        // A slice that starts mid-word, bound behind a ragged frame.
        let tail = both.slice_rows(lo, both.rows()).unwrap().rbind(&s).unwrap();
        for (c, o) in oracles(&both).iter().enumerate() {
            let want = o.slice(lo, o.len()).concat(&fo[c].slice(lo, hi));
            prop_assert_eq!(Oracle::of(tail.column(c).unwrap()), want);
        }

        let mut picked: Vec<usize> = (0..types.len()).filter(|_| rng.gen::<bool>()).collect();
        picked.reverse();
        let names: Vec<String> = picked.iter().map(|&c| format!("c{c}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let p = f.select(&names).unwrap();
        for (i, &c) in picked.iter().enumerate() {
            prop_assert_eq!(Oracle::of(p.column(i).unwrap()), fo[c].clone());
        }

        let m = f.to_matrix();
        let numeric: Option<Vec<Vec<f64>>> = fo.iter().map(Oracle::numeric).collect();
        match numeric {
            Some(cols) => {
                let m = m.unwrap();
                prop_assert_eq!(m.shape(), (rows, types.len()));
                for (c, col) in cols.iter().enumerate() {
                    for (r, v) in col.iter().enumerate() {
                        prop_assert_eq!(m.get(r, c).to_bits(), v.to_bits());
                    }
                }
            }
            // A string column has no numeric view, unless there are no
            // cells to view.
            None => prop_assert_eq!(m.is_err(), rows > 0),
        }
    }
}

fn sample_frame() -> Frame {
    Frame::new(vec![
        ("f".into(), FrameColumn::from(vec![Some(0.5), None])),
        ("i".into(), FrameColumn::from(vec![None, Some(-3i64)])),
        ("s".into(), FrameColumn::from(vec![Some("ab"), None])),
        ("b".into(), FrameColumn::from(vec![Some(true), Some(false)])),
    ])
    .unwrap()
}

fn frame_of_70_rows() -> Frame {
    let mut rng = StdRng::seed_from_u64(70);
    frame(&[0, 1, 2, 3, 2], 70, &mut rng)
}

/// Every truncation and every `0x00`/`0xff`/byte+1 substitution of a
/// frame's `PUT` decodes to `Ok` or `Err`, and every such change to one of
/// its columns gives the per-cell decoder's result or error text.
#[test]
fn mutated_frame_puts_never_panic_and_fail_like_the_cells() {
    fn mutations(bytes: &[u8], mut check: impl FnMut(&[u8])) {
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut buf = bytes.to_vec();
        for at in 0..bytes.len() {
            for sub in [0x00, 0xff, bytes[at].wrapping_add(1)] {
                buf[at] = sub;
                check(&buf);
            }
            buf[at] = bytes[at];
        }
    }
    for f in [sample_frame(), frame_of_70_rows()] {
        let put = Request::Put {
            id: 7,
            data: DataValue::Frame(f.clone()),
            privacy: PrivacyLevel::Public,
        };
        mutations(&put.to_bytes(), |b| {
            let _ = Request::from_bytes(b);
        });
        for c in 0..f.cols() {
            mutations(&f.column(c).unwrap().to_bytes(), |b| {
                // Compared as bytes: a substitution can make a NaN cell.
                let got = FrameColumn::from_bytes(b).map(|c| c.to_bytes());
                let want = oracle_from_bytes(b).map(|o| o.column().to_bytes());
                assert_eq!(got, want, "bytes {b:02x?}");
            });
        }
    }
}

thread_local! {
    /// Whether this thread's allocations are being watched.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
    /// The largest allocation this thread made while watched.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records the largest allocation of a watched thread.
struct Watching;

unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if WATCHED.get() {
            LARGEST.set(LARGEST.get().max(layout.size()));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if WATCHED.get() {
            LARGEST.set(LARGEST.get().max(new_size));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Watching = Watching;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(0);
    WATCHED.set(true);
    let out = f();
    WATCHED.set(false);
    (out, LARGEST.get())
}

/// A column that declares 2^40 rows but carries one cell is an error, of
/// the per-cell decoder's text, and the decoder allocates for what the
/// bytes hold, not for what the length claims.
#[test]
fn a_column_claiming_2_pow_40_rows_decodes_to_an_error_without_a_large_allocation() {
    for (tag, cell) in [
        (0u8, &[1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f][..]),
        (1, &[1, 9, 0, 0, 0, 0, 0, 0, 0]),
        (2, &[1, 2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']),
        (3, &[1, 1]),
    ] {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.extend_from_slice(cell);
        let (got, largest) = largest_allocation(|| FrameColumn::from_bytes(&bytes));
        let err = got.unwrap_err();
        assert_eq!(err, oracle_from_bytes(&bytes).unwrap_err(), "tag {tag}");
        assert_eq!(err.0, "need 1 bytes for option tag, have 0");
        assert!(largest < 1 << 10, "tag {tag} allocated {largest} bytes");
    }
}
