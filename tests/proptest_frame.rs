//! The columnar frame layout against the per-cell one it replaced.
//!
//! A column used to be a `Vec<Option<T>>`. [`Oracle`] keeps that form and
//! computes from the cells, one by one, the bytes the column travels as:
//! its type tag, its length, its validity words, then its values buffer
//! (string columns: offsets, then bytes). Random frames (0 to 130 rows, so
//! validity words straddle the 64-row boundary; all four types; missing,
//! all-missing, empty and multibyte cells) must encode to the oracle's
//! bytes, decode back to themselves, fold to the lineage of those bytes,
//! and slice, bind, select and convert like their cells do. A frame has
//! exactly one encoding: a mutated `PUT` never panics the decoder, and it
//! either fails or re-encodes to exactly the mutated bytes. (The codec's
//! unit tests decode the same columns from buffers that arrive in chunks.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exdra::core::lineage;
use exdra::core::protocol::Request;
use exdra::core::{DataValue, PrivacyLevel};
use exdra::matrix::frame::{Frame, FrameColumn};
use exdra::net::codec::Wire;
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

    /// The column's wire bytes, cell by cell: its tag and length, a
    /// validity word per 64 cells, then a value per cell (a missing one
    /// is zero), or for strings the running end offsets and the bytes.
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            Oracle::F64(_) => 0,
            Oracle::I64(_) => 1,
            Oracle::Str(_) => 2,
            Oracle::Bool(_) => 3,
        };
        tag.encode(buf);
        (self.len() as u64).encode(buf);
        let present: Vec<bool> = each_variant!(self, |v| v.iter().map(Option::is_some).collect());
        for cells in present.chunks(64) {
            let word = (cells.iter().enumerate()).fold(0u64, |w, (i, &p)| w | u64::from(p) << i);
            word.encode(buf);
        }
        match self {
            Oracle::F64(v) => v.iter().for_each(|c| c.unwrap_or(0.0).encode(buf)),
            Oracle::I64(v) => v.iter().for_each(|c| c.unwrap_or(0).encode(buf)),
            Oracle::Bool(v) => v.iter().for_each(|c| c.unwrap_or(false).encode(buf)),
            Oracle::Str(v) => {
                let mut end = 0u64;
                end.encode(buf);
                for c in v {
                    end += c.as_ref().map_or(0, String::len) as u64;
                    end.encode(buf);
                }
                for c in v.iter().flatten() {
                    buf.extend_from_slice(c.as_bytes());
                }
            }
        }
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

    /// The bytes are the oracle's, they decode back to the frame, and the
    /// lineage is the fold of those bytes.
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
/// frame's `PUT` decodes to an error, or to a request whose bytes are
/// exactly the mutated ones: no other byte string stands for a frame.
#[test]
fn mutated_frame_puts_never_panic_and_reencode_to_themselves() {
    for f in [sample_frame(), frame_of_70_rows()] {
        let bytes = Request::Put {
            id: 7,
            data: DataValue::Frame(f),
            privacy: PrivacyLevel::Public,
        }
        .to_bytes();
        let check = |b: &[u8]| {
            if let Ok(put) = Request::from_bytes(b) {
                assert_eq!(put.to_bytes(), b, "bytes {b:02x?}");
            }
        };
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut buf = bytes.clone();
        for at in 0..bytes.len() {
            for sub in [0x00, 0xff, bytes[at].wrapping_add(1)] {
                buf[at] = sub;
                check(&buf);
            }
            buf[at] = bytes[at];
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

/// A column that declares 2^40 rows but carries one cell's buffers is an
/// error, and the decoder checks the 2^34 validity words it would need
/// against the bytes left before it allocates anything for them.
#[test]
fn a_column_claiming_2_pow_40_rows_decodes_to_an_error_without_a_large_allocation() {
    let word = 1u64.to_le_bytes();
    for (tag, value) in [
        (0u8, &1.0f64.to_le_bytes()[..]),
        (1, &9i64.to_le_bytes()),
        (
            2,
            &[0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b'],
        ),
        (3, &[1]),
    ] {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.extend_from_slice(&word);
        bytes.extend_from_slice(value);
        let (got, largest) = largest_allocation(|| FrameColumn::from_bytes(&bytes));
        let err = got.unwrap_err();
        let want = format!(
            "need {} bytes for validity words, have {}",
            1u64 << 37,
            8 + value.len()
        );
        assert_eq!(err.0, want, "tag {tag}");
        assert!(largest < 1 << 10, "tag {tag} allocated {largest} bytes");
    }
}
