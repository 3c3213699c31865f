//! Binary wire format.
//!
//! The paper's coordinator and workers exchange typed payloads (matrices,
//! frames, scalars, instruction strings). [`Wire`] is a small, explicit
//! serialization trait over `bytes::{Buf, BufMut}` — a database-systems
//! style codec with no reflection or derive machinery, so the byte layout
//! is obvious and stable.
//!
//! Layout conventions: all integers little-endian; lengths as `u64`;
//! strings as length-prefixed UTF-8; matrices as shape + payload with a
//! representation tag; enums as a `u8` tag followed by the variant's
//! fields.
//!
//! Every message type is declared once, as one row:
//! [`wire_struct!`](crate::wire_struct) lists a struct's fields in wire
//! order, and [`wire_enum!`](crate::wire_enum) gives each variant its tag
//! and its fields in wire order. Encode and decode are generated from the
//! same row, so they cannot drift apart. Only the primitives and the bulk
//! codecs below are written by hand: a dense payload and a frame column
//! travel as their buffers, 8-byte words converted in one loop each way
//! (chunked on the compute pool when large), and a frame as its names,
//! then its columns.

use bytes::{Buf, BufMut};
use exdra_matrix::frame::{Cells, Frame, FrameColumn, StrCells, Validity};
use exdra_matrix::kernels::matmul::{KC, NR};
use exdra_matrix::{DenseMatrix, Matrix, ValueType};

// The row macros name these through `$crate`, so a crate that invokes
// them needs no `bytes` dependency of its own.
#[doc(hidden)]
pub use bytes::{Buf as __Buf, BufMut as __BufMut};

/// Error raised when decoding malformed wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, DecodeError>;

fn need(buf: &impl Buf, n: usize, what: &str) -> DecodeResult<()> {
    if buf.remaining() < n {
        Err(DecodeError(format!(
            "need {n} bytes for {what}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Types that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut impl BufMut);
    /// Decodes a value, advancing `buf` past it.
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode(&mut v);
        v
    }

    /// Convenience: decodes from a byte slice, requiring full consumption.
    fn from_bytes(mut bytes: &[u8]) -> DecodeResult<Self> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(DecodeError(format!("{} trailing bytes", bytes.len())));
        }
        Ok(v)
    }

    /// Appends `items` one after the other: a `Vec<Self>` after its
    /// length. `u8` overrides it with one slice copy.
    fn encode_all(items: &[Self], buf: &mut impl BufMut) {
        for v in items {
            v.encode(buf);
        }
    }

    /// Decodes `len` values one after the other: a `Vec<Self>` after its
    /// length. `u8` overrides it with one slice copy.
    fn decode_all(len: usize, buf: &mut impl Buf) -> DecodeResult<Vec<Self>> {
        // Cap the pre-allocation so a corrupt length cannot OOM us.
        let mut out = Vec::with_capacity(len.min(buf.remaining()).min(1 << 20));
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }
}

/// Implements [`Wire`] for a struct from one row, its fields in wire
/// order: `wire_struct! { Name { field, ... } }`. Each field travels in
/// its own `Wire` encoding. The row must name every field, or the
/// generated code does not compile.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, buf: &mut impl $crate::codec::__BufMut) {
                let Self { $($field),+ } = self;
                $($crate::codec::Wire::encode($field, buf);)+
            }

            fn decode(
                buf: &mut impl $crate::codec::__Buf,
            ) -> $crate::codec::DecodeResult<Self> {
                Ok(Self { $($field: $crate::codec::Wire::decode(buf)?),+ })
            }
        }
    };
}

/// Implements [`Wire`] for an enum from one row per variant: a `u8` tag,
/// then the variant's fields in wire order, each in its own `Wire`
/// encoding. Rows cover unit, struct and tuple variants:
///
/// ```text
/// wire_enum! { Name {
///     0 => Unit,
///     1 => Named { a, b },
///     2 => Tuple(v),
/// } }
/// ```
///
/// An unknown tag decodes to the error `invalid Name tag <t>`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident
            $({ $($field:ident),+ $(,)? })?
            $(( $($pos:ident),+ $(,)? ))?
    ),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, buf: &mut impl $crate::codec::__BufMut) {
                match self {
                    $(Self::$variant $({ $($field),+ })? $(( $($pos),+ ))? => {
                        <u8 as $crate::codec::Wire>::encode(&$tag, buf);
                        $($($crate::codec::Wire::encode($field, buf);)+)?
                        $($($crate::codec::Wire::encode($pos, buf);)+)?
                    })+
                }
            }

            fn decode(
                buf: &mut impl $crate::codec::__Buf,
            ) -> $crate::codec::DecodeResult<Self> {
                Ok(match <u8 as $crate::codec::Wire>::decode(buf)? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::codec::Wire::decode(buf)?),+ })?
                        $(( $({
                            let $pos = $crate::codec::Wire::decode(buf)?;
                            $pos
                        }),+ ))?,
                    )+
                    t => {
                        return Err($crate::codec::DecodeError(format!(
                            "invalid {} tag {t}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
}

// The primitives below are the leaves every row is built from.

impl Wire for u8 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(*self);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }
    // Byte payloads (attach frames tunnel whole RPCs) move in one copy.
    fn encode_all(items: &[u8], buf: &mut impl BufMut) {
        buf.put_slice(items);
    }
    fn decode_all(len: usize, buf: &mut impl Buf) -> DecodeResult<Vec<u8>> {
        need(buf, len, "byte payload")?;
        let mut out = vec![0u8; len];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 1, "bool")?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError(format!("invalid bool byte {other}"))),
        }
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(*self);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 4, "u32")?;
        Ok(buf.get_u32_le())
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(*self);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 8, "u64")?;
        Ok(buf.get_u64_le())
    }
}

impl Wire for i64 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_i64_le(*self);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 8, "i64")?;
        Ok(buf.get_i64_le())
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 8, "usize")?;
        Ok(buf.get_u64_le() as usize)
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_f64_le(*self);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 8, "f64")?;
        Ok(buf.get_f64_le())
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut impl BufMut) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let len = u64::decode(buf)? as usize;
        need(buf, len, "string payload")?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|e| DecodeError(format!("invalid utf-8: {e}")))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 1, "option tag")?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            other => Err(DecodeError(format!("invalid option tag {other}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        (self.len() as u64).encode(buf);
        T::encode_all(self, buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let len = u64::decode(buf)? as usize;
        T::decode_all(len, buf)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Word count above which 8-byte payloads (dense values, frame value
/// buffers) are byte-converted on the `exdra_par` pool (64k words = 512
/// KiB on the wire).
const PAR_DENSE_CELLS: usize = 1 << 16;

/// Cells per contiguous wire panel: one `KC x NR` packed panel of the
/// blocked GEMM micro-kernels (8 KiB of f64). Parallel (de)serialization
/// chunks are rounded up to whole panels so frames stream in panel-sized
/// contiguous runs — the same unit the matmul kernels pack — and a panel
/// is never split across two pool workers.
const WIRE_PANEL_CELLS: usize = KC * NR;

/// Parallel chunk size (in cells) for an `n`-cell dense payload: the
/// pool's preferred chunk, rounded up to whole kernel panels.
fn wire_chunk_cells(n: usize) -> usize {
    exdra_par::chunk_len(n, PAR_DENSE_CELLS / 8).next_multiple_of(WIRE_PANEL_CELLS)
}

/// Appends `values` as little-endian 8-byte words, `word(v)` each,
/// converted a block at a time: on the stack, or for a large payload in
/// panel-aligned chunks on the pool into one buffer. Either way the bytes
/// are those of one `put_u64_le` per value.
fn put_words<T: Copy + Sync>(buf: &mut impl BufMut, values: &[T], word: impl Fn(T) -> u64 + Sync) {
    let fill = |raw: &mut [u8], values: &[T]| {
        for (bytes, &v) in raw.chunks_exact_mut(8).zip(values) {
            bytes.copy_from_slice(&word(v).to_le_bytes());
        }
    };
    if values.len() < PAR_DENSE_CELLS {
        let mut block = [0u8; 2048];
        for part in values.chunks(block.len() / 8) {
            fill(&mut block, part);
            buf.put_slice(&block[..part.len() * 8]);
        }
        return;
    }
    let mut raw = vec![0u8; values.len() * 8];
    let chunk = wire_chunk_cells(values.len());
    exdra_par::par_chunks_mut(&mut raw, chunk * 8, |_, off, part| {
        fill(part, &values[off / 8..])
    });
    buf.put_slice(&raw);
}

/// Reads `n` little-endian 8-byte words as `value(word)` each, after
/// checking that `buf` holds them. They are converted straight out of a
/// contiguous `buf.chunk()`, or else out of one copy, on the pool when
/// there are many.
fn get_words<T: Copy + Default + Send + Sync>(
    buf: &mut impl Buf,
    n: usize,
    what: &str,
    value: impl Fn(u64) -> T + Sync,
) -> DecodeResult<Vec<T>> {
    let bytes = n
        .checked_mul(8)
        .ok_or_else(|| DecodeError(format!("{what} size overflow")))?;
    need(buf, bytes, what)?;
    let convert = |raw: &[u8]| -> Vec<T> {
        let each = |w: &[u8]| value(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        if n < PAR_DENSE_CELLS {
            return raw.chunks_exact(8).map(each).collect();
        }
        let mut out = vec![T::default(); n];
        exdra_par::par_chunks_mut(&mut out, wire_chunk_cells(n), |_, off, part| {
            for (v, w) in part.iter_mut().zip(raw[off * 8..].chunks_exact(8)) {
                *v = each(w);
            }
        });
        out
    };
    let out = if buf.chunk().len() >= bytes {
        let out = convert(&buf.chunk()[..bytes]);
        buf.advance(bytes);
        out
    } else {
        let mut raw = vec![0u8; bytes];
        buf.copy_to_slice(&mut raw);
        convert(&raw)
    };
    Ok(out)
}

// Hand-written: the values travel as one slice of words.
impl Wire for DenseMatrix {
    fn encode(&self, buf: &mut impl BufMut) {
        self.rows().encode(buf);
        self.cols().encode(buf);
        put_words(buf, self.values(), f64::to_bits);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let rows = usize::decode(buf)?;
        let cols = usize::decode(buf)?;
        let n = rows
            .checked_mul(cols)
            .filter(|n| n.checked_mul(8).is_some())
            .ok_or_else(|| DecodeError("matrix size overflow".into()))?;
        let data = get_words(buf, n, "dense payload", f64::from_bits)?;
        DenseMatrix::new(rows, cols, data).map_err(|e| DecodeError(e.to_string()))
    }
}

// Hand-written: both representations travel under the dense tag.
impl Wire for Matrix {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Matrix::Dense(d) => {
                buf.put_u8(0);
                d.encode(buf);
            }
            // Compressed intermediates are a worker-local storage
            // optimization; they travel decompressed.
            Matrix::Compressed(c) => {
                buf.put_u8(0);
                c.decompress().encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        need(buf, 1, "matrix tag")?;
        match buf.get_u8() {
            0 => Ok(Matrix::Dense(DenseMatrix::decode(buf)?)),
            other => Err(DecodeError(format!("invalid matrix tag {other}"))),
        }
    }
}

wire_enum! { ValueType {
    0 => F64,
    1 => I64,
    2 => Str,
    3 => Bool,
} }

// Hand-written: a column travels as its buffers. Its type tag and its
// length `n`, then `ceil(n / 64)` validity words, then the values: `n`
// words for `f64` and `i64`, `n` bytes of 0 or 1 for `bool`, and for
// strings `n + 1` offsets followed by the `offsets[n]` bytes they cut.
// The `from_parts` constructors refuse any buffers but a column's own, so
// a column has exactly one encoding.
impl Wire for FrameColumn {
    fn encode(&self, buf: &mut impl BufMut) {
        self.value_type().encode(buf);
        self.len().encode(buf);
        put_words(buf, self.validity().words(), |w| w);
        match self {
            FrameColumn::F64(c) => put_words(buf, c.values(), f64::to_bits),
            FrameColumn::I64(c) => put_words(buf, c.values(), |v| v as u64),
            FrameColumn::Bool(c) => c.values().iter().for_each(|&b| buf.put_u8(u8::from(b))),
            FrameColumn::Str(c) => {
                put_words(buf, c.offsets(), |o| o as u64);
                buf.put_slice(c.bytes().as_bytes());
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let tag = u8::decode(buf)?;
        if tag > 3 {
            return Err(DecodeError(format!("invalid FrameColumn tag {tag}")));
        }
        let n = usize::decode(buf)?;
        let words = get_words(buf, n.div_ceil(64), "validity words", |w| w)?;
        let valid = Validity::from_words(words, n).map_err(|e| DecodeError(e.to_string()))?;
        let col = match tag {
            0 => Cells::<f64>::from_parts(get_words(buf, n, "f64 values", f64::from_bits)?, valid)
                .map(FrameColumn::F64),
            1 => Cells::<i64>::from_parts(get_words(buf, n, "i64 values", |w| w as i64)?, valid)
                .map(FrameColumn::I64),
            2 => {
                let cells = n
                    .checked_add(1)
                    .ok_or_else(|| DecodeError("offset count overflow".into()))?;
                let offsets = get_words(buf, cells, "string offsets", |w| w as usize)?;
                let bytes = u8::decode_all(offsets[n], buf)?;
                StrCells::from_parts(offsets, bytes, valid).map(FrameColumn::Str)
            }
            _ => Cells::<bool>::from_parts(u8::decode_all(n, buf)?, valid).map(FrameColumn::Bool),
        };
        col.map_err(|e| DecodeError(e.to_string()))
    }
}

// Hand-written: a frame travels as all of its names, then its columns.
impl Wire for Frame {
    fn encode(&self, buf: &mut impl BufMut) {
        (self.cols() as u64).encode(buf);
        for name in self.names() {
            name.encode(buf);
        }
        for c in 0..self.cols() {
            self.column(c).expect("in range").encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let ncols = u64::decode(buf)? as usize;
        let mut names = Vec::with_capacity(ncols.min(1 << 16));
        for _ in 0..ncols {
            names.push(String::decode(buf)?);
        }
        let mut cols = Vec::with_capacity(ncols.min(1 << 16));
        for name in names {
            cols.push((name, FrameColumn::decode(buf)?));
        }
        Frame::new(cols).map_err(|e| DecodeError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::compress::CompressedMatrix;
    use exdra_matrix::rng::rand_matrix;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&42u8);
        roundtrip(&true);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&-7i64);
        roundtrip(&3.25f64);
        roundtrip(&"hello wörld".to_string());
        roundtrip(&Some(9u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1.0f64, 2.0, f64::NEG_INFINITY]);
        roundtrip(&("k".to_string(), 3u64));
    }

    #[test]
    fn dense_matrix_roundtrip() {
        roundtrip(&rand_matrix(13, 7, -5.0, 5.0, 71));
        roundtrip(&DenseMatrix::zeros(0, 5));
    }

    #[test]
    fn large_dense_panel_path_matches_serial_bytes() {
        // 90_000 cells > PAR_DENSE_CELLS: exercises the panel-aligned
        // parallel encode and the zero-copy contiguous decode path.
        let m = rand_matrix(300, 300, -2.0, 2.0, 77);
        let bytes = m.to_bytes();
        // Wire bytes must equal the serial little-endian dump.
        let mut want = Vec::with_capacity(bytes.len());
        m.rows().encode(&mut want);
        m.cols().encode(&mut want);
        for &v in m.values() {
            want.put_f64_le(v);
        }
        assert_eq!(bytes, want, "panel encode changed the wire format");
        let back = DenseMatrix::from_bytes(&bytes).unwrap();
        assert_eq!(back.values(), m.values());

        // A non-contiguous receive buffer (empty `chunk()`) must fall
        // back to the staging copy and still produce identical bits.
        struct Staged<'a>(&'a [u8]);
        impl Buf for Staged<'_> {
            fn remaining(&self) -> usize {
                self.0.remaining()
            }
            fn copy_to_slice(&mut self, dst: &mut [u8]) {
                self.0.copy_to_slice(dst)
            }
            fn advance(&mut self, cnt: usize) {
                self.0.advance(cnt)
            }
        }
        let mut staged = Staged(&bytes);
        let back2 = DenseMatrix::decode(&mut staged).unwrap();
        assert_eq!(back2.values(), m.values());
    }

    #[test]
    fn matrix_enum_roundtrip() {
        roundtrip(&Matrix::Dense(rand_matrix(4, 4, 0.0, 1.0, 73)));
    }

    #[test]
    fn compressed_travels_dense() {
        let d = rand_matrix(6, 3, 0.0, 1.0, 75);
        let m = Matrix::Compressed(CompressedMatrix::compress(&d));
        let back = Matrix::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.repr_name(), "dense");
        assert!(back.to_dense().max_abs_diff(&d) < 1e-15);
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::new(vec![
            ("a".into(), FrameColumn::from(vec![Some("x"), None])),
            ("b".into(), FrameColumn::from(vec![None, Some(2.5)])),
            ("c".into(), FrameColumn::from(vec![Some(true), Some(false)])),
            ("d".into(), FrameColumn::from(vec![Some(-1i64), Some(9)])),
        ])
        .unwrap();
        roundtrip(&f);
    }

    /// A `Buf` whose `chunk()` shows at most `size` bytes (none at 0), so
    /// cells and strings straddle chunk boundaries.
    struct Chunked<'a> {
        bytes: &'a [u8],
        size: usize,
    }

    impl Buf for Chunked<'_> {
        fn remaining(&self) -> usize {
            self.bytes.len()
        }
        fn copy_to_slice(&mut self, dst: &mut [u8]) {
            self.bytes.copy_to_slice(dst)
        }
        fn advance(&mut self, cnt: usize) {
            self.bytes.advance(cnt)
        }
        fn chunk(&self) -> &[u8] {
            &self.bytes[..self.bytes.len().min(self.size)]
        }
    }

    fn decode_chunked(bytes: &[u8], size: usize) -> DecodeResult<Vec<u8>> {
        let mut buf = Chunked { bytes, size };
        let col = FrameColumn::decode(&mut buf)?;
        match buf.bytes.len() {
            0 => Ok(col.to_bytes()),
            n => Err(DecodeError(format!("{n} trailing bytes"))),
        }
    }

    #[test]
    fn frame_columns_decode_alike_from_any_chunking() {
        let strs = ["", "é", "日本語", "R101"];
        let columns = [
            FrameColumn::from(
                (0..70)
                    .map(|i| (i % 3 != 0).then_some(i as f64 * -0.5))
                    .collect::<Vec<_>>(),
            ),
            FrameColumn::from(
                (0..70)
                    .map(|i| (i % 5 != 1).then_some(i64::MAX - i))
                    .collect::<Vec<_>>(),
            ),
            FrameColumn::from(
                (0..70)
                    .map(|i| (i % 4 != 2).then_some(strs[i % 4]))
                    .collect::<Vec<_>>(),
            ),
            FrameColumn::from(
                (0..70)
                    .map(|i| (i % 7 != 0).then_some(i % 2 == 0))
                    .collect::<Vec<_>>(),
            ),
        ];
        for col in columns {
            let bytes = col.to_bytes();
            for size in [0, 1, 5, 9, 64, usize::MAX] {
                assert_eq!(
                    decode_chunked(&bytes, size),
                    Ok(bytes.clone()),
                    "chunks of {size}"
                );
            }
            // Every truncation and substitution gives the same result, or
            // the same error, from one slice as from chunks.
            let mut buf = bytes.clone();
            let check = |b: &[u8]| {
                let whole = FrameColumn::from_bytes(b).map(|c| c.to_bytes());
                for size in [0, 3, 9] {
                    assert_eq!(decode_chunked(b, size), whole, "chunks of {size}: {b:02x?}");
                }
            };
            for cut in 0..bytes.len() {
                check(&bytes[..cut]);
            }
            for at in 0..bytes.len() {
                for sub in [0x00, 0xff, bytes[at].wrapping_add(1)] {
                    buf[at] = sub;
                    check(&buf);
                }
                buf[at] = bytes[at];
            }
        }
    }

    /// A column's bytes from its parts: tag, cell count, validity words
    /// and payload.
    fn column_bytes(tag: u8, n: u64, valid: &[u64], payload: &[u8]) -> Vec<u8> {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&words(valid));
        bytes.extend_from_slice(payload);
        bytes
    }

    fn words(ws: &[u64]) -> Vec<u8> {
        ws.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// The bytes of a string column: its offsets, then its bytes.
    fn strs(n: u64, valid: u64, offsets: &[u64], bytes: &[u8]) -> Vec<u8> {
        column_bytes(2, n, &[valid], &[&words(offsets), bytes].concat())
    }

    fn rejected(bytes: &[u8], why: &str) {
        let err = FrameColumn::from_bytes(bytes).unwrap_err();
        assert!(err.0.contains(why), "{err} does not say {why:?}");
    }

    #[test]
    fn a_column_travels_as_its_buffers() {
        let col = FrameColumn::from(vec![Some(1.5), None, Some(-2.0)]);
        let values = words(&[1.5f64.to_bits(), 0, (-2.0f64).to_bits()]);
        assert_eq!(col.to_bytes(), column_bytes(0, 3, &[0b101], &values));
        let col = FrameColumn::from(vec![Some("é"), None, Some("ab")]);
        assert_eq!(
            col.to_bytes(),
            strs(3, 0b101, &[0, 2, 2, 4], "éab".as_bytes())
        );
        let col = FrameColumn::from(vec![None, Some(true)]);
        assert_eq!(col.to_bytes(), column_bytes(3, 2, &[0b10], &[0, 1]));
        let empty = FrameColumn::from(Vec::<Option<i64>>::new());
        assert_eq!(empty.to_bytes(), column_bytes(1, 0, &[], &[]));
    }

    #[test]
    fn a_column_past_the_pool_threshold_keeps_its_bytes() {
        let n = PAR_DENSE_CELLS + 70;
        let col = FrameColumn::from(
            (0..n)
                .map(|i| (i % 7 != 3).then_some(i as i64 - 9))
                .collect::<Vec<_>>(),
        );
        let bytes = col.to_bytes();
        let mut valid = vec![0u64; n.div_ceil(64)];
        let mut values = Vec::with_capacity(n * 8);
        for i in 0..n {
            let v = (i % 7 != 3).then_some(i as i64 - 9);
            valid[i / 64] |= u64::from(v.is_some()) << (i % 64);
            values.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
        }
        assert_eq!(bytes, column_bytes(1, n as u64, &valid, &values));
        assert_eq!(decode_chunked(&bytes, 4096), Ok(bytes.clone()));
    }

    #[test]
    fn a_bit_set_past_the_last_cell_is_rejected() {
        rejected(
            &column_bytes(3, 2, &[0b111], &[1, 1]),
            "a bit set past the last of 2 cells",
        );
    }

    #[test]
    fn a_missing_f64_slot_other_than_all_zero_bits_is_rejected() {
        // -0.0 == 0.0, but its bits are not zero.
        let values = words(&[0, (-0.0f64).to_bits()]);
        rejected(
            &column_bytes(0, 2, &[0b01], &values),
            "missing cell 1 holds a value",
        );
    }

    #[test]
    fn a_missing_i64_slot_other_than_zero_is_rejected() {
        let values = words(&[5, 9]);
        rejected(
            &column_bytes(1, 2, &[0b10], &values),
            "missing cell 0 holds a value",
        );
    }

    #[test]
    fn a_missing_bool_slot_other_than_zero_is_rejected() {
        rejected(
            &column_bytes(3, 2, &[0b01], &[1, 1]),
            "missing cell 1 holds a value",
        );
    }

    #[test]
    fn a_bool_byte_above_one_is_rejected() {
        rejected(&column_bytes(3, 2, &[0b11], &[1, 2]), "bool byte 2");
    }

    #[test]
    fn offsets_that_do_not_start_at_zero_are_rejected() {
        rejected(
            &strs(2, 0b11, &[1, 1, 2], b"ab"),
            "3 offsets, not 2 + 1 from 0 to 2",
        );
    }

    #[test]
    fn decreasing_offsets_are_rejected() {
        rejected(&strs(3, 0b111, &[0, 2, 1, 3], b"abc"), "offset 2 is 1");
    }

    #[test]
    fn an_offset_inside_a_char_is_rejected() {
        rejected(&strs(2, 0b11, &[0, 1, 2], "é".as_bytes()), "offset 1 is 1");
    }

    #[test]
    fn a_missing_string_that_is_not_empty_is_rejected() {
        rejected(
            &strs(2, 0b10, &[0, 1, 2], b"ab"),
            "missing cell 0 is not empty",
        );
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        rejected(&strs(1, 0b1, &[0, 1], &[0xff]), "invalid utf-8");
    }

    #[test]
    fn sizes_are_checked_before_anything_is_allocated() {
        rejected(
            &column_bytes(0, u64::MAX, &[], &[]),
            "need 2305843009213693952 bytes for validity words",
        );
        // The last offset claims more bytes than there are.
        rejected(
            &strs(1, 0b1, &[0, 9], b"ab"),
            "need 9 bytes for byte payload, have 2",
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let m = rand_matrix(3, 3, 0.0, 1.0, 76);
        let bytes = m.to_bytes();
        for cut in [0, 1, 8, 15, bytes.len() - 1] {
            assert!(DenseMatrix::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn byte_vectors_move_as_one_slice() {
        let payload = vec![7u8, 0, 255];
        let bytes = payload.to_bytes();
        assert_eq!(bytes, [3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 255]);
        roundtrip(&payload);
        assert!(Vec::<u8>::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn oversized_shapes_rejected() {
        // 2^61 cells: the count fits a usize, its byte size does not.
        let mut frame = Vec::new();
        for v in [1u64 << 61, 1] {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        let err = DenseMatrix::from_bytes(&frame).unwrap_err();
        assert_eq!(err.0, "matrix size overflow");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert!(u64::from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_tags_rejected() {
        assert!(bool::from_bytes(&[7]).is_err());
        assert!(Option::<u64>::from_bytes(&[9]).is_err());
        assert!(Matrix::from_bytes(&[9]).is_err());
        // A 2^18 x 2^18 shape behind tag 1: rejected by the tag, before
        // any size is read.
        let mut frame = vec![1u8];
        for v in [1u64 << 18, 1 << 18, 0] {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        let err = Matrix::from_bytes(&frame).unwrap_err();
        assert_eq!(err.0, "invalid matrix tag 1");
    }
}
