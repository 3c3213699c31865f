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
//! codecs below are written by hand: dense payloads are chunked on the
//! compute pool, and a frame travels as its names, then its columns.

use bytes::{Buf, BufMut};
use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::frame::{Frame, FrameColumn};
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

/// Cell count above which dense payloads (de)serialize through the
/// `exdra_par` pool (64k f64 = 512 KiB on the wire).
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

// Hand-written: large payloads are byte-converted on the compute pool.
impl Wire for DenseMatrix {
    fn encode(&self, buf: &mut impl BufMut) {
        self.rows().encode(buf);
        self.cols().encode(buf);
        let values = self.values();
        if values.len() >= PAR_DENSE_CELLS {
            // Large payload: byte-convert panel-aligned chunks in
            // parallel into a staging buffer, then append in one shot.
            // Chunks are disjoint 8-byte-aligned slices, so the wire
            // bytes are identical to the serial loop below.
            let mut raw = vec![0u8; values.len() * 8];
            let chunk = wire_chunk_cells(values.len());
            exdra_par::par_chunks_mut(&mut raw, chunk * 8, |_, off, part| {
                for (d, bytes) in part.chunks_exact_mut(8).enumerate() {
                    bytes.copy_from_slice(&values[off / 8 + d].to_le_bytes());
                }
            });
            buf.put_slice(&raw);
            return;
        }
        for &v in values {
            buf.put_f64_le(v);
        }
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        let rows = usize::decode(buf)?;
        let cols = usize::decode(buf)?;
        let n = rows
            .checked_mul(cols)
            .filter(|n| n.checked_mul(8).is_some())
            .ok_or_else(|| DecodeError("matrix size overflow".into()))?;
        need(buf, n * 8, "dense payload")?;
        let mut data = vec![0.0f64; n];
        if n >= PAR_DENSE_CELLS {
            let chunk = wire_chunk_cells(n);
            let convert = |raw: &[u8], data: &mut [f64]| {
                exdra_par::par_chunks_mut(data, chunk, |_, off, part| {
                    for (d, v) in part.iter_mut().enumerate() {
                        let at = (off + d) * 8;
                        *v = f64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
                    }
                });
            };
            if buf.chunk().len() >= n * 8 {
                // Fast path: the whole payload is contiguous in the
                // receive buffer — convert panels straight out of it,
                // skipping the staging copy entirely.
                convert(&buf.chunk()[..n * 8], &mut data);
                buf.advance(n * 8);
            } else {
                let mut raw = vec![0u8; n * 8];
                buf.copy_to_slice(&mut raw);
                convert(&raw, &mut data);
            }
        } else {
            for v in &mut data {
                *v = buf.get_f64_le();
            }
        }
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

// Hand-written: CompressedMatrix has no direct wire form (see
// Matrix::encode); this helper travels it dense, for symmetry in tests.
impl Wire for CompressedMatrix {
    fn encode(&self, buf: &mut impl BufMut) {
        self.decompress().encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> DecodeResult<Self> {
        Ok(CompressedMatrix::compress(&DenseMatrix::decode(buf)?))
    }
}

wire_enum! { ValueType {
    0 => F64,
    1 => I64,
    2 => Str,
    3 => Bool,
} }

wire_enum! { FrameColumn {
    0 => F64(v),
    1 => I64(v),
    2 => Str(v),
    3 => Bool(v),
} }

// Hand-written: a frame travels as all of its names, then its columns.
impl Wire for Frame {
    fn encode(&self, buf: &mut impl BufMut) {
        (self.cols() as u64).encode(buf);
        for (name, _) in self.schema() {
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
            ("a".into(), FrameColumn::Str(vec![Some("x".into()), None])),
            ("b".into(), FrameColumn::F64(vec![None, Some(2.5)])),
            ("c".into(), FrameColumn::Bool(vec![Some(true), Some(false)])),
            ("d".into(), FrameColumn::I64(vec![Some(-1), Some(9)])),
        ])
        .unwrap();
        roundtrip(&f);
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
