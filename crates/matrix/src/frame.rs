//! Heterogeneous frames: the raw-data container of the federated runtime.
//!
//! A [`Frame`] holds named, typed columns (`f64`, `i64`, string, boolean).
//! Raw federated inputs (CSV files, streaming sinks) are read as frames at
//! the workers and converted to numeric matrices by the feature
//! transformations of `exdra-transform`.
//!
//! Each column is one values buffer plus a validity bitmap, in Arrow's
//! layout: `f64`, `i64` and `bool` columns keep a `Vec<T>`, a string
//! column keeps offsets into one UTF-8 buffer. A missing cell has its
//! validity bit clear (and a canonical value in its slot); it reads as
//! `None`, and as NaN when a column is viewed numerically.
//!
//! Those buffers are also a column's wire form. The `from_parts`
//! constructors take them back and refuse any that break a rule the
//! column relies on, so every column has exactly one set of buffers.

use std::borrow::Cow;
use std::fmt::Write;
use std::ops::Range;

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Value type of a frame column (SystemDS "value types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Double-precision float.
    F64,
    /// 64-bit integer.
    I64,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl ValueType {
    /// Lower-case name used in schemas and metadata files.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::F64 => "f64",
            ValueType::I64 => "i64",
            ValueType::Str => "string",
            ValueType::Bool => "bool",
        }
    }

    /// Parses a schema token.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "f64" | "double" => Ok(ValueType::F64),
            "i64" | "int" => Ok(ValueType::I64),
            "string" | "str" => Ok(ValueType::Str),
            "bool" | "boolean" => Ok(ValueType::Bool),
            other => Err(MatrixError::Parse {
                line: 0,
                msg: format!("unknown value type '{other}'"),
            }),
        }
    }
}

/// Validity bitmap of a column: bit `i` is set when cell `i` holds a
/// value. The bits past the last cell are zero, so two bitmaps over the
/// same cells compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
}

/// The `InvalidArgument` error of `op`.
fn invalid<T>(op: &'static str, msg: String) -> Result<T> {
    Err(MatrixError::InvalidArgument { op, msg })
}

impl Validity {
    /// The bitmap of `len` cells in `words`: `len.div_ceil(64)` words with
    /// no bit set past the last cell.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Self> {
        let op = "Validity::from_words";
        if words.len() != len.div_ceil(64) {
            return invalid(op, format!("{} words for {len} cells", words.len()));
        }
        let tail = len % 64;
        if tail != 0 && words[words.len() - 1] >> tail != 0 {
            return invalid(op, format!("a bit set past the last of {len} cells"));
        }
        Ok(Validity { words, len })
    }

    fn with_capacity(cells: usize) -> Self {
        Validity {
            words: Vec::with_capacity(cells.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of cells covered.
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// True when cell `i` holds a value.
    #[inline]
    fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "cell {i} of {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The bits, 64 cells per word, cell `i` at bit `i % 64` of word
    /// `i / 64`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of cells that hold a value.
    fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends one cell.
    #[inline]
    fn push(&mut self, set: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        let last = self.words.len() - 1;
        self.words[last] |= u64::from(set) << bit;
        self.len += 1;
    }

    /// Appends the low `n <= 64` bits of `w`, which has none above them.
    fn push_bits(&mut self, w: u64, n: usize) {
        let s = self.len % 64;
        if s == 0 {
            self.words.push(w);
        } else {
            *self.words.last_mut().expect("a partial word") |= w << s;
            if s + n > 64 {
                self.words.push(w >> (64 - s));
            }
        }
        self.len += n;
    }

    /// Appends the cells `lo..hi` of `src`, a word at a time.
    fn extend_from(&mut self, src: &Validity, lo: usize, hi: usize) {
        let mut at = lo;
        while at < hi {
            let n = (hi - at).min(64);
            let (i, s) = (at / 64, at % 64);
            let mut w = src.words[i] >> s;
            if s + n > 64 {
                w |= src.words[i + 1] << (64 - s);
            }
            if n < 64 {
                w &= (1 << n) - 1;
            }
            self.push_bits(w, n);
            at += n;
        }
    }
}

/// The cells of a fixed-width column: one values buffer and its validity
/// bitmap. A missing cell holds `T::default()`, so equal cells compare
/// equal.
#[derive(Clone, PartialEq, Default)]
pub struct Cells<T> {
    values: Vec<T>,
    valid: Validity,
}

impl<T: Copy + Default> Cells<T> {
    /// An empty column with room for `cells` cells.
    fn with_capacity(cells: usize) -> Self {
        Cells {
            values: Vec::with_capacity(cells),
            valid: Validity::with_capacity(cells),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of cell `i`, `None` when it is missing.
    pub fn get(&self, i: usize) -> Option<T> {
        self.valid.get(i).then(|| self.values[i])
    }

    /// The values buffer; missing cells hold `T::default()`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Validity {
        &self.valid
    }

    /// Appends one cell.
    pub fn push(&mut self, cell: Option<T>) {
        self.valid.push(cell.is_some());
        self.values.push(cell.unwrap_or_default());
    }

    /// The cells in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The column of `values` under `valid`: one value per cell, and
    /// `is_default` holds for the value of every missing cell.
    fn checked(values: Vec<T>, valid: Validity, is_default: impl Fn(T) -> bool) -> Result<Self> {
        let op = "Cells::from_parts";
        if values.len() != valid.len() {
            return invalid(
                op,
                format!("{} values for {} cells", values.len(), valid.len()),
            );
        }
        for (at, (values, &w)) in values.chunks(64).zip(&valid.words).enumerate() {
            // Visit the clear bits only; those past the last cell find no value.
            let mut missing = !w;
            while missing != 0 {
                let i = missing.trailing_zeros() as usize;
                missing &= missing - 1;
                if values.get(i).is_some_and(|&v| !is_default(v)) {
                    return invalid(op, format!("missing cell {} holds a value", at * 64 + i));
                }
            }
        }
        Ok(Cells { values, valid })
    }

    fn slice(&self, lo: usize, hi: usize) -> Self {
        let mut valid = Validity::with_capacity(hi - lo);
        valid.extend_from(&self.valid, lo, hi);
        Cells {
            values: self.values[lo..hi].to_vec(),
            valid,
        }
    }

    fn append(&mut self, other: &Self) {
        self.values.extend_from_slice(&other.values);
        self.valid.extend_from(&other.valid, 0, other.len());
    }
}

impl Cells<f64> {
    /// An `f64` column from its values and bitmap; a missing cell holds
    /// `0.0`, all bits zero.
    pub fn from_parts(values: Vec<f64>, valid: Validity) -> Result<Self> {
        Cells::checked(values, valid, |v| v.to_bits() == 0)
    }
}

impl Cells<i64> {
    /// An `i64` column from its values and bitmap; a missing cell holds 0.
    pub fn from_parts(values: Vec<i64>, valid: Validity) -> Result<Self> {
        Cells::checked(values, valid, |v| v == 0)
    }
}

impl Cells<bool> {
    /// A `bool` column from one byte per cell, 0 or 1, and its bitmap; a
    /// missing cell holds 0.
    pub fn from_parts(bytes: Vec<u8>, valid: Validity) -> Result<Self> {
        if let Some(b) = bytes.iter().find(|&&b| b > 1) {
            return invalid("Cells::from_parts", format!("bool byte {b}"));
        }
        Cells::checked(bytes.into_iter().map(|b| b == 1).collect(), valid, |v| !v)
    }
}

// A column prints as the list of its cells, `[Some(x), None, ...]`, as the
// per-cell layout did: `tests/fed_wire_pins.rs` pins frames by that text.
impl<T: Copy + Default + std::fmt::Debug> std::fmt::Debug for Cells<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default> FromIterator<Option<T>> for Cells<T> {
    fn from_iter<I: IntoIterator<Item = Option<T>>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut cells = Cells::with_capacity(iter.size_hint().0);
        for cell in iter {
            cells.push(cell);
        }
        cells
    }
}

/// The cells of a string column in Arrow's layout: cell `i` is
/// `bytes[offsets[i]..offsets[i + 1]]` of one UTF-8 buffer, and the
/// validity bitmap says which cells hold a value. A missing cell is empty.
#[derive(Clone, PartialEq, Eq)]
pub struct StrCells {
    offsets: Vec<usize>,
    bytes: String,
    valid: Validity,
}

impl Default for StrCells {
    fn default() -> Self {
        StrCells::with_capacity(0, 0)
    }
}

impl StrCells {
    /// An empty column with room for `cells` cells of `bytes` bytes in
    /// all.
    pub fn with_capacity(cells: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        StrCells {
            offsets,
            bytes: String::with_capacity(bytes),
            valid: Validity::with_capacity(cells),
        }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string of cell `i`, `None` when it is missing.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        self.valid.get(i).then(|| self.value(i))
    }

    /// A string column from its buffers: one offset per cell and one more,
    /// starting at 0, never decreasing, each on a char boundary of `bytes`,
    /// the last at its end. A missing cell is empty.
    pub fn from_parts(offsets: Vec<usize>, bytes: Vec<u8>, valid: Validity) -> Result<Self> {
        let op = "StrCells::from_parts";
        let bytes = match String::from_utf8(bytes) {
            Ok(bytes) => bytes,
            Err(e) => return invalid(op, format!("invalid utf-8: {e}")),
        };
        let n = valid.len();
        if offsets.len() != n + 1 || offsets[0] != 0 || offsets[n] != bytes.len() {
            let len = bytes.len();
            return invalid(
                op,
                format!("{} offsets, not {n} + 1 from 0 to {len}", offsets.len()),
            );
        }
        for (i, w) in offsets.windows(2).enumerate() {
            if w[0] > w[1] || !bytes.is_char_boundary(w[1]) {
                return invalid(op, format!("offset {} is {}", i + 1, w[1]));
            }
            if w[0] != w[1] && !valid.get(i) {
                return invalid(op, format!("missing cell {i} is not empty"));
            }
        }
        Ok(StrCells {
            offsets,
            bytes,
            valid,
        })
    }

    /// The bytes of cell `i`; a missing cell is `""`.
    #[inline]
    fn value(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The offsets: cell `i` is `bytes()[offsets()[i]..offsets()[i + 1]]`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The cells' bytes, one after the other; a missing cell has none.
    pub fn bytes(&self) -> &str {
        &self.bytes
    }

    #[inline]
    fn validity(&self) -> &Validity {
        &self.valid
    }

    /// Appends one cell.
    #[inline]
    pub fn push(&mut self, cell: Option<&str>) {
        self.valid.push(cell.is_some());
        self.bytes.push_str(cell.unwrap_or_default());
        self.offsets.push(self.bytes.len());
    }

    /// The cells in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    fn slice(&self, lo: usize, hi: usize) -> Self {
        let (start, end) = (self.offsets[lo], self.offsets[hi]);
        let mut valid = Validity::with_capacity(hi - lo);
        valid.extend_from(&self.valid, lo, hi);
        StrCells {
            offsets: self.offsets[lo..=hi].iter().map(|o| o - start).collect(),
            bytes: self.bytes[start..end].to_string(),
            valid,
        }
    }

    fn append(&mut self, other: &Self) {
        let base = self.bytes.len();
        self.bytes.push_str(&other.bytes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|o| o + base));
        self.valid.extend_from(&other.valid, 0, other.len());
    }
}

// Prints as the list of its cells, like `Cells`.
impl std::fmt::Debug for StrCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<Option<S>> for StrCells {
    fn from_iter<I: IntoIterator<Item = Option<S>>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut cells = StrCells::with_capacity(iter.size_hint().0, 0);
        for cell in iter {
            cells.push(cell.as_ref().map(AsRef::as_ref));
        }
        cells
    }
}

/// A typed column: one values buffer and one validity bitmap (see
/// [`Cells`] and [`StrCells`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FrameColumn {
    /// Float column.
    F64(Cells<f64>),
    /// Integer column.
    I64(Cells<i64>),
    /// String column.
    Str(StrCells),
    /// Boolean column.
    Bool(Cells<bool>),
}

macro_rules! column_from_vec {
    ($($variant:ident($t:ty)),+ $(,)?) => {$(
        impl From<Vec<Option<$t>>> for FrameColumn {
            fn from(cells: Vec<Option<$t>>) -> Self {
                FrameColumn::$variant(cells.into_iter().collect())
            }
        }
    )+};
}

column_from_vec!(F64(f64), I64(i64), Str(String), Str(&str), Bool(bool));

impl FrameColumn {
    /// An empty column of type `vt`.
    pub fn empty(vt: ValueType) -> Self {
        match vt {
            ValueType::F64 => FrameColumn::F64(Cells::default()),
            ValueType::I64 => FrameColumn::I64(Cells::default()),
            ValueType::Str => FrameColumn::Str(StrCells::default()),
            ValueType::Bool => FrameColumn::Bool(Cells::default()),
        }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.validity().len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value type of the column.
    pub fn value_type(&self) -> ValueType {
        match self {
            FrameColumn::F64(_) => ValueType::F64,
            FrameColumn::I64(_) => ValueType::I64,
            FrameColumn::Str(_) => ValueType::Str,
            FrameColumn::Bool(_) => ValueType::Bool,
        }
    }

    /// The validity bitmap.
    #[inline]
    pub fn validity(&self) -> &Validity {
        match self {
            FrameColumn::F64(c) => c.validity(),
            FrameColumn::I64(c) => c.validity(),
            FrameColumn::Str(c) => c.validity(),
            FrameColumn::Bool(c) => c.validity(),
        }
    }

    /// True when the cell at `row` is missing.
    #[inline]
    pub fn is_missing(&self, row: usize) -> bool {
        !self.validity().get(row)
    }

    /// Number of missing cells.
    pub fn missing_count(&self) -> usize {
        self.len() - self.validity().count_set()
    }

    /// Numeric view of the cell (missing -> NaN, strings -> error).
    #[inline]
    pub fn numeric(&self, row: usize) -> Result<f64> {
        match self {
            FrameColumn::F64(c) => Ok(c.get(row).unwrap_or(f64::NAN)),
            FrameColumn::I64(c) => Ok(c.get(row).map_or(f64::NAN, |x| x as f64)),
            FrameColumn::Bool(c) => Ok(c.get(row).map_or(f64::NAN, |b| if b { 1.0 } else { 0.0 })),
            FrameColumn::Str(_) => Err(MatrixError::TypeMismatch {
                expected: "numeric",
                actual: "string",
            }),
        }
    }

    /// Calls `f(row, value)` for each row of `rows` with the cell's
    /// numeric view (missing -> NaN); a string column is an error. The
    /// column's type is matched once, not once per cell.
    pub fn for_each_numeric(
        &self,
        rows: Range<usize>,
        mut f: impl FnMut(usize, f64),
    ) -> Result<()> {
        fn each<T: Copy + Default>(
            c: &Cells<T>,
            rows: Range<usize>,
            view: impl Fn(T) -> f64,
            f: &mut impl FnMut(usize, f64),
        ) {
            for r in rows {
                f(
                    r,
                    if c.valid.get(r) {
                        view(c.values[r])
                    } else {
                        f64::NAN
                    },
                );
            }
        }
        match self {
            FrameColumn::F64(c) => each(c, rows, |x| x, &mut f),
            FrameColumn::I64(c) => each(c, rows, |x| x as f64, &mut f),
            FrameColumn::Bool(c) => each(c, rows, |b| if b { 1.0 } else { 0.0 }, &mut f),
            FrameColumn::Str(_) if rows.is_empty() => {}
            FrameColumn::Str(_) => return self.numeric(rows.start).map(drop),
        }
        Ok(())
    }

    /// Calls `f(row, token)` for each row of `rows` with the cell's
    /// [`token`](Self::token). A string column lends its cells; any other
    /// renders into one reused buffer.
    pub fn for_each_token(&self, rows: Range<usize>, mut f: impl FnMut(usize, Option<&str>)) {
        fn each<T: Copy + Default + std::fmt::Display>(
            c: &Cells<T>,
            rows: Range<usize>,
            f: &mut impl FnMut(usize, Option<&str>),
        ) {
            let mut buf = String::new();
            for r in rows {
                let tok = c.get(r).map(|x| {
                    buf.clear();
                    write!(buf, "{x}").expect("writes to a String");
                    buf.as_str()
                });
                f(r, tok);
            }
        }
        match self {
            FrameColumn::F64(c) => each(c, rows, &mut f),
            FrameColumn::I64(c) => each(c, rows, &mut f),
            FrameColumn::Bool(c) => each(c, rows, &mut f),
            FrameColumn::Str(c) => rows.for_each(|r| f(r, c.get(r))),
        }
    }

    /// String rendering of the cell; missing cells render as `""`.
    pub fn render(&self, row: usize) -> String {
        self.token(row).map(Cow::into_owned).unwrap_or_default()
    }

    /// Categorical token of the cell for recoding: `None` for missing,
    /// otherwise the canonical string form, borrowed from a string column.
    #[inline]
    pub fn token(&self, row: usize) -> Option<Cow<'_, str>> {
        match self {
            FrameColumn::F64(c) => c.get(row).map(|x| Cow::Owned(format!("{x}"))),
            FrameColumn::I64(c) => c.get(row).map(|x| Cow::Owned(format!("{x}"))),
            FrameColumn::Str(c) => c.get(row).map(Cow::Borrowed),
            FrameColumn::Bool(c) => c.get(row).map(|b| Cow::Owned(b.to_string())),
        }
    }

    /// Extracts the half-open row range as a new column.
    pub fn slice(&self, lo: usize, hi: usize) -> FrameColumn {
        match self {
            FrameColumn::F64(c) => FrameColumn::F64(c.slice(lo, hi)),
            FrameColumn::I64(c) => FrameColumn::I64(c.slice(lo, hi)),
            FrameColumn::Str(c) => FrameColumn::Str(c.slice(lo, hi)),
            FrameColumn::Bool(c) => FrameColumn::Bool(c.slice(lo, hi)),
        }
    }

    /// Appends another column of the same type.
    pub fn append(&mut self, other: &FrameColumn) -> Result<()> {
        match (self, other) {
            (FrameColumn::F64(a), FrameColumn::F64(b)) => a.append(b),
            (FrameColumn::I64(a), FrameColumn::I64(b)) => a.append(b),
            (FrameColumn::Str(a), FrameColumn::Str(b)) => a.append(b),
            (FrameColumn::Bool(a), FrameColumn::Bool(b)) => a.append(b),
            (a, b) => {
                return Err(MatrixError::TypeMismatch {
                    expected: a.value_type().name(),
                    actual: b.value_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Bytes held by the column's buffers.
    fn size_bytes(&self) -> usize {
        let bitmap = self.validity().words().len() * 8;
        bitmap
            + match self {
                FrameColumn::F64(c) => c.len() * 8,
                FrameColumn::I64(c) => c.len() * 8,
                FrameColumn::Bool(c) => c.len(),
                FrameColumn::Str(c) => c.offsets.len() * 8 + c.bytes.len(),
            }
    }
}

/// A heterogeneous frame of named, typed columns of equal length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<FrameColumn>,
}

impl Frame {
    /// Creates a frame from `(name, column)` pairs, validating equal lengths
    /// and unique names.
    pub fn new(columns: Vec<(String, FrameColumn)>) -> Result<Self> {
        let mut names = Vec::with_capacity(columns.len());
        let mut cols = Vec::with_capacity(columns.len());
        let mut len: Option<usize> = None;
        for (name, col) in columns {
            if names.contains(&name) {
                return Err(MatrixError::InvalidArgument {
                    op: "Frame::new",
                    msg: format!("duplicate column name '{name}'"),
                });
            }
            match len {
                None => len = Some(col.len()),
                Some(l) if l != col.len() => {
                    return Err(MatrixError::InvalidArgument {
                        op: "Frame::new",
                        msg: format!("column '{name}' has {} rows, expected {l}", col.len()),
                    })
                }
                _ => {}
            }
            names.push(name);
            cols.push(col);
        }
        Ok(Self {
            names,
            columns: cols,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, FrameColumn::len)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Schema as `(name, type)` pairs.
    pub fn schema(&self) -> Vec<(String, ValueType)> {
        self.names
            .iter()
            .zip(&self.columns)
            .map(|(n, c)| (n.clone(), c.value_type()))
            .collect()
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> Result<&FrameColumn> {
        self.columns.get(idx).ok_or(MatrixError::IndexOutOfBounds {
            op: "Frame::column",
            index: idx,
            bound: self.columns.len(),
        })
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| MatrixError::InvalidArgument {
                op: "Frame::column_index",
                msg: format!("no column named '{name}'"),
            })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&FrameColumn> {
        let idx = self.column_index(name)?;
        self.column(idx)
    }

    /// Vertical concatenation of two frames with identical schemas.
    pub fn rbind(&self, other: &Frame) -> Result<Frame> {
        if self.schema() != other.schema() {
            return Err(MatrixError::InvalidArgument {
                op: "Frame::rbind",
                msg: "schemas differ".into(),
            });
        }
        let mut out = self.clone();
        for (a, b) in out.columns.iter_mut().zip(&other.columns) {
            a.append(b)?;
        }
        Ok(out)
    }

    /// Extracts a half-open row range.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Result<Frame> {
        if lo > hi || hi > self.rows() {
            return Err(MatrixError::IndexOutOfBounds {
                op: "Frame::slice_rows",
                index: hi,
                bound: self.rows(),
            });
        }
        Ok(Frame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.slice(lo, hi)).collect(),
        })
    }

    /// Projects a subset of columns by name (federated feature selection).
    pub fn select(&self, names: &[&str]) -> Result<Frame> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let idx = self.column_index(n)?;
            cols.push((n.to_string(), self.columns[idx].clone()));
        }
        Frame::new(cols)
    }

    /// Converts all-numeric frames to a dense matrix (missing -> NaN).
    pub fn to_matrix(&self) -> Result<DenseMatrix> {
        let rows = self.rows();
        let cols = self.cols();
        let mut out = DenseMatrix::zeros(rows, cols);
        for (c, col) in self.columns.iter().enumerate() {
            col.for_each_numeric(0..rows, |r, v| out.set(r, c, v))?;
        }
        Ok(out)
    }

    /// Builds a single-type frame from a dense matrix.
    pub fn from_matrix(m: &DenseMatrix, prefix: &str) -> Frame {
        let columns = (0..m.cols())
            .map(|c| {
                let data: Cells<f64> = (0..m.rows())
                    .map(|r| Some(m.get(r, c)).filter(|v| !v.is_nan()))
                    .collect();
                (format!("{prefix}{}", c + 1), FrameColumn::F64(data))
            })
            .collect();
        Frame::new(columns).expect("consistent construction")
    }

    /// In-memory size of the columns' buffers in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(FrameColumn::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(vec![
            (
                "recipe".into(),
                FrameColumn::from(vec![Some("R101"), Some("C7"), None, Some("R101")]),
            ),
            (
                "power".into(),
                FrameColumn::from(vec![Some(2100.0), Some(4350.0), Some(5500.0), None]),
            ),
            (
                "batch".into(),
                FrameColumn::from(vec![Some(1i64), Some(2), Some(3), Some(4)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Frame::new(vec![
            ("a".into(), FrameColumn::from(vec![Some(1.0)])),
            ("a".into(), FrameColumn::from(vec![Some(2.0)])),
        ])
        .is_err());
        assert!(Frame::new(vec![
            ("a".into(), FrameColumn::from(vec![Some(1.0)])),
            ("b".into(), FrameColumn::from(vec![Some(2.0), Some(3.0)])),
        ])
        .is_err());
    }

    #[test]
    fn missing_values_tracked() {
        let f = sample();
        assert_eq!(f.column_by_name("recipe").unwrap().missing_count(), 1);
        assert!(f.column_by_name("power").unwrap().is_missing(3));
        assert_eq!(f.column_by_name("batch").unwrap().missing_count(), 0);
    }

    #[test]
    fn tokens_for_recoding() {
        let f = sample();
        let c = f.column_by_name("recipe").unwrap();
        assert_eq!(c.token(0).as_deref(), Some("R101"));
        assert_eq!(c.token(2), None);
    }

    #[test]
    fn rbind_and_slice() {
        let f = sample();
        let both = f.rbind(&f).unwrap();
        assert_eq!(both.rows(), 8);
        let tail = both.slice_rows(4, 8).unwrap();
        assert_eq!(tail.rows(), 4);
        assert_eq!(
            tail.column_by_name("recipe").unwrap().token(0).as_deref(),
            Some("R101")
        );
    }

    #[test]
    fn select_projects_columns() {
        let f = sample();
        let p = f.select(&["batch", "power"]).unwrap();
        assert_eq!(p.names(), &["batch".to_string(), "power".to_string()]);
        assert!(f.select(&["nope"]).is_err());
    }

    #[test]
    fn numeric_conversion() {
        let f = sample().select(&["power", "batch"]).unwrap();
        let m = f.to_matrix().unwrap();
        assert_eq!(m.get(0, 0), 2100.0);
        assert!(m.get(3, 0).is_nan());
        assert_eq!(m.get(3, 1), 4.0);
        // String columns refuse numeric conversion.
        assert!(sample().to_matrix().is_err());
    }

    #[test]
    fn matrix_roundtrip_preserves_nan_as_missing() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(1, 1, f64::NAN);
        m.set(0, 0, 5.0);
        let f = Frame::from_matrix(&m, "c");
        assert!(f.column(1).unwrap().is_missing(1));
        assert_eq!(f.column(0).unwrap().numeric(0).unwrap(), 5.0);
    }
}
