//! Raw-data access: CSV and binary readers/writers plus positional maps for
//! partial parsing.
//!
//! ExDRa executes ML pipelines directly on raw files at the federated sites.
//! Inspired by NoDB-style query processing on raw data (paper §1/§4.4), the
//! reader can build a [`PositionalMap`] of row byte offsets on first access
//! so later passes parse only the requested row ranges.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::frame::{Frame, FrameColumn, ValueType};

const BIN_MAGIC: &[u8; 8] = b"EXDRAMT1";

/// Writes a matrix as headerless CSV.
pub fn write_matrix_csv(m: &DenseMatrix, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut line = String::new();
    for r in 0..m.rows() {
        line.clear();
        for (i, v) in m.row(r).iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            // Shortest roundtrip formatting.
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a headerless numeric CSV as a matrix. Empty cells and the literal
/// `NA` become NaN.
pub fn read_matrix_csv(path: &Path) -> Result<DenseMatrix> {
    let r = BufReader::new(File::open(path)?);
    let mut data = Vec::new();
    let mut cols = 0usize;
    let mut rows = 0usize;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let mut n = 0usize;
        for cell in line.split(',') {
            data.push(parse_numeric_cell(cell, lineno + 1)?);
            n += 1;
        }
        if rows == 0 {
            cols = n;
        } else if n != cols {
            return Err(MatrixError::Parse {
                line: lineno + 1,
                msg: format!("expected {cols} cells, found {n}"),
            });
        }
        rows += 1;
    }
    DenseMatrix::new(rows, cols, data)
}

fn parse_numeric_cell(cell: &str, line: usize) -> Result<f64> {
    let t = cell.trim();
    if t.is_empty() || t == "NA" || t == "NULL" {
        return Ok(f64::NAN);
    }
    t.parse::<f64>().map_err(|_| MatrixError::Parse {
        line,
        msg: format!("invalid numeric cell '{t}'"),
    })
}

/// Writes a matrix in the binary format (`EXDRAMT1` magic, u64 dims,
/// little-endian f64 payload). This is the fast path the workers use for
/// retained intermediates and what the experiments' "I/O from binary files"
/// refers to.
pub fn write_matrix_bin(m: &DenseMatrix, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(m.rows() as u64).to_le_bytes())?;
    w.write_all(&(m.cols() as u64).to_le_bytes())?;
    for v in m.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a matrix from the binary format.
pub fn read_matrix_bin(path: &Path) -> Result<DenseMatrix> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(MatrixError::Parse {
            line: 0,
            msg: "bad magic in binary matrix file".into(),
        });
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let rows = u64::from_le_bytes(buf8) as usize;
    r.read_exact(&mut buf8)?;
    let cols = u64::from_le_bytes(buf8) as usize;
    // The header's shape is checked against the bytes actually left in
    // the file before anything is allocated for it.
    let left = r.get_ref().metadata()?.len().saturating_sub(24);
    let bytes = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .filter(|&n| n as u64 <= left)
        .ok_or_else(|| MatrixError::Parse {
            line: 0,
            msg: format!("binary matrix header {rows}x{cols} exceeds its {left} payload bytes"),
        })?;
    let mut raw = vec![0u8; bytes];
    r.read_exact(&mut raw)?;
    let data = raw
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    DenseMatrix::new(rows, cols, data)
}

/// Writes a frame as CSV with a header line; missing cells are empty.
pub fn write_frame_csv(f: &Frame, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{}", f.names().join(","))?;
    for r in 0..f.rows() {
        let mut line = String::new();
        for c in 0..f.cols() {
            if c > 0 {
                line.push(',');
            }
            line.push_str(&f.column(c)?.render(r));
        }
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a CSV with header into a frame using an explicit schema (one
/// [`ValueType`] per column). Empty cells, `NA`, and `NULL` parse as missing.
pub fn read_frame_csv(path: &Path, schema: &[ValueType]) -> Result<Frame> {
    let mut r = BufReader::new(File::open(path)?);
    let mut header = String::new();
    r.read_line(&mut header)?;
    let names: Vec<String> = header.trim_end().split(',').map(str::to_string).collect();
    if names.len() != schema.len() {
        return Err(MatrixError::Parse {
            line: 1,
            msg: format!(
                "header has {} columns, schema has {}",
                names.len(),
                schema.len()
            ),
        });
    }
    let mut cols: Vec<FrameColumn> = schema.iter().map(|&t| FrameColumn::empty(t)).collect();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        parse_frame_line(&line, lineno + 2, &mut cols)?;
    }
    Frame::new(names.into_iter().zip(cols).collect())
}

fn parse_frame_line(line: &str, lineno: usize, cols: &mut [FrameColumn]) -> Result<()> {
    let mut n = 0usize;
    for (c, cell) in line.split(',').enumerate() {
        let col = cols.get_mut(c).ok_or(MatrixError::Parse {
            line: lineno,
            msg: format!("too many cells (expected {})", n),
        })?;
        let t = cell.trim();
        let missing = t.is_empty() || t == "NA" || t == "NULL";
        let invalid = |what: &str| MatrixError::Parse {
            line: lineno,
            msg: format!("invalid {what} '{t}'"),
        };
        match col {
            FrameColumn::F64(v) => v.push(if missing {
                None
            } else {
                Some(t.parse().map_err(|_| invalid("f64"))?)
            }),
            FrameColumn::I64(v) => v.push(if missing {
                None
            } else {
                Some(t.parse().map_err(|_| invalid("i64"))?)
            }),
            FrameColumn::Bool(v) => v.push(if missing {
                None
            } else {
                Some(match t {
                    "true" | "TRUE" | "1" => true,
                    "false" | "FALSE" | "0" => false,
                    _ => return Err(invalid("bool")),
                })
            }),
            FrameColumn::Str(v) => v.push((!missing).then_some(t)),
        }
        n += 1;
    }
    if n != cols.len() {
        return Err(MatrixError::Parse {
            line: lineno,
            msg: format!("expected {} cells, found {n}", cols.len()),
        });
    }
    Ok(())
}

/// Infers a per-column schema from the first `sample_rows` data rows of a
/// CSV-with-header: i64 if all sampled cells parse as integers, else f64 if
/// numeric, else bool, else string. Missing cells are ignored for inference.
pub fn infer_schema(path: &Path, sample_rows: usize) -> Result<Vec<ValueType>> {
    let mut r = BufReader::new(File::open(path)?);
    let mut header = String::new();
    r.read_line(&mut header)?;
    let ncols = header.trim_end().split(',').count();
    // Each column takes the type of its first cell and widens from there.
    let mut types: Vec<Option<ValueType>> = vec![None; ncols];
    for line in r.lines().take(sample_rows) {
        let line = line?;
        for (c, cell) in line.split(',').enumerate().take(ncols) {
            let t = cell.trim();
            if t.is_empty() || t == "NA" || t == "NULL" {
                continue;
            }
            let cell = cell_type(t);
            types[c] = Some(types[c].map_or(cell, |seen| widen(seen, cell)));
        }
    }
    // Columns never observed default to string (safest).
    Ok(types
        .into_iter()
        .map(|t| t.unwrap_or(ValueType::Str))
        .collect())
}

/// The most specific type a cell parses as: i64, else f64, else bool
/// (explicit literals only), else string.
fn cell_type(cell: &str) -> ValueType {
    if cell.parse::<i64>().is_ok() {
        ValueType::I64
    } else if cell.parse::<f64>().is_ok() {
        ValueType::F64
    } else if matches!(cell, "true" | "false" | "TRUE" | "FALSE") {
        ValueType::Bool
    } else {
        ValueType::Str
    }
}

/// The narrowest type that every cell of both types parses as: i64 widens
/// to f64, and any other mix (numbers with booleans included) to string.
fn widen(a: ValueType, b: ValueType) -> ValueType {
    match (a, b) {
        _ if a == b => a,
        (ValueType::I64, ValueType::F64) | (ValueType::F64, ValueType::I64) => ValueType::F64,
        _ => ValueType::Str,
    }
}

/// Byte offsets of row starts in a raw CSV file, built once on first access
/// and reused for partial parsing of later row-range reads.
#[derive(Debug, Clone)]
pub struct PositionalMap {
    /// `offsets[i]` is the byte offset of data row `i` (header excluded).
    offsets: Vec<u64>,
    /// Total file length in bytes.
    file_len: u64,
    /// Whether the file's first line is a header (skipped in `offsets`).
    has_header: bool,
}

impl PositionalMap {
    /// Scans the file once, recording the byte offset of every data row.
    pub fn build(path: &Path, has_header: bool) -> Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut offsets = Vec::new();
        let mut pos = 0u64;
        let mut line = String::new();
        let mut first = true;
        loop {
            line.clear();
            let n = r.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            if (!first || !has_header) && !line.trim_end().is_empty() {
                offsets.push(pos);
            }
            first = false;
            pos += n as u64;
        }
        Ok(Self {
            offsets,
            file_len: pos,
            has_header,
        })
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.offsets.len()
    }

    /// True when the map was built over a headered file.
    pub fn has_header(&self) -> bool {
        self.has_header
    }

    /// Reads the half-open data-row range `[lo, hi)` as a numeric matrix,
    /// seeking directly to the first requested row — partial parsing.
    pub fn read_rows_matrix(&self, path: &Path, lo: usize, hi: usize) -> Result<DenseMatrix> {
        if lo > hi || hi > self.rows() {
            return Err(MatrixError::IndexOutOfBounds {
                op: "positional_read",
                index: hi,
                bound: self.rows(),
            });
        }
        if lo == hi {
            return DenseMatrix::new(0, 0, Vec::new());
        }
        let mut f = File::open(path)?;
        let start = self.offsets[lo];
        let end = if hi < self.rows() {
            self.offsets[hi]
        } else {
            self.file_len
        };
        f.seek(SeekFrom::Start(start))?;
        let mut buf = vec![0u8; (end - start) as usize];
        f.read_exact(&mut buf)?;
        let text = String::from_utf8_lossy(&buf);
        let mut data = Vec::new();
        let mut cols = 0usize;
        let mut rows = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut n = 0usize;
            for cell in line.split(',') {
                data.push(parse_numeric_cell(cell, lo + i + 1)?);
                n += 1;
            }
            if rows == 0 {
                cols = n;
            } else if n != cols {
                return Err(MatrixError::Parse {
                    line: lo + i + 1,
                    msg: format!("expected {cols} cells, found {n}"),
                });
            }
            rows += 1;
        }
        DenseMatrix::new(rows, cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rand_matrix;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("exdra_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn matrix_csv_roundtrip() {
        let m = rand_matrix(20, 5, -10.0, 10.0, 61);
        let p = tmp("m.csv");
        write_matrix_csv(&m, &p).unwrap();
        let back = read_matrix_csv(&p).unwrap();
        assert!(back.max_abs_diff(&m) < 1e-12);
    }

    #[test]
    fn matrix_csv_missing_as_nan() {
        let p = tmp("na.csv");
        std::fs::write(&p, "1,NA,3\n4,,6\n").unwrap();
        let m = read_matrix_csv(&p).unwrap();
        assert!(m.get(0, 1).is_nan());
        assert!(m.get(1, 1).is_nan());
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn matrix_csv_ragged_rejected() {
        let p = tmp("ragged.csv");
        std::fs::write(&p, "1,2\n3\n").unwrap();
        assert!(read_matrix_csv(&p).is_err());
    }

    #[test]
    fn matrix_bin_roundtrip_exact() {
        let m = rand_matrix(33, 7, -1.0, 1.0, 62);
        let p = tmp("m.bin");
        write_matrix_bin(&m, &p).unwrap();
        let back = read_matrix_bin(&p).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bin_bad_magic_rejected() {
        let p = tmp("bad.bin");
        std::fs::write(&p, b"NOTMAGIC\x00\x00").unwrap();
        assert!(read_matrix_bin(&p).is_err());
    }

    #[test]
    fn frame_csv_roundtrip_with_missing() {
        let f = Frame::new(vec![
            (
                "cat".into(),
                FrameColumn::from(vec![Some("X"), None, Some("Z")]),
            ),
            (
                "val".into(),
                FrameColumn::from(vec![Some(1.5), Some(2.0), None]),
            ),
            (
                "n".into(),
                FrameColumn::from(vec![Some(1i64), Some(2), Some(3)]),
            ),
        ])
        .unwrap();
        let p = tmp("f.csv");
        write_frame_csv(&f, &p).unwrap();
        let back = read_frame_csv(&p, &[ValueType::Str, ValueType::F64, ValueType::I64]).unwrap();
        assert_eq!(back.rows(), 3);
        assert!(back.column(0).unwrap().is_missing(1));
        assert!(back.column(1).unwrap().is_missing(2));
        assert_eq!(back.column(2).unwrap().numeric(2).unwrap(), 3.0);
    }

    #[test]
    fn schema_inference() {
        let p = tmp("infer.csv");
        std::fs::write(&p, "a,b,c,d\n1,1.5,X,true\n2,NA,Y,false\n3,2.5,Z,true\n").unwrap();
        let s = infer_schema(&p, 100).unwrap();
        assert_eq!(
            s,
            vec![
                ValueType::I64,
                ValueType::F64,
                ValueType::Str,
                ValueType::Bool
            ]
        );
    }

    #[test]
    fn schema_inference_widens_numbers_and_bools_to_string() {
        let p = tmp("infer_mixed.csv");
        std::fs::write(&p, "a,b,c,d\n5,true,1,true\ntrue,1.5,2.5,false\n").unwrap();
        let s = infer_schema(&p, 100).unwrap();
        let want = [
            ValueType::Str,
            ValueType::Str,
            ValueType::F64,
            ValueType::Bool,
        ];
        assert_eq!(s, want);
        // Every inferred type parses every sampled cell.
        let f = read_frame_csv(&p, &s).unwrap();
        assert_eq!(f.column(0).unwrap().token(0).as_deref(), Some("5"));
        assert_eq!(f.column(1).unwrap().token(1).as_deref(), Some("1.5"));
    }

    #[test]
    fn bin_header_larger_than_the_file_is_an_error() {
        let p = tmp("huge_header.bin");
        let mut bytes = BIN_MAGIC.to_vec();
        for dim in [1u64 << 20, 1 << 20] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        std::fs::write(&p, &bytes).unwrap();
        let err = read_matrix_bin(&p).unwrap_err().to_string();
        assert!(err.contains("exceeds its 0 payload bytes"), "{err}");
        // A shape whose byte size overflows a usize is the same error.
        bytes.truncate(8);
        for dim in [u64::MAX, 3] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        std::fs::write(&p, &bytes).unwrap();
        assert!(read_matrix_bin(&p).is_err());
        // A short payload under a matching header is still read exactly.
        let m = rand_matrix(3, 2, 0.0, 1.0, 64);
        write_matrix_bin(&m, &p).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 1]).unwrap();
        assert!(read_matrix_bin(&p).is_err());
    }

    #[test]
    fn positional_map_partial_read() {
        let m = rand_matrix(50, 3, 0.0, 1.0, 63);
        let p = tmp("pm.csv");
        write_matrix_csv(&m, &p).unwrap();
        let pm = PositionalMap::build(&p, false).unwrap();
        assert_eq!(pm.rows(), 50);
        let mid = pm.read_rows_matrix(&p, 10, 20).unwrap();
        assert_eq!(mid.shape(), (10, 3));
        let want = crate::kernels::reorg::index(&m, 10, 20, 0, 3).unwrap();
        assert!(mid.max_abs_diff(&want) < 1e-12);
        // Empty range.
        assert_eq!(pm.read_rows_matrix(&p, 5, 5).unwrap().rows(), 0);
        // Out of bounds.
        assert!(pm.read_rows_matrix(&p, 0, 51).is_err());
    }

    #[test]
    fn positional_map_skips_header() {
        let p = tmp("pmh.csv");
        std::fs::write(&p, "h1,h2\n1,2\n3,4\n").unwrap();
        let pm = PositionalMap::build(&p, true).unwrap();
        assert_eq!(pm.rows(), 2);
        let all = pm.read_rows_matrix(&p, 0, 2).unwrap();
        assert_eq!(all.get(0, 0), 1.0);
        assert_eq!(all.get(1, 1), 4.0);
    }
}
