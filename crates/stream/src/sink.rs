//! Buffered file sinks with retention periods.
//!
//! "NES appends the collected streams to file sinks with retention periods
//! (e.g., last two days). ML pipelines then read this federated data from
//! the file sink, and use an in-memory snapshot for iterative training"
//! (paper §3.4). The sink rotates CSV segment files of a fixed record
//! count and drops the oldest segments beyond the retention limit;
//! [`FileSink::snapshot`] assembles a consistent matrix over the currently
//! retained records.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use exdra_matrix::{DenseMatrix, MatrixError, Result};
use parking_lot::Mutex;

use crate::record::{Record, Schema};

/// A segmented, retention-bounded CSV sink.
pub struct FileSink {
    dir: PathBuf,
    schema: Schema,
    segment_records: usize,
    retention_segments: usize,
    state: Mutex<SinkState>,
}

struct SinkState {
    /// Monotone segment counter (also the file name).
    next_segment: u64,
    /// Live segments, oldest first: `(segment id, records written)`.
    segments: Vec<(u64, usize)>,
    /// Writer for the open segment.
    writer: Option<BufWriter<File>>,
}

impl FileSink {
    /// Creates a sink writing segments of `segment_records` records into
    /// `dir`, keeping at most `retention_segments` finished segments.
    pub fn create(
        dir: impl AsRef<Path>,
        schema: Schema,
        segment_records: usize,
        retention_segments: usize,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if segment_records == 0 || retention_segments == 0 {
            return Err(MatrixError::InvalidArgument {
                op: "FileSink::create",
                msg: "segment size and retention must be positive".into(),
            });
        }
        Ok(Self {
            dir,
            schema,
            segment_records,
            retention_segments,
            state: Mutex::new(SinkState {
                next_segment: 0,
                segments: Vec::new(),
                writer: None,
            }),
        })
    }

    /// The sink's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Directory holding the segment files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("segment-{id:08}.csv"))
    }

    /// Appends one record (rotating and retiring segments as needed).
    pub fn append(&self, record: &Record) -> Result<()> {
        if record.arity() != self.schema.arity() {
            return Err(MatrixError::InvalidArgument {
                op: "FileSink::append",
                msg: format!(
                    "record arity {} != schema arity {}",
                    record.arity(),
                    self.schema.arity()
                ),
            });
        }
        let mut st = self.state.lock();
        // Open a fresh segment if needed.
        let need_new = match st.segments.last() {
            Some((_, n)) => *n >= self.segment_records,
            None => true,
        };
        if need_new {
            if let Some(mut w) = st.writer.take() {
                w.flush()?;
            }
            let id = st.next_segment;
            st.next_segment += 1;
            st.segments.push((id, 0));
            st.writer = Some(BufWriter::new(File::create(self.segment_path(id))?));
            // Retention: drop the oldest segments.
            while st.segments.len() > self.retention_segments {
                let (old, _) = st.segments.remove(0);
                let _ = fs::remove_file(self.segment_path(old));
            }
        }
        let mut line = String::with_capacity(record.arity() * 12);
        line.push_str(&record.timestamp.to_string());
        for v in &record.values {
            line.push(',');
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        let writer = st.writer.as_mut().expect("open segment");
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        if let Some(last) = st.segments.last_mut() {
            last.1 += 1;
        }
        Ok(())
    }

    /// Number of currently retained records.
    pub fn retained_records(&self) -> usize {
        self.state.lock().segments.iter().map(|(_, n)| n).sum()
    }

    /// Reads a consistent in-memory snapshot of all retained records as a
    /// matrix `[timestamp, fields...]`, oldest first.
    pub fn snapshot(&self) -> Result<DenseMatrix> {
        let st = self.state.lock();
        let cols = self.schema.arity() + 1;
        let mut data: Vec<f64> = Vec::new();
        let mut rows = 0usize;
        for (id, _) in &st.segments {
            let content = fs::read_to_string(self.segment_path(*id))?;
            for (lineno, line) in content.lines().enumerate() {
                if line.is_empty() {
                    continue;
                }
                let mut n = 0usize;
                for cell in line.split(',') {
                    let v: f64 = cell.parse().map_err(|_| MatrixError::Parse {
                        line: lineno + 1,
                        msg: format!("bad cell '{cell}' in segment {id}"),
                    })?;
                    data.push(v);
                    n += 1;
                }
                if n != cols {
                    return Err(MatrixError::Parse {
                        line: lineno + 1,
                        msg: format!("segment {id}: {n} cells, expected {cols}"),
                    });
                }
                rows += 1;
            }
        }
        DenseMatrix::new(rows, cols, data)
    }

    /// Snapshot without the timestamp column (feature matrix for training).
    pub fn snapshot_features(&self) -> Result<DenseMatrix> {
        let full = self.snapshot()?;
        if full.rows() == 0 {
            return DenseMatrix::new(0, self.schema.arity(), Vec::new());
        }
        exdra_matrix::kernels::reorg::index(&full, 0, full.rows(), 1, full.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Distinguishes same-named scratch dirs within one test process.
    static RUN: AtomicU64 = AtomicU64::new(0);

    fn sink(name: &str, seg: usize, ret: usize) -> FileSink {
        let dir = std::env::temp_dir().join("exdra_sink_tests").join(format!(
            "{name}-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        FileSink::create(dir, Schema::new(&["a", "b"]), seg, ret).unwrap()
    }

    #[test]
    fn append_and_snapshot() {
        let s = sink("basic", 10, 5);
        for t in 0..7u64 {
            s.append(&Record::new(t, vec![t as f64, -(t as f64)]))
                .unwrap();
        }
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.shape(), (7, 3));
        assert_eq!(snap.get(3, 0), 3.0); // timestamp column
        assert_eq!(snap.get(3, 2), -3.0);
        let feats = s.snapshot_features().unwrap();
        assert_eq!(feats.shape(), (7, 2));
    }

    #[test]
    fn retention_drops_oldest_segments() {
        let s = sink("retention", 5, 2); // keep at most 10 records
        for t in 0..23u64 {
            s.append(&Record::new(t, vec![t as f64, 0.0])).unwrap();
        }
        // Segments: 0..5,5..10,10..15,15..20,20..23; retained = last 2.
        assert!(s.retained_records() <= 10);
        let snap = s.snapshot().unwrap();
        // Oldest retained record is from segment 3 (t = 15).
        assert_eq!(snap.get(0, 0), 15.0);
        assert_eq!(snap.get(snap.rows() - 1, 0), 22.0);
        // Old segment files are gone from disk.
        assert!(!s.segment_path(0).exists());
        assert!(s.segment_path(4).exists());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = sink("arity", 5, 2);
        assert!(s.append(&Record::new(0, vec![1.0])).is_err());
    }

    #[test]
    fn empty_snapshot_is_empty_matrix() {
        let s = sink("empty", 5, 2);
        assert_eq!(s.snapshot().unwrap().rows(), 0);
        assert_eq!(s.snapshot_features().unwrap().shape(), (0, 2));
    }

    #[test]
    fn concurrent_appends_do_not_corrupt() {
        let s = std::sync::Arc::new(sink("concurrent", 50, 10));
        std::thread::scope(|scope| {
            for tid in 0..4u64 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        s.append(&Record::new(tid * 1000 + i, vec![1.0, 2.0]))
                            .unwrap();
                    }
                });
            }
        });
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.rows(), 200);
        // Every row parses and has the right values.
        for r in 0..snap.rows() {
            assert_eq!(snap.get(r, 1), 1.0);
            assert_eq!(snap.get(r, 2), 2.0);
        }
    }
}
