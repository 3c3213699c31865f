//! Per-site NES coordinator: deploys continuous queries over sources into
//! sinks (paper §3.4). One coordinator instance runs at each federated
//! site, "which protects private data by avoiding consolidation in central
//! cloud environments".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use exdra_matrix::Result;

use crate::query::Query;
use crate::sink::FileSink;
use crate::source::SensorSource;

/// Handle to a deployed continuous query.
pub struct QueryHandle {
    name: String,
    stop: Arc<AtomicBool>,
    processed: Arc<AtomicU64>,
    emitted: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl QueryHandle {
    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records consumed from the source so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Records emitted to the sink so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Stops the query and waits for its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until at least `n` records were emitted (with a timeout).
    pub fn wait_for_emitted(&self, n: u64, timeout: Duration) -> bool {
        let t0 = std::time::Instant::now();
        while self.emitted() < n {
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A per-site streaming coordinator.
#[derive(Default)]
pub struct NesCoordinator {
    site: String,
}

impl NesCoordinator {
    /// Creates a coordinator for one federated site.
    pub fn new(site: impl Into<String>) -> Self {
        Self { site: site.into() }
    }

    /// Site name.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// Deploys a continuous query: pump `source` through `query` into
    /// `sink` on a background thread until stopped. `rate_limit` throttles
    /// the source (None = as fast as possible; tests use a small pause to
    /// emulate sensor cadence).
    pub fn deploy(
        &self,
        mut source: SensorSource,
        mut query: Query,
        sink: Arc<FileSink>,
        rate_limit: Option<Duration>,
    ) -> QueryHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let processed = Arc::new(AtomicU64::new(0));
        let emitted = Arc::new(AtomicU64::new(0));
        let name = format!("{}/{}", self.site, query.name());
        let handle_stop = Arc::clone(&stop);
        let handle_processed = Arc::clone(&processed);
        let handle_emitted = Arc::clone(&emitted);
        let thread = std::thread::Builder::new()
            .name(format!("nes-{name}"))
            .spawn(move || {
                while !handle_stop.load(Ordering::SeqCst) {
                    let record = source.next_record();
                    handle_processed.fetch_add(1, Ordering::Relaxed);
                    for out in query.process(record) {
                        if sink.append(&out).is_err() {
                            return;
                        }
                        handle_emitted.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(pause) = rate_limit {
                        std::thread::sleep(pause);
                    }
                }
            })
            .expect("spawn query thread");
        QueryHandle {
            name,
            stop,
            processed,
            emitted,
            thread: Some(thread),
        }
    }

    /// Runs a query synchronously over exactly `n` source records
    /// (deterministic batch pump for tests and benches).
    pub fn run_bounded(
        &self,
        source: &mut SensorSource,
        query: &mut Query,
        sink: &FileSink,
        n: usize,
    ) -> Result<u64> {
        let mut emitted = 0u64;
        for _ in 0..n {
            let record = source.next_record();
            for out in query.process(record) {
                sink.append(&out)?;
                emitted += 1;
            }
        }
        Ok(emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Cmp, Operator, WindowAgg};
    use crate::record::Schema;
    use crate::source::SensorConfig;

    /// Distinguishes same-named scratch dirs within one test process.
    static RUN: AtomicU64 = AtomicU64::new(0);

    fn tmp_sink(name: &str, fields: &[&str]) -> Arc<FileSink> {
        let dir = std::env::temp_dir().join("exdra_nes_tests").join(format!(
            "{name}-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(FileSink::create(dir, Schema::new(fields), 100, 10).unwrap())
    }

    #[test]
    fn bounded_pump_windows_into_sink() {
        let nes = NesCoordinator::new("site1");
        let mut source = SensorSource::new(SensorConfig::signals(3, 5));
        let mut query = Query::new(
            "window-mean",
            vec![Operator::TumblingWindow {
                size: 10,
                agg: WindowAgg::Mean,
            }],
        );
        let sink = tmp_sink("bounded", &["s0", "s1", "s2"]);
        let emitted = nes
            .run_bounded(&mut source, &mut query, &sink, 100)
            .unwrap();
        assert_eq!(emitted, 10);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.shape(), (10, 4));
    }

    #[test]
    fn deployed_query_runs_until_stopped() {
        let nes = NesCoordinator::new("site2");
        let source = SensorSource::new(SensorConfig::signals(2, 6));
        let query = Query::new("raw", vec![]);
        let sink = tmp_sink("deployed", &["s0", "s1"]);
        let handle = nes.deploy(source, query, Arc::clone(&sink), None);
        assert!(handle.wait_for_emitted(50, Duration::from_secs(5)));
        assert_eq!(handle.name(), "site2/raw");
        handle.stop();
        let n = sink.retained_records();
        assert!(n >= 50);
        // After stop, no more records arrive.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sink.retained_records(), n);
    }

    #[test]
    fn filtered_stream_keeps_only_matching() {
        let nes = NesCoordinator::new("site3");
        let mut cfg = SensorConfig::signals(1, 7);
        cfg.anomaly_rate = 0.2;
        let mut source = SensorSource::new(cfg);
        let mut query = Query::new(
            "anomalies-only",
            vec![Operator::Filter {
                field: 0,
                cmp: Cmp::Gt,
                value: 3.0,
            }],
        );
        let sink = tmp_sink("filtered", &["s0"]);
        let emitted = nes
            .run_bounded(&mut source, &mut query, &sink, 500)
            .unwrap();
        assert!(emitted > 30 && emitted < 250, "emitted {emitted}");
        let snap = sink.snapshot_features().unwrap();
        assert!(snap.values().iter().all(|&v| v > 3.0));
    }
}
