//! The standing federated worker.
//!
//! A worker is a control program "started as a worker process that acts
//! like a server at the federated site" (§4.1): it listens for incoming
//! federated requests, executes them against a local symbol table, checks
//! privacy constraints on data exchange, and returns responses. Standing
//! workers additionally host the lineage reuse cache and the background
//! compaction of cached intermediates (§4.4).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use exdra_matrix::compress::CompressedMatrix;
use exdra_matrix::frame::{Frame, FrameColumn};
use exdra_matrix::io as mio;
use exdra_matrix::kernels::reorg;
use exdra_matrix::{DenseMatrix, Matrix};
use exdra_net::codec::Wire;
use exdra_net::transport::{Channel, MemChannel, TcpServer};

use crate::error::{Result, RuntimeError};
use crate::exec;
use crate::lineage::{self, LineageCache};
use crate::privacy::{may_release, PrivacyLevel};
use crate::protocol::{
    BatchFooter, CheckpointDelta, CheckpointEntry, ReadFormat, Request, Response, RpcEnvelope,
    RpcReply, TraceContext,
};
use crate::symbol::SymbolTable;
use crate::udf::Udf;
use crate::value::DataValue;

/// An application-registered UDF: takes resolved symbol arguments followed
/// by inline arguments, returns an optional result value.
pub type RegisteredFn =
    dyn Fn(&[Arc<DataValue>], &[DataValue]) -> Result<Option<DataValue>> + Send + Sync;

/// Configuration of a federated worker.
pub struct WorkerConfig {
    /// Directory that `READ` file names are resolved against (the worker's
    /// permissioned raw-data root; paths escaping it are rejected).
    pub data_dir: PathBuf,
    /// Byte budget of the worker's lineage cache: reused instruction
    /// results and the dense twins of compacted entries share it, FIFO. A
    /// twin larger than the budget is never held, and that entry's
    /// contraction ops stay on its column groups.
    pub cache_bytes: usize,
    /// Whether lineage-based reuse of instruction results is enabled
    /// (ablation A1). Dense twins are held either way: they are another
    /// form of a live input, every instruction still executes.
    pub reuse_enabled: bool,
    /// Entries idle longer than this are eligible for background
    /// compression (paper §4.4 "free cycles ... asynchronous compression").
    pub compact_idle: Duration,
    /// Background compaction sweep period; `None` disables the thread.
    pub compact_period: Option<Duration>,
    /// Pre-shared channel key: when set, accepted TCP connections are
    /// encrypted (the worker-side counterpart of the coordinator's
    /// encrypted endpoints).
    pub channel_key: Option<exdra_net::crypto::ChannelKey>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            data_dir: std::env::temp_dir(),
            cache_bytes: 256 << 20,
            reuse_enabled: true,
            compact_idle: Duration::from_secs(30),
            compact_period: None,
            channel_key: None,
        }
    }
}

/// Process-wide epoch counter: every worker instance gets a distinct,
/// monotonically increasing epoch, so a coordinator comparing heartbeat
/// epochs can tell "same standing worker" from "restarted replacement"
/// (whose symbol table started empty).
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// A standing federated worker: shared state plus serving loops.
pub struct Worker {
    table: Arc<SymbolTable>,
    cache: Arc<LineageCache>,
    registry: RwLock<HashMap<String, Arc<RegisteredFn>>>,
    config: WorkerConfig,
    compressed_count: std::sync::atomic::AtomicU64,
    shutdown: AtomicBool,
    /// This worker's own listeners with their accept threads, so
    /// [`Worker::shutdown`] can wake and join them.
    listeners: Mutex<Vec<(std::net::SocketAddr, std::thread::JoinHandle<()>)>>,
    /// This instance's registration epoch (see [`NEXT_EPOCH`]).
    epoch: u64,
    /// Data-path requests executed (heartbeat load signal).
    load: AtomicU32,
}

impl Worker {
    /// Creates a worker with the given configuration.
    pub fn new(config: WorkerConfig) -> Arc<Self> {
        let cache = Arc::new(LineageCache::new(config.cache_bytes, config.reuse_enabled));
        Arc::new(Self {
            table: Arc::new(SymbolTable::new()),
            cache,
            registry: RwLock::new(HashMap::new()),
            config,
            compressed_count: std::sync::atomic::AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            listeners: Mutex::new(Vec::new()),
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            load: AtomicU32::new(0),
        })
    }

    /// The worker's registration epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Data-path requests executed so far.
    pub fn load(&self) -> u32 {
        self.load.load(Ordering::Relaxed)
    }

    /// Registers a named UDF (e.g. parameter-server gradient functions,
    /// installed at setup time).
    pub fn register_udf(&self, name: &str, f: Arc<RegisteredFn>) {
        self.registry.write().insert(name.to_string(), f);
    }

    /// The worker's symbol table (exposed for tests and embedding apps).
    pub fn table(&self) -> &Arc<SymbolTable> {
        &self.table
    }

    /// The worker's lineage cache.
    pub fn cache(&self) -> &Arc<LineageCache> {
        &self.cache
    }

    /// Requests shutdown of serving loops: connections exit after their
    /// current request, accept loops before this returns. An accept loop
    /// only looks at the flag between connections, so each listener gets
    /// one knock; its thread is joined, after which the port is closed.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let listeners = std::mem::take(&mut *self.listeners.lock());
        for (addr, accept) in listeners {
            let knock = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            if knock.is_ok() || accept.is_finished() {
                let _ = accept.join();
            }
        }
    }

    /// Serves one connection until the peer closes it or
    /// [`Worker::shutdown`] is requested (the connection is dropped
    /// without a response, so the peer observes a transport failure).
    ///
    /// Every frame runs to completion on this thread before the next one
    /// is received: `recv → decode → execute → reply`, so a connection's
    /// requests observe exactly the order the coordinator submitted them.
    /// Each frame is one `RpcEnvelope`, answered by one `RpcReply`.
    /// Concurrency at a worker is one thread per connection.
    pub fn serve_connection(self: &Arc<Self>, mut channel: Box<dyn Channel>) {
        while let Ok(frame) = channel.recv() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let reply = match RpcEnvelope::from_bytes(&frame) {
                Ok(env) => {
                    let (responses, footer) = self.handle_batch_traced(env.trace, env.requests);
                    RpcReply { responses, footer }
                }
                Err(e) => RpcReply {
                    responses: vec![Response::Error(format!("malformed request batch: {e}"))],
                    footer: BatchFooter::default(),
                },
            };
            if channel.send(&reply.to_bytes()).is_err() {
                break;
            }
        }
    }

    /// Serves a TCP endpoint, spawning one thread per accepted connection.
    /// Returns the bound address.
    pub fn serve_tcp(self: &Arc<Self>, addr: &str) -> Result<std::net::SocketAddr> {
        let server = TcpServer::bind(addr)?;
        let local = server.local_addr()?;
        let worker = Arc::clone(self);
        let accept = std::thread::Builder::new()
            .name("exdra-worker-accept".into())
            .spawn(move || loop {
                match server.accept() {
                    Ok(_) if worker.shutdown.load(Ordering::SeqCst) => return,
                    Ok(ch) => {
                        let w = Arc::clone(&worker);
                        let key = w.config.channel_key;
                        std::thread::spawn(move || match key {
                            Some(k) => w.serve_connection(Box::new(
                                exdra_net::transport::EncryptedChannel::new(ch, k, false),
                            )),
                            None => w.serve_connection(Box::new(ch)),
                        });
                    }
                    Err(_) => return,
                }
            })
            .expect("spawn worker accept thread");
        self.listeners.lock().push((local, accept));
        self.maybe_spawn_compactor();
        Ok(local)
    }

    /// Serves the worker's HTTP/1.0 observability endpoint
    /// ([`exdra_obs::http::serve`]) on `addr` and returns the bound
    /// address: `GET /healthz` answers the registration epoch and request
    /// load, `GET /metrics` the registry as Prometheus text. It stops with
    /// the worker.
    pub fn serve_http(self: &Arc<Self>, addr: &str) -> Result<std::net::SocketAddr> {
        let (local, accept) = exdra_obs::http::serve(addr, "exdra-worker-http", Arc::clone(self))
            .map_err(|e| RuntimeError::Network(format!("bind {addr}: {e}")))?;
        self.listeners.lock().push((local, accept));
        Ok(local)
    }

    /// Serves an in-memory channel pair on a background thread and returns
    /// the coordinator-side endpoint (deterministic test transport).
    pub fn serve_mem(self: &Arc<Self>) -> MemChannel {
        let (coord_side, worker_side) = exdra_net::transport::mem_pair();
        let worker = Arc::clone(self);
        std::thread::spawn(move || worker.serve_connection(Box::new(worker_side)));
        self.maybe_spawn_compactor();
        coord_side
    }

    fn maybe_spawn_compactor(self: &Arc<Self>) {
        if let Some(period) = self.config.compact_period {
            let worker = Arc::clone(self);
            std::thread::spawn(move || loop {
                std::thread::sleep(period);
                if worker.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                worker.compact(1024, worker.config.compact_idle);
            });
        }
    }

    /// Handles a request sequence; execution stops at the first failure and
    /// the remaining requests report a skip error.
    pub fn handle_batch(self: &Arc<Self>, batch: Vec<Request>) -> Vec<Response> {
        self.handle_batch_traced(TraceContext::NONE, batch).0
    }

    /// Like [`Worker::handle_batch`], but parents worker-side spans under
    /// the propagated coordinator context and returns the per-batch
    /// timing/accounting footer that travels back in the [`RpcReply`].
    pub fn handle_batch_traced(
        self: &Arc<Self>,
        trace: TraceContext,
        batch: Vec<Request>,
    ) -> (Vec<Response>, BatchFooter) {
        let obs_on = exdra_obs::enabled();
        let mut span =
            exdra_obs::span_child_of(exdra_obs::SpanKind::Worker, "worker.batch", trace.into());
        if span.is_active() {
            span.attr("requests", batch.len());
        }
        let hits0 = self.cache.hits();
        let misses0 = self.cache.misses();
        let t_batch = obs_on.then(Instant::now);
        let mut footer = BatchFooter::default();
        if obs_on {
            footer.request_nanos.reserve(batch.len());
        }
        let mut responses = Vec::with_capacity(batch.len());
        let mut failed = false;
        for req in batch {
            // Heartbeats answer even in a failed batch: liveness probing
            // must not be confused by data-path errors.
            if failed && !matches!(req, Request::Heartbeat) {
                responses.push(Response::Error("skipped: earlier request failed".into()));
                if obs_on {
                    footer.request_nanos.push(0);
                }
                continue;
            }
            let t_req = obs_on.then(Instant::now);
            // A panicking instruction or UDF is that request's error, not
            // the connection's death: the peer would otherwise wait for a
            // reply that never comes, or see a healthy worker hang up.
            let resp = match catch_unwind(AssertUnwindSafe(|| self.handle_one(req))) {
                Ok(Ok(r)) => r,
                Ok(Err(e)) => {
                    failed = true;
                    Response::Error(e.to_string())
                }
                Err(panic) => {
                    failed = true;
                    let msg = panic
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("non-string panic payload");
                    Response::Error(format!("panicked: {msg}"))
                }
            };
            if let Some(t) = t_req {
                footer.request_nanos.push(t.elapsed().as_nanos() as u64);
            }
            responses.push(resp);
        }
        if let Some(t) = t_batch {
            footer.exec_nanos = t.elapsed().as_nanos() as u64;
        }
        footer.cache_hits = self.cache.hits().saturating_sub(hits0);
        footer.cache_misses = self.cache.misses().saturating_sub(misses0);
        if span.is_active() {
            span.attr("exec_nanos", footer.exec_nanos);
            span.attr("cache_hits", footer.cache_hits);
            span.attr("cache_misses", footer.cache_misses);
        }
        (responses, footer)
    }

    fn handle_one(self: &Arc<Self>, req: Request) -> Result<Response> {
        // Heartbeats and checkpoints are supervision traffic: they must
        // not skew the data-path load signal straggler decisions key on.
        if !matches!(req, Request::Heartbeat | Request::Checkpoint { .. }) {
            self.load.fetch_add(1, Ordering::Relaxed);
        }
        match req {
            Request::Heartbeat => Ok(Response::Alive {
                epoch: self.epoch,
                load: self.load.load(Ordering::Relaxed),
            }),
            Request::Checkpoint { since_seq } => {
                let (seq, entries, removed) = self.table.delta_since(since_seq);
                let entries = entries
                    .into_iter()
                    .map(|(id, e)| CheckpointEntry {
                        id,
                        value: (*e.value).clone(),
                        privacy: e.meta.privacy,
                        releasable: e.meta.releasable,
                        lineage: e.meta.lineage,
                    })
                    .collect();
                // The requester now holds everything up to `since_seq`;
                // older removal records can never be asked for again.
                self.table.prune_removals(since_seq);
                Ok(Response::Checkpoint(CheckpointDelta {
                    seq,
                    epoch: self.epoch,
                    entries,
                    removed,
                }))
            }
            Request::Restore { entries } => {
                for e in entries {
                    self.table
                        .bind(e.id, Arc::new(e.value), e.privacy, e.releasable, e.lineage);
                }
                Ok(Response::Ok)
            }
            Request::Read {
                id,
                fname,
                format,
                privacy,
            } => {
                let path = self.resolve_path(&fname)?;
                let value = match format {
                    ReadFormat::MatrixCsv => {
                        DataValue::Matrix(Matrix::Dense(mio::read_matrix_csv(&path)?))
                    }
                    ReadFormat::MatrixBin => {
                        DataValue::Matrix(Matrix::Dense(mio::read_matrix_bin(&path)?))
                    }
                    ReadFormat::FrameCsv { schema } => {
                        DataValue::Frame(mio::read_frame_csv(&path, &schema)?)
                    }
                    ReadFormat::FrameCsvInfer => {
                        let schema = mio::infer_schema(&path, 1000)?;
                        DataValue::Frame(mio::read_frame_csv(&path, &schema)?)
                    }
                };
                self.bind_source(id, value, privacy);
                Ok(Response::Ok)
            }
            Request::Put { id, data, privacy } => {
                self.bind_source(id, data, privacy);
                Ok(Response::Ok)
            }
            Request::Get { id } => {
                let entry = self.table.get(id)?;
                if !may_release(entry.meta.privacy, entry.meta.releasable) {
                    return Err(RuntimeError::Privacy(format!(
                        "GET of {} value {id} denied (releasable={})",
                        entry.meta.privacy.name(),
                        entry.meta.releasable
                    )));
                }
                Ok(Response::Data((*entry.value).clone()))
            }
            Request::ExecInst { inst } => {
                exec::execute(&inst, &self.table, Some(&self.cache))?;
                Ok(Response::Ok)
            }
            Request::ExecUdf { udf } => self.handle_udf(udf),
            Request::Clear => {
                self.table.clear();
                self.cache.clear();
                Ok(Response::Ok)
            }
            Request::ClearNamespace { ns } => {
                // Tenant teardown: reap one session's ID range, leaving
                // every other namespace (and the reuse cache, which is
                // keyed by lineage, not symbol ID) untouched.
                self.table.remove_namespace(ns);
                Ok(Response::Ok)
            }
        }
    }

    /// Binds a value that enters the site from outside (`READ`, `PUT`).
    /// Its lineage is its content: a file edited since its last `READ`
    /// never meets cached results of its old bytes, and equal data shares
    /// them. The privacy constraint is part of the data's identity: the
    /// same content under a different constraint must not share cached
    /// derivations (their release metadata differs). Such data is
    /// releasable only when public.
    fn bind_source(&self, id: u64, value: DataValue, privacy: PrivacyLevel) {
        let (ptag, pgroup) = privacy.to_parts();
        let lin = lineage::mix(lineage::mix(lineage::of_value(&value), ptag as u64), pgroup);
        let releasable = privacy == PrivacyLevel::Public;
        self.table
            .bind(id, Arc::new(value), privacy, releasable, lin);
    }

    fn resolve_path(&self, fname: &str) -> Result<PathBuf> {
        let candidate = self.config.data_dir.join(fname);
        // Reject traversal out of the permissioned data directory.
        if fname.contains("..") {
            return Err(RuntimeError::Invalid(format!(
                "path '{fname}' escapes the worker data directory"
            )));
        }
        Ok(candidate)
    }

    fn handle_udf(self: &Arc<Self>, udf: Udf) -> Result<Response> {
        match udf {
            Udf::EncodeBuildPartial { frame, spec } => {
                let entry = self.table.get(frame)?;
                let f = entry.value.as_frame()?;
                let partial = exdra_transform::build_partial(f, &spec)?;
                // Distinct sets / ranges are metadata the protocol is
                // allowed to consolidate (they are the paper's exchanged
                // encoder metadata), so they are returned even for
                // private-aggregate data. Strictly private data refuses.
                if entry.meta.privacy == PrivacyLevel::Private {
                    return Err(RuntimeError::Privacy(
                        "transformencode metadata exchange on strictly private frame".into(),
                    ));
                }
                Ok(Response::Data(DataValue::PartialMeta(partial)))
            }
            Udf::EncodeApply { frame, meta, out } => {
                let fe = self.table.get(frame)?;
                let f = fe.value.as_frame()?;
                let me = self.table.get(meta)?;
                let meta_v = match &*me.value {
                    DataValue::TransformMeta(m) => m.clone(),
                    other => {
                        return Err(RuntimeError::Invalid(format!(
                            "expected transform-meta, found {}",
                            other.type_name()
                        )))
                    }
                };
                let encoded = exdra_transform::apply(f, &meta_v)?;
                let lin = lineage::mix(lineage::seed("tfencode-apply"), fe.meta.lineage);
                self.table.bind(
                    out,
                    Arc::new(DataValue::from(encoded)),
                    fe.meta.privacy,
                    fe.meta.releasable,
                    lin,
                );
                Ok(Response::Ok)
            }
            Udf::FrameSelect {
                frame,
                columns,
                out,
            } => {
                let fe = self.table.get(frame)?;
                let f = fe.value.as_frame()?;
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                let projected = f.select(&names)?;
                let mut lin = lineage::mix(lineage::seed("frame-select"), fe.meta.lineage);
                for c in &columns {
                    lin = lineage::mix(lin, lineage::seed(c));
                }
                self.table.bind(
                    out,
                    Arc::new(DataValue::Frame(projected)),
                    fe.meta.privacy,
                    fe.meta.releasable,
                    lin,
                );
                Ok(Response::Ok)
            }
            Udf::Shuffle {
                x,
                y,
                seed,
                out_x,
                out_y,
            } => {
                let xe = self.table.get(x)?;
                let xm = xe.value.to_dense()?;
                let perm = exdra_matrix::rng::rand_permutation(xm.rows(), seed);
                let xs = reorg::gather_rows(&xm, &perm)?;
                let lin = lineage::mix(
                    lineage::mix(lineage::seed("shuffle"), xe.meta.lineage),
                    seed,
                );
                self.table.bind(
                    out_x,
                    Arc::new(DataValue::from(xs)),
                    xe.meta.privacy,
                    xe.meta.releasable,
                    lin,
                );
                if let (Some(y), Some(out_y)) = (y, out_y) {
                    let ye = self.table.get(y)?;
                    let ym = ye.value.to_dense()?;
                    if ym.rows() != xm.rows() {
                        return Err(RuntimeError::Invalid(format!(
                            "shuffle: X has {} rows, y has {}",
                            xm.rows(),
                            ym.rows()
                        )));
                    }
                    let ys = reorg::gather_rows(&ym, &perm)?;
                    self.table.bind(
                        out_y,
                        Arc::new(DataValue::from(ys)),
                        ye.meta.privacy,
                        ye.meta.releasable,
                        lineage::mix(lin, 1),
                    );
                }
                Ok(Response::Ok)
            }
            Udf::Replicate {
                x,
                y,
                times,
                out_x,
                out_y,
            } => {
                if times == 0 {
                    return Err(RuntimeError::Invalid("replication factor 0".into()));
                }
                let rep = |m: &DenseMatrix| -> Result<DenseMatrix> {
                    let mut out = m.clone();
                    for _ in 1..times {
                        out = reorg::rbind(&out, m)?;
                    }
                    Ok(out)
                };
                let xe = self.table.get(x)?;
                let xs = rep(&xe.value.to_dense()?)?;
                let lin = lineage::mix(
                    lineage::mix(lineage::seed("replicate"), xe.meta.lineage),
                    times,
                );
                self.table.bind(
                    out_x,
                    Arc::new(DataValue::from(xs)),
                    xe.meta.privacy,
                    xe.meta.releasable,
                    lin,
                );
                if let (Some(y), Some(out_y)) = (y, out_y) {
                    let ye = self.table.get(y)?;
                    let ys = rep(&ye.value.to_dense()?)?;
                    self.table.bind(
                        out_y,
                        Arc::new(DataValue::from(ys)),
                        ye.meta.privacy,
                        ye.meta.releasable,
                        lineage::mix(lin, 1),
                    );
                }
                Ok(Response::Ok)
            }
            Udf::CompactNow { min_bytes } => {
                let n = self.compact(min_bytes as usize, Duration::ZERO);
                Ok(Response::Data(DataValue::Scalar(n as f64)))
            }
            Udf::MatrixDims { id } => {
                let e = self.table.get(id)?;
                let m = e.value.as_matrix()?;
                Ok(Response::Data(DataValue::List(vec![
                    DataValue::Scalar(m.rows() as f64),
                    DataValue::Scalar(m.cols() as f64),
                    DataValue::Scalar(m.nnz() as f64),
                ])))
            }
            Udf::CategoryCounts { frame, column } => {
                let e = self.table.get(frame)?;
                let f = e.value.as_frame()?;
                let col = f.column_by_name(&column)?;
                let mut counts: std::collections::BTreeMap<_, u64> =
                    std::collections::BTreeMap::new();
                for r in 0..col.len() {
                    if let Some(tok) = col.token(r) {
                        *counts.entry(tok).or_default() += 1;
                    }
                }
                let out = Frame::new(vec![
                    (
                        "token".into(),
                        FrameColumn::Str(counts.keys().map(Some).collect()),
                    ),
                    (
                        "count".into(),
                        FrameColumn::F64(counts.values().map(|&n| Some(n as f64)).collect()),
                    ),
                ])?;
                // Category counts are the same aggregate-sized metadata the
                // encode protocol exchanges; strictly private data refuses.
                if e.meta.privacy == PrivacyLevel::Private {
                    return Err(RuntimeError::Privacy(
                        "category counts on strictly private frame".into(),
                    ));
                }
                Ok(Response::Data(DataValue::Frame(out)))
            }
            Udf::FillMissing {
                frame,
                column,
                value,
                out,
            } => {
                let e = self.table.get(frame)?;
                let f = e.value.as_frame()?;
                let idx = f.column_index(&column)?;
                let mut columns = Vec::with_capacity(f.cols());
                for (c, (name, _)) in f.schema().into_iter().enumerate() {
                    let col = f.column(c)?.clone();
                    let col = if c == idx {
                        match col {
                            FrameColumn::Str(v) => FrameColumn::Str(
                                v.iter().map(|cell| Some(cell.unwrap_or(&value))).collect(),
                            ),
                            other => {
                                return Err(RuntimeError::Invalid(format!(
                                    "fill-missing targets string columns, '{column}' is {}",
                                    other.value_type().name()
                                )))
                            }
                        }
                    } else {
                        col
                    };
                    columns.push((name, col));
                }
                let repaired = Frame::new(columns)?;
                let lin = lineage::mix(
                    lineage::mix(lineage::seed("fill-missing"), e.meta.lineage),
                    lineage::seed(&value),
                );
                self.table.bind(
                    out,
                    Arc::new(DataValue::Frame(repaired)),
                    e.meta.privacy,
                    e.meta.releasable,
                    lin,
                );
                Ok(Response::Ok)
            }
            Udf::CacheStats => Ok(Response::Data(DataValue::List(vec![
                DataValue::Scalar(self.cache.hits() as f64),
                DataValue::Scalar(self.cache.misses() as f64),
                DataValue::Scalar(self.cache.entries() as f64),
                DataValue::Scalar(self.compressed_count.load(Ordering::Relaxed) as f64),
            ]))),
            Udf::Registered {
                name,
                args,
                arg_ids,
                out,
            } => {
                let f = self
                    .registry
                    .read()
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| RuntimeError::Invalid(format!("unknown UDF '{name}'")))?;
                let mut resolved = Vec::with_capacity(arg_ids.len());
                let mut strictest = PrivacyLevel::Public;
                for id in &arg_ids {
                    let e = self.table.get(*id)?;
                    strictest = strictest.max(e.meta.privacy);
                    resolved.push(e.value);
                }
                let result = f(&resolved, &args)?;
                match (result, out) {
                    (Some(v), Some(out_id)) => {
                        let lin = lineage::seed(&format!("udf:{name}:{out_id}"));
                        // Registered UDF outputs inherit the strictest input
                        // constraint and are conservatively unreleasable.
                        self.table.bind(
                            out_id,
                            Arc::new(v.clone()),
                            strictest,
                            strictest == PrivacyLevel::Public,
                            lin,
                        );
                        Ok(Response::Data(v))
                    }
                    (Some(v), None) => Ok(Response::Data(v)),
                    (None, _) => Ok(Response::Ok),
                }
            }
        }
    }

    /// Compresses dense matrix entries of at least `min_bytes` that have
    /// been idle for `min_idle`, and lets go of the dense twins of
    /// compressed entries idle that long, so an idle worker's footprint
    /// returns to the compressed size. Returns the number of compacted
    /// entries.
    pub fn compact(&self, min_bytes: usize, min_idle: Duration) -> usize {
        let dropped = self
            .table
            .idle_compressed(min_idle)
            .into_iter()
            .filter(|lin| self.cache.remove(lineage::twin_of(*lin)).is_some())
            .count();
        if dropped > 0 && exdra_obs::enabled() {
            exdra_obs::global().add("compress.twin.dropped", dropped as u64);
        }
        // Phase 1: snapshot eligible dense entries (cheap Arc clones).
        let mut work: Vec<(u64, Arc<DataValue>)> = Vec::new();
        for (id, bytes, idle) in self.table.compaction_candidates() {
            if bytes < min_bytes || idle < min_idle {
                continue;
            }
            let Ok(entry) = self.table.get(id) else {
                continue;
            };
            if matches!(&*entry.value, DataValue::Matrix(Matrix::Dense(_))) {
                work.push((id, entry.value));
            }
        }
        // Phase 2: compress entries in parallel — each entry is
        // independent, and the column-parallel compress inside degrades
        // to serial when nested under this region, so the pool is never
        // oversubscribed. Chunk size 1: entries are few and heavy.
        let encoded = exdra_par::map_chunks(work.len(), 1, |i, _| {
            let (id, value) = &work[i];
            let DataValue::Matrix(Matrix::Dense(d)) = &**value else {
                return None;
            };
            let compressed = CompressedMatrix::compress(d);
            // Only keep the compressed form when it actually pays off.
            (compressed.size_bytes() < d.size_bytes()).then_some((*id, compressed))
        });
        // Phase 3: swap the winners into the table serially.
        let mut n = 0usize;
        for (id, compressed) in encoded.into_iter().flatten() {
            let value = DataValue::Matrix(Matrix::Compressed(compressed));
            if self.table.replace_value(id, Arc::new(value)).is_ok() {
                n += 1;
            }
        }
        self.compressed_count.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Loads a frame directly into the symbol table (embedding-API
    /// convenience for in-process workers, avoiding the file system).
    pub fn install_frame(&self, id: u64, frame: Frame, privacy: PrivacyLevel, source_tag: &str) {
        let lin = lineage::seed(&format!("frame:{source_tag}"));
        self.table.bind(
            id,
            Arc::new(DataValue::Frame(frame)),
            privacy,
            privacy == PrivacyLevel::Public,
            lin,
        );
    }

    /// Loads a matrix directly into the symbol table (see
    /// [`Worker::install_frame`]).
    pub fn install_matrix(&self, id: u64, m: DenseMatrix, privacy: PrivacyLevel, source_tag: &str) {
        let lin = lineage::seed(&format!("matrix:{source_tag}"));
        self.table.bind(
            id,
            Arc::new(DataValue::from(m)),
            privacy,
            privacy == PrivacyLevel::Public,
            lin,
        );
    }
}

/// The worker's `--http` endpoint ([`Worker::serve_http`]).
impl exdra_obs::http::Routes for Worker {
    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn route(&self, path: &str) -> exdra_obs::http::Reply {
        match path {
            "/healthz" => Some((
                exdra_obs::http::TEXT,
                format!(
                    "ok epoch={} load={}\n",
                    self.epoch,
                    self.load.load(Ordering::Relaxed)
                ),
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::rng::rand_matrix;

    fn worker() -> Arc<Worker> {
        Worker::new(WorkerConfig::default())
    }

    fn envelope(requests: Vec<Request>) -> Vec<u8> {
        RpcEnvelope {
            trace: TraceContext::NONE,
            requests,
        }
        .to_bytes()
    }

    fn registered(name: &str) -> Request {
        Request::ExecUdf {
            udf: Udf::Registered {
                name: name.into(),
                args: vec![],
                arg_ids: vec![],
                out: None,
            },
        }
    }

    #[test]
    fn one_thread_serves_every_frame_of_a_connection() {
        let w = worker();
        let ids = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&ids);
        w.register_udf(
            "whoami",
            Arc::new(move |_, _| {
                seen.lock().push(std::thread::current().id());
                Ok(None)
            }),
        );
        let mut coord = w.serve_mem();
        // Everything is sent before anything is read: a server that ran
        // frames beside each other would have the chance to.
        for _ in 0..32 {
            coord.send(&envelope(vec![registered("whoami")])).unwrap();
        }
        for _ in 0..32 {
            let reply = RpcReply::from_bytes(&coord.recv().unwrap()).unwrap();
            assert_eq!(reply.responses, [Response::Ok]);
        }
        let ids = ids.lock();
        assert_eq!(ids.len(), 32);
        assert!(ids.iter().all(|id| *id == ids[0]), "one serving thread");
        w.shutdown();
    }

    #[test]
    fn heartbeat_on_a_second_connection_answers_while_the_first_is_busy() {
        let w = worker();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (started_tx, released) = (Mutex::new(started_tx), Mutex::new(released));
        w.register_udf(
            "hold",
            Arc::new(move |_, _| {
                started_tx.lock().send(()).unwrap();
                let _ = released.lock().recv_timeout(Duration::from_secs(10));
                Ok(None)
            }),
        );
        let mut busy = w.serve_mem();
        let mut probe = w.serve_mem();
        busy.send(&envelope(vec![registered("hold")])).unwrap();
        started.recv().unwrap();
        // The first connection is inside its UDF and stays there until
        // released: the probe's connection has a thread of its own.
        probe.send(&envelope(vec![Request::Heartbeat])).unwrap();
        let reply = RpcReply::from_bytes(&probe.recv().unwrap()).unwrap();
        assert!(matches!(reply.responses[0], Response::Alive { .. }));
        release.send(()).unwrap();
        assert_eq!(
            RpcReply::from_bytes(&busy.recv().unwrap())
                .unwrap()
                .responses,
            [Response::Ok]
        );
        w.shutdown();
    }

    #[test]
    fn a_panicking_udf_answers_as_an_error_and_the_connection_lives_on() {
        let w = worker();
        w.register_udf("boom", Arc::new(|_, _| panic!("boom at row {}", 7)));
        let mut coord = w.serve_mem();
        let batch = || {
            envelope(vec![
                registered("boom"),
                Request::Put {
                    id: 1,
                    data: DataValue::Scalar(1.0),
                    privacy: PrivacyLevel::Public,
                },
                Request::Heartbeat,
            ])
        };
        for _ in 0..2 {
            coord.send(&batch()).unwrap();
            let reply = RpcReply::from_bytes(&coord.recv().unwrap()).unwrap();
            assert_eq!(
                reply.responses[0],
                Response::Error("panicked: boom at row 7".into())
            );
            assert!(matches!(&reply.responses[1], Response::Error(m) if m.contains("skipped")));
            assert!(matches!(reply.responses[2], Response::Alive { .. }));
        }
        assert!(!w.table().contains(1), "the rest of the batch was skipped");
        // The same connection serves the next frame.
        coord.send(&envelope(vec![Request::Heartbeat])).unwrap();
        let reply = RpcReply::from_bytes(&coord.recv().unwrap()).unwrap();
        assert!(matches!(reply.responses[0], Response::Alive { .. }));
        w.shutdown();
    }

    #[test]
    fn frames_sent_before_any_reply_is_read_execute_in_arrival_order() {
        let w = worker();
        let mut coord = w.serve_mem();
        // Three writes to the same symbol plus a final read, all sent
        // before any reply is read: frames execute in arrival order, so
        // the read returns the *last* submitted value.
        for v in [10.0, 20.0, 30.0] {
            let env = envelope(vec![Request::Put {
                id: 7,
                data: DataValue::Scalar(v),
                privacy: PrivacyLevel::Public,
            }]);
            coord.send(&env).unwrap();
        }
        coord.send(&envelope(vec![Request::Get { id: 7 }])).unwrap();
        let got: Vec<RpcReply> = (0..4)
            .map(|_| RpcReply::from_bytes(&coord.recv().unwrap()).unwrap())
            .collect();
        assert!(got[..3].iter().all(|r| r.responses == [Response::Ok]));
        match &got[3].responses[0] {
            Response::Data(DataValue::Scalar(v)) => assert_eq!(*v, 30.0),
            other => panic!("unexpected {other:?}"),
        }
        w.shutdown();
    }

    #[test]
    fn shutdown_wakes_and_joins_the_accept_loops() {
        let w = worker();
        w.serve_tcp("127.0.0.1:0").unwrap();
        w.serve_http("127.0.0.1:0").unwrap();
        assert_eq!(Arc::strong_count(&w), 3, "one handle per accept loop");
        // No connection ever arrives on its own: shutdown has to wake the
        // loops itself. It joins them, so their handles are gone (and
        // their ports closed) by the time it returns.
        w.shutdown();
        assert_eq!(Arc::strong_count(&w), 1);
    }

    #[test]
    fn put_get_roundtrip() {
        let w = worker();
        let m = rand_matrix(3, 3, 0.0, 1.0, 1);
        let rs = w.handle_batch(vec![
            Request::Put {
                id: 1,
                data: DataValue::from(m.clone()),
                privacy: PrivacyLevel::Public,
            },
            Request::Get { id: 1 },
        ]);
        assert_eq!(rs[0], Response::Ok);
        match &rs[1] {
            Response::Data(DataValue::Matrix(got)) => {
                assert!(got.to_dense().max_abs_diff(&m) < 1e-15)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_of_private_data_denied() {
        let w = worker();
        let rs = w.handle_batch(vec![
            Request::Put {
                id: 1,
                data: DataValue::from(rand_matrix(100, 2, 0.0, 1.0, 2)),
                privacy: PrivacyLevel::Private,
            },
            Request::Get { id: 1 },
        ]);
        assert_eq!(rs[0], Response::Ok);
        assert!(matches!(&rs[1], Response::Error(msg) if msg.contains("privacy")));
    }

    #[test]
    fn aggregate_of_private_aggregate_data_released() {
        let w = worker();
        let rs = w.handle_batch(vec![
            Request::Put {
                id: 1,
                data: DataValue::from(rand_matrix(100, 2, 0.0, 1.0, 3)),
                privacy: PrivacyLevel::PrivateAggregate { min_group: 10 },
            },
            // Raw GET is denied...
            Request::Get { id: 1 },
        ]);
        assert!(matches!(&rs[1], Response::Error(_)));
        let rs = w.handle_batch(vec![
            Request::ExecInst {
                inst: crate::instruction::Instruction::Agg {
                    x: 1,
                    op: exdra_matrix::kernels::aggregates::AggOp::Sum,
                    dir: exdra_matrix::kernels::aggregates::AggDir::Col,
                    out: 2,
                },
            },
            // ...but the column aggregate is releasable.
            Request::Get { id: 2 },
        ]);
        assert_eq!(rs[0], Response::Ok);
        assert!(matches!(&rs[1], Response::Data(_)));
    }

    #[test]
    fn batch_stops_at_first_failure() {
        let w = worker();
        let rs = w.handle_batch(vec![
            Request::Get { id: 99 }, // unknown symbol
            Request::Put {
                id: 1,
                data: DataValue::Scalar(1.0),
                privacy: PrivacyLevel::Public,
            },
        ]);
        assert!(matches!(&rs[0], Response::Error(_)));
        assert!(matches!(&rs[1], Response::Error(msg) if msg.contains("skipped")));
        assert!(!w.table().contains(1));
    }

    #[test]
    fn heartbeat_reports_epoch_and_load() {
        let w = worker();
        let rs = w.handle_batch(vec![
            Request::Put {
                id: 1,
                data: DataValue::Scalar(1.0),
                privacy: PrivacyLevel::Public,
            },
            Request::Heartbeat,
        ]);
        assert_eq!(rs[0], Response::Ok);
        match rs[1] {
            Response::Alive { epoch, load } => {
                assert_eq!(epoch, w.epoch());
                assert_eq!(load, 1, "heartbeats don't count as load");
            }
            ref other => panic!("unexpected {other:?}"),
        }
        // A replacement worker gets a strictly newer epoch.
        let w2 = worker();
        assert!(w2.epoch() > w.epoch());
    }

    #[test]
    fn heartbeat_answers_even_after_batch_failure() {
        let w = worker();
        let rs = w.handle_batch(vec![
            Request::Get { id: 404 }, // fails
            Request::Clear,           // skipped
            Request::Heartbeat,       // still answered
        ]);
        assert!(matches!(&rs[0], Response::Error(_)));
        assert!(matches!(&rs[1], Response::Error(msg) if msg.contains("skipped")));
        assert!(matches!(rs[2], Response::Alive { .. }));
    }

    #[test]
    fn checkpoint_restore_moves_state_between_workers() {
        let w = worker();
        let m = rand_matrix(6, 4, -1.0, 1.0, 11);
        w.handle_batch(vec![
            Request::Put {
                id: 1,
                data: DataValue::from(m.clone()),
                privacy: PrivacyLevel::Private,
            },
            Request::Put {
                id: 2,
                data: DataValue::Scalar(7.0),
                privacy: PrivacyLevel::Public,
            },
        ]);
        // Full snapshot.
        let rs = w.handle_batch(vec![Request::Checkpoint { since_seq: 0 }]);
        let delta = match &rs[0] {
            Response::Checkpoint(d) => d.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(delta.epoch, w.epoch());
        assert_eq!(delta.entries.len(), 2);
        assert!(delta.removed.is_empty());

        // Incremental: only post-snapshot mutations appear.
        w.handle_batch(vec![Request::Put {
            id: 3,
            data: DataValue::Scalar(1.0),
            privacy: PrivacyLevel::Public,
        }]);
        let rs = w.handle_batch(vec![Request::Checkpoint {
            since_seq: delta.seq,
        }]);
        let inc = match &rs[0] {
            Response::Checkpoint(d) => d.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(inc.entries.len(), 1);
        assert_eq!(inc.entries[0].id, 3);

        // Restore onto a fresh worker reproduces values AND metadata:
        // the private matrix stays private on the replacement.
        let fresh = worker();
        let rs = fresh.handle_batch(vec![
            Request::Restore {
                entries: delta.entries.clone(),
            },
            Request::Restore {
                entries: inc.entries.clone(),
            },
        ]);
        assert_eq!(rs, vec![Response::Ok, Response::Ok]);
        assert_eq!(fresh.table().len(), 3);
        let e = fresh.table().get(1).unwrap();
        assert_eq!(e.meta.privacy, PrivacyLevel::Private);
        assert!(!e.meta.releasable);
        assert!(
            e.value.to_dense().unwrap().max_abs_diff(&m) == 0.0,
            "bitwise"
        );
        let orig = w.table().get(1).unwrap();
        assert_eq!(e.meta.lineage, orig.meta.lineage, "lineage tag preserved");
        // GET of the restored private partition is still denied.
        let rs = fresh.handle_batch(vec![Request::Get { id: 1 }]);
        assert!(matches!(&rs[0], Response::Error(msg) if msg.contains("privacy")));
    }

    #[test]
    fn checkpoint_does_not_count_as_load() {
        let w = worker();
        w.handle_batch(vec![Request::Checkpoint { since_seq: 0 }]);
        assert_eq!(w.load(), 0);
    }

    #[test]
    fn clear_resets_table_and_cache() {
        let w = worker();
        w.handle_batch(vec![Request::Put {
            id: 1,
            data: DataValue::Scalar(1.0),
            privacy: PrivacyLevel::Public,
        }]);
        assert_eq!(w.table().len(), 1);
        let rs = w.handle_batch(vec![Request::Clear]);
        assert_eq!(rs[0], Response::Ok);
        assert!(w.table().is_empty());
    }

    #[test]
    fn read_rejects_path_traversal() {
        let w = worker();
        let rs = w.handle_batch(vec![Request::Read {
            id: 1,
            fname: "../../etc/passwd".into(),
            format: ReadFormat::MatrixCsv,
            privacy: PrivacyLevel::Public,
        }]);
        assert!(matches!(&rs[0], Response::Error(msg) if msg.contains("escapes")));
    }

    #[test]
    fn read_matrix_from_data_dir() {
        let dir = std::env::temp_dir().join("exdra_worker_read_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = rand_matrix(10, 3, 0.0, 1.0, 4);
        mio::write_matrix_csv(&m, &dir.join("x.csv")).unwrap();
        let w = Worker::new(WorkerConfig {
            data_dir: dir,
            ..WorkerConfig::default()
        });
        let rs = w.handle_batch(vec![
            Request::Read {
                id: 1,
                fname: "x.csv".into(),
                format: ReadFormat::MatrixCsv,
                privacy: PrivacyLevel::Public,
            },
            Request::Get { id: 1 },
        ]);
        assert_eq!(rs[0], Response::Ok);
        match &rs[1] {
            Response::Data(v) => {
                assert!(v.to_dense().unwrap().max_abs_diff(&m) < 1e-12)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn registered_udf_roundtrip() {
        let w = worker();
        w.register_udf(
            "double-sum",
            Arc::new(|symbols, args| {
                let m = symbols[0].to_dense()?;
                let factor = args[0].as_scalar()?;
                Ok(Some(DataValue::Scalar(
                    m.values().iter().sum::<f64>() * factor,
                )))
            }),
        );
        let rs = w.handle_batch(vec![
            Request::Put {
                id: 1,
                data: DataValue::from(DenseMatrix::filled(2, 2, 3.0)),
                privacy: PrivacyLevel::Public,
            },
            Request::ExecUdf {
                udf: Udf::Registered {
                    name: "double-sum".into(),
                    args: vec![DataValue::Scalar(2.0)],
                    arg_ids: vec![1],
                    out: None,
                },
            },
        ]);
        match &rs[1] {
            Response::Data(v) => assert_eq!(v.as_scalar().unwrap(), 24.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_registered_udf_errors() {
        let w = worker();
        let rs = w.handle_batch(vec![Request::ExecUdf {
            udf: Udf::Registered {
                name: "nope".into(),
                args: vec![],
                arg_ids: vec![],
                out: None,
            },
        }]);
        assert!(matches!(&rs[0], Response::Error(msg) if msg.contains("unknown UDF")));
    }

    #[test]
    fn compaction_compresses_idle_dense_entries() {
        let w = worker();
        // Low-cardinality matrix compresses well.
        let mut m = DenseMatrix::zeros(1000, 4);
        for r in 0..1000 {
            for c in 0..4 {
                m.set(r, c, (r % 3) as f64);
            }
        }
        w.install_matrix(1, m.clone(), PrivacyLevel::Public, "t");
        let n = w.compact(1024, Duration::ZERO);
        assert_eq!(n, 1);
        let entry = w.table().get(1).unwrap();
        match &*entry.value {
            DataValue::Matrix(mat) => {
                assert_eq!(mat.repr_name(), "compressed");
                assert!(mat.to_dense().max_abs_diff(&m) == 0.0, "lossless");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Compressed entries still execute instructions.
        let rs = w.handle_batch(vec![Request::ExecInst {
            inst: crate::instruction::Instruction::Agg {
                x: 1,
                op: exdra_matrix::kernels::aggregates::AggOp::Sum,
                dir: exdra_matrix::kernels::aggregates::AggDir::Full,
                out: 2,
            },
        }]);
        assert_eq!(rs[0], Response::Ok);
    }

    #[test]
    fn compaction_lets_go_of_an_idle_entrys_twin() {
        let w = worker();
        let mut m = DenseMatrix::zeros(1000, 4);
        for r in 0..1000 {
            for c in 0..4 {
                m.set(r, c, (r % 3) as f64);
            }
        }
        w.install_matrix(1, m, PrivacyLevel::Public, "t");
        assert_eq!(w.compact(1024, Duration::ZERO), 1);
        // tsmm has no column-group kernel: it leaves the twin behind.
        let tsmm = || Request::ExecInst {
            inst: crate::instruction::Instruction::Tsmm {
                x: 1,
                left: true,
                out: 2,
            },
        };
        assert_eq!(w.handle_batch(vec![tsmm()]), vec![Response::Ok]);
        let with_twin = w.cache().bytes();
        assert!(w
            .cache()
            .twin(lineage::twin_of(w.table().get(1).unwrap().meta.lineage))
            .is_some());
        // Not idle for an hour: the twin stays.
        w.compact(1024, Duration::from_secs(3600));
        assert_eq!(w.cache().bytes(), with_twin);
        w.compact(1024, Duration::ZERO);
        assert_eq!(w.cache().bytes(), with_twin - 1000 * 4 * 8);
        // The entry is still compressed and answers as before.
        assert_eq!(
            w.table()
                .get(1)
                .unwrap()
                .value
                .as_matrix()
                .unwrap()
                .repr_name(),
            "compressed"
        );
        w.cache().clear();
        assert_eq!(w.handle_batch(vec![tsmm()]), vec![Response::Ok]);
    }

    #[test]
    fn put_lineage_tells_payloads_apart_by_every_cell() {
        // Same shape, same head and tail, one different row in the middle:
        // with reuse on, colSums(B) must not be served colSums(A).
        let w = worker();
        let a = DenseMatrix::filled(2_000, 4, 1.0);
        let mut b = a.clone();
        for c in 0..4 {
            b.set(1_000, c, 5.0);
        }
        let mut batch = Vec::new();
        for (id, m) in [(1u64, &a), (2, &b), (3, &a)] {
            batch.push(Request::Put {
                id,
                data: DataValue::from(m.clone()),
                privacy: PrivacyLevel::Public,
            });
            batch.push(Request::ExecInst {
                inst: crate::instruction::Instruction::Agg {
                    x: id,
                    op: exdra_matrix::kernels::aggregates::AggOp::Sum,
                    dir: exdra_matrix::kernels::aggregates::AggDir::Col,
                    out: 10 + id,
                },
            });
        }
        assert!(w.handle_batch(batch).iter().all(|r| *r == Response::Ok));
        let lineage = |id| w.table().get(id).unwrap().meta.lineage;
        assert_ne!(lineage(1), lineage(2));
        assert_eq!(lineage(1), lineage(3), "equal content, equal lineage");
        assert_eq!(w.cache().hits(), 1, "only the second colSums(A) is reused");
        let sums = |id| w.table().value(id).unwrap().to_dense().unwrap();
        assert_eq!(sums(11).values(), [2_000.0; 4]);
        assert_eq!(sums(12).values(), [2_004.0; 4]);
    }

    #[test]
    fn shuffle_preserves_row_alignment() {
        let w = worker();
        let x = rand_matrix(50, 3, 0.0, 1.0, 5);
        // y = rowSums(x): alignment detectable after shuffling.
        let y = exdra_matrix::kernels::aggregates::aggregate(
            &x,
            exdra_matrix::kernels::aggregates::AggOp::Sum,
            exdra_matrix::kernels::aggregates::AggDir::Row,
        )
        .unwrap();
        w.install_matrix(1, x, PrivacyLevel::Public, "x");
        w.install_matrix(2, y, PrivacyLevel::Public, "y");
        let rs = w.handle_batch(vec![Request::ExecUdf {
            udf: Udf::Shuffle {
                x: 1,
                y: Some(2),
                seed: 9,
                out_x: 3,
                out_y: Some(4),
            },
        }]);
        assert_eq!(rs[0], Response::Ok);
        let xs = w.table().value(3).unwrap().to_dense().unwrap();
        let ys = w.table().value(4).unwrap().to_dense().unwrap();
        for r in 0..50 {
            let sum: f64 = xs.row(r).iter().sum();
            assert!((sum - ys.get(r, 0)).abs() < 1e-12, "row {r} misaligned");
        }
    }

    #[test]
    fn replicate_multiplies_rows() {
        let w = worker();
        w.install_matrix(
            1,
            rand_matrix(10, 2, 0.0, 1.0, 6),
            PrivacyLevel::Public,
            "x",
        );
        let rs = w.handle_batch(vec![Request::ExecUdf {
            udf: Udf::Replicate {
                x: 1,
                y: None,
                times: 3,
                out_x: 2,
                out_y: None,
            },
        }]);
        assert_eq!(rs[0], Response::Ok);
        let out = w.table().value(2).unwrap().to_dense().unwrap();
        assert_eq!(out.rows(), 30);
        assert_eq!(out.row(0), out.row(10));
        assert_eq!(out.row(0), out.row(20));
    }

    /// One HTTP/1.0 GET against the worker's observability endpoint,
    /// returning (status line, body).
    fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status = raw.lines().next().unwrap_or("").to_string();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn http_endpoint_serves_healthz_and_metrics() {
        let w = worker();
        let addr = w.serve_http("127.0.0.1:0").unwrap();

        let (status, body) = http_get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.starts_with("ok epoch="), "{body}");
        assert!(body.contains("load="), "{body}");

        // Generate some observed activity, then scrape it.
        exdra_obs::set_enabled(true);
        w.install_matrix(1, rand_matrix(4, 2, 0.0, 1.0, 1), PrivacyLevel::Public, "x");
        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("# TYPE") || body.is_empty() || body.contains("exdra"),
            "prometheus exposition expected, got: {body:.60}"
        );

        let (status, _) = http_get(addr, "/nope");
        assert!(status.contains("404"), "{status}");
    }
}
