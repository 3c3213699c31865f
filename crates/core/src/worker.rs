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
use exdra_matrix::frame::Frame;
use exdra_matrix::io as mio;
use exdra_matrix::{DenseMatrix, Matrix};
use exdra_net::codec::Wire;
use exdra_net::transport::{Channel, MemChannel, TcpServer};

use crate::error::{Result, RuntimeError};
use crate::exec;
use crate::instruction::Instruction;
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
    /// Byte budget of the worker's lineage cache of reused instruction
    /// results, evicted FIFO. It holds results only: an op without a
    /// column-group kernel (`tsmm`, `X R` for a wide R, matrix-matrix
    /// element-wise ops, ...) decompresses a compacted input for that op
    /// and keeps nothing.
    pub cache_bytes: usize,
    /// Whether lineage-based reuse of instruction results is enabled
    /// (ablation A1).
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
        let removes = batch.iter().any(|r| {
            matches!(
                r,
                Request::ExecInst {
                    inst: Instruction::Rmvar { .. }
                }
            )
        });
        let mut rest = batch.into_iter();
        while let Some(req) = rest.next() {
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
            let dying = if removes {
                dying_operand(&req, rest.as_slice())
            } else {
                None
            };
            let resp = match catch_unwind(AssertUnwindSafe(|| self.handle_one(req, dying))) {
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

    /// Runs one request. `dying` is the operand it reads for the last
    /// time in its batch ([`dying_operand`]).
    fn handle_one(self: &Arc<Self>, req: Request, dying: Option<u64>) -> Result<Response> {
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
                // A value its batch removes next moves into the reply.
                let value = match dying {
                    Some(_) => self.table.take_unique(id, entry.value),
                    None => Err(entry.value),
                };
                Ok(Response::Data(value.unwrap_or_else(|v| (*v).clone())))
            }
            Request::ExecInst { inst } => {
                exec::execute_in_batch(&inst, &self.table, Some(&self.cache), dying)?;
                Ok(Response::Ok)
            }
            Request::ExecUdf { udf } => self.run_registered(udf),
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

    /// Runs an application-registered function: `arg_ids` resolve in the
    /// symbol table, `args` travel inline, and a result is returned and,
    /// with `out`, also bound there.
    fn run_registered(&self, udf: Udf) -> Result<Response> {
        let Udf::Registered {
            name,
            args,
            arg_ids,
            out,
        } = udf;
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

    /// Compresses dense matrix entries of at least `min_bytes` that have
    /// been idle for `min_idle`. Returns the number of compacted entries.
    pub fn compact(&self, min_bytes: usize, min_idle: Duration) -> usize {
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

/// The operand `req` reads for the last time in its batch, when the
/// batch removes it right after: a GET's id, or a cell-wise instruction's
/// [`exec::in_place_operand`], whose next mention in `rest` (the requests
/// after `req`) is an `rmvar` of it. A read, a rebinding, or an opaque
/// request that may read any id (`EXEC_UDF`, `CHECKPOINT`, `RESTORE`,
/// `CLEAR`) before that keeps it alive. A failure between the two skips
/// the `rmvar`, so only an id the batch itself removes can be missing
/// after a failed batch that would have kept it.
fn dying_operand(req: &Request, rest: &[Request]) -> Option<u64> {
    let id = match req {
        Request::Get { id } => *id,
        Request::ExecInst { inst } => exec::in_place_operand(inst)?,
        _ => return None,
    };
    for later in rest {
        match later {
            Request::ExecInst {
                inst: Instruction::Rmvar { ids },
            } => {
                if ids.contains(&id) {
                    return Some(id);
                }
            }
            Request::ExecInst { inst } => {
                if inst.reads(id) || inst.output() == Some(id) {
                    return None;
                }
            }
            Request::Get { id: other }
            | Request::Put { id: other, .. }
            | Request::Read { id: other, .. } => {
                if *other == id {
                    return None;
                }
            }
            Request::ExecUdf { .. }
            | Request::Checkpoint { .. }
            | Request::Restore { .. }
            | Request::Clear => return None,
            Request::Heartbeat | Request::ClearNamespace { .. } => {}
        }
    }
    None
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
                inst: Instruction::Agg {
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
            inst: Instruction::Agg {
                x: 1,
                op: exdra_matrix::kernels::aggregates::AggOp::Sum,
                dir: exdra_matrix::kernels::aggregates::AggDir::Full,
                out: 2,
            },
        }]);
        assert_eq!(rs[0], Response::Ok);
    }

    #[test]
    fn a_compacted_entry_answers_as_before() {
        let w = worker();
        let mut m = DenseMatrix::zeros(1000, 4);
        for r in 0..1000 {
            for c in 0..4 {
                m.set(r, c, (r % 3) as f64);
            }
        }
        w.install_matrix(1, m, PrivacyLevel::Public, "t");
        // tsmm has no column-group kernel; its bits do not depend on the
        // form it finds, and it keeps no decompression behind.
        let tsmm = |out| Request::ExecInst {
            inst: Instruction::Tsmm {
                x: 1,
                left: true,
                out,
            },
        };
        assert_eq!(w.handle_batch(vec![tsmm(2)]), vec![Response::Ok]);
        assert_eq!(w.compact(1024, Duration::ZERO), 1);
        let held = w.cache().bytes();
        w.cache().clear();
        assert_eq!(w.handle_batch(vec![tsmm(3)]), vec![Response::Ok]);
        assert_eq!(w.cache().bytes(), held, "the result alone is cached");
        let bits = |id| {
            let d = w.table().value(id).unwrap().to_dense().unwrap();
            d.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(2), bits(3));
        // Compacting again finds nothing: the entry stays compressed.
        assert_eq!(w.compact(1024, Duration::ZERO), 0);
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
                inst: Instruction::Agg {
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
        // Equal seeds over equal row counts: one permutation.
        let shuffle = |x, out| Request::ExecInst {
            inst: Instruction::Shuffle {
                x,
                seed: 9,
                row_lo: 0,
                row_hi: 50,
                out,
            },
        };
        let rs = w.handle_batch(vec![shuffle(1, 3), shuffle(2, 4)]);
        assert_eq!(rs, [Response::Ok, Response::Ok]);
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
        let rs = w.handle_batch(vec![Request::ExecInst {
            inst: Instruction::Replicate {
                x: 1,
                times: 3,
                out: 2,
            },
        }]);
        assert_eq!(rs[0], Response::Ok);
        let out = w.table().value(2).unwrap().to_dense().unwrap();
        assert_eq!(out.rows(), 30);
        assert_eq!(out.row(0), out.row(10));
        assert_eq!(out.row(0), out.row(20));
    }

    fn put(id: u64, m: DenseMatrix, privacy: PrivacyLevel) -> Request {
        Request::Put {
            id,
            data: DataValue::from(m),
            privacy,
        }
    }

    fn add(lhs: u64, rhs: u64, out: u64) -> Request {
        Request::ExecInst {
            inst: Instruction::Binary {
                lhs,
                rhs,
                op: exdra_matrix::kernels::elementwise::BinaryOp::Add,
                out,
            },
        }
    }

    fn rmvar(ids: &[u64]) -> Request {
        Request::ExecInst {
            inst: Instruction::Rmvar { ids: ids.to_vec() },
        }
    }

    /// Where the cells of bound value `id` live.
    fn cells_at(w: &Worker, id: u64) -> *const f64 {
        let value = w.table().value(id).unwrap();
        match &*value {
            DataValue::Matrix(Matrix::Dense(d)) => d.values().as_ptr(),
            other => panic!("expected a dense matrix, found {}", other.type_name()),
        }
    }

    /// A worker whose every instruction computes (reuse off).
    fn computing_worker() -> Arc<Worker> {
        Worker::new(WorkerConfig {
            reuse_enabled: false,
            ..WorkerConfig::default()
        })
    }

    /// `X + r` for a 64 x 8 X (id 1) and a row vector r (id 2), bound as
    /// id 3, with `middle` between it and the `rmvar` of X. Answers where
    /// X's cells were and where the result's are.
    fn add_then_rmvar(w: &Arc<Worker>, middle: Vec<Request>) -> (*const f64, *const f64) {
        let x = rand_matrix(64, 8, -1.0, 1.0, 21);
        let at = x.values().as_ptr();
        let mut batch = vec![
            put(1, x, PrivacyLevel::Public),
            put(2, rand_matrix(1, 8, -1.0, 1.0, 22), PrivacyLevel::Public),
            add(1, 2, 3),
        ];
        batch.extend(middle);
        batch.push(rmvar(&[1]));
        let rs = w.handle_batch(batch);
        assert!(
            rs.iter().all(|r| !matches!(r, Response::Error(_))),
            "{rs:?}"
        );
        (at, cells_at(w, 3))
    }

    #[test]
    fn a_cell_wise_result_takes_the_buffer_its_batch_removes() {
        let w = computing_worker();
        let x = rand_matrix(64, 8, -1.0, 1.0, 21);
        let r = rand_matrix(1, 8, -1.0, 1.0, 22);
        let want = exdra_matrix::kernels::elementwise::binary(
            &x,
            exdra_matrix::kernels::elementwise::BinaryOp::Add,
            &r,
        )
        .unwrap();
        let (x_at, y_at) = add_then_rmvar(&w, vec![]);
        assert_eq!(x_at, y_at, "Y is written over X's cells");
        assert!(!w.table().contains(1));
        let y = w.table().value(3).unwrap().to_dense().unwrap();
        let bits = |d: &DenseMatrix| d.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&want));
        // Requests that cannot read X leave the rule as it is.
        let (x_at, y_at) = add_then_rmvar(&w, vec![Request::Heartbeat, rmvar(&[2])]);
        assert_eq!(x_at, y_at);
    }

    #[test]
    fn a_later_reader_or_an_opaque_request_keeps_the_operand() {
        let w = computing_worker();
        w.register_udf("noop", Arc::new(|_, _| Ok(None)));
        for middle in [
            vec![Request::Get { id: 1 }],
            vec![add(1, 2, 4)],
            vec![registered("noop")],
            vec![Request::Checkpoint { since_seq: 0 }],
        ] {
            let what = format!("{middle:?}");
            let (x_at, y_at) = add_then_rmvar(&w, middle);
            assert_ne!(x_at, y_at, "{what:.60}");
            assert!(!w.table().contains(1), "the rmvar still ran");
        }
    }

    #[test]
    fn a_cached_or_compacted_operand_is_not_taken() {
        let w = worker();
        let r = rand_matrix(1, 8, -1.0, 1.0, 22);
        // X (id 2) is an instruction's result, which the lineage cache
        // holds while reuse is on.
        let first = w.handle_batch(vec![
            put(1, rand_matrix(64, 8, -1.0, 1.0, 21), PrivacyLevel::Public),
            put(9, r.clone(), PrivacyLevel::Public),
            add(1, 9, 2),
        ]);
        assert!(first.iter().all(|r| *r == Response::Ok));
        let x_at = cells_at(&w, 2);
        assert_eq!(
            w.handle_batch(vec![add(2, 9, 3), rmvar(&[2])]),
            vec![Response::Ok; 2]
        );
        assert_ne!(cells_at(&w, 3), x_at, "the cache keeps X's cells");
        // With reuse off the same batches write over X.
        let off = computing_worker();
        off.handle_batch(vec![
            put(1, rand_matrix(64, 8, -1.0, 1.0, 21), PrivacyLevel::Public),
            put(9, r.clone(), PrivacyLevel::Public),
            add(1, 9, 2),
        ]);
        let x_at = cells_at(&off, 2);
        assert_eq!(
            off.handle_batch(vec![add(2, 9, 3), rmvar(&[2])]),
            vec![Response::Ok; 2]
        );
        assert_eq!(cells_at(&off, 3), x_at);

        // A compacted X has no dense cells to write over.
        let mut m = DenseMatrix::zeros(1000, 8);
        for row in 0..1000 {
            for c in 0..8 {
                m.set(row, c, (row % 3) as f64);
            }
        }
        off.install_matrix(5, m.clone(), PrivacyLevel::Public, "low-card");
        assert_eq!(off.compact(1024, Duration::ZERO), 1);
        let rs = off.handle_batch(vec![
            put(6, DenseMatrix::filled(1000, 8, 0.5), PrivacyLevel::Public),
            add(5, 6, 7),
            rmvar(&[5, 6]),
        ]);
        assert_eq!(rs, vec![Response::Ok; 3]);
        let got = off.table().value(7).unwrap().to_dense().unwrap();
        assert_eq!(got.values(), m.map(|v| v + 0.5).values());
    }

    #[test]
    fn a_batch_that_fails_after_a_reuse_answers_as_before() {
        let w = computing_worker();
        let (x_at, rs) = {
            let x = rand_matrix(64, 8, -1.0, 1.0, 21);
            let at = x.values().as_ptr();
            let rs = w.handle_batch(vec![
                put(1, x, PrivacyLevel::Public),
                put(2, rand_matrix(1, 8, -1.0, 1.0, 22), PrivacyLevel::Public),
                add(1, 2, 3),
                put(4, DenseMatrix::zeros(3, 3), PrivacyLevel::Public),
                add(3, 4, 5), // shapes do not match
                rmvar(&[1, 2, 4]),
            ]);
            (at, rs)
        };
        assert_eq!(rs[..4], vec![Response::Ok; 4]);
        assert!(
            matches!(&rs[4], Response::Error(m) if m.contains("binary")),
            "{:?}",
            rs[4]
        );
        assert!(matches!(&rs[5], Response::Error(m) if m.contains("skipped")));
        assert_eq!(cells_at(&w, 3), x_at);
        // Every id outside the rmvar is bound as it would be without the
        // reuse; X, which the batch removes, went with it.
        assert!(w.table().contains(2) && w.table().contains(3) && w.table().contains(4));
        assert!(!w.table().contains(5));
        assert!(!w.table().contains(1));
    }

    #[test]
    fn a_get_moves_the_value_its_batch_removes() {
        let w = worker();
        let x = rand_matrix(64, 8, -1.0, 1.0, 23);
        let sent = x.clone();
        let at = sent.values().as_ptr();
        let rs = w.handle_batch(vec![
            put(1, sent, PrivacyLevel::Public),
            Request::Get { id: 1 },
            rmvar(&[1]),
        ]);
        match &rs[1] {
            Response::Data(DataValue::Matrix(Matrix::Dense(d))) => {
                assert_eq!(d.values().as_ptr(), at, "moved, not copied");
                assert_eq!(d.values(), x.values());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!w.table().contains(1));
        // A denied GET fails first and leaves the entry bound.
        let rs = w.handle_batch(vec![
            put(1, x, PrivacyLevel::Private),
            Request::Get { id: 1 },
            rmvar(&[1]),
        ]);
        assert!(matches!(&rs[1], Response::Error(m) if m.contains("privacy")));
        assert!(w.table().contains(1));
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
