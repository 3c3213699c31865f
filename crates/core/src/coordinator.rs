//! The federated coordinator: worker connections and parallel RPC.
//!
//! The coordinator is the main control program (paper Figure 2). It holds
//! only metadata of federated data and communicates with the standing
//! workers through request sequences. "For efficiency, the coordinator
//! sends RPCs to all workers in parallel, and a single RPC can contain a
//! sequence of requests."
//!
//! Every RPC runs under a [`FaultPolicy`]: a closed channel is redialed
//! and resent at once (or, with nothing to dial, is the typed
//! [`RuntimeError::WorkerDead`] at once), transport weather (timeouts,
//! refused dials) is retried with jittered backoff, capped by a per-RPC
//! deadline; exhausting the budget yields the typed error so callers
//! fail fast instead of hanging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use exdra_fault::retry::{classify_io, peer_closed, Deadline, ErrorClass, RetryPolicy};
use exdra_net::codec::Wire;
use exdra_net::crypto::ChannelKey;
use exdra_net::sim::NetProfile;
use exdra_net::stats::{take_thread_wire_nanos, NetStats};
use exdra_net::transport::{
    Channel, ChannelConfig, EncryptedChannel, InstrumentedChannel, ShapedChannel, TcpChannel,
};
use exdra_obs::SpanKind;

use crate::error::{Result, RuntimeError};
use crate::instruction::Instruction;
use crate::protocol::{Request, Response, RpcEnvelope, RpcReply};
use crate::value::DataValue;

/// Retry/deadline configuration applied to every coordinator→worker RPC.
#[derive(Debug, Clone, Copy)]
pub struct FaultPolicy {
    /// Backoff schedule for transient failures.
    pub retry: RetryPolicy,
    /// Wall-clock budget for one RPC including all retries.
    pub rpc_deadline: Duration,
    /// Socket timeouts for (re)established TCP channels.
    pub channel_config: ChannelConfig,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::new(Duration::from_millis(20), Duration::from_millis(500), 4),
            rpc_deadline: Duration::from_secs(30),
            channel_config: ChannelConfig::default(),
        }
    }
}

impl FaultPolicy {
    /// Policy that never retries and never reconnects (the paper's
    /// original fail-on-first-error behavior).
    pub fn none() -> Self {
        Self {
            retry: RetryPolicy::none(),
            rpc_deadline: Duration::from_secs(3600),
            channel_config: ChannelConfig::default(),
        }
    }
}

/// How to reach one federated worker.
#[derive(Clone)]
pub enum WorkerEndpoint {
    /// TCP address with optional WAN shaping and channel encryption.
    Tcp {
        /// `host:port` address of the standing worker.
        addr: String,
        /// Link simulation profile.
        profile: NetProfile,
        /// Pre-shared channel key (None = plaintext).
        key: Option<ChannelKey>,
    },
}

impl WorkerEndpoint {
    /// Plain LAN endpoint.
    pub fn tcp(addr: impl Into<String>) -> Self {
        WorkerEndpoint::Tcp {
            addr: addr.into(),
            profile: NetProfile::lan(),
            key: None,
        }
    }

    /// Endpoint with explicit shaping/encryption.
    pub fn tcp_with(addr: impl Into<String>, profile: NetProfile, key: Option<ChannelKey>) -> Self {
        WorkerEndpoint::Tcp {
            addr: addr.into(),
            profile,
            key,
        }
    }

    fn connect(&self, stats: Arc<NetStats>) -> Result<Box<dyn Channel>> {
        Ok(self.connect_with(stats, &ChannelConfig::default())?)
    }

    /// The error keeps its kind: that is what a retry loop classifies.
    fn connect_with(
        &self,
        stats: Arc<NetStats>,
        config: &ChannelConfig,
    ) -> std::io::Result<Box<dyn Channel>> {
        match self {
            WorkerEndpoint::Tcp { addr, profile, key } => {
                let tcp = TcpChannel::connect_with(addr.as_str(), config)
                    .map_err(|e| std::io::Error::new(e.kind(), format!("connect {addr}: {e}")))?;
                let ch: Box<dyn Channel> = match key {
                    Some(k) => Box::new(EncryptedChannel::new(tcp, *k, true)),
                    None => Box::new(tcp),
                };
                let ch: Box<dyn Channel> = if profile.is_unshaped() {
                    ch
                } else {
                    Box::new(ShapedChannel::new(ch, *profile))
                };
                Ok(Box::new(InstrumentedChannel::new(ch, stats)))
            }
        }
    }
}

struct WorkerConn {
    /// The standing connection (one RPC at a time per connection; parallel
    /// callers from e.g. the parameter server open extra connections).
    channel: Mutex<Box<dyn Channel>>,
    endpoint: Option<WorkerEndpoint>,
    /// Write-behind queue of effect-only requests (see [`FedContext::defer`]).
    /// Lock order: `channel` before `outbox`.
    outbox: Mutex<Outbox>,
}

impl WorkerConn {
    fn new(channel: Box<dyn Channel>, endpoint: Option<WorkerEndpoint>) -> Self {
        WorkerConn {
            channel: Mutex::new(channel),
            endpoint,
            outbox: Mutex::new(Outbox::default()),
        }
    }
}

/// Requests whose replies the coordinator does not need, in submission
/// order, waiting for the next exchange with their worker.
#[derive(Default)]
struct Outbox {
    requests: Vec<Request>,
    /// Payload estimate of `requests`, checked against [`OUTBOX_BUDGET`].
    bytes: usize,
}

/// An outbox holding more payload than this is flushed by the op that
/// crossed it, so effect-only loops cannot grow coordinator memory.
const OUTBOX_BUDGET: usize = 4 << 20;

/// Flow-control hook consulted around every data-path RPC.
///
/// A multi-tenant coordinator installs one gate per session so a fair
/// scheduler can bound each tenant's in-flight requests against the
/// shared fleet; the embedded single-tenant path leaves it unset and pays
/// nothing. Heartbeats bypass the gate — liveness probes must never
/// queue behind data traffic.
pub trait RpcGate: Send + Sync {
    /// Blocks until the caller may put `requests` more requests in flight
    /// to `worker`.
    fn acquire(&self, worker: usize, requests: u64);
    /// Returns credit taken by a matching [`RpcGate::acquire`].
    fn release(&self, worker: usize, requests: u64);
}

/// RAII credit: releases on drop so a panicking or failing RPC cannot
/// leak scheduler credit.
struct GateGuard {
    gate: Arc<dyn RpcGate>,
    worker: usize,
    requests: u64,
}

impl GateGuard {
    fn acquire(gate: Option<Arc<dyn RpcGate>>, worker: usize, requests: u64) -> Option<Self> {
        gate.map(|gate| {
            gate.acquire(worker, requests);
            GateGuard {
                gate,
                worker,
                requests,
            }
        })
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.gate.release(self.worker, self.requests);
    }
}

/// Connections to all federated workers plus ID allocation and network
/// accounting. Shared by every federated object of one session.
pub struct FedContext {
    workers: Vec<WorkerConn>,
    next_id: AtomicU64,
    stats: Arc<NetStats>,
    /// Retry/deadline policy applied to every RPC.
    fault: Mutex<FaultPolicy>,
    /// Session namespace whose ID range `fresh_id` allocates from
    /// (0 = the embedded single-tenant default).
    namespace: AtomicU64,
    /// Optional per-session flow-control gate (multi-tenant fairness).
    rpc_gate: Mutex<Option<Arc<dyn RpcGate>>>,
}

impl std::fmt::Debug for FedContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedContext")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl FedContext {
    /// Connects to TCP workers.
    pub fn connect(endpoints: &[WorkerEndpoint]) -> Result<Arc<Self>> {
        if endpoints.is_empty() {
            return Err(RuntimeError::Invalid("no federated workers given".into()));
        }
        let stats = NetStats::shared();
        let mut workers = Vec::with_capacity(endpoints.len());
        for ep in endpoints {
            workers.push(WorkerConn::new(
                ep.connect(Arc::clone(&stats))?,
                Some(ep.clone()),
            ));
        }
        Ok(Arc::new(Self {
            workers,
            next_id: AtomicU64::new(1),
            stats,
            fault: Mutex::new(FaultPolicy::default()),
            namespace: AtomicU64::new(0),
            rpc_gate: Mutex::new(None),
        }))
    }

    /// Builds a context over pre-established channels (in-memory transport
    /// for tests, or custom stacks).
    pub fn from_channels(channels: Vec<Box<dyn Channel>>) -> Result<Arc<Self>> {
        if channels.is_empty() {
            return Err(RuntimeError::Invalid("no federated workers given".into()));
        }
        let stats = NetStats::shared();
        let workers = channels
            .into_iter()
            .map(|ch| {
                WorkerConn::new(
                    Box::new(InstrumentedChannel::new(ch, Arc::clone(&stats))),
                    None,
                )
            })
            .collect::<Vec<_>>();
        Ok(Arc::new(Self {
            workers,
            next_id: AtomicU64::new(1),
            stats,
            fault: Mutex::new(FaultPolicy::default()),
            namespace: AtomicU64::new(0),
            rpc_gate: Mutex::new(None),
        }))
    }

    /// The active retry/deadline policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        *self.fault.lock()
    }

    /// Replaces the retry/deadline policy (takes effect on the next RPC).
    pub fn set_fault_policy(&self, policy: FaultPolicy) {
        *self.fault.lock() = policy;
    }

    /// Re-establishes the channel to one worker from its endpoint (TCP
    /// contexts). Used by the supervisor after a worker restart; plain
    /// RPC retries reconnect on their own without touching the outbox.
    pub fn reconnect(&self, worker: usize) -> Result<()> {
        let conn = self.conn(worker)?;
        let fresh = self.connect_endpoint(conn)?;
        self.install_channel(conn, fresh);
        Ok(())
    }

    /// Installs a replacement channel for one worker (supervisor path for
    /// endpoint-less transports: a restarted in-memory worker hands the
    /// coordinator a fresh channel).
    pub fn replace_channel(&self, worker: usize, channel: Box<dyn Channel>) -> Result<()> {
        let conn = self.conn(worker)?;
        let fresh = Box::new(InstrumentedChannel::new(channel, Arc::clone(&self.stats)));
        self.install_channel(conn, fresh);
        Ok(())
    }

    fn conn(&self, worker: usize) -> Result<&WorkerConn> {
        self.workers
            .get(worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no worker {worker}")))
    }

    fn connect_endpoint(&self, conn: &WorkerConn) -> Result<Box<dyn Channel>> {
        let ep = conn
            .endpoint
            .as_ref()
            .ok_or_else(|| RuntimeError::Unsupported("reconnect needs a TCP endpoint".into()))?;
        let cfg = self.fault.lock().channel_config;
        Ok(ep.connect_with(Arc::clone(&self.stats), &cfg)?)
    }

    /// Swaps in the channel to a worker's next incarnation. What was
    /// deferred for the previous one is dropped with it, except `rmvar`s:
    /// they cannot fail, and a restored checkpoint may still hold their
    /// targets.
    fn install_channel(&self, conn: &WorkerConn, fresh: Box<dyn Channel>) {
        let mut ch = conn.channel.lock();
        let mut outbox = conn.outbox.lock();
        outbox.requests.retain(is_rmvar);
        outbox.bytes = outbox.requests.iter().map(queued_bytes).sum();
        *ch = fresh;
        self.stats.record_recovery();
    }

    /// Number of federated workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Aggregate network statistics across all worker channels.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Allocates a fresh symbol ID (unique per session; the coordinator
    /// owns the ID space of all worker symbol tables). Under a session
    /// namespace (see [`FedContext::set_namespace`]) IDs come from that
    /// namespace's disjoint range.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Moves this context into session namespace `ns`: every subsequent
    /// [`FedContext::fresh_id`] allocates from `(ns << NS_SHIFT) | 1`
    /// upward (see [`crate::symbol::NS_SHIFT`]), so contexts in distinct
    /// namespaces draw from disjoint ID ranges and can share one worker
    /// fleet without ever aliasing each other's symbols.
    ///
    /// Call before allocating any IDs; a multi-tenant coordinator does
    /// this once at session admission.
    pub fn set_namespace(&self, ns: u64) {
        self.namespace.store(ns, Ordering::Relaxed);
        self.next_id
            .store((ns << crate::symbol::NS_SHIFT) | 1, Ordering::Relaxed);
    }

    /// The session namespace this context allocates IDs from (0 for the
    /// embedded single-tenant default).
    pub fn namespace(&self) -> u64 {
        self.namespace.load(Ordering::Relaxed)
    }

    /// Installs (or clears) the per-session flow-control gate consulted
    /// around every data-path RPC (see [`RpcGate`]).
    pub fn set_rpc_gate(&self, gate: Option<Arc<dyn RpcGate>>) {
        *self.rpc_gate.lock() = gate;
    }

    fn gate(&self) -> Option<Arc<dyn RpcGate>> {
        self.rpc_gate.lock().clone()
    }

    /// Opens an additional connection to one worker (e.g. one per
    /// parameter-server thread). Only available for TCP contexts.
    pub fn connect_extra(&self, worker: usize) -> Result<Box<dyn Channel>> {
        let conn = self.conn(worker)?;
        match &conn.endpoint {
            Some(ep) => ep.connect(Arc::clone(&self.stats)),
            None => Err(RuntimeError::Unsupported(
                "extra connections need TCP endpoints".into(),
            )),
        }
    }

    /// Sends one request sequence to one worker as a single envelope and
    /// returns its responses.
    ///
    /// Whatever the worker's outbox holds (deferred effect-only batches
    /// and the `rmvar`s of dropped federated handles, see
    /// `FedContext::defer`) travels in front of the batch in the same
    /// envelope, and its responses are stripped: the caller gets the
    /// worker's real reply to exactly its own requests. A deferred request
    /// that failed fails this call, named by its opcode.
    ///
    /// The RPC runs under the context's [`FaultPolicy`]: a closed channel
    /// is redialed and the batch resent at once when the context knows the
    /// worker's endpoint, and is [`RuntimeError::WorkerDead`] at once when
    /// it does not; timeouts and failed dials are retried with backoff
    /// (redialing first). A connection-type failure that survives the
    /// whole retry budget returns [`RuntimeError::WorkerDead`].
    pub fn call(&self, worker: usize, batch: &[Request]) -> Result<Vec<Response>> {
        let (mut legs, _credit) = self.begin(&[(worker, batch)])?;
        legs.pop().map_or(Ok(Vec::new()), |leg| self.finish(leg))
    }

    /// The first half of an exchange, up to its only blocking point, for
    /// every `(worker, batch)` given (ascending workers: this is the
    /// channel lock order). Per leg: lock the channel, drain the outbox in
    /// front of the batch, open the leg's span under the caller's current
    /// one, encode. Then one gate acquisition for all legs together, taken
    /// before anything is sent (a leg that waited for credit while earlier
    /// legs held theirs would add a hold-and-wait), and each leg's send. A
    /// leg with nothing to say is left out. The credit is returned next to
    /// the legs and must outlive their [`FedContext::finish`].
    fn begin<'a>(
        &'a self,
        batches: &[(usize, &[Request])],
    ) -> Result<(Vec<Leg<'a>>, Option<GateGuard>)> {
        // Observability: one span per leg, its context stamped onto every
        // envelope so worker-side spans join the same trace; closing, it
        // folds into the metrics. Everything (clock reads, attribute
        // strings) is gated on the single `enabled` flag; disabled runs
        // take the exact pre-obs path.
        let obs_on = exdra_obs::enabled();
        let parent = exdra_obs::current();
        let mut legs = Vec::with_capacity(batches.len());
        for &(worker, batch) in batches {
            let conn = self.conn(worker)?;
            // Supervision and teardown travel alone: a checkpoint or
            // restore must not fail on (or wait for) someone else's
            // deferred work.
            let control = !batch.is_empty()
                && batch.iter().all(|r| {
                    matches!(
                        r,
                        Request::Restore { .. }
                            | Request::Checkpoint { .. }
                            | Request::Heartbeat
                            | Request::Clear
                            | Request::ClearNamespace { .. }
                    )
                });
            // The channel lock orders sends, and the outbox is drained
            // under it: no request can overtake the deferred instruction
            // that creates its input, whichever thread ends up carrying it.
            let ch = conn.channel.lock();
            let mut full = if control {
                Vec::new()
            } else {
                std::mem::take(&mut *conn.outbox.lock()).requests
            };
            let deferred = full.len();
            full.extend_from_slice(batch);
            if full.is_empty() {
                continue;
            }
            let mut span = exdra_obs::span_child_of(SpanKind::Rpc, "rpc.call", parent);
            if span.is_active() {
                span.attr("worker", worker);
                span.attr("requests", full.len());
                span.attr("deferred", deferred);
                span.attr("kinds", request_kinds(&full));
            }
            let t_enc = obs_on.then(Instant::now);
            let envelope = RpcEnvelope {
                trace: span.context().into(),
                requests: full,
            };
            let frame = envelope.to_bytes();
            legs.push(Leg {
                worker,
                conn,
                ch,
                span,
                envelope,
                frame,
                deferred,
                sent: Ok(()),
                send_nanos: 0,
                serde_nanos: t_enc.map_or(0, |t| t.elapsed().as_nanos() as u64),
                gate_wait_nanos: 0,
            });
        }
        if legs.is_empty() {
            return Ok((legs, None));
        }
        // The gate ignores the worker index; the wait is booked on the
        // first leg so that summing over spans counts it once.
        let t_gate = obs_on.then(Instant::now);
        let total = legs.iter().map(Leg::requests).sum();
        let credit = GateGuard::acquire(self.gate(), legs[0].worker, total);
        legs[0].gate_wait_nanos = t_gate.map_or(0, |t| t.elapsed().as_nanos() as u64);
        for leg in &mut legs {
            take_thread_wire_nanos();
            leg.sent = leg.ch.send(&leg.frame);
            leg.send_nanos = take_thread_wire_nanos();
        }
        Ok((legs, credit))
    }

    /// The second half of an exchange: the retry loop, whose attempt 0
    /// consumes [`FedContext::begin`]'s send result and receives, and
    /// whose later attempts reconnect, resend and receive; then decode,
    /// and strip and check the carried responses.
    fn finish(&self, leg: Leg<'_>) -> Result<Vec<Response>> {
        let requests = leg.requests();
        let Leg {
            worker,
            conn,
            mut ch,
            mut span,
            envelope,
            frame,
            deferred,
            sent,
            send_nanos,
            mut serde_nanos,
            gate_wait_nanos,
        } = leg;
        let obs_on = exdra_obs::enabled();
        let bytes_sent = frame.len() as u64;
        let policy = self.fault_policy();
        let deadline = Deadline::after(policy.rpc_deadline);
        // The wire time the channel stack measured for this leg's sends
        // and receives, the intervals `NetStats` sums as well.
        let mut net_nanos = send_nanos;
        let mut retries = 0u64;
        let mut first = Some(sent);
        let reply = policy
            .retry
            .run(
                deadline,
                |_attempt| {
                    take_thread_wire_nanos();
                    let sent = match first.take() {
                        Some(sent) => sent,
                        None => {
                            retries += 1;
                            self.stats.record_retry();
                            // A closed channel carries nothing, and a failed
                            // attempt may have left a half-written frame (or
                            // stale replies) on the wire: redial before
                            // resending when we know the endpoint. A failed
                            // dial is this attempt's failure.
                            if let Some(ep) = &conn.endpoint {
                                *ch = ep.connect_with(
                                    Arc::clone(&self.stats),
                                    &policy.channel_config,
                                )?;
                                self.stats.record_recovery();
                            }
                            ch.send(&frame)
                        }
                    };
                    let r = sent.and_then(|()| ch.recv());
                    net_nanos += take_thread_wire_nanos();
                    r
                },
                // This leg holds the channel lock until it returns, so while
                // it waits nobody can install a live channel under it: with
                // no endpoint to dial, a closed channel is final right now.
                |e| match classify_io(e) {
                    ErrorClass::Closed if conn.endpoint.is_none() => ErrorClass::Fatal,
                    class => class,
                },
            )
            .map_err(|e| rpc_failure(worker, &e))?;
        drop(ch);

        let t_dec = obs_on.then(Instant::now);
        let bytes_recv = reply.len() as u64;
        let RpcReply {
            mut responses,
            footer,
        } = RpcReply::from_bytes(&reply)?;
        let exec_nanos = footer.exec_nanos;
        if responses.len() as u64 != requests {
            return Err(RuntimeError::Protocol(format!(
                "worker {worker}: {} responses for {requests} requests",
                responses.len()
            )));
        }
        if let Some(t) = t_dec {
            serde_nanos += t.elapsed().as_nanos() as u64;
        }
        if span.is_active() {
            span.attr("bytes_sent", bytes_sent);
            span.attr("bytes_recv", bytes_recv);
            span.attr("net_nanos", net_nanos);
            span.attr("exec_nanos", exec_nanos);
            span.attr("serde_nanos", serde_nanos);
            span.attr("gate_wait_nanos", gate_wait_nanos);
            span.attr("retries", retries);
        }
        // Teardown makes what is still queued moot: the symbols are gone.
        let cleared = envelope.requests[deferred..].iter().any(|r| match r {
            Request::Clear => true,
            Request::ClearNamespace { ns } => *ns == self.namespace(),
            _ => false,
        });
        if cleared {
            *conn.outbox.lock() = Outbox::default();
        }
        // A deferred request that failed surfaces here, at its carrier.
        for (req, resp) in envelope.requests.iter().zip(&responses).take(deferred) {
            if let Response::Error(msg) = resp {
                let op = op_name(req);
                return Err(worker_error(worker, &format!("deferred {op}: {msg}")));
            }
        }
        responses.drain(..deferred);
        Ok(responses)
    }

    /// The per-worker batches of one operation on a federated object. A
    /// worker whose batch is effect-only (`PUT`s of side inputs and
    /// `EXEC_INST`s: the output stays federated and every reply would be
    /// a bare `Ok`) gets no round trip: the batch is deferred
    /// ([`FedContext::defer`]) and acknowledged here. The other legs
    /// scatter and gather on the calling thread: every leg is begun (and
    /// so in flight at its worker) before the first is finished, and every
    /// leg is finished, its reply consumed, before the first error is
    /// reported. Data installation and direct RPCs do not come through
    /// here; they keep [`FedContext::call_all`]'s thread per leg, where
    /// bulk payloads encode in parallel.
    pub(crate) fn submit(&self, mut batches: Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>> {
        self.check_shape(&batches)?;
        let effect_only = |r: &Request| matches!(r, Request::Put { .. } | Request::ExecInst { .. });
        let mut all = vec![Vec::new(); batches.len()];
        for (w, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() && batch.iter().all(effect_only) {
                all[w] = vec![Response::Ok; batch.len()];
                self.defer(w, std::mem::take(batch))?;
            }
        }
        let busy: Vec<(usize, &[Request])> = batches
            .iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(w, batch)| (w, batch.as_slice()))
            .collect();
        let (legs, _credit) = self.begin(&busy)?;
        let mut failed = None;
        for leg in legs {
            let w = leg.worker;
            match self.finish(leg) {
                Ok(responses) => all[w] = responses,
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(all), Err)
    }

    /// Appends an effect-only batch to `worker`'s outbox instead of
    /// spending a round trip on it. The next exchange with that worker
    /// carries it, in FIFO order, in front of its own batch; if one of
    /// these requests fails there, that exchange fails. An outbox over
    /// [`OUTBOX_BUDGET`] is flushed right here.
    pub(crate) fn defer(&self, worker: usize, batch: Vec<Request>) -> Result<()> {
        let conn = self.conn(worker)?;
        if exdra_obs::enabled() {
            exdra_obs::global().add("rpc.deferred", batch.len() as u64);
        }
        let over_budget = {
            let mut outbox = conn.outbox.lock();
            outbox.bytes += batch.iter().map(queued_bytes).sum::<usize>();
            outbox.requests.extend(batch);
            outbox.bytes > OUTBOX_BUDGET
        };
        if over_budget {
            self.call(worker, &[])?;
        }
        Ok(())
    }

    /// Queues the removal of one worker symbol (a dropped federated
    /// handle or a retired broadcast) behind everything deferred so far.
    pub(crate) fn defer_rmvar(&self, worker: usize, id: u64) {
        let Some(conn) = self.workers.get(worker) else {
            return;
        };
        let mut outbox = conn.outbox.lock();
        if let Some(Request::ExecInst {
            inst: Instruction::Rmvar { ids },
        }) = outbox.requests.last_mut()
        {
            ids.push(id);
            return;
        }
        let req = Request::ExecInst {
            inst: Instruction::Rmvar { ids: vec![id] },
        };
        outbox.bytes += queued_bytes(&req);
        outbox.requests.push(req);
    }

    /// Sends one liveness probe to one worker and returns its
    /// `(epoch, load)`. Deliberately NOT retried: a missed heartbeat IS
    /// the failure-detection signal, so this is a single attempt against
    /// the standing channel, bounded only by the socket timeouts.
    pub fn heartbeat(&self, worker: usize) -> Result<(u64, u32)> {
        let conn = self.conn(worker)?;
        self.stats.record_heartbeat();
        let mut span = exdra_obs::span(SpanKind::Rpc, "rpc.heartbeat");
        span.attr("worker", worker);
        let envelope = RpcEnvelope {
            trace: span.context().into(),
            requests: vec![Request::Heartbeat],
        };
        let frame = {
            let mut ch = conn.channel.lock();
            ch.send(&envelope.to_bytes())
                .and_then(|()| ch.recv())
                .map_err(|e| rpc_failure(worker, &e))?
        };
        let reply = RpcReply::from_bytes(&frame)?;
        match reply.responses.as_slice() {
            [Response::Alive { epoch, load }] => Ok((*epoch, *load)),
            other => Err(RuntimeError::Protocol(format!(
                "worker {worker}: heartbeat answered with {other:?}"
            ))),
        }
    }

    /// Sends per-worker request sequences in parallel and returns
    /// responses per worker. Workers with empty
    /// batches are skipped (empty response vector). Fail-fast: any
    /// worker's failure fails the whole call (federated linear algebra
    /// needs every partition).
    pub fn call_all(&self, batches: Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>> {
        self.call_all_tolerant(batches)?.into_iter().collect()
    }

    /// Like [`FedContext::call_all`], but partial-failure tolerant: each
    /// worker's outcome is returned individually so callers with quorum
    /// semantics (e.g. straggler-tolerant parameter-server aggregation)
    /// can skip dead workers instead of aborting the round. The outer
    /// `Result` only covers shape errors.
    pub fn call_all_tolerant(
        &self,
        batches: Vec<Vec<Request>>,
    ) -> Result<Vec<Result<Vec<Response>>>> {
        self.check_shape(&batches)?;
        // These are the bulk calls (data installation, frame `PUT`s,
        // parameter-server rounds): a thread per leg lets their payloads
        // encode in parallel. The operations of a federated object go
        // through `submit`.
        let run = |w: usize| self.call(w, &batches[w]);
        let mut results: Vec<Result<Vec<Response>>> =
            batches.iter().map(|_| Ok(Vec::new())).collect();
        let busy: Vec<usize> = (0..batches.len())
            .filter(|&w| !batches[w].is_empty())
            .collect();
        // The last non-empty batch runs right here; only the others pay a
        // thread, inheriting the caller's span context so their `rpc.call`
        // spans parent into the surrounding trace.
        let Some((&last, others)) = busy.split_last() else {
            return Ok(results);
        };
        let parent = exdra_obs::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = others
                .iter()
                .map(|&w| {
                    let run = &run;
                    scope.spawn(move || {
                        let _trace = exdra_obs::propagate(parent);
                        run(w)
                    })
                })
                .collect();
            results[last] = run(last);
            for (&w, h) in others.iter().zip(handles) {
                results[w] = h.join().unwrap_or_else(|_| {
                    Err(RuntimeError::Network("worker RPC thread panicked".into()))
                });
            }
        });
        Ok(results)
    }

    fn check_shape(&self, batches: &[Vec<Request>]) -> Result<()> {
        if batches.len() == self.workers.len() {
            return Ok(());
        }
        Err(RuntimeError::Invalid(format!(
            "{} batches for {} workers",
            batches.len(),
            self.workers.len()
        )))
    }

    /// Sends the same request sequence to every worker in parallel.
    pub fn broadcast(&self, batch: &[Request]) -> Result<Vec<Vec<Response>>> {
        self.call_all(vec![batch.to_vec(); self.workers.len()])
    }

    /// Drops all state at every worker (`CLEAR`).
    pub fn clear_all(&self) -> Result<()> {
        for responses in self.broadcast(&[Request::Clear])? {
            expect_ok(&responses[0], 0)?;
        }
        Ok(())
    }
}

/// One worker's exchange between [`FedContext::begin`] and
/// [`FedContext::finish`].
struct Leg<'a> {
    worker: usize,
    conn: &'a WorkerConn,
    /// Held from encode to decode: a connection carries one exchange at
    /// a time.
    ch: MutexGuard<'a, Box<dyn Channel>>,
    span: exdra_obs::SpanGuard,
    /// What `frame` encodes; alive until the reply is checked against it.
    envelope: RpcEnvelope,
    frame: Vec<u8>,
    /// How many leading requests came out of the outbox.
    deferred: usize,
    /// Result of the send `begin` made, consumed by `finish`'s first
    /// attempt.
    sent: std::io::Result<()>,
    /// Wire time of that send.
    send_nanos: u64,
    serde_nanos: u64,
    gate_wait_nanos: u64,
}

impl Leg<'_> {
    fn requests(&self) -> u64 {
        self.envelope.requests.len() as u64
    }
}

fn is_rmvar(req: &Request) -> bool {
    matches!(
        req,
        Request::ExecInst {
            inst: Instruction::Rmvar { .. }
        }
    )
}

/// The opcode of an instruction request, the kind of any other.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::ExecInst { inst } => inst.name(),
        other => other.kind(),
    }
}

/// What one queued request holds in coordinator memory, roughly.
fn queued_bytes(req: &Request) -> usize {
    64 + match req {
        Request::Put { data, .. } => data.size_bytes(),
        _ => 0,
    }
}

/// Comma-joined request-kind summary for span attributes, with runs of
/// equal kinds collapsed (`PUT x128` instead of 128 entries).
fn request_kinds(batch: &[Request]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < batch.len() {
        let kind = batch[i].kind();
        let mut run = 1;
        while i + run < batch.len() && batch[i + run].kind() == kind {
            run += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(kind);
        if run > 1 {
            out.push_str(&format!(" x{run}"));
        }
        i += run;
    }
    out
}

/// Interprets a response as success, mapping worker errors.
pub fn expect_ok(r: &Response, worker: usize) -> Result<()> {
    match r {
        Response::Ok | Response::Data(_) | Response::Alive { .. } | Response::Checkpoint(_) => {
            Ok(())
        }
        Response::Error(msg) => Err(worker_error(worker, msg)),
    }
}

/// Interprets a response as a data value.
pub fn expect_data(r: &Response, worker: usize) -> Result<DataValue> {
    match r {
        Response::Data(v) => Ok(v.clone()),
        Response::Ok | Response::Alive { .. } | Response::Checkpoint(_) => {
            Err(RuntimeError::Protocol(format!(
                "worker {worker}: expected data, got {}",
                match r {
                    Response::Ok => "Ok",
                    Response::Checkpoint(_) => "Checkpoint",
                    _ => "Alive",
                }
            )))
        }
        Response::Error(msg) => Err(worker_error(worker, msg)),
    }
}

/// Maps an RPC failure that survived the whole retry budget (or was fatal
/// outright) to the typed runtime error: connection-collapse kinds mean
/// the worker is dead, timeouts stay typed as timeouts, anything else is
/// a generic network error.
fn rpc_failure(worker: usize, e: &std::io::Error) -> RuntimeError {
    use std::io::ErrorKind::*;
    match e.kind() {
        TimedOut | WouldBlock => RuntimeError::Timeout {
            worker,
            msg: e.to_string(),
        },
        kind if peer_closed(e) || kind == ConnectionRefused => RuntimeError::WorkerDead {
            worker,
            msg: e.to_string(),
        },
        _ => RuntimeError::Network(format!("worker {worker}: {e}")),
    }
}

fn worker_error(worker: usize, msg: &str) -> RuntimeError {
    if msg.contains("privacy") {
        RuntimeError::Privacy(format!("worker {worker}: {msg}"))
    } else {
        RuntimeError::Worker {
            worker,
            msg: msg.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyLevel;
    use crate::worker::{Worker, WorkerConfig};
    use exdra_matrix::rng::rand_matrix;

    fn mem_context(n: usize) -> (Arc<FedContext>, Vec<Arc<Worker>>) {
        let mut channels = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..n {
            let w = Worker::new(WorkerConfig::default());
            channels.push(Box::new(w.serve_mem()) as Box<dyn Channel>);
            workers.push(w);
        }
        (FedContext::from_channels(channels).unwrap(), workers)
    }

    #[test]
    fn parallel_broadcast_reaches_all_workers() {
        let (ctx, workers) = mem_context(3);
        let m = rand_matrix(4, 2, 0.0, 1.0, 1);
        let rs = ctx
            .broadcast(&[Request::Put {
                id: 7,
                data: DataValue::from(m),
                privacy: PrivacyLevel::Public,
            }])
            .unwrap();
        assert_eq!(rs.len(), 3);
        for w in &workers {
            assert!(w.table().contains(7));
        }
    }

    #[test]
    fn call_all_with_different_batches() {
        let (ctx, workers) = mem_context(2);
        let batches = vec![
            vec![Request::Put {
                id: 1,
                data: DataValue::Scalar(1.0),
                privacy: PrivacyLevel::Public,
            }],
            vec![],
        ];
        let rs = ctx.call_all(batches).unwrap();
        assert_eq!(rs[0].len(), 1);
        assert!(rs[1].is_empty());
        assert!(workers[0].table().contains(1));
        assert!(!workers[1].table().contains(1));
    }

    #[test]
    fn fresh_ids_unique() {
        let (ctx, _workers) = mem_context(1);
        let a = ctx.fresh_id();
        let b = ctx.fresh_id();
        assert_ne!(a, b);
    }

    #[test]
    fn worker_error_classification() {
        assert!(matches!(
            worker_error(0, "privacy violation: nope"),
            RuntimeError::Privacy(_)
        ));
        assert!(matches!(
            worker_error(1, "boom"),
            RuntimeError::Worker { worker: 1, .. }
        ));
    }

    #[test]
    fn stats_accumulate_over_rpcs() {
        let (ctx, _workers) = mem_context(1);
        ctx.broadcast(&[Request::Put {
            id: 1,
            data: DataValue::from(rand_matrix(100, 10, 0.0, 1.0, 2)),
            privacy: PrivacyLevel::Public,
        }])
        .unwrap();
        assert!(ctx.stats().bytes_sent() > 8000);
        assert_eq!(ctx.stats().messages_sent(), 1);
    }

    #[test]
    fn call_all_sends_each_batch_as_one_envelope() {
        let (ctx, workers) = mem_context(2);
        let batch: Vec<Request> = (0..6u64)
            .map(|i| Request::Put {
                id: i + 1,
                data: DataValue::Scalar(i as f64),
                privacy: PrivacyLevel::Public,
            })
            .collect();
        let rs = ctx.call_all(vec![batch.clone(), batch]).unwrap();
        assert!(rs.iter().all(|r| r.len() == 6));
        for w in &workers {
            assert_eq!(w.table().len(), 6);
        }
        assert_eq!(ctx.stats().messages_sent(), 2, "one envelope per worker");
        assert_eq!(ctx.stats().messages_received(), 2);
    }

    #[test]
    fn submit_has_every_leg_in_flight_before_it_finishes_the_first() {
        use std::sync::{Condvar, Mutex as StdMutex};
        let (ctx, workers) = mem_context(3);
        // Each leg's UDF waits until all three have arrived: legs run one
        // after another would time out here.
        let arrived = Arc::new((StdMutex::new(0usize), Condvar::new()));
        for w in &workers {
            let arrived = Arc::clone(&arrived);
            w.register_udf(
                "rendezvous",
                Arc::new(move |_, _| {
                    let (count, all_here) = &*arrived;
                    let mut n = count.lock().unwrap();
                    *n += 1;
                    all_here.notify_all();
                    let (n, wait) = all_here
                        .wait_timeout_while(n, Duration::from_secs(5), |n| *n < 3)
                        .unwrap();
                    if wait.timed_out() {
                        return Err(RuntimeError::Invalid(format!("{} of 3 legs in flight", *n)));
                    }
                    Ok(None)
                }),
            );
        }
        let leg = vec![
            Request::ExecUdf {
                udf: crate::udf::Udf::Registered {
                    name: "rendezvous".into(),
                    args: vec![],
                    arg_ids: vec![],
                    out: None,
                },
            },
            Request::Heartbeat,
        ];
        let rs = ctx.submit(vec![leg; 3]).unwrap();
        assert!(rs.iter().all(|r| r.len() == 2 && r[0] == Response::Ok));
        assert_eq!(ctx.stats().messages_sent(), 3, "one envelope per leg");
    }

    #[test]
    fn a_failed_first_send_retries_that_leg_alone() {
        use crate::fed::FedMatrix;
        use exdra_fault::inject::{FaultPlan, FaultyChannel};
        let x = rand_matrix(30, 4, -1.0, 1.0, 9);
        let v = rand_matrix(4, 1, -1.0, 1.0, 10);
        let run = |faulty: bool| {
            let (ctx, workers) = crate::testutil::tcp_federation(3);
            let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
            if faulty {
                // Worker 1's link dies under the op: its leg's first send
                // fails, the retry reconnects from the endpoint.
                let addr = match &ctx.workers[1].endpoint {
                    Some(WorkerEndpoint::Tcp { addr, .. }) => addr.clone(),
                    None => unreachable!("tcp federation"),
                };
                let dead = FaultyChannel::new(
                    TcpChannel::connect(addr.as_str()).unwrap(),
                    FaultPlan::kill_after(1, 0),
                );
                ctx.replace_channel(1, Box::new(dead)).unwrap();
            }
            let before = ctx.stats().snapshot();
            let got = fed.matmul_rhs_local(&v).unwrap().to_local().unwrap();
            let delta = ctx.stats().snapshot().delta(&before);
            for w in workers {
                w.shutdown();
            }
            (got, delta.retries, delta.messages_received)
        };
        let (want, retries, replies) = run(false);
        assert_eq!((retries, replies), (0, 3));
        let (got, retries, replies) = run(true);
        assert_eq!(
            got.values(),
            want.values(),
            "bitwise equal to the fault-free run"
        );
        assert_eq!(retries, 1, "only the failed leg retried");
        assert_eq!(replies, 3, "every leg's reply was consumed");
    }

    /// A self-contained batch (it installs what it reads), so a worker
    /// that restarted empty answers it like the one that never died.
    fn put_then_get() -> Vec<Request> {
        vec![
            Request::Put {
                id: 1,
                data: DataValue::from(rand_matrix(6, 3, -1.0, 1.0, 5)),
                privacy: PrivacyLevel::Public,
            },
            Request::Get { id: 1 },
        ]
    }

    /// A schedule whose first delay alone would outlast the test: a call
    /// that returns under it has not slept.
    fn policy_that_must_not_sleep() -> (FaultPolicy, Duration) {
        let base = Duration::from_secs(20);
        let policy = FaultPolicy {
            retry: RetryPolicy::new(base, base, 4),
            ..FaultPolicy::default()
        };
        (policy, base)
    }

    #[test]
    fn a_closed_mem_channel_is_worker_dead_without_a_retry() {
        let (ctx, workers) = mem_context(2);
        ctx.set_fault_policy(policy_that_must_not_sleep().0);
        ctx.call(1, &put_then_get()).unwrap();
        workers[1].shutdown();
        let before = ctx.stats().snapshot();
        let err = ctx.call(1, &[Request::Get { id: 1 }]).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerDead { worker: 1, .. }),
            "{err}"
        );
        let delta = ctx.stats().snapshot().delta(&before);
        assert_eq!((delta.retries, delta.recoveries), (0, 0));
        // The verdict was about worker 1 only.
        ctx.call(0, &put_then_get()).unwrap();
    }

    #[test]
    fn a_closed_tcp_channel_is_redialed_and_resent_at_once() {
        let worker = Worker::new(WorkerConfig::default());
        let addr = worker.serve_tcp("127.0.0.1:0").unwrap().to_string();
        let ctx = FedContext::connect(&[WorkerEndpoint::tcp(addr.as_str())]).unwrap();
        let (policy, first_delay) = policy_that_must_not_sleep();
        ctx.set_fault_policy(policy);
        let want = ctx.call(0, &put_then_get()).unwrap();

        // The site process restarts on its address, empty, before the
        // next call: the standing connection is closed under it.
        worker.shutdown();
        let restarted = Worker::new(WorkerConfig::default());
        restarted.serve_tcp(&addr).unwrap();
        let before = ctx.stats().snapshot();
        let t0 = Instant::now();
        let got = ctx.call(0, &put_then_get()).unwrap();
        assert!(t0.elapsed() < first_delay, "the retry slept");
        assert_eq!(got, want, "bitwise equal to the fault-free run");
        let delta = ctx.stats().snapshot().delta(&before);
        assert_eq!((delta.retries, delta.recoveries), (1, 1));
        assert!(restarted.table().contains(1));
        restarted.shutdown();
    }

    #[test]
    fn an_error_in_one_leg_still_consumes_the_other_legs_replies() {
        let (ctx, _workers) = mem_context(2);
        for w in 0..2 {
            let put = |id: u64| Request::Put {
                id,
                data: DataValue::Scalar(id as f64),
                privacy: PrivacyLevel::Public,
            };
            ctx.call(w, &[put(1), put(2)]).unwrap();
        }
        // Leg 0 carries a deferred request that fails there.
        ctx.defer(0, vec![Request::Get { id: 404 }]).unwrap();
        let err = ctx
            .submit(vec![vec![Request::Get { id: 1 }]; 2])
            .unwrap_err();
        assert!(err.to_string().contains("deferred GET"), "{err}");
        // Leg 1's reply to GET 1 was read: the next exchange on its
        // channel gets its own answer, not that one.
        match ctx.call(1, &[Request::Get { id: 2 }]).unwrap().as_slice() {
            [Response::Data(DataValue::Scalar(v))] => assert_eq!(*v, 2.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clear_all_wipes_workers() {
        let (ctx, workers) = mem_context(2);
        ctx.broadcast(&[Request::Put {
            id: 1,
            data: DataValue::Scalar(1.0),
            privacy: PrivacyLevel::Public,
        }])
        .unwrap();
        ctx.clear_all().unwrap();
        for w in &workers {
            assert!(w.table().is_empty());
        }
    }
}

#[cfg(test)]
mod outbox_tests {
    use super::*;
    use crate::fed::{FedMatrix, FedPartition, PartitionScheme};
    use crate::privacy::PrivacyLevel;
    use crate::tensor::Tensor;
    use crate::testutil::mem_federation;
    use crate::worker::{Worker, WorkerConfig};
    use exdra_matrix::kernels::elementwise::{BinaryOp, UnaryOp};
    use exdra_matrix::rng::rand_matrix;

    /// Opcode (or request kind) of everything queued for `worker`.
    fn queued(ctx: &FedContext, worker: usize) -> Vec<&'static str> {
        let outbox = ctx.workers[worker].outbox.lock();
        outbox.requests.iter().map(op_name).collect()
    }

    #[test]
    fn dropped_handles_clean_up_via_any_call() {
        // The rmvars of dropped federated handles are ordinary outbox
        // entries: they leave with plain `call` traffic (e.g.
        // parameter-server RPCs), not only with federated matrix ops.
        let (ctx, workers) = mem_federation(2);
        let x = rand_matrix(20, 3, 0.0, 1.0, 1);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let ids: Vec<(usize, u64)> = fed.parts().iter().map(|p| (p.worker, p.id)).collect();
        drop(fed);
        for w in 0..2 {
            let rs = ctx
                .call(
                    w,
                    &[Request::Put {
                        id: 999 + w as u64,
                        data: DataValue::Scalar(1.0),
                        privacy: PrivacyLevel::Public,
                    }],
                )
                .unwrap();
            // The carried entries' responses are stripped: one response
            // per caller-visible request.
            assert_eq!(rs.len(), 1);
        }
        for (w, id) in ids {
            assert!(
                !workers[w].table().contains(id),
                "worker {w} id {id} not cleaned through plain call"
            );
        }
    }

    #[test]
    fn empty_batch_flushes_the_outbox_and_nothing_else() {
        let (ctx, workers) = mem_federation(1);
        // Nothing queued, nothing to say: no message at all.
        assert!(ctx.call(0, &[]).unwrap().is_empty());
        assert_eq!(ctx.stats().messages_sent(), 0);
        let x = rand_matrix(10, 2, 0.0, 1.0, 2);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let id = fed.parts()[0].id;
        drop(fed);
        let rs = ctx.call(0, &[]).unwrap();
        assert!(rs.is_empty());
        assert!(!workers[0].table().contains(id));
    }

    #[test]
    fn deferred_ops_queue_in_program_order_and_cost_no_message() {
        let (ctx, workers) = mem_federation(1);
        let x = rand_matrix(12, 3, -1.0, 1.0, 3);
        let fed = Tensor::Fed(FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap());
        let w = Tensor::Local(rand_matrix(3, 3, -1.0, 1.0, 4));
        let sent = ctx.stats().messages_sent();
        let p = fed.matmul(&w).unwrap().softmax().unwrap();
        // The matmul output was dropped after the softmax consumed it; the
        // broadcast of w was retired right after the matmul was queued.
        assert_eq!(
            queued(&ctx, 0),
            ["PUT", "ba+*", "rmvar", "softmax", "rmvar"]
        );
        assert_eq!(ctx.stats().messages_sent(), sent, "nothing sent yet");
        // The fetch carries all of it in one envelope.
        let got = p.to_local().unwrap();
        assert_eq!(ctx.stats().messages_sent(), sent + 1);
        assert!(queued(&ctx, 0).is_empty());
        let want = Tensor::Local(x).matmul(&w).unwrap().softmax().unwrap();
        assert_eq!(got.values(), want.to_local().unwrap().values());
        drop(p);
        ctx.call(0, &[]).unwrap();
        assert_eq!(workers[0].table().len(), 1, "only X is left");
    }

    #[test]
    fn a_failed_deferred_instruction_fails_its_carrier_by_opcode() {
        let (ctx, _workers) = mem_federation(1);
        // A federation map over a symbol no worker holds.
        let ghost = FedMatrix::from_parts(
            Arc::clone(&ctx),
            PartitionScheme::Row,
            4,
            2,
            vec![FedPartition {
                lo: 0,
                hi: 4,
                worker: 0,
                id: 4242,
            }],
            PrivacyLevel::Public,
            false,
        )
        .unwrap();
        let abs = ghost.unary(UnaryOp::Abs).expect("deferred: no error yet");
        let err = abs.consolidate().unwrap_err();
        match err {
            RuntimeError::Worker { worker: 0, msg } => {
                assert!(msg.contains("deferred abs"), "{msg}");
                assert!(msg.contains("4242"), "{msg}");
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
        // Shape errors never reach the outbox.
        let bad = rand_matrix(3, 1, 0.0, 1.0, 5);
        assert!(ghost.matmul_rhs_local(&bad).is_err());
        assert!(queued(&ctx, 0).iter().all(|op| *op == "rmvar"));
    }

    #[test]
    fn supervision_and_teardown_requests_travel_alone() {
        let (ctx, workers) = mem_federation(1);
        let x = rand_matrix(8, 2, -1.0, 1.0, 6);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let abs = fed.unary(UnaryOp::Abs).unwrap();
        assert_eq!(queued(&ctx, 0), ["abs"]);
        let rs = ctx
            .call(0, &[Request::Checkpoint { since_seq: 0 }])
            .unwrap();
        assert!(matches!(rs.as_slice(), [Response::Checkpoint(d)] if d.entries.len() == 1));
        assert!(matches!(
            ctx.call(0, &[Request::Heartbeat]).unwrap().as_slice(),
            [Response::Alive { .. }]
        ));
        assert_eq!(queued(&ctx, 0), ["abs"], "still queued");
        // CLEAR makes the queue moot and discards it.
        ctx.clear_all().unwrap();
        assert!(queued(&ctx, 0).is_empty());
        assert!(workers[0].table().is_empty());
        abs.disown();
        fed.disown();
    }

    #[test]
    fn a_replaced_channel_keeps_only_the_rmvars() {
        let (ctx, _workers) = mem_federation(1);
        let x = rand_matrix(8, 2, -1.0, 1.0, 7);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        drop(fed.unary(UnaryOp::Abs).unwrap());
        assert_eq!(queued(&ctx, 0), ["abs", "rmvar"]);
        let next = Worker::new(WorkerConfig::default());
        ctx.replace_channel(0, Box::new(next.serve_mem())).unwrap();
        assert_eq!(queued(&ctx, 0), ["rmvar"]);
        // Removing what the new incarnation never had cannot fail.
        ctx.call(0, &[]).unwrap();
        fed.disown();
    }

    #[test]
    fn the_op_that_crosses_the_byte_budget_flushes() {
        let (ctx, _workers) = mem_federation(1);
        let x = rand_matrix(2_000, 100, -1.0, 1.0, 8); // 1.6 MB
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let sent = ctx.stats().messages_sent();
        let mut cur = fed.clone();
        for _ in 0..6 {
            // Each step ships a full-shape operand and fetches nothing.
            cur = cur.binary_local(BinaryOp::Add, &x).unwrap();
            assert!(ctx.workers[0].outbox.lock().bytes <= OUTBOX_BUDGET);
        }
        assert_eq!(
            ctx.stats().messages_sent() - sent,
            2,
            "6 x 1.6 MB over 4 MiB"
        );
        let want = x.map(|v| 7.0 * v);
        assert!(cur.consolidate().unwrap().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn two_threads_sharing_a_context_never_see_an_unknown_symbol() {
        // Three workers: each fetch locks three channels, in ascending
        // order on both threads, so the two never deadlock.
        let (ctx, _workers) = mem_federation(3);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (ctx, barrier) = (&ctx, &barrier);
                scope.spawn(move || {
                    let x = rand_matrix(16, 3, -1.0, 1.0, 10 + t);
                    let w = Tensor::Local(rand_matrix(3, 3, -1.0, 1.0, 20 + t));
                    let fed = Tensor::Fed(
                        FedMatrix::scatter_rows(ctx, &x, PrivacyLevel::Public).unwrap(),
                    );
                    let want = Tensor::Local(x)
                        .matmul(&w)
                        .and_then(|p| p.softmax())
                        .and_then(|p| p.to_local())
                        .unwrap();
                    barrier.wait();
                    // Either thread's fetch may carry the other's deferred
                    // matmul and softmax; neither may ever overtake them.
                    for round in 0..200 {
                        let got = fed
                            .matmul(&w)
                            .and_then(|p| p.softmax())
                            .and_then(|p| p.to_local())
                            .unwrap_or_else(|e| panic!("thread {t} round {round}: {e}"));
                        assert_eq!(got.values(), want.values());
                    }
                });
            }
        });
    }
}
