//! The federated coordinator: worker connections and parallel RPC.
//!
//! The coordinator is the main control program (paper Figure 2). It holds
//! only metadata of federated data and communicates with the standing
//! workers through request sequences. "For efficiency, the coordinator
//! sends RPCs to all workers in parallel, and a single RPC can contain a
//! sequence of requests."
//!
//! Every RPC runs under a [`FaultPolicy`]: transient transport failures
//! (timeouts, resets) are retried with jittered backoff and reconnection,
//! capped by a per-RPC deadline; exhausting the budget yields the typed
//! [`RuntimeError::WorkerDead`] so callers fail fast instead of hanging.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use exdra_fault::retry::{classify_io, Deadline, RetryPolicy};
use exdra_net::codec::Wire;
use exdra_net::crypto::ChannelKey;
use exdra_net::framing::{tag_request, untag_reply};
use exdra_net::sim::NetProfile;
use exdra_net::stats::NetStats;
use exdra_net::transport::{
    Channel, ChannelConfig, EncryptedChannel, InstrumentedChannel, ShapedChannel, TcpChannel,
};
use exdra_obs::SpanKind;

use crate::error::{Result, RuntimeError};
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
        self.connect_with(stats, &ChannelConfig::default())
    }

    fn connect_with(
        &self,
        stats: Arc<NetStats>,
        config: &ChannelConfig,
    ) -> Result<Box<dyn Channel>> {
        match self {
            WorkerEndpoint::Tcp { addr, profile, key } => {
                let tcp = TcpChannel::connect_with(addr.as_str(), config)
                    .map_err(|e| RuntimeError::Network(format!("connect {addr}: {e}")))?;
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
}

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
    /// Per-worker queues of symbol IDs awaiting amortized `rmvar` cleanup
    /// (filled by dropped federated handles, drained on the next RPC).
    garbage: Mutex<Vec<Vec<u64>>>,
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
            workers.push(WorkerConn {
                channel: Mutex::new(ep.connect(Arc::clone(&stats))?),
                endpoint: Some(ep.clone()),
            });
        }
        let n = workers.len();
        Ok(Arc::new(Self {
            workers,
            next_id: AtomicU64::new(1),
            stats,
            garbage: Mutex::new(vec![Vec::new(); n]),
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
            .map(|ch| WorkerConn {
                channel: Mutex::new(
                    Box::new(InstrumentedChannel::new(ch, Arc::clone(&stats))) as Box<dyn Channel>
                ),
                endpoint: None,
            })
            .collect::<Vec<_>>();
        let n = workers.len();
        Ok(Arc::new(Self {
            workers,
            next_id: AtomicU64::new(1),
            stats,
            garbage: Mutex::new(vec![Vec::new(); n]),
            fault: Mutex::new(FaultPolicy::default()),
            namespace: AtomicU64::new(0),
            rpc_gate: Mutex::new(None),
        }))
    }

    pub(crate) fn garbage(&self) -> &Mutex<Vec<Vec<u64>>> {
        &self.garbage
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
    /// RPC retries also attempt this when a channel collapses.
    pub fn reconnect(&self, worker: usize) -> Result<()> {
        let conn = self
            .workers
            .get(worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no worker {worker}")))?;
        let ep = conn
            .endpoint
            .as_ref()
            .ok_or_else(|| RuntimeError::Unsupported("reconnect needs a TCP endpoint".into()))?;
        let cfg = self.fault.lock().channel_config;
        let fresh = ep.connect_with(Arc::clone(&self.stats), &cfg)?;
        *conn.channel.lock() = fresh;
        self.stats.record_recovery();
        Ok(())
    }

    /// Installs a replacement channel for one worker (supervisor path for
    /// endpoint-less transports: a restarted in-memory worker hands the
    /// coordinator a fresh channel).
    pub fn replace_channel(&self, worker: usize, channel: Box<dyn Channel>) -> Result<()> {
        let conn = self
            .workers
            .get(worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no worker {worker}")))?;
        *conn.channel.lock() = Box::new(InstrumentedChannel::new(channel, Arc::clone(&self.stats)));
        self.stats.record_recovery();
        Ok(())
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
        let conn = self
            .workers
            .get(worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no worker {worker}")))?;
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
    /// Pending garbage-collection `rmvar`s for the worker (queued by
    /// dropped federated handles) are piggybacked onto the batch and their
    /// response stripped — amortized cleanup, invisible to callers.
    ///
    /// The RPC runs under the context's [`FaultPolicy`]: transient
    /// transport failures are retried with backoff (reconnecting first
    /// when the context knows the worker's endpoint). A connection-type
    /// failure that survives the whole retry budget returns
    /// [`RuntimeError::WorkerDead`].
    pub fn call(&self, worker: usize, batch: &[Request]) -> Result<Vec<Response>> {
        self.exchange(worker, batch, None)
    }

    /// The active RPC pipelining window (see
    /// [`ChannelConfig::rpc_window`]).
    pub fn rpc_window(&self) -> usize {
        self.fault.lock().channel_config.rpc_window
    }

    /// Sets the RPC pipelining window for subsequent batched calls
    /// (clamped to at least 1; 1 = legacy lock-step).
    pub fn set_rpc_window(&self, n: usize) {
        self.fault.lock().channel_config.rpc_window = n.max(1);
    }

    /// Streams one request sequence to one worker through a sliding
    /// window of `window` correlation-tagged in-flight requests, matching
    /// out-of-order replies back by correlation id. Returns responses in
    /// the batch's submission order.
    ///
    /// Unlike [`FedContext::call`], each request travels (and executes)
    /// as its own envelope: a failing request yields its own
    /// `Response::Error` without marking later independent requests as
    /// skipped. The worker still serializes requests whose symbol
    /// footprints conflict, so per-variable ordering matches the
    /// lock-step path exactly.
    ///
    /// Garbage piggy-backing and fault behavior are [`FedContext::call`]'s
    /// (both run the same exchange): on a transient transport failure the
    /// coordinator reconnects (when it knows the endpoint) and re-streams
    /// the batch; exhausting the budget drains the window into the typed
    /// failure ([`RuntimeError::WorkerDead`] for connection collapse), so
    /// supervision and checkpoint recovery fire exactly as they would for
    /// a lock-step RPC. Re-streams always start on a fresh connection, so
    /// stale replies from a failed attempt can never alias into the new
    /// window.
    pub fn call_streamed(
        &self,
        worker: usize,
        batch: &[Request],
        window: usize,
    ) -> Result<Vec<Response>> {
        self.exchange(worker, batch, Some(window.max(1)))
    }

    /// The one RPC exchange behind [`FedContext::call`] (`window` =
    /// `None`: the whole batch in one untagged envelope) and
    /// [`FedContext::call_streamed`] (`Some(w)`: one tagged envelope per
    /// request, `w` in flight).
    fn exchange(
        &self,
        worker: usize,
        batch: &[Request],
        window: Option<usize>,
    ) -> Result<Vec<Response>> {
        let conn = self
            .workers
            .get(worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no worker {worker}")))?;
        // Pending garbage leads the batch; its ack is stripped below.
        let garbage = self.take_garbage_ids(worker);
        let mut full: Vec<Request> = Vec::with_capacity(batch.len() + 1);
        if !garbage.is_empty() {
            full.push(Request::ExecInst {
                inst: crate::instruction::Instruction::Rmvar { ids: garbage },
            });
        }
        let prepended = full.len();
        full.extend_from_slice(batch);
        let requests = full.len() as u64;

        // Observability: one span per RPC, its context stamped onto every
        // envelope so worker-side spans join the same trace. Everything
        // (clock reads, metric-name formatting) is gated on the single
        // `enabled` flag; disabled runs take the exact pre-obs path.
        let obs_on = exdra_obs::enabled();
        let name = if window.is_some() {
            "rpc.stream"
        } else {
            "rpc.call"
        };
        let mut span = exdra_obs::span(SpanKind::Rpc, name);
        if span.is_active() {
            span.attr("worker", worker);
            span.attr("requests", requests);
            span.attr("kinds", request_kinds(&full));
            if let Some(w) = window {
                span.attr("window", w);
            }
        }
        let trace = span.context().into();

        let t_enc = obs_on.then(Instant::now);
        let envelopes: Vec<RpcEnvelope> = match window {
            None => vec![RpcEnvelope {
                trace,
                requests: full,
            }],
            Some(_) => full
                .into_iter()
                .map(|req| RpcEnvelope {
                    trace,
                    requests: vec![req],
                })
                .collect(),
        };
        let frames: Vec<Vec<u8>> = envelopes.iter().map(Wire::to_bytes).collect();
        let mut serde_nanos = t_enc.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // A streamed frame additionally carries the 16-byte correlation tag.
        let tag_bytes = if window.is_some() { 16 } else { 0 };
        let bytes_sent: u64 = frames.iter().map(|f| f.len() as u64 + tag_bytes).sum();

        let t_gate = obs_on.then(Instant::now);
        let _credit = GateGuard::acquire(self.gate(), worker, requests);
        let gate_wait_nanos = t_gate.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let policy = self.fault_policy();
        let deadline = Deadline::after(policy.rpc_deadline);
        let mut net_nanos = 0u64;
        let mut retries = 0u64;
        let StreamOutcome {
            replies,
            out_of_order,
            max_inflight,
        } = policy
            .retry
            .run(
                deadline,
                |attempt| {
                    if attempt > 0 {
                        retries += 1;
                        self.stats.record_retry();
                        // A failed attempt may have left a half-written
                        // frame (or stale replies) on the wire:
                        // re-establish the channel before resending when
                        // we know the endpoint.
                        if conn.endpoint.is_some() {
                            let _ = self.reconnect(worker);
                        }
                    }
                    let mut ch = conn.channel.lock();
                    let t_net = obs_on.then(Instant::now);
                    let r = match window {
                        None => ch.send(&frames[0]).and_then(|()| ch.recv()).map(|reply| {
                            StreamOutcome {
                                replies: vec![reply],
                                out_of_order: 0,
                                max_inflight: 0,
                            }
                        }),
                        Some(w) => stream_window(&mut **ch, &frames, w, &self.stats),
                    };
                    if let Some(t) = t_net {
                        net_nanos += t.elapsed().as_nanos() as u64;
                    }
                    r
                },
                classify_io,
            )
            .map_err(|e| rpc_failure(worker, &e))?;

        let t_dec = obs_on.then(Instant::now);
        let mut exec_nanos = 0u64;
        let mut bytes_recv = 0u64;
        let mut responses = Vec::with_capacity(requests as usize);
        for (frame, envelope) in replies.iter().zip(&envelopes) {
            bytes_recv += frame.len() as u64;
            let reply = RpcReply::from_bytes(frame)?;
            exec_nanos += reply.footer.exec_nanos;
            if reply.responses.len() != envelope.requests.len() {
                return Err(RuntimeError::Protocol(format!(
                    "worker {worker}: {} responses for {} requests",
                    reply.responses.len(),
                    envelope.requests.len()
                )));
            }
            responses.extend(reply.responses);
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
            if window.is_some() {
                span.attr("out_of_order", out_of_order);
                span.attr("max_inflight", max_inflight);
            }
        }
        if obs_on {
            let reg = exdra_obs::global();
            reg.record("rpc.gate_wait", gate_wait_nanos);
            record_rpc_metrics(RpcMetrics {
                worker,
                requests,
                bytes_sent,
                bytes_recv,
                net_nanos,
                exec_nanos,
                serde_nanos,
                retries,
            });
            if let Some(w) = window {
                reg.inc("pipeline.streams");
                reg.add("pipeline.requests", requests);
                reg.add("pipeline.ooo", out_of_order);
                reg.record("rpc.window", w as u64);
                reg.record("net.inflight", max_inflight);
            }
        }
        responses.drain(..prepended); // the rmvar ack (rmvar cannot fail)
        Ok(responses)
    }

    /// Sends one liveness probe to one worker and returns its
    /// `(epoch, load)`. Deliberately NOT retried: a missed heartbeat IS
    /// the failure-detection signal, so this is a single attempt against
    /// the standing channel, bounded only by the socket timeouts.
    pub fn heartbeat(&self, worker: usize) -> Result<(u64, u32)> {
        let conn = self
            .workers
            .get(worker)
            .ok_or_else(|| RuntimeError::Invalid(format!("no worker {worker}")))?;
        self.stats.record_heartbeat();
        let mut span = exdra_obs::span(SpanKind::Rpc, "rpc.heartbeat");
        if span.is_active() {
            span.attr("worker", worker);
            exdra_obs::global().inc("rpc.heartbeats");
        }
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

    fn take_garbage_ids(&self, worker: usize) -> Vec<u64> {
        let mut q = self.garbage.lock();
        match q.get_mut(worker) {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Sends per-worker request sequences in parallel (one thread per
    /// worker) and returns responses per worker. Workers with empty
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
        self.call_all_observed(batches, None)
    }

    /// Like [`FedContext::call_all_tolerant`], additionally recording
    /// each worker's successful round-trip wall time into a
    /// [`LatencyTracker`](exdra_fault::straggler::LatencyTracker) — the
    /// per-worker latency history that drives
    /// straggler-speculation deadlines and replica choice in the
    /// supervisor and quorum decisions in the parameter server.
    pub fn call_all_observed(
        &self,
        batches: Vec<Vec<Request>>,
        latency: Option<&exdra_fault::straggler::LatencyTracker>,
    ) -> Result<Vec<Result<Vec<Response>>>> {
        if batches.len() != self.workers.len() {
            return Err(RuntimeError::Invalid(format!(
                "{} batches for {} workers",
                batches.len(),
                self.workers.len()
            )));
        }
        // Per-worker RPC threads inherit the caller's span context so
        // their `rpc.call` spans parent into the surrounding trace.
        let parent = exdra_obs::current();
        // Multi-request batches stream through the pipelining window when
        // one is configured; single requests (and window 1) take the
        // legacy lock-step path, byte-for-byte the pre-pipelining wire
        // protocol.
        let window = self.rpc_window();
        let mut results: Vec<Result<Vec<Response>>> = Vec::with_capacity(batches.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .iter()
                .enumerate()
                .map(|(w, batch)| {
                    scope.spawn(move || {
                        let _trace = exdra_obs::propagate(parent);
                        if batch.is_empty() {
                            Ok(Vec::new())
                        } else {
                            let t0 = Instant::now();
                            let r = if window > 1 && batch.len() > 1 {
                                self.call_streamed(w, batch, window)
                            } else {
                                self.call(w, batch)
                            };
                            if r.is_ok() {
                                if let Some(tracker) = latency {
                                    tracker.record(w, t0.elapsed());
                                }
                            }
                            r
                        }
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap_or_else(|_| {
                    Err(RuntimeError::Network("worker RPC thread panicked".into()))
                }));
            }
        });
        Ok(results)
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

/// Result of one successful exchange attempt.
struct StreamOutcome {
    /// One raw reply frame per envelope, in submission order.
    replies: Vec<Vec<u8>>,
    /// Replies that arrived ahead of an earlier outstanding request.
    out_of_order: u64,
    /// High-water mark of concurrently in-flight requests.
    max_inflight: u64,
}

/// Drives one sliding-window exchange over a locked channel: sends the
/// frames correlation-tagged (corr = index + 1), keeps up to `window` in
/// flight, and routes replies by correlation id. Replies with unknown or
/// duplicate ids are discarded (stale duplicates from a lossy link).
fn stream_window(
    ch: &mut dyn Channel,
    frames: &[Vec<u8>],
    window: usize,
    stats: &NetStats,
) -> std::io::Result<StreamOutcome> {
    let mut replies: Vec<Option<Vec<u8>>> = vec![None; frames.len()];
    let mut pending: HashSet<u64> = HashSet::new();
    let mut next = 0usize;
    let mut out_of_order = 0u64;
    let mut max_inflight = 0u64;
    while next < frames.len() || !pending.is_empty() {
        if next < frames.len() && pending.len() < window {
            let corr = next as u64 + 1;
            ch.send(&tag_request(corr, &frames[next]))?;
            pending.insert(corr);
            next += 1;
            let inflight = pending.len() as u64;
            max_inflight = max_inflight.max(inflight);
            stats.record_pipelined(inflight);
            continue;
        }
        let frame = ch.recv()?;
        let (corr, body) = untag_reply(&frame)?;
        if !pending.remove(&corr) {
            continue;
        }
        if pending.iter().any(|&p| p < corr) {
            out_of_order += 1;
        }
        replies[corr as usize - 1] = Some(body.to_vec());
    }
    Ok(StreamOutcome {
        replies: replies
            .into_iter()
            .map(|r| r.expect("window drained with every correlation answered"))
            .collect(),
        out_of_order,
        max_inflight,
    })
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

struct RpcMetrics {
    worker: usize,
    requests: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    net_nanos: u64,
    exec_nanos: u64,
    serde_nanos: u64,
    retries: u64,
}

/// Feeds one finished RPC into the global metrics registry under the
/// naming conventions `exdra_obs::report` understands. Only called when
/// observability is enabled (metric-name formatting allocates).
fn record_rpc_metrics(m: RpcMetrics) {
    let reg = exdra_obs::global();
    reg.inc("rpc.calls");
    reg.add("rpc.requests", m.requests);
    reg.add("rpc.retries", m.retries);
    reg.record("rpc.latency", m.net_nanos);
    let w = m.worker;
    reg.inc(&format!("worker.{w}.rpcs"));
    reg.add(&format!("worker.{w}.requests"), m.requests);
    reg.add(&format!("worker.{w}.bytes_sent"), m.bytes_sent);
    reg.add(&format!("worker.{w}.bytes_recv"), m.bytes_recv);
    reg.add(&format!("worker.{w}.net_nanos"), m.net_nanos);
    reg.add(&format!("worker.{w}.exec_nanos"), m.exec_nanos);
    reg.add(&format!("worker.{w}.serde_nanos"), m.serde_nanos);
    reg.add(&format!("worker.{w}.retries"), m.retries);
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
        BrokenPipe | ConnectionReset | ConnectionAborted | ConnectionRefused | UnexpectedEof
        | NotConnected => RuntimeError::WorkerDead {
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
    fn call_streamed_matches_lockstep_results() {
        let (ctx, _workers) = mem_context(1);
        let mut batch = Vec::new();
        for i in 0..8u64 {
            batch.push(Request::Put {
                id: i + 1,
                data: DataValue::Scalar(i as f64),
                privacy: PrivacyLevel::Public,
            });
        }
        for i in 0..8u64 {
            batch.push(Request::Get { id: i + 1 });
        }
        let streamed = ctx.call_streamed(0, &batch, 4).unwrap();
        assert_eq!(streamed.len(), 16);
        for (i, r) in streamed[8..].iter().enumerate() {
            match r {
                Response::Data(DataValue::Scalar(v)) => assert_eq!(*v, i as f64),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(ctx.stats().pipelined_messages() >= 16);
        assert!(ctx.stats().max_inflight() >= 2, "window actually opened");
    }

    #[test]
    fn call_all_uses_window_when_configured() {
        let (ctx, workers) = mem_context(2);
        assert_eq!(ctx.rpc_window(), 1, "legacy lock-step by default");
        ctx.set_rpc_window(8);
        assert_eq!(ctx.rpc_window(), 8);
        ctx.set_rpc_window(0);
        assert_eq!(ctx.rpc_window(), 1, "window clamps to at least 1");
        ctx.set_rpc_window(8);
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
        assert!(
            ctx.stats().pipelined_messages() >= 12,
            "both workers streamed"
        );
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
mod garbage_tests {
    use super::*;
    use crate::fed::FedMatrix;
    use crate::privacy::PrivacyLevel;
    use crate::testutil::mem_federation;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn dropped_handles_clean_up_via_any_call() {
        // Garbage queued by dropped federated handles drains through plain
        // `call` traffic (e.g. parameter-server RPCs), not only through
        // federated matrix operations.
        let (ctx, workers) = mem_federation(2);
        let x = rand_matrix(20, 3, 0.0, 1.0, 1);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let ids: Vec<(usize, u64)> = fed.parts().iter().map(|p| (p.worker, p.id)).collect();
        drop(fed);
        // An unrelated direct RPC to each worker triggers the cleanup.
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
            // The piggybacked rmvar response is stripped: one response per
            // caller-visible request.
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
    fn empty_batch_with_pending_garbage() {
        let (ctx, workers) = mem_federation(1);
        let x = rand_matrix(10, 2, 0.0, 1.0, 2);
        let fed = FedMatrix::scatter_rows(&ctx, &x, PrivacyLevel::Public).unwrap();
        let id = fed.parts()[0].id;
        drop(fed);
        // A call with an empty caller batch still drains the queue.
        let rs = ctx.call(0, &[]).unwrap();
        assert!(rs.is_empty());
        assert!(!workers[0].table().contains(id));
    }
}
