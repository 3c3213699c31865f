//! The coordinator service: session admission, namespace allocation,
//! the shared plan cache, and fleet-wide supervision.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parking_lot::{Condvar, Mutex};

use exdra_core::coordinator::{FedContext, WorkerEndpoint};
use exdra_core::error::{FedError, Result};
use exdra_core::lineage::{CacheScope, LineageCache};
use exdra_core::protocol::Request;
use exdra_core::supervision::{SupervisionPolicy, Supervisor};
use exdra_fault::HealthState;
use exdra_net::transport::Channel;
use exdra_obs as obs;

use crate::scheduler::{FairScheduler, FairnessConfig, TenantGate};

/// Builds a fresh channel to worker `w` (used for per-session
/// connections and for supervisor reconnection after a worker restart).
pub type ChannelFactory = Arc<dyn Fn(usize) -> Result<Box<dyn Channel>> + Send + Sync>;

/// What a remote attach handshake yields: the allocated namespace, one
/// fresh channel per worker, and the session's stats handle.
pub(crate) type RawSession = (u64, Vec<Box<dyn Channel>>, Arc<TenantStats>);

/// How the service reaches its worker fleet.
#[derive(Clone)]
pub enum FleetSource {
    /// Standing TCP workers; every session gets its own connections.
    Tcp(Vec<WorkerEndpoint>),
    /// A channel factory (in-process or custom transports). The factory
    /// is consulted for every new session connection *and* by the
    /// supervisor when it reconnects a replaced worker, so tests swap in
    /// a replacement worker by swapping the factory
    /// ([`CoordService::set_channel_factory`]).
    Factory {
        /// Fleet size.
        n_workers: usize,
        /// Connection builder.
        factory: ChannelFactory,
    },
    /// The caller's own context, shared with the service's one session
    /// (`max_sessions` must be 1). That session keeps the context's
    /// namespace and id counter and runs ungated; closing it reaps
    /// nothing, because the caller owns those symbols. This is how a
    /// supervised `Session` over a bare context gets its supervisor.
    Context(Arc<FedContext>),
}

/// Tunables of a [`CoordService`].
#[derive(Clone)]
pub struct CoordConfig {
    /// Maximum concurrently admitted sessions.
    pub max_sessions: usize,
    /// How many session requests may queue for admission once
    /// `max_sessions` are active; beyond this the service answers with
    /// the typed [`FedError::SessionRejected`]. `0` rejects immediately.
    pub admission_queue: usize,
    /// Byte budget of the shared cross-session plan cache.
    pub plan_cache_bytes: usize,
    /// Per-tenant / global in-flight request limits.
    pub fairness: FairnessConfig,
    /// Supervision (heartbeat + checkpoint) policy for the fleet.
    pub supervision: SupervisionPolicy,
}

impl Default for CoordConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            admission_queue: 16,
            plan_cache_bytes: 256 * 1024 * 1024,
            fairness: FairnessConfig::default(),
            supervision: SupervisionPolicy::default(),
        }
    }
}

/// Per-session counters (cache attribution and RPC accounting).
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Shared-plan-cache hits attributed to this session.
    pub cache_hits: AtomicU64,
    /// Shared-plan-cache misses attributed to this session.
    pub cache_misses: AtomicU64,
}

impl TenantStats {
    /// Records one shared-cache probe outcome.
    pub fn record_probe(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One row of the live session table (the `/sessions` ops endpoint).
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// The session's symbol namespace.
    pub ns: u64,
    /// `"tenant"` for in-process sessions, `"remote"` for TCP attaches.
    pub kind: &'static str,
    /// Wall-clock admission time, milliseconds since the unix epoch.
    pub opened_unix_ms: u64,
    /// The session's live counters (shared with the session itself).
    pub stats: Arc<TenantStats>,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[derive(Default)]
struct AdmitState {
    active: usize,
    waiting: usize,
}

/// A long-lived multi-tenant coordinator over one worker fleet.
///
/// Owns the only [`Supervisor`] of the fleet (heartbeats, incremental
/// checkpoints, recovery), the shared plan cache, the fair scheduler,
/// and the admission queue. Sessions join in process through
/// [`CoordService::open_session`] or remotely through
/// [`crate::CoordServer`].
pub struct CoordService {
    fleet: FleetSource,
    config: CoordConfig,
    /// Service-level context: supervision traffic and namespace teardown
    /// broadcasts travel here, never on tenant connections.
    ctx: Arc<FedContext>,
    supervisor: Arc<Supervisor>,
    sup_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Shared cross-session plan cache (lineage-keyed).
    plan_cache: Arc<LineageCache>,
    scheduler: Arc<FairScheduler>,
    admit: Mutex<AdmitState>,
    admit_cond: Condvar,
    next_ns: AtomicU64,
    /// Replaceable factory for Factory fleets (tests swap in replacement
    /// workers here).
    factory: Mutex<Option<ChannelFactory>>,
    /// Serializes worker recovery across tenants so one restart is
    /// restored once, not once per session that noticed.
    recovery: Mutex<()>,
    /// Live session table keyed by namespace (the `/sessions` endpoint).
    sessions: Mutex<BTreeMap<u64, SessionInfo>>,
    shutdown: AtomicBool,
}

impl CoordService {
    /// Starts a service over `fleet` and spawns its supervision loop.
    pub fn start(fleet: FleetSource, config: CoordConfig) -> Result<Arc<Self>> {
        let (ctx, factory) = match &fleet {
            FleetSource::Tcp(eps) => (FedContext::connect(eps)?, None),
            FleetSource::Context(_) if config.max_sessions != 1 => {
                return Err(FedError::Config(format!(
                    "a context fleet serves exactly one session, not max_sessions = {}",
                    config.max_sessions
                )))
            }
            FleetSource::Context(ctx) => (Arc::clone(ctx), None),
            FleetSource::Factory { n_workers, factory } => {
                let channels = (0..*n_workers)
                    .map(|w| factory(w))
                    .collect::<Result<Vec<_>>>()?;
                (
                    FedContext::from_channels(channels)?,
                    Some(Arc::clone(factory)),
                )
            }
        };
        let supervisor = Supervisor::new(Arc::clone(&ctx), config.supervision);
        let plan_cache = Arc::new(LineageCache::new_scoped(
            config.plan_cache_bytes,
            true,
            CacheScope::Coordinator,
        ));
        let scheduler = FairScheduler::new(config.fairness);
        let service = Arc::new(Self {
            fleet,
            config,
            ctx,
            supervisor,
            sup_handle: Mutex::new(None),
            plan_cache,
            scheduler,
            admit: Mutex::new(AdmitState::default()),
            admit_cond: Condvar::new(),
            next_ns: AtomicU64::new(1), // 0 = service/legacy namespace
            factory: Mutex::new(factory),
            recovery: Mutex::new(()),
            sessions: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        });
        if service.factory.lock().is_some() {
            let weak = Arc::downgrade(&service);
            service.supervisor.set_reconnector(Box::new(move |w| {
                let service = weak.upgrade()?;
                let factory = service.factory.lock().clone()?;
                factory(w).ok()
            }));
        }
        *service.sup_handle.lock() = Some(service.supervisor.run());
        Ok(service)
    }

    /// Replaces the channel factory of a Factory fleet (the supervisor
    /// and all future session connections use the new one). Tests use
    /// this to stand in a replacement worker after killing one.
    pub fn set_channel_factory(&self, factory: ChannelFactory) {
        *self.factory.lock() = Some(factory);
    }

    /// The shared cross-session plan cache.
    pub fn plan_cache(&self) -> &Arc<LineageCache> {
        &self.plan_cache
    }

    /// The fair scheduler gating all tenant RPC traffic.
    pub fn scheduler(&self) -> &Arc<FairScheduler> {
        &self.scheduler
    }

    /// The fleet supervisor (one per service — see struct docs).
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// The service-level context (supervision + teardown traffic).
    pub fn context(&self) -> &Arc<FedContext> {
        &self.ctx
    }

    /// Number of workers in the fleet.
    pub fn num_workers(&self) -> usize {
        self.ctx.num_workers()
    }

    /// Currently admitted sessions.
    pub fn active_sessions(&self) -> usize {
        self.admit.lock().active
    }

    fn admit_one(&self) -> Result<()> {
        let mut st = self.admit.lock();
        if st.active < self.config.max_sessions {
            st.active += 1;
            return Ok(());
        }
        if st.waiting >= self.config.admission_queue {
            obs::global().inc("coord.sessions.rejected");
            if obs::recorder::enabled() {
                obs::recorder::incident(
                    "session_rejected",
                    0,
                    &format!(
                        "admission queue full: {} active / {} max, {} waiting",
                        st.active, self.config.max_sessions, st.waiting
                    ),
                );
            }
            return Err(FedError::SessionRejected {
                active: st.active,
                max: self.config.max_sessions,
            });
        }
        st.waiting += 1;
        while st.active >= self.config.max_sessions && !self.shutdown.load(Ordering::SeqCst) {
            st = self.admit_cond.wait(st);
        }
        st.waiting -= 1;
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(FedError::SessionRejected {
                active: st.active,
                max: self.config.max_sessions,
            });
        }
        st.active += 1;
        Ok(())
    }

    fn release_slot(&self) {
        let mut st = self.admit.lock();
        st.active = st.active.saturating_sub(1);
        drop(st);
        self.admit_cond.notify_one();
    }

    /// A fresh channel to worker `w`: a new session's, or a repair
    /// after the supervisor replaced the worker.
    pub(crate) fn make_channel(&self, w: usize) -> Result<Box<dyn Channel>> {
        match &self.fleet {
            FleetSource::Tcp(_) => self.ctx.connect_extra(w),
            FleetSource::Factory { .. } => {
                let factory = self.factory.lock().clone().ok_or_else(|| {
                    FedError::Invalid("factory fleet without a channel factory".into())
                })?;
                factory(w)
            }
            FleetSource::Context(_) => Err(FedError::Unsupported(
                "a context fleet has no connections to hand out".into(),
            )),
        }
    }

    /// Admits a new in-process session: allocates a namespace, opens
    /// per-session connections to every worker, and installs the fair-
    /// scheduler gate. Returns [`FedError::SessionRejected`] when the
    /// admission queue is full.
    pub fn open_session(self: &Arc<Self>) -> Result<Arc<Tenant>> {
        self.admit_one()?;
        match self.open_admitted() {
            Ok(t) => Ok(t),
            Err(e) => {
                self.release_slot();
                Err(e)
            }
        }
    }

    fn open_admitted(self: &Arc<Self>) -> Result<Arc<Tenant>> {
        let ctx = match &self.fleet {
            // The caller owns the context and its symbols: resetting its
            // namespace would re-issue ids the caller still holds.
            FleetSource::Context(ctx) => Arc::clone(ctx),
            // Tenant contexts over TCP keep their endpoints so plain RPC
            // retries can reconnect without service involvement.
            FleetSource::Tcp(eps) => self.namespaced(FedContext::connect(eps)?),
            FleetSource::Factory { .. } => {
                let channels = (0..self.num_workers())
                    .map(|w| self.make_channel(w))
                    .collect::<Result<Vec<_>>>()?;
                self.namespaced(FedContext::from_channels(channels)?)
            }
        };
        let ns = ctx.namespace();
        obs::global().inc("coord.sessions.admitted");
        let stats = Arc::new(TenantStats::default());
        self.register_session(ns, "tenant", &stats);
        Ok(Arc::new(Tenant {
            ns,
            ctx,
            stats,
            service: Arc::clone(self),
            closed: AtomicBool::new(false),
        }))
    }

    /// Moves a fresh tenant context into its own namespace behind the
    /// fair-scheduler gate.
    fn namespaced(&self, ctx: Arc<FedContext>) -> Arc<FedContext> {
        let ns = self.next_ns.fetch_add(1, Ordering::Relaxed);
        ctx.set_namespace(ns);
        ctx.set_rpc_gate(Some(TenantGate::new(Arc::clone(&self.scheduler), ns)));
        ctx
    }

    fn register_session(&self, ns: u64, kind: &'static str, stats: &Arc<TenantStats>) {
        self.sessions.lock().insert(
            ns,
            SessionInfo {
                ns,
                kind,
                opened_unix_ms: unix_ms(),
                stats: Arc::clone(stats),
            },
        );
        if obs::recorder::enabled() {
            obs::recorder::event("coord", format!("session ns={ns} admitted ({kind})"));
        }
    }

    /// A snapshot of the live session table, namespace-ordered.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        self.sessions.lock().values().cloned().collect()
    }

    /// Allocates a namespace + per-worker channels for a *remote*
    /// session (the TCP attach path, where the client runs its own
    /// context over tunneled channels). Same admission control as
    /// [`CoordService::open_session`].
    pub(crate) fn open_session_raw(self: &Arc<Self>) -> Result<RawSession> {
        self.admit_one()?;
        let ns = self.next_ns.fetch_add(1, Ordering::Relaxed);
        let channels = match (0..self.num_workers())
            .map(|w| self.make_channel(w))
            .collect::<Result<Vec<_>>>()
        {
            Ok(chs) => chs,
            Err(e) => {
                self.release_slot();
                return Err(e);
            }
        };
        obs::global().inc("coord.sessions.admitted");
        let stats = Arc::new(TenantStats::default());
        self.register_session(ns, "remote", &stats);
        Ok((ns, channels, stats))
    }

    /// Reaps namespace `ns` on every worker and frees its admission
    /// slot. Broadcast on the service's own connections, so it works
    /// even when the departing session's channels are dead. A context
    /// fleet reaps nothing: its caller owns the symbols.
    pub(crate) fn close_namespace(&self, ns: u64) {
        if !matches!(self.fleet, FleetSource::Context(_)) {
            for w in 0..self.num_workers() {
                let _ = self.ctx.call(w, &[Request::ClearNamespace { ns }]);
            }
        }
        self.scheduler.forget_tenant(ns);
        self.sessions.lock().remove(&ns);
        self.release_slot();
        obs::global().inc("coord.sessions.closed");
        if obs::recorder::enabled() {
            obs::recorder::event("coord", format!("session ns={ns} closed"));
        }
    }

    /// Service-level worker recovery: exactly one tenant drives the
    /// supervisor (restore covers *every* namespace, because checkpoints
    /// span the whole symbol table); the rest observe the held mutex and
    /// find the worker healthy again. Callers then repair their own
    /// session connection to the replacement worker.
    pub fn recover_worker(&self, w: usize) -> Result<()> {
        let _guard = self.recovery.lock();
        // The reporting tenant saw a failure the background heartbeat
        // may not have caught yet: while the detector still claims
        // Healthy, verify with a direct probe before concluding that
        // nothing needs recovering.
        if self.supervisor.detector().state(w) == HealthState::Healthy
            && self.ctx.heartbeat(w).is_err()
        {
            self.supervisor.notify_worker_dead(w);
        }
        if self.supervisor.detector().state(w) != HealthState::Healthy {
            self.supervisor.wait_recoveries();
        }
        Ok(())
    }

    /// Stops the supervision loop. Idempotent; called on drop.
    pub fn stop(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.admit_cond.notify_all();
        self.supervisor.stop();
        if let Some(h) = self.sup_handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for CoordService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One admitted in-process session: a namespaced, gated [`FedContext`]
/// plus per-session cache attribution. Dropping (or [`Tenant::close`])
/// reaps the namespace on every worker and frees the admission slot.
pub struct Tenant {
    ns: u64,
    ctx: Arc<FedContext>,
    stats: Arc<TenantStats>,
    service: Arc<CoordService>,
    closed: AtomicBool,
}

impl Tenant {
    /// The session's symbol namespace.
    pub fn namespace(&self) -> u64 {
        self.ns
    }

    /// The session's own federated context (namespaced and gated).
    pub fn context(&self) -> &Arc<FedContext> {
        &self.ctx
    }

    /// Per-session counters.
    pub fn stats(&self) -> &Arc<TenantStats> {
        &self.stats
    }

    /// The owning service.
    pub fn service(&self) -> &Arc<CoordService> {
        &self.service
    }

    /// Recovers worker `w` after this session observed it dead: drives
    /// the shared supervisor (at most once fleet-wide per failure),
    /// repairs this session's own channel to the replacement, then waits
    /// up to `timeout` for the supervisor to see `w` healthy. Returns
    /// the repair's error, or [`FedError::WorkerDead`] on timeout.
    pub fn recover(&self, w: usize, timeout: Duration) -> Result<()> {
        let repaired = self
            .service
            .recover_worker(w)
            .and_then(|()| match &self.service.fleet {
                FleetSource::Tcp(_) => self.ctx.reconnect(w),
                FleetSource::Factory { .. } => {
                    self.ctx.replace_channel(w, self.service.make_channel(w)?)
                }
                // The supervisor already replaced the one shared channel.
                FleetSource::Context(_) => Ok(()),
            });
        let sup = &self.service.supervisor;
        let healthy = sup.wait_until(timeout, || sup.detector().state(w) == HealthState::Healthy);
        repaired?;
        if healthy {
            Ok(())
        } else {
            Err(FedError::WorkerDead {
                worker: w,
                msg: "the service could not recover the worker in time".into(),
            })
        }
    }

    /// Closes the session: reaps the namespace on every worker and frees
    /// the admission slot. Idempotent.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.service.close_namespace(self.ns);
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_core::testutil::mem_federation;

    #[test]
    fn a_context_fleet_serves_exactly_one_session() {
        let (ctx, _workers) = mem_federation(2);
        let config = CoordConfig {
            max_sessions: 2,
            ..CoordConfig::default()
        };
        let err = CoordService::start(FleetSource::Context(ctx), config)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FedError::Config(_)), "{err:?}");
    }
}
