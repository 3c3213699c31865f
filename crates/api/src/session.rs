//! Sessions: the entry point mirroring `SystemDSContext` of the Python API.
//!
//! A session is either *local* (no federation; everything executes
//! in-memory at the coordinator) or *connected* to standing federated
//! workers, in which case `federated(...)`/`read_federated_csv(...)`
//! produce lazily-evaluated federated matrices — the
//! `Federated(sds, [node1, node2], ...)` constructor of paper §3.2.
//!
//! Sessions are configured through the typed [`SessionBuilder`]:
//!
//! ```no_run
//! use exdra_api::session::Session;
//! use exdra_core::supervision::SupervisionPolicy;
//! use exdra_core::PrivacyLevel;
//!
//! let sds = Session::builder()
//!     .connect(&["site-a:8001".into(), "site-b:8001".into()])
//!     .privacy(PrivacyLevel::PrivateAggregate { min_group: 10 })
//!     .supervision(SupervisionPolicy::default())
//!     .build()
//!     .unwrap();
//! ```
//!
//! Connected sessions built this way are **self-healing**: the session
//! is the one tenant of an in-process [`CoordService`] over its own
//! context, whose [`Supervisor`] heartbeats the workers, checkpoints
//! their variable environments, and — when a worker dies — restores its
//! state onto the re-established channel, so an exploratory computation
//! survives worker restarts.

use std::sync::Arc;
use std::time::Duration;

use exdra_coord::{AttachedClient, CoordConfig, CoordService, FleetSource, Tenant};
use exdra_core::coordinator::WorkerEndpoint;
use exdra_core::fed::prep::FedFrame;
use exdra_core::fed::FedMatrix;
use exdra_core::lineage::CachedEntry;
use exdra_core::protocol::ReadFormat;
use exdra_core::supervision::{SupervisionPolicy, Supervisor};
use exdra_core::value::DataValue;
use exdra_core::{FedContext, FedError, PrivacyLevel, Result};
use exdra_matrix::{DenseMatrix, Frame};
use exdra_obs::{Explain, NetTotals, RunReport};

use crate::dag::Lazy;
use crate::optimizer::{Optimizer, ProfileCostModel};
use crate::plan::Plan;

/// How many times [`Session::compute`] re-attempts a plan after a worker
/// death while background recovery brings the worker back.
const RECOVERY_ATTEMPTS: usize = 5;

/// How long [`Session::compute`] waits for its coordinator service to
/// report a recovered worker serviceable again.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// Where a [`SessionBuilder`] gets its runtime from.
enum Target {
    Local,
    Context(Arc<FedContext>),
    Connect(Vec<String>),
    /// An admitted multi-tenant session (in-process coordinator service).
    Tenant(Arc<Tenant>),
    /// Attach to a remote coordinator service over TCP.
    Attach(String),
}

/// Typed, fluent configuration for a [`Session`].
///
/// Obtained via [`Session::builder`]. All knobs are optional; `build()`
/// on the default builder yields a plain local session.
pub struct SessionBuilder {
    target: Target,
    privacy: PrivacyLevel,
    supervision: Option<SupervisionPolicy>,
    optimizer: Option<Optimizer>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self {
            target: Target::Local,
            privacy: PrivacyLevel::Public,
            supervision: Some(SupervisionPolicy::default()),
            optimizer: None,
        }
    }
}

impl SessionBuilder {
    /// Connects the session to standing federated workers by address.
    pub fn connect(mut self, addresses: &[String]) -> Self {
        self.target = Target::Connect(addresses.to_vec());
        self
    }

    /// Runs the session over an existing context (in-process
    /// federations, custom transports).
    pub fn context(mut self, ctx: Arc<FedContext>) -> Self {
        self.target = Target::Context(ctx);
        self
    }

    /// Runs the session as an admitted tenant of an in-process
    /// [`CoordService`]. The session reuses the tenant's namespaced,
    /// fairness-gated context, shares the service's cross-session plan
    /// cache, and delegates worker recovery to the service's supervisor
    /// — per-session [`SessionBuilder::supervision`] settings are
    /// ignored.
    pub fn tenant(mut self, tenant: Arc<Tenant>) -> Self {
        self.target = Target::Tenant(tenant);
        self
    }

    /// Attaches the session to a *remote* coordinator service at `addr`
    /// (an [`exdra_coord::CoordServer`]). RPC travels multiplexed over
    /// one socket, plan-cache probes hit the server's shared cache, and
    /// recovery is delegated to the server; per-session supervision
    /// settings are ignored.
    pub fn attach(mut self, addr: &str) -> Self {
        self.target = Target::Attach(addr.to_string());
        self
    }

    /// Privacy constraint attached to federated data created by this
    /// session (default: [`PrivacyLevel::Public`]).
    pub fn privacy(mut self, privacy: PrivacyLevel) -> Self {
        self.privacy = privacy;
        self
    }

    /// Supervision policy for connected sessions: heartbeat and
    /// checkpoint cadence. The default is
    /// `SupervisionPolicy::default()` (supervision on, 1s checkpoints).
    /// A supervised `connect`/`context` session is the one tenant of a
    /// one-slot [`CoordService`] over its own context, whose supervisor
    /// runs with this policy.
    pub fn supervision(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Disables background supervision entirely (no heartbeat thread,
    /// no checkpoints, no automatic recovery): the session runs on its
    /// bare context, with no coordinator service behind it.
    pub fn no_supervision(mut self) -> Self {
        self.supervision = None;
        self
    }

    /// Replaces the session's plan [`Optimizer`]. The default is
    /// [`Optimizer::new`] — the `cse`/`fuse-ops` pipeline. Pass
    /// [`Optimizer::disabled`] to execute plans exactly as written (the
    /// A/B baseline for benches), or an optimizer extended with custom
    /// [`crate::OptimizerRule`]s via [`Optimizer::with_rule`]. Every
    /// built-in rewrite preserves bitwise-identical results at every
    /// thread count.
    pub fn optimizer(mut self, optimizer: Optimizer) -> Self {
        self.optimizer = Some(optimizer);
        self
    }

    /// Builds the session, connecting to workers if needed and starting
    /// the coordinator service that supervises connected sessions
    /// (unless [`SessionBuilder::no_supervision`] was called).
    pub fn build(self) -> Result<Session> {
        let mut tenant = None;
        let mut attached = None;
        let ctx = match self.target {
            Target::Local => None,
            Target::Context(ctx) => Some(ctx),
            Target::Connect(addresses) => {
                let endpoints: Vec<WorkerEndpoint> = addresses
                    .iter()
                    .map(|a| WorkerEndpoint::tcp(a.clone()))
                    .collect();
                Some(FedContext::connect(&endpoints)?)
            }
            Target::Tenant(t) => {
                let ctx = Arc::clone(t.context());
                tenant = Some(t);
                Some(ctx)
            }
            Target::Attach(addr) => {
                let client = AttachedClient::connect(&addr)?;
                let ctx = FedContext::from_channels(client.tunnels())?;
                ctx.set_namespace(client.namespace());
                attached = Some(client);
                Some(ctx)
            }
        };
        if let (Some(ctx), Some(policy), None, None) = (&ctx, self.supervision, &tenant, &attached)
        {
            tenant = Some(supervised_tenant(Arc::clone(ctx), policy)?);
        }
        Ok(Session {
            ctx,
            privacy: self.privacy,
            tenant,
            attached,
            optimizer: Arc::new(self.optimizer.unwrap_or_default()),
        })
    }
}

/// A supervised session over its own context is the one tenant of a
/// one-slot [`CoordService`] over that same context: the service alone
/// runs the supervisor, holds the plan cache and recovers workers.
fn supervised_tenant(ctx: Arc<FedContext>, policy: SupervisionPolicy) -> Result<Arc<Tenant>> {
    let config = CoordConfig {
        max_sessions: 1,
        admission_queue: 0,
        plan_cache_bytes: 0,
        supervision: policy,
        ..CoordConfig::default()
    };
    CoordService::start(FleetSource::Context(ctx), config)?.open_session()
}

/// A user session against a (possibly federated) runtime.
pub struct Session {
    ctx: Option<Arc<FedContext>>,
    privacy: PrivacyLevel,
    /// Set for sessions admitted by an in-process coordinator service,
    /// including the supervised sessions over their own context.
    tenant: Option<Arc<Tenant>>,
    /// Set for sessions attached to a remote coordinator over TCP.
    attached: Option<Arc<AttachedClient>>,
    /// The logical-plan optimizer every compute routes through.
    optimizer: Arc<Optimizer>,
}

impl Session {
    /// Starts configuring a session. See [`SessionBuilder`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Local session: no federated workers.
    pub fn local() -> Self {
        Session {
            ctx: None,
            privacy: PrivacyLevel::Public,
            tenant: None,
            attached: None,
            optimizer: Arc::new(Optimizer::new()),
        }
    }

    /// Connects to standing federated workers by address, with default
    /// supervision. Shorthand for `Session::builder().connect(..).build()`.
    pub fn connect(addresses: &[String]) -> Result<Self> {
        Session::builder().connect(addresses).build()
    }

    /// Attaches to a remote coordinator service. Shorthand for
    /// `Session::builder().attach(addr).build()`; returns the typed
    /// [`FedError::SessionRejected`] when the coordinator is at
    /// capacity.
    pub fn attach(addr: &str) -> Result<Self> {
        Session::builder().attach(addr).build()
    }

    /// Session over an admitted coordinator tenant. Shorthand for
    /// `Session::builder().tenant(tenant).build()`.
    pub fn from_tenant(tenant: Arc<Tenant>) -> Result<Self> {
        Session::builder().tenant(tenant).build()
    }

    /// The supervisor of this session's in-process coordinator service,
    /// if it has one (a tenant, supervised or admitted).
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.tenant.as_ref().map(|t| t.service().supervisor())
    }

    /// The coordinator tenant, if this session was admitted by an
    /// in-process [`CoordService`] (a supervised `connect`/`context`
    /// session is one, of its own one-slot service).
    pub fn tenant(&self) -> Option<&Arc<Tenant>> {
        self.tenant.as_ref()
    }

    /// The attach client, if this session is attached to a remote
    /// coordinator.
    pub fn attached(&self) -> Option<&Arc<AttachedClient>> {
        self.attached.as_ref()
    }

    /// Computes a plan like [`Lazy::compute`], additionally memoizing the
    /// consolidated result in the plan cache of the session's coordinator
    /// service, if it has one. Cache entries are only written after a
    /// successful compute, so privacy enforcement is unaffected: a plan
    /// whose consolidation is rejected never lands in the cache.
    ///
    /// On a session with a coordinator service (a tenant, in process or
    /// attached), a plan that fails because a worker died asks the
    /// service to recover the worker and re-attempts the plan once the
    /// worker is back, up to a bounded number of rounds.
    pub fn compute(&self, plan: &Lazy) -> Result<DenseMatrix> {
        let mut attempts = 0;
        loop {
            match self.compute_once(plan) {
                Err(FedError::WorkerDead { worker, msg }) => {
                    if attempts >= RECOVERY_ATTEMPTS {
                        return Err(FedError::WorkerDead { worker, msg });
                    }
                    attempts += 1;
                    // Either way the service restores the worker and this
                    // call waits for it before the next round.
                    if let Some(tenant) = &self.tenant {
                        let _ = tenant.recover(worker, RECOVERY_TIMEOUT);
                    } else if let Some(client) = &self.attached {
                        let _ = client.recover(worker, RECOVERY_TIMEOUT);
                    } else {
                        return Err(FedError::WorkerDead { worker, msg });
                    }
                }
                other => return other,
            }
        }
    }

    fn compute_once(&self, plan: &Lazy) -> Result<DenseMatrix> {
        // One span per attempt covering the whole cache-probe + compute
        // path, so a `session.explain` root attributes essentially all
        // of its wall time to direct children (see `explain_analyze`).
        let _span = exdra_obs::span(exdra_obs::SpanKind::Session, "session.compute");
        self.compute_once_inner(plan)
    }

    /// Lowers the DAG into the plan IR, runs the optimizer pipeline, and
    /// executes the optimized plan — the single execution path under
    /// every [`Session::compute`] variant. ([`Lazy::compute`] remains the
    /// raw unoptimized path for A/B comparisons.)
    fn execute_plan(&self, plan: &Lazy) -> Result<DenseMatrix> {
        let (optimized, _fires) = self.optimizer.optimize(&Plan::from_lazy(plan));
        optimized.compute()
    }

    fn compute_once_inner(&self, plan: &Lazy) -> Result<DenseMatrix> {
        // Attached sessions probe the server's shared cache over the
        // attach socket; a lost connection degrades to plain compute.
        if let Some(client) = &self.attached {
            let key = plan.lineage_hash();
            if let Some(hit) = client.cache_probe(key).ok().flatten() {
                return Ok(hit.value.as_matrix()?.to_dense());
            }
            let result = self.execute_plan(plan)?;
            let _ = client.cache_put(
                key,
                &CachedEntry {
                    value: Arc::new(DataValue::from(result.clone())),
                    privacy: PrivacyLevel::Public,
                    releasable: true,
                },
            );
            return Ok(result);
        }
        let Some(tenant) = &self.tenant else {
            return self.execute_plan(plan);
        };
        let cache = tenant.service().plan_cache();
        let key = plan.lineage_hash();
        if let Some(hit) = cache.probe(key) {
            tenant.stats().record_probe(true);
            return Ok(hit.value.as_matrix()?.to_dense());
        }
        tenant.stats().record_probe(false);
        let result = self.execute_plan(plan)?;
        cache.insert(
            key,
            CachedEntry {
                value: Arc::new(DataValue::from(result.clone())),
                privacy: PrivacyLevel::Public,
                releasable: true,
            },
        );
        Ok(result)
    }

    /// `EXPLAIN` for a plan: lowers the DAG into the logical plan IR,
    /// runs the session's [`Optimizer`] pipeline, and returns the
    /// [`Explain`] report — the logical and optimized scripts, the
    /// per-rule rewrite counts, and the default [`ProfileCostModel`]'s
    /// estimate for both.
    /// Nothing executes; print the report with `{}`.
    pub fn explain(&self, plan: &Lazy) -> Explain {
        let logical = Plan::from_lazy(plan);
        let (optimized, rules) = self.optimizer.optimize(&logical);
        let cost = ProfileCostModel::default();
        Explain {
            estimated_logical: logical.estimate(&cost),
            estimated_optimized: optimized.estimate(&cost),
            logical: logical.render(),
            optimized: optimized.render(),
            rules,
            analyzed: None,
        }
    }

    /// `EXPLAIN ANALYZE` for a plan: [`Session::explain`] plus a run.
    /// Computes the plan like [`Session::compute`] while tracing it
    /// under a `session.explain` root span, then folds that trace's
    /// spans through the rows that fill `/metrics` into the report's
    /// `analyzed` section: a [`RunReport`] profile (per-worker series,
    /// every opcode's own time), the compute/network/serde/queue split
    /// read from it, the recovery time and the critical path — so the
    /// one `Display` shows estimated and actual side by side.
    ///
    /// Tracing is force-enabled for the duration of the call and
    /// restored afterwards, so this works without
    /// [`exdra_obs::set_enabled`]. Nothing is written to disk: a caller
    /// that wants the cost profile as a file writes
    /// `explain.analyzed`'s `profile.to_json()` where it chooses, the
    /// same document a `RunReport` sidecar holds.
    pub fn explain_analyze(&self, plan: &Lazy) -> Result<(DenseMatrix, Explain)> {
        let mut explain = self.explain(plan);
        let was_on = exdra_obs::enabled();
        exdra_obs::set_enabled(true);
        let (result, root_id) = {
            let root = exdra_obs::span(exdra_obs::SpanKind::Session, "session.explain");
            let root_id = root.context().span_id;
            (self.compute(plan), root_id)
        }; // root closes here, before the snapshot below
        let spans = exdra_obs::snapshot_spans();
        if !was_on {
            exdra_obs::set_enabled(false);
        }
        let result = result?;
        let analysis = exdra_obs::analyze(&spans, root_id).ok_or_else(|| {
            FedError::Invalid("explain_analyze: no trace recorded for this run".into())
        })?;
        explain.analyzed = Some(analysis);
        Ok((result, explain))
    }

    /// Snapshot of everything the observability layer saw so far: the
    /// global metrics registry rolled up into per-worker breakdowns and
    /// every opcode's instruction profile, plus (for connected sessions) the
    /// context's transport-level `NetStats` totals for cross-checking
    /// span-derived network time against transport-measured time.
    pub fn profile(&self) -> RunReport {
        let mut report = RunReport::from_global();
        if let Some(ctx) = &self.ctx {
            let s = ctx.stats().snapshot();
            report.net = Some(NetTotals {
                bytes_sent: s.bytes_sent,
                bytes_received: s.bytes_received,
                messages_sent: s.messages_sent,
                messages_received: s.messages_received,
                network_nanos: s.network_nanos,
                retries: s.retries,
                heartbeats: s.heartbeats,
                recoveries: s.recoveries,
            });
        }
        report
    }

    /// The federated context, if connected.
    pub fn ctx(&self) -> Option<&Arc<FedContext>> {
        self.ctx.as_ref()
    }

    fn require_ctx(&self) -> Result<&Arc<FedContext>> {
        self.ctx
            .as_ref()
            .ok_or_else(|| FedError::Invalid("session is not connected to workers".into()))
    }

    /// Wraps a local matrix.
    pub fn matrix(&self, m: DenseMatrix) -> Lazy {
        Lazy::from_local(m)
    }

    /// Creates a federated matrix by scattering rows of a local matrix
    /// (tests/benches; production uses `read_federated_csv`).
    pub fn federated(&self, m: &DenseMatrix) -> Result<Lazy> {
        let ctx = self.require_ctx()?;
        Ok(Lazy::from_fed(FedMatrix::scatter_rows(
            ctx,
            m,
            self.privacy,
        )?))
    }

    /// Creates a federated matrix from worker-local CSV files
    /// (`files[w] = (fname, rows)`), read on demand at the sites.
    pub fn read_federated_csv(&self, files: &[(String, usize)], cols: usize) -> Result<Lazy> {
        let ctx = self.require_ctx()?;
        let specs: Vec<(String, ReadFormat, usize)> = files
            .iter()
            .map(|(f, rows)| (f.clone(), ReadFormat::MatrixCsv, *rows))
            .collect();
        Ok(Lazy::from_fed(FedMatrix::read_row_partitioned(
            ctx,
            &specs,
            cols,
            self.privacy,
        )?))
    }

    /// Creates a federated frame from per-site frames (raw heterogeneous
    /// data for `transform_encode`).
    pub fn federated_frame(&self, frames: &[Frame]) -> Result<FedFrame> {
        let ctx = self.require_ctx()?;
        FedFrame::from_site_frames(ctx, frames, self.privacy)
    }

    /// Federated `transformencode`: encodes a federated frame and returns
    /// the (lazy) encoded matrix plus the metadata frame.
    pub fn transform_encode(
        &self,
        frame: &FedFrame,
        spec: &exdra_transform::TransformSpec,
    ) -> Result<(Lazy, exdra_transform::TransformMeta)> {
        let (fed, meta) = frame.transform_encode(spec)?;
        Ok((Lazy::from_fed(fed), meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_core::testutil::mem_federation;
    use exdra_matrix::rng::rand_matrix;

    #[test]
    fn local_session_computes() {
        let sds = Session::local();
        let x = sds.matrix(rand_matrix(10, 3, 0.0, 1.0, 1));
        let s = x.sum().compute_scalar().unwrap();
        assert!(s > 0.0);
        assert!(sds.federated(&rand_matrix(10, 3, 0.0, 1.0, 2)).is_err());
    }

    #[test]
    fn federated_session_matches_local() {
        let (ctx, _workers) = mem_federation(3);
        let sds = Session::builder().context(ctx).build().unwrap();
        assert!(sds.supervisor().is_some(), "builder starts supervision");
        let m = rand_matrix(60, 5, -1.0, 1.0, 3);
        let fed = sds.federated(&m).unwrap();
        let local = Session::local().matrix(m);
        let a = fed.tsmm().unwrap().compute().unwrap();
        let b = local.tsmm().unwrap().compute().unwrap();
        assert!(a.max_abs_diff(&b) < 1e-10);
    }

    #[test]
    fn paper_snippet_shape() {
        // features = Federated(sds, ...); model = features.l2svm(labels)
        let (ctx, _workers) = mem_federation(2);
        let sds = Session::builder().context(ctx).build().unwrap();
        let (x, y) = exdra_ml::synth::two_class(100, 4, 0.05, 4);
        let features = sds.federated(&x).unwrap();
        let model = features.l2svm(&y).unwrap();
        assert_eq!(model.weights.rows(), 4);
    }

    #[test]
    fn plan_cache_reuses_identical_plans() {
        let (service, _workers) = mem_service(2);
        let sds = Session::from_tenant(service.open_session().unwrap()).unwrap();
        let m = rand_matrix(40, 4, -1.0, 1.0, 7);
        let fed = sds.federated(&m).unwrap();

        // Two structurally identical plans, built independently.
        let p1 = fed.tsmm().unwrap();
        let p2 = fed.tsmm().unwrap();
        assert_eq!(p1.lineage_hash(), p2.lineage_hash());

        let a = sds.compute(&p1).unwrap();
        let b = sds.compute(&p2).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-15);
        let cache = service.plan_cache();
        assert_eq!(cache.hits(), 1, "second compute served from plan cache");
        assert_eq!(cache.misses(), 1);

        // A different plan misses.
        let p3 = fed.sum();
        assert_ne!(p3.lineage_hash(), p1.lineage_hash());
        sds.compute(&p3).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn profile_reports_transport_totals() {
        let (ctx, _workers) = mem_federation(2);
        let sds = Session::builder()
            .context(ctx)
            .no_supervision()
            .build()
            .unwrap();
        let m = rand_matrix(30, 3, 0.0, 1.0, 9);
        let fed = sds.federated(&m).unwrap();
        fed.sum().compute_scalar().unwrap();
        let report = sds.profile();
        let net = report.net.expect("connected session reports net totals");
        assert!(net.messages_sent > 0);
        assert!(net.bytes_sent > 0);
        assert!(Session::local().profile().net.is_none());
    }

    #[test]
    fn privacy_flows_into_created_data() {
        let (ctx, _workers) = mem_federation(2);
        let sds = Session::builder()
            .context(ctx)
            .privacy(PrivacyLevel::Private)
            .no_supervision()
            .build()
            .unwrap();
        let m = rand_matrix(20, 3, 0.0, 1.0, 5);
        let fed = sds.federated(&m).unwrap();
        // Consolidation of private data must fail.
        assert!(matches!(fed.compute(), Err(FedError::Privacy(_))));
    }

    #[test]
    fn supervised_compute_survives_worker_death() {
        use exdra_core::supervision::Channel;
        use exdra_core::worker::{Worker, WorkerConfig};

        let workers: Vec<Arc<Worker>> = (0..2)
            .map(|_| Worker::new(WorkerConfig::default()))
            .collect();
        let channels: Vec<Box<dyn Channel>> = workers
            .iter()
            .map(|w| Box::new(w.serve_mem()) as Box<dyn Channel>)
            .collect();
        let ctx = FedContext::from_channels(channels).unwrap();
        let policy = SupervisionPolicy {
            heartbeat_interval: std::time::Duration::from_millis(30),
            checkpoint_interval: Some(std::time::Duration::from_millis(40)),
        };
        let sds = Session::builder()
            .context(Arc::clone(&ctx))
            .supervision(policy)
            .build()
            .unwrap();
        let m = rand_matrix(40, 4, -1.0, 1.0, 11);
        let fed = sds.federated(&m).unwrap();
        let plan = fed.tsmm().unwrap();
        let expected = sds.compute(&plan).unwrap();

        // Wait for a checkpoint of the scattered partitions to land.
        let sup = sds.supervisor().unwrap();
        for _ in 0..100 {
            if sup.checkpoint_store().has(0) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(
            sup.checkpoint_store().has(0),
            "background checkpoint landed"
        );

        // Kill worker 0 and hand the supervisor a replacement factory.
        let replacement = Worker::new(WorkerConfig::default());
        let r2 = Arc::clone(&replacement);
        sup.set_reconnector(Box::new(move |_w| {
            Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
        }));
        workers[0].shutdown();

        // The next compute hits the dead worker, reports it, waits out
        // the background restore, and completes with identical results.
        let after = sds.compute(&plan).unwrap();
        assert_eq!(
            expected.values(),
            after.values(),
            "recovered computation is bitwise identical"
        );
    }

    /// Coordinator service over an in-process mem-worker fleet.
    fn mem_service(
        n: usize,
    ) -> (
        Arc<exdra_coord::CoordService>,
        Vec<Arc<exdra_core::worker::Worker>>,
    ) {
        use exdra_core::worker::{Worker, WorkerConfig};
        let workers: Vec<Arc<Worker>> = (0..n)
            .map(|_| Worker::new(WorkerConfig::default()))
            .collect();
        let fleet = workers.clone();
        let factory: exdra_coord::ChannelFactory = Arc::new(move |w: usize| {
            Ok(Box::new(fleet[w].serve_mem()) as Box<dyn exdra_core::supervision::Channel>)
        });
        let service = exdra_coord::CoordService::start(
            exdra_coord::FleetSource::Factory {
                n_workers: n,
                factory,
            },
            exdra_coord::CoordConfig::default(),
        )
        .unwrap();
        (service, workers)
    }

    #[test]
    fn explain_analyze_attributes_wall_time() {
        let (ctx, _workers) = mem_federation(2);
        let sds = Session::builder()
            .context(ctx)
            .no_supervision()
            .build()
            .unwrap();
        let m = rand_matrix(60, 5, -1.0, 1.0, 31);
        let fed = sds.federated(&m).unwrap();
        let plan = fed.tsmm().unwrap();
        let (result, ex) = sds.explain_analyze(&plan).unwrap();
        let expected = Session::local()
            .matrix(m)
            .tsmm()
            .unwrap()
            .compute()
            .unwrap();
        assert!(result.max_abs_diff(&expected) < 1e-10);
        assert!(!ex.logical.is_empty() && !ex.optimized.is_empty());
        let analysis = ex.analysis().expect("analyzed section filled");
        assert!(
            analysis.attribution() >= 0.95,
            "explain attributed only {:.1}% of wall time",
            analysis.attribution() * 100.0
        );
        assert!(!analysis.critical_path.is_empty());
        assert!(ex.to_json().contains("wall_nanos"));
        let text = format!("{ex}");
        assert!(text.contains("EXPLAIN") && text.contains("EXPLAIN ANALYZE"));
    }

    #[test]
    fn explain_reports_plans_without_executing() {
        let sds = Session::local();
        let m = rand_matrix(20, 3, -1.0, 1.0, 41);
        let lx = sds.matrix(m);
        let ex = sds.explain(&lx.t().matmul(&lx));
        assert!(ex.logical.contains("ba+*"), "{}", ex.logical);
        assert!(ex.optimized.contains("tsmm"), "{}", ex.optimized);
        assert!(ex.analysis().is_none(), "explain alone does not execute");
    }

    #[test]
    fn disabled_optimizer_session_executes_plans_verbatim() {
        let (ctx, _workers) = mem_federation(2);
        let sds = Session::builder()
            .context(Arc::clone(&ctx))
            .no_supervision()
            .optimizer(crate::Optimizer::disabled())
            .build()
            .unwrap();
        let reference = Session::builder()
            .context(ctx)
            .no_supervision()
            .build()
            .unwrap();
        let m = rand_matrix(40, 4, -1.0, 1.0, 42);
        let plan = sds.federated(&m).unwrap().tsmm().unwrap();
        let plan_opt = reference.federated(&m).unwrap().tsmm().unwrap();
        let a = sds.compute(&plan).unwrap();
        let b = reference.compute(&plan_opt).unwrap();
        assert_eq!(a.values(), b.values(), "optimizer on/off bitwise identical");
        let ex = sds.explain(&plan);
        assert_eq!(ex.logical, ex.optimized);
        assert!(ex.rules.is_empty());
    }

    #[test]
    fn tenant_sessions_share_the_plan_cache() {
        let (service, _workers) = mem_service(2);
        let s1 = Session::from_tenant(service.open_session().unwrap()).unwrap();
        let s2 = Session::from_tenant(service.open_session().unwrap()).unwrap();
        assert_ne!(
            s1.tenant().unwrap().namespace(),
            s2.tenant().unwrap().namespace()
        );

        // Local sources hash by content, so the same plan built in two
        // different sessions shares one cache entry.
        let m = rand_matrix(30, 4, -1.0, 1.0, 17);
        let p1 = s1.matrix(m.clone()).matmul(&s1.matrix(m.clone()).t());
        let p2 = s2.matrix(m.clone()).matmul(&s2.matrix(m.clone()).t());
        assert_eq!(p1.lineage_hash(), p2.lineage_hash());
        let a = s1.compute(&p1).unwrap();
        let b = s2.compute(&p2).unwrap();
        assert_eq!(a.values(), b.values());
        let (t1, t2) = (s1.tenant().unwrap().stats(), s2.tenant().unwrap().stats());
        assert_eq!(
            t1.cache_misses.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(t2.cache_hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        service.stop();
    }

    #[test]
    fn sources_that_differ_only_in_the_middle_do_not_share_a_plan_result() {
        let (service, _workers) = mem_service(2);
        let s1 = Session::from_tenant(service.open_session().unwrap()).unwrap();
        let s2 = Session::from_tenant(service.open_session().unwrap()).unwrap();
        // Same shape, same first and last 256 cells, one other middle row.
        let a = DenseMatrix::filled(300, 4, 1.0);
        let mut b = a.clone();
        b.set(150, 2, 9.0);
        let p1 = s1.matrix(a.clone()).col_sums().unwrap();
        let p2 = s2.matrix(b.clone()).col_sums().unwrap();
        assert_ne!(p1.lineage_hash(), p2.lineage_hash());
        assert_eq!(s1.compute(&p1).unwrap().values(), [300.0; 4]);
        assert_eq!(
            s2.compute(&p2).unwrap().values(),
            [300.0, 300.0, 308.0, 300.0]
        );
        let t2 = s2.tenant().unwrap().stats();
        assert_eq!(t2.cache_hits.load(std::sync::atomic::Ordering::Relaxed), 0);
        service.stop();
    }

    #[test]
    fn tenant_namespaces_are_isolated() {
        let (service, _workers) = mem_service(2);
        let s1 = Session::from_tenant(service.open_session().unwrap()).unwrap();
        let s2 = Session::from_tenant(service.open_session().unwrap()).unwrap();
        let m1 = rand_matrix(40, 3, -1.0, 1.0, 5);
        let m2 = rand_matrix(40, 3, -1.0, 1.0, 6);
        let f1 = s1.federated(&m1).unwrap();
        let f2 = s2.federated(&m2).unwrap();
        let e1 = Session::local()
            .matrix(m1)
            .tsmm()
            .unwrap()
            .compute()
            .unwrap();
        let e2 = Session::local()
            .matrix(m2)
            .tsmm()
            .unwrap()
            .compute()
            .unwrap();
        // Closing session 1 reaps only its namespace: session 2's
        // federated state survives on the shared workers.
        let r1 = f1.tsmm().unwrap().compute().unwrap();
        drop(s1);
        let r2 = f2.tsmm().unwrap().compute().unwrap();
        assert!(r1.max_abs_diff(&e1) < 1e-10);
        assert!(r2.max_abs_diff(&e2) < 1e-10);
        service.stop();
    }

    #[test]
    fn attached_session_computes_over_tcp() {
        let (service, _workers) = mem_service(2);
        let server = exdra_coord::CoordServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let sds = Session::attach(&addr).unwrap();
        let m = rand_matrix(50, 4, -1.0, 1.0, 23);
        let fed = sds.federated(&m).unwrap();
        let got = fed.tsmm().unwrap().compute().unwrap();
        let want = Session::local()
            .matrix(m)
            .tsmm()
            .unwrap()
            .compute()
            .unwrap();
        assert!(got.max_abs_diff(&want) < 1e-10);
        drop(sds);
        server.stop();
        service.stop();
    }
}
