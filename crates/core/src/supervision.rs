//! Heartbeat-driven worker supervision with checkpoint-based recovery.
//!
//! The [`Supervisor`] is the protocol-aware shell around the pure health
//! state machine in `exdra-fault` ([`exdra_fault::step`]): it sends the
//! probes, checkpoint and recovery requests, turns every reply, failure
//! and recovery milestone into an [`Event`] for the [`FailureDetector`],
//! and acts on the [`Verdict`](exdra_fault::Verdict) it returns. It
//! periodically pulls incremental
//! [`CheckpointDelta`](crate::protocol::CheckpointDelta)s of every
//! healthy worker's variable environment into a coordinator-side
//! [`CheckpointStore`], and — once a worker
//! process is back — drives the recovery arc: re-establish the channel,
//! verify liveness, **restore the latest checkpoint** onto the
//! replacement (falling back to the registered initialization-replay
//! closures when no checkpoint exists), and only then return the worker
//! to the `Healthy` pool.
//!
//! Recovery runs off the compute path: an RPC that discovers a dead
//! worker calls [`Supervisor::notify_worker_dead`], which marks the
//! worker and hands the channel re-establishment + restore to a
//! background thread, so recovery latency is never billed to the
//! triggering request.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use exdra_fault::detector::{Event, FailureDetector};
/// Re-exported so higher layers (API, parameter server) can consult
/// worker health without depending on `exdra-fault` or `exdra-net`
/// directly.
pub use exdra_fault::HealthState;
pub use exdra_net::transport::Channel;
use exdra_obs::SpanKind;

use crate::checkpoint::{ApplyOutcome, CheckpointStore};
use crate::coordinator::FedContext;
use crate::error::{FedError, Result};
use crate::protocol::{Request, Response};

/// Supervision policy: the background loop's two cadences. This is the
/// knob bundle `Session::builder().supervision(..)` accepts; the
/// detector's miss thresholds are the constants
/// [`exdra_fault::detector::SUSPECT_AFTER`] and
/// [`exdra_fault::detector::DEAD_AFTER`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisionPolicy {
    /// Background heartbeat/sweep period (for [`Supervisor::run`]).
    pub heartbeat_interval: Duration,
    /// How often the background loop checkpoints every healthy worker's
    /// variable environment; `None` disables checkpointing (recovery
    /// then falls back to initialization replay).
    pub checkpoint_interval: Option<Duration>,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(500),
            checkpoint_interval: Some(Duration::from_secs(1)),
        }
    }
}

/// Replays one worker's initialization after its process restarted.
/// Receives the worker index and the context to issue requests through.
pub type ReplayFn = dyn Fn(usize, &FedContext) -> Result<()> + Send + Sync;

/// Produces a fresh channel to a restarted worker for transports without
/// reconnectable endpoints (in-memory federations). `None` = still down.
pub type ReconnectFn = dyn Fn(usize) -> Option<Box<dyn Channel>> + Send + Sync;

/// One worker's part of a supervised exchange: its responses to the
/// caller's batch, and the checkpoint's outcome when the pair was asked.
type Exchanged = (Result<Vec<Response>>, Option<Result<()>>);

/// `[HEARTBEAT, CHECKPOINT {since}]`, the only checkpoint request: the
/// `ALIVE` in front of the delta is the proof of life a separate probe
/// would have fetched.
fn checkpoint_pair(since_seq: u64) -> [Request; 2] {
    [Request::Heartbeat, Request::Checkpoint { since_seq }]
}

/// Coordinator-side supervisor: heartbeats, failure detection,
/// checkpointing and recovery.
pub struct Supervisor {
    ctx: Arc<FedContext>,
    detector: Arc<FailureDetector>,
    policy: SupervisionPolicy,
    store: Arc<CheckpointStore>,
    replay: Mutex<Vec<Arc<ReplayFn>>>,
    reconnector: Mutex<Option<Box<ReconnectFn>>>,
    /// Live background-recovery threads (pruned on inspection).
    recoveries: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shutdown: AtomicBool,
    /// Completed-sweep counter + condvar, bumped by every sweep (manual
    /// or background-loop). Tests and callers barrier on it through
    /// [`Supervisor::wait_until`] instead of wall-clock sleeps.
    sweep_gen: Mutex<u64>,
    sweep_cond: Condvar,
}

impl Supervisor {
    /// Supervisor over all workers of `ctx`.
    pub fn new(ctx: Arc<FedContext>, policy: SupervisionPolicy) -> Arc<Self> {
        let n = ctx.num_workers();
        Arc::new(Self {
            ctx,
            detector: Arc::new(FailureDetector::new(n)),
            policy,
            store: Arc::new(CheckpointStore::new(n)),
            replay: Mutex::new(Vec::new()),
            reconnector: Mutex::new(None),
            recoveries: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            sweep_gen: Mutex::new(0),
            sweep_cond: Condvar::new(),
        })
    }

    /// The underlying failure detector (shared with callers that want to
    /// consult worker health, e.g. quorum aggregation).
    pub fn detector(&self) -> &Arc<FailureDetector> {
        &self.detector
    }

    /// The supervised context.
    pub fn context(&self) -> &Arc<FedContext> {
        &self.ctx
    }

    /// The coordinator-side checkpoint store.
    pub fn checkpoint_store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The active policy.
    pub fn policy(&self) -> SupervisionPolicy {
        self.policy
    }

    /// Registers an initialization-replay step, run (in registration
    /// order) for every recovering worker that has no checkpoint.
    pub fn on_recovery(&self, f: Arc<ReplayFn>) {
        self.replay.lock().push(f);
    }

    /// Installs a channel factory for endpoint-less transports; TCP
    /// contexts reconnect through their endpoints and don't need one.
    pub fn set_reconnector(&self, f: Box<ReconnectFn>) {
        *self.reconnector.lock() = Some(f);
    }

    /// Probes every worker once and feeds the detector. Returns the
    /// post-probe health states. Workers currently being recovered are
    /// skipped (their channel is mid-replacement).
    pub fn heartbeat_once(&self) -> Vec<HealthState> {
        for w in 0..self.detector.len() {
            if self.detector.state(w) == HealthState::Recovering {
                continue;
            }
            let event = match self.ctx.heartbeat(w) {
                Ok((epoch, load)) => Event::Alive { epoch, load },
                Err(_) => Event::Failed,
            };
            self.detector.apply(w, event);
        }
        self.detector.snapshot()
    }

    /// Checkpoints every healthy worker's variable environment once:
    /// asks each for an incremental delta relative to what the store
    /// already holds and folds it in. Returns the workers checkpointed
    /// this pass. The exchange is its own heartbeat: its reply feeds the
    /// detector the worker's epoch and load, its failure a miss. This is
    /// [`Supervisor::call_all_checkpointed`] with empty batches: each
    /// envelope is control-only, so it travels alone and drains no outbox.
    pub fn checkpoint_once(&self) -> Vec<usize> {
        let outcomes = self
            .exchange(vec![Vec::new(); self.detector.len()])
            .unwrap_or_default();
        outcomes
            .into_iter()
            .enumerate()
            .filter(|(_, (_, stored))| matches!(stored, Some(Ok(()))))
            .map(|(w, _)| w)
            .collect()
    }

    /// Sends every worker its batch (one per worker, as
    /// [`FedContext::call_all`]) with `[HEARTBEAT, CHECKPOINT {since}]`
    /// appended when the worker is `Healthy`, all in one `call_all`, and
    /// returns each worker's responses to its own batch. A worker runs an
    /// envelope in order, so the delta holds whatever the batch, and the
    /// deferred work drained in front of it, installed. The pair's replies
    /// go where [`Supervisor::checkpoint_once`]'s go: the `ALIVE` to the
    /// detector, the delta to the store per the verdict. Fail-fast like
    /// `call_all`, once every reply has been handled.
    ///
    /// Only a failed exchange is a miss. A request of the batch that fails
    /// comes back as its `Response::Error` (the worker skips the checkpoint
    /// behind it but still answers the probe), and a deferred request that
    /// fails the call is the caller's error; neither counts against the
    /// worker.
    pub fn call_all_checkpointed(&self, batches: Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>> {
        self.exchange(batches)?
            .into_iter()
            .map(|(responses, _)| responses)
            .collect()
    }

    /// Pulls one checkpoint delta from `worker` and folds it into the
    /// store, re-requesting a full snapshot on an epoch change.
    pub fn checkpoint_worker(&self, worker: usize) -> Result<()> {
        let since = self
            .store
            .next_since(worker, self.detector.health(worker).epoch);
        self.checkpoint_alone(worker, since)
    }

    /// The checkpoint pair on its own: one control envelope to `worker`.
    fn checkpoint_alone(&self, worker: usize, since: u64) -> Result<()> {
        let result = self.ctx.call(worker, &checkpoint_pair(since));
        self.settle(worker, since, result).1
    }

    /// One `call_all` of `batches`, the checkpoint pair behind every
    /// `Healthy` worker's batch. Per worker: its responses to its own
    /// batch, and the checkpoint's outcome when the pair was asked.
    /// `call_all` rejects a batch count other than the worker count.
    fn exchange(&self, mut batches: Vec<Vec<Request>>) -> Result<Vec<Exchanged>> {
        let mut asked = Vec::with_capacity(batches.len());
        for (w, batch) in batches.iter_mut().enumerate().take(self.detector.len()) {
            let health = self.detector.health(w);
            let since = (health.state == HealthState::Healthy)
                .then(|| self.store.next_since(w, health.epoch));
            batch.extend(since.into_iter().flat_map(checkpoint_pair));
            asked.push(since);
        }
        let results = self.ctx.call_all_tolerant(batches)?;
        Ok(results
            .into_iter()
            .zip(asked)
            .enumerate()
            .map(|(w, (result, since))| match since {
                Some(since) => {
                    let (responses, stored) = self.settle(w, since, result);
                    (responses, Some(stored))
                }
                None => (result, None),
            })
            .collect())
    }

    /// The one handler of a checkpoint pair's replies, whichever envelope
    /// carried the pair: splits them off the end of `result`, leaving the
    /// caller's part, and returns that part next to the checkpoint's own
    /// outcome. A failed exchange is a miss; an error the worker's reply
    /// carried (a deferred request that failed) is not.
    fn settle(
        &self,
        worker: usize,
        since: u64,
        result: Result<Vec<Response>>,
    ) -> (Result<Vec<Response>>, Result<()>) {
        match result {
            Ok(mut responses) => {
                let pair = responses.split_off(responses.len().saturating_sub(2));
                (Ok(responses), self.fold(worker, since, pair))
            }
            Err(e) => {
                if !matches!(e, FedError::Worker { .. } | FedError::Privacy(_)) {
                    self.detector.apply(worker, Event::Failed);
                }
                (Err(e.clone()), Err(e))
            }
        }
    }

    /// Feeds the pair's `ALIVE` to the detector and, per its verdict,
    /// folds the delta behind it into the store, with a
    /// `recovery.checkpoint` span and size/age metrics. The request and
    /// its reply are separate moments: a recovery may claim the worker in
    /// between, and the detector's verdict on the reply decides.
    fn fold(&self, worker: usize, since: u64, pair: Vec<Response>) -> Result<()> {
        let obs_on = exdra_obs::enabled();
        let mut span = exdra_obs::span(SpanKind::Recovery, "recovery.checkpoint");
        if span.is_active() {
            span.attr("worker", worker);
            span.attr("since_seq", since);
        }
        let mut pair = pair.into_iter();
        let alive = match pair.next() {
            Some(Response::Alive { epoch, load }) => Event::Alive { epoch, load },
            other => {
                return Err(FedError::Protocol(format!(
                    "worker {worker}: checkpoint probe answered with {other:?}"
                )))
            }
        };
        // Not `Healthy` after its ALIVE: the reply came from an empty
        // process (a restart, or the replacement of a recovery in flight),
        // and the stored snapshot is what the recovery restores.
        if !self.detector.apply(worker, alive).store_delta {
            return Err(FedError::Network(format!(
                "worker {worker}: not healthy, its checkpoint is kept for recovery"
            )));
        }
        let delta = match pair.next() {
            Some(Response::Checkpoint(d)) => d,
            Some(Response::Error(msg)) => {
                return Err(FedError::Worker {
                    worker,
                    msg: format!("checkpoint failed: {msg}"),
                })
            }
            other => {
                return Err(FedError::Protocol(format!(
                    "worker {worker}: checkpoint answered with {other:?}"
                )))
            }
        };
        let bytes: usize = delta.entries.iter().map(|e| e.value.size_bytes()).sum();
        if span.is_active() {
            span.attr("entries", delta.entries.len());
            span.attr("removed", delta.removed.len());
            span.attr("bytes", bytes);
            span.attr("seq", delta.seq);
        }
        if obs_on {
            let reg = exdra_obs::global();
            reg.inc("checkpoint.deltas");
            if since == 0 {
                reg.inc("checkpoint.full_snapshots");
            }
            reg.add("checkpoint.entries", delta.entries.len() as u64);
            reg.add("checkpoint.bytes", bytes as u64);
            reg.record("checkpoint.delta_bytes", bytes as u64);
            if let Some(age) = self.store.age(worker) {
                reg.record("checkpoint.age_nanos", age.as_nanos() as u64);
            }
        }
        drop(span);
        match self.store.apply(worker, since, delta) {
            ApplyOutcome::Applied => Ok(()),
            // The worker restarted since its last reply: its sequence
            // space is foreign; take a full snapshot.
            ApplyOutcome::EpochMismatch if since > 0 => self.checkpoint_alone(worker, 0),
            ApplyOutcome::EpochMismatch => Err(FedError::Protocol(format!(
                "worker {worker}: full checkpoint rejected"
            ))),
        }
    }

    /// Marks `worker` dead in the detector and schedules its recovery on
    /// a background thread, returning immediately. This is the
    /// compute-path entry point: an RPC that ran into a dead worker
    /// reports it here and propagates its own error without waiting for
    /// channel re-establishment or state restoration.
    pub fn notify_worker_dead(self: &Arc<Self>, worker: usize) {
        if worker >= self.detector.len() {
            return;
        }
        if exdra_obs::recorder::enabled() {
            exdra_obs::recorder::event(
                "supervision",
                format!("worker {worker} reported dead by compute path"),
            );
        }
        self.detector.apply(worker, Event::ReportedDead);
        self.spawn_recovery(worker);
    }

    /// Spawns the recovery arc for `worker` on a detached background
    /// thread (no-op when the worker is not `Dead`, e.g. a second caller
    /// raced us — the detector's claim verdict arbitrates).
    pub fn spawn_recovery(self: &Arc<Self>, worker: usize) {
        let sup = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("exdra-recovery-{worker}"))
            .spawn(move || {
                let _ = sup.recover(worker);
            })
            .expect("spawn recovery thread");
        let mut recoveries = self.recoveries.lock();
        recoveries.retain(|h| !h.is_finished());
        recoveries.push(handle);
    }

    /// Blocks until every background recovery spawned so far has
    /// finished (tests and orderly shutdown).
    pub fn wait_recoveries(&self) {
        let handles: Vec<_> = std::mem::take(&mut *self.recoveries.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// Attempts the full recovery arc for one `Dead` worker: a won
    /// `RecoveryClaimed` (Dead → Recovering), channel re-establishment,
    /// liveness verification, checkpoint restore (or initialization
    /// replay when no checkpoint exists), `RecoveryDone`
    /// (Recovering → Healthy). Returns `Ok(false)` when the worker was
    /// not dead; an `Err` leaves the worker `Dead` for the next sweep.
    pub fn recover(&self, worker: usize) -> Result<bool> {
        if !self.detector.apply(worker, Event::RecoveryClaimed).claimed {
            return Ok(false);
        }
        // A won claim means the worker really was Dead and this caller
        // won the arbitration — the single choke point
        // where every detected death passes exactly once, so the flight
        // recorder dumps its forensic bundle here.
        if exdra_obs::recorder::enabled() {
            exdra_obs::recorder::incident(
                "worker_death",
                worker as u64,
                &format!("worker {worker} found dead; recovery starting"),
            );
        }
        let obs_on = exdra_obs::enabled();
        let t0 = obs_on.then(Instant::now);
        match self.try_recover(worker) {
            Ok((epoch, load)) => {
                self.detector
                    .apply(worker, Event::RecoveryDone { epoch, load });
                if obs_on {
                    let reg = exdra_obs::global();
                    reg.inc("recovery.recovered");
                    if let Some(t) = t0 {
                        reg.record("recovery.latency", t.elapsed().as_nanos() as u64);
                    }
                }
                if exdra_obs::recorder::enabled() {
                    exdra_obs::recorder::event("supervision", format!("worker {worker} recovered"));
                }
                Ok(true)
            }
            Err(e) => {
                // Recovering → Dead: the next sweep starts over.
                self.detector.apply(worker, Event::RecoveryFailed);
                if obs_on {
                    exdra_obs::global().inc("recovery.failed_attempts");
                }
                if exdra_obs::recorder::enabled() {
                    exdra_obs::recorder::event(
                        "supervision",
                        format!("worker {worker} recovery attempt failed: {e}"),
                    );
                }
                Err(e)
            }
        }
    }

    /// Reconnects and restores `worker`; returns the replacement's
    /// `(epoch, load)` from the liveness check.
    fn try_recover(&self, worker: usize) -> Result<(u64, u32)> {
        // 1. Channel re-establishment.
        let replacement = self.reconnector.lock().as_ref().and_then(|f| f(worker));
        match replacement {
            Some(ch) => self.ctx.replace_channel(worker, ch)?,
            None => self.ctx.reconnect(worker).map_err(|e| match e {
                FedError::Unsupported(_) => FedError::WorkerDead {
                    worker,
                    msg: "no endpoint and no reconnector produced a channel".into(),
                },
                other => other,
            })?,
        }
        // 2. Liveness check on the fresh channel: the restarted worker's
        //    new epoch, recorded with `RecoveryDone`.
        let alive = self.ctx.heartbeat(worker)?;
        // 3. State restoration: latest checkpoint when one exists,
        //    otherwise the registered initialization replay.
        match self.store.snapshot(worker) {
            Some(entries) => self.restore_from_checkpoint(worker, entries)?,
            None => self.replay_initialization(worker)?,
        }
        Ok(alive)
    }

    /// Ships `worker`'s materialized checkpoint back via RESTORE.
    fn restore_from_checkpoint(
        &self,
        worker: usize,
        entries: Vec<crate::protocol::CheckpointEntry>,
    ) -> Result<()> {
        let obs_on = exdra_obs::enabled();
        let mut span = exdra_obs::span(SpanKind::Recovery, "recovery.restore");
        let bytes: usize = entries.iter().map(|e| e.value.size_bytes()).sum();
        if span.is_active() {
            span.attr("worker", worker);
            span.attr("entries", entries.len());
            span.attr("bytes", bytes);
        }
        if obs_on {
            let reg = exdra_obs::global();
            reg.inc("recovery.restores");
            reg.add("recovery.restored_entries", entries.len() as u64);
            reg.add("recovery.restored_bytes", bytes as u64);
            if let Some(age) = self.store.age(worker) {
                reg.record("recovery.checkpoint_age_nanos", age.as_nanos() as u64);
            }
        }
        let n = entries.len();
        let responses = self.ctx.call(worker, &[Request::Restore { entries }])?;
        match responses.first() {
            Some(Response::Ok) => {}
            other => {
                return Err(FedError::Protocol(format!(
                    "worker {worker}: restore of {n} entries answered with {other:?}"
                )))
            }
        }
        // The replacement's sequence space starts fresh: rebase the
        // checkpoint stream with one full re-snapshot on the next sweep.
        self.store.invalidate(worker);
        Ok(())
    }

    /// Runs the registered initialization-replay closures (the PR 1
    /// recovery path, kept as the fallback for never-checkpointed
    /// federations).
    fn replay_initialization(&self, worker: usize) -> Result<()> {
        let mut span = exdra_obs::span(SpanKind::Recovery, "recovery.replay");
        if span.is_active() {
            span.attr("worker", worker);
            exdra_obs::global().inc("recovery.replays");
        }
        let steps: Vec<Arc<ReplayFn>> = self.replay.lock().clone();
        for f in steps {
            f(worker, &self.ctx)?;
        }
        Ok(())
    }

    /// One supervision sweep: heartbeat everyone, then attempt recovery
    /// of every dead worker (synchronously — sweeps already run on the
    /// supervisor's background thread, off the compute path). Returns
    /// the workers recovered this sweep.
    pub fn sweep(&self) -> Vec<usize> {
        let states = self.heartbeat_once();
        let mut recovered = Vec::new();
        for (w, s) in states.iter().enumerate() {
            if *s == HealthState::Dead && matches!(self.recover(w), Ok(true)) {
                recovered.push(w);
            }
        }
        *self.sweep_gen.lock() += 1;
        self.sweep_cond.notify_all();
        recovered
    }

    /// Number of completed sweeps (heartbeat rounds), whether driven by
    /// the background loop or manual [`Supervisor::sweep`] calls.
    pub fn sweeps_completed(&self) -> u64 {
        *self.sweep_gen.lock()
    }

    /// Blocks until `pred()` holds, re-checking after every completed
    /// sweep (and at least every 10 ms, so predicates that change outside
    /// the sweep path — background recoveries, checkpoint writes — are
    /// still picked up promptly). Returns `false` on timeout. This is the
    /// sleep-free barrier time-sensitive tests use in place of polling
    /// wall-clock loops.
    pub fn wait_until(&self, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut gen = self.sweep_gen.lock();
        loop {
            drop(gen);
            if pred() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(Duration::from_millis(10));
            gen = self.sweep_cond.wait_timeout(self.sweep_gen.lock(), wait);
        }
    }

    /// Runs [`Supervisor::sweep`] every `heartbeat_interval` — and
    /// [`Supervisor::checkpoint_once`] every `checkpoint_interval` — on
    /// a background thread until [`Supervisor::stop`].
    pub fn run(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let sup = Arc::clone(self);
        std::thread::Builder::new()
            .name("exdra-supervisor".into())
            .spawn(move || {
                // Sleep in short slices so stop() returns promptly even
                // with long heartbeat intervals.
                const SLICE: Duration = Duration::from_millis(25);
                let mut next_sweep = Instant::now() + sup.policy.heartbeat_interval;
                let mut last_checkpoint = Instant::now();
                loop {
                    std::thread::sleep(SLICE.min(sup.policy.heartbeat_interval));
                    if sup.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if Instant::now() < next_sweep {
                        continue;
                    }
                    next_sweep = Instant::now() + sup.policy.heartbeat_interval;
                    let _ = sup.sweep();
                    if let Some(every) = sup.policy.checkpoint_interval {
                        if last_checkpoint.elapsed() >= every {
                            let _ = sup.checkpoint_once();
                            last_checkpoint = Instant::now();
                        }
                    }
                }
            })
            .expect("spawn supervisor thread")
    }

    /// Stops the background supervision loop after its current sweep and
    /// waits for in-flight background recoveries.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wait_recoveries();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyLevel;
    use crate::protocol::Request;
    use crate::value::DataValue;
    use crate::worker::{Worker, WorkerConfig};
    use exdra_net::transport::Channel;

    fn mem_setup(n: usize) -> (Arc<FedContext>, Vec<Arc<Worker>>) {
        let mut channels = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..n {
            let w = Worker::new(WorkerConfig::default());
            channels.push(Box::new(w.serve_mem()) as Box<dyn Channel>);
            workers.push(w);
        }
        (FedContext::from_channels(channels).unwrap(), workers)
    }

    fn put(ctx: &FedContext, worker: usize, id: u64, v: f64, privacy: PrivacyLevel) {
        ctx.call(
            worker,
            &[Request::Put {
                id,
                data: DataValue::Scalar(v),
                privacy,
            }],
        )
        .unwrap();
    }

    #[test]
    fn heartbeats_keep_workers_healthy() {
        let (ctx, _workers) = mem_setup(2);
        // Detection only: no checkpointing.
        let sup = Supervisor::new(
            ctx,
            SupervisionPolicy {
                checkpoint_interval: None,
                ..SupervisionPolicy::default()
            },
        );
        for _ in 0..3 {
            let states = sup.heartbeat_once();
            assert_eq!(states, vec![HealthState::Healthy; 2]);
        }
        assert!(sup.context().stats().heartbeats() >= 6);
    }

    #[test]
    fn missed_heartbeats_walk_to_dead() {
        let (ctx, workers) = mem_setup(2);
        let sup = Supervisor::new(ctx, SupervisionPolicy::default());
        workers[1].shutdown();
        // Default thresholds: suspect at 2 misses, dead at 4.
        let mut seen_suspect = false;
        let mut last = Vec::new();
        for _ in 0..4 {
            last = sup.heartbeat_once();
            seen_suspect |= last[1] == HealthState::Suspect;
        }
        assert_eq!(last, vec![HealthState::Healthy, HealthState::Dead]);
        assert!(
            seen_suspect,
            "worker 1 passed through Suspect on the way down"
        );
    }

    #[test]
    fn recovery_replays_initialization_without_checkpoint() {
        let (ctx, workers) = mem_setup(1);
        let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
        // The application's initialization: symbol 42 must exist.
        sup.on_recovery(Arc::new(|w, ctx| {
            ctx.call(
                w,
                &[Request::Put {
                    id: 42,
                    data: DataValue::Scalar(4.2),
                    privacy: PrivacyLevel::Public,
                }],
            )
            .map(|_| ())
        }));
        // Kill the worker; detector learns via misses. No checkpoint was
        // ever taken, so recovery must fall back to replay.
        workers[0].shutdown();
        drop(workers);
        for _ in 0..4 {
            sup.heartbeat_once();
        }
        assert_eq!(sup.detector().state(0), HealthState::Dead);
        let replacement = Worker::new(WorkerConfig::default());
        let r2 = Arc::clone(&replacement);
        sup.set_reconnector(Box::new(move |_w| {
            Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
        }));
        assert!(sup.recover(0).unwrap());
        assert_eq!(sup.detector().state(0), HealthState::Healthy);
        assert!(
            replacement.table().contains(42),
            "replay re-installed state"
        );
    }

    #[test]
    fn recovery_restores_from_checkpoint() {
        let (ctx, workers) = mem_setup(1);
        let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
        put(&ctx, 0, 7, 7.5, PrivacyLevel::Private);
        put(&ctx, 0, 8, 8.5, PrivacyLevel::Public);
        assert_eq!(sup.checkpoint_once(), vec![0]);
        assert_eq!(sup.checkpoint_store().entry_count(0), 2);

        // Incremental: one more binding, next delta ships only it.
        put(&ctx, 0, 9, 9.5, PrivacyLevel::Public);
        sup.checkpoint_worker(0).unwrap();
        assert_eq!(sup.checkpoint_store().entry_count(0), 3);

        workers[0].shutdown();
        drop(workers);
        for _ in 0..4 {
            sup.heartbeat_once();
        }
        assert_eq!(sup.detector().state(0), HealthState::Dead);

        let replacement = Worker::new(WorkerConfig::default());
        let r2 = Arc::clone(&replacement);
        sup.set_reconnector(Box::new(move |_w| {
            Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
        }));
        assert!(sup.recover(0).unwrap());
        assert_eq!(sup.detector().state(0), HealthState::Healthy);
        // The replacement holds the checkpointed state, constraints intact.
        let table = replacement.table();
        for id in [7, 8, 9] {
            assert!(table.contains(id), "restored symbol {id}");
        }
        assert_eq!(table.get(7).unwrap().meta.privacy, PrivacyLevel::Private);
        // Restore rebased the stream: next checkpoint is a full snapshot.
        assert!(!sup.checkpoint_store().has(0));
        sup.checkpoint_worker(0).unwrap();
        assert_eq!(sup.checkpoint_store().entry_count(0), 3);
    }

    #[test]
    fn notify_worker_dead_recovers_in_background() {
        let (ctx, workers) = mem_setup(1);
        let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
        put(&ctx, 0, 11, 1.1, PrivacyLevel::Public);
        sup.checkpoint_once();

        let replacement = Worker::new(WorkerConfig::default());
        let r2 = Arc::clone(&replacement);
        sup.set_reconnector(Box::new(move |_w| {
            Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
        }));
        workers[0].shutdown();
        drop(workers);
        // Compute path reports the death and returns immediately; the
        // restore happens on the background recovery thread.
        sup.notify_worker_dead(0);
        sup.wait_recoveries();
        assert_eq!(sup.detector().state(0), HealthState::Healthy);
        assert!(replacement.table().contains(11));
    }

    #[test]
    fn a_checkpoint_is_its_own_heartbeat() {
        let (ctx, workers) = mem_setup(2);
        let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
        let block = exdra_matrix::rng::rand_matrix(40, 8, -1.0, 1.0, 3);
        let bytes = 40 * 8 * 8;
        ctx.call(
            0,
            &[Request::Put {
                id: 7,
                data: DataValue::from(block),
                privacy: PrivacyLevel::Public,
            }],
        )
        .unwrap();

        // No probe was ever sent: the first checkpoint is full and leaves
        // the detector holding the worker's epoch and load.
        let before = ctx.stats().snapshot();
        assert_eq!(sup.checkpoint_once(), vec![0, 1]);
        let first = ctx.stats().snapshot().delta(&before);
        assert_eq!(first.messages_sent, 2, "one envelope per worker");
        assert_eq!(first.heartbeats, 0, "and no probe of its own");
        assert!(first.bytes_received > bytes);
        let health = sup.detector().health(0);
        assert_eq!((health.epoch, health.load), (workers[0].epoch(), 1));
        assert_eq!(health.beats, 1);

        // So the second one is incremental: it ships the new binding only.
        assert!(sup.checkpoint_store().next_since(0, health.epoch) > 0);
        put(&ctx, 0, 8, 8.5, PrivacyLevel::Public);
        let before = ctx.stats().snapshot();
        sup.checkpoint_worker(0).unwrap();
        let second = ctx.stats().snapshot().delta(&before);
        assert!(second.bytes_received < bytes, "the block travelled again");
        assert_eq!(sup.checkpoint_store().entry_count(0), 2);
        assert_eq!(sup.detector().health(0).beats, 2);
    }

    #[test]
    fn a_checkpoint_against_a_killed_worker_is_a_miss() {
        let (ctx, workers) = mem_setup(2);
        let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
        workers[1].shutdown();
        assert_eq!(sup.checkpoint_once(), vec![0]);
        assert_eq!(sup.detector().health(1).consecutive_misses, 1);
        assert_eq!(sup.checkpoint_once(), vec![0]);
        assert_eq!(sup.detector().state(1), HealthState::Suspect);
        assert_eq!(sup.detector().health(0).consecutive_misses, 0);
        assert_eq!(ctx.stats().retries(), 0, "a closed channel is not retried");
    }
}
