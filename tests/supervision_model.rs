//! Supervision as a message-order problem (DESIGN.md §4c, §4e).
//!
//! Worker health changes in one place, the pure `exdra::fault::step`.
//! The exhaustive test below drives that real function through every
//! order of the modelled events, to depth 8, for a two-worker federation.
//! The model mirrors the `Supervisor` shell: which requests it sends in
//! which state, and what it does with each verdict. It asserts DESIGN
//! §4e's invariants after every event:
//!
//! 1. the store takes a delta only from a worker that is `Healthy` after
//!    that delta's `ALIVE`, and never from an empty process;
//! 2. a failed exchange never sends a `Recovering` worker back to `Dead`;
//! 3. a worker never has two concurrent recoveries;
//! 4. a restore installs the last snapshot applied while `Healthy`.
//!
//! A checkpoint's request and its reply are separate events, so a
//! recovery can begin between them, and the reply then comes from
//! whichever process answers the channel by that time.
//!
//! The tests after it pin the same rules on the real supervisor over an
//! in-memory federation, also with the checkpoint pair riding behind a
//! caller's batch (`Supervisor::call_all_checkpointed`), and walk `step`
//! through its table rows.

use std::collections::HashMap;
use std::sync::Arc;

use exdra::core::fed::FedPartition;
use exdra::core::protocol::{Request, Response};
use exdra::core::supervision::{HealthState, SupervisionPolicy, Supervisor};
use exdra::core::testutil::mem_federation as mem_setup;
use exdra::core::worker::{Worker, WorkerConfig};
use exdra::core::{DataValue, PartitionScheme};
use exdra::fault::detector::{DEAD_AFTER, SUSPECT_AFTER};
use exdra::fault::{step, Event, Verdict, WorkerHealth};
use exdra::matrix::kernels::elementwise::UnaryOp;
use exdra::matrix::rng::rand_matrix;
use exdra::net::transport::Channel;
use exdra::{DenseMatrix, FedContext, FedError, FedMatrix, PrivacyLevel};

const DEPTH: usize = 8;
const WORKERS: usize = 2;

/// The state a checkpoint delta or a restore carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Snapshot {
    /// Writes the process had seen.
    data: u8,
    /// Taken from a process that holds the state the coordinator relies
    /// on (the original one, or a replacement after its restore), not
    /// from an empty restarted one.
    trusted: bool,
}

/// The worker process currently answering the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Process {
    epoch: u64,
    alive: bool,
    state: Snapshot,
}

/// Where the one recovery thread the shell may run for a worker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Recovery {
    Idle,
    /// Claimed, channel not yet replaced.
    Claimed,
    /// Fresh channel installed; its liveness check answered `epoch`.
    Replaced {
        epoch: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Site {
    health: WorkerHealth,
    process: Process,
    /// The checkpoint store's snapshot of this worker.
    store: Option<Snapshot>,
    /// The model's own record: the last snapshot stored while the worker
    /// was `Healthy` after its `ALIVE`, since the store was last rebased.
    healthy_snapshot: Option<Snapshot>,
    checkpoint_in_flight: bool,
    recovery: Recovery,
    next_epoch: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Move {
    /// The application changes the worker's state.
    Write,
    Kill,
    /// The process restarts empty under the same channel.
    Restart,
    /// `heartbeat_once`: probes every worker not `Recovering`.
    Probe,
    /// `checkpoint_once` sends `[HEARTBEAT, CHECKPOINT]` to a `Healthy`
    /// worker ...
    CheckpointSent,
    /// ... and its reply (or failure) arrives later.
    CheckpointReply,
    /// A compute call hit `WorkerDead` (`notify_worker_dead`).
    ReportDead,
    /// `recover`: claim the worker (`sweep` or `spawn_recovery`).
    RecoverClaim,
    /// The claimed recovery installs a fresh channel and probes it.
    RecoverReplace,
    /// The claimed recovery found no channel to install.
    RecoverNoChannel,
    /// The recovery restores the store's snapshot (or replays the
    /// initialization) onto the replacement.
    RecoverRestore,
}

const MOVES: [Move; 11] = [
    Move::Write,
    Move::Kill,
    Move::Restart,
    Move::Probe,
    Move::CheckpointSent,
    Move::CheckpointReply,
    Move::ReportDead,
    Move::RecoverClaim,
    Move::RecoverReplace,
    Move::RecoverNoChannel,
    Move::RecoverRestore,
];

/// What a freshly started, empty process holds.
const EMPTY: Snapshot = Snapshot {
    data: 0,
    trusted: false,
};

impl Site {
    /// A worker the supervisor has heard from once: without a first
    /// `ALIVE` no restart could be told from the original process.
    fn new() -> Self {
        let (health, _) = step(WorkerHealth::default(), Event::Alive { epoch: 1, load: 0 });
        Site {
            health,
            process: Process {
                epoch: 1,
                alive: true,
                state: Snapshot {
                    data: 0,
                    trusted: true,
                },
            },
            store: None,
            healthy_snapshot: None,
            checkpoint_in_flight: false,
            recovery: Recovery::Idle,
            next_epoch: 2,
        }
    }

    fn fresh_process(&mut self) {
        self.process = Process {
            epoch: self.next_epoch,
            alive: true,
            state: EMPTY,
        };
        self.next_epoch += 1;
    }

    /// Feeds `event` to the real `step`, checking invariant 2 on the way.
    fn feed(&mut self, event: Event) -> Verdict {
        let before = self.health.state;
        let verdict;
        (self.health, verdict) = step(self.health, event);
        if event == Event::Failed && before == HealthState::Recovering {
            assert_eq!(
                self.health.state,
                HealthState::Recovering,
                "invariant 2: a failed exchange sent a recovering worker to {:?}",
                self.health.state
            );
        }
        verdict
    }

    /// Plays `m` the way the supervisor shell would; `None` when the
    /// move is not possible in this state.
    fn play(mut self, m: Move) -> Option<Site> {
        let probe = |p: &Process| {
            if p.alive {
                Event::Alive {
                    epoch: p.epoch,
                    load: 0,
                }
            } else {
                Event::Failed
            }
        };
        match m {
            Move::Write if self.process.alive => {
                self.process.state.data += 1;
            }
            Move::Kill if self.process.alive => self.process.alive = false,
            Move::Restart => self.fresh_process(),
            Move::Probe if self.health.state != HealthState::Recovering => {
                self.feed(probe(&self.process));
            }
            Move::CheckpointSent
                if self.health.state == HealthState::Healthy && !self.checkpoint_in_flight =>
            {
                self.checkpoint_in_flight = true;
            }
            Move::CheckpointReply if self.checkpoint_in_flight => {
                self.checkpoint_in_flight = false;
                let verdict = self.feed(probe(&self.process));
                let delta = self.process.alive.then_some(self.process.state);
                if self.health.state == HealthState::Healthy && delta.is_some() {
                    self.healthy_snapshot = delta;
                }
                if verdict.store_delta {
                    assert_eq!(
                        self.health.state,
                        HealthState::Healthy,
                        "invariant 1: a delta was stored from a worker that is not healthy"
                    );
                    assert!(
                        delta.is_some_and(|d| d.trusted),
                        "invariant 1: a delta from an empty process replaced the snapshot"
                    );
                    self.store = delta;
                }
            }
            Move::ReportDead => {
                self.feed(Event::ReportedDead);
            }
            Move::RecoverClaim => {
                if self.feed(Event::RecoveryClaimed).claimed {
                    assert_eq!(
                        self.recovery,
                        Recovery::Idle,
                        "invariant 3: two concurrent recoveries of one worker"
                    );
                    self.recovery = Recovery::Claimed;
                }
            }
            Move::RecoverReplace if self.recovery == Recovery::Claimed => {
                self.fresh_process();
                self.recovery = Recovery::Replaced {
                    epoch: self.process.epoch,
                };
            }
            Move::RecoverNoChannel if self.recovery == Recovery::Claimed => {
                self.recovery = Recovery::Idle;
                self.feed(Event::RecoveryFailed);
            }
            Move::RecoverRestore => {
                let Recovery::Replaced { epoch } = self.recovery else {
                    return None;
                };
                self.recovery = Recovery::Idle;
                if !self.process.alive {
                    self.feed(Event::RecoveryFailed);
                    return Some(self);
                }
                assert_eq!(
                    self.store, self.healthy_snapshot,
                    "invariant 4: the restore is not the last snapshot applied while healthy"
                );
                // No snapshot: the initialization replay rebuilds the
                // original state.
                self.process.state = self.store.unwrap_or(Snapshot {
                    data: 0,
                    trusted: true,
                });
                // The restore rebases the checkpoint stream.
                self.store = None;
                self.healthy_snapshot = None;
                self.feed(Event::RecoveryDone { epoch, load: 0 });
            }
            _ => return None,
        }
        Some(self)
    }
}

/// Depth-first search over every interleaving, memoised on the state:
/// a state already explored with at least as many moves left is skipped.
fn explore(sites: [Site; WORKERS], left: usize, seen: &mut HashMap<[Site; WORKERS], usize>) {
    if left == 0 {
        return;
    }
    match seen.get(&sites) {
        Some(&done) if done >= left => return,
        _ => {
            seen.insert(sites, left);
        }
    }
    for w in 0..WORKERS {
        for m in MOVES {
            if let Some(next) = sites[w].play(m) {
                let mut after = sites;
                after[w] = next;
                explore(after, left - 1, seen);
            }
        }
    }
}

#[test]
fn every_event_order_to_depth_8_keeps_the_supervision_invariants() {
    let mut seen = HashMap::new();
    explore([Site::new(); WORKERS], DEPTH, &mut seen);
    // A guard against a model that stops moving: every move kind fires
    // somewhere, and the search covers far more than a handful of states.
    assert!(seen.len() > 10_000, "explored only {} states", seen.len());
    for m in MOVES {
        assert!(
            seen.keys().any(|s| s[0].play(m).is_some()),
            "{m:?} is never possible"
        );
    }
    assert!(
        seen.keys()
            .any(|s| s[0].recovery != Recovery::Idle && s[0].checkpoint_in_flight),
        "no checkpoint ever raced a recovery"
    );
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
fn a_restart_seen_by_a_checkpoint_keeps_the_snapshot_for_recovery() {
    let (ctx, _workers) = mem_setup(1);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    put(&ctx, 0, 1, 1.0, PrivacyLevel::Public);
    sup.checkpoint_worker(0).unwrap();
    assert_eq!(sup.checkpoint_store().entry_count(0), 1);

    // The worker silently restarts empty (new epoch, fresh sequence
    // space) and the checkpoint is the first exchange to meet it.
    let replacement = Worker::new(WorkerConfig::default());
    let r2 = Arc::clone(&replacement);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
    }));
    ctx.replace_channel(0, Box::new(replacement.serve_mem()))
        .unwrap();
    assert!(sup.checkpoint_once().is_empty());
    // The reply in front of the delta told the detector (a restart under
    // a healthy worker means Dead until replayed), and the empty worker's
    // delta never reached the store.
    assert_eq!(sup.detector().health(0).epoch, replacement.epoch());
    assert_eq!(sup.detector().state(0), HealthState::Dead);
    let snap = sup.checkpoint_store().snapshot(0).unwrap();
    assert_eq!((snap.len(), snap[0].id), (1, 1), "the good snapshot");
    assert!(sup.checkpoint_once().is_empty(), "a dead worker is skipped");

    // So the sweep restores the binding, in either order of the tick.
    assert_eq!(sup.sweep(), vec![0]);
    assert_eq!(sup.detector().state(0), HealthState::Healthy);
    assert!(replacement.table().contains(1));
    // Restore rebased the stream: the next checkpoint is a full snapshot
    // of the restarted worker's sequence space.
    assert_eq!(sup.checkpoint_once(), vec![0]);
    assert_eq!(sup.checkpoint_store().entry_count(0), 1);
}

#[test]
fn a_checkpoint_that_races_a_recovery_leaves_the_snapshot_alone() {
    let (ctx, _workers) = mem_setup(1);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    put(&ctx, 0, 1, 1.0, PrivacyLevel::Public);
    sup.checkpoint_worker(0).unwrap();

    // A recovery has claimed the worker and installed its empty
    // replacement, but not restored yet; a checkpoint that was already
    // on its way now talks to that replacement.
    sup.detector().apply(0, Event::ReportedDead);
    assert!(sup.detector().apply(0, Event::RecoveryClaimed).claimed);
    let replacement = Worker::new(WorkerConfig::default());
    ctx.replace_channel(0, Box::new(replacement.serve_mem()))
        .unwrap();
    assert!(sup.checkpoint_worker(0).is_err());
    let snap = sup.checkpoint_store().snapshot(0).unwrap();
    assert_eq!(snap.len(), 1, "what the recovery is about to restore");
    assert_eq!(sup.detector().state(0), HealthState::Recovering);

    // Nor does a failed exchange count as a miss against it: that would
    // send the worker back to Dead under the recovery in flight.
    replacement.shutdown();
    assert!(sup.checkpoint_worker(0).is_err());
    assert_eq!(sup.detector().state(0), HealthState::Recovering);
    assert_eq!(sup.detector().health(0).consecutive_misses, 0);
}

fn put_req(id: u64, v: f64) -> Request {
    Request::Put {
        id,
        data: DataValue::Scalar(v),
        privacy: PrivacyLevel::Public,
    }
}

fn stored_ids(sup: &Supervisor, worker: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = sup
        .checkpoint_store()
        .snapshot(worker)
        .unwrap_or_default()
        .iter()
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn an_install_and_checkpoint_that_meet_a_restarted_worker_leave_the_snapshot_alone() {
    let (ctx, _workers) = mem_setup(2);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    put(&ctx, 0, 1, 1.0, PrivacyLevel::Public);
    assert_eq!(sup.checkpoint_once(), vec![0, 1]);

    // Worker 0 silently restarts empty, and the round's install, with the
    // checkpoint pair behind it, is the first exchange to meet it.
    let replacement = Worker::new(WorkerConfig::default());
    let r2 = Arc::clone(&replacement);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
    }));
    ctx.replace_channel(0, Box::new(replacement.serve_mem()))
        .unwrap();
    let responses = sup
        .call_all_checkpointed(vec![vec![put_req(2, 2.0)], vec![put_req(3, 3.0)]])
        .unwrap();
    assert_eq!(responses, vec![vec![Response::Ok], vec![Response::Ok]]);
    assert!(
        replacement.table().contains(2),
        "the caller's install landed"
    );
    // The new epoch's ALIVE made `step` refuse the delta: the empty
    // worker's state never reached the store.
    assert_eq!(sup.detector().health(0).epoch, replacement.epoch());
    assert_eq!(sup.detector().state(0), HealthState::Dead);
    assert_eq!(stored_ids(&sup, 0), vec![1], "the good snapshot");
    // The healthy site's delta holds its install.
    assert_eq!(stored_ids(&sup, 1), vec![3]);

    // So the sweep restores the good snapshot.
    assert_eq!(sup.sweep(), vec![0]);
    assert!(replacement.table().contains(1));
}

#[test]
fn a_failing_request_in_the_callers_part_is_its_error_not_a_miss() {
    let (ctx, _workers) = mem_setup(1);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    put(&ctx, 0, 1, 1.0, PrivacyLevel::Public);
    assert_eq!(sup.checkpoint_once(), vec![0]);
    let before = sup.detector().health(0);
    let since = sup.checkpoint_store().next_since(0, before.epoch);

    let responses = sup
        .call_all_checkpointed(vec![vec![Request::Get { id: 4242 }, put_req(2, 2.0)]])
        .unwrap();
    // The caller gets its own two replies, the failure among them.
    assert_eq!(
        responses[0].len(),
        2,
        "the pair's replies are not the caller's"
    );
    assert!(matches!(&responses[0][0], Response::Error(m) if m.contains("4242")));
    assert!(matches!(&responses[0][1], Response::Error(m) if m.contains("skipped")));
    // The worker answered the probe behind the failure: one more beat, no
    // miss. Its checkpoint was skipped, so the store did not move.
    let after = sup.detector().health(0);
    assert_eq!(
        (after.state, after.consecutive_misses),
        (HealthState::Healthy, 0)
    );
    assert_eq!(after.beats, before.beats + 1);
    assert_eq!(stored_ids(&sup, 0), vec![1]);
    assert_eq!(sup.checkpoint_store().next_since(0, after.epoch), since);
}

#[test]
fn a_failed_deferred_request_is_the_callers_error_not_a_miss() {
    let (ctx, _workers) = mem_setup(1);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    put(&ctx, 0, 1, 1.0, PrivacyLevel::Public);
    assert_eq!(sup.checkpoint_once(), vec![0]);
    // A federated map over a symbol no worker holds waits in the outbox
    // and fails at the install that carries it.
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
    let _abs = ghost.unary(UnaryOp::Abs).expect("deferred: no error yet");

    let err = sup
        .call_all_checkpointed(vec![vec![put_req(2, 2.0)]])
        .unwrap_err();
    assert!(
        matches!(&err, FedError::Worker { worker: 0, msg } if msg.contains("deferred abs")),
        "{err}"
    );
    let health = sup.detector().health(0);
    assert_eq!(
        (health.state, health.consecutive_misses),
        (HealthState::Healthy, 0)
    );
    assert_eq!(stored_ids(&sup, 0), vec![1]);
}

#[test]
fn deferred_work_ahead_of_the_install_is_in_the_delta_and_restores_bitwise() {
    let (ctx, workers) = mem_setup(1);
    let sup = Supervisor::new(Arc::clone(&ctx), SupervisionPolicy::default());
    let replacement = Worker::new(WorkerConfig::default());
    let r2 = Arc::clone(&replacement);
    sup.set_reconnector(Box::new(move |_w| {
        Some(Box::new(r2.serve_mem()) as Box<dyn Channel>)
    }));
    let x = FedMatrix::scatter_rows(&ctx, &rand_matrix(6, 3, -1.0, 1.0, 7), PrivacyLevel::Public)
        .unwrap();
    assert_eq!(sup.checkpoint_once(), vec![0]);
    // The output stays federated: the map waits in the outbox.
    let y = x.unary(UnaryOp::Abs).unwrap();
    let y_id = y.parts()[0].id;
    assert!(!workers[0].table().contains(y_id), "still deferred");

    // One envelope: the deferred map, the install, the checkpoint pair.
    let sent = ctx.stats().messages_sent();
    let responses = sup
        .call_all_checkpointed(vec![vec![put_req(90, 9.0)]])
        .unwrap();
    assert_eq!(responses, vec![vec![Response::Ok]]);
    assert_eq!(ctx.stats().messages_sent() - sent, 1);
    let ids = stored_ids(&sup, 0);
    assert!(ids.contains(&y_id) && ids.contains(&90), "delta {ids:?}");
    let bits = |m: DenseMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let want = bits(y.consolidate().unwrap());

    // The worker dies after the round; the recovery restores the delta.
    workers[0].shutdown();
    sup.notify_worker_dead(0);
    sup.wait_recoveries();
    assert_eq!(sup.detector().state(0), HealthState::Healthy);
    assert!(replacement.table().contains(90));
    assert_eq!(bits(y.consolidate().unwrap()), want);
}

/// `h` after `event`, through the real `step`; returns the verdict.
fn feed(h: &mut WorkerHealth, event: Event) -> Verdict {
    let verdict;
    (*h, verdict) = step(*h, event);
    verdict
}

#[test]
fn misses_walk_healthy_suspect_dead() {
    let mut h = WorkerHealth::default();
    assert_eq!((SUSPECT_AFTER, DEAD_AFTER), (2, 4));
    assert_eq!(h.state, HealthState::Healthy);
    for want in [
        HealthState::Healthy,
        HealthState::Suspect,
        HealthState::Suspect,
        HealthState::Dead,
        HealthState::Dead,
    ] {
        assert!(feed(&mut h, Event::Failed).miss);
        assert_eq!(h.state, want);
    }
}

#[test]
fn success_heals_suspect() {
    let mut h = WorkerHealth::default();
    feed(&mut h, Event::Failed);
    feed(&mut h, Event::Failed);
    assert_eq!(h.state, HealthState::Suspect);
    assert!(feed(&mut h, Event::Alive { epoch: 1, load: 0 }).store_delta);
    assert_eq!(h.state, HealthState::Healthy);
    assert_eq!(h.consecutive_misses, 0);
}

#[test]
fn success_does_not_resurrect_dead_worker() {
    let mut h = WorkerHealth::default();
    for _ in 0..4 {
        feed(&mut h, Event::Failed);
    }
    assert_eq!(h.state, HealthState::Dead);
    assert!(!feed(&mut h, Event::Alive { epoch: 1, load: 0 }).store_delta);
    assert_eq!(h.state, HealthState::Dead, "needs supervisor replay");
}

#[test]
fn recovery_arc_dead_recovering_healthy() {
    let mut h = WorkerHealth::default();
    for _ in 0..4 {
        feed(&mut h, Event::Failed);
    }
    assert!(feed(&mut h, Event::RecoveryClaimed).claimed);
    assert!(
        !feed(&mut h, Event::RecoveryClaimed).claimed,
        "already claimed"
    );
    assert_eq!(h.state, HealthState::Recovering);
    feed(&mut h, Event::RecoveryDone { epoch: 9, load: 0 });
    assert_eq!(h.state, HealthState::Healthy);
    assert_eq!((h.epoch, h.consecutive_misses), (9, 0));
}

#[test]
fn only_the_recovery_moves_a_recovering_worker() {
    let mut h = WorkerHealth::default();
    feed(&mut h, Event::ReportedDead);
    assert!(feed(&mut h, Event::RecoveryClaimed).claimed);
    let claimed = h;
    assert!(!feed(&mut h, Event::Failed).miss);
    assert!(!feed(&mut h, Event::Alive { epoch: 5, load: 0 }).store_delta);
    feed(&mut h, Event::ReportedDead);
    assert_eq!(h, claimed, "probes, checkpoints and reports leave it alone");
    feed(&mut h, Event::RecoveryFailed);
    assert_eq!(h.state, HealthState::Dead);
}

#[test]
fn epoch_change_reports_restart_and_requires_replay() {
    let mut h = WorkerHealth::default();
    assert!(feed(&mut h, Event::Alive { epoch: 7, load: 0 }).store_delta);
    assert!(!feed(&mut h, Event::Alive { epoch: 8, load: 0 }).store_delta);
    // Restart with a fresh (empty) worker: treated as dead until replayed.
    assert_eq!((h.state, h.epoch), (HealthState::Dead, 8));
}
