//! Worker health as one pure state machine.
//!
//! [`step`] is the only place a worker's health changes. The supervisor
//! turns everything it learns about a worker into an [`Event`], feeds it
//! through [`FailureDetector::apply`] and acts on the returned
//! [`Verdict`]; it keeps no health rule of its own.
//!
//! | state \ event | `Alive{epoch}` | `Failed` | `ReportedDead` | `RecoveryClaimed` | `RecoveryDone{epoch}` | `RecoveryFailed` |
//! |---|---|---|---|---|---|---|
//! | `Healthy` | misses = 0; a new epoch → `Dead`, else `Healthy` and **store delta** | **miss**: ≥ 2 `Suspect`, ≥ 4 `Dead` | `Dead` | lost | – | – |
//! | `Suspect` | as `Healthy` | **miss** | `Dead` | lost | – | – |
//! | `Dead` | epoch and load recorded | **miss**, stays `Dead` | – | `Recovering`, **won** | – | – |
//! | `Recovering` | – | – (not a miss) | – | lost | `Healthy`, epoch recorded | `Dead` |
//!
//! A dash leaves the record untouched. Bold marks the three verdicts.
//! `Suspect` workers still receive traffic; a `Dead` worker comes back
//! only through `Recovering`, because a restarted process has an empty
//! symbol table and an `ALIVE` alone does not refill it. While a recovery
//! owns a worker, only that recovery moves it: `ALIVE`s and failed
//! exchanges from other paths may come from the old process or the still
//! empty replacement.

use parking_lot::Mutex;

/// Consecutive misses at which a `Healthy` worker becomes `Suspect`.
pub const SUSPECT_AFTER: u32 = 2;
/// Consecutive misses at which a worker becomes `Dead`.
pub const DEAD_AFTER: u32 = 4;

/// Liveness state of one worker as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Heartbeats arriving; full participant.
    Healthy,
    /// Missed some heartbeats; still addressed, RPCs retried.
    Suspect,
    /// Missed the dead threshold; excluded from calls until recovered.
    Dead,
    /// Supervisor is re-establishing the channel and replaying state.
    Recovering,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
            HealthState::Recovering => "recovering",
        };
        f.write_str(s)
    }
}

/// Per-worker liveness record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerHealth {
    /// Current state-machine position.
    pub state: HealthState,
    /// Heartbeat misses since the last success.
    pub consecutive_misses: u32,
    /// Last epoch the worker reported (bumps when the worker restarts).
    pub epoch: u64,
    /// Last load figure the worker reported (live request count).
    pub load: u32,
    /// Total `ALIVE`s recorded.
    pub beats: u64,
}

impl Default for WorkerHealth {
    fn default() -> Self {
        Self {
            state: HealthState::Healthy,
            consecutive_misses: 0,
            epoch: 0,
            load: 0,
            beats: 0,
        }
    }
}

/// Something the supervisor learned about one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// An `ALIVE {epoch, load}` from a probe or in front of a checkpoint
    /// delta.
    Alive {
        /// Epoch the worker process reported.
        epoch: u64,
        /// Live request count the worker reported.
        load: u32,
    },
    /// A heartbeat or checkpoint exchange failed.
    Failed,
    /// The compute path saw the worker's channel collapse.
    ReportedDead,
    /// A recovery asks to own the worker.
    RecoveryClaimed,
    /// The owning recovery restored the worker; `epoch` and `load` are
    /// from its liveness check on the fresh channel.
    RecoveryDone {
        /// Epoch of the replacement process.
        epoch: u64,
        /// Load the replacement reported.
        load: u32,
    },
    /// The owning recovery gave up; the next sweep starts over.
    RecoveryFailed,
}

/// What [`step`] decided about one event. Each flag answers one event
/// kind and is `false` for every other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// `Alive`: the worker is `Healthy` after this `ALIVE`, so the
    /// checkpoint delta behind it may go into the store.
    pub store_delta: bool,
    /// `Failed`: the failed exchange counted as a miss.
    pub miss: bool,
    /// `RecoveryClaimed`: the claim won; the claimant owns the worker
    /// until it sends `RecoveryDone` or `RecoveryFailed`.
    pub claimed: bool,
}

/// The health transition function: the next record for `h` after
/// `event`, and the verdict the supervisor acts on.
pub fn step(mut h: WorkerHealth, event: Event) -> (WorkerHealth, Verdict) {
    use HealthState::*;
    let mut verdict = Verdict::default();
    match (h.state, event) {
        (Recovering, Event::RecoveryDone { epoch, load }) => {
            h = WorkerHealth {
                state: Healthy,
                consecutive_misses: 0,
                epoch,
                load,
                beats: h.beats + 1,
            };
        }
        (Recovering, Event::RecoveryFailed) => h.state = Dead,
        // Only the recovery moves a worker it owns.
        (Recovering, _) => {}
        (state, Event::Alive { epoch, load }) => {
            let restarted = h.beats > 0 && epoch != h.epoch;
            h.consecutive_misses = 0;
            h.beats += 1;
            h.epoch = epoch;
            h.load = load;
            if state != Dead {
                // A restart under a live worker emptied it: Dead until
                // recovered, and its delta must not replace the snapshot
                // the recovery restores.
                h.state = if restarted { Dead } else { Healthy };
                verdict.store_delta = h.state == Healthy;
            }
        }
        (state, Event::Failed) => {
            h.consecutive_misses = h.consecutive_misses.saturating_add(1);
            verdict.miss = true;
            if state != Dead {
                h.state = if h.consecutive_misses >= DEAD_AFTER {
                    Dead
                } else if h.consecutive_misses >= SUSPECT_AFTER {
                    Suspect
                } else {
                    Healthy
                };
            }
        }
        (_, Event::ReportedDead) => h.state = Dead,
        (Dead, Event::RecoveryClaimed) => {
            h.state = Recovering;
            verdict.claimed = true;
        }
        (_, Event::RecoveryClaimed | Event::RecoveryDone { .. } | Event::RecoveryFailed) => {}
    }
    (h, verdict)
}

/// Coordinator-side failure detector: one [`WorkerHealth`] per worker,
/// moved only by [`step`].
pub struct FailureDetector {
    workers: Vec<Mutex<WorkerHealth>>,
}

impl FailureDetector {
    /// Detector for `n` workers, all starting Healthy.
    pub fn new(n: usize) -> Self {
        Self {
            workers: (0..n)
                .map(|_| Mutex::new(WorkerHealth::default()))
                .collect(),
        }
    }

    /// Number of tracked workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when no workers are tracked.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Current state of worker `w`.
    pub fn state(&self, w: usize) -> HealthState {
        self.workers[w].lock().state
    }

    /// Copy of worker `w`'s full health record.
    pub fn health(&self, w: usize) -> WorkerHealth {
        *self.workers[w].lock()
    }

    /// States of all workers, by index.
    pub fn snapshot(&self) -> Vec<HealthState> {
        self.workers.iter().map(|w| w.lock().state).collect()
    }

    /// Runs `event` through [`step`] for worker `w` and returns the
    /// verdict. A state change is counted as
    /// `fault.transitions.<state>` when observability is on.
    pub fn apply(&self, w: usize, event: Event) -> Verdict {
        let mut h = self.workers[w].lock();
        let old = h.state;
        let verdict;
        (*h, verdict) = step(*h, event);
        if h.state != old && exdra_obs::enabled() {
            exdra_obs::global().inc(&format!("fault.transitions.{}", h.state));
        }
        verdict
    }
}
