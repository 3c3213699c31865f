//! Coordinator-side checkpoint store.
//!
//! The supervisor periodically asks every healthy worker for an
//! incremental [`CheckpointDelta`] of its symbol table; this store folds
//! the deltas into one materialized snapshot per worker, ready to ship
//! back via `RESTORE` when a replacement worker takes over. The store
//! never interprets
//! checkpoint payloads: privacy constraints travel inside the entries
//! and are reinstalled verbatim, so checkpointing is state *transfer*
//! within the runtime, never a release to the user.
//!
//! Consistency across a worker restart: every delta carries the worker's
//! registration epoch. A delta produced by a different epoch than the
//! stored snapshot is only meaningful when it is a full snapshot
//! (`since_seq = 0`); [`CheckpointStore::apply`] therefore rejects
//! incremental deltas from a new epoch, and the supervisor re-requests a
//! full one.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::protocol::{CheckpointDelta, CheckpointEntry};

/// One worker's materialized checkpoint.
#[derive(Debug)]
struct WorkerCheckpoint {
    entries: HashMap<u64, CheckpointEntry>,
    /// Mutation sequence the snapshot is current up to (in the
    /// checkpointed worker's sequence space).
    seq: u64,
    /// Registration epoch of the worker that produced the snapshot.
    epoch: u64,
    /// When the latest delta was folded in.
    taken_at: Instant,
}

/// Outcome of folding one delta into the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The delta was folded in.
    Applied,
    /// The delta came from a different worker epoch and was not a full
    /// snapshot: the caller must re-request with `since_seq = 0`.
    EpochMismatch,
}

/// Per-worker materialized checkpoints at the coordinator.
#[derive(Debug)]
pub struct CheckpointStore {
    workers: Vec<Mutex<Option<WorkerCheckpoint>>>,
}

impl CheckpointStore {
    /// Empty store for `n` workers.
    pub fn new(n: usize) -> Self {
        Self {
            workers: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of workers tracked.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when no workers are tracked.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The `since_seq` to request next for `worker`: the stored
    /// snapshot's sequence when the stored epoch matches `epoch`, else 0
    /// (full snapshot — either nothing is stored yet or the worker
    /// restarted and its sequence space is foreign).
    pub fn next_since(&self, worker: usize, epoch: u64) -> u64 {
        match self.workers.get(worker).map(|w| w.lock()) {
            Some(guard) => match guard.as_ref() {
                Some(cp) if cp.epoch == epoch => cp.seq,
                _ => 0,
            },
            None => 0,
        }
    }

    /// Folds a delta (requested with `since_seq`) into `worker`'s
    /// snapshot. A full delta (`since_seq == 0`) replaces the snapshot;
    /// an incremental one upserts/removes in place. Incremental deltas
    /// from an unexpected epoch are rejected.
    pub fn apply(&self, worker: usize, since_seq: u64, delta: CheckpointDelta) -> ApplyOutcome {
        let Some(slot) = self.workers.get(worker) else {
            return ApplyOutcome::EpochMismatch;
        };
        let mut guard = slot.lock();
        if since_seq == 0 {
            let entries = delta.entries.into_iter().map(|e| (e.id, e)).collect();
            *guard = Some(WorkerCheckpoint {
                entries,
                seq: delta.seq,
                epoch: delta.epoch,
                taken_at: Instant::now(),
            });
            return ApplyOutcome::Applied;
        }
        match guard.as_mut() {
            Some(cp) if cp.epoch == delta.epoch => {
                for e in delta.entries {
                    cp.entries.insert(e.id, e);
                }
                for id in delta.removed {
                    cp.entries.remove(&id);
                }
                cp.seq = delta.seq;
                cp.taken_at = Instant::now();
                ApplyOutcome::Applied
            }
            _ => ApplyOutcome::EpochMismatch,
        }
    }

    /// True when a snapshot exists for `worker`.
    pub fn has(&self, worker: usize) -> bool {
        self.workers.get(worker).is_some_and(|w| w.lock().is_some())
    }

    /// The full entry set of `worker`'s snapshot (None when no snapshot
    /// exists). Entries come in arbitrary order; restore order is
    /// irrelevant because bindings are independent.
    pub fn snapshot(&self, worker: usize) -> Option<Vec<CheckpointEntry>> {
        let guard = self.workers.get(worker)?.lock();
        let cp = guard.as_ref()?;
        // Entry clones are memcpy-heavy (multi-MB matrix payloads), so
        // fan blocks of entries out across the pool; `map_chunks`
        // preserves block order (restore order is irrelevant anyway —
        // see `restore_from`).
        let refs: Vec<&CheckpointEntry> = cp.entries.values().collect();
        let chunk = exdra_par::chunk_len(refs.len(), 8);
        Some(
            exdra_par::map_chunks(refs.len(), chunk, |_, range| {
                refs[range].iter().map(|e| (*e).clone()).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect(),
        )
    }

    /// Number of entries in `worker`'s snapshot.
    pub fn entry_count(&self, worker: usize) -> usize {
        self.workers
            .get(worker)
            .map_or(0, |w| w.lock().as_ref().map_or(0, |cp| cp.entries.len()))
    }

    /// Approximate payload bytes held for `worker`.
    pub fn bytes(&self, worker: usize) -> usize {
        self.workers.get(worker).map_or(0, |w| {
            w.lock().as_ref().map_or(0, |cp| {
                cp.entries.values().map(|e| e.value.size_bytes()).sum()
            })
        })
    }

    /// Age of `worker`'s snapshot (time since the last delta landed).
    pub fn age(&self, worker: usize) -> Option<Duration> {
        let guard = self.workers.get(worker)?.lock();
        guard.as_ref().map(|cp| cp.taken_at.elapsed())
    }

    /// Forgets `worker`'s sequence/epoch bookkeeping while keeping
    /// nothing — called after restoring the snapshot onto a replacement
    /// worker, whose sequence space starts fresh: the next
    /// [`CheckpointStore::next_since`] returns 0, forcing one full
    /// re-snapshot that rebases the stream onto the new worker.
    pub fn invalidate(&self, worker: usize) {
        if let Some(slot) = self.workers.get(worker) {
            *slot.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyLevel;
    use crate::value::DataValue;

    fn entry(id: u64, v: f64) -> CheckpointEntry {
        CheckpointEntry {
            id,
            value: DataValue::Scalar(v),
            privacy: PrivacyLevel::Public,
            releasable: true,
            lineage: id,
        }
    }

    #[test]
    fn full_then_incremental_folds() {
        let store = CheckpointStore::new(2);
        assert!(!store.has(0));
        assert_eq!(store.next_since(0, 1), 0);

        let full = CheckpointDelta {
            seq: 3,
            epoch: 1,
            entries: vec![entry(1, 1.0), entry(2, 2.0)],
            removed: vec![],
        };
        assert_eq!(store.apply(0, 0, full), ApplyOutcome::Applied);
        assert_eq!(store.entry_count(0), 2);
        assert_eq!(store.next_since(0, 1), 3);
        assert!(store.age(0).is_some());

        let inc = CheckpointDelta {
            seq: 5,
            epoch: 1,
            entries: vec![entry(3, 3.0), entry(1, 1.5)], // new + rebind
            removed: vec![2],
        };
        assert_eq!(store.apply(0, 3, inc), ApplyOutcome::Applied);
        assert_eq!(store.entry_count(0), 2);
        let snap = store.snapshot(0).unwrap();
        let ids: std::collections::BTreeSet<u64> = snap.iter().map(|e| e.id).collect();
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![1, 3]);
        let e1 = snap.iter().find(|e| e.id == 1).unwrap();
        assert_eq!(e1.value, DataValue::Scalar(1.5));
        // The untouched worker 1 is unaffected.
        assert!(!store.has(1));
    }

    #[test]
    fn incremental_from_new_epoch_rejected() {
        let store = CheckpointStore::new(1);
        let full = CheckpointDelta {
            seq: 2,
            epoch: 1,
            entries: vec![entry(1, 1.0)],
            removed: vec![],
        };
        store.apply(0, 0, full);
        // The worker restarted: epoch 2, foreign sequence space.
        assert_eq!(store.next_since(0, 2), 0, "epoch change forces full");
        let inc = CheckpointDelta {
            seq: 9,
            epoch: 2,
            entries: vec![entry(5, 5.0)],
            removed: vec![],
        };
        assert_eq!(store.apply(0, 2, inc), ApplyOutcome::EpochMismatch);
        // A full snapshot from the new epoch replaces everything.
        let full2 = CheckpointDelta {
            seq: 1,
            epoch: 2,
            entries: vec![entry(5, 5.0)],
            removed: vec![],
        };
        assert_eq!(store.apply(0, 0, full2), ApplyOutcome::Applied);
        assert_eq!(store.entry_count(0), 1);
        assert_eq!(store.next_since(0, 2), 1);
    }

    #[test]
    fn invalidate_forces_full_resnapshot() {
        let store = CheckpointStore::new(1);
        store.apply(
            0,
            0,
            CheckpointDelta {
                seq: 4,
                epoch: 1,
                entries: vec![entry(1, 1.0)],
                removed: vec![],
            },
        );
        assert!(store.has(0));
        store.invalidate(0);
        assert!(!store.has(0));
        assert_eq!(store.next_since(0, 1), 0);
    }

    #[test]
    fn bytes_track_payload_size() {
        let store = CheckpointStore::new(1);
        assert_eq!(store.bytes(0), 0);
        store.apply(
            0,
            0,
            CheckpointDelta {
                seq: 1,
                epoch: 1,
                entries: vec![entry(1, 1.0)],
                removed: vec![],
            },
        );
        assert!(store.bytes(0) > 0);
    }
}
