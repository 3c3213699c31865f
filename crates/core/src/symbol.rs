//! Symbol tables: live-variable storage of control programs.
//!
//! Both the coordinator and every federated worker are control programs
//! with a symbol table (paper §4.1). Entries carry the privacy constraint
//! and lineage of the stored value so `GET` can be privacy-checked and
//! repeated sub-plans can be reused.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::error::{Result, RuntimeError};
use crate::privacy::PrivacyLevel;
use crate::value::DataValue;

/// Bit position where a session namespace starts inside a symbol ID.
///
/// A multi-tenant coordinator hands every session a namespace `ns` and
/// allocates that session's IDs from `(ns << NS_SHIFT) | 1` upward, so
/// concurrent sessions draw from disjoint ID ranges: the symbols one
/// session reads and writes can never be another's, so no session can
/// alias another session's state. 40 low bits leave room for a trillion symbols per
/// session and 2^24 concurrent namespaces.
pub const NS_SHIFT: u32 = 40;

/// Extracts the session namespace from a symbol ID.
pub fn namespace_of(id: u64) -> u64 {
    id >> NS_SHIFT
}

/// Metadata attached to a symbol-table entry.
#[derive(Debug, Clone)]
pub struct EntryMeta {
    /// Privacy constraint of the stored value.
    pub privacy: PrivacyLevel,
    /// True when the value may be released under its constraint (i.e. it is
    /// a sufficient aggregate of any private inputs).
    pub releasable: bool,
    /// Lineage hash of the producing (sub-)plan.
    pub lineage: u64,
    /// Last read/write time (drives background compaction).
    pub last_access: Instant,
    /// Table mutation sequence at which this binding was (re)written
    /// (drives incremental checkpoints: a `CHECKPOINT(since)` request
    /// collects entries with `seq > since`).
    pub seq: u64,
}

/// A stored value plus its metadata.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The value (shared to make reads cheap).
    pub value: Arc<DataValue>,
    /// Privacy/lineage metadata.
    pub meta: EntryMeta,
}

/// A concurrent symbol table keyed by variable ID.
///
/// Every mutation (bind, remove, clear) bumps a table-global sequence
/// number; bindings are stamped with the sequence that wrote them and
/// removals are logged, so [`SymbolTable::delta_since`] can serve
/// incremental checkpoints without scanning values that didn't change.
/// All sequence updates happen under the map's write lock, so a reader
/// holding the read lock sees a sequence number consistent with the map
/// contents.
#[derive(Debug, Default)]
pub struct SymbolTable {
    map: RwLock<HashMap<u64, Entry>>,
    /// Monotonic mutation counter (mutated only under `map`'s write lock).
    seq: AtomicU64,
    /// `(seq, id)` log of removals awaiting checkpoint pickup; pruned by
    /// [`SymbolTable::prune_removals`] once a checkpoint consumer has
    /// acknowledged them (lock order: `map` before `removals`).
    removals: Mutex<Vec<(u64, u64)>>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `id` to a value with explicit metadata, replacing any previous
    /// binding.
    pub fn bind(
        &self,
        id: u64,
        value: Arc<DataValue>,
        privacy: PrivacyLevel,
        releasable: bool,
        lineage: u64,
    ) {
        let mut map = self.map.write();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Entry {
            value,
            meta: EntryMeta {
                privacy,
                releasable,
                lineage,
                last_access: Instant::now(),
                seq,
            },
        };
        map.insert(id, entry);
    }

    /// Convenience bind for public data.
    pub fn bind_public(&self, id: u64, value: DataValue) {
        let lineage = id.wrapping_mul(0x9E3779B97F4A7C15);
        self.bind(id, Arc::new(value), PrivacyLevel::Public, true, lineage);
    }

    /// Looks up an entry, refreshing its access time.
    pub fn get(&self, id: u64) -> Result<Entry> {
        let mut map = self.map.write();
        let entry = map.get_mut(&id).ok_or(RuntimeError::UnknownSymbol(id))?;
        entry.meta.last_access = Instant::now();
        Ok(entry.clone())
    }

    /// Looks up just the value.
    pub fn value(&self, id: u64) -> Result<Arc<DataValue>> {
        Ok(self.get(id)?.value)
    }

    /// True when `id` is bound.
    pub fn contains(&self, id: u64) -> bool {
        self.map.read().contains_key(&id)
    }

    /// Removes bindings (`rmvar`); missing IDs are ignored.
    pub fn remove(&self, ids: &[u64]) {
        let mut map = self.map.write();
        let mut removals = self.removals.lock();
        for id in ids {
            if map.remove(id).is_some() {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
                removals.push((seq, *id));
            }
        }
    }

    /// Removes `id` and hands back its value when `held`, the caller's
    /// reference from [`SymbolTable::get`], and the table's are the only
    /// ones: no lineage cache, concurrent request or checkpoint holds it.
    /// The removal is logged like [`SymbolTable::remove`]'s. Otherwise the
    /// binding stays as it was and `held` comes back.
    pub fn take_unique(
        &self,
        id: u64,
        held: Arc<DataValue>,
    ) -> std::result::Result<DataValue, Arc<DataValue>> {
        let mut map = self.map.write();
        let unique = map
            .get(&id)
            .is_some_and(|e| Arc::ptr_eq(&e.value, &held) && Arc::strong_count(&held) == 2);
        if !unique {
            return Err(held);
        }
        map.remove(&id);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.removals.lock().push((seq, id));
        Arc::try_unwrap(held)
    }

    /// Removes every binding whose ID lives in session namespace `ns`
    /// (see [`NS_SHIFT`]), returning how many were dropped. Removals go
    /// through the removal log so incremental checkpoints observe the
    /// teardown like any other `rmvar`.
    pub fn remove_namespace(&self, ns: u64) -> usize {
        let ids: Vec<u64> = {
            let map = self.map.read();
            map.keys()
                .copied()
                .filter(|id| namespace_of(*id) == ns)
                .collect()
        };
        self.remove(&ids);
        ids.len()
    }

    /// Number of live bindings in session namespace `ns` (tests and the
    /// coordinator's teardown assertions).
    pub fn namespace_len(&self, ns: u64) -> usize {
        self.map
            .read()
            .keys()
            .filter(|id| namespace_of(**id) == ns)
            .count()
    }

    /// Drops everything (`CLEAR`). Every dropped ID lands in the removal
    /// log so incremental checkpoint consumers learn about the wipe.
    pub fn clear(&self) {
        let mut map = self.map.write();
        let mut removals = self.removals.lock();
        for id in map.keys() {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            removals.push((seq, *id));
        }
        map.clear();
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Total approximate bytes held.
    pub fn total_bytes(&self) -> usize {
        self.map.read().values().map(|e| e.value.size_bytes()).sum()
    }

    /// Replaces the value of an existing binding in place, keeping its
    /// metadata (used by background compression: same logical value, new
    /// physical representation).
    pub fn replace_value(&self, id: u64, value: Arc<DataValue>) -> Result<()> {
        let mut map = self.map.write();
        let entry = map.get_mut(&id).ok_or(RuntimeError::UnknownSymbol(id))?;
        entry.value = value;
        Ok(())
    }

    /// The current mutation sequence (0 for an untouched table).
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Everything that changed after `since`: the current sequence, the
    /// bindings written after `since`, and the IDs removed after `since`.
    /// `since = 0` yields a full snapshot. The map read lock is held
    /// across the collection, so the result is a consistent cut.
    pub fn delta_since(&self, since: u64) -> (u64, Vec<(u64, Entry)>, Vec<u64>) {
        let map = self.map.read();
        let removals = self.removals.lock();
        let seq = self.seq.load(Ordering::Relaxed);
        let entries: Vec<(u64, Entry)> = map
            .iter()
            .filter(|(_, e)| e.meta.seq > since)
            .map(|(id, e)| (*id, e.clone()))
            .collect();
        let removed: Vec<u64> = removals
            .iter()
            .filter(|(s, _)| *s > since)
            .map(|(_, id)| *id)
            .collect();
        (seq, entries, removed)
    }

    /// Drops removal-log records with sequence ≤ `upto`. Called after a
    /// checkpoint consumer has taken a delta for `since = upto`: older
    /// removals can never be requested again by a monotonically
    /// advancing consumer (there is one checkpoint stream per worker —
    /// its coordinator's supervisor).
    pub fn prune_removals(&self, upto: u64) {
        self.removals.lock().retain(|(s, _)| *s > upto);
    }

    /// Snapshot of `(id, bytes, idle)` of the dense matrix entries, for
    /// the compaction planner.
    pub fn compaction_candidates(&self) -> Vec<(u64, usize, std::time::Duration)> {
        let map = self.map.read();
        map.iter()
            .filter(|(_, e)| matches!(&*e.value, DataValue::Matrix(exdra_matrix::Matrix::Dense(_))))
            .map(|(id, e)| (*id, e.value.size_bytes(), e.meta.last_access.elapsed()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::DenseMatrix;

    #[test]
    fn bind_get_remove() {
        let t = SymbolTable::new();
        t.bind_public(1, DataValue::Scalar(5.0));
        assert!(t.contains(1));
        assert_eq!(t.value(1).unwrap().as_scalar().unwrap(), 5.0);
        t.remove(&[1, 99]);
        assert!(!t.contains(1));
        assert!(matches!(t.get(1), Err(RuntimeError::UnknownSymbol(1))));
    }

    #[test]
    fn rebinding_replaces() {
        let t = SymbolTable::new();
        t.bind_public(1, DataValue::Scalar(1.0));
        t.bind_public(1, DataValue::Scalar(2.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(1).unwrap().as_scalar().unwrap(), 2.0);
    }

    #[test]
    fn clear_drops_everything() {
        let t = SymbolTable::new();
        for i in 0..10 {
            t.bind_public(i, DataValue::Scalar(i as f64));
        }
        assert_eq!(t.len(), 10);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn metadata_preserved_on_replace_value() {
        let t = SymbolTable::new();
        let m = DenseMatrix::zeros(4, 4);
        t.bind(
            7,
            Arc::new(DataValue::from(m.clone())),
            PrivacyLevel::Private,
            false,
            123,
        );
        t.replace_value(7, Arc::new(DataValue::from(m))).unwrap();
        let e = t.get(7).unwrap();
        assert_eq!(e.meta.privacy, PrivacyLevel::Private);
        assert_eq!(e.meta.lineage, 123);
    }

    #[test]
    fn delta_since_tracks_binds_and_removes() {
        let t = SymbolTable::new();
        assert_eq!(t.current_seq(), 0);
        t.bind_public(1, DataValue::Scalar(1.0));
        t.bind_public(2, DataValue::Scalar(2.0));
        let (seq, entries, removed) = t.delta_since(0);
        assert_eq!(seq, 2);
        assert_eq!(entries.len(), 2);
        assert!(removed.is_empty());

        // Nothing changed: the next delta is empty.
        let (seq2, entries2, removed2) = t.delta_since(seq);
        assert_eq!(seq2, seq);
        assert!(entries2.is_empty() && removed2.is_empty());

        // A rebind and a removal both show up after `seq`.
        t.bind_public(1, DataValue::Scalar(1.5));
        t.remove(&[2, 99]); // missing IDs don't log removals
        let (seq3, entries3, removed3) = t.delta_since(seq);
        assert!(seq3 > seq);
        assert_eq!(entries3.len(), 1);
        assert_eq!(entries3[0].0, 1);
        assert_eq!(removed3, vec![2]);

        // Pruning forgets acknowledged removals but keeps newer ones.
        t.prune_removals(seq3);
        t.remove(&[1]);
        let (_, _, removed4) = t.delta_since(seq3);
        assert_eq!(removed4, vec![1]);
        let (_, _, removed_old) = t.delta_since(0);
        assert_eq!(removed_old, vec![1], "pruned records are gone");
    }

    #[test]
    fn clear_logs_all_ids_as_removed() {
        let t = SymbolTable::new();
        t.bind_public(1, DataValue::Scalar(1.0));
        t.bind_public(2, DataValue::Scalar(2.0));
        let (seq, _, _) = t.delta_since(0);
        t.clear();
        let (seq2, entries, mut removed) = t.delta_since(seq);
        removed.sort_unstable();
        assert!(seq2 > seq);
        assert!(entries.is_empty());
        assert_eq!(removed, vec![1, 2]);
    }

    #[test]
    fn replace_value_keeps_checkpoint_seq() {
        // Background compression swaps the physical representation of the
        // same logical value; incremental checkpoints may keep shipping
        // the original form, so the sequence must not advance.
        let t = SymbolTable::new();
        t.bind_public(1, DataValue::from(DenseMatrix::zeros(4, 4)));
        let before = t.current_seq();
        t.replace_value(1, Arc::new(DataValue::from(DenseMatrix::zeros(4, 4))))
            .unwrap();
        assert_eq!(t.current_seq(), before);
        let (_, entries, _) = t.delta_since(before);
        assert!(entries.is_empty());
    }

    #[test]
    fn candidates_only_dense_matrices() {
        let t = SymbolTable::new();
        t.bind_public(1, DataValue::from(DenseMatrix::zeros(8, 8)));
        t.bind_public(2, DataValue::Scalar(1.0));
        let c = t.compaction_candidates();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, 1);
        assert_eq!(c[0].1, 512);
    }
}
