//! Lineage tracing and reuse (LIMA-lite, paper §4.4).
//!
//! Every instruction output gets a lineage hash derived from the opcode,
//! the lineage of its inputs, and literal parameters. A bounded,
//! lineage-keyed cache at each standing worker (and optionally the
//! coordinator) then short-circuits re-execution of identical sub-plans
//! across repeated exploratory pipeline runs.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::BufMut;
use exdra_matrix::{DenseMatrix, Matrix};
use exdra_net::codec::Wire;
use parking_lot::Mutex;

use crate::privacy::PrivacyLevel;
use crate::value::DataValue;

/// Mixes a value into a lineage hash (FNV-style).
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3).rotate_left(17)
}

/// Hashes an opcode name into a seed.
pub fn seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h = mix(h, b as u64);
    }
    h
}

/// Folds little-endian bytes into a lineage hash one 8-byte word per
/// step. As a [`BufMut`] it is a sink for [`Wire::encode`], so any value
/// can be fingerprinted by content without being serialised anywhere.
struct Fold {
    h: u64,
    /// The low `filled` bytes of the word being assembled.
    word: u64,
    filled: u32,
    len: u64,
}

impl Fold {
    fn new() -> Self {
        Fold {
            h: 0x9E3779B97F4A7C15,
            word: 0,
            filled: 0,
            len: 0,
        }
    }

    fn finish(self) -> u64 {
        mix(mix(self.h, self.word), self.len)
    }
}

impl BufMut for Fold {
    fn put_slice(&mut self, src: &[u8]) {
        let mut words = src.chunks_exact(8);
        for w in &mut words {
            self.put_u64_le(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.word |= (b as u64) << (8 * self.filled);
            self.filled += 1;
            self.len += 1;
            if self.filled == 8 {
                self.h = mix(self.h, self.word);
                (self.word, self.filled) = (0, 0);
            }
        }
    }

    fn put_u64_le(&mut self, v: u64) {
        self.len += 8;
        if self.filled == 0 {
            self.h = mix(self.h, v);
        } else {
            let shift = 8 * self.filled;
            self.h = mix(self.h, self.word | (v << shift));
            self.word = v >> (64 - shift);
        }
    }
}

fn fold_dense(f: &mut Fold, m: &DenseMatrix) {
    f.put_u64_le(m.rows() as u64);
    f.put_u64_le(m.cols() as u64);
    for v in m.values() {
        f.put_u64_le(v.to_bits());
    }
}

fn fold_value(f: &mut Fold, value: &DataValue) {
    match value {
        // `DenseMatrix::encode` stages a large payload in a buffer of its
        // own; the cells are folded from where they are instead.
        DataValue::Matrix(Matrix::Dense(m)) => {
            f.put_u8(0);
            fold_dense(f, m);
        }
        DataValue::List(vs) => {
            f.put_u8(5);
            f.put_u64_le(vs.len() as u64);
            for v in vs {
                fold_value(f, v);
            }
        }
        other => other.encode(f),
    }
}

/// Lineage hash of a value by content (`PUT` payloads): every cell and
/// every string takes part, so two payloads get one lineage only when
/// they are equal. Nothing is allocated.
pub fn of_value(value: &DataValue) -> u64 {
    let mut f = Fold::new();
    fold_value(&mut f, value);
    f.finish()
}

/// [`of_value`] of a dense matrix that is not wrapped in a [`DataValue`]
/// (a plan's local sources).
pub fn of_dense(m: &DenseMatrix) -> u64 {
    let mut f = Fold::new();
    fold_dense(&mut f, m);
    f.finish()
}

/// Lineage under which a worker's cache holds the dense twin of the
/// compressed entry whose own lineage is `entry`.
pub fn twin_of(entry: u64) -> u64 {
    mix(seed("decompress"), entry)
}

/// A cached output value with the metadata needed to rebind it.
#[derive(Debug, Clone)]
pub struct CachedEntry {
    /// The cached value.
    pub value: Arc<DataValue>,
    /// Privacy level of the cached value.
    pub privacy: PrivacyLevel,
    /// Release flag of the cached value.
    pub releasable: bool,
}

/// Which side of the federation a [`LineageCache`] serves. A reuse hit
/// at the coordinator (whole-DAG memoization across `compute()` calls)
/// means something different from a hit inside a worker's instruction
/// stream, so the two are counted under distinct metric names
/// (`lineage.coordinator.*` vs `lineage.worker.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// Cache embedded in a standing worker (instruction-level reuse).
    Worker,
    /// Coordinator-side cache (plan-level reuse across pipeline runs).
    Coordinator,
}

impl CacheScope {
    /// The metric-name segment for this scope.
    pub fn name(&self) -> &'static str {
        match self {
            CacheScope::Worker => "worker",
            CacheScope::Coordinator => "coordinator",
        }
    }
}

/// A bounded lineage-keyed reuse cache with FIFO eviction.
#[derive(Debug)]
pub struct LineageCache {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    enabled: bool,
    byte_budget: usize,
    scope: CacheScope,
    /// Global-registry counters for this scope, resolved once at
    /// construction so the per-probe cost is a plain atomic add.
    m_hits: Arc<exdra_obs::Counter>,
    m_misses: Arc<exdra_obs::Counter>,
    m_evictions: Arc<exdra_obs::Counter>,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<u64, CachedEntry>,
    order: VecDeque<u64>,
    bytes: usize,
}

impl LineageCache {
    /// Creates a worker-scoped cache with the given byte budget;
    /// `enabled = false` makes every probe a miss (the reuse-off
    /// ablation).
    pub fn new(byte_budget: usize, enabled: bool) -> Self {
        Self::new_scoped(byte_budget, enabled, CacheScope::Worker)
    }

    /// Creates a cache counting under the given [`CacheScope`].
    pub fn new_scoped(byte_budget: usize, enabled: bool, scope: CacheScope) -> Self {
        let reg = exdra_obs::global();
        let prefix = scope.name();
        Self {
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            enabled,
            byte_budget,
            scope,
            m_hits: reg.counter(&format!("lineage.{prefix}.hits")),
            m_misses: reg.counter(&format!("lineage.{prefix}.misses")),
            m_evictions: reg.counter(&format!("lineage.{prefix}.evictions")),
        }
    }

    /// The side of the federation this cache counts for.
    pub fn scope(&self) -> CacheScope {
        self.scope
    }

    /// Probes the cache.
    pub fn probe(&self, lineage: u64) -> Option<CachedEntry> {
        if !self.enabled {
            self.record_miss();
            return None;
        }
        let inner = self.inner.lock();
        match inner.map.get(&lineage) {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.inc();
                Some(e.clone())
            }
            None => {
                self.record_miss();
                None
            }
        }
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.m_misses.inc();
    }

    /// Inserts an output value, evicting FIFO when over budget. Values
    /// larger than the whole budget are not cached.
    pub fn insert(&self, lineage: u64, entry: CachedEntry) {
        if self.enabled {
            self.store(lineage, entry);
        }
    }

    /// True when a value of `bytes` bytes can be held at all.
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.byte_budget
    }

    /// The dense twin held under `lineage` (see [`twin_of`]). A twin is a
    /// second physical form of a live compressed value, not a reused
    /// result: it shares this cache's byte budget and FIFO order, is held
    /// whether or not reuse is enabled, and probing it is neither a hit
    /// nor a miss.
    pub fn twin(&self, lineage: u64) -> Option<CachedEntry> {
        self.inner.lock().map.get(&lineage).cloned()
    }

    /// Holds `entry` as the twin under `lineage`; false when it is larger
    /// than the whole budget.
    pub fn insert_twin(&self, lineage: u64, entry: CachedEntry) -> bool {
        self.store(lineage, entry)
    }

    /// Drops the entry under `lineage`, returning the bytes it held.
    pub fn remove(&self, lineage: u64) -> Option<usize> {
        let mut inner = self.inner.lock();
        let bytes = inner.map.remove(&lineage)?.value.size_bytes();
        inner.order.retain(|l| *l != lineage);
        inner.bytes -= bytes;
        Some(bytes)
    }

    fn store(&self, lineage: u64, entry: CachedEntry) -> bool {
        let bytes = entry.value.size_bytes();
        if !self.fits(bytes) {
            return false;
        }
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&lineage) {
            return true;
        }
        let mut evicted = 0u64;
        while inner.bytes + bytes > self.byte_budget {
            match inner.order.pop_front() {
                Some(old) => {
                    if let Some(e) = inner.map.remove(&old) {
                        inner.bytes -= e.value.size_bytes();
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        inner.map.insert(lineage, entry);
        inner.order.push_back(lineage);
        inner.bytes += bytes;
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.m_evictions.add(evicted);
        }
        true
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted (FIFO, over-budget) so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached entries.
    pub fn entries(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Drops all entries and local counters (the scope-wide counters in
    /// the global metrics registry are cumulative across clears).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: f64) -> CachedEntry {
        CachedEntry {
            value: Arc::new(DataValue::Scalar(v)),
            privacy: PrivacyLevel::Public,
            releasable: true,
        }
    }

    #[test]
    fn hash_mixing_is_order_sensitive() {
        let a = mix(mix(seed("op"), 1), 2);
        let b = mix(mix(seed("op"), 2), 1);
        assert_ne!(a, b);
        assert_ne!(seed("op1"), seed("op2"));
    }

    #[test]
    fn of_value_sees_every_cell_and_string() {
        use exdra_matrix::frame::{Frame, FrameColumn};
        let a = DenseMatrix::filled(1_000, 8, 7.0);
        let va = DataValue::from(a.clone());
        assert_eq!(of_value(&va), of_value(&va.clone()));
        // Same shape, same head and tail, one cell in the middle row.
        let mut b = a.clone();
        b.set(500, 3, 8.0);
        assert_ne!(of_value(&va), of_value(&DataValue::from(b.clone())));
        assert_ne!(of_dense(&a), of_dense(&b));
        // The shape takes part: the same cells as 8000 x 1.
        assert_ne!(of_dense(&a), of_dense(&a.reshape(8_000, 1).unwrap()));
        // Lists recurse, and a list of one is not its element.
        assert_ne!(
            of_value(&DataValue::List(vec![va.clone()])),
            of_value(&DataValue::List(vec![DataValue::from(b)]))
        );
        assert_ne!(of_value(&DataValue::List(vec![va.clone()])), of_value(&va));

        let frame = |mid: &str| {
            let mut tokens: Vec<Option<String>> = vec![Some("same".into()); 999];
            tokens[400] = Some(mid.into());
            tokens[401] = None;
            DataValue::Frame(Frame::new(vec![("c".into(), FrameColumn::Str(tokens))]).unwrap())
        };
        assert_eq!(of_value(&frame("x")), of_value(&frame("x")));
        assert_ne!(of_value(&frame("x")), of_value(&frame("y")));
    }

    #[test]
    fn fold_is_the_same_for_any_split_of_the_bytes() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1_003).collect();
        let fold = |parts: &[&[u8]]| {
            let mut f = Fold::new();
            for p in parts {
                f.put_slice(p);
            }
            f.finish()
        };
        for cut in [0, 1, 7, 8, 9, 500, 1_002] {
            assert_eq!(fold(&[&bytes[..cut], &bytes[cut..]]), fold(&[&bytes]));
        }
        // Trailing bytes and the length take part.
        assert_ne!(fold(&[&bytes, &[0]]), fold(&[&bytes]));
        assert_ne!(fold(&[&bytes[..1_000]]), fold(&[&bytes[..1_001]]));
    }

    #[test]
    fn twins_share_the_budget_but_not_the_reuse_switch_or_counters() {
        let twin = |rows| CachedEntry {
            value: Arc::new(DataValue::from(DenseMatrix::zeros(rows, 1))),
            privacy: PrivacyLevel::Private,
            releasable: false,
        };
        // Held with reuse off; neither a hit nor a miss.
        let c = LineageCache::new(100, false);
        assert!(c.twin(twin_of(1)).is_none());
        assert!(c.insert_twin(twin_of(1), twin(10)));
        assert!(c.twin(twin_of(1)).is_some());
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert!(c.probe(twin_of(1)).is_none(), "reuse stays off");
        // Budget: FIFO eviction, and nothing above the whole budget.
        assert!(c.fits(100) && !c.fits(101));
        assert!(!c.insert_twin(twin_of(2), twin(13)));
        assert!(c.insert_twin(twin_of(3), twin(5)));
        assert!(c.twin(twin_of(1)).is_none(), "evicted for the newer twin");
        assert_eq!(c.bytes(), 40);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.remove(twin_of(3)), Some(40));
        assert_eq!(c.remove(twin_of(3)), None);
        assert_eq!((c.bytes(), c.entries()), (0, 0));
    }

    #[test]
    fn probe_insert_hit_counting() {
        let c = LineageCache::new(1024, true);
        assert!(c.probe(42).is_none());
        c.insert(42, entry(1.0));
        let hit = c.probe(42).unwrap();
        assert_eq!(hit.value.as_scalar().unwrap(), 1.0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let c = LineageCache::new(1024, false);
        c.insert(1, entry(1.0));
        assert!(c.probe(1).is_none());
        assert_eq!(c.entries(), 0);
    }

    #[test]
    fn eviction_respects_budget_and_counts() {
        let c = LineageCache::new(24, true); // room for 3 scalars
        for i in 0..5 {
            c.insert(i, entry(i as f64));
        }
        assert!(c.bytes() <= 24);
        assert!(c.entries() <= 3);
        // Oldest entries were evicted, and the evictions were counted.
        assert!(c.probe(0).is_none());
        assert!(c.probe(4).is_some());
        assert_eq!(c.evictions(), 2);
        c.clear();
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn scopes_count_into_distinct_registry_metrics() {
        let reg = exdra_obs::global();
        let w0 = reg.counter("lineage.worker.hits").get();
        let c0 = reg.counter("lineage.coordinator.hits").get();
        let worker = LineageCache::new(1024, true);
        let coord = LineageCache::new_scoped(1024, true, CacheScope::Coordinator);
        assert_eq!(worker.scope(), CacheScope::Worker);
        assert_eq!(coord.scope(), CacheScope::Coordinator);
        worker.insert(1, entry(1.0));
        coord.insert(1, entry(1.0));
        worker.probe(1);
        coord.probe(1);
        coord.probe(1);
        // Distinct global metric streams: a coordinator-side reuse is
        // never mistaken for a worker hit. (Other tests in this binary
        // also probe worker-scoped caches concurrently, so the worker
        // stream is only checked for monotonicity.)
        assert!(reg.counter("lineage.worker.hits").get() > w0);
        assert_eq!(reg.counter("lineage.coordinator.hits").get() - c0, 2);
    }

    #[test]
    fn oversized_values_not_cached() {
        let c = LineageCache::new(16, true);
        let big = CachedEntry {
            value: Arc::new(DataValue::from(exdra_matrix::DenseMatrix::zeros(10, 10))),
            privacy: PrivacyLevel::Public,
            releasable: true,
        };
        c.insert(1, big);
        assert_eq!(c.entries(), 0);
    }
}
