//! Deterministic intra-operator data parallelism for ExDRa workers.
//!
//! A small chunk-splitting compute pool in the spirit of rayon's
//! `join`/`par_chunks`, built from `std::thread::scope` plus the vendored
//! `crossbeam` channel (the workspace builds offline, so there is no real
//! rayon). A parallel *region* splits one operator's work into enumerated
//! chunks, pushes them into a shared MPMC injector queue, and lets the
//! caller thread plus `width - 1` scoped workers self-schedule by popping
//! chunks until the queue drains — idle threads "steal" whatever chunk is
//! next rather than being bound to a static slice of the iteration space.
//!
//! # Determinism contract
//!
//! Every entry point hands each chunk a **disjoint** `&mut` view of the
//! output, or returns per-chunk results in chunk order, and kernels built
//! on top arrange their per-output-element reduction order to be
//! identical to the serial schedule. The one place partial results meet
//! is [`fold_in_order`], which folds parts in ascending index order
//! whichever thread computed them: the serial left fold. So the bits
//! written are a pure function of the decomposition the kernel chose —
//! and kernels choose decompositions that do not depend on the width —
//! identical at *every* thread count, including `EXDRA_THREADS=1`, which
//! executes the same schedule in order on the calling thread.
//!
//! # Sizing
//!
//! The pool width comes from, in priority order: a thread-local
//! [`with_threads`] override (scoped, for tests), the process-global
//! [`set_threads`] override, the `EXDRA_THREADS` environment variable
//! (read once), and finally [`std::thread::available_parallelism`].
//! Nested regions — a parallel kernel invoked from inside a chunk — run
//! serially on the worker that reached them, so recursion never
//! oversubscribes the machine.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Target number of chunks handed to each thread, so faster threads can
/// steal work from slower ones instead of idling at a static partition.
const CHUNKS_PER_THREAD: usize = 4;

/// Process-global thread-count override (0 = unset). See [`set_threads`].
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        match std::env::var("EXDRA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

thread_local! {
    /// Scoped thread-count override (0 = unset); see [`with_threads`].
    static TL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set on every thread currently executing region chunks; nested
    /// regions observe it and degrade to serial execution.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
    /// Per-thread accumulation of region statistics since the last
    /// [`take_region_stats`].
    static TL_STATS: Cell<RegionStats> = const { Cell::new(RegionStats::ZERO) };
}

/// The pool width parallel regions on this thread will use.
pub fn threads() -> usize {
    let tl = TL_THREADS.with(Cell::get);
    if tl != 0 {
        return tl;
    }
    let g = GLOBAL_THREADS.load(Ordering::Relaxed);
    if g != 0 {
        return g;
    }
    hardware_threads()
}

/// Sets the process-global pool width. `0` clears the override, falling
/// back to `EXDRA_THREADS` / `available_parallelism`.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the pool width pinned to `n` on this thread (and the
/// threads its regions spawn). Restores the previous override on exit,
/// including on panic. Intended for tests comparing thread counts.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TL_THREADS.with(|c| c.replace(n)));
    f()
}

/// Statistics accumulated per thread across parallel regions, consumed by
/// the worker's instruction instrumentation via [`take_region_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Regions that actually fanned out across threads.
    pub regions: u64,
    /// Regions that ran serially (width 1, single chunk, or nested).
    pub serial_regions: u64,
    /// Total chunks executed across all regions.
    pub chunks: u64,
    /// Chunks executed on spawned (non-caller) threads.
    pub steals: u64,
    /// Largest width engaged by any single region.
    pub max_threads: u64,
    /// Sum over regions of the width engaged (for mean width).
    pub threads_engaged: u64,
}

impl RegionStats {
    const ZERO: RegionStats = RegionStats {
        regions: 0,
        serial_regions: 0,
        chunks: 0,
        steals: 0,
        max_threads: 0,
        threads_engaged: 0,
    };

    /// Total regions, parallel and serial.
    pub fn total_regions(&self) -> u64 {
        self.regions + self.serial_regions
    }
}

/// Returns and resets the calling thread's accumulated [`RegionStats`].
///
/// The worker runtime calls this immediately before running an
/// instruction (to reset) and immediately after (to read), attributing
/// the delta to that instruction's span.
pub fn take_region_stats() -> RegionStats {
    TL_STATS.with(|c| c.replace(RegionStats::ZERO))
}

fn record_region(chunks: usize, engaged: usize, steals: u64, parallel: bool) {
    TL_STATS.with(|c| {
        let mut s = c.get();
        if parallel {
            s.regions += 1;
        } else {
            s.serial_regions += 1;
        }
        s.chunks += chunks as u64;
        s.steals += steals;
        s.max_threads = s.max_threads.max(engaged as u64);
        s.threads_engaged += engaged as u64;
        c.set(s);
    });
    if exdra_obs::enabled() {
        let g = exdra_obs::global();
        if parallel {
            g.inc("par.regions");
            g.add("par.chunks", chunks as u64);
            g.add("par.steals", steals);
            g.record("par.threads_used", engaged as u64);
        } else {
            g.inc("par.serial_regions");
        }
    }
}

/// Chunk length targeting ~`CHUNKS_PER_THREAD` chunks per pool thread,
/// but never below `min_chunk` items (callers derive `min_chunk` from the
/// per-item cost so tiny inputs stay single-chunk and serial).
pub fn chunk_len(total: usize, min_chunk: usize) -> usize {
    let target = threads().saturating_mul(CHUNKS_PER_THREAD).max(1);
    total.div_ceil(target).max(min_chunk.max(1))
}

/// Effective width for a region with `n_chunks` chunks on this thread:
/// 1 inside an enclosing region (serial nesting) or when there is nothing
/// to fan out, otherwise `min(threads(), n_chunks)`.
fn region_width(n_chunks: usize) -> usize {
    if n_chunks <= 1 || IN_REGION.with(Cell::get) {
        1
    } else {
        threads().min(n_chunks)
    }
}

/// Runs enumerated jobs through the shared injector queue across `width`
/// threads (the caller plus `width - 1` scoped workers). Returns the
/// number of jobs executed on spawned threads ("steals").
fn run_queue<J, F>(width: usize, jobs: Vec<J>, f: F) -> u64
where
    J: Send,
    F: Fn(J) + Sync,
{
    let (tx, rx) = crossbeam::channel::unbounded();
    for job in jobs {
        let _ = tx.send(job);
    }
    drop(tx);
    let steals = AtomicU64::new(0);
    struct Region(bool);
    impl Drop for Region {
        fn drop(&mut self) {
            IN_REGION.with(|c| c.set(self.0));
        }
    }
    std::thread::scope(|s| {
        for _ in 1..width {
            let rx = rx.clone();
            let f = &f;
            let steals = &steals;
            s.spawn(move || {
                IN_REGION.with(|c| c.set(true));
                while let Ok(job) = rx.recv() {
                    steals.fetch_add(1, Ordering::Relaxed);
                    f(job);
                }
            });
        }
        // The caller participates too; the guard restores its nesting
        // flag even if a chunk panics (the scope joins workers first and
        // re-raises the panic afterwards).
        let _region = Region(IN_REGION.with(|c| c.replace(true)));
        while let Ok(job) = rx.recv() {
            f(job);
        }
    });
    steals.load(Ordering::Relaxed)
}

/// Splits `data` into chunks of `chunk` items and runs
/// `f(chunk_index, item_offset, chunk)` for each, fanning chunks out
/// across the pool. Chunks are disjoint `&mut` slices, so any per-chunk
/// write pattern is race-free by construction; with a serial-order
/// per-element schedule inside `f`, output bits are identical at every
/// thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = data.len().div_ceil(chunk);
    if n_chunks == 0 {
        return;
    }
    let width = region_width(n_chunks);
    if width <= 1 {
        struct Region(bool);
        impl Drop for Region {
            fn drop(&mut self) {
                IN_REGION.with(|c| c.set(self.0));
            }
        }
        let _region = Region(IN_REGION.with(|c| c.replace(true)));
        for (i, part) in data.chunks_mut(chunk).enumerate() {
            f(i, i * chunk, part);
        }
        drop(_region);
        record_region(n_chunks, 1, 0, false);
        return;
    }
    let jobs: Vec<(usize, &mut [T])> = data.chunks_mut(chunk).enumerate().collect();
    let steals = run_queue(width, jobs, |(i, part)| f(i, i * chunk, part));
    record_region(n_chunks, width, steals, true);
}

/// Splits `0..total` into index ranges of `chunk` items and runs
/// `f(chunk_index, range)` for each across the pool. For kernels whose
/// output disjointness is not expressible as one flat slice (e.g. gather
/// + encode pipelines); `f` must only touch state owned by its range.
pub fn for_each_chunk<F>(total: usize, chunk: usize, f: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = total.div_ceil(chunk);
    if n_chunks == 0 {
        return;
    }
    let ranges = |i: usize| -> Range<usize> { i * chunk..(i * chunk + chunk).min(total) };
    let width = region_width(n_chunks);
    if width <= 1 {
        struct Region(bool);
        impl Drop for Region {
            fn drop(&mut self) {
                IN_REGION.with(|c| c.set(self.0));
            }
        }
        let _region = Region(IN_REGION.with(|c| c.replace(true)));
        for i in 0..n_chunks {
            f(i, ranges(i));
        }
        drop(_region);
        record_region(n_chunks, 1, 0, false);
        return;
    }
    let jobs: Vec<usize> = (0..n_chunks).collect();
    let steals = run_queue(width, jobs, |i| f(i, ranges(i)));
    record_region(n_chunks, width, steals, true);
}

/// Maps `0..total` in chunks of `chunk` items through
/// `f(chunk_index, range)` across the pool, returning the results **in
/// chunk order** regardless of which thread produced them.
pub fn map_chunks<R, F>(total: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = total.div_ceil(chunk);
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    par_chunks_mut(&mut slots, 1, |i, _, slot| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(total);
        slot[0] = Some(f(i, lo..hi));
    });
    slots
        .into_iter()
        .map(|s| s.expect("every chunk executes exactly once"))
        .collect()
}

/// Computes `part(i)` for every `i` in `0..total` across the pool, `chunk`
/// indices per job, and folds the parts in ascending index order: the
/// result starts as `part(0)` and `merge(&mut acc, part(i))` adds each
/// next one. A part is folded as soon as every earlier one has been,
/// whichever thread computed it (parts that finish early wait), so the
/// result is the serial left fold at every width. `None` when `total`
/// is 0.
pub fn fold_in_order<P, F, M>(total: usize, chunk: usize, part: F, merge: M) -> Option<P>
where
    P: Send,
    F: Fn(usize) -> P + Sync,
    M: Fn(&mut P, P) + Sync,
{
    struct Fold<P> {
        next: usize,
        acc: Option<P>,
        early: Vec<(usize, P)>,
    }
    let state = Mutex::new(Fold {
        next: 0,
        acc: None,
        early: Vec::new(),
    });
    for_each_chunk(total, chunk, |_, items| {
        for i in items {
            let p = part(i);
            let mut s = state.lock().unwrap_or_else(PoisonError::into_inner);
            s.early.push((i, p));
            loop {
                let next = s.next;
                let Some(at) = s.early.iter().position(|&(j, _)| j == next) else {
                    break;
                };
                let (_, p) = s.early.swap_remove(at);
                match &mut s.acc {
                    Some(acc) => merge(acc, p),
                    None => s.acc = Some(p),
                }
                s.next += 1;
            }
        }
    });
    state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .acc
}

/// Runs `a` and `b` potentially in parallel, returning both results.
/// `b` runs on a scoped thread when the pool width allows; inside an
/// enclosing region both run serially on the caller.
pub fn join<Ra, Rb, A, B>(a: A, b: B) -> (Ra, Rb)
where
    Ra: Send,
    Rb: Send,
    A: FnOnce() -> Ra + Send,
    B: FnOnce() -> Rb + Send,
{
    if threads() <= 1 || IN_REGION.with(Cell::get) {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(|| {
            IN_REGION.with(|c| c.set(true));
            b()
        });
        let ra = a();
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn threads_resolution_order() {
        set_threads(0);
        let hw = threads();
        assert!(hw >= 1);
        set_threads(6);
        assert_eq!(threads(), 6);
        with_threads(2, || assert_eq!(threads(), 2));
        assert_eq!(threads(), 6);
        set_threads(0);
        assert_eq!(threads(), hw);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = TL_THREADS.with(Cell::get);
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(TL_THREADS.with(Cell::get), before);
    }

    #[test]
    fn par_chunks_mut_covers_every_item_once() {
        for threads in [1usize, 2, 3, 8] {
            with_threads(threads, || {
                let mut data = vec![0u32; 1003];
                par_chunks_mut(&mut data, 17, |_, off, part| {
                    for (d, v) in part.iter_mut().enumerate() {
                        *v += (off + d) as u32 + 1;
                    }
                });
                for (i, v) in data.iter().enumerate() {
                    assert_eq!(*v, i as u32 + 1, "item {i} at {threads} threads");
                }
            });
        }
    }

    #[test]
    fn par_chunks_mut_handles_empty_input() {
        let mut data: Vec<u8> = Vec::new();
        par_chunks_mut(&mut data, 4, |_, _, _| panic!("no chunks expected"));
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        for threads in [1usize, 4] {
            let got = with_threads(threads, || {
                map_chunks(25, 4, |i, range| (i, range.start, range.end))
            });
            let want: Vec<_> = (0..7).map(|i| (i, i * 4, ((i + 1) * 4).min(25))).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn for_each_chunk_ranges_partition_the_input() {
        with_threads(4, || {
            let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            for_each_chunk(103, 10, |_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn nested_regions_run_serial() {
        with_threads(4, || {
            take_region_stats();
            let mut outer = vec![0u64; 64];
            par_chunks_mut(&mut outer, 8, |_, _, part| {
                // Every thread executing a chunk is flagged in-region, so
                // the nested call below must degrade to width 1.
                assert!(IN_REGION.with(Cell::get));
                let mut inner = vec![0u64; 32];
                par_chunks_mut(&mut inner, 4, |_, off, p| {
                    for (d, v) in p.iter_mut().enumerate() {
                        *v = (off + d) as u64;
                    }
                });
                part[0] = inner.iter().sum();
            });
            // Only the outer region registers as parallel on this thread.
            let stats = take_region_stats();
            assert_eq!(stats.regions, 1);
            assert_eq!(outer[0], (0..32).sum::<u64>());
        });
    }

    #[test]
    fn serial_override_matches_parallel_bits() {
        let run = |t: usize| {
            with_threads(t, || {
                let mut data = vec![0f64; 777];
                par_chunks_mut(&mut data, 13, |_, off, part| {
                    for (d, v) in part.iter_mut().enumerate() {
                        let i = (off + d) as f64;
                        *v = (i * 0.1).sin() / (i + 1.0);
                    }
                });
                data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(16));
    }

    #[test]
    fn region_stats_accumulate_and_reset() {
        with_threads(3, || {
            take_region_stats();
            let mut data = vec![0u8; 90];
            par_chunks_mut(&mut data, 10, |_, _, _| {});
            let s = take_region_stats();
            assert_eq!(s.regions, 1);
            assert_eq!(s.chunks, 9);
            assert_eq!(s.max_threads, 3);
            assert_eq!(take_region_stats(), RegionStats::ZERO);
        });
    }

    #[test]
    fn join_returns_both_results() {
        with_threads(2, || {
            let (a, b) = join(|| 2 + 2, || "ok");
            assert_eq!((a, b), (4, "ok"));
        });
        with_threads(1, || {
            let (a, b) = join(|| 1, || 2);
            assert_eq!((a, b), (1, 2));
        });
    }

    #[test]
    fn chunk_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(2, || {
                let mut data = vec![0u8; 100];
                par_chunks_mut(&mut data, 10, |i, _, _| {
                    if i == 7 {
                        panic!("chunk failure");
                    }
                });
            })
        });
        assert!(caught.is_err());
        // The pool must remain usable after a panicking region.
        with_threads(2, || {
            let mut data = vec![0u8; 20];
            par_chunks_mut(&mut data, 5, |_, _, part| part.fill(1));
            assert!(data.iter().all(|&v| v == 1));
        });
    }

    #[test]
    fn chunk_len_targets_pool_width() {
        with_threads(4, || {
            assert_eq!(chunk_len(1600, 1), 100);
            // min_chunk floors the result.
            assert_eq!(chunk_len(1600, 500), 500);
            assert_eq!(chunk_len(0, 1), 1);
        });
    }

    #[test]
    fn fold_in_order_is_the_serial_left_fold() {
        // String concatenation does not commute: any out-of-order merge
        // shows in the result.
        let want: String = (0..37).map(|i| format!("{i},")).collect();
        for threads in [1usize, 2, 3, 8] {
            for chunk in [1, 4, 50] {
                let got = with_threads(threads, || {
                    fold_in_order(37, chunk, |i| format!("{i},"), |acc, p| acc.push_str(&p))
                });
                assert_eq!(
                    got.as_deref(),
                    Some(want.as_str()),
                    "{threads} threads, chunk {chunk}"
                );
            }
        }
        assert_eq!(fold_in_order(0, 1, |i| i, |a, p| *a += p), None);
    }
}
