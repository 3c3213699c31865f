//! Per-channel network accounting.
//!
//! The communication experiments (paper Figure 6 and the scalability
//! discussion of Figure 5) need bytes-moved and time-in-network per
//! configuration; [`NetStats`] is a cheap atomic counter bundle shared
//! between a channel wrapper and the reporting harness.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomic counters for one logical connection (or an aggregate of many).
#[derive(Debug, Default)]
pub struct NetStats {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    /// Nanoseconds spent blocked in send/recv calls.
    network_nanos: AtomicU64,
    /// RPC attempts beyond the first (fault-tolerance layer).
    retries: AtomicU64,
    /// Heartbeat probes issued (fault-tolerance layer).
    heartbeats: AtomicU64,
    /// Channel re-establishments after a worker failure (supervision
    /// layer: reconnects and replacement channels).
    recoveries: AtomicU64,
}

impl NetStats {
    /// Creates a zeroed, shareable counter bundle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records an outbound message of `bytes` taking `nanos`, also in the
    /// calling thread's [`take_thread_wire_nanos`].
    pub fn record_send(&self, bytes: u64, nanos: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.record_wire(nanos);
    }

    /// Records an inbound message of `bytes` taking `nanos`, also in the
    /// calling thread's [`take_thread_wire_nanos`].
    pub fn record_recv(&self, bytes: u64, nanos: u64) {
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.record_wire(nanos);
    }

    fn record_wire(&self, nanos: u64) {
        self.network_nanos.fetch_add(nanos, Ordering::Relaxed);
        THREAD_WIRE_NANOS.with(|t| t.set(t.get() + nanos));
    }

    /// Total bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Total messages received.
    pub fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }

    /// Total seconds spent blocked in the network layer.
    pub fn network_seconds(&self) -> f64 {
        self.network_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Total nanoseconds spent blocked in the network layer (exact
    /// integer form of [`NetStats::network_seconds`], for comparison
    /// against span durations).
    pub fn network_nanos(&self) -> u64 {
        self.network_nanos.load(Ordering::Relaxed)
    }

    /// Records one RPC retry (an attempt beyond the first).
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one heartbeat probe.
    pub fn record_heartbeat(&self) {
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
    }

    /// Total RPC retries.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total heartbeat probes.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats.load(Ordering::Relaxed)
    }

    /// Records one channel re-establishment after a worker failure.
    pub fn record_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total channel re-establishments.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy of all counters (each counter
    /// is read atomically; the set is not a single atomic snapshot, which
    /// is fine for reporting).
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            bytes_sent: self.bytes_sent(),
            bytes_received: self.bytes_received(),
            messages_sent: self.messages_sent(),
            messages_received: self.messages_received(),
            network_seconds: self.network_seconds(),
            network_nanos: self.network_nanos(),
            retries: self.retries(),
            heartbeats: self.heartbeats(),
            recoveries: self.recoveries(),
            max_inflight: 0,
        }
    }

    /// Resets all counters (between experiment repetitions).
    pub fn reset(&self) {
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.messages_sent.store(0, Ordering::Relaxed);
        self.messages_received.store(0, Ordering::Relaxed);
        self.network_nanos.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.heartbeats.store(0, Ordering::Relaxed);
        self.recoveries.store(0, Ordering::Relaxed);
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        self.snapshot().to_string()
    }
}

thread_local! {
    static THREAD_WIRE_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// The wire time recorded on the calling thread since its previous call:
/// the same measured intervals [`NetStats::network_nanos`] sums, so an
/// exchange that sends and receives on one thread can book exactly its
/// own share of that total.
pub fn take_thread_wire_nanos() -> u64 {
    THREAD_WIRE_NANOS.with(|t| t.replace(0))
}

/// Plain-data copy of [`NetStats`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetStatsSnapshot {
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Total bytes received.
    pub bytes_received: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total messages received.
    pub messages_received: u64,
    /// Seconds spent blocked in the network layer.
    pub network_seconds: f64,
    /// Nanoseconds spent blocked in the network layer.
    pub network_nanos: u64,
    /// RPC attempts beyond the first.
    pub retries: u64,
    /// Heartbeat probes issued.
    pub heartbeats: u64,
    /// Channel re-establishments after worker failures.
    pub recoveries: u64,
    /// Always 0: every exchange is one envelope and one reply, so there
    /// is no window of in-flight requests to measure. Kept only for
    /// readers that still report it.
    pub max_inflight: u64,
}

impl NetStatsSnapshot {
    /// Counter deltas since an `earlier` snapshot of the same
    /// [`NetStats`], for per-phase accounting (bench repetitions,
    /// profiler windows) without resetting shared process-lifetime
    /// totals. Saturates at zero if `earlier` was taken after `self`
    /// or the counters were reset in between.
    pub fn delta(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        NetStatsSnapshot {
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            messages_received: self
                .messages_received
                .saturating_sub(earlier.messages_received),
            network_seconds: (self.network_seconds - earlier.network_seconds).max(0.0),
            network_nanos: self.network_nanos.saturating_sub(earlier.network_nanos),
            retries: self.retries.saturating_sub(earlier.retries),
            heartbeats: self.heartbeats.saturating_sub(earlier.heartbeats),
            recoveries: self.recoveries.saturating_sub(earlier.recoveries),
            max_inflight: 0,
        }
    }
}

impl std::fmt::Display for NetStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent {} msgs / {:.2} MB, recv {} msgs / {:.2} MB, {:.3}s in network, \
             {} retries, {} heartbeats, {} recoveries",
            self.messages_sent,
            self.bytes_sent as f64 / 1e6,
            self.messages_received,
            self.bytes_received as f64 / 1e6,
            self.network_seconds,
            self.retries,
            self.heartbeats,
            self.recoveries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = NetStats::shared();
        take_thread_wire_nanos();
        s.record_send(100, 1_000_000);
        s.record_send(50, 500_000);
        s.record_recv(10, 100_000);
        assert_eq!(take_thread_wire_nanos(), s.network_nanos());
        assert_eq!(take_thread_wire_nanos(), 0);
        s.record_retry();
        s.record_heartbeat();
        s.record_heartbeat();
        s.record_recovery();
        assert_eq!(s.bytes_sent(), 150);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.bytes_received(), 10);
        assert!((s.network_seconds() - 0.0016).abs() < 1e-9);
        assert_eq!(s.retries(), 1);
        assert_eq!(s.heartbeats(), 2);
        assert_eq!(s.recoveries(), 1);
        s.reset();
        assert_eq!(s.bytes_sent(), 0);
        assert_eq!(s.messages_received(), 0);
        assert_eq!(s.retries(), 0);
        assert_eq!(s.heartbeats(), 0);
        assert_eq!(s.recoveries(), 0);
    }

    #[test]
    fn snapshot_captures_and_displays() {
        let s = NetStats::shared();
        s.record_send(2_000_000, 5_000_000);
        s.record_retry();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 2_000_000);
        assert_eq!(snap.messages_sent, 1);
        assert_eq!(snap.retries, 1);
        let text = snap.to_string();
        assert!(text.contains("2.00 MB"), "{text}");
        assert!(text.contains("1 retries"), "{text}");
        // Snapshot is a copy: later traffic doesn't change it.
        s.record_send(1, 1);
        assert_eq!(snap.messages_sent, 1);
        assert_eq!(s.summary(), s.snapshot().to_string());
    }

    #[test]
    fn snapshot_delta_isolates_a_phase() {
        let s = NetStats::shared();
        s.record_send(100, 1_000);
        s.record_heartbeat();
        let before = s.snapshot();
        s.record_send(50, 2_000);
        s.record_recv(25, 500);
        s.record_retry();
        let phase = s.snapshot().delta(&before);
        assert_eq!(phase.bytes_sent, 50);
        assert_eq!(phase.messages_sent, 1);
        assert_eq!(phase.bytes_received, 25);
        assert_eq!(phase.messages_received, 1);
        assert_eq!(phase.network_nanos, 2_500);
        assert_eq!(phase.retries, 1);
        assert_eq!(phase.heartbeats, 0);
        // A reset between snapshots saturates rather than underflows.
        let late = s.snapshot();
        s.reset();
        let after_reset = s.snapshot().delta(&late);
        assert_eq!(after_reset.bytes_sent, 0);
        assert!(after_reset.network_seconds >= 0.0);
    }

    #[test]
    fn delta_under_two_concurrent_sessions_never_underflows() {
        // Two sessions share one channel's `NetStats` (the multi-tenant
        // coordinator's attach socket): both record traffic while a
        // third thread takes rolling snapshots and diffs consecutive
        // pairs. Every delta must be non-negative (no underflow) and
        // consecutive snapshots monotone, even though snapshot() is not
        // a single atomic read across counters.
        let s = NetStats::shared();
        let live = Arc::new(std::sync::atomic::AtomicUsize::new(2));
        let sessions: Vec<_> = (0..2)
            .map(|i| {
                let s = Arc::clone(&s);
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        s.record_send(10 + i, 100);
                        s.record_recv(5, 50);
                        if i == 0 {
                            s.record_retry();
                        } else {
                            s.record_heartbeat();
                        }
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let mut prev = s.snapshot();
        while live.load(Ordering::SeqCst) > 0 {
            let now = s.snapshot();
            // Monotonicity: each counter only grows while both sessions
            // are live (no reset in this window).
            assert!(now.bytes_sent >= prev.bytes_sent);
            assert!(now.bytes_received >= prev.bytes_received);
            assert!(now.messages_sent >= prev.messages_sent);
            assert!(now.messages_received >= prev.messages_received);
            assert!(now.network_nanos >= prev.network_nanos);
            assert!(now.retries >= prev.retries);
            assert!(now.heartbeats >= prev.heartbeats);
            let d = now.delta(&prev);
            // Deltas are exact differences here — saturating_sub never
            // had to clamp — and internally consistent.
            assert_eq!(d.bytes_sent, now.bytes_sent - prev.bytes_sent);
            assert_eq!(d.messages_sent, now.messages_sent - prev.messages_sent);
            assert!(d.network_seconds >= 0.0);
            // Deltas over swapped arguments saturate to zero instead of
            // wrapping (the underflow guard the coordinator relies on).
            let swapped = prev.delta(&now);
            assert_eq!(swapped.bytes_sent, 0);
            assert_eq!(swapped.messages_received, 0);
            assert_eq!(swapped.network_nanos, 0);
            prev = now;
        }
        for h in sessions {
            h.join().unwrap();
        }
        let fin = s.snapshot();
        assert!(fin.retries > 0, "session 0 traffic observed");
        assert!(fin.heartbeats > 0, "session 1 traffic observed");
        assert_eq!(
            fin.messages_sent, fin.messages_received,
            "both sessions pair each send with one recv"
        );
    }

    #[test]
    fn concurrent_updates_race_free() {
        let s = NetStats::shared();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_send(1, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.bytes_sent(), 8000);
        assert_eq!(s.messages_sent(), 8000);
    }
}
