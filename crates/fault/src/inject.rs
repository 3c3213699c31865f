//! Deterministic, seeded fault injection at the channel layer.
//!
//! A [`FaultPlan`] describes what can go wrong on a link — message drops,
//! extra delay, duplication, and a hard kill after N messages — and a
//! [`FaultyChannel`] applies the plan to any [`Channel`] on the send path.
//! All randomness comes from a SplitMix64 stream seeded by the plan, so a
//! failing test reproduces exactly from its seed. The wrapper composes
//! with the rest of the transport stack, e.g.
//! `Instrumented(Faulty(Shaped(Tcp)))` simulates a flaky WAN link.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use exdra_net::transport::{Channel, Duplex, RecvHalf, SendHalf};

use crate::retry::splitmix64;

/// A seeded description of link faults. Probabilities are per-message and
/// evaluated on the send path in the order drop → kill → delay → duplicate.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability a sent message is silently dropped.
    pub drop_prob: f64,
    /// Probability a sent message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a sent message is delayed by [`FaultPlan::delay`].
    pub delay_prob: f64,
    /// Extra latency applied to delayed messages.
    pub delay: Duration,
    /// After this many send attempts the channel dies permanently:
    /// every later send/recv fails with `BrokenPipe`/`ConnectionReset`.
    pub kill_after: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (identity wrapper).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            kill_after: None,
        }
    }

    /// Plan that kills the link after `n` sent messages.
    pub fn kill_after(seed: u64, n: u64) -> Self {
        Self {
            kill_after: Some(n),
            ..Self::none(seed)
        }
    }

    /// Plan that drops each message with probability `p`.
    pub fn dropping(seed: u64, p: f64) -> Self {
        Self {
            drop_prob: p,
            ..Self::none(seed)
        }
    }

    /// Sets the message-drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Sets the delay fault: probability `p`, extra latency `d`.
    pub fn with_delay(mut self, p: f64, d: Duration) -> Self {
        self.delay_prob = p;
        self.delay = d;
        self
    }

    /// Sets the kill threshold.
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }
}

/// Channel layer that applies a [`FaultPlan`] to the send path.
///
/// The kill flag is shared between the two halves, so a kill fired on the
/// send path also poisons a receive half running on another thread —
/// matching a real dead socket, where both directions fail.
///
/// A newtype rather than an alias of [`Duplex`] only because an inherent
/// `new` cannot be added to another crate's type; all channel behaviour
/// is the pair's.
pub struct FaultyChannel(Duplex<FaultySendHalf, FaultyRecvHalf>);

impl FaultyChannel {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: impl Channel + 'static, plan: FaultPlan) -> Self {
        let (tx, rx) = Box::new(inner).split();
        // kill_after == Some(0) means the link is dead on arrival.
        let killed = Arc::new(AtomicBool::new(matches!(plan.kill_after, Some(0))));
        Self(Duplex::from_halves(
            FaultySendHalf {
                inner: tx,
                plan,
                rng: plan.seed,
                sent: 0,
                killed: Arc::clone(&killed),
            },
            FaultyRecvHalf { inner: rx, killed },
        ))
    }
}

impl Channel for FaultyChannel {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.0.send(payload)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.0.recv()
    }

    fn split(self: Box<Self>) -> (Box<dyn SendHalf>, Box<dyn RecvHalf>) {
        Box::new(self.0).split()
    }
}

fn killed_err(kind: io::ErrorKind) -> io::Error {
    io::Error::new(kind, "fault injection: link killed")
}

/// Send side of a [`FaultyChannel`]: draws the seeded fault stream.
struct FaultySendHalf {
    inner: Box<dyn SendHalf>,
    plan: FaultPlan,
    rng: u64,
    /// Messages offered to the send path so far (including dropped ones).
    sent: u64,
    killed: Arc<AtomicBool>,
}

impl SendHalf for FaultySendHalf {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) {
            return Err(killed_err(io::ErrorKind::BrokenPipe));
        }
        self.sent += 1;
        if self.plan.kill_after.is_some_and(|n| self.sent > n) {
            self.killed.store(true, Ordering::SeqCst);
            return Err(killed_err(io::ErrorKind::BrokenPipe));
        }
        let rng = &mut self.rng;
        let mut draw = || (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        if self.plan.drop_prob > 0.0 && draw() < self.plan.drop_prob {
            // Silently lose the message: the peer never sees it, the
            // caller sees success — exactly what a lossy link does.
            return Ok(());
        }
        if self.plan.delay_prob > 0.0 && draw() < self.plan.delay_prob {
            std::thread::sleep(self.plan.delay);
        }
        if self.plan.duplicate_prob > 0.0 && draw() < self.plan.duplicate_prob {
            self.inner.send(payload)?;
        }
        self.inner.send(payload)
    }
}

/// Receive side of a [`FaultyChannel`]: fails once the link is killed.
struct FaultyRecvHalf {
    inner: Box<dyn RecvHalf>,
    killed: Arc<AtomicBool>,
}

impl RecvHalf for FaultyRecvHalf {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        if self.killed.load(Ordering::SeqCst) {
            return Err(killed_err(io::ErrorKind::ConnectionReset));
        }
        self.inner.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_net::transport::mem_pair;

    #[test]
    fn none_plan_is_transparent() {
        let (a, mut b) = mem_pair();
        let mut fa = FaultyChannel::new(a, FaultPlan::none(1));
        fa.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
    }

    #[test]
    fn kill_after_n_messages() {
        let (a, mut b) = mem_pair();
        let mut fa = FaultyChannel::new(a, FaultPlan::kill_after(1, 2));
        fa.send(b"1").unwrap();
        fa.send(b"2").unwrap();
        let err = fa.send(b"3").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(fa.recv().is_err());
        assert_eq!(b.recv().unwrap(), b"1");
        assert_eq!(b.recv().unwrap(), b"2");
    }

    #[test]
    fn kill_after_zero_is_dead_on_arrival() {
        let (a, _b) = mem_pair();
        let mut fa = FaultyChannel::new(a, FaultPlan::kill_after(9, 0));
        assert!(fa.send(b"x").is_err());
    }

    #[test]
    fn drops_are_silent_and_seeded() {
        let run = |seed| {
            let (a, b) = mem_pair();
            let mut fa = FaultyChannel::new(a, FaultPlan::dropping(seed, 0.5));
            for i in 0..100u8 {
                fa.send(&[i]).unwrap();
            }
            drop(fa);
            let mut got = Vec::new();
            let mut b = b;
            while let Ok(m) = b.recv() {
                got.push(m[0]);
            }
            got
        };
        let first = run(42);
        assert!(first.len() < 100, "some messages must drop");
        assert!(!first.is_empty(), "some messages must survive");
        assert_eq!(first, run(42), "same seed, same faults");
        assert_ne!(first, run(43), "different seed, different faults");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (a, b) = mem_pair();
        let mut fa = FaultyChannel::new(a, FaultPlan::none(7).with_duplicate(1.0));
        fa.send(b"dup").unwrap();
        drop(fa);
        let mut b = b;
        assert_eq!(b.recv().unwrap(), b"dup");
        assert_eq!(b.recv().unwrap(), b"dup");
        assert!(b.recv().is_err());
    }

    #[test]
    fn split_halves_share_the_kill_flag() {
        let (a, mut b) = mem_pair();
        let fa = FaultyChannel::new(a, FaultPlan::kill_after(5, 1));
        let (mut s, mut r) = Box::new(fa).split();
        s.send(b"ok").unwrap();
        assert_eq!(b.recv().unwrap(), b"ok");
        // The second send trips the kill; the receive half (which could be
        // on another thread) must observe the same death.
        assert!(s.send(b"boom").is_err());
        let err = r.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn delay_fault_adds_latency() {
        let (a, mut b) = mem_pair();
        let mut fa = FaultyChannel::new(
            a,
            FaultPlan::none(3).with_delay(1.0, Duration::from_millis(20)),
        );
        let t0 = std::time::Instant::now();
        fa.send(b"slow").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(b.recv().unwrap(), b"slow");
    }
}
