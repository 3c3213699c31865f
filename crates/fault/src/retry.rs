//! Retry with exponential backoff, decorrelated jitter, and deadlines.
//!
//! Every coordinator→worker RPC is wrapped in a [`RetryPolicy`]: transient
//! failures (timeouts, refused connections — the WAN reality of federated
//! deployments) are retried with growing, jittered delays; a peer that
//! closed the channel ([`peer_closed`]) gets one immediate retry, because
//! only a new channel can answer and no wait produces one; fatal failures
//! (protocol violations, authentication failures) surface immediately.
//! A [`Deadline`] caps the whole retry loop so callers get a bounded
//! worst-case latency instead of an unbounded reconnect storm.
//!
//! The backoff schedule is "decorrelated jitter" (each delay drawn
//! uniformly from `[base, 3 * previous]`, clamped to `[base, cap]`), which
//! spreads synchronized retries from many callers better than plain
//! exponential backoff.

use std::io;
use std::time::{Duration, Instant};

/// What an RPC failure means for the next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Weather, worth waiting out: the operation may succeed on a later
    /// attempt (timeout, refused connection, worker restarting).
    Transient,
    /// The peer closed the channel. Waiting revives nothing: the next
    /// attempt must bring a new channel, and may start at once.
    Closed,
    /// Retrying cannot help: the failure is deterministic (malformed
    /// protocol data, privacy denial, invalid request).
    Fatal,
}

/// True when `e` says the peer closed the channel: the one list behind
/// both [`ErrorClass::Closed`] and the coordinator's typed `WorkerDead`.
pub fn peer_closed(e: &io::Error) -> bool {
    use io::ErrorKind::*;
    matches!(
        e.kind(),
        BrokenPipe | ConnectionReset | ConnectionAborted | UnexpectedEof | NotConnected
    )
}

/// Classifies an I/O error by kind: a closed peer, network weather
/// (transient), or data integrity (fatal).
pub fn classify_io(e: &io::Error) -> ErrorClass {
    use io::ErrorKind::*;
    match e.kind() {
        _ if peer_closed(e) => ErrorClass::Closed,
        TimedOut | WouldBlock | ConnectionRefused | Interrupted | AddrInUse | AddrNotAvailable => {
            ErrorClass::Transient
        }
        _ => ErrorClass::Fatal,
    }
}

/// An absolute point in time the retry loop must not run past.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// Deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Self {
            at: Some(Instant::now() + d),
        }
    }

    /// No deadline: the retry loop is bounded by attempts only.
    pub fn never() -> Self {
        Self { at: None }
    }

    /// Time left (zero once expired); `None` when unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// True when no time remains.
    pub fn expired(&self) -> bool {
        matches!(self.at, Some(at) if Instant::now() >= at)
    }
}

/// Exponential backoff with decorrelated jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// First delay and lower bound of every jittered draw.
    pub base: Duration,
    /// Upper clamp on any single delay.
    pub cap: Duration,
    /// Maximum attempts (including the first); 0 is treated as 1.
    pub max_attempts: u32,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(5),
            max_attempts: 5,
            jitter_seed: 0x5eed,
        }
    }
}

/// SplitMix64 step: advances `state` and returns the next 64-bit draw.
/// This is the repo's canonical sub-seed derivation — scenario harnesses
/// fan one recorded master seed out into per-component seeds (fault
/// plans, shaping jitter, partition skew) through it, so an entire run
/// replays from a single number.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Iterator over a policy's jittered backoff delays (no sleeping).
#[derive(Debug, Clone)]
pub struct BackoffIter {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
    emitted: u32,
    max: u32,
}

impl Iterator for BackoffIter {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.emitted >= self.max {
            return None;
        }
        self.emitted += 1;
        let lo = self.base.as_secs_f64();
        let hi = (self.prev.as_secs_f64() * 3.0).max(lo);
        let unit = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let drawn = lo + (hi - lo) * unit;
        let clamped = Duration::from_secs_f64(drawn.min(self.cap.as_secs_f64()));
        self.prev = clamped;
        Some(clamped)
    }
}

impl RetryPolicy {
    /// Policy with the given base/cap delays and attempt budget.
    pub fn new(base: Duration, cap: Duration, max_attempts: u32) -> Self {
        Self {
            base,
            cap,
            max_attempts,
            jitter_seed: 0x5eed,
        }
    }

    /// A policy that never retries (one attempt, no delay).
    pub fn none() -> Self {
        Self {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            max_attempts: 1,
            jitter_seed: 0,
        }
    }

    /// Replaces the jitter seed (distinct seeds decorrelate the backoff
    /// schedules of concurrent callers).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The deterministic delay schedule between attempts: delay `k`
    /// separates attempt `k+1` from attempt `k+2`.
    pub fn delays(&self) -> BackoffIter {
        BackoffIter {
            base: self.base,
            cap: self.cap,
            prev: self.base,
            state: self.jitter_seed,
            emitted: 0,
            max: self.max_attempts.saturating_sub(1),
        }
    }

    /// Runs `op` under this policy: retries [`ErrorClass::Transient`]
    /// failures (per `classify`) with backoff sleeps until the attempt
    /// budget or `deadline` is exhausted. The first [`ErrorClass::Closed`]
    /// failure of a run is retried at once, outside the schedule (a policy
    /// of one attempt has no schedule and retries nothing); a later one
    /// means the new channel closed too, and waits like weather. `op`
    /// receives the 0-based attempt index. Returns the last error when
    /// retries run out.
    pub fn run<T, E>(
        &self,
        deadline: Deadline,
        mut op: impl FnMut(u32) -> Result<T, E>,
        classify: impl Fn(&E) -> ErrorClass,
    ) -> Result<T, E> {
        self.run_with_sleep(deadline, &mut op, &classify, std::thread::sleep)
    }

    /// [`RetryPolicy::run`] with an injectable sleep (deterministic tests
    /// pass a recorder instead of blocking).
    pub fn run_with_sleep<T, E>(
        &self,
        deadline: Deadline,
        op: &mut impl FnMut(u32) -> Result<T, E>,
        classify: &impl Fn(&E) -> ErrorClass,
        mut sleep: impl FnMut(Duration),
    ) -> Result<T, E> {
        let mut delays = self.delays();
        let mut redial = self.max_attempts > 1;
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => match classify(&e) {
                    ErrorClass::Fatal => return Err(e),
                    ErrorClass::Closed if std::mem::take(&mut redial) && !deadline.expired() => {}
                    _ => {
                        let Some(delay) = delays.next() else {
                            return Err(e);
                        };
                        // Cap the sleep to the remaining deadline; an
                        // expired deadline ends the loop with the last error.
                        match deadline.remaining() {
                            Some(rem) if rem.is_zero() => return Err(e),
                            rem => sleep(rem.map_or(delay, |rem| delay.min(rem))),
                        }
                    }
                },
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn transient() -> io::Error {
        io::Error::new(io::ErrorKind::TimedOut, "t")
    }

    fn closed() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "peer closed")
    }

    fn refused() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionRefused, "nobody listening")
    }

    /// Runs `script` (one outcome per attempt, the last repeating) under
    /// `policy` and returns `(attempts, sleeps)`. With nothing to dial, a
    /// closed peer is final, as in the coordinator.
    fn drive(
        policy: &RetryPolicy,
        can_redial: bool,
        script: &[fn() -> io::Result<()>],
    ) -> (u32, Vec<Duration>) {
        let mut slept = Vec::new();
        let mut attempts = 0;
        let _ = policy.run_with_sleep(
            Deadline::never(),
            &mut |a| {
                attempts += 1;
                script[(a as usize).min(script.len() - 1)]()
            },
            &|e| match classify_io(e) {
                ErrorClass::Closed if !can_redial => ErrorClass::Fatal,
                class => class,
            },
            |d| slept.push(d),
        );
        (attempts, slept)
    }

    #[test]
    fn a_closed_peer_never_sleeps_unless_the_redial_fails() {
        let policy = RetryPolicy::new(Duration::from_millis(20), Duration::from_millis(500), 4);
        let schedule: Vec<_> = policy.delays().collect();
        // Nothing to dial: the first error is the verdict.
        assert_eq!(drive(&policy, false, &[|| Err(closed())]), (1, vec![]));
        // The redial succeeds: resent at once.
        assert_eq!(
            drive(&policy, true, &[|| Err(closed()), || Ok(())]),
            (2, vec![])
        );
        // The redial is refused: that is weather, and gets the whole
        // schedule; the immediate attempt cost none of it.
        assert_eq!(
            drive(&policy, true, &[|| Err(closed()), || Err(refused())]),
            (5, schedule.clone())
        );
        // The new channel closes too: no second free attempt.
        assert_eq!(
            drive(&policy, true, &[|| Err(closed())]),
            (5, schedule.clone())
        );
        // Timeouts keep their schedule exactly.
        assert_eq!(drive(&policy, true, &[|| Err(transient())]), (4, schedule));
        // A policy of one attempt retries nothing, closed or not.
        assert_eq!(
            drive(&RetryPolicy::none(), true, &[|| Err(closed())]),
            (1, vec![])
        );
    }

    #[test]
    fn classify_timeouts_transient_data_fatal() {
        assert_eq!(classify_io(&transient()), ErrorClass::Transient);
        assert_eq!(classify_io(&closed()), ErrorClass::Closed);
        assert_eq!(classify_io(&refused()), ErrorClass::Transient);
        assert_eq!(
            classify_io(&io::Error::new(io::ErrorKind::InvalidData, "x")),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy::new(Duration::from_millis(1), Duration::from_millis(2), 5);
        let slept = RefCell::new(Vec::new());
        let mut tries = 0;
        let r = policy.run_with_sleep(
            Deadline::never(),
            &mut |a| {
                tries += 1;
                if a < 2 {
                    Err(transient())
                } else {
                    Ok(a)
                }
            },
            &classify_io,
            |d| slept.borrow_mut().push(d),
        );
        assert_eq!(r.unwrap(), 2);
        assert_eq!(tries, 3);
        assert_eq!(slept.borrow().len(), 2);
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let policy = RetryPolicy::default();
        let mut tries = 0;
        let r: Result<(), _> = policy.run_with_sleep(
            Deadline::never(),
            &mut |_| {
                tries += 1;
                Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame"))
            },
            &classify_io,
            |_| {},
        );
        assert!(r.is_err());
        assert_eq!(tries, 1);
    }

    #[test]
    fn attempt_budget_bounds_retries() {
        let policy = RetryPolicy::new(Duration::from_nanos(1), Duration::from_nanos(2), 4);
        let mut tries = 0;
        let r: Result<(), _> = policy.run_with_sleep(
            Deadline::never(),
            &mut |_| {
                tries += 1;
                Err(transient())
            },
            &classify_io,
            |_| {},
        );
        assert!(r.is_err());
        assert_eq!(tries, 4);
    }

    #[test]
    fn expired_deadline_stops_immediately() {
        let policy = RetryPolicy::new(Duration::from_millis(1), Duration::from_millis(5), 100);
        let deadline = Deadline::after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let mut tries = 0;
        let r: Result<(), _> = policy.run_with_sleep(
            deadline,
            &mut |_| {
                tries += 1;
                Err(transient())
            },
            &classify_io,
            |_| {},
        );
        assert!(r.is_err());
        assert_eq!(tries, 1);
    }

    #[test]
    fn delays_respect_base_and_cap() {
        let policy = RetryPolicy::new(Duration::from_millis(10), Duration::from_millis(80), 20);
        let ds: Vec<_> = policy.delays().collect();
        assert_eq!(ds.len(), 19);
        for d in &ds {
            assert!(*d >= Duration::from_millis(10), "{d:?} below base");
            assert!(*d <= Duration::from_millis(80), "{d:?} above cap");
        }
    }

    #[test]
    fn delay_schedule_is_deterministic_per_seed() {
        let p1 = RetryPolicy {
            jitter_seed: 9,
            ..RetryPolicy::default()
        };
        let p2 = RetryPolicy {
            jitter_seed: 9,
            ..RetryPolicy::default()
        };
        let p3 = RetryPolicy {
            jitter_seed: 10,
            ..RetryPolicy::default()
        };
        assert_eq!(
            p1.delays().collect::<Vec<_>>(),
            p2.delays().collect::<Vec<_>>()
        );
        assert_ne!(
            p1.delays().collect::<Vec<_>>(),
            p3.delays().collect::<Vec<_>>()
        );
    }
}
