//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the minimal subset of the `parking_lot` API the codebase uses:
//! [`Mutex`], [`RwLock`] and [`Condvar`] with non-poisoning,
//! non-`Result` guard accessors. Backed by `std::sync` primitives; a
//! poisoned std lock (a panic while holding the guard) is recovered
//! rather than propagated, matching parking_lot's no-poisoning semantics.
//!
//! One deviation: [`Condvar`]'s waits take the guard by value and hand
//! it back (std's shape), where parking_lot takes `&mut guard`.

use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};
use std::time::Duration;

/// Mutual exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(StdMutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data (no locking
    /// needed: the borrow is exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Condition variable paired with a [`Mutex`]; its waits return the
/// re-acquired guard directly, recovering it if the lock was poisoned.
#[derive(Debug, Default)]
pub struct Condvar(StdCondvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self(StdCondvar::new())
    }

    /// Releases `guard`, blocks until notified, and re-acquires it.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`; callers
    /// re-check their condition either way.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner())
            .0
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Reader-writer lock whose accessors return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = StdRwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = StdRwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(StdRwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_lock_and_into_inner() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        *m.lock() += 1; // must not panic
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_on_a_poisoned_mutex_returns() {
        let m = std::sync::Arc::new(Mutex::new(false));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        let cv = std::sync::Arc::new(Condvar::new());
        let (m3, cv2) = (std::sync::Arc::clone(&m), std::sync::Arc::clone(&cv));
        let notifier = std::thread::spawn(move || {
            *m3.lock() = true;
            cv2.notify_all();
        });
        // Both waits must hand the guard back, not panic on the poison.
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        let g = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(*g);
        drop(g);
        notifier.join().unwrap();
    }
}
