//! Adaptive mutex: spin briefly, then yield the CPU.

use crate::stats::LockStats;
use pk_lockdep::{ClassCell, ClassId, LockKind};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A spin-then-yield mutex modelling Linux's adaptive mutexes.
///
/// Per the paper's footnote: "a thread initially busy waits to acquire a
/// mutex, but if the wait time is long the thread yields the CPU." The
/// acquisition order is *not* fair — a thread that just released (or just
/// arrived, cache-hot) can reacquire immediately while older waiters are
/// still parked. Under intense contention this causes the starvation the
/// paper measures in PostgreSQL's `lseek` path, where system time explodes
/// from 1.7 µs/query at 32 cores to 322 µs/query at 48 (§5.5).
///
/// The mutex tracks [`LockStats`] plus a starvation diagnostic: the
/// maximum number of failed wake-ups any single acquisition endured.
///
/// # Examples
///
/// ```
/// let m = pk_sync::AdaptiveMutex::new(10);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 11);
/// ```
pub struct AdaptiveMutex<T: ?Sized> {
    stats: LockStats,
    class: ClassCell,
    max_wait_rounds: AtomicU64,
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: Exclusive access is mediated by `locked`.
unsafe impl<T: ?Sized + Send> Send for AdaptiveMutex<T> {}
// SAFETY: Mutation only occurs through the exclusive guard.
unsafe impl<T: ?Sized + Send> Sync for AdaptiveMutex<T> {}

/// How many busy-wait iterations before yielding (the "adaptive" part).
const SPIN_BUDGET: u64 = 128;

impl<T> AdaptiveMutex<T> {
    /// Creates an unlocked mutex containing `value`.
    pub const fn new(value: T) -> Self {
        Self {
            stats: LockStats::new(),
            class: ClassCell::new(),
            max_wait_rounds: AtomicU64::new(0),
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> AdaptiveMutex<T> {
    /// Assigns this mutex to a `pk-lockdep` class (no-op unless the
    /// `lockdep` feature is enabled).
    pub fn set_class(&self, class: ClassId) {
        self.class.set_class(class);
    }

    /// Acquires the mutex: spins up to a budget, then yields in a loop.
    #[track_caller]
    pub fn lock(&self) -> AdaptiveMutexGuard<'_, T> {
        pk_lockdep::acquire(&self.class, LockKind::Blocking, false);
        let mut spins = 0u64;
        let mut yield_rounds = 0u64;
        loop {
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.stats.record_acquisition(spins + yield_rounds);
                // Written under the mutex just won, like the stats.
                if yield_rounds > self.max_wait_rounds.load(Ordering::Relaxed) {
                    self.max_wait_rounds.store(yield_rounds, Ordering::Relaxed);
                }
                pk_trace::lock_acquired(&self.class, LockKind::Blocking, spins + yield_rounds);
                return AdaptiveMutexGuard { lock: self };
            }
            if spins < SPIN_BUDGET {
                spins += 1;
                std::hint::spin_loop();
            } else {
                yield_rounds += 1;
                std::thread::yield_now();
            }
        }
    }

    /// Attempts to acquire the mutex without waiting.
    #[track_caller]
    pub fn try_lock(&self) -> Option<AdaptiveMutexGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.stats.record_acquisition(0);
            pk_lockdep::acquire(&self.class, LockKind::Blocking, true);
            pk_trace::lock_acquired(&self.class, LockKind::Blocking, 0);
            Some(AdaptiveMutexGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns the mutex's contention statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Returns the worst yield-round count any acquisition suffered — the
    /// starvation diagnostic.
    pub fn max_wait_rounds(&self) -> u64 {
        self.max_wait_rounds.load(Ordering::Relaxed)
    }

    /// Returns a mutable reference to the value (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for AdaptiveMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f
                .debug_struct("AdaptiveMutex")
                .field("value", &&*g)
                .finish(),
            None => f.write_str("AdaptiveMutex(<locked>)"),
        }
    }
}

impl<T: Default> Default for AdaptiveMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard for [`AdaptiveMutex`].
#[must_use = "dropping the guard immediately releases the mutex"]
pub struct AdaptiveMutexGuard<'a, T: ?Sized> {
    lock: &'a AdaptiveMutex<T>,
}

impl<T: ?Sized> Deref for AdaptiveMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The guard holds the mutex.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for AdaptiveMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: The guard holds the mutex exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for AdaptiveMutexGuard<'_, T> {
    fn drop(&mut self) {
        pk_trace::lock_released(&self.lock.class, LockKind::Blocking);
        pk_lockdep::release(&self.lock.class);
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_holds() {
        let m = Arc::new(AdaptiveMutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 40_000);
    }

    #[test]
    fn try_lock_respects_holder() {
        let m = AdaptiveMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn stats_track_contention() {
        let m = AdaptiveMutex::new(());
        drop(m.lock());
        drop(m.lock());
        assert_eq!(m.stats().acquisitions(), 2);
        assert_eq!(m.stats().contended(), 0);
        assert_eq!(m.max_wait_rounds(), 0);
    }
}
