//! Adaptive mutex: spin briefly, then yield the CPU.

use crate::lock::{Guard, Lock, RawLock};
use crate::spinlock::RawSpin;
use pk_lockdep::LockKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// A spin-then-yield mutex modelling Linux's adaptive mutexes.
///
/// Per the paper's footnote: "a thread initially busy waits to acquire a
/// mutex, but if the wait time is long the thread yields the CPU." The
/// order is *not* fair — a thread that just released (or just arrived,
/// cache-hot) can reacquire while older waiters are still parked. Under
/// intense contention this is the starvation the paper measures in
/// PostgreSQL's `lseek` path: 1.7 µs/query of system time at 32 cores,
/// 322 µs at 48 (§5.5). [`max_wait_rounds`](Lock::max_wait_rounds) is the
/// diagnostic for it.
pub type AdaptiveMutex<T> = Lock<RawAdaptive, T>;

/// RAII guard for [`AdaptiveMutex`].
pub type AdaptiveMutexGuard<'a, T> = Guard<'a, RawAdaptive, T>;

/// How many busy-wait iterations before yielding (the "adaptive" part).
const SPIN_BUDGET: u64 = 128;

/// The spin-then-yield algorithm: a [`RawSpin`] flag waited on with a
/// different policy, plus the starvation diagnostic.
pub struct RawAdaptive {
    flag: RawSpin,
    max_wait_rounds: AtomicU64,
}

// SAFETY: Mutual exclusion and ordering are `RawSpin`'s; only the wait
// between attempts differs.
unsafe impl RawLock for RawAdaptive {
    const INIT: Self = Self {
        flag: RawSpin::INIT,
        max_wait_rounds: AtomicU64::new(0),
    };
    const KIND: LockKind = LockKind::Blocking;
    const NAME: &'static str = "AdaptiveMutex";
    type Token = ();

    /// Spins up to a budget, then yields in a loop.
    #[inline]
    fn lock(&self) -> ((), u64) {
        let mut spins = 0u64;
        let mut yield_rounds = 0u64;
        while self.flag.try_lock().is_none() {
            if spins < SPIN_BUDGET {
                spins += 1;
                std::hint::spin_loop();
            } else {
                yield_rounds += 1;
                std::thread::yield_now();
            }
        }
        // Written under the mutex just won, like the stats.
        if yield_rounds > self.max_wait_rounds.load(Ordering::Relaxed) {
            self.max_wait_rounds.store(yield_rounds, Ordering::Relaxed);
        }
        ((), spins + yield_rounds)
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        self.flag.try_lock()
    }

    #[inline]
    unsafe fn unlock(&self, (): ()) {
        // SAFETY: The caller holds this mutex, i.e. the flag.
        unsafe { self.flag.unlock(()) };
    }
}

impl<T: ?Sized> AdaptiveMutex<T> {
    /// Returns the worst yield-round count any acquisition suffered — the
    /// starvation diagnostic.
    pub fn max_wait_rounds(&self) -> u64 {
        self.raw.max_wait_rounds.load(Ordering::Relaxed)
    }
}
