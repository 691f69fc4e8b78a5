//! Test-and-test-and-set spin lock — the non-scalable baseline.

use crate::lock::{spin_wait, Guard, Lock, RawLock};
use pk_lockdep::LockKind;
use std::sync::atomic::{AtomicBool, Ordering};

/// A test-and-test-and-set spin lock protecting a `T`.
///
/// This is the paper's model of a *non-scalable* lock: every waiter spins
/// on the same cache line, so each release triggers interconnect traffic
/// proportional to the number of waiters (§4.1). The stock kernel's
/// vfsmount-table lock that collapses Exim (§5.2) behaves like this.
pub type SpinLock<T> = Lock<RawSpin, T>;

/// RAII guard for [`SpinLock`]; releases the lock on drop.
pub type SpinGuard<'a, T> = Guard<'a, RawSpin, T>;

/// The TTAS algorithm: one flag, polled with plain loads and swapped only
/// when it looks free — all waiters still share its line.
pub struct RawSpin {
    locked: AtomicBool,
}

// SAFETY: Only the thread whose CAS flipped `locked` false → true
// (`Acquire`) holds the lock until its `Release` store of false.
unsafe impl RawLock for RawSpin {
    const INIT: Self = Self {
        locked: AtomicBool::new(false),
    };
    const KIND: LockKind = LockKind::Spin;
    const NAME: &'static str = "SpinLock";
    type Token = ();

    #[inline]
    fn lock(&self) -> ((), u64) {
        let mut spins = 0u64;
        while self.try_lock().is_none() {
            // Spin on a plain load until the line looks free (TTAS).
            while self.locked.load(Ordering::Relaxed) {
                spin_wait(&mut spins);
            }
        }
        ((), spins)
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then_some(())
    }

    #[inline]
    unsafe fn unlock(&self, (): ()) {
        self.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Returns whether the lock is currently held.
    pub fn is_locked(&self) -> bool {
        self.raw.locked.load(Ordering::Relaxed)
    }
}
