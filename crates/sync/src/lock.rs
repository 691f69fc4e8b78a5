//! The one lock shell: value ownership, statistics, lockdep and trace
//! hooks, and the guard, written once over a [`RawLock`] algorithm.
//!
//! [`SpinLock`](crate::SpinLock), [`TicketLock`](crate::TicketLock),
//! [`McsLock`](crate::McsLock) and [`AdaptiveMutex`](crate::AdaptiveMutex)
//! alias [`Lock`], so a hook or a scheduler yield point has one home; the
//! hook order is a contract (DESIGN §8).

use crate::stats::LockStats;
use pk_lockdep::{ClassCell, ClassId, LockKind};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion algorithm with no payload: what differs between
/// the four locks.
///
/// # Safety
///
/// [`Lock`] hands out `&mut T` on the strength of these guarantees:
///
/// * between a `lock`/successful `try_lock` and the `unlock` of the
///   token it returned, no other `lock` returns and no other `try_lock`
///   succeeds (mutual exclusion);
/// * `unlock` *releases* and `lock`/`try_lock` *acquire*: everything the
///   previous holder wrote happens-before the next holder's first read;
/// * `INIT` is the unlocked state, and a token may be handed back by a
///   thread other than the one that acquired (guards are `Send`).
pub unsafe trait RawLock: Sync {
    /// The unlocked state.
    const INIT: Self;
    /// The kind lockdep and the tracer file this algorithm under.
    const KIND: LockKind;
    /// The public type name, for `Debug`.
    const NAME: &'static str;
    /// What an acquisition hands back to release (MCS: its queue node).
    type Token: Copy;

    /// Waits for the lock; returns the token and how many failed
    /// attempts the wait took (0 = uncontended).
    fn lock(&self) -> (Self::Token, u64);

    /// One attempt, no waiting.
    fn try_lock(&self) -> Option<Self::Token>;

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// `token` came from the `lock`/`try_lock` of the acquisition being
    /// ended, on this lock, and is not used again.
    unsafe fn unlock(&self, token: Self::Token);
}

/// One failed attempt of a spinning wait: count it, relax the pipeline,
/// and every 1024th time let a preempted holder run.
#[inline]
pub(crate) fn spin_wait(spins: &mut u64) {
    *spins += 1;
    std::hint::spin_loop();
    if spins.is_multiple_of(1024) {
        std::thread::yield_now();
    }
}

/// A `T` protected by the raw lock `R`; the four public locks are its
/// aliases and differ only in how a contended `lock()` waits.
///
/// # Examples
///
/// ```
/// // Or `TicketLock`, `McsLock`, `AdaptiveMutex`: the API is this type's.
/// let lock = pk_sync::SpinLock::new(vec![1, 2]);
/// lock.lock().push(3);
/// assert_eq!(lock.try_lock().map(|v| v.len()), Some(3));
/// assert_eq!(lock.stats().acquisitions(), 2);
/// assert_eq!(lock.into_inner(), [1, 2, 3]);
/// ```
pub struct Lock<R, T: ?Sized> {
    stats: LockStats,
    class: ClassCell,
    pub(crate) raw: R,
    value: UnsafeCell<T>,
}

// SAFETY: `value` is only reachable through a `Guard`, and `RawLock`
// guarantees at most one guard exists at a time, so `&Lock` shared
// across threads moves exclusive access to `T` between them: `T: Send`
// is what that needs. `stats`, `class` and every `R` are atomics, and
// `Send` is structural (`UnsafeCell<T>: Send` iff `T: Send`).
unsafe impl<R: RawLock, T: ?Sized + Send> Sync for Lock<R, T> {}

impl<R: RawLock, T> Lock<R, T> {
    /// Creates an unlocked lock containing `value`.
    pub const fn new(value: T) -> Self {
        Self {
            stats: LockStats::new(),
            class: ClassCell::new(),
            raw: R::INIT,
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<R: RawLock, T: ?Sized> Lock<R, T> {
    /// Assigns this lock to a `pk-lockdep` class (no-op unless the
    /// `lockdep` feature is enabled).
    pub fn set_class(&self, class: ClassId) {
        self.class.set_class(class);
    }

    /// Acquires the lock. Lockdep sees the acquisition before the wait
    /// (a violation is reported even if the wait never ends), stats are
    /// written under the lock just won, then the hold span opens.
    #[track_caller]
    pub fn lock(&self) -> Guard<'_, R, T> {
        pk_lockdep::acquire(&self.class, R::KIND, false);
        let (token, waited) = self.raw.lock();
        self.stats.record_acquisition(waited);
        pk_trace::lock_acquired(&self.class, R::KIND, waited);
        self.guard(token)
    }

    /// Attempts to acquire the lock without waiting; a lost attempt
    /// leaves no mark in stats, lockdep or the trace.
    #[track_caller]
    pub fn try_lock(&self) -> Option<Guard<'_, R, T>> {
        let token = self.raw.try_lock()?;
        self.stats.record_acquisition(0);
        pk_lockdep::acquire(&self.class, R::KIND, true);
        pk_trace::lock_acquired(&self.class, R::KIND, 0);
        Some(self.guard(token))
    }

    fn guard(&self, token: R::Token) -> Guard<'_, R, T> {
        Guard {
            lock: self,
            token,
            _exclusive: PhantomData,
        }
    }

    /// Returns the lock's contention statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Returns a mutable reference to the value (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<R: RawLock, T: ?Sized + fmt::Debug> fmt::Debug for Lock<R, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct(R::NAME).field("value", &&*g).finish(),
            None => write!(f, "{}(<locked>)", R::NAME),
        }
    }
}

impl<R: RawLock, T: Default> Default for Lock<R, T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard of a [`Lock`]; releases it on drop. Behaves like the
/// `&mut T` it dereferences to: `Send` when `T` is, `Sync` when `T` is.
#[must_use = "dropping the guard immediately releases the lock"]
pub struct Guard<'a, R: RawLock, T: ?Sized> {
    lock: &'a Lock<R, T>,
    token: R::Token,
    _exclusive: PhantomData<&'a mut T>,
}

// SAFETY: A guard is exclusive access to `T` plus the token; moving it
// moves `&mut T` (`T: Send`), and `RawLock` lets any thread hand the
// token back. `Sync` stays structural (it needs `T: Sync`).
unsafe impl<R: RawLock, T: ?Sized + Send> Send for Guard<'_, R, T> {}

impl<R: RawLock, T: ?Sized> Deref for Guard<'_, R, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The guard holds the lock (`RawLock` mutual exclusion),
        // so the only other references to the value are reborrows of
        // this guard, which the borrow checker orders against this one.
        unsafe { &*self.lock.value.get() }
    }
}

impl<R: RawLock, T: ?Sized> DerefMut for Guard<'_, R, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: As in `deref`, and `&mut self` makes this the only
        // live reborrow.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<R: RawLock, T: ?Sized> Drop for Guard<'_, R, T> {
    /// Trace, lockdep, then release — also when a panic unwinds through
    /// the guard: these locks do not poison.
    fn drop(&mut self) {
        pk_trace::lock_released(&self.lock.class, R::KIND);
        pk_lockdep::release(&self.lock.class);
        // SAFETY: `token` is the one this guard's acquisition returned,
        // and a guard drops once.
        unsafe { self.lock.raw.unlock(self.token) };
    }
}

#[cfg(test)]
mod tests {
    //! The shell's behaviour, each body written once and run over all
    //! four raw locks. The `miri_smoke_` subset is what CI runs under
    //! Miri; it also runs natively.

    use super::*;
    use crate::{RawAdaptive, RawMcs, RawSpin, RawTicket};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs a generic test body over every raw lock.
    macro_rules! over_all_raw_locks {
        ($body:ident) => {{
            $body::<RawSpin>();
            $body::<RawTicket>();
            $body::<RawMcs>();
            $body::<RawAdaptive>();
        }};
    }

    fn uncontended_round_trip<R: RawLock>() {
        let lock = Lock::<R, u32>::new(1);
        {
            let mut g = lock.lock();
            *g += 1;
        }
        assert_eq!(*lock.try_lock().expect("released by the guard"), 2);
        assert_eq!(lock.stats().acquisitions(), 2);
        assert_eq!(lock.stats().contended(), 0);
    }

    #[test]
    fn miri_smoke_uncontended_lock_unlock() {
        over_all_raw_locks!(uncontended_round_trip);
    }

    fn try_lock_respects_a_holder<R: RawLock>() {
        let lock = Lock::<R, ()>::new(());
        let held = lock.lock();
        assert!(lock.try_lock().is_none(), "{}", R::NAME);
        assert!(format!("{lock:?}").contains("<locked>"), "{}", R::NAME);
        drop(held);
        assert!(lock.try_lock().is_some(), "{}", R::NAME);
        // A lost attempt is not an acquisition (`Debug` made one too).
        assert_eq!(lock.stats().acquisitions(), 2, "{}", R::NAME);
    }

    #[test]
    fn miri_smoke_try_lock_fails_while_held() {
        over_all_raw_locks!(try_lock_respects_a_holder);
    }

    #[test]
    fn miri_smoke_mcs_two_waiter_handoff() {
        // Two waiters queue behind the holder (the second enqueues on the
        // first's node), then the chain hands over twice and every node
        // is freed exactly once — the pointer traffic Miri is here for.
        let lock = crate::McsLock::new(Vec::new());
        let held = lock.lock();
        std::thread::scope(|s| {
            for id in 0..2 {
                let lock = &lock;
                s.spawn(move || lock.lock().push(id));
            }
            // Not a guarantee that both are queued, only an invitation:
            // every interleaving is a valid handoff chain.
            std::thread::yield_now();
            drop(held);
        });
        let mut seen = lock.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    }

    fn excludes_and_counts_exactly<R: RawLock>() {
        // Four threads, one lock: no update is lost (mutual exclusion)
        // and no count is (the stats are load + store, exact only
        // because every writer holds the lock).
        const PER_THREAD: u64 = 25_000;
        let lock = Lock::<R, u64>::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        *lock.lock() += 1;
                    }
                });
            }
        });
        let stats = lock.stats();
        assert_eq!(stats.acquisitions(), 4 * PER_THREAD, "{}", R::NAME);
        assert!(stats.contended() <= stats.acquisitions(), "{}", R::NAME);
        assert!(stats.spin_iterations() >= stats.contended(), "{}", R::NAME);
        assert_eq!(lock.into_inner(), 4 * PER_THREAD, "{}", R::NAME);
    }

    #[test]
    fn mutual_exclusion_and_exact_stats_under_four_threads() {
        over_all_raw_locks!(excludes_and_counts_exactly);
    }

    fn panic_releases<R: RawLock>() {
        let lock = Lock::<R, u32>::new(0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut g = lock.lock();
            *g = 7;
            panic!("unwinding through a {} guard", R::NAME);
        }));
        assert!(unwound.is_err());
        // No poisoning: the next holder sees what the panicking one wrote.
        assert_eq!(*lock.try_lock().expect("guard drop released"), 7);
        assert_eq!(*lock.lock(), 7);
    }

    #[test]
    fn a_panic_while_holding_the_guard_releases_the_lock() {
        over_all_raw_locks!(panic_releases);
    }

    fn owned_access<R: RawLock>() {
        let mut lock = Lock::<R, String>::default();
        lock.get_mut().push('a');
        lock.lock().push('b');
        assert_eq!(
            format!("{lock:?}"),
            format!("{} {{ value: \"ab\" }}", R::NAME)
        );
        assert_eq!(lock.into_inner(), "ab");
    }

    #[test]
    fn get_mut_into_inner_default_and_debug() {
        over_all_raw_locks!(owned_access);
    }

    #[test]
    fn guards_move_between_threads_with_their_tokens() {
        // An MCS guard carries a raw node pointer; the shell's `Send`
        // impl is what lets another thread finish the handoff.
        fn release_elsewhere<R: RawLock>() {
            let lock = Lock::<R, u32>::new(0);
            let mut g = lock.lock();
            std::thread::scope(|s| {
                s.spawn(move || *g += 1);
            });
            assert_eq!(*lock.lock(), 1);
        }
        over_all_raw_locks!(release_elsewhere);
    }
}
