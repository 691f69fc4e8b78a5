//! FIFO ticket lock.

use crate::lock::{spin_wait, Guard, Lock, RawLock};
use pk_lockdep::LockKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// A FIFO ticket lock protecting a `T`.
///
/// Linux spinlocks of the paper's era (2.6.35) are ticket locks: arrivals
/// take a ticket and wait until the "now serving" counter reaches it.
/// Fairness prevents starvation, but all waiters still spin on the single
/// now-serving word, so the lock remains non-scalable under contention —
/// each handoff invalidates every waiter's cache line.
pub type TicketLock<T> = Lock<RawTicket, T>;

/// RAII guard for [`TicketLock`]; advances `now_serving` on drop.
pub type TicketGuard<'a, T> = Guard<'a, RawTicket, T>;

/// The ticket algorithm: a dispenser and a now-serving word.
pub struct RawTicket {
    next_ticket: AtomicU64,
    now_serving: AtomicU64,
}

// SAFETY: Tickets are unique (`fetch_add`, or the CAS in `try_lock`), the
// holder is the one thread whose ticket equals `now_serving` (read with
// `Acquire`), and only the holder advances it (`Release`).
unsafe impl RawLock for RawTicket {
    const INIT: Self = Self {
        next_ticket: AtomicU64::new(0),
        now_serving: AtomicU64::new(0),
    };
    const KIND: LockKind = LockKind::Ticket;
    const NAME: &'static str = "TicketLock";
    type Token = ();

    #[inline]
    fn lock(&self) -> ((), u64) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u64;
        while self.now_serving.load(Ordering::Acquire) != ticket {
            spin_wait(&mut spins);
        }
        ((), spins)
    }

    /// Takes the lock only if no one is waiting or holding it.
    #[inline]
    fn try_lock(&self) -> Option<()> {
        let serving = self.now_serving.load(Ordering::Acquire);
        self.next_ticket
            .compare_exchange(serving, serving + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then_some(())
    }

    #[inline]
    unsafe fn unlock(&self, (): ()) {
        self.now_serving.fetch_add(1, Ordering::Release);
    }
}

impl<T: ?Sized> TicketLock<T> {
    /// Returns how many tickets are waiting (including the holder).
    pub fn queue_depth(&self) -> u64 {
        let raw = &self.raw;
        raw.next_ticket
            .load(Ordering::Relaxed)
            .saturating_sub(raw.now_serving.load(Ordering::Relaxed))
    }
}
